//! The streaming Table 3 tally against the archive protocol it replaced.
//!
//! The oracle below is the survey as it ran before `SimPastebin` stopped
//! keeping a record per paste: archive every paste, then re-visit each
//! window paste one survey delay after posting and ask whether it is still
//! available. On random posting streams the streaming tally must return
//! an equal `DeletionSurvey`.

use dox_osn::clock::{SimDuration, SimTime};
use dox_sites::pastebin::{DeletionSurvey, SimPastebin, SURVEY_DELAY, SURVEY_WINDOW};
use dox_synth::corpus::Source;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// The archive protocol: one record per paste, surveyed after the fact.
#[derive(Default)]
struct ArchivePastebin {
    pastes: Vec<(u64, SimTime, Option<SimTime>)>,
    index: HashMap<u64, usize>,
}

impl ArchivePastebin {
    fn post(&mut self, id: u64, posted_at: SimTime, deleted_at: Option<SimTime>) {
        assert!(self.index.insert(id, self.pastes.len()).is_none());
        self.pastes.push((id, posted_at, deleted_at));
    }

    fn is_available(&self, id: u64, at: SimTime) -> bool {
        self.index.get(&id).is_some_and(|&i| {
            let (_, posted_at, deleted_at) = self.pastes[i];
            posted_at <= at && deleted_at.is_none_or(|d| d > at)
        })
    }

    fn deletion_survey(
        &self,
        window: (SimTime, SimTime),
        survey_delay: SimDuration,
        is_dox: &dyn Fn(u64) -> bool,
    ) -> DeletionSurvey {
        let mut s = DeletionSurvey::default();
        for &(id, posted_at, _) in &self.pastes {
            if posted_at < window.0 || posted_at >= window.1 {
                continue;
            }
            let deleted = !self.is_available(id, posted_at + survey_delay);
            if is_dox(id) {
                s.dox_total += 1;
                s.dox_deleted += u64::from(deleted);
            } else {
                s.other_total += 1;
                s.other_deleted += u64::from(deleted);
            }
        }
        s
    }
}

/// A labeled document as the survey receives it.
type Labeled = (Source, u64, SimTime);

/// Post `pastes` to both implementations and survey them with the same
/// labels; returns `(streaming, oracle)`.
fn both(
    pastes: &[(u64, SimTime, Option<SimTime>)],
    labeled: &[Labeled],
) -> (DeletionSurvey, DeletionSurvey) {
    let mut streaming = SimPastebin::new();
    let mut archive = ArchivePastebin::default();
    for &(id, posted_at, deleted_at) in pastes {
        streaming.post(id, posted_at, deleted_at);
        archive.post(id, posted_at, deleted_at);
    }
    // The archive-era oracle was `dox_ids.contains(id)`; chan post ids
    // never collide with paste ids, so the source needs no check there.
    let dox_ids: BTreeSet<u64> = labeled.iter().map(|&(_, id, _)| id).collect();
    (
        streaming.deletion_survey(labeled.iter().copied()),
        archive.deletion_survey(SURVEY_WINDOW, SURVEY_DELAY, &|id| dox_ids.contains(&id)),
    )
}

/// A posting time: the window's edges and their neighbours, or any
/// minute from the epoch to well past the window.
fn posting_time(pick: u64, minute: u64) -> SimTime {
    let (start, end) = SURVEY_WINDOW;
    match pick {
        0 => start,
        1 => SimTime(start.0 + 1),
        2 => SimTime(end.0 - 1),
        3 => end,
        4 => SimTime(end.0 + 1),
        _ => SimTime(minute),
    }
}

/// A deletion time relative to the paste's check time: never, exactly at
/// it, one minute either side, at posting, or anywhere in two delays.
fn deletion_time(pick: u64, posted_at: SimTime, minute: u64) -> Option<SimTime> {
    let check = (posted_at + SURVEY_DELAY).0;
    match pick {
        0 => None,
        1 => Some(SimTime(check)),
        2 => Some(SimTime(check - 1)),
        3 => Some(SimTime(check + 1)),
        4 => Some(posted_at),
        _ => Some(SimTime(posted_at.0 + minute % (2 * SURVEY_DELAY.0))),
    }
}

/// Distinct paste ids in a scrambled order (multiplication by an odd
/// constant is a bijection mod 2^32).
fn paste_id(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF
}

/// Chan post ids live above every paste id.
const CHAN_IDS: u64 = 1 << 40;

const HORIZON: u64 = 60 * 24 * 60;

proptest! {
    #[test]
    fn streaming_survey_matches_the_archive_oracle(
        posts in proptest::collection::vec((0u64..9, 0u64..HORIZON, 0u64..8, 0u64..4), 0..120),
        chan in proptest::collection::vec((0u64..HORIZON, 0u64..3), 0..10),
    ) {
        let mut pastes = Vec::new();
        let mut labeled = Vec::new();
        for (i, &(when, minute, deletion, label)) in posts.iter().enumerate() {
            let id = paste_id(i);
            let posted_at = posting_time(when, minute);
            pastes.push((id, posted_at, deletion_time(deletion, posted_at, minute)));
            // Half the pastes are labeled dox, some of them twice.
            for _ in 0..label.saturating_sub(1) {
                labeled.push((Source::Pastebin, id, posted_at));
            }
        }
        for (i, &(minute, board)) in chan.iter().enumerate() {
            let source = [Source::Chan4B, Source::Chan4Pol, Source::Chan8Pol][board as usize];
            labeled.push((source, CHAN_IDS + i as u64, SimTime(minute)));
        }
        // Labels arrive in detection order, not posting order.
        labeled.reverse();
        let (streaming, oracle) = both(&pastes, &labeled);
        prop_assert_eq!(streaming, oracle);
    }
}

#[test]
fn edge_cases_match_the_archive_oracle() {
    let (start, end) = SURVEY_WINDOW;
    let check = |t: SimTime| t + SURVEY_DELAY;
    let pastes = [
        // Posted exactly at the window's start: in; deleted at its check time.
        (1, start, Some(check(start))),
        // One minute before the window closes: in; deleted a minute late.
        (2, SimTime(end.0 - 1), Some(SimTime(check(end).0))),
        // Posted exactly at the window's end: out.
        (3, end, Some(check(end))),
        // Never deleted.
        (4, SimTime(start.0 + 60), None),
        // Deleted a minute before its check.
        (5, SimTime(start.0 + 90), Some(SimTime(check(start).0 + 89))),
        // Unlabeled, in the window, never deleted.
        (6, SimTime(start.0 + 120), None),
    ];
    let labeled = [
        (Source::Pastebin, 1, start),
        (Source::Pastebin, 2, SimTime(end.0 - 1)),
        // Labeled, but posted outside the window.
        (Source::Pastebin, 3, end),
        (Source::Pastebin, 4, SimTime(start.0 + 60)),
        (Source::Pastebin, 5, SimTime(start.0 + 90)),
        (Source::Pastebin, 5, SimTime(start.0 + 90)),
        // A dox on a chan board, posted in the window.
        (Source::Chan4Pol, CHAN_IDS, SimTime(start.0 + 30)),
    ];
    let (streaming, oracle) = both(&pastes, &labeled);
    assert_eq!(streaming, oracle);
    assert_eq!(
        streaming,
        DeletionSurvey {
            dox_total: 4,
            dox_deleted: 2,
            other_total: 1,
            other_deleted: 0,
        }
    );
}
