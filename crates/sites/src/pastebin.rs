//! The pastebin-like service.
//!
//! Two interfaces matter to the study:
//!
//! 1. The **scraping feed** (the paid API): every paste, delivered as it is
//!    posted. The [`crate::collect::Collector`] consumes this.
//! 2. **Per-paste availability**: a paste can later be deleted (by the
//!    poster, by an expiry date, or after an abuse report). The paper's
//!    Table 3 survey re-visits period-1 pastes [`SURVEY_DELAY`] after
//!    posting and compares deletion rates of dox vs non-dox files.
//!
//! The survey needs one fact per window paste — was it gone at its check
//! time? — and the deletion time is known when the paste is posted, so
//! [`SimPastebin::post`] tallies it then. The service keeps no per-paste
//! archive: its state is the window's paste count plus the ids of the
//! window pastes deleted by their check time (~20k at paper scale), and
//! [`SimPastebin::deletion_survey`] joins those with the pipeline's dox
//! labels at the end of the run.

use dox_osn::clock::{SimDuration, SimTime};
use dox_osn::filters::StudyPeriods;
use dox_synth::corpus::Source;
use serde::Serialize;
use std::collections::BTreeSet;

/// The Table 3 survey window, `[start, end)`: collection period 1.
pub const SURVEY_WINDOW: (SimTime, SimTime) = StudyPeriods::paper().period1;

/// How long after posting the survey checks whether a paste is gone.
pub const SURVEY_DELAY: SimDuration = SimDuration::from_days(30);

/// Whether a paste posted at `t` is in [`SURVEY_WINDOW`].
fn in_window(t: SimTime) -> bool {
    SURVEY_WINDOW.0 <= t && t < SURVEY_WINDOW.1
}

/// The simulated pastebin service: the Table 3 survey's running tally.
#[derive(Debug, Clone, Default)]
pub struct SimPastebin {
    /// Pastes posted in the survey window.
    window_posted: u64,
    /// Ids of window pastes deleted by their check time.
    window_deleted: BTreeSet<u64>,
}

/// The Table 3 survey result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DeletionSurvey {
    /// Pastes the pipeline labeled dox.
    pub dox_total: u64,
    /// Of those, deleted by the survey time.
    pub dox_deleted: u64,
    /// All other pastes.
    pub other_total: u64,
    /// Of those, deleted.
    pub other_deleted: u64,
}

impl DeletionSurvey {
    /// Deletion rate of dox-labeled pastes.
    pub fn dox_rate(&self) -> f64 {
        rate(self.dox_deleted, self.dox_total)
    }

    /// Deletion rate of other pastes.
    pub fn other_rate(&self) -> f64 {
        rate(self.other_deleted, self.other_total)
    }
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl SimPastebin {
    /// An empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a posted paste. `deleted_at` is precomputed by the corpus
    /// model (Table 3 rates); `None` means the paste is never deleted.
    /// A paste in [`SURVEY_WINDOW`] counts as deleted when it is gone at
    /// its check time, `posted_at + SURVEY_DELAY` (a deletion at exactly
    /// that time counts).
    pub fn post(&mut self, id: u64, posted_at: SimTime, deleted_at: Option<SimTime>) {
        if !in_window(posted_at) {
            return;
        }
        self.window_posted += 1;
        if deleted_at.is_some_and(|d| d <= posted_at + SURVEY_DELAY) {
            self.window_deleted.insert(id);
        }
    }

    /// Run the Table 3 protocol: every paste posted in [`SURVEY_WINDOW`],
    /// checked [`SURVEY_DELAY`] after posting, split by whether the
    /// pipeline labeled it a dox.
    ///
    /// `labeled` yields the source, id and posting time of each document
    /// the pipeline labeled dox, in any order; chan posts, pastes outside
    /// the window and repeated ids are skipped.
    ///
    /// # Panics
    /// Panics when `labeled` names more window pastes than were posted.
    pub fn deletion_survey(
        &self,
        labeled: impl IntoIterator<Item = (Source, u64, SimTime)>,
    ) -> DeletionSurvey {
        let dox: BTreeSet<u64> = labeled
            .into_iter()
            .filter(|&(source, _, posted_at)| source == Source::Pastebin && in_window(posted_at))
            .map(|(_, id, _)| id)
            .collect();
        let dox_total = dox.len() as u64;
        assert!(
            dox_total <= self.window_posted,
            "{dox_total} labeled window pastes but only {} posted",
            self.window_posted
        );
        let dox_deleted = dox.intersection(&self.window_deleted).count() as u64;
        DeletionSurvey {
            dox_total,
            dox_deleted,
            other_total: self.window_posted - dox_total,
            other_deleted: self.window_deleted.len() as u64 - dox_deleted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day(d: u64) -> SimTime {
        SimTime::from_days(d)
    }

    fn paste(id: u64, posted_at: SimTime) -> (Source, u64, SimTime) {
        (Source::Pastebin, id, posted_at)
    }

    #[test]
    fn survey_splits_by_label_and_window() {
        let mut pb = SimPastebin::new();
        // two doxes in-window, one deleted within 30 days
        pb.post(1, day(1), Some(day(8)));
        pb.post(2, day(2), None);
        // two others, one deleted
        pb.post(3, day(3), Some(day(20)));
        pb.post(4, day(4), None);
        // out-of-window dox, ignored
        pb.post(5, day(100), Some(day(101)));
        let survey = pb.deletion_survey([
            paste(1, day(1)),
            paste(2, day(2)),
            paste(5, day(100)),
            (Source::Chan4Pol, 6, day(5)),
        ]);
        assert_eq!(survey.dox_total, 2);
        assert_eq!(survey.dox_deleted, 1);
        assert_eq!(survey.other_total, 2);
        assert_eq!(survey.other_deleted, 1);
        assert_eq!(survey.dox_rate(), 0.5);
    }

    #[test]
    fn deletion_after_survey_horizon_not_counted() {
        let mut pb = SimPastebin::new();
        pb.post(1, day(1), Some(day(35)));
        pb.post(2, day(1), Some(day(31)));
        let survey = pb.deletion_survey([paste(1, day(1)), paste(2, day(1))]);
        assert_eq!(
            survey.dox_deleted, 1,
            "day 35 > day 31 check; day 31 is the check itself"
        );
    }

    #[test]
    fn repeated_labels_count_once() {
        let mut pb = SimPastebin::new();
        pb.post(1, day(1), Some(day(2)));
        let survey = pb.deletion_survey([paste(1, day(1)), paste(1, day(1))]);
        assert_eq!((survey.dox_total, survey.dox_deleted), (1, 1));
        assert_eq!((survey.other_total, survey.other_deleted), (0, 0));
    }

    #[test]
    #[should_panic(expected = "labeled window pastes")]
    fn labels_for_unposted_window_pastes_panic() {
        SimPastebin::new().deletion_survey([paste(1, day(1))]);
    }

    #[test]
    fn empty_survey_rates_are_zero() {
        let s = SimPastebin::new().deletion_survey([]);
        assert_eq!(s.dox_rate(), 0.0);
        assert_eq!(s.other_rate(), 0.0);
    }
}
