//! The pastebin-like service.
//!
//! Two interfaces matter to the study:
//!
//! 1. The **scraping feed** (the paid API): every paste, delivered as it is
//!    posted. The [`crate::collect::Collector`] consumes this.
//! 2. **Per-paste availability**: a paste can later be deleted (by the
//!    poster, by an expiry date, or after an abuse report). The paper's
//!    Table 3 survey re-visits period-1 pastes a month later and compares
//!    deletion rates of dox vs non-dox files; [`SimPastebin::is_available`]
//!    and [`SimPastebin::deletion_survey`] reproduce that protocol.

use dox_osn::clock::SimTime;
use serde::Serialize;
use std::collections::HashMap;

/// Metadata the service retains per paste (bodies are not stored — the
/// collection feed hands them through at posting time, and the deletion
/// survey needs only status).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PasteMeta {
    /// Document id (shared with the synthetic stream).
    pub id: u64,
    /// Posting time.
    pub posted_at: SimTime,
    /// Deletion time, if the paste was ever deleted.
    pub deleted_at: Option<SimTime>,
}

/// The simulated pastebin service.
#[derive(Debug, Clone, Default)]
pub struct SimPastebin {
    pastes: Vec<PasteMeta>,
    index: HashMap<u64, usize>,
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
    ///
    /// # Panics
    /// Panics on duplicate ids.
    pub fn post(&mut self, id: u64, posted_at: SimTime, deleted_at: Option<SimTime>) {
        assert!(
            self.index.insert(id, self.pastes.len()).is_none(),
            "paste id {id} posted twice"
        );
        self.pastes.push(PasteMeta {
            id,
            posted_at,
            deleted_at,
        });
    }

    /// Number of recorded pastes.
    pub fn len(&self) -> usize {
        self.pastes.len()
    }

    /// True when no pastes are recorded.
    pub fn is_empty(&self) -> bool {
        self.pastes.is_empty()
    }

    /// Whether paste `id` is still retrievable at `at`. Unknown ids are
    /// unavailable.
    pub fn is_available(&self, id: u64, at: SimTime) -> bool {
        match self.index.get(&id) {
            Some(&i) => {
                let p = &self.pastes[i];
                p.posted_at <= at && p.deleted_at.is_none_or(|d| d > at)
            }
            None => false,
        }
    }

    /// Metadata of paste `id`.
    pub fn meta(&self, id: u64) -> Option<PasteMeta> {
        self.index.get(&id).map(|&i| self.pastes[i])
    }

    /// The paid scraping API: return up to `limit` paste ids posted at or
    /// after `since`, oldest first, together with a cursor for the next
    /// page (`None` when the listing is exhausted). Deleted pastes still
    /// appear in the listing — the API reports postings; availability is a
    /// separate check, exactly the split the Table 3 survey relies on.
    ///
    /// # Panics
    /// Panics when `limit == 0`.
    pub fn scrape_page(
        &self,
        since: SimTime,
        cursor: Option<usize>,
        limit: usize,
    ) -> (Vec<PasteMeta>, Option<usize>) {
        assert!(limit > 0, "page limit must be positive");
        let start = cursor.unwrap_or_else(|| self.pastes.partition_point(|p| p.posted_at < since));
        let end = (start + limit).min(self.pastes.len());
        let page = self.pastes[start..end].to_vec();
        let next = (end < self.pastes.len()).then_some(end);
        (page, next)
    }

    /// Run the Table 3 protocol: for every paste posted in
    /// `[window.0, window.1)`, check availability one `survey_delay` after
    /// posting, splitting by whether the pipeline labeled it a dox
    /// (`is_dox(id)`).
    pub fn deletion_survey(
        &self,
        window: (SimTime, SimTime),
        survey_delay: dox_osn::clock::SimDuration,
        is_dox: &dyn Fn(u64) -> bool,
    ) -> DeletionSurvey {
        let mut s = DeletionSurvey::default();
        for p in &self.pastes {
            if p.posted_at < window.0 || p.posted_at >= window.1 {
                continue;
            }
            let check_at = p.posted_at + survey_delay;
            let deleted = !self.is_available(p.id, check_at);
            if is_dox(p.id) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use dox_osn::clock::SimDuration;

    #[test]
    fn availability_respects_post_and_delete_times() {
        let mut pb = SimPastebin::new();
        pb.post(1, SimTime::from_days(5), Some(SimTime::from_days(10)));
        assert!(!pb.is_available(1, SimTime::from_days(4)));
        assert!(pb.is_available(1, SimTime::from_days(5)));
        assert!(pb.is_available(1, SimTime::from_days(9)));
        assert!(!pb.is_available(1, SimTime::from_days(10)));
        assert!(!pb.is_available(99, SimTime::from_days(5)));
    }

    #[test]
    fn never_deleted_pastes_stay_available() {
        let mut pb = SimPastebin::new();
        pb.post(2, SimTime::from_days(1), None);
        assert!(pb.is_available(2, SimTime::from_days(10_000)));
    }

    #[test]
    #[should_panic(expected = "posted twice")]
    fn duplicate_id_panics() {
        let mut pb = SimPastebin::new();
        pb.post(1, SimTime::EPOCH, None);
        pb.post(1, SimTime::EPOCH, None);
    }

    #[test]
    fn scrape_pages_cover_the_listing_once() {
        let mut pb = SimPastebin::new();
        for i in 0..25 {
            pb.post(i, SimTime::from_days(i), None);
        }
        let mut collected = Vec::new();
        let mut cursor = None;
        loop {
            let (page, next) = pb.scrape_page(SimTime::from_days(5), cursor, 10);
            assert!(page.len() <= 10);
            collected.extend(page.into_iter().map(|p| p.id));
            match next {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        // Ids 5..=24, oldest first, each exactly once.
        assert_eq!(collected, (5..25).collect::<Vec<u64>>());
    }

    #[test]
    fn scrape_lists_deleted_pastes_too() {
        let mut pb = SimPastebin::new();
        pb.post(1, SimTime::from_days(1), Some(SimTime::from_days(2)));
        let (page, next) = pb.scrape_page(SimTime::EPOCH, None, 10);
        assert_eq!(page.len(), 1);
        assert!(next.is_none());
        assert!(!pb.is_available(1, SimTime::from_days(3)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_page_limit_panics() {
        SimPastebin::new().scrape_page(SimTime::EPOCH, None, 0);
    }

    #[test]
    fn survey_splits_by_label_and_window() {
        let mut pb = SimPastebin::new();
        // two doxes in-window, one deleted within 30 days
        pb.post(1, SimTime::from_days(1), Some(SimTime::from_days(8)));
        pb.post(2, SimTime::from_days(2), None);
        // two others, one deleted
        pb.post(3, SimTime::from_days(3), Some(SimTime::from_days(20)));
        pb.post(4, SimTime::from_days(4), None);
        // out-of-window dox, ignored
        pb.post(5, SimTime::from_days(100), Some(SimTime::from_days(101)));
        let survey = pb.deletion_survey(
            (SimTime::EPOCH, SimTime::from_days(42)),
            SimDuration::from_days(30),
            &|id| id <= 2,
        );
        assert_eq!(survey.dox_total, 2);
        assert_eq!(survey.dox_deleted, 1);
        assert_eq!(survey.other_total, 2);
        assert_eq!(survey.other_deleted, 1);
        assert_eq!(survey.dox_rate(), 0.5);
    }

    #[test]
    fn deletion_after_survey_horizon_not_counted() {
        let mut pb = SimPastebin::new();
        pb.post(1, SimTime::from_days(1), Some(SimTime::from_days(35)));
        let survey = pb.deletion_survey(
            (SimTime::EPOCH, SimTime::from_days(42)),
            SimDuration::from_days(30),
            &|_| true,
        );
        assert_eq!(survey.dox_deleted, 0, "deleted at day 35 > day 31 check");
    }

    #[test]
    fn empty_survey_rates_are_zero() {
        let pb = SimPastebin::new();
        let s = pb.deletion_survey(
            (SimTime::EPOCH, SimTime::from_days(1)),
            SimDuration::from_days(30),
            &|_| true,
        );
        assert_eq!(s.dox_rate(), 0.0);
        assert_eq!(s.other_rate(), 0.0);
    }
}
