//! Accounts and their status timelines.
//!
//! The paper's scraper records one of three states per visit — public,
//! private, or deleted/disabled (§3.1.5). An [`Account`] therefore carries a
//! sorted timeline of `(SimTime, AccountStatus)` transitions; the status at
//! any probe time is the last transition at or before it. Timelines are the
//! *ground truth* of the simulation; the scraper only ever sees point
//! samples of them, exactly like the original vantage point.

use crate::clock::SimTime;
use crate::network::Network;
use serde::Serialize;

/// Identifier of an account: its network plus a per-network numeric uid.
///
/// For Instagram the uid is monotonically increasing with registration
/// order, which is what makes the paper's random-sampling control possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct AccountId {
    /// The network this account lives on.
    pub network: Network,
    /// Per-network user id.
    pub uid: u64,
}

/// The externally observable status of an account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AccountStatus {
    /// Content visible without any social tie to the account.
    Public,
    /// The account exists but its content is restricted.
    Private,
    /// Closed, deleted, suspended or otherwise gone.
    Inactive,
}

impl AccountStatus {
    /// Openness rank: higher is more open. Used to decide whether a
    /// transition made an account "more private" or "more public".
    pub fn openness(self) -> u8 {
        match self {
            AccountStatus::Public => 2,
            AccountStatus::Private => 1,
            AccountStatus::Inactive => 0,
        }
    }
}

/// One status transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Transition {
    /// When the transition takes effect.
    pub at: SimTime,
    /// The status from this instant on.
    pub to: AccountStatus,
}

/// A simulated account.
#[derive(Debug, Clone, Serialize)]
pub struct Account {
    /// Identifier.
    pub id: AccountId,
    /// The public handle/username.
    pub handle: String,
    /// When the account was created (sim time; may predate the study).
    pub created: SimTime,
    /// Initial status at creation.
    pub initial_status: AccountStatus,
    /// Posting activity in posts/week. The paper (§6.2.1) discusses — and
    /// defers as future work — comparing doxed accounts only against
    /// *active* accounts; this field makes that comparison possible.
    /// Defaults to `1.0`; populated from a mean-1 lognormal at
    /// registration so many accounts are effectively abandoned.
    pub activity: f64,
    /// Sorted status transitions (by time; later entries win ties).
    transitions: Vec<Transition>,
}

impl Account {
    /// Create an account with no transitions and unit activity.
    pub fn new(id: AccountId, handle: String, created: SimTime, initial: AccountStatus) -> Self {
        Self {
            id,
            handle,
            created,
            initial_status: initial,
            activity: 1.0,
            transitions: Vec::new(),
        }
    }

    /// Whether the account clears the "active" bar used by the
    /// active-control analysis (≥ 1 post every two weeks).
    pub fn is_active(&self) -> bool {
        self.activity >= 0.5
    }

    /// Append a transition, keeping the timeline sorted. Equal-time
    /// transitions keep insertion order (the later insertion wins probes).
    pub fn push_transition(&mut self, at: SimTime, to: AccountStatus) {
        let pos = self.transitions.partition_point(|t| t.at <= at);
        self.transitions.insert(pos, Transition { at, to });
    }

    /// The status at `time` (ground truth).
    pub fn status_at(&self, time: SimTime) -> AccountStatus {
        self.transitions
            .iter()
            .rev()
            .find(|t| t.at <= time)
            .map_or(self.initial_status, |t| t.to)
    }

    /// The full transition list (tests and analyses use this; the scraper
    /// must not).
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Whether any transition occurs strictly within `(from, to]`.
    pub fn changed_between(&self, from: SimTime, to: SimTime) -> bool {
        self.transitions.iter().any(|t| t.at > from && t.at <= to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acct() -> Account {
        Account::new(
            AccountId {
                network: Network::Instagram,
                uid: 42,
            },
            "victim_42".into(),
            SimTime::from_days(0),
            AccountStatus::Public,
        )
    }

    #[test]
    fn status_before_any_transition_is_initial() {
        let a = acct();
        assert_eq!(a.status_at(SimTime::from_days(100)), AccountStatus::Public);
    }

    #[test]
    fn transitions_apply_in_order() {
        let mut a = acct();
        a.push_transition(SimTime::from_days(10), AccountStatus::Private);
        a.push_transition(SimTime::from_days(20), AccountStatus::Inactive);
        assert_eq!(a.status_at(SimTime::from_days(9)), AccountStatus::Public);
        assert_eq!(a.status_at(SimTime::from_days(10)), AccountStatus::Private);
        assert_eq!(a.status_at(SimTime::from_days(15)), AccountStatus::Private);
        assert_eq!(a.status_at(SimTime::from_days(25)), AccountStatus::Inactive);
    }

    #[test]
    fn out_of_order_insertion_is_sorted() {
        let mut a = acct();
        a.push_transition(SimTime::from_days(20), AccountStatus::Inactive);
        a.push_transition(SimTime::from_days(10), AccountStatus::Private);
        assert_eq!(a.status_at(SimTime::from_days(12)), AccountStatus::Private);
        assert!(a.transitions().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn same_time_later_insertion_wins() {
        let mut a = acct();
        a.push_transition(SimTime::from_days(5), AccountStatus::Private);
        a.push_transition(SimTime::from_days(5), AccountStatus::Public);
        assert_eq!(a.status_at(SimTime::from_days(5)), AccountStatus::Public);
    }

    #[test]
    fn changed_between_is_half_open() {
        let mut a = acct();
        a.push_transition(SimTime::from_days(10), AccountStatus::Private);
        assert!(a.changed_between(SimTime::from_days(9), SimTime::from_days(10)));
        assert!(!a.changed_between(SimTime::from_days(10), SimTime::from_days(11)));
        assert!(!a.changed_between(SimTime::from_days(0), SimTime::from_days(9)));
    }

    #[test]
    fn openness_ordering() {
        assert!(AccountStatus::Public.openness() > AccountStatus::Private.openness());
        assert!(AccountStatus::Private.openness() > AccountStatus::Inactive.openness());
    }
}
