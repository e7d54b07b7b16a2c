//! Account status changes (paper Table 10 and §6.2.2).
//!
//! For every monitored account: did it end the measurement more private,
//! more public, or change at all? Accounts are bucketed by network and —
//! for Facebook and Instagram, whose abuse filters deployed between the
//! collection periods — by filter era. The Instagram random-sample control
//! row comes from the same computation over control histories.

use crate::monitor::AccountHistory;
use dox_osn::filters::{FilterEra, FilterSchedule};
use dox_osn::network::Network;
use serde::Serialize;
use std::collections::BTreeMap;

/// One Table 10 row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct StatusChangeRow {
    /// Accounts ending more private than they started.
    pub more_private: usize,
    /// Accounts ending more public.
    pub more_public: usize,
    /// Accounts with any observed change.
    pub any_change: usize,
    /// Accounts in the bucket.
    pub total: usize,
}

impl StatusChangeRow {
    /// Fraction helpers.
    pub fn frac_more_private(&self) -> f64 {
        frac(self.more_private, self.total)
    }

    /// Fraction ending more public.
    pub fn frac_more_public(&self) -> f64 {
        frac(self.more_public, self.total)
    }

    /// Fraction with any change.
    pub fn frac_any_change(&self) -> f64 {
        frac(self.any_change, self.total)
    }

    /// Fold one history into the row.
    pub fn add(&mut self, h: &AccountHistory) {
        self.total += 1;
        if let Some((first, last)) = h.endpoints() {
            if last.openness() < first.openness() {
                self.more_private += 1;
            }
            if last.openness() > first.openness() {
                self.more_public += 1;
            }
        }
        if h.any_change() {
            self.any_change += 1;
        }
    }
}

fn frac(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Bucket key: network plus era (`None` for networks reported without an
/// era split — Twitter, YouTube, Google+, Twitch).
pub type Bucket = (Network, Option<FilterEra>);

/// The full Table 10 (minus the control row, added by the caller).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StatusChangeTable {
    /// Rows per bucket.
    pub rows: BTreeMap<String, StatusChangeRow>,
}

/// Human-readable bucket label, matching Table 10's row names.
pub fn bucket_label(network: Network, era: Option<FilterEra>) -> String {
    match era {
        Some(FilterEra::PreFilter) => format!("{} Doxed (pre filter)", network.name()),
        Some(FilterEra::PostFilter) => format!("{} Doxed (post filter)", network.name()),
        None => format!("{} Doxed", network.name()),
    }
}

/// Compute Table 10's doxed rows from monitor histories.
///
/// Facebook and Instagram split by the era in force when the account was
/// first observed; the other networks report a single row.
pub fn status_change_table(
    histories: impl Iterator<Item = impl std::borrow::Borrow<AccountHistory>>,
    filters: &FilterSchedule,
) -> StatusChangeTable {
    let mut table = StatusChangeTable::default();
    for h in histories {
        let h = h.borrow();
        let network = h.account.network;
        let era = match network {
            Network::Facebook | Network::Instagram => Some(filters.era(network, h.first_observed)),
            _ => None,
        };
        let label = bucket_label(network, era);
        table.rows.entry(label).or_default().add(h);
    }
    table
}

/// §6.2.2's headline ratios: how much more likely doxed accounts are to
/// change than control accounts. Returns `(any_change_ratio,
/// more_private_ratio)` as multiples (the paper reports 920 % and
/// 11,700 % — i.e. ≈ 9.2× and ≈ 117×... expressed as percentage increases
/// over a small base; we report the raw ratio).
pub fn doxed_vs_control_ratios(doxed: &StatusChangeRow, control: &StatusChangeRow) -> (f64, f64) {
    let any = safe_ratio(doxed.frac_any_change(), control.frac_any_change());
    let private = safe_ratio(doxed.frac_more_private(), control.frac_more_private());
    (any, private)
}

fn safe_ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        f64::INFINITY
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_osn::account::{AccountId, AccountStatus};
    use dox_osn::clock::SimTime;
    use dox_osn::scraper::Observation;

    fn history(
        network: Network,
        uid: u64,
        observed_day: u64,
        statuses: &[AccountStatus],
    ) -> AccountHistory {
        let account = AccountId { network, uid };
        AccountHistory {
            account,
            first_observed: SimTime::from_days(observed_day),
            observations: statuses
                .iter()
                .enumerate()
                .map(|(i, &s)| Observation {
                    account,
                    at: SimTime::from_days(observed_day + i as u64),
                    status: s,
                })
                .collect(),
        }
    }

    use AccountStatus::{Inactive, Private, Public};

    #[test]
    fn row_classification() {
        let mut row = StatusChangeRow::default();
        row.add(&history(Network::Twitter, 1, 0, &[Public, Private]));
        row.add(&history(Network::Twitter, 2, 0, &[Private, Public]));
        row.add(&history(Network::Twitter, 3, 0, &[Public, Private, Public]));
        row.add(&history(Network::Twitter, 4, 0, &[Public, Public]));
        assert_eq!(row.total, 4);
        assert_eq!(row.more_private, 1);
        assert_eq!(row.more_public, 1);
        assert_eq!(row.any_change, 3, "transient counts as any-change");
        assert!((row.frac_any_change() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn inactive_end_state_is_more_private() {
        let mut row = StatusChangeRow::default();
        row.add(&history(Network::Facebook, 1, 0, &[Private, Inactive]));
        assert_eq!(row.more_private, 1);
    }

    #[test]
    fn era_split_for_facebook_and_instagram_only() {
        let filters = FilterSchedule::paper();
        let histories = [
            history(Network::Facebook, 1, 5, &[Public, Public]), // pre (day 5 < 22)
            history(Network::Facebook, 2, 160, &[Public, Public]), // post
            history(Network::Instagram, 3, 5, &[Public, Public]),
            history(Network::Twitter, 4, 5, &[Public, Public]),
            history(Network::Twitter, 5, 160, &[Public, Public]),
        ];
        let t = status_change_table(histories.iter(), &filters);
        assert_eq!(t.rows["Facebook Doxed (pre filter)"].total, 1);
        assert_eq!(t.rows["Facebook Doxed (post filter)"].total, 1);
        assert_eq!(t.rows["Instagram Doxed (pre filter)"].total, 1);
        assert_eq!(t.rows["Twitter Doxed"].total, 2, "no era split for Twitter");
    }

    #[test]
    fn ratios_match_hand_computation() {
        let doxed = StatusChangeRow {
            more_private: 17,
            more_public: 8,
            any_change: 32,
            total: 100,
        };
        let control = StatusChangeRow {
            more_private: 1,
            more_public: 1,
            any_change: 2,
            total: 1000,
        };
        let (any, private) = doxed_vs_control_ratios(&doxed, &control);
        assert!((any - 160.0).abs() < 1e-9); // 0.32 / 0.002
        assert!((private - 170.0).abs() < 1e-9); // 0.17 / 0.001
    }

    #[test]
    fn zero_control_gives_infinite_ratio() {
        let doxed = StatusChangeRow {
            more_private: 1,
            more_public: 0,
            any_change: 1,
            total: 10,
        };
        let control = StatusChangeRow {
            total: 10,
            ..StatusChangeRow::default()
        };
        let (any, private) = doxed_vs_control_ratios(&doxed, &control);
        assert!(any.is_infinite());
        assert!(private.is_infinite());
    }

    #[test]
    fn empty_history_is_counted_but_unchanged() {
        let mut row = StatusChangeRow::default();
        row.add(&AccountHistory {
            account: AccountId {
                network: Network::Twitter,
                uid: 9,
            },
            first_observed: SimTime::EPOCH,
            observations: vec![],
        });
        assert_eq!(row.total, 1);
        assert_eq!(row.any_change, 0);
    }
}
