//! 14-day status timelines (paper Figure 3) and reaction timing (§6.3).
//!
//! Figure 3 plots, for Facebook and Instagram accounts in each filter era,
//! the day-by-day status (public / private / inactive) of the accounts
//! that changed status within two weeks of being doxed. §6.3 additionally
//! reports how quickly "more-private" changes land: 35.8 % within 24
//! hours, 90.6 % within 7 days.

use crate::monitor::AccountHistory;
use dox_osn::account::AccountStatus;
use dox_osn::filters::{FilterEra, FilterSchedule};
use dox_osn::network::Network;
use serde::Serialize;

/// Day-by-day status counts for one (network, era) panel of Figure 3.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimelinePanel {
    /// The network.
    pub network: Network,
    /// The filter era.
    pub era: FilterEra,
    /// Accounts in the panel (those that changed within 14 days).
    pub changed_accounts: usize,
    /// All monitored accounts of this (network, era).
    pub total_accounts: usize,
    /// `counts[day] = (public, private, inactive)` for day 0..=14, over
    /// the changed accounts.
    pub counts: Vec<(usize, usize, usize)>,
}

impl TimelinePanel {
    /// Fraction of monitored accounts that changed within two weeks.
    pub fn changed_fraction(&self) -> f64 {
        if self.total_accounts == 0 {
            0.0
        } else {
            self.changed_accounts as f64 / self.total_accounts as f64
        }
    }
}

/// Whether a history shows any status change within `days` of first
/// observation.
fn changed_within(h: &AccountHistory, days: u64) -> bool {
    let mut prev: Option<AccountStatus> = None;
    for d in 0..=days {
        let Some(s) = h.status_as_of_day(d) else {
            continue;
        };
        if let Some(p) = prev {
            if p != s {
                return true;
            }
        }
        prev = Some(s);
    }
    false
}

/// Build one Figure 3 panel.
pub fn timeline_panel<'a>(
    histories: impl Iterator<Item = &'a AccountHistory>,
    network: Network,
    era: FilterEra,
    filters: &FilterSchedule,
) -> TimelinePanel {
    let mut panel = TimelinePanel {
        network,
        era,
        changed_accounts: 0,
        total_accounts: 0,
        counts: vec![(0, 0, 0); 15],
    };
    for h in histories {
        if h.account.network != network {
            continue;
        }
        if filters.era(network, h.first_observed) != era {
            continue;
        }
        panel.total_accounts += 1;
        if !changed_within(h, 14) {
            continue;
        }
        panel.changed_accounts += 1;
        for day in 0..=14u64 {
            let status = h.status_as_of_day(day);
            let slot = &mut panel.counts[day as usize];
            match status {
                Some(AccountStatus::Public) => slot.0 += 1,
                Some(AccountStatus::Private) => slot.1 += 1,
                Some(AccountStatus::Inactive) => slot.2 += 1,
                None => {}
            }
        }
    }
    panel
}

/// §6.3 reaction timing over every monitored account: of the observed
/// "more-private" transitions, the fraction landing within 24 hours and
/// within 7 days of the dox being observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ReactionTiming {
    /// More-private changes observed.
    pub total: usize,
    /// Within 24 hours.
    pub within_day: usize,
    /// Within 7 days.
    pub within_week: usize,
}

impl ReactionTiming {
    /// Fraction within 24 h.
    pub fn frac_within_day(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.within_day as f64 / self.total as f64
        }
    }

    /// Fraction within 7 days.
    pub fn frac_within_week(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.within_week as f64 / self.total as f64
        }
    }
}

/// Compute §6.3 reaction timing.
///
/// Note the vantage-point caveat: a change is *observed* at the probe that
/// first sees it, so the measured delay quantizes to the probe schedule —
/// the same quantization the paper's numbers carry.
pub fn reaction_timing<'a>(histories: impl Iterator<Item = &'a AccountHistory>) -> ReactionTiming {
    let mut t = ReactionTiming::default();
    // A change first seen at the day-1 (resp. day-7) probe counts as
    // within 24 h (resp. 7 days); probes carry up to ±6 h of queue jitter,
    // so the thresholds absorb it.
    const DAY1_PROBE: f64 = 1.3;
    const DAY7_PROBE: f64 = 7.3;
    for h in histories {
        if let Some(delay) = h.first_more_private_delay() {
            t.total += 1;
            if delay.days_f64() <= DAY1_PROBE {
                t.within_day += 1;
            }
            if delay.days_f64() <= DAY7_PROBE {
                t.within_week += 1;
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_osn::account::AccountId;
    use dox_osn::clock::SimTime;
    use dox_osn::scraper::Observation;

    fn history(
        network: Network,
        uid: u64,
        observed_day: u64,
        day_status: &[(u64, AccountStatus)],
    ) -> AccountHistory {
        let account = AccountId { network, uid };
        AccountHistory {
            account,
            first_observed: SimTime::from_days(observed_day),
            observations: day_status
                .iter()
                .map(|&(d, s)| Observation {
                    account,
                    at: SimTime::from_days(observed_day + d),
                    status: s,
                })
                .collect(),
        }
    }

    use AccountStatus::{Inactive, Private, Public};

    #[test]
    fn panel_selects_changed_accounts_only() {
        let filters = FilterSchedule::paper();
        let histories = [
            history(
                Network::Facebook,
                1,
                5,
                &[(0, Public), (2, Private), (14, Private)],
            ),
            history(Network::Facebook, 2, 5, &[(0, Public), (14, Public)]),
            // changes, but only after day 14
            history(
                Network::Facebook,
                3,
                5,
                &[(0, Public), (14, Public), (21, Inactive)],
            ),
            // wrong era
            history(Network::Facebook, 4, 160, &[(0, Public), (1, Private)]),
            // wrong network
            history(Network::Twitter, 5, 5, &[(0, Public), (1, Private)]),
        ];
        let panel = timeline_panel(
            histories.iter(),
            Network::Facebook,
            FilterEra::PreFilter,
            &filters,
        );
        assert_eq!(panel.total_accounts, 3);
        assert_eq!(panel.changed_accounts, 1);
        assert!((panel.changed_fraction() - 1.0 / 3.0).abs() < 1e-9);
        // day 0-1: public; day 2 on: private
        assert_eq!(panel.counts[0], (1, 0, 0));
        assert_eq!(panel.counts[1], (1, 0, 0));
        assert_eq!(panel.counts[2], (0, 1, 0));
        assert_eq!(panel.counts[14], (0, 1, 0));
    }

    #[test]
    fn reaction_timing_buckets() {
        let histories = [
            // more-private at day 0 probe? first probe public, change at day 1
            history(Network::Instagram, 1, 0, &[(0, Public), (1, Private)]),
            history(Network::Instagram, 2, 0, &[(0, Public), (3, Private)]),
            history(Network::Instagram, 3, 0, &[(0, Public), (14, Inactive)]),
            history(Network::Instagram, 4, 0, &[(0, Public), (7, Public)]),
        ];
        let t = reaction_timing(histories.iter());
        assert_eq!(t.total, 3);
        assert_eq!(t.within_day, 1);
        assert_eq!(t.within_week, 2);
        assert!((t.frac_within_day() - 1.0 / 3.0).abs() < 1e-9);
        assert!((t.frac_within_week() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        let filters = FilterSchedule::paper();
        let panel = timeline_panel(
            std::iter::empty(),
            Network::Instagram,
            FilterEra::PostFilter,
            &filters,
        );
        assert_eq!(panel.total_accounts, 0);
        assert_eq!(panel.changed_fraction(), 0.0);
        let t = reaction_timing(std::iter::empty());
        assert_eq!(t.frac_within_day(), 0.0);
    }
}
