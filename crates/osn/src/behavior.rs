//! The behavioural model: how accounts react to being doxed, and how the
//! control population churns on its own.
//!
//! This is the heart of the OSN substitution. The paper *measures* how
//! often doxed accounts become more private / more public / change at all
//! (Table 10), how quickly they react (35.8 % of more-private changes
//! within 24 h, 90.6 % within 7 days — §6.3), and how abuse filters changed
//! those rates. The simulator *embeds* those phenomena as generative
//! parameters; the measurement pipeline then has to recover them through
//! the same scrape-and-diff procedure the paper used. Every rate below is
//! cited to the paper table it comes from.
//!
//! Table 10 reports **population-level** outcome fractions over accounts in
//! mixed initial states (some already private when the dox landed). The
//! model therefore stores population targets and converts them into
//! state-conditional transition probabilities against the standard
//! [`InitialMix`]: a private account can only become "more public" by
//! reopening, a public account can only become "more private", and the
//! conversion makes the population-level measurement land on the paper's
//! numbers.

use crate::account::{Account, AccountStatus};
use crate::clock::{SimDuration, SimTime};
use crate::filters::{FilterEra, FilterSchedule};
use crate::network::Network;
use rand::RngExt;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// The standard initial status mix of accounts mentioned in dox files.
///
/// Doxers list accounts regardless of their privacy state; some victims
/// were already private (that is how reopening — "more public" outcomes at
/// 8.1 % on pre-filter Instagram — is possible at all).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct InitialMix {
    /// Fraction initially private.
    pub private: f64,
    /// Fraction initially inactive (dead links in dox files).
    pub inactive: f64,
}

impl InitialMix {
    /// The calibrated mix: 20 % private, 5 % inactive, 75 % public.
    pub fn paper() -> Self {
        Self {
            private: 0.20,
            inactive: 0.05,
        }
    }

    /// Fraction initially public.
    pub fn public(&self) -> f64 {
        (1.0 - self.private - self.inactive).max(0.0)
    }
}

/// Population-level reaction targets for one (network, era) cell of paper
/// Table 10.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ReactionRates {
    /// Fraction of doxed accounts ending the study more private than they
    /// began (includes closing entirely).
    pub more_private: f64,
    /// Fraction ending more public (private accounts reopening).
    pub more_public: f64,
    /// Fraction with a change that reverts (contributes to "any change"
    /// without shifting the end state).
    pub transient_change: f64,
    /// Among more-private outcomes of public accounts, the share that close
    /// outright (Inactive) rather than going Private.
    pub close_share: f64,
}

impl ReactionRates {
    /// Population-level probability of any change at all.
    pub fn any_change(&self) -> f64 {
        self.more_private + self.more_public + self.transient_change
    }

    /// Convert population targets into state-conditional probabilities
    /// under `mix`. Returns `(go_more_private, reopen_if_private,
    /// transient_if_public)`; networks without a private state get
    /// `reopen = 0`.
    fn conditional(&self, mix: &InitialMix, has_private: bool) -> (f64, f64, f64) {
        let active = (1.0 - mix.inactive).max(1e-9);
        let go_private = (self.more_private / active).min(1.0);
        let reopen = if has_private && mix.private > 0.0 {
            (self.more_public / mix.private).min(1.0)
        } else {
            0.0
        };
        let pub_share = mix.public().max(1e-9);
        let transient = (self.transient_change / pub_share).min(1.0);
        (go_private, reopen, transient)
    }
}

/// Mixture model for the delay between a dox appearing and the victim's
/// privacy reaction, matching §6.3: 35.8 % within 24 h, 90.6 % within 7
/// days, remainder within 28 days.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DelayModel {
    /// P(delay < 24 h).
    pub within_day: f64,
    /// P(delay < 7 days) — cumulative, must be ≥ `within_day`.
    pub within_week: f64,
    /// Upper bound for the slow tail, in days.
    pub max_days: f64,
}

impl Default for DelayModel {
    fn default() -> Self {
        Self {
            within_day: 0.358,
            within_week: 0.906,
            max_days: 28.0,
        }
    }
}

/// The full behavioural model.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BehaviorModel {
    /// Filter deployment schedule (decides which era a dox falls into).
    pub filters: FilterSchedule,
    /// Initial-status mix of dox-mentioned accounts.
    pub mix: InitialMix,
    /// Baseline per-study rates for undoxed accounts (Instagram control
    /// row of Table 10: 0.1 % more private, 0.1 % more public over the
    /// measurement window).
    pub baseline: ReactionRates,
    /// Reaction-delay distribution parameters.
    pub delay: DelayModel,
}

impl Default for BehaviorModel {
    fn default() -> Self {
        Self::paper()
    }
}

impl BehaviorModel {
    /// The paper-calibrated model.
    pub fn paper() -> Self {
        Self {
            filters: FilterSchedule::paper(),
            mix: InitialMix::paper(),
            baseline: ReactionRates {
                // Instagram Default row, Table 10: 0.1 / 0.1 / 0.2 %.
                more_private: 0.001,
                more_public: 0.001,
                transient_change: 0.0,
                close_share: 0.5,
            },
            delay: DelayModel::default(),
        }
    }

    /// Reaction targets for a dox on `network` observed at `time`
    /// (Table 10, with transient = any-change − more-private − more-public).
    pub fn rates(&self, network: Network, time: SimTime) -> ReactionRates {
        let era = self.filters.era(network, time);
        use FilterEra::*;
        use Network::*;
        match (network, era) {
            // Instagram Doxed pre: 17.2 / 8.1 / 32.2 %.
            (Instagram, PreFilter) => ReactionRates {
                more_private: 0.172,
                more_public: 0.081,
                transient_change: 0.069,
                close_share: 0.35,
            },
            // Instagram Doxed post: 5.7 / 1.4 / 9.9 %.
            (Instagram, PostFilter) => ReactionRates {
                more_private: 0.057,
                more_public: 0.014,
                transient_change: 0.028,
                close_share: 0.35,
            },
            // Facebook Doxed pre: 22.0 / 2.0 / 24.6 %.
            (Facebook, PreFilter) => ReactionRates {
                more_private: 0.220,
                more_public: 0.020,
                transient_change: 0.006,
                close_share: 0.40,
            },
            // Facebook Doxed post: 3.0 / <0.1 / 3.3 %.
            (Facebook, PostFilter) => ReactionRates {
                more_private: 0.030,
                more_public: 0.0009,
                transient_change: 0.002,
                close_share: 0.40,
            },
            // Twitter Doxed (no filter change): 6.9 / 2.6 / 10.5 %.
            (Twitter, _) => ReactionRates {
                more_private: 0.069,
                more_public: 0.026,
                transient_change: 0.010,
                close_share: 0.45,
            },
            // YouTube Doxed: 0.5 / 0.0 / 1.0 % — and YouTube has no
            // private state, so every more-private outcome is a closure.
            (YouTube, _) => ReactionRates {
                more_private: 0.005,
                more_public: 0.0,
                transient_change: 0.005,
                close_share: 1.0,
            },
            // Google+ and Twitch: not separately reported in Table 10;
            // modeled at Twitter-like rates (personal-but-secondary
            // networks). Documented as an assumption in DESIGN.md.
            (GooglePlus, _) | (Twitch, _) => ReactionRates {
                more_private: 0.060,
                more_public: 0.020,
                transient_change: 0.010,
                close_share: 0.45,
            },
            (Skype, _) => ReactionRates {
                more_private: 0.0,
                more_public: 0.0,
                transient_change: 0.0,
                close_share: 0.0,
            },
        }
    }

    /// Sample a reaction delay from the mixture in [`DelayModel`].
    pub fn sample_delay(&self, rng: &mut ChaCha8Rng) -> SimDuration {
        let u: f64 = rng.random_range(0.0..1.0);
        let days = if u < self.delay.within_day {
            rng.random_range(0.0..1.0)
        } else if u < self.delay.within_week {
            rng.random_range(1.0..7.0)
        } else {
            rng.random_range(7.0..self.delay.max_days)
        };
        SimDuration((days * 24.0 * 60.0).round() as u64)
    }

    /// Apply the doxing reaction to `account`, whose owner was doxed at
    /// `dox_time`. Appends the sampled transitions to the account timeline.
    ///
    /// Transitions realized from the population targets:
    /// - *more private*: Public → Private (or → Inactive for the
    ///   `close_share` fraction); Private → Inactive.
    /// - *more public*: Private → Public. Inactive accounts stay gone.
    /// - *transient*: Public flips private, reverts 2–10 days later.
    pub fn apply_dox_reaction(
        &self,
        account: &mut Account,
        dox_time: SimTime,
        rng: &mut ChaCha8Rng,
    ) {
        let rates = self.rates(account.id.network, dox_time);
        self.apply_reaction_with(&rates, account, dox_time, rng);
    }

    /// Like [`BehaviorModel::apply_dox_reaction`] but with explicit rates —
    /// ablation benchmarks inject counterfactual rate tables through this.
    pub fn apply_reaction_with(
        &self,
        rates: &ReactionRates,
        account: &mut Account,
        dox_time: SimTime,
        rng: &mut ChaCha8Rng,
    ) {
        let has_private = account.id.network.has_private_state();
        let (go_private, reopen, transient) = rates.conditional(&self.mix, has_private);
        let start = account.status_at(dox_time);
        let when = dox_time + self.sample_delay(rng);
        let u: f64 = rng.random_range(0.0..1.0);

        match start {
            AccountStatus::Public => {
                if u < go_private {
                    let closes = rng.random_range(0.0..1.0) < rates.close_share || !has_private;
                    let to = if closes {
                        AccountStatus::Inactive
                    } else {
                        AccountStatus::Private
                    };
                    account.push_transition(when, to);
                } else if u < go_private + transient && has_private {
                    account.push_transition(when, AccountStatus::Private);
                    let revert_days: f64 = rng.random_range(2.0..10.0);
                    account.push_transition(
                        when + SimDuration((revert_days * 1440.0) as u64),
                        AccountStatus::Public,
                    );
                }
            }
            AccountStatus::Private => {
                if u < go_private {
                    account.push_transition(when, AccountStatus::Inactive);
                } else if u < go_private + reopen {
                    account.push_transition(when, AccountStatus::Public);
                }
            }
            AccountStatus::Inactive => {}
        }
    }

    /// Apply baseline (undoxed) churn across the window `[start, end)`.
    /// Matches the Instagram control row of Table 10 when run over a
    /// population in the standard [`InitialMix`].
    ///
    /// Churn scales with the account's activity level (clamped to
    /// `[0.1, 4]`): people who use an account are the ones who fiddle with
    /// its settings. Activity has mean 1 across the population, so the
    /// population-level rate still matches the control row while an
    /// *active-only* sub-population churns more — the comparison the
    /// paper's §6.2.1 leaves to future work.
    pub fn apply_baseline_churn(
        &self,
        account: &mut Account,
        window: (SimTime, SimTime),
        rng: &mut ChaCha8Rng,
    ) {
        let has_private = account.id.network.has_private_state();
        let (mut go_private, mut reopen, _) = self.baseline.conditional(&self.mix, has_private);
        let scale = account.activity.clamp(0.1, 4.0);
        go_private = (go_private * scale).min(1.0);
        reopen = (reopen * scale).min(1.0);
        let span = window.1.since(window.0).0.max(1);
        let at = SimTime(window.0 .0 + rng.random_range(0..span));
        let start = account.status_at(at);
        let u: f64 = rng.random_range(0.0..1.0);
        match start {
            AccountStatus::Public => {
                if u < go_private {
                    let to =
                        if rng.random_range(0.0..1.0) < self.baseline.close_share || !has_private {
                            AccountStatus::Inactive
                        } else {
                            AccountStatus::Private
                        };
                    account.push_transition(at, to);
                }
            }
            AccountStatus::Private => {
                if u < go_private {
                    account.push_transition(at, AccountStatus::Inactive);
                } else if u < go_private + reopen {
                    account.push_transition(at, AccountStatus::Public);
                }
            }
            AccountStatus::Inactive => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::AccountId;
    use rand_chacha::rand_core::SeedableRng;

    fn mk_account(network: Network, uid: u64, status: AccountStatus) -> Account {
        Account::new(
            AccountId { network, uid },
            format!("user{uid}"),
            SimTime::EPOCH,
            status,
        )
    }

    /// Sample an initial status from the paper mix.
    fn mixed_status(rng: &mut ChaCha8Rng, has_private: bool) -> AccountStatus {
        let mix = InitialMix::paper();
        let u: f64 = rng.random_range(0.0..1.0);
        if u < mix.inactive {
            AccountStatus::Inactive
        } else if u < mix.inactive + mix.private && has_private {
            AccountStatus::Private
        } else {
            AccountStatus::Public
        }
    }

    #[test]
    fn rates_match_table10_pre_post() {
        let m = BehaviorModel::paper();
        let pre = m.rates(Network::Instagram, SimTime::from_days(5));
        let post = m.rates(Network::Instagram, SimTime::from_days(160));
        assert_eq!(pre.more_private, 0.172);
        assert_eq!(post.more_private, 0.057);
        assert!((pre.any_change() - 0.322).abs() < 1e-9);
        assert!((post.any_change() - 0.099).abs() < 1e-9);
        let fb_pre = m.rates(Network::Facebook, SimTime::from_days(5));
        let fb_post = m.rates(Network::Facebook, SimTime::from_days(160));
        assert_eq!(fb_pre.more_private, 0.220);
        assert_eq!(fb_post.more_private, 0.030);
    }

    #[test]
    fn twitter_rates_era_independent() {
        let m = BehaviorModel::paper();
        assert_eq!(
            m.rates(Network::Twitter, SimTime::from_days(5)),
            m.rates(Network::Twitter, SimTime::from_days(160))
        );
    }

    #[test]
    fn delay_distribution_matches_paper_shape() {
        let m = BehaviorModel::paper();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 20_000;
        let mut day = 0usize;
        let mut week = 0usize;
        for _ in 0..n {
            let d = m.sample_delay(&mut rng).days_f64();
            if d < 1.0 {
                day += 1;
            }
            if d < 7.0 {
                week += 1;
            }
            assert!(d < 28.0);
        }
        let fd = day as f64 / n as f64;
        let fw = week as f64 / n as f64;
        assert!((fd - 0.358).abs() < 0.02, "within-day {fd}");
        assert!((fw - 0.906).abs() < 0.02, "within-week {fw}");
    }

    #[test]
    fn table10_targets_recovered_over_mixed_population() {
        // Simulate many Instagram accounts in the standard mix, doxed
        // pre-filter; the population fractions must approach Table 10.
        let m = BehaviorModel::paper();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let dox_time = SimTime::from_days(3);
        let horizon = SimTime::from_days(60);
        let n = 40_000;
        let (mut more_private, mut more_public, mut any) = (0usize, 0usize, 0usize);
        for uid in 0..n {
            let status = mixed_status(&mut rng, true);
            let mut a = mk_account(Network::Instagram, uid, status);
            let before = a.status_at(dox_time);
            m.apply_dox_reaction(&mut a, dox_time, &mut rng);
            if a.changed_between(SimTime::EPOCH, horizon) {
                any += 1;
            }
            let after = a.status_at(horizon);
            if after.openness() < before.openness() {
                more_private += 1;
            }
            if after.openness() > before.openness() {
                more_public += 1;
            }
        }
        let mp = more_private as f64 / n as f64;
        let mpub = more_public as f64 / n as f64;
        let ac = any as f64 / n as f64;
        assert!((mp - 0.172).abs() < 0.012, "more-private {mp}");
        assert!((mpub - 0.081).abs() < 0.010, "more-public {mpub}");
        assert!((ac - 0.322).abs() < 0.015, "any-change {ac}");
    }

    #[test]
    fn private_accounts_reopen_at_conditional_rate() {
        let m = BehaviorModel::paper();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut reopened = 0;
        let n = 10_000;
        for uid in 0..n {
            let mut a = mk_account(Network::Instagram, uid, AccountStatus::Private);
            m.apply_dox_reaction(&mut a, SimTime::from_days(2), &mut rng);
            if a.status_at(SimTime::from_days(60)) == AccountStatus::Public {
                reopened += 1;
            }
        }
        // conditional reopen = more_public / private share = .081/.20 = .405
        let f = reopened as f64 / n as f64;
        assert!((f - 0.405).abs() < 0.02, "reopen rate {f}");
    }

    #[test]
    fn youtube_more_private_is_always_closure() {
        let m = BehaviorModel::paper();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for uid in 0..5000 {
            let mut a = mk_account(Network::YouTube, uid, AccountStatus::Public);
            m.apply_dox_reaction(&mut a, SimTime::from_days(2), &mut rng);
            for t in a.transitions() {
                assert_ne!(t.to, AccountStatus::Private, "YouTube has no private");
            }
        }
    }

    #[test]
    fn baseline_churn_matches_control_row() {
        let m = BehaviorModel::paper();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let window = (SimTime::EPOCH, SimTime::from_days(42));
        let mut changed = 0usize;
        let n = 100_000;
        for uid in 0..n {
            let status = mixed_status(&mut rng, true);
            let mut a = mk_account(Network::Instagram, uid, status);
            m.apply_baseline_churn(&mut a, window, &mut rng);
            if !a.transitions().is_empty() {
                changed += 1;
            }
        }
        let f = changed as f64 / n as f64;
        assert!((f - 0.002).abs() < 0.0008, "baseline any-change {f}");
    }

    #[test]
    fn active_accounts_churn_more_than_abandoned_ones() {
        // §6.2.1 future work: baseline churn scales with activity while
        // the population mean stays on the control row.
        let m = BehaviorModel::paper();
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let window = (SimTime::EPOCH, SimTime::from_days(42));
        let n = 60_000u64;
        let (mut active_changed, mut idle_changed) = (0usize, 0usize);
        for uid in 0..n {
            let mut a = mk_account(Network::Instagram, uid, AccountStatus::Public);
            a.activity = if uid % 2 == 0 { 2.0 } else { 0.1 };
            m.apply_baseline_churn(&mut a, window, &mut rng);
            if !a.transitions().is_empty() {
                if a.activity > 1.0 {
                    active_changed += 1;
                } else {
                    idle_changed += 1;
                }
            }
        }
        assert!(
            active_changed > idle_changed * 4,
            "active {active_changed} vs idle {idle_changed}"
        );
    }

    #[test]
    fn transient_changes_revert() {
        let m = BehaviorModel::paper();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut saw_transient = false;
        for uid in 0..20_000 {
            let mut a = mk_account(Network::Instagram, uid, AccountStatus::Public);
            m.apply_dox_reaction(&mut a, SimTime::from_days(2), &mut rng);
            if a.transitions().len() == 2
                && a.status_at(SimTime::from_days(60)) == AccountStatus::Public
            {
                saw_transient = true;
                break;
            }
        }
        assert!(saw_transient, "transient flips should occur");
    }

    #[test]
    fn inactive_accounts_never_react() {
        let m = BehaviorModel::paper();
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        for uid in 0..2000 {
            let mut a = mk_account(Network::Facebook, uid, AccountStatus::Inactive);
            m.apply_dox_reaction(&mut a, SimTime::from_days(2), &mut rng);
            assert!(a.transitions().is_empty());
        }
    }

    #[test]
    fn skype_never_reacts() {
        let m = BehaviorModel::paper();
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for uid in 0..1000 {
            let mut a = mk_account(Network::Skype, uid, AccountStatus::Public);
            m.apply_dox_reaction(&mut a, SimTime::from_days(2), &mut rng);
            assert!(a.transitions().is_empty());
        }
    }

    #[test]
    fn conditional_conversion_round_trips() {
        let rates = ReactionRates {
            more_private: 0.172,
            more_public: 0.081,
            transient_change: 0.069,
            close_share: 0.35,
        };
        let mix = InitialMix::paper();
        let (gp, ro, tr) = rates.conditional(&mix, true);
        // population more-private = gp * (1 - inactive)
        assert!((gp * (1.0 - mix.inactive) - 0.172).abs() < 1e-9);
        // population more-public = ro * private
        assert!((ro * mix.private - 0.081).abs() < 1e-9);
        // population transient = tr * public
        assert!((tr * mix.public() - 0.069).abs() < 1e-9);
    }

    #[test]
    fn conditional_probabilities_stay_bounded() {
        let rates = ReactionRates {
            more_private: 0.99,
            more_public: 0.99,
            transient_change: 0.99,
            close_share: 0.5,
        };
        let (gp, ro, tr) = rates.conditional(&InitialMix::paper(), true);
        assert!(gp <= 1.0 && ro <= 1.0 && tr <= 1.0);
    }
}
