//! Account monitoring (paper §3.1.5).
//!
//! "We measured each online social networking account several times during
//! the study period; immediately when the dox was observed … and then
//! again one, two, three and seven days after the initial observation, and
//! then every seven days after that. Measurement points varied slightly
//! from this schedule because of the load-balancing and queuing steps in
//! our pipeline, but rarely deviated more than a day."
//!
//! [`Schedule`] reproduces that visit plan (including bounded jitter);
//! [`Monitor`] executes it against the simulated OSN world through the
//! [`dox_osn::scraper::Scraper`] — the same restricted vantage point the
//! paper had.
//!
//! A monitor keeps no durable state. Its probes are a pure function of
//! the schedule, the simulated world and the fault plan, so a resumed
//! study replays monitoring in full and emits the same events, fault
//! tallies and trace hops as an uninterrupted run.

use dox_fault::{
    run_op, BreakerConfig, BreakerSet, CoverageGaps, FaultDomain, FaultPlan, FaultPlanConfig,
    FaultStats, OpOutcome, RetryPolicy,
};
use dox_obs::{Counter, Histogram, Registry};
use dox_osn::account::AccountId;
use dox_osn::clock::{SimDuration, SimTime, MINUTES_PER_DAY};
use dox_osn::comments::Comment;
use dox_osn::platform::SimOsnWorld;
use dox_osn::scraper::{Observation, ScrapeError, Scraper};
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Bound on rate-limit retries per probe: the limiter always names a
/// concrete `retry_at`, so a handful of hops reaches an admissible slot.
const MAX_RATE_LIMIT_RETRIES: u32 = 8;

/// The visit schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Day offsets of the fixed early probes (paper: 0, 1, 2, 3, 7).
    pub early_days: Vec<u64>,
    /// After the early probes, repeat every this many days.
    pub repeat_days: u64,
    /// Monitor each account for this long after first observation.
    pub horizon_days: u64,
    /// Maximum jitter (± minutes) from queueing, paper: "rarely more than
    /// a day" — we use up to ±6 hours.
    pub jitter_minutes: u64,
}

impl Default for Schedule {
    fn default() -> Self {
        Self::paper()
    }
}

impl Schedule {
    /// The paper's schedule with an 8-week monitoring horizon.
    pub fn paper() -> Self {
        Self {
            early_days: vec![0, 1, 2, 3, 7],
            repeat_days: 7,
            horizon_days: 56,
            jitter_minutes: 6 * 60,
        }
    }

    /// Probe times for an account first observed at `start`. Jitter is
    /// deterministic in `(account-key, probe index)`. The day-0 probe is
    /// never jittered (the "immediately when observed" visit).
    pub fn probe_times(&self, start: SimTime, jitter_key: u64) -> Vec<SimTime> {
        let mut rng = ChaCha8Rng::seed_from_u64(jitter_key ^ 0x5C4E_D01E);
        let mut days: Vec<u64> = self.early_days.clone();
        let mut d = self.early_days.last().copied().unwrap_or(0) + self.repeat_days;
        while d <= self.horizon_days {
            days.push(d);
            d += self.repeat_days;
        }
        days.into_iter()
            .enumerate()
            .map(|(i, day)| {
                let base = start + SimDuration(day * MINUTES_PER_DAY);
                if i == 0 || self.jitter_minutes == 0 {
                    base
                } else {
                    let j = rng.random_range(0..=2 * self.jitter_minutes) as i64
                        - self.jitter_minutes as i64;
                    SimTime((base.0 as i64 + j).max(start.0 as i64) as u64)
                }
            })
            .collect()
    }
}

/// The complete observation history of one monitored account.
#[derive(Debug, Clone, PartialEq)]
pub struct AccountHistory {
    /// The account.
    pub account: AccountId,
    /// When its dox was first observed (probe day 0).
    pub first_observed: SimTime,
    /// Observations, in probe order.
    pub observations: Vec<Observation>,
}

impl AccountHistory {
    /// The status recorded at the probe closest to (at or before)
    /// `day` days after first observation; `None` before the first probe.
    pub fn status_as_of_day(&self, day: u64) -> Option<dox_osn::account::AccountStatus> {
        let cutoff = self.first_observed + SimDuration(day * MINUTES_PER_DAY + MINUTES_PER_DAY - 1);
        self.observations
            .iter()
            .rfind(|o| o.at <= cutoff)
            .map(|o| o.status)
    }

    /// First and last observed statuses, if any observations exist.
    pub fn endpoints(
        &self,
    ) -> Option<(
        dox_osn::account::AccountStatus,
        dox_osn::account::AccountStatus,
    )> {
        Some((
            self.observations.first()?.status,
            self.observations.last()?.status,
        ))
    }

    /// Whether any two consecutive observations differ.
    pub fn any_change(&self) -> bool {
        self.observations
            .windows(2)
            .any(|w| w[0].status != w[1].status)
    }

    /// Time of the first observed change to a less-open status, relative
    /// to first observation.
    pub fn first_more_private_delay(&self) -> Option<SimDuration> {
        self.observations
            .windows(2)
            .find(|w| w[1].status.openness() < w[0].status.openness())
            .map(|w| w[1].at.since(self.first_observed))
    }
}

/// What one [`Monitor::enroll_and_probe`] round cost: how many probes
/// ran, how many the fault plan swallowed, and the aggregate retry
/// weather — the numbers a sampled document's `monitor` trace hop
/// carries. All zeros for a re-enrollment (which is a no-op).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeRound {
    /// Probes the schedule called for.
    pub probes: u32,
    /// Probes lost to exhausted fault retries (explicit coverage gaps).
    pub missed_probes: u32,
    /// Fault-gauntlet attempts across the round, including successes.
    pub attempts: u32,
    /// Simulated backoff ticks spent across the round.
    pub delay: u64,
    /// Circuit-breaker trips the round's failures caused.
    pub breaker_trips: u32,
}

/// Fault machinery for a monitor: the plan, the retry policy, one
/// breaker per network, and the running gap/retry tallies.
struct MonitorFaults {
    plan: FaultPlan,
    policy: RetryPolicy,
    breakers: BreakerSet,
    stats: FaultStats,
    gaps: CoverageGaps,
}

/// Executes the monitoring schedule for a set of accounts.
///
/// Scrape errors are handled, not dropped: a [`ScrapeError::RateLimited`]
/// probe is retried at the limiter's own `retry_at` hint (bounded by
/// a fixed retry ceiling), and a [`ScrapeError::UnknownAccount`] is
/// counted in the `monitor.probe_failures` metric. A monitor built with
/// [`Monitor::with_faults`] additionally routes every probe and comment
/// fetch through a seeded [`FaultPlan`]; exhausted operations surface in
/// [`Monitor::coverage_gaps`].
pub struct Monitor {
    schedule: Schedule,
    scraper: Scraper,
    histories: HashMap<AccountId, AccountHistory>,
    faults: Option<MonitorFaults>,
    enrollments: Counter,
    probes: Counter,
    probe_failures: Counter,
    round_ns: Histogram,
    retry_wait: Histogram,
}

impl Monitor {
    /// A monitor with the paper schedule and an unmetered scraper,
    /// instrumented against the process-global metrics registry.
    pub fn new(schedule: Schedule) -> Self {
        Self::with_registry(schedule, dox_obs::global())
    }

    /// A monitor recording its scrape metrics into `registry`.
    pub fn with_registry(schedule: Schedule, registry: &Registry) -> Self {
        Self {
            schedule,
            scraper: Scraper::unlimited(),
            histories: HashMap::new(),
            faults: None,
            enrollments: registry.counter("monitor.enrollments"),
            probes: registry.counter("monitor.probes"),
            probe_failures: registry.counter("monitor.probe_failures"),
            round_ns: registry.histogram("monitor.scrape_round"),
            retry_wait: registry.histogram("pipeline.stage.retry_wait"),
        }
    }

    /// A monitor whose probes and comment fetches run through a fault
    /// plan with the default retry/backoff policy and a per-network
    /// circuit breaker.
    pub fn with_faults(schedule: Schedule, registry: &Registry, plan: FaultPlanConfig) -> Self {
        let mut monitor = Self::with_registry(schedule, registry);
        monitor.faults = Some(MonitorFaults {
            plan: FaultPlan::new(plan),
            policy: RetryPolicy::default(),
            breakers: BreakerSet::new(BreakerConfig::default()),
            stats: FaultStats::default(),
            gaps: CoverageGaps::default(),
        });
        monitor
    }

    /// Run the injected-fault gauntlet for one operation; `Some` carries
    /// the (virtual) retry weather of a successful operation, `None` means
    /// the retries exhausted. Fault-free monitors always succeed at the
    /// first attempt. Recovered operations keep their scheduled sim time —
    /// the retries play out on the plan's virtual clock — so observations
    /// are unchanged and output stays byte-identical.
    fn faults_admit(
        &mut self,
        domain: FaultDomain,
        network: &str,
        key: u64,
        at: SimTime,
    ) -> Option<OpOutcome> {
        let Some(f) = self.faults.as_mut() else {
            return Some(OpOutcome {
                attempts: 1,
                delay: 0,
                breaker_trips: 0,
            });
        };
        // dox-lint:allow(determinism) wall time inside the backoff shim; profile only
        let wait_start = std::time::Instant::now();
        let outcome = run_op(
            &f.plan,
            &f.policy,
            Some(f.breakers.breaker(network)),
            &mut f.stats,
            domain,
            network,
            key,
            at.0,
        );
        self.retry_wait.observe_duration(wait_start.elapsed());
        outcome.ok()
    }

    /// Enroll an account first observed at `observed_at` and execute its
    /// whole probe schedule against `world`. Re-enrolling an account
    /// (victim re-doxed) is a no-op — the paper monitors from the first
    /// observation. Returns the round's probe/retry tallies (all zeros for
    /// a re-enrollment) so callers can attach them to a causal trace.
    pub fn enroll_and_probe(
        &mut self,
        world: &SimOsnWorld,
        account: AccountId,
        observed_at: SimTime,
    ) -> ProbeRound {
        if self.histories.contains_key(&account) {
            return ProbeRound::default();
        }
        // dox-lint:allow(determinism) enrollment latency metric; probe times come from SimTime
        let round_start = std::time::Instant::now();
        self.enrollments.inc();
        let mut round = ProbeRound::default();
        let jitter_key = (account.uid << 8) ^ account.network as u64;
        let times = self.schedule.probe_times(observed_at, jitter_key);
        let mut history = AccountHistory {
            account,
            first_observed: observed_at,
            observations: Vec::with_capacity(times.len()),
        };
        for (i, t) in times.into_iter().enumerate() {
            self.probes.inc();
            round.probes += 1;
            let key = jitter_key ^ ((i as u64) << 40);
            match self.faults_admit(FaultDomain::Probe, account.network.name(), key, t) {
                Some(outcome) => {
                    round.attempts = round.attempts.saturating_add(outcome.attempts);
                    round.delay = round.delay.saturating_add(outcome.delay);
                    round.breaker_trips = round.breaker_trips.saturating_add(outcome.breaker_trips);
                }
                None => {
                    round.missed_probes += 1;
                    if let Some(f) = self.faults.as_mut() {
                        f.gaps.missed_probes += 1;
                    }
                    continue;
                }
            }
            match self.probe_recovering(world, account, t) {
                Ok(obs) => history.observations.push(obs),
                Err(_) => self.probe_failures.inc(),
            }
        }
        self.histories.insert(account, history);
        self.round_ns.observe_duration(round_start.elapsed());
        round
    }

    /// Probe once, retrying rate limits at the limiter's `retry_at` hint.
    /// Only an [`ScrapeError::UnknownAccount`] (or a pathologically long
    /// limiter queue) surfaces as an error.
    fn probe_recovering(
        &mut self,
        world: &SimOsnWorld,
        account: AccountId,
        mut at: SimTime,
    ) -> Result<Observation, ScrapeError> {
        let mut attempts = 0;
        loop {
            match self.scraper.probe(world, account, at) {
                Ok(obs) => return Ok(obs),
                Err(ScrapeError::RateLimited { retry_at }) if attempts < MAX_RATE_LIMIT_RETRIES => {
                    attempts += 1;
                    at = retry_at.max(SimTime(at.0 + 1));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fetch an account's public comments at `at`, riding out rate limits
    /// and (for fault-injected monitors) the comment-fetch fault plan.
    /// `None` records an explicit miss — counted in
    /// [`Monitor::coverage_gaps`] when injected, in the
    /// `monitor.probe_failures` metric when the platform itself refused.
    pub fn fetch_comments_recovering(
        &mut self,
        world: &SimOsnWorld,
        account: AccountId,
        at: SimTime,
    ) -> Option<Vec<Comment>> {
        let key = (account.uid << 8) ^ account.network as u64 ^ 0xC033_E275;
        if self
            .faults_admit(FaultDomain::Comments, account.network.name(), key, at)
            .is_none()
        {
            if let Some(f) = self.faults.as_mut() {
                f.gaps.missed_comment_fetches += 1;
            }
            return None;
        }
        let mut attempts = 0;
        let mut at = at;
        loop {
            match self.scraper.fetch_comments(world, account, at) {
                Ok(comments) => return Some(comments),
                Err(ScrapeError::RateLimited { retry_at }) if attempts < MAX_RATE_LIMIT_RETRIES => {
                    attempts += 1;
                    at = retry_at.max(SimTime(at.0 + 1));
                }
                Err(_) => {
                    self.probe_failures.inc();
                    return None;
                }
            }
        }
    }

    /// Retry/fault accounting with breaker transitions folded in; all
    /// zeros for a fault-free monitor.
    pub fn fault_stats(&self) -> FaultStats {
        let Some(f) = &self.faults else {
            return FaultStats::default();
        };
        let mut stats = f.stats;
        let transitions = f.breakers.total_transitions();
        stats.breaker_opens = transitions.opened;
        stats.breaker_half_opens = transitions.half_opened;
        stats.breaker_closes = transitions.closed;
        stats
    }

    /// Probes and comment fetches lost to exhausted fault retries. Empty
    /// for fault-free monitors and fully-recovered plans.
    pub fn coverage_gaps(&self) -> CoverageGaps {
        self.faults
            .as_ref()
            .map(|f| f.gaps.clone())
            .unwrap_or_default()
    }

    /// All histories.
    pub fn histories(&self) -> impl Iterator<Item = &AccountHistory> {
        self.histories.values()
    }

    /// Every history, in the order [`Monitor::histories`] yields them.
    pub fn into_histories(self) -> Vec<AccountHistory> {
        self.histories.into_values().collect()
    }

    /// History of one account.
    pub fn history(&self, account: AccountId) -> Option<&AccountHistory> {
        self.histories.get(&account)
    }

    /// Remove and return `account`'s history, for callers that only tally
    /// it. A taken account enrolls afresh if it is enrolled again.
    pub(crate) fn take_history(&mut self, account: AccountId) -> Option<AccountHistory> {
        self.histories.remove(&account)
    }

    /// Number of monitored accounts.
    pub fn len(&self) -> usize {
        self.histories.len()
    }

    /// True when nothing is enrolled.
    pub fn is_empty(&self) -> bool {
        self.histories.is_empty()
    }

    /// Total scrape requests issued.
    pub fn requests_made(&self) -> u64 {
        self.scraper.requests_made()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_osn::account::AccountStatus;
    use dox_osn::network::Network;

    #[test]
    fn paper_schedule_days() {
        let s = Schedule {
            jitter_minutes: 0,
            ..Schedule::paper()
        };
        let times = s.probe_times(SimTime::from_days(10), 1);
        let days: Vec<u64> = times.iter().map(|t| t.days() - 10).collect();
        assert_eq!(days, vec![0, 1, 2, 3, 7, 14, 21, 28, 35, 42, 49, 56]);
    }

    #[test]
    fn jitter_bounded_and_deterministic() {
        let s = Schedule::paper();
        let a = s.probe_times(SimTime::from_days(5), 42);
        let b = s.probe_times(SimTime::from_days(5), 42);
        assert_eq!(a, b);
        let clean = Schedule {
            jitter_minutes: 0,
            ..Schedule::paper()
        }
        .probe_times(SimTime::from_days(5), 42);
        for (j, c) in a.iter().zip(&clean) {
            let diff = (j.0 as i64 - c.0 as i64).abs();
            assert!(diff <= 6 * 60, "jitter {diff} min");
        }
        assert_eq!(a[0], clean[0], "day-0 probe unjittered");
    }

    fn world_with_reacting_account() -> (SimOsnWorld, AccountId) {
        let mut w = SimOsnWorld::new(3);
        let id = w.register(
            Network::Facebook,
            "victim_m",
            SimTime::EPOCH,
            AccountStatus::Public,
        );
        (w, id)
    }

    #[test]
    fn monitor_records_full_history() {
        let (mut w, id) = world_with_reacting_account();
        w.notify_doxed(id, SimTime::from_days(3));
        let mut m = Monitor::new(Schedule::paper());
        m.enroll_and_probe(&w, id, SimTime::from_days(3));
        let h = m.history(id).unwrap();
        assert_eq!(h.observations.len(), 12);
        assert_eq!(h.first_observed, SimTime::from_days(3));
        assert!(m.requests_made() >= 12);
    }

    #[test]
    fn re_enrollment_is_noop() {
        let (w, id) = world_with_reacting_account();
        let mut m = Monitor::new(Schedule::paper());
        m.enroll_and_probe(&w, id, SimTime::from_days(3));
        let before = m.requests_made();
        m.enroll_and_probe(&w, id, SimTime::from_days(20));
        assert_eq!(m.requests_made(), before);
        assert_eq!(m.history(id).unwrap().first_observed, SimTime::from_days(3));
    }

    #[test]
    fn history_helpers_detect_changes() {
        let mut h = AccountHistory {
            account: AccountId {
                network: Network::Facebook,
                uid: 0,
            },
            first_observed: SimTime::from_days(0),
            observations: vec![],
        };
        assert!(h.endpoints().is_none());
        assert!(!h.any_change());
        for (day, status) in [
            (0, AccountStatus::Public),
            (1, AccountStatus::Public),
            (2, AccountStatus::Private),
            (7, AccountStatus::Public),
        ] {
            h.observations.push(Observation {
                account: h.account,
                at: SimTime::from_days(day),
                status,
            });
        }
        assert!(h.any_change());
        let (first, last) = h.endpoints().unwrap();
        assert_eq!(first, AccountStatus::Public);
        assert_eq!(last, AccountStatus::Public);
        assert_eq!(
            h.first_more_private_delay(),
            Some(SimDuration::from_days(2))
        );
        assert_eq!(h.status_as_of_day(1), Some(AccountStatus::Public));
        assert_eq!(h.status_as_of_day(2), Some(AccountStatus::Private));
        assert_eq!(h.status_as_of_day(5), Some(AccountStatus::Private));
        assert_eq!(h.status_as_of_day(10), Some(AccountStatus::Public));
    }
}
