//! `dox-fault` — deterministic fault injection and recovery.
//!
//! The paper's pipeline ran unattended for weeks against live, unreliable
//! services (pastebin's API, chan boards, OSN profile pages — §3.1.1,
//! §3.1.5). This crate gives the reproduction the same adversarial
//! weather, without giving up the repo's determinism contract: every
//! injected fault, every backoff delay and every breaker transition is a
//! pure function of a seed and the operation's identity. No wall clock,
//! no entropy.
//!
//! Three layers:
//!
//! * [`plan`] — a seeded [`FaultPlan`]: which operations experience
//!   transient timeouts / 429s / 5xx, which fail permanently, which
//!   sources suffer outage windows, which engine chunks run slow or
//!   poisoned.
//! * [`backoff`] + [`breaker`] — the recovery policy: bounded exponential
//!   backoff with seeded jitter, and per-target circuit breakers
//!   (closed → open → half-open).
//! * [`stats`] — what happened: retry accounting for observability, and
//!   [`CoverageGaps`] for the report — exhausted retries surface as
//!   explicit missed-collection counts, never silent drops.
//!
//! The call sites hold a [`FaultBoundary`]: built from a
//! [`FaultPlanConfig`], it owns the plan, the default [`RetryPolicy`],
//! one [`CircuitBreaker`] per target and the running tally. It walks one
//! operation through the plan and the policy in *simulated* time,
//! returning how many attempts it took (and how long the recovery
//! virtually waited) or a [`FaultError`] once retries exhaust — in which
//! case the operation is already counted as a coverage gap.
//!
//! ```
//! use dox_fault::{FaultBoundary, FaultDomain, FaultPlanConfig};
//!
//! let mut boundary = FaultBoundary::new(FaultPlanConfig {
//!     transient_ppm: 1_000_000, // every op fails at least once…
//!     max_transient_failures: 2,
//!     ..FaultPlanConfig::default()
//! });
//! let outcome = boundary
//!     .run(FaultDomain::Collect, "pastebin.com", 42, 100)
//!     .expect("transient faults recover within the retry budget");
//! assert!(outcome.attempts > 1, "…but recovers deterministically");
//! assert!(boundary.gaps().is_empty());
//!
//! let mut dark = FaultBoundary::new(FaultPlanConfig {
//!     hard_ppm: 1_000_000, // …and every op fails every attempt.
//!     ..FaultPlanConfig::default()
//! });
//! assert!(dark.run(FaultDomain::Probe, "facebook.com", 7, 0).is_err());
//! assert_eq!(dark.gaps().missed_probes, 1, "exhausted ops are gaps");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod atomic;
pub mod backoff;
pub mod breaker;
pub mod plan;
pub mod stats;

pub use atomic::write_file_atomic;
pub use backoff::{Backoff, RetryPolicy};
pub use breaker::{BreakerConfig, BreakerSet, BreakerState, BreakerTransitions, CircuitBreaker};
pub use plan::{
    Fault, FaultDomain, FaultPlan, FaultPlanConfig, OutageWindow, StageDirective, StoreKillPoint,
};
pub use stats::{CoverageGaps, FaultStats};

use dox_obs::{Histogram, Registry};

/// SplitMix64 finalizer: the one hash every fault decision and jitter
/// draw derives from. Pure, seedable, entropy-free.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes — stable target-name hashing without pulling in
/// `dox-textkit` (this crate depends only on `serde` and `dox-obs`).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// An operation exhausted its retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultError {
    /// Every attempt failed; `last` is the final fault observed.
    Exhausted {
        /// Which injection boundary the operation ran at.
        domain: FaultDomain,
        /// The target (source / network name) the operation addressed.
        target: String,
        /// The operation key (document id, probe key, chunk sequence).
        key: u64,
        /// Attempts made, including the first.
        attempts: u32,
        /// The fault the final attempt observed.
        last: Fault,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Exhausted {
                domain,
                target,
                key,
                attempts,
                ..
            } => write!(
                f,
                "{domain} op {key} against {target} still failing after {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for FaultError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FaultError::Exhausted { last, .. } => Some(last),
        }
    }
}

/// What a recovered operation cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// Attempts made, including the successful one.
    pub attempts: u32,
    /// Simulated ticks between the scheduled time and the attempt that
    /// succeeded (0 when the first attempt went through).
    pub delay: u64,
    /// Times this operation's failures tripped its circuit breaker open
    /// (always 0 without a breaker). Deterministic — breaker transitions
    /// are virtual-time functions — so trace hops can carry it.
    pub breaker_trips: u32,
}

/// One fault boundary: the seeded plan, the default [`RetryPolicy`],
/// one [`CircuitBreaker`] per target, and the running tally of what the
/// weather cost — retry accounting ([`FaultStats`]) and the operations
/// it lost ([`CoverageGaps`]). The collector holds one for its fetches,
/// the monitor one for its probes and comment fetches.
pub struct FaultBoundary {
    plan: FaultPlan,
    policy: RetryPolicy,
    breakers: BreakerSet,
    stats: FaultStats,
    gaps: CoverageGaps,
    retry_wait: Option<Histogram>,
}

impl FaultBoundary {
    /// A boundary injecting `plan`, with the default retry policy and
    /// default per-target breakers.
    pub fn new(plan: FaultPlanConfig) -> Self {
        Self {
            plan: FaultPlan::new(plan),
            policy: RetryPolicy::default(),
            breakers: BreakerSet::new(BreakerConfig::default()),
            stats: FaultStats::default(),
            gaps: CoverageGaps::default(),
            retry_wait: None,
        }
    }

    /// Time every operation's walk through the plan into `registry`'s
    /// `pipeline.stage.retry_wait` histogram — the stderr profile row
    /// that answers "how much wall time went to fault weather". The
    /// timing never reaches a fault decision.
    pub fn instrument(&mut self, registry: &Registry) {
        self.retry_wait = Some(registry.histogram("pipeline.stage.retry_wait"));
    }

    /// Drive one operation through the plan, in simulated time.
    ///
    /// The operation is identified by `(domain, target, key)` and
    /// scheduled at tick `at`. Each failed attempt advances a *virtual*
    /// clock by the backoff delay (stretched to honor `retry_after` hints
    /// and outage windows), so an op retried past the end of an outage
    /// recovers and an op inside a long outage exhausts — both
    /// deterministically. An exhausted op is recorded in
    /// [`FaultBoundary::gaps`] under its domain before the error returns.
    ///
    /// `target`'s breaker is consulted before every attempt: while open
    /// it shifts the attempt to the end of its cooldown (half-open probe)
    /// rather than dropping the operation, so breakers shape retry
    /// *timing*, never document fate.
    pub fn run(
        &mut self,
        domain: FaultDomain,
        target: &str,
        key: u64,
        at: u64,
    ) -> Result<OpOutcome, FaultError> {
        let Self {
            plan,
            policy,
            breakers,
            stats,
            gaps,
            retry_wait,
        } = self;
        let mut walk = || {
            stats.ops += 1;
            let breaker = breakers.breaker(target);
            let opened_before = breaker.transitions().opened;
            let mut virtual_at = at;
            let mut attempt = 0u32;
            loop {
                virtual_at = breaker.admit_at(virtual_at);
                let Some(fault) = plan.fault_for(domain, target, key, virtual_at, attempt) else {
                    let trips = breaker.transitions().opened - opened_before;
                    breaker.on_success();
                    return Ok(OpOutcome {
                        attempts: attempt + 1,
                        delay: virtual_at.saturating_sub(at),
                        breaker_trips: u32::try_from(trips).unwrap_or(u32::MAX),
                    });
                };
                stats.faults_injected += 1;
                breaker.on_failure(virtual_at);
                if attempt >= policy.max_retries {
                    stats.exhausted += 1;
                    return Err(FaultError::Exhausted {
                        domain,
                        target: target.to_string(),
                        key,
                        attempts: attempt + 1,
                        last: fault,
                    });
                }
                stats.retries += 1;
                let mut next = virtual_at.saturating_add(policy.backoff.delay(attempt));
                match fault {
                    Fault::RateLimited { retry_after } => {
                        stats.rate_limit_waits += 1;
                        next = next.max(virtual_at.saturating_add(retry_after));
                    }
                    Fault::Outage { until } => next = next.max(until),
                    Fault::Timeout | Fault::ServerError { .. } => {}
                }
                virtual_at = next;
                attempt += 1;
            }
        };
        let outcome = match retry_wait {
            Some(h) => h.time(walk),
            None => walk(),
        };
        if outcome.is_err() {
            gaps.record(domain, target);
        }
        outcome
    }

    /// Retry accounting, with the breaker transition totals folded in.
    pub fn stats(&self) -> FaultStats {
        let transitions = self.breakers.total_transitions();
        FaultStats {
            breaker_opens: transitions.opened,
            breaker_half_opens: transitions.half_opened,
            breaker_closes: transitions.closed,
            ..self.stats
        }
    }

    /// The operations that exhausted their retries, by domain (and, for
    /// collection, by source). Empty while every fault has recovered.
    pub fn gaps(&self) -> &CoverageGaps {
        &self.gaps
    }

    /// The per-target circuit breakers, target-ordered.
    pub fn breakers(&self) -> &BreakerSet {
        &self.breakers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_plan() -> FaultPlanConfig {
        FaultPlanConfig {
            transient_ppm: 400_000,
            max_transient_failures: 3,
            rate_limited_ppm: 300_000,
            ..FaultPlanConfig::default()
        }
    }

    #[test]
    fn healthy_plan_never_faults() {
        let mut boundary = FaultBoundary::new(FaultPlanConfig::healthy());
        for key in 0..500 {
            let out = boundary
                .run(FaultDomain::Collect, "pastebin.com", key, key * 7)
                .expect("healthy plan");
            assert_eq!(out.attempts, 1);
            assert_eq!(out.delay, 0);
        }
        assert_eq!(boundary.stats().faults_injected, 0);
        assert_eq!(boundary.stats().ops, 500);
    }

    #[test]
    fn transient_faults_recover_within_budget() {
        let mut boundary = FaultBoundary::new(noisy_plan());
        let mut saw_retry = false;
        for key in 0..2_000 {
            let out = boundary
                .run(FaultDomain::Collect, "4chan.org/b", key, 0)
                .expect("max_transient_failures <= max_retries recovers by construction");
            if out.attempts > 1 {
                saw_retry = true;
                assert!(out.delay > 0, "recovery must cost virtual time");
            }
        }
        assert!(saw_retry, "a 40% transient rate must hit some ops");
        assert_eq!(boundary.stats().exhausted, 0);
        assert!(boundary.stats().retries > 0);
        assert!(boundary.gaps().is_empty());
    }

    #[test]
    fn hard_faults_exhaust_and_chain_their_cause() {
        let mut boundary = FaultBoundary::new(FaultPlanConfig {
            hard_ppm: 1_000_000,
            ..FaultPlanConfig::default()
        });
        let err = boundary
            .run(FaultDomain::Probe, "facebook.com", 9, 50)
            .unwrap_err();
        let FaultError::Exhausted { attempts, .. } = &err;
        let budget = RetryPolicy::default().max_retries;
        assert_eq!(*attempts, budget + 1, "initial try + every retry");
        assert!(
            std::error::Error::source(&err).is_some(),
            "chains the fault"
        );
        assert_eq!(boundary.stats().exhausted, 1);
    }

    #[test]
    fn exhausted_ops_are_gaps_of_their_domain() {
        let mut boundary = FaultBoundary::new(FaultPlanConfig {
            hard_ppm: 1_000_000,
            ..FaultPlanConfig::default()
        });
        for (domain, target) in [
            (FaultDomain::Collect, "pastebin.com"),
            (FaultDomain::Collect, "pastebin.com"),
            (FaultDomain::Collect, "4chan.org/b"),
            (FaultDomain::Probe, "facebook.com"),
            (FaultDomain::Comments, "instagram.com"),
            (FaultDomain::Comments, "instagram.com"),
        ] {
            assert!(boundary.run(domain, target, 1, 0).is_err());
        }
        let gaps = boundary.gaps();
        assert_eq!(gaps.missed_collections["pastebin.com"], 2);
        assert_eq!(gaps.missed_collections["4chan.org/b"], 1);
        assert_eq!(gaps.missed_probes, 1);
        assert_eq!(gaps.missed_comment_fetches, 2);
        assert_eq!(gaps.total(), boundary.stats().exhausted);
    }

    #[test]
    fn runs_are_byte_reproducible() {
        let run = || {
            let mut boundary = FaultBoundary::new(noisy_plan());
            let outcomes: Vec<_> = (0..300)
                .map(|key| boundary.run(FaultDomain::Collect, "8ch.net/pol", key, key))
                .collect();
            (outcomes, boundary.stats(), boundary.gaps().clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn outage_windows_recover_once_the_window_passes() {
        let mut boundary = FaultBoundary::new(FaultPlanConfig {
            outages: vec![OutageWindow {
                domain: FaultDomain::Collect,
                target: "pastebin.com".into(),
                from: 0,
                until: 100,
            }],
            ..FaultPlanConfig::default()
        });
        // Scheduled inside the window: the retry loop jumps to its end.
        let out = boundary
            .run(FaultDomain::Collect, "pastebin.com", 1, 10)
            .expect("retries outlive the outage");
        assert!(out.delay >= 90, "waited for the window to close");
        // Unrelated target is untouched.
        let other = boundary
            .run(FaultDomain::Collect, "4chan.org/b", 1, 10)
            .expect("no outage for this target");
        assert_eq!(other.attempts, 1);
    }

    #[test]
    fn breaker_opens_under_hard_failure_and_shifts_attempts() {
        let mut boundary = FaultBoundary::new(FaultPlanConfig {
            hard_ppm: 1_000_000,
            ..FaultPlanConfig::default()
        });
        for key in 0..5 {
            let _ = boundary.run(FaultDomain::Collect, "pastebin.com", key, key);
        }
        let breakers: Vec<_> = boundary.breakers().iter().collect();
        let [(target, breaker)] = breakers[..] else {
            panic!("one breaker per target, got {}", breakers.len());
        };
        assert_eq!(target, "pastebin.com");
        assert_eq!(breaker.state(), BreakerState::Open);
        let stats = boundary.stats();
        assert!(stats.breaker_opens >= 1);
        assert_eq!(stats.breaker_opens, breaker.transitions().opened);
        assert_eq!(stats.exhausted, 5);
    }

    #[test]
    fn error_messages_name_the_boundary_without_leaking_content() {
        let err = FaultError::Exhausted {
            domain: FaultDomain::Probe,
            target: "instagram.com".into(),
            key: 7,
            attempts: 4,
            last: Fault::Timeout,
        };
        let msg = err.to_string();
        assert!(msg.contains("probe"));
        assert!(msg.contains("instagram.com"));
        assert!(msg.contains('4'));
    }
}
