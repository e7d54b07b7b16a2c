//! The deterministic fault plan.
//!
//! A [`FaultPlan`] decides, for every operation the pipeline performs,
//! whether that operation's n-th attempt fails and how. Decisions are a
//! pure function of `(plan seed, domain, target, key, attempt)` plus the
//! operation's *virtual* time (outage windows only) — the same plan
//! replayed over the same stream injects byte-identical weather, which is
//! what makes the fault-matrix and kill/resume tests able to demand
//! byte-identical reports.
//!
//! Directive semantics are chosen so recovery is decidable up front:
//!
//! * a **transient** op fails its first `1..=max_transient_failures`
//!   attempts and then succeeds — recoverable by construction whenever
//!   `max_transient_failures <= max_retries`;
//! * a **hard** op fails every attempt — a deterministic coverage gap;
//! * an **outage** fails any attempt whose virtual time falls inside the
//!   window — recoverable iff the retry schedule outlives the window.

use crate::{fnv1a, mix};
use serde::value::Value;
use serde::{Deserialize, Serialize};

/// Where in the pipeline a fault is injected.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum FaultDomain {
    /// The `Collector`/`SiteHub` fetch boundary (document collection).
    #[default]
    Collect,
    /// The OSN `Scraper` status-probe path.
    Probe,
    /// The OSN comment-fetch path (§5.3.2 analysis).
    Comments,
    /// The engine's stage workers (slow / poisoned chunks).
    Stage,
}

impl FaultDomain {
    /// Stable lowercase name (metric keys, error messages).
    pub fn name(self) -> &'static str {
        match self {
            FaultDomain::Collect => "collect",
            FaultDomain::Probe => "probe",
            FaultDomain::Comments => "comments",
            FaultDomain::Stage => "stage",
        }
    }

    fn salt(self) -> u64 {
        match self {
            FaultDomain::Collect => 0x0C01_1EC7,
            FaultDomain::Probe => 0x0B0B_0E50,
            FaultDomain::Comments => 0xC0_33E7,
            FaultDomain::Stage => 0x57A6_E000,
        }
    }
}

impl std::fmt::Display for FaultDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Where inside a store checkpoint a simulated SIGKILL lands.
///
/// The interesting window for crash-consistency drills is the one the
/// commit protocol is built around: segment data is written and fsync'd
/// *before* the manifest swap publishes it, so a kill between the two
/// must recover to the previous manifest with the tail discarded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum StoreKillPoint {
    /// Before any segment bytes of this checkpoint reach the file.
    BeforeSegmentWrite,
    /// After the segment write + fsync, before the manifest swap — the
    /// canonical torn-commit window.
    #[default]
    BetweenWriteAndSwap,
    /// After the manifest swap (the commit already happened).
    AfterManifestSwap,
}

impl StoreKillPoint {
    /// Stable lowercase name (plan files, error messages).
    pub fn name(self) -> &'static str {
        match self {
            StoreKillPoint::BeforeSegmentWrite => "before_segment_write",
            StoreKillPoint::BetweenWriteAndSwap => "between_write_and_swap",
            StoreKillPoint::AfterManifestSwap => "after_manifest_swap",
        }
    }
}

impl Deserialize for StoreKillPoint {
    fn from_value(value: &Value) -> Option<Self> {
        match value.as_str()? {
            "BeforeSegmentWrite" | "before_segment_write" => {
                Some(StoreKillPoint::BeforeSegmentWrite)
            }
            "BetweenWriteAndSwap" | "between_write_and_swap" => {
                Some(StoreKillPoint::BetweenWriteAndSwap)
            }
            "AfterManifestSwap" | "after_manifest_swap" => Some(StoreKillPoint::AfterManifestSwap),
            _ => None,
        }
    }
}

/// One injected failure, HTTP-shaped where the analogy holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Fault {
    /// The request hung and timed out.
    Timeout,
    /// HTTP 429: the service asked the client to back off.
    RateLimited {
        /// Ticks the service asked the client to wait.
        retry_after: u64,
    },
    /// HTTP 5xx-style server error.
    ServerError {
        /// The simulated status code (e.g. 500, 503).
        code: u16,
    },
    /// The target is inside a scheduled outage window.
    Outage {
        /// Tick at which the window closes.
        until: u64,
    },
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Timeout => write!(f, "request timed out"),
            Fault::RateLimited { retry_after } => {
                write!(f, "rate limited (retry after {retry_after} ticks)")
            }
            Fault::ServerError { code } => write!(f, "server error {code}"),
            Fault::Outage { until } => write!(f, "source outage until tick {until}"),
        }
    }
}

impl std::error::Error for Fault {}

/// A scheduled partial outage of one target in one domain.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct OutageWindow {
    /// Injection boundary the outage applies to.
    pub domain: FaultDomain,
    /// Target name (a source like `"pastebin.com"` or a network like
    /// `"facebook.com"`).
    pub target: String,
    /// First tick of the outage (inclusive).
    pub from: u64,
    /// First tick after the outage (exclusive).
    pub until: u64,
}

/// The serializable fault-plan format (`--fault-plan file.json`).
///
/// All rates are parts-per-million so the config stays `Eq` and
/// byte-stable across platforms. Everything defaults to zero: the default
/// plan is all-healthy. A plan file may omit any key, but an unknown key
/// is rejected, so a typo fails loudly instead of silently meaning
/// "default".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct FaultPlanConfig {
    /// Seed all fault decisions derive from (independent of the run seed
    /// so the same weather can be replayed over different corpora).
    pub seed: u64,
    /// Probability (ppm) that an operation experiences transient
    /// failures before succeeding.
    pub transient_ppm: u32,
    /// A transient op fails its first `1..=max_transient_failures`
    /// attempts (drawn per op). Keep `<= max_retries` for guaranteed
    /// recovery.
    pub max_transient_failures: u32,
    /// Probability (ppm) that an operation fails on *every* attempt — a
    /// deterministic coverage gap.
    pub hard_ppm: u32,
    /// Share (ppm) of injected failures presenting as HTTP 429 instead
    /// of a timeout / 5xx.
    pub rate_limited_ppm: u32,
    /// `Retry-After` hint carried by injected 429s, in ticks.
    pub retry_after: u64,
    /// Status code carried by injected server errors.
    pub server_error_code: u16,
    /// Scheduled partial outages.
    pub outages: Vec<OutageWindow>,
    /// Probability (ppm) that an engine chunk is processed by a slow
    /// worker (scheduling pressure only; never affects results).
    pub slow_chunk_ppm: u32,
    /// How many cooperative yields a slow chunk inserts.
    pub slow_chunk_yields: u32,
    /// Probability (ppm) that an engine chunk hits a poisoned worker and
    /// fails `1..=max_transient_failures` times.
    pub poison_chunk_ppm: u32,
    /// Halt ingest after this many documents (kill/resume drills). The
    /// study surfaces the halt as an explicit error, mimicking a crash at
    /// that point in the stream.
    pub kill_after_docs: Option<u64>,
    /// Die inside the n-th (1-based) store checkpoint commit — the
    /// durability twin of `kill_after_docs`, aimed at the segment-write /
    /// manifest-swap window instead of the ingest stream.
    pub kill_at_store_commit: Option<u64>,
    /// Where inside that commit the kill lands.
    pub kill_store_point: StoreKillPoint,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            transient_ppm: 0,
            max_transient_failures: 2,
            hard_ppm: 0,
            rate_limited_ppm: 250_000,
            retry_after: 30,
            server_error_code: 503,
            outages: Vec::new(),
            slow_chunk_ppm: 0,
            slow_chunk_yields: 64,
            poison_chunk_ppm: 0,
            kill_after_docs: None,
            kill_at_store_commit: None,
            kill_store_point: StoreKillPoint::default(),
        }
    }
}

impl FaultPlanConfig {
    /// The all-healthy plan: injects nothing anywhere.
    pub fn healthy() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing (rates zero, no outages, no
    /// kill point).
    pub fn is_healthy(&self) -> bool {
        self.transient_ppm == 0
            && self.hard_ppm == 0
            && self.outages.is_empty()
            && self.slow_chunk_ppm == 0
            && self.poison_chunk_ppm == 0
            && self.kill_after_docs.is_none()
            && self.kill_at_store_commit.is_none()
    }

    /// A stable hash of the plan, used to fingerprint checkpoints so a
    /// resume under a *different* plan is rejected instead of silently
    /// diverging.
    ///
    /// `kill_after_docs` and `kill_at_store_commit`/`kill_store_point`
    /// are deliberately excluded: a kill switch is an execution event (a
    /// simulated SIGKILL), not fault weather, and the natural resume
    /// workflow re-runs the same plan *without* the kill.
    pub fn fingerprint(&self) -> u64 {
        let mut h = mix(self.seed ^ 0xFA_0717);
        for v in [
            u64::from(self.transient_ppm),
            u64::from(self.max_transient_failures),
            u64::from(self.hard_ppm),
            u64::from(self.rate_limited_ppm),
            self.retry_after,
            u64::from(self.server_error_code),
            u64::from(self.slow_chunk_ppm),
            u64::from(self.slow_chunk_yields),
            u64::from(self.poison_chunk_ppm),
        ] {
            h = mix(h ^ v);
        }
        for w in &self.outages {
            h = mix(h ^ w.domain.salt());
            h = mix(h ^ fnv1a(w.target.as_bytes()));
            h = mix(h ^ w.from);
            h = mix(h ^ w.until);
        }
        h
    }
}

/// What the plan tells an engine stage worker about one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageDirective {
    /// Process normally.
    Healthy,
    /// Process after this many cooperative yields (a slow worker under
    /// scheduling pressure; results unaffected).
    Slow {
        /// Yields to insert before processing.
        yields: u32,
    },
    /// The worker "panics" this many times on the chunk before a retry
    /// would succeed. When `failures` exceeds the retry budget, every
    /// document in the chunk becomes a stage coverage gap.
    Poison {
        /// Consecutive failures a retrying worker would observe.
        failures: u32,
    },
}

/// A compiled fault plan — the read-only decision oracle every injection
/// boundary consults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    config: FaultPlanConfig,
}

const SALT_HARD: u64 = 0x4A2D;
const SALT_TRANSIENT: u64 = 0x7247;
const SALT_COUNT: u64 = 0xC047;
const SALT_KIND: u64 = 0x174D;
const SALT_STAGE_SLOW: u64 = 0x510;
const SALT_STAGE_POISON: u64 = 0xB0;

impl FaultPlan {
    /// Compile a plan.
    pub fn new(config: FaultPlanConfig) -> Self {
        Self { config }
    }

    /// The all-healthy plan.
    pub fn healthy() -> Self {
        Self::new(FaultPlanConfig::healthy())
    }

    /// The underlying configuration.
    pub fn config(&self) -> &FaultPlanConfig {
        &self.config
    }

    /// The configured ingest kill point, if any.
    pub fn kill_after_docs(&self) -> Option<u64> {
        self.config.kill_after_docs
    }

    /// The configured store-commit kill point, if any: the 1-based
    /// checkpoint ordinal to die in, and where inside the commit.
    pub fn kill_at_store_commit(&self) -> Option<(u64, StoreKillPoint)> {
        self.config
            .kill_at_store_commit
            .map(|nth| (nth, self.config.kill_store_point))
    }

    fn decision(&self, domain: FaultDomain, target: &str, key: u64, salt: u64) -> u64 {
        let mut h = mix(self.config.seed ^ salt);
        h = mix(h ^ domain.salt());
        h = mix(h ^ fnv1a(target.as_bytes()));
        mix(h ^ key)
    }

    fn ppm_hit(h: u64, ppm: u32) -> bool {
        (h % 1_000_000) < u64::from(ppm)
    }

    /// The fault kind an op's failed attempts present as.
    fn failure_kind(&self, domain: FaultDomain, target: &str, key: u64, attempt: u32) -> Fault {
        let h = self.decision(domain, target, key ^ (u64::from(attempt) << 48), SALT_KIND);
        if Self::ppm_hit(h, self.config.rate_limited_ppm) {
            Fault::RateLimited {
                retry_after: self.config.retry_after,
            }
        } else if h & (1 << 20) == 0 {
            Fault::Timeout
        } else {
            Fault::ServerError {
                code: self.config.server_error_code,
            }
        }
    }

    /// Decide whether attempt `attempt` (0-based) of the operation
    /// `(domain, target, key)` fails at virtual time `at`.
    ///
    /// Only outage windows read `at`; the transient/hard draws are
    /// attempt-schedule decisions fixed per op, which is what guarantees
    /// a transient op recovers on the same attempt in every replay.
    pub fn fault_for(
        &self,
        domain: FaultDomain,
        target: &str,
        key: u64,
        at: u64,
        attempt: u32,
    ) -> Option<Fault> {
        for w in &self.config.outages {
            if w.domain == domain && w.target == target && at >= w.from && at < w.until {
                return Some(Fault::Outage { until: w.until });
            }
        }
        if Self::ppm_hit(
            self.decision(domain, target, key, SALT_HARD),
            self.config.hard_ppm,
        ) {
            return Some(self.failure_kind(domain, target, key, attempt));
        }
        if Self::ppm_hit(
            self.decision(domain, target, key, SALT_TRANSIENT),
            self.config.transient_ppm,
        ) {
            let span = u64::from(self.config.max_transient_failures.max(1));
            let failures = 1 + (self.decision(domain, target, key, SALT_COUNT) % span) as u32;
            if attempt < failures {
                return Some(self.failure_kind(domain, target, key, attempt));
            }
        }
        None
    }

    /// The directive for engine chunk `chunk_seq`. Poison wins over slow
    /// when both draws hit.
    pub fn stage_directive(&self, chunk_seq: u64) -> StageDirective {
        if Self::ppm_hit(
            self.decision(FaultDomain::Stage, "", chunk_seq, SALT_STAGE_POISON),
            self.config.poison_chunk_ppm,
        ) {
            let span = u64::from(self.config.max_transient_failures.max(1));
            let failures =
                1 + (self.decision(FaultDomain::Stage, "", chunk_seq, SALT_COUNT) % span) as u32;
            return StageDirective::Poison { failures };
        }
        if Self::ppm_hit(
            self.decision(FaultDomain::Stage, "", chunk_seq, SALT_STAGE_SLOW),
            self.config.slow_chunk_ppm,
        ) {
            return StageDirective::Slow {
                yields: self.config.slow_chunk_yields,
            };
        }
        StageDirective::Healthy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_target_sensitive() {
        let plan = FaultPlan::new(FaultPlanConfig {
            transient_ppm: 500_000,
            ..FaultPlanConfig::default()
        });
        for key in 0..200 {
            assert_eq!(
                plan.fault_for(FaultDomain::Collect, "pastebin.com", key, 0, 0),
                plan.fault_for(FaultDomain::Collect, "pastebin.com", key, 0, 0),
            );
        }
        // Different targets / domains draw independently: with 200 ops at
        // 50% the two streams cannot be identical unless the hash ignores
        // its inputs.
        let a: Vec<bool> = (0..200)
            .map(|k| {
                plan.fault_for(FaultDomain::Collect, "pastebin.com", k, 0, 0)
                    .is_some()
            })
            .collect();
        let b: Vec<bool> = (0..200)
            .map(|k| {
                plan.fault_for(FaultDomain::Collect, "4chan.org/b", k, 0, 0)
                    .is_some()
            })
            .collect();
        let c: Vec<bool> = (0..200)
            .map(|k| {
                plan.fault_for(FaultDomain::Probe, "pastebin.com", k, 0, 0)
                    .is_some()
            })
            .collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn transient_ops_fail_then_succeed_on_a_fixed_attempt() {
        let plan = FaultPlan::new(FaultPlanConfig {
            transient_ppm: 1_000_000,
            max_transient_failures: 3,
            ..FaultPlanConfig::default()
        });
        for key in 0..100 {
            let mut failures = 0;
            for attempt in 0..10 {
                match plan.fault_for(FaultDomain::Collect, "s", key, 0, attempt) {
                    Some(_) => {
                        assert_eq!(attempt, failures, "failures are a prefix of attempts");
                        failures += 1;
                    }
                    None => break,
                }
            }
            assert!((1..=3).contains(&failures));
        }
    }

    #[test]
    fn hard_ops_never_succeed() {
        let plan = FaultPlan::new(FaultPlanConfig {
            hard_ppm: 1_000_000,
            ..FaultPlanConfig::default()
        });
        for attempt in 0..50 {
            assert!(plan
                .fault_for(FaultDomain::Collect, "s", 1, 0, attempt)
                .is_some());
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = FaultPlan::new(FaultPlanConfig {
            transient_ppm: 100_000, // 10%
            ..FaultPlanConfig::default()
        });
        let hits = (0..10_000u64)
            .filter(|&k| plan.fault_for(FaultDomain::Collect, "s", k, 0, 0).is_some())
            .count();
        assert!((700..1300).contains(&hits), "10% of 10k, got {hits}");
    }

    #[test]
    fn stage_directives_cover_all_kinds() {
        let plan = FaultPlan::new(FaultPlanConfig {
            slow_chunk_ppm: 300_000,
            poison_chunk_ppm: 300_000,
            max_transient_failures: 2,
            ..FaultPlanConfig::default()
        });
        let mut slow = 0;
        let mut poison = 0;
        let mut healthy = 0;
        for seq in 0..1_000 {
            match plan.stage_directive(seq) {
                StageDirective::Healthy => healthy += 1,
                StageDirective::Slow { yields } => {
                    assert_eq!(yields, 64);
                    slow += 1;
                }
                StageDirective::Poison { failures } => {
                    assert!((1..=2).contains(&failures));
                    poison += 1;
                }
            }
        }
        assert!(
            slow > 0 && poison > 0 && healthy > 0,
            "{slow}/{poison}/{healthy}"
        );
    }

    #[test]
    fn healthy_detection_and_fingerprints() {
        assert!(FaultPlanConfig::healthy().is_healthy());
        let mut noisy = FaultPlanConfig::healthy();
        noisy.transient_ppm = 1;
        assert!(!noisy.is_healthy());
        assert_ne!(
            noisy.fingerprint(),
            FaultPlanConfig::healthy().fingerprint()
        );
        let mut killed = FaultPlanConfig::healthy();
        killed.kill_after_docs = Some(10);
        assert!(!killed.is_healthy());
        // The kill switch is an execution event, not fault weather: a
        // resumed run (same weather, no kill) must still match the
        // checkpoint its killed twin wrote.
        assert_eq!(
            killed.fingerprint(),
            FaultPlanConfig::healthy().fingerprint()
        );
        let mut store_killed = FaultPlanConfig::healthy();
        store_killed.kill_at_store_commit = Some(2);
        store_killed.kill_store_point = StoreKillPoint::BetweenWriteAndSwap;
        assert!(!store_killed.is_healthy());
        // Same rationale as `kill_after_docs`: the store kill is a
        // simulated crash, not weather, so the resumed twin (no kill)
        // must accept the checkpoint the killed run committed.
        assert_eq!(
            store_killed.fingerprint(),
            FaultPlanConfig::healthy().fingerprint()
        );
    }

    #[test]
    fn store_kill_config_round_trips_and_rejects_junk() {
        let parsed: FaultPlanConfig = serde_json::from_str(
            r#"{"kill_at_store_commit": 3, "kill_store_point": "between_write_and_swap"}"#,
        )
        .expect("store kill config");
        assert_eq!(parsed.kill_at_store_commit, Some(3));
        assert_eq!(parsed.kill_store_point, StoreKillPoint::BetweenWriteAndSwap);
        let plan = FaultPlan::new(parsed);
        assert_eq!(
            plan.kill_at_store_commit(),
            Some((3, StoreKillPoint::BetweenWriteAndSwap))
        );
        assert!(
            serde_json::from_str::<FaultPlanConfig>(r#"{"kill_store_point": "sideways"}"#).is_err()
        );
    }

    #[test]
    fn config_types_fill_missing_keys_and_reject_unknown_ones() {
        use crate::{Backoff, BreakerConfig, RetryPolicy};
        let policy: RetryPolicy =
            serde_json::from_str(r#"{"backoff": {"cap": 60}}"#).expect("partial policy");
        let backoff = Backoff {
            cap: 60,
            ..Backoff::default()
        };
        assert_eq!(
            policy,
            RetryPolicy {
                backoff,
                ..RetryPolicy::default()
            }
        );
        let breaker: BreakerConfig =
            serde_json::from_str(r#"{"cooldown": 5}"#).expect("partial breaker");
        assert_eq!(breaker.cooldown, 5);
        assert_eq!(breaker.failure_threshold, 4, "default threshold");
        let config: FaultPlanConfig =
            serde_json::from_str(r#"{"outages": [{"target": "pastebin.com", "until": 9}]}"#)
                .expect("partial outage");
        assert_eq!(config.outages[0].domain, FaultDomain::Collect);
        assert_eq!((config.outages[0].from, config.outages[0].until), (0, 9));
        for typo in [
            r#"{"seeed": 1}"#,
            r#"{"outages": [{"target": "x", "form": 1}]}"#,
            r#"{"outages": [{"domain": "Network"}]}"#,
            r#"{"server_error_code": 65536}"#,
        ] {
            assert!(
                serde_json::from_str::<FaultPlanConfig>(typo).is_err(),
                "accepted {typo}"
            );
        }
        assert!(serde_json::from_str::<RetryPolicy>(r#"{"backoff": {"jitter": 1}}"#).is_err());
        assert!(serde_json::from_str::<BreakerConfig>(r#"{"threshold": 1}"#).is_err());
        assert!(serde_json::from_str::<Backoff>(r#"{"jitter_ppm": 4294967296}"#).is_err());
    }

    #[test]
    fn config_round_trips_through_json_with_defaults() {
        let parsed: FaultPlanConfig =
            serde_json::from_str(r#"{"transient_ppm": 5000, "seed": 7}"#).expect("partial config");
        assert_eq!(parsed.transient_ppm, 5_000);
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.max_transient_failures, 2, "defaults fill the rest");
        let json = serde_json::to_string(&parsed).expect("serializes");
        let back: FaultPlanConfig = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back, parsed);
    }
}
