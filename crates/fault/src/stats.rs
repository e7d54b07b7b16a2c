//! Recovery accounting.
//!
//! Two ledgers with very different destinations:
//!
//! * [`FaultStats`] — how hard the recovery machinery worked (attempts,
//!   retries, rate-limit waits, breaker transitions). Observability only:
//!   these numbers feed metrics and events and are **never** written into
//!   the `ExperimentReport`, because a recovered run must stay
//!   byte-identical to a fault-free one.
//! * [`CoverageGaps`] — what was *lost* despite recovery (exhausted
//!   retries, poisoned chunks). This is report-bound data: the paper's
//!   own §3.1.1 caveat about unobservable deleted pastes, generalized —
//!   a gap is an explicit count, never a silent drop.

use crate::FaultDomain;
use serde::Serialize;
use std::collections::BTreeMap;

/// Retry-machinery counters (observability only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FaultStats {
    /// Operations driven through the plan.
    pub ops: u64,
    /// Faults injected across all attempts.
    pub faults_injected: u64,
    /// Retries performed (attempts beyond each op's first).
    pub retries: u64,
    /// Retries whose wait honored a `Retry-After` hint.
    pub rate_limit_waits: u64,
    /// Operations that exhausted their retry budget.
    pub exhausted: u64,
    /// Breaker transitions to open.
    pub breaker_opens: u64,
    /// Breaker transitions to half-open.
    pub breaker_half_opens: u64,
    /// Breaker transitions back to closed.
    pub breaker_closes: u64,
}

impl FaultStats {
    /// Fold `other` into `self`, field by field.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.ops += other.ops;
        self.faults_injected += other.faults_injected;
        self.retries += other.retries;
        self.rate_limit_waits += other.rate_limit_waits;
        self.exhausted += other.exhausted;
        self.breaker_opens += other.breaker_opens;
        self.breaker_half_opens += other.breaker_half_opens;
        self.breaker_closes += other.breaker_closes;
    }
}

/// What the run failed to observe, by boundary. Report-bound: ordered
/// containers only, all counts explicit.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CoverageGaps {
    /// Documents whose collection exhausted retries, per source name.
    pub missed_collections: BTreeMap<String, u64>,
    /// Scheduled OSN status probes that exhausted retries.
    pub missed_probes: u64,
    /// Comment fetches (§5.3.2) that exhausted retries.
    pub missed_comment_fetches: u64,
    /// Documents lost to poisoned engine stage workers.
    pub stage_exhausted_docs: u64,
}

impl CoverageGaps {
    /// Record one operation of `domain` against `target` that exhausted
    /// its retries. A stage operation stands for one lost document.
    pub fn record(&mut self, domain: FaultDomain, target: &str) {
        match domain {
            FaultDomain::Collect => {
                *self
                    .missed_collections
                    .entry(target.to_string())
                    .or_insert(0) += 1;
            }
            FaultDomain::Probe => self.missed_probes += 1,
            FaultDomain::Comments => self.missed_comment_fetches += 1,
            FaultDomain::Stage => self.stage_exhausted_docs += 1,
        }
    }

    /// Missed collections across every source.
    pub fn missed_collection_total(&self) -> u64 {
        self.missed_collections.values().sum()
    }

    /// Everything missed, across all boundaries.
    pub fn total(&self) -> u64 {
        self.missed_collection_total()
            + self.missed_probes
            + self.missed_comment_fetches
            + self.stage_exhausted_docs
    }

    /// True when nothing was missed (the fault-free / fully-recovered
    /// case — exactly when the report must match a fault-free run).
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Fold `other` into `self`.
    pub fn absorb(&mut self, other: &CoverageGaps) {
        for (source, n) in &other.missed_collections {
            *self.missed_collections.entry(source.clone()).or_insert(0) += n;
        }
        self.missed_probes += other.missed_probes;
        self.missed_comment_fetches += other.missed_comment_fetches;
        self.stage_exhausted_docs += other.stage_exhausted_docs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_sum_across_boundaries() {
        let mut g = CoverageGaps::default();
        assert!(g.is_empty());
        g.record(FaultDomain::Collect, "pastebin.com");
        g.record(FaultDomain::Collect, "pastebin.com");
        g.record(FaultDomain::Collect, "4chan.org/b");
        g.missed_probes = 2;
        g.stage_exhausted_docs = 5;
        assert_eq!(g.missed_collection_total(), 3);
        assert_eq!(g.total(), 10);
        assert!(!g.is_empty());
    }

    #[test]
    fn absorb_is_fieldwise() {
        let mut a = CoverageGaps::default();
        a.record(FaultDomain::Collect, "pastebin.com");
        let mut b = CoverageGaps {
            missed_probes: 1,
            ..CoverageGaps::default()
        };
        b.record(FaultDomain::Collect, "pastebin.com");
        a.absorb(&b);
        assert_eq!(a.missed_collections["pastebin.com"], 2);
        assert_eq!(a.missed_probes, 1);

        let mut s = FaultStats::default();
        s.absorb(&FaultStats {
            ops: 3,
            retries: 2,
            ..FaultStats::default()
        });
        s.absorb(&FaultStats {
            ops: 1,
            exhausted: 1,
            ..FaultStats::default()
        });
        assert_eq!(s.ops, 4);
        assert_eq!(s.retries, 2);
        assert_eq!(s.exhausted, 1);
    }

    #[test]
    fn gaps_serialize_with_ordered_sources() {
        let mut g = CoverageGaps::default();
        g.record(FaultDomain::Collect, "b-source");
        g.record(FaultDomain::Collect, "a-source");
        let json = serde_json::to_string(&g).expect("serializes");
        let a = json.find("a-source").expect("present");
        let b = json.find("b-source").expect("present");
        assert!(a < b, "BTreeMap keeps report ordering stable");
    }
}
