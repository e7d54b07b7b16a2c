//! Per-target circuit breakers.
//!
//! A breaker protects one target (a source site, an OSN) from retry
//! storms: after `failure_threshold` consecutive failures it *opens* and
//! shifts every attempt to the end of a cooldown window, where a single
//! *half-open* probe decides whether to close (success) or re-open
//! (failure). Breakers shape the virtual timing of attempts — they never
//! drop an operation themselves, so document fate stays with the retry
//! budget and the coverage-gap accounting.

use serde::Serialize;
use std::collections::BTreeMap;

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BreakerState {
    /// Healthy: attempts pass through.
    Closed,
    /// Probing: one attempt is allowed; its outcome decides the state.
    HalfOpen,
    /// Tripped: attempts are shifted to the end of the cooldown.
    Open,
}

impl BreakerState {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::HalfOpen => "half-open",
            BreakerState::Open => "open",
        }
    }

    /// Gauge encoding for observability: closed 0, half-open 1, open 2.
    pub fn as_gauge(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker.
    pub failure_threshold: u32,
    /// Ticks the breaker stays open before admitting a half-open probe.
    pub cooldown: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 4,
            cooldown: 120,
        }
    }
}

/// Lifetime transition counters (observability).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct BreakerTransitions {
    /// Closed/half-open → open.
    pub opened: u64,
    /// Open → half-open (cooldown expired, probe admitted).
    pub half_opened: u64,
    /// Half-open/open → closed (a probe succeeded).
    pub closed: u64,
}

/// One target's breaker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    open_until: u64,
    transitions: BreakerTransitions,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: 0,
            transitions: BreakerTransitions::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Transition counters.
    pub fn transitions(&self) -> BreakerTransitions {
        self.transitions
    }

    /// The earliest virtual time an attempt scheduled at `at` may run.
    /// Closed and half-open admit immediately; open shifts the attempt to
    /// the end of the cooldown and moves to half-open (the attempt *is*
    /// the probe).
    pub fn admit_at(&mut self, at: u64) -> u64 {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => at,
            BreakerState::Open => {
                let admitted = at.max(self.open_until);
                self.state = BreakerState::HalfOpen;
                self.transitions.half_opened += 1;
                admitted
            }
        }
    }

    /// Record a successful attempt: closes the breaker.
    pub fn on_success(&mut self) {
        if self.state != BreakerState::Closed {
            self.transitions.closed += 1;
        }
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Record a failed attempt at virtual time `at`: a half-open probe
    /// failure re-opens immediately; a closed breaker opens once the
    /// consecutive-failure threshold is reached.
    pub fn on_failure(&mut self, at: u64) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.config.failure_threshold,
            BreakerState::Open => false,
        };
        if trip {
            self.state = BreakerState::Open;
            self.open_until = at.saturating_add(self.config.cooldown);
            self.transitions.opened += 1;
        }
    }
}

/// A keyed family of breakers, one per target, created on first use.
#[derive(Debug, Clone)]
pub struct BreakerSet {
    config: BreakerConfig,
    breakers: BTreeMap<String, CircuitBreaker>,
}

impl BreakerSet {
    /// An empty set; breakers materialize per target on first access.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            breakers: BTreeMap::new(),
        }
    }

    /// The breaker for `target`, created closed if absent.
    pub fn breaker(&mut self, target: &str) -> &mut CircuitBreaker {
        self.breakers
            .entry(target.to_string())
            .or_insert_with(|| CircuitBreaker::new(self.config))
    }

    /// All breakers, target-ordered (stable for gauges and summaries).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &CircuitBreaker)> {
        self.breakers.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Sum of transition counters across all targets.
    pub fn total_transitions(&self) -> BreakerTransitions {
        let mut total = BreakerTransitions::default();
        for b in self.breakers.values() {
            total.opened += b.transitions.opened;
            total.half_opened += b.transitions.half_opened;
            total.closed += b.transitions.closed;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: 100,
        }
    }

    #[test]
    fn trips_after_threshold_and_recovers_through_half_open() {
        let mut b = CircuitBreaker::new(cfg());
        for t in 0..2 {
            b.on_failure(t);
            assert_eq!(b.state(), BreakerState::Closed);
        }
        b.on_failure(2);
        assert_eq!(b.state(), BreakerState::Open);
        // An attempt during cooldown is shifted to its end, as the probe.
        assert_eq!(b.admit_at(10), 102);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(
            b.transitions(),
            BreakerTransitions {
                opened: 1,
                half_opened: 1,
                closed: 1
            }
        );
    }

    #[test]
    fn failed_probe_reopens_immediately() {
        let mut b = CircuitBreaker::new(cfg());
        for t in 0..3 {
            b.on_failure(t);
        }
        let probe_at = b.admit_at(0);
        b.on_failure(probe_at);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.transitions().opened, 2);
        // The next admission waits a full new cooldown.
        assert_eq!(b.admit_at(probe_at), probe_at + 100);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let mut b = CircuitBreaker::new(cfg());
        b.on_failure(0);
        b.on_failure(1);
        b.on_success();
        b.on_failure(2);
        b.on_failure(3);
        assert_eq!(b.state(), BreakerState::Closed, "count was reset");
    }

    #[test]
    fn breaker_set_isolates_targets() {
        let mut set = BreakerSet::new(cfg());
        for t in 0..3 {
            set.breaker("pastebin.com").on_failure(t);
        }
        assert_eq!(set.breaker("pastebin.com").state(), BreakerState::Open);
        assert_eq!(set.breaker("4chan.org/b").state(), BreakerState::Closed);
        let names: Vec<&str> = set.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["4chan.org/b", "pastebin.com"], "ordered");
        assert_eq!(set.total_transitions().opened, 1);
    }

    #[test]
    fn gauge_encoding_is_stable() {
        assert_eq!(BreakerState::Closed.as_gauge(), 0);
        assert_eq!(BreakerState::HalfOpen.as_gauge(), 1);
        assert_eq!(BreakerState::Open.as_gauge(), 2);
        assert_eq!(BreakerState::Open.to_string(), "open");
    }
}
