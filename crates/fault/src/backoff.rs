//! Bounded exponential backoff with seeded jitter.
//!
//! The delay schedule is the classic doubling ramp, capped, with
//! proportional jitter drawn from the seed — and it is *provably
//! monotone*: because the jitter span never exceeds the raw delay
//! (`jitter_ppm` is clamped to one million), `delay(n) ≤ 2·raw(n) =
//! raw(n+1) ≤ delay(n+1)` below the cap, and everything at or above the
//! cap is exactly the cap. The property tests in
//! `crates/fault/tests/backoff_props.rs` hold the proof to account.

use crate::mix;
use serde::{Deserialize, Serialize};

/// The backoff schedule: `delay(n) = min(cap, base·2ⁿ + jitter(n))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct Backoff {
    /// First delay, in ticks (clamped to ≥ 1).
    pub base: u64,
    /// Upper bound on any delay, in ticks.
    pub cap: u64,
    /// Jitter span as parts-per-million of the raw delay, clamped to
    /// 1 000 000 (jitter never exceeds the raw delay, preserving
    /// monotonicity).
    pub jitter_ppm: u32,
    /// Seed the jitter draws derive from.
    pub seed: u64,
}

impl Default for Backoff {
    fn default() -> Self {
        Self {
            base: 1,
            cap: 240,
            jitter_ppm: 250_000,
            seed: 0,
        }
    }
}

impl Backoff {
    /// The delay, in ticks, to wait after failed attempt `attempt`
    /// (0-based). Monotonically non-decreasing in `attempt`, never above
    /// `cap`, and a pure function of `(self, attempt)`.
    pub fn delay(&self, attempt: u32) -> u64 {
        let base = self.base.max(1);
        let cap = self.cap.max(base);
        let raw = if attempt >= 63 {
            cap
        } else {
            base.saturating_mul(1u64 << attempt).min(cap)
        };
        if raw >= cap {
            return cap;
        }
        let jitter_ppm = u128::from(self.jitter_ppm.min(1_000_000));
        let span = (u128::from(raw) * jitter_ppm / 1_000_000) as u64;
        let jitter = if span == 0 {
            0
        } else {
            mix(self.seed ^ (u64::from(attempt) << 1) ^ 0xBAC0FF) % (span + 1)
        };
        raw.saturating_add(jitter).min(cap)
    }
}

/// How many times to retry, and how to wait between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (an op runs at most
    /// `max_retries + 1` times).
    pub max_retries: u32,
    /// The backoff schedule between attempts.
    pub backoff: Backoff,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 5,
            backoff: Backoff::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_double_until_the_cap() {
        let b = Backoff {
            base: 2,
            cap: 100,
            jitter_ppm: 0,
            seed: 0,
        };
        let delays: Vec<u64> = (0..8).map(|n| b.delay(n)).collect();
        assert_eq!(delays, vec![2, 4, 8, 16, 32, 64, 100, 100]);
    }

    #[test]
    fn jitter_stays_proportional_and_reproducible() {
        let b = Backoff {
            base: 10,
            cap: 10_000,
            jitter_ppm: 500_000,
            seed: 42,
        };
        for n in 0..8 {
            let d = b.delay(n);
            let raw = 10u64 << n;
            assert!(d >= raw && d <= raw + raw / 2, "attempt {n}: {d}");
            assert_eq!(d, b.delay(n), "reproducible");
        }
        let other = Backoff { seed: 43, ..b };
        assert!(
            (0..8).any(|n| b.delay(n) != other.delay(n)),
            "different seeds draw different jitter"
        );
    }

    #[test]
    fn degenerate_configs_stay_sane() {
        let zero = Backoff {
            base: 0,
            cap: 0,
            jitter_ppm: 2_000_000,
            seed: 1,
        };
        // base clamps to 1, cap clamps to base, jitter clamps to 100%.
        assert_eq!(zero.delay(0), 1);
        assert_eq!(zero.delay(63), 1);
        let huge = Backoff {
            base: u64::MAX / 2,
            cap: u64::MAX,
            jitter_ppm: 1_000_000,
            seed: 1,
        };
        // Would overflow-panic in debug if the ramp wrapped instead of
        // saturating.
        assert!(huge.delay(70) >= huge.base, "saturates, never wraps");
    }
}
