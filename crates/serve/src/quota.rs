//! Per-tenant ingest quotas: a token bucket over documents per second
//! plus a cap on in-flight request bytes.
//!
//! Quotas are the fairness half of the overload story (DESIGN.md §13):
//! the HTTP layer's backlog bound protects the *process*, quotas keep
//! one hot tenant from starving the rest once requests are admitted. A
//! breach answers `429` + `Retry-After` computed from the bucket
//! deficit, and is counted per tenant in `/metrics` as
//! `serve.tenant.<id>.quota_rejects`.
//!
//! Quotas are operator policy, not tenant identity: they ride along in
//! the [`TenantSpec`](crate::tenant::TenantSpec) JSON but are excluded
//! from its config fingerprint, so retuning a quota never invalidates a
//! tenant's checkpoints. Nothing here feeds the `ExperimentReport`, so
//! wall-clock refill is fine.

use dox_obs::{Counter, Gauge, Registry};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Operator-set ingest limits for one tenant. Every field is optional;
/// an absent (or `null`) field means "unlimited" on that axis.
///
/// The derived `Deserialize` checks only the shape; a spec is in range
/// once [`QuotaSpec::validate`] accepts it, which decoding a
/// [`TenantSpec`](crate::tenant::TenantSpec) does.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct QuotaSpec {
    /// Sustained document ingest rate (token-bucket refill, docs/s).
    pub docs_per_sec: Option<f64>,
    /// Bucket capacity in documents; defaults to two seconds of refill
    /// (minimum one batch of 1) when a rate is set.
    pub burst_docs: Option<u64>,
    /// Cap on request-body bytes concurrently being ingested for this
    /// tenant.
    pub max_inflight_bytes: Option<u64>,
}

impl QuotaSpec {
    /// The spec when every present field is in range: `docs_per_sec`
    /// finite and positive, the integer caps at least 1.
    pub fn validate(self) -> Option<Self> {
        let rate_ok = self.docs_per_sec.is_none_or(|r| r.is_finite() && r > 0.0);
        let caps_ok = [self.burst_docs, self.max_inflight_bytes]
            .iter()
            .all(|cap| cap.is_none_or(|c| c >= 1));
        (rate_ok && caps_ok).then_some(self)
    }

    /// Whether any axis is actually limited.
    pub fn is_limiting(&self) -> bool {
        self.docs_per_sec.is_some() || self.max_inflight_bytes.is_some()
    }

    /// Effective bucket capacity when a rate is set.
    fn burst(&self, rate: f64) -> f64 {
        match self.burst_docs {
            Some(b) => b as f64,
            None => (rate * 2.0).max(1.0),
        }
    }
}

/// Token bucket: current tokens and the instant they were last topped up.
#[derive(Debug)]
struct Bucket {
    tokens: f64,
    refilled_at: Instant,
}

/// Live quota enforcement for one tenant.
#[derive(Debug)]
pub struct QuotaState {
    spec: QuotaSpec,
    bucket: Mutex<Bucket>,
    inflight_bytes: AtomicU64,
    /// `serve.tenant.<id>.quota_rejects` — `429`s answered for this
    /// tenant.
    rejects: Counter,
    /// `serve.tenant.<id>.inflight_bytes` — request bytes currently
    /// being ingested.
    inflight_gauge: Gauge,
}

impl QuotaState {
    /// Fresh state: a full bucket plus this tenant's `/metrics`
    /// instruments.
    pub fn new(spec: QuotaSpec, tenant_id: &str, registry: &Registry) -> Self {
        let tokens = spec.docs_per_sec.map_or(0.0, |rate| spec.burst(rate));
        Self {
            spec,
            bucket: Mutex::new(Bucket {
                tokens,
                // dox-lint:allow(determinism) wall-clock refill anchor; admission timing, never report content
                refilled_at: Instant::now(),
            }),
            inflight_bytes: AtomicU64::new(0),
            rejects: registry.counter(&format!("serve.tenant.{tenant_id}.quota_rejects")),
            inflight_gauge: registry.gauge(&format!("serve.tenant.{tenant_id}.inflight_bytes")),
        }
    }

    /// Admit `docs` documents carried by `bytes` request-body bytes, or
    /// refuse with the `Retry-After` seconds the client should wait.
    /// The returned guard holds the in-flight byte reservation until
    /// dropped; rate tokens are consumed on admission and never
    /// returned (the work happens either way).
    ///
    /// # Errors
    /// The suggested `Retry-After` in whole seconds (at least 1).
    pub fn admit(this: &Arc<Self>, docs: u64, bytes: u64) -> Result<QuotaAdmission, u64> {
        // dox-lint:allow(determinism) wall-clock refill; quota decisions are admission-time only
        QuotaState::admit_at(this, docs, bytes, Instant::now())
    }

    /// [`QuotaState::admit`] with an explicit clock, so tests can move
    /// time instead of sleeping.
    fn admit_at(
        this: &Arc<Self>,
        docs: u64,
        bytes: u64,
        now: Instant,
    ) -> Result<QuotaAdmission, u64> {
        if let Some(cap) = this.spec.max_inflight_bytes {
            let before = this.inflight_bytes.fetch_add(bytes, Ordering::SeqCst);
            if before.saturating_add(bytes) > cap {
                this.inflight_bytes.fetch_sub(bytes, Ordering::SeqCst);
                this.rejects.inc();
                return Err(1);
            }
        }
        if let Some(rate) = this.spec.docs_per_sec {
            let mut bucket = this.bucket.lock().unwrap_or_else(PoisonError::into_inner);
            let elapsed = now.saturating_duration_since(bucket.refilled_at);
            bucket.tokens =
                (bucket.tokens + elapsed.as_secs_f64() * rate).min(this.spec.burst(rate));
            bucket.refilled_at = now;
            let needed = docs as f64;
            if bucket.tokens < needed {
                let deficit = needed - bucket.tokens;
                drop(bucket);
                if this.spec.max_inflight_bytes.is_some() {
                    this.inflight_bytes.fetch_sub(bytes, Ordering::SeqCst);
                }
                this.rejects.inc();
                let wait = (deficit / rate).ceil();
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                return Err((wait as u64).max(1));
            }
            bucket.tokens -= needed;
        }
        let reserved = if this.spec.max_inflight_bytes.is_some() {
            this.inflight_gauge
                .set(this.inflight_bytes.load(Ordering::SeqCst) as i64);
            bytes
        } else {
            0
        };
        Ok(QuotaAdmission {
            state: Arc::clone(this),
            bytes: reserved,
        })
    }

    /// `429`s answered so far (for tests and `/metrics` readers).
    pub fn rejects(&self) -> u64 {
        self.rejects.get()
    }
}

/// Holds a tenant's in-flight byte reservation for the duration of one
/// admitted ingest; dropping it releases the bytes.
#[derive(Debug)]
pub struct QuotaAdmission {
    state: Arc<QuotaState>,
    bytes: u64,
}

impl Drop for QuotaAdmission {
    fn drop(&mut self) {
        if self.bytes > 0 {
            let after = self
                .state
                .inflight_bytes
                .fetch_sub(self.bytes, Ordering::SeqCst)
                .saturating_sub(self.bytes);
            self.state.inflight_gauge.set(after as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn state(spec: QuotaSpec) -> Arc<QuotaState> {
        Arc::new(QuotaState::new(spec, "t", &Registry::new()))
    }

    fn decode(json: &str) -> Option<QuotaSpec> {
        serde_json::from_str::<QuotaSpec>(json)
            .ok()
            .and_then(QuotaSpec::validate)
    }

    #[test]
    fn quota_spec_round_trips_and_rejects_bad_fields() {
        let spec = QuotaSpec {
            docs_per_sec: Some(12.5),
            burst_docs: Some(40),
            max_inflight_bytes: Some(1 << 20),
        };
        let json = serde_json::to_string(&spec).expect("encodes");
        assert_eq!(decode(&json), Some(spec));
        assert_eq!(decode("{}"), Some(QuotaSpec::default()));
        assert_eq!(
            decode(r#"{"docs_per_sec":null}"#),
            Some(QuotaSpec::default())
        );
        assert_eq!(decode(r#"{"docs_per_sec":0.0}"#), None);
        assert_eq!(decode(r#"{"docs_per_sec":-1}"#), None);
        assert_eq!(decode(r#"{"burst_docs":0}"#), None);
        assert_eq!(decode(r#"{"max_inflight_bytes":0}"#), None);
        assert_eq!(decode(r#"{"burst_docs":1.5}"#), None);
        assert_eq!(decode(r#""x""#), None);
    }

    #[test]
    fn token_bucket_enforces_rate_and_refills_over_time() {
        let q = state(QuotaSpec {
            docs_per_sec: Some(10.0),
            burst_docs: Some(10),
            max_inflight_bytes: None,
        });
        let t0 = Instant::now();
        // The full burst admits immediately…
        QuotaState::admit_at(&q, 10, 0, t0).expect("burst admits");
        // …then the bucket is empty and the next batch is refused with
        // a deficit-derived Retry-After.
        let retry = QuotaState::admit_at(&q, 10, 0, t0).expect_err("empty bucket refuses");
        assert_eq!(retry, 1, "10 docs at 10/s is one second away");
        assert_eq!(q.rejects(), 1);
        // One second later the refill covers it.
        QuotaState::admit_at(&q, 10, 0, t0 + Duration::from_secs(1)).expect("refilled");
        let retry = QuotaState::admit_at(&q, 30, 0, t0 + Duration::from_secs(1))
            .expect_err("over burst refuses");
        assert_eq!(retry, 3, "30-doc deficit at 10/s");
    }

    #[test]
    fn inflight_bytes_reserve_and_release_via_the_guard() {
        let q = state(QuotaSpec {
            docs_per_sec: None,
            burst_docs: None,
            max_inflight_bytes: Some(100),
        });
        let t0 = Instant::now();
        let first = QuotaState::admit_at(&q, 1, 60, t0).expect("fits");
        let refused = QuotaState::admit_at(&q, 1, 60, t0).expect_err("would exceed cap");
        assert_eq!(refused, 1);
        assert_eq!(q.rejects(), 1);
        drop(first);
        QuotaState::admit_at(&q, 1, 60, t0).expect("released bytes admit again");
    }

    #[test]
    fn failed_rate_check_rolls_back_the_byte_reservation() {
        let q = state(QuotaSpec {
            docs_per_sec: Some(1.0),
            burst_docs: Some(1),
            max_inflight_bytes: Some(100),
        });
        let t0 = Instant::now();
        let _admitted = QuotaState::admit_at(&q, 1, 10, t0).expect("first admits");
        QuotaState::admit_at(&q, 1, 10, t0).expect_err("rate refuses");
        assert_eq!(
            q.inflight_bytes.load(Ordering::SeqCst),
            10,
            "refused request must not leak its byte reservation"
        );
    }
}
