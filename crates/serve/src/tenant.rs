//! Resident tenants: one live engine session per tenant, plus the
//! PII-safe query indexes the service answers from.
//!
//! A tenant is `(id, seed, scale, topology)`. Creating one trains the
//! tenant's detector from its own `(config, seed)` — exactly the
//! classifier [`Study::run`] would train — and parks a
//! [`Session`] behind it. Ingested documents flow through the same
//! sharded engine as the batch study, so a tenant fed the study's
//! document stream yields a byte-identical `/v1/report`.
//!
//! Query indexes are maintained incrementally from committed
//! detections and hold **only** [`redact()`]-derived fingerprints:
//! victims are keyed by the fingerprint of their §3.1.4 account-set
//! key, accounts by the fingerprint of `network:handle`. Raw handles
//! and bodies never leave the engine's output buffer.

use crate::quota::QuotaSpec;
use dox_core::error::Result;
use dox_core::study::{Study, StudyConfig};
use dox_engine::output::DetectedDox;
use dox_engine::{
    Engine, EngineConfig, Session, SessionCheckpoint, Staged, StoreCheckpoint, StoreCheckpointError,
};
use dox_obs::{redact, Registry};
use dox_sites::collect::CollectedDoc;
use serde::value::{Number, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Everything needed to (re)create a tenant deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name (ASCII alphanumeric plus `-`/`_`).
    pub id: String,
    /// Master seed for the tenant's study config.
    pub seed: u64,
    /// Study scale (`0 < scale <= 1`).
    pub scale: f64,
    /// Engine stage-worker threads.
    pub workers: usize,
    /// Engine dedup shards (checkpoints only resume under the same
    /// shard count).
    pub shards: usize,
    /// Optional ingest quota (docs/s token bucket, in-flight byte
    /// cap). Operator policy, not identity: excluded from
    /// [`TenantSpec::fingerprint`] so retuning a quota never
    /// invalidates existing checkpoints.
    pub quota: Option<QuotaSpec>,
}

impl TenantSpec {
    /// Parse a spec from a JSON object: `id`, `seed` and `scale` are
    /// required, `workers`/`shards` default to the engine defaults.
    /// Returns `None` on missing fields, a malformed id, or an
    /// out-of-range scale.
    pub fn from_value(value: &Value) -> Option<Self> {
        let id = value.get("id")?.as_str()?.to_string();
        let valid_id = !id.is_empty()
            && id.len() <= 64
            && id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
        if !valid_id {
            return None;
        }
        let seed = value.get("seed")?.as_u64()?;
        let scale = value.get("scale")?.as_f64()?;
        if !(scale > 0.0 && scale <= 1.0) {
            return None;
        }
        let defaults = EngineConfig::default();
        let workers = match value.get("workers") {
            Some(v) => usize::try_from(v.as_u64()?).ok().filter(|w| *w > 0)?,
            None => defaults.workers,
        };
        let shards = match value.get("shards") {
            Some(v) => usize::try_from(v.as_u64()?).ok().filter(|s| *s > 0)?,
            None => defaults.shards,
        };
        let quota = match value.get("quota") {
            None | Some(Value::Null) => None,
            Some(v) => Some(QuotaSpec::from_value(v)?),
        };
        Some(Self {
            id,
            seed,
            scale,
            workers,
            shards,
            quota,
        })
    }

    /// The spec as a JSON object (inverse of [`TenantSpec::from_value`]).
    /// The `quota` key is emitted only when set, so pre-quota
    /// checkpoints and new quota-less ones stay byte-identical.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("id".to_string(), Value::String(self.id.clone())),
            ("seed".to_string(), Value::Number(Number::U64(self.seed))),
            ("scale".to_string(), Value::Number(Number::F64(self.scale))),
            (
                "workers".to_string(),
                Value::Number(Number::U64(self.workers as u64)),
            ),
            (
                "shards".to_string(),
                Value::Number(Number::U64(self.shards as u64)),
            ),
        ];
        if let Some(quota) = &self.quota {
            fields.push(("quota".to_string(), quota.to_value()));
        }
        Value::Object(fields)
    }

    /// The derived study configuration: the scaled paper config with
    /// this spec's seed and engine topology, fault-free.
    pub fn study_config(&self) -> StudyConfig {
        let engine = EngineConfig {
            workers: self.workers,
            shards: self.shards,
            ..EngineConfig::default()
        };
        StudyConfig::builder()
            .seed(self.seed)
            .scale(self.scale)
            .engine(engine)
            .build()
    }

    /// Stable fingerprint of the spec-to-config mapping, stored in
    /// checkpoints so a file written under a different mapping (or a
    /// tampered spec) is rejected instead of misread. The quota is
    /// deliberately excluded: it never reaches the study config, and an
    /// operator retuning it must not strand existing checkpoints.
    pub fn fingerprint(&self) -> u32 {
        let material = format!(
            "tenant|{}|{}|{:x}|{}|{}",
            self.id,
            self.seed,
            self.scale.to_bits(),
            self.workers,
            self.shards
        );
        redact(material).fingerprint()
    }
}

/// One committed dox, redacted for the alert stream.
#[derive(Debug, Clone)]
pub struct AlertRecord {
    /// Position in the tenant's alert stream (the cursor unit).
    pub seq: u64,
    /// Document id of the committed dox.
    pub doc_id: u64,
    /// Source site name.
    pub source: String,
    /// Collection period the document arrived in.
    pub period: u8,
    /// Posting time (sim minutes).
    pub posted_at: u64,
    /// Collection time (sim minutes; monitoring starts here).
    pub observed_at: u64,
    /// Fingerprint of the victim's account-set key, when the dox
    /// references any accounts.
    pub victim: Option<u32>,
    /// Fingerprints of every referenced `network:handle` pair.
    pub accounts: Vec<u32>,
    /// De-duplication verdict: `(kind, original doc id)`.
    pub duplicate: Option<(String, u64)>,
}

impl AlertRecord {
    /// The record as a JSON object.
    pub fn to_value(&self) -> Value {
        let duplicate = match &self.duplicate {
            None => Value::Null,
            Some((kind, of)) => Value::Object(vec![
                ("kind".to_string(), Value::String(kind.clone())),
                ("of_doc".to_string(), Value::Number(Number::U64(*of))),
            ]),
        };
        Value::Object(vec![
            ("seq".to_string(), Value::Number(Number::U64(self.seq))),
            (
                "doc_id".to_string(),
                Value::Number(Number::U64(self.doc_id)),
            ),
            ("source".to_string(), Value::String(self.source.clone())),
            (
                "period".to_string(),
                Value::Number(Number::U64(u64::from(self.period))),
            ),
            (
                "posted_at".to_string(),
                Value::Number(Number::U64(self.posted_at)),
            ),
            (
                "observed_at".to_string(),
                Value::Number(Number::U64(self.observed_at)),
            ),
            (
                "victim".to_string(),
                self.victim
                    .map_or(Value::Null, |fp| Value::Number(Number::U64(u64::from(fp)))),
            ),
            (
                "accounts".to_string(),
                Value::Array(
                    self.accounts
                        .iter()
                        .map(|fp| Value::Number(Number::U64(u64::from(*fp))))
                        .collect(),
                ),
            ),
            ("duplicate".to_string(), duplicate),
        ])
    }
}

/// Per-victim index entry (keyed by account-set fingerprint).
#[derive(Debug, Clone)]
struct VictimEntry {
    networks: BTreeSet<String>,
    doc_ids: Vec<u64>,
    first_seen: u64,
    doxes: u64,
}

/// Per-account index entry (keyed by `network:handle` fingerprint).
#[derive(Debug, Clone)]
struct AccountEntry {
    network: String,
    doc_ids: Vec<u64>,
}

/// Per-document verdicts for one ingest batch.
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// Documents the engine absorbed without flagging.
    pub accepted: usize,
    /// Newly committed first-of-victim doxes.
    pub doxes: usize,
    /// Newly committed duplicates of earlier doxes.
    pub duplicates: usize,
    /// `(doc_id, "accepted" | "dox" | "duplicate")`, submission order.
    pub verdicts: Vec<(u64, &'static str)>,
}

impl IngestOutcome {
    /// The outcome as a JSON object.
    pub fn to_value(&self) -> Value {
        let verdicts = self
            .verdicts
            .iter()
            .map(|(id, verdict)| {
                Value::Object(vec![
                    ("doc_id".to_string(), Value::Number(Number::U64(*id))),
                    ("verdict".to_string(), Value::String((*verdict).to_string())),
                ])
            })
            .collect();
        Value::Object(vec![
            (
                "accepted".to_string(),
                Value::Number(Number::U64(self.accepted as u64)),
            ),
            (
                "doxes".to_string(),
                Value::Number(Number::U64(self.doxes as u64)),
            ),
            (
                "duplicates".to_string(),
                Value::Number(Number::U64(self.duplicates as u64)),
            ),
            ("verdicts".to_string(), Value::Array(verdicts)),
        ])
    }
}

/// Fingerprint of one referenced account: `network:handle`.
fn account_fingerprint(network: &str, h: &str) -> u32 {
    let mut material = String::with_capacity(network.len() + 1 + h.len());
    material.push_str(network);
    material.push(':');
    material.push_str(h);
    redact(material).fingerprint()
}

/// Fingerprint of the victim's §3.1.4 account-set key; `None` when the
/// dox references no accounts (no stable victim identity).
fn victim_fingerprint(detected: &DetectedDox) -> Option<u32> {
    let key = detected.extracted.account_set_key();
    if key.is_empty() {
        return None;
    }
    let mut material = String::new();
    for (network, h) in &key {
        material.push_str(&network.to_string());
        material.push(':');
        material.push_str(h);
        material.push('|');
    }
    Some(redact(material).fingerprint())
}

/// A resident tenant: trained detector, live session, query indexes.
pub struct Tenant {
    spec: TenantSpec,
    study: Study,
    session: Session,
    /// Committed detections already absorbed into the indexes.
    absorbed: usize,
    alerts: Vec<AlertRecord>,
    victims: BTreeMap<u32, VictimEntry>,
    accounts: BTreeMap<u32, AccountEntry>,
    docs_ingested: u64,
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Study and Session are not Debug; summarize the tenant instead.
        f.debug_struct("Tenant")
            .field("spec", &self.spec)
            .field("docs_ingested", &self.docs_ingested)
            .field("committed", &self.absorbed)
            .finish_non_exhaustive()
    }
}

impl Tenant {
    /// Train the tenant's detector and start a fresh resident session.
    ///
    /// Training replays the study's world generation and classifier
    /// training — this is seconds of work at test scale, minutes at
    /// paper scale.
    ///
    /// # Errors
    /// Engine-configuration or training failures.
    pub fn start(spec: TenantSpec, registry: &Registry) -> Result<Self> {
        Self::boot(spec, registry, None, 0)
    }

    /// Recreate a tenant from a drained checkpoint: retrain the
    /// detector (pure function of the spec) and resume the session
    /// from the saved engine state.
    ///
    /// # Errors
    /// Engine, training or checkpoint-mismatch failures.
    pub fn resume(
        spec: TenantSpec,
        checkpoint: SessionCheckpoint,
        docs_ingested: u64,
        registry: &Registry,
    ) -> Result<Self> {
        Self::boot(spec, registry, Some(checkpoint), docs_ingested)
    }

    fn boot(
        spec: TenantSpec,
        registry: &Registry,
        checkpoint: Option<SessionCheckpoint>,
        docs_ingested: u64,
    ) -> Result<Self> {
        let study = Study::with_registry(spec.study_config(), registry.clone());
        let detector = study.train_detector()?;
        let engine = Engine::from_config(study.config().engine.clone())?;
        let mut builder = engine
            .session_builder()
            .detector(detector)
            .registry(registry);
        if let Some(checkpoint) = checkpoint {
            builder = builder.resume_from(checkpoint);
        }
        let session = builder.start()?;
        let mut tenant = Self {
            spec,
            study,
            session,
            absorbed: 0,
            alerts: Vec::new(),
            victims: BTreeMap::new(),
            accounts: BTreeMap::new(),
            docs_ingested,
        };
        // A resumed session already carries committed detections; the
        // indexes and alert stream rebuild from them deterministically.
        tenant.absorb_new();
        Ok(tenant)
    }

    /// The spec this tenant was created from.
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// Total documents ingested over the tenant's lifetime (survives
    /// checkpoint/resume).
    pub fn docs_ingested(&self) -> u64 {
        self.docs_ingested
    }

    /// Committed detections so far.
    pub fn committed_len(&self) -> usize {
        self.session.committed_len()
    }

    /// Alert-stream length (the upper cursor bound).
    pub fn alerts_len(&self) -> usize {
        self.alerts.len()
    }

    /// Index every not-yet-absorbed committed detection.
    fn absorb_new(&mut self) {
        let fresh = self.session.detected_since(self.absorbed);
        for detected in &fresh {
            let victim = victim_fingerprint(detected);
            let mut account_fps = Vec::new();
            for osn in &detected.extracted.osn {
                let network = osn.network.to_string();
                let fp = account_fingerprint(&network, &osn.handle);
                account_fps.push(fp);
                let entry = self.accounts.entry(fp).or_insert_with(|| AccountEntry {
                    network,
                    doc_ids: Vec::new(),
                });
                entry.doc_ids.push(detected.doc_id);
            }
            if let Some(fp) = victim {
                let entry = self.victims.entry(fp).or_insert_with(|| VictimEntry {
                    networks: BTreeSet::new(),
                    doc_ids: Vec::new(),
                    first_seen: detected.observed_at.0,
                    doxes: 0,
                });
                for (network, _) in detected.extracted.account_set_key() {
                    entry.networks.insert(network.to_string());
                }
                entry.doc_ids.push(detected.doc_id);
                entry.doxes += 1;
                entry.first_seen = entry.first_seen.min(detected.observed_at.0);
            }
            self.alerts.push(AlertRecord {
                seq: self.alerts.len() as u64,
                doc_id: detected.doc_id,
                source: format!("{:?}", detected.source),
                period: detected.period,
                posted_at: detected.posted_at.0,
                observed_at: detected.observed_at.0,
                victim,
                accounts: account_fps,
                duplicate: detected
                    .duplicate
                    .map(|(kind, of)| (format!("{kind:?}"), of)),
            });
        }
        self.absorbed += fresh.len();
    }

    /// Ingest one batch, drain it through the engine, and return the
    /// per-document verdicts.
    ///
    /// The flush makes verdicts exact rather than eventual: every
    /// document of the batch is classified, deduplicated and committed
    /// (or dropped as a non-dox) before this returns.
    ///
    /// # Errors
    /// Engine errors (invalid period, dead workers, barrier timeout).
    pub fn ingest_batch(&mut self, period: u8, docs: Vec<CollectedDoc>) -> Result<IngestOutcome> {
        let submitted: Vec<u64> = docs.iter().map(|c| c.doc.id).collect();
        let before = self.session.committed_len();
        for doc in docs {
            self.session.ingest(period, doc)?;
            self.docs_ingested += 1;
        }
        self.session.flush()?;
        let fresh = self.session.detected_since(before);
        self.absorb_new();

        let by_id: BTreeMap<u64, &DetectedDox> = fresh.iter().map(|d| (d.doc_id, d)).collect();
        let mut outcome = IngestOutcome {
            accepted: 0,
            doxes: 0,
            duplicates: 0,
            verdicts: Vec::with_capacity(submitted.len()),
        };
        for id in submitted {
            let verdict = match by_id.get(&id) {
                Some(d) if d.duplicate.is_some() => {
                    outcome.duplicates += 1;
                    "duplicate"
                }
                Some(_) => {
                    outcome.doxes += 1;
                    "dox"
                }
                None => {
                    outcome.accepted += 1;
                    "accepted"
                }
            };
            outcome.verdicts.push((id, verdict));
        }
        Ok(outcome)
    }

    /// The full [`dox_core::study::ExperimentReport`] for everything
    /// ingested so far, as JSON. Byte-identical to the batch
    /// [`Study::run`] once the tenant has ingested the study's whole
    /// document stream.
    ///
    /// # Errors
    /// Engine or analysis failures.
    pub fn report_json(&mut self) -> Result<String> {
        let output = self.session.output_snapshot()?;
        let report = self.study.report_from_ingest(&output)?;
        dox_core::report::to_json(&report)
    }

    /// Look up a victim by account-set fingerprint.
    pub fn victim_value(&self, fp: u32) -> Option<Value> {
        let entry = self.victims.get(&fp)?;
        Some(Value::Object(vec![
            (
                "fingerprint".to_string(),
                Value::Number(Number::U64(u64::from(fp))),
            ),
            (
                "networks".to_string(),
                Value::Array(
                    entry
                        .networks
                        .iter()
                        .map(|n| Value::String(n.clone()))
                        .collect(),
                ),
            ),
            (
                "doc_ids".to_string(),
                Value::Array(
                    entry
                        .doc_ids
                        .iter()
                        .map(|id| Value::Number(Number::U64(*id)))
                        .collect(),
                ),
            ),
            (
                "first_seen".to_string(),
                Value::Number(Number::U64(entry.first_seen)),
            ),
            ("doxes".to_string(), Value::Number(Number::U64(entry.doxes))),
        ]))
    }

    /// Look up an account by `network:handle` fingerprint.
    pub fn account_value(&self, fp: u32) -> Option<Value> {
        let entry = self.accounts.get(&fp)?;
        Some(Value::Object(vec![
            (
                "fingerprint".to_string(),
                Value::Number(Number::U64(u64::from(fp))),
            ),
            ("network".to_string(), Value::String(entry.network.clone())),
            (
                "doc_ids".to_string(),
                Value::Array(
                    entry
                        .doc_ids
                        .iter()
                        .map(|id| Value::Number(Number::U64(*id)))
                        .collect(),
                ),
            ),
        ]))
    }

    /// One page of the alert stream from `cursor`, at most `limit`
    /// records. Returns `(next_cursor, page)`; `next_cursor` is where
    /// the next poll should start.
    pub fn alerts_page(&self, cursor: usize, limit: usize) -> (usize, Vec<Value>) {
        let page: Vec<Value> = self
            .alerts
            .get(cursor..)
            .unwrap_or_default()
            .iter()
            .take(limit)
            .map(AlertRecord::to_value)
            .collect();
        (cursor + page.len(), page)
    }

    /// One-line summary for `GET /v1/tenants`.
    pub fn summary_value(&self) -> Value {
        Value::Object(vec![
            ("id".to_string(), Value::String(self.spec.id.clone())),
            (
                "seed".to_string(),
                Value::Number(Number::U64(self.spec.seed)),
            ),
            (
                "scale".to_string(),
                Value::Number(Number::F64(self.spec.scale)),
            ),
            (
                "docs_ingested".to_string(),
                Value::Number(Number::U64(self.docs_ingested)),
            ),
            (
                "committed".to_string(),
                Value::Number(Number::U64(self.committed_len() as u64)),
            ),
            (
                "alerts".to_string(),
                Value::Number(Number::U64(self.alerts.len() as u64)),
            ),
        ])
    }

    /// Wait for everything ingested to commit and stage the session's
    /// state into `checkpoint`, stamped with the spec's fingerprint and
    /// the lifetime ingest count. The caller's store commit makes it
    /// durable.
    ///
    /// # Errors
    /// Barrier or store-staging failures.
    pub fn stage_checkpoint(
        &mut self,
        checkpoint: &mut StoreCheckpoint,
    ) -> std::result::Result<Staged, StoreCheckpointError> {
        checkpoint.stage(
            &mut self.session,
            u64::from(self.spec.fingerprint()),
            self.docs_ingested,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ServeState;
    use std::ops::ControlFlow;
    use std::sync::{Arc, Mutex};

    fn spec(id: &str) -> TenantSpec {
        TenantSpec {
            id: id.to_string(),
            seed: 11,
            scale: 0.005,
            workers: 2,
            shards: 4,
            quota: None,
        }
    }

    #[test]
    fn spec_round_trips_and_validates() {
        let s = spec("alpha-1");
        let parsed = TenantSpec::from_value(&s.to_value()).expect("round trip");
        assert_eq!(parsed, s);
        assert_eq!(parsed.fingerprint(), s.fingerprint());

        // A quota rides along in the JSON but never joins the
        // fingerprint — retuning it must not strand checkpoints.
        let mut quotad = spec("alpha-1");
        quotad.quota = Some(crate::quota::QuotaSpec {
            docs_per_sec: Some(50.0),
            burst_docs: Some(100),
            max_inflight_bytes: Some(1 << 20),
        });
        let parsed = TenantSpec::from_value(&quotad.to_value()).expect("quota round trip");
        assert_eq!(parsed, quotad);
        assert_eq!(quotad.fingerprint(), s.fingerprint());

        let bad_id = Value::Object(vec![
            ("id".to_string(), Value::String("has space".to_string())),
            ("seed".to_string(), Value::Number(Number::U64(1))),
            ("scale".to_string(), Value::Number(Number::F64(0.01))),
        ]);
        assert!(TenantSpec::from_value(&bad_id).is_none());
        let bad_scale = Value::Object(vec![
            ("id".to_string(), Value::String("ok".to_string())),
            ("seed".to_string(), Value::Number(Number::U64(1))),
            ("scale".to_string(), Value::Number(Number::F64(1.5))),
        ]);
        assert!(TenantSpec::from_value(&bad_scale).is_none());
    }

    /// The first `n` documents of `spec`'s study stream and the period
    /// of the first one.
    fn head_of_stream(spec: &TenantSpec, n: usize) -> (u8, Vec<CollectedDoc>) {
        let study = Study::with_registry(spec.study_config(), Registry::new());
        let mut batch: Vec<(u8, CollectedDoc)> = Vec::new();
        study
            .synthetic_stream(&mut |period, doc| {
                batch.push((period, doc));
                if batch.len() >= n {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .expect("stream replays");
        let period = batch.first().expect("docs yielded").0;
        (period, batch.into_iter().map(|(_, d)| d).collect())
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dox_tenant_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Restore the drain in `dir` into a fresh daemon, which must hold
    /// tenant `id` alone.
    fn restore_one(dir: &std::path::Path, id: &str) -> Arc<Mutex<Tenant>> {
        let resumed = ServeState::new(Registry::new());
        let restored = resumed.restore_checkpoints(dir).expect("restore");
        assert_eq!(restored, [id]);
        resumed.get(id).expect("restored tenant resident")
    }

    #[test]
    fn tenant_ingests_queries_and_checkpoints() {
        let registry = Registry::new();
        let mut tenant = Tenant::start(spec("t0"), &registry).expect("tenant starts");

        // Feed the first 400 documents of the tenant's own stream.
        let (period, docs) = head_of_stream(tenant.spec(), 400);
        let submitted = docs.len();

        let outcome = tenant.ingest_batch(period, docs).expect("batch ingests");
        assert_eq!(outcome.verdicts.len(), submitted);
        assert_eq!(
            outcome.accepted + outcome.doxes + outcome.duplicates,
            submitted
        );
        assert_eq!(tenant.docs_ingested(), submitted as u64);
        assert_eq!(tenant.committed_len(), outcome.doxes + outcome.duplicates);

        // Every alert's victim/account fingerprints resolve in the indexes.
        let (next, page) = tenant.alerts_page(0, 1000);
        assert_eq!(next, tenant.alerts_len());
        for alert in &page {
            if let Some(fp) = alert.get("victim").and_then(Value::as_u64) {
                let fp = u32::try_from(fp).expect("u32 fingerprint");
                assert!(tenant.victim_value(fp).is_some(), "victim indexed");
            }
            for fp in alert
                .get("accounts")
                .and_then(Value::as_array)
                .expect("accounts")
            {
                let fp = u32::try_from(fp.as_u64().expect("number")).expect("u32");
                assert!(tenant.account_value(fp).is_some(), "account indexed");
            }
        }

        // Drain → restore → identical indexes and counters.
        let (docs_ingested, committed) = (tenant.docs_ingested(), tenant.committed_len());
        let dir = scratch("round_trip");
        let state = ServeState::new(registry);
        assert!(state.insert(tenant));
        state.drain_checkpoints(&dir).expect("drain");
        let resumed = restore_one(&dir, "t0");
        let resumed = resumed.lock().expect("tenant lock");
        assert_eq!(resumed.docs_ingested(), docs_ingested);
        assert_eq!(resumed.committed_len(), committed);
        assert_eq!(resumed.alerts_len(), page.len());
        let (_, rebuilt) = resumed.alerts_page(0, 1000);
        assert_eq!(
            serde_json::to_string(&Value::Array(page)).expect("json"),
            serde_json::to_string(&Value::Array(rebuilt)).expect("json"),
            "alert stream rebuilds byte-identically from the checkpoint"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_recreated_tenant_restores_with_its_shorter_log() {
        let registry = Registry::new();
        let dir = scratch("recreated");
        let mut first = Tenant::start(spec("t1"), &registry).expect("tenant starts");
        let (period, docs) = head_of_stream(first.spec(), 2_000);
        first.ingest_batch(period, docs).expect("batch ingests");
        assert!(first.committed_len() > 0, "the first tenant detected doxes");
        let state = ServeState::new(registry.clone());
        assert!(state.insert(first));
        state.drain_checkpoints(&dir).expect("drain");

        // Delete the tenant and create it afresh under the same id: its
        // detected log is now shorter than the drained one.
        assert!(state.remove("t1"));
        assert!(state.insert(Tenant::start(spec("t1"), &registry).expect("tenant starts")));
        state.drain_checkpoints(&dir).expect("drain");
        let t1 = restore_one(&dir, "t1");
        let t1 = t1.lock().expect("tenant lock");
        assert_eq!((t1.committed_len(), t1.alerts_len()), (0, 0));
        assert_eq!(t1.docs_ingested(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
