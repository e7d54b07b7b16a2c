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
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Everything needed to (re)create a tenant deterministically.
///
/// Encodes in field order, `"quota":null` when unset. Decodes through
/// a wire form where a missing key and a `null` read alike: `id`,
/// `seed` and `scale` are required, `workers`/`shards` default to the
/// engine defaults, and any field out of its documented range refuses
/// the spec.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantSpec {
    /// Tenant name (ASCII alphanumeric plus `-`/`_`, 1–64 bytes).
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

/// The wire form of a [`TenantSpec`], before validation.
#[derive(Default, Deserialize)]
#[serde(default)]
struct SpecWire {
    id: Option<String>,
    seed: Option<u64>,
    scale: Option<f64>,
    workers: Option<usize>,
    shards: Option<usize>,
    quota: Option<QuotaSpec>,
}

impl SpecWire {
    /// The spec, when every field is present or defaulted, and in range.
    fn validate(self) -> Option<TenantSpec> {
        let legal = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
        let defaults = EngineConfig::default();
        let spec = TenantSpec {
            id: self
                .id
                .filter(|id| (1..=64).contains(&id.len()) && id.chars().all(legal))?,
            seed: self.seed?,
            scale: self.scale.filter(|s| *s > 0.0 && *s <= 1.0)?,
            workers: self.workers.unwrap_or(defaults.workers),
            shards: self.shards.unwrap_or(defaults.shards),
            quota: match self.quota {
                None => None,
                Some(quota) => Some(quota.validate()?),
            },
        };
        (spec.workers > 0 && spec.shards > 0).then_some(spec)
    }
}

impl Deserialize for TenantSpec {
    fn from_value(value: &Value) -> Option<Self> {
        SpecWire::from_value(value)?.validate()
    }
}

impl TenantSpec {
    /// The spec as a JSON value tree.
    pub fn to_value(&self) -> Value {
        Serialize::to_value(self)
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
#[derive(Debug, Clone, Serialize)]
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
    /// De-duplication verdict, when the dox repeats an earlier one.
    pub duplicate: Option<DuplicateRef>,
}

/// The earlier dox an alert duplicates, and by which §3.1.4 rule.
#[derive(Debug, Clone, Serialize)]
pub struct DuplicateRef {
    /// The matching rule (`Exact`, `AccountSet`, …).
    pub kind: String,
    /// Document id of the original dox.
    pub of_doc: u64,
}

/// Per-victim index entry, serialized as `GET /v1/victims/:id`
/// answers it: its own (account-set) fingerprint, the networks, the
/// doxes' ids in commit order, the earliest collection time, the count.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct VictimEntry {
    fingerprint: u32,
    networks: BTreeSet<String>,
    doc_ids: Vec<u64>,
    first_seen: u64,
    doxes: u64,
}

/// Per-account index entry, serialized as `GET /v1/accounts/:id`
/// answers it: its own (`network:handle`) fingerprint, the network, and
/// the ids of the doxes naming it in commit order.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct AccountEntry {
    fingerprint: u32,
    network: String,
    doc_ids: Vec<u64>,
}

/// Per-document verdicts for one ingest batch.
#[derive(Debug, Clone, Serialize)]
pub struct IngestOutcome {
    /// Documents the engine absorbed without flagging.
    pub accepted: usize,
    /// Newly committed first-of-victim doxes.
    pub doxes: usize,
    /// Newly committed duplicates of earlier doxes.
    pub duplicates: usize,
    /// One verdict per submitted document, submission order.
    pub verdicts: Vec<Verdict>,
}

/// One submitted document's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Verdict {
    /// The document's id.
    pub doc_id: u64,
    /// `"accepted"`, `"dox"` or `"duplicate"`.
    pub verdict: &'static str,
}

impl IngestOutcome {
    /// The outcome as a JSON value tree.
    pub fn to_value(&self) -> Value {
        Serialize::to_value(self)
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
        let committed = tenant.session.detected_since(0);
        tenant.absorb(&committed);
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

    /// Index `fresh`, the committed detections from `self.absorbed` on.
    fn absorb(&mut self, fresh: &[DetectedDox]) {
        for detected in fresh {
            let victim = victim_fingerprint(detected);
            let mut account_fps = Vec::new();
            for osn in &detected.extracted.osn {
                let network = osn.network.to_string();
                let fp = account_fingerprint(&network, &osn.handle);
                account_fps.push(fp);
                let entry = self.accounts.entry(fp).or_insert_with(|| AccountEntry {
                    fingerprint: fp,
                    network,
                    doc_ids: Vec::new(),
                });
                entry.doc_ids.push(detected.doc_id);
            }
            if let Some(fp) = victim {
                let entry = self.victims.entry(fp).or_insert_with(|| VictimEntry {
                    fingerprint: fp,
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
                duplicate: detected.duplicate.map(|(kind, of_doc)| DuplicateRef {
                    kind: format!("{kind:?}"),
                    of_doc,
                }),
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
        let fresh = self.session.detected_since(self.absorbed);
        let batch_start = before.saturating_sub(self.absorbed);
        self.absorb(&fresh);

        // The engine appends detections in ingest order, so this batch's
        // are an in-order subsequence of `submitted`: one walk answers
        // every verdict.
        let mut detected = fresh
            .get(batch_start..)
            .unwrap_or_default()
            .iter()
            .peekable();
        let mut outcome = IngestOutcome {
            accepted: 0,
            doxes: 0,
            duplicates: 0,
            verdicts: Vec::with_capacity(submitted.len()),
        };
        for id in submitted {
            let verdict = match detected.next_if(|d| d.doc_id == id) {
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
            outcome.verdicts.push(Verdict {
                doc_id: id,
                verdict,
            });
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
    pub(crate) fn victim(&self, fp: u32) -> Option<&VictimEntry> {
        self.victims.get(&fp)
    }

    /// The victim with account-set fingerprint `fp`, as a JSON value tree.
    pub fn victim_value(&self, fp: u32) -> Option<Value> {
        self.victim(fp).map(Serialize::to_value)
    }

    /// Look up an account by `network:handle` fingerprint.
    pub(crate) fn account(&self, fp: u32) -> Option<&AccountEntry> {
        self.accounts.get(&fp)
    }

    /// The account with `network:handle` fingerprint `fp`, as a JSON
    /// value tree.
    pub fn account_value(&self, fp: u32) -> Option<Value> {
        self.account(fp).map(Serialize::to_value)
    }

    /// The alert stream from `cursor`, at most `limit` records; the
    /// next poll starts at `cursor` plus the page's length.
    pub(crate) fn alerts(&self, cursor: usize, limit: usize) -> &[AlertRecord] {
        let rest = self.alerts.get(cursor..).unwrap_or_default();
        &rest[..rest.len().min(limit)]
    }

    /// One page of the alert stream from `cursor`, at most `limit`
    /// records, each a JSON value tree; returns `(next_cursor, page)`.
    pub fn alerts_page(&self, cursor: usize, limit: usize) -> (usize, Vec<Value>) {
        let page = self.alerts(cursor, limit);
        (
            cursor + page.len(),
            page.iter().map(Serialize::to_value).collect(),
        )
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

    fn decode(json: &str) -> Option<TenantSpec> {
        serde_json::from_str(json).ok()
    }

    #[test]
    fn spec_round_trips_and_validates() {
        let s = spec("alpha-1");
        let json = serde_json::to_string(&s).expect("encodes");
        assert_eq!(
            json,
            r#"{"id":"alpha-1","seed":11,"scale":0.005,"workers":2,"shards":4,"quota":null}"#
        );
        let parsed = decode(&json).expect("round trip");
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
        let json = serde_json::to_string(&quotad).expect("encodes");
        assert_eq!(decode(&json), Some(quotad.clone()));
        assert_eq!(quotad.fingerprint(), s.fingerprint());

        // Rows written before `"quota":null` was emitted, and topology
        // left to the engine defaults.
        let defaults = EngineConfig::default();
        assert_eq!(
            decode(r#"{"id":"ok","seed":1,"scale":0.01}"#),
            Some(TenantSpec {
                id: "ok".to_string(),
                seed: 1,
                scale: 0.01,
                workers: defaults.workers,
                shards: defaults.shards,
                quota: None,
            })
        );
        assert_eq!(decode(r#"{"id":"has space","seed":1,"scale":0.01}"#), None);
        assert_eq!(decode(r#"{"id":"ok","seed":1,"scale":1.5}"#), None);
        assert_eq!(
            decode(r#"{"id":"ok","seed":1,"scale":0.1,"workers":0}"#),
            None
        );
        assert_eq!(
            decode(r#"{"id":"ok","seed":1,"scale":0.1,"quota":{"burst_docs":0}}"#),
            None
        );
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
