//! Session checkpoints: the serializable quiescent state of an ingest
//! run.
//!
//! A checkpoint is taken only at **quiescence** — every dispatched chunk
//! committed (see [`Session::checkpoint`](crate::Session::checkpoint)).
//! At that moment the reorder buffer is empty, so the only sequencing
//! state worth persisting is the pair of cursors (`next_chunk_seq`,
//! `dox_seq`); the heavy state is the dedup partitions, the funnel
//! counters and the detected log. Restoring a checkpoint into a fresh
//! session and replaying the remaining document stream yields output
//! byte-identical to the uninterrupted run — the property the
//! fault-matrix test enforces.
//!
//! The format is JSON via the workspace's value-tree serde; field order
//! and the sorted [`DedupSnapshot`] entry lists make the encoding a pure
//! function of the state, so identical states produce identical bytes.
//!
//! ## Store layout
//!
//! [`StoreCheckpoint`] keeps a checkpoint in a [`dox_store`] segment
//! store as one small **header** row (the snapshot minus its detected
//! log, plus `detected_len` and the caller's fingerprint and ingest
//! count) and one **detected row** per committed dox, keyed by its
//! big-endian log index. The log only ever grows, so each checkpoint
//! appends the rows committed since the previous one and rewrites the
//! header: O(new doxes + header) bytes per checkpoint, and the only dead
//! bytes the store accumulates are superseded headers.

use crate::dedup::DedupSnapshot;
use crate::output::{DetectedDox, PipelineCounters};
use crate::{EngineError, Session};
use dox_store::{Store, StoreError, Table};
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Format version stamped into every checkpoint; bumped on any encoding
/// change so a stale checkpoint is rejected instead of misread.
pub const CHECKPOINT_VERSION: u32 = 3;

/// The complete quiescent state of a [`Session`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SessionCheckpoint {
    /// Encoding version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Dedup partition count the state was split for. A checkpoint can
    /// be resumed under any worker count but **only** the same partition
    /// count — dedup state is partitioned by `signature % shards`.
    pub shards: usize,
    /// The next chunk sequence number the session will stamp (and the
    /// commit reorder cursor — equal at quiescence).
    pub next_chunk_seq: u64,
    /// The next dox sequence number a commit pass will stamp.
    pub dox_seq: u64,
    /// Funnel counters of the document-level half: documents per period
    /// and source, classified doxes.
    pub doc_counters: PipelineCounters,
    /// Documents lost to poisoned stage workers so far.
    pub stage_gap_docs: u64,
    /// Funnel counters of the dedup-level half: duplicates per period
    /// and kind.
    pub dedup_counters: PipelineCounters,
    /// Every detected dox committed so far, stream order.
    pub detected: Vec<DetectedDox>,
    /// One snapshot per dedup partition, partition order.
    pub dedups: Vec<DedupSnapshot>,
}

// Hand-written for the version gate: a checkpoint in another encoding
// version is rejected, never misread.
impl Deserialize for SessionCheckpoint {
    fn from_value(value: &Value) -> Option<Self> {
        fn field<T: Deserialize>(value: &Value, key: &str) -> Option<T> {
            T::from_value(value.get(key)?)
        }
        let checkpoint = SessionCheckpoint {
            version: field(value, "version")?,
            shards: field(value, "shards")?,
            next_chunk_seq: field(value, "next_chunk_seq")?,
            dox_seq: field(value, "dox_seq")?,
            doc_counters: field(value, "doc_counters")?,
            stage_gap_docs: field(value, "stage_gap_docs")?,
            dedup_counters: field(value, "dedup_counters")?,
            detected: field(value, "detected")?,
            dedups: field(value, "dedups")?,
        };
        (checkpoint.version == CHECKPOINT_VERSION).then_some(checkpoint)
    }
}

/// Key of the header row inside the checkpoint table.
const HEADER_KEY: &str = "checkpoint";

/// Why a [`StoreCheckpoint`] could not be staged or loaded.
#[derive(Debug)]
pub enum StoreCheckpointError {
    /// The session failed to quiesce.
    Engine(EngineError),
    /// The store failed to read or stage a row.
    Store(StoreError),
    /// JSON encoding failed.
    Encode(serde_json::Error),
    /// The header row is unreadable or written in another checkpoint
    /// version.
    Header {
        /// What failed validation.
        detail: String,
    },
    /// The number of detected rows disagrees with the header's
    /// `detected_len` (a missing or an extra row).
    RowCount {
        /// Rows the header promises.
        expected: u64,
        /// Rows found.
        found: u64,
    },
    /// The detected rows are not keyed `0, 1, 2, …`.
    KeyGap {
        /// The key the next row should carry.
        expected: u64,
        /// The key it carries.
        found: u64,
    },
    /// A detected row does not decode to a [`DetectedDox`].
    Row {
        /// Log index of the row.
        index: u64,
    },
}

impl std::fmt::Display for StoreCheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Engine(e) => write!(f, "checkpoint quiesce: {e}"),
            Self::Store(e) => write!(f, "checkpoint store: {e}"),
            Self::Encode(e) => write!(f, "checkpoint encode: {e}"),
            Self::Header { detail } => write!(f, "checkpoint header: {detail}"),
            Self::RowCount { expected, found } => write!(
                f,
                "checkpoint header promises {expected} detected rows, store holds {found}"
            ),
            Self::KeyGap { expected, found } => {
                write!(f, "detected row key {found} where {expected} was expected")
            }
            Self::Row { index } => write!(f, "detected row {index} does not decode"),
        }
    }
}

impl std::error::Error for StoreCheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Engine(e) => Some(e),
            Self::Store(e) => Some(e),
            Self::Encode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for StoreCheckpointError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

/// A session checkpoint stamped with its owner's identity: what
/// [`StoreCheckpoint::load`] returns.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StampedCheckpoint {
    /// Fingerprint of the configuration the state belongs to; a resume
    /// under another configuration must refuse it.
    pub fingerprint: u64,
    /// Documents ingested into the session so far.
    pub docs_ingested: u64,
    /// The session state, detected log included, ready for
    /// [`SessionBuilder::resume_from`](crate::SessionBuilder::resume_from).
    pub session: SessionCheckpoint,
}

/// What one [`StoreCheckpoint::stage`] call put into the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Staged {
    /// Detected rows appended.
    pub rows: u64,
    /// Encoded bytes of those rows.
    pub row_bytes: u64,
    /// Encoded bytes of the header row.
    pub header_bytes: u64,
}

/// The header row: a [`StampedCheckpoint`] whose session has an empty
/// detected log, plus the log's length.
#[derive(Serialize, Deserialize)]
struct Header {
    fingerprint: u64,
    docs_ingested: u64,
    detected_len: u64,
    session: SessionCheckpoint,
}

/// Session checkpoints in a segment store, in the layout described in
/// the [module docs](self): a header row in table `name` and append-once
/// detected rows in table `name.detected`.
///
/// [`stage`](StoreCheckpoint::stage) only buffers puts; the caller's
/// [`Store::checkpoint`] commits rows, header and any dedup spill
/// together, so a crash leaves either the previous checkpoint or the new
/// one, never a mix.
#[derive(Debug)]
pub struct StoreCheckpoint {
    header: Table<String, String>,
    rows: Table<u64, Vec<u8>>,
    /// Detected rows already staged (or loaded) — the log prefix the
    /// store holds.
    persisted: u64,
}

impl StoreCheckpoint {
    /// The checkpoint kept under table `name` in `store`.
    pub fn new(store: Arc<Store>, name: &str) -> Self {
        Self {
            header: Table::new(Arc::clone(&store), name),
            rows: Table::new(store, &format!("{name}.detected")),
            persisted: 0,
        }
    }

    /// The store the checkpoint lives in.
    pub fn store(&self) -> &Arc<Store> {
        self.header.store()
    }

    /// Quiesce `session` and stage its checkpoint: the detected rows
    /// committed since the last `stage` (or [`load`](Self::load)),
    /// serialized straight from the session's log, and a fresh header
    /// carrying `fingerprint` and `docs_ingested`.
    ///
    /// # Errors
    /// Quiesce and store failures, or [`StoreCheckpointError::RowCount`]
    /// when the session's log is shorter than what was already staged
    /// (it belongs to another run).
    pub fn stage(
        &mut self,
        session: &mut Session,
        fingerprint: u64,
        docs_ingested: u64,
    ) -> Result<Staged, StoreCheckpointError> {
        let persisted = self.persisted;
        let rows = &self.rows;
        let (checkpoint, detected_len, row_bytes) = session
            .with_quiescent(|checkpoint, detected| -> Result<_, StoreCheckpointError> {
                let fresh = usize::try_from(persisted)
                    .ok()
                    .and_then(|from| detected.get(from..))
                    .ok_or(StoreCheckpointError::RowCount {
                        expected: persisted,
                        found: detected.len() as u64,
                    })?;
                let mut row_bytes = 0u64;
                for (index, dox) in (persisted..).zip(fresh) {
                    let json = serde_json::to_string(dox).map_err(StoreCheckpointError::Encode)?;
                    row_bytes += json.len() as u64;
                    rows.put(&index, &json.into_bytes())?;
                }
                Ok((checkpoint, detected.len() as u64, row_bytes))
            })
            .map_err(StoreCheckpointError::Engine)??;
        let header = serde_json::to_string(&Header {
            fingerprint,
            docs_ingested,
            detected_len,
            session: checkpoint,
        })
        .map_err(StoreCheckpointError::Encode)?;
        self.header.put(&HEADER_KEY.to_string(), &header)?;
        self.persisted = detected_len;
        Ok(Staged {
            rows: detected_len - persisted,
            row_bytes,
            header_bytes: header.len() as u64,
        })
    }

    /// Read the committed checkpoint back, detected log included;
    /// `Ok(None)` when the store holds no header. Later
    /// [`stage`](Self::stage) calls append after the loaded log.
    ///
    /// # Errors
    /// A typed [`StoreCheckpointError`] — never a panic, never a partial
    /// checkpoint — when the header is unreadable or carries another
    /// [`CHECKPOINT_VERSION`], or the detected rows disagree with its
    /// `detected_len`.
    pub fn load(&mut self) -> Result<Option<StampedCheckpoint>, StoreCheckpointError> {
        let Some(text) = self.header.get(&HEADER_KEY.to_string())? else {
            return Ok(None);
        };
        let header_err = |detail: String| StoreCheckpointError::Header { detail };
        let value: Value =
            serde_json::from_str(&text).map_err(|e| header_err(format!("not JSON: {e}")))?;
        let Some(version) = value
            .get("session")
            .and_then(|session| session.get("version"))
            .and_then(Value::as_u64)
        else {
            return Err(header_err(
                "no checkpoint version: a checkpoint from an older build".into(),
            ));
        };
        if version != u64::from(CHECKPOINT_VERSION) {
            return Err(header_err(format!(
                "checkpoint version {version}, expected {CHECKPOINT_VERSION}"
            )));
        }
        let Some(Header {
            fingerprint,
            docs_ingested,
            detected_len,
            mut session,
        }) = Header::from_value(&value)
        else {
            return Err(header_err("fields do not decode".into()));
        };
        if !session.detected.is_empty() {
            return Err(header_err("session state inlines a detected log".into()));
        }

        let rows = self.rows.scan()?;
        if rows.len() as u64 != detected_len {
            return Err(StoreCheckpointError::RowCount {
                expected: detected_len,
                found: rows.len() as u64,
            });
        }
        session.detected.reserve_exact(rows.len());
        for (expected, (key, bytes)) in (0u64..).zip(rows) {
            if key != expected {
                return Err(StoreCheckpointError::KeyGap {
                    expected,
                    found: key,
                });
            }
            let dox = std::str::from_utf8(&bytes)
                .ok()
                .and_then(|text| serde_json::from_str(text).ok())
                .ok_or(StoreCheckpointError::Row { index: expected })?;
            session.detected.push(dox);
        }
        self.persisted = detected_len;
        Ok(Some(StampedCheckpoint {
            fingerprint,
            docs_ingested,
            session,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dedup::Deduplicator;
    use dox_extract::record::extract;
    use dox_osn::clock::SimTime;
    use dox_synth::corpus::Source;

    fn sample() -> SessionCheckpoint {
        let mut dedup = Deduplicator::new();
        let body = "Name: A Person\nfb: a.person9";
        dedup.check(3, body, &extract(body));
        let doc_counters = PipelineCounters {
            total: 5,
            per_period: [3, 2],
            per_source: [("pastebin.com".to_string(), 5)].into_iter().collect(),
            classified_dox: 1,
            ..PipelineCounters::default()
        };
        SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            shards: 2,
            next_chunk_seq: 4,
            dox_seq: 1,
            doc_counters,
            stage_gap_docs: 0,
            dedup_counters: PipelineCounters::default(),
            detected: vec![DetectedDox {
                doc_id: 3,
                source: Source::Pastebin,
                period: 1,
                posted_at: SimTime(10),
                observed_at: SimTime(15),
                text: body.to_string(),
                extracted: extract(body),
                duplicate: None,
                truth: None,
            }],
            dedups: vec![dedup.snapshot(), Deduplicator::new().snapshot()],
        }
    }

    /// Detected doxes built from a generated corpus: true doxes carry
    /// their truth, pastes stand in for false positives (truth `None`),
    /// and true doxes at every third log index are marked duplicates,
    /// alternating the two kinds.
    fn corpus_detected() -> Vec<DetectedDox> {
        use crate::dedup::DuplicateKind;
        use dox_geo::alloc::{AllocConfig, Allocation};
        use dox_geo::model::{World, WorldConfig};
        use dox_synth::config::SynthConfig;
        use dox_synth::corpus::CorpusGenerator;
        use std::ops::ControlFlow;

        let world = World::generate(
            &WorldConfig {
                countries: 2,
                states_per_country: 3,
                cities_per_state: 4,
            },
            5,
        );
        let alloc = Allocation::generate(&world, &AllocConfig::default(), 5);
        let mut generator = CorpusGenerator::new(&world, &alloc, SynthConfig::test_scale());
        let kinds = [DuplicateKind::ExactBody, DuplicateKind::AccountSet];
        let (mut doxes, mut pastes) = (Vec::new(), 0);
        let _ = generator.generate_period(2, &mut |doc| {
            let truth = doc.truth.as_dox().cloned().map(Box::new);
            if truth.is_none() && pastes == 4 {
                return ControlFlow::Continue(());
            }
            pastes += usize::from(truth.is_none());
            let n = doxes.len();
            let duplicate = (truth.is_some() && n % 3 == 0).then(|| (kinds[n % 6 / 3], n as u64));
            doxes.push(DetectedDox {
                doc_id: doc.id,
                source: doc.source,
                period: 2,
                posted_at: doc.posted_at,
                observed_at: doc.posted_at,
                extracted: extract(&doc.body),
                text: doc.body,
                duplicate,
                truth,
            });
            if doxes.len() < 24 {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        });
        doxes
    }

    #[test]
    fn checkpoints_round_trip_byte_identically() {
        let detected = corpus_detected();
        assert!(detected.iter().any(|d| d.truth.is_none()));
        assert!(detected
            .iter()
            .any(|d| d.truth.is_some() && d.duplicate.is_none()));
        assert!(detected
            .iter()
            .any(|d| d.truth.is_some() && d.duplicate.is_some()));
        let generated = SessionCheckpoint {
            detected,
            ..sample()
        };
        for original in [sample(), generated] {
            let json = serde_json::to_string(&original).expect("serializes");
            let parsed: SessionCheckpoint = serde_json::from_str(&json).expect("parses");
            assert_eq!(parsed, original);
            let rewritten = serde_json::to_string(&parsed).expect("serializes again");
            assert_eq!(rewritten, json, "round trip is byte-stable");
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut stale = sample();
        stale.version = CHECKPOINT_VERSION + 1;
        let json = serde_json::to_string(&stale).expect("serializes");
        assert!(
            serde_json::from_str::<SessionCheckpoint>(&json).is_err(),
            "future version must not parse"
        );
    }

    /// Store-layout tests: a keyword-detector session over a scratch
    /// store, and the hostile rows [`StoreCheckpoint::load`] must refuse.
    mod store_layout {
        use super::*;
        use crate::{DoxDetector, Engine, EngineConfig};
        use dox_obs::Registry;
        use dox_sites::collect::CollectedDoc;
        use dox_synth::corpus::SynthDoc;
        use dox_synth::truth::{GroundTruth, PasteKind};

        struct Keyword;

        impl DoxDetector for Keyword {
            fn is_dox(&self, text: &str) -> bool {
                text.contains("dox")
            }
        }

        fn doc(id: u64) -> CollectedDoc {
            let body = match id % 3 {
                0 => format!("dox of victim{} fb: victim{}", id % 7, id % 7),
                1 => format!("dox drop fb: victim{} tw: alt{id}", id % 5),
                _ => format!("innocuous paste number {id}"),
            };
            CollectedDoc {
                doc: SynthDoc {
                    id,
                    source: Source::Pastebin,
                    posted_at: SimTime(id),
                    body,
                    deleted_after: None,
                    truth: GroundTruth::Paste {
                        kind: PasteKind::Code,
                    },
                },
                collected_at: SimTime(id + 5),
            }
        }

        fn scratch(tag: &str) -> std::path::PathBuf {
            let dir = std::env::temp_dir()
                .join(format!("dox_store_checkpoint_{}_{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        }

        fn session(registry: &Registry) -> Session {
            Engine::from_config(EngineConfig {
                workers: 2,
                shards: 3,
                chunk: 8,
                ..EngineConfig::default()
            })
            .expect("valid config")
            .session_builder()
            .detector(Arc::new(Keyword))
            .registry(registry)
            .start()
            .expect("detector set")
        }

        /// Ingest docs `0..60` with a committed checkpoint after 30 and
        /// 60, returning the store checkpoint and what
        /// [`Session::checkpoint`] says at the end.
        fn staged(dir: &std::path::Path) -> (StoreCheckpoint, SessionCheckpoint) {
            let registry = Registry::new();
            let store = Arc::new(Store::open(dir, &registry).expect("open"));
            let mut ck = StoreCheckpoint::new(Arc::clone(&store), "t");
            let mut session = session(&registry);
            for id in 0..60 {
                session.ingest(1, doc(id)).expect("valid");
                if id % 30 == 29 {
                    ck.stage(&mut session, 7, id + 1).expect("stages");
                    store.checkpoint().expect("commits");
                }
            }
            let expected = session.checkpoint().expect("quiesces");
            (ck, expected)
        }

        #[test]
        fn rows_are_appended_once_and_load_rebuilds_the_checkpoint() {
            let dir = scratch("roundtrip");
            let registry = Registry::new();
            let store = Arc::new(Store::open(&dir, &registry).expect("open"));
            let mut ck = StoreCheckpoint::new(Arc::clone(&store), "t");
            let mut session = session(&registry);
            let (mut total_rows, mut header_bytes) = (0, 0);
            for id in 0..60 {
                session.ingest(1, doc(id)).expect("valid");
                if id % 20 == 19 {
                    let staged = ck.stage(&mut session, 7, id + 1).expect("stages");
                    total_rows += staged.rows;
                    header_bytes += staged.header_bytes;
                    store.checkpoint().expect("commits");
                }
            }
            let expected = session.checkpoint().expect("quiesces");
            assert_eq!(total_rows, expected.detected.len() as u64, "each row once");
            let again = ck.stage(&mut session, 7, 60).expect("stages");
            assert_eq!(again.rows, 0, "nothing new, nothing appended");
            header_bytes += again.header_bytes;
            store.checkpoint().expect("commits");
            // Superseded headers are the only dead weight.
            let dead = registry.gauge("store.dead_bytes").get() as u64;
            assert!(dead > 0 && dead <= header_bytes, "{dead} vs {header_bytes}");
            drop((ck, store));

            let store = Arc::new(Store::open(&dir, &Registry::new()).expect("reopen"));
            let loaded = StoreCheckpoint::new(store, "t")
                .load()
                .expect("loads")
                .expect("has a header");
            assert_eq!(loaded.fingerprint, 7);
            assert_eq!(loaded.docs_ingested, 60);
            assert_eq!(loaded.session, expected);
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn an_empty_store_loads_nothing() {
            let dir = scratch("empty");
            let store = Arc::new(Store::open(&dir, &Registry::new()).expect("open"));
            assert!(StoreCheckpoint::new(store, "t")
                .load()
                .expect("no error")
                .is_none());
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn a_missing_row_is_a_typed_error() {
            let dir = scratch("missing");
            let (mut ck, expected) = staged(&dir);
            let last = expected.detected.len() as u64 - 1;
            assert!(ck.rows.delete(&last).expect("delete"));
            assert!(matches!(
                ck.load(),
                Err(StoreCheckpointError::RowCount { expected: e, found: f })
                    if e == last + 1 && f == last
            ));
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn an_extra_row_past_detected_len_is_a_typed_error() {
            let dir = scratch("extra");
            let (mut ck, expected) = staged(&dir);
            let len = expected.detected.len() as u64;
            ck.rows.put(&len, &b"{}".to_vec()).expect("put");
            assert!(matches!(
                ck.load(),
                Err(StoreCheckpointError::RowCount { expected: e, found: f })
                    if e == len && f == len + 1
            ));
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn a_key_gap_is_a_typed_error() {
            let dir = scratch("gap");
            let (mut ck, expected) = staged(&dir);
            let len = expected.detected.len() as u64;
            // Same row count, but row 2 moved past the end.
            let row = ck.rows.get(&2).expect("get").expect("row 2 exists");
            assert!(ck.rows.delete(&2).expect("delete"));
            ck.rows.put(&len, &row).expect("put");
            assert!(matches!(
                ck.load(),
                Err(StoreCheckpointError::KeyGap {
                    expected: 2,
                    found: 3
                })
            ));
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn an_undecodable_row_is_a_typed_error() {
            let dir = scratch("garbage");
            let (mut ck, _) = staged(&dir);
            ck.rows.put(&1, &b"{\"doc_id\": 1}".to_vec()).expect("put");
            assert!(matches!(
                ck.load(),
                Err(StoreCheckpointError::Row { index: 1 })
            ));
            ck.rows.put(&1, &vec![0xFF, 0xFE]).expect("put");
            assert!(matches!(
                ck.load(),
                Err(StoreCheckpointError::Row { index: 1 })
            ));
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn a_version_2_header_is_a_typed_error() {
            let dir = scratch("version2");
            let (mut ck, _) = staged(&dir);
            let header = ck
                .header
                .get(&HEADER_KEY.to_string())
                .expect("get")
                .expect("header");
            // Version 2 stamped a store `layout` beside the session
            // version, and every dedup partition carried the removed
            // near-duplicate pass's state and a `counts` tally.
            let v2 = format!("{{\"layout\":2,{}", &header[1..])
                .replace("\"version\":3", "\"version\":2")
                .replace(
                    "{\"bodies\":",
                    "{\"simhashes\":[],\"fuzzy_threshold\":null,\
                     \"counts\":{\"total\":0,\"exact\":0,\"account_set\":0,\"fuzzy\":0},\
                     \"bodies\":",
                );
            assert!(v2.contains("\"version\":2") && v2.contains("\"counts\""));
            ck.header.put(&HEADER_KEY.to_string(), &v2).expect("put");
            match ck.load() {
                Err(e @ StoreCheckpointError::Header { .. }) => assert!(
                    e.to_string().contains("checkpoint version 2, expected 3"),
                    "{e}"
                ),
                other => panic!("a version 2 header must be refused, got {other:?}"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn a_monolithic_header_is_a_typed_error() {
            let dir = scratch("monolithic");
            let (mut ck, expected) = staged(&dir);
            // The older layout: one row holding the whole stamped
            // checkpoint, detected log inlined.
            let old = serde_json::to_string(&StampedCheckpoint {
                fingerprint: 7,
                docs_ingested: 60,
                session: expected,
            })
            .expect("encodes");
            ck.header.put(&HEADER_KEY.to_string(), &old).expect("put");
            assert!(matches!(
                ck.load(),
                Err(StoreCheckpointError::Header { .. })
            ));
            ck.header
                .put(&HEADER_KEY.to_string(), &"not json".to_string())
                .expect("put");
            assert!(matches!(
                ck.load(),
                Err(StoreCheckpointError::Header { .. })
            ));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
