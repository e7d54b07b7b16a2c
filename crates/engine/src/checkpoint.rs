//! Session checkpoints: the serializable state of an ingest run at a
//! barrier.
//!
//! A checkpoint is taken only at a **barrier** — every chunk dispatched
//! before it committed, none after (see the
//! [`session`](crate::session) module docs). Later chunks may wait in
//! the reorder buffer, but they are not part of the checkpoint, so the
//! only sequencing state worth persisting is the pair of cursors
//! (`next_chunk_seq`, `dox_seq`); the heavy state is the dedup
//! partitions, the funnel counters and the detected log. Restoring a
//! checkpoint into a fresh session and replaying the remaining document
//! stream yields output byte-identical to the uninterrupted run — the
//! property the fault-matrix test enforces.
//!
//! The format is JSON written by the workspace's serde; field order and
//! the sorted [`DedupSnapshot`] entry lists make the encoding a pure
//! function of the state, so identical states produce identical bytes.
//!
//! ## Store layout
//!
//! [`StoreCheckpoint`] is the one format in which session state
//! persists: the study's under table `study`, each `dox-serve` tenant's
//! under `serve.tenant.<id>`. It keeps a checkpoint in a [`dox_store`]
//! segment store as one small **header** row (the snapshot minus its
//! detected log, plus `detected_len` and the caller's fingerprint and
//! ingest count) and one **detected row** per committed dox, keyed by
//! its big-endian log index. The log only ever grows, so each checkpoint
//! appends the rows committed since the previous one and rewrites the
//! header: O(new doxes + header) bytes per checkpoint, and the only dead
//! bytes the store accumulates are superseded headers.
//!
//! A checkpoint is either staged on the spot ([`StoreCheckpoint::stage`]:
//! wait for everything ingested so far, stage, let the caller commit) or
//! taken behind the producer ([`StoreCheckpoint::begin`] sets the
//! barrier and returns; [`StoreCheckpoint::complete`] stages it, commits
//! the store while later chunks are still held, and lifts the barrier).
//!
//! [`StoreCheckpoint::load`] is the one place that checks a checkpoint's
//! identity: its version against [`CHECKPOINT_VERSION`], before it
//! decodes any field, then its fingerprint against the caller's.

use crate::dedup::DedupSnapshot;
use crate::output::{DetectedDox, PipelineCounters};
use crate::{EngineError, Session};
use dox_store::{Store, StoreError, Table};
use serde::value::Value;
use serde::{Deserialize, JsonWriter, Serialize};
use std::sync::Arc;

/// Format version stamped into every checkpoint; bumped on any encoding
/// change so [`StoreCheckpoint::load`] refuses a stale checkpoint
/// instead of misreading it.
pub const CHECKPOINT_VERSION: u32 = 3;

/// The complete state of a [`Session`] at a checkpoint barrier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// Encoding version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Dedup partition count the state was split for. A checkpoint can
    /// be resumed under any worker count but **only** the same partition
    /// count — dedup state is partitioned by `signature % shards`.
    pub shards: usize,
    /// The checkpoint barrier: the first chunk sequence number the
    /// checkpoint does not cover, and the commit reorder cursor at the
    /// barrier.
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

/// Key of the header row inside the checkpoint table.
const HEADER_KEY: &str = "checkpoint";

/// Why a [`StoreCheckpoint`] could not be staged or loaded.
#[derive(Debug)]
pub enum StoreCheckpointError {
    /// The session failed to reach the barrier.
    Engine(EngineError),
    /// The store failed to read or stage a row.
    Store(StoreError),
    /// The store commit of a [`StoreCheckpoint::complete`] failed; the
    /// checkpoint was stamped with `docs_ingested`.
    Commit {
        /// Documents the checkpoint covers.
        docs_ingested: u64,
        /// Why the commit failed (a fault-drill kill is
        /// [`StoreError::Killed`]).
        source: StoreError,
    },
    /// JSON encoding failed.
    Encode(serde_json::Error),
    /// The header row is unreadable or written in another checkpoint
    /// version.
    Header {
        /// What failed validation.
        detail: String,
    },
    /// The checkpoint was written under another configuration: its
    /// fingerprint is not the one the caller expects.
    Fingerprint {
        /// The caller's fingerprint.
        expected: u64,
        /// The checkpoint's fingerprint.
        found: u64,
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
            Self::Engine(e) => write!(f, "checkpoint barrier: {e}"),
            Self::Store(e) => write!(f, "checkpoint store: {e}"),
            Self::Commit { source, .. } => write!(f, "checkpoint commit: {source}"),
            Self::Encode(e) => write!(f, "checkpoint encode: {e}"),
            Self::Header { detail } => write!(f, "checkpoint header: {detail}"),
            Self::Fingerprint { expected, found } => write!(
                f,
                "config fingerprint mismatch: the checkpoint was written under \
                 {found:#x}, this configuration is {expected:#x}"
            ),
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
            Self::Store(e) | Self::Commit { source: e, .. } => Some(e),
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

/// What [`StoreCheckpoint::load`] returns: a session checkpoint with
/// the ingest count it was stamped with (its fingerprint is the one the
/// caller passed).
#[derive(Debug, Clone, PartialEq)]
pub struct StampedCheckpoint {
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

/// The header row: the caller's fingerprint and ingest count, the
/// session state with an empty detected log, and the log's length.
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
/// one, never a mix. [`complete`](StoreCheckpoint::complete) runs that
/// commit itself, before it lifts the barrier.
#[derive(Debug)]
pub struct StoreCheckpoint {
    header: Table<String, String>,
    rows: Table<u64, Vec<u8>>,
    /// Detected rows already staged (or loaded) — the log prefix the
    /// store holds.
    persisted: u64,
    /// One detected row's JSON, reused from row to row.
    row: Vec<u8>,
    /// `(fingerprint, docs_ingested)` of the barrier
    /// [`begin`](Self::begin) set and no call has completed yet.
    pending: Option<(u64, u64)>,
}

impl StoreCheckpoint {
    /// The checkpoint kept under table `name` in `store`.
    pub fn new(store: Arc<Store>, name: &str) -> Self {
        Self {
            header: Table::new(Arc::clone(&store), name),
            rows: Table::new(store, &format!("{name}.detected")),
            persisted: 0,
            row: Vec::new(),
            pending: None,
        }
    }

    /// The store the checkpoint lives in.
    pub fn store(&self) -> &Arc<Store> {
        self.header.store()
    }

    /// Stage a checkpoint of everything ingested into `session` so far:
    /// set a barrier after it, wait for it, then stage the detected rows
    /// committed since the last checkpoint (or [`load`](Self::load)),
    /// serialized straight from the session's log, and a fresh header
    /// carrying `fingerprint` and `docs_ingested`. Nothing was
    /// dispatched past the barrier, so lifting it before the caller's
    /// [`Store::checkpoint`] lets no later write into the commit.
    ///
    /// # Errors
    /// Barrier and store failures, or [`StoreCheckpointError::RowCount`]
    /// when the session's log is shorter than what was already staged
    /// (it belongs to another run).
    pub fn stage(
        &mut self,
        session: &mut Session,
        fingerprint: u64,
        docs_ingested: u64,
    ) -> Result<Staged, StoreCheckpointError> {
        session
            .set_barrier()
            .map_err(StoreCheckpointError::Engine)?;
        let staged = self.stage_at_barrier(session, fingerprint, docs_ingested);
        session.release_barrier();
        staged
    }

    /// Set a checkpoint barrier after everything ingested into `session`
    /// so far, stamped with `fingerprint` and `docs_ingested`, and return
    /// at once: the producer keeps ingesting while the stage workers
    /// commit up to the barrier. Take the checkpoint with
    /// [`complete`](Self::complete) once [`is_due`](Self::is_due), and
    /// before the session's next barrier, flush or finish.
    ///
    /// # Errors
    /// [`EngineError::BarrierPending`] while a barrier is pending, or a
    /// dead stage worker.
    pub fn begin(
        &mut self,
        session: &mut Session,
        fingerprint: u64,
        docs_ingested: u64,
    ) -> Result<(), StoreCheckpointError> {
        session
            .set_barrier()
            .map_err(StoreCheckpointError::Engine)?;
        self.pending = Some((fingerprint, docs_ingested));
        Ok(())
    }

    /// Whether a barrier set by [`begin`](Self::begin) is pending.
    pub fn is_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Whether the pending barrier should be completed now: checked
    /// right after the producer dispatched a chunk, it is due once every
    /// chunk before it committed, or once the chunks it holds reached
    /// the session's bound.
    pub fn is_due(&self, session: &Session) -> bool {
        self.is_pending() && session.barrier_due()
    }

    /// Take the pending checkpoint, if any: wait for the barrier, stage
    /// the rows and header, run [`Store::checkpoint`] while the barrier
    /// still holds every later chunk (so no dedup spill from after the
    /// barrier enters the commit), then lift the barrier and commit the
    /// held chunks. Returns what was staged, or `None` when nothing was
    /// pending.
    ///
    /// # Errors
    /// Like [`stage`](Self::stage), plus [`StoreCheckpointError::Commit`]
    /// when the store commit fails.
    pub fn complete(
        &mut self,
        session: &mut Session,
    ) -> Result<Option<Staged>, StoreCheckpointError> {
        let Some((fingerprint, docs_ingested)) = self.pending.take() else {
            return Ok(None);
        };
        let committed = self
            .stage_at_barrier(session, fingerprint, docs_ingested)
            .and_then(|staged| {
                self.store()
                    .checkpoint()
                    .map(|()| staged)
                    .map_err(|source| StoreCheckpointError::Commit {
                        docs_ingested,
                        source,
                    })
            });
        session.release_barrier();
        committed.map(Some)
    }

    /// Wait for `session`'s barrier and stage its checkpoint: the new
    /// detected rows, each encoded into the one reused row buffer under
    /// the state lock, then the header.
    fn stage_at_barrier(
        &mut self,
        session: &Session,
        fingerprint: u64,
        docs_ingested: u64,
    ) -> Result<Staged, StoreCheckpointError> {
        let persisted = self.persisted;
        let (rows, row) = (&self.rows, &mut self.row);
        let (checkpoint, detected_len, row_bytes) = session
            .at_barrier(|checkpoint, detected| -> Result<_, StoreCheckpointError> {
                let fresh = usize::try_from(persisted)
                    .ok()
                    .and_then(|from| detected.get(from..))
                    .ok_or(StoreCheckpointError::RowCount {
                        expected: persisted,
                        found: detected.len() as u64,
                    })?;
                let mut row_bytes = 0u64;
                for (index, dox) in (persisted..).zip(fresh) {
                    row.clear();
                    dox.write_json(&mut JsonWriter::compact(row));
                    row_bytes += row.len() as u64;
                    rows.put(&index, row)?;
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

    /// Read the committed checkpoint back, detected log included, if it
    /// was staged under `fingerprint`; `Ok(None)` when the store holds no
    /// header. Later [`stage`](Self::stage) calls append after the
    /// loaded log.
    ///
    /// # Errors
    /// A typed [`StoreCheckpointError`] — never a panic, never a partial
    /// checkpoint — when the header is unreadable or carries another
    /// [`CHECKPOINT_VERSION`], when it carries another fingerprint
    /// ([`StoreCheckpointError::Fingerprint`]), or when the detected rows
    /// disagree with its `detected_len`.
    pub fn load(
        &mut self,
        fingerprint: u64,
    ) -> Result<Option<StampedCheckpoint>, StoreCheckpointError> {
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
            fingerprint: found,
            docs_ingested,
            detected_len,
            mut session,
        }) = Header::from_value(&value)
        else {
            return Err(header_err("fields do not decode".into()));
        };
        if found != fingerprint {
            return Err(StoreCheckpointError::Fingerprint {
                expected: fingerprint,
                found,
            });
        }
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
                .load(7)
                .expect("loads")
                .expect("has a header");
            assert_eq!(loaded.docs_ingested, 60);
            assert_eq!(loaded.session, expected);
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn an_empty_store_loads_nothing() {
            let dir = scratch("empty");
            let store = Arc::new(Store::open(&dir, &Registry::new()).expect("open"));
            assert!(StoreCheckpoint::new(store, "t")
                .load(7)
                .expect("no error")
                .is_none());
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn a_foreign_fingerprint_is_a_typed_error() {
            let dir = scratch("fingerprint");
            let (mut ck, _) = staged(&dir);
            let err = ck.load(8).expect_err("a foreign fingerprint is refused");
            assert!(
                matches!(
                    err,
                    StoreCheckpointError::Fingerprint {
                        expected: 8,
                        found: 7
                    }
                ),
                "{err:?}"
            );
            assert!(
                err.to_string().contains("config fingerprint mismatch"),
                "{err}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn a_missing_row_is_a_typed_error() {
            let dir = scratch("missing");
            let (mut ck, expected) = staged(&dir);
            let last = expected.detected.len() as u64 - 1;
            assert!(ck.rows.delete(&last).expect("delete"));
            assert!(matches!(
                ck.load(7),
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
                ck.load(7),
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
                ck.load(7),
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
                ck.load(7),
                Err(StoreCheckpointError::Row { index: 1 })
            ));
            ck.rows.put(&1, &vec![0xFF, 0xFE]).expect("put");
            assert!(matches!(
                ck.load(7),
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
            match ck.load(7) {
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
            let old = serde_json::to_string(&Value::Object(vec![
                ("fingerprint".to_string(), 7u64.to_value()),
                ("docs_ingested".to_string(), 60u64.to_value()),
                ("session".to_string(), expected.to_value()),
            ]))
            .expect("encodes");
            ck.header.put(&HEADER_KEY.to_string(), &old).expect("put");
            assert!(matches!(
                ck.load(7),
                Err(StoreCheckpointError::Header { .. })
            ));
            ck.header
                .put(&HEADER_KEY.to_string(), &"not json".to_string())
                .expect("put");
            assert!(matches!(
                ck.load(7),
                Err(StoreCheckpointError::Header { .. })
            ));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
