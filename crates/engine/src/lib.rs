//! `dox-engine` — the sharded streaming ingest engine.
//!
//! The batch pipeline in `dox-core` processes the collected corpus in
//! fill-then-drain batches: collect 8 k documents, block, fan the pure
//! stage out, reduce, repeat. This crate replaces that with a streaming
//! topology — a bounded work queue with real backpressure, a pool of
//! stage workers that, one commit pass at a time, reorder their output
//! by sequence number and de-duplicate inline over dedup state
//! partitioned by account-set signature — while keeping the output
//! **byte-identical** to a sequential pass for any `(workers, shards)`
//! configuration. Determinism is the contract:
//! an [`crate::output::PipelineOutput`] is a pure function of the
//! document stream, never of thread scheduling.
//!
//! # Example
//!
//! ```
//! use dox_engine::{DoxDetector, Engine, EngineConfig};
//! use std::sync::Arc;
//!
//! struct Keyword;
//! impl DoxDetector for Keyword {
//!     fn is_dox(&self, text: &str) -> bool { text.contains("dox") }
//! }
//!
//! let engine = Engine::from_config(EngineConfig {
//!     workers: 2,
//!     shards: 4,
//!     ..EngineConfig::default()
//! })?;
//! let registry = dox_obs::Registry::new();
//! let mut session = engine
//!     .session_builder()
//!     .detector(Arc::new(Keyword))
//!     .registry(&registry)
//!     .start()?;
//! // session.ingest(period, collected_doc)? for every document…
//! let output = session.finish()?;
//! assert_eq!(output.counters().total, 0);
//! # Ok::<(), dox_engine::EngineError>(())
//! ```
//!
//! The engine deliberately knows nothing about the trained classifier in
//! `dox-core`: it accepts anything implementing [`DoxDetector`], which is
//! what lets `dox-core` sit *above* this crate and re-export it.
//!
//! # Fault tolerance
//!
//! An engine whose [`EngineConfig::faults`] is set injects deterministic
//! stage faults from a [`dox_fault::FaultPlanConfig`] — slow and poisoned
//! chunks — and [`Session::checkpoint`] plus
//! [`SessionBuilder::resume_from`] make a killed run resumable with
//! byte-identical output. See the [`session`] and [`checkpoint`] module
//! docs.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checkpoint;
pub mod dedup;
pub mod output;
pub mod queue;
pub mod reorder;
pub mod session;
pub mod stage;

pub use checkpoint::{
    SessionCheckpoint, Staged, StampedCheckpoint, StoreCheckpoint, StoreCheckpointError,
    CHECKPOINT_VERSION,
};
pub use dedup::{DedupSnapshot, DedupSpill, DedupSpillConfig, Deduplicator, DuplicateKind};
pub use output::{DetectedDox, PipelineCounters, PipelineOutput, StagedDoc};
pub use session::Session;
pub use stage::{classify_and_extract, DoxDetector, StageLocal, StageMetrics};

use dox_fault::{FaultPlanConfig, RetryPolicy};
use dox_obs::{Registry, Tracer};
use serde::Serialize;
use std::sync::Arc;

/// The panic message recovered from a dead engine thread — the chained
/// [`source`](std::error::Error::source) behind
/// [`EngineError::StageFailed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePanic(pub String);

impl std::fmt::Display for StagePanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for StagePanic {}

/// Errors from building an engine or running a session.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// `workers` was zero — nothing would ever pop the work queue.
    ZeroWorkers,
    /// `shards` was zero — no dedup shard to route doxes to.
    ZeroShards,
    /// `queue_depth` was zero — the first push would deadlock.
    ZeroQueueDepth,
    /// `chunk` was zero — chunks could never fill and dispatch.
    ZeroChunk,
    /// `ingest` was handed a period outside the study's two collection
    /// periods.
    InvalidPeriod(u8),
    /// A stage worker died while the session was still feeding or
    /// waiting on it; [`Session::finish`] reports its panic.
    Disconnected,
    /// A named engine thread panicked; the recovered panic message is the
    /// chained [`source`](std::error::Error::source).
    StageFailed {
        /// Which pipeline stage died.
        stage: &'static str,
        /// The panic payload it died with.
        cause: StagePanic,
    },
    /// A checkpoint was resumed under a different dedup shard count than
    /// it was taken with — the shard-partitioned state would be routed
    /// wrongly.
    CheckpointShardMismatch {
        /// Shards the resuming engine is configured for.
        expected: usize,
        /// Shards the checkpoint was taken with.
        found: usize,
    },
    /// The pipeline failed to quiesce within the checkpoint deadline.
    CheckpointStalled,
    /// [`SessionBuilder::start`] was called without a detector — there is
    /// no default classifier, so the session could never label anything.
    MissingDetector,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ZeroWorkers => write!(f, "engine needs at least one stage worker"),
            EngineError::ZeroShards => write!(f, "engine needs at least one dedup shard"),
            EngineError::ZeroQueueDepth => write!(f, "engine queue depth must be at least 1"),
            EngineError::ZeroChunk => write!(f, "engine chunk size must be at least 1"),
            EngineError::InvalidPeriod(p) => {
                write!(f, "period {p} is not a collection period (expected 1 or 2)")
            }
            EngineError::Disconnected => write!(f, "engine stage disconnected mid-stream"),
            EngineError::StageFailed { stage, .. } => write!(f, "engine {stage} thread panicked"),
            EngineError::CheckpointShardMismatch { expected, found } => write!(
                f,
                "checkpoint was taken with {found} dedup shards but the engine has {expected}"
            ),
            EngineError::CheckpointStalled => {
                write!(f, "engine failed to quiesce within the checkpoint deadline")
            }
            EngineError::MissingDetector => {
                write!(f, "session builder needs a detector before start()")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::StageFailed { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

/// Deterministic fault injection for the engine's stage workers: the
/// schedule of slow/poisoned chunks and the retry budget the simulated
/// supervisor gets before declaring a chunk lost.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct EngineFaults {
    /// The seeded fault schedule (only its stage-domain knobs apply here).
    pub plan: FaultPlanConfig,
    /// Retry budget for poisoned chunks; a chunk whose poison count
    /// exceeds `policy.max_retries` becomes an explicit coverage gap.
    pub policy: RetryPolicy,
}

/// Tuning knobs for the ingest topology. None of them affect the result —
/// only throughput and memory. Build an engine from one with
/// [`Engine::from_config`].
///
/// The one exception to "never affects the result" is `faults`
/// (`EngineConfig::faults`): an exhausted poisoned chunk drops its
/// documents into the explicit [`PipelineOutput::stage_gap_docs`] count.
/// Recovered faults (slow chunks, sub-budget poison) still never change a
/// byte of output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Stage worker threads running the pure classify/extract stage.
    pub workers: usize,
    /// Dedup partitions, each an isolated [`Deduplicator`] owning the
    /// doxes whose signature routes to it. The commit pass runs them all
    /// inline; the count shapes checkpoints and spill tables, not
    /// threads.
    pub shards: usize,
    /// Bounded depth, in chunks, of the work queue — the backpressure
    /// window. At most `(queue_depth + workers + 1) × chunk` documents
    /// are in flight: queued, being staged by a worker, or being batched
    /// by the producer.
    pub queue_depth: usize,
    /// Documents per work chunk. Larger chunks amortize queue handoff
    /// and the commit lock; smaller ones shrink the in-flight window.
    pub chunk: usize,
    /// Deterministic stage-fault injection; `None` runs fault-free.
    pub faults: Option<EngineFaults>,
}

impl Default for EngineConfig {
    /// Workers default to the machine's available parallelism; topology
    /// never changes results, so the default favors throughput.
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            shards: 8,
            queue_depth: 8,
            chunk: 256,
            faults: None,
        }
    }
}

impl EngineConfig {
    fn validate(&self) -> Result<(), EngineError> {
        if self.workers == 0 {
            return Err(EngineError::ZeroWorkers);
        }
        if self.shards == 0 {
            return Err(EngineError::ZeroShards);
        }
        if self.queue_depth == 0 {
            return Err(EngineError::ZeroQueueDepth);
        }
        if self.chunk == 0 {
            return Err(EngineError::ZeroChunk);
        }
        Ok(())
    }
}

/// A validated ingest topology. Cheap to clone; spawns threads only when
/// a [`Session`] starts.
#[derive(Debug, Clone)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Validate `config` and produce the engine — the one way to build
    /// one.
    ///
    /// ```
    /// use dox_engine::{Engine, EngineConfig};
    ///
    /// let engine = Engine::from_config(EngineConfig {
    ///     workers: 4,
    ///     shards: 8,
    ///     queue_depth: 4,
    ///     ..EngineConfig::default()
    /// })
    /// .expect("non-zero topology");
    /// assert_eq!(engine.config().workers, 4);
    /// ```
    ///
    /// # Errors
    /// [`EngineError::ZeroWorkers`], [`EngineError::ZeroShards`],
    /// [`EngineError::ZeroQueueDepth`] or [`EngineError::ZeroChunk`] for
    /// a zero knob.
    pub fn from_config(config: EngineConfig) -> Result<Self, EngineError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The validated topology.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Start configuring a [`Session`] on this engine. The one way to
    /// start sessions: pick a detector (required), then optionally an
    /// isolated registry, a tracer, and a checkpoint to resume from.
    ///
    /// ```
    /// # use dox_engine::{DoxDetector, Engine, EngineConfig};
    /// # use std::sync::Arc;
    /// # struct Keyword;
    /// # impl DoxDetector for Keyword {
    /// #     fn is_dox(&self, text: &str) -> bool { text.contains("dox") }
    /// # }
    /// let engine = Engine::from_config(EngineConfig {
    ///     workers: 1,
    ///     ..EngineConfig::default()
    /// })?;
    /// let registry = dox_obs::Registry::new();
    /// let session = engine
    ///     .session_builder()
    ///     .detector(Arc::new(Keyword))
    ///     .registry(&registry)
    ///     .start()?;
    /// drop(session);
    /// # Ok::<(), dox_engine::EngineError>(())
    /// ```
    pub fn session_builder(&self) -> SessionBuilder<'_> {
        SessionBuilder {
            engine: self,
            detector: None,
            registry: None,
            tracer: None,
            resume_from: None,
            spill: None,
        }
    }
}

/// One-stop configuration for starting a [`Session`], obtained from
/// [`Engine::session_builder`] — the only way to start one:
///
/// * [`detector`](SessionBuilder::detector) — **required**; the trained
///   (or stub) classifier the stage workers call.
/// * [`registry`](SessionBuilder::registry) — optional; defaults to the
///   process-global metrics registry.
/// * [`tracer`](SessionBuilder::tracer) — optional; defaults to a
///   disabled tracer (no causal hops recorded).
/// * [`resume_from`](SessionBuilder::resume_from) — optional; restores a
///   [`SessionCheckpoint`] instead of starting empty.
/// * [`spill`](SessionBuilder::spill) — optional; backs the dedup shards
///   with a [`dox_store::Store`] so per-shard memory stays bounded and
///   resume is O(checkpoint).
///
/// Invalid combinations surface as typed [`EngineError`]s from
/// [`start`](SessionBuilder::start) rather than panics: a missing
/// detector is [`EngineError::MissingDetector`], a checkpoint taken under
/// a different shard count is
/// [`EngineError::CheckpointShardMismatch`].
#[must_use = "builders do nothing until start() is called"]
pub struct SessionBuilder<'e> {
    engine: &'e Engine,
    detector: Option<Arc<dyn DoxDetector>>,
    registry: Option<Registry>,
    tracer: Option<Tracer>,
    resume_from: Option<SessionCheckpoint>,
    spill: Option<DedupSpillConfig>,
}

impl std::fmt::Debug for SessionBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("engine", self.engine)
            .field("detector", &self.detector.is_some())
            .field("registry", &self.registry.is_some())
            .field("tracer", &self.tracer.is_some())
            .field("resume_from", &self.resume_from.is_some())
            .field("spill", &self.spill.is_some())
            .finish()
    }
}

impl SessionBuilder<'_> {
    /// Set the classifier the stage workers consult (required).
    pub fn detector(mut self, detector: Arc<dyn DoxDetector>) -> Self {
        self.detector = Some(detector);
        self
    }

    /// Report metrics into an explicit registry instead of the
    /// process-global one (tests and side-by-side runs want isolation).
    pub fn registry(mut self, registry: &Registry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// Record causal trace hops for sampled documents into the given
    /// [`Tracer`]. Tracing is pure observation: output stays
    /// byte-identical to an untraced session.
    pub fn tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = Some(tracer.clone());
        self
    }

    /// Restore the session from a checkpoint instead of starting empty.
    /// The checkpoint must have been taken under the same shard count;
    /// workers may differ freely.
    pub fn resume_from(mut self, checkpoint: SessionCheckpoint) -> Self {
        self.resume_from = Some(checkpoint);
        self
    }

    /// Back the dedup shards with a store: once a shard's in-memory maps
    /// grow past the configured cap they drain into per-shard store
    /// tables, and [`Session::checkpoint`] snapshots only the in-memory
    /// remainder. The caller owns the store's durability — call
    /// [`dox_store::Store::checkpoint`] whenever a session checkpoint is
    /// persisted so the store commit and the snapshot stay atomic.
    pub fn spill(mut self, spill: DedupSpillConfig) -> Self {
        self.spill = Some(spill);
        self
    }

    /// Validate the combination and spawn the session threads.
    ///
    /// # Errors
    /// * [`EngineError::MissingDetector`] when no detector was set.
    /// * [`EngineError::CheckpointShardMismatch`] when resuming a
    ///   checkpoint taken under a different dedup shard count.
    pub fn start(self) -> Result<Session, EngineError> {
        let detector = self.detector.ok_or(EngineError::MissingDetector)?;
        if let Some(checkpoint) = &self.resume_from {
            if checkpoint.shards != self.engine.config.shards {
                return Err(EngineError::CheckpointShardMismatch {
                    expected: self.engine.config.shards,
                    found: checkpoint.shards,
                });
            }
        }
        let disabled;
        let tracer = match &self.tracer {
            Some(tracer) => tracer,
            None => {
                disabled = Tracer::disabled();
                &disabled
            }
        };
        let registry = match &self.registry {
            Some(registry) => registry,
            None => dox_obs::global(),
        };
        Ok(Session::spawn(
            &self.engine.config,
            detector,
            registry,
            tracer,
            self.resume_from,
            self.spill,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_config_rejects_zero_workers() {
        let config = EngineConfig {
            workers: 0,
            ..EngineConfig::default()
        };
        assert_eq!(
            Engine::from_config(config).unwrap_err(),
            EngineError::ZeroWorkers
        );
    }

    #[test]
    fn from_config_rejects_zero_queue_depth() {
        let config = EngineConfig {
            queue_depth: 0,
            ..EngineConfig::default()
        };
        assert_eq!(
            Engine::from_config(config).unwrap_err(),
            EngineError::ZeroQueueDepth
        );
    }

    #[test]
    fn from_config_rejects_zero_shards_and_chunk() {
        let config = EngineConfig {
            shards: 0,
            ..EngineConfig::default()
        };
        assert_eq!(
            Engine::from_config(config).unwrap_err(),
            EngineError::ZeroShards
        );
        let config = EngineConfig {
            chunk: 0,
            ..EngineConfig::default()
        };
        assert_eq!(
            Engine::from_config(config).unwrap_err(),
            EngineError::ZeroChunk
        );
    }

    #[test]
    fn defaults_are_usable() {
        let engine = Engine::from_config(EngineConfig::default()).expect("defaults valid");
        assert!(engine.config().workers >= 1);
        assert!(engine.config().queue_depth >= 1);
    }

    #[test]
    fn session_builder_requires_a_detector() {
        let engine = Engine::from_config(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        })
        .expect("valid");
        let err = engine
            .session_builder()
            .start()
            .err()
            .expect("missing detector must be rejected");
        assert_eq!(err, EngineError::MissingDetector);
        assert!(err.to_string().contains("detector"));
    }

    #[test]
    fn session_builder_rejects_shard_mismatched_resume() {
        struct Never;
        impl DoxDetector for Never {
            fn is_dox(&self, _text: &str) -> bool {
                false
            }
        }
        let engine = Engine::from_config(EngineConfig {
            workers: 1,
            shards: 8,
            ..EngineConfig::default()
        })
        .expect("valid");
        let registry = Registry::new();
        let mut session = engine
            .session_builder()
            .detector(Arc::new(Never))
            .registry(&registry)
            .start()
            .expect("detector set");
        let checkpoint = session.checkpoint().expect("quiescent checkpoint");
        session.finish().expect("clean finish");

        let narrower = Engine::from_config(EngineConfig {
            workers: 1,
            shards: 4,
            ..EngineConfig::default()
        })
        .expect("valid");
        let err = narrower
            .session_builder()
            .detector(Arc::new(Never))
            .registry(&registry)
            .resume_from(checkpoint)
            .start()
            .err()
            .expect("shard mismatch must be rejected");
        assert_eq!(
            err,
            EngineError::CheckpointShardMismatch {
                expected: 4,
                found: 8
            }
        );
    }

    #[test]
    fn errors_render_useful_messages() {
        assert!(EngineError::InvalidPeriod(7).to_string().contains('7'));
        let failed = EngineError::StageFailed {
            stage: "router",
            cause: StagePanic("boom".into()),
        };
        assert!(failed.to_string().contains("router"));
        use std::error::Error;
        assert_eq!(
            failed.source().map(ToString::to_string),
            Some("boom".into())
        );
        assert!(EngineError::CheckpointShardMismatch {
            expected: 8,
            found: 4
        }
        .to_string()
        .contains('8'));
    }
}
