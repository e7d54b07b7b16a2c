//! The study driver: the whole reproduction as a pure function of
//! `(StudyConfig, seed)`.
//!
//! [`Study::run`] wires every subsystem together in the order the original
//! measurement ran:
//!
//! 1. build the synthetic world (geography, IP allocation, geo-IP DB);
//! 2. train and evaluate the classifier (Table 1) and the extractor
//!    (Table 2) on labeled data;
//! 3. collect and process both study periods through the pipeline
//!    (Figure 1 / Table 4), recording ground-truth dox events on the side;
//! 4. realize the OSN world — control population, victim accounts,
//!    dox reactions, baseline churn, comment streams;
//! 5. monitor every referenced account on the paper's schedule;
//! 6. run every analysis (Tables 3, 5–10, Figures 2–3, §4.1, §5.3.2, §6.3)
//!    into one [`ExperimentReport`].

use crate::analysis::comments::{analyze_comments, CommentAnalysis};
use crate::analysis::community::{community_breakdown, CommunityBreakdown};
use crate::analysis::content::{content_breakdown, ContentBreakdown};
use crate::analysis::demographics::{demographics, Demographics};
use crate::analysis::doxnet::{build_graph, summarize, DoxerNetworkSummary};
use crate::analysis::motivation::{motivation_breakdown, MotivationBreakdown};
use crate::analysis::osn_presence::{osn_presence, OsnPresence};
use crate::analysis::sources::{source_breakdown, SourceBreakdown};
use crate::analysis::status_change::{
    doxed_vs_control_ratios, status_change_table, StatusChangeRow, StatusChangeTable,
};
use crate::analysis::timeline::{reaction_timing, timeline_panel, ReactionTiming, TimelinePanel};
use crate::analysis::validation::{validate_by_ip, DeletionValidation, IpValidation};
use crate::error::{Error, Result};
use crate::labeling::label_sample;
use crate::monitor::{Monitor, Schedule};
use crate::pipeline::{Pipeline, PipelineCounters, PipelineOutput};
use crate::training::{ClassifierSummary, DoxClassifier};
use dox_engine::{
    DedupSpillConfig, DoxDetector, Engine, EngineConfig, Session, StoreCheckpoint,
    StoreCheckpointError,
};
use dox_extract::accuracy::{evaluate_extractor, ExtractorEvaluation};
use dox_fault::{CoverageGaps, FaultPlanConfig, FaultStats};
use dox_geo::alloc::{AllocConfig, Allocation};
use dox_geo::geoip::GeoIpDb;
use dox_geo::model::{World, WorldConfig};
use dox_obs::trace::fault_hop;
use dox_obs::{redact, Counter, Level, Registry, StageSpan, TraceConfig, Tracer};
use dox_osn::account::AccountId;
use dox_osn::clock::SimTime;
use dox_osn::filters::{FilterEra, FilterSchedule, StudyPeriods};
use dox_osn::network::Network;
use dox_osn::platform::SimOsnWorld;
use dox_sites::collect::{CollectedDoc, Collector};
use dox_store::{Store, StoreError};
use dox_synth::config::SynthConfig;
use dox_synth::corpus::CorpusGenerator;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::Arc;

/// Where and how often a study persists resumable checkpoints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Durability {
    /// Directory whose `store/` subdirectory holds the run's
    /// [`dox_store`] segment store; `None` disables checkpointing
    /// entirely. The store backs both the checkpoint and the dedup
    /// shards: dedup entries past the per-shard memory cap spill into
    /// it, and the checkpoint is a [`StoreCheckpoint`] — each detected
    /// dox is appended once as its own row and every checkpoint rewrites
    /// only a small header (counters, cursors, the in-memory dedup
    /// remainder). A checkpoint writes O(new doxes + header) bytes, not
    /// the whole log.
    pub checkpoint_dir: Option<PathBuf>,
    /// Write a checkpoint every this many ingested documents (0 is
    /// treated as the default below).
    pub checkpoint_every_docs: u64,
    /// Resume from the checkpoint in `checkpoint_dir` instead of starting
    /// fresh.
    pub resume: bool,
    /// Never read: every run with a `checkpoint_dir` is store-backed.
    /// Kept only so struct literals that still set it keep compiling;
    /// it will be removed once none do.
    pub store: bool,
    /// In-memory dedup entries per shard before spilling to the store
    /// (0 is treated as the default below; only used with a
    /// `checkpoint_dir`).
    pub spill_cap_entries: usize,
}

impl Durability {
    /// Default checkpoint cadence when `checkpoint_every_docs` is 0.
    pub const DEFAULT_EVERY_DOCS: u64 = 10_000;

    /// Default per-shard in-memory dedup cap when `spill_cap_entries`
    /// is 0.
    pub const DEFAULT_SPILL_CAP: usize = 65_536;

    fn every(&self) -> u64 {
        if self.checkpoint_every_docs == 0 {
            Self::DEFAULT_EVERY_DOCS
        } else {
            self.checkpoint_every_docs
        }
    }

    fn spill_cap(&self) -> usize {
        if self.spill_cap_entries == 0 {
            Self::DEFAULT_SPILL_CAP
        } else {
            self.spill_cap_entries
        }
    }
}

/// Everything a full study run needs.
///
/// The paper's fixed settings are not knobs: the study monitors on
/// [`Schedule::paper`], labels the paper's 270 + 194 share of detections
/// (§3.2), validates 50 doxes by IP (§4.1) and sizes the Instagram
/// control from the corpus scale (13,392 accounts at scale 1.0, §6.2).
///
/// `#[non_exhaustive]`: construct through [`StudyConfig::builder`] (or the
/// [`at_scale`](StudyConfig::at_scale) / [`test_scale`](StudyConfig::test_scale)
/// presets) so new knobs can be added without breaking downstream crates.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct StudyConfig {
    /// Master seed.
    pub seed: u64,
    /// Corpus generation configuration (volumes + rates).
    pub synth: SynthConfig,
    /// Synthetic-world dimensions. Eight cities per state calibrates the
    /// §4.1 exact-match probability to the paper's 4-in-32.
    pub world: WorldConfig,
    /// IP allocation settings.
    pub alloc: AllocConfig,
    /// Extractor-evaluation sample size (paper: 125).
    pub extractor_sample: usize,
    /// Ingest-engine topology ([`Study::run`]'s worker/shard/queue
    /// layout). Never affects the report — only throughput.
    pub engine: EngineConfig,
    /// Deterministic fault plan injected at the collection, probe,
    /// comment-fetch and engine-stage boundaries; `None` runs fault-free.
    /// A plan whose faults all recover produces a report byte-identical
    /// to the fault-free run.
    pub faults: Option<FaultPlanConfig>,
    /// Checkpoint/resume settings.
    pub durability: Durability,
    /// Causal-trace sampling rate, documents per million. 0 (the default)
    /// disables tracing entirely; [`dox_obs::SAMPLE_ALL`] traces every
    /// document. Tracing is pure observation — the report is byte-identical
    /// at any rate.
    pub trace_sample_ppm: u32,
    /// Bounded in-memory trace buffer capacity; the oldest trace (smallest
    /// document id) is evicted — and counted — when it fills.
    pub trace_capacity: usize,
}

/// §4.1 IP-validation sample size.
const IP_VALIDATION_SAMPLE: usize = 50;

impl StudyConfig {
    /// Start building a configuration; every knob defaults to the
    /// paper-scale value.
    pub fn builder() -> StudyConfigBuilder {
        StudyConfigBuilder {
            config: Self::at_scale(1.0),
        }
    }

    /// Scaled configuration: volumes shrink, rates stay. Scale 1.0 is the
    /// paper's 1.74 M documents — use `--release`.
    ///
    /// # Panics
    /// Panics unless `0 < scale <= 1`.
    pub fn at_scale(scale: f64) -> Self {
        let synth = SynthConfig::at_scale(scale);
        Self {
            seed: synth.seed,
            synth,
            world: WorldConfig {
                countries: 6,
                states_per_country: 8,
                cities_per_state: 8,
            },
            alloc: AllocConfig::default(),
            extractor_sample: 125,
            engine: EngineConfig::default(),
            faults: None,
            durability: Durability::default(),
            trace_sample_ppm: 0,
            trace_capacity: 4096,
        }
    }

    /// Fast configuration for tests (≈ 0.5 % scale — small enough for
    /// debug-mode CI, large enough that a few dozen accounts get
    /// monitored).
    pub fn test_scale() -> Self {
        Self::at_scale(0.005)
    }

    /// Instagram control-sample size: the paper's 13,392 at scale 1.0.
    fn control_sample(&self) -> usize {
        ((13_392.0 * self.synth.scale) as usize).max(300)
    }

    /// Background (non-victim) Instagram accounts to register.
    fn control_pool(&self) -> usize {
        (self.control_sample() * 3).max(2_000)
    }
}

/// Builder for [`StudyConfig`]. Defaults to the paper-scale run; each
/// setter overrides one knob.
///
/// ```
/// use dox_core::study::StudyConfig;
///
/// let config = StudyConfig::builder().seed(7).scale(0.01).build();
/// assert_eq!(config.seed, 7);
/// ```
#[derive(Debug, Clone)]
#[must_use = "builders do nothing until build() is called"]
pub struct StudyConfigBuilder {
    config: StudyConfig,
}

impl StudyConfigBuilder {
    /// Set the master seed (also re-seeds corpus generation).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self.config.synth.seed = seed;
        self
    }

    /// Shrink the whole study to `scale` of the paper's volumes
    /// (`0 < scale <= 1`), like [`StudyConfig::at_scale`].
    ///
    /// # Panics
    /// Panics unless `0 < scale <= 1`.
    pub fn scale(mut self, scale: f64) -> Self {
        self.config.synth = SynthConfig {
            seed: self.config.seed,
            ..SynthConfig::at_scale(scale)
        };
        self
    }

    /// Set the ingest-engine topology (workers, shards, queue depth).
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.config.engine = engine;
        self
    }

    /// Inject a deterministic fault plan at every I/O boundary.
    pub fn faults(mut self, plan: FaultPlanConfig) -> Self {
        self.config.faults = Some(plan);
        self
    }

    /// Persist resumable checkpoints, and spill dedup state, into a
    /// segment store under `dir` during ingest (see
    /// [`Durability::checkpoint_dir`]).
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.durability.checkpoint_dir = Some(dir.into());
        self
    }

    /// Checkpoint every `docs` ingested documents (0 restores the
    /// default cadence).
    pub fn checkpoint_every(mut self, docs: u64) -> Self {
        self.config.durability.checkpoint_every_docs = docs;
        self
    }

    /// In-memory dedup entries per shard before spilling to the store
    /// (needs a checkpoint dir).
    pub fn spill_cap(mut self, entries: usize) -> Self {
        self.config.durability.spill_cap_entries = entries;
        self
    }

    /// Resume from the checkpoint in the configured checkpoint dir.
    pub fn resume(mut self, resume: bool) -> Self {
        self.config.durability.resume = resume;
        self
    }

    /// Trace `ppm` documents per million through the whole pipeline
    /// (0 disables tracing, [`dox_obs::SAMPLE_ALL`] traces everything).
    pub fn trace_sample(mut self, ppm: u32) -> Self {
        self.config.trace_sample_ppm = ppm;
        self
    }

    /// Retain at most `capacity` traces in the bounded buffer.
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.config.trace_capacity = capacity;
        self
    }

    /// Finish building.
    pub fn build(self) -> StudyConfig {
        self.config
    }
}

/// One recorded ground-truth dox event (drives victim reactions).
struct DoxEvent {
    posted_at: SimTime,
    handles: Vec<(Network, String)>,
}

/// Phases 1–2 as every entry point replays them — the synthetic world,
/// the corpus generator after training, the Table 1 and Table 2
/// evaluations — plus the ground-truth dox events that
/// [`collect`](Replay::collect) records. `geoip` is the [`GeoIpDb`] on
/// the paths that analyze, `()` on those that only train or stream.
struct Replay<'w, G> {
    world: &'w World,
    geoip: G,
    gen: CorpusGenerator<'w>,
    classifier: ClassifierSummary,
    extractor: ExtractorEvaluation,
    events: Vec<DoxEvent>,
}

impl<G> Replay<'_, G> {
    /// Phase 3: collect both study periods through `collector` into
    /// `sink`, recording each document's ground-truth dox event first.
    /// [`ControlFlow::Break`] from `sink` stops the collection.
    ///
    /// The events are rebuilt on every pass over the corpus — resume and
    /// service-mode replay regenerate the same events, so the OSN world
    /// sees the same reactions either way.
    fn collect(
        &mut self,
        collector: &mut Collector,
        sink: &mut dyn FnMut(u8, CollectedDoc) -> ControlFlow<()>,
    ) {
        let events = &mut self.events;
        for period in [1u8, 2] {
            let flow = collector.collect_period(&mut self.gen, period, &mut |collected| {
                let doc = &collected.doc;
                if let Some(truth) = doc.truth.as_dox().filter(|t| t.duplicate_of.is_none()) {
                    events.push(DoxEvent {
                        posted_at: doc.posted_at,
                        handles: truth.osn_handles.clone(),
                    });
                }
                sink(period, collected)
            });
            if flow.is_break() {
                return;
            }
        }
    }
}

/// Where [`Study::run`] and [`Study::run_reference`] send the collected
/// documents: the streaming engine or the sequential reference pipeline.
trait Sink {
    /// Take one collected document; [`ControlFlow::Break`] stops the
    /// collection, and [`finish`](Sink::finish) then reports why.
    fn deliver(&mut self, period: u8, doc: CollectedDoc) -> ControlFlow<()>;

    /// The output of everything delivered, or the error that stopped it.
    fn finish(self) -> Result<PipelineOutput>;
}

impl Sink for Pipeline {
    fn deliver(&mut self, period: u8, doc: CollectedDoc) -> ControlFlow<()> {
        self.process(&doc, period);
        ControlFlow::Continue(())
    }

    fn finish(self) -> Result<PipelineOutput> {
        Ok(self.into_output())
    }
}

/// The engine session [`Study::run`] ingests into, with its durability:
/// resume skipping, the kill switch and periodic store checkpoints.
///
/// A periodic checkpoint is a barrier the producer does not wait on: it
/// sets it and keeps ingesting, and takes the checkpoint once the stage
/// workers have committed up to it (checked at each dispatch). The next
/// checkpoint, the kill switch and `finish` take a pending one first, so
/// every durable state is the one a checkpoint at exactly that document
/// count would leave.
struct EngineSink {
    session: Session,
    checkpoint: Option<StoreCheckpoint>,
    fingerprint: u64,
    every: u64,
    kill_after: Option<u64>,
    /// Deliveries a resumed checkpoint already covers.
    skip: u64,
    delivered: u64,
    resume_skipped: Counter,
    obs: Registry,
    /// Why ingest stopped early, if it did.
    stopped: Option<Error>,
}

impl EngineSink {
    /// Take the pending store checkpoint: when it is due, or, with
    /// `now`, whenever one is pending. Times the producer's part in
    /// `study.checkpoint.producer_ns`.
    ///
    /// A fault-drill kill armed on the store commit surfaces as
    /// [`Error::Halted`] at the checkpoint's document count, the same way
    /// the ingest kill switch does: the process is "dead" and must resume
    /// from the last durable commit.
    fn settle(&mut self, now: bool) -> Result<()> {
        let Some(ck) = &mut self.checkpoint else {
            return Ok(());
        };
        let ready = if now {
            ck.is_pending()
        } else {
            ck.is_due(&self.session)
        };
        if !ready {
            return Ok(());
        }
        let _span = StageSpan::enter(&self.obs, "study.checkpoint.producer_ns");
        let staged = ck.complete(&mut self.session).map_err(|e| match e {
            StoreCheckpointError::Engine(e) => Error::from(e),
            StoreCheckpointError::Commit {
                docs_ingested,
                source: StoreError::Killed { .. },
            } => Error::Halted { docs_ingested },
            StoreCheckpointError::Commit { source, .. } => {
                Error::Checkpoint(format!("commit store checkpoint: {source}"))
            }
            e => Error::Checkpoint(format!("stage store checkpoint: {e}")),
        })?;
        if let Some(staged) = staged {
            self.obs.counter("study.checkpoint.commits").inc();
            self.obs
                .counter("study.checkpoint.detected_rows")
                .add(staged.rows);
            self.obs
                .counter("study.checkpoint.row_bytes")
                .add(staged.row_bytes);
            self.obs
                .counter("study.checkpoint.header_bytes")
                .add(staged.header_bytes);
        }
        Ok(())
    }

    /// Ingest one document, then take a due checkpoint; at a checkpoint
    /// boundary, take the pending one and set the next barrier.
    fn ingest(&mut self, period: u8, doc: CollectedDoc) -> Result<()> {
        self.session.ingest(period, doc)?;
        let boundary = self.delivered.is_multiple_of(self.every);
        self.settle(boundary)?;
        match &mut self.checkpoint {
            Some(ck) if boundary => ck
                .begin(&mut self.session, self.fingerprint, self.delivered)
                .map_err(|e| match e {
                    StoreCheckpointError::Engine(e) => Error::from(e),
                    e => Error::Checkpoint(format!("set store checkpoint: {e}")),
                }),
            _ => Ok(()),
        }
    }
}

impl Sink for EngineSink {
    fn deliver(&mut self, period: u8, doc: CollectedDoc) -> ControlFlow<()> {
        self.delivered += 1;
        if self.delivered <= self.skip {
            // Replay accounting: the checkpoint already covers this doc,
            // so only generation replays, not ingest.
            self.resume_skipped.inc();
            return ControlFlow::Continue(());
        }
        let step = if self.kill_after.is_some_and(|k| self.delivered > k) {
            // Simulated SIGKILL: stop dead, take no new checkpoint —
            // resume must work from the last periodic one.
            self.settle(true).and(Err(Error::Halted {
                docs_ingested: self.delivered - 1,
            }))
        } else {
            self.ingest(period, doc)
        };
        match step {
            Ok(()) => ControlFlow::Continue(()),
            Err(e) => {
                self.stopped = Some(e);
                ControlFlow::Break(())
            }
        }
    }

    fn finish(mut self) -> Result<PipelineOutput> {
        if let Some(e) = self.stopped {
            return Err(e);
        }
        self.settle(true)?;
        Ok(self.session.finish()?)
    }
}

/// The complete result set — one field per paper table/figure.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentReport {
    /// Figure 1 / Table 4 funnel counters.
    pub pipeline: PipelineCounters,
    /// Table 1.
    pub classifier: ClassifierSummary,
    /// Table 2.
    pub extractor: ExtractorEvaluation,
    /// Table 3.
    pub deletion: DeletionValidation,
    /// Table 4's "manually labeled" row: per-period labeled counts.
    pub labeled_per_period: [usize; 2],
    /// Table 5.
    pub demographics: Demographics,
    /// Table 6.
    pub content: ContentBreakdown,
    /// Table 7.
    pub community: CommunityBreakdown,
    /// Table 8.
    pub motivation: MotivationBreakdown,
    /// Table 9.
    pub osn_presence: OsnPresence,
    /// Figure 1 depth: per-source dox density.
    pub sources: SourceBreakdown,
    /// Table 10's doxed rows.
    pub status_changes: StatusChangeTable,
    /// Table 10's Instagram Default (control) row.
    pub control_row: StatusChangeRow,
    /// The §6.2.1 future-work comparison: the control restricted to
    /// *active* accounts (≥ 1 post every two weeks). Active users churn
    /// their settings more, so this baseline is strictly hotter than the
    /// all-accounts row — quantifying how much the paper's random control
    /// understates the "typical active user" baseline.
    pub control_row_active: StatusChangeRow,
    /// §6.2.2 ratios: `(any-change, more-private)` doxed ÷ control.
    pub doxed_vs_control: (f64, f64),
    /// Figure 2 summary.
    pub doxer_network: DoxerNetworkSummary,
    /// Figure 3 panels: FB pre, FB post, IG pre, IG post.
    pub timelines: Vec<TimelinePanel>,
    /// §6.3 reaction timing.
    pub reaction_timing: ReactionTiming,
    /// §5.3.2 comment analysis.
    pub comments: CommentAnalysis,
    /// §4.1 IP validation.
    pub ip_validation: IpValidation,
    /// Monitored accounts per network (Figure 1's bottom row / Table 10 n).
    pub monitored_per_network: BTreeMap<Network, usize>,
    /// Ground truth: total dox postings generated (recall denominator).
    pub truth_total_doxes: u64,
    /// Detection quality: `(true positives, false positives)`.
    pub detection: (u64, u64),
    /// Operations lost to exhausted fault retries — explicit coverage
    /// gaps, never silent drops. All-zero for fault-free runs *and* for
    /// fault plans whose every fault recovered, which is what makes a
    /// recovered run byte-identical to the clean one.
    pub coverage: CoverageGaps,
}

/// What a resumed run must match: the corpus identity (seed + volume),
/// the dedup partitioning (shards) and the fault schedule. Worker count,
/// queue depth and chunk size may all change freely between the killed
/// run and the resume.
fn config_fingerprint(cfg: &StudyConfig) -> u64 {
    let plan = cfg.faults.as_ref().map_or(0, FaultPlanConfig::fingerprint);
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in [
        cfg.seed,
        cfg.synth.total_documents(),
        cfg.engine.shards as u64,
        plan,
    ] {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
        h ^= h >> 29;
    }
    h
}

/// The study runner.
pub struct Study {
    config: StudyConfig,
    registry: Registry,
    tracer: Tracer,
}

impl Study {
    /// Create a study instrumented against the process-global registry.
    pub fn new(config: StudyConfig) -> Self {
        Self::with_registry(config, dox_obs::global().clone())
    }

    /// Create a study recording its phase spans, pipeline funnel and
    /// events into `registry` instead of the process-global one.
    pub fn with_registry(config: StudyConfig, registry: Registry) -> Self {
        let tracer = if config.trace_sample_ppm == 0 {
            Tracer::disabled()
        } else {
            Tracer::new(TraceConfig {
                seed: config.seed,
                sample_ppm: config.trace_sample_ppm,
                capacity: config.trace_capacity,
            })
        };
        Self {
            config,
            registry,
            tracer,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// The metrics registry this study records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The causal tracer this study's documents flow through. Disabled —
    /// every call a no-op — unless `trace_sample_ppm > 0`; export its
    /// buffer with [`Tracer::export_jsonl`] after [`Study::run`].
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Execute the full reproduction through the streaming ingest engine
    /// (topology from [`StudyConfig::engine`]).
    ///
    /// The report is a pure function of `(config, seed)`: any worker or
    /// shard count produces byte-identical output (asserted by the
    /// engine determinism suite against [`Study::run_reference`]).
    pub fn run(&self) -> Result<ExperimentReport> {
        self.run_into(|classifier| self.engine_sink(classifier))
    }

    /// Execute the full reproduction through the sequential reference
    /// [`Pipeline`], one document at a time, instead of the engine. It
    /// writes no checkpoints. Kept as the executable specification the
    /// engine is compared against.
    pub fn run_reference(&self) -> Result<ExperimentReport> {
        self.run_into(|classifier| Ok(Pipeline::with_registry(classifier, &self.registry)))
    }

    /// Train the study's classifier and hand it back as an engine
    /// detector, leaving collection to the caller.
    ///
    /// This is the service-mode entry point: a resident daemon trains
    /// once per tenant, feeds the detector to an
    /// [`Engine::session_builder`](dox_engine::Engine::session_builder)
    /// session, and streams documents in as they arrive. The training
    /// replay is identical to what [`Study::run`] performs, so the
    /// detector classifies exactly as the batch run would.
    ///
    /// # Errors
    /// [`Error::Training`] if the generated proof-of-work corpus violates
    /// its labeling invariant.
    pub fn train_detector(&self) -> Result<Arc<dyn DoxDetector>> {
        self.replay(
            |_, _| (),
            |_, classifier| Ok(Arc::new(classifier) as Arc<dyn DoxDetector>),
        )
    }

    /// Build the full [`ExperimentReport`] from a
    /// [`PipelineOutput`] produced by an externally driven engine session
    /// (service mode), instead of collecting and ingesting here.
    ///
    /// The world, training and ground-truth replay are pure functions of
    /// `(config, seed)`, so when the session ingested exactly the
    /// documents the study's collector would have collected — in order —
    /// the report is byte-identical to [`Study::run`]. Mid-stream
    /// outputs are also accepted: detection and funnel numbers then
    /// reflect only what was ingested so far, while ground-truth
    /// denominators (e.g. `truth_total_doxes`) still describe the whole
    /// corpus.
    ///
    /// # Errors
    /// [`Error::ServiceMode`] when the config carries a fault plan —
    /// injected collection faults cannot be replayed here, so resident
    /// sessions must run fault-free.
    pub fn report_from_ingest(&self, output: &PipelineOutput) -> Result<ExperimentReport> {
        self.fault_free()?;
        self.replay(GeoIpDb::build, |mut replay, _| {
            // Replay collection without a pipeline behind it: the pass
            // still advances the generator RNG, persona store and site
            // hubs exactly as the batch run does — the deletion survey
            // and OSN world depend on it.
            let mut collector = Collector::new(self.config.seed);
            replay.collect(&mut collector, &mut |_, _| ControlFlow::Continue(()));
            self.analyze(replay, &collector, output)
        })
    }

    /// Replay the study's deterministic document stream — the exact
    /// `(period, document)` sequence [`Study::run`] would ingest — into
    /// `sink`, without running a pipeline.
    ///
    /// This is the client half of service mode: feed the yielded
    /// documents, in order, to a resident engine session (local or over
    /// `dox-serve`'s ingest API) and ask [`Study::report_from_ingest`]
    /// for the report; the result is byte-identical to [`Study::run`].
    /// Returning [`ControlFlow::Break`] from `sink` stops the replay
    /// early.
    ///
    /// # Errors
    /// [`Error::ServiceMode`] when the config carries a fault plan, and
    /// [`Error::Training`] if the proof-of-work replay fails its
    /// labeling invariant.
    pub fn synthetic_stream(
        &self,
        sink: &mut dyn FnMut(u8, CollectedDoc) -> ControlFlow<()>,
    ) -> Result<()> {
        self.fault_free()?;
        self.replay(
            |_, _| (),
            |mut replay, _| {
                replay.collect(&mut Collector::new(self.config.seed), sink);
                Ok(())
            },
        )
    }

    /// Refuse a fault plan on the service-mode paths.
    fn fault_free(&self) -> Result<()> {
        match self.config.faults {
            Some(_) => Err(Error::ServiceMode(
                "fault plans are not supported for resident sessions".into(),
            )),
            None => Ok(()),
        }
    }

    /// The one replay every entry point starts with: phase 1 builds the
    /// world, its IP allocation and what `extra` derives from them (the
    /// [`GeoIpDb`] on the paths that analyze, `()` elsewhere); phase 2
    /// trains the classifier and evaluates the extractor on the corpus
    /// generator's labeled sets. `then` receives the [`Replay`], ready to
    /// [`collect`](Replay::collect), and the trained classifier.
    ///
    /// Every entry point advancing the generator through the same calls
    /// is what keeps the corpus stream and every downstream table a pure
    /// function of `(config, seed)`.
    fn replay<G, T>(
        &self,
        extra: impl FnOnce(&World, &Allocation) -> G,
        then: impl FnOnce(Replay<'_, G>, DoxClassifier) -> Result<T>,
    ) -> Result<T> {
        let cfg = &self.config;
        let obs = &self.registry;
        let phase = StageSpan::enter(obs, "study.phase.world_gen");
        let world = World::generate(&cfg.world, cfg.seed);
        let alloc = Allocation::generate(&world, &cfg.alloc, cfg.seed);
        let geoip = extra(&world, &alloc);
        drop(phase);

        let mut gen = CorpusGenerator::new(&world, &alloc, cfg.synth.clone());
        // The training sets and the extractor sample are dropped before
        // collection starts; only the model and the two tables live on.
        let (classifier, summary, extractor) = {
            let phase = StageSpan::enter(obs, "study.phase.training");
            let (texts, labels) = gen.training_sets();
            let (classifier, summary) = DoxClassifier::train(&texts, &labels, cfg.seed);
            obs.events().emit(
                Level::Info,
                "study",
                "classifier trained",
                vec![
                    ("corpus".into(), texts.len().to_string()),
                    ("dox_f1".into(), format!("{:.3}", summary.report.dox.f1)),
                ],
            );
            let mut extractor_sample = Vec::with_capacity(cfg.extractor_sample);
            for (doc, persona) in gen.proof_of_work_sample(cfg.extractor_sample) {
                let truth = doc.truth.as_dox().cloned().ok_or_else(|| {
                    Error::Training(format!("proof-of-work doc {} is not labeled a dox", doc.id))
                })?;
                extractor_sample.push((doc.body, truth, persona));
            }
            let extractor = evaluate_extractor(&extractor_sample);
            drop(phase);
            (classifier, summary, extractor)
        };

        then(
            Replay {
                world: &world,
                geoip,
                gen,
                classifier: summary,
                extractor,
                events: Vec::new(),
            },
            classifier,
        )
    }

    /// The batch run: replay, then collect into the [`Sink`] that `open`
    /// builds from the trained classifier, then analyze its output.
    fn run_into<S: Sink>(
        &self,
        open: impl FnOnce(DoxClassifier) -> Result<S>,
    ) -> Result<ExperimentReport> {
        let cfg = &self.config;
        let obs = &self.registry;
        self.replay(GeoIpDb::build, |mut replay, classifier| {
            let phase = StageSpan::enter(obs, "study.phase.collection");
            let mut collector = match &cfg.faults {
                Some(plan) => Collector::with_faults(plan.clone()),
                None => Collector::new(cfg.seed),
            };
            // Sampled documents are admitted to the tracer here, at the
            // sequential collection boundary — the head of every causal
            // trace.
            collector.instrument(obs, &self.tracer);
            let mut sink = open(classifier)?;
            replay.collect(&mut collector, &mut |period, doc| sink.deliver(period, doc));
            let output = sink.finish()?;
            // The first unique dox doubles as a sanity probe in the event
            // log. Its body is PII-dense by construction, so only a
            // redacted length + fingerprint may leave the pipeline
            // (dox-lint pii-taint).
            let first_dox = output.unique_doxes().next();
            obs.events().emit(
                Level::Info,
                "study",
                "collection complete",
                vec![
                    ("documents".into(), output.counters().total.to_string()),
                    (
                        "classified_dox".into(),
                        output.counters().classified_dox.to_string(),
                    ),
                    (
                        "first_dox".into(),
                        first_dox.map_or_else(|| "[none]".into(), |d| redact(&d.text).to_string()),
                    ),
                ],
            );
            drop(phase);
            self.analyze(replay, &collector, &output)
        })
    }

    /// Start the engine session [`Study::run`] ingests into. The engine
    /// fans the pure classify/extract work over its worker pool; results
    /// are bit-identical to the sequential reference pipeline.
    ///
    /// Durability: `resume` replays the deterministic corpus and skips
    /// the deliveries the checkpointed engine has already absorbed;
    /// periodic checkpoints commit into the segment store under
    /// `checkpoint_dir`, so one manifest swap commits spilled dedup
    /// entries and the study checkpoint atomically.
    fn engine_sink(&self, classifier: DoxClassifier) -> Result<EngineSink> {
        let cfg = &self.config;
        let obs = &self.registry;
        let mut engine_cfg = cfg.engine.clone();
        if let Some(plan) = &cfg.faults {
            engine_cfg.faults = Some(plan.clone());
        }
        let engine = Engine::from_config(engine_cfg)?;
        let detector: Arc<dyn DoxDetector> = Arc::new(classifier);
        let fingerprint = config_fingerprint(cfg);
        let store = open_checkpoint_store(cfg, obs)?;
        let mut checkpoint = store
            .as_ref()
            .map(|s| StoreCheckpoint::new(Arc::clone(s), "study"));
        let resume_skipped = obs.counter("study.resume.skipped_docs");
        let mut builder = engine
            .session_builder()
            .detector(detector)
            .registry(obs)
            .tracer(&self.tracer);
        if let Some(store) = &store {
            builder = builder.spill(DedupSpillConfig {
                store: Arc::clone(store),
                cap_entries: cfg.durability.spill_cap(),
            });
        }
        let loaded = match &mut checkpoint {
            Some(ck) if cfg.durability.resume => {
                let loaded = ck
                    .load(fingerprint)
                    .map_err(|e| Error::Checkpoint(format!("read store checkpoint: {e}")))?;
                // Killed before its first commit, a run leaves an empty
                // store: resuming it starts from the top.
                if loaded.is_none() && !ck.store().is_empty() {
                    return Err(Error::Checkpoint(
                        "store holds no checkpoint to resume".into(),
                    ));
                }
                loaded
            }
            _ => None,
        };
        let mut skip = 0;
        let session = match loaded {
            Some(loaded) => {
                skip = loaded.docs_ingested;
                // Debug level: the resume notice must not perturb the
                // Info-level event stream, which stays byte-identical
                // between a clean run and a killed+resumed one.
                obs.events().emit(
                    Level::Debug,
                    "study",
                    "resuming from checkpoint",
                    vec![("docs_ingested".into(), skip.to_string())],
                );
                builder.resume_from(loaded.session).start()?
            }
            None => builder.start()?,
        };
        Ok(EngineSink {
            session,
            checkpoint,
            fingerprint,
            every: cfg.durability.every(),
            // The kill switches model an external SIGKILL; a resumed run
            // has already "survived" them, so they only arm on fresh runs.
            kill_after: cfg
                .faults
                .as_ref()
                .and_then(|p| p.kill_after_docs)
                .filter(|_| !cfg.durability.resume),
            skip,
            delivered: 0,
            resume_skipped,
            obs: obs.clone(),
            stopped: None,
        })
    }

    /// Phases 4–6: realize the OSN world from the recorded ground-truth
    /// events, monitor every referenced account, and run every analysis
    /// into the final report. Pure with respect to *how* the
    /// [`PipelineOutput`] was produced — batch ingest ([`Study::run`])
    /// and service-mode ingest ([`Study::report_from_ingest`]) of the
    /// same document stream yield byte-identical reports.
    fn analyze(
        &self,
        replay: Replay<'_, GeoIpDb>,
        collector: &Collector,
        output: &PipelineOutput,
    ) -> Result<ExperimentReport> {
        let Replay {
            world,
            geoip,
            gen,
            classifier,
            extractor,
            events,
        } = replay;
        let cfg = &self.config;
        let seed = cfg.seed;
        let obs = &self.registry;

        // 4. The OSN world.
        let phase = StageSpan::enter(obs, "study.phase.osn_world");
        let periods = StudyPeriods::paper();
        let filters = FilterSchedule::paper();
        let mut osn = SimOsnWorld::new(seed);
        let mix = osn.behavior().mix;
        let mut reg_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0C0A_7E57);

        for i in 0..cfg.control_pool() {
            osn.register_with_status_mix(
                Network::Instagram,
                &format!("bg_user_{i}"),
                SimTime::EPOCH,
                mix.private,
                mix.inactive,
            );
        }
        for persona in gen.personas() {
            for (network, handle) in &persona.accounts {
                let resolves = reg_rng.random_range(0.0..1.0) < cfg.synth.handle_resolution_rate;
                if resolves && osn.resolve(*network, handle).is_none() {
                    osn.register_with_status_mix(
                        *network,
                        handle,
                        SimTime::EPOCH,
                        mix.private,
                        mix.inactive,
                    );
                }
            }
        }
        // Victim reactions fire at ground-truth dox posting times.
        for event in &events {
            for (network, handle) in &event.handles {
                if let Some(id) = osn.resolve(*network, handle) {
                    osn.notify_doxed(id, event.posted_at);
                }
            }
        }
        // Baseline churn animates every registry over the study window.
        for network in Network::MONITORED {
            osn.run_baseline_churn(network, (periods.period1.0, periods.period2.1));
        }
        drop(phase);

        // 5. Monitoring: doxed accounts on the paper schedule. The fault
        // plan (when present) shadows the probe and comment-fetch
        // boundaries; the control monitor below stays fault-free — the
        // paper's control sample is a *measurement baseline*, and the
        // comparison wants its weather constant.
        let phase = StageSpan::enter(obs, "study.phase.monitoring");
        let mut monitor = match &cfg.faults {
            Some(plan) => Monitor::with_faults(Schedule::paper(), obs, plan.clone()),
            None => Monitor::with_registry(Schedule::paper(), obs),
        };
        let mut monitored_ids: Vec<AccountId> = Vec::new();
        let unique: Vec<&crate::pipeline::DetectedDox> = output.unique_doxes().collect();
        for d in &unique {
            for r in &d.extracted.osn {
                // Skype has no profile page to probe (§3.1.5 monitors the
                // six profile-bearing networks).
                if !Network::MONITORED.contains(&r.network) {
                    continue;
                }
                if let Some(id) = osn.resolve(r.network, &r.handle) {
                    let round = monitor.enroll_and_probe(&osn, id, d.observed_at);
                    // Extend the detecting document's causal trace into
                    // monitoring: the hop carries the round's probe count
                    // and aggregate fault weather. A zero-probe round is a
                    // re-enrollment no-op and adds no hop.
                    if round.probes > 0 && self.tracer.sampled(d.doc_id) {
                        self.tracer.hop(
                            d.doc_id,
                            fault_hop(
                                "monitor",
                                d.observed_at.0,
                                round.attempts,
                                round.delay,
                                round.breaker_trips,
                                format!(
                                    "network={} probes={} missed={}",
                                    r.network.name(),
                                    round.probes,
                                    round.missed_probes
                                ),
                            ),
                        );
                    }
                    monitored_ids.push(id);
                }
            }
        }
        monitored_ids.sort_unstable();
        monitored_ids.dedup();

        // Control monitoring: weekly probes across the whole study.
        let control_schedule = Schedule {
            early_days: vec![0],
            repeat_days: 7,
            horizon_days: periods.period2.1.since(periods.period1.0).days(),
            jitter_minutes: 0,
        };
        // The rows are sums, so each control history is tallied as soon
        // as it is probed and then dropped: the paper's 13,392-account
        // baseline costs two rows, not one history per account.
        let mut control_monitor = Monitor::with_registry(control_schedule, obs);
        let mut control_row = StatusChangeRow::default();
        let mut control_row_active = StatusChangeRow::default();
        for id in osn.sample_instagram_uids(cfg.control_sample()) {
            control_monitor.enroll_and_probe(&osn, id, periods.period1.0);
            let Some(h) = control_monitor.take_history(id) else {
                continue;
            };
            control_row.add(&h);
            if osn.account(id).is_some_and(|a| a.is_active()) {
                control_row_active.add(&h);
            }
        }

        // Comment streams for monitored accounts, then §5.3.2.
        osn.generate_baseline_comments(&monitored_ids, (periods.period1.0, periods.period2.1));
        let comments = analyze_comments(&osn, &mut monitor);
        obs.events().emit(
            Level::Info,
            "study",
            "monitoring complete",
            vec![
                ("accounts".into(), monitor.len().to_string()),
                ("probes".into(), monitor.requests_made().to_string()),
            ],
        );
        drop(phase);
        // Coverage gaps: everything the fault plan cost us, explicitly.
        let mut coverage = CoverageGaps::default();
        let mut fault_stats = FaultStats::default();
        for faults in collector.faults().into_iter().chain(monitor.faults()) {
            coverage.absorb(faults.gaps());
            fault_stats.absorb(&faults.stats());
        }
        coverage.stage_exhausted_docs += output.stage_gap_docs;
        let histories = monitor.into_histories();

        // 6. Analyses.
        let phase = StageSpan::enter(obs, "study.phase.analysis");
        let detected = output.detected();
        let labeled = label_sample(detected, seed);
        let labeled_per_period = [
            labeled.iter().filter(|l| l.period == 1).count(),
            labeled.iter().filter(|l| l.period == 2).count(),
        ];

        let doxers = gen.doxers();
        let alias_index: BTreeMap<String, u32> = doxers
            .doxers()
            .iter()
            .filter_map(|d| {
                d.twitter
                    .as_ref()
                    .map(|t| (t.trim_start_matches('@').to_lowercase(), d.id))
            })
            .collect();
        let follow_oracle = |a: &str, b: &str| -> bool {
            match (
                alias_index.get(&a.to_lowercase()),
                alias_index.get(&b.to_lowercase()),
            ) {
                (Some(&x), Some(&y)) => doxers.mutual_follow(x, y),
                _ => false,
            }
        };
        let doxer_network = summarize(&build_graph(detected, &follow_oracle));

        let status_changes = status_change_table(histories.iter(), &filters);
        let timelines = vec![
            timeline_panel(
                histories.iter(),
                Network::Facebook,
                FilterEra::PreFilter,
                &filters,
            ),
            timeline_panel(
                histories.iter(),
                Network::Facebook,
                FilterEra::PostFilter,
                &filters,
            ),
            timeline_panel(
                histories.iter(),
                Network::Instagram,
                FilterEra::PreFilter,
                &filters,
            ),
            timeline_panel(
                histories.iter(),
                Network::Instagram,
                FilterEra::PostFilter,
                &filters,
            ),
        ];
        let timing = reaction_timing(histories.iter());

        let mut monitored_per_network: BTreeMap<Network, usize> = BTreeMap::new();
        for h in &histories {
            *monitored_per_network.entry(h.account.network).or_insert(0) += 1;
        }

        // §6.2.2: Instagram doxed (both eras pooled) vs control.
        let mut ig_doxed = StatusChangeRow::default();
        for h in histories
            .iter()
            .filter(|h| h.account.network == Network::Instagram)
        {
            ig_doxed.add(h);
        }
        let doxed_vs_control = doxed_vs_control_ratios(&ig_doxed, &control_row);

        let deletion: DeletionValidation = collector
            .hub()
            .pastebin()
            .deletion_survey(detected.iter().map(|d| (d.source, d.doc_id, d.posted_at)))
            .into();

        let ip_validation = validate_by_ip(detected, world, &geoip, IP_VALIDATION_SAMPLE, seed);
        drop(phase);

        if cfg.faults.is_some() {
            obs.events().emit(
                Level::Info,
                "study",
                "fault summary",
                vec![
                    ("ops".into(), fault_stats.ops.to_string()),
                    ("faults".into(), fault_stats.faults_injected.to_string()),
                    ("retries".into(), fault_stats.retries.to_string()),
                    ("exhausted".into(), fault_stats.exhausted.to_string()),
                    (
                        "breaker_opens".into(),
                        fault_stats.breaker_opens.to_string(),
                    ),
                    ("coverage_gaps".into(), coverage.total().to_string()),
                ],
            );
            if let Some(faults) = collector.faults() {
                for (target, breaker) in faults.breakers().iter() {
                    obs.gauge(&format!("fault.breaker.{target}"))
                        .set(breaker.state().as_gauge());
                }
            }
        }

        Ok(ExperimentReport {
            pipeline: output.counters().clone(),
            classifier,
            extractor,
            deletion,
            labeled_per_period,
            demographics: demographics(&labeled),
            content: content_breakdown(&labeled),
            community: community_breakdown(&labeled),
            motivation: motivation_breakdown(&labeled),
            osn_presence: osn_presence(detected),
            sources: source_breakdown(output.counters(), detected),
            status_changes,
            control_row,
            control_row_active,
            doxed_vs_control,
            doxer_network,
            timelines,
            reaction_timing: timing,
            comments,
            ip_validation,
            monitored_per_network,
            truth_total_doxes: cfg.synth.total_doxes(),
            detection: output.detection_quality(),
            coverage,
        })
    }
}

/// Open the run's segment store at `checkpoint_dir/store`, or `None`
/// when the run does not checkpoint. Store kill drills arm only on
/// fresh runs, like the ingest kill switch.
///
/// # Errors
/// [`Error::Checkpoint`] when `resume` is set without a checkpoint dir,
/// or when the store cannot be opened.
fn open_checkpoint_store(cfg: &StudyConfig, obs: &Registry) -> Result<Option<Arc<Store>>> {
    let durability = &cfg.durability;
    let Some(dir) = &durability.checkpoint_dir else {
        if durability.resume {
            return Err(Error::Checkpoint(
                "resume requested without a checkpoint dir".into(),
            ));
        }
        return Ok(None);
    };
    let store_dir = dir.join("store");
    if !durability.resume {
        // A fresh run owns the store directory — stale segments from an
        // earlier experiment would resurrect dedup state into the new
        // corpus.
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    let store =
        Store::open(&store_dir, obs).map_err(|e| Error::Checkpoint(format!("open store: {e}")))?;
    if !durability.resume {
        if let Some((nth, point)) = cfg
            .faults
            .as_ref()
            .and_then(|p| p.kill_at_store_commit.map(|n| (n, p.kill_store_point)))
        {
            store.arm_kill(nth, point);
        }
    }
    Ok(Some(Arc::new(store)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shared test-scale run (the study is deterministic, so computing
    /// it once per test binary is sound).
    fn report() -> &'static ExperimentReport {
        use std::sync::OnceLock;
        static REPORT: OnceLock<ExperimentReport> = OnceLock::new();
        REPORT.get_or_init(|| {
            Study::new(StudyConfig::test_scale())
                .run()
                .expect("test-scale study runs")
        })
    }

    #[test]
    fn report_from_ingest_matches_batch_run() {
        // Drive the engine externally — the way dox-serve hosts a
        // resident session — and ask for the report afterwards. It must
        // match the batch run byte for byte.
        let registry = Registry::new();
        let study = Study::with_registry(StudyConfig::test_scale(), registry.clone());
        let detector = study.train_detector().expect("detector trains");
        let engine =
            Engine::from_config(study.config().engine.clone()).expect("valid engine config");
        let mut session = engine
            .session_builder()
            .detector(detector)
            .registry(&registry)
            .start()
            .expect("session starts");
        let mut ingest_err = None;
        study
            .synthetic_stream(&mut |period, doc| {
                if let Err(e) = session.ingest(period, doc) {
                    ingest_err = Some(e);
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            })
            .expect("stream replays");
        assert!(ingest_err.is_none(), "{ingest_err:?}");
        let output = session.finish().expect("engine drains");
        let service = study.report_from_ingest(&output).expect("service report");
        let batch = report();
        assert_eq!(
            serde_json::to_string(&service).expect("serializes"),
            serde_json::to_string(batch).expect("serializes"),
            "service-mode report must be byte-identical to the batch run"
        );
    }

    #[test]
    fn report_from_ingest_rejects_fault_plans() {
        let config = StudyConfig::builder()
            .scale(0.005)
            .faults(FaultPlanConfig::default())
            .build();
        let study = Study::with_registry(config, Registry::new());
        let err = study
            .report_from_ingest(&PipelineOutput::default())
            .expect_err("fault plans must be rejected");
        assert!(matches!(err, Error::ServiceMode(_)), "{err}");
    }

    #[test]
    fn resume_without_a_checkpoint_dir_is_a_checkpoint_error() {
        let config = StudyConfig::builder().scale(0.005).resume(true).build();
        let err = Study::with_registry(config, Registry::new())
            .run()
            .expect_err("resume needs a checkpoint dir");
        assert!(matches!(err, Error::Checkpoint(_)), "{err}");
    }

    #[test]
    fn funnel_counts_consistent() {
        let r = report();
        let cfg = StudyConfig::test_scale();
        assert_eq!(r.pipeline.total, cfg.synth.total_documents());
        assert!(r.pipeline.classified_dox > 0);
        assert!(r.pipeline.unique_doxes() <= r.pipeline.classified_dox);
        assert_eq!(r.truth_total_doxes, cfg.synth.total_doxes());
    }

    #[test]
    fn classifier_quality_reasonable() {
        let r = report();
        assert!(
            r.classifier.report.dox.f1 > 0.7,
            "{:?}",
            r.classifier.report
        );
        let (tp, fp) = r.detection;
        assert!(tp > 0);
        let precision = tp as f64 / (tp + fp).max(1) as f64;
        assert!(precision > 0.6, "precision {precision}");
    }

    #[test]
    fn monitoring_found_accounts() {
        let r = report();
        let total: usize = r.monitored_per_network.values().sum();
        assert!(total > 0, "some referenced accounts must resolve");
        // Facebook is the most-referenced network (Table 9) and should be
        // among the most-monitored.
        let fb = r
            .monitored_per_network
            .get(&Network::Facebook)
            .copied()
            .unwrap_or(0);
        assert!(fb > 0);
    }

    #[test]
    fn doxed_accounts_change_more_than_control() {
        let r = report();
        // Pool every doxed row: per-network counts are tiny at test scale.
        let mut pooled = StatusChangeRow::default();
        for row in r.status_changes.rows.values() {
            pooled.more_private += row.more_private;
            pooled.more_public += row.more_public;
            pooled.any_change += row.any_change;
            pooled.total += row.total;
        }
        assert!(pooled.total > 0, "no monitored accounts at all");
        // At test scale only a handful of accounts are monitored, so the
        // reaction count can legitimately be zero; the statistical claim
        // is asserted at 4 % scale by tests/pipeline_shapes.rs.
        if pooled.total >= 15 {
            assert!(
                pooled.any_change > 0,
                "doxed accounts should show some reaction: {pooled:?}"
            );
            let (any, _) = doxed_vs_control_ratios(&pooled, &r.control_row);
            assert!(
                any > 1.0 || any.is_infinite(),
                "pooled any-change ratio {any} ({pooled:?} vs {:?})",
                r.control_row
            );
        }
    }

    #[test]
    fn labeled_sample_analyses_populated() {
        let r = report();
        assert!(r.labeled_per_period[0] > 0);
        assert!(r.demographics.total > 0);
        assert_eq!(
            r.demographics.total,
            r.labeled_per_period[0] + r.labeled_per_period[1]
        );
        assert!(r.content.row("Address (any)").unwrap().fraction > 0.5);
        assert!(r.motivation.justice >= r.motivation.political);
    }

    #[test]
    fn deletion_survey_shape_holds() {
        let r = report();
        assert!(r.deletion.dox_total > 0);
        assert!(r.deletion.other_total > r.deletion.dox_total);
        // At test scale the dox pool is a handful of files, so the rate
        // comparison is only meaningful with enough deletions to observe;
        // the paper-scale shape (3x) is asserted by the bench harness.
        if r.deletion.dox_deleted + r.deletion.other_deleted >= 20 && r.deletion.dox_total >= 50 {
            assert!(
                r.deletion.dox_rate() > r.deletion.other_rate(),
                "dox {} vs other {}",
                r.deletion.dox_rate(),
                r.deletion.other_rate()
            );
        }
    }

    #[test]
    fn report_serializes_to_json() {
        let r = report();
        let json = serde_json::to_string(r).expect("report must serialize");
        assert!(json.contains("pipeline"));
        assert!(json.contains("classifier"));
    }
}
