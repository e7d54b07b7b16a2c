//! A live ingest session: the engine's thread topology and the
//! deterministic commit protocol.
//!
//! ```text
//! caller ──ingest()──▶ [work queue] ──▶ stage workers (×W, pure)
//!                                             │
//!                                     [staged queue]
//!                                             │
//!                                      router (reorders by chunk seq,
//!                                       commits doc-level counters,
//!                                       stamps dox_seq, routes by
//!                                       shard_signature)
//!                                        │   …   │
//!                                 [shard queues ×S]
//!                                        │   …   │
//!                               dedup shards (stateful, isolated)
//!                                        │   …   │
//!                                   [verdict queue]
//!                                             │
//!                                      committer (reorders by dox_seq,
//!                                       commits duplicate counters and
//!                                       the detected-dox log)
//! ```
//!
//! Determinism: the stage workers are pure, so only the two stateful
//! commit points matter. The router observes chunks through a
//! [`ReorderBuffer`] keyed on the chunk sequence number, so counters and
//! `dox_seq` assignment happen in exact ingest order; dedup shards each
//! own every document that could ever match each other (see
//! [`crate::dedup::shard_signature`]) and process them in `dox_seq` order
//! because their queues are FIFO and the router feeds them in order; the
//! committer reorders verdicts back into `dox_seq` order before touching
//! the duplicate counters and the detected log. The result is
//! byte-identical to one sequential pass for any `(workers, shards)`.
//!
//! ## Shared state and checkpoints
//!
//! The stateful stages keep their accumulations in a `Shared` block of
//! mutexes rather than thread-local state so the session can observe them
//! mid-run. [`Session::checkpoint`] flushes the partial chunk, waits for
//! **quiescence** (every dispatched chunk routed, every routed dox
//! committed — tracked by the `Progress` ledger and its condvar), then
//! snapshots everything while the pipeline is momentarily idle. Both
//! reorder buffers are provably empty at quiescence, so only their
//! cursors are persisted. The mutexes are uncontended in steady state —
//! each is locked by exactly one thread except during a checkpoint.
//!
//! ## Fault injection
//!
//! When the engine config carries [`EngineFaults`](crate::EngineFaults),
//! stage workers consult the plan's
//! [`stage_directive`](dox_fault::FaultPlan::stage_directive) per chunk:
//! slow chunks insert cooperative yields (scheduling pressure only —
//! results are unaffected, which the determinism tests verify), poisoned
//! chunks simulate a worker that panics on the chunk some number of times.
//! A poisoned chunk whose failure count exceeds the retry budget marks
//! every document in it as a **stage coverage gap** — counted explicitly
//! in [`PipelineOutput::stage_gap_docs`], never silently dropped.

use crate::checkpoint::{SessionCheckpoint, CHECKPOINT_VERSION};
use crate::dedup::{
    shard_of, shard_signature, DedupSpill, DedupSpillConfig, Deduplicator, DuplicateKind,
};
use crate::output::{DetectedDox, PipelineCounters, PipelineOutput, StagedDoc};
use crate::queue::Queue;
use crate::reorder::ReorderBuffer;
use crate::stage::{classify_and_extract, DoxDetector, StageLocal, StageMetrics};
use crate::{EngineConfig, EngineError, StagePanic};
use dox_fault::{FaultPlan, StageDirective};
use dox_obs::trace::{fault_hop, hop};
use dox_obs::{Counter, Gauge, Histogram, Registry, Tracer};
use dox_osn::clock::SimTime;
use dox_sites::collect::CollectedDoc;
use dox_synth::corpus::Source;
use dox_synth::truth::{DoxTruth, GroundTruth};
use std::collections::BTreeSet;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long [`Session::checkpoint`] waits for the pipeline to quiesce
/// before giving up with [`EngineError::CheckpointStalled`].
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(60);

/// A batch of collected documents, stamped with the chunk sequence
/// number the router reorders on. Each document carries its collection
/// period (1 or 2).
struct WorkChunk {
    seq: u64,
    docs: Vec<(u8, CollectedDoc)>,
}

/// What the stage produced for one document: the pure outcome, or a
/// marker that a poisoned worker exhausted its retries on the chunk.
// `Failed` is the rare case; boxing `Done` to shrink the enum would buy
// an allocation per document on the hot path.
#[allow(clippy::large_enum_variant)]
enum StageOutcome {
    Done(StagedDoc),
    Failed,
}

/// A chunk after the stage: same sequence number, each document now
/// paired with its outcome. Bodies are dropped at staging, so the staged
/// queue holds no document text beyond a dox's classified text.
struct StagedChunk {
    seq: u64,
    items: Vec<(u8, CollectedDoc, StageOutcome)>,
}

/// One classified dox on its way to a dedup shard.
struct DoxJob {
    dox_seq: u64,
    period: u8,
    doc_id: u64,
    source: Source,
    posted_at: SimTime,
    observed_at: SimTime,
    text: String,
    extracted: dox_extract::record::ExtractedDox,
    truth: Option<Box<DoxTruth>>,
}

/// A dedup shard's verdict for one dox.
struct Verdict {
    job: DoxJob,
    duplicate: Option<(DuplicateKind, u64)>,
}

/// The router's accumulated state (document-level commit point).
#[derive(Default)]
struct RouterState {
    reorder: ReorderBuffer<Vec<(u8, CollectedDoc, StageOutcome)>>,
    counters: PipelineCounters,
    dox_ids: BTreeSet<u64>,
    dox_seq: u64,
    stage_gap_docs: u64,
}

/// The committer's accumulated state (dedup-level commit point).
#[derive(Default)]
struct CommitterState {
    reorder: ReorderBuffer<Verdict>,
    counters: PipelineCounters,
    detected: Vec<DetectedDox>,
}

/// Completion ledger backing the quiesce protocol: the session is
/// quiescent exactly when `chunks_routed` equals the number of chunks
/// dispatched and every routed dox has been committed.
#[derive(Default)]
struct Progress {
    chunks_routed: u64,
    doxes_routed: u64,
    doxes_committed: u64,
}

/// State shared between the session handle and its worker threads so
/// checkpoints can observe it at quiescence.
struct Shared {
    router: Mutex<RouterState>,
    committer: Mutex<CommitterState>,
    dedups: Vec<Mutex<Deduplicator>>,
    progress: Mutex<Progress>,
    quiesced: Condvar,
}

/// Lock a mutex, recovering the guard if a panicking thread poisoned it —
/// same policy as [`crate::queue`]: state mutations are single-assignment
/// per document, so observers prefer the last consistent state over
/// propagating a panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Map a thread panic payload into the chained cause on
/// [`EngineError::StageFailed`].
fn stage_failed(stage: &'static str) -> impl FnOnce(Box<dyn std::any::Any + Send>) -> EngineError {
    move |payload| {
        let message = payload
            .downcast_ref::<&'static str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic payload was not a string".to_string());
        EngineError::StageFailed {
            stage,
            cause: StagePanic(message),
        }
    }
}

/// A running ingest session.
///
/// Created by [`Engine::session_builder`](crate::Engine::session_builder);
/// feed it with [`ingest`](Session::ingest) and close it with
/// [`finish`](Session::finish). The calling thread is the producer: when
/// the work queue is full, `ingest` blocks — that backpressure is what
/// bounds memory to roughly `queue_depth × chunk` documents regardless of
/// corpus size. [`checkpoint`](Session::checkpoint) captures a resumable
/// snapshot mid-stream.
///
/// For resident (service-mode) sessions that never `finish`,
/// [`flush`](Session::flush) forces everything ingested so far through
/// the pipeline, and [`committed_len`](Session::committed_len) /
/// [`detected_since`](Session::detected_since) /
/// [`output_snapshot`](Session::output_snapshot) observe the committed
/// state without closing the stream.
pub struct Session {
    chunk: usize,
    shards: usize,
    next_chunk_seq: u64,
    buf: Vec<(u8, CollectedDoc)>,
    shared: Arc<Shared>,
    work: Arc<Queue<WorkChunk>>,
    staged: Arc<Queue<StagedChunk>>,
    shard_queues: Vec<Arc<Queue<DoxJob>>>,
    verdicts: Arc<Queue<Verdict>>,
    stage_workers: Vec<JoinHandle<()>>,
    router: Option<JoinHandle<()>>,
    shard_workers: Vec<JoinHandle<()>>,
    committer: Option<JoinHandle<()>>,
    queue_depth: Gauge,
    stalls: Counter,
    stall_ns: Histogram,
    tracer: Tracer,
}

impl Session {
    pub(crate) fn spawn(
        config: &EngineConfig,
        classifier: Arc<dyn DoxDetector>,
        registry: &Registry,
        tracer: &Tracer,
        restore: Option<SessionCheckpoint>,
        spill: Option<DedupSpillConfig>,
    ) -> Self {
        // Each shard gets its own store tables; lookups union memory with
        // the store, so attaching the spill after a restore is sound.
        let attach = |shard: usize, mut dedup: Deduplicator| {
            if let Some(cfg) = &spill {
                dedup.attach_spill(DedupSpill::new(
                    Arc::clone(&cfg.store),
                    shard,
                    cfg.cap_entries,
                ));
            }
            Mutex::new(dedup)
        };
        let work: Arc<Queue<WorkChunk>> = Arc::new(Queue::bounded(config.queue_depth));
        let staged: Arc<Queue<StagedChunk>> = Arc::new(Queue::bounded(config.queue_depth));
        let shard_queues: Vec<Arc<Queue<DoxJob>>> = (0..config.shards)
            .map(|_| Arc::new(Queue::bounded(config.queue_depth.max(4) * config.chunk)))
            .collect();
        let verdicts: Arc<Queue<Verdict>> =
            Arc::new(Queue::bounded(config.queue_depth * config.chunk));

        let next_chunk_seq = restore.as_ref().map_or(0, |cp| cp.next_chunk_seq);
        let shared = Arc::new(match restore {
            None => Shared {
                router: Mutex::new(RouterState::default()),
                committer: Mutex::new(CommitterState::default()),
                dedups: (0..config.shards)
                    .map(|shard| attach(shard, Deduplicator::new()))
                    .collect(),
                progress: Mutex::new(Progress::default()),
                quiesced: Condvar::new(),
            },
            Some(cp) => Shared {
                router: Mutex::new(RouterState {
                    reorder: ReorderBuffer::with_next(cp.next_chunk_seq),
                    counters: cp.router_counters,
                    dox_ids: cp.dox_ids,
                    dox_seq: cp.dox_seq,
                    stage_gap_docs: cp.stage_gap_docs,
                }),
                committer: Mutex::new(CommitterState {
                    reorder: ReorderBuffer::with_next(cp.dox_seq),
                    counters: cp.committer_counters,
                    detected: cp.detected,
                }),
                dedups: cp
                    .dedups
                    .into_iter()
                    .enumerate()
                    .map(|(shard, s)| attach(shard, Deduplicator::restore(s)))
                    .collect(),
                // A checkpoint is taken at quiescence: everything dispatched
                // was routed and committed.
                progress: Mutex::new(Progress {
                    chunks_routed: cp.next_chunk_seq,
                    doxes_routed: cp.dox_seq,
                    doxes_committed: cp.dox_seq,
                }),
                quiesced: Condvar::new(),
            },
        });

        let stage_metrics = StageMetrics::resolve(registry);
        let collected = registry.counter("pipeline.funnel.collected");
        let classified_dox = registry.counter("pipeline.funnel.classified_dox");
        let duplicates = registry.counter("pipeline.funnel.duplicates");
        let unique = registry.counter("pipeline.funnel.unique");
        let stage_gaps = registry.counter("engine.fault.stage_exhausted_docs");
        let dedup_ns = registry.histogram("pipeline.stage.dedup");
        registry.gauge("engine.workers").set(config.workers as i64);
        registry.gauge("engine.shards").set(config.shards as i64);

        // Per-queue depth gauges plus a shared backpressure ledger: every
        // blocking push past the ingest boundary lands its stall here, so
        // `GET /metrics` can show where the pipe is tight right now.
        let staged_depth = registry.gauge("engine.queue.staged.depth");
        let verdicts_depth = registry.gauge("engine.queue.verdicts.depth");
        let bp_stalls = registry.counter("engine.queue.backpressure.stalls");
        let bp_ns = registry.histogram("engine.queue.backpressure_ns");

        let fault_ctx: Option<(FaultPlan, u32)> = config
            .faults
            .as_ref()
            .map(|f| (FaultPlan::new(f.plan.clone()), f.policy.max_retries));

        let stage_workers = (0..config.workers)
            .map(|_| {
                let work = Arc::clone(&work);
                let staged = Arc::clone(&staged);
                let classifier = Arc::clone(&classifier);
                let stage_metrics = stage_metrics.clone();
                let fault_ctx = fault_ctx.clone();
                let tracer = tracer.clone();
                let slow_chunks = registry.counter("engine.fault.slow_chunks");
                let poisoned_chunks = registry.counter("engine.fault.poisoned_chunks");
                let stage_retries = registry.counter("engine.fault.stage_retries");
                let exhausted_docs = registry.counter("engine.fault.stage_exhausted_docs");
                let staged_depth = staged_depth.clone();
                let bp_stalls = bp_stalls.clone();
                let bp_ns = bp_ns.clone();
                std::thread::spawn(move || {
                    while let Some(chunk) = work.pop() {
                        let mut exhausted = false;
                        // The chunk's fault weather, kept so sampled
                        // documents can carry a `stage_fault` hop:
                        // (attempts the simulated supervisor made, note).
                        let mut fault_event: Option<(u32, String)> = None;
                        if let Some((plan, max_retries)) = &fault_ctx {
                            match plan.stage_directive(chunk.seq) {
                                StageDirective::Healthy => {}
                                StageDirective::Slow { yields } => {
                                    slow_chunks.inc();
                                    if tracer.enabled() {
                                        fault_event = Some((1, format!("slow yields={yields}")));
                                    }
                                    for _ in 0..yields {
                                        std::thread::yield_now();
                                    }
                                }
                                StageDirective::Poison { failures } => {
                                    poisoned_chunks.inc();
                                    if failures > *max_retries {
                                        exhausted = true;
                                        exhausted_docs.add(chunk.docs.len() as u64);
                                        if tracer.enabled() {
                                            fault_event = Some((
                                                failures + 1,
                                                format!("poison exhausted failures={failures}"),
                                            ));
                                        }
                                    } else {
                                        // A retrying supervisor re-runs the
                                        // pure stage; only the attempt count
                                        // is observable.
                                        stage_retries.add(u64::from(failures));
                                        if tracer.enabled() {
                                            fault_event = Some((
                                                failures + 1,
                                                format!("poison retried failures={failures}"),
                                            ));
                                        }
                                    }
                                }
                            }
                        }
                        let mut timings = StageLocal::default();
                        let items = chunk
                            .docs
                            .into_iter()
                            .map(|(period, mut doc)| {
                                let outcome = if exhausted {
                                    StageOutcome::Failed
                                } else {
                                    StageOutcome::Done(classify_and_extract(
                                        &classifier,
                                        &doc,
                                        &mut timings,
                                    ))
                                };
                                if tracer.sampled(doc.doc.id) {
                                    let at = doc.collected_at.0;
                                    if let Some((attempts, note)) = &fault_event {
                                        tracer.hop(
                                            doc.doc.id,
                                            fault_hop("stage_fault", at, *attempts, 0, 0, note),
                                        );
                                    }
                                    let verdict = match &outcome {
                                        StageOutcome::Done(Some(_)) => "dox",
                                        StageOutcome::Done(None) => "paste",
                                        StageOutcome::Failed => "failed",
                                    };
                                    tracer.hop(doc.doc.id, hop("classify", at, verdict));
                                }
                                // The router never reads the body, and a
                                // dox's text already travels in its outcome.
                                doc.doc.body = String::new();
                                (period, doc, outcome)
                            })
                            .collect();
                        timings.merge_into(&stage_metrics);
                        match staged.push(StagedChunk {
                            seq: chunk.seq,
                            items,
                        }) {
                            Ok(pushed) => {
                                staged_depth.set(pushed.depth as i64);
                                if pushed.stalled_for > Duration::ZERO {
                                    bp_stalls.inc();
                                    bp_ns.observe_duration(pushed.stalled_for);
                                }
                            }
                            Err(_) => break,
                        }
                    }
                })
            })
            .collect();

        let router = {
            let staged = Arc::clone(&staged);
            let shared = Arc::clone(&shared);
            let shard_queues = shard_queues.clone();
            let shards = config.shards;
            let shard_docs: Vec<Counter> = (0..shards)
                .map(|i| registry.counter(&format!("engine.shard.{i}.docs")))
                .collect();
            let shard_depths: Vec<Gauge> = (0..shards)
                .map(|i| registry.gauge(&format!("engine.shard.{i}.queue_depth")))
                .collect();
            let collected = collected.clone();
            let classified_dox = classified_dox.clone();
            let stage_gaps = stage_gaps.clone();
            let tracer = tracer.clone();
            let route_ns = registry.histogram("pipeline.stage.route");
            let bp_stalls = bp_stalls.clone();
            let bp_ns = bp_ns.clone();
            std::thread::spawn(move || {
                'drain: while let Some(chunk) = staged.pop() {
                    // Commit under the router lock, collect the routable
                    // jobs, then release before the (blocking) queue pushes.
                    let mut jobs: Vec<(usize, DoxJob)> = Vec::new();
                    let mut chunks_ready = 0u64;
                    // dox-lint:allow(determinism) route-stage timing histogram; observation only
                    let route_start = Instant::now();
                    {
                        let mut state = lock(&shared.router);
                        state.reorder.push(chunk.seq, chunk.items);
                        while let Some(items) = state.reorder.pop_ready() {
                            chunks_ready += 1;
                            for (period, doc, outcome) in items {
                                let CollectedDoc { doc, collected_at } = doc;
                                let slot = usize::from(period - 1);
                                state.counters.total += 1;
                                state.counters.per_period[slot] += 1;
                                state.counters.count_source(doc.source.name());
                                collected.inc();
                                let staged_doc = match outcome {
                                    StageOutcome::Done(staged_doc) => staged_doc,
                                    StageOutcome::Failed => {
                                        state.stage_gap_docs += 1;
                                        stage_gaps.inc();
                                        if tracer.sampled(doc.id) {
                                            tracer.hop(
                                                doc.id,
                                                hop(
                                                    "stage_gap",
                                                    collected_at.0,
                                                    "document lost to exhausted poison",
                                                ),
                                            );
                                        }
                                        continue;
                                    }
                                };
                                let Some((text, extracted)) = staged_doc else {
                                    continue;
                                };
                                state.counters.classified_dox += 1;
                                state.counters.dox_per_period[slot] += 1;
                                classified_dox.inc();
                                state.dox_ids.insert(doc.id);
                                let sig = shard_signature(&text, &extracted);
                                let shard = shard_of(sig, shards);
                                let truth = match doc.truth {
                                    GroundTruth::Dox(t) => Some(t),
                                    GroundTruth::Paste { .. } => None,
                                };
                                if tracer.sampled(doc.id) {
                                    // The hop carries the shard *signature*,
                                    // not the shard index: the signature is a
                                    // pure function of content, so traces stay
                                    // byte-identical across shard counts.
                                    tracer.hop(
                                        doc.id,
                                        hop(
                                            "route",
                                            collected_at.0,
                                            format!("sig={sig:016x} dox_seq={}", state.dox_seq),
                                        ),
                                    );
                                }
                                let job = DoxJob {
                                    dox_seq: state.dox_seq,
                                    period,
                                    doc_id: doc.id,
                                    source: doc.source,
                                    posted_at: doc.posted_at,
                                    observed_at: collected_at,
                                    text,
                                    extracted,
                                    truth,
                                };
                                state.dox_seq += 1;
                                jobs.push((shard, job));
                            }
                        }
                    }
                    route_ns.observe_duration(route_start.elapsed());
                    let routed = jobs.len() as u64;
                    for (shard, job) in jobs {
                        shard_docs[shard].inc();
                        match shard_queues[shard].push(job) {
                            Ok(pushed) => {
                                shard_depths[shard].set(pushed.depth as i64);
                                if pushed.stalled_for > Duration::ZERO {
                                    bp_stalls.inc();
                                    bp_ns.observe_duration(pushed.stalled_for);
                                }
                            }
                            Err(_) => break 'drain,
                        }
                    }
                    // One progress update per staged chunk, *after* the
                    // pushes: a checkpoint observing `chunks_routed` caught
                    // up is guaranteed every routed job already sits in a
                    // shard queue, so `doxes_committed == doxes_routed`
                    // really means the pipe is empty.
                    let mut progress = lock(&shared.progress);
                    progress.chunks_routed += chunks_ready;
                    progress.doxes_routed += routed;
                    shared.quiesced.notify_all();
                }
            })
        };

        let shard_workers = shard_queues
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let q = Arc::clone(q);
                let verdicts = Arc::clone(&verdicts);
                let shared = Arc::clone(&shared);
                let dedup_ns = dedup_ns.clone();
                let shard_ns = registry.histogram(&format!("engine.shard.{i}.dedup_ns"));
                let tracer = tracer.clone();
                let verdicts_depth = verdicts_depth.clone();
                let bp_stalls = bp_stalls.clone();
                let bp_ns = bp_ns.clone();
                std::thread::spawn(move || {
                    while let Some(job) = q.pop() {
                        // dox-lint:allow(determinism) per-shard dedup latency histogram; never enters the report
                        let start = Instant::now();
                        let duplicate =
                            lock(&shared.dedups[i]).check(job.doc_id, &job.text, &job.extracted);
                        let elapsed = start.elapsed();
                        dedup_ns.observe_duration(elapsed);
                        shard_ns.observe_duration(elapsed);
                        if tracer.sampled(job.doc_id) {
                            let note = match &duplicate {
                                None => "unique".to_string(),
                                Some((kind, of)) => format!("duplicate kind={kind:?} of={of}"),
                            };
                            tracer.hop(job.doc_id, hop("dedup", job.observed_at.0, note));
                        }
                        match verdicts.push(Verdict { job, duplicate }) {
                            Ok(pushed) => {
                                verdicts_depth.set(pushed.depth as i64);
                                if pushed.stalled_for > Duration::ZERO {
                                    bp_stalls.inc();
                                    bp_ns.observe_duration(pushed.stalled_for);
                                }
                            }
                            Err(_) => break,
                        }
                    }
                })
            })
            .collect();

        let committer = {
            let verdicts = Arc::clone(&verdicts);
            let shared = Arc::clone(&shared);
            let tracer = tracer.clone();
            let commit_ns = registry.histogram("pipeline.stage.commit");
            std::thread::spawn(move || {
                while let Some(verdict) = verdicts.pop() {
                    let mut committed = 0u64;
                    // dox-lint:allow(determinism) commit-stage timing histogram; observation only
                    let commit_start = Instant::now();
                    {
                        let mut state = lock(&shared.committer);
                        state.reorder.push(verdict.job.dox_seq, verdict);
                        while let Some(Verdict { job, duplicate }) = state.reorder.pop_ready() {
                            committed += 1;
                            if tracer.sampled(job.doc_id) {
                                let fate = if duplicate.is_some() {
                                    "duplicate"
                                } else {
                                    "unique"
                                };
                                tracer.hop(
                                    job.doc_id,
                                    hop(
                                        "commit",
                                        job.observed_at.0,
                                        format!("dox_seq={} {fate}", job.dox_seq),
                                    ),
                                );
                            }
                            match duplicate {
                                Some((kind, _)) => {
                                    state.counters.duplicates_per_period
                                        [usize::from(job.period - 1)] += 1;
                                    duplicates.inc();
                                    match kind {
                                        DuplicateKind::ExactBody => {
                                            state.counters.exact_duplicates += 1
                                        }
                                        DuplicateKind::AccountSet => {
                                            state.counters.account_set_duplicates += 1
                                        }
                                        DuplicateKind::Fuzzy => {}
                                    }
                                }
                                None => unique.inc(),
                            }
                            state.detected.push(DetectedDox {
                                doc_id: job.doc_id,
                                source: job.source,
                                period: job.period,
                                posted_at: job.posted_at,
                                observed_at: job.observed_at,
                                text: job.text,
                                extracted: job.extracted,
                                duplicate,
                                truth: job.truth,
                            });
                        }
                    }
                    commit_ns.observe_duration(commit_start.elapsed());
                    if committed > 0 {
                        let mut progress = lock(&shared.progress);
                        progress.doxes_committed += committed;
                        shared.quiesced.notify_all();
                    }
                }
            })
        };

        Self {
            chunk: config.chunk,
            shards: config.shards,
            next_chunk_seq,
            buf: Vec::with_capacity(config.chunk),
            shared,
            work,
            staged,
            shard_queues,
            verdicts,
            stage_workers,
            router: Some(router),
            shard_workers,
            committer: Some(committer),
            queue_depth: registry.gauge("engine.queue.depth"),
            stalls: registry.counter("engine.queue.stalls"),
            stall_ns: registry.histogram("engine.queue.stall_ns"),
            tracer: tracer.clone(),
        }
    }

    /// Feed one collected document from the given period (1 or 2) into
    /// the engine. Blocks when the work queue is full (backpressure).
    pub fn ingest(&mut self, period: u8, doc: CollectedDoc) -> Result<(), EngineError> {
        if !(1..=2).contains(&period) {
            return Err(EngineError::InvalidPeriod(period));
        }
        if self.tracer.sampled(doc.doc.id) {
            // Admission happens here, on the single producer thread, so
            // which documents occupy the bounded trace buffer is a pure
            // function of ingest order. A no-op when the collector already
            // began this trace (insert-if-absent).
            self.tracer
                .begin(doc.doc.id, hop("ingest", doc.collected_at.0, ""));
        }
        self.buf.push((period, doc));
        if self.buf.len() >= self.chunk {
            self.dispatch()?;
        }
        Ok(())
    }

    /// Flush any buffered partial chunk into the work queue.
    fn dispatch(&mut self) -> Result<(), EngineError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let docs = std::mem::replace(&mut self.buf, Vec::with_capacity(self.chunk));
        let seq = self.next_chunk_seq;
        self.next_chunk_seq += 1;
        match self.work.push(WorkChunk { seq, docs }) {
            Ok(pushed) => {
                self.queue_depth.set(pushed.depth as i64);
                if pushed.stalled_for > Duration::ZERO {
                    self.stalls.inc();
                    self.stall_ns.observe_duration(pushed.stalled_for);
                }
                Ok(())
            }
            Err(_) => Err(EngineError::Disconnected),
        }
    }

    /// True when some engine thread has exited while the session is still
    /// open — it can never quiesce.
    fn any_thread_dead(&self) -> bool {
        self.stage_workers.iter().any(JoinHandle::is_finished)
            || self.router.as_ref().is_some_and(JoinHandle::is_finished)
            || self.shard_workers.iter().any(JoinHandle::is_finished)
            || self.committer.as_ref().is_some_and(JoinHandle::is_finished)
    }

    /// Block until the pipeline is quiescent: every dispatched chunk
    /// routed, every routed dox committed. Both reorder buffers are
    /// provably empty at that point.
    fn wait_quiescent(&self) -> Result<(), EngineError> {
        let target_chunks = self.next_chunk_seq;
        // dox-lint:allow(determinism) wall-clock deadline guards liveness of the wait only; it never shapes results
        let deadline = Instant::now() + QUIESCE_TIMEOUT;
        let mut progress = lock(&self.shared.progress);
        loop {
            if progress.chunks_routed == target_chunks
                && progress.doxes_committed == progress.doxes_routed
            {
                return Ok(());
            }
            if self.any_thread_dead() {
                return Err(EngineError::Disconnected);
            }
            // dox-lint:allow(determinism) liveness deadline, see above
            if Instant::now() >= deadline {
                return Err(EngineError::CheckpointStalled);
            }
            let (guard, _) = self
                .shared
                .quiesced
                .wait_timeout(progress, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            progress = guard;
        }
    }

    /// Push everything ingested so far through the pipeline and wait for
    /// it to commit. On return, [`committed_len`](Session::committed_len)
    /// and [`detected_since`](Session::detected_since) reflect every
    /// document handed to [`ingest`](Session::ingest) before this call.
    ///
    /// This is the service-mode heartbeat: a daemon answering "what did
    /// that batch contain?" flushes, then reads the committed log. The
    /// flush dispatches a partial chunk, which never affects results —
    /// chunk boundaries are invisible to the commit protocol.
    ///
    /// # Errors
    /// [`EngineError::Disconnected`] if an engine thread died, or
    /// [`EngineError::CheckpointStalled`] if the pipeline failed to
    /// drain within the quiesce deadline.
    pub fn flush(&mut self) -> Result<(), EngineError> {
        self.dispatch()?;
        self.wait_quiescent()
    }

    /// How many classified doxes have been committed so far (unique and
    /// duplicate alike). Use as the cursor for
    /// [`detected_since`](Session::detected_since). Monotonic; resumed
    /// sessions count their restored log too.
    pub fn committed_len(&self) -> usize {
        lock(&self.shared.committer).detected.len()
    }

    /// Clone the committed detected-dox log from `since` (a previous
    /// [`committed_len`](Session::committed_len) reading) onward. Call
    /// after [`flush`](Session::flush) for a stable read; between flushes
    /// the log only ever grows, so a cursor never skips entries.
    pub fn detected_since(&self, since: usize) -> Vec<DetectedDox> {
        let committer = lock(&self.shared.committer);
        committer.detected.get(since..).unwrap_or_default().to_vec()
    }

    /// Flush, then clone the full [`PipelineOutput`] as of everything
    /// ingested so far — the live-session counterpart of
    /// [`finish`](Session::finish), leaving the stream open. The clone is
    /// byte-identical to what `finish` would return right now.
    ///
    /// # Errors
    /// Propagates [`flush`](Session::flush) errors.
    pub fn output_snapshot(&mut self) -> Result<PipelineOutput, EngineError> {
        self.flush()?;
        let router = lock(&self.shared.router);
        let committer = lock(&self.shared.committer);
        let mut counters = router.counters.clone();
        counters.absorb(&committer.counters);
        Ok(PipelineOutput {
            detected: committer.detected.clone(),
            counters,
            dox_ids: router.dox_ids.clone(),
            stage_gap_docs: router.stage_gap_docs,
        })
    }

    /// Capture a resumable snapshot of the session without closing it.
    ///
    /// Flushes the buffered partial chunk (chunk boundaries never affect
    /// results), waits for the pipeline to quiesce, then snapshots every
    /// stateful stage. Feed the snapshot to
    /// [`SessionBuilder::resume_from`](crate::SessionBuilder::resume_from)
    /// to continue the stream in a later process; replaying the remaining
    /// documents yields output byte-identical to the uninterrupted run.
    pub fn checkpoint(&mut self) -> Result<SessionCheckpoint, EngineError> {
        self.dispatch()?;
        let target_chunks = self.next_chunk_seq;
        self.wait_quiescent()?;
        let router = lock(&self.shared.router);
        let committer = lock(&self.shared.committer);
        Ok(SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            shards: self.shards,
            next_chunk_seq: target_chunks,
            dox_seq: router.dox_seq,
            router_counters: router.counters.clone(),
            dox_ids: router.dox_ids.clone(),
            stage_gap_docs: router.stage_gap_docs,
            committer_counters: committer.counters.clone(),
            detected: committer.detected.clone(),
            dedups: self
                .shared
                .dedups
                .iter()
                .map(|d| lock(d).snapshot())
                .collect(),
        })
    }

    /// Close the stream and wait for every stage to drain, returning the
    /// combined output. The result is byte-identical to a sequential pass
    /// over the same documents in the same order.
    pub fn finish(mut self) -> Result<PipelineOutput, EngineError> {
        self.dispatch()?;
        self.work.close();
        for worker in self.stage_workers.drain(..) {
            worker.join().map_err(stage_failed("stage worker"))?;
        }
        self.staged.close();
        if let Some(router) = self.router.take() {
            router.join().map_err(stage_failed("router"))?;
        }
        for q in &self.shard_queues {
            q.close();
        }
        for worker in self.shard_workers.drain(..) {
            worker.join().map_err(stage_failed("dedup shard"))?;
        }
        self.verdicts.close();
        if let Some(committer) = self.committer.take() {
            committer.join().map_err(stage_failed("committer"))?;
        }
        let router = std::mem::take(&mut *lock(&self.shared.router));
        let committer = std::mem::take(&mut *lock(&self.shared.committer));
        let mut counters = router.counters;
        counters.absorb(&committer.counters);
        self.queue_depth.set(0);
        Ok(PipelineOutput {
            detected: committer.detected,
            counters,
            dox_ids: router.dox_ids,
            stage_gap_docs: router.stage_gap_docs,
        })
    }
}

impl Drop for Session {
    /// Closing every queue lets the worker threads exit if the session is
    /// dropped without [`finish`](Session::finish); the threads are then
    /// detached, not joined.
    fn drop(&mut self) {
        self.work.close();
        self.staged.close();
        for q in &self.shard_queues {
            q.close();
        }
        self.verdicts.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineFaults};
    use dox_fault::{FaultPlanConfig, RetryPolicy};
    use dox_synth::corpus::SynthDoc;
    use dox_synth::truth::PasteKind;

    /// A detector that flags documents containing "dox".
    struct KeywordDetector;

    impl DoxDetector for KeywordDetector {
        fn is_dox(&self, text: &str) -> bool {
            text.contains("dox")
        }
    }

    /// Start a keyword-detector session on an isolated registry.
    fn start(engine: &Engine, registry: &Registry) -> Session {
        engine
            .session_builder()
            .detector(Arc::new(KeywordDetector))
            .registry(registry)
            .start()
            .expect("detector set")
    }

    fn doc(id: u64, body: &str) -> CollectedDoc {
        CollectedDoc {
            doc: SynthDoc {
                id,
                source: Source::Pastebin,
                posted_at: SimTime(id),
                body: body.to_string(),
                deleted_after: None,
                truth: GroundTruth::Paste {
                    kind: PasteKind::Code,
                },
            },
            collected_at: SimTime(id + 5),
        }
    }

    /// A sequential reference: the same commit semantics, single thread.
    fn sequential(docs: &[(u8, CollectedDoc)]) -> PipelineOutput {
        let mut out = PipelineOutput::default();
        let mut dedup = Deduplicator::new();
        let mut timings = StageLocal::default();
        for (period, collected) in docs {
            let slot = usize::from(period - 1);
            out.counters.total += 1;
            out.counters.per_period[slot] += 1;
            out.counters.count_source(collected.doc.source.name());
            let Some((text, extracted)) =
                classify_and_extract(&KeywordDetector, collected, &mut timings)
            else {
                continue;
            };
            out.counters.classified_dox += 1;
            out.counters.dox_per_period[slot] += 1;
            out.dox_ids.insert(collected.doc.id);
            let duplicate = dedup.check(collected.doc.id, &text, &extracted);
            if let Some((kind, _)) = duplicate {
                out.counters.duplicates_per_period[slot] += 1;
                match kind {
                    DuplicateKind::ExactBody => out.counters.exact_duplicates += 1,
                    DuplicateKind::AccountSet => out.counters.account_set_duplicates += 1,
                    DuplicateKind::Fuzzy => {}
                }
            }
            out.detected.push(DetectedDox {
                doc_id: collected.doc.id,
                source: collected.doc.source,
                period: *period,
                posted_at: collected.doc.posted_at,
                observed_at: collected.collected_at,
                text,
                extracted,
                duplicate,
                truth: collected.doc.truth.as_dox().map(|t| Box::new(t.clone())),
            });
        }
        out
    }

    fn corpus() -> Vec<(u8, CollectedDoc)> {
        let mut docs = Vec::new();
        for i in 0..200u64 {
            let body = match i % 5 {
                0 => format!("dox of victim{} fb: victim{}", i % 7, i % 7),
                1 => format!("dox drop fb: victim{} tw: alt{}", i % 7, i % 7),
                2 => "dox of victim3 fb: victim3".to_string(),
                _ => format!("innocuous paste number {i}"),
            };
            let period = if i < 120 { 1 } else { 2 };
            docs.push((period, doc(i, &body)));
        }
        docs
    }

    fn run_engine(workers: usize, shards: usize, chunk: usize) -> PipelineOutput {
        let engine = Engine::builder()
            .workers(workers)
            .shards(shards)
            .queue_depth(2)
            .chunk(chunk)
            .build()
            .expect("valid config");
        let registry = Registry::new();
        let mut session = start(&engine, &registry);
        for (period, doc) in corpus() {
            session.ingest(period, doc).expect("period is valid");
        }
        session.finish().expect("engine drains cleanly")
    }

    fn assert_same(a: &PipelineOutput, b: &PipelineOutput) {
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.dox_ids, b.dox_ids);
        assert_eq!(a.stage_gap_docs, b.stage_gap_docs);
        assert_eq!(a.detected.len(), b.detected.len());
        for (x, y) in a.detected.iter().zip(&b.detected) {
            assert_eq!(x.doc_id, y.doc_id);
            assert_eq!(x.duplicate, y.duplicate);
            assert_eq!(x.text, y.text);
            assert_eq!(x.period, y.period);
        }
    }

    #[test]
    fn engine_matches_sequential_for_any_topology() {
        let reference = sequential(&corpus());
        for (workers, shards, chunk) in [(1, 1, 16), (4, 8, 16), (2, 3, 7), (4, 1, 1)] {
            let out = run_engine(workers, shards, chunk);
            assert_same(&out, &reference);
        }
    }

    #[test]
    fn invalid_period_is_rejected_without_killing_the_session() {
        let engine = Engine::builder().build().expect("default config");
        let registry = Registry::new();
        let mut session = start(&engine, &registry);
        assert_eq!(
            session.ingest(3, doc(1, "x")),
            Err(EngineError::InvalidPeriod(3))
        );
        session
            .ingest(1, doc(2, "a dox fb: someone"))
            .expect("valid");
        let out = session.finish().expect("drains");
        assert_eq!(out.counters.total, 1, "rejected doc never entered");
    }

    #[test]
    fn funnel_metrics_are_recorded() {
        let engine = Engine::builder().workers(2).shards(2).build().unwrap();
        let registry = Registry::new();
        let mut session = start(&engine, &registry);
        for (period, doc) in corpus() {
            session.ingest(period, doc).unwrap();
        }
        let out = session.finish().unwrap();
        assert_eq!(
            registry.counter("pipeline.funnel.collected").get(),
            out.counters.total
        );
        assert_eq!(
            registry.counter("pipeline.funnel.classified_dox").get(),
            out.counters.classified_dox
        );
        assert_eq!(
            registry.counter("pipeline.funnel.unique").get(),
            out.unique_doxes().count() as u64
        );
        let snapshot = registry.snapshot();
        assert!(snapshot.spans.contains_key("pipeline.stage.classify"));
        assert!(snapshot.spans.contains_key("pipeline.stage.dedup"));
    }

    #[test]
    fn dropping_a_session_does_not_hang() {
        let engine = Engine::builder().workers(2).build().unwrap();
        let registry = Registry::new();
        let mut session = start(&engine, &registry);
        session.ingest(1, doc(1, "a dox fb: someone")).unwrap();
        drop(session);
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_to_uninterrupted() {
        let reference = sequential(&corpus());
        for (workers, shards) in [(1usize, 1usize), (4, 8)] {
            let build = || {
                Engine::builder()
                    .workers(workers)
                    .shards(shards)
                    .queue_depth(2)
                    .chunk(16)
                    .build()
                    .expect("valid config")
            };
            let registry = Registry::new();
            let mut first = start(&build(), &registry);
            let docs = corpus();
            let cut = 97; // mid-chunk on purpose
            for (period, doc) in &docs[..cut] {
                first.ingest(*period, doc.clone()).expect("valid");
            }
            let snapshot = first.checkpoint().expect("quiesces");
            // Serialize/parse to prove the on-disk form carries everything.
            let json = serde_json::to_string(&snapshot).expect("serializes");
            drop(first); // the "crash"
            let parsed = serde_json::from_str(&json).expect("parses");
            let registry = Registry::new();
            let mut resumed = build()
                .session_builder()
                .detector(Arc::new(KeywordDetector))
                .registry(&registry)
                .resume_from(parsed)
                .start()
                .expect("shard counts match");
            for (period, doc) in &docs[cut..] {
                resumed.ingest(*period, doc.clone()).expect("valid");
            }
            let out = resumed.finish().expect("drains");
            assert_same(&out, &reference);
        }
    }

    #[test]
    fn checkpoint_then_continue_in_place_is_also_identical() {
        // A checkpoint must be a pure observation: taking one and carrying
        // on in the same session must not perturb the output.
        let reference = sequential(&corpus());
        let engine = Engine::builder()
            .workers(3)
            .shards(4)
            .chunk(16)
            .build()
            .unwrap();
        let registry = Registry::new();
        let mut session = start(&engine, &registry);
        for (i, (period, doc)) in corpus().into_iter().enumerate() {
            session.ingest(period, doc).unwrap();
            if i % 64 == 63 {
                session.checkpoint().expect("quiesces");
            }
        }
        let out = session.finish().unwrap();
        assert_same(&out, &reference);
    }

    #[test]
    fn flush_and_live_observation_match_finish() {
        // Service mode reads the committed log without closing the
        // stream; those reads must agree with what finish() reports.
        let engine = Engine::builder()
            .workers(2)
            .shards(3)
            .chunk(16)
            .build()
            .unwrap();
        let registry = Registry::new();
        let mut session = start(&engine, &registry);
        let docs = corpus();
        let cut = 97; // mid-chunk on purpose
        for (period, doc) in &docs[..cut] {
            session.ingest(*period, doc.clone()).unwrap();
        }
        session.flush().expect("quiesces");
        let cursor = session.committed_len();
        let mid = session.output_snapshot().expect("snapshot");
        assert_eq!(mid.detected.len(), cursor);
        assert_eq!(mid.counters.total, cut as u64);

        for (period, doc) in &docs[cut..] {
            session.ingest(*period, doc.clone()).unwrap();
        }
        session.flush().expect("quiesces");
        let tail = session.detected_since(cursor);
        let snapshot = session.output_snapshot().expect("snapshot");
        assert_eq!(snapshot.detected.len(), cursor + tail.len());

        let out = session.finish().expect("drains");
        assert_same(&out, &sequential(&corpus()));
        assert_same(&out, &snapshot);
    }

    #[test]
    fn resume_rejects_mismatched_shard_count() {
        let engine = Engine::builder()
            .workers(1)
            .shards(2)
            .chunk(8)
            .build()
            .unwrap();
        let registry = Registry::new();
        let mut session = start(&engine, &registry);
        session.ingest(1, doc(1, "a dox fb: someone")).unwrap();
        let snapshot = session.checkpoint().expect("quiesces");
        drop(session);
        let other = Engine::builder()
            .workers(1)
            .shards(3)
            .chunk(8)
            .build()
            .unwrap();
        let registry = Registry::new();
        assert_eq!(
            other
                .session_builder()
                .detector(Arc::new(KeywordDetector))
                .registry(&registry)
                .resume_from(snapshot)
                .start()
                .err(),
            Some(EngineError::CheckpointShardMismatch {
                expected: 3,
                found: 2
            })
        );
    }

    fn run_engine_with_faults(
        workers: usize,
        shards: usize,
        plan: FaultPlanConfig,
        policy: RetryPolicy,
    ) -> PipelineOutput {
        let engine = Engine::builder()
            .workers(workers)
            .shards(shards)
            .queue_depth(2)
            .chunk(16)
            .faults(EngineFaults { plan, policy })
            .build()
            .expect("valid config");
        let registry = Registry::new();
        let mut session = start(&engine, &registry);
        for (period, doc) in corpus() {
            session.ingest(period, doc).expect("valid");
        }
        session.finish().expect("drains")
    }

    #[test]
    fn recovered_stage_faults_leave_output_untouched() {
        // Slow chunks and sub-budget poison are pure scheduling weather.
        let reference = sequential(&corpus());
        let plan = FaultPlanConfig {
            slow_chunk_ppm: 400_000,
            poison_chunk_ppm: 300_000,
            max_transient_failures: 2,
            ..FaultPlanConfig::default()
        };
        for (workers, shards) in [(1usize, 1usize), (4, 8)] {
            let out = run_engine_with_faults(workers, shards, plan.clone(), RetryPolicy::default());
            assert_same(&out, &reference);
            assert_eq!(out.stage_gap_docs, 0);
        }
    }

    #[test]
    fn exhausted_poison_becomes_explicit_stage_gaps() {
        let plan = FaultPlanConfig {
            poison_chunk_ppm: 500_000,
            max_transient_failures: 3,
            ..FaultPlanConfig::default()
        };
        // Zero retries: every poisoned chunk exhausts.
        let policy = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        };
        let out = run_engine_with_faults(2, 2, plan, policy);
        assert!(out.stage_gap_docs > 0, "poison must surface as gaps");
        let reference = sequential(&corpus());
        assert_eq!(
            out.counters.total, reference.counters.total,
            "failed docs still count as collected"
        );
        assert!(out.counters.classified_dox < reference.counters.classified_dox);
    }
}
