//! A live ingest session: the engine's thread topology and the
//! deterministic commit protocol.
//!
//! ```text
//! caller ──ingest()──▶ [work queue] ──▶ stage workers (×W): classify the
//!                                        chunk, then, under the state lock,
//!                                        reorder by chunk seq and commit
//!                                        per document in stream order:
//!                                        count it, stamp dox_seq, pick the
//!                                        dedup partition by shard_signature,
//!                                        dedup, append to the detected log
//! ```
//!
//! Determinism: the stage is pure, so only the commit state matters. A
//! worker commits through a [`ReorderBuffer`] keyed on the chunk sequence
//! number, so every counter, `dox_seq` stamp, dedup verdict, dedup spill
//! and log append happens in exact ingest order, whichever worker runs
//! the pass. The dedup state is split into `shards` partitions, each
//! owning every document that could ever match each other (see
//! [`crate::dedup::shard_signature`]), so the partitioned verdicts equal
//! one global deduplicator's. The result is byte-identical to one
//! sequential pass for any `(workers, shards)`.
//!
//! De-duplication is a serial pass over the rare classified doxes (about
//! 0.3 % of the paper's stream), so it runs inline on whichever worker
//! releases the next chunk in sequence: a session is its W workers.
//!
//! ## Shared state and checkpoints
//!
//! The commit state lives in one mutex-guarded block rather than
//! thread-local state, so every worker can commit to it and the session
//! can observe it mid-run. Every checkpoint and every live observation
//! goes through a **barrier**: the producer dispatches its partial chunk
//! and records the next chunk sequence number N as the barrier. Commits
//! of chunks below N go on; chunks from N on are staged as usual and
//! wait in the reorder buffer. Once the reorder cursor reaches N the
//! committed state is exactly "every chunk before the barrier", so the
//! producer reads it under the lock (a [`SessionCheckpoint`] persists
//! only the cursor N of the reorder buffer), then lifts the barrier and
//! commits the chunks it held.
//!
//! A [`StoreCheckpoint`](crate::StoreCheckpoint) barrier does not block
//! the producer: it keeps ingesting, checks the cursor at each dispatch,
//! and takes the checkpoint once the cursor has reached N, or waits for
//! it once `queue_depth + workers + 1` chunks were dispatched past N, so
//! the chunks a barrier holds stay bounded. The blocking calls
//! ([`flush`](Session::flush), [`output_snapshot`](Session::output_snapshot),
//! [`checkpoint`](Session::checkpoint)) set a barrier at "now" and wait
//! for it. Workers take the lock only after the stage, never while
//! waiting on a queue, so they never block on each other for longer than
//! one commit pass.
//!
//! A worker that panics, in the stage or mid-commit, closes the work
//! queue as it unwinds, so the producer fails with
//! [`EngineError::Disconnected`] instead of hanging, and
//! [`Session::finish`] reports the panic as [`EngineError::StageFailed`].
//!
//! ## Fault injection
//!
//! When the engine config carries a fault plan
//! ([`EngineConfig::faults`](crate::EngineConfig::faults)), stage workers
//! consult its
//! [`stage_directive`](dox_fault::FaultPlan::stage_directive) per chunk:
//! slow chunks insert cooperative yields (scheduling pressure only —
//! results are unaffected, which the determinism tests verify), poisoned
//! chunks simulate a worker that panics on the chunk some number of times.
//! A poisoned chunk whose failure count exceeds the default retry budget
//! ([`RetryPolicy::default`](dox_fault::RetryPolicy::default)) marks
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
use dox_fault::{FaultPlan, RetryPolicy, StageDirective};
use dox_obs::trace::{fault_hop, hop};
use dox_obs::{Gauge, Histogram, Registry, Tracer};
use dox_sites::collect::CollectedDoc;
use dox_synth::truth::GroundTruth;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the producer waits for the commit cursor to reach a barrier
/// before giving up with [`EngineError::CheckpointStalled`].
const BARRIER_TIMEOUT: Duration = Duration::from_secs(60);

/// A batch of collected documents, stamped with the chunk sequence
/// number the commit pass reorders on. Each document carries its
/// collection period (1 or 2).
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

/// A staged chunk's documents, each paired with its stage outcome.
type StagedItems = Vec<(u8, CollectedDoc, StageOutcome)>;

/// The session's accumulated commit state. The funnel counters are kept
/// in the two halves a [`SessionCheckpoint`] persists: document-level
/// (`doc_counters`) and dedup-level (`dedup_counters`).
#[derive(Default)]
struct CommitState {
    reorder: ReorderBuffer<StagedItems>,
    /// The pending checkpoint barrier: chunks from this sequence number
    /// on wait in the reorder buffer until the producer lifts it.
    hold: Option<u64>,
    doc_counters: PipelineCounters,
    dedup_counters: PipelineCounters,
    dox_seq: u64,
    stage_gap_docs: u64,
    /// One deduplicator per partition, indexed by [`shard_of`].
    dedups: Vec<Deduplicator>,
    detected: Vec<DetectedDox>,
}

/// The commit state plus the condvar signalled after every commit pass,
/// shared by the workers and the session handle so the producer can
/// wait for the commit cursor to reach a barrier.
struct Shared {
    state: Mutex<CommitState>,
    committed: Condvar,
}

/// Lock a mutex, recovering the guard if a panicking thread poisoned it —
/// same policy as [`crate::queue`]: observers prefer the last state over
/// propagating a panic. Quiescence waits still treat a poisoned state
/// lock as a dead worker.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Map a stage worker's panic payload into
/// [`EngineError::StageFailed`], keeping the panic message as the cause.
fn stage_failed(payload: Box<dyn std::any::Any + Send>) -> EngineError {
    let message = payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic payload was not a string".to_string());
    EngineError::StageFailed {
        stage: "stage worker",
        cause: StagePanic(message),
    }
}

/// Why a [`CommitPass`] runs.
enum CommitCall {
    /// A stage worker staged this chunk.
    Staged(u64, StagedItems),
    /// The producer lifts the pending barrier.
    Release,
}

/// The commit pass the stage workers and the producer share.
type CommitPass = dyn Fn(CommitCall) + Send + Sync;

impl CommitState {
    /// The next chunk in sequence, unless it is missing or a barrier
    /// holds it.
    fn pop_committable(&mut self) -> Option<StagedItems> {
        if self.hold.is_some_and(|n| self.reorder.next_seq() >= n) {
            return None;
        }
        self.reorder.pop_ready()
    }
}

/// Closes the work queue when its stage worker unwinds, so the producer's
/// next push fails instead of blocking on a queue nobody drains.
struct CloseOnPanic(Arc<Queue<WorkChunk>>);

impl Drop for CloseOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

/// A running ingest session.
///
/// Created by [`Engine::session_builder`](crate::Engine::session_builder);
/// feed it with [`ingest`](Session::ingest) and close it with
/// [`finish`](Session::finish). The calling thread is the producer: when
/// the work queue is full, `ingest` blocks — that backpressure is what
/// bounds the documents in flight to `(queue_depth + workers + 1) × chunk`
/// regardless of corpus size: `queue_depth` chunks queued, one per stage
/// worker, and the one the producer is filling (a pending checkpoint
/// barrier holds at most as many chunks again, see the
/// [module docs](self)). [`checkpoint`](Session::checkpoint) captures a
/// resumable snapshot mid-stream.
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
    stage_workers: Vec<JoinHandle<()>>,
    commit: Arc<CommitPass>,
    /// The chunk sequence number of the pending checkpoint barrier.
    barrier: Option<u64>,
    /// Chunks the producer dispatches past a pending barrier before it
    /// waits for the barrier: `queue_depth + workers + 1`.
    held_bound: u64,
    queue_depth: Gauge,
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
        // Each partition gets its own store tables; lookups union memory
        // with the store, so attaching the spill after a restore is sound.
        let attach = |shard: usize, mut dedup: Deduplicator| {
            if let Some(cfg) = &spill {
                dedup.attach_spill(DedupSpill::new(
                    Arc::clone(&cfg.store),
                    shard,
                    cfg.cap_entries,
                ));
            }
            dedup
        };
        let work: Arc<Queue<WorkChunk>> = Arc::new(Queue::bounded(config.queue_depth));

        let next_chunk_seq = restore.as_ref().map_or(0, |cp| cp.next_chunk_seq);
        let state = match restore {
            None => CommitState {
                dedups: (0..config.shards)
                    .map(|shard| attach(shard, Deduplicator::new()))
                    .collect(),
                ..CommitState::default()
            },
            // A checkpoint is taken at a barrier: every chunk before it
            // was committed and none after, so only the reorder cursor
            // carries over.
            Some(cp) => CommitState {
                reorder: ReorderBuffer::with_next(cp.next_chunk_seq),
                hold: None,
                doc_counters: cp.doc_counters,
                dedup_counters: cp.dedup_counters,
                dox_seq: cp.dox_seq,
                stage_gap_docs: cp.stage_gap_docs,
                dedups: cp
                    .dedups
                    .into_iter()
                    .enumerate()
                    .map(|(shard, s)| attach(shard, Deduplicator::restore(s)))
                    .collect(),
                detected: cp.detected,
            },
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            committed: Condvar::new(),
        });
        // The one commit pass: each worker runs it after its stage to
        // hand the staged chunk to the reorder buffer, the producer to
        // lift a barrier; either way it then commits every chunk the
        // buffer releases below a pending barrier, in stream order, under
        // the state lock: per document, count it, stamp `dox_seq`, pick
        // the dedup partition by `shard_signature`, dedup, append to the
        // detected log.
        let commit: Arc<CommitPass> = {
            let shared = Arc::clone(&shared);
            let shards = config.shards;
            let collected = registry.counter("pipeline.funnel.collected");
            let classified_dox = registry.counter("pipeline.funnel.classified_dox");
            let duplicates = registry.counter("pipeline.funnel.duplicates");
            let unique = registry.counter("pipeline.funnel.unique");
            let stage_gaps = registry.counter("engine.fault.stage_exhausted_docs");
            let route_ns = registry.histogram("pipeline.stage.route");
            let dedup_ns = registry.histogram("pipeline.stage.dedup");
            let tracer = tracer.clone();
            Arc::new(move |call| {
                let mut guard = lock(&shared.state);
                let state = &mut *guard;
                match call {
                    CommitCall::Staged(seq, items) => state.reorder.push(seq, items),
                    CommitCall::Release => state.hold = None,
                }
                // dox-lint:allow(determinism) route-stage timing histogram; observation only
                let route_start = Instant::now();
                let mut dedup_total = Duration::ZERO;
                while let Some(items) = state.pop_committable() {
                    for (period, doc, outcome) in items {
                        let CollectedDoc { doc, collected_at } = doc;
                        let slot = usize::from(period - 1);
                        state.doc_counters.total += 1;
                        state.doc_counters.per_period[slot] += 1;
                        state.doc_counters.count_source(doc.source.name());
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
                        state.doc_counters.classified_dox += 1;
                        state.doc_counters.dox_per_period[slot] += 1;
                        classified_dox.inc();
                        let dox_seq = state.dox_seq;
                        state.dox_seq += 1;
                        let sig = shard_signature(&text, &extracted);
                        let shard = shard_of(sig, shards);
                        let sampled = tracer.sampled(doc.id);
                        if sampled {
                            // The hop carries the partition *signature*, not its
                            // index: the signature is a pure function of content,
                            // so traces stay byte-identical across shard counts.
                            tracer.hop(
                                doc.id,
                                hop(
                                    "route",
                                    collected_at.0,
                                    format!("sig={sig:016x} dox_seq={dox_seq}"),
                                ),
                            );
                        }
                        // dox-lint:allow(determinism) dedup latency histogram; never enters the report
                        let dedup_start = Instant::now();
                        let duplicate = state.dedups[shard].check(doc.id, &text, &extracted);
                        let elapsed = dedup_start.elapsed();
                        dedup_total += elapsed;
                        dedup_ns.observe_duration(elapsed);
                        if sampled {
                            let (note, fate) = match &duplicate {
                                None => ("unique".to_string(), "unique"),
                                Some((kind, of)) => {
                                    (format!("duplicate kind={kind:?} of={of}"), "duplicate")
                                }
                            };
                            tracer.hop(doc.id, hop("dedup", collected_at.0, note));
                            tracer.hop(
                                doc.id,
                                hop(
                                    "commit",
                                    collected_at.0,
                                    format!("dox_seq={dox_seq} {fate}"),
                                ),
                            );
                        }
                        match duplicate {
                            Some((kind, _)) => {
                                state.dedup_counters.duplicates_per_period[slot] += 1;
                                duplicates.inc();
                                match kind {
                                    DuplicateKind::ExactBody => {
                                        state.dedup_counters.exact_duplicates += 1
                                    }
                                    DuplicateKind::AccountSet => {
                                        state.dedup_counters.account_set_duplicates += 1
                                    }
                                }
                            }
                            None => unique.inc(),
                        }
                        state.detected.push(DetectedDox {
                            doc_id: doc.id,
                            source: doc.source,
                            period,
                            posted_at: doc.posted_at,
                            observed_at: collected_at,
                            text,
                            extracted,
                            duplicate,
                            truth: match doc.truth {
                                GroundTruth::Dox(t) => Some(t),
                                GroundTruth::Paste { .. } => None,
                            },
                        });
                    }
                }
                drop(guard);
                shared.committed.notify_all();
                route_ns.observe_duration(route_start.elapsed().saturating_sub(dedup_total));
            })
        };

        let stage_metrics = StageMetrics::resolve(registry);
        registry.gauge("engine.workers").set(config.workers as i64);
        registry.gauge("engine.shards").set(config.shards as i64);

        let fault_plan: Option<FaultPlan> = config.faults.clone().map(FaultPlan::new);
        let max_retries = RetryPolicy::default().max_retries;

        let stage_workers = (0..config.workers)
            .map(|_| {
                let work = Arc::clone(&work);
                let commit = Arc::clone(&commit);
                let classifier = Arc::clone(&classifier);
                let stage_metrics = stage_metrics.clone();
                let fault_plan = fault_plan.clone();
                let tracer = tracer.clone();
                let slow_chunks = registry.counter("engine.fault.slow_chunks");
                let poisoned_chunks = registry.counter("engine.fault.poisoned_chunks");
                let stage_retries = registry.counter("engine.fault.stage_retries");
                std::thread::spawn(move || {
                    let _close_on_panic = CloseOnPanic(Arc::clone(&work));
                    while let Some(chunk) = work.pop() {
                        let mut exhausted = false;
                        // The chunk's fault weather, kept so sampled
                        // documents can carry a `stage_fault` hop:
                        // (attempts the simulated supervisor made, note).
                        let mut fault_event: Option<(u32, String)> = None;
                        if let Some(plan) = &fault_plan {
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
                                    if failures > max_retries {
                                        // The commit pass counts the
                                        // lost documents, once each.
                                        exhausted = true;
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
                                // The commit pass never reads the body, and
                                // a dox's text already travels in its
                                // outcome, so early arrivals wait in the
                                // reorder buffer without it.
                                doc.doc.body = String::new();
                                (period, doc, outcome)
                            })
                            .collect();
                        timings.merge_into(&stage_metrics);
                        commit(CommitCall::Staged(chunk.seq, items));
                    }
                })
            })
            .collect();

        Self {
            chunk: config.chunk,
            shards: config.shards,
            next_chunk_seq,
            buf: Vec::with_capacity(config.chunk),
            shared,
            work,
            stage_workers,
            commit,
            barrier: None,
            held_bound: (config.queue_depth + config.workers + 1) as u64,
            queue_depth: registry.gauge("engine.queue.depth"),
            stall_ns: registry.histogram("engine.queue.stall_ns"),
            tracer: tracer.clone(),
        }
    }

    /// Feed one collected document from the given period (1 or 2) into
    /// the engine. Blocks when the work queue is full (backpressure), and
    /// fails with [`EngineError::Disconnected`] once a stage worker died.
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
                    self.stall_ns.observe_duration(pushed.stalled_for);
                }
                Ok(())
            }
            Err(_) => Err(EngineError::Disconnected),
        }
    }

    /// Dispatch the buffered partial chunk and set a checkpoint barrier
    /// after it: every chunk dispatched from now on waits in the reorder
    /// buffer until [`release_barrier`](Session::release_barrier).
    ///
    /// # Errors
    /// [`EngineError::BarrierPending`] while another barrier is pending;
    /// [`EngineError::Disconnected`] if a stage worker died.
    pub(crate) fn set_barrier(&mut self) -> Result<(), EngineError> {
        if self.barrier.is_some() {
            return Err(EngineError::BarrierPending);
        }
        self.dispatch()?;
        lock(&self.shared.state).hold = Some(self.next_chunk_seq);
        self.barrier = Some(self.next_chunk_seq);
        Ok(())
    }

    /// Whether the pending barrier is ready to be taken, checked once
    /// the producer has just dispatched: the commit cursor has reached
    /// it, or the chunks dispatched past it reached `held_bound` and the
    /// producer must wait for it before dispatching more.
    pub(crate) fn barrier_due(&self) -> bool {
        match self.barrier {
            Some(seq) if self.buf.is_empty() => {
                self.next_chunk_seq - seq >= self.held_bound
                    || lock(&self.shared.state).reorder.next_seq() >= seq
            }
            _ => false,
        }
    }

    /// Wait until the commit cursor reaches the pending barrier — every
    /// chunk before it committed, none after — and return the committed
    /// state, still locked, with the barrier's chunk sequence number.
    fn wait_for_barrier(&self) -> Result<(MutexGuard<'_, CommitState>, u64), EngineError> {
        let seq = self.barrier.ok_or(EngineError::CheckpointStalled)?;
        // dox-lint:allow(determinism) wall-clock deadline guards liveness of the wait only; it never shapes results
        let deadline = Instant::now() + BARRIER_TIMEOUT;
        let mut state = lock(&self.shared.state);
        loop {
            // A dead worker first: one that died mid-commit may have moved
            // the cursor past a half-applied chunk, and it poisons the
            // state lock before its thread finishes.
            if self.shared.state.is_poisoned()
                || self.stage_workers.iter().any(JoinHandle::is_finished)
            {
                return Err(EngineError::Disconnected);
            }
            if state.reorder.next_seq() == seq {
                return Ok((state, seq));
            }
            // dox-lint:allow(determinism) liveness deadline, see above
            if Instant::now() >= deadline {
                return Err(EngineError::CheckpointStalled);
            }
            let (guard, _) = self
                .shared
                .committed
                .wait_timeout(state, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
        }
    }

    /// Wait for the pending barrier, then hand `f` the snapshot at the
    /// barrier *without* its detected log plus the committed log itself,
    /// borrowed under the state lock. The store encoder serializes only
    /// the log's new tail from the borrow instead of cloning the whole
    /// log. The barrier stays set: later chunks stay held until
    /// [`release_barrier`](Session::release_barrier).
    pub(crate) fn at_barrier<R>(
        &self,
        f: impl FnOnce(SessionCheckpoint, &[DetectedDox]) -> R,
    ) -> Result<R, EngineError> {
        let (state, seq) = self.wait_for_barrier()?;
        let checkpoint = SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            shards: self.shards,
            next_chunk_seq: seq,
            dox_seq: state.dox_seq,
            doc_counters: state.doc_counters.clone(),
            stage_gap_docs: state.stage_gap_docs,
            dedup_counters: state.dedup_counters.clone(),
            detected: Vec::new(),
            dedups: state.dedups.iter().map(Deduplicator::snapshot).collect(),
        };
        Ok(f(checkpoint, &state.detected))
    }

    /// Lift the pending barrier, if any, and commit the chunks it held.
    pub(crate) fn release_barrier(&mut self) {
        if self.barrier.take().is_some() {
            (self.commit)(CommitCall::Release);
        }
    }

    /// Set a barrier at "now", wait for everything ingested so far to
    /// commit, and read the committed state under the lock. Nothing is
    /// dispatched past the barrier while this runs, so lifting it
    /// commits nothing.
    fn at_now<R>(&mut self, f: impl FnOnce(&CommitState) -> R) -> Result<R, EngineError> {
        self.set_barrier()?;
        let read = self.wait_for_barrier().map(|(state, _)| f(&state));
        self.release_barrier();
        read
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
    /// [`EngineError::Disconnected`] if a stage worker died,
    /// [`EngineError::CheckpointStalled`] if the pipeline failed to
    /// commit within the barrier deadline, or
    /// [`EngineError::BarrierPending`] while a
    /// [`StoreCheckpoint`](crate::StoreCheckpoint) barrier is pending.
    pub fn flush(&mut self) -> Result<(), EngineError> {
        self.at_now(|_| ())
    }

    /// How many classified doxes have been committed so far (unique and
    /// duplicate alike). Use as the cursor for
    /// [`detected_since`](Session::detected_since). Monotonic; resumed
    /// sessions count their restored log too.
    pub fn committed_len(&self) -> usize {
        lock(&self.shared.state).detected.len()
    }

    /// Clone the committed detected-dox log from `since` (a previous
    /// [`committed_len`](Session::committed_len) reading) onward. Call
    /// after [`flush`](Session::flush) for a stable read; between flushes
    /// the log only ever grows, so a cursor never skips entries.
    pub fn detected_since(&self, since: usize) -> Vec<DetectedDox> {
        let state = lock(&self.shared.state);
        state.detected.get(since..).unwrap_or_default().to_vec()
    }

    /// Flush, then clone the full [`PipelineOutput`] as of everything
    /// ingested so far — the live-session counterpart of
    /// [`finish`](Session::finish), leaving the stream open. The clone is
    /// byte-identical to what `finish` would return right now.
    ///
    /// # Errors
    /// Propagates [`flush`](Session::flush) errors.
    pub fn output_snapshot(&mut self) -> Result<PipelineOutput, EngineError> {
        self.at_now(|state| {
            let mut counters = state.doc_counters.clone();
            counters.absorb(&state.dedup_counters);
            PipelineOutput {
                detected: state.detected.clone(),
                counters,
                stage_gap_docs: state.stage_gap_docs,
            }
        })
    }

    /// Capture a resumable snapshot of the session without closing it.
    ///
    /// Sets a barrier after everything ingested so far (dispatching the
    /// buffered partial chunk; chunk boundaries never affect results),
    /// waits for it, then snapshots the committed state. Feed the
    /// snapshot to
    /// [`SessionBuilder::resume_from`](crate::SessionBuilder::resume_from)
    /// to continue the stream in a later process; replaying the remaining
    /// documents yields output byte-identical to the uninterrupted run.
    ///
    /// # Errors
    /// Like [`flush`](Session::flush).
    pub fn checkpoint(&mut self) -> Result<SessionCheckpoint, EngineError> {
        self.set_barrier()?;
        let snapshot = self.at_barrier(|mut checkpoint, detected| {
            checkpoint.detected = detected.to_vec();
            checkpoint
        });
        self.release_barrier();
        snapshot
    }

    /// Close the stream and wait for every stage to drain, returning the
    /// combined output. The result is byte-identical to a sequential pass
    /// over the same documents in the same order.
    ///
    /// # Errors
    /// [`EngineError::StageFailed`] with the panic message if a stage
    /// worker died.
    pub fn finish(mut self) -> Result<PipelineOutput, EngineError> {
        // A failed dispatch means a worker died: join every worker first,
        // so the error carries its panic rather than a bare `Disconnected`.
        let dispatched = self.dispatch();
        self.work.close();
        let joined: Vec<_> = self.stage_workers.drain(..).map(JoinHandle::join).collect();
        for result in joined {
            result.map_err(stage_failed)?;
        }
        dispatched?;
        // A barrier its checkpoint never took is dropped: commit what it
        // held.
        self.release_barrier();
        let state = std::mem::take(&mut *lock(&self.shared.state));
        let mut counters = state.doc_counters;
        counters.absorb(&state.dedup_counters);
        self.queue_depth.set(0);
        Ok(PipelineOutput {
            detected: state.detected,
            counters,
            stage_gap_docs: state.stage_gap_docs,
        })
    }
}

impl Drop for Session {
    /// Closing the work queue lets the workers exit if the session is
    /// dropped without [`finish`](Session::finish); they are then
    /// detached, not joined.
    fn drop(&mut self) {
        self.work.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::StoreCheckpoint;
    use crate::Engine;
    use dox_fault::FaultPlanConfig;
    use dox_osn::clock::SimTime;
    use dox_store::Store;
    use dox_synth::corpus::{Source, SynthDoc};
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
            let duplicate = dedup.check(collected.doc.id, &text, &extracted);
            if let Some((kind, _)) = duplicate {
                out.counters.duplicates_per_period[slot] += 1;
                match kind {
                    DuplicateKind::ExactBody => out.counters.exact_duplicates += 1,
                    DuplicateKind::AccountSet => out.counters.account_set_duplicates += 1,
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
        let engine = Engine::from_config(EngineConfig {
            workers,
            shards,
            queue_depth: 2,
            chunk,
            ..EngineConfig::default()
        })
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
        let engine = Engine::from_config(EngineConfig::default()).expect("default config");
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
        let engine = Engine::from_config(EngineConfig {
            workers: 2,
            shards: 2,
            ..EngineConfig::default()
        })
        .unwrap();
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
    fn a_credit_line_after_a_length_changing_lowercase_commits() {
        // `İ` lowercases to more bytes than it holds; the credit parser
        // must not slice the text at offsets from a lowercased copy.
        let engine = Engine::from_config(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        })
        .unwrap();
        let registry = Registry::new();
        let mut session = start(&engine, &registry);
        let body = "a dox fb: someone\nİ dropped by éé\n";
        session.ingest(1, doc(1, body)).unwrap();
        session.flush().expect("the stage worker survives");
        let out = session.finish().expect("the session finishes");
        assert_eq!(out.detected.len(), 1);
        assert_eq!(out.detected[0].text, body);
    }

    #[test]
    fn dropping_a_session_does_not_hang() {
        let engine = Engine::from_config(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        })
        .unwrap();
        let registry = Registry::new();
        let mut session = start(&engine, &registry);
        session.ingest(1, doc(1, "a dox fb: someone")).unwrap();
        drop(session);
    }

    /// A detector that panics on one body and flags nothing else.
    struct PanickingDetector;

    impl DoxDetector for PanickingDetector {
        fn is_dox(&self, text: &str) -> bool {
            if text == "poison" {
                panic!("detector choked on the poison body");
            }
            false
        }
    }

    #[test]
    fn a_dead_worker_fails_the_session_instead_of_hanging() {
        for workers in [1, 2] {
            let (tx, rx) = std::sync::mpsc::channel();
            // A regression wedges the session, so it runs on a helper
            // thread that the test abandons after the deadline.
            std::thread::spawn(move || {
                let engine = Engine::from_config(EngineConfig {
                    workers,
                    queue_depth: 1,
                    chunk: 1,
                    ..EngineConfig::default()
                })
                .expect("valid config");
                let registry = Registry::new();
                let mut session = engine
                    .session_builder()
                    .detector(Arc::new(PanickingDetector))
                    .registry(&registry)
                    .start()
                    .expect("detector set");
                let fed = (0..50u64)
                    .try_for_each(|i| {
                        session.ingest(1, doc(i, if i == 10 { "poison" } else { "paste" }))
                    })
                    .and_then(|()| session.flush());
                let _ = tx.send((fed, session.finish().map(drop)));
            });
            let (fed, finished) = rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("workers({workers}): session hung on a dead worker"));
            assert_eq!(fed, Err(EngineError::Disconnected), "workers({workers})");
            match finished {
                Err(EngineError::StageFailed { stage, cause }) => {
                    assert_eq!(stage, "stage worker");
                    assert!(cause.0.contains("poison body"), "cause: {cause}");
                }
                other => panic!("workers({workers}): expected StageFailed, got {other:?}"),
            }
        }
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_to_uninterrupted() {
        let reference = sequential(&corpus());
        for (workers, shards) in [(1usize, 1usize), (4, 8)] {
            let build = || {
                Engine::from_config(EngineConfig {
                    workers,
                    shards,
                    queue_depth: 2,
                    chunk: 16,
                    ..EngineConfig::default()
                })
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
        let engine = Engine::from_config(EngineConfig {
            workers: 3,
            shards: 4,
            chunk: 16,
            ..EngineConfig::default()
        })
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
        let engine = Engine::from_config(EngineConfig {
            workers: 2,
            shards: 3,
            chunk: 16,
            ..EngineConfig::default()
        })
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

    /// A keyword detector that blocks on the body "gate" until the test
    /// opens it.
    struct GatedDetector(Arc<(Mutex<bool>, Condvar)>);

    impl DoxDetector for GatedDetector {
        fn is_dox(&self, text: &str) -> bool {
            if text == "gate" {
                let (open, changed) = &*self.0;
                let mut open = lock(open);
                while !*open {
                    open = changed.wait(open).unwrap_or_else(PoisonError::into_inner);
                }
            }
            KeywordDetector.is_dox(text)
        }
    }

    #[test]
    fn a_pending_barrier_holds_a_bounded_number_of_chunks() {
        // Chunk 0 carries the gate, so the commit cursor cannot reach a
        // barrier at chunk 1 while the gate is shut: the producer must
        // stop dispatching once queue_depth + workers + 1 chunks wait
        // past the barrier, and only then wait for it.
        let mut docs = corpus();
        docs[3].1.doc.body = "gate".to_string();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let engine = Engine::from_config(EngineConfig {
            workers: 2,
            shards: 2,
            queue_depth: 2,
            chunk: 4,
            ..EngineConfig::default()
        })
        .expect("valid config");
        let registry = Registry::new();
        let mut session = engine
            .session_builder()
            .detector(Arc::new(GatedDetector(Arc::clone(&gate))))
            .registry(&registry)
            .start()
            .expect("detector set");
        assert_eq!(session.held_bound, 5);
        for (period, doc) in &docs[..4] {
            session.ingest(*period, doc.clone()).expect("valid");
        }
        session.set_barrier().expect("no barrier pending");
        assert_eq!(session.barrier, Some(1));
        assert_eq!(session.flush(), Err(EngineError::BarrierPending));
        // Open the gate only once every chunk the producer may dispatch
        // past the barrier is staged and held (each staged chunk signals
        // `committed`), or after a deadline.
        let opener = {
            let (shared, gate, bound) = (
                Arc::clone(&session.shared),
                Arc::clone(&gate),
                session.held_bound,
            );
            std::thread::spawn(move || {
                let mut state = lock(&shared.state);
                while (state.reorder.pending() as u64) < bound {
                    let (guard, waited) = shared
                        .committed
                        .wait_timeout(state, Duration::from_secs(10))
                        .unwrap_or_else(PoisonError::into_inner);
                    state = guard;
                    if waited.timed_out() {
                        break;
                    }
                }
                drop(state);
                *lock(&gate.0) = true;
                gate.1.notify_all();
            })
        };
        let (mut peak, mut taken) = (0, false);
        for (period, doc) in &docs[4..] {
            session.ingest(*period, doc.clone()).expect("valid");
            if let Some(seq) = session.barrier {
                peak = peak.max(session.next_chunk_seq - seq);
                if session.barrier_due() {
                    let held = lock(&session.shared.state).reorder.pending() as u64;
                    assert!(held <= session.held_bound, "{held} chunks held");
                    let at = session.at_barrier(|cp, _| cp.next_chunk_seq);
                    assert_eq!(at, Ok(1), "the checkpoint covers chunk 0 only");
                    session.release_barrier();
                    taken = true;
                }
            }
        }
        opener.join().expect("opener");
        assert!(taken, "the barrier was taken");
        assert_eq!(peak, session.held_bound, "dispatch stops at the bound");
        let out = session.finish().expect("drains");
        assert_same(&out, &sequential(&docs));
    }

    #[test]
    fn resume_rejects_mismatched_shard_count() {
        let engine = Engine::from_config(EngineConfig {
            workers: 1,
            shards: 2,
            chunk: 8,
            ..EngineConfig::default()
        })
        .unwrap();
        let registry = Registry::new();
        let mut session = start(&engine, &registry);
        session.ingest(1, doc(1, "a dox fb: someone")).unwrap();
        let snapshot = session.checkpoint().expect("quiesces");
        drop(session);
        let other = Engine::from_config(EngineConfig {
            workers: 1,
            shards: 3,
            chunk: 8,
            ..EngineConfig::default()
        })
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

    #[test]
    fn spilling_store_bytes_are_identical_across_worker_counts() {
        // Spill puts and checkpoint rows are segment bytes, so the store a
        // run leaves behind must be a pure function of the stream too.
        let store_files = |workers: usize| -> Vec<(std::ffi::OsString, Vec<u8>)> {
            let dir = std::env::temp_dir().join(format!(
                "dox_session_spill_{}_w{workers}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let registry = Registry::new();
            let store = Arc::new(Store::open(&dir, &registry).expect("open store"));
            let engine = Engine::from_config(EngineConfig {
                workers,
                shards: 3,
                queue_depth: 2,
                chunk: 16,
                ..EngineConfig::default()
            })
            .expect("valid config");
            let mut session = engine
                .session_builder()
                .detector(Arc::new(KeywordDetector))
                .registry(&registry)
                .spill(DedupSpillConfig {
                    store: Arc::clone(&store),
                    cap_entries: 2,
                })
                .start()
                .expect("detector set");
            let mut checkpoint = StoreCheckpoint::new(Arc::clone(&store), "checkpoint");
            let docs = corpus();
            let cut = 97; // mid-chunk on purpose
            for (i, (period, doc)) in docs.iter().enumerate() {
                session.ingest(*period, doc.clone()).expect("valid");
                if i + 1 == cut || i + 1 == docs.len() {
                    checkpoint
                        .stage(&mut session, 7, i as u64 + 1)
                        .expect("stages");
                    store.checkpoint().expect("commits");
                }
            }
            session.finish().expect("drains");
            drop(checkpoint);
            drop(store);
            let mut files: Vec<_> = std::fs::read_dir(&dir)
                .expect("store dir")
                .map(|entry| {
                    let path = entry.expect("dir entry").path();
                    let name = path.file_name().expect("file name").to_owned();
                    (name, std::fs::read(&path).expect("store file"))
                })
                .collect();
            files.sort();
            let _ = std::fs::remove_dir_all(&dir);
            files
        };
        let single = store_files(1);
        assert!(single.len() >= 2, "a manifest and at least one segment");
        assert!(
            single == store_files(4),
            "store bytes must not depend on the worker count"
        );
    }

    fn run_engine_with_faults(
        workers: usize,
        shards: usize,
        plan: FaultPlanConfig,
        registry: &Registry,
    ) -> PipelineOutput {
        let engine = Engine::from_config(EngineConfig {
            workers,
            shards,
            queue_depth: 2,
            chunk: 16,
            faults: Some(plan),
        })
        .expect("valid config");
        let mut session = start(&engine, registry);
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
            let out = run_engine_with_faults(workers, shards, plan.clone(), &Registry::new());
            assert_same(&out, &reference);
            assert_eq!(out.stage_gap_docs, 0);
        }
    }

    #[test]
    fn exhausted_poison_becomes_explicit_stage_gaps() {
        // Poison counts in 1..=12 outlast the default budget of five
        // retries in over half the poisoned chunks.
        let plan = FaultPlanConfig {
            poison_chunk_ppm: 500_000,
            max_transient_failures: 12,
            ..FaultPlanConfig::default()
        };
        let registry = Registry::new();
        let out = run_engine_with_faults(2, 2, plan, &registry);
        assert!(out.stage_gap_docs > 0, "poison must surface as gaps");
        assert_eq!(
            registry.counter("engine.fault.stage_exhausted_docs").get(),
            out.stage_gap_docs,
            "each lost document is counted once"
        );
        let reference = sequential(&corpus());
        assert_eq!(
            out.counters.total, reference.counters.total,
            "failed docs still count as collected"
        );
        assert!(out.counters.classified_dox < reference.counters.classified_dox);
    }
}
