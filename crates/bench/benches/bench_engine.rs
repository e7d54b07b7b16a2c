//! Streaming ingest engine overheads: the `dox-engine` session at one
//! pinned topology, plain and with the fault plan, tracing and the
//! store-backed dedup armed, over one pre-collected two-period corpus.
//! Before anything is timed, the engine is checked against the
//! sequential reference `Pipeline` at several worker/shard topologies.
//!
//! Besides the usual stdout report, the fastest pass of each
//! configuration is recorded into `BENCH_engine.json` at the workspace
//! root, where `scripts/trace_overhead_gate.sh` and
//! `scripts/store_overhead_gate.sh` read it. End-to-end throughput is
//! measured by perfbench, not here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dox_bench::BenchFixture;
use dox_core::pipeline::Pipeline;
use dox_core::training::DoxClassifier;
use dox_engine::{DedupSpillConfig, DoxDetector, Engine, EngineConfig, StoreCheckpoint};
use dox_fault::FaultPlanConfig;
use dox_obs::{Registry, TraceConfig, Tracer};
use dox_sites::collect::{CollectedDoc, Collector};
use dox_store::Store;
use std::hint::black_box;
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const SCALE: f64 = 0.01;
/// Topologies the engine must agree with the reference at.
const TOPOLOGIES: [(usize, usize); 4] = [(1, 1), (1, 8), (2, 8), (4, 8)];
/// The one timed topology: every `BENCH_engine.json` row runs at it.
const TIMED_TOPOLOGY: (usize, usize) = (4, 8);
/// In-memory dedup entries per shard before spilling to the store —
/// far below the corpus size, so every shard actually pages out.
const STORE_SPILL_CAP: usize = 4_096;
/// Documents between durable store checkpoints in the store-backed run.
const STORE_CHECKPOINT_EVERY: usize = 4_096;

struct EngineFixture {
    classifier: Arc<DoxClassifier>,
    docs: Vec<(u8, CollectedDoc)>,
    seed: u64,
}

impl EngineFixture {
    fn build() -> Self {
        let fixture = BenchFixture::new();
        let mut gen = fixture.generator(SCALE);
        let (texts, labels) = gen.training_sets();
        let (classifier, _) = DoxClassifier::train(&texts, &labels, fixture.seed);
        let mut docs = Vec::new();
        let mut collector = Collector::new(fixture.seed);
        for period in [1u8, 2] {
            let _ = collector.collect_period(&mut gen, period, &mut |c| {
                docs.push((period, c));
                ControlFlow::Continue(())
            });
        }
        Self {
            classifier: Arc::new(classifier),
            docs,
            seed: fixture.seed,
        }
    }

    fn run_engine(&self, workers: usize, shards: usize) -> usize {
        self.run_engine_inner(workers, shards, None)
    }

    /// The same ingest with the fault layer armed but injecting nothing:
    /// measures the pure bookkeeping overhead of consulting the plan on
    /// every chunk (the price every resilient run pays, faults or not).
    fn run_engine_healthy_plan(&self, workers: usize, shards: usize) -> usize {
        self.run_engine_inner(workers, shards, Some(FaultPlanConfig::healthy()))
    }

    /// Every row starts its session on a fresh [`Registry`], as the
    /// trace and store rows do, so no row records into metrics an
    /// earlier pass left behind.
    fn run_engine_inner(
        &self,
        workers: usize,
        shards: usize,
        faults: Option<FaultPlanConfig>,
    ) -> usize {
        let engine = Engine::from_config(EngineConfig {
            workers,
            shards,
            faults,
            ..EngineConfig::default()
        })
        .expect("valid engine config");
        let detector: Arc<dyn DoxDetector> = self.classifier.clone();
        let registry = Registry::new();
        let mut session = engine
            .session_builder()
            .detector(detector)
            .registry(&registry)
            .start()
            .expect("detector set");
        for (period, doc) in &self.docs {
            session.ingest(*period, doc.clone()).expect("engine up");
        }
        session
            .finish()
            .expect("engine finishes")
            .unique_doxes()
            .count()
    }

    /// The same ingest with a tracer armed: `sample_ppm = 0` measures the
    /// disabled fast path (one relaxed atomic load per stage), anything
    /// else the cost of actually recording hops for that share of docs.
    fn run_engine_traced(&self, workers: usize, shards: usize, sample_ppm: u32) -> usize {
        let engine = Engine::from_config(EngineConfig {
            workers,
            shards,
            ..EngineConfig::default()
        })
        .expect("valid engine config");
        let detector: Arc<dyn DoxDetector> = self.classifier.clone();
        let tracer = if sample_ppm == 0 {
            Tracer::disabled()
        } else {
            Tracer::new(TraceConfig {
                seed: self.seed,
                sample_ppm,
                capacity: 4096,
            })
        };
        let registry = Registry::new();
        let mut session = engine
            .session_builder()
            .detector(detector)
            .registry(&registry)
            .tracer(&tracer)
            .start()
            .expect("detector set");
        for (period, doc) in &self.docs {
            session.ingest(*period, doc.clone()).expect("engine up");
        }
        session
            .finish()
            .expect("engine finishes")
            .unique_doxes()
            .count()
    }

    /// The same ingest with dedup shards spilling to the crash-safe
    /// segment store and a durable checkpoint (barrier, stage the
    /// [`StoreCheckpoint`] rows and header, commit) every
    /// [`STORE_CHECKPOINT_EVERY`] documents — the full price of
    /// store-backed durability. Leaves the populated store in `dir` so
    /// [`EngineFixture::store_resume_seconds`] can measure reopen cost.
    fn run_engine_store(&self, workers: usize, shards: usize, dir: &Path) -> usize {
        let _ = std::fs::remove_dir_all(dir);
        let registry = Registry::new();
        let store = Arc::new(Store::open(dir, &registry).expect("store opens"));
        let mut checkpoint = StoreCheckpoint::new(Arc::clone(&store), "bench");
        let engine = Engine::from_config(EngineConfig {
            workers,
            shards,
            ..EngineConfig::default()
        })
        .expect("valid engine config");
        let detector: Arc<dyn DoxDetector> = self.classifier.clone();
        let mut session = engine
            .session_builder()
            .detector(detector)
            .registry(&registry)
            .spill(DedupSpillConfig {
                store: Arc::clone(&store),
                cap_entries: STORE_SPILL_CAP,
            })
            .start()
            .expect("detector set");
        for (i, (period, doc)) in self.docs.iter().enumerate() {
            session.ingest(*period, doc.clone()).expect("engine up");
            if (i + 1) % STORE_CHECKPOINT_EVERY == 0 {
                checkpoint
                    .stage(&mut session, self.seed, i as u64 + 1)
                    .expect("checkpoint stages");
                store.checkpoint().expect("store commits");
            }
        }
        session
            .finish()
            .expect("engine finishes")
            .unique_doxes()
            .count()
    }

    /// Fastest seconds to stand a session back up from the store left
    /// by [`EngineFixture::run_engine_store`]: open + recover the
    /// store, load the checkpoint header and detected rows, resume the
    /// engine session. This is the path a `--resume` run takes instead
    /// of re-ingesting the corpus.
    fn store_resume_seconds(
        &self,
        samples: usize,
        workers: usize,
        shards: usize,
        dir: &Path,
    ) -> f64 {
        (0..samples)
            .map(|_| {
                let start = Instant::now();
                let registry = Registry::new();
                let store = Arc::new(Store::open(dir, &registry).expect("store reopens"));
                let checkpoint = StoreCheckpoint::new(Arc::clone(&store), "bench")
                    .load(self.seed)
                    .expect("checkpoint loads")
                    .expect("checkpoint exists")
                    .session;
                let engine = Engine::from_config(EngineConfig {
                    workers,
                    shards,
                    ..EngineConfig::default()
                })
                .expect("valid engine config");
                let detector: Arc<dyn DoxDetector> = self.classifier.clone();
                let session = engine
                    .session_builder()
                    .detector(detector)
                    .registry(&registry)
                    .spill(DedupSpillConfig {
                        store,
                        cap_entries: STORE_SPILL_CAP,
                    })
                    .resume_from(checkpoint)
                    .start()
                    .expect("session resumes");
                black_box(&session);
                drop(session);
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }

    fn run_reference(&self) -> usize {
        let mut pipeline = Pipeline::new((*self.classifier).clone());
        for (period, doc) in &self.docs {
            pipeline.process(doc, *period);
        }
        pipeline.unique_doxes().count()
    }

    /// Seconds of one full-corpus pass of `run`.
    fn time_once(&self, run: &mut impl FnMut(&Self) -> usize) -> f64 {
        let start = Instant::now();
        black_box(run(self));
        start.elapsed().as_secs_f64()
    }

    /// Fastest seconds per pass of `run` and of the plain engine at
    /// `(workers, shards)` over `samples` pairs of passes, each pair one
    /// plain pass then one `run` pass. Both sides are timed under the same
    /// ambient load, so a burst of interference slows both minima instead
    /// of only one, and the ratio of the two is the row's overhead. The
    /// overhead gates want this low-noise statistic, not the median.
    fn time_min_against_plain(
        &self,
        samples: usize,
        (workers, shards): (usize, usize),
        mut run: impl FnMut(&Self) -> usize,
    ) -> (f64, f64) {
        let mut plain = |f: &Self| f.run_engine(workers, shards);
        (0..samples).fold((f64::INFINITY, f64::INFINITY), |(p, r), _| {
            (
                p.min(self.time_once(&mut plain)),
                r.min(self.time_once(&mut run)),
            )
        })
    }
}

/// Record the fastest passes where commit history can see them.
fn write_json(fixture: &EngineFixture, samples: usize) {
    let samples = std::env::var("DOX_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(samples);
    let docs = fixture.docs.len();
    // Every compared row is timed in alternation with its own plain
    // passes (see `time_min_against_plain`) and priced against them; the
    // plain row reports the fastest plain pass of them all.
    let (tw, ts) = TIMED_TOPOLOGY;
    let mut fastest_plain = f64::INFINITY;
    let mut rows = Vec::new();
    let mut compared = |label: &str, overhead: &str, run: &dyn Fn(&EngineFixture) -> usize| {
        let (plain, t) = fixture.time_min_against_plain(samples, TIMED_TOPOLOGY, run);
        fastest_plain = fastest_plain.min(plain);
        rows.push(format!(
            "    {{ \"config\": \"engine w{tw} s{ts} {label}\", \"workers\": {tw}, \
             \"shards\": {ts}, \"timer\": \"min\", \"seconds\": {t:.6}, \
             \"docs_per_sec\": {:.0}, \"plain_seconds\": {plain:.6}, \"{overhead}\": {:.3} }}",
            docs as f64 / t,
            t / plain
        ));
        t
    };
    // The fault layer armed with an all-healthy plan: the overhead of
    // resilience when nothing goes wrong (contract: within a few percent
    // of the plain engine).
    compared("healthy-plan", "overhead_vs_no_plan", &|f| {
        f.run_engine_healthy_plan(tw, ts)
    });
    // Tracing overhead: disabled must price out at zero
    // (scripts/trace_overhead_gate.sh holds it within 2% of the
    // pre-tracing baseline) and 1% sampling at low single digits.
    for (label, ppm) in [("trace-off", 0u32), ("trace-1pct", 10_000)] {
        compared(label, "overhead_vs_plain", &|f| {
            f.run_engine_traced(tw, ts, ppm)
        });
    }
    // Store-backed dedup + durable checkpoints:
    // scripts/store_overhead_gate.sh holds this within 10% of the plain
    // engine, and the resume row records the O(checkpoint) restart the
    // store buys.
    let store_dir = std::env::temp_dir().join(format!("dox_bench_store_{}", std::process::id()));
    let t_store = compared("store-dedup", "overhead_vs_plain", &|f| {
        f.run_engine_store(tw, ts, &store_dir)
    });
    let mut entries = vec![format!(
        "    {{ \"config\": \"engine w{tw} s{ts}\", \"workers\": {tw}, \"shards\": {ts}, \
         \"timer\": \"min\", \"seconds\": {fastest_plain:.6}, \"docs_per_sec\": {:.0} }}",
        docs as f64 / fastest_plain
    )];
    entries.append(&mut rows);
    let t_resume = fixture.store_resume_seconds(samples, tw, ts, &store_dir);
    entries.push(format!(
        "    {{ \"config\": \"engine w{tw} s{ts} store-resume\", \"workers\": {tw}, \
         \"shards\": {ts}, \"timer\": \"min\", \"seconds\": {t_resume:.6}, \
         \"resume_vs_full_run\": {:.3} }}",
        t_resume / t_store
    ));
    let _ = std::fs::remove_dir_all(&store_dir);
    let json = format!(
        "{{\n  \"bench\": \"engine_ingest\",\n  \"scale\": {SCALE},\n  \"documents\": {docs},\n  \
         \"hardware_threads\": {},\n  \"samples\": {samples},\n  \"results\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

fn bench_engine(c: &mut Criterion) {
    let fixture = EngineFixture::build();
    let docs = fixture.docs.len() as u64;

    // The engine must agree with the reference before its speed means
    // anything — with and without the fault layer armed.
    let expect = fixture.run_reference();
    for (workers, shards) in TOPOLOGIES {
        assert_eq!(
            fixture.run_engine(workers, shards),
            expect,
            "engine w{workers} s{shards} disagrees with the reference pipeline"
        );
        assert_eq!(
            fixture.run_engine_healthy_plan(workers, shards),
            expect,
            "engine w{workers} s{shards} under a healthy fault plan \
             disagrees with the reference pipeline"
        );
    }
    assert_eq!(
        fixture.run_engine_traced(TIMED_TOPOLOGY.0, TIMED_TOPOLOGY.1, 1_000_000),
        expect,
        "engine tracing every document disagrees with the reference pipeline"
    );
    let store_dir =
        std::env::temp_dir().join(format!("dox_bench_store_{}_verify", std::process::id()));
    assert_eq!(
        fixture.run_engine_store(TIMED_TOPOLOGY.0, TIMED_TOPOLOGY.1, &store_dir),
        expect,
        "engine with store-backed dedup disagrees with the reference pipeline"
    );
    let _ = std::fs::remove_dir_all(&store_dir);

    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(docs));
    let (tw, ts) = TIMED_TOPOLOGY;
    let topology = format!("w{tw}_s{ts}");
    group.bench_function(BenchmarkId::new("ingest", &topology), |b| {
        b.iter(|| black_box(fixture.run_engine(tw, ts)))
    });
    group.bench_function(BenchmarkId::new("ingest_healthy_plan", &topology), |b| {
        b.iter(|| black_box(fixture.run_engine_healthy_plan(tw, ts)))
    });
    for (label, ppm) in [("off", 0u32), ("1pct", 10_000)] {
        group.bench_with_input(BenchmarkId::new("ingest_traced", label), &ppm, |b, &ppm| {
            b.iter(|| black_box(fixture.run_engine_traced(tw, ts, ppm)))
        });
    }
    group.finish();

    let test_mode = std::env::args().any(|a| a == "--test");
    write_json(&fixture, if test_mode { 1 } else { 5 });
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
