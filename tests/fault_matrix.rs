//! Fault matrix: the study's determinism contract must survive adverse
//! weather. For every topology in workers {1, 4} × shards {1, 8}:
//!
//! * a run under a fault plan whose every fault recovers (transient
//!   timeouts, 429s, a source outage, slow and briefly-poisoned engine
//!   workers) is **byte-identical** to the fault-free run;
//! * a run killed mid-ingest by the plan's kill switch and resumed from
//!   its checkpoint re-emits the exact bytes of the uninterrupted run;
//! * a plan with unrecoverable faults degrades **loudly**: the report
//!   differs, and every missing document is accounted for in
//!   `report.coverage` — never silently dropped;
//! * a checkpoint directory alone makes a run store-backed: checkpoints
//!   commit into `<dir>/store`, never into a monolithic JSON file;
//! * the same contracts hold for store-backed durability: a fault-free
//!   store-backed run, and a run SIGKILLed between the segment write
//!   and the manifest swap then resumed from the recovered store, are
//!   both byte-identical to the in-memory run — with zero checkpointed
//!   documents replayed through ingest and the Info-level event stream
//!   unchanged;
//! * a store kill at every commit point (before the segment write,
//!   between write and manifest swap, after the swap), on the first and
//!   the last checkpoint commit, resumes from the last durable commit to
//!   the same bytes;
//! * store checkpoints append each detected dox once: many checkpoints
//!   never trigger compaction, and superseded headers are the only dead
//!   bytes.

use doxing_repro::core::report::to_json;
use doxing_repro::core::study::{StudyConfig, StudyConfigBuilder};
use doxing_repro::core::{Error, Study};
use doxing_repro::engine::EngineConfig;
use doxing_repro::fault::{FaultDomain, FaultPlanConfig, OutageWindow, StoreKillPoint};
use doxing_repro::obs::{Level, Registry};
use doxing_repro::store::MANIFEST_NAME;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

const SEED: u64 = 0xFA17;
const TOPOLOGIES: [(usize, usize); 4] = [(1, 1), (1, 8), (4, 1), (4, 8)];

fn base(workers: usize, shards: usize) -> StudyConfigBuilder {
    StudyConfig::builder()
        .scale(0.005)
        .seed(SEED)
        .engine(EngineConfig {
            workers,
            shards,
            ..EngineConfig::default()
        })
}

/// A stormy but fully survivable plan: every injected fault recovers
/// within the retry budget, so it must not change a byte of the report.
fn recoverable_plan() -> FaultPlanConfig {
    FaultPlanConfig {
        seed: 0xBAD_5EED,
        transient_ppm: 120_000,
        max_transient_failures: 2,
        rate_limited_ppm: 250_000,
        outages: vec![OutageWindow {
            domain: FaultDomain::Collect,
            target: "pastebin.com".into(),
            from: 2_000,
            until: 2_090,
        }],
        slow_chunk_ppm: 60_000,
        poison_chunk_ppm: 40_000,
        ..FaultPlanConfig::default()
    }
}

/// The fault-free reference report, computed once per topology.
fn clean_json(workers: usize, shards: usize) -> String {
    static CACHE: OnceLock<Mutex<HashMap<(usize, usize), String>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(json) = cache.lock().unwrap().get(&(workers, shards)) {
        return json.clone();
    }
    let r = Study::with_registry(base(workers, shards).build(), Registry::new())
        .run()
        .expect("fault-free study runs");
    let json = to_json(&r).expect("report serializes");
    assert_eq!(
        r.coverage.total(),
        0,
        "a fault-free run must report zero coverage gaps"
    );
    cache
        .lock()
        .unwrap()
        .insert((workers, shards), json.clone());
    json
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dox_fault_matrix_{}_{tag}", std::process::id()))
}

#[test]
fn recovered_faults_are_byte_identical_across_the_matrix() {
    for (workers, shards) in TOPOLOGIES {
        let cfg = base(workers, shards).faults(recoverable_plan()).build();
        let r = Study::with_registry(cfg, Registry::new())
            .run()
            .expect("stormy study runs");
        assert_eq!(
            r.coverage.total(),
            0,
            "(workers={workers}, shards={shards}) recovered faults must \
             leave no coverage gaps"
        );
        assert_eq!(
            to_json(&r).expect("report serializes"),
            clean_json(workers, shards),
            "(workers={workers}, shards={shards}) a fully-recovered run \
             must be byte-identical to the fault-free run"
        );
    }
}

#[test]
fn kill_and_resume_reproduces_the_report_byte_for_byte() {
    for (workers, shards) in [(1, 1), (4, 8)] {
        let dir = scratch_dir(&format!("{workers}x{shards}"));
        let _ = std::fs::remove_dir_all(&dir);

        let killed_plan = FaultPlanConfig {
            kill_after_docs: Some(1_500),
            ..recoverable_plan()
        };
        let killed_cfg = base(workers, shards)
            .faults(killed_plan)
            .checkpoint_dir(&dir)
            .checkpoint_every(400)
            .build();
        match Study::with_registry(killed_cfg, Registry::new()).run() {
            Err(Error::Halted { docs_ingested }) => assert_eq!(docs_ingested, 1_500),
            other => panic!("expected the kill switch to halt the run, got {other:?}"),
        }

        let resumed_cfg = base(workers, shards)
            .faults(recoverable_plan())
            .checkpoint_dir(&dir)
            .checkpoint_every(400)
            .resume(true)
            .build();
        let resumed = Study::with_registry(resumed_cfg, Registry::new())
            .run()
            .expect("resumed study runs");
        assert_eq!(
            to_json(&resumed).expect("report serializes"),
            clean_json(workers, shards),
            "(workers={workers}, shards={shards}) kill + resume must \
             re-emit the exact bytes of the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_checkpoint_dir_alone_checkpoints_through_the_store() {
    let dir = scratch_dir("dir_only");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = base(1, 8)
        .checkpoint_dir(&dir)
        .checkpoint_every(400)
        .build();
    let r = Study::with_registry(cfg, Registry::new())
        .run()
        .expect("checkpointed study runs");
    assert_eq!(
        to_json(&r).expect("report serializes"),
        clean_json(1, 8),
        "checkpointing must not change a byte of the report"
    );
    assert!(
        dir.join("store").join(MANIFEST_NAME).exists(),
        "a checkpoint dir alone must commit checkpoints into <dir>/store"
    );
    assert!(
        !dir.join("study_checkpoint.json").exists(),
        "no monolithic JSON checkpoint may be written"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The Info-and-louder event stream, rendered exactly as `emit` echoes
/// it to stderr. Sequence numbers are not compared — a resumed run
/// spends one on its Debug-level resume notice.
fn info_stream(registry: &Registry) -> Vec<String> {
    registry
        .events()
        .recent()
        .iter()
        .filter(|e| e.level >= Level::Info)
        .map(ToString::to_string)
        .collect()
}

/// Documents this process's session committed: the engine bumps
/// `pipeline.funnel.collected` once per committed document.
fn collected(registry: &Registry) -> u64 {
    registry.counter("pipeline.funnel.collected").get()
}

#[test]
fn store_backed_kill_mid_commit_and_resume_is_byte_identical() {
    for (workers, shards) in TOPOLOGIES {
        let dir = scratch_dir(&format!("store_{workers}x{shards}"));
        let _ = std::fs::remove_dir_all(&dir);
        // A tiny spill cap so every shard actually pages dedup state
        // out to the store instead of keeping the run in memory.
        let store_base =
            |b: StudyConfigBuilder| b.checkpoint_dir(&dir).checkpoint_every(400).spill_cap(64);

        // Store-backed run under the recoverable storm: spilling and
        // store checkpoints must not change a byte of the report. This
        // run doubles as the uninterrupted comparator for the resumed
        // run's event stream below (same plan, so the same summary).
        let clean_registry = Registry::new();
        let clean = Study::with_registry(
            store_base(base(workers, shards).faults(recoverable_plan())).build(),
            clean_registry.clone(),
        )
        .run()
        .expect("store-backed study runs");
        assert_eq!(
            to_json(&clean).expect("report serializes"),
            clean_json(workers, shards),
            "(workers={workers}, shards={shards}) store-backed run must \
             be byte-identical to the in-memory fault-free run"
        );

        // SIGKILL the second store commit between the segment write and
        // the manifest swap: the torn commit must roll back to the
        // first checkpoint on reopen.
        let _ = std::fs::remove_dir_all(&dir);
        let killed_plan = FaultPlanConfig {
            kill_at_store_commit: Some(2),
            kill_store_point: StoreKillPoint::BetweenWriteAndSwap,
            ..recoverable_plan()
        };
        let killed_cfg = store_base(base(workers, shards).faults(killed_plan)).build();
        match Study::with_registry(killed_cfg, Registry::new()).run() {
            Err(Error::Halted { .. }) => {}
            other => panic!("expected the store kill drill to halt the run, got {other:?}"),
        }

        let resumed_cfg = store_base(base(workers, shards).faults(recoverable_plan()))
            .resume(true)
            .build();
        let registry = Registry::new();
        let resumed = Study::with_registry(resumed_cfg, registry.clone())
            .run()
            .expect("resumed store-backed study runs");
        assert_eq!(
            to_json(&resumed).expect("report serializes"),
            clean_json(workers, shards),
            "(workers={workers}, shards={shards}) store kill + resume \
             must re-emit the exact bytes of the uninterrupted run"
        );
        assert_eq!(
            collected(&registry),
            collected(&clean_registry) - registry.counter("study.resume.skipped_docs").get(),
            "(workers={workers}, shards={shards}) resume must ingest only \
             the documents the checkpoint does not cover"
        );
        assert_eq!(
            registry.counter("study.resume.skipped_docs").get(),
            400,
            "(workers={workers}, shards={shards}) the torn second commit \
             must roll back to the first checkpoint (400 docs)"
        );
        assert_eq!(
            info_stream(&registry),
            info_stream(&clean_registry),
            "(workers={workers}, shards={shards}) resume must not \
             perturb the Info-level event stream"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn store_kill_at_every_commit_point_resumes_byte_identically() {
    let (workers, shards) = (4, 8);
    let dir = scratch_dir("store_points");
    let store_base =
        |b: StudyConfigBuilder| b.checkpoint_dir(&dir).checkpoint_every(400).spill_cap(64);
    let _ = std::fs::remove_dir_all(&dir);
    let clean_registry = Registry::new();
    let clean = Study::with_registry(
        store_base(base(workers, shards).faults(recoverable_plan())).build(),
        clean_registry.clone(),
    )
    .run()
    .expect("store-backed study runs");
    assert_eq!(
        to_json(&clean).expect("report serializes"),
        clean_json(workers, shards)
    );
    let commits = clean_registry.counter("study.checkpoint.commits").get();
    assert!(
        commits >= 2,
        "the drill needs distinct first and last commits"
    );

    let points = [
        StoreKillPoint::BeforeSegmentWrite,
        StoreKillPoint::BetweenWriteAndSwap,
        StoreKillPoint::AfterManifestSwap,
    ];
    for nth in [1, commits] {
        for point in points {
            let _ = std::fs::remove_dir_all(&dir);
            let killed_plan = FaultPlanConfig {
                kill_at_store_commit: Some(nth),
                kill_store_point: point,
                ..recoverable_plan()
            };
            let killed_cfg = store_base(base(workers, shards).faults(killed_plan)).build();
            match Study::with_registry(killed_cfg, Registry::new()).run() {
                Err(Error::Halted { .. }) => {}
                other => panic!("commit {nth} {point:?}: expected a halt, got {other:?}"),
            }

            let resumed_cfg = store_base(base(workers, shards).faults(recoverable_plan()))
                .resume(true)
                .build();
            let registry = Registry::new();
            let resumed = Study::with_registry(resumed_cfg, registry.clone())
                .run()
                .unwrap_or_else(|e| panic!("commit {nth} {point:?}: resume failed: {e}"));
            assert_eq!(
                to_json(&resumed).expect("report serializes"),
                clean_json(workers, shards),
                "commit {nth} {point:?}: kill + resume must re-emit the exact bytes"
            );
            assert_eq!(
                collected(&registry),
                collected(&clean_registry) - registry.counter("study.resume.skipped_docs").get(),
                "commit {nth} {point:?}: resume must ingest no checkpointed document"
            );
            // Only a published manifest makes the killed commit durable.
            let durable = if point == StoreKillPoint::AfterManifestSwap {
                nth
            } else {
                nth - 1
            };
            assert_eq!(
                registry.counter("study.resume.skipped_docs").get(),
                400 * durable,
                "commit {nth} {point:?}: resume must start at the last durable commit"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_checkpoints_append_rows_and_never_compact() {
    let dir = scratch_dir("store_append");
    let _ = std::fs::remove_dir_all(&dir);
    // A dox-dense corpus (6% of every source), so the detected log, not
    // the header, makes up most of the store.
    let dense = |b: StudyConfigBuilder| {
        let mut cfg = b.build();
        for period in [&mut cfg.synth.period1, &mut cfg.synth.period2] {
            for source in [
                &mut period.pastebin,
                &mut period.chan4_b,
                &mut period.chan4_pol,
                &mut period.chan8_pol,
                &mut period.chan8_baphomet,
            ] {
                source.doxes = source.doxes.max(source.total * 6 / 100);
            }
        }
        cfg
    };
    let in_memory = Study::with_registry(dense(base(1, 8)), Registry::new())
        .run()
        .expect("in-memory study runs");
    let registry = Registry::new();
    let cfg = dense(
        base(1, 8)
            .checkpoint_dir(&dir)
            .checkpoint_every(400)
            .spill_cap(32),
    );
    let report = Study::with_registry(cfg, registry.clone())
        .run()
        .expect("store-backed study runs");
    assert_eq!(
        to_json(&report).expect("report serializes"),
        to_json(&in_memory).expect("report serializes")
    );
    assert_eq!(
        registry.gauge("store.compactions").get(),
        0,
        "append-once checkpoints leave too little dead weight to compact"
    );
    let commits = registry.counter("study.checkpoint.commits").get();
    assert!(commits >= 8, "only {commits} checkpoints");
    // Superseded headers are the only dead bytes, so they stay within
    // the sum of all headers staged — at most checkpoints × the largest.
    let dead = registry.gauge("store.dead_bytes").get() as u64;
    let headers = registry.counter("study.checkpoint.header_bytes").get();
    assert!(
        dead <= headers,
        "{dead} dead bytes vs {headers} header bytes over {commits} checkpoints"
    );
    assert!(
        registry.counter("study.checkpoint.detected_rows").get() <= report.pipeline.classified_dox,
        "each detected dox is written at most once"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_faults_degrade_loudly_not_silently() {
    let (workers, shards) = (4, 8);
    let hard_plan = FaultPlanConfig {
        seed: 0xDEAD,
        hard_ppm: 60_000,
        ..FaultPlanConfig::default()
    };
    let cfg = base(workers, shards).faults(hard_plan).build();
    let r = Study::with_registry(cfg, Registry::new())
        .run()
        .expect("degraded study still completes");
    assert!(
        r.coverage.total() > 0,
        "hard faults must surface as explicit coverage gaps"
    );
    assert_ne!(
        to_json(&r).expect("report serializes"),
        clean_json(workers, shards),
        "losing sources must visibly change the report"
    );
}
