//! Trace determinism: exported causal traces inherit the report's
//! purity contract — byte-identical JSONL for a fixed `(config, seed)`
//! at any `(workers, shards)` topology — and tracing itself is pure
//! observation: turning it on must not change a byte of the report.
//!
//! Also pins the metrics regression contract: two runs of the same
//! `(config, seed)` produce identical metrics snapshots modulo the
//! documented wall-clock allowlist below.

use doxing_repro::core::report::to_json;
use doxing_repro::core::study::{Study, StudyConfig};
use doxing_repro::engine::EngineConfig;
use doxing_repro::obs::{Registry, Snapshot, SAMPLE_ALL};
use std::sync::OnceLock;

const SEED: u64 = 0x7ACE_D0C5;

fn traced_config(workers: usize, shards: usize) -> StudyConfig {
    StudyConfig::builder()
        .scale(0.005)
        .seed(SEED)
        .engine(EngineConfig {
            workers,
            shards,
            ..EngineConfig::default()
        })
        .trace_sample(SAMPLE_ALL)
        .trace_capacity(1 << 20)
        .build()
}

/// One traced run: `(report JSON, trace JSONL)`.
fn run_traced(workers: usize, shards: usize) -> (String, String) {
    let study = Study::with_registry(traced_config(workers, shards), Registry::new());
    let report = study.run().expect("traced study runs");
    let json = to_json(&report).expect("report serializes");
    assert_eq!(
        study.tracer().dropped(),
        0,
        "capacity must hold every trace"
    );
    (json, study.tracer().export_jsonl())
}

/// The `(workers=1, shards=1)` traced run, computed once per binary.
fn reference() -> &'static (String, String) {
    static REF: OnceLock<(String, String)> = OnceLock::new();
    REF.get_or_init(|| run_traced(1, 1))
}

#[test]
fn trace_jsonl_is_byte_identical_across_topologies() {
    let (ref_json, ref_trace) = reference();
    assert!(
        !ref_trace.is_empty(),
        "sampling everything must trace something"
    );
    for (workers, shards) in [(1usize, 8usize), (4, 1), (4, 8)] {
        let (json, trace) = run_traced(workers, shards);
        assert_eq!(
            &trace, ref_trace,
            "traces (workers={workers}, shards={shards}) must be byte-identical"
        );
        assert_eq!(
            &json, ref_json,
            "report (workers={workers}, shards={shards}) must be byte-identical"
        );
    }
}

#[test]
fn tracing_never_changes_the_report() {
    let untraced = StudyConfig::builder().scale(0.005).seed(SEED).build();
    let report = Study::with_registry(untraced, Registry::new())
        .run()
        .expect("untraced study runs");
    let json = to_json(&report).expect("report serializes");
    assert_eq!(
        &json,
        &reference().0,
        "tracing every document must not perturb the report"
    );
}

#[test]
fn traces_cover_the_whole_pipeline_and_stay_redacted() {
    let (_, trace) = reference();
    for stage in [
        "\"collect\"",
        "\"classify\"",
        "\"route\"",
        "\"dedup\"",
        "\"commit\"",
        "\"monitor\"",
    ] {
        assert!(trace.contains(stage), "no {stage} hop in the export");
    }
    assert!(
        trace.contains("body=[redacted"),
        "collect hops must carry the redacted fingerprint"
    );
    assert!(
        !trace.contains("fb: "),
        "raw OSN references must never reach an exported trace"
    );
}

/// Metric names whose values depend on wall-clock scheduling, not on
/// `(config, seed)`: the queue-depth gauge is sampled mid-flight, and
/// the stall histogram counts the pushes that found the queue full,
/// which depends on how fast the workers drained. The producer's
/// checkpoint span is a wall-clock timing kept with them, though its
/// count (one per store checkpoint) is fixed. Everything else must
/// reproduce exactly.
const WALL_CLOCK_METRICS: &[&str] = &[
    "engine.queue.stall_ns",
    "engine.queue.depth",
    "study.checkpoint.producer_ns",
];

fn is_wall_clock(name: &str) -> bool {
    WALL_CLOCK_METRICS.contains(&name)
}

/// The deterministic projection of a snapshot: counters and gauges minus
/// the allowlist, span names with their observation *counts* only (the
/// durations are wall time), and the structured events verbatim.
fn deterministic_view(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snapshot.counters {
        if !is_wall_clock(name) {
            out.push_str(&format!("counter {name}={v}\n"));
        }
    }
    for (name, v) in &snapshot.gauges {
        if !is_wall_clock(name) {
            out.push_str(&format!("gauge {name}={v}\n"));
        }
    }
    for (name, h) in &snapshot.spans {
        if !is_wall_clock(name) {
            out.push_str(&format!("span {name} count={}\n", h.count));
        }
    }
    out.push_str(&format!("events_dropped={}\n", snapshot.events_dropped));
    for e in &snapshot.events {
        out.push_str(&format!("event {e}\n"));
    }
    out
}

#[test]
fn metrics_reproduce_modulo_the_wall_clock_allowlist() {
    let run = || {
        let registry = Registry::new();
        let study = Study::with_registry(traced_config(4, 8), registry.clone());
        let report = study.run().expect("study runs");
        (
            to_json(&report).expect("report serializes"),
            deterministic_view(&registry.snapshot()),
            study.tracer().export_jsonl(),
        )
    };
    let (json_a, metrics_a, trace_a) = run();
    let (json_b, metrics_b, trace_b) = run();
    assert_eq!(json_a, json_b, "report must reproduce byte-for-byte");
    assert_eq!(
        trace_a, trace_b,
        "trace export must reproduce byte-for-byte"
    );
    assert_eq!(
        metrics_a, metrics_b,
        "metrics must reproduce modulo the documented wall-clock allowlist"
    );
    // Span *counts* being deterministic is the strong half of the claim:
    // every stage ran the same number of times.
    assert!(metrics_a.contains("span pipeline.stage.classify"));
}
