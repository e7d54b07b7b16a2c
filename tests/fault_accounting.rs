//! Fault accounting, pinned: one test-scale study under a plan whose
//! hard faults exhaust collect, probe and comment-fetch operations.
//!
//! `tests/fault_matrix.rs` proves that exhausted faults surface as
//! coverage gaps at all; this test pins *how many*, per boundary, and
//! the observability the retry machinery leaves behind: the Info-level
//! `fault summary` event and every `fault.breaker.<target>` gauge.

use doxing_repro::core::study::StudyConfig;
use doxing_repro::core::Study;
use doxing_repro::engine::EngineConfig;
use doxing_repro::fault::FaultPlanConfig;
use doxing_repro::obs::{Level, Registry};

#[test]
fn exhausted_operations_are_counted_per_boundary() {
    let plan = FaultPlanConfig {
        seed: 0xACC7,
        transient_ppm: 150_000,
        hard_ppm: 50_000,
        ..FaultPlanConfig::default()
    };
    let cfg = StudyConfig::builder()
        .scale(0.005)
        .seed(0xFA17)
        .engine(EngineConfig {
            workers: 2,
            shards: 4,
            ..EngineConfig::default()
        })
        .faults(plan)
        .build();
    let registry = Registry::new();
    let report = Study::with_registry(cfg, registry.clone())
        .run()
        .expect("a degraded study still completes");
    let coverage = serde_json::to_string(&report.coverage).expect("coverage serializes");
    let summary: Vec<String> = registry
        .events()
        .recent()
        .iter()
        .filter(|e| e.level >= Level::Info && e.message == "fault summary")
        .map(ToString::to_string)
        .collect();
    let breakers: Vec<String> = registry
        .snapshot()
        .gauges
        .iter()
        .filter(|(name, _)| name.starts_with("fault.breaker."))
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    assert_eq!(
        coverage,
        r#"{"missed_collections":{"4chan/b":40,"4chan/pol":36,"8ch/pol":2,"pastebin.com":347},"missed_probes":7,"missed_comment_fetches":1,"stage_exhausted_docs":0}"#
    );
    assert_eq!(
        summary,
        ["[INFO  study] fault summary ops=8820 faults=4452 retries=4019 exhausted=433 breaker_opens=1475 coverage_gaps=433"]
    );
    // One gauge per collection source, the monitor's networks excluded:
    // closed 0, half-open 1, open 2.
    assert_eq!(
        breakers,
        [
            "fault.breaker.4chan/b=0",
            "fault.breaker.4chan/pol=0",
            "fault.breaker.8ch/baphomet=0",
            "fault.breaker.8ch/pol=0",
            "fault.breaker.pastebin.com=2",
        ]
    );
}
