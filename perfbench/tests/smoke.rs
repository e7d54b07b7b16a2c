//! Smoke test: every workload, untraced and traced, on tiny inputs. Each
//! run must pass its own output checks and report exactly the metrics
//! `BENCHMARK.json` names, in order.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use serde::value::Value;
use std::process::Command;

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn names(bench: &Value, key: &str) -> Vec<String> {
    bench
        .get(key)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .output()
        .expect("the benchmark starts");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

fn smoke(workload: &str) {
    let bench = benchmark();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run(workload, trace);
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Value::as_u64) > Some(0));
        let Some(Value::Object(metrics)) = result.get("metrics") else {
            panic!("{workload}: no metrics object");
        };
        let reported: Vec<String> = metrics.iter().map(|(name, _)| name.clone()).collect();
        assert_eq!(reported, names(&bench, key), "{workload} --trace {trace}");
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(Value::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{workload}: {name}");
        }
    }
}

#[test]
fn study_smoke() {
    smoke("study");
}

#[test]
fn study_dense_smoke() {
    smoke("study-dense");
}

#[test]
fn serve_smoke() {
    smoke("serve");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nonesuch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
