//! The repository's benchmark: three workloads over the doxing pipeline,
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! separate traced pass.
//!
//! `BENCHMARK.json` gates the two batch workloads, `study` and
//! `study-dense`. `serve` runs the real `dox-serve` daemon and prints the
//! same metrics plus its latencies, but its capacity figures swing 10-15%
//! from run to run on a shared 2-vCPU machine, too much for a 25%
//! regression bound; its layers are timed in every workload's traced pass.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <study|study-dense|serve> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Every run checks its outputs, prints each metric as `name value unit`,
//! and ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones. `--tiny` shrinks every input for smoke tests.
//! Scratch files live under `.perfbench_work/` in the working directory
//! and are removed before exit.

mod layers;
mod probe;
mod serve;
mod study;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// One named figure with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (runs, requests, output checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced wrong output.
    pub failed: u64,
    /// The metrics of the result line, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures and run checks, printed only.
    pub notes: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push(Metric { name, value, unit });
    }

    /// Count one checked operation; a failed check is reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// Note on stderr how far the run has got, with seconds since start.
pub fn progress(what: &str) {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let start = START.get_or_init(std::time::Instant::now);
    eprintln!("perfbench: [{:7.2}s] {what}", start.elapsed().as_secs_f64());
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes a u64")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

/// A scratch directory under the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<Self, String> {
        let dir = Path::new(".perfbench_work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// A fresh (emptied) subdirectory path.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let path = self.0.join(name);
        let _ = std::fs::remove_dir_all(&path);
        path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only when no concurrent run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    progress(&format!("{} seed {}", args.workload, args.seed));
    let work = WorkDir::create()?;
    match args.workload.as_str() {
        "study" => study::run_study(args, &work),
        "study-dense" => study::run_dense(args, &work),
        "serve" => serve::run(args, &work),
        other => Err(format!(
            "unknown workload {other:?} (study, study-dense, serve)"
        )),
    }
}

fn json_number(value: f64) -> String {
    // `Display` prints the shortest form that round-trips: every digit.
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let finite = outcome
        .metrics
        .iter()
        .chain(&outcome.notes)
        .all(|m| m.value.is_finite());
    outcome.check(finite, "every figure is a finite number");
    for m in outcome.notes.iter().chain(&outcome.metrics) {
        println!("{} {} {}", m.name, json_number(m.value), m.unit);
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("failed_frac {} ratio", json_number(failed_frac));
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(if m.value.is_finite() { m.value } else { 0.0 }),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    ExitCode::SUCCESS
}
