//! The reproduction harness: regenerate every table and figure.
//!
//! ```text
//! cargo run -p dox-bench --release --bin repro -- [OPTIONS]
//!
//! OPTIONS:
//!   --scale <0..1]     corpus scale (default 0.05; 1.0 = paper scale)
//!   --seed <u64>       master seed (default: the study default)
//!   --workers <n>      ingest-engine stage workers (default: all cores)
//!   --shards <n>       ingest-engine dedup shards (default: 8)
//!   --table <id>       print one result only: fig1, t1..t10, fig2, fig3,
//!                      v-ip, v-comments (default: everything)
//!   --json <path>      also write the machine-readable report
//!   --metrics <path>   write the observability snapshot (per-stage spans,
//!                      funnel counters, events) as JSON
//!   --fault-plan <p>   inject deterministic faults from a JSON
//!                      `FaultPlanConfig` (see DESIGN.md §9)
//!   --checkpoint-dir <d>  persist resumable checkpoints, and spilled
//!                      dedup state, into a crash-safe segment store
//!                      under <d>; both commit atomically
//!   --checkpoint-every <n> checkpoint cadence in documents (default 10000)
//!   --resume           resume from the checkpoint in --checkpoint-dir
//!   --spill-cap <n>    in-memory dedup entries per shard before spilling
//!                      to the store (default 65536; needs --checkpoint-dir)
//!   --trace <path>     export sampled causal traces as JSONL (samples
//!                      every document unless --trace-sample is given)
//!   --trace-sample <ppm>  trace sampling rate, documents per million
//!   --telemetry <addr> serve live metrics at http://<addr>/metrics and
//!                      recent traces at /traces for the duration of the run
//!   --quiet            suppress progress notes and the profile on stderr
//! ```
//!
//! The report is a pure function of `(scale, seed)`: any `--workers` /
//! `--shards` combination produces byte-identical `--json` output. So
//! does any fault plan whose faults all recover, and a kill/`--resume`
//! pair: checkpoint-resumed runs re-emit the exact bytes of the
//! uninterrupted run. Tracing inherits the same contract:
//! `--trace` output is byte-identical for a fixed `(scale, seed, ppm)` at
//! any worker/shard count, because hop timestamps come from the simulated
//! clock and sampling is a pure hash of `(seed, document id)`.
//!
//! A run halted by the fault plan's `kill_after_docs` switch exits with
//! code 3 (distinct from ordinary failures) so harnesses can follow up
//! with `--resume`.
//!
//! Wall-clock timings live only in the metrics snapshot and the stderr
//! profile — never in the `--json` report, which stays byte-identical for
//! a fixed seed whether or not metrics are collected.

use dox_core::report;
use dox_core::study::{Study, StudyConfig};
use dox_fault::FaultPlanConfig;
use dox_obs::{Level, StageSpan, Telemetry};
use std::process::ExitCode;

/// Exit code for a run stopped by the fault plan's kill switch — distinct
/// from ordinary failure so chaos harnesses can chain `--resume`.
const EXIT_HALTED: u8 = 3;

struct Args {
    scale: f64,
    seed: Option<u64>,
    workers: Option<usize>,
    shards: Option<usize>,
    table: Option<String>,
    json: Option<String>,
    metrics: Option<String>,
    fault_plan: Option<String>,
    checkpoint_dir: Option<String>,
    checkpoint_every: Option<u64>,
    resume: bool,
    spill_cap: Option<usize>,
    trace: Option<String>,
    trace_sample: Option<u32>,
    telemetry: Option<String>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: 0.05,
        seed: None,
        workers: None,
        shards: None,
        table: None,
        json: None,
        metrics: None,
        fault_plan: None,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
        spill_cap: None,
        trace: None,
        trace_sample: None,
        telemetry: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                args.scale = v.parse().map_err(|_| format!("bad scale {v:?}"))?;
                if !(args.scale > 0.0 && args.scale <= 1.0) {
                    return Err(format!("scale must be in (0, 1], got {}", args.scale));
                }
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                args.workers = Some(v.parse().map_err(|_| format!("bad workers {v:?}"))?);
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                args.shards = Some(v.parse().map_err(|_| format!("bad shards {v:?}"))?);
            }
            "--table" => {
                // Validated here, not after the study runs: a bad id must
                // fail fast, before the (expensive) run and before the
                // `--telemetry` startup notice can print on a doomed
                // invocation.
                let v = it.next().ok_or("--table needs a value")?;
                if !TABLE_IDS.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown table {v:?} (expected one of: {})",
                        TABLE_IDS.join(" ")
                    ));
                }
                args.table = Some(v);
            }
            "--json" => args.json = Some(it.next().ok_or("--json needs a path")?),
            "--metrics" => args.metrics = Some(it.next().ok_or("--metrics needs a path")?),
            "--fault-plan" => {
                args.fault_plan = Some(it.next().ok_or("--fault-plan needs a path")?);
            }
            "--checkpoint-dir" => {
                args.checkpoint_dir = Some(it.next().ok_or("--checkpoint-dir needs a path")?);
            }
            "--checkpoint-every" => {
                let v = it.next().ok_or("--checkpoint-every needs a value")?;
                args.checkpoint_every = Some(
                    v.parse()
                        .map_err(|_| format!("bad checkpoint cadence {v:?}"))?,
                );
            }
            "--resume" => args.resume = true,
            "--spill-cap" => {
                let v = it.next().ok_or("--spill-cap needs a value")?;
                args.spill_cap = Some(v.parse().map_err(|_| format!("bad spill cap {v:?}"))?);
            }
            "--trace" => args.trace = Some(it.next().ok_or("--trace needs a path")?),
            "--trace-sample" => {
                let v = it.next().ok_or("--trace-sample needs a value")?;
                args.trace_sample = Some(v.parse().map_err(|_| format!("bad sample rate {v:?}"))?);
            }
            "--telemetry" => {
                args.telemetry = Some(it.next().ok_or("--telemetry needs an address")?);
            }
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                eprintln!("{}", HELP);
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.spill_cap.is_some() && args.checkpoint_dir.is_none() {
        return Err("--spill-cap needs --checkpoint-dir".to_string());
    }
    Ok(args)
}

/// Every `--table` id, in presentation order. `parse_args` rejects
/// anything else before the study runs.
const TABLE_IDS: [&str; 15] = [
    "fig1",
    "t1",
    "t2",
    "t3",
    "t4",
    "t5",
    "t6",
    "t7",
    "t8",
    "t9",
    "t10",
    "fig2",
    "fig3",
    "v-ip",
    "v-comments",
];

const HELP: &str = "repro — regenerate every table/figure of the doxing study
  --scale <0..1]   corpus scale (default 0.05; 1.0 = paper scale)
  --seed <u64>     master seed
  --workers <n>    ingest-engine stage workers (default: all cores)
  --shards <n>     ingest-engine dedup shards (default: 8)
  --table <id>     fig1 t1 t2 t3 t4 t5 t6 t7 t8 t9 t10 fig2 fig3 v-ip v-comments
  --json <path>    write the JSON report
  --metrics <path> write the metrics/span snapshot as JSON
  --fault-plan <p> inject deterministic faults from a JSON FaultPlanConfig
  --checkpoint-dir <d>   crash-safe store checkpoints + dedup spill in <d>
  --checkpoint-every <n> checkpoint cadence in documents (default 10000)
  --resume         resume from the checkpoint in --checkpoint-dir
  --spill-cap <n>  in-memory dedup entries per shard before spilling
                   (needs --checkpoint-dir)
  --trace <path>   export sampled causal traces as JSONL
  --trace-sample <ppm>   trace sampling rate per million (default: all)
  --telemetry <addr>     serve GET /metrics and /traces on <addr>
  --quiet          no progress or profile output";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{HELP}");
            return ExitCode::FAILURE;
        }
    };
    let obs = dox_obs::global();
    obs.events().set_echo(!args.quiet);

    let mut config = StudyConfig::at_scale(args.scale);
    if let Some(seed) = args.seed {
        config.seed = seed;
        config.synth.seed = seed;
    }
    if let Some(workers) = args.workers {
        config.engine.workers = workers;
    }
    if let Some(shards) = args.shards {
        config.engine.shards = shards;
    }
    if let Some(path) = &args.fault_plan {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read fault plan {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let plan: FaultPlanConfig = match serde_json::from_str(&text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: bad fault plan {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        config.faults = Some(plan);
    }
    if let Some(dir) = &args.checkpoint_dir {
        config.durability.checkpoint_dir = Some(dir.into());
    }
    if let Some(every) = args.checkpoint_every {
        config.durability.checkpoint_every_docs = every;
    }
    config.durability.resume = args.resume;
    if let Some(cap) = args.spill_cap {
        config.durability.spill_cap_entries = cap;
    }
    if args.trace.is_some() || args.trace_sample.is_some() {
        // `--trace` alone samples everything; `--trace-sample` alone still
        // records (for `--telemetry`'s /traces) without an export file.
        config.trace_sample_ppm = args.trace_sample.unwrap_or(dox_obs::SAMPLE_ALL);
    }
    dox_obs::emit!(
        Level::Info,
        "repro",
        "starting the full study",
        scale = args.scale,
        documents = config.synth.total_documents(),
        dox_postings = config.synth.total_doxes(),
        seed = format!("{:#x}", config.seed),
    );
    let start = std::time::Instant::now();
    let study = Study::new(config);
    // Live telemetry rides alongside the run; the handle's Drop stops the
    // server, so a failed study still releases the port.
    let _telemetry = match &args.telemetry {
        Some(addr) => {
            match Telemetry::start(addr, study.registry().clone(), study.tracer().clone()) {
                Ok(server) => {
                    dox_obs::emit!(
                        Level::Info,
                        "repro",
                        "telemetry serving",
                        metrics = format!("http://{}/metrics", server.local_addr()),
                        traces = format!("http://{}/traces", server.local_addr()),
                    );
                    Some(server)
                }
                Err(e) => {
                    eprintln!("error: cannot bind telemetry on {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let r = match study.run() {
        Ok(r) => r,
        Err(dox_core::Error::Halted { docs_ingested }) => {
            eprintln!(
                "halted: fault plan killed the run after {docs_ingested} documents; \
                 rerun with --resume to continue from the last checkpoint"
            );
            return ExitCode::from(EXIT_HALTED);
        }
        Err(e) => {
            eprintln!("error: study failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Debug level: wall time would make the Info-level stream differ
    // between two runs of the same study (the stderr profile table
    // carries the per-phase timings).
    dox_obs::emit!(
        Level::Debug,
        "repro",
        "study completed",
        elapsed = format!("{:.1?}", start.elapsed()),
    );

    let output = {
        let _span = StageSpan::enter(obs, "report.render");
        match args.table.as_deref() {
            None => report::full_report(&r),
            Some("fig1") => report::figure1(&r),
            Some("t1") => report::table1(&r),
            Some("t2") => report::table2(&r),
            Some("t3") => report::table3(&r),
            Some("t4") => report::table4(&r),
            Some("t5") => report::table5(&r),
            Some("t6") => report::table6(&r),
            Some("t7") => report::table7(&r),
            Some("t8") => report::table8(&r),
            Some("t9") => report::table9(&r),
            Some("t10") => report::table10(&r),
            Some("fig2") => report::figure2(&r),
            Some("fig3") => report::figure3(&r),
            Some("v-ip") => report::validation_ip(&r),
            Some("v-comments") => report::validation_comments(&r),
            Some(other) => {
                eprintln!("error: unknown table {other:?}\n{HELP}");
                return ExitCode::FAILURE;
            }
        }
    };
    println!("{output}");

    if let Some(path) = args.json {
        // Deterministic: derived only from (config, seed), never from the
        // metrics snapshot.
        let json = match report::to_json(&r) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: cannot serialize report: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        dox_obs::emit!(Level::Info, "repro", "JSON report written", path = path);
    }

    if let Some(path) = &args.trace {
        // Deterministic like the report: doc-id-ordered JSONL, sim-clock
        // hop timestamps, hash-based sampling — byte-identical for a
        // fixed (scale, seed, ppm) at any worker/shard count.
        let jsonl = study.tracer().export_jsonl();
        if let Err(e) = std::fs::write(path, jsonl) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        dox_obs::emit!(
            Level::Info,
            "repro",
            "trace export written",
            path = path,
            traces = study.tracer().buffered(),
            evicted = study.tracer().dropped(),
        );
    }

    let snapshot = obs.snapshot();
    if !args.quiet {
        eprintln!("\n--- per-stage profile ---\n{}", snapshot.render_table());
    }
    if let Some(path) = args.metrics {
        let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        dox_obs::emit!(
            Level::Info,
            "repro",
            "metrics snapshot written",
            path = path
        );
    }
    ExitCode::SUCCESS
}
