//! The batch workloads: `study` (the paper-mix reproduction) and
//! `study-dense` (a dox-dense corpus through the store-backed, periodically
//! checkpointed study, then a kill at the midpoint and a resume).

use crate::layers::{self, BatchInputs};
use crate::probe::{self, undisturbed};
use crate::{Args, Outcome, WorkDir};
use dox_core::report::to_json;
use dox_core::study::{Durability, Study, StudyConfig};
use dox_engine::EngineConfig;
use dox_fault::FaultPlanConfig;
use dox_obs::Registry;
use std::path::Path;
use std::time::Instant;

/// Stage workers every workload pins. No multi-worker speed-up is ever
/// reported: the figure of merit is per-core cost.
pub const WORKERS: usize = 2;
/// Dedup shards every workload pins.
pub const SHARDS: usize = 8;
/// Measured repetitions per run, at least (more while time remains).
/// Many short repetitions let the reported quartile skip bursts of
/// interference from other tenants of the machine.
const MIN_REPS: usize = 3;

/// `study` corpus scale (share of the paper's 1.74 M documents).
const STUDY_SCALE: f64 = 0.03;
/// `study-dense` corpus scale.
const DENSE_SCALE: f64 = 0.02;
/// `--tiny` scale for both batch workloads.
const TINY_SCALE: f64 = 0.002;
/// Dox share of every source in `study-dense`, percent of its documents.
const DENSE_DOX_PERCENT: u64 = 6;
/// In-memory dedup entries per shard before spilling to the store: far
/// below the dense corpus's per-shard working set, so dedup spills.
const DENSE_SPILL_CAP: usize = 32;
/// Periodic checkpoints per uninterrupted dense run (and per traced
/// engine session).
const CHECKPOINTS: u64 = 6;

/// The pinned engine topology (w2 s8).
pub fn engine() -> EngineConfig {
    EngineConfig {
        workers: WORKERS,
        shards: SHARDS,
        ..EngineConfig::default()
    }
}

/// The paper-mix study at `scale`, pinned topology, no durability.
pub fn study_config(seed: u64, scale: f64) -> StudyConfig {
    StudyConfig::builder()
        .seed(seed)
        .scale(scale)
        .engine(engine())
        .build()
}

/// The dense corpus: every source's dox share raised to
/// [`DENSE_DOX_PERCENT`], no durability.
fn dense_plain(seed: u64, scale: f64) -> StudyConfig {
    let mut cfg = study_config(seed, scale);
    for period in [&mut cfg.synth.period1, &mut cfg.synth.period2] {
        for source in [
            &mut period.pastebin,
            &mut period.chan4_b,
            &mut period.chan4_pol,
            &mut period.chan8_pol,
            &mut period.chan8_baphomet,
        ] {
            source.doxes = source.doxes.max(source.total * DENSE_DOX_PERCENT / 100);
        }
    }
    cfg
}

/// Checkpoint cadence of the dense runs and of every traced engine
/// session, in documents.
pub fn checkpoint_every(cfg: &StudyConfig) -> u64 {
    (cfg.synth.total_documents() / CHECKPOINTS).max(1)
}

/// The dense corpus, store-backed in `dir`; `kill_after` arms the
/// simulated SIGKILL, `resume` restarts from the store's checkpoint.
fn dense_durable(
    seed: u64,
    scale: f64,
    dir: &Path,
    kill_after: Option<u64>,
    resume: bool,
) -> StudyConfig {
    let mut cfg = dense_plain(seed, scale);
    cfg.durability = Durability {
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every_docs: checkpoint_every(&cfg),
        resume,
        store: true,
        spill_cap_entries: DENSE_SPILL_CAP,
    };
    cfg.faults = kill_after.map(|k| FaultPlanConfig {
        kill_after_docs: Some(k),
        ..FaultPlanConfig::default()
    });
    cfg
}

/// One timed `Study::run`.
pub struct Rep {
    pub wall_s: f64,
    pub cpu_ns: u64,
    pub docs: u64,
    pub json: String,
}

/// Run the study once, untraced, timing wall and process CPU.
pub fn timed_run(cfg: &StudyConfig) -> Result<Rep, String> {
    let study = Study::with_registry(cfg.clone(), Registry::new());
    let cpu0 = probe::cpu_ns("self").ok_or("cannot read /proc/self/stat")?;
    let started = Instant::now();
    let report = study.run().map_err(|e| format!("study run: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let cpu1 = probe::cpu_ns("self").ok_or("cannot read /proc/self/stat")?;
    Ok(Rep {
        wall_s,
        cpu_ns: cpu1.saturating_sub(cpu0),
        docs: report.pipeline.total,
        json: to_json(&report).map_err(|e| format!("encode report: {e}"))?,
    })
}

/// One set-up of a batch workload, `Study::train_detector`, in seconds.
/// Each repetition times one, so set-ups sample the whole run.
fn setup_seconds(cfg: &StudyConfig) -> Result<f64, String> {
    let study = Study::with_registry(cfg.clone(), Registry::new());
    let started = Instant::now();
    study
        .train_detector()
        .map_err(|e| format!("train detector: {e}"))?;
    Ok(started.elapsed().as_secs_f64())
}

/// Repeat `rep` until `seconds` have passed and at least [`MIN_REPS`] ran.
fn repeat<T>(seconds: f64, mut rep: impl FnMut() -> Result<T, String>) -> Result<Vec<T>, String> {
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        reps.push(rep()?);
    }
    Ok(reps)
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json` order.
fn common_metrics(out: &mut Outcome, setups: &[f64], reps: &[&Rep]) {
    let docs_per_s: Vec<f64> = reps.iter().map(|r| r.docs as f64 / r.wall_s).collect();
    let cpu_us: Vec<f64> = reps
        .iter()
        .map(|r| r.cpu_ns as f64 / 1e3 / r.docs.max(1) as f64)
        .collect();
    out.metric("setup_s", undisturbed(setups, false), "s");
    out.metric("docs_per_s", undisturbed(&docs_per_s, true), "docs/s");
    out.metric("cpu_us_per_doc", undisturbed(&cpu_us, false), "us");
    out.metric(
        "peak_rss_mb",
        probe::peak_rss_mib("self").unwrap_or(0.0),
        "MiB",
    );
}

fn topology_notes(out: &mut Outcome, reps: usize) {
    out.note("nproc", probe::nproc() as f64, "count");
    out.note("topology.workers", WORKERS as f64, "count");
    out.note("topology.shards", SHARDS as f64, "count");
    out.note("reps", reps as f64, "count");
}

/// `study`: one full `Study::run` per repetition over the paper mix.
pub fn run_study(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let scale = if args.tiny { TINY_SCALE } else { STUDY_SCALE };
    let cfg = study_config(args.seed, scale);
    let mut out = Outcome::default();
    if args.trace {
        let inputs = BatchInputs {
            cfg: &cfg,
            spill_cap: None,
            every: checkpoint_every(&cfg),
            store_dir: work.fresh("layers-store"),
        };
        layers::run(&inputs, || timed_run(&cfg), false, &mut out)?;
        return Ok(out);
    }
    // The sequential reference pipeline is the oracle for every run.
    let reference = Study::with_registry(cfg.clone(), Registry::new())
        .run_reference()
        .map_err(|e| format!("reference run: {e}"))?;
    let reference = to_json(&reference).map_err(|e| format!("encode report: {e}"))?;
    let reps = repeat(args.seconds, || {
        Ok((setup_seconds(&cfg)?, timed_run(&cfg)?))
    })?;
    for (_, rep) in &reps {
        out.check(
            rep.json == reference,
            "study report equals the sequential Pipeline report",
        );
    }
    let setups: Vec<f64> = reps.iter().map(|(s, _)| *s).collect();
    let runs: Vec<&Rep> = reps.iter().map(|(_, r)| r).collect();
    common_metrics(&mut out, &setups, &runs);
    topology_notes(&mut out, reps.len());
    Ok(out)
}

/// `study-dense`: the store-backed dense study uninterrupted, then killed
/// at the midpoint and resumed.
pub fn run_dense(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let scale = if args.tiny { TINY_SCALE } else { DENSE_SCALE };
    let plain = dense_plain(args.seed, scale);
    let mut out = Outcome::default();
    if args.trace {
        let inputs = BatchInputs {
            cfg: &plain,
            spill_cap: Some(DENSE_SPILL_CAP),
            every: checkpoint_every(&plain),
            store_dir: work.fresh("layers-store"),
        };
        let e2e = || {
            let dir = work.fresh("e2e");
            timed_run(&dense_durable(args.seed, scale, &dir, None, false))
        };
        layers::run(&inputs, e2e, true, &mut out)?;
        return Ok(out);
    }
    let midpoint = plain.synth.total_documents() / 2;
    let mut first_report: Option<String> = None;
    let reps = repeat(args.seconds, || {
        let setup = setup_seconds(&plain)?;
        let full = timed_run(&dense_durable(
            args.seed,
            scale,
            &work.fresh("full"),
            None,
            false,
        ))?;
        let dir = work.fresh("killed");
        let killed = Study::with_registry(
            dense_durable(args.seed, scale, &dir, Some(midpoint), false),
            Registry::new(),
        )
        .run();
        let halted = matches!(killed, Err(dox_core::Error::Halted { .. }));
        let resumed = timed_run(&dense_durable(args.seed, scale, &dir, Some(midpoint), true))?;
        Ok((setup, full, halted, resumed))
    })?;
    for (_, full, halted, resumed) in &reps {
        out.check(*halted, "the midpoint kill halts the run");
        out.check(
            resumed.json == full.json,
            "resumed report equals the uninterrupted one",
        );
        let first = first_report.get_or_insert_with(|| full.json.clone());
        out.check(*first == full.json, "repeated runs report the same bytes");
    }
    let setups: Vec<f64> = reps.iter().map(|(s, ..)| *s).collect();
    let full: Vec<&Rep> = reps.iter().map(|(_, f, ..)| f).collect();
    common_metrics(&mut out, &setups, &full);
    let resume: Vec<f64> = reps.iter().map(|(.., r)| r.wall_s).collect();
    out.note("resume_s", undisturbed(&resume, false), "s");
    out.note("dense.dox_percent", DENSE_DOX_PERCENT as f64, "%");
    out.note("dense.spill_cap", DENSE_SPILL_CAP as f64, "entries");
    topology_notes(&mut out, reps.len());
    Ok(out)
}
