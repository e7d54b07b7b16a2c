//! Load generator for the `dox-serve` service mode. Steady-state ingest
//! throughput is measured by perfbench's `--workload serve`; this binary
//! keeps the modes the serve scripts drive.
//!
//! Two modes serve `scripts/serve_smoke.sh`, which drives an *external*
//! `dox-serve` daemon and needs the service and batch sides derived from
//! the exact same [`TenantSpec`] → `StudyConfig` mapping:
//!
//! ```text
//! loadgen client --addr <host:port> --id t0 --seed 99 [--create]
//!                [--half first|second] [--report <path>]
//! loadgen batch --seed 99 --out <path>
//! ```
//!
//! A third mode backs `scripts/overload_gate.sh`:
//!
//! ```text
//! loadgen overload [--out <path>]
//! ```
//!
//! It boots a deliberately small server (2 workers, 16-slot backlog,
//! 1 s deadline) behind a quota'd tenant, then drives an *open-loop*
//! burst at ~10x the sustainable rate with slow-client and
//! oversized-body adversaries mixed in on a seeded [`FaultPlan`]
//! schedule. The gate asserts the overload policy end to end — sheds
//! answer 503 + `Retry-After`, quota breaches answer 429, the backlog
//! gauge never exceeds its bound, admitted p99 stays within the
//! deadline budget, memory stays flat, and a closed-loop recovery pass
//! returns to 100% goodput — and writes its results as the `"overload"`
//! section of `BENCH_serve.json`, or of the file `--out` names.

use dox_core::study::Study;
use dox_fault::{Fault, FaultDomain, FaultPlan, FaultPlanConfig};
use dox_obs::http::ServerConfig;
use dox_obs::{HttpServer, Registry, Tracer};
use dox_serve::{router, QuotaSpec, ServeState, TenantSpec};
use serde::value::{Number, Value};
use serde::Serialize;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Study scale per tenant (matches `bench_engine`'s corpus scale).
const SCALE: f64 = 0.01;
/// Documents of the overload corpus.
const DOCS_PER_TENANT: usize = 600;
/// Documents per `POST /v1/ingest` request.
const BATCH_DOCS: usize = 30;
/// Engine topology per tenant, fixed for reproducibility.
const TENANT_WORKERS: usize = 2;
const TENANT_SHARDS: usize = 8;
/// Default `--seed` of the smoke modes.
const BASE_SEED: u64 = 40;

fn spec(id: &str, seed: u64) -> TenantSpec {
    TenantSpec {
        id: id.to_string(),
        seed,
        scale: SCALE,
        workers: TENANT_WORKERS,
        shards: TENANT_SHARDS,
        quota: None,
    }
}

/// Pre-rendered ingest batches for one seed: `(period, docs-as-JSON)`.
/// Batches never mix periods — `/v1/ingest` takes one period per call.
fn batches_for_seed(seed: u64) -> Vec<(u8, Vec<Value>)> {
    let study = Study::with_registry(spec("gen", seed).study_config(), Registry::new());
    let mut batches: Vec<(u8, Vec<Value>)> = Vec::new();
    let mut taken = 0usize;
    study
        .synthetic_stream(&mut |period, doc| {
            match batches.last_mut() {
                Some((p, docs)) if *p == period && docs.len() < BATCH_DOCS => {
                    docs.push(doc.to_value());
                }
                _ => batches.push((period, vec![doc.to_value()])),
            }
            taken += 1;
            if taken >= DOCS_PER_TENANT {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .expect("synthetic stream replays");
    batches
}

/// One keep-alive HTTP round trip; returns `(status, body)`.
fn roundtrip(stream: &mut TcpStream, method: &str, path: &str, payload: &str) -> (u16, String) {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n{payload}",
        payload.len()
    );
    stream
        .write_all(request.as_bytes())
        .expect("request written");
    read_response(stream)
}

/// Read one HTTP/1.1 response off a keep-alive stream: status line,
/// headers to the blank line, then exactly `Content-Length` body bytes.
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    let header_end = loop {
        let n = stream.read(&mut byte).expect("response bytes");
        assert!(n > 0, "server closed mid-response");
        buf.push(byte[0]);
        if buf.ends_with(b"\r\n\r\n") {
            break buf.len();
        }
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("response body");
    (status, String::from_utf8_lossy(&body).to_string())
}

/// Quantile (by rank) of a sorted nanosecond series, in milliseconds.
fn quantile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[rank] as f64 / 1e6
}

/// Smoke-mode options shared by `client` and `batch`.
struct SmokeArgs {
    addr: String,
    id: String,
    seed: u64,
    scale: f64,
    create: bool,
    half: Option<String>,
    report: Option<String>,
    out: Option<String>,
}

fn parse_smoke_args(mut it: std::env::Args) -> SmokeArgs {
    let mut args = SmokeArgs {
        addr: "127.0.0.1:9321".to_string(),
        id: "t0".to_string(),
        seed: BASE_SEED,
        scale: SCALE,
        create: false,
        half: None,
        report: None,
        out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--id" => args.id = value("--id"),
            "--seed" => args.seed = value("--seed").parse().expect("u64 seed"),
            "--scale" => args.scale = value("--scale").parse().expect("f64 scale"),
            "--create" => args.create = true,
            "--half" => args.half = Some(value("--half")),
            "--report" => args.report = Some(value("--report")),
            "--out" => args.out = Some(value("--out")),
            other => panic!("unknown flag {other:?}"),
        }
    }
    args
}

fn smoke_spec(args: &SmokeArgs) -> TenantSpec {
    TenantSpec {
        id: args.id.clone(),
        seed: args.seed,
        scale: args.scale,
        workers: TENANT_WORKERS,
        shards: TENANT_SHARDS,
        quota: None,
    }
}

/// Connect with retries so the script can launch the daemon and the
/// client back to back without racing the bind.
fn connect_retry(addr: &str) -> TcpStream {
    for _ in 0..100 {
        if let Ok(stream) = TcpStream::connect(addr) {
            stream.set_nodelay(true).expect("nodelay");
            return stream;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    panic!("cannot connect to dox-serve at {addr}");
}

/// `client` mode: create/reuse a tenant on a running daemon, ingest the
/// tenant's own document stream (optionally one half of it), and fetch
/// `/v1/report`.
fn run_client(args: &SmokeArgs) {
    let spec = smoke_spec(args);
    let mut stream = connect_retry(&args.addr);
    if args.create {
        let body = serde_json::to_string(&spec.to_value()).expect("spec serializes");
        let (status, response) = roundtrip(&mut stream, "POST", "/v1/tenants", &body);
        assert_eq!(status, 201, "tenant create failed: {response}");
        eprintln!("loadgen client: created tenant '{}'", spec.id);
    }

    let all = full_batches(&spec);
    let split = all.len() / 2;
    let batches: &[(u8, Vec<Value>)] = match args.half.as_deref() {
        None => &all,
        Some("first") => &all[..split],
        Some("second") => &all[split..],
        Some(other) => panic!("--half must be first or second, got {other:?}"),
    };
    let mut docs = 0usize;
    for (period, batch) in batches {
        let body = serde_json::to_string(&Value::Object(vec![
            ("tenant".to_string(), Value::String(spec.id.clone())),
            (
                "period".to_string(),
                Value::Number(Number::U64(u64::from(*period))),
            ),
            ("docs".to_string(), Value::Array(batch.clone())),
        ]))
        .expect("batch serializes");
        let (status, response) = roundtrip(&mut stream, "POST", "/v1/ingest", &body);
        assert_eq!(status, 200, "ingest failed: {response}");
        docs += batch.len();
    }
    eprintln!(
        "loadgen client: ingested {docs} documents into '{}'",
        spec.id
    );

    if let Some(path) = &args.report {
        let query = format!("/v1/report?tenant={}", spec.id);
        let (status, served) = roundtrip(&mut stream, "GET", &query, "");
        assert_eq!(status, 200, "report failed: {served}");
        std::fs::write(path, &served).expect("report written");
        eprintln!("loadgen client: wrote {path}");
    }
}

/// `batch` mode: the reference run — same spec-derived config, straight
/// through [`Study::run`].
fn run_batch(args: &SmokeArgs) {
    let spec = smoke_spec(args);
    let report = Study::new(spec.study_config()).run().expect("batch runs");
    let json = dox_core::report::to_json(&report).expect("report serializes");
    let path = args.out.as_deref().expect("batch mode needs --out");
    std::fs::write(path, &json).expect("report written");
    eprintln!("loadgen batch: wrote {path}");
}

/// The tenant's whole two-period stream as period-pure ingest batches.
fn full_batches(spec: &TenantSpec) -> Vec<(u8, Vec<Value>)> {
    let study = Study::with_registry(spec.study_config(), Registry::new());
    let mut batches: Vec<(u8, Vec<Value>)> = Vec::new();
    study
        .synthetic_stream(&mut |period, doc| {
            match batches.last_mut() {
                Some((p, docs)) if *p == period && docs.len() < BATCH_DOCS => {
                    docs.push(doc.to_value());
                }
                _ => batches.push((period, vec![doc.to_value()])),
            }
            ControlFlow::Continue(())
        })
        .expect("stream replays");
    batches
}

// --------------------------------------------------------------------
// `loadgen overload` — the open-loop overload/chaos gate.
// --------------------------------------------------------------------

/// Deliberately small server so a modest burst saturates it the same
/// way on any hardware: two workers, a 16-slot backlog, a 1 s
/// request deadline and a 256 KiB body cap.
const OVL_WORKERS: usize = 2;
const OVL_BACKLOG: usize = 16;
const OVL_DEADLINE: Duration = Duration::from_secs(1);
const OVL_MAX_BODY: usize = 256 * 1024;
/// Tenant quota: 150 docs/s = 5 sustainable batches/s at 30 docs each.
const OVL_QUOTA_DOCS_PER_SEC: f64 = 150.0;
const OVL_QUOTA_BURST_DOCS: u64 = 150;
const OVL_QUOTA_INFLIGHT_BYTES: u64 = 2 << 20;
/// Open-loop arrival: ~10x the quota-sustainable batch rate, held for
/// a fixed window regardless of how the server responds.
const OVL_ARRIVAL_RPS: u64 = 50;
const OVL_BURST: Duration = Duration::from_secs(3);
const OVL_INJECTORS: u64 = 8;
/// Mid-burst slow-client wave sized to overflow the backlog no matter
/// how fast the host drains it: 64 simultaneous connections against a
/// 16-slot queue guarantee sheds.
const OVL_WAVE: usize = 64;
const OVL_SLOW_HOLD: Duration = Duration::from_millis(1500);
const OVL_SEED: u64 = 77;
/// RSS growth budget across burst + recovery: sheds must not queue.
const OVL_RSS_BUDGET: u64 = 128 * 1024 * 1024;
const OVL_RECOVERY_REQUESTS: usize = 12;

/// What the seeded fault plan turned this arrival into.
enum Adversary {
    /// A well-formed ingest batch.
    None,
    /// Drips header bytes one at a time, holding its connection open.
    Slowloris,
    /// Declares a `Content-Length` over the body cap.
    Oversized,
}

/// Deterministic adversary schedule: the fault plan's seeded draws
/// decide which arrivals misbehave, and how.
fn adversary_for(plan: &FaultPlan, index: u64) -> Adversary {
    match plan.fault_for(FaultDomain::Collect, "overload", index, 0, 0) {
        None => Adversary::None,
        Some(Fault::RateLimited { .. }) => Adversary::Oversized,
        Some(_) => Adversary::Slowloris,
    }
}

/// Everything the burst observed, merged across injector threads.
#[derive(Default)]
struct OverloadTally {
    sent: usize,
    ok200: usize,
    shed503: usize,
    shed503_retry_after: usize,
    quota429: usize,
    quota429_retry_after: usize,
    oversized_sent: usize,
    oversized413: usize,
    deadline408: usize,
    slow_sent: usize,
    slow_cut: usize,
    other_status: usize,
    connect_errors: usize,
    ok_ns: Vec<u64>,
}

/// Read until EOF / error; tolerant by design — overloaded servers
/// close early, reset, or time out, and all of those are data here.
fn drain_stream(stream: &mut TcpStream) -> Vec<u8> {
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    raw
}

/// Parse `(status, Retry-After seconds)` off a raw response, if one
/// arrived at all.
fn parse_head(raw: &[u8]) -> Option<(u16, Option<u64>)> {
    let head = String::from_utf8_lossy(raw);
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    let retry_after = head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("retry-after")
            .then(|| value.trim().parse().ok())?
    });
    Some((status, retry_after))
}

/// One open-loop shot: fresh connection, full request, read whatever
/// comes back. Returns `None` when the connection itself failed.
fn overload_shot(addr: &str, body: &str) -> Option<(u16, Option<u64>, u64)> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(4))).ok();
    stream.set_write_timeout(Some(Duration::from_secs(4))).ok();
    let request = format!(
        "POST /v1/ingest HTTP/1.1\r\nHost: overload\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).ok()?;
    let raw = drain_stream(&mut stream);
    let (status, retry_after) = parse_head(&raw)?;
    Some((status, retry_after, started.elapsed().as_nanos() as u64))
}

/// Oversized-body adversary: declares a length over the cap and never
/// sends the body. The server must refuse on the declaration alone.
fn oversized_shot(addr: &str) -> Option<(u16, Option<u64>)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(4))).ok();
    stream.set_write_timeout(Some(Duration::from_secs(4))).ok();
    let request = format!(
        "POST /v1/ingest HTTP/1.1\r\nHost: overload\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n",
        OVL_MAX_BODY + 1
    );
    stream.write_all(request.as_bytes()).ok()?;
    let raw = drain_stream(&mut stream);
    parse_head(&raw)
}

/// Slow-client adversary: opens a connection and drips header bytes,
/// one every 100 ms, for [`OVL_SLOW_HOLD`]. A correct server either
/// sheds it at the door (503) or cuts it at the deadline (408 /
/// close); either way the connection must not pin a worker forever.
fn slowloris_shot(addr: &str, tally: &Mutex<OverloadTally>) {
    {
        let mut t = tally
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        t.slow_sent += 1;
    }
    let Ok(mut stream) = TcpStream::connect(addr) else {
        let mut t = tally
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        t.connect_errors += 1;
        return;
    };
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(4))).ok();
    stream
        .set_write_timeout(Some(Duration::from_millis(500)))
        .ok();
    let started = Instant::now();
    let mut alive = stream
        .write_all(b"POST /v1/ingest HTTP/1.1\r\nHost: slow\r\nX-Drip: ")
        .is_ok();
    while alive && started.elapsed() < OVL_SLOW_HOLD {
        std::thread::sleep(Duration::from_millis(100));
        alive = stream.write_all(b"a").is_ok();
    }
    let raw = drain_stream(&mut stream);
    let mut t = tally
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    match parse_head(&raw) {
        Some((503, retry)) => {
            t.shed503 += 1;
            t.shed503_retry_after += usize::from(retry.is_some());
            t.slow_cut += 1;
        }
        Some((408, _)) => {
            t.deadline408 += 1;
            t.slow_cut += 1;
        }
        // A reset (shed racing our drip) still means the server let go.
        _ if !alive || started.elapsed() < OVL_SLOW_HOLD + Duration::from_secs(1) => {
            t.slow_cut += 1;
        }
        _ => {}
    }
}

/// Record one well-formed shot's outcome into the tally.
fn record_shot(tally: &Mutex<OverloadTally>, outcome: Option<(u16, Option<u64>, u64)>) {
    let mut t = tally
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    t.sent += 1;
    match outcome {
        Some((200, _, ns)) => {
            t.ok200 += 1;
            t.ok_ns.push(ns);
        }
        Some((503, retry, _)) => {
            t.shed503 += 1;
            t.shed503_retry_after += usize::from(retry.is_some());
        }
        Some((429, retry, _)) => {
            t.quota429 += 1;
            t.quota429_retry_after += usize::from(retry.is_some());
        }
        Some((408, _, _)) => t.deadline408 += 1,
        Some(_) => t.other_status += 1,
        None => t.connect_errors += 1,
    }
}

/// Resident-set size from `/proc/self/status`, in bytes. `None` off
/// Linux — the RSS gate then reports 0 growth rather than failing.
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Closed-loop recovery pass: paced ingests that honor `Retry-After`.
/// Returns `(successes, total 429 retries taken)`.
fn recovery_pass(addr: &str, bodies: &[String]) -> (usize, usize) {
    let mut successes = 0usize;
    let mut retries = 0usize;
    for i in 0..OVL_RECOVERY_REQUESTS {
        let body = &bodies[i % bodies.len()];
        for _attempt in 0..8 {
            match overload_shot(addr, body) {
                Some((200, _, _)) => {
                    successes += 1;
                    break;
                }
                Some((429, retry, _)) => {
                    retries += 1;
                    let secs = retry.unwrap_or(1).min(2);
                    std::thread::sleep(Duration::from_secs(secs.max(1)));
                }
                _ => std::thread::sleep(Duration::from_millis(200)),
            }
        }
        std::thread::sleep(Duration::from_millis(300));
    }
    (successes, retries)
}

/// The checked-in results file `loadgen overload` writes by default.
const BENCH_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");

/// Write `path` as the overload section alone.
fn write_overload_section(path: &str, section: Value) {
    let doc = Value::Object(vec![("overload".to_string(), section)]);
    let text = serde_json::to_string_pretty(&doc).expect("a JSON value always encodes") + "\n";
    match std::fs::write(path, text) {
        Ok(()) => println!("wrote {path} (overload section)"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

/// The overload/chaos gate, writing its results to `out`. Exits nonzero
/// on any policy violation.
#[allow(clippy::too_many_lines)]
fn run_overload(out: &str) {
    eprintln!("loadgen overload: rendering corpus (scale {SCALE}) ...");
    let all_batches = batches_for_seed(OVL_SEED);
    let first_period = all_batches.first().map_or(1, |(p, _)| *p);
    // Period-pure bodies only: the burst replays them out of order, and
    // cross-period replay is the engine's concern, not this gate's.
    let bodies: Vec<String> = all_batches
        .iter()
        .filter(|(p, _)| *p == first_period)
        .map(|(period, docs)| {
            serde_json::to_string(&Value::Object(vec![
                ("tenant".to_string(), Value::String("ovl".to_string())),
                (
                    "period".to_string(),
                    Value::Number(Number::U64(u64::from(*period))),
                ),
                ("docs".to_string(), Value::Array(docs.clone())),
            ]))
            .expect("batch serializes")
        })
        .collect();
    assert!(!bodies.is_empty(), "corpus produced no period-pure batches");
    for body in &bodies {
        assert!(
            body.len() < OVL_MAX_BODY,
            "well-formed batch must fit the body cap"
        );
    }

    let registry = Registry::new();
    let state = Arc::new(ServeState::new(registry.clone()));
    let config = ServerConfig {
        workers: OVL_WORKERS,
        max_body: OVL_MAX_BODY,
        max_backlog: OVL_BACKLOG,
        request_deadline: OVL_DEADLINE,
        registry: registry.clone(),
        ..ServerConfig::default()
    };
    let server = HttpServer::start_with(
        "127.0.0.1:0",
        router(Arc::clone(&state), &Tracer::disabled()),
        config,
    )
    .expect("server binds");
    let addr = server.local_addr().to_string();

    // Quota'd tenant: detector training happens before the clock.
    let mut tenant_spec = spec("ovl", OVL_SEED);
    tenant_spec.quota = Some(QuotaSpec {
        docs_per_sec: Some(OVL_QUOTA_DOCS_PER_SEC),
        burst_docs: Some(OVL_QUOTA_BURST_DOCS),
        max_inflight_bytes: Some(OVL_QUOTA_INFLIGHT_BYTES),
    });
    let body = serde_json::to_string(&tenant_spec.to_value()).expect("spec serializes");
    let mut setup = TcpStream::connect(&addr).expect("connect");
    let (status, response) = roundtrip(&mut setup, "POST", "/v1/tenants", &body);
    assert_eq!(status, 201, "tenant create failed: {response}");
    let (status, _) = roundtrip(&mut setup, "GET", "/readyz", "");
    assert_eq!(status, 200, "server must be ready before the burst");
    drop(setup);

    // Warmup inside the quota, then the RSS baseline.
    let warm = overload_shot(&addr, &bodies[0]);
    assert!(
        matches!(warm, Some((200, _, _))),
        "warmup ingest must succeed, got {warm:?}"
    );
    let rss_before = rss_bytes().unwrap_or(0);

    let plan = FaultPlan::new(FaultPlanConfig {
        seed: OVL_SEED,
        transient_ppm: 60_000,
        max_transient_failures: 1,
        rate_limited_ppm: 500_000,
        ..FaultPlanConfig::default()
    });
    let tally = Mutex::new(OverloadTally::default());
    let backlog_gauge = registry.gauge("http.backlog_depth");
    let max_backlog_seen = std::sync::atomic::AtomicI64::new(0);
    let burst_done = std::sync::atomic::AtomicBool::new(false);

    let interval = Duration::from_micros(1_000_000 / OVL_ARRIVAL_RPS);
    let total_arrivals = OVL_ARRIVAL_RPS * OVL_BURST.as_secs();
    eprintln!(
        "loadgen overload: open-loop burst, {total_arrivals} arrivals at {OVL_ARRIVAL_RPS}/s \
         + {OVL_WAVE}-connection slow-client wave ..."
    );
    let burst_started = Instant::now();
    std::thread::scope(|scope| {
        // Backlog monitor: the bound must hold at every sample.
        scope.spawn(|| {
            use std::sync::atomic::Ordering;
            while !burst_done.load(Ordering::Relaxed) {
                let depth = backlog_gauge.get();
                max_backlog_seen.fetch_max(depth, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        // Mid-burst wave: slow clients all at once, to force sheds.
        let wave = scope.spawn(|| {
            std::thread::sleep(OVL_BURST / 2);
            std::thread::scope(|inner| {
                for _ in 0..OVL_WAVE {
                    inner.spawn(|| slowloris_shot(&addr, &tally));
                }
            });
        });
        // Open-loop injectors: fixed arrival schedule, never waits for
        // responses before launching the next arrival.
        let injectors: Vec<_> = (0..OVL_INJECTORS)
            .map(|lane| {
                let addr = &addr;
                let bodies = &bodies;
                let plan = &plan;
                let tally = &tally;
                scope.spawn(move || {
                    std::thread::scope(|slow_scope| {
                        let mut index = lane;
                        while index < total_arrivals {
                            let due = burst_started + interval * index as u32;
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            match adversary_for(plan, index) {
                                Adversary::None => {
                                    let body = &bodies[index as usize % bodies.len()];
                                    record_shot(tally, overload_shot(addr, body));
                                }
                                Adversary::Oversized => {
                                    let mut t = tally
                                        .lock()
                                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                                    t.oversized_sent += 1;
                                    drop(t);
                                    let outcome = oversized_shot(addr);
                                    let mut t = tally
                                        .lock()
                                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                                    match outcome {
                                        Some((413, _)) => t.oversized413 += 1,
                                        Some((503, retry)) => {
                                            t.shed503 += 1;
                                            t.shed503_retry_after += usize::from(retry.is_some());
                                        }
                                        Some(_) => t.other_status += 1,
                                        None => t.connect_errors += 1,
                                    }
                                }
                                Adversary::Slowloris => {
                                    slow_scope.spawn(|| slowloris_shot(addr, tally));
                                }
                            }
                            index += OVL_INJECTORS;
                        }
                    });
                })
            })
            .collect();
        for handle in injectors {
            let _ = handle.join();
        }
        let _ = wave.join();
        burst_done.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    let burst_seconds = burst_started.elapsed().as_secs_f64();

    // Let the queue drain: the deadline cuts every parked slow client
    // within OVL_DEADLINE, so the gauge must return to zero.
    let drain_started = Instant::now();
    while backlog_gauge.get() > 0 && drain_started.elapsed() < Duration::from_secs(15) {
        std::thread::sleep(Duration::from_millis(50));
    }
    let drained_secs = drain_started.elapsed().as_secs_f64();
    std::thread::sleep(Duration::from_millis(250));

    eprintln!("loadgen overload: recovery pass ({OVL_RECOVERY_REQUESTS} closed-loop ingests) ...");
    let (recovered, recovery_retries) = recovery_pass(&addr, &bodies);
    let rss_after = rss_bytes().unwrap_or(rss_before);
    let rss_growth = rss_after.saturating_sub(rss_before);

    let shed_total = registry.counter("http.shed_total").get();
    let deadline_hits = registry.counter("http.deadline_hits").get();
    let quota_rejects = registry.counter("serve.tenant.ovl.quota_rejects").get();
    server.stop();

    let mut t = tally
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    t.ok_ns.sort_unstable();
    let p50_ms = quantile_ms(&t.ok_ns, 0.50);
    let p99_ms = quantile_ms(&t.ok_ns, 0.99);
    let max_depth = max_backlog_seen.into_inner();
    let shed_rate = if t.sent + t.oversized_sent + t.slow_sent > 0 {
        shed_total as f64 / (t.sent + t.oversized_sent + t.slow_sent) as f64
    } else {
        0.0
    };
    let goodput_rps = t.ok200 as f64 / burst_seconds;

    eprintln!(
        "loadgen overload: sent={} ok200={} shed503={} quota429={} 413={} 408={} \
         other={} connect_errors={} slow_cut={}/{}",
        t.sent,
        t.ok200,
        t.shed503,
        t.quota429,
        t.oversized413,
        t.deadline408,
        t.other_status,
        t.connect_errors,
        t.slow_cut,
        t.slow_sent,
    );
    eprintln!(
        "loadgen overload: server counters shed_total={shed_total} deadline_hits={deadline_hits} \
         quota_rejects={quota_rejects}; backlog max {max_depth}/{OVL_BACKLOG}; \
         drained in {drained_secs:.2}s; admitted p50 {p50_ms:.1}ms p99 {p99_ms:.1}ms; \
         recovery {recovered}/{OVL_RECOVERY_REQUESTS} ({recovery_retries} retries); \
         rss +{} KiB",
        rss_growth / 1024,
    );

    let num = |v: f64| Value::Number(Number::F64(v));
    let int = |v: u64| Value::Number(Number::U64(v));
    let section = Value::Object(vec![
        ("arrival_rps".to_string(), int(OVL_ARRIVAL_RPS)),
        ("burst_secs".to_string(), num(burst_seconds)),
        ("workers".to_string(), int(OVL_WORKERS as u64)),
        ("max_backlog".to_string(), int(OVL_BACKLOG as u64)),
        (
            "deadline_ms".to_string(),
            int(OVL_DEADLINE.as_millis() as u64),
        ),
        (
            "quota_docs_per_sec".to_string(),
            num(OVL_QUOTA_DOCS_PER_SEC),
        ),
        ("sent".to_string(), int(t.sent as u64)),
        ("ok200".to_string(), int(t.ok200 as u64)),
        ("shed503".to_string(), int(t.shed503 as u64)),
        ("quota429".to_string(), int(t.quota429 as u64)),
        ("oversized413".to_string(), int(t.oversized413 as u64)),
        ("deadline408".to_string(), int(t.deadline408 as u64)),
        ("server_shed_total".to_string(), int(shed_total)),
        ("server_deadline_hits".to_string(), int(deadline_hits)),
        ("server_quota_rejects".to_string(), int(quota_rejects)),
        ("shed_rate".to_string(), num(shed_rate)),
        ("goodput_rps".to_string(), num(goodput_rps)),
        ("admitted_p50_ms".to_string(), num(p50_ms)),
        ("admitted_p99_ms".to_string(), num(p99_ms)),
        ("backlog_max_seen".to_string(), int(max_depth.max(0) as u64)),
        ("drain_secs".to_string(), num(drained_secs)),
        (
            "recovery_goodput".to_string(),
            num(recovered as f64 / OVL_RECOVERY_REQUESTS as f64),
        ),
        ("recovery_retries".to_string(), int(recovery_retries as u64)),
        ("rss_growth_bytes".to_string(), int(rss_growth)),
    ]);
    write_overload_section(out, section);

    // The gate proper: every clause is one promise from DESIGN.md §13.
    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    check(
        t.shed503 >= 1 && shed_total >= 1,
        format!(
            "backlog overflow must shed with 503 (client saw {}, server shed {shed_total})",
            t.shed503
        ),
    );
    check(
        t.shed503_retry_after == t.shed503,
        format!(
            "every shed 503 must carry Retry-After ({}/{} did)",
            t.shed503_retry_after, t.shed503
        ),
    );
    check(
        t.quota429 >= 1 && t.quota429_retry_after == t.quota429,
        format!(
            "quota breaches must answer 429 + Retry-After (saw {}, {} with the header)",
            t.quota429, t.quota429_retry_after
        ),
    );
    check(
        t.oversized_sent > 0 && t.oversized413 + t.shed503 > 0 && t.other_status == 0,
        format!(
            "oversized declarations must be refused up front \
             ({} sent, {} got 413, {} unexpected statuses)",
            t.oversized_sent, t.oversized413, t.other_status
        ),
    );
    check(
        max_depth <= OVL_BACKLOG as i64,
        format!("backlog gauge must respect its bound ({max_depth} > {OVL_BACKLOG})"),
    );
    check(
        t.ok200 >= 1,
        format!(
            "some in-quota traffic must be admitted under overload (ok200={})",
            t.ok200
        ),
    );
    check(
        p99_ms <= (OVL_DEADLINE.as_millis() as f64) + 1000.0,
        format!("admitted p99 must stay near the deadline budget ({p99_ms:.1}ms)"),
    );
    check(
        t.slow_sent > 0 && t.slow_cut == t.slow_sent,
        format!(
            "every slow client must be shed or cut at the deadline ({}/{})",
            t.slow_cut, t.slow_sent
        ),
    );
    check(
        backlog_gauge.get() == 0 && drained_secs < 15.0,
        format!("backlog must drain after the burst (took {drained_secs:.2}s)"),
    );
    check(
        recovered == OVL_RECOVERY_REQUESTS,
        format!("recovery must return to 100% goodput ({recovered}/{OVL_RECOVERY_REQUESTS})"),
    );
    check(
        rss_growth < OVL_RSS_BUDGET,
        format!(
            "RSS must stay bounded across the burst (+{} KiB, budget {} KiB)",
            rss_growth / 1024,
            OVL_RSS_BUDGET / 1024
        ),
    );

    if failures.is_empty() {
        println!("loadgen overload: PASS ({} clauses)", 11);
    } else {
        for f in &failures {
            eprintln!("loadgen overload: FAIL: {f}");
        }
        std::process::exit(1);
    }
}

const USAGE: &str = "usage: loadgen client --addr <host:port> --id <id> --seed <n> [--create] \
                     [--half first|second] [--report <path>]
       loadgen batch --seed <n> --out <path>
       loadgen overload [--out <path>]";

fn main() {
    let mut argv = std::env::args();
    argv.next(); // program name
    match argv.next().as_deref() {
        Some("client") => run_client(&parse_smoke_args(argv)),
        Some("batch") => run_batch(&parse_smoke_args(argv)),
        Some("overload") => match (argv.next().as_deref(), argv.next(), argv.next()) {
            (None, _, _) => run_overload(BENCH_PATH),
            (Some("--out"), Some(path), None) => run_overload(&path),
            _ => {
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        },
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
