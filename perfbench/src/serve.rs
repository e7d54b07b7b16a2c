//! The `serve` workload: the real `dox-serve` binary as a child process
//! with default flags on loopback, four tenants, and load from two
//! keep-alive connections. Closed loops on several fresh servers measure
//! capacity; then one more server takes an open-loop schedule at a fixed
//! rate, which gives latency as users see it.

use crate::layers::{
    self, alert_fingerprints, ingest_body, BatchInputs, BATCH_DOCS, SERVE_PASS_DOCS,
};
use crate::probe::{self, median, quantile, undisturbed};
use crate::study::{self, SHARDS, WORKERS};
use crate::{progress, Args, Outcome, WorkDir};
use dox_core::study::Study;
use dox_engine::{Engine, EngineConfig};
use dox_obs::Registry;
use dox_serve::TenantSpec;
use dox_sites::collect::CollectedDoc;
use serde::value::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tenants hosted by the server.
const TENANTS: usize = 4;
/// Client connections, one client thread each.
const CONNECTIONS: usize = 2;

/// Connections actually used: never more than the hardware threads.
fn connections() -> usize {
    CONNECTIONS.min(probe::nproc())
}

/// Open-loop schedule: request slots per second over both connections.
/// With [`LOOKUP_EVERY`] that is ~20k docs/s of ingest, about half the
/// closed-loop capacity measured on a 2-vCPU machine.
const OPEN_RATE: f64 = 880.0;
/// Closed-loop docs/s the tenant streams are sized for; a faster server
/// runs a stream dry early and is measured over the windows before that.
const CAPACITY_HINT: f64 = 60_000.0;
/// Every this-many-th open-loop slot is a victim/account lookup; the
/// rest are ingests.
const LOOKUP_EVERY: usize = 4;
/// Share of `--seconds` spent in the open-loop phase; the rest is split
/// over the closed loops.
const OPEN_SHARE: f64 = 0.3;
/// Fresh servers that each run one closed loop; one more server runs
/// the open loop.
const INSTANCES: usize = 8;
/// Closed-loop measurement window; the capacity figures are quartiles
/// over every server's windows, the first of each server's being warm-up.
const WINDOW: Duration = Duration::from_millis(250);
/// Ingests sent one at a time before the open loop (unloaded latency).
const UNLOADED: usize = 40;

/// Where the `dox-serve` binary is built.
fn server_binary() -> Result<PathBuf, String> {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args([
            "--manifest-path",
            manifest,
            "-p",
            "dox-serve",
            "--bin",
            "dox-serve",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building dox-serve failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../target")),
    };
    Ok(target.join("release").join("dox-serve"))
}

/// A running `dox-serve` child; killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    fn spawn(binary: &PathBuf) -> Result<Self, String> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let stderr = child.stderr.take().ok_or("child has no stderr")?;
        let (tx, rx) = mpsc::channel();
        // Drains the child's stderr to EOF so it never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    let _ = tx.send(rest.trim_end_matches("/v1").to_string());
                }
            }
        });
        let mut server = Server {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        server.addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "dox-serve did not report its address")?;
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One keep-alive client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("timeout: {e}"))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    /// One request; `None` when the connection failed.
    pub fn send(&mut self, method: &str, target: &str, body: &str) -> Option<(u16, String)> {
        let request = format!(
            "{method} {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes()).ok()?;
        self.read_response()
    }

    fn fill(&mut self) -> Option<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Some(())
    }

    fn read_response(&mut self) -> Option<(u16, String)> {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .unwrap_or(0);
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[head_end..head_end + length]).to_string();
        self.buf.drain(..head_end + length);
        Some((status, body))
    }
}

/// One ingest request ready to send.
struct Batch {
    ids: Vec<u64>,
    body: String,
}

/// A tenant's spec, its pre-rendered requests, and what came back.
struct TenantLoad {
    spec: TenantSpec,
    batches: Vec<Batch>,
    next: usize,
    cursor: u64,
    verdicts: Vec<(u64, String)>,
    victims: Vec<u64>,
    accounts: Vec<u64>,
}

fn spec(seed: u64, i: usize, scale: f64) -> TenantSpec {
    TenantSpec {
        id: format!("t{i}"),
        seed: seed * 16 + i as u64,
        scale,
        workers: WORKERS,
        shards: SHARDS,
        quota: None,
    }
}

/// Replay tenant `spec`'s document stream into `sink` until it breaks.
fn stream(
    spec: &TenantSpec,
    sink: &mut dyn FnMut(u8, CollectedDoc) -> ControlFlow<()>,
) -> Result<(), String> {
    Study::with_registry(spec.study_config(), Registry::new())
        .synthetic_stream(sink)
        .map_err(|e| format!("stream: {e}"))
}

/// Render tenant `spec`'s document stream into period-pure ingest
/// requests of [`BATCH_DOCS`]; only the rendered bodies are kept.
fn load_for(spec: TenantSpec) -> Result<TenantLoad, String> {
    let mut rendered = Vec::new();
    let mut pending: Vec<CollectedDoc> = Vec::with_capacity(BATCH_DOCS);
    let mut pending_period = 0u8;
    let mut flush = |period: u8, pending: &mut Vec<CollectedDoc>| {
        if !pending.is_empty() {
            rendered.push(Batch {
                ids: pending.iter().map(|d| d.doc.id).collect(),
                body: ingest_body(&spec.id, period, pending),
            });
            pending.clear();
        }
    };
    stream(&spec, &mut |period, doc| {
        if period != pending_period || pending.len() == BATCH_DOCS {
            flush(pending_period, &mut pending);
            pending_period = period;
        }
        pending.push(doc);
        ControlFlow::Continue(())
    })?;
    flush(pending_period, &mut pending);
    Ok(TenantLoad {
        spec,
        batches: rendered,
        next: 0,
        cursor: 0,
        verdicts: Vec::new(),
        victims: Vec::new(),
        accounts: Vec::new(),
    })
}

/// Start the server and create every tenant; returns it with the seconds
/// from spawn to the last tenant created.
fn setup(binary: &PathBuf, loads: &[TenantLoad]) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let server = Server::spawn(binary)?;
    let mut conn = Conn::connect(&server.addr)?;
    for load in loads {
        let body = serde_json::to_string(&load.spec.to_value()).map_err(|e| e.to_string())?;
        match conn.send("POST", "/v1/tenants", &body) {
            Some((201, _)) => {}
            other => return Err(format!("tenant create answered {other:?}")),
        }
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// What one connection observed in one phase.
#[derive(Default)]
struct Tally {
    sent: u64,
    ok: u64,
    failed: u64,
    docs: u64,
    ingest_ms: Vec<f64>,
    read_ms: Vec<f64>,
    alert_lag_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// `(completion, docs)` of every successful ingest.
    done: Vec<(Instant, u64)>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.docs += other.docs;
        self.ingest_ms.extend(other.ingest_ms);
        self.read_ms.extend(other.read_ms);
        self.alert_lag_ms.extend(other.alert_lag_ms);
        self.late_ms.extend(other.late_ms);
        self.done.extend(other.done);
    }

    fn record(&mut self, ok: bool) {
        self.sent += 1;
        if ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Send the tenant's next batch (timed from `due`); after an ingest that
/// committed a dox, poll the alerts cursor. `false` once the stream is
/// exhausted.
fn ingest_next(conn: &mut Conn, load: &mut TenantLoad, due: Instant, tally: &mut Tally) -> bool {
    let Some(batch) = load.batches.get(load.next) else {
        return false;
    };
    load.next += 1;
    let reply = conn.send("POST", "/v1/ingest", &batch.body);
    let Some((200, body)) = reply else {
        tally.record(false);
        return true;
    };
    tally.ingest_ms.push(ms_since(due));
    let parsed: Option<Value> = serde_json::from_str(&body).ok();
    let verdicts: Option<Vec<(u64, String)>> = parsed
        .as_ref()
        .and_then(|v| v.get("verdicts")?.as_array().map(<[Value]>::to_vec))
        .map(|list| {
            list.iter()
                .filter_map(|v| {
                    Some((
                        v.get("doc_id")?.as_u64()?,
                        v.get("verdict")?.as_str()?.to_string(),
                    ))
                })
                .collect()
        });
    let ok = verdicts
        .as_ref()
        .is_some_and(|v| v.len() == batch.ids.len());
    tally.record(ok);
    let Some(verdicts) = verdicts else {
        return true;
    };
    let committed = verdicts.iter().filter(|(_, v)| v != "accepted").count() as u64;
    load.verdicts.extend(verdicts);
    tally.docs += batch.ids.len() as u64;
    tally.done.push((Instant::now(), batch.ids.len() as u64));
    if committed > 0 {
        let polled = Instant::now();
        let target = format!("/v1/alerts?tenant={}&cursor={}", load.spec.id, load.cursor);
        let page = conn
            .send("GET", &target, "")
            .filter(|(status, _)| *status == 200)
            .and_then(|(_, body)| serde_json::from_str::<Value>(&body).ok());
        let alerts = page
            .as_ref()
            .and_then(|p| p.get("alerts")?.as_array().map(<[Value]>::to_vec))
            .unwrap_or_default();
        let next = page.as_ref().and_then(|p| p.get("cursor")?.as_u64());
        let seen = next == Some(load.cursor + committed) && alerts.len() as u64 == committed;
        tally.record(seen);
        if seen {
            tally.read_ms.push(ms_since(polled));
            tally.alert_lag_ms.push(ms_since(due));
            let (victims, accounts) = alert_fingerprints(&alerts);
            load.victims.extend(victims);
            load.accounts.extend(accounts);
            load.cursor += committed;
        }
    }
    true
}

/// Lookup `k` of a fingerprint taken from an earlier alert of `load`
/// (an alerts poll until one exists), timed from `due`.
fn lookup(conn: &mut Conn, load: &TenantLoad, k: usize, due: Instant, tally: &mut Tally) {
    let id = &load.spec.id;
    let target = match k % 2 {
        0 if !load.victims.is_empty() => format!(
            "/v1/victims/{}?tenant={id}",
            load.victims[k % load.victims.len()]
        ),
        _ if !load.accounts.is_empty() => format!(
            "/v1/accounts/{}?tenant={id}",
            load.accounts[k % load.accounts.len()]
        ),
        _ => format!("/v1/alerts?tenant={id}&cursor={}", load.cursor),
    };
    let ok = matches!(conn.send("GET", &target, ""), Some((200, _)));
    tally.record(ok);
    if ok {
        tally.read_ms.push(ms_since(due));
    }
}

/// The open-loop schedule of connection `c` of `n`: slots `c`, `c + n`, ...
fn open_loop(
    addr: &str,
    loads: &mut [&mut TenantLoad],
    c: usize,
    start: Instant,
    slots: usize,
) -> Result<Tally, String> {
    let mut conn = Conn::connect(addr)?;
    let mut tally = Tally::default();
    let interval = 1.0 / OPEN_RATE;
    let mut turn = 0usize;
    let n = connections();
    for slot in (c..slots).step_by(n) {
        let due = start + Duration::from_secs_f64(slot as f64 * interval);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            tally.late_ms.push(ms_since(due));
        }
        let load = &mut loads[turn % loads.len()];
        // The mix is per connection, so every tenant sees the same one.
        let local = slot / n;
        if local % LOOKUP_EVERY == LOOKUP_EVERY - 1 {
            lookup(&mut conn, load, local / LOOKUP_EVERY, due, &mut tally);
        } else {
            turn += 1;
            if !ingest_next(&mut conn, load, due, &mut tally) {
                return Err("a tenant stream ran out during the open loop".into());
            }
        }
    }
    Ok(tally)
}

fn closed_loop(
    addr: &str,
    loads: &mut [&mut TenantLoad],
    until: Instant,
    exhausted: &Mutex<Option<Instant>>,
) -> Result<Tally, String> {
    let mut conn = Conn::connect(addr)?;
    let mut tally = Tally::default();
    let mut turn = 0usize;
    while Instant::now() < until && lock(exhausted).is_none() {
        let n = loads.len();
        let load = &mut loads[turn % n];
        turn += 1;
        if !ingest_next(&mut conn, load, Instant::now(), &mut tally) {
            // Ends the phase for both connections; capacity is measured
            // over the windows that completed before it.
            lock(exhausted).get_or_insert_with(Instant::now);
        }
    }
    Ok(tally)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Run `phase` on every connection at once, each over its own tenants.
fn on_connections<F>(loads: &mut [TenantLoad], phase: F) -> Result<Tally, String>
where
    F: Fn(&mut [&mut TenantLoad], usize) -> Result<Tally, String> + Sync,
{
    let n = connections();
    let mut owned: Vec<Vec<&mut TenantLoad>> = (0..n).map(|_| Vec::new()).collect();
    for (i, load) in loads.iter_mut().enumerate() {
        owned[i % n].push(load);
    }
    let phase = &phase;
    let results: Vec<Result<Tally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = owned
            .into_iter()
            .enumerate()
            .map(|(c, mut mine)| scope.spawn(move || phase(&mut mine, c)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut total = Tally::default();
    for result in results {
        total.merge(result?);
    }
    Ok(total)
}

/// One closed-loop run on a fresh server, cut into [`WINDOW`]s after a
/// one-window warm-up: docs/s and server CPU µs/doc of each window.
fn closed_phase(
    server: &Server,
    loads: &mut [TenantLoad],
    seconds: f64,
) -> Result<(Tally, Vec<f64>, Vec<f64>), String> {
    let windows = ((seconds / WINDOW.as_secs_f64()) as u32).max(3);
    let start = Instant::now();
    let until = start + WINDOW * windows;
    let exhausted = Mutex::new(None);
    let pid = server.pid();
    let (tally, cpu) = std::thread::scope(|scope| {
        let load = scope.spawn(|| {
            on_connections(loads, |mine, _| {
                closed_loop(&server.addr, mine, until, &exhausted)
            })
        });
        let mut cpu = Vec::with_capacity(windows as usize);
        for w in 1..=windows {
            if let Some(wait) = (start + WINDOW * w).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            cpu.push(probe::threads_cpu_ns(&pid));
        }
        let tally = load
            .join()
            .unwrap_or_else(|_| Err("load thread panicked".into()));
        tally.map(|t| (t, cpu))
    })?;
    let cutoff = lock(&exhausted).unwrap_or(until);
    let mut rates = Vec::new();
    let mut costs = Vec::new();
    for w in 1..windows {
        let (lo, hi) = (start + WINDOW * w, start + WINDOW * (w + 1));
        if hi > cutoff {
            break;
        }
        let (Some(Some(c0)), Some(Some(c1))) = (cpu.get(w as usize - 1), cpu.get(w as usize))
        else {
            return Err("cannot read the server's tasks".into());
        };
        let docs: u64 = tally
            .done
            .iter()
            .filter(|(t, _)| *t >= lo && *t < hi)
            .map(|(_, n)| n)
            .sum();
        rates.push(docs as f64 / WINDOW.as_secs_f64());
        costs.push(c1.saturating_sub(*c0) as f64 / 1e3 / docs.max(1) as f64);
    }
    Ok((tally, rates, costs))
}

/// Verdicts of a batch engine run over tenant `spec`'s first `sent`
/// documents, stream order.
fn batch_verdicts(spec: &TenantSpec, sent: usize) -> Result<Vec<(u64, String)>, String> {
    let study = Study::with_registry(spec.study_config(), Registry::new());
    let detector = study.train_detector().map_err(|e| e.to_string())?;
    let engine = Engine::from_config(EngineConfig {
        workers: 1,
        shards: 1,
        ..EngineConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let mut session = engine
        .session_builder()
        .detector(detector)
        .registry(&Registry::new())
        .start()
        .map_err(|e| e.to_string())?;
    let mut ids = Vec::with_capacity(sent);
    let mut failure = None;
    stream(spec, &mut |period, doc| {
        if ids.len() == sent {
            return ControlFlow::Break(());
        }
        ids.push(doc.doc.id);
        match session.ingest(period, doc) {
            Ok(()) => ControlFlow::Continue(()),
            Err(e) => {
                failure = Some(e.to_string());
                ControlFlow::Break(())
            }
        }
    })?;
    if let Some(e) = failure {
        return Err(e);
    }
    let output = session.finish().map_err(|e| e.to_string())?;
    let flagged: BTreeMap<u64, &str> = output
        .detected()
        .iter()
        .map(|d| {
            (
                d.doc_id,
                if d.duplicate.is_some() {
                    "duplicate"
                } else {
                    "dox"
                },
            )
        })
        .collect();
    Ok(ids
        .into_iter()
        .map(|id| {
            (
                id,
                flagged.get(&id).copied().unwrap_or("accepted").to_string(),
            )
        })
        .collect())
}

/// Tenant study scale whose stream covers the longest single-server use
/// in a run of `seconds`: the unloaded and open-loop phases at
/// [`OPEN_RATE`], or one closed loop at [`CAPACITY_HINT`] with margin.
fn stream_scale(seconds: f64) -> f64 {
    let ingest_share = 1.0 - 1.0 / LOOKUP_EVERY as f64;
    // 10% margin for the short batches at the period boundary.
    let open = 1.1 * OPEN_RATE * ingest_share * BATCH_DOCS as f64 * seconds * OPEN_SHARE
        + (UNLOADED * BATCH_DOCS) as f64;
    let closed = 1.5 * CAPACITY_HINT * seconds * (1.0 - OPEN_SHARE) / INSTANCES as f64;
    let per_tenant = (open.max(closed) / TENANTS as f64).max(SERVE_PASS_DOCS as f64);
    let paper_docs = spec(0, 0, 1.0).study_config().synth.total_documents() as f64;
    (per_tenant / paper_docs).clamp(0.001, 1.0)
}

/// Rewind every tenant to the start of its stream for a fresh server.
fn rewind(loads: &mut [TenantLoad]) -> Vec<Vec<(u64, String)>> {
    loads
        .iter_mut()
        .map(|load| {
            load.next = 0;
            load.cursor = 0;
            load.victims.clear();
            load.accounts.clear();
            std::mem::take(&mut load.verdicts)
        })
        .collect()
}

/// The traced run: the server's CPU over tenant t0's first documents,
/// sent one request at a time, against the in-process pass over them.
fn traced(
    server: Server,
    loads: &[TenantLoad],
    work: &WorkDir,
    out: &mut Outcome,
) -> Result<(), String> {
    let threads = probe::threads(&server.pid()).unwrap_or(0);
    let mut conn = Conn::connect(&server.addr)?;
    let pid = server.pid();
    let before = probe::threads_cpu_ns(&pid).ok_or("cannot read the server's tasks")?;
    let mut sent = 0usize;
    for batch in &loads[0].batches {
        if sent >= SERVE_PASS_DOCS {
            break;
        }
        let ok = matches!(conn.send("POST", "/v1/ingest", &batch.body), Some((200, _)));
        out.check(ok, "a traced ingest answers 200");
        sent += batch.ids.len();
    }
    let after = probe::threads_cpu_ns(&pid).ok_or("cannot read the server's tasks")?;
    drop(conn);
    drop(server);
    let cfg = loads[0].spec.study_config();
    let inputs = BatchInputs {
        cfg: &cfg,
        spill_cap: None,
        every: study::checkpoint_every(&cfg),
        store_dir: work.fresh("layers-store"),
    };
    let batch = layers::batch_pass(&inputs, out)?;
    let serve = layers::serve_pass(&loads[0].spec, &batch, sent, out)?;
    out.check(
        serve.docs as usize == sent,
        "the traced pass replays the sent documents",
    );
    let e2e_ns = (after - before) as f64 / sent.max(1) as f64;
    layers::emit(
        out,
        &batch,
        &serve,
        e2e_ns,
        serve.path_self_ns_per_doc(),
        threads,
    );
    Ok(())
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let scale = stream_scale(args.seconds);
    let binary = server_binary()?;
    progress("dox-serve built");
    let mut loads = (0..TENANTS)
        .map(|i| load_for(spec(args.seed, i, scale)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = Outcome::default();
    let docs: usize = loads
        .iter()
        .flat_map(|l| &l.batches)
        .map(|b| b.ids.len())
        .sum();
    progress(&format!("streams rendered: {docs} docs"));

    if args.trace {
        let (server, _) = setup(&binary, &loads)?;
        traced(server, &loads, work, &mut out)?;
        return Ok(out);
    }

    // Closed loops, each on a fresh server from the start of the streams:
    // capacity is a quartile over every server's windows, so neither one
    // server's thread placement nor a burst of interference from other
    // tenants of the machine decides it.
    let closed_seconds = args.seconds * (1.0 - OPEN_SHARE) / INSTANCES as f64;
    let mut setups = Vec::with_capacity(INSTANCES + 1);
    let mut rates = Vec::new();
    let mut costs = Vec::new();
    let mut rss = Vec::with_capacity(INSTANCES + 1);
    let mut closed = Tally::default();
    let mut runs: Vec<Vec<Vec<(u64, String)>>> = Vec::new();
    for _ in 0..INSTANCES {
        let (server, seconds) = setup(&binary, &loads)?;
        setups.push(seconds);
        let (tally, r, c) = closed_phase(&server, &mut loads, closed_seconds)?;
        rss.push(probe::peak_rss_mib(&server.pid()).ok_or("cannot read the server's VmHWM")?);
        drop(server);
        closed.merge(tally);
        rates.extend(r);
        costs.extend(c);
        if rates.is_empty() {
            return Err("the tenant streams ran out within the first closed-loop window".into());
        }
        runs.push(rewind(&mut loads));
    }
    progress(&format!("closed loops done: {} docs", closed.docs));

    // The open loop, on one more fresh server, after an unloaded warm-up
    // that also gives the unloaded latency.
    let (server, seconds) = setup(&binary, &loads)?;
    setups.push(seconds);
    let threads = probe::threads(&server.pid()).unwrap_or(0);
    let mut unloaded = Tally::default();
    {
        let mut conn = Conn::connect(&server.addr)?;
        for i in 0..UNLOADED {
            let load = &mut loads[i % TENANTS];
            if !ingest_next(&mut conn, load, Instant::now(), &mut unloaded) {
                return Err("a tenant stream ran out before the open loop".into());
            }
        }
    }
    let slots = (OPEN_RATE * args.seconds * OPEN_SHARE) as usize;
    let start = Instant::now() + Duration::from_millis(20);
    let addr = server.addr.clone();
    let open = on_connections(&mut loads, |mine, c| {
        open_loop(&addr, mine, c, start, slots)
    })?;
    rss.push(probe::peak_rss_mib(&server.pid()).ok_or("cannot read the server's VmHWM")?);
    drop(server);
    progress(&format!("open loop done: {} docs", open.docs));
    runs.push(rewind(&mut loads));

    for (phase, tally) in [
        ("closed", &closed),
        ("unloaded", &unloaded),
        ("open", &open),
    ] {
        out.attempted += tally.sent;
        out.failed += tally.failed;
        println!(
            "phase {phase}: sent {} ok {} failed {} docs {}",
            tally.sent, tally.ok, tally.failed, tally.docs
        );
    }
    // Every server saw a prefix of each tenant's stream; each prefix's
    // verdicts must match the batch engine's over the longest one.
    for (i, load) in loads.iter().enumerate() {
        let longest = runs.iter().map(|run| run[i].len()).max().unwrap_or(0);
        let expected = batch_verdicts(&load.spec, longest)?;
        for run in &runs {
            out.check(
                run[i] == expected[..run[i].len()],
                &format!("tenant {} verdicts equal the batch output", load.spec.id),
            );
        }
    }
    progress("verdicts checked");

    out.metric("setup_s", undisturbed(&setups, false), "s");
    out.metric("docs_per_s", undisturbed(&rates, true), "docs/s");
    out.metric("cpu_us_per_doc", undisturbed(&costs, false), "us");
    out.metric("peak_rss_mb", median(&rss), "MiB");
    let ingest_p99 = quantile(&open.ingest_ms, 0.99);
    out.note("ingest_p50_ms", quantile(&open.ingest_ms, 0.5), "ms");
    out.note("ingest_p99_ms", ingest_p99, "ms");
    out.note("read_p50_ms", quantile(&open.read_ms, 0.5), "ms");
    out.note("read_p99_ms", quantile(&open.read_ms, 0.99), "ms");
    out.note("alert_lag_p99_ms", quantile(&open.alert_lag_ms, 0.99), "ms");
    out.note(
        "serve.wait_ms_p99",
        ingest_p99 - quantile(&unloaded.ingest_ms, 0.99),
        "ms",
    );
    out.note("gen_late_p99_ms", quantile(&open.late_ms, 0.99), "ms");
    out.note("open.rate", OPEN_RATE, "req/s");
    out.note("open.ingest_samples", open.ingest_ms.len() as f64, "count");
    out.note("open.read_samples", open.read_ms.len() as f64, "count");
    out.note("server.threads", threads as f64, "count");
    out.note("nproc", probe::nproc() as f64, "count");
    out.note("connections", connections() as f64, "count");
    out.note(
        "perfbench.peak_rss_mb",
        probe::peak_rss_mib("self").unwrap_or(0.0),
        "MiB",
    );
    Ok(out)
}
