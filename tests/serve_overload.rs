//! Overload-policy integration (DESIGN.md §13) over the live API:
//! drain ordering — mutations refuse with 503 the instant a drain
//! begins while already-admitted requests complete whole and the
//! checkpoint reflects exactly the admitted documents — per-tenant
//! ingest quotas answering 429 + `Retry-After` that actually refill, and
//! hostile JSON bodies answered 400 without taking the daemon down.

use doxing_repro::core::study::Study;
use doxing_repro::obs::http::DEFAULT_MAX_BODY;
use doxing_repro::obs::{HttpServer, Registry, Tracer};
use doxing_repro::serve::{router, QuotaSpec, ServeState, TenantSpec};
use serde::value::{Number, Value};
use serde::Serialize;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Duration;

const SCALE: f64 = 0.005;
const BATCH_DOCS: usize = 250;
const SEED: u64 = 0x0D;

fn spec(id: &str, quota: Option<QuotaSpec>) -> TenantSpec {
    TenantSpec {
        id: id.to_string(),
        seed: SEED,
        scale: SCALE,
        workers: 2,
        shards: 4,
        quota,
    }
}

/// One keep-alive round trip; returns `(status, response head, body)`
/// so callers can assert on `Retry-After`.
fn roundtrip(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String, String) {
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        assert!(
            stream.read(&mut byte).expect("read response") > 0,
            "server closed mid-response"
        );
        head.push(byte[0]);
        if head.ends_with(b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&head).to_string();
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
    (status, head, String::from_utf8_lossy(&body).to_string())
}

fn retry_after_secs(head: &str) -> Option<u64> {
    head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("retry-after")
            .then(|| value.trim().parse().ok())?
    })
}

/// The tenant's two-period stream as period-pure ingest batches.
fn full_stream(spec: &TenantSpec) -> Vec<(u8, Vec<Value>)> {
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

fn ingest_body(id: &str, period: u8, docs: &[Value]) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("tenant".to_string(), Value::String(id.to_string())),
        (
            "period".to_string(),
            Value::Number(Number::U64(u64::from(period))),
        ),
        ("docs".to_string(), Value::Array(docs.to_vec())),
    ]))
    .expect("batch serializes")
}

fn boot(state: &Arc<ServeState>) -> (HttpServer, String) {
    let server = HttpServer::start(
        "127.0.0.1:0",
        router(Arc::clone(state), &Tracer::disabled()),
        4,
        DEFAULT_MAX_BODY,
    )
    .expect("server binds");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn create_tenant(addr: &str, spec: &TenantSpec) {
    let body = serde_json::to_string(&spec.to_value()).expect("spec serializes");
    let mut stream = TcpStream::connect(addr).expect("connect");
    let (status, _, response) = roundtrip(&mut stream, "POST", "/v1/tenants", &body);
    assert_eq!(status, 201, "tenant create failed: {response}");
}

fn fetch_report(addr: &str, id: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let (status, _, served) = roundtrip(&mut stream, "GET", &format!("/v1/report?tenant={id}"), "");
    assert_eq!(status, 200, "report failed: {served}");
    served
}

#[test]
fn drain_refuses_mutations_while_admitted_work_completes_whole() {
    let state = Arc::new(ServeState::new(Registry::new()));
    let (server, addr) = boot(&state);
    let spec = spec("d0", None);
    create_tenant(&addr, &spec);

    // Before the drain: ready, alive, and ingesting.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let (status, _, _) = roundtrip(&mut stream, "GET", "/readyz", "");
    assert_eq!(status, 200, "ready before drain");

    let batches = full_stream(&spec);
    let (last, admitted_head) = batches.split_last().expect("stream yields batches");
    for (period, docs) in admitted_head {
        let body = ingest_body(&spec.id, *period, docs);
        let (status, _, response) = roundtrip(&mut stream, "POST", "/v1/ingest", &body);
        assert_eq!(status, 200, "ingest failed: {response}");
    }

    // Fire the final batch from its own client and begin the drain
    // while it may be in flight. The race has exactly two legal
    // outcomes: admitted before the flag (200, and the checkpoint holds
    // every one of its docs) or refused (503, and none of them). A torn
    // in-between is the bug this test exists to catch.
    let last_body = ingest_body(&spec.id, last.0, &last.1);
    let last_status = std::thread::scope(|scope| {
        let racer = scope.spawn(|| {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            let (status, _, _) = roundtrip(&mut stream, "POST", "/v1/ingest", &last_body);
            status
        });
        std::thread::sleep(Duration::from_millis(2));
        // Blocks until every admitted mutation has completed.
        state.begin_drain();
        racer.join().expect("racing client")
    });
    assert!(
        last_status == 200 || last_status == 503,
        "in-flight ingest must be admitted whole or refused whole, got {last_status}"
    );

    // After the drain began: mutations refuse, liveness and reads hold.
    let (status, _, _) = roundtrip(&mut stream, "GET", "/readyz", "");
    assert_eq!(status, 503, "draining server is unready");
    let (status, _, _) = roundtrip(&mut stream, "GET", "/healthz", "");
    assert_eq!(status, 200, "draining server is still alive");
    let (status, _, _) = roundtrip(&mut stream, "POST", "/v1/ingest", &last_body);
    assert_eq!(status, 503, "ingest refused during drain");
    let spec_body = serde_json::to_string(&spec.to_value()).expect("spec serializes");
    let (status, _, _) = roundtrip(&mut stream, "POST", "/v1/tenants", &spec_body);
    assert_eq!(status, 503, "tenant create refused during drain");
    let (status, _, _) = roundtrip(&mut stream, "DELETE", "/v1/tenants/d0", "");
    assert_eq!(status, 503, "tenant delete refused during drain");
    let drained_report = fetch_report(&addr, &spec.id);

    // Checkpoint, restore into a fresh server, and byte-compare the
    // report against a reference tenant fed exactly the admitted
    // batches: the checkpoint must reflect every admitted document and
    // nothing else.
    let dir = std::env::temp_dir().join(format!("dox-serve-overload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("checkpoint dir");
    state.drain_checkpoints(&dir).expect("drain checkpoints");
    server.stop();

    let restored_state = Arc::new(ServeState::new(Registry::new()));
    restored_state
        .restore_checkpoints(&dir)
        .expect("restore checkpoints");
    let (restored_server, restored_addr) = boot(&restored_state);
    let restored_report = fetch_report(&restored_addr, &spec.id);
    restored_server.stop();
    assert_eq!(
        restored_report, drained_report,
        "restore must reproduce the drained tenant byte-for-byte"
    );

    let reference_state = Arc::new(ServeState::new(Registry::new()));
    let (reference_server, reference_addr) = boot(&reference_state);
    create_tenant(&reference_addr, &spec);
    let mut reference_stream = TcpStream::connect(&reference_addr).expect("connect");
    for (period, docs) in admitted_head {
        let body = ingest_body(&spec.id, *period, docs);
        let (status, _, response) = roundtrip(&mut reference_stream, "POST", "/v1/ingest", &body);
        assert_eq!(status, 200, "reference ingest failed: {response}");
    }
    if last_status == 200 {
        let (status, _, response) =
            roundtrip(&mut reference_stream, "POST", "/v1/ingest", &last_body);
        assert_eq!(status, 200, "reference ingest failed: {response}");
    }
    let reference_report = fetch_report(&reference_addr, &spec.id);
    reference_server.stop();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        drained_report, reference_report,
        "checkpoint must reflect exactly the admitted documents"
    );
}

#[test]
fn quota_answers_429_with_retry_after_and_refills() {
    let state = Arc::new(ServeState::new(Registry::new()));
    let (server, addr) = boot(&state);
    // 30 docs/s with a 30-doc burst: one batch in, the next waits ~1 s.
    let spec = spec(
        "q0",
        Some(QuotaSpec {
            docs_per_sec: Some(30.0),
            burst_docs: Some(30),
            max_inflight_bytes: Some(8 << 20),
        }),
    );
    create_tenant(&addr, &spec);

    let batches = full_stream(&spec);
    let (period, docs) = batches.first().expect("stream yields batches");
    let body = ingest_body(&spec.id, *period, &docs[..30.min(docs.len())]);

    let mut stream = TcpStream::connect(&addr).expect("connect");
    let (status, _, response) = roundtrip(&mut stream, "POST", "/v1/ingest", &body);
    assert_eq!(status, 200, "burst-sized batch admitted: {response}");

    let (status, head, response) = roundtrip(&mut stream, "POST", "/v1/ingest", &body);
    assert_eq!(status, 429, "bucket empty -> 429, got: {response}");
    let retry = retry_after_secs(&head).expect("429 carries Retry-After");
    assert!(retry >= 1, "Retry-After must be at least a second");
    assert!(
        !response.contains("docs"),
        "quota refusal must not echo request content"
    );

    // The refusal is visible in the tenant's own counters.
    let (status, _, metrics) = roundtrip(&mut stream, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("serve.tenant.q0.quota_rejects"),
        "per-tenant quota counter exported: {metrics}"
    );

    // Honoring Retry-After succeeds: the bucket actually refills.
    std::thread::sleep(Duration::from_secs(retry.min(3)) + Duration::from_millis(300));
    let (status, _, response) = roundtrip(&mut stream, "POST", "/v1/ingest", &body);
    assert_eq!(status, 200, "post-refill ingest admitted: {response}");

    server.stop();
}

#[test]
fn deeply_nested_bodies_are_refused_and_the_daemon_keeps_serving() {
    let state = Arc::new(ServeState::new(Registry::new()));
    let (server, addr) = boot(&state);
    // 10,000 levels: far past the parser's depth cap, and deep enough to
    // overflow a worker thread's stack if the parser recursed unbounded.
    let bodies = ["[".repeat(10_000), r#"{"a":"#.repeat(10_000)];
    let mut stream = TcpStream::connect(&addr).expect("connect");
    for path in ["/v1/ingest", "/v1/tenants"] {
        for body in &bodies {
            let (status, _, response) = roundtrip(&mut stream, "POST", path, body);
            assert_eq!(status, 400, "{path} refuses nesting: {response}");
        }
    }
    let (status, _, _) = roundtrip(&mut stream, "GET", "/healthz", "");
    assert_eq!(status, 200, "the daemon is still alive");
    server.stop();
}
