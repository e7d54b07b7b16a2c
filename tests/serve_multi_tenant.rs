//! Service mode preserves the determinism contract under multi-tenancy:
//! N tenants fed their studies' document streams over parallel raw
//! `TcpStream` HTTP clients each answer `GET /v1/report` byte-identical
//! to the batch [`Study::run`] under the same `(config, seed)`.

use doxing_repro::core::report;
use doxing_repro::core::study::Study;
use doxing_repro::obs::http::DEFAULT_MAX_BODY;
use doxing_repro::obs::{HttpServer, Registry, Tracer};
use doxing_repro::serve::{router, ServeState, TenantSpec};
use serde::value::{Number, Value};
use serde::Serialize;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::sync::Arc;

const SCALE: f64 = 0.005;
const BATCH_DOCS: usize = 250;
const SEEDS: [u64; 2] = [0x51, 0x7A];

fn spec(i: usize, seed: u64) -> TenantSpec {
    TenantSpec {
        id: format!("t{i}"),
        seed,
        scale: SCALE,
        workers: 2,
        shards: 4,
        quota: None,
    }
}

/// One keep-alive HTTP/1.1 round trip; returns `(status, body)`.
fn roundtrip(stream: &mut TcpStream, method: &str, path: &str, body: &str) -> (u16, String) {
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
    (status, String::from_utf8_lossy(&body).to_string())
}

/// The tenant's whole two-period document stream as ingest batches that
/// never mix periods.
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

#[test]
fn parallel_tenants_match_their_batch_reports_byte_for_byte() {
    let state = Arc::new(ServeState::new(Registry::new()));
    let server = HttpServer::start(
        "127.0.0.1:0",
        router(Arc::clone(&state), &Tracer::disabled()),
        4,
        DEFAULT_MAX_BODY,
    )
    .expect("server binds");
    let addr = server.local_addr().to_string();

    let specs: Vec<TenantSpec> = SEEDS
        .iter()
        .enumerate()
        .map(|(i, &seed)| spec(i, seed))
        .collect();
    for spec in &specs {
        let body = serde_json::to_string(&spec.to_value()).expect("spec serializes");
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let (status, response) = roundtrip(&mut stream, "POST", "/v1/tenants", &body);
        assert_eq!(status, 201, "tenant create failed: {response}");
    }

    // Parallel ingest: one client thread and one connection per tenant,
    // interleaving on the server's worker pool.
    std::thread::scope(|scope| {
        for spec in &specs {
            let addr = addr.clone();
            scope.spawn(move || {
                let batches = full_stream(spec);
                let mut stream = TcpStream::connect(&addr).expect("connect");
                for (period, docs) in &batches {
                    let body = serde_json::to_string(&Value::Object(vec![
                        ("tenant".to_string(), Value::String(spec.id.clone())),
                        (
                            "period".to_string(),
                            Value::Number(Number::U64(u64::from(*period))),
                        ),
                        ("docs".to_string(), Value::Array(docs.clone())),
                    ]))
                    .expect("batch serializes");
                    let (status, response) = roundtrip(&mut stream, "POST", "/v1/ingest", &body);
                    assert_eq!(status, 200, "ingest failed: {response}");
                }
            });
        }
    });

    // Each tenant's live report must equal the batch study's, byte for
    // byte, under the identical derived config.
    for spec in &specs {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let path = format!("/v1/report?tenant={}", spec.id);
        let (status, served) = roundtrip(&mut stream, "GET", &path, "");
        assert_eq!(status, 200, "report failed: {served}");

        let batch = Study::new(spec.study_config()).run().expect("batch runs");
        let reference = report::to_json(&batch).expect("report serializes");
        assert_eq!(
            served, reference,
            "tenant '{}' diverges from its batch study",
            spec.id
        );
    }

    server.stop();
}

/// A dox whose text lowercases to more bytes than it holds, ahead of a
/// credit line, must not take its tenant down: the ingest that carries it
/// and the next one both answer 200.
#[test]
fn a_length_changing_lowercase_before_a_credit_keeps_the_tenant_serving() {
    let state = Arc::new(ServeState::new(Registry::new()));
    let server = HttpServer::start(
        "127.0.0.1:0",
        router(Arc::clone(&state), &Tracer::disabled()),
        2,
        DEFAULT_MAX_BODY,
    )
    .expect("server binds");
    let addr = server.local_addr().to_string();
    let spec = spec(0, SEEDS[0]);
    let body = serde_json::to_string(&spec.to_value()).expect("spec serializes");
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let (status, response) = roundtrip(&mut stream, "POST", "/v1/tenants", &body);
    assert_eq!(status, 201, "tenant create failed: {response}");

    // The stream's first dox, with the line appended, then the document
    // after it.
    let study = Study::with_registry(spec.study_config(), Registry::new());
    let mut picked = Vec::new();
    study
        .synthetic_stream(&mut |period, mut doc| {
            if !picked.is_empty() {
                picked.push((period, doc));
                return ControlFlow::Break(());
            }
            if doc.doc.truth.is_dox() {
                doc.doc.body.push_str("\nİ dropped by éé\n");
                picked.push((period, doc));
            }
            ControlFlow::Continue(())
        })
        .expect("stream replays");
    assert_eq!(picked.len(), 2);

    for (i, (period, doc)) in picked.iter().enumerate() {
        let body = serde_json::to_string(&Value::Object(vec![
            ("tenant".to_string(), Value::String(spec.id.clone())),
            (
                "period".to_string(),
                Value::Number(Number::U64(u64::from(*period))),
            ),
            ("docs".to_string(), Value::Array(vec![doc.to_value()])),
        ]))
        .expect("batch serializes");
        let (status, response) = roundtrip(&mut stream, "POST", "/v1/ingest", &body);
        assert_eq!(status, 200, "ingest {i} failed: {response}");
        if i == 0 {
            assert!(response.contains("\"dox\""), "not classified: {response}");
        }
    }
    server.stop();
}
