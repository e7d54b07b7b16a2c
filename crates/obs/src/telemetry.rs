//! Live telemetry over the shared [`crate::http`] server.
//!
//! The endpoint answers two routes:
//!
//! * `GET /metrics` — the current [`crate::Snapshot`] (counters, gauges,
//!   span histograms, recent events, drop counts) plus
//!   `rates_per_s`: rolling per-stage docs/s computed from counter and
//!   histogram-count deltas between successive scrapes, and the
//!   tracer's admitted/buffered/dropped tallies.
//! * `GET /traces` — the most recent sampled traces from the bounded
//!   trace buffer, as a JSON object.
//!
//! Wrong-method hits on those routes get `405` with an `Allow` header;
//! anything else is a 404. This is an operator inspection port, not a
//! public API. Wall-clock time is used for scrape-to-scrape rates —
//! that is fine here because nothing served by this endpoint ever feeds
//! the `ExperimentReport`.

use crate::http::{HttpServer, Response, Router};
use crate::metrics::Registry;
use crate::snapshot::Snapshot;
use crate::trace::{Trace, Tracer};
use serde::Serialize;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Traces returned by `GET /traces`.
const TRACES_LIMIT: usize = 64;

/// Workers serving the inspection port; scrapes are cheap and rare.
const TELEMETRY_WORKERS: usize = 2;

/// A running telemetry endpoint. Stop it with [`Telemetry::stop`];
/// dropping it also shuts the server down.
#[derive(Debug)]
pub struct Telemetry {
    server: HttpServer,
}

impl Telemetry {
    /// Bind `addr` (e.g. `"127.0.0.1:9100"`, port 0 for ephemeral) and
    /// serve the given registry and tracer until stopped.
    ///
    /// # Errors
    /// Returns the bind error when the address is unavailable.
    pub fn start(addr: &str, registry: Registry, tracer: Tracer) -> std::io::Result<Self> {
        let server = HttpServer::start(
            addr,
            router(registry, tracer),
            TELEMETRY_WORKERS,
            crate::http::DEFAULT_MAX_BODY,
        )?;
        Ok(Self { server })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Shut the server down and join its threads.
    pub fn stop(self) {
        self.server.stop();
    }
}

/// Build the telemetry route table over `registry` and `tracer`.
///
/// `dox-serve` mounts these same routes next to its service API so one
/// port serves both; the standalone [`Telemetry`] endpoint serves them
/// alone.
pub fn router(registry: Registry, tracer: Tracer) -> Router {
    let baseline: Mutex<Option<RateBaseline>> = Mutex::new(None);
    let traces_tracer = tracer.clone();
    Router::new()
        .route("GET", "/metrics", move |_req| {
            let mut baseline = baseline.lock().unwrap_or_else(PoisonError::into_inner);
            let body = metrics_body(&registry, &tracer, &mut baseline);
            Response::ok(serde_json::to_string(&body).unwrap_or_default())
        })
        .route("GET", "/traces", move |_req| {
            let body = TracesBody {
                dropped: traces_tracer.dropped(),
                traces: traces_tracer.recent(TRACES_LIMIT),
            };
            Response::ok(serde_json::to_string(&body).unwrap_or_default())
        })
}

/// Scrape-to-scrape state for rolling rates.
struct RateBaseline {
    at: Instant,
    counts: BTreeMap<String, u64>,
}

/// Current per-stage completion counts: every counter's value plus every
/// histogram's observation count — the quantities whose deltas are
/// "documents per second" for a stage.
fn stage_counts(snapshot: &Snapshot) -> BTreeMap<String, u64> {
    let mut counts: BTreeMap<String, u64> = snapshot.counters.clone();
    for (name, h) in &snapshot.spans {
        counts.insert(name.clone(), h.count);
    }
    counts
}

/// The `GET /metrics` body.
#[derive(Serialize)]
struct MetricsBody {
    snapshot: Snapshot,
    rates_per_s: BTreeMap<String, f64>,
    trace: TraceStats,
}

/// The tracer's tallies in a `GET /metrics` body.
#[derive(Serialize)]
struct TraceStats {
    admitted: u64,
    buffered: usize,
    dropped: u64,
}

/// The `GET /traces` body.
#[derive(Serialize)]
struct TracesBody {
    dropped: u64,
    traces: Vec<Trace>,
}

#[allow(clippy::cast_precision_loss)]
fn metrics_body(
    registry: &Registry,
    tracer: &Tracer,
    baseline: &mut Option<RateBaseline>,
) -> MetricsBody {
    let snapshot = registry.snapshot();
    let now = Instant::now();
    let counts = stage_counts(&snapshot);
    let mut rates_per_s = BTreeMap::new();
    if let Some(prev) = baseline.as_ref() {
        let elapsed = now.duration_since(prev.at).as_secs_f64();
        if elapsed > 0.0 {
            for (name, count) in &counts {
                let before = prev.counts.get(name).copied().unwrap_or(0);
                let per_s = (count.saturating_sub(before)) as f64 / elapsed;
                // Keep the JSON readable: three decimals is plenty for an
                // operator eyeballing throughput.
                rates_per_s.insert(name.clone(), (per_s * 1000.0).round() / 1000.0);
            }
        }
    }
    *baseline = Some(RateBaseline { at: now, counts });
    MetricsBody {
        snapshot,
        rates_per_s,
        trace: TraceStats {
            admitted: tracer.admitted(),
            buffered: tracer.buffered(),
            dropped: tracer.dropped(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{hop, TraceConfig, SAMPLE_ALL};
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        let (head, body) = response.split_once("\r\n\r\n").expect("header split");
        (head.to_string(), body.to_string())
    }

    fn fixture() -> (Registry, Tracer) {
        let registry = Registry::new();
        registry.counter("pipeline.funnel.collected").add(120);
        registry.histogram("pipeline.stage.classify").observe(500);
        let tracer = Tracer::new(TraceConfig {
            seed: 5,
            sample_ppm: SAMPLE_ALL,
            capacity: 64,
        });
        tracer.begin(3, hop("collect", 30, "src=pastebin"));
        tracer.hop(3, hop("commit", 30, "seq=0"));
        (registry, tracer)
    }

    #[test]
    fn metrics_endpoint_serves_snapshot_and_rates() {
        let (registry, tracer) = fixture();
        let server =
            Telemetry::start("127.0.0.1:0", registry.clone(), tracer).expect("bind ephemeral");
        let addr = server.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        let v: serde_json::Value = serde_json::from_str(&body).expect("json body");
        assert_eq!(
            v["snapshot"]["counters"]["pipeline.funnel.collected"].as_u64(),
            Some(120)
        );
        assert_eq!(v["trace"]["buffered"].as_u64(), Some(1));

        // Second scrape: rates appear, reflecting the delta.
        registry.counter("pipeline.funnel.collected").add(60);
        let (_, body2) = get(addr, "/metrics");
        let v2: serde_json::Value = serde_json::from_str(&body2).expect("json body");
        let rate = v2["rates_per_s"]["pipeline.funnel.collected"]
            .as_f64()
            .expect("rate present");
        assert!(rate > 0.0, "delta of 60 must yield a positive rate");
        server.stop();
    }

    #[test]
    fn traces_endpoint_serves_recent_traces() {
        let (registry, tracer) = fixture();
        let server = Telemetry::start("127.0.0.1:0", registry, tracer).expect("bind ephemeral");
        let (head, body) = get(server.local_addr(), "/traces");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let v: serde_json::Value = serde_json::from_str(&body).expect("json body");
        let traces = v["traces"].as_array().expect("traces array");
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0]["doc_id"].as_u64(), Some(3));
        assert_eq!(traces[0]["hops"][1]["stage"].as_str(), Some("commit"));
        server.stop();
    }

    #[test]
    fn unknown_routes_are_404_and_wrong_methods_405() {
        let (registry, tracer) = fixture();
        let server = Telemetry::start("127.0.0.1:0", registry, tracer).expect("bind ephemeral");
        let addr = server.local_addr();
        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "POST /metrics HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        )
        .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
        assert!(response.contains("Allow: GET"), "{response}");
        server.stop();
    }

    #[test]
    fn stop_joins_the_server_thread() {
        let (registry, tracer) = fixture();
        let server = Telemetry::start("127.0.0.1:0", registry, tracer).expect("bind ephemeral");
        let addr = server.local_addr();
        server.stop();
        // The port is released once the threads exit; a rebind succeeds.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "address released after stop");
    }
}
