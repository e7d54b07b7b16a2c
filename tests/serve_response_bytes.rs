//! Every `dox-serve` route's response bytes, pinned.
//!
//! One fixed tenant ingests the head of its study's document stream
//! through the in-process router; the test then walks every route and
//! every refusal the API answers, and compares the transcript — one
//! `label | status | body` line per request, a long body shown as its
//! digest — against [`EXPECTED`]. A change to how responses are encoded
//! must leave this transcript as it is.
//!
//! Every body, error envelopes included, must also parse as JSON. On a
//! mismatch the test prints the whole actual transcript.

use doxing_repro::core::study::Study;
use doxing_repro::obs::http::{Request, Response, Router};
use doxing_repro::obs::trace::hop;
use doxing_repro::obs::{Registry, TraceConfig, Tracer, SAMPLE_ALL};
use doxing_repro::serve::{router, ServeState, TenantSpec};
use serde::value::{Number, Value};
use serde::Serialize;
use std::fmt::Write as _;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Documents of the pinned tenant's stream that are ingested.
const STREAM_DOCS: usize = 3_000;
/// Documents per ingest batch after the first, literal one.
const BATCH_DOCS: usize = 250;
/// Bodies longer than this are shown as a digest.
const LITERAL_MAX: usize = 700;

fn spec() -> TenantSpec {
    TenantSpec {
        id: "pin".to_string(),
        seed: 0x51,
        scale: 0.005,
        workers: 2,
        shards: 4,
        quota: None,
    }
}

/// FNV-1a 64 of `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A body as pinned: itself when short, else its digest and length.
fn shown(body: &str) -> String {
    if body.len() <= LITERAL_MAX {
        body.to_string()
    } else {
        digest(body)
    }
}

fn digest(body: &str) -> String {
    format!("fnv:{:016x}:{}", fnv(body.as_bytes()), body.len())
}

/// Records one `label | status | body` line per exchange.
struct Transcript<'r> {
    router: &'r Router,
    text: String,
}

/// Dispatch one request through `router`; its body must be JSON.
fn dispatch(router: &Router, method: &str, target: &str, body: impl AsRef<[u8]>) -> Response {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };
    let mut request = Request {
        method: method.to_string(),
        path,
        query,
        params: Vec::new(),
        body: body.as_ref().to_vec(),
    };
    let response = router.dispatch(&mut request);
    if let Err(e) = serde_json::from_str::<Value>(&response.payload) {
        panic!("{method} {target}: {:?} is not JSON: {e}", response.payload);
    }
    response
}

impl Transcript<'_> {
    /// Dispatch one request, record it, and return its body.
    fn send(&mut self, label: &str, method: &str, target: &str, body: impl AsRef<[u8]>) -> String {
        let response = dispatch(self.router, method, target, body);
        self.line(label, response.status, &shown(&response.payload));
        response.payload
    }

    fn line(&mut self, label: &str, status: u16, body: &str) {
        let _ = writeln!(self.text, "{label} | {status} | {body}");
    }
}

/// An ingest request body for `docs` of `period` to `tenant`.
fn ingest_body(tenant: &str, period: u8, docs: Vec<Value>) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("tenant".to_string(), Value::String(tenant.to_string())),
        (
            "period".to_string(),
            Value::Number(Number::U64(u64::from(period))),
        ),
        ("docs".to_string(), Value::Array(docs)),
    ]))
    .expect("body encodes")
}

/// The first [`STREAM_DOCS`] documents of the pinned tenant's stream as
/// period-pure batches: three documents first, then [`BATCH_DOCS`].
fn stream_batches() -> Vec<(u8, Vec<Value>)> {
    let study = Study::with_registry(spec().study_config(), Registry::new());
    let mut batches: Vec<(u8, Vec<Value>)> = Vec::new();
    let mut seen = 0;
    study
        .synthetic_stream(&mut |period, doc| {
            let cap = if batches.len() <= 1 { 3 } else { BATCH_DOCS };
            match batches.last_mut() {
                Some((p, docs)) if *p == period && docs.len() < cap => docs.push(doc.to_value()),
                _ => batches.push((period, vec![doc.to_value()])),
            }
            seen += 1;
            if seen == STREAM_DOCS {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .expect("stream replays");
    batches
}

/// The first alert's victim and account fingerprints, from a page body.
fn first_fingerprints(alerts_body: &str) -> (u64, u64) {
    let page: Value = serde_json::from_str(alerts_body).expect("alerts page parses");
    let alerts = page["alerts"].as_array().expect("alerts array");
    let victim = alerts
        .iter()
        .find_map(|a| a["victim"].as_u64())
        .expect("an alert names a victim");
    let account = alerts
        .iter()
        .find_map(|a| a["accounts"].as_array()?.first()?.as_u64())
        .expect("an alert names an account");
    (victim, account)
}

/// Drive every route and return the transcript.
fn transcript() -> String {
    let state = Arc::new(ServeState::new(Registry::new()));
    let tracer = Tracer::new(TraceConfig {
        seed: 5,
        sample_ppm: SAMPLE_ALL,
        capacity: 8,
    });
    tracer.begin(3, hop("collect", 30, "src=pastebin"));
    tracer.hop(3, hop("commit", 31, "seq=0"));
    let serve = router(Arc::clone(&state), &tracer);
    let mut t = Transcript {
        router: &serve,
        text: String::new(),
    };
    let spec = serde_json::to_string(&spec().to_value()).expect("spec encodes");

    t.send("healthz", "GET", "/healthz", "");
    t.send("readyz", "GET", "/readyz", "");
    t.send("list empty", "GET", "/v1/tenants", "");
    t.send("alerts, no tenant", "GET", "/v1/alerts", "");
    t.send("create, not json", "POST", "/v1/tenants", "{");
    t.send("create, not utf-8", "POST", "/v1/tenants", b"\xff");
    let bad_id = r#"{"id":"bad id","seed":1,"scale":0.01}"#;
    t.send("create, bad id", "POST", "/v1/tenants", bad_id);
    t.send("create", "POST", "/v1/tenants", &spec);
    t.send("create again", "POST", "/v1/tenants", &spec);
    t.send("list one", "GET", "/v1/tenants", "");

    let ghost = ingest_body("ghost", 1, Vec::new());
    t.send("ingest, unknown tenant", "POST", "/v1/ingest", ghost);
    let no_period = r#"{"tenant":"pin","docs":[]}"#;
    t.send("ingest, no period", "POST", "/v1/ingest", no_period);
    let no_docs = r#"{"tenant":"pin","period":1}"#;
    t.send("ingest, no docs", "POST", "/v1/ingest", no_docs);
    let malformed = r#"{"tenant":"pin","period":1,"docs":[{}]}"#;
    t.send("ingest, malformed doc", "POST", "/v1/ingest", malformed);
    let batches = stream_batches();
    let (first_period, first_docs) = batches[0].clone();
    let bad_period = ingest_body("pin", 7, first_docs.clone());
    t.send("ingest, engine error", "POST", "/v1/ingest", bad_period);
    let first = ingest_body("pin", first_period, first_docs);
    t.send("ingest, first batch", "POST", "/v1/ingest", &first);
    // Every later batch as one line: their statuses and bodies' digest.
    let (mut statuses, mut verdicts) = (String::new(), String::new());
    for (period, docs) in batches.into_iter().skip(1) {
        let response = dispatch(
            &serve,
            "POST",
            "/v1/ingest",
            ingest_body("pin", period, docs),
        );
        let _ = write!(statuses, "{},", response.status);
        verdicts.push_str(&response.payload);
        verdicts.push('\n');
    }
    t.line(&format!("ingest rest: {statuses}"), 200, &digest(&verdicts));

    t.send("list after ingest", "GET", "/v1/tenants", "");
    let page = t.send(
        "alerts page 1",
        "GET",
        "/v1/alerts?tenant=pin&cursor=0&limit=2",
        "",
    );
    let next = serde_json::from_str::<Value>(&page).expect("page parses")["cursor"]
        .as_u64()
        .expect("cursor");
    let page2 = format!("/v1/alerts?tenant=pin&cursor={next}&limit=2");
    t.send("alerts page 2", "GET", &page2, "");
    let all = t.send("alerts all", "GET", "/v1/alerts?limit=4096", "");
    t.send("alerts, bad cursor", "GET", "/v1/alerts?cursor=x", "");
    t.send("alerts, bad limit", "GET", "/v1/alerts?limit=abc", "");
    t.send("alerts, negative limit", "GET", "/v1/alerts?limit=-1", "");
    let (victim, account) = first_fingerprints(&all);
    t.send("victim", "GET", &format!("/v1/victims/{victim}"), "");
    t.send("victim, unknown", "GET", "/v1/victims/1", "");
    t.send("victim, bad id", "GET", "/v1/victims/x", "");
    t.send("account", "GET", &format!("/v1/accounts/{account}"), "");
    t.send("account, unknown", "GET", "/v1/accounts/1", "");
    t.send("report", "GET", "/v1/report?tenant=pin", "");

    let quota = r#"{"id":"q","seed":3,"scale":0.005,"workers":1,"shards":2,"quota":{"docs_per_sec":0.001,"burst_docs":1}}"#;
    t.send("create quota tenant", "POST", "/v1/tenants", quota);
    let two_docs = r#"{"tenant":"q","period":1,"docs":[{},{}]}"#;
    t.send("ingest, over quota", "POST", "/v1/ingest", two_docs);
    t.send("alerts, ambiguous tenant", "GET", "/v1/alerts", "");
    t.send("list two", "GET", "/v1/tenants", "");
    t.send("delete", "DELETE", "/v1/tenants/q", "");
    t.send("delete again", "DELETE", "/v1/tenants/q", "");
    t.send("wrong method", "POST", "/healthz", "");
    t.send("unknown route", "GET", "/nope", "");
    t.send("traces", "GET", "/traces", "");

    state.begin_drain();
    t.send("readyz, draining", "GET", "/readyz", "");
    t.send("create, draining", "POST", "/v1/tenants", &spec);
    t.send("ingest, draining", "POST", "/v1/ingest", &first);
    t.send("delete, draining", "DELETE", "/v1/tenants/pin", "");

    // `/metrics` over a registry holding no wall-clock figure: the first
    // scrape has no rates yet, so its bytes are fixed.
    let registry = Registry::new();
    registry.counter("pipeline.funnel.collected").add(120);
    registry.gauge("serve.inflight").set(-2);
    registry.histogram("pipeline.stage.classify").observe(500);
    registry.histogram("pipeline.stage.classify").observe(700);
    let telemetry = doxing_repro::obs::telemetry::router(registry, tracer);
    let mut m = Transcript {
        router: &telemetry,
        text: t.text,
    };
    m.send("metrics", "GET", "/metrics", "");
    m.text
}

/// The pinned transcript. The four error envelopes that name a tenant
/// once escaped `'` as `\'`, which is not JSON, and a malformed `limit`
/// once fell back to the default page; every other line is as first
/// recorded.
const EXPECTED: &str = r#"
healthz | 200 | {"status":"ok"}
readyz | 200 | {"status":"ready"}
list empty | 200 | {"tenants":[]}
alerts, no tenant | 404 | {"error":"no tenants resident"}
create, not json | 400 | {"error":"request body is not valid JSON"}
create, not utf-8 | 400 | {"error":"request body is not UTF-8"}
create, bad id | 400 | {"error":"tenant spec needs id (alphanumeric/-/_), seed (u64) and scale (0,1]"}
create | 201 | {"id":"pin","fingerprint":610129778}
create again | 409 | {"error":"tenant 'pin' already exists"}
list one | 200 | {"tenants":[{"id":"pin","seed":81,"scale":0.005,"docs_ingested":0,"committed":0,"alerts":0}]}
ingest, unknown tenant | 404 | {"error":"unknown tenant 'ghost'"}
ingest, no period | 400 | {"error":"period must be 1 or 2"}
ingest, no docs | 400 | {"error":"docs must be an array of collected documents"}
ingest, malformed doc | 400 | {"error":"docs[0] is malformed"}
ingest, engine error | 400 | {"error":"ingest engine error: period 7 is not a collection period (expected 1 or 2)"}
ingest, first batch | 200 | {"accepted":3,"doxes":0,"duplicates":0,"verdicts":[{"doc_id":142,"verdict":"accepted"},{"doc_id":139,"verdict":"accepted"},{"doc_id":143,"verdict":"accepted"}]}
ingest rest: 200,200,200,200,200,200,200,200,200,200,200,200,200, | 200 | fnv:29063c4e7aa2a6d4:110624
list after ingest | 200 | {"tenants":[{"id":"pin","seed":81,"scale":0.005,"docs_ingested":3000,"committed":25,"alerts":25}]}
alerts page 1 | 200 | {"cursor":2,"alerts":[{"seq":0,"doc_id":156,"source":"Pastebin","period":1,"posted_at":952,"observed_at":957,"victim":3305280901,"accounts":[3255975835],"duplicate":null},{"seq":1,"doc_id":222,"source":"Pastebin","period":1,"posted_at":2453,"observed_at":2458,"victim":3305280901,"accounts":[3255975835],"duplicate":{"kind":"AccountSet","of_doc":156}}]}
alerts page 2 | 200 | {"cursor":4,"alerts":[{"seq":2,"doc_id":242,"source":"Pastebin","period":1,"posted_at":2905,"observed_at":2910,"victim":3305280901,"accounts":[3255975835],"duplicate":{"kind":"AccountSet","of_doc":156}},{"seq":3,"doc_id":326,"source":"Pastebin","period":1,"posted_at":4550,"observed_at":4555,"victim":2789858578,"accounts":[2692002266],"duplicate":null}]}
alerts all | 200 | fnv:64379a8f1f7c7482:3758
alerts, bad cursor | 400 | {"error":"cursor must be a decimal offset"}
alerts, bad limit | 400 | {"error":"limit must be a decimal count"}
alerts, negative limit | 400 | {"error":"limit must be a decimal count"}
victim | 200 | {"fingerprint":3305280901,"networks":["Skype"],"doc_ids":[156,222,242],"first_seen":957,"doxes":3}
victim, unknown | 404 | {"error":"no victim with that fingerprint"}
victim, bad id | 400 | {"error":"id must be a decimal u32 fingerprint"}
account | 200 | {"fingerprint":3255975835,"network":"Skype","doc_ids":[156,222,242]}
account, unknown | 404 | {"error":"no account with that fingerprint"}
report | 200 | fnv:f4a0d8a71bf8e74d:10819
create quota tenant | 201 | {"id":"q","fingerprint":169746879}
ingest, over quota | 429 | {"error":"tenant 'q' over ingest quota"}
alerts, ambiguous tenant | 400 | {"error":"multiple tenants resident; name one with ?tenant=<id>"}
list two | 200 | {"tenants":[{"id":"pin","seed":81,"scale":0.005,"docs_ingested":3000,"committed":25,"alerts":25},{"id":"q","seed":3,"scale":0.005,"docs_ingested":0,"committed":0,"alerts":0}]}
delete | 200 | {"removed":"q"}
delete again | 404 | {"error":"unknown tenant 'q'"}
wrong method | 405 | {"error":"method not allowed"}
unknown route | 404 | {"error":"not found"}
traces | 200 | {"dropped":0,"traces":[{"trace_id":"ce61248c734f5c4f","doc_id":3,"hops":[{"stage":"collect","at":30,"attempts":0,"delay":0,"breaker_trips":0,"note":"src=pastebin"},{"stage":"commit","at":31,"attempts":0,"delay":0,"breaker_trips":0,"note":"seq=0"}]}]}
readyz, draining | 503 | {"error":"draining"}
create, draining | 503 | {"error":"draining"}
ingest, draining | 503 | {"error":"draining"}
delete, draining | 503 | {"error":"draining"}
metrics | 200 | {"snapshot":{"counters":{"pipeline.funnel.collected":120},"gauges":{"serve.inflight":-2},"spans":{"pipeline.stage.classify":{"count":2,"sum":1200,"min":500,"max":700,"p50":500,"p90":700,"p99":700}},"events_dropped":0,"events":[]},"rates_per_s":{},"trace":{"admitted":1,"buffered":1,"dropped":0}}
"#;

#[test]
fn every_route_answers_its_pinned_bytes() {
    let actual = transcript();
    assert!(
        actual == EXPECTED.trim_start(),
        "response transcript moved; actual:\n{actual}"
    );
}
