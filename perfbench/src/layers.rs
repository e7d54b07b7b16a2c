//! The traced pass: one sequential replay of a workload's own inputs
//! through each layer's public calls, each call timed from outside.
//!
//! "Self" time is a call's time minus the timed calls nested in it. The
//! pass reproduces the study's training replay exactly (same generator
//! call order), so its classifier, stream and report are the ones the
//! untraced run produces; both are checked.

use crate::probe::{self, Span};
use crate::serve::Conn;
use crate::study::{Rep, SHARDS, WORKERS};
use crate::Outcome;
use dox_core::report::to_json;
use dox_core::study::{Study, StudyConfig};
use dox_core::training::DoxClassifier;
use dox_engine::{DedupSpill, DedupSpillConfig, Deduplicator, DoxDetector, Engine};
use dox_extract::accuracy::evaluate_extractor;
use dox_extract::extract;
use dox_geo::alloc::Allocation;
use dox_geo::geoip::GeoIpDb;
use dox_geo::model::World;
use dox_ml::eval::train_full;
use dox_ml::sgd::SgdConfig;
use dox_obs::http::DEFAULT_MAX_BODY;
use dox_obs::{HttpServer, Registry, Request, Tracer};
use dox_serve::{ServeState, Tenant, TenantSpec};
use dox_sites::collect::{CollectedDoc, Collector};
use dox_store::{Store, Table};
use dox_synth::corpus::CorpusGenerator;
use dox_textkit::html::html_to_text;
use dox_textkit::tfidf::TfidfConfig;
use dox_textkit::tokenize::Tokenizer;
use serde::value::{Number, Value};
use serde::Deserialize;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::Arc;

/// Documents per ingest request, as the serve workload sends them.
pub const BATCH_DOCS: usize = 30;
/// Documents of the stream replayed through the serve layers.
pub const SERVE_PASS_DOCS: usize = 15_000;
/// Lookups replayed through the read layers (alerts, victims, accounts).
const SERVE_PASS_READS: usize = 300;

/// What the batch half of the pass replays.
pub struct BatchInputs<'a> {
    /// The workload's study configuration (stream, topology).
    pub cfg: &'a StudyConfig,
    /// Per-shard dedup spill cap, when the workload spills.
    pub spill_cap: Option<usize>,
    /// Checkpoint cadence of the engine session, in documents.
    pub every: u64,
    /// Where the pass's store lives.
    pub store_dir: PathBuf,
}

/// Timings of the batch layers over one stream.
#[derive(Default)]
pub struct BatchFigures {
    pub docs: Vec<(u8, CollectedDoc)>,
    pub doxes: u64,
    pub world: Span,
    pub train: Span,
    pub train_stage: Span,
    pub collect: Span,
    pub html: Span,
    pub tokenize: Span,
    pub transform: Span,
    pub score: Span,
    pub allocs: u64,
    pub extract: Span,
    pub dedup: Span,
    pub checkpoint: Span,
    pub put: Span,
    pub commit: Span,
    pub open: Span,
    pub bytes_written: u64,
    pub report: Span,
    pub replay: Span,
    pub threads: u64,
    pub report_json: String,
    pub classifier: Option<Arc<DoxClassifier>>,
}

impl BatchFigures {
    fn n(&self) -> u64 {
        self.docs.len() as u64
    }

    /// `Study::report_from_ingest` minus its replayed world, training and
    /// collection: monitoring plus analysis.
    fn report_self_ns(&self) -> f64 {
        self.report.ns as f64 - self.replay.ns as f64
    }

    /// Self time of every layer on the batch study's path.
    fn path_self_ns(&self, durable: bool) -> f64 {
        let mut ns = (self.world.ns
            + self.train_stage.ns
            + self.collect.ns
            + self.html.ns
            + self.transform.ns
            + self.score.ns
            + self.extract.ns
            + self.dedup.ns) as f64
            + self.report_self_ns();
        if durable {
            ns += (self.checkpoint.ns + self.put.ns + self.commit.ns) as f64;
        }
        ns
    }
}

/// Timings of the serve layers over a prefix of the stream.
#[derive(Default)]
pub struct ServeFigures {
    pub docs: u64,
    pub decode: Span,
    /// CPU of every thread spent in `Tenant::ingest_batch`.
    pub ingest_cpu_ns: u64,
    pub flush: Span,
    pub encode: Span,
    /// Per replayed read, in mix order: straight from the tenant, through
    /// the router, and over a socket.
    pub read_ns: Vec<f64>,
    pub dispatch_ns: Vec<f64>,
    pub wire_ns: Vec<f64>,
}

impl ServeFigures {
    /// Self ns per document of every layer on the ingest path, with the
    /// per-request layers spread over the request's documents.
    pub fn path_self_ns_per_doc(&self) -> f64 {
        let reqs = self.encode.calls.max(1) as f64;
        let per_req = self.encode.ns as f64 / reqs
            + self.dispatch_self_ns_per_req()
            + self.wire_self_ns_per_req();
        (self.decode.ns + self.ingest_cpu_ns) as f64 / self.docs.max(1) as f64
            + per_req / BATCH_DOCS as f64
    }

    fn read_ns_per_req(&self) -> f64 {
        probe::median(&self.read_ns)
    }

    /// Median over reads of the router's time minus the handler's.
    fn dispatch_self_ns_per_req(&self) -> f64 {
        probe::median(&minus(&self.dispatch_ns, &self.read_ns))
    }

    /// Median over reads of the socket round trip minus the router's time.
    fn wire_self_ns_per_req(&self) -> f64 {
        probe::median(&minus(&self.wire_ns, &self.dispatch_ns))
    }
}

fn minus(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// `map_err` helper: prefix an error with what was being done.
fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Replay `inputs.cfg`'s study through every batch layer.
pub fn batch_pass(inputs: &BatchInputs<'_>, out: &mut Outcome) -> Result<BatchFigures, String> {
    let cfg = inputs.cfg;
    let mut f = BatchFigures::default();
    let (world, alloc) = f.world.time(|| {
        let world = World::generate(&cfg.world, cfg.seed);
        let alloc = Allocation::generate(&world, &cfg.alloc, cfg.seed);
        let _geoip = GeoIpDb::build(&world, &alloc);
        (world, alloc)
    });
    let mut gen = CorpusGenerator::new(&world, &alloc, cfg.synth.clone());

    // The study's training phase, in its generator call order.
    let stage_started = std::time::Instant::now();
    let (texts, labels) = gen.training_sets();
    let (classifier, _) = f
        .train
        .time(|| DoxClassifier::train(&texts, &labels, cfg.seed));
    let sample: Vec<_> = gen
        .proof_of_work_sample(cfg.extractor_sample)
        .into_iter()
        .filter_map(|(doc, persona)| Some((doc.body, doc.truth.as_dox()?.clone(), persona)))
        .collect();
    let _ = evaluate_extractor(&sample);
    f.train_stage.ns = stage_started.elapsed().as_nanos() as u64;
    f.train_stage.calls = 1;
    // The same fit DoxClassifier::train deploys, with its parts exposed.
    let (vectorizer, model) = train_full(
        &texts,
        &labels,
        cfg.seed,
        SgdConfig::paper(),
        TfidfConfig::default(),
    );

    let mut collector = Collector::new(cfg.seed);
    let mut docs = Vec::new();
    f.collect.time(|| {
        for period in [1u8, 2] {
            let _ = collector.collect_period(&mut gen, period, &mut |doc| {
                docs.push((period, doc));
                ControlFlow::Continue(())
            });
        }
    });
    f.docs = docs;

    // The dedup pass and the session spill into separate stores, so
    // neither sees the other's entries.
    let registry = Registry::new();
    let session_dir = inputs.store_dir.join("session");
    let mut dedup = Deduplicator::new();
    if let Some(cap) = inputs.spill_cap {
        let store = Store::open(inputs.store_dir.join("dedup"), &registry)
            .map_err(err("open dedup store"))?;
        dedup.attach_spill(DedupSpill::new(Arc::new(store), 0, cap));
    }
    let tokenizer = Tokenizer::new(vectorizer.config().tokenizer.clone());
    let mut disagreements = 0u64;
    for (_, collected) in &f.docs {
        let doc = &collected.doc;
        let text = if doc.source.is_html() {
            f.html.time(|| html_to_text(&doc.body))
        } else {
            doc.body.clone()
        };
        let before = probe::allocations();
        let tokens = f.tokenize.time(|| tokenizer.tokenize(&text));
        let vector = f.transform.time(|| vectorizer.transform(&text));
        let decision = f.score.time(|| model.decision_function(&vector));
        f.allocs += probe::allocations() - before;
        drop(tokens);
        let is_dox = decision > 0.0;
        if is_dox || doc.id % 61 == 0 {
            disagreements += u64::from(classifier.is_dox(&text) != is_dox);
        }
        if is_dox {
            f.doxes += 1;
            let extracted = f.extract.time(|| extract(&text));
            f.dedup.time(|| dedup.check(doc.id, &text, &extracted));
        }
    }
    out.check(
        disagreements == 0,
        "the exposed vectorizer and model classify as DoxClassifier",
    );
    drop(dedup);

    // The engine session at the workload's topology, checkpointing into
    // the store at the workload's cadence.
    let classifier = Arc::new(classifier);
    let store = Arc::new(Store::open(&session_dir, &registry).map_err(err("open store"))?);
    let engine = Engine::from_config(cfg.engine.clone()).map_err(err("engine"))?;
    let detector: Arc<dyn DoxDetector> = classifier.clone();
    let mut builder = engine
        .session_builder()
        .detector(detector)
        .registry(&registry);
    if let Some(cap) = inputs.spill_cap {
        builder = builder.spill(DedupSpillConfig {
            store: Arc::clone(&store),
            cap_entries: cap,
        });
    }
    let mut session = builder.start().map_err(err("start session"))?;
    f.threads = probe::threads("self").unwrap_or(0);
    let table: Table<String, String> = Table::new(Arc::clone(&store), "study");
    let key = "checkpoint".to_string();
    for (i, (period, collected)) in f.docs.iter().enumerate() {
        session
            .ingest(*period, collected.clone())
            .map_err(err("ingest"))?;
        if (i as u64 + 1).is_multiple_of(inputs.every) {
            let json = f.checkpoint.time(|| {
                session
                    .checkpoint()
                    .map_err(err("checkpoint"))
                    .and_then(|c| serde_json::to_string(&c).map_err(err("encode checkpoint")))
            })?;
            f.put.time(|| table.put(&key, &json)).map_err(err("put"))?;
            f.commit
                .time(|| store.checkpoint())
                .map_err(err("commit"))?;
        }
    }
    let output = session.finish().map_err(err("finish session"))?;
    drop((table, store));
    f.bytes_written = dir_bytes(&session_dir);
    let reopened = f
        .open
        .time(|| Store::open(&session_dir, &Registry::new()))
        .map_err(err("reopen store"))?;
    drop(reopened);

    // The report replays the world, training and collection before it
    // monitors and analyses; the same replay is timed on its own through
    // `Study::synthetic_stream`. Each is the faster of two calls.
    let study = Study::with_registry(cfg.clone(), Registry::new());
    let mut report = None;
    for _ in 0..2 {
        let mut call = Span::default();
        report = Some(
            call.time(|| study.report_from_ingest(&output))
                .map_err(err("report from ingest"))?,
        );
        f.report = fastest(f.report, call);
        let mut call = Span::default();
        call.time(|| study.synthetic_stream(&mut |_, _| ControlFlow::Continue(())))
            .map_err(err("replay stream"))?;
        f.replay = fastest(f.replay, call);
    }
    let report = report.ok_or("no report")?;
    f.report_json = to_json(&report).map_err(err("encode report"))?;
    f.classifier = Some(classifier);
    Ok(f)
}

/// The faster of two single-call spans (`a` may still be empty).
fn fastest(a: Span, b: Span) -> Span {
    if a.calls == 0 || b.ns < a.ns {
        b
    } else {
        a
    }
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One ingest request body for `docs` of one period.
pub fn ingest_body(tenant: &str, period: u8, docs: &[CollectedDoc]) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("tenant".to_string(), Value::String(tenant.to_string())),
        (
            "period".to_string(),
            Value::Number(Number::U64(u64::from(period))),
        ),
        (
            "docs".to_string(),
            Value::Array(docs.iter().map(serde::Serialize::to_value).collect()),
        ),
    ]))
    .expect("a JSON value always encodes")
}

/// Period-pure batches of at most [`BATCH_DOCS`] documents, stream order.
pub fn batches(docs: &[(u8, CollectedDoc)]) -> Vec<(u8, Vec<CollectedDoc>)> {
    let mut out: Vec<(u8, Vec<CollectedDoc>)> = Vec::new();
    for (period, doc) in docs {
        match out.last_mut() {
            Some((p, batch)) if p == period && batch.len() < BATCH_DOCS => batch.push(doc.clone()),
            _ => out.push((*period, vec![doc.clone()])),
        }
    }
    out
}

/// Fingerprints referenced by an alert page: `(victim, account)` pairs.
pub fn alert_fingerprints(alerts: &[Value]) -> (Vec<u64>, Vec<u64>) {
    let mut victims = Vec::new();
    let mut accounts = Vec::new();
    for alert in alerts {
        if let Some(v) = alert.get("victim").and_then(Value::as_u64) {
            victims.push(v);
        }
        if let Some(list) = alert.get("accounts").and_then(Value::as_array) {
            accounts.extend(list.iter().filter_map(Value::as_u64));
        }
    }
    (victims, accounts)
}

/// The read mix replayed by the pass: `(path, query)` of alert pages and
/// victim / account lookups.
fn read_mix(
    tenant: &str,
    alerts: usize,
    victims: &[u64],
    accounts: &[u64],
) -> Vec<(String, String)> {
    (0..SERVE_PASS_READS)
        .map(|k| match k % 3 {
            1 if !victims.is_empty() => (
                format!("/v1/victims/{}", victims[k % victims.len()]),
                format!("tenant={tenant}"),
            ),
            2 if !accounts.is_empty() => (
                format!("/v1/accounts/{}", accounts[k % accounts.len()]),
                format!("tenant={tenant}"),
            ),
            _ => (
                "/v1/alerts".to_string(),
                format!("tenant={tenant}&cursor={}&limit=16", k % alerts.max(1)),
            ),
        })
        .collect()
}

/// Replay the first `docs` documents of `batch.docs` through the serve
/// layers in process.
pub fn serve_pass(
    spec: &TenantSpec,
    batch: &BatchFigures,
    docs: usize,
    out: &mut Outcome,
) -> Result<ServeFigures, String> {
    let mut f = ServeFigures::default();
    let registry = Registry::new();
    let mut tenant = Tenant::start(spec.clone(), &registry).map_err(err("start tenant"))?;
    let engine = Engine::from_config(crate::study::engine()).map_err(err("engine"))?;
    let detector: Arc<dyn DoxDetector> = batch
        .classifier
        .clone()
        .ok_or("batch pass kept no classifier")?;
    let prefix = &batch.docs[..batch.docs.len().min(docs)];
    let requests = batches(prefix);
    let bodies: Vec<String> = requests
        .iter()
        .map(|(period, docs)| ingest_body(&spec.id, *period, docs))
        .collect();
    let mut refused = 0u64;
    // Tenant::ingest_batch hands documents to the engine's threads and
    // waits: its cost is the CPU of every thread, not the caller's wall.
    let cpu_before = probe::threads_cpu_ns("self").ok_or("cannot read /proc/self/task")?;
    for ((period, _), body) in requests.iter().zip(&bodies) {
        let parsed = f.decode.time(|| {
            let value: Value = serde_json::from_str(body).ok()?;
            value
                .get("docs")?
                .as_array()?
                .iter()
                .map(CollectedDoc::from_value)
                .collect::<Option<Vec<_>>>()
        });
        let Some(parsed) = parsed else {
            refused += 1;
            continue;
        };
        f.docs += parsed.len() as u64;
        let outcome = tenant
            .ingest_batch(*period, parsed)
            .map_err(err("ingest batch"))?;
        f.encode
            .time(|| serde_json::to_string(&outcome.to_value()))
            .map_err(err("encode outcome"))?;
    }
    let cpu_after = probe::threads_cpu_ns("self").ok_or("cannot read /proc/self/task")?;
    f.ingest_cpu_ns = (cpu_after - cpu_before).saturating_sub(f.decode.ns + f.encode.ns);
    out.check(refused == 0, "every ingest body decodes");

    let mut session = engine
        .session_builder()
        .detector(detector)
        .registry(&registry)
        .start()
        .map_err(err("start session"))?;
    for (period, docs) in requests {
        for doc in docs {
            session.ingest(period, doc).map_err(err("ingest"))?;
        }
        f.flush.time(|| session.flush()).map_err(err("flush"))?;
    }
    drop(session);

    let (_, alerts) = tenant.alerts_page(0, usize::MAX);
    let (victims, accounts) = alert_fingerprints(&alerts);
    let mix = read_mix(&spec.id, alerts.len(), &victims, &accounts);
    let state = Arc::new(ServeState::new(registry.clone()));
    state.insert(tenant);
    let resident = state.get(&spec.id).ok_or("tenant not resident")?;
    let router = dox_serve::router(Arc::clone(&state), &Tracer::disabled());
    // A warm-up pass, then each read timed straight and through the
    // router back to back, so both see the same cache state.
    for pass in 0..2 {
        for (path, query) in &mix {
            let mut request = Request {
                method: "GET".to_string(),
                path: path.clone(),
                query: Some(query.clone()),
                params: Vec::new(),
                body: Vec::new(),
            };
            let mut read = Span::default();
            let mut dispatch = Span::default();
            let encoded = read.time(|| {
                let tenant = resident.lock().ok()?;
                direct_read(&tenant, path, query)
            });
            let response = dispatch.time(|| router.dispatch(&mut request));
            if pass == 1 {
                refused += u64::from(encoded.is_none() || response.status != 200);
                f.read_ns.push(read.ns as f64);
                f.dispatch_ns.push(dispatch.ns as f64);
            }
        }
    }
    let server = HttpServer::start(
        "127.0.0.1:0",
        dox_serve::router(Arc::clone(&state), &Tracer::disabled()),
        2,
        DEFAULT_MAX_BODY,
    )
    .map_err(err("bind in-process server"))?;
    let mut conn = Conn::connect(&server.local_addr().to_string())?;
    for (path, query) in &mix {
        let target = format!("{path}?{query}");
        let mut wire = Span::default();
        let reply = wire.time(|| conn.send("GET", &target, ""));
        f.wire_ns.push(wire.ns as f64);
        refused += u64::from(!matches!(reply, Some((200, _))));
    }
    drop(conn);
    server.stop();
    out.check(refused == 0, "every replayed read answers 200");
    Ok(f)
}

/// A read answered straight from the tenant, encoded as the route would.
fn direct_read(tenant: &Tenant, path: &str, query: &str) -> Option<String> {
    let value = if let Some(fp) = path.strip_prefix("/v1/victims/") {
        tenant.victim_value(fp.parse().ok()?)?
    } else if let Some(fp) = path.strip_prefix("/v1/accounts/") {
        tenant.account_value(fp.parse().ok()?)?
    } else {
        let cursor = query
            .split('&')
            .find_map(|kv| kv.strip_prefix("cursor="))?
            .parse()
            .ok()?;
        let (next, page) = tenant.alerts_page(cursor, 16);
        Value::Object(vec![
            (
                "cursor".to_string(),
                Value::Number(Number::U64(next as u64)),
            ),
            ("alerts".to_string(), Value::Array(page)),
        ])
    };
    serde_json::to_string(&value).ok()
}

/// The tenant the serve layers replay a batch workload's stream into.
pub fn tenant_for(cfg: &StudyConfig) -> TenantSpec {
    TenantSpec {
        id: "layers".to_string(),
        seed: cfg.seed,
        scale: cfg.synth.scale,
        workers: WORKERS,
        shards: SHARDS,
        quota: None,
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. `e2e_ns_per_doc` is
/// the untraced run's CPU per document and `path_ns_per_doc` the summed
/// self time of the layers on that run's path.
pub fn emit(
    out: &mut Outcome,
    b: &BatchFigures,
    s: &ServeFigures,
    e2e_ns_per_doc: f64,
    path_ns_per_doc: f64,
    threads: u64,
) {
    let n = b.n();
    let vectorize_self = b.transform.ns.saturating_sub(b.tokenize.ns);
    out.metric("core.train_ms", b.train.ns as f64 / 1e6, "ms");
    out.metric("sites.collect_ns_per_doc", b.collect.per(n), "ns");
    out.metric("textkit.html_ns_per_doc", b.html.per(n), "ns");
    out.metric("textkit.tokenize_ns_per_doc", b.tokenize.per(n), "ns");
    out.metric(
        "textkit.vectorize_ns_per_doc",
        vectorize_self as f64 / n.max(1) as f64,
        "ns",
    );
    out.metric("ml.score_ns_per_doc", b.score.per(n), "ns");
    out.metric(
        "classify.allocs_per_doc",
        b.allocs as f64 / n.max(1) as f64,
        "count",
    );
    out.metric("extract.ns_per_dox", b.extract.per(b.doxes), "ns");
    out.metric("engine.dedup_ns_per_dox", b.dedup.per(b.doxes), "ns");
    out.metric(
        "engine.checkpoint_ms",
        b.checkpoint.per(b.checkpoint.calls) / 1e6,
        "ms",
    );
    out.metric("store.put_ns", b.put.per(b.put.calls), "ns");
    out.metric("store.commit_ms", b.commit.per(b.commit.calls) / 1e6, "ms");
    out.metric("store.bytes_written", b.bytes_written as f64, "bytes");
    out.metric("store.open_ms", b.open.ns as f64 / 1e6, "ms");
    out.metric("core.report_ms", b.report_self_ns() / 1e6, "ms");
    out.metric(
        "engine.coord_ns_per_doc",
        e2e_ns_per_doc - path_ns_per_doc,
        "ns",
    );
    out.metric("serve.decode_ns_per_doc", s.decode.per(s.docs), "ns");
    out.metric(
        "serve.ingest_batch_ns_per_doc",
        s.ingest_cpu_ns as f64 / s.docs.max(1) as f64,
        "ns",
    );
    out.metric("engine.flush_ns_per_req", s.flush.per(s.flush.calls), "ns");
    out.metric(
        "serve.encode_ns_per_req",
        s.encode.per(s.encode.calls),
        "ns",
    );
    out.metric("serve.read_ns_per_req", s.read_ns_per_req(), "ns");
    out.metric(
        "http.dispatch_ns_per_req",
        s.dispatch_self_ns_per_req(),
        "ns",
    );
    out.metric("http.wire_ns_per_req", s.wire_self_ns_per_req(), "ns");
    out.metric("process.threads", threads as f64, "count");
    out.metric("coverage", path_ns_per_doc / e2e_ns_per_doc, "ratio");
}

/// The traced run of a batch workload: the pass over its inputs, checked
/// against untraced runs (`e2e`) of the same inputs made right before and
/// right after it, whose mean CPU is the end-to-end cost the layers must
/// add up to.
pub fn run(
    inputs: &BatchInputs<'_>,
    mut e2e: impl FnMut() -> Result<Rep, String>,
    durable: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let before = e2e()?;
    let batch = batch_pass(inputs, out)?;
    let after = e2e()?;
    for rep in [&before, &after] {
        out.check(
            batch.report_json == rep.json,
            "the traced session's report equals the untraced Study::run",
        );
    }
    let serve = serve_pass(&tenant_for(inputs.cfg), &batch, SERVE_PASS_DOCS, out)?;
    let n = batch.n().max(1) as f64;
    let e2e_ns = (before.cpu_ns + after.cpu_ns) as f64 / 2.0 / n;
    let path_ns = batch.path_self_ns(durable) / n;
    emit(out, &batch, &serve, e2e_ns, path_ns, batch.threads);
    Ok(())
}
