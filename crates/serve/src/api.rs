//! The service route table and shared daemon state.
//!
//! Endpoints (all JSON):
//!
//! | Method | Path                | Purpose |
//! |--------|---------------------|---------|
//! | POST   | `/v1/tenants`       | Create a tenant (trains its detector) |
//! | GET    | `/v1/tenants`       | List tenants with ingest/alert counts |
//! | DELETE | `/v1/tenants/:id`   | Remove a tenant (drops its session) |
//! | POST   | `/v1/ingest`        | Batch-ingest documents, get per-doc verdicts |
//! | GET    | `/v1/report`        | Full `ExperimentReport` for a tenant |
//! | GET    | `/v1/victims/:id`   | Victim lookup by account-set fingerprint |
//! | GET    | `/v1/accounts/:id`  | Account lookup by `network:handle` fingerprint |
//! | GET    | `/v1/alerts`        | Cursor-paged stream of committed doxes |
//! | GET    | `/healthz`          | Liveness (always `200` while the process serves) |
//! | GET    | `/readyz`           | Readiness (`503` the instant a drain begins) |
//! | GET    | `/metrics`          | Telemetry snapshot + rolling rates |
//! | GET    | `/traces`           | Recent causal traces |
//!
//! Requests that name no tenant (`?tenant=` / `"tenant"` field) are
//! routed to the sole tenant when exactly one exists, `400` otherwise.
//! Wrong-method hits on known paths get `405` with an `Allow` header,
//! oversized bodies `413`, ingests over a tenant's quota `429` +
//! `Retry-After`, and mutating requests during a drain `503`. Mutating
//! handlers pass through [`ServeState::admit_mutation`], whose guard
//! [`ServeState::begin_drain`] waits on — an admitted ingest always
//! reaches the checkpoint that follows a drain (no torn drain).

use crate::quota::QuotaState;
use crate::tenant::{Tenant, TenantSpec};
use dox_obs::http::{Request, Response, Router};
use dox_obs::{Registry, Tracer};
use dox_sites::collect::CollectedDoc;
use dox_store::{Store, Table as StoreTable};
use serde::value::{Number, Value};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Alert records returned per `GET /v1/alerts` page by default.
const DEFAULT_ALERT_PAGE: usize = 256;

/// Store table holding one JSON checkpoint per tenant, keyed by id.
const TENANT_TABLE: &str = "serve.tenants";

/// Shared daemon state: the tenant map and the drain flag.
///
/// Each tenant sits behind its own mutex so ingests for different
/// tenants proceed in parallel; the outer map lock is held only for
/// lookup and insert/remove.
#[derive(Debug)]
pub struct ServeState {
    registry: Registry,
    tenants: Mutex<BTreeMap<String, Arc<Mutex<Tenant>>>>,
    /// Live quota enforcement, keyed by tenant id; only tenants whose
    /// spec actually limits an axis have an entry.
    quotas: Mutex<BTreeMap<String, Arc<QuotaState>>>,
    draining: AtomicBool,
    /// Mutating requests currently past admission ([`MutationGuard`]s
    /// alive). [`ServeState::begin_drain`] waits for this to hit zero
    /// so a drain checkpoint can never tear an admitted ingest.
    mutations: Mutex<u64>,
    quiesced: Condvar,
}

impl ServeState {
    /// Fresh state recording engine metrics into `registry`.
    pub fn new(registry: Registry) -> Self {
        Self {
            registry,
            tenants: Mutex::new(BTreeMap::new()),
            quotas: Mutex::new(BTreeMap::new()),
            draining: AtomicBool::new(false),
            mutations: Mutex::new(0),
            quiesced: Condvar::new(),
        }
    }

    /// The registry tenants record into (and `/metrics` serves).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    fn map(&self) -> MutexGuard<'_, BTreeMap<String, Arc<Mutex<Tenant>>>> {
        self.tenants.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a tenant by id.
    pub fn get(&self, id: &str) -> Option<Arc<Mutex<Tenant>>> {
        self.map().get(id).cloned()
    }

    /// Insert a started tenant; `false` (and no insert) when the id is
    /// already taken. A limiting quota in the spec gets its live
    /// [`QuotaState`] here, so create and restore share one path.
    pub fn insert(&self, tenant: Tenant) -> bool {
        let id = tenant.spec().id.clone();
        let quota = tenant
            .spec()
            .quota
            .filter(crate::quota::QuotaSpec::is_limiting);
        let mut map = self.map();
        if map.contains_key(&id) {
            return false;
        }
        if let Some(spec) = quota {
            self.quotas
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(
                    id.clone(),
                    Arc::new(QuotaState::new(spec, &id, &self.registry)),
                );
        }
        map.insert(id, Arc::new(Mutex::new(tenant)));
        true
    }

    /// Remove a tenant, dropping its resident session and quota state.
    pub fn remove(&self, id: &str) -> bool {
        self.quotas
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(id);
        self.map().remove(id).is_some()
    }

    /// The live quota state for a tenant, when its spec limits one.
    pub fn quota(&self, id: &str) -> Option<Arc<QuotaState>> {
        self.quotas
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id)
            .cloned()
    }

    /// Current tenant ids, sorted.
    pub fn tenant_ids(&self) -> Vec<String> {
        self.map().keys().cloned().collect()
    }

    /// Enter drain mode and quiesce: mutating endpoints answer `503`
    /// (and `/readyz` flips unready) the moment the flag lands, then
    /// this blocks until every already-admitted mutation has finished.
    /// Admission and the in-flight count share one mutex, so a request
    /// either completes before this returns or never got in — the
    /// checkpoint that follows can't tear an admitted ingest.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let mut inflight = self
            .mutations
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *inflight > 0 {
            // Timed wait so a lost notify can only delay, never hang,
            // the drain.
            inflight = self
                .quiesced
                .wait_timeout(inflight, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Whether the daemon is draining.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Admit one mutating request, or refuse because a drain has begun.
    /// The guard marks the mutation in flight until dropped;
    /// [`ServeState::begin_drain`] waits for all of them.
    pub fn admit_mutation(&self) -> Option<MutationGuard<'_>> {
        let mut inflight = self
            .mutations
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if self.draining() {
            return None;
        }
        *inflight += 1;
        Some(MutationGuard { state: self })
    }

    /// Quiesce every tenant and commit all checkpoints into the segment
    /// store at `dir/store` with a single manifest swap — the drain is
    /// all-or-nothing, and a restore after a mid-drain crash sees the
    /// previous complete tenant set. Returns the drained tenant ids.
    ///
    /// # Errors
    /// A message naming the first tenant that failed to quiesce, or the
    /// store operation that failed.
    pub fn drain_checkpoints(&self, dir: &Path) -> Result<Vec<String>, String> {
        self.begin_drain();
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("checkpoint dir {}: {e}", dir.display()))?;
        let store_dir = dir.join("store");
        let store = Arc::new(
            Store::open(&store_dir, &self.registry)
                .map_err(|e| format!("open {}: {e}", store_dir.display()))?,
        );
        let table: StoreTable<String, String> = StoreTable::new(Arc::clone(&store), TENANT_TABLE);
        // Tenants removed since the last drain must not resurrect on
        // the next restore: clear the table before staging the live set.
        for (id, _) in table
            .scan()
            .map_err(|e| format!("scan {}: {e}", store_dir.display()))?
        {
            table
                .delete(&id)
                .map_err(|e| format!("clear tenant '{id}': {e}"))?;
        }
        let tenants: Vec<Arc<Mutex<Tenant>>> = self.map().values().cloned().collect();
        let mut drained = Vec::new();
        for tenant in tenants {
            // Serialize under the tenant lock, but stage with it
            // dropped: staging only appends to the store's in-memory
            // buffer, so no tenant waits on another's quiesce.
            let (id, payload) = {
                let mut tenant = tenant.lock().unwrap_or_else(PoisonError::into_inner);
                let id = tenant.spec().id.clone();
                let value = tenant
                    .checkpoint_value()
                    .map_err(|e| format!("tenant '{id}': {e}"))?;
                let payload =
                    serde_json::to_string(&value).map_err(|e| format!("tenant '{id}': {e}"))?;
                (id, payload)
            };
            table
                .put(&id, &payload)
                .map_err(|e| format!("stage tenant '{id}': {e}"))?;
            drained.push(id);
        }
        store
            .checkpoint()
            .map_err(|e| format!("commit {}: {e}", store_dir.display()))?;
        Ok(drained)
    }

    /// Restore every tenant checkpoint from the segment store at
    /// `dir/store`. Returns the restored tenant ids; a directory with no
    /// store restores none.
    ///
    /// # Errors
    /// A message naming the first unreadable, malformed or mismatched
    /// checkpoint, or `dir` itself when it cannot be read. A directory
    /// with no store but a pre-store `tenant_*.json` file is an error
    /// naming that file: restoring nothing would drop its tenant
    /// without a word.
    pub fn restore_checkpoints(&self, dir: &Path) -> Result<Vec<String>, String> {
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("checkpoint dir {}: {e}", dir.display()))?;
        let store_dir = dir.join("store");
        if !store_dir.join(dox_store::MANIFEST_NAME).exists() {
            let old_file = entries
                .filter_map(std::result::Result::ok)
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("tenant_") && n.ends_with(".json"))
                })
                .min();
            return match old_file {
                Some(path) => Err(format!(
                    "{}: pre-store tenant checkpoint; tenants restore only from {}",
                    path.display(),
                    store_dir.display()
                )),
                None => Ok(Vec::new()),
            };
        }
        let store = Arc::new(
            Store::open(&store_dir, &self.registry)
                .map_err(|e| format!("open {}: {e}", store_dir.display()))?,
        );
        let table: StoreTable<String, String> = StoreTable::new(store, TENANT_TABLE);
        let mut restored = Vec::new();
        for (id, payload) in table
            .scan()
            .map_err(|e| format!("scan {}: {e}", store_dir.display()))?
        {
            let value: Value =
                serde_json::from_str(&payload).map_err(|e| format!("tenant '{id}': {e}"))?;
            let tenant = Tenant::from_checkpoint_value(&value, &self.registry)
                .map_err(|e| format!("tenant '{id}': {e}"))?;
            if !self.insert(tenant) {
                return Err(format!("store tenant '{id}': duplicate"));
            }
            restored.push(id);
        }
        Ok(restored)
    }

    /// Resolve the tenant a request addresses: the explicit name when
    /// given, otherwise the sole resident tenant. Returns the id with
    /// the handle so callers can reach per-tenant state (quotas,
    /// metrics) without taking the tenant lock.
    fn resolve(&self, explicit: Option<&str>) -> Result<(String, Arc<Mutex<Tenant>>), Response> {
        if let Some(id) = explicit {
            return self
                .get(id)
                .map(|tenant| (id.to_string(), tenant))
                .ok_or_else(|| Response::error(404, &format!("unknown tenant '{id}'")));
        }
        let map = self.map();
        let mut tenants = map.iter();
        match (tenants.next(), tenants.next()) {
            (None, _) => Err(Response::error(404, "no tenants resident")),
            (Some((id, sole)), None) => Ok((id.clone(), Arc::clone(sole))),
            _ => Err(Response::error(
                400,
                "multiple tenants resident; name one with ?tenant=<id>",
            )),
        }
    }
}

/// One admitted mutating request; dropping it lets a waiting drain
/// proceed once the count returns to zero.
#[derive(Debug)]
pub struct MutationGuard<'a> {
    state: &'a ServeState,
}

impl Drop for MutationGuard<'_> {
    fn drop(&mut self) {
        let mut inflight = self
            .state
            .mutations
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *inflight = inflight.saturating_sub(1);
        if *inflight == 0 {
            self.state.quiesced.notify_all();
        }
    }
}

/// Lock a tenant for the duration of one handler.
fn lock(tenant: &Arc<Mutex<Tenant>>) -> MutexGuard<'_, Tenant> {
    tenant.lock().unwrap_or_else(PoisonError::into_inner)
}

fn parse_json(bytes: &[u8]) -> Result<Value, Response> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| Response::error(400, "request body is not UTF-8"))?;
    serde_json::from_str(text).map_err(|_| Response::error(400, "request body is not valid JSON"))
}

fn parse_fingerprint(req: &Request) -> Result<u32, Response> {
    req.param("id")
        .and_then(|raw| raw.parse::<u32>().ok())
        .ok_or_else(|| Response::error(400, "id must be a decimal u32 fingerprint"))
}

/// Build the full service route table, with the telemetry routes
/// (`/metrics`, `/traces`) mounted on the same port.
pub fn router(state: Arc<ServeState>, tracer: &Tracer) -> Router {
    let telemetry = dox_obs::telemetry::router(state.registry().clone(), tracer.clone());

    let create_state = Arc::clone(&state);
    let list_state = Arc::clone(&state);
    let delete_state = Arc::clone(&state);
    let ingest_state = Arc::clone(&state);
    let report_state = Arc::clone(&state);
    let victim_state = Arc::clone(&state);
    let account_state = Arc::clone(&state);
    let alerts_state = Arc::clone(&state);
    let ready_state = Arc::clone(&state);

    Router::new()
        .route("GET", "/healthz", |_req| {
            // Liveness: the process is up and serving; never gated on
            // drain so an orchestrator won't kill a draining daemon.
            Response::ok("{\"status\":\"ok\"}")
        })
        .route("GET", "/readyz", move |_req| {
            // Readiness: flips unready the same instant mutating routes
            // start answering 503 (both read the drain flag), so a load
            // balancer stops routing before clients see the refusals.
            if ready_state.draining() {
                Response::error(503, "draining")
            } else {
                Response::ok("{\"status\":\"ready\"}")
            }
        })
        .route("POST", "/v1/tenants", move |req: &Request| {
            let Some(_admitted) = create_state.admit_mutation() else {
                return Response::error(503, "draining");
            };
            let value = match parse_json(&req.body) {
                Ok(v) => v,
                Err(response) => return response,
            };
            let Some(spec) = TenantSpec::from_value(&value) else {
                return Response::error(
                    400,
                    "tenant spec needs id (alphanumeric/-/_), seed (u64) and scale (0,1]",
                );
            };
            let id = spec.id.clone();
            if create_state.get(&id).is_some() {
                // dox-lint:allow(pii-taint) id is validated alphanumeric/-/_ by from_value
                return Response::error(409, &format!("tenant '{id}' already exists"));
            }
            let fingerprint = spec.fingerprint();
            let tenant = match Tenant::start(spec, create_state.registry()) {
                Ok(t) => t,
                // dox-lint:allow(pii-taint) boot errors are engine/training-structural, never doc content
                Err(e) => return Response::error(400, &e.to_string()),
            };
            if !create_state.insert(tenant) {
                // dox-lint:allow(pii-taint) id is validated alphanumeric/-/_ by from_value
                return Response::error(409, &format!("tenant '{id}' already exists"));
            }
            // dox-lint:allow(pii-taint) payload is the validated id plus a numeric fingerprint
            Response::json(
                201,
                serde_json::to_string(&Value::Object(vec![
                    ("id".to_string(), Value::String(id)),
                    (
                        "fingerprint".to_string(),
                        Value::Number(Number::U64(u64::from(fingerprint))),
                    ),
                ]))
                .unwrap_or_else(|_| "{}".to_string()),
            )
        })
        .route("GET", "/v1/tenants", move |_req| {
            let summaries: Vec<Value> = list_state
                .tenant_ids()
                .iter()
                .filter_map(|id| list_state.get(id))
                .map(|t| lock(&t).summary_value())
                .collect();
            Response::ok(
                serde_json::to_string(&Value::Object(vec![(
                    "tenants".to_string(),
                    Value::Array(summaries),
                )]))
                .unwrap_or_else(|_| "{}".to_string()),
            )
        })
        .route("DELETE", "/v1/tenants/:id", move |req: &Request| {
            let Some(_admitted) = delete_state.admit_mutation() else {
                return Response::error(503, "draining");
            };
            let id = req.param("id").unwrap_or_default();
            if delete_state.remove(id) {
                Response::ok(format!("{{\"removed\":\"{id}\"}}"))
            } else {
                Response::error(404, &format!("unknown tenant '{id}'"))
            }
        })
        .route("POST", "/v1/ingest", move |req: &Request| {
            // Decision ladder (DESIGN.md §13): drain admission first,
            // then parse, then the tenant's quota, then the engine.
            let Some(_admitted) = ingest_state.admit_mutation() else {
                return Response::error(503, "draining");
            };
            let value = match parse_json(&req.body) {
                Ok(v) => v,
                Err(response) => return response,
            };
            let explicit = value
                .get("tenant")
                .and_then(Value::as_str)
                .or_else(|| req.query_param("tenant"));
            let (tenant_id, tenant) = match ingest_state.resolve(explicit) {
                Ok(t) => t,
                Err(response) => return response,
            };
            let Some(period) = value
                .get("period")
                .and_then(Value::as_u64)
                .and_then(|p| u8::try_from(p).ok())
            else {
                return Response::error(400, "period must be 1 or 2");
            };
            let Some(raw_docs) = value.get("docs").and_then(Value::as_array) else {
                return Response::error(400, "docs must be an array of collected documents");
            };
            // Quota check before the (expensive) per-doc parse: the doc
            // count and body size are already known, and a refused
            // request must cost near-nothing.
            let _quota_admission = match ingest_state.quota(&tenant_id) {
                None => None,
                Some(quota) => {
                    match QuotaState::admit(&quota, raw_docs.len() as u64, req.body.len() as u64) {
                        Ok(admission) => Some(admission),
                        Err(retry_after) => {
                            // dox-lint:allow(pii-taint) refusal names only the validated tenant id, never request content
                            return Response::error(
                                429,
                                &format!("tenant '{tenant_id}' over ingest quota"),
                            )
                            .retry_after(retry_after);
                        }
                    }
                }
            };
            let mut docs = Vec::with_capacity(raw_docs.len());
            for (i, raw) in raw_docs.iter().enumerate() {
                match CollectedDoc::from_value(raw) {
                    Some(doc) => docs.push(doc),
                    None => {
                        return Response::error(400, &format!("docs[{i}] is malformed"));
                    }
                }
            }
            let outcome = lock(&tenant).ingest_batch(period, docs);
            match outcome {
                // dox-lint:allow(pii-taint) IngestOutcome is counts, ids and static verdict strings
                Ok(outcome) => Response::ok(
                    serde_json::to_string(&outcome.to_value()).unwrap_or_else(|_| "{}".to_string()),
                ),
                // dox-lint:allow(pii-taint) ingest errors are engine-structural, never doc content
                Err(e) => Response::error(400, &e.to_string()),
            }
        })
        .route("GET", "/v1/report", move |req: &Request| {
            let (_, tenant) = match report_state.resolve(req.query_param("tenant")) {
                Ok(t) => t,
                Err(response) => return response,
            };
            let report = lock(&tenant).report_json();
            match report {
                Ok(payload) => Response::ok(payload),
                Err(e) => Response::error(500, &e.to_string()),
            }
        })
        .route("GET", "/v1/victims/:id", move |req: &Request| {
            let fp = match parse_fingerprint(req) {
                Ok(fp) => fp,
                Err(response) => return response,
            };
            let (_, tenant) = match victim_state.resolve(req.query_param("tenant")) {
                Ok(t) => t,
                Err(response) => return response,
            };
            let found = lock(&tenant).victim_value(fp);
            match found {
                Some(value) => {
                    Response::ok(serde_json::to_string(&value).unwrap_or_else(|_| "{}".to_string()))
                }
                None => Response::error(404, "no victim with that fingerprint"),
            }
        })
        .route("GET", "/v1/accounts/:id", move |req: &Request| {
            let fp = match parse_fingerprint(req) {
                Ok(fp) => fp,
                Err(response) => return response,
            };
            let (_, tenant) = match account_state.resolve(req.query_param("tenant")) {
                Ok(t) => t,
                Err(response) => return response,
            };
            let found = lock(&tenant).account_value(fp);
            match found {
                Some(value) => {
                    Response::ok(serde_json::to_string(&value).unwrap_or_else(|_| "{}".to_string()))
                }
                None => Response::error(404, "no account with that fingerprint"),
            }
        })
        .route("GET", "/v1/alerts", move |req: &Request| {
            let (_, tenant) = match alerts_state.resolve(req.query_param("tenant")) {
                Ok(t) => t,
                Err(response) => return response,
            };
            let cursor = match req.query_param("cursor") {
                None => 0,
                Some(raw) => match raw.parse::<usize>() {
                    Ok(c) => c,
                    Err(_) => return Response::error(400, "cursor must be a decimal offset"),
                },
            };
            let limit = req
                .query_param("limit")
                .and_then(|raw| raw.parse::<usize>().ok())
                .unwrap_or(DEFAULT_ALERT_PAGE)
                .clamp(1, 4096);
            let (next, page) = lock(&tenant).alerts_page(cursor, limit);
            Response::ok(
                serde_json::to_string(&Value::Object(vec![
                    (
                        "cursor".to_string(),
                        Value::Number(Number::U64(next as u64)),
                    ),
                    ("alerts".to_string(), Value::Array(page)),
                ]))
                .unwrap_or_else(|_| "{}".to_string()),
            )
        })
        .merge(telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_picks_the_sole_tenant_and_rejects_ambiguity() {
        let state = ServeState::new(Registry::new());
        assert!(state.resolve(None).is_err(), "no tenants -> 404");
        assert!(
            state.resolve(Some("ghost")).is_err(),
            "unknown tenant -> 404"
        );
    }

    #[test]
    fn drain_flag_flips_once() {
        let state = ServeState::new(Registry::new());
        assert!(!state.draining());
        state.begin_drain();
        assert!(state.draining());
    }

    fn spec(id: &str) -> TenantSpec {
        TenantSpec {
            id: id.to_string(),
            seed: 11,
            scale: 0.005,
            workers: 2,
            shards: 4,
            quota: None,
        }
    }

    #[test]
    fn admit_mutation_refuses_after_drain_and_drain_waits_for_guards() {
        let state = Arc::new(ServeState::new(Registry::new()));
        let guard = state.admit_mutation().expect("admitted before drain");
        // A drain started while the mutation is in flight must block
        // until the guard drops.
        let drainer = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || state.begin_drain())
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!drainer.is_finished(), "drain waits for in-flight guard");
        assert!(
            state.admit_mutation().is_none(),
            "new mutations refused the moment the drain flag lands"
        );
        drop(guard);
        drainer.join().expect("drain completes");
        assert!(state.draining());
    }

    #[test]
    fn drain_and_restore_round_trip_through_the_store() {
        let dir = std::env::temp_dir().join(format!("dox_serve_{}_drain", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = Registry::new();
        let state = ServeState::new(registry.clone());
        let tenant = Tenant::start(spec("alpha"), &registry).expect("tenant starts");
        let ingested = tenant.docs_ingested();
        assert!(state.insert(tenant));
        let drained = state.drain_checkpoints(&dir).expect("drain");
        assert_eq!(drained, vec!["alpha".to_string()]);
        assert!(
            dir.join("store").join(dox_store::MANIFEST_NAME).exists(),
            "drain commits through the segment store"
        );

        let resumed = ServeState::new(Registry::new());
        let restored = resumed.restore_checkpoints(&dir).expect("restore");
        assert_eq!(restored, vec!["alpha".to_string()]);
        let alpha = resumed.get("alpha").expect("alpha resident");
        assert_eq!(lock(&alpha).docs_ingested(), ingested);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_refuses_a_version_2_tenant_row() {
        let dir = std::env::temp_dir().join(format!("dox_serve_{}_v2", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = ServeState::new(Registry::new());
        assert!(state.insert(Tenant::start(spec("alpha"), &state.registry).expect("starts")));
        state.drain_checkpoints(&dir).expect("drain");

        let store = Arc::new(Store::open(dir.join("store"), &Registry::new()).expect("open"));
        let table: StoreTable<String, String> = StoreTable::new(Arc::clone(&store), TENANT_TABLE);
        let row = table.get(&"alpha".to_string()).expect("get").expect("row");
        let v2 = row.replace("\"version\":3", "\"version\":2");
        assert_ne!(v2, row);
        table.put(&"alpha".to_string(), &v2).expect("put");
        store.checkpoint().expect("commit");
        drop((table, store));

        let err = ServeState::new(Registry::new())
            .restore_checkpoints(&dir)
            .expect_err("a version 2 tenant row must be refused, not misread");
        assert!(err.contains("'alpha'"), "{err}");
        assert!(err.contains("checkpoint version 2, expected 3"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_refuses_pre_store_tenant_files_loudly() {
        let dir = std::env::temp_dir().join(format!("dox_serve_{}_old", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = ServeState::new(Registry::new());
        assert!(
            state.restore_checkpoints(&dir).is_err(),
            "a missing checkpoint dir is an error"
        );
        std::fs::create_dir_all(&dir).expect("create dir");
        assert_eq!(
            state.restore_checkpoints(&dir).expect("empty dir"),
            Vec::<String>::new()
        );
        std::fs::write(dir.join("tenant_old.json"), "{}").expect("write old file");
        let err = state
            .restore_checkpoints(&dir)
            .expect_err("an old tenant file without a store must not restore silently");
        assert!(err.contains("tenant_old.json"), "{err}");
        assert!(state.tenant_ids().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
