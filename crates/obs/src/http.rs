//! A minimal HTTP/1.1 server substrate over [`std::net::TcpListener`],
//! hardened for overload.
//!
//! The no-external-registry constraint rules out hyper/axum; the
//! telemetry endpoint proved a hand-rolled server is enough for an
//! operator port, and service mode (`dox-serve`) needs the same thing
//! with a little more: method+path dispatch with `:param` captures,
//! request bodies with an enforced size limit, HTTP/1.1 keep-alive, and
//! a bounded worker pool so one slow client cannot starve the rest.
//!
//! Overload is adversarial in this problem domain — a doxer who notices
//! they are being monitored can cheaply open sockets, drip headers, or
//! post oversized bodies — so the server *sheds* rather than queues:
//!
//! * **Admission control** — the backlog between the acceptor and the
//!   worker pool is bounded by [`ServerConfig::max_backlog`]; overflow
//!   connections are answered `503` + `Retry-After` immediately and
//!   closed, counted in `http.shed_total`, with the live queue depth in
//!   the `http.backlog_depth` gauge.
//! * **Per-request deadlines** — every request gets a wall-clock budget
//!   ([`ServerConfig::request_deadline`]) from accept (first request) or
//!   first byte (keep-alive successors) to the last response byte. Read
//!   and write timeouts are recomputed from the remaining budget before
//!   every socket operation, so a slow-drip client (slowloris) cannot
//!   pin a worker past the budget: breach answers `408` and closes.
//! * **Header caps** — at most [`ServerConfig::max_header_lines`] lines
//!   of at most [`ServerConfig::max_header_line_bytes`] each; breach
//!   answers `431` and closes.
//! * **Accept backoff** — `accept()` errors (fd exhaustion, aborted
//!   handshakes) back off exponentially instead of hot-spinning, counted
//!   in `http.accept_errors`.
//!
//! * [`Router`] — ordered `(method, pattern)` routes; a path that
//!   matches a pattern under the *wrong* method yields `405 Method Not
//!   Allowed` with an `Allow` header, an unknown path `404`.
//! * [`HttpServer`] — an acceptor thread feeding a bounded pool of
//!   worker threads through a condvar-signalled queue; each worker runs
//!   a keep-alive connection loop under the deadlines above.
//! * [`Request`] / [`Response`] — just enough of HTTP to write JSON
//!   handlers against.
//!
//! Nothing served here ever feeds the `ExperimentReport`, so wall-clock
//! time and thread scheduling are fine in this module.

use crate::metrics::{Counter, Gauge, Registry};
use serde::Serialize;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default cap on request bodies; larger requests get `413`.
pub const DEFAULT_MAX_BODY: usize = 4 * 1024 * 1024;

/// Default cap on connections waiting for a worker; overflow is shed
/// with `503`.
pub const DEFAULT_MAX_BACKLOG: usize = 1024;

/// Default wall-clock budget per request (accept / first byte to last
/// response byte).
pub const DEFAULT_REQUEST_DEADLINE: Duration = Duration::from_secs(30);

/// How long a keep-alive connection may sit idle between requests
/// before the worker closes it.
const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(5);

/// Floor for recomputed per-phase socket timeouts: `set_read_timeout`
/// rejects zero, and sub-millisecond waits just spin.
const MIN_IO_TICK: Duration = Duration::from_millis(5);

/// Bounded window for best-effort error/shed writes and for flushing a
/// response whose budget expired during handler execution. Keeps a
/// zero-window client from pinning the acceptor or a worker.
const ERROR_WRITE_WINDOW: Duration = Duration::from_millis(250);

/// Caps on draining a shed connection's unread request bytes before the
/// close. Closing a socket with unread input makes the kernel answer with
/// a reset, which can destroy the `503` before the client reads it. The
/// drain runs on its own thread, and the caps bound what a silent or
/// flooding client can hold there: bytes and time per connection, and
/// connections at once (past that, a shed connection closes at once).
const SHED_DRAIN_BYTES: usize = 64 * 1024;
const SHED_DRAIN_WINDOW: Duration = Duration::from_millis(50);
const SHED_DRAIN_MAX: usize = 256;

/// First accept-error backoff delay; doubles per consecutive error.
const ACCEPT_BACKOFF_BASE: Duration = Duration::from_millis(1);

/// Accept-error backoff ceiling.
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_secs(1);

/// Tunables for [`HttpServer`]: pool size, body cap, and the
/// overload-resilience knobs. [`ServerConfig::default`] matches the
/// historical behaviour of [`HttpServer::start`] plus safe bounds.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection worker threads (minimum 1).
    pub workers: usize,
    /// Request body cap in bytes; larger bodies answer `413`.
    pub max_body: usize,
    /// Connections allowed to wait for a worker; overflow connections
    /// are answered `503` + `Retry-After` and closed immediately.
    pub max_backlog: usize,
    /// Wall-clock budget per request: from accept (first request on a
    /// connection, queue wait included) or from the first request byte
    /// (keep-alive successors) to the last response byte. Breach during
    /// parse answers `408`; a response that cannot be flushed within
    /// the budget (plus a short grace window) closes the connection.
    pub request_deadline: Duration,
    /// How long a keep-alive connection may idle between requests.
    pub keep_alive_idle: Duration,
    /// Cap on header lines per request (request line excluded); breach
    /// answers `431`.
    pub max_header_lines: usize,
    /// Cap on the byte length of the request line and of each header
    /// line; breach answers `431`.
    pub max_header_line_bytes: usize,
    /// `Retry-After` seconds advertised on `503` sheds.
    pub retry_after_secs: u64,
    /// Registry receiving the `http.*` counters and gauges.
    pub registry: Registry,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_body: DEFAULT_MAX_BODY,
            max_backlog: DEFAULT_MAX_BACKLOG,
            request_deadline: DEFAULT_REQUEST_DEADLINE,
            keep_alive_idle: KEEP_ALIVE_IDLE,
            max_header_lines: 64,
            max_header_line_bytes: 8 * 1024,
            retry_after_secs: 1,
            registry: Registry::new(),
        }
    }
}

/// The `http.*` instruments, resolved once at server start.
#[derive(Clone, Debug)]
struct HttpMetrics {
    /// Connections currently waiting for a worker.
    backlog_depth: Gauge,
    /// Connections shed with `503` at admission.
    shed_total: Counter,
    /// `accept()` errors (each one also backs the acceptor off).
    accept_errors: Counter,
    /// Requests dispatched to a handler.
    requests_total: Counter,
    /// Requests cut by the per-request deadline (`408` or a dropped
    /// response write).
    deadline_hits: Counter,
    /// Requests rejected for header count/length (`431`).
    header_rejects: Counter,
    /// Requests rejected as unparseable (`400`, e.g. malformed
    /// `Content-Length`).
    bad_requests: Counter,
}

impl HttpMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            backlog_depth: registry.gauge("http.backlog_depth"),
            shed_total: registry.counter("http.shed_total"),
            accept_errors: registry.counter("http.accept_errors"),
            requests_total: registry.counter("http.requests_total"),
            deadline_hits: registry.counter("http.deadline_hits"),
            header_rejects: registry.counter("http.header_rejects"),
            bad_requests: registry.counter("http.bad_requests"),
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string (`/v1/victims/42`).
    pub path: String,
    /// The raw query string after `?`, if any.
    pub query: Option<String>,
    /// `:name` captures from the matched route pattern, in pattern order.
    pub params: Vec<(String, String)>,
    /// The request body (empty for bodyless requests).
    pub body: Vec<u8>,
}

impl Request {
    /// Look up a `:name` capture from the matched route.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Look up a `key=value` pair from the query string.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// The body of every [`Response::error`].
#[derive(Serialize)]
struct ErrorEnvelope {
    error: String,
}

/// An HTTP response: status, content type, extra headers and payload.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (`200`, `404`, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Additional headers (e.g. `Allow` on a 405).
    pub headers: Vec<(String, String)>,
    /// The response payload.
    pub payload: String,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, payload: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            payload: payload.into(),
        }
    }

    /// `200 OK` with a JSON payload.
    pub fn ok(payload: impl Into<String>) -> Self {
        Self::json(200, payload)
    }

    /// A JSON error envelope: `{"error":"…"}`.
    pub fn error(status: u16, message: &str) -> Self {
        let envelope = ErrorEnvelope {
            error: message.to_string(),
        };
        Self::json(status, serde_json::to_string(&envelope).unwrap_or_default())
    }

    /// Add a header, builder style.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Add a `Retry-After: <secs>` header, builder style — the shed and
    /// quota paths advertise when the client should try again.
    #[must_use]
    pub fn retry_after(self, secs: u64) -> Self {
        self.with_header("Retry-After", secs.to_string())
    }

    fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            410 => "Gone",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }
}

/// One segment of a route pattern.
enum Segment {
    Literal(String),
    Param(String),
}

/// A registered route.
struct Route {
    method: String,
    segments: Vec<Segment>,
    handler: Box<dyn Fn(&Request) -> Response + Send + Sync>,
}

impl Route {
    /// Match `path` against the pattern, returning the `:name` captures.
    fn matches(&self, path: &str) -> Option<Vec<(String, String)>> {
        let parts: Vec<&str> = path.trim_matches('/').split('/').collect();
        let pattern_empty = self.segments.is_empty();
        let path_empty = parts.iter().all(|p| p.is_empty());
        if pattern_empty || path_empty {
            return (pattern_empty && path_empty).then(Vec::new);
        }
        if parts.len() != self.segments.len() {
            return None;
        }
        let mut params = Vec::new();
        for (seg, part) in self.segments.iter().zip(&parts) {
            match seg {
                Segment::Literal(lit) => {
                    if lit != part {
                        return None;
                    }
                }
                Segment::Param(name) => {
                    params.push((name.clone(), (*part).to_string()));
                }
            }
        }
        Some(params)
    }
}

/// Method+path dispatch over an ordered route table.
///
/// ```
/// use dox_obs::http::{Request, Response, Router};
/// use std::collections::BTreeMap;
///
/// let router = Router::new().route("GET", "/v1/victims/:id", |req: &Request| {
///     let body = BTreeMap::from([("id", req.param("id").unwrap_or_default())]);
///     Response::ok(serde_json::to_string(&body).unwrap_or_default())
/// });
/// ```
#[must_use = "a router does nothing until served by HttpServer::start"]
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("routes", &self.routes.len())
            .finish()
    }
}

impl Router {
    /// An empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a handler for `method` + `pattern`. Pattern segments
    /// starting with `:` capture the matching path segment into
    /// [`Request::params`].
    pub fn route(
        mut self,
        method: &str,
        pattern: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Self {
        let segments = pattern
            .trim_matches('/')
            .split('/')
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.strip_prefix(':').map_or_else(
                    || Segment::Literal(s.to_string()),
                    |name| Segment::Param(name.to_string()),
                )
            })
            .collect();
        self.routes.push(Route {
            method: method.to_uppercase(),
            segments,
            handler: Box::new(handler),
        });
        self
    }

    /// Append every route of `other` after this router's own — lets a
    /// service mount the telemetry routes next to its API on one port.
    pub fn merge(mut self, other: Router) -> Self {
        self.routes.extend(other.routes);
        self
    }

    /// Dispatch a request: `200`-range from the handler, `405` with an
    /// `Allow` header when the path exists under other methods, `404`
    /// when no pattern matches at all.
    pub fn dispatch(&self, request: &mut Request) -> Response {
        let mut allowed: Vec<String> = Vec::new();
        for route in &self.routes {
            let Some(params) = route.matches(&request.path) else {
                continue;
            };
            if route.method == request.method {
                request.params = params;
                return (route.handler)(request);
            }
            if !allowed.contains(&route.method) {
                allowed.push(route.method.clone());
            }
        }
        if allowed.is_empty() {
            Response::error(404, "not found")
        } else {
            let mut response = Response::error(405, "method not allowed");
            response
                .headers
                .push(("Allow".to_string(), allowed.join(", ")));
            response
        }
    }
}

/// Connections waiting for a worker, plus the shutdown flag. Each entry
/// carries its accept timestamp so the first request's deadline covers
/// queue wait.
#[derive(Debug)]
struct Backlog {
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    ready: Condvar,
    stop: AtomicBool,
}

/// Immutable state every worker shares: routes, tunables, instruments.
struct Shared {
    router: Router,
    config: ServerConfig,
    metrics: HttpMetrics,
}

/// A running HTTP server: one acceptor thread and a bounded pool of
/// connection workers. Stop it with [`HttpServer::stop`]; dropping it
/// also shuts everything down.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    backlog: Arc<Backlog>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    drainer: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (port 0 for ephemeral) and serve `router` on a pool
    /// of `workers` threads, rejecting request bodies over `max_body`
    /// bytes with `413`. Every other tunable takes its
    /// [`ServerConfig::default`]; use [`HttpServer::start_with`] to set
    /// the overload knobs and the metrics registry.
    ///
    /// # Errors
    /// Returns the bind error when the address is unavailable.
    pub fn start(
        addr: &str,
        router: Router,
        workers: usize,
        max_body: usize,
    ) -> std::io::Result<Self> {
        HttpServer::start_with(
            addr,
            router,
            ServerConfig {
                workers,
                max_body,
                ..ServerConfig::default()
            },
        )
    }

    /// Bind `addr` (port 0 for ephemeral) and serve `router` under the
    /// given [`ServerConfig`].
    ///
    /// # Errors
    /// Returns the bind error when the address is unavailable.
    pub fn start_with(addr: &str, router: Router, config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let backlog = Arc::new(Backlog {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let metrics = HttpMetrics::new(&config.registry);
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            router,
            config,
            metrics,
        });
        // The acceptor owns the only sender, so the drainer exits once
        // the acceptor does.
        let (shed_tx, shed_rx) = sync_channel(SHED_DRAIN_MAX);
        let drainer = std::thread::Builder::new()
            .name("dox-http-shed".to_string())
            .spawn(move || drain_loop(&shed_rx))?;
        let acceptor = {
            let backlog = Arc::clone(&backlog);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("dox-http-accept".to_string())
                .spawn(move || accept_loop(&listener, &backlog, &shared, &shed_tx))?
        };
        let pool = (0..workers)
            .map(|i| {
                let backlog = Arc::clone(&backlog);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dox-http-{i}"))
                    .spawn(move || worker_loop(&backlog, &shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Self {
            addr: local,
            backlog,
            acceptor: Some(acceptor),
            workers: pool,
            drainer: Some(drainer),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shut the server down and join every thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.backlog.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection, then wake
        // every idle worker.
        let _ = TcpStream::connect(self.addr);
        self.backlog.ready.notify_all();
        let _ = acceptor.join();
        if let Some(drainer) = self.drainer.take() {
            let _ = drainer.join();
        }
        self.backlog.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept connections forever: admit into the bounded backlog, shed the
/// overflow with `503`, and back off exponentially on `accept()` errors
/// (fd exhaustion returns `EMFILE` in a tight loop — the old
/// `let Ok(stream) else continue` hot-spun through it).
fn accept_loop(
    listener: &TcpListener,
    backlog: &Backlog,
    shared: &Shared,
    drainer: &SyncSender<(TcpStream, Instant)>,
) {
    let mut consecutive_errors: u32 = 0;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                consecutive_errors = 0;
                if backlog.stop.load(Ordering::SeqCst) {
                    break;
                }
                let mut queue = backlog.queue.lock().unwrap_or_else(PoisonError::into_inner);
                if queue.len() >= shared.config.max_backlog.max(1) {
                    drop(queue);
                    shared.metrics.shed_total.inc();
                    shed(stream, shared.config.retry_after_secs, drainer);
                    continue;
                }
                queue.push_back((stream, Instant::now()));
                shared.metrics.backlog_depth.set(queue.len() as i64);
                drop(queue);
                backlog.ready.notify_one();
            }
            Err(_) => {
                if backlog.stop.load(Ordering::SeqCst) {
                    break;
                }
                shared.metrics.accept_errors.inc();
                consecutive_errors = consecutive_errors.saturating_add(1);
                let shift = consecutive_errors.saturating_sub(1).min(16);
                let delay = ACCEPT_BACKOFF_BASE
                    .saturating_mul(1 << shift)
                    .min(ACCEPT_BACKOFF_CAP);
                std::thread::sleep(delay);
            }
        }
    }
}

/// Answer a shed connection `503` + `Retry-After` without ever blocking
/// the acceptor: the response is a single small write under a bounded
/// write timeout, then the write side closes and the connection goes to
/// [`drain_loop`] (or, when that is full, drops at once).
fn shed(mut stream: TcpStream, retry_after_secs: u64, drainer: &SyncSender<(TcpStream, Instant)>) {
    let _ = stream.set_write_timeout(Some(ERROR_WRITE_WINDOW));
    let _ = stream.set_nodelay(true);
    let response =
        Response::error(503, "server overloaded, retry later").retry_after(retry_after_secs);
    let _ = stream.write_all(&render_response(&response, true));
    let _ = stream.shutdown(Shutdown::Write);
    if stream.set_nonblocking(true).is_ok() {
        let _ = drainer.try_send((stream, Instant::now() + SHED_DRAIN_WINDOW));
    }
}

/// Read and discard what shed clients still send, until each one closes
/// or hits its byte or time cap, then drop it; polls every
/// [`MIN_IO_TICK`] while any connection is open. Returns when the
/// acceptor's sender is gone.
fn drain_loop(arrivals: &Receiver<(TcpStream, Instant)>) {
    let mut open: Vec<(TcpStream, Instant, usize)> = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let arrival = if open.is_empty() {
            arrivals.recv().map_err(|_| RecvTimeoutError::Disconnected)
        } else {
            arrivals.recv_timeout(MIN_IO_TICK)
        };
        match arrival {
            Ok((stream, deadline)) if open.len() < SHED_DRAIN_MAX => {
                open.push((stream, deadline, 0));
            }
            Ok(_) | Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        let now = Instant::now();
        open.retain_mut(|(stream, deadline, drained)| loop {
            match stream.read(&mut buf) {
                Ok(n) if n > 0 && *drained + n < SHED_DRAIN_BYTES => *drained += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break now < *deadline,
                // Closed by the peer, failed, or over the byte cap.
                _ => break false,
            }
        });
    }
}

fn worker_loop(backlog: &Backlog, shared: &Shared) {
    loop {
        let (stream, accepted_at) = {
            let mut queue = backlog.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(entry) = queue.pop_front() {
                    shared.metrics.backlog_depth.set(queue.len() as i64);
                    break entry;
                }
                if backlog.stop.load(Ordering::SeqCst) {
                    return;
                }
                queue = backlog
                    .ready
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        let _ = serve_connection(stream, accepted_at, shared, &backlog.stop);
    }
}

/// Outcome of one budgeted line read.
enum LineRead {
    /// A complete line (terminator included in the scan, stripped here).
    Line(String),
    /// The peer closed the connection.
    Eof,
    /// The per-request deadline expired mid-line.
    TimedOut,
    /// The line exceeded the header-line byte cap.
    TooLong,
}

/// Whether bytes arrived on an idle keep-alive connection.
enum DataWait {
    /// At least one request byte is buffered.
    Ready,
    /// The idle window elapsed with no data.
    Idle,
    /// The peer closed the connection.
    Eof,
}

/// `true` for the error kinds a socket timeout surfaces as.
fn is_timeout(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Wait up to `idle` for the next request's first byte (without
/// consuming it).
fn wait_for_data(reader: &mut BufReader<TcpStream>, idle: Duration) -> std::io::Result<DataWait> {
    if !reader.buffer().is_empty() {
        return Ok(DataWait::Ready);
    }
    reader
        .get_ref()
        .set_read_timeout(Some(idle.max(MIN_IO_TICK)))?;
    loop {
        match reader.fill_buf() {
            Ok([]) => return Ok(DataWait::Eof),
            Ok(_) => return Ok(DataWait::Ready),
            Err(e) if is_timeout(e.kind()) => return Ok(DataWait::Idle),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Read one `\n`-terminated line, recomputing the socket read timeout
/// from the remaining deadline budget before every underlying read.
/// This is the slowloris defence: a client dripping one byte per
/// timeout window used to reset the clock on every byte; here the
/// budget only ever shrinks, so the total stall is bounded by the
/// deadline no matter how the bytes are paced.
fn read_line_within(
    reader: &mut BufReader<TcpStream>,
    deadline: Instant,
    max_len: usize,
) -> std::io::Result<LineRead> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Ok(LineRead::TimedOut);
        }
        reader
            .get_ref()
            .set_read_timeout(Some(remaining.max(MIN_IO_TICK)))?;
        match reader.fill_buf() {
            Ok([]) => return Ok(LineRead::Eof),
            Ok(buf) => {
                let take = buf
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(buf.len(), |i| i + 1);
                line.extend_from_slice(&buf[..take]);
                reader.consume(take);
                if line.len() > max_len {
                    return Ok(LineRead::TooLong);
                }
                if line.last() == Some(&b'\n') {
                    return Ok(LineRead::Line(String::from_utf8_lossy(&line).into_owned()));
                }
            }
            Err(e) if is_timeout(e.kind()) => return Ok(LineRead::TimedOut),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Outcome of one budgeted body read.
enum BodyRead {
    /// The body arrived in full.
    Complete,
    /// The peer closed mid-body.
    Eof,
    /// The deadline expired mid-body.
    TimedOut,
}

/// Read exactly `buf.len()` body bytes under the remaining budget.
fn read_exact_within(
    reader: &mut BufReader<TcpStream>,
    buf: &mut [u8],
    deadline: Instant,
) -> std::io::Result<BodyRead> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Ok(BodyRead::TimedOut);
        }
        reader
            .get_ref()
            .set_read_timeout(Some(remaining.max(MIN_IO_TICK)))?;
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Ok(BodyRead::Eof),
            Ok(n) => filled += n,
            Err(e) if is_timeout(e.kind()) => return Ok(BodyRead::TimedOut),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(BodyRead::Complete)
}

/// Render a response to wire bytes.
fn render_response(response: &Response, close: bool) -> Vec<u8> {
    let mut extra = String::new();
    for (name, value) in &response.headers {
        extra.push_str(name);
        extra.push_str(": ");
        extra.push_str(value);
        extra.push_str("\r\n");
    }
    let connection = if close { "close" } else { "keep-alive" };
    format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{extra}Connection: {connection}\r\n\r\n{}",
        response.status,
        Response::reason(response.status),
        response.content_type,
        response.payload.len(),
        response.payload,
    )
    .into_bytes()
}

/// Write all of `bytes` before `deadline`, recomputing the socket write
/// timeout per syscall so a slow-reading client cannot stretch the
/// write phase past the budget.
fn write_all_within(
    stream: &mut TcpStream,
    bytes: &[u8],
    deadline: Instant,
) -> std::io::Result<bool> {
    let mut written = 0usize;
    while written < bytes.len() {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Ok(false);
        }
        stream.set_write_timeout(Some(remaining.max(MIN_IO_TICK)))?;
        match stream.write(&bytes[written..]) {
            Ok(0) => return Ok(false),
            Ok(n) => written += n,
            Err(e) if is_timeout(e.kind()) => return Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()?;
    Ok(true)
}

/// Best-effort terminal error response (`400`/`408`/`413`/`431`): one
/// bounded write, then the caller closes the connection. The connection
/// is no longer in a known framing state after any of these, so they
/// always carry `Connection: close`.
fn refuse(stream: &mut TcpStream, response: &Response) {
    let deadline = Instant::now() + ERROR_WRITE_WINDOW;
    let _ = write_all_within(stream, &render_response(response, true), deadline);
}

/// Keep-alive loop over one connection: parse → dispatch → respond until
/// the client closes, errors, goes idle, breaches a cap, or overruns its
/// deadline.
fn serve_connection(
    stream: TcpStream,
    accepted_at: Instant,
    shared: &Shared,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let cfg = &shared.config;
    let metrics = &shared.metrics;
    // Responses are written in one buffered syscall; Nagle would hold
    // them behind the peer's delayed ACK (~40ms per round trip).
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream);
    let mut first_request = true;
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        // The first request's budget is anchored at accept, so time in
        // the backlog counts against it; keep-alive successors may idle
        // up to `keep_alive_idle` and their budget starts at the first
        // byte of the next request.
        let deadline = if first_request {
            accepted_at + cfg.request_deadline
        } else {
            match wait_for_data(&mut reader, cfg.keep_alive_idle)? {
                DataWait::Ready => Instant::now() + cfg.request_deadline,
                DataWait::Idle | DataWait::Eof => return Ok(()),
            }
        };
        first_request = false;

        // Request line (stray CRLFs between pipelined requests are
        // skipped, bounded by the header-line cap).
        let mut skipped_blanks = 0usize;
        let request_line = loop {
            match read_line_within(&mut reader, deadline, cfg.max_header_line_bytes)? {
                LineRead::Line(line) => {
                    if !line.trim().is_empty() {
                        break line;
                    }
                    skipped_blanks += 1;
                    if skipped_blanks > cfg.max_header_lines {
                        metrics.header_rejects.inc();
                        refuse(
                            reader.get_mut(),
                            &Response::error(400, "malformed request stream"),
                        );
                        return Ok(());
                    }
                }
                LineRead::Eof => return Ok(()),
                LineRead::TimedOut => {
                    metrics.deadline_hits.inc();
                    refuse(reader.get_mut(), &Response::error(408, "request timeout"));
                    return Ok(());
                }
                LineRead::TooLong => {
                    metrics.header_rejects.inc();
                    refuse(
                        reader.get_mut(),
                        &Response::error(431, "request line too long"),
                    );
                    return Ok(());
                }
            }
        };
        let mut parts = request_line.split_whitespace();
        let method = parts.next().unwrap_or("").to_uppercase();
        let target = parts.next().unwrap_or("");
        let version = parts.next().unwrap_or("HTTP/1.1");

        // Headers: we care about Content-Length and Connection. A
        // Content-Length that does not parse is answered `400` and the
        // connection closed — treating garbage as "no body" would leave
        // the unread body bytes to desync the keep-alive framing.
        let mut content_length: usize = 0;
        let mut close_requested = version == "HTTP/1.0";
        let mut header_lines = 0usize;
        loop {
            let header = match read_line_within(&mut reader, deadline, cfg.max_header_line_bytes)? {
                LineRead::Line(line) => line,
                LineRead::Eof => return Ok(()),
                LineRead::TimedOut => {
                    metrics.deadline_hits.inc();
                    refuse(reader.get_mut(), &Response::error(408, "request timeout"));
                    return Ok(());
                }
                LineRead::TooLong => {
                    metrics.header_rejects.inc();
                    refuse(
                        reader.get_mut(),
                        &Response::error(431, "header line too long"),
                    );
                    return Ok(());
                }
            };
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            header_lines += 1;
            if header_lines > cfg.max_header_lines {
                metrics.header_rejects.inc();
                refuse(reader.get_mut(), &Response::error(431, "too many headers"));
                return Ok(());
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    match value.parse::<usize>() {
                        Ok(n) => content_length = n,
                        Err(_) => {
                            metrics.bad_requests.inc();
                            refuse(
                                reader.get_mut(),
                                &Response::error(400, "malformed Content-Length"),
                            );
                            return Ok(());
                        }
                    }
                } else if name.eq_ignore_ascii_case("connection") {
                    close_requested = value.eq_ignore_ascii_case("close");
                }
            }
        }

        if content_length > cfg.max_body {
            // Refuse to read an oversized payload; the connection is no
            // longer in a known state, so close it after answering.
            refuse(
                reader.get_mut(),
                &Response::error(413, "request body too large"),
            );
            return Ok(());
        }
        let mut body = vec![0u8; content_length];
        match read_exact_within(&mut reader, &mut body, deadline)? {
            BodyRead::Complete => {}
            BodyRead::Eof => return Ok(()),
            BodyRead::TimedOut => {
                metrics.deadline_hits.inc();
                refuse(reader.get_mut(), &Response::error(408, "request timeout"));
                return Ok(());
            }
        }

        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), Some(q.to_string())),
            None => (target.to_string(), None),
        };
        let mut request = Request {
            method,
            path,
            query,
            params: Vec::new(),
            body,
        };
        metrics.requests_total.inc();
        let response = shared.router.dispatch(&mut request);

        // Last response byte is due at the deadline; a short grace
        // window lets a handler that finished just inside the budget
        // still flush. A client that will not drain the response within
        // that window loses the connection.
        let write_deadline = deadline.max(Instant::now() + ERROR_WRITE_WINDOW);
        let bytes = render_response(&response, close_requested);
        if !write_all_within(reader.get_mut(), &bytes, write_deadline)? {
            metrics.deadline_hits.inc();
            return Ok(());
        }
        if close_requested {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bodies_are_json_that_round_trips_the_message() {
        for message in [
            "unknown tenant 'x'",
            "a \"quoted\" word",
            "back\\slash",
            "two\nlines",
            "control \u{1} byte",
            "caf\u{e9}",
        ] {
            let body = Response::error(404, message).payload;
            let parsed: serde_json::Value =
                serde_json::from_str(&body).unwrap_or_else(|e| panic!("{body:?} is not JSON: {e}"));
            assert_eq!(parsed["error"].as_str(), Some(message), "{body}");
            assert_eq!(parsed.as_object().map(<[_]>::len), Some(1), "{body}");
        }
    }

    fn test_router() -> Router {
        Router::new()
            .route("GET", "/ping", |_req| Response::ok("{\"pong\":true}"))
            .route("GET", "/v1/items/:id", |req: &Request| {
                Response::ok(format!(
                    "{{\"id\":\"{}\"}}",
                    req.param("id").unwrap_or_default()
                ))
            })
            .route("POST", "/v1/echo", |req: &Request| {
                Response::ok(format!("{{\"len\":{}}}", req.body.len()))
            })
            .route("GET", "/slow", |_req| {
                std::thread::sleep(Duration::from_millis(300));
                Response::ok("{\"slow\":true}")
            })
    }

    fn send(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        send(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
        )
    }

    #[test]
    fn routes_dispatch_with_params() {
        let server = HttpServer::start("127.0.0.1:0", test_router(), 2, DEFAULT_MAX_BODY)
            .expect("bind ephemeral");
        let addr = server.local_addr();
        assert!(get(addr, "/ping").contains("\"pong\":true"));
        let with_param = get(addr, "/v1/items/42");
        assert!(with_param.starts_with("HTTP/1.1 200"), "{with_param}");
        assert!(with_param.contains("\"id\":\"42\""), "{with_param}");
        server.stop();
    }

    #[test]
    fn unknown_paths_are_404_and_wrong_methods_405() {
        let server = HttpServer::start("127.0.0.1:0", test_router(), 2, DEFAULT_MAX_BODY)
            .expect("bind ephemeral");
        let addr = server.local_addr();
        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
        let wrong_method = send(
            addr,
            "POST /ping HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        );
        assert!(wrong_method.starts_with("HTTP/1.1 405"), "{wrong_method}");
        assert!(wrong_method.contains("Allow: GET"), "{wrong_method}");
        server.stop();
    }

    #[test]
    fn request_bodies_reach_handlers_and_oversized_ones_are_413() {
        let server =
            HttpServer::start("127.0.0.1:0", test_router(), 2, 64).expect("bind ephemeral");
        let addr = server.local_addr();
        let ok = send(
            addr,
            "POST /v1/echo HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello",
        );
        assert!(ok.contains("\"len\":5"), "{ok}");
        let huge = format!(
            "POST /v1/echo HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\nConnection: close\r\n\r\n{}",
            "x".repeat(100)
        );
        let too_large = send(addr, &huge);
        assert!(too_large.starts_with("HTTP/1.1 413"), "{too_large}");
        server.stop();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let server = HttpServer::start("127.0.0.1:0", test_router(), 2, DEFAULT_MAX_BODY)
            .expect("bind ephemeral");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        for i in 0..3 {
            write!(stream, "GET /v1/items/{i} HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
            // Keep-alive leaves the stream open, so read until the body
            // (which ends with `}`) has fully arrived.
            let mut response = String::new();
            let mut buf = [0u8; 1024];
            while !response.ends_with('}') {
                let n = stream.read(&mut buf).expect("read");
                assert!(n > 0, "server closed early: {response}");
                response.push_str(&String::from_utf8_lossy(&buf[..n]));
            }
            assert!(response.starts_with("HTTP/1.1 200"), "{response}");
            assert!(response.contains(&format!("\"id\":\"{i}\"")), "{response}");
            assert!(response.contains("Connection: keep-alive"), "{response}");
        }
        server.stop();
    }

    #[test]
    fn query_params_parse() {
        let router = Router::new().route("GET", "/v1/alerts", |req: &Request| {
            Response::ok(format!(
                "{{\"cursor\":\"{}\"}}",
                req.query_param("cursor").unwrap_or("0")
            ))
        });
        let server =
            HttpServer::start("127.0.0.1:0", router, 1, DEFAULT_MAX_BODY).expect("bind ephemeral");
        let with_query = get(server.local_addr(), "/v1/alerts?cursor=17&wait=0");
        assert!(with_query.contains("\"cursor\":\"17\""), "{with_query}");
        server.stop();
    }

    #[test]
    fn stop_joins_all_threads_and_releases_the_port() {
        let server = HttpServer::start("127.0.0.1:0", test_router(), 4, DEFAULT_MAX_BODY)
            .expect("bind ephemeral");
        let addr = server.local_addr();
        assert!(get(addr, "/ping").contains("pong"));
        server.stop();
        assert!(
            TcpListener::bind(addr).is_ok(),
            "address released after stop"
        );
    }

    #[test]
    fn concurrent_connections_are_served_by_the_pool() {
        let server = HttpServer::start("127.0.0.1:0", test_router(), 4, DEFAULT_MAX_BODY)
            .expect("bind ephemeral");
        let addr = server.local_addr();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let response = get(addr, &format!("/v1/items/{i}"));
                    assert!(response.contains(&format!("\"id\":\"{i}\"")), "{response}");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
        server.stop();
    }

    #[test]
    fn malformed_content_length_is_400_and_closes() {
        // Regression: `unwrap_or(0)` used to treat garbage as an empty
        // body, leaving the real body bytes to desync keep-alive framing.
        let registry = Registry::new();
        let server = HttpServer::start_with(
            "127.0.0.1:0",
            test_router(),
            ServerConfig {
                workers: 2,
                registry: registry.clone(),
                ..ServerConfig::default()
            },
        )
        .expect("bind ephemeral");
        let response = send(
            server.local_addr(),
            "POST /v1/echo HTTP/1.1\r\nHost: t\r\nContent-Length: banana\r\n\r\nhello",
        );
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("Connection: close"), "{response}");
        assert!(response.contains("malformed Content-Length"), "{response}");
        assert_eq!(registry.counter("http.bad_requests").get(), 1);
        // The server stays healthy for well-formed clients.
        assert!(get(server.local_addr(), "/ping").contains("pong"));
        server.stop();
    }

    #[test]
    fn slowloris_header_drip_is_cut_at_the_deadline() {
        let deadline = Duration::from_millis(400);
        let server = HttpServer::start_with(
            "127.0.0.1:0",
            test_router(),
            ServerConfig {
                workers: 1,
                request_deadline: deadline,
                ..ServerConfig::default()
            },
        )
        .expect("bind ephemeral");
        let addr = server.local_addr();

        let started = Instant::now();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream
            .write_all(b"GET /ping HTTP/1.1\r\nX-Drip: ")
            .expect("prefix");
        // Drip one header byte per 50ms, far longer than the budget.
        // Per-line idle timeouts used to reset on every byte; the
        // deadline must cut the worker loose regardless of pacing.
        let mut response = Vec::new();
        for _ in 0..100 {
            if stream.write_all(b"x").is_err() {
                break; // server already closed
            }
            std::thread::sleep(Duration::from_millis(50));
            if started.elapsed() > Duration::from_secs(8) {
                break;
            }
            // A 408 arriving ends the drip early.
            stream
                .set_read_timeout(Some(Duration::from_millis(1)))
                .expect("poll timeout");
            let mut buf = [0u8; 512];
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    response.extend_from_slice(&buf[..n]);
                    break;
                }
                Err(_) => {}
            }
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(4),
            "worker pinned for {elapsed:?} — slowloris defence failed"
        );
        // Either an explicit 408 or a hard close is acceptable; the
        // worker must be free again for legitimate clients (the pool
        // has exactly one worker, so this request proves it).
        if !response.is_empty() {
            let head = String::from_utf8_lossy(&response).into_owned();
            assert!(head.starts_with("HTTP/1.1 408"), "{head}");
        }
        drop(stream);
        assert!(get(addr, "/ping").contains("pong"), "worker not released");
        server.stop();
    }

    #[test]
    fn header_caps_answer_431() {
        let server = HttpServer::start_with(
            "127.0.0.1:0",
            test_router(),
            ServerConfig {
                workers: 2,
                max_header_lines: 4,
                max_header_line_bytes: 128,
                ..ServerConfig::default()
            },
        )
        .expect("bind ephemeral");
        let addr = server.local_addr();
        let long_line = format!("GET /ping HTTP/1.1\r\nX-Long: {}\r\n\r\n", "v".repeat(1024));
        let response = send(addr, &long_line);
        assert!(response.starts_with("HTTP/1.1 431"), "{response}");
        let many_headers = format!(
            "GET /ping HTTP/1.1\r\n{}\r\n",
            (0..16).fold(String::new(), |mut s, i| {
                s.push_str(&format!("X-H{i}: v\r\n"));
                s
            })
        );
        let response = send(addr, &many_headers);
        assert!(response.starts_with("HTTP/1.1 431"), "{response}");
        server.stop();
    }

    #[test]
    fn backlog_overflow_sheds_with_503_and_retry_after() {
        let registry = Registry::new();
        let server = HttpServer::start_with(
            "127.0.0.1:0",
            test_router(),
            ServerConfig {
                workers: 1,
                max_backlog: 1,
                retry_after_secs: 2,
                registry: registry.clone(),
                ..ServerConfig::default()
            },
        )
        .expect("bind ephemeral");
        let addr = server.local_addr();

        // Occupy the only worker with a slow request…
        let busy = std::thread::spawn(move || get(addr, "/slow"));
        std::thread::sleep(Duration::from_millis(100));
        // …fill the single backlog slot…
        let queued = std::thread::spawn(move || get(addr, "/slow"));
        std::thread::sleep(Duration::from_millis(50));
        // …and watch the next connection get shed at admission.
        let shed = get(addr, "/ping");
        assert!(shed.starts_with("HTTP/1.1 503"), "{shed}");
        assert!(shed.contains("Retry-After: 2"), "{shed}");
        assert!(registry.counter("http.shed_total").get() >= 1);
        assert!(
            registry.gauge("http.backlog_depth").get() <= 1,
            "backlog depth bounded by max_backlog"
        );
        let busy = busy.join().expect("busy client");
        assert!(busy.contains("\"slow\":true"), "{busy}");
        let queued = queued.join().expect("queued client");
        assert!(queued.contains("\"slow\":true"), "{queued}");
        server.stop();
    }

    #[test]
    fn silent_shed_clients_do_not_stall_admission() {
        // Shed connections drain on their own thread: forty shed clients
        // that never send nor close must not hold the acceptor for their
        // drain windows (2 s if served one after another).
        let server = HttpServer::start_with(
            "127.0.0.1:0",
            test_router(),
            ServerConfig {
                workers: 1,
                max_backlog: 1,
                ..ServerConfig::default()
            },
        )
        .expect("bind ephemeral");
        let addr = server.local_addr();
        let busy = std::thread::spawn(move || get(addr, "/slow"));
        std::thread::sleep(Duration::from_millis(100));
        let queued = std::thread::spawn(move || get(addr, "/slow"));
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        let silent: Vec<TcpStream> = (0..40)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        let shed = get(addr, "/ping");
        let elapsed = started.elapsed();
        assert!(shed.starts_with("HTTP/1.1 503"), "{shed}");
        assert!(elapsed < Duration::from_secs(1), "shed took {elapsed:?}");
        drop(silent);
        assert!(busy.join().expect("busy client").contains("\"slow\":true"));
        assert!(queued
            .join()
            .expect("queued client")
            .contains("\"slow\":true"));
        server.stop();
    }

    #[test]
    fn response_write_to_stalled_reader_is_bounded() {
        // A handler response larger than the socket buffers, written to
        // a client that never reads: the write phase must give up at the
        // deadline instead of pinning the worker.
        let payload = "y".repeat(8 * 1024 * 1024);
        let router = Router::new()
            .route("GET", "/big", move |_req| Response::ok(payload.clone()))
            .route("GET", "/probe", |_req| Response::ok("{\"probe\":true}"));
        let server = HttpServer::start_with(
            "127.0.0.1:0",
            router,
            ServerConfig {
                workers: 1,
                request_deadline: Duration::from_millis(500),
                ..ServerConfig::default()
            },
        )
        .expect("bind ephemeral");
        let addr = server.local_addr();
        let mut stalled = TcpStream::connect(addr).expect("connect");
        stalled
            .write_all(b"GET /big HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .expect("send");
        // Never read. Once the write budget lapses the only worker must
        // be free again; probe after it, on a fresh deadline.
        std::thread::sleep(Duration::from_millis(1200));
        let started = Instant::now();
        let mut probe = TcpStream::connect(addr).expect("connect probe");
        probe
            .set_read_timeout(Some(Duration::from_secs(8)))
            .expect("timeout");
        probe
            .write_all(b"GET /probe HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .expect("send probe");
        let mut response = String::new();
        probe.read_to_string(&mut response).expect("probe read");
        assert!(response.contains("\"probe\":true"), "{response}");
        assert!(
            started.elapsed() < Duration::from_secs(6),
            "worker pinned by stalled reader"
        );
        drop(stalled);
        server.stop();
    }
}
