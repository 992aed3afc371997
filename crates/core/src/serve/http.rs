//! A dependency-free HTTP/1.1 front end over a [`ModelRegistry`].
//!
//! The workspace builds offline (no hyper/axum), so the server is a
//! small, explicitly blocking `std::net` stack:
//!
//! ```text
//! accept thread ──▶ mpsc channel ──▶ N connection threads ──▶ registry
//!                  (queue_depth)         │
//!                                        └─ /v1/answer_batch fans out on a
//!                                           per-model serve::WorkerPool
//! ```
//!
//! One thread accepts; a fixed pool of connection threads parses
//! requests, drives the [`ModelRegistry`] pipelines, and writes
//! responses. Single answers run on the connection thread itself (each
//! owns a warm thread-local beam engine); batches fan out on the
//! per-model [`WorkerPool`]s the server spawns at construction.
//!
//! # Routes (protocol `v1` — see [`super::protocol`])
//!
//! | route | body | response |
//! |---|---|---|
//! | `POST /v1/answer` | [`AnswerRequest`] | [`WireAnswer`](super::protocol::WireAnswer) |
//! | `POST /v1/answer_batch` | [`AnswerBatchRequest`] | [`AnswerBatchResponse`](super::protocol::AnswerBatchResponse) |
//! | `POST /v1/explain` | [`ExplainRequest`] | [`ExplainResponse`](super::protocol::ExplainResponse) |
//! | `POST /v1/retrieve` | [`RetrieveRequest`] | [`RetrieveResponse`](super::protocol::RetrieveResponse) |
//! | `POST /v1/admin/mutate` | [`MutateRequest`] | [`MutateResponse`](super::protocol::MutateResponse) |
//! | `POST /v1/admin/replicate` | [`ReplicateRequest`](super::protocol::ReplicateRequest) | snapshot bytes or a WAL frame stream (see [`super::replication`]) |
//! | `POST /v1/admin/promote` | [`PromoteRequest`](super::protocol::PromoteRequest) | [`PromoteResponse`](super::protocol::PromoteResponse) |
//! | `GET /v1/models` | — | [`ModelsResponse`](super::protocol::ModelsResponse) |
//! | `GET /healthz` | — | [`HealthResponse`](super::protocol::HealthResponse) |
//! | `GET /readyz` | — | [`ReadyResponse`] (503 until ready) |
//! | `GET /metrics` | — | [`MetricsResponse`] |
//!
//! Failures return `{"error": {"code": ..., ...}}` with the
//! [`ApiError`]'s status. Connections are `Connection: close`
//! (keep-alive and streaming are roadmap follow-ups); the protocol
//! lives entirely in the body, so clients are trivial — see
//! [`request`] and `examples/http_client.rs`.
//!
//! # Quickstart
//!
//! ```bash
//! mmkgr serve --dataset wn9 --models MMKGR,ConvE --port 8080 &
//! curl -s localhost:8080/healthz
//! curl -s localhost:8080/v1/models
//! curl -s localhost:8080/v1/answer -d '{"query": {"source": "e17", "relation": "r3"}}'
//! curl -s localhost:8080/v1/answer -d '{"model": "ConvE", "query": {"source": "e17", "relation": "~r3", "top_k": 3}}'
//! curl -s localhost:8080/metrics
//! ```

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use super::protocol::{
    AnswerBatchRequest, AnswerRequest, ApiError, ApiResponse, ExplainRequest, MetricsResponse,
    MutateRequest, ReadyResponse, RetrieveMetrics, RetrieveRequest, RobustnessMetrics,
    RouteMetrics, PROTOCOL_VERSION,
};
use super::registry::{budget_for_timeouts, ModelRegistry};
use super::{faults, WorkerPool};

/// Server knobs. The defaults suit tests and small deployments; a real
/// box mostly wants more `conn_threads`.
#[derive(Copy, Clone, Debug)]
pub struct HttpServerConfig {
    /// Connection-handler threads (each also runs single answers on its
    /// own warm beam engine).
    pub conn_threads: usize,
    /// Worker threads per model for `/v1/answer_batch` fan-out.
    pub pool_workers: usize,
    /// Reject request bodies beyond this size (413 `payload_too_large`).
    pub max_body_bytes: usize,
    /// Total budget for reading one request (also the per-`read` socket
    /// timeout and the response write timeout). A client that stalls
    /// past it gets a 408 `request_timeout`.
    pub read_timeout: Duration,
    /// Default execution deadline for requests that carry no explicit
    /// `timeout_ms` (a batch: none of its queries does), filled in before
    /// the registry runs them (0 = no default deadline). Exceeding it is
    /// a 504 `deadline_exceeded`.
    pub default_timeout_ms: u64,
    /// Load shedding: accepted connections beyond this many queued and
    /// unclaimed are answered `503 overloaded` + `Retry-After` without
    /// dispatching (0 = never shed).
    pub max_queue_depth: usize,
    /// Per-model in-flight cap for answer/batch/explain work (0 = no
    /// cap). Requests beyond it shed with `503 overloaded`, isolating a
    /// slow model from the rest of the registry.
    pub model_inflight_limit: usize,
    /// `Retry-After` hint (in ms, rounded up to seconds on the wire)
    /// attached to shed responses.
    pub retry_after_ms: u64,
    /// Whether the server is born ready (`GET /readyz` → 200). A live
    /// boot that still has warm-up to do after binding passes `false`
    /// and flips readiness with [`RunningServer::mark_ready`]; until
    /// then `/readyz` answers 503 + `Retry-After` (while `/healthz`
    /// liveness stays 200).
    pub start_ready: bool,
}

impl Default for HttpServerConfig {
    fn default() -> Self {
        HttpServerConfig {
            conn_threads: 4,
            pool_workers: 2,
            max_body_bytes: 4 << 20,
            read_timeout: Duration::from_secs(10),
            default_timeout_ms: 30_000,
            max_queue_depth: 1024,
            model_inflight_limit: 0,
            retry_after_ms: 1000,
            start_ready: true,
        }
    }
}

/// Route slots for the per-route counters (fixed set; `Other` absorbs
/// 404/405 traffic).
#[derive(Copy, Clone)]
enum Route {
    Answer,
    AnswerBatch,
    Explain,
    Retrieve,
    AdminMutate,
    AdminReplicate,
    AdminPromote,
    Models,
    Healthz,
    Readyz,
    Metrics,
    Other,
}

const ROUTE_NAMES: [&str; 12] = [
    "/v1/answer",
    "/v1/answer_batch",
    "/v1/explain",
    "/v1/retrieve",
    "/v1/admin/mutate",
    "/v1/admin/replicate",
    "/v1/admin/promote",
    "/v1/models",
    "/healthz",
    "/readyz",
    "/metrics",
    "(other)",
];

#[derive(Default)]
struct RouteCounter {
    requests: AtomicU64,
    errors: AtomicU64,
    latency_ns: AtomicU64,
}

/// Per-server robustness counters (the process-global shard/worker
/// supervision counters live in [`faults`]).
#[derive(Default)]
struct RobustCounters {
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    degraded_answers: AtomicU64,
    request_timeouts: AtomicU64,
}

/// State shared by the accept thread, connection threads, and handles.
struct Shared {
    registry: Arc<ModelRegistry>,
    /// Batch fan-out pools, one per registered model.
    pools: HashMap<String, WorkerPool>,
    counters: [RouteCounter; 12],
    queue_depth: AtomicUsize,
    /// Per-model in-flight answer/batch/explain requests, for the
    /// `model_inflight_limit` bulkhead. Admin mutations are exempt — a
    /// saturated model must not be able to starve out the write path.
    inflight: HashMap<String, AtomicUsize>,
    /// Readiness for `GET /readyz` (false until snapshot load + WAL
    /// replay + warm-up finish; liveness `/healthz` is independent).
    ready: AtomicBool,
    robust: RobustCounters,
    /// Reranker activity for `/v1/retrieve`: path candidates examined and
    /// path contexts actually returned.
    retrieve_paths_considered: AtomicU64,
    retrieve_paths_selected: AtomicU64,
    stop: AtomicBool,
    cfg: HttpServerConfig,
}

/// RAII release of one per-model in-flight slot.
struct InflightSlot<'a>(&'a AtomicUsize);

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Shared {
    fn observe(&self, route: Route, err: bool, elapsed: Duration) {
        let c = &self.counters[route as usize];
        c.requests.fetch_add(1, Ordering::Relaxed);
        if err {
            c.errors.fetch_add(1, Ordering::Relaxed);
        }
        c.latency_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Bump the robustness counter matching a typed failure (called once
    /// per response on each error path — never double-counted).
    fn note_error(&self, e: &ApiError) {
        match e {
            ApiError::Overloaded { .. } => &self.robust.shed,
            ApiError::DeadlineExceeded { .. } => &self.robust.deadline_exceeded,
            ApiError::RequestTimeout { .. } => &self.robust.request_timeouts,
            _ => return,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Claim one in-flight slot for `model`, or shed with a typed 503
    /// when the bulkhead is full. `None` means no cap is configured.
    fn acquire_inflight(&self, model: &str) -> Result<Option<InflightSlot<'_>>, ApiError> {
        let limit = self.cfg.model_inflight_limit;
        let Some(counter) = (limit > 0).then(|| self.inflight.get(model)).flatten() else {
            return Ok(None);
        };
        if counter.fetch_add(1, Ordering::SeqCst) >= limit {
            counter.fetch_sub(1, Ordering::SeqCst);
            return Err(ApiError::Overloaded {
                retry_after_ms: self.cfg.retry_after_ms,
            });
        }
        Ok(Some(InflightSlot(counter)))
    }

    fn count_degraded(&self, answers: &[&super::protocol::WireAnswer]) {
        let n = answers.iter().filter(|a| a.degraded).count() as u64;
        if n > 0 {
            self.robust.degraded_answers.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn metrics(&self) -> MetricsResponse {
        MetricsResponse {
            protocol: PROTOCOL_VERSION.to_string(),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            routes: ROUTE_NAMES
                .iter()
                .zip(&self.counters)
                .map(|(route, c)| RouteMetrics {
                    route: route.to_string(),
                    requests: c.requests.load(Ordering::Relaxed),
                    errors: c.errors.load(Ordering::Relaxed),
                    latency_ns_total: c.latency_ns.load(Ordering::Relaxed),
                })
                .collect(),
            models: self.registry.model_metrics(),
            robustness: RobustnessMetrics {
                shed: self.robust.shed.load(Ordering::Relaxed),
                deadline_exceeded: self.robust.deadline_exceeded.load(Ordering::Relaxed),
                degraded_answers: self.robust.degraded_answers.load(Ordering::Relaxed),
                shard_retries: faults::SHARD_RETRIES.load(Ordering::Relaxed),
                worker_respawns: faults::WORKER_RESPAWNS.load(Ordering::Relaxed),
                request_timeouts: self.robust.request_timeouts.load(Ordering::Relaxed),
            },
            retrieve: RetrieveMetrics {
                paths_considered: self.retrieve_paths_considered.load(Ordering::Relaxed),
                paths_selected: self.retrieve_paths_selected.load(Ordering::Relaxed),
            },
            mutation: self.registry.mutation_metrics(),
            replication: self.registry.replication_metrics(),
        }
    }

    fn readiness(&self) -> ReadyResponse {
        let ready = self.ready.load(Ordering::Relaxed);
        ReadyResponse {
            protocol: PROTOCOL_VERSION.to_string(),
            ready,
            status: if ready { "ready" } else { "starting" }.to_string(),
            models: self.registry.len(),
        }
    }
}

/// A bound-but-not-yet-serving server. [`Self::spawn`] starts the
/// threads and returns the running handle; [`Self::serve`] is the
/// foreground convenience the CLI uses.
pub struct HttpServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl HttpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) over `registry`.
    /// Spawns one [`WorkerPool`] per registered model for batch fan-out.
    /// Also installs any `MMKGR_FAULTS` chaos plan (a malformed spec is
    /// a bind error — better to refuse than to serve without the faults
    /// the operator asked for).
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<ModelRegistry>,
        cfg: HttpServerConfig,
    ) -> std::io::Result<HttpServer> {
        faults::init_from_env().map_err(std::io::Error::other)?;
        let listener = TcpListener::bind(addr)?;
        let pools = registry
            .model_names()
            .iter()
            .map(|name| {
                let (_, reasoner) = registry.get(Some(name)).expect("registered model resolves");
                (
                    name.clone(),
                    WorkerPool::new(Arc::clone(reasoner), cfg.pool_workers),
                )
            })
            .collect();
        let inflight = registry
            .model_names()
            .iter()
            .map(|name| (name.clone(), AtomicUsize::new(0)))
            .collect();
        Ok(HttpServer {
            listener,
            shared: Arc::new(Shared {
                registry,
                pools,
                counters: Default::default(),
                queue_depth: AtomicUsize::new(0),
                inflight,
                ready: AtomicBool::new(cfg.start_ready),
                robust: RobustCounters::default(),
                retrieve_paths_considered: AtomicU64::new(0),
                retrieve_paths_selected: AtomicU64::new(0),
                stop: AtomicBool::new(false),
                cfg,
            }),
        })
    }

    /// The bound address (read the real port after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has addr")
    }

    /// Flip `/readyz` to 200. For servers bound with
    /// [`HttpServerConfig::start_ready`] false, call once boot work
    /// (snapshot load, WAL replay, warm-up) is done.
    pub fn mark_ready(&self) {
        self.shared.ready.store(true, Ordering::Release);
    }

    /// Start the accept thread and connection pool; returns immediately.
    pub fn spawn(self) -> RunningServer {
        let addr = self.local_addr();
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<_> = (0..self.shared.cfg.conn_threads.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || loop {
                    let stream = match rx.lock().unwrap().recv() {
                        Ok(s) => s,
                        Err(_) => return, // accept loop gone, queue drained
                    };
                    shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    handle_connection(stream, &shared);
                })
            })
            .collect();
        let shared = Arc::clone(&self.shared);
        let listener = self.listener;
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shared.stop.load(Ordering::Relaxed) {
                    break;
                }
                match stream {
                    Ok(mut s) => {
                        // Admission control: past the queue bound, shed
                        // right here on the accept thread — a cheap 503
                        // + Retry-After instead of joining a queue the
                        // connection threads are not draining.
                        let depth = shared.queue_depth.load(Ordering::Relaxed);
                        if shared.cfg.max_queue_depth > 0 && depth >= shared.cfg.max_queue_depth {
                            let err = ApiError::Overloaded {
                                retry_after_ms: shared.cfg.retry_after_ms,
                            };
                            shared.note_error(&err);
                            shared.observe(Route::Other, true, Duration::ZERO);
                            let extra = err.extra_headers();
                            let response = ApiResponse::Error(err);
                            let _ = s.set_write_timeout(Some(Duration::from_secs(1)));
                            let _ = write_response(
                                &mut s,
                                response.http_status(),
                                &response.body(),
                                &extra,
                            );
                            // Drain whatever request bytes are in
                            // flight before closing: dropping a socket
                            // with unread data turns the close into an
                            // RST, which can destroy the 503 sitting in
                            // the client's receive buffer.
                            let _ = s.shutdown(std::net::Shutdown::Write);
                            let _ = s.set_read_timeout(Some(Duration::from_millis(250)));
                            let mut sink = [0u8; 4096];
                            while matches!(s.read(&mut sink), Ok(n) if n > 0) {}
                            continue;
                        }
                        shared.queue_depth.fetch_add(1, Ordering::Relaxed);
                        if tx.send(s).is_err() {
                            break;
                        }
                    }
                    Err(_) => continue,
                }
            }
            // tx drops here: connection threads drain the queue and exit.
        });
        RunningServer {
            addr,
            shared: self.shared,
            accept: Some(accept),
            workers,
        }
    }

    /// Serve on the current thread until the process dies (the CLI's
    /// foreground mode).
    pub fn serve(self) {
        let running = self.spawn();
        running.join();
    }
}

/// Handle to a live server: address, metrics, graceful shutdown.
pub struct RunningServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl RunningServer {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current serving counters (same payload as `GET /metrics`).
    pub fn metrics(&self) -> MetricsResponse {
        self.shared.metrics()
    }

    /// Flip `GET /readyz` to 200. Call once warm-up after a
    /// `start_ready: false` bind is done (snapshot loaded, WAL
    /// replayed, caches primed).
    pub fn mark_ready(&self) {
        self.shared.ready.store(true, Ordering::Relaxed);
    }

    pub fn is_ready(&self) -> bool {
        self.shared.ready.load(Ordering::Relaxed)
    }

    /// Stop accepting, drain queued connections, and join every thread.
    /// In-flight requests finish; the per-model worker pools join on
    /// drop.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept() with a throwaway connection. A
        // wildcard bind (0.0.0.0 / ::) is not connectable everywhere, so
        // aim the wake-up at loopback on the bound port.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(2));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Block until the server exits (it only does on [`Self::shutdown`]
    /// from another handle-holder, so this is effectively forever for
    /// the CLI).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

// ------------------------------------------------------------ connection

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    // A client that never reads its response must not pin this thread.
    let _ = stream.set_write_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    let (status, body, extra) = match read_request(&mut stream, &shared.cfg) {
        Ok(req) => {
            // `/v1/admin/replicate` takes over the raw stream (snapshot
            // bytes, or a long-lived WAL frame tail) and writes its own
            // response; it cannot flow through the one-shot
            // request→response pipe below.
            if req.path.split('?').next().unwrap_or_default() == "/v1/admin/replicate"
                && req.method == "POST"
            {
                let started = Instant::now();
                let erred = super::replication::serve_replicate(
                    &mut stream,
                    &req.body,
                    &shared.registry,
                    &shared.stop,
                )
                .is_err();
                shared.observe(Route::AdminReplicate, erred, started.elapsed());
                return;
            }
            let started = Instant::now();
            let (route, response) = dispatch(&req, shared);
            let status = response.http_status();
            shared.observe(route, status >= 400, started.elapsed());
            (status, response.body(), response_extra_headers(&response))
        }
        Err(e) => {
            shared.note_error(&e);
            let extra = e.extra_headers();
            let response = ApiResponse::Error(e);
            shared.observe(Route::Other, true, Duration::ZERO);
            (response.http_status(), response.body(), extra)
        }
    };
    let _ = write_response(&mut stream, status, &body, &extra);
}

fn response_extra_headers(response: &ApiResponse) -> Vec<(&'static str, String)> {
    match response {
        ApiResponse::Error(e) => e.extra_headers(),
        // A not-yet-ready probe is a transient 503 like shedding: tell
        // the poller when to come back.
        ApiResponse::Ready(r) if !r.ready => vec![("Retry-After", "1".to_string())],
        _ => Vec::new(),
    }
}

struct HttpRequest {
    method: String,
    path: String,
    body: String,
}

/// Read one HTTP/1.1 request (request line, headers, `Content-Length`
/// body). Anything the parser can't stomach becomes a 400
/// [`ApiError::MalformedRequest`]; bodies beyond
/// [`HttpServerConfig::max_body_bytes`] a 413
/// [`ApiError::PayloadTooLarge`]; a client that stalls mid-headers or
/// mid-body a 408 [`ApiError::RequestTimeout`]. The whole request must
/// arrive within `read_timeout` *total* — the per-`read` socket timeout
/// alone would let a slow-loris client trickle one byte per timeout
/// window and pin a connection thread indefinitely.
fn read_request(stream: &mut TcpStream, cfg: &HttpServerConfig) -> Result<HttpRequest, ApiError> {
    let malformed = |detail: &str| ApiError::MalformedRequest {
        detail: detail.to_string(),
    };
    let stalled = |detail: &str| ApiError::RequestTimeout {
        detail: detail.to_string(),
    };
    let started = Instant::now();
    let max_body = cfg.max_body_bytes;
    // Read until the end of the header block.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > 64 << 10 {
            return Err(malformed("header block exceeds 64 KiB"));
        }
        if started.elapsed() > cfg.read_timeout {
            return Err(stalled("headers stalled past the read deadline"));
        }
        let n = stream.read(&mut chunk).map_err(|e| {
            if is_timeout(&e) {
                stalled("socket read timed out reading headers")
            } else {
                malformed(&format!("read: {e}"))
            }
        })?;
        if n == 0 {
            return Err(malformed("connection closed mid-request"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head =
        std::str::from_utf8(&buf[..header_end]).map_err(|_| malformed("headers are not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(malformed("bad request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(malformed("expected HTTP/1.x"));
    }
    let mut content_length = 0usize;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v
                    .trim()
                    .parse()
                    .map_err(|_| malformed("bad Content-Length"))?;
            }
        }
    }
    if content_length > max_body {
        // Drain a bounded slice of the refused body so the client can
        // finish writing and actually read the 413 — closing with
        // unread data in the socket buffer turns the response into an
        // RST. Truly huge bodies still get cut off.
        let mut drained = buf.len().saturating_sub(header_end + 4);
        while drained < content_length.min(256 << 10) {
            if started.elapsed() > cfg.read_timeout {
                break;
            }
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => drained += n,
            }
        }
        return Err(ApiError::PayloadTooLarge {
            limit_bytes: max_body,
            got_bytes: content_length,
        });
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        if started.elapsed() > cfg.read_timeout {
            return Err(stalled("body stalled past the read deadline"));
        }
        let n = stream.read(&mut chunk).map_err(|e| {
            if is_timeout(&e) {
                stalled("socket read timed out reading the body")
            } else {
                malformed(&format!("read body: {e}"))
            }
        })?;
        if n == 0 {
            return Err(malformed("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body).map_err(|_| malformed("body is not UTF-8"))?;
    Ok(HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        body,
    })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Was this I/O failure a socket-timeout expiry (vs a real transport
/// error)? Both kinds appear depending on platform.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

pub(crate) fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    extra_headers: &[(&'static str, String)],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len(),
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

// -------------------------------------------------------------- dispatch

fn parse_body<T: serde::Deserialize>(body: &str) -> Result<T, ApiError> {
    serde_json::from_str(body).map_err(|e| ApiError::MalformedRequest {
        detail: e.to_string(),
    })
}

/// Route and execute one request. Handler panics (a reasoner bug, a
/// poisoned pool) become 500s instead of killing the connection thread.
fn dispatch(req: &HttpRequest, shared: &Shared) -> (Route, ApiResponse) {
    // Health checks and probes often append cache-busting query params;
    // routing only looks at the path component.
    let path = req.path.split('?').next().unwrap_or_default();
    let (route, expect_post) = match path {
        "/v1/answer" => (Route::Answer, true),
        "/v1/answer_batch" => (Route::AnswerBatch, true),
        "/v1/explain" => (Route::Explain, true),
        "/v1/retrieve" => (Route::Retrieve, true),
        "/v1/admin/mutate" => (Route::AdminMutate, true),
        // POST /v1/admin/replicate is intercepted in `handle_connection`
        // (stream takeover); only wrong-method requests reach this arm.
        "/v1/admin/replicate" => (Route::AdminReplicate, true),
        "/v1/admin/promote" => (Route::AdminPromote, true),
        "/v1/models" => (Route::Models, false),
        "/healthz" => (Route::Healthz, false),
        "/readyz" => (Route::Readyz, false),
        "/metrics" => (Route::Metrics, false),
        _ => {
            return (
                Route::Other,
                ApiResponse::Error(ApiError::UnknownRoute {
                    path: req.path.clone(),
                }),
            )
        }
    };
    let method_ok = if expect_post {
        req.method == "POST"
    } else {
        req.method == "GET"
    };
    if !method_ok {
        return (
            route,
            ApiResponse::Error(ApiError::MethodNotAllowed {
                path: req.path.clone(),
                allowed: if expect_post { "POST" } else { "GET" }.to_string(),
            }),
        );
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute(route, &req.body, shared)
    }));
    let response = match outcome {
        Ok(Ok(resp)) => resp,
        Ok(Err(e)) => ApiResponse::Error(e),
        Err(_) => ApiResponse::Error(ApiError::Internal {
            detail: "handler panicked".to_string(),
        }),
    };
    if let ApiResponse::Error(e) = &response {
        shared.note_error(e);
    }
    (route, response)
}

fn execute(route: Route, body: &str, shared: &Shared) -> Result<ApiResponse, ApiError> {
    let registry = &shared.registry;
    // The server default deadline, given to any request that carries no
    // `timeout_ms` of its own (0 = no default deadline).
    let default_timeout = Some(shared.cfg.default_timeout_ms).filter(|&ms| ms > 0);
    Ok(match route {
        Route::Answer => {
            let mut req: AnswerRequest = parse_body(body)?;
            req.query.timeout_ms = req.query.timeout_ms.or(default_timeout);
            let (name, _) = registry.get(req.model.as_deref())?;
            let _slot = shared.acquire_inflight(name)?;
            let wire = registry.answer(&req)?;
            shared.count_degraded(&[&wire]);
            ApiResponse::Answer(wire)
        }
        Route::AnswerBatch => {
            let mut req: AnswerBatchRequest = parse_body(body)?;
            // A batch runs under its tightest explicit timeout; the
            // default applies only when no query carries one.
            if req.queries.iter().all(|q| q.timeout_ms.is_none()) {
                for q in &mut req.queries {
                    q.timeout_ms = default_timeout;
                }
            }
            let budget = budget_for_timeouts(req.queries.iter().map(|q| q.timeout_ms))?;
            let (name, _, queries) = registry.resolve_batch(&req)?;
            let _slot = shared.acquire_inflight(name)?;
            // `bind` builds a pool for every registered model.
            let answers = shared.pools[name].answer_batch_within(&queries, budget)?;
            let rendered = registry.render_batch(name, &answers);
            shared.count_degraded(&rendered.answers.iter().collect::<Vec<_>>());
            ApiResponse::AnswerBatch(rendered)
        }
        Route::Explain => {
            let mut req: ExplainRequest = parse_body(body)?;
            req.query.timeout_ms = req.query.timeout_ms.or(default_timeout);
            let (name, _) = registry.get(req.model.as_deref())?;
            let _slot = shared.acquire_inflight(name)?;
            ApiResponse::Explain(registry.explain(&req)?)
        }
        Route::Retrieve => {
            let mut req: RetrieveRequest = parse_body(body)?;
            req.timeout_ms = req.timeout_ms.or(default_timeout);
            let (name, _) = registry.get(req.model.as_deref())?;
            let _slot = shared.acquire_inflight(name)?;
            let resp = registry.retrieve(&req)?;
            shared
                .retrieve_paths_considered
                .fetch_add(resp.paths_considered, Ordering::Relaxed);
            shared
                .retrieve_paths_selected
                .fetch_add(resp.paths.len() as u64, Ordering::Relaxed);
            ApiResponse::Retrieve(resp)
        }
        // Admin mutations bypass the per-model bulkhead (they touch the
        // store, not a reasoner) but still run under the request budget
        // inside the registry pipeline.
        Route::AdminMutate => {
            let mut req: MutateRequest = parse_body(body)?;
            req.timeout_ms = req.timeout_ms.or(default_timeout);
            ApiResponse::Mutate(registry.mutate(&req)?)
        }
        Route::AdminReplicate => {
            return Err(ApiError::Internal {
                detail: "replicate is handled at the connection layer".to_string(),
            })
        }
        // Promotion is a plain request/response admin call. `curl -X
        // POST` with no body is the common way to drive it, so an empty
        // body parses as the default request.
        Route::AdminPromote => {
            let _req: super::protocol::PromoteRequest = if body.trim().is_empty() {
                Default::default()
            } else {
                parse_body(body)?
            };
            ApiResponse::Promote(registry.promote()?)
        }
        Route::Models => ApiResponse::Models(registry.models()),
        Route::Healthz => ApiResponse::Health(registry.health()),
        Route::Readyz => ApiResponse::Ready(shared.readiness()),
        Route::Metrics => ApiResponse::Metrics(shared.metrics()),
        Route::Other => unreachable!("dispatch handles unknown routes"),
    })
}

// ----------------------------------------------------------- test client

/// Minimal blocking HTTP/1.1 client for tests, benches, and examples:
/// one request per connection (matching the server's `Connection:
/// close`), returns `(status, body)`.
///
/// A 503 carrying a `Retry-After` header (load shedding, a not-ready
/// `/readyz`) is retried **once** after the hinted backoff plus a small
/// jitter — enough for polite clients to ride out a transient
/// overload without synchronizing their retries into a thundering
/// herd. A second 503 is returned as-is. Callers riding out a longer
/// warm-up (a follower bootstrap holds `/readyz` at 503 until it
/// catches up to the primary) use [`request_with_retries`] with a
/// higher budget; callers that must observe the raw first response
/// (chaos tests asserting on shed counts) should speak to the socket
/// directly.
///
/// This is deliberately not a production client — it exists so the
/// workspace can drive the server without a crates.io HTTP stack.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    request_with_retries(addr, method, path, body, 1)
}

/// [`request`] with a configurable `Retry-After` budget: up to
/// `max_retries` re-sends, each only when the previous response was a
/// 503 that carried a `Retry-After` hint. A 503 without the header, any
/// other status, or an exhausted budget returns the last response
/// as-is. Each honored hint is capped at 5 s (a test client sleeping
/// minutes because a server asked is worse than returning the 503) and
/// gets a small decorrelating jitter.
pub fn request_with_retries(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    max_retries: u32,
) -> std::io::Result<(u16, String)> {
    let (mut status, mut head, mut resp_body) = request_once(addr, method, path, body)?;
    for _ in 0..max_retries {
        if status != 503 {
            break;
        }
        let Some(secs) = retry_after_secs(&head) else {
            break;
        };
        let jitter_ms = u64::from(
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos())
                .unwrap_or(0),
        ) % 250;
        std::thread::sleep(Duration::from_secs(secs.min(5)) + Duration::from_millis(jitter_ms));
        (status, head, resp_body) = request_once(addr, method, path, body)?;
    }
    Ok((status, resp_body))
}

/// Parse the whole-seconds `Retry-After` value out of a response head.
pub(crate) fn retry_after_secs(head: &str) -> Option<u64> {
    head.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k.trim().eq_ignore_ascii_case("retry-after") {
            v.trim().parse().ok()
        } else {
            None
        }
    })
}

fn request_once(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    // A server may respond-and-close before consuming the whole body
    // (e.g. a 413); keep going and read whatever response made it out.
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let mut parts = text.splitn(2, "\r\n\r\n");
    let head = parts.next().unwrap_or_default().to_string();
    let body = parts.next().unwrap_or_default().to_string();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, head, body))
}

#[cfg(test)]
mod tests {
    use super::super::protocol::{NameIndex, NamedQuery, WireAnswer};
    use super::super::{PolicyReasoner, Query, ServeConfig};
    use super::*;
    use crate::config::MmkgrConfig;
    use crate::model::MmkgrModel;
    use mmkgr_datagen::{generate, GenConfig};

    fn tiny_server() -> (mmkgr_kg::MultiModalKG, RunningServer) {
        let kg = generate(&GenConfig::tiny());
        let model = MmkgrModel::new(&kg, MmkgrConfig::quick(), None);
        let mut reg = ModelRegistry::new(NameIndex::synthetic(
            kg.num_entities(),
            kg.num_base_relations(),
        ));
        reg.register(Arc::new(PolicyReasoner::new(
            "MMKGR",
            model,
            Arc::new(kg.graph.clone()),
            ServeConfig::default().with_cache(64),
        )));
        reg.set_retriever(Arc::new(super::super::retrieve::Retriever::new(Arc::new(
            kg.graph.clone(),
        ))));
        let server = HttpServer::bind(
            ("127.0.0.1", 0),
            Arc::new(reg),
            HttpServerConfig {
                conn_threads: 2,
                pool_workers: 2,
                max_body_bytes: 8 << 10,
                ..HttpServerConfig::default()
            },
        )
        .expect("bind ephemeral port");
        (kg, server.spawn())
    }

    #[test]
    fn healthz_models_and_metrics_respond() {
        let (_, server) = tiny_server();
        let addr = server.addr();
        let (status, body) = request(addr, "GET", "/healthz", "").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""), "{body}");

        // Probes often cache-bust with query params; routing ignores them.
        let (status, _) = request(addr, "GET", "/healthz?ts=123", "").unwrap();
        assert_eq!(status, 200);

        let (status, body) = request(addr, "GET", "/v1/models", "").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"MMKGR\""), "{body}");
        assert!(body.contains("\"path\""), "{body}");

        let (status, body) = request(addr, "GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"queue_depth\""), "{body}");
        assert!(body.contains("/v1/answer"), "{body}");
        server.shutdown();
    }

    #[test]
    fn answer_over_http_matches_in_process() {
        let (kg, server) = tiny_server();
        let t = kg.split.test[0];
        let body = serde_json::to_string(&AnswerRequest {
            model: None,
            query: NamedQuery::new(format!("e{}", t.s.0), format!("r{}", t.r.0))
                .with_top_k(5)
                .with_beam(8)
                .with_steps(3),
        })
        .unwrap();
        let (status, resp) = request(server.addr(), "POST", "/v1/answer", &body).unwrap();
        assert_eq!(status, 200, "{resp}");
        let wire: WireAnswer = serde_json::from_str(&resp).unwrap();

        // In-process ground truth on an identical model.
        let model = MmkgrModel::new(&kg, MmkgrConfig::quick(), None);
        let reasoner = PolicyReasoner::new(
            "MMKGR",
            model,
            Arc::new(kg.graph.clone()),
            ServeConfig::default(),
        );
        use super::super::KgReasoner;
        let direct = reasoner.answer(
            &Query::new(t.s, t.r)
                .with_top_k(5)
                .with_beam(8)
                .with_steps(3),
        );
        assert_eq!(wire.ranked.len(), direct.ranked.len());
        for (w, d) in wire.ranked.iter().zip(&direct.ranked) {
            assert_eq!(w.entity, format!("e{}", d.entity.0));
            assert!((w.score - d.score).abs() < 1e-6);
        }
        server.shutdown();
    }

    #[test]
    fn malformed_and_unroutable_requests_get_typed_errors() {
        let (_, server) = tiny_server();
        let addr = server.addr();

        let (status, body) = request(addr, "POST", "/v1/answer", "{ not json").unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("malformed_request"), "{body}");

        let (status, body) =
            request(addr, "POST", "/v1/answer", r#"{"query": {"source": "e0"}}"#).unwrap();
        assert_eq!(status, 400, "missing relation field is malformed: {body}");

        let (status, body) = request(addr, "GET", "/v2/answer", "").unwrap();
        assert_eq!(status, 404);
        assert!(body.contains("unknown_route"), "{body}");

        let (status, body) = request(addr, "GET", "/v1/answer", "").unwrap();
        assert_eq!(status, 405);
        assert!(body.contains("method_not_allowed"), "{body}");
        assert!(body.contains("POST"), "{body}");

        let (status, body) = request(
            addr,
            "POST",
            "/v1/answer",
            r#"{"query": {"source": "e999999", "relation": "r0"}}"#,
        )
        .unwrap();
        assert_eq!(status, 404);
        assert!(body.contains("unknown_entity"), "{body}");

        let (status, body) = request(
            addr,
            "POST",
            "/v1/answer",
            r#"{"model": "GPT", "query": {"source": "e0", "relation": "r0"}}"#,
        )
        .unwrap();
        assert_eq!(status, 404);
        assert!(body.contains("unknown_model"), "{body}");
        assert!(
            body.contains("MMKGR"),
            "available list names models: {body}"
        );

        let oversized = "x".repeat(16 << 10);
        let (status, body) = request(addr, "POST", "/v1/answer", &oversized).unwrap();
        assert_eq!(status, 413);
        assert!(body.contains("payload_too_large"), "{body}");

        // Errors are counted.
        let metrics = server.metrics();
        let answer_row = metrics
            .routes
            .iter()
            .find(|r| r.route == "/v1/answer")
            .unwrap();
        assert!(answer_row.errors >= 4, "{answer_row:?}");
        server.shutdown();
    }

    #[test]
    fn batch_route_runs_on_the_pool_and_matches_single_answers() {
        let (kg, server) = tiny_server();
        let queries: Vec<NamedQuery> = kg
            .split
            .test
            .iter()
            .take(5)
            .map(|t| {
                NamedQuery::new(format!("e{}", t.s.0), format!("r{}", t.r.0))
                    .with_top_k(4)
                    .with_beam(4)
                    .with_steps(2)
            })
            .collect();
        let body = serde_json::to_string(&AnswerBatchRequest {
            model: None,
            queries: queries.clone(),
        })
        .unwrap();
        let (status, resp) = request(server.addr(), "POST", "/v1/answer_batch", &body).unwrap();
        assert_eq!(status, 200, "{resp}");
        let batch: super::super::protocol::AnswerBatchResponse =
            serde_json::from_str(&resp).unwrap();
        assert_eq!(batch.answers.len(), queries.len());
        for (q, got) in queries.iter().zip(&batch.answers) {
            let body = serde_json::to_string(&AnswerRequest {
                model: None,
                query: q.clone(),
            })
            .unwrap();
            let (_, one) = request(server.addr(), "POST", "/v1/answer", &body).unwrap();
            let one: WireAnswer = serde_json::from_str(&one).unwrap();
            assert_eq!(*got, one, "batch answer equals single answer");
        }
        server.shutdown();
    }

    #[test]
    fn retrieve_over_http_returns_subgraph_and_counts_paths() {
        let (kg, server) = tiny_server();
        let t = kg.split.test[0];
        let body = format!(
            r#"{{"seeds": ["e{}"], "relation": "r{}", "hops": 2, "max_paths": 4}}"#,
            t.s.0, t.r.0
        );
        let (status, resp) = request(server.addr(), "POST", "/v1/retrieve", &body).unwrap();
        assert_eq!(status, 200, "{resp}");
        let wire: super::super::protocol::RetrieveResponse = serde_json::from_str(&resp).unwrap();
        assert!(!wire.subgraph.entities.is_empty(), "{resp}");
        assert!(!wire.paths.is_empty(), "{resp}");

        let (status, body) =
            request(server.addr(), "POST", "/v1/retrieve", r#"{"seeds": []}"#).unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("invalid_retrieve_params"), "{body}");

        let metrics = server.metrics();
        assert!(metrics.retrieve.paths_selected >= wire.paths.len() as u64);
        assert!(metrics.retrieve.paths_considered >= metrics.retrieve.paths_selected);
        let row = metrics
            .routes
            .iter()
            .find(|r| r.route == "/v1/retrieve")
            .unwrap();
        assert_eq!(row.requests, 2, "{row:?}");
        assert_eq!(row.errors, 1, "{row:?}");
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_all_threads() {
        let (_, server) = tiny_server();
        let addr = server.addr();
        let (status, _) = request(addr, "GET", "/healthz", "").unwrap();
        assert_eq!(status, 200);
        server.shutdown();
        // The port stops answering once the server is down.
        assert!(request(addr, "GET", "/healthz", "").is_err());
    }
}
