//! The daemon: a [`TcpListener`] accept loop, one thread per
//! connection, routing requests into the [`Registry`].
//!
//! ## Routes
//!
//! | Method | Path | Does |
//! |---|---|---|
//! | `POST` | `/v1/{tenant}/ingest?format=json\|xml\|csv` | stream the body through the recovery drivers, absorb into the tenant shape |
//! | `GET` | `/v1/{tenant}/shape[?env=1]` | the corpus shape in the paper's notation (`tfd infer` output) |
//! | `GET` | `/v1/{tenant}/fingerprint` | version + canonical shape fingerprint |
//! | `GET` | `/v1/{tenant}/provider/{fsharp\|rust}` | generated provider code, fingerprint-cached |
//! | `POST` | `/v1/{tenant}/check` | conformance-check uploaded records against the tenant shape |
//! | `GET` | `/v1/{tenant}/diff/{version}[?mode=backward\|forward\|full]` | classified schema diff vs a past version |
//! | `DELETE` | `/v1/{tenant}` | evict the tenant, reclaiming its arena |
//! | `GET` | `/v1/stats` | process-wide + per-tenant interner/shape figures |
//!
//! (`stats` is a reserved word: no tenant may take that name.)
//!
//! Ingest query parameters mirror the CLI driver flags: `jobs=N`
//! (`--jobs`, clamped to the host's cores), `skip_errors=1`
//! (`--skip-errors`), `max_errors=N`, `max_record_bytes=N`,
//! `max_depth=N` (at most `MAX_DEPTH_CEILING`, else 400 `bad-query`).
//!
//! Errors come back as the same machine-readable JSON the CLI's
//! `--json` mode emits: `{"error":{"code":…,"message":…}}`, with
//! [`StreamError`](tfd_core::stream::StreamError)s rendered by the shared
//! [`tfd_core::report::stream_error_json`].

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use tfd_core::analyze::CompatMode;
use tfd_core::recover::{RecoveryPolicy, MAX_DEPTH_CEILING, PARSER_STACK_BYTES};
use tfd_core::report::{error_report_json, json_escape, stream_error_json};

use crate::http::{self, read_request, HttpError, Request, Response};
use crate::registry::{parse_stream_format, IngestRequest, ProviderKind, Registry, RegistryError};

/// Tunables for a daemon instance.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Cap on one request body (the uploaded corpus), in bytes.
    pub max_body_bytes: usize,
    /// Per-connection socket read timeout (`None` = unbounded). A
    /// client that trickles its request slower than this is
    /// disconnected — the slowloris defence.
    pub read_timeout: Option<Duration>,
    /// Per-connection socket write timeout (`None` = unbounded), so a
    /// client that stops reading its response cannot pin a handler.
    pub write_timeout: Option<Duration>,
    /// Cap on concurrently serving handler threads. Connections over
    /// the cap are refused with `503 server-busy` instead of queueing
    /// without bound.
    pub max_connections: usize,
}

/// Default per-connection socket timeout: generous for real clients,
/// fatal for slowloris drips.
const DEFAULT_CONN_TIMEOUT: Duration = Duration::from_secs(30);

/// Default cap on concurrent handler threads.
const DEFAULT_MAX_CONNECTIONS: usize = 64;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_body_bytes: http::DEFAULT_MAX_BODY_BYTES,
            read_timeout: Some(DEFAULT_CONN_TIMEOUT),
            write_timeout: Some(DEFAULT_CONN_TIMEOUT),
            max_connections: DEFAULT_MAX_CONNECTIONS,
        }
    }
}

/// Live occupancy of the connection handler pool, observable through
/// `/v1/stats` (and `tfd stats --addr`) so the cap is visible from the
/// outside, not just felt.
#[derive(Debug, Default)]
pub struct ConnGauge {
    active: AtomicUsize,
    accepted: AtomicU64,
    refused: AtomicU64,
}

/// A point-in-time reading of the gauge.
#[derive(Debug, Clone, Copy)]
pub struct ConnStats {
    /// Handler threads currently serving a connection.
    pub active: usize,
    /// Connections accepted into a handler since the daemon started.
    pub accepted: u64,
    /// Connections refused with `503 server-busy` since the daemon
    /// started.
    pub refused: u64,
}

impl ConnGauge {
    /// Tries to claim a handler slot under `cap`; `None` means the pool
    /// is full and the connection must be refused. The returned guard
    /// releases the slot on drop (panic-safe: a crashing handler still
    /// frees its slot).
    fn try_acquire(self: &Arc<Self>, cap: usize) -> Option<ConnGuard> {
        let prev = self.active.fetch_add(1, Ordering::SeqCst);
        if prev >= cap.max(1) {
            self.active.fetch_sub(1, Ordering::SeqCst);
            self.refused.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.accepted.fetch_add(1, Ordering::Relaxed);
        Some(ConnGuard {
            gauge: Arc::clone(self),
        })
    }

    /// The current occupancy and lifetime accept/refuse counters.
    pub fn snapshot(&self) -> ConnStats {
        ConnStats {
            active: self.active.load(Ordering::SeqCst),
            accepted: self.accepted.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
        }
    }
}

struct ConnGuard {
    gauge: Arc<ConnGauge>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.gauge.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A bound-but-not-yet-serving daemon.
pub struct Server {
    listener: TcpListener,
    registry: Arc<Registry>,
    config: ServeConfig,
    stop: Arc<AtomicBool>,
    gauge: Arc<ConnGauge>,
}

impl Server {
    /// Binds to `addr` (e.g. `127.0.0.1:7341`; port `0` asks the OS for
    /// an ephemeral port) with an empty registry.
    ///
    /// # Errors
    ///
    /// The bind failure, verbatim.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            registry: Arc::new(Registry::new()),
            config,
            stop: Arc::new(AtomicBool::new(false)),
            gauge: Arc::new(ConnGauge::default()),
        })
    }

    /// The address actually bound (resolves port `0`).
    ///
    /// # Errors
    ///
    /// The socket introspection failure, verbatim.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared registry (for in-process inspection in tests/bench).
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// Serves until stopped: accepts connections forever, one handler
    /// thread per connection, capped at
    /// [`max_connections`](ServeConfig::max_connections) concurrent
    /// handlers (over-cap connections get an immediate `503
    /// server-busy`). Every accepted socket carries the configured
    /// read/write timeouts, so a client that stalls mid-request or
    /// mid-response is disconnected instead of pinning a handler
    /// forever. A failed accept is retried; a panic in a handler kills
    /// only its connection's thread, never the daemon — one bad request
    /// cannot take the registry down.
    pub fn run(self) {
        let Server {
            listener,
            registry,
            config,
            stop,
            gauge,
        } = self;
        for conn in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            // Timeouts go on before any byte is exchanged: the defence
            // must cover the request head, not just the body.
            let _ = stream.set_read_timeout(config.read_timeout);
            let _ = stream.set_write_timeout(config.write_timeout);
            match gauge.try_acquire(config.max_connections) {
                Some(guard) => {
                    let registry = registry.clone();
                    let gauge = gauge.clone();
                    // A `jobs=1` ingest parses on this thread: give it a
                    // parser's stack. A failed spawn drops the connection.
                    let _ =
                        thread::Builder::new()
                            .stack_size(PARSER_STACK_BYTES)
                            .spawn(move || {
                                let _guard = guard;
                                handle_connection(stream, &registry, config, &gauge);
                            });
                }
                None => {
                    // Refuse off the accept thread — the write timeout
                    // bounds this thread's lifetime even against a
                    // client that never reads.
                    thread::spawn(move || {
                        let mut stream = stream;
                        let resp =
                            error_response(503, "server-busy", "connection limit reached; retry");
                        let _ = stream.write_all(&resp.to_bytes());
                        let _ = stream.flush();
                        // Closing with the client's unsent request still
                        // in flight would RST the 503 off the wire; a
                        // bounded drain (read timeout still armed) lets
                        // the client finish and read its refusal.
                        let mut sink = [0u8; 8 * 1024];
                        let mut drained = 0usize;
                        while drained < 256 * 1024 {
                            match std::io::Read::read(&mut stream, &mut sink) {
                                Ok(0) | Err(_) => break,
                                Ok(n) => drained += n,
                            }
                        }
                    });
                }
            }
        }
    }

    /// Starts the accept loop on a background thread and returns a
    /// handle that can stop it — the shape the integration suite and
    /// the bench harness use.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = self.stop.clone();
        let registry = self.registry.clone();
        let thread = thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            stop,
            registry,
            thread: Some(thread),
        })
    }
}

/// A running daemon on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    registry: Arc<Registry>,
    thread: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's registry (for in-process assertions).
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// Stops the accept loop and joins the serving thread. In-flight
    /// connection handlers finish on their own threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop only observes the flag on its next wakeup;
        // a throwaway self-connection provides one.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(
    mut stream: TcpStream,
    registry: &Registry,
    config: ServeConfig,
    gauge: &ConnGauge,
) {
    let (response, refused_early) = match read_request(&mut stream, config.max_body_bytes) {
        Ok(request) => (route(&request, registry, gauge, &config), false),
        Err(HttpError::Io(_)) => return, // socket died; nobody to answer
        Err(e) => (error_response(e.status(), e.code(), &e.to_string()), true),
    };
    let _ = stream.write_all(&response.to_bytes());
    let _ = stream.flush();
    if refused_early {
        // The request was rejected before its body was consumed (e.g.
        // 413 on the Content-Length alone). Closing now would RST the
        // still-writing client and destroy the response in flight;
        // draining what the client sends (bounded) lets it finish and
        // read the error instead.
        let mut sink = [0u8; 64 * 1024];
        let mut drained = 0usize;
        while drained <= config.max_body_bytes.saturating_add(http::MAX_HEAD_BYTES) {
            match std::io::Read::read(&mut stream, &mut sink) {
                Ok(0) | Err(_) => break,
                Ok(n) => drained += n,
            }
        }
    }
}

/// `{"error":{"code":…,"message":…}}` — the uniform error body.
fn error_response(status: u16, code: &str, message: &str) -> Response {
    Response::json(
        status,
        format!(
            "{{\"error\":{{\"code\":\"{}\",\"message\":\"{}\"}}}}\n",
            json_escape(code),
            json_escape(message)
        ),
    )
}

fn registry_error_response(e: &RegistryError) -> Response {
    match e {
        RegistryError::NoSuchTenant(_) => error_response(404, "no-such-tenant", &e.to_string()),
        RegistryError::NoSuchVersion { .. } => {
            error_response(404, "no-such-version", &e.to_string())
        }
        RegistryError::FormatConflict { .. } => {
            error_response(409, "format-conflict", &e.to_string())
        }
        RegistryError::EmptyCorpus => error_response(422, "empty-corpus", &e.to_string()),
        // Same rendering as the CLI's structured stream errors — code,
        // message, and the nested first error for exhausted budgets.
        RegistryError::Stream(se) => {
            Response::json(400, format!("{{\"error\":{}}}\n", stream_error_json(se)))
        }
    }
}

fn route(
    request: &Request,
    registry: &Registry,
    gauge: &ConnGauge,
    config: &ServeConfig,
) -> Response {
    let segments = request.segments();
    match segments.as_slice() {
        ["v1", "stats"] => match request.method.as_str() {
            "GET" => stats(registry, gauge, config),
            _ => method_not_allowed(request),
        },
        ["v1", tenant] => match request.method.as_str() {
            "DELETE" => evict(registry, tenant),
            _ => method_not_allowed(request),
        },
        ["v1", "stats", ..] => error_response(404, "not-found", "\"stats\" is a reserved name"),
        ["v1", tenant, "ingest"] => match request.method.as_str() {
            "POST" => ingest(request, registry, tenant),
            _ => method_not_allowed(request),
        },
        ["v1", tenant, "shape"] => match request.method.as_str() {
            "GET" => shape(request, registry, tenant),
            _ => method_not_allowed(request),
        },
        ["v1", tenant, "fingerprint"] => match request.method.as_str() {
            "GET" => fingerprint(registry, tenant),
            _ => method_not_allowed(request),
        },
        ["v1", tenant, "provider", kind] => match request.method.as_str() {
            "GET" => provider(request, registry, tenant, kind),
            _ => method_not_allowed(request),
        },
        ["v1", tenant, "check"] => match request.method.as_str() {
            "POST" => check(request, registry, tenant),
            _ => method_not_allowed(request),
        },
        ["v1", tenant, "diff", version] => match request.method.as_str() {
            "GET" => diff(request, registry, tenant, version),
            _ => method_not_allowed(request),
        },
        _ => error_response(404, "not-found", &format!("no route for {}", request.path)),
    }
}

fn method_not_allowed(request: &Request) -> Response {
    error_response(
        405,
        "method-not-allowed",
        &format!("{} is not supported on {}", request.method, request.path),
    )
}

/// Builds the ingest driver parameters from the query string, erroring
/// like the CLI does on unparseable flag values.
fn ingest_params(request: &Request) -> Result<(usize, RecoveryPolicy), Response> {
    let mut policy = RecoveryPolicy::default();
    if request.query_flag("skip_errors") {
        policy.mode = tfd_core::RecoveryMode::Skip;
    }
    // One request may not start more parser threads than the host has
    // cores: the clamp is derived, not configured.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let jobs = parse_usize(request, "jobs")?.unwrap_or(1).clamp(1, cores);
    if let Some(n) = parse_usize(request, "max_errors")? {
        policy.max_errors = n;
    }
    if let Some(n) = parse_usize(request, "max_record_bytes")? {
        policy.max_record_bytes = n;
    }
    if let Some(n) = parse_usize(request, "max_depth")? {
        if n > MAX_DEPTH_CEILING {
            return Err(error_response(
                400,
                "bad-query",
                &format!("query parameter max_depth is at most {MAX_DEPTH_CEILING}, got {n}"),
            ));
        }
        policy.max_depth = Some(n);
    }
    Ok((jobs, policy))
}

fn parse_usize(request: &Request, key: &str) -> Result<Option<usize>, Response> {
    match request.query_param(key) {
        None => Ok(None),
        Some(v) => v.parse::<usize>().map(Some).map_err(|_| {
            error_response(
                400,
                "bad-query",
                &format!("query parameter {key} wants a number, got {v:?}"),
            )
        }),
    }
}

fn ingest(request: &Request, registry: &Registry, tenant: &str) -> Response {
    if tenant == "stats" {
        return error_response(404, "not-found", "\"stats\" is a reserved name");
    }
    let Some(format) = request.query_param("format").and_then(parse_stream_format) else {
        return error_response(400, "bad-query", "ingest wants ?format=json|xml|csv");
    };
    let (jobs, policy) = match ingest_params(request) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let req = IngestRequest {
        format,
        body: &request.body,
        jobs,
        policy,
    };
    match registry.ingest(tenant, &req) {
        Ok(out) => Response::json(
            200,
            format!(
                "{{\"tenant\":\"{}\",\"version\":{},\"records\":{},\"bytes\":{},\
                 \"fingerprint\":\"{}\",\"report\":{}}}\n",
                json_escape(tenant),
                out.version,
                out.records,
                out.bytes,
                out.fingerprint,
                error_report_json(&out.report),
            ),
        ),
        Err(e) => registry_error_response(&e),
    }
}

fn shape(request: &Request, registry: &Registry, tenant: &str) -> Response {
    match registry.shape(tenant, request.query_flag("env")) {
        Ok((_, text)) => Response::text(200, text),
        Err(e) => registry_error_response(&e),
    }
}

fn fingerprint(registry: &Registry, tenant: &str) -> Response {
    match registry.fingerprint(tenant) {
        Ok((version, fp)) => Response::json(
            200,
            format!("{{\"version\":{version},\"fingerprint\":\"{fp}\"}}\n"),
        ),
        Err(e) => registry_error_response(&e),
    }
}

fn provider(request: &Request, registry: &Registry, tenant: &str, kind: &str) -> Response {
    let Some(kind) = ProviderKind::parse(kind) else {
        return error_response(
            404,
            "not-found",
            &format!("no provider {kind:?}; try fsharp or rust"),
        );
    };
    // Same defaults as `tfd fsharp` / `tfd rust`.
    let module = request.query_param("module").unwrap_or("provided");
    let root = request.query_param("root").unwrap_or("Root");
    let prefix = request.query_param("prefix").unwrap_or("::types_from_data");
    match registry.provider(tenant, kind, module, root, prefix) {
        Ok(out) => Response::text(200, out.code.as_str()),
        Err(e) => registry_error_response(&e),
    }
}

fn check(request: &Request, registry: &Registry, tenant: &str) -> Response {
    let format = match request.query_param("format") {
        None => None,
        Some(f) => match parse_stream_format(f) {
            Some(f) => Some(f),
            None => {
                return error_response(
                    400,
                    "bad-query",
                    &format!("unknown format {f:?}; try json, xml or csv"),
                )
            }
        },
    };
    match registry.check(tenant, format, &request.body) {
        Ok(out) => {
            let failures = out
                .failures
                .iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(",");
            Response::json(
                200,
                format!(
                    "{{\"version\":{},\"records\":{},\"conforms\":{},\"failures\":[{}]}}\n",
                    out.version,
                    out.records,
                    out.failures.is_empty(),
                    failures
                ),
            )
        }
        Err(e) => registry_error_response(&e),
    }
}

fn diff(request: &Request, registry: &Registry, tenant: &str, version: &str) -> Response {
    let Ok(version) = version.parse::<u64>() else {
        return error_response(
            400,
            "bad-query",
            &format!("version must be a number, got {version:?}"),
        );
    };
    let mode = match request.query_param("mode") {
        None => CompatMode::Backward,
        Some(m) => match m.parse::<CompatMode>() {
            Ok(m) => m,
            Err(e) => return error_response(400, "bad-query", &e.to_string()),
        },
    };
    match registry.diff(tenant, version, mode) {
        Ok(out) => Response::json(
            200,
            format!(
                "{{\"old_version\":{},\"new_version\":{},\"report\":{}}}\n",
                out.old_version,
                out.new_version,
                out.json.trim_end()
            ),
        ),
        Err(e) => registry_error_response(&e),
    }
}

fn evict(registry: &Registry, tenant: &str) -> Response {
    if tenant == "stats" {
        return error_response(404, "not-found", "\"stats\" is a reserved name");
    }
    if registry.evict(tenant) {
        Response::json(
            200,
            format!("{{\"evicted\":\"{}\"}}\n", json_escape(tenant)),
        )
    } else {
        registry_error_response(&RegistryError::NoSuchTenant(tenant.to_owned()))
    }
}

fn stats(registry: &Registry, gauge: &ConnGauge, config: &ServeConfig) -> Response {
    let process = tfd_value::intern::stats();
    let conns = gauge.snapshot();
    let mut body = format!(
        "{{\"process\":{{\"symbols\":{},\"spelling_bytes\":{},\"retained_bytes\":{},\
         \"arenas\":{}}},\"connections\":{{\"active\":{},\"capacity\":{},\"accepted\":{},\
         \"refused\":{}}},\"tenants\":[",
        process.symbols,
        process.spelling_bytes,
        process.retained_bytes,
        process.arenas,
        conns.active,
        config.max_connections,
        conns.accepted,
        conns.refused,
    );
    for (i, t) in registry.stats().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"tenant\":\"{}\",\"format\":\"{}\",\"version\":{},\"fingerprint\":\"{}\",\
             \"records\":{},\"bytes\":{},\"intern\":{{\"symbols\":{},\"spelling_bytes\":{},\
             \"retained_bytes\":{}}}}}",
            json_escape(&t.name),
            match t.format {
                tfd_core::StreamFormat::Json => "json",
                tfd_core::StreamFormat::Xml => "xml",
                tfd_core::StreamFormat::Csv => "csv",
            },
            t.version,
            t.fingerprint,
            t.records,
            t.bytes,
            t.intern.symbols,
            t.intern.spelling_bytes,
            t.intern.retained_bytes,
        ));
    }
    body.push_str("]}\n");
    Response::json(200, body)
}
