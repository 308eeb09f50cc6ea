//! A std-only threaded HTTP/1.1 front end for the model registry, and the
//! minimal client the load generator and tests drive it with.
//!
//! No network dependencies: `std::net` sockets, the workspace serde shim
//! for JSON. The server runs `workers` connection threads (shared
//! non-blocking listener, keep-alive connections) and fans batched queries
//! out over a dedicated rayon pool of `pool_threads` workers — so request
//! concurrency and data parallelism are tuned independently.
//!
//! Routing is multi-model: every query route exists per-model under
//! `/models/{id}/...`, and the legacy single-model routes serve the
//! registry's *default* model. Admin routes hot-load/unload artifacts.
//!
//! | route | body | answer |
//! |---|---|---|
//! | `GET /healthz` | — | liveness |
//! | `GET /metrics` | — | Prometheus text metrics |
//! | `GET /models` | — | loaded model ids + default |
//! | `GET /models/{id}` (alias `/model`) | — | model metadata |
//! | `POST /models/{id}/cut` (alias `/cut`) | `{"eps": f}` or `{"k": n}` | single-linkage labeling |
//! | `POST /models/{id}/eom` (alias `/eom`) | `{"cluster_selection_epsilon": f?}` | EOM labeling |
//! | `POST /models/{id}/assign` (alias `/assign`) | `{"points": [[..]..], "labeling"?, "max_dist"?}` | out-of-sample labels |
//! | `POST /models/{id}/assign_binary` (alias `/assign_binary`) | [`proto`](crate::proto) request frame | response frame |
//! | `POST /models/{id}/insert` | `{"points"?: [[..]..], "deletes"?: [n..]}` | mutate a dynamic model |
//! | `POST /admin/load` | `{"id": s, "path": s, "default"?: bool, "dynamic"?: bool}` | load an artifact |
//! | `POST /admin/unload` | `{"id": s}` | drop a model |
//! | `POST /admin/compact` | `{"id": s, "save_path"?: s}` | rebuild + rebase a dynamic model |
//!
//! `/admin/load` with `"dynamic": true` wraps a `.pcsm` artifact as a
//! mutable model; `.pcdy` dynamic wrappers load as dynamic either way.
//! It takes no knobs: the removed ones (`REMOVED_LOAD_KNOBS`: the old
//! merge-vs-rebuild policy and streaming pair cap) answer 400.
//! Each `insert` batch applies the incremental pipeline and publishes a
//! new immutable model version — concurrent queries keep reading the
//! version they resolved.
//!
//! JSON labels are integers with noise as `-1`; pass `"include_labels":
//! false` to `/cut` / `/eom` for counts only. `/assign_binary` answers
//! `application/octet-stream` on success and a JSON error otherwise.
//!
//! Every request is observed by the server's [`Metrics`] registry —
//! `GET /metrics` renders per-model/per-route request counters, an
//! in-flight gauge, a malformed-request counter, and per-route latency
//! histograms in the Prometheus text format.

use crate::engine::LabelingSpec;
use crate::metrics::{route_index, Metrics, NO_MODEL};
use crate::proto::{AssignRequest, AssignResponse};
use crate::registry::{ModelHandle, ModelRegistry};
use parclust::NOISE;
use serde_json::Value;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reject request bodies above this size (64 MiB) — bounds memory per
/// connection regardless of what a client claims in Content-Length.
const MAX_BODY: usize = 64 << 20;

#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8077` (port 0 picks an ephemeral one).
    pub addr: String,
    /// Connection worker threads.
    pub workers: usize,
    /// Rayon pool width for batched query fan-out.
    pub pool_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            pool_threads: 0, // 0 = rayon default (hardware parallelism)
        }
    }
}

/// A running server; dropping it does NOT stop the workers — call
/// [`Server::shutdown`] (tests) or let the process own it (the binary).
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<()>>,
    metrics: Arc<Metrics>,
}

impl Server {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry (also scraped at `GET /metrics`).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Signal the workers and join them. In-flight requests finish; idle
    /// keep-alive connections are abandoned to their read timeouts.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::Release);
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Start serving `registry` per `cfg`; returns once the listener is bound.
/// Models can be added/removed afterwards (admin routes or direct registry
/// calls) without restarting.
pub fn start(registry: Arc<ModelRegistry>, cfg: &ServerConfig) -> io::Result<Server> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut builder = rayon::ThreadPoolBuilder::new();
    if cfg.pool_threads > 0 {
        builder = builder.num_threads(cfg.pool_threads);
    }
    let pool = Arc::new(builder.build().map_err(io::Error::other)?);
    let metrics = Arc::new(Metrics::new());
    let workers = (0..cfg.workers.max(1))
        .map(|i| {
            let listener = listener.try_clone()?;
            let registry = Arc::clone(&registry);
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name(format!("parclust-serve-{i}"))
                .spawn(move || worker_loop(listener, registry, pool, stop, metrics))
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(Server {
        addr,
        stop,
        workers,
        metrics,
    })
}

fn worker_loop(
    listener: TcpListener,
    registry: Arc<ModelRegistry>,
    pool: Arc<rayon::ThreadPool>,
    stop: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Per-connection errors (resets, malformed framing) only
                // tear down that connection.
                let _ = handle_connection(stream, &registry, &pool, &stop, &metrics);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

struct Request {
    method: String,
    path: String,
    keep_alive: bool,
    body: Vec<u8>,
}

/// A response body: JSON (queries, errors), a binary protocol frame, or
/// plain text (the `/metrics` exposition).
enum Body {
    Json(Value),
    Bytes(Vec<u8>),
    Text(String),
}

impl From<Value> for Body {
    fn from(v: Value) -> Body {
        Body::Json(v)
    }
}

fn handle_connection(
    stream: TcpStream,
    registry: &ModelRegistry,
    pool: &rayon::ThreadPool,
    stop: &AtomicBool,
    metrics: &Metrics,
) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    while !stop.load(Ordering::Acquire) {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => break, // clean EOF between requests
            Err(e) => {
                // Framing error: count it, answer 400 if the peer listens.
                metrics.framing_error();
                let _ = write_response(
                    &mut writer,
                    400,
                    // analyze:allow(hotpath-alloc-in-loop) — cold path: building the 400 body ends the connection
                    &Body::Json(serde_json::json!({"error": format!("{e}")})),
                    false,
                );
                // Closing while the client is still sending (a body we
                // never read, an oversized line) leaves unread data in the
                // socket buffer, which makes the kernel answer with RST —
                // destroying the queued 400 before the peer can read it.
                // Drain a bounded tail first so the error actually arrives.
                drain_request_tail(&mut reader);
                break;
            }
        };
        let keep = req.keep_alive;
        let (route_idx, model_label) = classify(registry, &req);
        metrics.begin();
        let t0 = Instant::now();
        let (status, body) = route(registry, pool, metrics, &req);
        metrics.finish(
            &model_label,
            route_idx,
            status,
            t0.elapsed().as_nanos() as u64,
        );
        write_response(&mut writer, status, &body, keep)?;
        if !keep {
            break;
        }
    }
    Ok(())
}

/// Map a request to its `(route, model)` metric labels. Route labels come
/// from the fixed [`crate::metrics::ROUTES`] set; the model label is the
/// resolved id (the registry default for legacy routes), with unknown ids
/// folded into [`NO_MODEL`] so path scanning cannot grow the metric
/// cardinality.
fn classify(registry: &ModelRegistry, req: &Request) -> (usize, String) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let snapshot = registry.snapshot();
    let known = |id: &str| -> String {
        if snapshot.get(id).is_some() {
            id.to_string()
        } else {
            NO_MODEL.to_string()
        }
    };
    let default_id = || -> String {
        snapshot
            .default_handle()
            .map(|(id, _)| id.to_string())
            .unwrap_or_else(|| NO_MODEL.to_string())
    };
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => (route_index("healthz"), NO_MODEL.to_string()),
        ("GET", ["metrics"]) => (route_index("metrics"), NO_MODEL.to_string()),
        ("GET", ["models"]) => (route_index("models"), NO_MODEL.to_string()),
        ("POST", ["admin", ..]) => (route_index("admin"), NO_MODEL.to_string()),
        ("POST", ["models", id, "insert"]) => (route_index("insert"), known(id)),
        ("GET", ["model"]) => (route_index("info"), default_id()),
        ("GET", ["models", id]) => (route_index("info"), known(id)),
        ("POST", [action @ ("cut" | "eom" | "assign" | "assign_binary")]) => {
            (route_index(action), default_id())
        }
        ("POST", ["models", id, action @ ("cut" | "eom" | "assign" | "assign_binary")]) => {
            (route_index(action), known(id))
        }
        _ => (route_index("other"), NO_MODEL.to_string()),
    }
}

/// After a framing error the connection is torn down; this reads (and
/// discards) what the client is still sending — bounded in bytes and
/// time — so the close sends FIN, not RST, and the 400 written above
/// survives to the peer. Best-effort: any read error just ends the drain.
fn drain_request_tail(reader: &mut BufReader<TcpStream>) {
    const DRAIN_MAX: usize = 256 << 10;
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(200)));
    let mut budget = DRAIN_MAX;
    let mut buf = [0u8; 4096];
    while budget > 0 {
        match reader.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

/// Cap on a single request/header line and on the header count — bounds
/// per-connection memory independently of [`MAX_BODY`] (which only limits
/// declared Content-Length bodies).
const MAX_LINE: usize = 16 << 10;
const MAX_HEADERS: usize = 128;

/// `read_line` with a length cap: a line longer than `MAX_LINE` is an
/// error, not an unbounded allocation. Returns `None` on clean EOF.
fn read_line_limited<R: BufRead>(r: &mut R) -> io::Result<Option<String>> {
    let mut line = String::new();
    let n = r.take(MAX_LINE as u64).read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n == MAX_LINE && !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request line too long",
        ));
    }
    Ok(Some(line))
}

fn read_request<R: BufRead>(r: &mut R) -> io::Result<Option<Request>> {
    let Some(line) = read_line_limited(r)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing request path"))?
        .to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    // HTTP/1.1 defaults to keep-alive; 1.0 to close.
    let mut keep_alive = version.trim() != "HTTP/1.0";
    let mut content_length = 0usize;
    for seen in 0.. {
        if seen >= MAX_HEADERS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "too many headers",
            ));
        }
        let Some(h) = read_line_limited(r)? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        };
        let h = h.trim();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                })?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;
    Ok(Some(Request {
        method,
        path,
        keep_alive,
        body,
    }))
}

fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    body: &Body,
    keep_alive: bool,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    };
    let (content_type, payload): (&str, std::borrow::Cow<'_, [u8]>) = match body {
        Body::Json(v) => (
            "application/json",
            std::borrow::Cow::Owned(v.to_json_string().into_bytes()),
        ),
        Body::Bytes(b) => ("application/octet-stream", std::borrow::Cow::Borrowed(b)),
        Body::Text(t) => (
            "text/plain; version=0.0.4; charset=utf-8",
            std::borrow::Cow::Borrowed(t.as_bytes()),
        ),
    };
    write!(
        w,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        payload.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    w.write_all(&payload)?;
    w.flush()
}

// ---------------------------------------------------------------- routing

fn json_err(msg: impl Into<String>) -> Body {
    Body::Json(serde_json::json!({"error": msg.into()}))
}

fn route(
    registry: &ModelRegistry,
    pool: &rayon::ThreadPool,
    metrics: &Metrics,
    req: &Request,
) -> (u16, Body) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let snapshot = registry.snapshot();

    // Resolve `(model id, action)` for both route families; `GET /models`
    // and admin routes are handled before model resolution.
    let resolved: Option<(&str, Option<Arc<dyn ModelHandle>>, &str)> =
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => {
                return (200, Body::Json(serde_json::json!({"status": "ok"})));
            }
            ("GET", ["metrics"]) => {
                use std::fmt::Write as _;
                let mut text = metrics.render();
                // The registry gauge lives here (not in `Metrics`) because
                // only the routing layer holds the registry.
                text.push_str("# TYPE parclust_models_loaded gauge\n");
                let _ = writeln!(text, "parclust_models_loaded {}", snapshot.models.len());
                return (200, Body::Text(text));
            }
            ("GET", ["models"]) => return (200, models_index(&snapshot)),
            ("POST", ["admin", "load"]) => return admin_load(registry, &req.body),
            ("POST", ["admin", "unload"]) => return admin_unload(registry, &req.body),
            ("POST", ["admin", "compact"]) => return admin_compact(registry, &req.body),
            ("POST", ["models", id, "insert"]) => {
                return insert_handler(registry, id, &req.body);
            }
            // Legacy single-model aliases → the default model.
            ("GET", ["model"]) => match snapshot.default_handle() {
                Some((id, h)) => Some((id, Some(h), "info")),
                None => None,
            },
            ("POST", [action @ ("cut" | "eom" | "assign" | "assign_binary")]) => {
                match snapshot.default_handle() {
                    Some((id, h)) => Some((id, Some(h), *action)),
                    None => None,
                }
            }
            ("GET", ["models", id]) => Some((*id, snapshot.get(id), "info")),
            ("POST", ["models", id, action @ ("cut" | "eom" | "assign" | "assign_binary")]) => {
                Some((*id, snapshot.get(id), *action))
            }
            ("GET", _) | ("POST", _) => {
                return (404, json_err("unknown route"));
            }
            _ => return (405, json_err("method not allowed")),
        };
    let Some((id, handle, action)) = resolved else {
        return (404, json_err("no default model loaded"));
    };
    let Some(handle) = handle else {
        return (404, json_err(format!("no model {id:?} loaded")));
    };
    let handle = &*handle;

    let result = match action {
        "info" => Ok(Body::Json(handle.info())),
        "cut" => parse_body(&req.body).and_then(|v| cut_handler(handle, &v)),
        "eom" => parse_body(&req.body).and_then(|v| eom_handler(handle, &v)),
        "assign" => parse_body(&req.body).and_then(|v| assign_handler(handle, pool, &v)),
        "assign_binary" => binary_assign_handler(id, handle, pool, &req.body),
        _ => unreachable!("actions are matched above"),
    };
    match result {
        Ok(body) => (200, body),
        Err(msg) => (400, json_err(msg)),
    }
}

fn models_index(snapshot: &crate::registry::RegistrySnapshot) -> Body {
    let models: Vec<Value> = snapshot
        .models
        .iter()
        .map(|(id, h)| {
            serde_json::json!({
                "id": id.clone(),
                "n": h.num_points() as u64,
                "dims": h.dims() as u64,
            })
        })
        .collect();
    let default = match &snapshot.default_id {
        Some(id) => Value::String(id.clone()),
        None => Value::Null,
    };
    Body::Json(serde_json::json!({
        "models": Value::Array(models),
        "default": default,
    }))
}

fn admin_load(registry: &ModelRegistry, body: &[u8]) -> (u16, Body) {
    let v = match parse_body(body) {
        Ok(v) => v,
        Err(msg) => return (400, json_err(msg)),
    };
    let (Some(id), Some(path)) = (
        v.get("id").and_then(Value::as_str),
        v.get("path").and_then(Value::as_str),
    ) else {
        return (400, json_err("pass \"id\" and \"path\""));
    };
    if let Some(knob) = REMOVED_LOAD_KNOBS.iter().find(|k| v.get(k).is_some()) {
        return (
            400,
            json_err(format!(
                "{knob:?} was removed: dynamic models take no load-time knobs"
            )),
        );
    }
    let load_result = if v.get("dynamic").and_then(Value::as_bool) == Some(true) {
        load_dynamic(registry, id, std::path::Path::new(path))
    } else {
        registry.load_path(id, std::path::Path::new(path))
    };
    if let Err(e) = load_result {
        return (400, json_err(format!("load {path:?}: {e}")));
    }
    if v.get("default").and_then(Value::as_bool) == Some(true) {
        if let Err(e) = registry.set_default(id) {
            return (400, json_err(e));
        }
    }
    (
        200,
        Body::Json(
            serde_json::json!({"loaded": id, "models": registry.snapshot().models.len() as u64}),
        ),
    )
}

fn admin_unload(registry: &ModelRegistry, body: &[u8]) -> (u16, Body) {
    let v = match parse_body(body) {
        Ok(v) => v,
        Err(msg) => return (400, json_err(msg)),
    };
    let Some(id) = v.get("id").and_then(Value::as_str) else {
        return (400, json_err("pass \"id\""));
    };
    if !registry.remove(id) {
        return (404, json_err(format!("no model {id:?} loaded")));
    }
    (
        200,
        Body::Json(
            serde_json::json!({"unloaded": id, "models": registry.snapshot().models.len() as u64}),
        ),
    )
}

/// Parse `[[f64; dims], ...]` into row-major flat coordinates (shared by
/// `/assign` and `/models/{id}/insert`).
fn parse_flat_points(raw: &[Value], dims: usize) -> Result<Vec<f64>, String> {
    let mut flat = Vec::with_capacity(raw.len() * dims);
    for (i, p) in raw.iter().enumerate() {
        let coords = p
            .as_array()
            // analyze:allow(hotpath-alloc-in-loop) — cold path: the message only materializes on a 400
            .ok_or_else(|| format!("points[{i}] must be an array"))?;
        if coords.len() != dims {
            // analyze:allow(hotpath-alloc-in-loop) — cold path: the message only materializes on a 400
            return Err(format!(
                "points[{i}] has {} coordinates, model is {dims}-dimensional",
                coords.len()
            ));
        }
        for c in coords {
            flat.push(finite_f64(c, "coordinate")?);
        }
    }
    Ok(flat)
}

/// `/admin/load` knobs that no longer exist: the merge-vs-rebuild policy
/// and the streaming build engine's pair cap. Naming one is an error
/// rather than silently ignored.
const REMOVED_LOAD_KNOBS: [&str; 3] = ["policy", "rebuild_fraction", "max_live_pairs"];

/// `/admin/load` with `"dynamic": true`: wrap a base artifact, or — if the
/// file is already a dynamic wrapper — load it.
fn load_dynamic(registry: &ModelRegistry, id: &str, path: &std::path::Path) -> io::Result<()> {
    let mut head = [0u8; 4];
    std::fs::File::open(path)?.read_exact(&mut head)?;
    if &head == crate::dynamic::DYN_MAGIC {
        return registry.load_path(id, path);
    }
    let dh = crate::dynamic::wrap_artifact_path(path, parclust_dyn::DynConfig::default())?;
    registry
        .insert_dynamic(id, dh)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Resolve the mutation handle for `id`, distinguishing "not loaded"
/// (404) from "loaded, but read-only" (400).
fn dynamic_handle(
    registry: &ModelRegistry,
    id: &str,
) -> Result<Arc<dyn crate::dynamic::DynModelHandle>, (u16, Body)> {
    match registry.dynamic(id) {
        Some(dh) => Ok(dh),
        None if registry.snapshot().get(id).is_some() => Err((
            400,
            json_err(format!("model {id:?} was not loaded as dynamic")),
        )),
        None => Err((404, json_err(format!("no model {id:?} loaded")))),
    }
}

fn insert_handler(registry: &ModelRegistry, id: &str, body: &[u8]) -> (u16, Body) {
    let dh = match dynamic_handle(registry, id) {
        Ok(dh) => dh,
        Err(resp) => return resp,
    };
    let v = match parse_body(body) {
        Ok(v) => v,
        Err(msg) => return (400, json_err(msg)),
    };
    let flat = match v.get("points") {
        Some(raw) => {
            let Some(raw) = raw.as_array() else {
                return (
                    400,
                    json_err("points must be an array of coordinate arrays"),
                );
            };
            match parse_flat_points(raw, dh.dims()) {
                Ok(flat) => flat,
                Err(msg) => return (400, json_err(msg)),
            }
        }
        None => Vec::new(),
    };
    let mut deletes = Vec::new();
    if let Some(raw) = v.get("deletes") {
        let Some(raw) = raw.as_array() else {
            return (400, json_err("deletes must be an array of live indices"));
        };
        for (i, d) in raw.iter().enumerate() {
            match d.as_u64() {
                Some(x) => deletes.push(x as usize),
                None => {
                    return (
                        400,
                        // analyze:allow(hotpath-alloc-in-loop) — cold path: the message only materializes on a 400
                        json_err(format!("deletes[{i}] must be a non-negative integer")),
                    );
                }
            }
        }
    }
    match dh.mutate(registry, id, &flat, &deletes) {
        Ok(report) => (200, Body::Json(report)),
        Err(msg) => (400, json_err(msg)),
    }
}

fn admin_compact(registry: &ModelRegistry, body: &[u8]) -> (u16, Body) {
    let v = match parse_body(body) {
        Ok(v) => v,
        Err(msg) => return (400, json_err(msg)),
    };
    let Some(id) = v.get("id").and_then(Value::as_str) else {
        return (400, json_err("pass \"id\""));
    };
    let dh = match dynamic_handle(registry, id) {
        Ok(dh) => dh,
        Err(resp) => return resp,
    };
    let save_path = v
        .get("save_path")
        .and_then(Value::as_str)
        .map(std::path::PathBuf::from);
    match dh.compact(registry, id, save_path.as_deref()) {
        Ok(report) => (200, Body::Json(report)),
        Err(msg) => (400, json_err(msg)),
    }
}

fn parse_body(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if text.trim().is_empty() {
        return Ok(Value::Object(Vec::new()));
    }
    serde_json::from_str(text).map_err(|e| format!("{e}"))
}

fn finite_f64(v: &Value, what: &str) -> Result<f64, String> {
    let x = v
        .as_f64()
        .ok_or_else(|| format!("{what} must be a number"))?;
    if x.is_nan() {
        return Err(format!("{what} must not be NaN"));
    }
    Ok(x)
}

/// Signed view of a labeling for JSON: noise renders as -1.
fn labels_json(labels: &[u32]) -> Value {
    Value::Array(
        labels
            .iter()
            .map(|&l| {
                if l == NOISE {
                    Value::Int(-1)
                } else {
                    Value::UInt(l as u64)
                }
            })
            .collect(),
    )
}

fn labeling_response(labeling: &crate::engine::Labeling, include_labels: bool) -> Body {
    let mut fields = vec![
        (
            "num_clusters".to_string(),
            Value::UInt(labeling.num_clusters as u64),
        ),
        ("noise".to_string(), Value::UInt(labeling.num_noise as u64)),
    ];
    if include_labels {
        fields.push(("labels".to_string(), labels_json(&labeling.labels)));
    }
    Body::Json(Value::Object(fields))
}

fn include_labels(v: &Value) -> bool {
    v.get("include_labels")
        .and_then(Value::as_bool)
        .unwrap_or(true)
}

fn cut_handler(handle: &dyn ModelHandle, v: &Value) -> Result<Body, String> {
    let spec = match (v.get("eps"), v.get("k")) {
        (Some(eps), None) => LabelingSpec::Cut {
            eps: finite_f64(eps, "eps")?,
        },
        (None, Some(k)) => LabelingSpec::CutK {
            k: k.as_u64().ok_or("k must be a non-negative integer")? as usize,
        },
        _ => return Err("pass exactly one of \"eps\" or \"k\"".to_string()),
    };
    Ok(labeling_response(&handle.labeling(spec), include_labels(v)))
}

fn eom_handler(handle: &dyn ModelHandle, v: &Value) -> Result<Body, String> {
    let eps = match v.get("cluster_selection_epsilon") {
        Some(e) => {
            let e = finite_f64(e, "cluster_selection_epsilon")?;
            if e < 0.0 {
                return Err("cluster_selection_epsilon must be non-negative".to_string());
            }
            e
        }
        None => 0.0,
    };
    let spec = LabelingSpec::Eom {
        cluster_selection_epsilon: eps,
    };
    Ok(labeling_response(&handle.labeling(spec), include_labels(v)))
}

/// Parse the labeling selector shared by `/assign`: `{"eps": f}`,
/// `{"k": n}`, or `{"cluster_selection_epsilon": f}`; default plain EOM.
fn labeling_spec(v: &Value) -> Result<LabelingSpec, String> {
    let Some(l) = v.get("labeling") else {
        return Ok(LabelingSpec::Eom {
            cluster_selection_epsilon: 0.0,
        });
    };
    if let Some(eps) = l.get("eps") {
        return Ok(LabelingSpec::Cut {
            eps: finite_f64(eps, "labeling.eps")?,
        });
    }
    if let Some(k) = l.get("k") {
        return Ok(LabelingSpec::CutK {
            k: k.as_u64()
                .ok_or("labeling.k must be a non-negative integer")? as usize,
        });
    }
    if let Some(e) = l.get("cluster_selection_epsilon") {
        let e = finite_f64(e, "labeling.cluster_selection_epsilon")?;
        if e < 0.0 {
            return Err("labeling.cluster_selection_epsilon must be non-negative".to_string());
        }
        return Ok(LabelingSpec::Eom {
            cluster_selection_epsilon: e,
        });
    }
    Err("labeling must set one of eps / k / cluster_selection_epsilon".to_string())
}

fn assign_handler(
    handle: &dyn ModelHandle,
    pool: &rayon::ThreadPool,
    v: &Value,
) -> Result<Body, String> {
    let spec = labeling_spec(v)?;
    let max_dist = match v.get("max_dist") {
        Some(md) => {
            let md = finite_f64(md, "max_dist")?;
            if md < 0.0 {
                return Err("max_dist must be non-negative".to_string());
            }
            md
        }
        None => f64::INFINITY,
    };
    let dims = handle.dims();
    let raw = v
        .get("points")
        .and_then(Value::as_array)
        .ok_or("points must be an array of coordinate arrays")?;
    let flat = parse_flat_points(raw, dims)?;
    let assignments = handle.assign_flat(&flat, spec, max_dist, pool);
    let labels: Vec<u32> = assignments.iter().map(|a| a.label).collect();
    let neighbors: Vec<u64> = assignments.iter().map(|a| a.neighbor as u64).collect();
    let distances: Vec<f64> = assignments.iter().map(|a| a.distance).collect();
    Ok(Body::Json(serde_json::json!({
        "labels": labels_json(&labels),
        "neighbors": neighbors,
        "distances": distances,
    })))
}

/// The binary leg: decode a [`proto`](crate::proto) request frame, check it
/// against the routed model (id and dimensionality), assign, answer with an
/// encoded response frame.
fn binary_assign_handler(
    id: &str,
    handle: &dyn ModelHandle,
    pool: &rayon::ThreadPool,
    body: &[u8],
) -> Result<Body, String> {
    let req = AssignRequest::decode(body).map_err(|e| format!("{e}"))?;
    if req.model_id != id {
        return Err(format!(
            "frame addresses model {:?} but was routed at {id:?}",
            req.model_id
        ));
    }
    if req.dims as usize != handle.dims() {
        return Err(format!(
            "frame holds {}-dimensional points, model is {}-dimensional",
            req.dims,
            handle.dims()
        ));
    }
    let assignments = handle.assign_flat(&req.coords, req.spec, req.max_dist, pool);
    let resp = AssignResponse {
        labels: assignments.iter().map(|a| a.label).collect(),
        neighbors: assignments.iter().map(|a| a.neighbor).collect(),
        distances: assignments.iter().map(|a| a.distance).collect(),
    };
    Ok(Body::Bytes(resp.encode()))
}

// ----------------------------------------------------------------- client

/// A keep-alive HTTP client for the server above — used by the load
/// generator, the CI smoke test, and the end-to-end tests. Speaks JSON
/// ([`Client::get`] / [`Client::post`]) and the binary protocol
/// ([`Client::post_binary`]).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    pub fn get(&mut self, path: &str) -> io::Result<(u16, Value)> {
        self.request_json("GET", path, None)
    }

    /// GET a path whose response body is plain text (e.g. `/metrics`).
    pub fn get_text(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.send_request("GET", path, "text/plain", &[])?;
        let (status, body) = self.read_response()?;
        let text = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
        Ok((status, text))
    }

    pub fn post(&mut self, path: &str, body: &Value) -> io::Result<(u16, Value)> {
        self.request_json("POST", path, Some(body))
    }

    /// POST a binary frame; returns the raw response body. On non-200 the
    /// body is the server's JSON error document.
    pub fn post_binary(&mut self, path: &str, frame: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.send_request("POST", path, "application/octet-stream", frame)?;
        self.read_response()
    }

    fn request_json(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Value>,
    ) -> io::Result<(u16, Value)> {
        let payload = body.map(|b| b.to_json_string()).unwrap_or_default();
        self.send_request(method, path, "application/json", payload.as_bytes())?;
        let (status, body) = self.read_response()?;
        let text = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
        let value = serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}")))?;
        Ok((status, value))
    }

    fn send_request(
        &mut self,
        method: &str,
        path: &str,
        content_type: &str,
        payload: &[u8],
    ) -> io::Result<()> {
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nHost: parclust\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            payload.len(),
        )?;
        self.writer.write_all(payload)?;
        self.writer.flush()
    }

    fn read_response(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed connection",
            ));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut content_length = 0usize;
        let mut h = String::new();
        loop {
            h.clear();
            if self.reader.read_line(&mut h)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-headers",
                ));
            }
            let h = h.trim();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}
