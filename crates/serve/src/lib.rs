//! # shapefrag-serve
//!
//! `shapefrag serve` — an overload-safe, dependency-free HTTP/1.1 server
//! exposing the full shape-fragments stack as a long-lived service:
//!
//! | endpoint          | semantics |
//! |-------------------|-----------|
//! | `POST /validate`  | validate the resident snapshot (empty body; answered from the epoch's stored report once it has one) or a posted data graph against the resident schema |
//! | `POST /fragment`  | shape fragment of the resident snapshot as N-Triples (body optionally lists shape IRIs; a single shape's body is stored on the epoch) |
//! | `GET  /analyze`   | static schema diagnostics as JSON |
//! | `POST /sparql`    | SELECT query over the resident snapshot |
//! | `POST /reload`    | epoch-swap a new snapshot (re-read source, or body = new data graph) |
//! | `POST /update`    | apply a signed N-Triples edit script, fold it into a new frozen graph and epoch-swap it; answers with the incrementally-maintained report |
//! | `POST /compact`   | no-op kept on the wire: every `/update` epoch is already frozen (200, `"compacted":false`, no epoch swap) |
//! | `GET  /healthz`   | liveness + current epoch (never gated) |
//! | `GET  /stats`     | counters and gauges, including the queue-wait / service time split (never gated) |
//!
//! Robustness is the design center (DESIGN.md §13):
//!
//! - **Admission control**: a global concurrency cap with a bounded,
//!   time-limited wait queue ([`gate::Gate`]). Load beyond cap + queue is
//!   shed deterministically with 503 + `Retry-After`.
//! - **Per-request governance**: `x-deadline-ms`, `x-budget-steps`, and
//!   `x-budget-memory` headers become a [`shapefrag_govern::Budget`];
//!   engine faults map onto HTTP status codes (429/504/400/499).
//! - **Snapshot epochs**: requests work against an `Arc<Snapshot>` clone;
//!   `POST /reload` builds and freezes the next epoch off-lock and swaps a
//!   pointer, so readers never block and old epochs drain and drop.
//! - **Per-epoch results live on their snapshot**: the epoch's validation
//!   report (stored by the first plain `/validate` that completes, or
//!   seeded by `/update` from the incremental engine) and its
//!   single-shape fragment bodies. A hit checks the deadline and
//!   shutdown, then answers without charging the step or memory budget
//!   (`x-validate-cache` / `x-fragment-cache`; counted in `/stats`).
//! - **Hostile-client limits**: head/body size caps, per-read socket
//!   timeouts, and phase deadlines (slow-loris guard), plus a connection
//!   cap ahead of the request gate.
//! - **Panic isolation**: a handler panic is caught per request, answered
//!   with 500, counted, and the server keeps serving.
#![forbid(unsafe_code)]

pub mod client;
pub mod gate;
pub mod handlers;
pub mod http;
pub mod state;

use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use shapefrag_govern::CancelToken;
use shapefrag_rdf::{ntriples, turtle, FrozenGraph};
use shapefrag_shacl::parser::parse_shapes_turtle_with_spans;
use shapefrag_shacl::Schema;

use gate::{Admission, Gate};
use http::{HttpError, ReadLimits, Request, Response};
use state::{Snapshot, SnapshotCell, Stats};

/// Server tunables. The defaults are sized for tests and small
/// deployments; the CLI exposes the load-bearing ones as flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Global concurrency cap (admitted requests executing at once).
    pub max_inflight: usize,
    /// Bounded wait-queue depth beyond the cap.
    pub queue_depth: usize,
    /// Longest a queued request waits for a slot before being shed.
    pub queue_wait: Duration,
    /// Hard cap on simultaneously open connections (ahead of the gate).
    pub max_connections: usize,
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of request body.
    pub max_body_bytes: usize,
    /// Per-`read(2)` socket timeout.
    pub read_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// Wall-clock deadline for receiving a complete request head.
    pub head_deadline: Duration,
    /// Wall-clock deadline for receiving a complete request body.
    pub body_deadline: Duration,
    /// Ceiling on (and default for) the per-request engine deadline.
    pub max_request_deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 8,
            queue_depth: 16,
            queue_wait: Duration::from_millis(250),
            max_connections: 256,
            max_head_bytes: 16 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(5),
            head_deadline: Duration::from_secs(2),
            body_deadline: Duration::from_secs(5),
            max_request_deadline: Duration::from_secs(10),
        }
    }
}

impl ServeConfig {
    fn read_limits(&self) -> ReadLimits {
        ReadLimits {
            max_head_bytes: self.max_head_bytes,
            max_body_bytes: self.max_body_bytes,
            read_timeout: self.read_timeout,
            head_deadline: self.head_deadline,
            body_deadline: self.body_deadline,
        }
    }
}

/// Where snapshots come from: files re-read on `POST /reload`, or inline
/// text (tests, embedded use).
#[derive(Debug, Clone)]
pub enum SnapshotSource {
    Files { shapes: PathBuf, data: PathBuf },
    Inline { shapes: String, data: String },
}

/// Parses the source into a deny-gated schema and a frozen data graph.
pub(crate) fn load_source(source: &SnapshotSource) -> Result<(Arc<Schema>, FrozenGraph), String> {
    let (shapes_text, data_text, data_is_nt) = match source {
        SnapshotSource::Files { shapes, data } => {
            let shapes_text = std::fs::read_to_string(shapes)
                .map_err(|e| format!("cannot read {}: {e}", shapes.display()))?;
            let data_text = std::fs::read_to_string(data)
                .map_err(|e| format!("cannot read {}: {e}", data.display()))?;
            let is_nt = data
                .extension()
                .is_some_and(|x| x == "nt" || x == "ntriples");
            (shapes_text, data_text, is_nt)
        }
        SnapshotSource::Inline { shapes, data } => (shapes.clone(), data.clone(), false),
    };
    let (schema, _spans) =
        parse_shapes_turtle_with_spans(&shapes_text).map_err(|e| format!("shapes: {e}"))?;
    handlers::check_schema(&schema)?;
    let parse = if data_is_nt {
        ntriples::parse_frozen
    } else {
        turtle::parse_frozen
    };
    let graph = parse(&data_text).map_err(|e| format!("data: {e}"))?;
    Ok((Arc::new(schema), graph))
}

/// Everything the connection threads share.
pub struct ServerState {
    pub cfg: ServeConfig,
    pub source: SnapshotSource,
    pub snapshots: SnapshotCell,
    pub gate: Gate,
    pub stats: Stats,
    pub started: Instant,
    /// Set on shutdown: in-flight governed work faults with `Cancelled`
    /// (→ 499) instead of running to completion against a dying server.
    pub cancel: CancelToken,
    /// Continuous-ingest state: seeded lazily by the first `POST /update`
    /// (a full validation), maintained incrementally afterwards, and
    /// dropped on `POST /reload`. The mutex serializes writers; readers
    /// never touch it (they work off the published snapshot).
    pub updater: Mutex<Option<state::Updater>>,
    shutdown: AtomicBool,
    open_conns: AtomicUsize,
}

impl ServerState {
    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Currently open client connections.
    pub fn open_connections(&self) -> usize {
        self.open_conns.load(Ordering::Relaxed)
    }
}

/// A running server: bound address, shared state, and the accept thread.
pub struct Server {
    pub addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Boots a server: loads + freezes the first epoch (deny-gated), binds
    /// the listener, and starts the accept loop.
    pub fn start(cfg: ServeConfig, source: SnapshotSource) -> Result<Server, String> {
        let (schema, graph) = load_source(&source)?;
        let first = Snapshot::new(1, schema, Arc::new(graph));
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let state = Arc::new(ServerState {
            gate: Gate::new(cfg.max_inflight, cfg.queue_depth, cfg.queue_wait),
            cfg,
            source,
            snapshots: SnapshotCell::new(first),
            stats: Stats::default(),
            started: Instant::now(),
            cancel: CancelToken::new(),
            updater: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
        });
        let accept_state = Arc::clone(&state);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_state))
            .map_err(|e| format!("cannot spawn accept thread: {e}"))?;
        Ok(Server {
            addr,
            state,
            accept_thread: Some(accept_thread),
        })
    }

    /// Shared state (stats, gate, snapshots) for tests and the CLI.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Requests shutdown: stops accepting, cancels in-flight governed
    /// work (→ 499), and waits up to `drain` for admitted requests to
    /// finish. Returns the number of requests still in flight after the
    /// drain window (0 on a clean stop).
    pub fn shutdown(mut self, drain: Duration) -> usize {
        self.stop_accepting();
        let deadline = Instant::now() + drain;
        while self.state.gate.inflight() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.state.gate.inflight()
    }

    /// Sets the shutdown flag, cancels in-flight governed work, and joins
    /// the accept thread. That thread blocks in `accept`, so one connection
    /// to the server's own address wakes it to see the flag (an unspecified
    /// bind address is reached over loopback). If even that connection
    /// fails, the thread is left to exit at its next accept rather than
    /// joined, so shutdown cannot hang.
    fn stop_accepting(&mut self) {
        self.state.shutdown.store(true, Ordering::Relaxed);
        self.state.cancel.cancel();
        if let Some(h) = self.accept_thread.take() {
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    loop {
        let accepted = listener.accept();
        // `Server::stop_accepting` stores the flag before it connects to
        // wake this `accept`, so the wake connection finds it set.
        if state.is_shutting_down() {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                state.stats.connections.fetch_add(1, Ordering::Relaxed);
                if state.open_conns.fetch_add(1, Ordering::Relaxed) >= state.cfg.max_connections {
                    // Over the connection cap: one quick 503 and close.
                    state.open_conns.fetch_sub(1, Ordering::Relaxed);
                    state.stats.conn_refused.fetch_add(1, Ordering::Relaxed);
                    refuse_connection(stream, &state);
                    continue;
                }
                let conn_state = Arc::clone(&state);
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || {
                        connection_loop(stream, &conn_state);
                        conn_state.open_conns.fetch_sub(1, Ordering::Relaxed);
                    });
                if spawned.is_err() {
                    // Thread exhaustion: undo the count; the client sees a
                    // closed connection, which is the honest signal here.
                    state.open_conns.fetch_sub(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                // Transient accept error (EMFILE, reset): back off briefly.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn refuse_connection(mut stream: TcpStream, state: &ServerState) {
    let _ = stream.set_write_timeout(Some(state.cfg.write_timeout));
    let resp = handlers::error_response(503, "connection-cap", "too many open connections")
        .with_header("retry-after", "1")
        .closing();
    state.stats.record_status(resp.status);
    let _ = http::write_response(&mut stream, &resp, false);
}

/// Serves requests on one connection until close/error/shutdown.
fn connection_loop(mut stream: TcpStream, state: &ServerState) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(state.cfg.write_timeout));
    let limits = state.cfg.read_limits();
    let mut carry = Vec::new();
    loop {
        match http::read_request(&mut stream, &mut carry, &limits) {
            Ok(req) => {
                state.stats.received.fetch_add(1, Ordering::Relaxed);
                let keep = req.keep_alive() && !state.is_shutting_down();
                let resp = process_request(state, &req);
                state.stats.record_status(resp.status);
                let close = resp.close || !keep;
                if http::write_response(&mut stream, &resp, !close).is_err() {
                    return;
                }
                if close {
                    return;
                }
            }
            Err(HttpError::Closed) => return,
            Err(HttpError::Malformed(msg)) => {
                let resp = handlers::error_response(400, "malformed-request", &msg).closing();
                state.stats.record_status(resp.status);
                let _ = http::write_response(&mut stream, &resp, false);
                return;
            }
            Err(HttpError::TooLarge(msg)) => {
                let resp = handlers::error_response(400, "too-large", &msg).closing();
                state.stats.record_status(resp.status);
                let _ = http::write_response(&mut stream, &resp, false);
                return;
            }
            // A stalled client gets no response (it is not reading
            // anyway); the socket simply closes, freeing the thread.
            Err(HttpError::SlowClient) => return,
            Err(HttpError::Io(_)) => return,
        }
    }
}

/// Observability endpoints bypass the gate; everything else is admitted,
/// panic-isolated, and dispatched.
fn process_request(state: &ServerState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => return handlers::handle_healthz(state),
        ("GET", "/stats") => return handlers::handle_stats(state),
        _ => {}
    }
    if state.is_shutting_down() {
        return handlers::error_response(503, "shutting-down", "server is draining")
            .with_header("retry-after", "1")
            .closing();
    }
    // Queue wait and service time are accounted separately: the gate wait
    // (including sheds) lands in `queue_wait_us`, handler execution in
    // `service_us` — so /stats distinguishes queue pressure from slow
    // handlers.
    let arrived = Instant::now();
    let admission = state.gate.admit();
    state
        .stats
        .queue_wait_us
        .fetch_add(arrived.elapsed().as_micros() as u64, Ordering::Relaxed);
    let permit = match admission {
        Admission::Admitted(p) => p,
        Admission::QueueFull => {
            state.stats.shed.fetch_add(1, Ordering::Relaxed);
            return handlers::error_response(
                503,
                "overloaded",
                "concurrency cap and wait queue are full",
            )
            .with_header("retry-after", "1");
        }
        Admission::WaitTimeout => {
            state.stats.shed.fetch_add(1, Ordering::Relaxed);
            return handlers::error_response(
                503,
                "overloaded",
                "no execution slot freed within the queue wait",
            )
            .with_header("retry-after", "1");
        }
    };
    state.stats.admitted.fetch_add(1, Ordering::Relaxed);
    let service_start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| handlers::dispatch(state, req)));
    state.stats.service_us.fetch_add(
        service_start.elapsed().as_micros() as u64,
        Ordering::Relaxed,
    );
    drop(permit);
    match result {
        Ok(resp) => resp,
        Err(_) => {
            state.stats.panics.fetch_add(1, Ordering::Relaxed);
            // The handler died mid-request; close so no half-written
            // protocol state leaks into the next request.
            handlers::error_response(500, "internal", "handler panicked; request isolated")
                .closing()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPES: &str = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
ex:PaperShape a sh:NodeShape ;
  sh:targetClass ex:Paper ;
  sh:property [ sh:path ex:author ; sh:minCount 1 ] .
"#;

    const DATA: &str = r#"
@prefix ex: <http://example.org/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:good rdf:type ex:Paper ; ex:author ex:ann .
ex:bad rdf:type ex:Paper .
"#;

    fn boot() -> Server {
        Server::start(
            ServeConfig::default(),
            SnapshotSource::Inline {
                shapes: SHAPES.to_string(),
                data: DATA.to_string(),
            },
        )
        .expect("server boots")
    }

    /// A plain `/validate`: its status, body and `x-validate-cache` header.
    fn validate(addr: SocketAddr, headers: &[(&str, &str)]) -> (u16, String, Option<String>) {
        let r = client::request(addr, "POST", "/validate", headers, b"").unwrap();
        let cache = r.header("x-validate-cache").map(str::to_string);
        (r.status, r.text(), cache)
    }

    /// The `report` object embedded in an `/update` response body.
    fn update_report(body: &str) -> &str {
        let start = body.find("\"report\":").expect("update carries a report") + 9;
        &body[start..body.len() - 1]
    }

    /// A numeric `/stats` counter.
    fn stat(addr: SocketAddr, name: &str) -> u64 {
        let s = client::request(addr, "GET", "/stats", &[], b"")
            .unwrap()
            .text();
        s.split(&format!("\"{name}\":"))
            .nth(1)
            .and_then(|t| t.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok())
            .unwrap_or_else(|| panic!("missing {name} in {s}"))
    }

    #[test]
    fn end_to_end_endpoints() {
        let server = boot();
        let addr = server.addr;

        let health = client::request(addr, "GET", "/healthz", &[], b"").unwrap();
        assert_eq!(health.status, 200);
        assert!(health.text().contains("\"epoch\":1"));

        // Validate the resident snapshot: ex:bad has no author.
        let v = client::request(addr, "POST", "/validate", &[], b"").unwrap();
        assert_eq!(v.status, 200);
        assert!(v.text().contains("\"conforms\":false"), "{}", v.text());
        assert!(v.text().contains("bad"));

        // Validate a posted (conforming) dataset against the resident schema.
        let posted = client::request(
            addr,
            "POST",
            "/validate",
            &[],
            br#"@prefix ex: <http://example.org/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:p rdf:type ex:Paper ; ex:author ex:bob ."#,
        )
        .unwrap();
        assert_eq!(posted.status, 200);
        assert!(posted.text().contains("\"conforms\":true"));

        // Fragment: evidence triples of the conforming node.
        let f = client::request(addr, "POST", "/fragment", &[], b"").unwrap();
        assert_eq!(f.status, 200);
        assert!(f.text().contains("author"), "{}", f.text());

        // Analyzer diagnostics (clean schema → empty findings array).
        let a = client::request(addr, "GET", "/analyze", &[], b"").unwrap();
        assert_eq!(a.status, 200);

        // SPARQL over the snapshot.
        let q = client::request(
            addr,
            "POST",
            "/sparql",
            &[],
            b"SELECT ?s WHERE { ?s <http://example.org/author> ?o }",
        )
        .unwrap();
        assert_eq!(q.status, 200);
        assert!(q.text().contains("good"), "{}", q.text());

        // Reload with a new data graph bumps the epoch; later requests see it.
        let r = client::request(
            addr,
            "POST",
            "/reload",
            &[],
            br#"@prefix ex: <http://example.org/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:only rdf:type ex:Paper ; ex:author ex:zed ."#,
        )
        .unwrap();
        assert_eq!(r.status, 200);
        assert!(r.text().contains("\"epoch\":2"), "{}", r.text());
        let v2 = client::request(addr, "POST", "/validate", &[], b"").unwrap();
        assert!(v2.text().contains("\"conforms\":true"), "{}", v2.text());
        assert!(v2.text().contains("\"epoch\":2"));

        // Unknown path and wrong method.
        assert_eq!(
            client::request(addr, "GET", "/nope", &[], b"")
                .unwrap()
                .status,
            404
        );
        assert_eq!(
            client::request(addr, "GET", "/validate", &[], b"")
                .unwrap()
                .status,
            405
        );

        assert_eq!(server.shutdown(Duration::from_secs(1)), 0);
    }

    #[test]
    fn update_and_compact_round_trip() {
        let server = boot();
        let addr = server.addr;

        // Seed state: ex:bad violates (no author). Fix it incrementally
        // and add a fresh violating paper in one batch.
        let script = b"+ <http://example.org/bad> <http://example.org/author> <http://example.org/bea> .\n\
                       + <http://example.org/new> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Paper> .\n";
        let u = client::request(addr, "POST", "/update", &[], script).unwrap();
        assert_eq!(u.status, 200, "{}", u.text());
        assert!(u.text().contains("\"epoch\":2"), "{}", u.text());
        assert!(u.text().contains("\"triples\":5"), "{}", u.text());
        assert!(u.text().contains("\"conforms\":false"), "{}", u.text());
        assert!(u.text().contains("new"), "{}", u.text());
        assert!(!u.text().contains("bad\"}"), "{}", u.text());

        // Readers see the edited graph at the new epoch. /update stored its
        // report on the epoch, so /validate answers from it, byte for byte.
        let (status, v, cache) = validate(addr, &[]);
        assert_eq!(status, 200);
        assert_eq!(cache.as_deref(), Some("hit"));
        assert_eq!(v, update_report(&u.text()));
        assert!(v.contains("\"epoch\":2"), "{v}");
        assert!(v.contains("\"conforms\":false"));
        assert!(v.contains("new"));
        // The stored report agrees with a from-scratch validation of the
        // edited graph, posted as a body.
        let merged = format!("{DATA}ex:bad ex:author ex:bea .\nex:new rdf:type ex:Paper .\n");
        let scratch = client::request(addr, "POST", "/validate", &[], merged.as_bytes()).unwrap();
        assert_eq!(scratch.status, 200, "{}", scratch.text());
        assert_eq!(scratch.text(), v);

        // A single-shape /fragment on the /update epoch is the fragment of
        // the replayed graph, byte for byte.
        let shape = "http://example.org/PaperShape";
        let f = client::request(addr, "POST", "/fragment", &[], shape.as_bytes()).unwrap();
        assert_eq!(f.status, 200, "{}", f.text());
        let (schema, _) = parse_shapes_turtle_with_spans(SHAPES).unwrap();
        let def = schema.get(&shapefrag_rdf::Term::iri(shape)).unwrap();
        let replayed = turtle::parse(&merged).unwrap();
        let ids = shapefrag_core::fragment_ids(
            &schema,
            &replayed,
            &[def.shape.clone().and(def.target.clone())],
        );
        assert_eq!(f.text(), ntriples::serialize_ids(&replayed, ids));

        // /stats surfaces the graph size and the timing split.
        let s = client::request(addr, "GET", "/stats", &[], b"").unwrap();
        assert!(s.text().contains("\"triples\":5"), "{}", s.text());
        assert!(s.text().contains("\"updates\":1"), "{}", s.text());
        assert!(s.text().contains("\"queue_wait_us\":"), "{}", s.text());
        assert!(s.text().contains("\"service_us\":"), "{}", s.text());

        // Retracting the violation repairs the report incrementally.
        let fix =
            b"- <http://example.org/new> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Paper> .\n";
        let u2 = client::request(addr, "POST", "/update", &[], fix).unwrap();
        assert_eq!(u2.status, 200);
        assert!(u2.text().contains("\"conforms\":true"), "{}", u2.text());
        let (_, v, cache) = validate(addr, &[]);
        assert_eq!(cache.as_deref(), Some("hit"));
        assert_eq!(v, update_report(&u2.text()));

        // Every /update epoch is already frozen, so /compact is a no-op:
        // it answers with the current epoch, swaps none, and leaves the
        // stored report in place.
        let c = client::request(addr, "POST", "/compact", &[], b"").unwrap();
        assert_eq!(c.status, 200);
        assert_eq!(c.text(), r#"{"epoch":3,"triples":4,"compacted":false}"#);
        let (_, v2, cache) = validate(addr, &[]);
        assert_eq!(cache.as_deref(), Some("hit"));
        assert_eq!(v2, v);

        // A budget-starved update faults with 429 + Retry-After and rolls
        // back: the epoch does not move and the report is unchanged.
        let before = client::request(addr, "GET", "/healthz", &[], b"").unwrap();
        let r = client::request(
            addr,
            "POST",
            "/update",
            &[("x-budget-steps", "0")],
            b"+ <http://example.org/x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Paper> .\n",
        )
        .unwrap();
        assert_eq!(r.status, 429, "{}", r.text());
        assert!(r.header("retry-after").is_some());
        let after = client::request(addr, "GET", "/healthz", &[], b"").unwrap();
        assert_eq!(before.text(), after.text());

        // A malformed edit script is a 400.
        let bad = client::request(addr, "POST", "/update", &[], b"+ not ntriples\n").unwrap();
        assert_eq!(bad.status, 400, "{}", bad.text());

        // Reload drops the incremental state; the next update reseeds.
        let r = client::request(
            addr,
            "POST",
            "/reload",
            &[],
            br#"@prefix ex: <http://example.org/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:solo rdf:type ex:Paper ."#,
        )
        .unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        // The reloaded epoch starts without a report.
        let (_, v3, cache) = validate(addr, &[]);
        assert_eq!(cache.as_deref(), Some("miss"));
        assert!(v3.contains("\"conforms\":false"), "{v3}");
        let u3 = client::request(
            addr,
            "POST",
            "/update",
            &[],
            b"+ <http://example.org/solo> <http://example.org/author> <http://example.org/ann> .\n",
        )
        .unwrap();
        assert_eq!(u3.status, 200, "{}", u3.text());
        assert!(u3.text().contains("\"conforms\":true"), "{}", u3.text());
        let (_, v4, cache) = validate(addr, &[]);
        assert_eq!(cache.as_deref(), Some("hit"));
        assert_eq!(v4, update_report(&u3.text()));

        assert_eq!(server.shutdown(Duration::from_secs(1)), 0);
    }

    #[test]
    fn governance_headers_map_to_status_codes() {
        let server = boot();
        let addr = server.addr;

        // A one-step budget cannot validate anything → 429 + Retry-After.
        let r =
            client::request(addr, "POST", "/validate", &[("x-budget-steps", "1")], b"").unwrap();
        assert_eq!(r.status, 429, "{}", r.text());
        assert!(r.header("retry-after").is_some());

        // An immediate deadline → 504.
        let r = client::request(addr, "POST", "/validate", &[("x-deadline-ms", "0")], b"").unwrap();
        assert_eq!(r.status, 504, "{}", r.text());

        // A garbage governance header → 400.
        let r =
            client::request(addr, "POST", "/validate", &[("x-deadline-ms", "soon")], b"").unwrap();
        assert_eq!(r.status, 400);

        // Malformed posted data → 400 with the parse position.
        let r = client::request(addr, "POST", "/validate", &[], b"@prefix broken").unwrap();
        assert_eq!(r.status, 400);

        // A posted body neither reads nor fills the epoch's report.
        let posted_data = br#"@prefix ex: <http://example.org/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:p rdf:type ex:Paper ."#;
        let posted = client::request(addr, "POST", "/validate", &[], posted_data).unwrap();
        assert_eq!(posted.status, 200, "{}", posted.text());
        assert_eq!(posted.header("x-validate-cache"), None);

        // The faulted runs and the posted body left the snapshot cold: the
        // next plain request validates and stores the report; the one
        // after answers from it with the same bytes.
        let (status, cold, cache) = validate(addr, &[]);
        assert_eq!((status, cache.as_deref()), (200, Some("miss")), "{cold}");
        let (status, warm, cache) = validate(addr, &[]);
        assert_eq!((status, cache.as_deref()), (200, Some("hit")));
        assert_eq!(warm, cold);

        // On the warm snapshot an expired deadline is still 504, and a hit
        // charges no step budget.
        let (status, _, _) = validate(addr, &[("x-deadline-ms", "0")]);
        assert_eq!(status, 504);
        let (status, starved, cache) = validate(addr, &[("x-budget-steps", "1")]);
        assert_eq!((status, cache.as_deref()), (200, Some("hit")), "{starved}");
        assert_eq!(starved, cold);

        // A posted body on the warm snapshot is validated on its own.
        let again = client::request(addr, "POST", "/validate", &[], posted_data).unwrap();
        assert_eq!(again.body, posted.body);
        assert_eq!(again.header("x-validate-cache"), None);

        // The 429 and the cold 504 were misses that stored nothing.
        assert_eq!(stat(addr, "validate_cache_misses"), 3);
        assert_eq!(stat(addr, "validate_cache_hits"), 2);

        // A stored fragment follows the same rule: an expired deadline is
        // 504 on a hit too.
        let shape = b"<http://example.org/PaperShape>";
        let fragment = |headers: &[(&str, &str)]| {
            client::request(addr, "POST", "/fragment", headers, shape).unwrap()
        };
        assert_eq!(fragment(&[]).header("x-fragment-cache"), Some("miss"));
        assert_eq!(fragment(&[]).header("x-fragment-cache"), Some("hit"));
        assert_eq!(fragment(&[("x-deadline-ms", "0")]).status, 504);

        // Shutdown cancels in-flight work, hits included: dispatched after
        // the token fires, both answer 499 instead of the stored bytes.
        server.state().cancel.cancel();
        for (path, body) in [("/validate", &b""[..]), ("/fragment", &shape[..])] {
            let req = Request {
                method: "POST".to_string(),
                path: path.to_string(),
                query: None,
                headers: Vec::new(),
                body: body.to_vec(),
            };
            assert_eq!(
                handlers::dispatch(server.state(), &req).status,
                499,
                "{path}"
            );
        }

        assert_eq!(server.shutdown(Duration::from_secs(1)), 0);
    }

    #[test]
    fn idle_shutdown_wakes_the_blocked_accept_thread() {
        // The unspecified address is woken over loopback.
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let server = Server::start(
                ServeConfig {
                    addr: bind.to_string(),
                    ..ServeConfig::default()
                },
                SnapshotSource::Inline {
                    shapes: SHAPES.to_string(),
                    data: DATA.to_string(),
                },
            )
            .expect("server boots");
            let port = server.addr.port();
            let started = Instant::now();
            assert_eq!(server.shutdown(Duration::from_secs(1)), 0);
            assert!(
                started.elapsed() < Duration::from_secs(1),
                "idle shutdown on {bind} took {:?}",
                started.elapsed()
            );
            // The joined accept thread dropped its listener.
            assert!(TcpStream::connect((Ipv4Addr::LOCALHOST, port)).is_err());
        }
    }

    #[test]
    fn boot_rejects_deny_level_schema() {
        // minCount 2 with maxCount 1 is a cardinality contradiction
        // (SF-E002, deny severity).
        let denied = Server::start(
            ServeConfig::default(),
            SnapshotSource::Inline {
                shapes: r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
ex:S a sh:NodeShape ;
  sh:targetClass ex:T ;
  sh:property [ sh:path ex:p ; sh:minCount 2 ; sh:maxCount 1 ] .
"#
                .to_string(),
                data: DATA.to_string(),
            },
        );
        match denied {
            Err(msg) => assert!(msg.contains("static analysis"), "{msg}"),
            Ok(_) => panic!("deny-level schema must not boot"),
        }
    }
}
