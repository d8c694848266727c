//! Chaos harness for `shapefrag serve`: fires malformed, truncated,
//! oversized, and slow-loris requests, deadline/budget storms, and
//! mid-request reloads at a live in-process server, then checks the
//! overload contract from DESIGN.md §13:
//!
//! 1. every observed status is one of the mapped codes
//!    (200/400/429/499/503/504 — never a raw panic or an unmapped 5xx),
//! 2. the concurrency gate drains back to zero once the storm stops
//!    (no leaked permits), and
//! 3. post-chaos requests answer *correctly* against the latest
//!    snapshot (reloads swapped atomically; no torn state).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use shape_fragments::serve::client::{self, Conn};
use shape_fragments::serve::{ServeConfig, Server, SnapshotSource};

const SHAPES: &str = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
ex:PaperShape a sh:NodeShape ;
  sh:targetClass ex:Paper ;
  sh:property [ sh:path ex:author ; sh:minCount 1 ] .
"#;

/// Initial snapshot: one violating node.
const DATA_V1: &str = r#"
@prefix ex: <http://example.org/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:good rdf:type ex:Paper ; ex:author ex:ann .
ex:bad rdf:type ex:Paper .
"#;

/// Reload target: fully conforming.
const DATA_V2: &str = r#"
@prefix ex: <http://example.org/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:good rdf:type ex:Paper ; ex:author ex:ann .
ex:bad rdf:type ex:Paper ; ex:author ex:bob .
"#;

/// A config tuned for chaos: tiny cap and queue so shedding is easy to
/// provoke, short socket deadlines so abusive connections are reaped
/// quickly, and a small body cap so the oversize path is cheap to hit.
fn chaos_config() -> ServeConfig {
    ServeConfig {
        max_inflight: 2,
        queue_depth: 2,
        queue_wait: Duration::from_millis(25),
        max_head_bytes: 2 * 1024,
        max_body_bytes: 4 * 1024,
        read_timeout: Duration::from_millis(50),
        head_deadline: Duration::from_millis(400),
        body_deadline: Duration::from_millis(400),
        ..ServeConfig::default()
    }
}

fn boot(cfg: ServeConfig) -> Server {
    Server::start(
        cfg,
        SnapshotSource::Inline {
            shapes: SHAPES.to_string(),
            data: DATA_V1.to_string(),
        },
    )
    .expect("server boots")
}

/// Codes the server is allowed to emit, ever (DESIGN.md §13 table).
fn is_mapped(status: u16) -> bool {
    matches!(status, 200 | 400 | 429 | 499 | 503 | 504)
}

/// Pulls `"epoch":N` out of a JSON body without a JSON parser.
fn epoch_of(body: &str) -> Option<u64> {
    let tail = body.split("\"epoch\":").nth(1)?;
    let digits: String = tail.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

// ---------------------------------------------------------------------
// Individual abuse vectors
// ---------------------------------------------------------------------

#[test]
fn malformed_request_line_gets_400_and_close() {
    let server = boot(chaos_config());
    let mut conn = Conn::connect(server.addr, Duration::from_secs(5)).unwrap();
    conn.write_raw(b"NONSENSE\r\n\r\n").unwrap();
    let resp = conn.read_response().expect("a 400 before close");
    assert_eq!(resp.status, 400);
    // The connection is closed after a malformed request; the next read
    // must not produce another response.
    assert!(conn.read_response().is_err(), "conn must be closed");
    // The server itself is unharmed.
    let health = client::request(server.addr, "GET", "/healthz", &[], b"").unwrap();
    assert_eq!(health.status, 200);
}

#[test]
fn oversized_head_and_body_get_400() {
    let server = boot(chaos_config());

    // Head larger than max_head_bytes (2 KiB here).
    let mut conn = Conn::connect(server.addr, Duration::from_secs(5)).unwrap();
    let huge = format!(
        "GET /healthz HTTP/1.1\r\nx-pad: {}\r\n\r\n",
        "y".repeat(4 * 1024)
    );
    conn.write_raw(huge.as_bytes()).unwrap();
    let resp = conn.read_response().expect("a 400 for an oversized head");
    assert_eq!(resp.status, 400);

    // Declared body larger than max_body_bytes (4 KiB here). The server
    // must reject on the declared length without reading it all.
    let mut conn = Conn::connect(server.addr, Duration::from_secs(5)).unwrap();
    conn.write_raw(b"POST /validate HTTP/1.1\r\ncontent-length: 1000000\r\n\r\n")
        .unwrap();
    let resp = conn.read_response().expect("a 400 for an oversized body");
    assert_eq!(resp.status, 400);

    let health = client::request(server.addr, "GET", "/healthz", &[], b"").unwrap();
    assert_eq!(health.status, 200);
}

#[test]
fn truncated_request_is_dropped_silently() {
    let server = boot(chaos_config());
    // Write half a request head and hang up.
    let mut conn = Conn::connect(server.addr, Duration::from_secs(5)).unwrap();
    conn.write_raw(b"POST /validate HTTP/1.1\r\ncontent-le")
        .unwrap();
    drop(conn);
    // Write a complete head and half the promised body, then hang up.
    let mut conn = Conn::connect(server.addr, Duration::from_secs(5)).unwrap();
    conn.write_raw(b"POST /validate HTTP/1.1\r\ncontent-length: 100\r\n\r\nhalf")
        .unwrap();
    drop(conn);
    // Neither may wedge the server or leak a permit.
    let deadline = Instant::now() + Duration::from_secs(3);
    while server.state().gate.inflight() > 0 {
        assert!(Instant::now() < deadline, "gate did not drain");
        thread::sleep(Duration::from_millis(10));
    }
    let v = client::request(server.addr, "POST", "/validate", &[], b"").unwrap();
    assert_eq!(v.status, 200);
}

#[test]
fn slow_loris_connections_are_reaped() {
    let server = boot(chaos_config());
    let addr = server.addr;

    // Four connections dribbling one byte at a time, far slower than the
    // 400ms head deadline allows.
    let reaped: Vec<bool> = thread::scope(|scope| {
        (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr, Duration::from_secs(5)).unwrap();
                    for _ in 0..20 {
                        if conn.write_raw(b"G").is_err() {
                            return true; // server already hung up
                        }
                        thread::sleep(Duration::from_millis(100));
                    }
                    // If writes kept succeeding into a dead socket (possible
                    // before the OS notices), the read must fail.
                    conn.read_response().is_err()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    assert!(
        reaped.iter().all(|&r| r),
        "slow-loris connections were not reaped: {reaped:?}"
    );

    // The loris never held an execution permit, and the server answers.
    assert_eq!(server.state().gate.inflight(), 0);
    let v = client::request(addr, "POST", "/validate", &[], b"").unwrap();
    assert_eq!(v.status, 200);
}

#[test]
fn budget_and_deadline_headers_fault_cleanly_under_repetition() {
    let server = boot(chaos_config());
    for _ in 0..10 {
        let r = client::request(
            server.addr,
            "POST",
            "/validate",
            &[("x-budget-steps", "1")],
            b"",
        )
        .unwrap();
        assert_eq!(r.status, 429);
        assert_eq!(r.header("retry-after"), Some("1"));

        let r = client::request(
            server.addr,
            "POST",
            "/validate",
            &[("x-deadline-ms", "0")],
            b"",
        )
        .unwrap();
        assert_eq!(r.status, 504);
    }
    assert_eq!(server.state().gate.inflight(), 0);
}

// ---------------------------------------------------------------------
// The combined storm
// ---------------------------------------------------------------------

/// Everything at once: normal traffic, deadline storms, budget storms,
/// malformed frames, oversize bodies, truncated writes — while the main
/// thread reloads the snapshot concurrently. Asserts the three contract
/// points (mapped codes only, gate drains to zero, post-chaos answers
/// are correct against the newest snapshot).
#[test]
fn chaos_storm_holds_the_overload_contract() {
    let server = boot(chaos_config());
    let addr = server.addr;
    let stop = Arc::new(AtomicBool::new(false));
    let unmapped = Arc::new(Mutex::new(Vec::<u16>::new()));
    let completed = Arc::new(AtomicU64::new(0));

    let storm = Duration::from_millis(900);
    let workers = 8;

    thread::scope(|scope| {
        for w in 0..workers {
            let stop = Arc::clone(&stop);
            let unmapped = Arc::clone(&unmapped);
            let completed = Arc::clone(&completed);
            scope.spawn(move || {
                let mut seq = w;
                while !stop.load(Ordering::Relaxed) {
                    seq += 1;
                    let got: Option<u16> = match seq % 6 {
                        // Plain validation of the resident snapshot.
                        0 => client::request(addr, "POST", "/validate", &[], b"")
                            .ok()
                            .map(|r| r.status),
                        // Deadline storm: an already-expired engine deadline.
                        1 => client::request(
                            addr,
                            "POST",
                            "/validate",
                            &[("x-deadline-ms", "0")],
                            b"",
                        )
                        .ok()
                        .map(|r| r.status),
                        // Budget storm.
                        2 => client::request(
                            addr,
                            "POST",
                            "/validate",
                            &[("x-budget-steps", "1")],
                            b"",
                        )
                        .ok()
                        .map(|r| r.status),
                        // Malformed frame.
                        3 => Conn::connect(addr, Duration::from_secs(5))
                            .ok()
                            .and_then(|mut c| {
                                c.write_raw(b"%%%garbage%%%\r\n\r\n").ok()?;
                                c.read_response().ok()
                            })
                            .map(|r| r.status),
                        // Oversize body by declared length.
                        4 => Conn::connect(addr, Duration::from_secs(5))
                            .ok()
                            .and_then(|mut c| {
                                c.write_raw(
                                    b"POST /validate HTTP/1.1\r\ncontent-length: 999999\r\n\r\n",
                                )
                                .ok()?;
                                c.read_response().ok()
                            })
                            .map(|r| r.status),
                        // Truncated request: half a head, then hang up.
                        _ => {
                            if let Ok(mut c) = Conn::connect(addr, Duration::from_secs(5)) {
                                let _ = c.write_raw(b"POST /validate HTTP/1.1\r\nx-tr");
                            }
                            None
                        }
                    };
                    if let Some(status) = got {
                        completed.fetch_add(1, Ordering::Relaxed);
                        if !is_mapped(status) {
                            unmapped.lock().unwrap().push(status);
                        }
                    }
                }
            });
        }

        // Main thread: reload the snapshot mid-request, repeatedly, while
        // the storm runs. Alternate between the two datasets.
        let reload_deadline = Instant::now() + storm;
        let mut flips = 0u64;
        while Instant::now() < reload_deadline {
            let body = if flips.is_multiple_of(2) {
                DATA_V2
            } else {
                DATA_V1
            };
            let r = client::request(addr, "POST", "/reload", &[], body.as_bytes())
                .expect("reload answers");
            // Reloads themselves may be shed under load (they run through
            // the same gate), but may not fail any other way.
            assert!(
                r.status == 200 || r.status == 503,
                "reload returned {}",
                r.status
            );
            if r.status == 200 {
                flips += 1;
            }
            thread::sleep(Duration::from_millis(20));
        }
        assert!(flips > 0, "not a single reload landed during the storm");
        stop.store(true, Ordering::Relaxed);
    });

    // (1) Only mapped codes, and the storm actually exercised the server.
    let unmapped = unmapped.lock().unwrap();
    assert!(unmapped.is_empty(), "unmapped status codes: {unmapped:?}");
    assert!(
        completed.load(Ordering::Relaxed) > 50,
        "storm barely ran ({} responses)",
        completed.load(Ordering::Relaxed)
    );

    // (2) The gate drains to zero once the abuse stops.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.state().gate.inflight() > 0 || server.state().gate.waiting() > 0 {
        assert!(
            Instant::now() < deadline,
            "gate failed to drain: inflight={} waiting={}",
            server.state().gate.inflight(),
            server.state().gate.waiting()
        );
        thread::sleep(Duration::from_millis(10));
    }

    // (3) Post-chaos: land one final reload to a known state and check
    // the answer is correct *and* computed against that newest epoch.
    let r = client::request(addr, "POST", "/reload", &[], DATA_V2.as_bytes()).unwrap();
    assert_eq!(r.status, 200);
    let final_epoch = epoch_of(&r.text()).expect("reload reports its epoch");

    let v = client::request(addr, "POST", "/validate", &[], b"").unwrap();
    assert_eq!(v.status, 200);
    let body = v.text();
    assert_eq!(
        epoch_of(&body),
        Some(final_epoch),
        "validation ran against a stale snapshot: {body}"
    );
    assert!(
        body.contains("\"conforms\":true"),
        "wrong verdict for the final snapshot: {body}"
    );

    // Clean shutdown with nothing left in flight.
    let remaining = server.shutdown(Duration::from_secs(2));
    assert_eq!(remaining, 0, "requests still in flight after drain");
}

/// The fragment cache is keyed by the requested shape name: a repeat
/// request hits with identical bytes, a definition that duplicates
/// another's `(shape, target)` is computed on its own (and yields the same
/// bytes), `/validate` reports both definitions, the `/stats` cache
/// counters move, and an epoch move makes the next request miss.
#[test]
fn fragment_cache_is_keyed_by_requested_shape() {
    let shapes = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
ex:AuthorShape a sh:NodeShape ;
  sh:targetClass ex:Paper ;
  sh:property [ sh:path ex:author ; sh:minCount 1 ] .
ex:AuthorShapeDup a sh:NodeShape ;
  sh:targetClass ex:Paper ;
  sh:property [ sh:path ex:author ; sh:minCount 1 ] .
"#;
    let server = Server::start(
        ServeConfig::default(),
        SnapshotSource::Inline {
            shapes: shapes.to_string(),
            data: DATA_V1.to_string(),
        },
    )
    .expect("server boots");
    let addr = server.addr;

    let fragment = |name: &[u8]| {
        let resp = client::request(addr, "POST", "/fragment", &[], name).unwrap();
        assert_eq!(resp.status, 200);
        resp
    };
    let stats = || {
        client::request(addr, "GET", "/stats", &[], b"")
            .unwrap()
            .text()
    };
    let field = |stats: &str, name: &str| -> u64 {
        stats
            .split(&format!("\"{name}\":"))
            .nth(1)
            .and_then(|t| t.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok())
            .unwrap_or_else(|| panic!("missing {name} in {stats}"))
    };

    // The first request computes and caches; the same shape again is
    // served from the cache, byte for byte.
    let a = fragment(b"<http://example.org/AuthorShape>");
    assert_eq!(a.header("x-fragment-cache"), Some("miss"));
    let a2 = fragment(b"<http://example.org/AuthorShape>");
    assert_eq!(a2.header("x-fragment-cache"), Some("hit"));
    assert_eq!(a.body, a2.body, "cached fragment bytes must be identical");

    // The duplicate definition has its own key: it misses, and its
    // computed fragment equals its twin's.
    let b = fragment(b"<http://example.org/AuthorShapeDup>");
    assert_eq!(b.header("x-fragment-cache"), Some("miss"));
    assert_eq!(a.body, b.body, "duplicate definitions share fragment bytes");

    // /validate reports both definitions' violations.
    let v = client::request(addr, "POST", "/validate", &[], b"").unwrap();
    assert_eq!(v.status, 200);
    let body = v.text();
    assert!(
        body.contains("\"conforms\":false"),
        "report changed: {body}"
    );
    assert!(
        body.contains("AuthorShape>"),
        "AuthorShape must report its violations: {body}"
    );
    assert!(
        body.contains("AuthorShapeDup"),
        "duplicate def must still report its violations: {body}"
    );

    let before = stats();
    assert_eq!(field(&before, "fragment_cache_hits"), 1, "{before}");
    assert_eq!(field(&before, "fragment_cache_misses"), 2, "{before}");

    // An epoch move invalidates the cache: same request misses again.
    let r = client::request(addr, "POST", "/reload", &[], DATA_V2.as_bytes()).unwrap();
    assert_eq!(r.status, 200);
    let c = fragment(b"<http://example.org/AuthorShape>");
    assert_eq!(c.header("x-fragment-cache"), Some("miss"));
    let after = stats();
    assert_eq!(field(&after, "fragment_cache_hits"), 1, "{after}");
    assert_eq!(field(&after, "fragment_cache_misses"), 3, "{after}");

    let remaining = server.shutdown(Duration::from_secs(2));
    assert_eq!(remaining, 0);
}
