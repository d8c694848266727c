//! **Serve experiment** — closed-loop multi-client load against the
//! `shapefrag serve` HTTP server.
//!
//! Boots an in-process server over a Tyrolean tourism snapshot with a
//! deliberately small concurrency cap, then drives it with increasing
//! offered load: `C` closed-loop clients (each issues its next request the
//! moment the previous one answers) for a fixed wall-clock window per
//! level. One in eight requests carries a 1ms engine deadline — a
//! deterministic "deadline storm" component that exercises the 504 path
//! under load. Reported per level: completed requests, requests/s,
//! p50/p95/p99 latency, and the shed (503), budget (429), and timeout
//! (504) counts.
//!
//! Results are written to `BENCH_serve.json`. The load levels are chosen
//! to straddle the admission cap, so the highest level *must* shed — the
//! point of the experiment is that the server degrades by shedding
//! deterministically, not by queueing unboundedly.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shapefrag_bench::{ms, print_table, write_json_to, ExpOptions};
use shapefrag_serve::client::Conn;
use shapefrag_serve::{ServeConfig, Server, SnapshotSource};
use shapefrag_shacl::writer::schema_to_turtle;
use shapefrag_shacl::Schema;
use shapefrag_workloads::shapes57::benchmark_shapes;
use shapefrag_workloads::tyrolean::{generate, TyroleanConfig};

struct LoadRow {
    clients: usize,
    duration_ms: f64,
    requests: usize,
    ok_200: usize,
    shed_503: usize,
    budget_429: usize,
    timeout_504: usize,
    other: usize,
    requests_per_s: f64,
    /// Successfully served (200) responses per second — the real capacity
    /// number once shed responses are excluded.
    served_per_s: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

struct ServeResults {
    suite: String,
    individuals: usize,
    triples: usize,
    shapes: usize,
    max_inflight: usize,
    queue_depth: usize,
    host_cores: usize,
    rows: Vec<LoadRow>,
    /// Inflight gauge observed after the last level drained (must be 0).
    final_inflight: usize,
    /// Cumulative gate-wait microseconds from the server's `/stats`
    /// (includes requests that were ultimately shed) — the queueing side
    /// of the latency split.
    queue_wait_us: u64,
    /// Cumulative handler-execution microseconds from `/stats` — the
    /// service side of the split.
    service_us: u64,
    /// Mean gate wait per received request, in microseconds.
    queue_wait_per_request_us: f64,
    /// Mean service time per admitted request, in microseconds.
    service_per_admitted_us: f64,
    /// Single-shape `/fragment` requests answered from the server's
    /// fragment cache, from `/stats`.
    fragment_cache_hits: u64,
    /// Single-shape `/fragment` requests the cache could not answer.
    fragment_cache_misses: u64,
}

shapefrag_bench::impl_to_json!(LoadRow {
    clients,
    duration_ms,
    requests,
    ok_200,
    shed_503,
    budget_429,
    timeout_504,
    other,
    requests_per_s,
    served_per_s,
    p50_ms,
    p95_ms,
    p99_ms,
});
shapefrag_bench::impl_to_json!(ServeResults {
    suite,
    individuals,
    triples,
    shapes,
    max_inflight,
    queue_depth,
    host_cores,
    rows,
    final_inflight,
    queue_wait_us,
    service_us,
    queue_wait_per_request_us,
    service_per_admitted_us,
    fragment_cache_hits,
    fragment_cache_misses,
});

/// Pulls an integer field out of a flat JSON object body (the `/stats`
/// payload) without a JSON parser.
fn json_u64(body: &str, field: &str) -> u64 {
    let needle = format!("\"{field}\":");
    let at = body.find(&needle).unwrap_or_else(|| {
        panic!("/stats is missing {field}: {body}");
    });
    body[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("/stats field {field} is not an integer: {body}"))
}

/// Per-client tally for one load level. Latencies are recorded for served
/// (200) responses only — shed and faulted responses return in
/// microseconds by design and would make the percentiles meaningless.
#[derive(Default)]
struct ClientTally {
    requests: usize,
    latencies_ms: Vec<f64>,
    ok_200: usize,
    shed_503: usize,
    budget_429: usize,
    timeout_504: usize,
    other: usize,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One closed-loop client: fire requests back-to-back until `stop`.
fn run_client(addr: SocketAddr, stop: &AtomicBool, seq_offset: usize) -> ClientTally {
    let mut tally = ClientTally::default();
    let mut conn: Option<Conn> = None;
    let mut seq = seq_offset;
    while !stop.load(Ordering::Relaxed) {
        let c = match conn.as_mut() {
            Some(c) => c,
            None => match Conn::connect(addr, Duration::from_secs(10)) {
                Ok(c) => {
                    conn = Some(c);
                    conn.as_mut().unwrap()
                }
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
            },
        };
        // Every 8th request is a deadline-storm probe.
        let headers: &[(&str, &str)] = if seq % 8 == 7 {
            &[("x-deadline-ms", "1")]
        } else {
            &[]
        };
        seq += 1;
        let started = Instant::now();
        match c.request("POST", "/validate", headers, b"") {
            Ok(resp) => {
                tally.requests += 1;
                match resp.status {
                    200 => {
                        tally.ok_200 += 1;
                        tally.latencies_ms.push(ms(started.elapsed()));
                    }
                    503 => tally.shed_503 += 1,
                    429 => tally.budget_429 += 1,
                    504 => tally.timeout_504 += 1,
                    _ => tally.other += 1,
                }
            }
            Err(_) => {
                // Connection died (server closed it); reconnect.
                conn = None;
            }
        }
    }
    tally
}

fn main() {
    let opts = ExpOptions::from_args();
    let individuals = opts.scaled(1_200);
    let window = Duration::from_millis(((2_000.0 * opts.scale).max(400.0)) as u64);

    eprintln!("generating tourism graph with {individuals} individuals…");
    let graph = generate(&TyroleanConfig::new(individuals, 0x5E12));
    let triples = graph.len();
    let schema = Schema::new(benchmark_shapes()).expect("57-shape suite is nonrecursive");
    let shape_count = schema.len();

    let cfg = ServeConfig {
        max_inflight: 2,
        queue_depth: 4,
        queue_wait: Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let max_inflight = cfg.max_inflight;
    let queue_depth = cfg.queue_depth;
    let server = Server::start(
        cfg,
        SnapshotSource::Inline {
            shapes: schema_to_turtle(&schema),
            data: shapefrag_rdf::turtle::serialize(&graph, &[]),
        },
    )
    .expect("server boots");
    let addr = server.addr;
    eprintln!(
        "server on {addr}: {triples} triples, {shape_count} shapes, cap {max_inflight}+{queue_depth}"
    );

    // Offered-load levels straddle the cap: below, at queue edge, far over.
    let levels = [1usize, 4, 16];
    let mut rows = Vec::new();
    for &clients in &levels {
        eprintln!("level: {clients} closed-loop clients for {window:?}…");
        let stop = Arc::new(AtomicBool::new(false));
        let started = Instant::now();
        let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|i| {
                    let stop = Arc::clone(&stop);
                    scope.spawn(move || run_client(addr, &stop, i))
                })
                .collect();
            std::thread::sleep(window);
            stop.store(true, Ordering::Relaxed);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let elapsed = started.elapsed();

        let mut latencies: Vec<f64> = Vec::new();
        let mut row = LoadRow {
            clients,
            duration_ms: ms(elapsed),
            requests: 0,
            ok_200: 0,
            shed_503: 0,
            budget_429: 0,
            timeout_504: 0,
            other: 0,
            requests_per_s: 0.0,
            served_per_s: 0.0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
        };
        for t in tallies {
            row.requests += t.requests;
            row.ok_200 += t.ok_200;
            row.shed_503 += t.shed_503;
            row.budget_429 += t.budget_429;
            row.timeout_504 += t.timeout_504;
            row.other += t.other;
            latencies.extend(t.latencies_ms);
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        row.requests_per_s = row.requests as f64 / elapsed.as_secs_f64();
        row.served_per_s = row.ok_200 as f64 / elapsed.as_secs_f64();
        row.p50_ms = percentile(&latencies, 0.50);
        row.p95_ms = percentile(&latencies, 0.95);
        row.p99_ms = percentile(&latencies, 0.99);
        rows.push(row);

        // Let the gate fully drain between levels.
        while server.state().gate.inflight() > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    let final_inflight = server.state().gate.inflight();
    assert_eq!(final_inflight, 0, "concurrency cap leaked");
    // Post-load sanity: the server still answers correctly.
    let health = shapefrag_serve::client::request(addr, "GET", "/healthz", &[], b"")
        .expect("health after load");
    assert_eq!(health.status, 200, "server wedged after load");

    // The server-side latency split: cumulative gate wait vs handler
    // execution over the whole run, straight from `/stats`.
    let stats = shapefrag_serve::client::request(addr, "GET", "/stats", &[], b"")
        .expect("stats after load");
    assert_eq!(stats.status, 200, "stats after load");
    let stats_body = String::from_utf8_lossy(&stats.body).into_owned();
    let queue_wait_us = json_u64(&stats_body, "queue_wait_us");
    let service_us = json_u64(&stats_body, "service_us");
    let received = json_u64(&stats_body, "received").max(1);
    let admitted = json_u64(&stats_body, "admitted").max(1);
    let fragment_cache_hits = json_u64(&stats_body, "fragment_cache_hits");
    let fragment_cache_misses = json_u64(&stats_body, "fragment_cache_misses");
    let queue_wait_per_request_us = queue_wait_us as f64 / received as f64;
    let service_per_admitted_us = service_us as f64 / admitted as f64;
    eprintln!(
        "latency split: queue {queue_wait_per_request_us:.0}us/req, \
         service {service_per_admitted_us:.0}us/req"
    );

    println!("\nServe load (closed-loop, cap {max_inflight}+{queue_depth})\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.clients),
                format!("{}", r.requests),
                format!("{:.1}", r.requests_per_s),
                format!("{:.1}", r.served_per_s),
                format!("{:.1}ms", r.p50_ms),
                format!("{:.1}ms", r.p95_ms),
                format!("{:.1}ms", r.p99_ms),
                format!("{}", r.shed_503),
                format!("{}", r.timeout_504),
            ]
        })
        .collect();
    print_table(
        &[
            "clients", "requests", "req/s", "served/s", "p50", "p95", "p99", "shed", "timeout",
        ],
        &table,
    );

    let results = ServeResults {
        suite: "tyrolean-57-serve".to_string(),
        individuals,
        triples,
        shapes: shape_count,
        max_inflight,
        queue_depth,
        host_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        rows,
        final_inflight,
        queue_wait_us,
        service_us,
        queue_wait_per_request_us,
        service_per_admitted_us,
        fragment_cache_hits,
        fragment_cache_misses,
    };
    let out = opts.out.as_deref().unwrap_or("BENCH_serve.json");
    write_json_to(out, &results);
    let drained = server.shutdown(Duration::from_secs(2));
    assert_eq!(drained, 0, "requests still in flight after shutdown drain");
    println!("\nwrote {out}");
}
