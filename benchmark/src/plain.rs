//! The untraced run: the end-to-end metrics a user of the program sees.

use std::ffi::OsStr;
use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::json;
use crate::load::{self, Op, Planned, Sample, Stream};
use crate::oracle::{self, Oracle, ReportDigest};
use crate::proc::{run_cli, spawn_server, ServerProc};
use crate::stats::{median, percentile, sorted, tail_level};
use crate::workload::{derive_seed, replay, script_text, Inputs, Workload};
use crate::Outcome;

/// Server boots before and after the load; `setup_s` is the median of
/// all of them. Booting on both sides of the measured window samples the
/// host at two moments, not one.
pub const BOOTS_BEFORE: usize = 3;
pub const BOOTS_AFTER: usize = 4;
/// Discarded warm-up before the measured window of a server workload.
/// It covers serve-read's one cache miss per shape.
pub const WARMUP: Duration = Duration::from_secs(4);
/// serve-read: requests per second over two connections.
pub const READ_RATE: f64 = 40.0;
/// serve-ingest: `/update` per second; a `/compact` follows every
/// `COMPACT_EVERY`-th update.
pub const UPDATE_RATE: f64 = 10.0;
pub const COMPACT_EVERY: usize = 50;
/// serve-ingest: reads per second (one `/validate` per two `/fragment`).
pub const INGEST_READ_RATE: f64 = 30.0;
/// The latency percentile the end-to-end metrics compare. On a shared
/// host, slow phases of 10–60 s move a run's median by up to 40%; the
/// tenth percentile follows the program's own cost and repeats about
/// twice as closely (BENCHMARK.md, "Noise and bounds").
pub const COMPARED_LEVEL: f64 = 0.10;

/// Records a failed check; the run reports `correct: false` and exits
/// non-zero.
fn mismatch(out: &mut Outcome, what: String) {
    eprintln!("oracle mismatch: {what}");
    out.correct = false;
}

/// Notes an operation's sample count, compared percentile, median and
/// the highest percentile with ten samples beyond it; returns the
/// compared percentile.
fn latency_note(out: &mut Outcome, name: &str, latencies: &[f64]) -> Option<f64> {
    if latencies.is_empty() {
        return None;
    }
    let s = sorted(latencies);
    let level = tail_level(s.len());
    let compared = percentile(&s, COMPARED_LEVEL);
    out.note(&format!(
        "{name}: n={} p10={compared:.3} ms p50={:.3} ms p{:.0}={:.3} ms",
        s.len(),
        percentile(&s, 0.5),
        level * 100.0,
        percentile(&s, level)
    ));
    Some(compared)
}

fn latency_metrics(out: &mut Outcome, validate: &[f64], fragment: &[f64]) {
    for (name, latencies) in [("validate", validate), ("fragment", fragment)] {
        if let Some(p10) = latency_note(out, name, latencies) {
            out.metric(&format!("{name}_p10_ms"), "ms", p10);
        }
    }
}

/// Closed loop, one process at a time: a start-up probe, then
/// `shapefrag validate`, then `shapefrag fragment -o`, over and over.
pub fn cli(program: &Path, inputs: &Inputs, oracle: &Oracle, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let shapes = inputs.shapes_path.as_os_str();
    let data = inputs.data_path.as_os_str();
    let frag_path = inputs.dir.join("fragment.nt");
    // Start-up: spawn → exit on a data file with no triples (process
    // start, shapes parse, analyzer gate).
    let start_up: [&OsStr; 3] = [
        OsStr::new("validate"),
        shapes,
        inputs.empty_path.as_os_str(),
    ];
    let validate: [&OsStr; 3] = [OsStr::new("validate"), shapes, data];
    let fragment: [&OsStr; 5] = [
        OsStr::new("fragment"),
        shapes,
        data,
        OsStr::new("-o"),
        frag_path.as_os_str(),
    ];
    let mut starts = Vec::new();
    let mut latencies = [Vec::new(), Vec::new()];
    let (mut cpu, mut rss_kb) = (Duration::ZERO, 0);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let run = run_cli(program, &start_up).expect("spawn shapefrag");
        if run.code != Some(0) {
            mismatch(&mut out, format!("start-up probe exited {:?}", run.code));
        }
        starts.push(run.wall.as_secs_f64());
        for (k, args) in [&validate[..], &fragment[..]].into_iter().enumerate() {
            let run = run_cli(program, args).expect("spawn shapefrag");
            out.attempted += 1;
            cpu += run.cpu;
            rss_kb = rss_kb.max(run.max_rss_kb);
            let want_code = if k == 0 { oracle.cli_validate_code } else { 0 };
            if run.code != Some(want_code) {
                out.failed += 1;
                continue;
            }
            latencies[k].push(run.wall.as_secs_f64() * 1e3);
            let correct = if k == 0 {
                load::fnv1a(&run.stdout) == oracle.cli_validate_stdout
            } else {
                let written = std::fs::read(&frag_path).unwrap_or_default();
                load::fnv1a(&written) == oracle.cli_fragment
            };
            if !correct {
                mismatch(
                    &mut out,
                    format!("{} output differs", args[0].to_string_lossy()),
                );
            }
        }
    }
    out.metric("setup_s", "s", median(&starts));
    latency_metrics(&mut out, &latencies[0], &latencies[1]);
    out.metric("peak_rss_mb", "MB", rss_kb as f64 / 1024.0);
    out.note(&format!(
        "cpu per operation={:.3} ms",
        cpu.as_secs_f64() * 1e3 / out.attempted.max(1) as f64
    ));
    out
}

fn get(addr: std::net::SocketAddr, path: &str) -> Option<json::Json> {
    let resp = shapefrag_serve::client::request(addr, "GET", path, &[], b"").ok()?;
    (resp.status == 200).then(|| json::parse(&resp.text()).ok())?
}

fn post(addr: std::net::SocketAddr, path: &str, body: &[u8]) -> Option<json::Json> {
    let resp = shapefrag_serve::client::request(addr, "POST", path, &[], body).ok()?;
    (resp.status == 200).then(|| json::parse(&resp.text()).ok())?
}

/// Boots the server and returns it with the boot time: spawn to the
/// first `/healthz` 200, and on serve-ingest also the first `/update`,
/// which seeds the incremental state with a full validation.
pub fn boot(program: &Path, inputs: &Inputs) -> (ServerProc, f64) {
    let started = Instant::now();
    let server = spawn_server(program, &inputs.shapes_path, &inputs.data_path)
        .unwrap_or_else(|e| panic!("server did not boot: {e}"));
    while get(server.addr, "/healthz").is_none() {
        assert!(
            started.elapsed() < load::REQUEST_TIMEOUT,
            "/healthz never answered"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    if inputs.workload == Workload::ServeIngest {
        let seeded = post(
            server.addr,
            "/update",
            script_text(&inputs.scripts[0]).as_bytes(),
        );
        assert!(seeded.is_some(), "the seeding /update failed");
    }
    (server, started.elapsed().as_secs_f64())
}

/// A stratified mix of request kinds: each block holds the kinds in
/// fixed proportions, shuffled by the seed, so every run sends the same mix.
fn stratified(block: &[u8], blocks: usize, rng: &mut StdRng) -> Vec<u8> {
    let mut out = Vec::with_capacity(block.len() * blocks);
    for _ in 0..blocks {
        let mut b = block.to_vec();
        b.shuffle(rng);
        out.extend(b);
    }
    out
}

/// The request schedule of a server workload.
pub fn streams(inputs: &Inputs, seed: u64, total: Duration) -> Vec<Stream> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 4));
    let mut names: Vec<usize> = (0..inputs.fragment_names.len()).collect();
    names.shuffle(&mut rng);
    let mut next_name = 0usize;
    let mut fragment = || {
        let i = names[next_name % names.len()];
        next_name += 1;
        Planned {
            op: Op::Fragment(i),
            body: inputs.fragment_names[i].to_string().into_bytes(),
        }
    };
    let validate = || Planned {
        op: Op::Validate,
        body: Vec::new(),
    };
    let secs = total.as_secs_f64();
    match inputs.workload {
        Workload::ServeRead => {
            // 50% validate, 45% fragment, 5% SPARQL, in blocks of 20.
            let count = (READ_RATE * secs).ceil() as usize;
            let mut block = vec![0u8; 10];
            block.extend([1u8; 9]);
            block.push(2);
            let mut next_query = 0usize;
            let items = stratified(&block, count / 20 + 1, &mut rng)
                .into_iter()
                .map(|k| match k {
                    0 => validate(),
                    1 => fragment(),
                    _ => {
                        let q = next_query % inputs.queries.len();
                        next_query += 1;
                        Planned {
                            op: Op::Sparql(q),
                            body: inputs.queries[q].clone().into_bytes(),
                        }
                    }
                })
                .collect();
            vec![Stream {
                rate_hz: READ_RATE,
                conns: 2,
                items,
            }]
        }
        Workload::ServeIngest => {
            let writes = (UPDATE_RATE * secs).ceil() as usize;
            let mut write_items = Vec::with_capacity(writes);
            // Script 0 seeded the incremental state at boot.
            let mut script = 1usize;
            while write_items.len() < writes {
                if script > 1 && (script - 1).is_multiple_of(COMPACT_EVERY) {
                    write_items.push(Planned {
                        op: Op::Compact,
                        body: Vec::new(),
                    });
                }
                write_items.push(Planned {
                    op: Op::Update(script),
                    body: script_text(&inputs.scripts[script]).into_bytes(),
                });
                script += 1;
            }
            // A fixed read pattern, not a shuffled one: the reads share the
            // cores with the writes, and a seeded order would decide which
            // reads overlap an update, moving the low percentiles by ±25%
            // between seeds. Each `/validate` is due a third of a write
            // period after an `/update`.
            let reads = (INGEST_READ_RATE * secs).ceil() as usize;
            let read_items = (0..reads)
                .map(|m| if m % 3 == 1 { validate() } else { fragment() })
                .collect();
            vec![
                Stream {
                    rate_hz: UPDATE_RATE,
                    conns: 1,
                    items: write_items,
                },
                Stream {
                    rate_hz: INGEST_READ_RATE,
                    conns: 1,
                    items: read_items,
                },
            ]
        }
        _ => unreachable!("CLI workloads have no request schedule"),
    }
}

/// Scripts a server workload may send: the seeding update plus one per
/// scheduled update.
pub fn scripts_needed(seconds: f64) -> usize {
    ((WARMUP.as_secs_f64() + seconds) * UPDATE_RATE).ceil() as usize + 2
}

/// Open-loop load against `shapefrag serve`.
pub fn serve(program: &Path, inputs: &Inputs, oracle: &Oracle, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut boots = Vec::new();
    let mut server = None;
    for _ in 0..BOOTS_BEFORE {
        drop(server.take());
        let (s, secs) = boot(program, inputs);
        boots.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one boot");
    let total = WARMUP + Duration::from_secs_f64(seconds);
    let streams = streams(inputs, seed, total);
    let warm = WARMUP.as_secs_f64();
    let (samples, cpu) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            std::thread::sleep(WARMUP);
            server.cpu_time()
        });
        let samples = load::run(server.addr, &streams, total);
        let cpu_at_warm = sampler.join().expect("cpu sampler");
        (samples, server.cpu_time().saturating_sub(cpu_at_warm))
    });
    let rss_kb = server.peak_rss_kb();
    check_serve(inputs, oracle, &server, &samples, &mut out);
    drop(server);
    boots.extend((0..BOOTS_AFTER).map(|_| boot(program, inputs).1));
    out.metric("setup_s", "s", median(&boots));

    let measured: Vec<&Sample> = samples.iter().filter(|s| s.due >= warm).collect();
    out.attempted = measured.len() as u64;
    out.failed = measured.iter().filter(|s| !s.ok()).count() as u64;
    let latencies = |label: &str| -> Vec<f64> {
        measured
            .iter()
            .filter(|s| s.op.label() == label && s.ok())
            .map(|s| s.latency_ms())
            .collect()
    };
    latency_metrics(&mut out, &latencies("validate"), &latencies("fragment"));
    out.metric("peak_rss_mb", "MB", rss_kb as f64 / 1024.0);
    out.note(&format!(
        "server cpu per request={:.3} ms",
        cpu.as_secs_f64() * 1e3 / out.attempted.max(1) as f64
    ));

    // Operations only one workload sends: printed, not compared.
    for label in ["sparql", "update"] {
        latency_note(&mut out, label, &latencies(label));
    }
    let lags: Vec<f64> = measured.iter().map(|s| s.lag_ms()).collect();
    if !lags.is_empty() {
        out.note(&format!(
            "client lag p99={:.3} ms (how late the generator sent)",
            percentile(&sorted(&lags), 0.99)
        ));
    }
    let frags: Vec<&&Sample> = measured
        .iter()
        .filter(|s| s.op.label() == "fragment")
        .collect();
    let hits = frags.iter().filter(|s| s.cache_hit).count();
    out.note(&format!(
        "fragment cache hit ratio={:.3} ({hits} of {})",
        hits as f64 / frags.len().max(1) as f64,
        frags.len()
    ));
    out.note(&format!(
        "error_frac={:.4} ({} of {})",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    out
}

/// Checks every server response that has an oracle.
fn check_serve(
    inputs: &Inputs,
    oracle: &Oracle,
    server: &ServerProc,
    samples: &[Sample],
    out: &mut Outcome,
) {
    let body = |s: &Sample| s.json_body.as_deref().and_then(|b| json::parse(b).ok());
    if inputs.workload == Workload::ServeRead {
        for s in samples.iter().filter(|s| s.ok()) {
            let problem = match s.op {
                Op::Validate
                    if body(s).as_ref().and_then(ReportDigest::of_json) != Some(oracle.report) =>
                {
                    "/validate report differs".to_string()
                }
                Op::Fragment(i) if s.body_hash != oracle.shape_fragments[i] => {
                    format!("/fragment body differs for shape #{i}")
                }
                Op::Sparql(q)
                    if body(s).as_ref().and_then(oracle::sparql_rows)
                        != Some(oracle.sparql_rows[q]) =>
                {
                    format!("/sparql row count differs for query #{q}")
                }
                _ => continue,
            };
            mismatch(out, problem);
        }
        return;
    }
    // serve-ingest: the final state must equal a from-scratch validation
    // of the replayed edits. Writes travel on one connection in order, so
    // the applied scripts are the seeding one plus every successful
    // /update.
    let mut applied = vec![inputs.scripts[0].clone()];
    for s in samples.iter().filter(|s| s.ok()) {
        if let Op::Update(k) = s.op {
            applied.push(inputs.scripts[k].clone());
        }
    }
    let expected = replay(&inputs.graph, &applied);
    let frozen = expected.freeze();
    let want = ReportDigest::of_report(&shapefrag_shacl::validator::validate_batch(
        &inputs.schema,
        &frozen,
    ));
    if post(server.addr, "/validate", b"")
        .as_ref()
        .and_then(ReportDigest::of_json)
        != Some(want)
    {
        mismatch(
            out,
            "final /validate differs from the replayed edits".into(),
        );
    }
    let names = &inputs.fragment_names[..inputs.fragment_names.len().min(4)];
    let want = oracle::shape_fragment_hashes(&inputs.schema, &expected, names);
    for (name, want) in names.iter().zip(want) {
        let got = shapefrag_serve::client::request(
            server.addr,
            "POST",
            "/fragment",
            &[],
            name.to_string().as_bytes(),
        )
        .map(|r| load::fnv1a(&r.body))
        .ok();
        if got != Some(want) {
            mismatch(out, format!("final /fragment differs for {name}"));
        }
    }
}
