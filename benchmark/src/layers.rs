//! The traced run: per-layer numbers, timed from outside the program
//! around calls into each layer's public functions.
//!
//! Two passes share the run's time budget:
//!
//! - **Replay.** The workload's operations run once more, sequentially.
//!   A CLI operation runs in-process through the same public calls in the
//!   same order as `src/bin/shapefrag.rs`, traced and untraced, and as the
//!   real subprocess. A server request is the root span; `/stats` deltas
//!   around it give its queue and service time (exact, since nothing
//!   else is in flight), and the handler's calls are replayed on a mirror
//!   snapshot the benchmark builds through the same calls as the server.
//! - **Probe.** Each layer's public call runs on the workload's inputs,
//!   repeatedly; the per-layer metrics are the medians.
//!
//! The layers are the repository's modules: `rdf`, `shacl`, `analyze`,
//! `core`, `sparql`, `serve` and `cli`.

use std::collections::{BTreeMap, BTreeSet};
use std::ffi::OsStr;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use shapefrag_analyze::{analyze_schema, ContainmentMatrix};
use shapefrag_core::{
    fragment_governed, schema_fragment, validate_extract_fragment, IncrementalValidator,
};
use shapefrag_govern::{Budget, ExecCtx};
use shapefrag_rdf::{ntriples, DeltaGraph, FrozenGraph, Term};
use shapefrag_serve::client::Conn;
use shapefrag_shacl::parser::parse_shapes_turtle_with_spans;
use shapefrag_shacl::validator::{
    validate, validate_batch, validate_batch_containment_governed, ConformanceMemo,
    ContainmentIndex, Context,
};
use shapefrag_shacl::{PathCache, PathExpr, Schema, Shape};
use shapefrag_sparql::eval::{eval_select_governed, EvalConfig};
use shapefrag_sparql::parser::parse_select;

use crate::json::Json;
use crate::load::{fnv1a, Op, Planned, REQUEST_TIMEOUT};
use crate::oracle::{Oracle, ReportDigest};
use crate::proc::{run_cli, spawn_server};
use crate::stats::median;
use crate::trace::{attributed_frac, self_time_by_layer, Tracer};
use crate::workload::{parse_data, script_text, Inputs, Workload};
use crate::{plain, Outcome};

/// Edit scripts the incremental probe applies on workloads that send no
/// updates of their own.
pub const PROBE_SCRIPTS: usize = 8;
/// CLI replay: rounds of (traced, untraced, subprocess) per operation.
const REPLAY_ROUNDS: usize = 10;
/// Server replay: sequential requests.
const REPLAY_REQUESTS: usize = 200;
/// Repetitions of the layer probe, at least and at most.
const PROBE_REPS: (usize, usize) = (3, 15);

/// Runs the traced pass and reports the per-layer metrics.
pub fn traced(
    program: &Path,
    inputs: &Inputs,
    oracle: &Oracle,
    seed: u64,
    seconds: f64,
) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let replay_budget = Duration::from_secs_f64(seconds / 2.0);
    let mut tracer = Tracer::new();
    let overhead_ms = if inputs.workload.is_cli() {
        replay_cli(
            program,
            inputs,
            oracle,
            &mut tracer,
            replay_budget,
            &mut out,
        )
    } else {
        replay_serve(
            program,
            inputs,
            oracle,
            seed,
            &mut tracer,
            replay_budget,
            &mut out,
        )
    };
    let probe_budget = Duration::from_secs_f64(seconds).saturating_sub(started.elapsed());
    let probe = probe(inputs, probe_budget, &mut out);

    for (name, unit, samples) in &probe {
        out.metric(name, unit, median(samples));
    }
    out.metric("frontend.overhead_ms", "ms", overhead_ms);
    let root = if inputs.workload.is_cli() {
        "cli."
    } else {
        "serve."
    };
    out.metric(
        "trace.attributed_frac",
        "ratio",
        attributed_frac(&tracer.spans, root),
    );

    let by_layer = self_time_by_layer(&tracer.spans);
    let total: u64 = by_layer.values().sum();
    for (layer, ns) in &by_layer {
        out.note(&format!(
            "self time {layer:8} {:10.3} ms  {:5.1}%",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / total.max(1) as f64
        ));
    }
    let spans_path =
        Path::new(".bench_work").join(format!("spans-{}-s{seed}.json", inputs.workload.name()));
    match std::fs::write(&spans_path, format!("{}\n", tracer.to_json())) {
        Ok(()) => out.note(&format!(
            "{} spans written to {}",
            tracer.spans.len(),
            spans_path.display()
        )),
        Err(e) => out.note(&format!("spans not written: {e}")),
    }
    out
}

fn mismatch(out: &mut Outcome, what: &str) {
    eprintln!("oracle mismatch: {what}");
    out.correct = false;
}

/// One CLI operation in-process, mirroring `shapefrag validate` /
/// `shapefrag fragment -o`: returns the hash of what the CLI prints or
/// writes.
fn cli_in_process(t: &mut Tracer, inputs: &Inputs, fragment: bool, out_path: &Path) -> u64 {
    let trace = t.new_trace();
    let root = t.open(
        trace,
        None,
        if fragment {
            "cli.fragment"
        } else {
            "cli.validate"
        },
    );
    let shapes_text = std::fs::read_to_string(&inputs.shapes_path).expect("read shapes");
    let (schema, spans) = t.time(trace, Some(root), "shacl.parse_shapes", || {
        parse_shapes_turtle_with_spans(&shapes_text).expect("shapes parse")
    });
    let diags = t.time(trace, Some(root), "analyze.lint", || {
        analyze_schema(&schema, Some(&spans))
    });
    let mut sink = std::io::sink();
    for d in &diags {
        let _ = writeln!(sink, "{}: {d}", inputs.shapes_path.display());
    }
    let data_text = std::fs::read_to_string(&inputs.data_path).expect("read data");
    let data = t.time(trace, Some(root), "rdf.parse", || {
        parse_data(&inputs.data_path, &data_text)
    });
    let frozen = t.time(trace, Some(root), "rdf.freeze", || data.freeze());
    let hash = if fragment {
        let frag = t.time(trace, Some(root), "core.fragment", || {
            schema_fragment(&schema, &frozen)
        });
        let text = t.time(trace, Some(root), "rdf.serialize", || {
            ntriples::serialize(&frag)
        });
        std::fs::write(out_path, &text).expect("write fragment");
        fnv1a(text.as_bytes())
    } else {
        let report = t.time(trace, Some(root), "shacl.validate", || {
            validate(&schema, &frozen)
        });
        fnv1a(format!("{report}\n").as_bytes())
    };
    t.close(root);
    hash
}

/// Replays CLI operations; returns the process overhead in ms: subprocess
/// wall time minus the in-process pipeline, averaged over both
/// operations. A value that stays negative across runs means the mirror
/// no longer matches the CLI's call graph.
fn replay_cli(
    program: &Path,
    inputs: &Inputs,
    oracle: &Oracle,
    tracer: &mut Tracer,
    budget: Duration,
    out: &mut Outcome,
) -> f64 {
    let started = Instant::now();
    let frag_path = inputs.dir.join("fragment-replay.nt");
    let mut untraced = Tracer::disabled();
    // Per operation: traced root ms, untraced ms, subprocess ms.
    let mut times: [[Vec<f64>; 3]; 2] = Default::default();
    for round in 0..REPLAY_ROUNDS {
        if round >= 3 && started.elapsed() > budget {
            break;
        }
        for (k, fragment) in [false, true].into_iter().enumerate() {
            let want = if fragment {
                oracle.cli_fragment
            } else {
                oracle.cli_validate_stdout
            };
            let before = tracer.spans.len();
            if cli_in_process(tracer, inputs, fragment, &frag_path) != want {
                mismatch(out, "in-process replay output differs");
            }
            let root = &tracer.spans[before];
            times[k][0].push(root.dur_ns() as f64 / 1e6);

            let t0 = Instant::now();
            cli_in_process(&mut untraced, inputs, fragment, &frag_path);
            times[k][1].push(t0.elapsed().as_secs_f64() * 1e3);

            let mut args: Vec<&OsStr> = vec![
                OsStr::new(if fragment { "fragment" } else { "validate" }),
                inputs.shapes_path.as_os_str(),
                inputs.data_path.as_os_str(),
            ];
            if fragment {
                args.extend([OsStr::new("-o"), frag_path.as_os_str()]);
            }
            let run = run_cli(program, &args).expect("spawn shapefrag");
            out.attempted += 3;
            let expected_code = if fragment {
                0
            } else {
                oracle.cli_validate_code
            };
            if run.code != Some(expected_code) {
                out.failed += 1;
                continue;
            }
            times[k][2].push(run.wall.as_secs_f64() * 1e3);
        }
    }
    let mut overhead = Vec::new();
    for (k, label) in ["validate", "fragment"].iter().enumerate() {
        let [traced, plain, process] = &times[k];
        if process.is_empty() {
            continue;
        }
        let (traced, plain, process) = (median(traced), median(plain), median(process));
        overhead.push(process - plain);
        out.note(&format!(
            "cli.{label}: n={} process {process:.3} ms, in-process {plain:.3} ms, traced {traced:.3} ms \
             (tracing overhead {:+.3} ms), cli.process_ms {:.3}",
            times[k][0].len(),
            traced - plain,
            process - plain
        ));
    }
    overhead.iter().sum::<f64>() / overhead.len().max(1) as f64
}

/// The benchmark's copy of the server's snapshot, built through the same
/// calls as the server's boot.
struct Mirror {
    schema: Arc<Schema>,
    frozen: Arc<FrozenGraph>,
    index: Arc<ContainmentIndex>,
    /// serve-ingest: the incremental state `/update` maintains.
    inc: Option<IncrementalValidator>,
}

impl Mirror {
    fn boot(t: &mut Tracer, inputs: &Inputs) -> Mirror {
        let trace = t.new_trace();
        let root = t.open(trace, None, "mirror.boot");
        let (schema, _) = t.time(trace, Some(root), "shacl.parse_shapes", || {
            parse_shapes_turtle_with_spans(&inputs.shapes_text).expect("shapes parse")
        });
        t.time(trace, Some(root), "analyze.lint", || {
            analyze_schema(&schema, None)
        });
        let graph = t.time(trace, Some(root), "rdf.parse", || {
            parse_data(&inputs.data_path, &inputs.data_text)
        });
        let index = t.time(trace, Some(root), "analyze.containment", || {
            Arc::new(ContainmentMatrix::of_schema(&schema).to_index(&schema))
        });
        let frozen = Arc::new(t.time(trace, Some(root), "rdf.freeze", || graph.freeze()));
        let schema = Arc::new(schema);
        t.close(root);
        let inc = (inputs.workload == Workload::ServeIngest).then(|| {
            let trace = t.new_trace();
            let root = t.open(trace, None, "mirror.seed_update");
            let mut inc = t.time(trace, Some(root), "core.incremental_seed", || {
                IncrementalValidator::new(Arc::clone(&schema), Arc::clone(&frozen))
            });
            t.time(trace, Some(root), "core.incremental_apply", || {
                inc.apply_governed(&inputs.scripts[0], Budget::unlimited(), None)
                    .expect("unbounded apply")
            });
            t.close(root);
            inc
        });
        Mirror {
            schema,
            frozen,
            index,
            inc,
        }
    }

    /// The published read view: the overlay while it holds edits, the
    /// frozen base otherwise.
    fn view(&self) -> View<'_> {
        match &self.inc {
            Some(inc) if inc.graph().delta_len() > 0 => View::Delta(inc.graph()),
            Some(inc) => View::Frozen(inc.graph().base()),
            None => View::Frozen(&self.frozen),
        }
    }
}

enum View<'a> {
    Frozen(&'a FrozenGraph),
    Delta(&'a DeltaGraph),
}

macro_rules! on_view {
    ($view:expr, |$g:ident| $body:expr) => {
        match $view {
            View::Frozen($g) => $body,
            View::Delta($g) => $body,
        }
    };
}

/// Runs `f` and records it as a child span placed at `*cursor`.
fn replayed<T>(
    t: &mut Tracer,
    trace: u64,
    parent: u64,
    name: &str,
    cursor: &mut u64,
    f: impl FnOnce() -> T,
) -> T {
    let started = Instant::now();
    let value = f();
    let dur = started.elapsed().as_nanos() as u64;
    let id = t.record(trace, Some(parent), name, *cursor, *cursor + dur);
    t.count(id, "replayed", 1.0);
    *cursor += dur;
    value
}

fn stats(conn: &mut Conn) -> Option<(u64, u64)> {
    let resp = conn.request("GET", "/stats", &[], b"").ok()?;
    let body = crate::json::parse(&resp.text()).ok()?;
    let field = |k: &str| body.get(k).and_then(Json::as_f64).map(|v| v as u64);
    Some((field("queue_wait_us")?, field("service_us")?))
}

/// Replays the workload's request sequence one request at a time; returns
/// the median wire time in ms (client latency − queue wait − service).
fn replay_serve(
    program: &Path,
    inputs: &Inputs,
    oracle: &Oracle,
    seed: u64,
    t: &mut Tracer,
    budget: Duration,
    out: &mut Outcome,
) -> f64 {
    let server = spawn_server(program, &inputs.shapes_path, &inputs.data_path)
        .unwrap_or_else(|e| panic!("server did not boot: {e}"));
    let mut conn = Conn::connect(server.addr, REQUEST_TIMEOUT).expect("connect");
    if inputs.workload == Workload::ServeIngest {
        let seeded = conn.request(
            "POST",
            "/update",
            &[],
            script_text(&inputs.scripts[0]).as_bytes(),
        );
        assert!(
            seeded.is_ok_and(|r| r.status == 200),
            "the seeding /update failed"
        );
    }
    let mut mirror = Mirror::boot(t, inputs);

    // The plain run's schedule, merged across streams in due order.
    let streams = plain::streams(inputs, seed, plain::WARMUP + budget * 2);
    let mut plan: Vec<(f64, &Planned)> = streams
        .iter()
        .flat_map(|s| {
            s.items
                .iter()
                .enumerate()
                .map(move |(i, p)| (i as f64 / s.rate_hz, p))
        })
        .collect();
    plan.sort_by(|a, b| a.0.total_cmp(&b.0));

    let started = Instant::now();
    let mut wire = Vec::new();
    for (_, planned) in plan.into_iter().take(REPLAY_REQUESTS) {
        if started.elapsed() > budget && out.attempted >= 20 {
            break;
        }
        let Some((q0, s0)) = stats(&mut conn) else {
            out.failed += 1;
            break;
        };
        let t0 = t.now_ns();
        let resp = conn.request("POST", planned.op.path(), &[], &planned.body);
        let t1 = t.now_ns();
        out.attempted += 1;
        let (Ok(resp), Some((q1, s1))) = (resp, stats(&mut conn)) else {
            out.failed += 1;
            break;
        };
        if resp.status != 200 {
            out.failed += 1;
            continue;
        }
        let (queue, service) = ((q1 - q0) * 1000, (s1 - s0) * 1000);
        let total = t1 - t0;
        let wire_ns = total.saturating_sub(queue + service);
        wire.push(wire_ns as f64 / 1e6);

        let trace = t.new_trace();
        let root = t.record(
            trace,
            None,
            &format!("serve.{}", planned.op.label()),
            t0,
            t1,
        );
        let q_start = t0 + wire_ns / 2;
        t.record(trace, Some(root), "serve.queue", q_start, q_start + queue);
        let s_start = q_start + queue;
        let svc = t.record(
            trace,
            Some(root),
            "serve.service",
            s_start,
            s_start + service,
        );
        let mut cursor = s_start;
        let ok = replay_request(
            t,
            trace,
            svc,
            &mut cursor,
            &mut mirror,
            inputs,
            oracle,
            planned,
            &resp,
        );
        if !ok {
            mismatch(
                out,
                &format!("{} response differs from the mirror", planned.op.path()),
            );
        }
    }
    drop(server);
    median(&wire)
}

/// Replays one handler's calls on the mirror and checks the server's
/// response against the mirror's result.
#[allow(clippy::too_many_arguments)]
fn replay_request(
    t: &mut Tracer,
    trace: u64,
    svc: u64,
    cursor: &mut u64,
    mirror: &mut Mirror,
    inputs: &Inputs,
    oracle: &Oracle,
    planned: &Planned,
    resp: &shapefrag_serve::client::ClientResponse,
) -> bool {
    let body = || crate::json::parse(&resp.text()).ok();
    match planned.op {
        Op::Validate => {
            let memo = Arc::new(ConformanceMemo::new());
            memo.attach_containment(Arc::clone(&mirror.index));
            let schema = Arc::clone(&mirror.schema);
            let (report, _) = replayed(t, trace, svc, "shacl.validate_batch", cursor, || {
                on_view!(mirror.view(), |g| validate_batch_containment_governed(
                    &schema,
                    g,
                    memo,
                    ExecCtx::unbounded()
                ))
                .expect("unbounded validation")
            });
            body().as_ref().and_then(ReportDigest::of_json)
                == Some(ReportDigest::of_report(&report))
        }
        Op::Fragment(i) => {
            let name = &inputs.fragment_names[i];
            let def = mirror.schema.get(name).expect("top-level shape");
            let shape = def.shape.clone().and(def.target.clone());
            let hit = resp.header("x-fragment-cache") == Some("hit");
            if hit && inputs.workload == Workload::ServeRead {
                // The handler answered from its cache: no engine call.
                return fnv1a(&resp.body) == oracle.shape_fragments[i];
            }
            let schema = Arc::clone(&mirror.schema);
            let compute = || {
                on_view!(mirror.view(), |g| fragment_governed(
                    &schema,
                    g,
                    &[shape],
                    ExecCtx::unbounded()
                ))
                .expect("unbounded fragment")
            };
            let text = if hit {
                // A hit after an update: check it, but the handler made
                // no engine call to replay.
                ntriples::serialize(&compute())
            } else {
                let f = replayed(t, trace, svc, "core.fragment", cursor, compute);
                replayed(t, trace, svc, "rdf.serialize", cursor, || {
                    ntriples::serialize(&f)
                })
            };
            fnv1a(&resp.body) == fnv1a(text.as_bytes())
        }
        Op::Sparql(q) => {
            let query = replayed(t, trace, svc, "sparql.parse", cursor, || {
                parse_select(&inputs.queries[q]).expect("generated query parses")
            });
            let rows = replayed(t, trace, svc, "sparql.eval", cursor, || {
                on_view!(mirror.view(), |g| eval_select_governed(
                    g,
                    &query,
                    &EvalConfig::indexed(),
                    &ExecCtx::unbounded()
                ))
                .expect("unbounded evaluation")
                .len()
            });
            let served = body().as_ref().and_then(crate::oracle::sparql_rows);
            served == Some(rows)
                && (inputs.workload != Workload::ServeRead || rows == oracle.sparql_rows[q])
        }
        Op::Update(k) => {
            let inc = mirror.inc.as_mut().expect("ingest mirror");
            let report = replayed(t, trace, svc, "core.incremental_apply", cursor, || {
                inc.apply_governed(&inputs.scripts[k], Budget::unlimited(), None)
                    .expect("unbounded apply")
            });
            body()
                .as_ref()
                .and_then(|b| b.get("report"))
                .and_then(ReportDigest::of_json)
                == Some(ReportDigest::of_report(&report))
        }
        Op::Compact => {
            let inc = mirror.inc.as_mut().expect("ingest mirror");
            replayed(t, trace, svc, "rdf.compact", cursor, || inc.compact());
            true
        }
    }
}

/// Paths a definition evaluates from its focus nodes, following
/// `hasShape` references that stay at the focus node.
fn focus_paths(schema: &Schema, shape: &Shape, seen: &mut BTreeSet<Term>, out: &mut Vec<PathExpr>) {
    match shape {
        Shape::Geq(_, e, _) | Shape::Leq(_, e, _) | Shape::ForAll(e, _) => out.push(e.clone()),
        Shape::Not(s) => focus_paths(schema, s, seen, out),
        Shape::And(items) | Shape::Or(items) => {
            for s in items {
                focus_paths(schema, s, seen, out);
            }
        }
        Shape::HasShape(name) => {
            if let Some(def) = schema.get(name).filter(|_| seen.insert(name.clone())) {
                focus_paths(schema, &def.shape, seen, out);
            }
        }
        _ => {}
    }
}

type Probe = Vec<(&'static str, &'static str, Vec<f64>)>;

/// Runs each layer's public calls on the workload's inputs, repeatedly,
/// until `budget` is spent (at least [`PROBE_REPS`]`.0` repetitions).
fn probe(inputs: &Inputs, budget: Duration, out: &mut Outcome) -> Probe {
    let started = Instant::now();
    let mut samples: BTreeMap<&'static str, (&'static str, Vec<f64>)> = BTreeMap::new();
    let mut notes: Vec<String> = Vec::new();
    for rep in 0..PROBE_REPS.1 {
        if rep >= PROBE_REPS.0 && started.elapsed() > budget {
            break;
        }
        notes.clear();
        let mut put = |name: &'static str, unit: &'static str, v: f64| {
            samples.entry(name).or_insert((unit, Vec::new())).1.push(v);
        };
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let timed = |f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            ms(t.elapsed())
        };

        // rdf: parse and freeze the data file.
        let t = Instant::now();
        let graph = parse_data(&inputs.data_path, &inputs.data_text);
        put("rdf.parse_ms", "ms", ms(t.elapsed()));
        let t = Instant::now();
        let frozen = Arc::new(graph.freeze());
        put("rdf.freeze_ms", "ms", ms(t.elapsed()));

        // shacl + analyze: the shapes graph.
        let t = Instant::now();
        let (schema, spans) =
            parse_shapes_turtle_with_spans(&inputs.shapes_text).expect("shapes parse");
        put("shacl.parse_shapes_ms", "ms", ms(t.elapsed()));
        put(
            "analyze.lint_ms",
            "ms",
            timed(&mut || {
                std::hint::black_box(analyze_schema(&schema, Some(&spans)));
            }),
        );
        let t = Instant::now();
        let matrix = ContainmentMatrix::of_schema(&schema);
        let index = Arc::new(matrix.to_index(&schema));
        put("analyze.containment_ms", "ms", ms(t.elapsed()));

        // shacl: the CLI's per-node driver, and /validate's batch driver.
        let t = Instant::now();
        let report = validate(&schema, frozen.as_ref());
        put("shacl.validate_ms", "ms", ms(t.elapsed()));
        let memo = Arc::new(ConformanceMemo::new());
        memo.attach_containment(Arc::clone(&index));
        let t = Instant::now();
        let batch = validate_batch_containment_governed(
            &schema,
            frozen.as_ref(),
            Arc::clone(&memo),
            ExecCtx::unbounded(),
        )
        .expect("unbounded validation");
        put("shacl.validate_batch_ms", "ms", ms(t.elapsed()));
        put("shacl.memo_entries", "count", memo.len() as f64);
        let (hits, misses) = memo.containment_counters();
        let t = Instant::now();
        std::hint::black_box(validate_batch(&schema, frozen.as_ref()));
        let plain_batch_ms = ms(t.elapsed());

        // shacl.rpq: each definition's focus paths from its targets.
        let mut ctx = Context::new(&schema, frozen.as_ref());
        let work: Vec<(Vec<PathExpr>, Vec<_>)> = schema
            .iter()
            .map(|def| {
                let mut paths = Vec::new();
                focus_paths(&schema, &def.shape, &mut BTreeSet::new(), &mut paths);
                (paths, ctx.target_nodes(&def.target).into_iter().collect())
            })
            .collect();
        let mut cache = PathCache::new();
        let t = Instant::now();
        for (paths, targets) in &work {
            for p in paths {
                std::hint::black_box(
                    cache
                        .get(p, frozen.as_ref())
                        .eval_from_many(frozen.as_ref(), targets),
                );
            }
        }
        put("shacl.rpq_ms", "ms", ms(t.elapsed()));
        let steps = ExecCtx::unbounded();
        for (paths, targets) in &work {
            for p in paths {
                let _ = cache.get(p, frozen.as_ref()).try_eval_from_many(
                    frozen.as_ref(),
                    targets,
                    &steps,
                );
            }
        }
        put("shacl.steps", "count", steps.steps_used() as f64);

        // core: fragments (the CLI's whole-schema call, or /fragment's
        // single-shape call averaged over the shapes), extraction.
        let (frag_ms, ser_ms, frag_triples, bytes) = if inputs.workload.is_cli() {
            let t = Instant::now();
            let f = schema_fragment(&schema, frozen.as_ref());
            let frag_ms = ms(t.elapsed());
            let t = Instant::now();
            let text = ntriples::serialize(&f);
            (frag_ms, ms(t.elapsed()), f.len(), text.len())
        } else {
            let (mut fm, mut sm, mut n, mut b) = (0.0, 0.0, 0, 0);
            for name in &inputs.fragment_names {
                let def = schema.get(name).expect("top-level shape");
                let shape = def.shape.clone().and(def.target.clone());
                let t = Instant::now();
                let f = fragment_governed(&schema, frozen.as_ref(), &[shape], ExecCtx::unbounded())
                    .expect("unbounded fragment");
                fm += ms(t.elapsed());
                let t = Instant::now();
                let text = ntriples::serialize(&f);
                sm += ms(t.elapsed());
                n += f.len();
                b += text.len();
            }
            let k = inputs.fragment_names.len() as f64;
            (fm / k, sm / k, n, b)
        };
        put("core.fragment_ms", "ms", frag_ms);
        put("rdf.serialize_ms", "ms", ser_ms);
        let t = Instant::now();
        std::hint::black_box(validate_extract_fragment(&schema, frozen.as_ref()));
        let extract_ms = ms(t.elapsed());
        put("core.extract_ms", "ms", extract_ms);
        put(
            "core.provenance_overhead",
            "ratio",
            (extract_ms - plain_batch_ms) / plain_batch_ms,
        );

        // core.incremental + rdf.compact: seed, apply scripts, compact.
        let schema = Arc::new(schema);
        let t = Instant::now();
        let mut inc = IncrementalValidator::new(Arc::clone(&schema), Arc::clone(&frozen));
        put("core.incremental_seed_ms", "ms", ms(t.elapsed()));
        let scripts = &inputs.scripts[..PROBE_SCRIPTS.min(inputs.scripts.len())];
        let t = Instant::now();
        for s in scripts {
            inc.apply_governed(s, Budget::unlimited(), None)
                .expect("unbounded apply");
        }
        put(
            "core.incremental_apply_ms",
            "ms",
            ms(t.elapsed()) / scripts.len().max(1) as f64,
        );
        let delta = inc.graph().delta_len();
        let t = Instant::now();
        inc.compact();
        put("rdf.compact_ms", "ms", ms(t.elapsed()));

        // sparql: the generated fragment queries.
        let (mut parse_ms, mut eval_ms, mut rows) = (0.0, 0.0, 0usize);
        for q in &inputs.queries {
            let t = Instant::now();
            let query = parse_select(q).expect("generated query parses");
            parse_ms += ms(t.elapsed());
            let t = Instant::now();
            rows += eval_select_governed(
                frozen.as_ref(),
                &query,
                &EvalConfig::indexed(),
                &ExecCtx::unbounded(),
            )
            .expect("unbounded evaluation")
            .len();
            eval_ms += ms(t.elapsed());
        }
        put("sparql.parse_ms", "ms", parse_ms);
        put("sparql.eval_ms", "ms", eval_ms);

        notes.extend([
            format!(
                "rdf.triples={} rdf.output_bytes={bytes} rdf.delta_triples={delta} (before compaction)",
                frozen.len()
            ),
            format!(
                "shacl.defs={} shacl.checked={} (batch agrees: {}) shacl.containment_hit_ratio={:.4} ({hits} of {})",
                schema.len(),
                report.checked,
                batch.0.checked == report.checked,
                hits as f64 / (hits + misses).max(1) as f64,
                hits + misses
            ),
            format!(
                "core.fragment_triples={frag_triples} sparql.rows={rows} over {} queries; \
                 provenance overhead base: validate_batch {plain_batch_ms:.3} ms, extract {extract_ms:.3} ms",
                inputs.queries.len()
            ),
        ]);
    }
    for n in notes {
        out.note(&n);
    }
    samples
        .into_iter()
        .map(|(name, (unit, v))| (name, unit, v))
        .collect()
}
