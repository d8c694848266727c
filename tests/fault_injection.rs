//! Deterministic fault-injection harness for the resource-governance layer
//! (DESIGN.md §9).
//!
//! Every failure mode the engine promises to survive is injected on
//! purpose here: truncated and byte-mutated documents, corrupted corpus
//! lines, adversarially deep shape trees, exhausted step budgets, expired
//! deadlines, and cross-thread cancellation. In every case the public API
//! must return a structured [`EngineError`] (or a parse error that converts
//! into one) — never panic, never hang. All randomness is seeded, so a
//! failure reproduces exactly.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shape_fragments::core::{fragment_governed, neighborhood};
use shape_fragments::govern::{Budget, BudgetKind, CancelToken, EngineError, ExecCtx};
use shape_fragments::rdf::{ntriples, turtle};
use shape_fragments::shacl::parser::parse_shapes_turtle;
use shape_fragments::shacl::validator::{validate, validate_batch_governed, Context};
use shape_fragments::shacl::{Nnf, PathExpr, Schema, Shape, ShapeDef};
use shape_fragments::sparql::{eval_select_governed, parse_select, EvalConfig};
use shapefrag_rdf::{Graph, GraphAccess, Iri, Term, Triple};
use shapefrag_workloads::shapes57::benchmark_shapes;
use shapefrag_workloads::tyrolean::{generate, TyroleanConfig};

const VALID_TURTLE: &str = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://e/> .
ex:S a sh:NodeShape ; sh:targetClass ex:T ;
  sh:property [ sh:path ex:p ; sh:minCount 1 ; sh:pattern "^a+$" ] .
ex:a ex:p "aaa" ; a ex:T .
"#;

const VALID_NTRIPLES: &str = "<http://e/a> <http://e/p> <http://e/b> .\n\
<http://e/b> <http://e/p> \"lit\"@en .\n\
<http://e/c> <http://e/q> \"3\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";

const VALID_SPARQL: &str = "PREFIX ex: <http://e/>\nSELECT DISTINCT ?s WHERE { \
    { ?s ex:p/ex:q* ?o . FILTER (?o != ex:x) } UNION { ?s !(ex:p|ex:q) ?o } }";

fn e(n: &str) -> Term {
    Term::iri(format!("http://e/{n}"))
}

fn p(n: &str) -> Iri {
    Iri::new(format!("http://e/{n}"))
}

/// A small cyclic graph: star paths over it generate unbounded RPQ work
/// unless the visited-set/budget machinery intervenes.
fn cyclic_graph() -> Graph {
    Graph::from_triples([
        Triple::new(e("n0"), p("p"), e("n1")),
        Triple::new(e("n1"), p("p"), e("n2")),
        Triple::new(e("n2"), p("p"), e("n0")),
    ])
}

/// `ForAll(p*, Geq(1, p, True))` — every node reachable over `p*` has a
/// `p`-successor. Cheap per node, but touches the whole cycle.
fn star_walk_shape() -> Shape {
    Shape::for_all(
        PathExpr::prop(p("p")).star(),
        Shape::geq(1, PathExpr::prop(p("p")), Shape::True),
    )
}

// ---------------------------------------------------------------------------
// Malformed input: truncations and byte mutations
// ---------------------------------------------------------------------------

/// Every prefix of every valid document parses or errors — never panics.
#[test]
fn truncations_never_panic() {
    for (doc, which) in [
        (VALID_TURTLE, "turtle"),
        (VALID_NTRIPLES, "ntriples"),
        (VALID_SPARQL, "sparql"),
    ] {
        for (cut, _) in doc.char_indices() {
            let truncated = &doc[..cut];
            match which {
                "turtle" => {
                    let _ = turtle::parse(truncated);
                    let _ = turtle::parse_lossy(truncated);
                    let _ = parse_shapes_turtle(truncated);
                }
                "ntriples" => {
                    let _ = ntriples::parse(truncated);
                    let _ = ntriples::parse_lossy(truncated);
                }
                _ => {
                    let _ = parse_select(truncated);
                }
            }
        }
    }
}

/// Seeded byte-level mutations (delete / insert / overwrite) of valid
/// documents must yield `Ok` or a structured error from every parser, and
/// a mutated query that still parses must evaluate under a step cap
/// without panicking or hanging.
#[test]
fn byte_mutations_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xFA17);
    let small =
        turtle::parse("@prefix ex: <http://e/> . ex:a ex:p ex:b . ex:b ex:q ex:c .").unwrap();
    for round in 0..600 {
        let doc = match round % 3 {
            0 => VALID_TURTLE,
            1 => VALID_NTRIPLES,
            _ => VALID_SPARQL,
        };
        let mut bytes = doc.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..4usize) {
            let pos = rng.gen_range(0..bytes.len());
            match rng.gen_range(0..3u8) {
                0 => {
                    bytes.remove(pos);
                }
                1 => bytes.insert(pos, rng.gen_range(0..256u16) as u8),
                _ => bytes[pos] = rng.gen_range(0..256u16) as u8,
            }
        }
        let mangled = String::from_utf8_lossy(&bytes).into_owned();
        match round % 3 {
            0 => {
                let _ = turtle::parse(&mangled);
                let _ = turtle::parse_lossy(&mangled);
                let _ = parse_shapes_turtle(&mangled);
            }
            1 => {
                let _ = ntriples::parse(&mangled);
                let _ = ntriples::parse_lossy(&mangled);
            }
            _ => {
                if let Ok(query) = parse_select(&mangled) {
                    let exec = ExecCtx::with_budget(Budget::unlimited().steps(10_000));
                    let _ = eval_select_governed(&small, &query, &EvalConfig::indexed(), &exec);
                }
            }
        }
    }
}

/// Parse errors carry a position and convert into the unified taxonomy.
#[test]
fn parse_errors_convert_to_engine_errors() {
    let err = turtle::parse("@prefix ex: <http://e/> .\nex:a ex:p <unterminated").unwrap_err();
    let engine: EngineError = err.into();
    match engine {
        EngineError::Malformed { line, .. } => assert_eq!(line, 2),
        other => panic!("expected Malformed, got {other:?}"),
    }
    let err = parse_select("SELECT ?s WHERE { ?s ex:p ?o }").unwrap_err();
    assert!(matches!(
        EngineError::from(err),
        EngineError::Malformed { .. }
    ));
}

// ---------------------------------------------------------------------------
// Lossy ingestion: corrupted corpus recovery
// ---------------------------------------------------------------------------

/// With 1% of corpus lines corrupted, lossy loading recovers ≥ 99% of the
/// valid triples and reports one positioned diagnostic per damaged region.
#[test]
fn lossy_load_recovers_corrupted_corpus() {
    const LINES: usize = 2_000;
    let mut rng = StdRng::seed_from_u64(0xC0 + 1);
    let lines: Vec<String> = (0..LINES)
        .map(|i| format!("<http://e/s{i}> <http://e/p{}> <http://e/o{i}> .", i % 7))
        .collect();
    let corrupt_every = 100; // 1% of lines
    let mut corrupted = 0usize;
    let doc: String = lines
        .iter()
        .enumerate()
        .map(|(i, line)| {
            if i % corrupt_every == 17 % corrupt_every {
                corrupted += 1;
                let mut bytes = line.as_bytes().to_vec();
                let cut = rng.gen_range(1..bytes.len());
                match rng.gen_range(0..3u8) {
                    0 => bytes.truncate(cut),
                    1 => bytes[cut] = b'\0',
                    _ => bytes.insert(cut, b'<'),
                }
                String::from_utf8_lossy(&bytes).into_owned() + "\n"
            } else {
                line.clone() + "\n"
            }
        })
        .collect();

    let load = ntriples::parse_lossy(&doc);
    let intact = LINES - corrupted;
    assert!(
        load.graph.len() * 100 >= intact * 99,
        "recovered only {} of {} intact triples",
        load.graph.len(),
        intact
    );
    assert!(!load.is_clean());
    assert!(load.statements_skipped <= corrupted + 2);
    assert_eq!(load.diagnostics.len(), load.statements_skipped);
    for d in &load.diagnostics {
        assert!(d.line >= 1, "diagnostic without a position: {d}");
    }
}

// ---------------------------------------------------------------------------
// Deep shapes: no stack overflow, structured DepthLimit
// ---------------------------------------------------------------------------

/// 100 000-deep shape trees survive construction, cloning, NNF (positive
/// and negated), schema registration, and drop — all iterative paths.
#[test]
fn hundred_thousand_deep_shapes_do_not_overflow() {
    const DEPTH: usize = 100_000;
    let mut shape = Shape::True;
    for _ in 0..DEPTH {
        shape = Shape::geq(1, PathExpr::prop(p("p")), shape);
    }
    let cloned = shape.clone();
    assert_eq!(cloned.size(), shape.size());
    let nnf = Nnf::from_shape(&shape);
    let negated = nnf.negated();
    drop(negated.to_shape());
    let schema = Schema::new(vec![ShapeDef::new(
        e("Deep"),
        shape,
        Shape::has_value(e("n0")),
    )])
    .expect("deep nonrecursive schema");
    drop(cloned);
    drop(schema);
}

/// Running a 100 000-deep shape under a depth guard is a structured
/// `DepthLimit` error, not a crash.
#[test]
fn deep_shape_validation_hits_depth_limit() {
    const DEPTH: usize = 100_000;
    let mut shape = Shape::True;
    for _ in 0..DEPTH {
        shape = Shape::geq(1, PathExpr::prop(p("p")), shape);
    }
    let schema = Schema::new(vec![ShapeDef::new(
        e("Deep"),
        shape,
        Shape::has_value(e("n0")),
    )])
    .unwrap();
    let graph = cyclic_graph();
    let exec = ExecCtx::with_budget(Budget::unlimited().max_depth(64));
    match validate_batch_governed(&schema, &graph, exec) {
        Err(EngineError::DepthLimit { limit }) => assert_eq!(limit, 64),
        other => panic!("expected DepthLimit, got {other:?}"),
    }
}

/// Governed depth counts the NNF the deciders walk, where `¬` is pushed
/// into the atoms: a 100 000-deep `¬¬…¬(≥1 p.⊤)` is `≥1 p.⊤` and decides
/// under the same depth guard of 64, with no overflow and no `DepthLimit`.
#[test]
fn deep_negation_chain_decides_within_depth_limit() {
    const DEPTH: usize = 100_000; // even: the chain means ≥1 p.⊤
    let core = Shape::geq(1, PathExpr::prop(p("p")), Shape::True);
    let mut shape = core.clone();
    for _ in 0..DEPTH {
        shape = shape.not();
    }
    let deep = Schema::new(vec![ShapeDef::new(
        e("Deep"),
        shape,
        Shape::has_value(e("n0")),
    )])
    .unwrap();
    let flat = Schema::new(vec![ShapeDef::new(
        e("Deep"),
        core,
        Shape::has_value(e("n0")),
    )])
    .unwrap();
    let graph = cyclic_graph();
    let governed = || ExecCtx::with_budget(Budget::unlimited().max_depth(64));
    let expected = validate_batch_governed(&flat, &graph, ExecCtx::unbounded()).unwrap();
    assert!(expected.conforms());
    assert_eq!(expected.checked, 1);
    assert_eq!(
        validate_batch_governed(&deep, &graph, governed()),
        Ok(expected)
    );
}

// ---------------------------------------------------------------------------
// Budgets, deadlines, cancellation across the public surface
// ---------------------------------------------------------------------------

#[test]
fn step_budget_faults_are_structured_across_the_stack() {
    let graph = cyclic_graph();
    let shapes = vec![star_walk_shape()];
    let schema = Schema::empty();
    let tiny = || ExecCtx::with_budget(Budget::unlimited().steps(3));

    match fragment_governed(&schema, &graph, &shapes, tiny()) {
        Err(EngineError::BudgetExceeded {
            kind: BudgetKind::Steps,
            limit,
        }) => assert_eq!(limit, 3),
        other => panic!("fragment_governed: expected step fault, got {other:?}"),
    }

    let named = Schema::new(vec![ShapeDef::new(
        e("Walk"),
        star_walk_shape(),
        Shape::geq(1, PathExpr::prop(p("p")), Shape::True),
    )])
    .unwrap();
    assert!(matches!(
        validate_batch_governed(&named, &graph, tiny()),
        Err(EngineError::BudgetExceeded { .. })
    ));
    assert!(matches!(
        fragment_governed(&named, &graph, &named.request_shapes(), tiny()),
        Err(EngineError::BudgetExceeded { .. })
    ));

    let mut ctx = Context::new(&schema, &graph).with_exec(tiny());
    let v = graph.id_of(&e("n0")).unwrap();
    neighborhood(&mut ctx, v, &star_walk_shape());
    assert!(matches!(
        ctx.take_fault(),
        Some(EngineError::BudgetExceeded { .. })
    ));
}

#[test]
fn expired_deadline_is_a_structured_error() {
    let graph = generate(&TyroleanConfig::new(200, 0xDEAD));
    let schema = Schema::new(benchmark_shapes()).unwrap();
    let exec = ExecCtx::with_budget(Budget::unlimited().deadline(Duration::ZERO));
    match validate_batch_governed(&schema, &graph, exec) {
        Err(EngineError::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

/// Cross-thread cancellation: a worker validating in a loop observes a
/// cancellation issued from the test thread within 50ms.
#[test]
fn cancellation_is_observed_within_50ms() {
    let graph = generate(&TyroleanConfig::new(600, 0xCA));
    let schema = Schema::new(benchmark_shapes()).unwrap();
    let token = CancelToken::new();
    let worker_token = token.clone();
    let (tx, rx) = mpsc::channel();

    let worker = thread::spawn(move || loop {
        let exec = ExecCtx::with_budget(Budget::unlimited()).with_cancel(&worker_token);
        match validate_batch_governed(&schema, &graph, exec) {
            Ok(_) => {
                // Keep looping; tell the test thread we are mid-workload.
                let _ = tx.send(());
            }
            Err(EngineError::Cancelled) => return Instant::now(),
            Err(other) => panic!("unexpected fault under cancellation: {other:?}"),
        }
    });

    // Wait until at least one full validation pass has completed, so the
    // cancel lands while the worker is deep inside the kernel.
    rx.recv().expect("worker never finished a warmup pass");
    let cancelled_at = Instant::now();
    token.cancel();
    let observed_at = worker.join().expect("worker panicked");
    let latency = observed_at.duration_since(cancelled_at);
    assert!(
        latency < Duration::from_millis(50),
        "cancellation took {latency:?} to be observed"
    );
}

// ---------------------------------------------------------------------------
// Governance over the frozen (CSR) backend
// ---------------------------------------------------------------------------

/// The governed kernels keep honoring step budgets when running over a
/// [`FrozenGraph`] snapshot: every public entry point surfaces the same
/// structured fault it does on the mutable backend.
#[test]
fn frozen_backend_honors_step_budgets() {
    let frozen = cyclic_graph().freeze();
    let shapes = vec![star_walk_shape()];
    let schema = Schema::empty();
    let tiny = || ExecCtx::with_budget(Budget::unlimited().steps(3));

    match fragment_governed(&schema, &frozen, &shapes, tiny()) {
        Err(EngineError::BudgetExceeded {
            kind: BudgetKind::Steps,
            limit,
        }) => assert_eq!(limit, 3),
        other => panic!("fragment_governed/frozen: expected step fault, got {other:?}"),
    }

    let named = Schema::new(vec![ShapeDef::new(
        e("Walk"),
        star_walk_shape(),
        Shape::geq(1, PathExpr::prop(p("p")), Shape::True),
    )])
    .unwrap();
    assert!(matches!(
        validate_batch_governed(&named, &frozen, tiny()),
        Err(EngineError::BudgetExceeded { .. })
    ));
    assert!(matches!(
        fragment_governed(&named, &frozen, &named.request_shapes(), tiny()),
        Err(EngineError::BudgetExceeded { .. })
    ));

    let mut ctx = Context::new(&schema, &frozen).with_exec(tiny());
    let v = frozen.id_of(&e("n0")).unwrap();
    neighborhood(&mut ctx, v, &star_walk_shape());
    assert!(matches!(
        ctx.take_fault(),
        Some(EngineError::BudgetExceeded { .. })
    ));
}

/// Deadlines still trip over the frozen backend.
#[test]
fn frozen_backend_honors_deadlines() {
    let frozen = generate(&TyroleanConfig::new(200, 0xDEAD)).freeze();
    let schema = Schema::new(benchmark_shapes()).unwrap();
    let exec = ExecCtx::with_budget(Budget::unlimited().deadline(Duration::ZERO));
    match validate_batch_governed(&schema, &frozen, exec) {
        Err(EngineError::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded over frozen, got {other:?}"),
    }
}

/// Cross-thread cancellation is observed promptly inside the frozen-backend
/// kernels too.
#[test]
fn frozen_backend_observes_cancellation() {
    let frozen = generate(&TyroleanConfig::new(600, 0xCB)).freeze();
    let schema = Schema::new(benchmark_shapes()).unwrap();
    let token = CancelToken::new();
    let worker_token = token.clone();
    let (tx, rx) = mpsc::channel();

    let worker = thread::spawn(move || loop {
        let exec = ExecCtx::with_budget(Budget::unlimited()).with_cancel(&worker_token);
        match validate_batch_governed(&schema, &frozen, exec) {
            Ok(_) => {
                let _ = tx.send(());
            }
            Err(EngineError::Cancelled) => return Instant::now(),
            Err(other) => panic!("unexpected fault under cancellation: {other:?}"),
        }
    });

    rx.recv().expect("worker never finished a warmup pass");
    let cancelled_at = Instant::now();
    token.cancel();
    let observed_at = worker.join().expect("worker panicked");
    let latency = observed_at.duration_since(cancelled_at);
    assert!(
        latency < Duration::from_millis(50),
        "cancellation over frozen took {latency:?} to be observed"
    );
}

/// An unbounded governed run over the frozen backend reproduces the
/// ungoverned mutable-backend results exactly.
#[test]
fn frozen_governed_agrees_with_mutable_ungoverned() {
    use shape_fragments::core::schema_fragment;
    use shape_fragments::shacl::validator::validate_batch;

    let graph = generate(&TyroleanConfig::new(150, 0xA7));
    let frozen = graph.freeze();
    let schema = Schema::new(benchmark_shapes()).unwrap();

    let plain = validate_batch(&schema, &graph);
    let governed = validate_batch_governed(&schema, &frozen, ExecCtx::unbounded())
        .expect("unbounded context cannot fault");
    assert_eq!(plain, governed);

    let plain_frag = schema_fragment(&schema, &graph);
    let governed_frag = fragment_governed(
        &schema,
        &frozen,
        &schema.request_shapes(),
        ExecCtx::unbounded(),
    )
    .expect("unbounded context cannot fault");
    assert_eq!(plain_frag, governed_frag);
}

// ---------------------------------------------------------------------------
// Governance through the batch driver behind `shapefrag validate`
// ---------------------------------------------------------------------------

/// An exhausted step budget surfaces as one structured `BudgetExceeded`;
/// no partial report leaks out.
#[test]
fn parallel_engine_surfaces_budget_exhaustion() {
    let frozen = generate(&TyroleanConfig::new(400, 0xBE)).freeze();
    let schema = Schema::new(benchmark_shapes()).unwrap();
    match validate_batch_governed(
        &schema,
        &frozen,
        ExecCtx::with_budget(Budget::unlimited().steps(16)),
    ) {
        Err(EngineError::BudgetExceeded {
            kind: BudgetKind::Steps,
            ..
        }) => {}
        other => panic!("expected step fault, got {other:?}"),
    }
}

/// A cancellation issued from another thread while the batch driver is
/// mid-validation is observed promptly and surfaced as one `Cancelled`
/// error.
#[test]
fn parallel_engine_observes_cross_thread_cancellation() {
    let frozen = generate(&TyroleanConfig::new(600, 0xCC)).freeze();
    let schema = Schema::new(benchmark_shapes()).unwrap();
    let token = CancelToken::new();
    let worker_token = token.clone();
    let (tx, rx) = mpsc::channel();

    let worker = thread::spawn(move || loop {
        match validate_batch_governed(
            &schema,
            &frozen,
            ExecCtx::with_budget(Budget::unlimited()).with_cancel(&worker_token),
        ) {
            Ok(_) => {
                let _ = tx.send(());
            }
            Err(EngineError::Cancelled) => return Instant::now(),
            Err(other) => panic!("unexpected fault under cancellation: {other:?}"),
        }
    });

    rx.recv().expect("worker never finished a warmup pass");
    let cancelled_at = Instant::now();
    token.cancel();
    let observed_at = worker.join().expect("worker panicked");
    let latency = observed_at.duration_since(cancelled_at);
    assert!(
        latency < Duration::from_millis(250),
        "cross-thread cancellation took {latency:?} to be observed"
    );
}

/// An unconstrained governed batch run reproduces the per-node
/// sequential report.
#[test]
fn parallel_engine_unbounded_agrees_with_sequential() {
    let frozen = generate(&TyroleanConfig::new(150, 0xA8)).freeze();
    let schema = Schema::new(benchmark_shapes()).unwrap();
    let sequential = validate(&schema, &frozen);
    let report =
        validate_batch_governed(&schema, &frozen, ExecCtx::with_budget(Budget::unlimited()))
            .expect("unlimited budget cannot fault");
    assert_eq!(sequential, report);
}

/// An unbounded context reproduces the ungoverned results exactly, across
/// validation and fragment extraction.
#[test]
fn governed_and_ungoverned_agree_when_unbounded() {
    use shape_fragments::core::schema_fragment;
    use shape_fragments::shacl::validator::validate_batch;

    let graph = generate(&TyroleanConfig::new(150, 0xA6));
    let schema = Schema::new(benchmark_shapes()).unwrap();

    let plain = validate_batch(&schema, &graph);
    let governed = validate_batch_governed(&schema, &graph, ExecCtx::unbounded())
        .expect("unbounded context cannot fault");
    assert_eq!(plain, governed);

    let plain_frag = schema_fragment(&schema, &graph);
    let governed_frag = fragment_governed(
        &schema,
        &graph,
        &schema.request_shapes(),
        ExecCtx::unbounded(),
    )
    .expect("unbounded context cannot fault");
    assert_eq!(plain_frag, governed_frag);
}
