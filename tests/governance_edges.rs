//! Edge-case tests for the governance primitives that the server leans
//! on: [`ConformanceMemo`] under worker panics, and the governor limits
//! inside the reach kernel. The memo is `Sync` and may be shared across
//! threads; a panicking thread must neither wedge the others nor hide the
//! facts it already published (the memo recovers its poisoned row-table
//! lock with `PoisonError::into_inner`: every update leaves the table
//! valid, so the data behind the poison flag is sound). The last section
//! drives the reach kernel (the quantifier passes of both batch engines)
//! into each governor limit on the Vardi distance-3 shape.

use std::sync::mpsc;
use std::sync::{Arc, PoisonError, RwLock};
use std::thread;
use std::time::Duration;

use shape_fragments::core::validate_extract_fragment_governed;
use shape_fragments::govern::{
    Budget, BudgetKind, CancelToken, EngineError, ExecCtx, CHECK_STRIDE,
};
use shape_fragments::rdf::{FrozenGraph, GraphAccess, Term, TermId};
use shape_fragments::shacl::rpq::PAIR_COST;
use shape_fragments::shacl::validator::{validate_batch_governed, Context};
use shape_fragments::shacl::{
    CompiledPath, ConformanceMemo, PathExpr, Reach, Schema, Shape, ShapeDef,
};
use shape_fragments::workloads::dblp::{authored_by, vardi_shape, Bibliography, DblpConfig};

// ---------------------------------------------------------------------
// ConformanceMemo under worker panics
// ---------------------------------------------------------------------

/// Keys spread over many rows and pages of the memo.
fn spread_keys() -> Vec<(u32, TermId)> {
    (0..256u32)
        .map(|i| (i, TermId(i.wrapping_mul(31))))
        .collect()
}

/// A worker that panics *after* publishing facts must leave them visible:
/// conformance facts are pure, so a fact published by a thread that later
/// died is exactly as valid as any other.
#[test]
fn memo_facts_survive_worker_panic() {
    let memo = Arc::new(ConformanceMemo::new());
    let keys = spread_keys();

    let writer = {
        let memo = Arc::clone(&memo);
        let keys = keys.clone();
        thread::spawn(move || {
            for &(shape, node) in &keys {
                memo.insert(shape, node, shape % 2 == 0);
            }
            panic!("worker dies after publishing");
        })
    };
    assert!(writer.join().is_err(), "worker must have panicked");

    // Every fact the dead worker published is still readable…
    for &(shape, node) in &keys {
        assert_eq!(
            memo.lookup(shape, node),
            Some(shape % 2 == 0),
            "fact ({shape}, {node:?}) lost after worker panic"
        );
    }
    assert_eq!(memo.len(), keys.len());

    // …and every row is still writable from a fresh thread (no
    // deadlock, no poison error surfacing as a panic).
    let memo2 = Arc::clone(&memo);
    let keys2 = keys.clone();
    let second = thread::spawn(move || {
        for &(shape, node) in &keys2 {
            memo2.insert(shape, node, true);
        }
    });
    second.join().expect("post-panic writes must succeed");
    for &(shape, node) in &keys {
        assert_eq!(memo.lookup(shape, node), Some(true));
    }
}

/// The sharper case: a thread panics while *holding* a write guard (as
/// the memo's row-table lock is held while it grows). `std` poisons the
/// lock; the memo's idiom, `unwrap_or_else(PoisonError::into_inner)`, lets
/// readers and writers on other threads proceed and see whatever was
/// written before the panic.
#[test]
fn stripe_write_lock_poisoning_is_invisible_to_other_threads() {
    type Stripe = RwLock<Vec<(u32, bool)>>;
    let stripe: Arc<Stripe> = Arc::new(RwLock::new(Vec::new()));

    let poisoner = {
        let stripe = Arc::clone(&stripe);
        thread::spawn(move || {
            let mut guard = stripe.write().unwrap_or_else(PoisonError::into_inner);
            guard.push((7, true));
            panic!("die while holding the write guard");
        })
    };
    assert!(poisoner.join().is_err());
    assert!(
        stripe.is_poisoned(),
        "the panic must have poisoned the stripe"
    );

    // A reader on another thread must not block or panic, and must see
    // the pre-panic write. Run it through a channel with a timeout so a
    // regression (deadlock or propagated poison) fails fast instead of
    // hanging the suite.
    let (tx, rx) = mpsc::channel();
    let reader = {
        let stripe = Arc::clone(&stripe);
        thread::spawn(move || {
            let seen = stripe
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            let _ = tx.send(seen);
        })
    };
    let seen = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("reader wedged on a poisoned stripe");
    reader.join().expect("reader panicked on a poisoned stripe");
    assert_eq!(seen, vec![(7, true)]);

    // And the stripe stays writable.
    stripe
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .push((8, false));
    assert_eq!(
        stripe.read().unwrap_or_else(PoisonError::into_inner).len(),
        2
    );
}

// ---------------------------------------------------------------------
// The reach kernel under the governor (Vardi distance-3 shape)
// ---------------------------------------------------------------------

/// A small DBLP slice with one definition, the Vardi distance-3 shape
/// targeted at every author, plus the shape's path compiled against the
/// slice and the target authors.
fn vardi_inputs() -> (Schema, FrozenGraph, CompiledPath, Vec<TermId>) {
    let graph = Bibliography::generate(&DblpConfig {
        first_year: 2016,
        last_year: 2021,
        papers_per_year: 60,
        new_authors_per_year: 30,
        ..DblpConfig::default()
    })
    .full_graph()
    .freeze();
    let shape = vardi_shape(3);
    let Shape::Geq(_, path, _) = &shape else {
        unreachable!("the Vardi shape is a qualified ≥1 quantifier")
    };
    let compiled = CompiledPath::new(path, &graph);
    let target = Shape::geq(1, PathExpr::Prop(authored_by()).inverse(), Shape::True);
    let name = Term::iri("http://t.example.org/Vardi3");
    let schema = Schema::new([ShapeDef::new(name, shape.clone(), target)]).unwrap();
    let authored = graph.id_of_iri(&authored_by()).unwrap();
    let authors: Vec<TermId> = graph
        .node_ids()
        .into_iter()
        .filter(|&v| graph.subjects_ids(v, authored).next().is_some())
        .collect();
    (schema, graph, compiled, authors)
}

/// Steps and memory charge of one ungoverned forward pass over all authors.
fn forward_cost(graph: &FrozenGraph, compiled: &CompiledPath, authors: &[TermId]) -> (u64, u64) {
    let ctx = ExecCtx::unbounded();
    let mut reach = Reach::default();
    compiled
        .try_forward(graph, authors, &mut reach, &ctx)
        .unwrap();
    let cost = (ctx.steps_used(), ctx.memory_used());
    reach.release(&ctx);
    cost
}

/// Both engines report the same fault for `budget` and `cancel`.
fn both_engines_fail(
    schema: &Schema,
    graph: &FrozenGraph,
    budget: Budget,
    cancel: Option<&CancelToken>,
) -> EngineError {
    let exec = || {
        let exec = ExecCtx::with_budget(budget);
        match cancel {
            Some(token) => exec.with_cancel(token),
            None => exec,
        }
    };
    let validate = validate_batch_governed(schema, graph, exec()).unwrap_err();
    let extract = validate_extract_fragment_governed(schema, graph, exec()).unwrap_err();
    assert_eq!(validate, extract);
    validate
}

/// A step budget of half one forward pass trips inside the kernel's
/// forward pass, directly and under both engines.
///
/// For the engines the trip is located by a memory witness. Only the path
/// kernels charge memory, the target needs none (target resolution takes
/// the objects-of fast path), and each engine's first kernel run is the
/// forward pass over all authors, which charges its seeds before its first
/// tick.
/// Under the same step limit plus a one-byte memory budget, both engines
/// fault on memory: they reach that pass within the step limit. The pass
/// alone needs `steps > limit` ticks, so without the memory budget the
/// step trip falls inside it.
#[test]
fn step_budget_trips_inside_the_reach_kernel() {
    let (schema, graph, compiled, authors) = vardi_inputs();
    let (steps, _) = forward_cost(&graph, &compiled, &authors);
    let limit = steps / 2;
    let tripped = EngineError::BudgetExceeded {
        kind: BudgetKind::Steps,
        limit,
    };
    let ctx = ExecCtx::with_budget(Budget::unlimited().steps(limit));
    let mut reach = Reach::default();
    let err = compiled
        .try_forward(&graph, &authors, &mut reach, &ctx)
        .unwrap_err();
    reach.release(&ctx);
    assert_eq!(err, tripped);
    assert_eq!(
        ctx.memory_used(),
        0,
        "a faulted pass still releases its charge"
    );
    let budget = Budget::unlimited().steps(limit);
    assert_eq!(
        both_engines_fail(&schema, &graph, budget.memory_bytes(1), None),
        EngineError::BudgetExceeded {
            kind: BudgetKind::Memory,
            limit: 1
        }
    );
    assert_eq!(both_engines_fail(&schema, &graph, budget, None), tripped);
}

/// A pre-cancelled token stops both engines with `Cancelled`. The engines
/// observe it at their per-definition check, before any kernel runs; one level
/// down, the batch decider observes it inside the kernel, at the first
/// stride check of the forward pass.
#[test]
fn pre_cancelled_token_trips_inside_the_reach_kernel() {
    let (schema, graph, _, authors) = vardi_inputs();
    let token = CancelToken::new();
    token.cancel();
    let err = both_engines_fail(&schema, &graph, Budget::unlimited(), Some(&token));
    assert_eq!(err, EngineError::Cancelled);

    let shape = schema.iter().next().unwrap().shape.clone();
    let mut ctx = Context::new(&schema, &graph).with_exec(ExecCtx::unbounded().with_cancel(&token));
    ctx.conforms_all(&authors, &shape);
    assert_eq!(ctx.take_fault(), Some(EngineError::Cancelled));
    // One step enters the quantifier; the rest are the kernel's.
    assert!(ctx.exec().steps_used() >= u64::from(CHECK_STRIDE));
    assert_eq!(ctx.exec().memory_used(), 0);
}

/// The kernel charges `PAIR_COST` per discovered pair across both passes
/// and holds the charge until release; a memory budget of half the forward
/// pass's charge trips both engines with a memory fault.
#[test]
fn memory_budget_is_charged_per_discovered_pair() {
    let (schema, graph, compiled, authors) = vardi_inputs();
    let (_, forward_bytes) = forward_cost(&graph, &compiled, &authors);
    assert!(forward_bytes > 0);
    assert_eq!(forward_bytes % PAIR_COST, 0);

    let ctx = ExecCtx::unbounded();
    let mut reach = Reach::default();
    compiled
        .try_forward(&graph, &authors, &mut reach, &ctx)
        .unwrap();
    assert_eq!(ctx.memory_used(), forward_bytes);
    // Every distinct source is a pair at the start state and every
    // endpoint one at the accepting state (the path is not nullable).
    let endpoints = reach.endpoints();
    let pairs = |n: usize| n as u64 * PAIR_COST;
    assert!(forward_bytes >= pairs(authors.len() + endpoints.len()));
    compiled
        .try_backward(&graph, &mut reach, endpoints.iter().copied(), &ctx)
        .unwrap();
    // Backward from every endpoint: those pairs again, plus every source
    // that reaches one.
    let reached = authors.iter().filter(|&&v| reach.reaches(v)).count();
    let both_passes = ctx.memory_used();
    assert!(both_passes - forward_bytes >= pairs(endpoints.len() + reached));
    assert_eq!(both_passes % PAIR_COST, 0);
    reach.release(&ctx);
    assert_eq!(ctx.memory_used(), 0);

    let limit = forward_bytes / 2;
    let err = both_engines_fail(
        &schema,
        &graph,
        Budget::unlimited().memory_bytes(limit),
        None,
    );
    assert_eq!(
        err,
        EngineError::BudgetExceeded {
            kind: BudgetKind::Memory,
            limit
        }
    );
}
