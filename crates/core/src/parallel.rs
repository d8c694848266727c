//! Cost-routed work-stealing parallel validation and extraction (DESIGN.md
//! §12): the one engine behind every validation report
//! ([`validate_batch_par`]) and every instrumented extraction
//! ([`validate_extract_fragment_par`]).
//!
//! The engines partition work by **shape × target-chunk** over a shared
//! graph snapshot (typically an `Arc<FrozenGraph>` deref) and run the
//! chunks on the [`shapefrag_sched`] work-stealing scheduler. Each unit's
//! static cost is the analyze crate's per-shape cost class
//! ([`shape_cost`]) scaled by chunk size, so product-graph BFS shapes are
//! dispatched before cheap local lookups and stragglers backfill via
//! steals. With one thread each definition is a single unit and the
//! scheduler runs them inline, with no spawns and no locks.
//!
//! Determinism: planning happens sequentially (per-definition target
//! resolution, NNF conversion, target-evidence analysis) and every unit is
//! tagged with its planning-order sequence number. Workers record results
//! per unit; the merge sorts by sequence number, which reproduces the
//! sequential batch driver's report **exactly** — same `checked` count,
//! same violations in the same (definition-major, target-minor) order.
//! Fragments are id-triple *sets*, so their union is order-free by
//! construction.
//!
//! Sharing: all workers validate against one
//! [`ConformanceMemo`], so a `hasShape` sub-shape referenced from units on
//! different workers is still decided at most once per (shape, node) —
//! modulo benign races where two workers decide the same pair
//! concurrently (both compute the same value).
//!
//! Governance: planning runs under the caller's full budget; every worker
//! then runs under its own [`ExecCtx`] carrying `budget.split(threads)` and
//! a clone of the caller's [`CancelToken`]. Budgets are per-context
//! counters, not a shared pool, so the split is an approximation: a
//! parallel run may trip a step budget a single-threaded run would squeak
//! under (and vice versa), but the *kind* of enforcement — steps, memory,
//! deadline, depth, cancellation — and the error taxonomy are preserved.
//! When several units fault, the fault attached to the lowest planning
//! sequence number wins, mirroring "first fault in definition order" from
//! the sequential driver. An unlimited budget never faults.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use shapefrag_analyze::{shape_cost, shape_shares_work, PathClass};
use shapefrag_govern::{Budget, CancelToken, EngineError, ExecCtx};
use shapefrag_rdf::{GraphAccess, Term, TermId};
use shapefrag_sched::{run, RunStats, WorkUnit};
use shapefrag_shacl::validator::{ConformanceMemo, Context, ValidationReport, Violation};
use shapefrag_shacl::{Nnf, Schema};

use crate::instrumented::{SchemaFragment, TargetEvidence};
use crate::neighborhood::{collect_neighborhood_many, conforms_and_collect, IdTriples};

/// One schedulable span: a contiguous slice `[lo, hi)` of one
/// definition's sorted target list, tagged with its planning-order
/// sequence number for the deterministic merge.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub(crate) seq: usize,
    pub(crate) def: usize,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
}

/// Static unit priority: the shape's fan-out class (a Kleene-closure BFS
/// outranks bounded adjacency scans outranks single lookups), doubled when
/// batch evaluation shares work across the chunk's nodes, scaled by chunk
/// length.
fn unit_cost(schema: &Schema, nnf: &Nnf, len: usize) -> u64 {
    let cost = shape_cost(schema, nnf);
    let base: u64 = match cost.fan_out {
        Some(PathClass::Traversing) => 16,
        Some(PathClass::Local) => 4,
        Some(PathClass::Simple) => 2,
        None => 1,
    };
    let shared: u64 = if cost.shares_work { 2 } else { 1 };
    base * shared * len.max(1) as u64
}

/// Chunk length for a target list: about four units per worker for steal
/// granularity, but never so small that per-unit overhead dominates. With
/// one thread the whole list is a single unit.
fn chunk_len(total: usize, threads: usize) -> usize {
    if threads <= 1 {
        total.max(1)
    } else {
        (total / (threads * 4)).clamp(64, 2048)
    }
}

/// Appends the work units covering definition `def`'s `targets` nodes,
/// numbering them from `seq` on.
pub(crate) fn push_units(
    schema: &Schema,
    nnf: &Nnf,
    targets: usize,
    threads: usize,
    def: usize,
    seq: &mut usize,
    units: &mut Vec<WorkUnit<Span>>,
) {
    let chunk = chunk_len(targets, threads);
    let mut lo = 0;
    while lo < targets {
        let hi = (lo + chunk).min(targets);
        units.push(WorkUnit {
            cost: unit_cost(schema, nnf, hi - lo),
            item: Span {
                seq: *seq,
                def,
                lo,
                hi,
            },
        });
        *seq += 1;
        lo = hi;
    }
}

/// An execution governor for `budget`, observing `cancel` if given.
pub(crate) fn exec_ctx(budget: Budget, cancel: Option<&CancelToken>) -> ExecCtx {
    let exec = ExecCtx::with_budget(budget);
    match cancel {
        Some(token) => exec.with_cancel(token),
        None => exec,
    }
}

/// The sticky fault of a context as a `Result`.
pub(crate) fn fault_of<G: GraphAccess>(ctx: &mut Context<'_, G>) -> Result<(), EngineError> {
    ctx.take_fault().map_or(Ok(()), Err)
}

/// Runs `units` on `threads` workers, each under `budget.split(threads)`
/// plus `cancel`. `init` builds a worker's state around its governor and
/// `finish` turns it into the worker's result. A unit whose `work` faults
/// stops the run: units not yet started are skipped, and of the faults
/// recorded the one with the lowest sequence number is returned instead
/// of the results.
pub(crate) fn run_governed<S, R>(
    units: Vec<WorkUnit<Span>>,
    threads: usize,
    budget: Budget,
    cancel: Option<&CancelToken>,
    init: impl Fn(ExecCtx) -> S + Sync,
    work: impl Fn(&mut S, Span) -> Result<(), EngineError> + Sync,
    finish: impl Fn(S) -> R + Sync,
) -> Result<(Vec<R>, RunStats), EngineError>
where
    R: Send,
{
    let worker_budget = budget.split(threads);
    let fault: Mutex<Option<(usize, EngineError)>> = Mutex::new(None);
    let abort = AtomicBool::new(false);
    let (results, stats) = run(
        units,
        threads,
        |_| init(exec_ctx(worker_budget, cancel)),
        |state, span: Span| {
            if abort.load(Ordering::Acquire) {
                return;
            }
            if let Err(e) = work(state, span) {
                let mut slot = fault.lock().unwrap_or_else(PoisonError::into_inner);
                if slot.as_ref().is_none_or(|(seq, _)| span.seq < *seq) {
                    *slot = Some((span.seq, e));
                }
                abort.store(true, Ordering::Release);
            }
        },
        |_, state| finish(state),
    );
    match fault.into_inner().unwrap_or_else(PoisonError::into_inner) {
        Some((_, e)) => Err(e),
        None => Ok((results, stats)),
    }
}

fn violation<G: GraphAccess>(graph: &G, name: &Term, node: TermId) -> Violation {
    Violation {
        shape: name.clone(),
        focus: graph.term(node).clone(),
    }
}

/// Per-unit validation result: `(seq, checked, violations)`.
type UnitOut = (usize, usize, Vec<Violation>);

fn merge_report(per_worker: Vec<Vec<UnitOut>>) -> ValidationReport {
    let mut units: Vec<UnitOut> = per_worker.into_iter().flatten().collect();
    units.sort_by_key(|(seq, _, _)| *seq);
    let mut report = ValidationReport::default();
    for (_, checked, violations) in units {
        report.checked += checked;
        report.violations.extend(violations);
    }
    report
}

/// One planned definition.
struct DefPlan<'a> {
    name: &'a Term,
    nnf: &'a Nnf,
    targets: Vec<TermId>,
    /// Precomputed `B(v, τ)`; `None` when the run only validates.
    evidence: Option<TargetEvidence>,
    /// Extraction route of the *whole definition*: a shape without shared
    /// work ([`shape_shares_work`]) runs the single-pass per-node collector.
    per_node: bool,
}

/// The sequential planning pass shared by both engines: resolves every
/// definition's targets (plus its target evidence when `extract`) under
/// the full budget and cuts the target lists into work units.
fn plan<'a, G: GraphAccess>(
    schema: &'a Schema,
    graph: &G,
    memo: &Arc<ConformanceMemo>,
    threads: usize,
    budget: Budget,
    cancel: Option<&CancelToken>,
    extract: bool,
) -> Result<(Vec<DefPlan<'a>>, Vec<WorkUnit<Span>>), EngineError> {
    let mut ctx =
        Context::with_memo(schema, graph, Arc::clone(memo)).with_exec(exec_ctx(budget, cancel));
    let mut plans = Vec::with_capacity(schema.len());
    let mut units = Vec::new();
    let mut seq = 0;
    for (d, def) in schema.iter().enumerate() {
        ctx.exec().check_now()?;
        let nnf = schema.def_nnf(&def.name, false);
        let targets: Vec<TermId> = ctx.target_nodes(&def.target).into_iter().collect();
        let evidence = extract.then(|| TargetEvidence::analyze(&mut ctx, &def.target));
        fault_of(&mut ctx)?;
        push_units(schema, nnf, targets.len(), threads, d, &mut seq, &mut units);
        plans.push(DefPlan {
            name: &def.name,
            per_node: !shape_shares_work(schema, nnf),
            nnf,
            targets,
            evidence,
        });
    }
    Ok((plans, units))
}

/// Validates `graph` against `schema` on `threads` workers under `budget`
/// (and `cancel`, if given). The report is identical to
/// [`shapefrag_shacl::validate_batch`]'s — same `checked` count, same
/// violation order — and comes with the scheduler's run counters; a
/// resource fault is returned instead of a partial report.
pub fn validate_batch_par<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    threads: usize,
    budget: Budget,
    cancel: Option<&CancelToken>,
) -> Result<(ValidationReport, RunStats), EngineError> {
    let threads = threads.max(1);
    let memo = Arc::new(ConformanceMemo::new());
    let (plans, units) = plan(schema, graph, &memo, threads, budget, cancel, false)?;
    // Top-level checks go through the *named* path (`hasShape(name)` ≡ the
    // definition's shape), so definition-level bits land in the shared memo
    // where cross-definition reuse can see them.
    let named: Vec<Nnf> = plans
        .iter()
        .map(|plan| Nnf::HasShape(plan.name.clone()))
        .collect();
    let (per_worker, stats) = run_governed(
        units,
        threads,
        budget,
        cancel,
        |exec| {
            (
                Context::with_memo(schema, graph, Arc::clone(&memo)).with_exec(exec),
                Vec::<UnitOut>::new(),
            )
        },
        |(ctx, out), span| {
            let plan = &plans[span.def];
            let nodes = &plan.targets[span.lo..span.hi];
            let decisions = ctx.conforms_all_nnf(nodes, &named[span.def]);
            fault_of(ctx)?;
            let violations = nodes
                .iter()
                .zip(decisions)
                .filter(|(_, ok)| !ok)
                .map(|(&node, _)| violation(graph, plan.name, node))
                .collect();
            out.push((span.seq, nodes.len(), violations));
            Ok(())
        },
        |(_, out)| out,
    )?;
    Ok((merge_report(per_worker), stats))
}

/// Validates and, in the same pass, extracts the schema's shape fragment
/// `Frag(G, H)` (the union of `B(v, φ ∧ τ)` over all conforming target
/// nodes) on `threads` workers under `budget` (and `cancel`, if given):
/// the §5.2 instrumented validator. The report is identical to
/// [`shapefrag_shacl::validate_batch`]'s and the fragment to
/// [`crate::schema_fragment`]'s; a resource fault is returned instead of a
/// truncated fragment.
pub fn validate_extract_fragment_par<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    threads: usize,
    budget: Budget,
    cancel: Option<&CancelToken>,
) -> Result<(ValidationReport, SchemaFragment, RunStats), EngineError> {
    let threads = threads.max(1);
    let memo = Arc::new(ConformanceMemo::new());
    let (plans, units) = plan(schema, graph, &memo, threads, budget, cancel, true)?;
    struct State<'a, G: GraphAccess> {
        ctx: Context<'a, G>,
        journal: Vec<(TermId, TermId, TermId)>,
        triples: IdTriples,
        out: Vec<UnitOut>,
    }
    let (per_worker, stats) = run_governed(
        units,
        threads,
        budget,
        cancel,
        |exec| State {
            ctx: Context::with_memo(schema, graph, Arc::clone(&memo)).with_exec(exec),
            journal: Vec::new(),
            triples: IdTriples::default(),
            out: Vec::new(),
        },
        |state, span| {
            let plan = &plans[span.def];
            let evidence = plan
                .evidence
                .as_ref()
                .expect("extraction plans carry evidence");
            let nodes = &plan.targets[span.lo..span.hi];
            let mut violations = Vec::new();
            if plan.per_node {
                for &node in nodes {
                    state.journal.clear();
                    if conforms_and_collect(&mut state.ctx, node, plan.nnf, &mut state.journal) {
                        state.triples.extend(state.journal.iter().copied());
                        evidence.collect(&mut state.ctx, node, &mut state.triples);
                    } else {
                        violations.push(violation(graph, plan.name, node));
                    }
                }
            } else {
                let decisions = state.ctx.conforms_all_nnf(nodes, plan.nnf);
                let mut conforming: Vec<TermId> = Vec::with_capacity(nodes.len());
                for (&node, ok) in nodes.iter().zip(decisions) {
                    if ok {
                        conforming.push(node);
                        evidence.collect(&mut state.ctx, node, &mut state.triples);
                    } else {
                        violations.push(violation(graph, plan.name, node));
                    }
                }
                collect_neighborhood_many(
                    &mut state.ctx,
                    &conforming,
                    plan.nnf,
                    &mut state.triples,
                );
            }
            fault_of(&mut state.ctx)?;
            state.out.push((span.seq, nodes.len(), violations));
            Ok(())
        },
        |state| (state.out, state.triples),
    )?;
    let mut all = IdTriples::default();
    let mut outs = Vec::new();
    for (out, triples) in per_worker {
        all.extend(triples);
        outs.push(out);
    }
    Ok((merge_report(outs), SchemaFragment::from_ids(all), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::schema_fragment;
    use shapefrag_rdf::{Graph, Iri, Triple};
    use shapefrag_shacl::path::PathExpr;
    use shapefrag_shacl::{Shape, ShapeDef};

    fn iri(n: &str) -> Iri {
        Iri::new(format!("http://e/{n}"))
    }

    fn term(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(term(s), iri(p), term(o))
    }

    fn p(n: &str) -> PathExpr {
        PathExpr::Prop(iri(n))
    }

    /// A chain graph with typed nodes: big enough to split into several
    /// chunks at 4–8 threads, with both conforming and violating targets.
    fn chain_graph(n: usize) -> Graph {
        let mut triples = Vec::new();
        for i in 0..n {
            triples.push(t(&format!("n{i}"), "next", &format!("n{}", (i + 1) % n)));
            triples.push(t(&format!("n{i}"), "type", "Node"));
            if i % 3 != 0 {
                triples.push(t(&format!("n{i}"), "label", &format!("l{i}")));
            }
        }
        Graph::from_triples(triples)
    }

    fn chain_schema() -> Schema {
        Schema::new([
            ShapeDef::new(
                term("Labelled"),
                Shape::geq(1, p("label"), Shape::True),
                Shape::geq(1, p("type"), Shape::has_value(term("Node"))),
            ),
            ShapeDef::new(
                term("Reaches"),
                Shape::geq(1, p("next").star(), Shape::has_value(term("n0"))),
                Shape::geq(1, p("type"), Shape::has_value(term("Node"))),
            ),
        ])
        .unwrap()
    }

    fn validate(schema: &Schema, g: &impl GraphAccess, threads: usize) -> ValidationReport {
        validate_batch_par(schema, g, threads, Budget::unlimited(), None)
            .expect("an unlimited budget cannot fault")
            .0
    }

    #[test]
    fn parallel_report_is_bit_identical_to_batch() {
        let g = chain_graph(300).freeze();
        let schema = chain_schema();
        let sequential = shapefrag_shacl::validate_batch(&schema, &g);
        for threads in [1, 2, 4, 8] {
            let (parallel, stats) =
                validate_batch_par(&schema, &g, threads, Budget::unlimited(), None).unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
            assert!(stats.units > 0);
        }
    }

    #[test]
    fn parallel_extract_matches_definitional_fragment() {
        let g = chain_graph(200).freeze();
        let schema = chain_schema();
        let report = shapefrag_shacl::validate_batch(&schema, &g);
        let fragment = schema_fragment(&schema, &g);
        for threads in [1, 2, 4, 8] {
            let (r, frag, _) =
                validate_extract_fragment_par(&schema, &g, threads, Budget::unlimited(), None)
                    .unwrap();
            assert_eq!(report, r, "threads = {threads}");
            assert_eq!(fragment, frag.to_graph(&g), "threads = {threads}");
        }
    }

    #[test]
    fn governed_parallel_surfaces_budget_fault() {
        let g = chain_graph(200).freeze();
        let schema = chain_schema();
        for threads in [1, 2, 4] {
            let budget = Budget::unlimited().steps(5);
            let err = validate_batch_par(&schema, &g, threads, budget, None)
                .expect_err("five steps cannot validate 200 nodes");
            assert!(
                matches!(err, EngineError::BudgetExceeded { .. }),
                "threads = {threads}: {err:?}"
            );
            let err = validate_extract_fragment_par(&schema, &g, threads, budget, None)
                .expect_err("five steps cannot extract from 200 nodes");
            assert!(
                matches!(err, EngineError::BudgetExceeded { .. }),
                "threads = {threads}: {err:?}"
            );
        }
    }

    #[test]
    fn governed_parallel_observes_pre_cancelled_token() {
        let g = chain_graph(100).freeze();
        let schema = chain_schema();
        let token = CancelToken::new();
        token.cancel();
        let err = validate_batch_par(&schema, &g, 4, Budget::unlimited(), Some(&token))
            .expect_err("cancelled before start");
        assert_eq!(err, EngineError::Cancelled);
    }

    #[test]
    fn empty_schema_and_empty_graph_are_fine() {
        let g = Graph::default().freeze();
        let schema = Schema::empty();
        let report = validate(&schema, &g, 4);
        assert!(report.conforms());
        assert_eq!(report.checked, 0);
        let (_, frag, stats) =
            validate_extract_fragment_par(&schema, &g, 4, Budget::unlimited(), None).unwrap();
        assert!(frag.is_empty());
        assert_eq!(stats.units, 0);
    }
}
