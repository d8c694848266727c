//! Neighborhoods: the provenance semantics for SHACL (§3, Table 2).
//!
//! The φ-neighborhood `B(v, G, φ)` of a node `v` in a graph `G` is the
//! subgraph of `G` consisting of the triples that *show* that `v` conforms
//! to φ; it is empty when `v` does not conform. The definition assumes φ in
//! negation normal form ([`Nnf`]), with negation only on atomic shapes.
//!
//! The implementation follows Table 2 case by case. For the quantifier
//! cases, all qualifying endpoints `x` are traced in one
//! [`Context::trace_path`] call (one backward product-BFS over the whole
//! endpoint set instead of one per endpoint); the batch collector
//! ([`collect_neighborhood_many`]) also traces all foci in one reach-kernel
//! run, which finds the endpoints too.
//!
//! The headline correctness property is **Sufficiency** (Theorem 3.4):
//! if `G, v ⊨ φ` then `G', v ⊨ φ` for every `G'` with
//! `B(v, G, φ) ⊆ G' ⊆ G`. It is exercised extensively by the property
//! tests in `tests/`.

use std::collections::BTreeSet;
use std::hash::BuildHasherDefault;

use shapefrag_rdf::graph::IntHasher;
use shapefrag_rdf::{Graph, GraphAccess, Term, TermId};
use shapefrag_shacl::path::PathExpr;
use shapefrag_shacl::shape::PathOrId;
use shapefrag_shacl::validator::{CmpOp, Context};
use shapefrag_shacl::{Nnf, Shape};

/// A set of id triples relative to one graph — the working representation
/// of a neighborhood during computation (hash-based: the accumulation is
/// hot in instrumented validation; materialized [`Graph`]s re-establish
/// canonical order).
pub type IdTriples =
    std::collections::HashSet<(TermId, TermId, TermId), BuildHasherDefault<IntHasher>>;

/// Computes the φ-neighborhood `B(v, G, φ)` of a node.
///
/// The shape is converted to negation normal form first; `v` not conforming
/// to φ yields the empty graph (Definition 3.2). Under a governed context a
/// resource fault truncates the result; [`Context::take_fault`] reports it.
pub fn neighborhood<G: GraphAccess>(ctx: &mut Context<'_, G>, v: TermId, shape: &Shape) -> Graph {
    let nnf = Nnf::from_shape(shape);
    materialize(ctx.graph, &neighborhood_nnf_ids(ctx, v, &nnf))
}

/// Computes `B(v, G, φ)` for a term-level focus node. Nodes absent from the
/// graph have empty (or graph-independent) neighborhoods.
pub fn neighborhood_term<G: GraphAccess>(
    ctx: &mut Context<'_, G>,
    v: &Term,
    shape: &Shape,
) -> Graph {
    match ctx.graph.id_of(v) {
        Some(id) => neighborhood(ctx, id, shape),
        None => Graph::new(),
    }
}

/// Computes the neighborhood as id triples for an NNF shape.
pub fn neighborhood_nnf_ids<G: GraphAccess>(
    ctx: &mut Context<'_, G>,
    v: TermId,
    shape: &Nnf,
) -> IdTriples {
    let mut out = IdTriples::default();
    if ctx.conforms_nnf(v, shape) {
        collect(ctx, v, shape, &mut out);
    }
    out
}

/// Set-at-a-time Table 2 collection: appends `⋃_i B(nodes[i], G, φ)` for
/// focus nodes the caller has already established to conform to φ.
///
/// Equals appending each node's `B(v, G, φ)` in turn, but each
/// quantifier path runs the reach kernel once for all foci
/// ([`Context::trace_qualifying`]): its forward pass yields the distinct
/// endpoints, its backward and edge passes trace every focus into the
/// qualifying set; and sub-neighborhoods of quantifier endpoints are
/// collected once per *distinct* endpoint instead of once per referencing
/// focus (the collection is focus-independent, so the unions coincide).
///
/// One trace suffices because every focus `vᵢ` is traced to `⟦E⟧(vᵢ) ∩ Q`
/// for a qualifying set `Q` shared by all foci (every endpoint for `∀` and
/// `eq`, the endpoints conforming to ψ for `≥n E.ψ`, to ¬ψ for `≤n E.ψ`),
/// and the multi-source trace to `Q` is exactly the union of those
/// per-focus traces.
pub fn collect_neighborhood_many<G: GraphAccess>(
    ctx: &mut Context<'_, G>,
    nodes: &[TermId],
    shape: &Nnf,
    out: &mut IdTriples,
) {
    collect_many(ctx, nodes, shape, out);
}

/// The recursive batch worker behind [`collect_neighborhood_many`].
/// Recursion on shape structure is depth-guarded and fault-sticky via the
/// context's governor.
fn collect_many<G: GraphAccess>(
    ctx: &mut Context<'_, G>,
    nodes: &[TermId],
    shape: &Nnf,
    out: &mut IdTriples,
) {
    if nodes.is_empty() {
        return;
    }
    if !ctx.guard_enter() {
        return;
    }
    collect_many_inner(ctx, nodes, shape, out);
    ctx.guard_leave();
}

fn collect_many_inner<G: GraphAccess>(
    ctx: &mut Context<'_, G>,
    nodes: &[TermId],
    shape: &Nnf,
    out: &mut IdTriples,
) {
    match shape {
        // Node-local shapes have empty neighborhoods (as in `collect`).
        Nnf::True
        | Nnf::False
        | Nnf::Test(_)
        | Nnf::NotTest(_)
        | Nnf::HasValue(_)
        | Nnf::NotHasValue(_)
        | Nnf::Closed(_)
        | Nnf::Disj(_, _)
        | Nnf::LessThan(_, _)
        | Nnf::LessThanEq(_, _)
        | Nnf::MoreThan(_, _)
        | Nnf::MoreThanEq(_, _)
        | Nnf::UniqueLang(_) => {}

        Nnf::Eq(PathOrId::Path(e), p) => {
            let union = e.clone().or(PathExpr::Prop(p.clone()));
            out.extend(ctx.trace_path(&union, nodes, None));
        }
        Nnf::Eq(PathOrId::Id, p) => {
            if let Some(pid) = ctx.graph.id_of_iri(p) {
                out.extend(nodes.iter().map(|&v| (v, pid, v)));
            }
        }

        Nnf::HasShape(name) => {
            let def = ctx.schema.def_nnf(name, false);
            collect_many(ctx, nodes, def, out);
        }
        Nnf::NotHasShape(name) => {
            let def = ctx.schema.def_nnf(name, true);
            collect_many(ctx, nodes, def, out);
        }

        // Rule 3: every focus conforms to the whole conjunction, hence to
        // each conjunct — no re-validation pass is needed.
        Nnf::And(items) => {
            for item in items {
                collect_many(ctx, nodes, item, out);
            }
        }
        // Rule 4: non-conforming disjuncts contribute the empty set, so
        // each disjunct collects only over its conforming foci.
        Nnf::Or(items) => {
            for item in items {
                let oks = ctx.conforms_all_nnf(nodes, item);
                let conforming: Vec<TermId> = nodes
                    .iter()
                    .zip(&oks)
                    .filter(|(_, ok)| **ok)
                    .map(|(&v, _)| v)
                    .collect();
                collect_many(ctx, &conforming, item, out);
            }
        }

        Nnf::Geq(_, e, inner) => {
            batch_quantifier(ctx, nodes, e, inner, out);
        }
        Nnf::Leq(_, e, inner) => {
            let negated = inner.negated();
            batch_quantifier(ctx, nodes, e, &negated, out);
        }
        Nnf::ForAll(e, inner) => {
            let (trace, endpoints) = ctx.trace_qualifying(e, nodes, |_, endpoints| endpoints);
            out.extend(trace);
            collect_many(ctx, &endpoints, inner, out);
        }

        // The remaining negated atoms have bounded, focus-local evidence;
        // collect per node.
        _ => {
            for &v in nodes {
                collect(ctx, v, shape, out);
            }
        }
    }
}

/// Shared machinery for batch `≥n E.ψ` / `≤n E.ψ` collection: the
/// qualifying endpoints `Q` are the foci's `E`-endpoints conforming to
/// `inner` (already the negated shape for `≤`), decided once per distinct
/// endpoint. One reach-kernel run finds the endpoints (forward pass) and
/// traces every focus's paths into `Q` (backward and edge passes), and each
/// endpoint in `Q` has its `inner`-neighborhood collected once.
fn batch_quantifier<G: GraphAccess>(
    ctx: &mut Context<'_, G>,
    nodes: &[TermId],
    e: &PathExpr,
    inner: &Nnf,
    out: &mut IdTriples,
) {
    let (trace, qualifying) = ctx.trace_qualifying(e, nodes, |ctx, endpoints| {
        let decided = ctx.conforms_all_nnf(&endpoints, inner);
        endpoints
            .into_iter()
            .zip(decided)
            .filter(|&(_, ok)| ok)
            .map(|(x, _)| x)
            .collect()
    });
    out.extend(trace);
    collect_many(ctx, &qualifying, inner, out);
}

/// Materializes id triples into a [`Graph`].
pub fn materialize<G: GraphAccess>(graph: &G, triples: &IdTriples) -> Graph {
    let mut g = Graph::new();
    for &(s, p, o) in triples {
        g.insert(graph.triple_of(s, p, o));
    }
    g
}

/// Single-pass instrumented conformance: decides `G, v ⊨ φ` **and**
/// journals the neighborhood `B(v, G, φ)` in the same traversal — the
/// "lightweight adaptation of a validation engine" of §5.2. Evidence is
/// appended to `journal`; sub-results that turn out not to conform are
/// rolled back by truncation, so on a `true` return the journal holds
/// exactly the triples of `B(v, G, φ)` (possibly with duplicates).
///
/// The journal is only valid when the function returns `true`; callers
/// should `clear()` it between focus nodes (reusing the allocation).
pub fn conforms_and_collect<G: GraphAccess>(
    ctx: &mut Context<'_, G>,
    v: TermId,
    shape: &Nnf,
    journal: &mut Vec<(TermId, TermId, TermId)>,
) -> bool {
    let mark = journal.len();
    let ok = validate_collect(ctx, v, shape, journal);
    if !ok {
        journal.truncate(mark);
    }
    ok
}

/// The recursive worker: appends evidence optimistically and lets callers
/// truncate on failure. Fault-sticky: once the governor trips, every call
/// answers `false` so the instrumented traversal unwinds quickly.
fn validate_collect<G: GraphAccess>(
    ctx: &mut Context<'_, G>,
    v: TermId,
    shape: &Nnf,
    journal: &mut Vec<(TermId, TermId, TermId)>,
) -> bool {
    if !ctx.guard_enter() {
        return false;
    }
    let out = validate_collect_inner(ctx, v, shape, journal);
    ctx.guard_leave();
    out
}

fn validate_collect_inner<G: GraphAccess>(
    ctx: &mut Context<'_, G>,
    v: TermId,
    shape: &Nnf,
    journal: &mut Vec<(TermId, TermId, TermId)>,
) -> bool {
    match shape {
        // Node-local atoms: no evidence, plain checks.
        Nnf::True
        | Nnf::False
        | Nnf::Test(_)
        | Nnf::NotTest(_)
        | Nnf::HasValue(_)
        | Nnf::NotHasValue(_)
        | Nnf::Closed(_)
        | Nnf::Disj(_, _)
        | Nnf::LessThan(_, _)
        | Nnf::LessThanEq(_, _)
        | Nnf::MoreThan(_, _)
        | Nnf::MoreThanEq(_, _)
        | Nnf::UniqueLang(_) => ctx.conforms_nnf(v, shape),

        Nnf::HasShape(name) => {
            let def = ctx.schema.def_nnf(name, false);
            validate_collect(ctx, v, def, journal)
        }
        Nnf::NotHasShape(name) => {
            let def = ctx.schema.def_nnf(name, true);
            validate_collect(ctx, v, def, journal)
        }

        Nnf::And(items) => {
            let mark = journal.len();
            for item in items {
                if !conforms_and_collect(ctx, v, item, journal) {
                    journal.truncate(mark);
                    return false;
                }
            }
            true
        }
        Nnf::Or(items) => {
            let mut any = false;
            for item in items {
                // Conforming disjuncts each contribute their evidence.
                any |= conforms_and_collect(ctx, v, item, journal);
            }
            any
        }

        Nnf::Geq(n, e, inner) => {
            let candidates = ctx.eval_path(e, v);
            let qualifying: BTreeSet<TermId> = if matches!(inner.as_ref(), Nnf::True) {
                candidates
            } else {
                candidates
                    .into_iter()
                    .filter(|&x| conforms_and_collect(ctx, x, inner, journal))
                    .collect()
            };
            if (qualifying.len() as u64) < *n as u64 {
                return false;
            }
            append_trace(ctx, e, v, &qualifying, journal);
            true
        }
        Nnf::Leq(n, e, inner) => {
            let negated = inner.negated();
            let candidates = ctx.eval_path(e, v);
            let mut conforming: u64 = 0;
            let mut witnesses: BTreeSet<TermId> = BTreeSet::new();
            for x in candidates {
                if conforms_and_collect(ctx, x, &negated, journal) {
                    witnesses.insert(x);
                } else {
                    conforming += 1;
                    if conforming > *n as u64 {
                        // Already too many ψ-conformers: fail fast; the
                        // caller rolls the journal back.
                        return false;
                    }
                }
            }
            append_trace(ctx, e, v, &witnesses, journal);
            true
        }
        Nnf::ForAll(e, inner) => {
            let endpoints = ctx.eval_path(e, v);
            if !matches!(inner.as_ref(), Nnf::True) {
                for &x in &endpoints {
                    if !conforms_and_collect(ctx, x, inner, journal) {
                        return false;
                    }
                }
            }
            append_trace(ctx, e, v, &endpoints, journal);
            true
        }

        // The remaining (pair / negated-atom) cases have bounded evidence;
        // decide via the validator and reuse the Table 2 collector.
        _ => {
            if !ctx.conforms_nnf(v, shape) {
                return false;
            }
            let mut out = IdTriples::default();
            collect(ctx, v, shape, &mut out);
            journal.extend(out);
            true
        }
    }
}

/// Appends `graph(paths(E, G, v, targets))`, with a direct fast path for
/// plain properties (the overwhelmingly common case).
fn append_trace<G: GraphAccess>(
    ctx: &mut Context<'_, G>,
    e: &PathExpr,
    v: TermId,
    targets: &BTreeSet<TermId>,
    journal: &mut Vec<(TermId, TermId, TermId)>,
) {
    if targets.is_empty() {
        return;
    }
    match e {
        PathExpr::Prop(p) => {
            if let Some(pid) = ctx.graph.id_of_iri(p) {
                // Every target is a p-object of v (targets ⊆ ⟦p⟧(v)).
                journal.extend(targets.iter().map(|&x| (v, pid, x)));
            }
        }
        PathExpr::Inverse(inner) if matches!(inner.as_ref(), PathExpr::Prop(_)) => {
            let PathExpr::Prop(p) = inner.as_ref() else {
                unreachable!()
            };
            if let Some(pid) = ctx.graph.id_of_iri(p) {
                journal.extend(targets.iter().map(|&x| (x, pid, v)));
            }
        }
        _ => {
            journal.extend(ctx.trace_path(e, &[v], Some(targets)));
        }
    }
}

/// Table 2, assuming `ctx.graph, v ⊨ shape` (checked by the caller).
/// Depth-guarded and fault-sticky via the context's governor.
fn collect<G: GraphAccess>(ctx: &mut Context<'_, G>, v: TermId, shape: &Nnf, out: &mut IdTriples) {
    if !ctx.guard_enter() {
        return;
    }
    collect_inner(ctx, v, shape, out);
    ctx.guard_leave();
}

fn collect_inner<G: GraphAccess>(
    ctx: &mut Context<'_, G>,
    v: TermId,
    shape: &Nnf,
    out: &mut IdTriples,
) {
    match shape {
        // Node-local shapes have empty neighborhoods: they involve no
        // triples (§3.1 "Node tests", "Closedness", "Disjointness").
        Nnf::True
        | Nnf::False
        | Nnf::Test(_)
        | Nnf::NotTest(_)
        | Nnf::HasValue(_)
        | Nnf::NotHasValue(_)
        | Nnf::Closed(_)
        | Nnf::Disj(_, _)
        | Nnf::LessThan(_, _)
        | Nnf::LessThanEq(_, _)
        | Nnf::MoreThan(_, _)
        | Nnf::MoreThanEq(_, _)
        | Nnf::UniqueLang(_) => {}

        // eq(E, p) has a *non-empty* neighborhood even though conformance
        // could hold trivially: the traced paths evidence that the two sets
        // of end-nodes are equal, which keeps the definition relaxable
        // (§3.1 "Equality").
        Nnf::Eq(PathOrId::Path(e), p) => {
            let union = e.clone().or(PathExpr::Prop(p.clone()));
            let endpoints = ctx.eval_path(&union, v);
            out.extend(ctx.trace_path(&union, &[v], Some(&endpoints)));
        }
        Nnf::Eq(PathOrId::Id, p) => {
            // {(v, p, v)}; conformance guarantees the triple is in G.
            if let Some(pid) = ctx.graph.id_of_iri(p) {
                out.insert((v, pid, v));
            }
        }

        // Rules 1–2: dereference shape names; negation is pushed through
        // the definition.
        Nnf::HasShape(name) => {
            let def = ctx.schema.def_nnf(name, false);
            collect(ctx, v, def, out);
        }
        Nnf::NotHasShape(name) => {
            let def = ctx.schema.def_nnf(name, true);
            collect(ctx, v, def, out);
        }

        // Rules 3–4: conjunction and disjunction both take the union of the
        // member neighborhoods (non-conforming disjuncts contribute the
        // empty set by Definition 3.2).
        Nnf::And(items) | Nnf::Or(items) => {
            for item in items {
                if ctx.conforms_nnf(v, item) {
                    collect(ctx, v, item, out);
                }
            }
        }

        // ≥n E.ψ: all E-paths to conforming endpoints, plus the endpoints'
        // own ψ-neighborhoods. All qualifying x are kept (deterministic
        // definition, §3.1 "Quantifiers").
        Nnf::Geq(_, e, inner) => {
            let candidates = ctx.eval_path(e, v);
            // ⊤ endpoints: every candidate qualifies and contributes no
            // sub-neighborhood — skip the per-endpoint recursion.
            if matches!(inner.as_ref(), Nnf::True) {
                out.extend(ctx.trace_path(e, &[v], Some(&candidates)));
                return;
            }
            let qualifying: BTreeSet<TermId> = candidates
                .into_iter()
                .filter(|x| ctx.conforms_nnf(*x, inner))
                .collect();
            out.extend(ctx.trace_path(e, &[v], Some(&qualifying)));
            for x in qualifying {
                collect(ctx, x, inner, out);
            }
        }

        // ≤n E.ψ: dually, the E-paths to endpoints *not* conforming to ψ,
        // plus their ¬ψ-neighborhoods.
        Nnf::Leq(_, e, inner) => {
            let negated = inner.negated();
            let candidates = ctx.eval_path(e, v);
            let qualifying: BTreeSet<TermId> = candidates
                .into_iter()
                .filter(|x| ctx.conforms_nnf(*x, &negated))
                .collect();
            out.extend(ctx.trace_path(e, &[v], Some(&qualifying)));
            for x in qualifying {
                collect(ctx, x, &negated, out);
            }
        }

        // ∀E.ψ: all E-paths and all endpoint ψ-neighborhoods.
        Nnf::ForAll(e, inner) => {
            let endpoints = ctx.eval_path(e, v);
            out.extend(ctx.trace_path(e, &[v], Some(&endpoints)));
            if matches!(inner.as_ref(), Nnf::True) {
                return;
            }
            for x in endpoints {
                collect(ctx, x, inner, out);
            }
        }

        // ¬eq(E, p): E-paths to nodes that are not p-values, plus p-triples
        // to nodes not E-reachable.
        Nnf::NotEq(PathOrId::Path(e), p) => {
            let reachable = ctx.eval_path(e, v);
            let p_values = prop_objects(ctx.graph, v, p);
            let only_e: BTreeSet<TermId> = reachable.difference(&p_values).copied().collect();
            out.extend(ctx.trace_path(e, &[v], Some(&only_e)));
            if let Some(pid) = ctx.graph.id_of_iri(p) {
                for x in p_values.difference(&reachable) {
                    out.insert((v, pid, *x));
                }
            }
        }
        // ¬eq(id, p): the p-triples to nodes other than v.
        Nnf::NotEq(PathOrId::Id, p) => {
            if let Some(pid) = ctx.graph.id_of_iri(p) {
                let objs: Vec<TermId> = ctx.graph.objects_ids(v, pid).collect();
                for x in objs {
                    if x != v {
                        out.insert((v, pid, x));
                    }
                }
            }
        }

        // ¬disj(E, p): common witnesses — the E-paths to each x that is
        // also a p-value, plus the p-triple itself.
        Nnf::NotDisj(PathOrId::Path(e), p) => {
            let reachable = ctx.eval_path(e, v);
            let p_values = prop_objects(ctx.graph, v, p);
            let common: BTreeSet<TermId> = reachable.intersection(&p_values).copied().collect();
            out.extend(ctx.trace_path(e, &[v], Some(&common)));
            if let Some(pid) = ctx.graph.id_of_iri(p) {
                for x in &common {
                    out.insert((v, pid, *x));
                }
            }
        }
        // ¬disj(id, p): the self-loop.
        Nnf::NotDisj(PathOrId::Id, p) => {
            if let Some(pid) = ctx.graph.id_of_iri(p) {
                out.insert((v, pid, v));
            }
        }

        // ¬lessThan(E, p) / ¬lessThanEq(E, p): the witnessing pairs (x, y)
        // with x ≮ y (resp. x ≰ y): E-paths to x plus the p-triple to y.
        Nnf::NotLessThan(e, p) => {
            collect_not_cmp(ctx, v, e, p, CmpOp::Lt, out);
        }
        Nnf::NotLessThanEq(e, p) => {
            collect_not_cmp(ctx, v, e, p, CmpOp::Le, out);
        }
        Nnf::NotMoreThan(e, p) => {
            collect_not_cmp(ctx, v, e, p, CmpOp::Gt, out);
        }
        Nnf::NotMoreThanEq(e, p) => {
            collect_not_cmp(ctx, v, e, p, CmpOp::Ge, out);
        }

        // ¬uniqueLang(E): E-paths to every x that shares a language tag
        // with some other E-value.
        Nnf::NotUniqueLang(e) => {
            let values: Vec<TermId> = ctx.eval_path(e, v).into_iter().collect();
            let mut clashing: BTreeSet<TermId> = BTreeSet::new();
            for (i, &x) in values.iter().enumerate() {
                let Term::Literal(lx) = ctx.graph.term(x) else {
                    continue;
                };
                for (j, &y) in values.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    if let Term::Literal(ly) = ctx.graph.term(y) {
                        if lx.same_language(ly) {
                            clashing.insert(x);
                            break;
                        }
                    }
                }
            }
            out.extend(ctx.trace_path(e, &[v], Some(&clashing)));
        }

        // ¬closed(P): the offending triples with properties outside P.
        Nnf::NotClosed(allowed) => {
            let edges: Vec<(TermId, TermId)> = ctx.graph.out_edges_ids(v).collect();
            for (pid, x) in edges {
                let keep = match ctx.graph.term(pid) {
                    Term::Iri(iri) => !allowed.contains(iri),
                    _ => true,
                };
                if keep {
                    out.insert((v, pid, x));
                }
            }
        }
    }
}

fn collect_not_cmp<G: GraphAccess>(
    ctx: &mut Context<'_, G>,
    v: TermId,
    e: &PathExpr,
    p: &shapefrag_rdf::Iri,
    op: CmpOp,
    out: &mut IdTriples,
) {
    let reachable = ctx.eval_path(e, v);
    let p_values = prop_objects(ctx.graph, v, p);
    let Some(pid) = ctx.graph.id_of_iri(p) else {
        return;
    };
    let mut witnesses_x: BTreeSet<TermId> = BTreeSet::new();
    for &x in &reachable {
        for &y in &p_values {
            if !literal_cmp(ctx.graph, x, y, op) {
                witnesses_x.insert(x);
                out.insert((v, pid, y));
            }
        }
    }
    out.extend(ctx.trace_path(e, &[v], Some(&witnesses_x)));
}

/// `x OP y` as literals; `false` when either is not a literal or the
/// values are incomparable.
fn literal_cmp<G: GraphAccess>(graph: &G, x: TermId, y: TermId, op: CmpOp) -> bool {
    let (Term::Literal(lx), Term::Literal(ly)) = (graph.term(x), graph.term(y)) else {
        return false;
    };
    op.holds(lx.value().partial_cmp_value(&ly.value()))
}

fn prop_objects<G: GraphAccess>(graph: &G, v: TermId, p: &shapefrag_rdf::Iri) -> BTreeSet<TermId> {
    match graph.id_of_iri(p) {
        Some(pid) => graph.objects_ids(v, pid).collect(),
        None => BTreeSet::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapefrag_rdf::{Iri, Literal, Triple};
    use shapefrag_shacl::Schema;

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

    fn nbh(g: &Graph, node: &str, shape: &Shape) -> Graph {
        let schema = Schema::empty();
        let mut ctx = Context::new(&schema, g);
        neighborhood_term(&mut ctx, &term(node), shape)
    }

    #[test]
    fn example_1_2_workshop_neighborhood() {
        // The neighborhood of a conforming paper consists of its author
        // triples to students plus the student-type triples.
        let g = Graph::from_triples([
            t("p1", "author", "alice"),
            t("alice", "type", "Student"),
            t("p1", "author", "bob"),
            t("bob", "type", "Professor"),
            t("other", "author", "zoe"),
        ]);
        let shape = Shape::geq(
            1,
            p("author"),
            Shape::geq(1, p("type"), Shape::has_value(term("Student"))),
        );
        let b = nbh(&g, "p1", &shape);
        let expected =
            Graph::from_triples([t("p1", "author", "alice"), t("alice", "type", "Student")]);
        assert_eq!(b, expected);
    }

    #[test]
    fn non_conforming_node_has_empty_neighborhood() {
        let g = Graph::from_triples([t("a", "q", "b")]);
        let shape = Shape::geq(1, p("p"), Shape::True);
        assert!(nbh(&g, "a", &shape).is_empty());
    }

    #[test]
    fn node_local_shapes_have_empty_neighborhoods() {
        let g = Graph::from_triples([t("a", "p", "b")]);
        assert!(nbh(&g, "a", &Shape::True).is_empty());
        assert!(nbh(&g, "a", &Shape::has_value(term("a"))).is_empty());
        assert!(nbh(&g, "a", &Shape::Closed([iri("p")].into())).is_empty());
        assert!(nbh(&g, "a", &Shape::Disj(PathOrId::Path(p("zz")), iri("p"))).is_empty());
        assert!(nbh(&g, "a", &Shape::UniqueLang(p("p"))).is_empty());
        assert!(nbh(&g, "a", &Shape::LessThan(p("zz"), iri("ww"))).is_empty());
    }

    #[test]
    fn example_3_3_not_disjoint() {
        let g = Graph::from_triples([
            t("v", "friend", "x"),
            t("v", "colleague", "x"),
            t("v", "friend", "y"),
            t("v", "colleague", "z"),
        ]);
        let shape = Shape::Disj(PathOrId::Path(p("friend")), iri("colleague")).not();
        let b = nbh(&g, "v", &shape);
        let expected = Graph::from_triples([t("v", "friend", "x"), t("v", "colleague", "x")]);
        assert_eq!(b, expected);
    }

    #[test]
    fn example_3_5_two_constraints() {
        // G: paper p1, authors Anne (prof) and Bob (student).
        let g = Graph::from_triples([
            t("p1", "type", "paper"),
            t("p1", "auth", "Anne"),
            t("p1", "auth", "Bob"),
            t("Anne", "type", "prof"),
            t("Bob", "type", "student"),
        ]);
        let tau = Shape::geq(1, p("type"), Shape::has_value(term("paper")));
        let phi1 = Shape::geq(1, p("auth"), Shape::True);
        // φ2 = ≤1 auth.≤0 type.hasValue(student)  (already in NNF)
        let phi2 = Shape::leq(
            1,
            p("auth"),
            Shape::leq(0, p("type"), Shape::has_value(term("student"))),
        );

        let b1 = nbh(&g, "p1", &phi1.clone().and(tau.clone()));
        let expected1 = Graph::from_triples([
            t("p1", "type", "paper"),
            t("p1", "auth", "Anne"),
            t("p1", "auth", "Bob"),
        ]);
        assert_eq!(b1, expected1);

        let b2 = nbh(&g, "p1", &phi2.clone().and(tau.clone()));
        let expected2 = Graph::from_triples([
            t("p1", "type", "paper"),
            t("p1", "auth", "Bob"),
            t("Bob", "type", "student"),
        ]);
        assert_eq!(b2, expected2);
    }

    #[test]
    fn geq_includes_all_witnesses_not_just_n() {
        // Remark 3.6: ≥1 a.⊤ with two a-triples keeps both (determinism).
        let g = Graph::from_triples([t("v", "a", "x"), t("v", "a", "y")]);
        let b = nbh(&g, "v", &Shape::geq(1, p("a"), Shape::True));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn eq_traces_both_sides() {
        let g = Graph::from_triples([t("v", "e", "x"), t("v", "p", "x"), t("q", "p", "r")]);
        let b = nbh(&g, "v", &Shape::Eq(PathOrId::Path(p("e")), iri("p")));
        let expected = Graph::from_triples([t("v", "e", "x"), t("v", "p", "x")]);
        assert_eq!(b, expected);
    }

    #[test]
    fn eq_trivially_true_still_empty_sides() {
        // v has neither e nor p edges: conforms, neighborhood empty.
        let g = Graph::from_triples([t("other", "e", "x")]);
        let b = nbh(&g, "v", &Shape::Eq(PathOrId::Path(p("e")), iri("p")));
        assert!(b.is_empty());
    }

    #[test]
    fn eq_id_self_loop() {
        let g = Graph::from_triples([t("v", "p", "v")]);
        let b = nbh(&g, "v", &Shape::Eq(PathOrId::Id, iri("p")));
        assert_eq!(b, Graph::from_triples([t("v", "p", "v")]));
    }

    #[test]
    fn not_eq_keeps_one_sided_witnesses() {
        // e reaches x (not a p-value); p reaches y (not e-reachable).
        let g = Graph::from_triples([
            t("v", "e", "x"),
            t("v", "p", "y"),
            t("v", "e", "z"),
            t("v", "p", "z"),
        ]);
        let b = nbh(&g, "v", &Shape::Eq(PathOrId::Path(p("e")), iri("p")).not());
        // z is in both sets: its triples are *not* in the neighborhood.
        let expected = Graph::from_triples([t("v", "e", "x"), t("v", "p", "y")]);
        assert_eq!(b, expected);
    }

    #[test]
    fn not_eq_id_keeps_non_loops() {
        let g = Graph::from_triples([t("v", "p", "v"), t("v", "p", "w")]);
        let b = nbh(&g, "v", &Shape::Eq(PathOrId::Id, iri("p")).not());
        assert_eq!(b, Graph::from_triples([t("v", "p", "w")]));
    }

    #[test]
    fn not_disj_id_self_loop() {
        let g = Graph::from_triples([t("v", "p", "v"), t("v", "p", "w")]);
        let b = nbh(&g, "v", &Shape::Disj(PathOrId::Id, iri("p")).not());
        assert_eq!(b, Graph::from_triples([t("v", "p", "v")]));
    }

    #[test]
    fn not_less_than_witnesses() {
        let five = Term::Literal(Literal::integer(5));
        let three = Term::Literal(Literal::integer(3));
        let nine = Term::Literal(Literal::integer(9));
        let g = Graph::from_triples([
            Triple::new(term("v"), iri("e"), five.clone()),
            Triple::new(term("v"), iri("p"), three.clone()),
            Triple::new(term("v"), iri("p"), nine.clone()),
        ]);
        let b = nbh(&g, "v", &Shape::LessThan(p("e"), iri("p")).not());
        // Witness pair: (5, 3) since 5 ≮ 3. The pair (5, 9) is fine.
        let expected = Graph::from_triples([
            Triple::new(term("v"), iri("e"), five),
            Triple::new(term("v"), iri("p"), three),
        ]);
        assert_eq!(b, expected);
    }

    #[test]
    fn not_unique_lang_traces_clashing_values() {
        let en1 = Term::Literal(Literal::lang_string("hello", "en"));
        let en2 = Term::Literal(Literal::lang_string("hi", "en"));
        let de = Term::Literal(Literal::lang_string("hallo", "de"));
        let g = Graph::from_triples([
            Triple::new(term("v"), iri("l"), en1.clone()),
            Triple::new(term("v"), iri("l"), en2.clone()),
            Triple::new(term("v"), iri("l"), de),
        ]);
        let b = nbh(&g, "v", &Shape::UniqueLang(p("l")).not());
        let expected = Graph::from_triples([
            Triple::new(term("v"), iri("l"), en1),
            Triple::new(term("v"), iri("l"), en2),
        ]);
        assert_eq!(b, expected);
    }

    #[test]
    fn not_closed_keeps_outside_properties() {
        let g = Graph::from_triples([t("v", "p", "x"), t("v", "q", "y"), t("v", "r", "z")]);
        let b = nbh(&g, "v", &Shape::Closed([iri("p")].into()).not());
        let expected = Graph::from_triples([t("v", "q", "y"), t("v", "r", "z")]);
        assert_eq!(b, expected);
    }

    #[test]
    fn forall_traces_paths_and_endpoint_neighborhoods() {
        let g = Graph::from_triples([
            t("v", "p", "x"),
            t("x", "type", "C"),
            t("v", "p", "y"),
            t("y", "type", "C"),
            t("w", "p", "z"),
        ]);
        let shape = Shape::for_all(
            p("p"),
            Shape::geq(1, p("type"), Shape::has_value(term("C"))),
        );
        let b = nbh(&g, "v", &shape);
        let expected = Graph::from_triples([
            t("v", "p", "x"),
            t("x", "type", "C"),
            t("v", "p", "y"),
            t("y", "type", "C"),
        ]);
        assert_eq!(b, expected);
    }

    #[test]
    fn leq_traces_negated_witnesses() {
        // ≤1 auth.student-check from Example 3.5, in isolation: witnesses
        // are the authors that are NOT student-free, i.e. Bob.
        let g = Graph::from_triples([
            t("v", "auth", "anne"),
            t("v", "auth", "bob"),
            t("bob", "type", "student"),
        ]);
        let shape = Shape::leq(
            1,
            p("auth"),
            Shape::leq(0, p("type"), Shape::has_value(term("student"))),
        );
        let b = nbh(&g, "v", &shape);
        let expected = Graph::from_triples([t("v", "auth", "bob"), t("bob", "type", "student")]);
        assert_eq!(b, expected);
    }

    #[test]
    fn has_shape_dereferences_definition() {
        let schema = Schema::new([shapefrag_shacl::ShapeDef::new(
            term("S"),
            Shape::geq(1, p("a"), Shape::True),
            Shape::False,
        )])
        .unwrap();
        let g = Graph::from_triples([t("v", "a", "x")]);
        let mut ctx = Context::new(&schema, &g);
        let v = g.id_of(&term("v")).unwrap();
        let b = neighborhood(&mut ctx, v, &Shape::HasShape(term("S")));
        assert_eq!(b, Graph::from_triples([t("v", "a", "x")]));
        // ¬hasShape on a non-conforming node: neighborhood of the negated
        // definition.
        let g2 = Graph::from_triples([t("v", "b", "x")]);
        let mut ctx2 = Context::new(&schema, &g2);
        let v2 = g2.id_of(&term("v")).unwrap();
        let b2 = neighborhood(&mut ctx2, v2, &Shape::HasShape(term("S")).not());
        assert!(b2.is_empty()); // ≤0 a.⊤ has no witnesses
    }

    #[test]
    fn why_not_provenance_via_negation() {
        // Remark 3.7: v does not conform to ∀p.hasValue(c); the neighborhood
        // of the negation explains why (the offending p-edge).
        let g = Graph::from_triples([t("v", "p", "c"), t("v", "p", "d")]);
        let shape = Shape::for_all(p("p"), Shape::has_value(term("c")));
        assert!(nbh(&g, "v", &shape).is_empty());
        let why_not = nbh(&g, "v", &shape.not());
        assert_eq!(why_not, Graph::from_triples([t("v", "p", "d")]));
    }

    #[test]
    fn neighborhood_is_always_subgraph() {
        let g = Graph::from_triples([t("a", "p", "b"), t("b", "q", "c"), t("a", "r", "c")]);
        let shapes = [
            Shape::geq(1, p("p").then(p("q")), Shape::True),
            Shape::for_all(p("p").or(p("r")), Shape::True),
            Shape::Eq(PathOrId::Path(p("p")), iri("r")).not(),
        ];
        for shape in &shapes {
            let b = nbh(&g, "a", shape);
            assert!(b.is_subgraph_of(&g), "not a subgraph for {shape}");
        }
    }

    #[test]
    fn single_pass_agrees_with_two_pass() {
        // conforms_and_collect must agree with (conforms_nnf, Table 2
        // collection) on every node and a spread of shape forms.
        let g = Graph::from_triples([
            t("p1", "author", "alice"),
            t("alice", "type", "Student"),
            t("p1", "author", "bob"),
            t("bob", "type", "Professor"),
            t("p1", "type", "Paper"),
            t("v", "friend", "x"),
            t("v", "colleague", "x"),
            t("loop", "p", "loop"),
        ]);
        let shapes = [
            Shape::geq(
                1,
                p("author"),
                Shape::geq(1, p("type"), Shape::has_value(term("Student"))),
            ),
            Shape::leq(
                1,
                p("author"),
                Shape::leq(0, p("type"), Shape::has_value(term("Student"))),
            ),
            Shape::for_all(p("author"), Shape::geq(1, p("type"), Shape::True)),
            Shape::geq(2, p("author"), Shape::True),
            Shape::geq(5, p("author"), Shape::True), // fails: journal must roll back
            Shape::Eq(PathOrId::Path(p("friend")), iri("colleague")),
            Shape::Disj(PathOrId::Path(p("friend")), iri("colleague")).not(),
            Shape::Closed([iri("p")].into()).not(),
            Shape::geq(1, p("author"), Shape::True).or(Shape::geq(1, p("friend"), Shape::True)),
            Shape::geq(1, p("author"), Shape::True).and(Shape::geq(
                1,
                p("type"),
                Shape::has_value(term("Paper")),
            )),
            Shape::geq(1, p("author"), Shape::True).and(Shape::geq(1, p("zzz"), Shape::True)), // And failure rollback
        ];
        let schema = Schema::empty();
        let mut ctx = Context::new(&schema, &g);
        let mut journal = Vec::new();
        for shape in &shapes {
            let nnf = Nnf::from_shape(shape);
            for v in g.node_ids() {
                journal.clear();
                let single = conforms_and_collect(&mut ctx, v, &nnf, &mut journal);
                let two_pass = ctx.conforms_nnf(v, &nnf);
                assert_eq!(
                    single,
                    two_pass,
                    "verdicts differ for {shape} at {}",
                    g.term(v)
                );
                let expected = neighborhood_nnf_ids(&mut ctx, v, &nnf);
                let got: IdTriples = journal.iter().copied().collect();
                assert_eq!(
                    got,
                    expected,
                    "evidence differs for {shape} at {}",
                    g.term(v)
                );
            }
        }
    }

    #[test]
    fn or_collects_only_conforming_disjuncts() {
        let g = Graph::from_triples([t("v", "p", "x")]);
        let shape = Shape::geq(1, p("p"), Shape::True).or(Shape::geq(1, p("q"), Shape::True));
        let b = nbh(&g, "v", &shape);
        assert_eq!(b, Graph::from_triples([t("v", "p", "x")]));
    }
}
