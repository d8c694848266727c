//! The reach kernel's dense node sets and the sorted target lists.
//!
//! A [`Context`] runs every path evaluation and trace over visited sets it
//! takes from its path cache's free list and resets in O(pairs visited),
//! so a run can inherit whatever the previous one left behind. These tests
//! run many kernel runs back to back and nested (a qualify step that runs
//! further kernels while the outer run's sets are live) on one context and
//! check every answer against a fresh [`CompiledPath`], which allocates
//! its own sets. The same runs are repeated over a [`DeltaGraph`] whose
//! overlay interns terms past the frozen snapshot's term count, where the
//! dense sets must still cover every id. Target selection must return
//! sorted, duplicate-free nodes for a union of overlapping class targets.

use std::collections::BTreeSet;
use std::sync::Arc;

use shape_fragments::govern::{Budget, ExecCtx};
use shape_fragments::rdf::{DeltaGraph, Graph, GraphAccess, Iri, Term, TermId, Triple};
use shape_fragments::shacl::rpq::TraceSet;
use shape_fragments::shacl::validator::Context;
use shape_fragments::shacl::{CompiledPath, Nnf, PathCache, PathExpr, Schema, Shape};

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

/// A seeded graph over `n` nodes and the properties `p`, `q`, `r`, with
/// cycles, shared suffixes and nodes of every in/out degree.
fn seeded_graph(n: usize, edges: usize, seed: u64) -> Graph {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let props = ["p", "q", "r"];
    Graph::from_triples((0..edges).map(|_| {
        let (s, o, k) = (next() % n, next() % n, next() % props.len());
        t(&format!("n{s}"), props[k], &format!("n{o}"))
    }))
}

/// Paths of very different NFA sizes, so consecutive runs reuse sets
/// sized for other state counts.
fn paths() -> Vec<PathExpr> {
    vec![
        p("p").star(),
        p("p").then(p("q")),
        p("q").inverse().then(p("p").star()).then(p("r").opt()),
        p("p").or(p("q")).star(),
        p("r"),
        p("p")
            .inverse()
            .then(p("p"))
            .then(p("q").inverse().then(p("q")))
            .plus(),
        PathExpr::neg_props([iri("q")]).then(p("p").inverse()),
        p("q").inverse(),
        p("p")
            .then(p("p"))
            .then(p("p"))
            .or(p("r").then(p("q")).inverse()),
    ]
}

/// `⋃ᵢ ⟦E⟧(sources[i])` from a fresh compilation.
fn endpoints<G: GraphAccess>(c: &CompiledPath, g: &G, sources: &[TermId]) -> BTreeSet<TermId> {
    sources.iter().flat_map(|&v| c.eval_from(g, v)).collect()
}

/// Source sets of several sizes, repeats included.
fn source_sets(nodes: &[TermId]) -> Vec<Vec<TermId>> {
    let mut doubled: Vec<TermId> = nodes.iter().step_by(3).copied().collect();
    doubled.extend(nodes.iter().step_by(6).copied());
    vec![
        nodes.to_vec(),
        nodes.iter().step_by(2).copied().collect(),
        nodes.iter().take(1).copied().collect(),
        doubled,
        Vec::new(),
    ]
}

/// Runs every path over every source set on one context, back to back,
/// and compares each answer with a fresh compilation's.
fn back_to_back<G: GraphAccess>(g: &G, nodes: &[TermId]) {
    let schema = Schema::empty();
    let mut ctx = Context::new(&schema, g);
    for round in 0..2 {
        for e in &paths() {
            let c = CompiledPath::new(e, g);
            for sources in source_sets(nodes) {
                let reached = endpoints(&c, g, &sources);
                let half: BTreeSet<TermId> = reached.iter().copied().step_by(2).collect();
                for &v in sources.iter().take(4) {
                    assert_eq!(
                        ctx.eval_path(e, v),
                        c.eval_from(g, v),
                        "eval {e}, round {round}"
                    );
                }
                assert_eq!(
                    ctx.trace_path(e, &sources, Some(&half)),
                    c.trace(g, &sources, Some(&half)),
                    "trace {e}, round {round}"
                );
                let (trace, qualifying) = ctx.trace_qualifying(e, &sources, |_, found| {
                    assert_eq!(found, reached.iter().copied().collect::<Vec<_>>(), "{e}");
                    found.into_iter().step_by(3).collect()
                });
                let thirds: BTreeSet<TermId> = qualifying.iter().copied().collect();
                assert_eq!(trace, c.trace(g, &sources, Some(&thirds)), "qualifying {e}");
                assert!(trace.windows(2).all(|w| w[0] < w[1]), "sorted {e}");
                // ≥1 E.ψ for ψ = "is one of the qualifying endpoints", batch
                // against the fresh per-node oracle.
                let psi = Nnf::Or(
                    thirds
                        .iter()
                        .map(|&x| Nnf::HasValue(g.term(x).clone()))
                        .collect(),
                );
                let verdicts =
                    ctx.conforms_all_nnf(&sources, &Nnf::Geq(1, e.clone(), Box::new(psi)));
                for (i, &v) in sources.iter().enumerate() {
                    assert_eq!(
                        verdicts[i],
                        !c.eval_from(g, v).is_disjoint(&thirds),
                        "≥1 {e}"
                    );
                }
            }
        }
    }
    assert!(!ctx.faulted());
}

/// Reach runs nested three deep through the qualify step: each level's
/// answers must match a fresh compilation's although the outer levels'
/// sets are live (taken from the free list) while the inner ones run.
fn nested<G: GraphAccess>(g: &G, nodes: &[TermId]) {
    let schema = Schema::empty();
    let mut ctx = Context::new(&schema, g);
    let all = paths();
    for (k, outer) in all.iter().enumerate() {
        let middle = &all[(k + 1) % all.len()];
        let inner = &all[(k + 4) % all.len()];
        let (co, cm, ci) = (
            CompiledPath::new(outer, g),
            CompiledPath::new(middle, g),
            CompiledPath::new(inner, g),
        );
        let sources: Vec<TermId> = nodes.iter().step_by(2).copied().collect();
        let (trace, kept) = ctx.trace_qualifying(outer, &sources, |ctx, found| {
            let (mid_trace, mid_kept) = ctx.trace_qualifying(middle, &found, |ctx, found2| {
                let (in_trace, in_kept) = ctx.trace_qualifying(inner, &found2, |_, f3| f3);
                assert_eq!(in_trace, ci.trace(g, &found2, None), "inner {inner}");
                assert_eq!(
                    in_kept.iter().copied().collect::<BTreeSet<_>>(),
                    endpoints(&ci, g, &found2)
                );
                for &v in found2.iter().take(3) {
                    assert_eq!(ctx.eval_path(inner, v), ci.eval_from(g, v));
                }
                // Keep the middle endpoints that reach something by `inner`.
                found2
                    .into_iter()
                    .filter(|&x| !ci.eval_from(g, x).is_empty())
                    .collect()
            });
            let mid_set: BTreeSet<TermId> = mid_kept.iter().copied().collect();
            assert_eq!(
                mid_trace,
                cm.trace(g, &found, Some(&mid_set)),
                "middle {middle}"
            );
            // Keep the outer endpoints from which a kept middle endpoint is
            // reachable.
            found
                .into_iter()
                .filter(|&x| !cm.eval_from(g, x).is_disjoint(&mid_set))
                .collect()
        });
        let kept: BTreeSet<TermId> = kept.into_iter().collect();
        assert_eq!(trace, co.trace(g, &sources, Some(&kept)), "outer {outer}");
    }
    assert!(!ctx.faulted());
}

fn node_list<G: GraphAccess>(g: &G) -> Vec<TermId> {
    g.node_ids().into_iter().collect()
}

#[test]
fn back_to_back_reach_runs_on_one_context_match_fresh_oracles() {
    for seed in 1..4 {
        let g = seeded_graph(40, 90, seed);
        back_to_back(&g, &node_list(&g));
        let f = g.freeze();
        back_to_back(&f, &node_list(&f));
    }
}

#[test]
fn nested_reach_runs_on_one_context_match_fresh_oracles() {
    for seed in 4..8 {
        let g = seeded_graph(30, 80, seed);
        nested(&g, &node_list(&g));
        let f = g.freeze();
        nested(&f, &node_list(&f));
    }
}

/// A delta overlay whose added triples intern terms the snapshot does not
/// have: their ids are at or above the snapshot's term count.
fn delta_with_new_terms(seed: u64) -> (DeltaGraph, usize) {
    let base = seeded_graph(30, 70, seed).freeze();
    let frozen_terms = base.term_count();
    let mut d = DeltaGraph::new(Arc::new(base));
    let fresh = seeded_graph(45, 60, seed + 100);
    for triple in fresh.iter() {
        d.insert(&triple);
    }
    // Link the new region back into the old one, and drop a few old edges.
    for i in 0..10 {
        d.insert(&t(&format!("n{}", 30 + i), "p", &format!("n{i}")));
        d.insert(&t(&format!("n{i}"), "q", &format!("n{}", 40 - i)));
    }
    let old: Vec<Triple> = d.base().iter().step_by(7).collect();
    for triple in &old {
        d.remove(triple);
    }
    (d, frozen_terms)
}

#[test]
fn reach_runs_over_a_delta_overlay_cover_ids_past_the_snapshot() {
    for seed in 10..13 {
        let (d, frozen_terms) = delta_with_new_terms(seed);
        let nodes = node_list(&d);
        assert!(
            nodes.iter().any(|v| v.0 as usize >= frozen_terms),
            "the overlay interns new terms"
        );
        back_to_back(&d, &nodes);
        nested(&d, &nodes);
        // The new ids are reached, not just present.
        let c = CompiledPath::new(&p("p").or(p("q")).star(), &d);
        let reached = endpoints(&c, &d, &nodes[..5]);
        let schema = Schema::empty();
        let mut ctx = Context::new(&schema, &d);
        let got: BTreeSet<TermId> = nodes[..5]
            .iter()
            .flat_map(|&v| ctx.eval_path(&p("p").or(p("q")).star(), v))
            .collect();
        assert_eq!(got, reached);
        assert!(reached.iter().any(|v| v.0 as usize >= frozen_terms));
    }
}

#[test]
fn a_faulted_run_leaves_no_stale_pairs_for_the_next() {
    let g = seeded_graph(40, 120, 21);
    let nodes = node_list(&g);
    let mut cache = PathCache::new();
    for e in paths() {
        let c = CompiledPath::new(&e, &g);
        let tight = ExecCtx::with_budget(Budget::unlimited().steps(5));
        // A run cut off by its budget, mid-pass ...
        let _ = cache.try_trace(&e, &g, &nodes, None, &tight);
        let _ = cache.try_eval(&e, &g, nodes[0], &tight);
        // ... and the next runs on the same sets still answer exactly.
        let ctx = ExecCtx::unbounded();
        assert_eq!(
            cache.try_trace(&e, &g, &nodes, None, &ctx).unwrap(),
            c.trace(&g, &nodes, None),
            "{e}"
        );
        for &v in nodes.iter().take(5) {
            assert_eq!(cache.try_eval(&e, &g, v, &ctx).unwrap(), c.eval_from(&g, v));
        }
        assert_eq!(ctx.memory_used(), 0, "every charge is returned");
    }
}

#[test]
fn trace_sets_are_sorted_and_compare_with_btree_sets() {
    let g = seeded_graph(25, 70, 3);
    let nodes = node_list(&g);
    for e in paths() {
        let c = CompiledPath::new(&e, &g);
        let traced = c.trace(&g, &nodes, None);
        assert!(traced.windows(2).all(|w| w[0] < w[1]), "{e}");
        let as_btree: BTreeSet<_> = traced.iter().copied().collect();
        assert_eq!(traced, as_btree);
        let recollected: TraceSet = traced.iter().rev().chain(traced.iter()).copied().collect();
        assert_eq!(recollected, traced);
    }
}

#[test]
fn union_of_overlapping_class_targets_is_sorted_and_duplicate_free() {
    let class = |c: &str| Shape::geq(1, p("type"), Shape::has_value(term(c)));
    let class_closed = |c: &str| {
        Shape::geq(
            1,
            p("type").then(p("sub").star()),
            Shape::has_value(term(c)),
        )
    };
    // x and z are both C1 and C2; w is a C3 ⊑ C1; the ids interleave.
    let g = Graph::from_triples([
        t("z", "type", "C1"),
        t("x", "type", "C2"),
        t("y", "type", "C2"),
        t("x", "type", "C1"),
        t("w", "type", "C3"),
        t("C3", "sub", "C1"),
        t("z", "type", "C2"),
        t("v", "p", "x"),
    ]);
    let schema = Schema::empty();
    let targets = [
        class("C1").or(class("C2")),
        class("C2").or(class("C1")).or(class("C2")),
        class_closed("C1").or(class("C2")),
        class_closed("C1").or(class_closed("C3")),
        Shape::geq(1, p("type"), Shape::True).or(class("C1")),
        Shape::geq(1, p("type").inverse(), Shape::True).or(class("C3")),
        Shape::has_value(term("y"))
            .or(class("C2"))
            .or(Shape::has_value(term("x"))),
    ];
    for target in targets {
        let mut ctx = Context::new(&schema, &g);
        let fast = ctx.target_nodes(&target);
        assert!(fast.windows(2).all(|w| w[0] < w[1]), "{target}: {fast:?}");
        let slow: Vec<TermId> = g
            .node_ids()
            .into_iter()
            .filter(|&n| ctx.conforms(n, &target))
            .collect();
        assert_eq!(fast, slow, "{target}");
    }
}
