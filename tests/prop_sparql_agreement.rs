//! Differential property tests for the SPARQL translation (§5.1):
//! Lemma 5.1, Proposition 5.3, and Corollary 5.5 checked against the
//! native implementations on random inputs, for both evaluator
//! configurations; and the generated queries answer over the incremental
//! engine's frozen graph as over a graph that replayed the same edits.

mod common;

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

use common::{graph_strategy, object_term, path_strategy, pred, shape_strategy};
use shape_fragments::core::neighborhood::neighborhood_term;
use shape_fragments::core::to_sparql::{
    conformance_query, fragment_query, fragment_via_sparql, neighborhoods_via_sparql, path_query,
};
use shape_fragments::core::{fragment, EditOp, EditScript, IncrementalValidator};
use shape_fragments::govern::{Budget, ExecCtx};
use shape_fragments::rdf::{GraphAccess, Term, Triple};
use shape_fragments::shacl::rpq::CompiledPath;
use shape_fragments::shacl::validator::Context;
use shape_fragments::shacl::{Schema, Shape, ShapeDef};
use shape_fragments::sparql::eval::{
    bindings_to_graph, eval_select, eval_select_governed, EvalConfig,
};

/// One random edit over the universe the graphs draw from.
fn edit_strategy() -> impl Strategy<Value = EditOp> {
    (
        any::<bool>(),
        prop_oneof![4 => (0u8..6).prop_map(common::node_term), 1 => Just(Term::blank("b0"))],
        0u8..3,
        object_term(),
    )
        .prop_map(|(add, s, p, o)| {
            let triple = Triple::new(s, pred(p), o);
            if add {
                EditOp::Add(triple)
            } else {
                EditOp::Remove(triple)
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lemma 5.1 (1): the `(?t, ?h)` projection of `Q_E` equals `⟦E⟧^G`
    /// restricted to `N(G)`.
    #[test]
    fn path_query_reachability(
        g in graph_strategy(10),
        path in path_strategy(),
    ) {
        let q = path_query(&path);
        let rows = eval_select(&g, &q, &EvalConfig::indexed()).unwrap();
        let via_query: BTreeSet<(Term, Term)> = rows
            .iter()
            .filter_map(|b| Some((b.get("t")?.clone(), b.get("h")?.clone())))
            .collect();
        let compiled = CompiledPath::new(&path, &g);
        let mut native: BTreeSet<(Term, Term)> = BTreeSet::new();
        for s in g.node_ids() {
            for o in compiled.eval_from(&g, s) {
                native.insert((g.term(s).clone(), g.term(o).clone()));
            }
        }
        prop_assert_eq!(via_query, native, "⟦{}⟧ mismatch", path);
    }

    /// Lemma 5.1 (2): for every `(a, b)`, the `(?s, ?p, ?o)` rows of `Q_E`
    /// with `?t = a, ?h = b` equal `graph(paths(E, G, a, b))`.
    #[test]
    fn path_query_traces(
        g in graph_strategy(8),
        path in path_strategy(),
    ) {
        let q = path_query(&path);
        let rows = eval_select(&g, &q, &EvalConfig::indexed()).unwrap();
        let compiled = CompiledPath::new(&path, &g);
        // Group rows by (t, h).
        let mut grouped: std::collections::BTreeMap<(Term, Term), Vec<_>> = Default::default();
        for b in &rows {
            if let (Some(t), Some(h)) = (b.get("t"), b.get("h")) {
                grouped.entry((t.clone(), h.clone())).or_default().push(b.clone());
            }
        }
        for ((t, h), bindings) in grouped {
            let via_query = bindings_to_graph(&bindings, "s", "p", "o");
            let (Some(a), Some(b)) = (g.id_of(&t), g.id_of(&h)) else { continue };
            let traced = compiled.trace(&g, &[a], Some(&BTreeSet::from([b])));
            let native = shape_fragments::core::neighborhood::materialize(
                &g,
                &traced.into_iter().collect(),
            );
            prop_assert_eq!(
                via_query, native,
                "trace mismatch for {} from {} to {}", path, t, h
            );
        }
    }

    /// `CQ_φ` returns exactly the conforming nodes of `N(G)`.
    #[test]
    fn conformance_query_agrees(
        g in graph_strategy(10),
        shape in shape_strategy(),
    ) {
        let schema = Schema::empty();
        let q = conformance_query(&schema, &shape);
        let rows = eval_select(&g, &q, &EvalConfig::indexed()).unwrap();
        let via_query: BTreeSet<Term> = rows
            .into_iter()
            .filter_map(|mut b| b.remove("v"))
            .collect();
        let mut ctx = Context::new(&schema, &g);
        let native: BTreeSet<Term> = g
            .node_ids()
            .into_iter()
            .filter(|&v| ctx.conforms(v, &shape))
            .map(|v| g.term(v).clone())
            .collect();
        prop_assert_eq!(via_query, native, "CQ mismatch for {}", shape);
    }

    /// Proposition 5.3: `Q_φ` computes the neighborhoods.
    #[test]
    fn neighborhood_query_agrees(
        g in graph_strategy(9),
        shape in shape_strategy(),
    ) {
        let schema = Schema::empty();
        let via_sparql = neighborhoods_via_sparql(&schema, &g, &shape, &EvalConfig::indexed())
            .unwrap();
        let mut ctx = Context::new(&schema, &g);
        for (node, nbh) in &via_sparql {
            prop_assert_eq!(
                nbh,
                &neighborhood_term(&mut ctx, node, &shape),
                "Q_φ mismatch at {} for {}", node, shape
            );
        }
        // Completeness: non-empty native neighborhoods all appear.
        for v in g.nodes() {
            let native = neighborhood_term(&mut ctx, v, &shape);
            if native.is_empty() {
                continue;
            }
            let found = via_sparql.iter().find(|(n, _)| n == v);
            prop_assert!(
                found.is_some_and(|(_, nbh)| nbh == &native),
                "Q_φ missing neighborhood at {} for {}", v, shape
            );
        }
    }

    /// Corollary 5.5: the fragment query agrees with the native fragment,
    /// on both evaluator configurations.
    #[test]
    fn fragment_query_agrees(
        g in graph_strategy(9),
        shapes in prop::collection::vec(shape_strategy(), 1..3),
    ) {
        let schema = Schema::empty();
        let native = fragment(&schema, &g, &shapes);
        for config in [EvalConfig::indexed(), EvalConfig::naive()] {
            let via_sparql = fragment_via_sparql(&schema, &g, &shapes, &config).unwrap();
            prop_assert_eq!(&via_sparql, &native, "Q_S mismatch ({:?})", config);
        }
    }

    /// After each of a chain of random edit scripts, the generated path
    /// and fragment queries return the same rows, in the same order, over
    /// the incremental engine's frozen graph as over a graph that replayed
    /// the same edits (the two intern new terms in the same order).
    #[test]
    fn incremental_graph_answers_like_the_replayed_graph(
        g in graph_strategy(10),
        shape in shape_strategy(),
        path in path_strategy(),
        scripts in prop::collection::vec(
            prop::collection::vec(edit_strategy(), 0..6).prop_map(EditScript::new),
            1..4,
        ),
    ) {
        let def = ShapeDef::new(Term::iri(format!("{}S", common::NS)), shape, Shape::True);
        let schema = Arc::new(Schema::new([def]).expect("one definition without references"));
        let queries = [path_query(&path), fragment_query(&schema, &schema.request_shapes())];
        let mut replayed = g.clone();
        let mut inc = IncrementalValidator::new(Arc::clone(&schema), Arc::new(g.freeze()));
        for script in &scripts {
            inc.apply_governed(script, Budget::unlimited(), None)
                .expect("an unlimited budget cannot fault");
            for op in &script.ops {
                match op {
                    EditOp::Add(t) => {
                        replayed.insert(t.clone());
                    }
                    EditOp::Remove(t) => {
                        replayed.remove(t);
                    }
                }
            }
            let exec = ExecCtx::unbounded();
            for query in &queries {
                let got = eval_select_governed(
                    inc.graph().base().as_ref(),
                    query,
                    &EvalConfig::indexed(),
                    &exec,
                )
                .expect("an unbounded context cannot fault");
                let want = eval_select_governed(&replayed, query, &EvalConfig::indexed(), &exec)
                    .expect("an unbounded context cannot fault");
                prop_assert_eq!(got, want, "rows differ for {}", query);
            }
        }
    }
}
