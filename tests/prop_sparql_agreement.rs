//! Differential property tests for the SPARQL translation (§5.1):
//! Lemma 5.1, Proposition 5.3, and Corollary 5.5 checked against the
//! native implementations on random inputs, for both evaluator
//! configurations.

mod common;

use proptest::prelude::*;
use std::collections::BTreeSet;

use common::{graph_strategy, path_strategy, shape_strategy};
use shape_fragments::core::fragment;
use shape_fragments::core::neighborhood::neighborhood_term;
use shape_fragments::core::to_sparql::{
    conformance_query, fragment_via_sparql, neighborhoods_via_sparql, path_query,
};
use shape_fragments::rdf::Term;
use shape_fragments::shacl::rpq::CompiledPath;
use shape_fragments::shacl::validator::Context;
use shape_fragments::shacl::Schema;
use shape_fragments::sparql::eval::{bindings_to_graph, eval_select, EvalConfig};

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
}
