//! Property tests for negation normal form (§3.1) and path semantics
//! (Proposition 3.1).

mod common;

use proptest::prelude::*;
use std::collections::BTreeSet;

use common::{focus_candidates, graph_strategy, path_strategy, shape_strategy};
use shape_fragments::rdf::{Graph, GraphAccess};
use shape_fragments::shacl::rpq::CompiledPath;
use shape_fragments::shacl::validator::Context;
use shape_fragments::shacl::{Nnf, Schema};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// NNF conversion preserves conformance on every node.
    #[test]
    fn nnf_preserves_semantics(
        g in graph_strategy(12),
        shape in shape_strategy(),
    ) {
        let schema = Schema::empty();
        let mut ctx = Context::new(&schema, &g);
        let nnf = Nnf::from_shape(&shape);
        let neg = Nnf::from_negated_shape(&shape);
        for v in g.node_ids() {
            let direct = ctx.conforms(v, &shape);
            prop_assert_eq!(direct, ctx.conforms_nnf(v, &nnf),
                "NNF disagrees for {} at {}", &shape, g.term(v));
            prop_assert_eq!(!direct, ctx.conforms_nnf(v, &neg),
                "negated NNF disagrees for {} at {}", &shape, g.term(v));
            // Nnf::negated is semantic negation.
            prop_assert_eq!(!direct, ctx.conforms_nnf(v, &nnf.negated()));
        }
    }

    /// NNF round trip: converting the NNF's shape form re-normalizes to the
    /// same NNF.
    #[test]
    fn nnf_round_trip(shape in shape_strategy()) {
        let nnf = Nnf::from_shape(&shape);
        prop_assert_eq!(Nnf::from_shape(&nnf.to_shape()), nnf);
    }

    /// Proposition 3.1: for `F = graph(paths(E, G, a, b))`,
    /// `(a, b) ∈ ⟦E⟧^G ⇔ (a, b) ∈ ⟦E⟧^F`.
    #[test]
    fn proposition_3_1(
        g in graph_strategy(10),
        path in path_strategy(),
    ) {
        let compiled = CompiledPath::new(&path, &g);
        for a in g.node_ids() {
            for b in compiled.eval_from(&g, a) {
                let traced = compiled.trace(&g, &[a], Some(&BTreeSet::from([b])));
                let f = Graph::from_triples(
                    traced.iter().map(|&(s, p, o)| g.triple_of(s, p, o)),
                );
                let mut f2 = f.clone();
                let a_f = f2.intern(g.term(a));
                let b_f = f2.intern(g.term(b));
                let cf = CompiledPath::new(&path, &f2);
                prop_assert!(
                    cf.connects(&f2, a_f, b_f),
                    "({}, {}) not connected via {} in traced subgraph",
                    g.term(a), g.term(b), path
                );
            }
        }
    }

    /// Path evaluation is monotone: adding triples never removes pairs.
    #[test]
    fn path_eval_monotone(
        g in graph_strategy(10),
        path in path_strategy(),
    ) {
        // Remove an arbitrary half of the triples.
        let triples: Vec<_> = g.iter().collect();
        let sub = Graph::from_triples(triples.iter().step_by(2).cloned());
        let c_sub = CompiledPath::new(&path, &sub);
        let c_full = CompiledPath::new(&path, &g);
        for a in sub.node_ids() {
            let from_sub: BTreeSet<_> = c_sub
                .eval_from(&sub, a)
                .into_iter()
                .map(|x| sub.term(x).clone())
                .collect();
            let a_full = g.id_of(sub.term(a)).expect("sub nodes exist in g");
            let from_full: BTreeSet<_> = c_full
                .eval_from(&g, a_full)
                .into_iter()
                .map(|x| g.term(x).clone())
                .collect();
            prop_assert!(
                from_sub.is_subset(&from_full),
                "monotonicity violated for {}", path
            );
        }
    }

    /// Traced subgraphs only contain graph triples, tracing the full
    /// endpoint set equals the union of per-endpoint traces, and tracing a
    /// source set `A` to `X` equals the union of the per-source traces, for
    /// `X` the whole endpoint union of `A` and for a subset of it.
    #[test]
    fn trace_is_union_of_singletons(
        g in graph_strategy(8),
        path in path_strategy(),
        source_mask in any::<u64>(),
        target_mask in any::<u64>(),
    ) {
        let compiled = CompiledPath::new(&path, &g);
        for a in g.node_ids().into_iter().take(3) {
            let endpoints = compiled.eval_from(&g, a);
            let batched = compiled.trace(&g, &[a], Some(&endpoints));
            let mut unioned = BTreeSet::new();
            for &b in &endpoints {
                unioned.extend(compiled.trace(&g, &[a], Some(&BTreeSet::from([b]))));
            }
            prop_assert_eq!(&batched, &unioned, "batched trace differs for {}", path);
            for &(s, p, o) in &batched {
                prop_assert!(g.contains_ids(s, p, o));
            }
        }

        let sources: Vec<_> = g
            .node_ids()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| source_mask >> (i % 64) & 1 == 1)
            .map(|(_, v)| v)
            .collect();
        let reached: BTreeSet<_> = sources
            .iter()
            .flat_map(|&a| compiled.eval_from(&g, a))
            .collect();
        let subset: BTreeSet<_> = reached
            .iter()
            .enumerate()
            .filter(|(i, _)| target_mask >> (i % 64) & 1 == 1)
            .map(|(_, &x)| x)
            .collect();
        for targets in [&reached, &subset] {
            let multi = compiled.trace(&g, &sources, Some(targets));
            let mut unioned = BTreeSet::new();
            for &a in &sources {
                unioned.extend(compiled.trace(&g, &[a], Some(targets)));
            }
            prop_assert_eq!(&multi, &unioned, "multi-source trace differs for {}", path);
        }
        prop_assert_eq!(
            compiled.trace(&g, &sources, None),
            compiled.trace(&g, &sources, Some(&reached)),
            "unfiltered trace differs for {}", path
        );
    }

    /// Conformance of any node is decidable coherently for shapes vs their
    /// double negation.
    #[test]
    fn double_negation(
        g in graph_strategy(10),
        shape in shape_strategy(),
    ) {
        let schema = Schema::empty();
        let mut ctx = Context::new(&schema, &g);
        let double = shape.clone().not().not();
        for v in focus_candidates(&g) {
            prop_assert_eq!(
                ctx.conforms_term(&v, &shape),
                ctx.conforms_term(&v, &double)
            );
        }
    }
}
