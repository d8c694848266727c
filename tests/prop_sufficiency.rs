//! Property tests for the **Sufficiency Theorem** (Theorem 3.4):
//!
//! > If `G, v ⊨ φ` then `G', v ⊨ φ` for any RDF graph `G'` with
//! > `B(v, G, φ) ⊆ G' ⊆ G`.
//!
//! Random graphs × random shapes (full grammar, all quantifiers, negation,
//! equality/disjointness, closedness, lessThan, uniqueLang) are checked at
//! the neighborhood itself and at randomly grown intermediate subgraphs.

mod common;

use proptest::prelude::*;

use common::{focus_candidates, graph_strategy, shape_strategy};
use shape_fragments::core::neighborhood::{
    conforms_and_collect, neighborhood_nnf_ids, neighborhood_term,
};
use shape_fragments::rdf::{Graph, GraphAccess, Term, Triple};
use shape_fragments::shacl::validator::Context;
use shape_fragments::shacl::Nnf;
use shape_fragments::shacl::{PathExpr, Schema, Shape, ShapeDef};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The core Sufficiency statement evaluated at `G' = B(v, G, φ)` and at
    /// a random `G'` between the neighborhood and the full graph.
    #[test]
    fn sufficiency(
        g in graph_strategy(14),
        shape in shape_strategy(),
        extra_bits in prop::collection::vec(any::<bool>(), 14),
    ) {
        let schema = Schema::empty();
        let mut ctx = Context::new(&schema, &g);
        for v in focus_candidates(&g) {
            if !ctx.conforms_term(&v, &shape) {
                continue;
            }
            let b = neighborhood_term(&mut ctx, &v, &shape);
            prop_assert!(b.is_subgraph_of(&g), "neighborhood must be a subgraph");

            // G' = B itself.
            check_still_conforms(&b, &v, &shape)?;

            // G' = B plus a random subset of the remaining triples.
            let mut grown = b.clone();
            let rest: Vec<Triple> = g.iter().filter(|t| !b.contains(t)).collect();
            for (i, t) in rest.into_iter().enumerate() {
                if *extra_bits.get(i % extra_bits.len().max(1)).unwrap_or(&false) {
                    grown.insert(t);
                }
            }
            check_still_conforms(&grown, &v, &shape)?;
        }
    }

    /// Why-not provenance (Remark 3.7): if `v ⊭ φ` then `v ⊨ ¬φ`, and
    /// Sufficiency applies to `B(v, G, ¬φ)`.
    #[test]
    fn why_not_sufficiency(
        g in graph_strategy(12),
        shape in shape_strategy(),
    ) {
        let schema = Schema::empty();
        let mut ctx = Context::new(&schema, &g);
        let negated = shape.clone().not();
        for v in focus_candidates(&g) {
            if ctx.conforms_term(&v, &shape) {
                continue;
            }
            prop_assert!(ctx.conforms_term(&v, &negated), "¬φ must hold when φ fails");
            let b = neighborhood_term(&mut ctx, &v, &negated);
            prop_assert!(b.is_subgraph_of(&g));
            check_still_conforms(&b, &v, &negated)?;
        }
    }

    /// Neighborhoods stay within the focus node's connected component
    /// (Remark 3.8).
    #[test]
    fn neighborhood_within_connected_component(
        g in graph_strategy(12),
        shape in shape_strategy(),
    ) {
        let schema = Schema::empty();
        let mut ctx = Context::new(&schema, &g);
        for v in focus_candidates(&g) {
            if g.id_of(&v).is_none() {
                continue;
            }
            let b = neighborhood_term(&mut ctx, &v, &shape);
            if b.is_empty() {
                continue;
            }
            let component = connected_component(&g, &v);
            for t in b.iter() {
                prop_assert!(
                    component.contains(&t.subject) && component.contains(&t.object),
                    "triple {t} outside the component of {v}"
                );
            }
        }
    }

    /// Sufficiency also holds for shapes that dereference named schema
    /// definitions (Table 2 rules 1–2), including under negation.
    #[test]
    fn sufficiency_with_schema_references(
        g in graph_strategy(12),
        definition in shape_strategy(),
        negate in any::<bool>(),
        quantify in any::<bool>(),
    ) {
        let name = Term::iri(format!("{}Def", common::NS));
        let schema = Schema::new([ShapeDef::new(
            name.clone(),
            definition,
            Shape::False,
        )]).expect("nonrecursive");
        let mut probe = Shape::HasShape(name);
        if negate {
            probe = probe.not();
        }
        if quantify {
            probe = Shape::geq(1, PathExpr::Prop(common::pred(0)), probe);
        }
        let mut ctx = Context::new(&schema, &g);
        for v in focus_candidates(&g) {
            if !ctx.conforms_term(&v, &probe) {
                continue;
            }
            let b = neighborhood_term(&mut ctx, &v, &probe);
            prop_assert!(b.is_subgraph_of(&g));
            let mut b2 = b.clone();
            b2.intern(&v);
            let mut bctx = Context::new(&schema, &b2);
            prop_assert!(
                bctx.conforms_term(&v, &probe),
                "Sufficiency via hasShape violated for {} / {}",
                v,
                &probe
            );
        }
    }

    /// The single-pass instrumented traversal (§5.2) agrees with the
    /// two-pass definition (Table 1 + Table 2) on verdict and evidence.
    #[test]
    fn single_pass_instrumentation_agrees(
        g in graph_strategy(12),
        shape in shape_strategy(),
    ) {
        let schema = Schema::empty();
        let mut ctx = Context::new(&schema, &g);
        let nnf = Nnf::from_shape(&shape);
        let mut journal = Vec::new();
        for v in g.node_ids() {
            journal.clear();
            let single = conforms_and_collect(&mut ctx, v, &nnf, &mut journal);
            prop_assert_eq!(single, ctx.conforms_nnf(v, &nnf), "verdict for {}", &shape);
            let got: std::collections::BTreeSet<_> = journal.iter().copied().collect();
            let expected: std::collections::BTreeSet<_> =
                neighborhood_nnf_ids(&mut ctx, v, &nnf).into_iter().collect();
            prop_assert_eq!(got, expected, "evidence for {}", &shape);
        }
    }

    /// Determinism: the neighborhood is a function of (v, G, φ).
    #[test]
    fn neighborhood_deterministic(
        g in graph_strategy(10),
        shape in shape_strategy(),
    ) {
        let schema = Schema::empty();
        for v in focus_candidates(&g) {
            let mut ctx1 = Context::new(&schema, &g);
            let mut ctx2 = Context::new(&schema, &g);
            prop_assert_eq!(
                neighborhood_term(&mut ctx1, &v, &shape),
                neighborhood_term(&mut ctx2, &v, &shape)
            );
        }
    }
}

fn check_still_conforms(
    sub: &Graph,
    v: &shape_fragments::rdf::Term,
    shape: &shape_fragments::shacl::Shape,
) -> Result<(), TestCaseError> {
    let schema = Schema::empty();
    let mut ctx = Context::new(&schema, sub);
    prop_assert!(
        ctx.conforms_term(v, shape),
        "Sufficiency violated for {v} / {shape} in subgraph:\n{sub:?}"
    );
    Ok(())
}

/// Undirected connected component of `v` in `g` (as terms).
fn connected_component(
    g: &Graph,
    v: &shape_fragments::rdf::Term,
) -> std::collections::HashSet<shape_fragments::rdf::Term> {
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![v.clone()];
    while let Some(node) = stack.pop() {
        if !seen.insert(node.clone()) {
            continue;
        }
        for t in g.triples_matching(Some(&node), None, None) {
            stack.push(t.object);
        }
        for t in g.triples_matching(None, None, Some(&node)) {
            stack.push(t.subject);
        }
    }
    seen
}
