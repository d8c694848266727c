//! Soundness of the syntactic containment checker and of subsumption-keyed
//! memo reuse.
//!
//! The checker is deliberately incomplete (it may answer "don't know" on
//! contained pairs) but must never be unsound: whenever it claims
//! `subsumes(φ, ψ)`, every φ-conformant node must be ψ-conformant on every
//! graph — checked here over random shapes, random reference-carrying
//! schemas, and both graph backends (mutable [`Graph`] and the frozen CSR
//! snapshot). Independently, validation with an attached containment index
//! (derived memo bits, covered-definition skipping) must be bit-identical
//! to plain batch validation — the index may only save work, never change
//! an answer.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use common::{graph_strategy, shape_strategy};
use shape_fragments::analyze::{subsumes, ContainmentMatrix};
use shape_fragments::rdf::Term;
use shape_fragments::shacl::validator::{
    validate_batch, validate_batch_containment_governed, ConformanceMemo, Context,
};
use shape_fragments::shacl::{ExecCtx, Nnf, PathExpr, Schema, Shape, ShapeDef};

fn shape_name(i: usize) -> Term {
    Term::iri(format!("{}S{i}", common::NS))
}

/// Target shapes in the real-SHACL forms of §4 (plus ⊤ = "all nodes").
fn target_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (0u8..6).prop_map(|i| Shape::HasValue(common::node_term(i))),
        (0u8..3).prop_map(|p| Shape::geq(1, PathExpr::Prop(common::pred(p)), Shape::True)),
        Just(Shape::True),
    ]
}

/// Random nonrecursive schemas of 1–4 definitions with forward `hasShape`
/// references, so coinductive name-pair rules and reference unfolding are
/// exercised too.
fn schema_strategy() -> impl Strategy<Value = Schema> {
    (
        prop::collection::vec((shape_strategy(), target_strategy()), 1..5),
        prop::collection::vec(any::<bool>(), 8),
    )
        .prop_map(|(parts, links)| {
            let n = parts.len();
            let defs: Vec<ShapeDef> = parts
                .into_iter()
                .enumerate()
                .map(|(i, (mut shape, target))| {
                    if i + 1 < n && links[(2 * i) % links.len()] {
                        shape = shape.and(Shape::HasShape(shape_name(i + 1)));
                    }
                    ShapeDef::new(shape_name(i), shape, target)
                })
                .collect();
            Schema::new(defs).expect("forward references only — nonrecursive")
        })
}

/// Per-definition conformance of every node in the graph, keyed by
/// definition name, computed through the named (`hasShape`) path so it is
/// exactly what the memo stores.
fn conformance_by_name<G: shape_fragments::rdf::access::GraphAccess>(
    schema: &Schema,
    graph: &G,
) -> (usize, BTreeMap<Term, Vec<bool>>) {
    let mut ctx = Context::with_memo(schema, graph, Arc::new(ConformanceMemo::new()));
    let nodes: Vec<_> = ctx.target_nodes(&Shape::True).into_iter().collect();
    let mut by_name = BTreeMap::new();
    for def in schema.iter() {
        let bits = ctx.conforms_all(&nodes, &Shape::HasShape(def.name.clone()));
        by_name.insert(def.name.clone(), bits);
    }
    (nodes.len(), by_name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pairwise soundness on bare shapes: if the checker derives φ ⊑ ψ,
    /// then on every node of every graph, φ-conformance implies
    /// ψ-conformance — on both backends.
    #[test]
    fn subsumption_implies_conformance_implication(
        g in graph_strategy(14),
        phi in shape_strategy(),
        psi in shape_strategy(),
    ) {
        let nphi = Nnf::from_shape(&phi);
        let npsi = Nnf::from_shape(&psi);
        if !subsumes(&[], &nphi, &npsi) {
            return Ok(()); // "don't know" claims nothing
        }
        let defs = vec![
            ShapeDef::new(shape_name(0), phi, Shape::True),
            ShapeDef::new(shape_name(1), psi, Shape::True),
        ];
        let schema = Schema::new(defs).expect("two independent defs");
        let f = g.freeze();
        for backend in [
            conformance_by_name(&schema, &g),
            conformance_by_name(&schema, &f),
        ] {
            let (n, by_name) = backend;
            let a = &by_name[&shape_name(0)];
            let b = &by_name[&shape_name(1)];
            for i in 0..n {
                prop_assert!(
                    !a[i] || b[i],
                    "claimed φ ⊑ ψ but node {i} conforms to φ and not ψ"
                );
            }
        }
    }

    /// Schema-level soundness: every edge of the containment matrix (over
    /// definitions with `hasShape` references) is a true conformance
    /// implication on every node, on both backends.
    #[test]
    fn matrix_edges_are_sound(
        g in graph_strategy(14),
        schema in schema_strategy(),
    ) {
        let matrix = ContainmentMatrix::of_schema(&schema);
        if matrix.edges.is_empty() {
            return Ok(());
        }
        let f = g.freeze();
        for backend in [
            conformance_by_name(&schema, &g),
            conformance_by_name(&schema, &f),
        ] {
            let (n, by_name) = backend;
            for &(a, b) in &matrix.edges {
                let sub = &by_name[&matrix.names[a as usize]];
                let sup = &by_name[&matrix.names[b as usize]];
                for i in 0..n {
                    prop_assert!(
                        !sub[i] || sup[i],
                        "matrix edge {} ⊑ {} refuted on node {i}",
                        matrix.names[a as usize],
                        matrix.names[b as usize],
                    );
                }
            }
        }
    }

    /// Subsumption-keyed reuse never changes an answer: batch validation
    /// with an attached containment index is bit-identical to the plain
    /// driver — same violations, same order, same checked count — on both
    /// backends.
    #[test]
    fn cached_reports_are_bit_identical(
        g in graph_strategy(14),
        schema in schema_strategy(),
    ) {
        let index = Arc::new(ContainmentMatrix::of_schema(&schema).to_index(&schema));
        let f = g.freeze();

        let plain = validate_batch(&schema, &g);
        let memo = Arc::new(ConformanceMemo::new());
        memo.attach_containment(Arc::clone(&index));
        let (assisted, _skipped) =
            validate_batch_containment_governed(&schema, &g, memo, ExecCtx::unbounded()).unwrap();
        prop_assert_eq!(plain, assisted);

        let plain = validate_batch(&schema, &f);
        let memo = Arc::new(ConformanceMemo::new());
        memo.attach_containment(Arc::clone(&index));
        let (assisted, _skipped) =
            validate_batch_containment_governed(&schema, &f, memo, ExecCtx::unbounded()).unwrap();
        prop_assert_eq!(plain, assisted);
    }
}
