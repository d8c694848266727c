//! Agreement of the governed extraction driver with the unbounded and
//! per-node drivers over the frozen backend.
//!
//! The suite once compared a multi-threaded engine with the sequential
//! drivers; that engine is gone (DESIGN.md §12) and each output has one
//! sequential governed driver. The two properties kept here check what
//! does not depend on a thread count. On random graphs and random
//! nonrecursive schemas with forward `hasShape` links,
//! `validate_extract_fragment_governed` run under a live context (an
//! unlimited budget plus an unfired cancellation token) must agree
//! **exactly** with
//!
//! - the unbounded `validate_extract_fragment` and the per-node reference
//!   `validate_extract_fragment_per_node`, report and fragment alike;
//! - the request-shape fragment `Frag(G, { φ ∧ τ })` that `fragment`
//!   computes over the unfrozen graph.

mod common;

use proptest::prelude::*;

use common::{graph_strategy, shape_strategy};
use shape_fragments::core::{
    fragment, validate_extract_fragment, validate_extract_fragment_governed,
    validate_extract_fragment_per_node, SchemaFragment,
};
use shape_fragments::govern::{Budget, CancelToken, ExecCtx};
use shape_fragments::rdf::{FrozenGraph, Term};
use shape_fragments::shacl::validator::ValidationReport;
use shape_fragments::shacl::{PathExpr, Schema, Shape, ShapeDef};

/// The governed driver under a context that can observe a cancellation
/// but never sees one.
fn extract_governed(schema: &Schema, f: &FrozenGraph) -> (ValidationReport, SchemaFragment) {
    let token = CancelToken::new();
    let exec = ExecCtx::with_budget(Budget::unlimited()).with_cancel(&token);
    validate_extract_fragment_governed(schema, f, exec)
        .expect("an unlimited budget and an unfired token cannot fault")
}

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
/// references (the case where definitions share memo entries).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Governed extraction reproduces both the report and the fragment of
    /// the unbounded driver and of the per-node reference.
    #[test]
    fn parallel_extraction_agrees(g in graph_strategy(14), schema in schema_strategy()) {
        let f = g.freeze();
        let (report, frag) = extract_governed(&schema, &f);
        let frag = frag.to_graph(&f);
        let (unbounded_report, unbounded_frag) = validate_extract_fragment(&schema, &f);
        prop_assert_eq!(&unbounded_report, &report);
        prop_assert_eq!(&unbounded_frag.to_graph(&f), &frag);
        let (per_node_report, per_node_frag) = validate_extract_fragment_per_node(&schema, &f);
        prop_assert_eq!(&per_node_report, &report);
        prop_assert_eq!(&per_node_frag.to_graph(&f), &frag);
    }

    /// The governed extraction's fragment is exactly the request-shape
    /// fragment `Frag(G, { φ ∧ τ })` of the unfrozen graph.
    #[test]
    fn parallel_fragment_ids_agree(g in graph_strategy(14), schema in schema_strategy()) {
        let f = g.freeze();
        let expected = fragment(&schema, &g, &schema.request_shapes());
        let (_, extracted) = extract_governed(&schema, &f);
        prop_assert_eq!(&expected, &extracted.to_graph(&f));
    }
}
