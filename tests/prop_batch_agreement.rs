//! Agreement between the set-at-a-time (batch) evaluation kernel and the
//! per-node reference implementations:
//!
//! - `validate_batch` produces exactly the same [`ValidationReport`] as
//!   `validate` (same violations, in the same order),
//! - `validate_extract_fragment` (batch route) matches
//!   `validate_extract_fragment_per_node` on both the report and the
//!   extracted neighborhood triple set,
//! - `Context::conforms_all` agrees pointwise with `Context::conforms`,
//! - `fragment_ids` (batch) equals `fragment_ids_per_node`.
//!
//! Schemas are generated with *forward* `hasShape` references so several
//! definitions share sub-shapes — the case the conformance memo dedupes.

mod common;

use proptest::prelude::*;

use common::{graph_strategy, shape_strategy};
use shape_fragments::core::{
    fragment_ids, fragment_ids_per_node, validate_extract_fragment,
    validate_extract_fragment_per_node,
};
use shape_fragments::rdf::{Graph, GraphAccess, Term, TermId};
use shape_fragments::shacl::validator::{validate, validate_batch, Context};
use shape_fragments::shacl::{PathExpr, Schema, Shape, ShapeDef};

fn shape_name(i: usize) -> Term {
    Term::iri(format!("{}S{i}", common::NS))
}

/// Target shapes in the real-SHACL forms of §4 (plus ⊤ = "all nodes").
fn target_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (0u8..6).prop_map(|i| Shape::HasValue(common::node_term(i))),
        (0u8..3).prop_map(|p| Shape::geq(1, PathExpr::Prop(common::pred(p)), Shape::True)),
        (0u8..3).prop_map(|p| Shape::geq(
            1,
            PathExpr::Prop(common::pred(p)).inverse(),
            Shape::True
        )),
        Just(Shape::True),
    ]
}

/// Random nonrecursive schemas of 1–4 definitions. Earlier definitions may
/// reference later ones via `hasShape` (forward references only, so the
/// schema is nonrecursive by construction); several definitions referencing
/// the same sub-shape is exactly the case the conformance memo shares.
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
                    if i + 1 < n && links[(2 * i + 1) % links.len()] {
                        shape = shape.or(Shape::geq(
                            1,
                            PathExpr::Prop(common::pred(0)),
                            Shape::HasShape(shape_name(n - 1)),
                        ));
                    }
                    ShapeDef::new(shape_name(i), shape, target)
                })
                .collect();
            Schema::new(defs).expect("forward references only — nonrecursive")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `validate_batch` = `validate`, including violation order.
    #[test]
    fn validate_batch_agrees_with_validate(
        g in graph_strategy(14),
        schema in schema_strategy(),
    ) {
        let per_node = validate(&schema, &g);
        let batch = validate_batch(&schema, &g);
        prop_assert_eq!(per_node, batch);
    }

    /// The batch instrumented validator produces the same report and the
    /// same neighborhood triple set as the per-node reference.
    #[test]
    fn batch_fragment_extraction_agrees_with_per_node(
        g in graph_strategy(14),
        schema in schema_strategy(),
    ) {
        let (batch_report, batch_frag) = validate_extract_fragment(&schema, &g);
        let (ref_report, ref_frag) = validate_extract_fragment_per_node(&schema, &g);
        prop_assert_eq!(batch_report, ref_report);
        prop_assert_eq!(batch_frag.to_graph(&g), ref_frag.to_graph(&g));
    }

    /// `conforms_all` decides every node exactly as per-node `conforms`.
    #[test]
    fn conforms_all_agrees_pointwise(
        g in graph_strategy(12),
        shape in shape_strategy(),
    ) {
        let schema = Schema::empty();
        let mut ctx = Context::new(&schema, &g);
        let nodes: Vec<TermId> = g.node_ids().into_iter().collect();
        let batch = ctx.conforms_all(&nodes, &shape);
        for (&v, ok) in nodes.iter().zip(batch) {
            prop_assert_eq!(
                ctx.conforms(v, &shape),
                ok,
                "disagreement at {} for {}",
                g.term(v),
                shape
            );
        }
    }

    /// Batch fragment computation collects exactly the per-node triples.
    #[test]
    fn fragment_ids_batch_agrees_with_per_node(
        g in graph_strategy(12),
        shapes in prop::collection::vec(shape_strategy(), 1..3),
    ) {
        let schema = Schema::empty();
        let batch = fragment_ids(&schema, &g, &shapes);
        let per_node = fragment_ids_per_node(&schema, &g, &shapes);
        let to_graph = |ids: &shape_fragments::core::IdTriples| -> Graph {
            ids.iter().map(|&(s, p, o)| g.triple_of(s, p, o)).collect()
        };
        prop_assert_eq!(to_graph(&batch), to_graph(&per_node));
    }
}
