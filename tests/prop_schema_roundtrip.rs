//! Round-trip property test for the SHACL syntax pair: writing a formal
//! schema as a shapes graph (the inverse of Appendix A) and translating it
//! back must preserve conformance semantics on arbitrary graphs.

mod common;

use proptest::prelude::*;

use common::{graph_strategy, node_term, pred, shape_strategy};
use shape_fragments::rdf::turtle;
use shape_fragments::rdf::GraphAccess;
use shape_fragments::shacl::parser::{parse_shapes_turtle, schema_from_shapes_graph};
use shape_fragments::shacl::validator::Context;
use shape_fragments::shacl::{
    schema_to_shapes_graph, schema_to_turtle, PathExpr, Schema, Shape, ShapeDef,
};

/// Standard target forms (the ones the writer can express).
fn target_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::False),
        (0u8..6).prop_map(|i| Shape::HasValue(node_term(i))),
        (0u8..3).prop_map(|p| Shape::geq(1, PathExpr::Prop(pred(p)), Shape::True)),
        (0u8..3).prop_map(|p| Shape::geq(1, PathExpr::Prop(pred(p)).inverse(), Shape::True)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// write → parse preserves shape and target semantics node-by-node.
    #[test]
    fn schema_round_trip_preserves_semantics(
        shape in shape_strategy(),
        target in target_strategy(),
        g in graph_strategy(12),
    ) {
        let name = node_term(0);
        let schema = Schema::new([ShapeDef::new(name.clone(), shape, target)]).unwrap();
        let written = schema_to_shapes_graph(&schema);
        let reparsed = schema_from_shapes_graph(&written)
            .map_err(|e| TestCaseError::fail(format!("reparse failed: {e}")))?;
        let def1 = schema.get(&name).unwrap();
        let def2 = reparsed
            .get(&name)
            .ok_or_else(|| TestCaseError::fail("definition lost"))?;
        let mut ctx1 = Context::new(&schema, &g);
        let mut ctx2 = Context::new(&reparsed, &g);
        let probe1 = Shape::HasShape(name.clone());
        for v in g.node_ids() {
            prop_assert_eq!(
                ctx1.conforms(v, &probe1),
                ctx2.conforms(v, &probe1),
                "shape semantics changed at {} for {}",
                g.term(v),
                &def1.shape
            );
            prop_assert_eq!(
                ctx1.conforms(v, &def1.target),
                ctx2.conforms(v, &def2.target),
                "target semantics changed at {}",
                g.term(v)
            );
        }
    }

    /// The Turtle text of a written schema parses back through the full
    /// text pipeline.
    #[test]
    fn schema_turtle_round_trip(shape in shape_strategy()) {
        let schema = Schema::new([ShapeDef::new(
            node_term(0),
            shape,
            Shape::geq(1, PathExpr::Prop(pred(0)), Shape::True),
        )])
        .unwrap();
        let text = schema_to_turtle(&schema);
        // Text → graph → schema.
        let graph = turtle::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("turtle reparse failed: {e}\n{text}")))?;
        prop_assert!(schema_from_shapes_graph(&graph).is_ok());
        // And the one-step helper agrees.
        prop_assert!(parse_shapes_turtle(&text).is_ok());
    }
}
