//! Property tests for shape fragments (§4): the Conformance Theorem (4.1),
//! Corollary 4.2, and structural properties of `Frag(G, S)`.

mod common;

use proptest::prelude::*;

use common::{graph_strategy, monotone_shape_strategy, node_term, pred, shape_strategy};
use shape_fragments::core::{
    fragment, schema_fragment, validate_extract_fragment, validate_with_provenance,
};
use shape_fragments::rdf::{GraphAccess, Term};
use shape_fragments::shacl::validator::{validate, validate_batch, Context};
use shape_fragments::shacl::{PathExpr, Schema, Shape, ShapeDef};

/// Monotone target shapes: the real-SHACL target forms of §4.
fn target_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        // Node target.
        (0u8..6).prop_map(|i| Shape::HasValue(node_term(i))),
        // Subjects-of.
        (0u8..3).prop_map(|p| Shape::geq(1, PathExpr::Prop(pred(p)), Shape::True)),
        // Objects-of.
        (0u8..3).prop_map(|p| Shape::geq(1, PathExpr::Prop(pred(p)).inverse(), Shape::True)),
        // Class-style target (p0 as type, p1 as subclass).
        (0u8..6).prop_map(|c| Shape::geq(
            1,
            PathExpr::Prop(pred(0)).then(PathExpr::Prop(pred(1)).star()),
            Shape::HasValue(node_term(c)),
        )),
    ]
}

/// Random nonrecursive schemas of 1–4 definitions over the target forms
/// above plus ⊤ ("all nodes"), with forward `hasShape` references (the
/// case where definitions share memo entries).
fn schema_strategy() -> impl Strategy<Value = Schema> {
    (
        prop::collection::vec(
            (
                shape_strategy(),
                prop_oneof![3 => target_strategy(), 1 => Just(Shape::True)],
            ),
            1..5,
        ),
        prop::collection::vec(any::<bool>(), 8),
    )
        .prop_map(|(parts, links)| {
            let name = |i: usize| Term::iri(format!("{}S{i}", common::NS));
            let n = parts.len();
            let defs: Vec<ShapeDef> = parts
                .into_iter()
                .enumerate()
                .map(|(i, (mut shape, target))| {
                    if i + 1 < n && links[(2 * i) % links.len()] {
                        shape = shape.and(Shape::HasShape(name(i + 1)));
                    }
                    ShapeDef::new(name(i), shape, target)
                })
                .collect();
            Schema::new(defs).expect("forward references only — nonrecursive")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Theorem 4.1: if `G` conforms to a schema with monotone targets,
    /// then `Frag(G, H)` conforms to it as well.
    #[test]
    fn conformance_theorem(
        g in graph_strategy(14),
        shape in shape_strategy(),
        target in target_strategy(),
    ) {
        let schema = Schema::new([ShapeDef::new(
            Term::iri(format!("{}S", common::NS)),
            shape,
            target,
        )]).expect("nonrecursive");
        if !validate(&schema, &g).conforms() {
            return Ok(()); // premise not met
        }
        let frag = schema_fragment(&schema, &g);
        prop_assert!(frag.is_subgraph_of(&g));
        prop_assert!(
            validate(&schema, &frag).conforms(),
            "fragment violates schema; fragment:\n{frag:?}"
        );
    }

    /// Corollary 4.2: every node conforming to a request shape in `G`
    /// still conforms in `Frag(G, S)`.
    #[test]
    fn corollary_4_2(
        g in graph_strategy(12),
        shapes in prop::collection::vec(shape_strategy(), 1..3),
    ) {
        let schema = Schema::empty();
        let frag = fragment(&schema, &g, &shapes);
        prop_assert!(frag.is_subgraph_of(&g));
        let mut ctx = Context::new(&schema, &g);
        for shape in &shapes {
            for v in g.nodes() {
                if !ctx.conforms_term(v, shape) {
                    continue;
                }
                let mut frag2 = frag.clone();
                frag2.intern(v);
                let mut fctx = Context::new(&schema, &frag2);
                prop_assert!(
                    fctx.conforms_term(v, shape),
                    "{v} lost conformance to {shape} in the fragment"
                );
            }
        }
    }

    /// The fragment is the union of the individual shapes' fragments.
    #[test]
    fn fragment_is_union_of_shape_fragments(
        g in graph_strategy(12),
        s1 in shape_strategy(),
        s2 in shape_strategy(),
    ) {
        let schema = Schema::empty();
        let both = fragment(&schema, &g, &[s1.clone(), s2.clone()]);
        let mut union = fragment(&schema, &g, &[s1]);
        union.extend(&fragment(&schema, &g, &[s2]));
        prop_assert_eq!(both, union);
    }

    /// On multi-definition schemas linked by `hasShape`, the instrumented
    /// validator reproduces `validate_batch`'s report bit for bit (same
    /// `checked` count, same violations in the same order) and extracts
    /// exactly the request-shape fragment `Frag(G, { φ ∧ τ })`.
    #[test]
    fn parallel_agrees(g in graph_strategy(14), schema in schema_strategy()) {
        let f = g.freeze();
        let (report, extracted) = validate_extract_fragment(&schema, &f);
        prop_assert_eq!(&validate_batch(&schema, &f), &report);
        prop_assert_eq!(
            fragment(&schema, &f, &schema.request_shapes()),
            extracted.to_graph(&f)
        );
    }

    /// The instrumented validator (single pass, §5.2) produces exactly the
    /// plain validation report and exactly `Frag(G, H)` — on every graph,
    /// conforming or not, for random schemas over real target forms.
    /// `shapefrag fragment` relies on the fragment equality.
    #[test]
    fn instrumented_validator_agrees(
        g in graph_strategy(14),
        shape in shape_strategy(),
        target in target_strategy(),
    ) {
        let schema = Schema::new([ShapeDef::new(
            Term::iri(format!("{}S", common::NS)),
            shape,
            target,
        )]).expect("nonrecursive");
        let plain = validate(&schema, &g);
        let (fast_report, fast_fragment) = validate_extract_fragment(&schema, &g);
        prop_assert_eq!(&plain, &fast_report);
        let with_prov = validate_with_provenance(&schema, &g);
        prop_assert_eq!(&plain, &with_prov.report);
        let definitional = schema_fragment(&schema, &g);
        prop_assert_eq!(fast_fragment.to_graph(&g), definitional.clone());
        prop_assert_eq!(with_prov.fragment, definitional);
    }

    /// Fragments are idempotent for monotone request shapes:
    /// `Frag(Frag(G, S), S) = Frag(G, S)` when every shape is monotone
    /// (conformance and neighborhoods are then preserved in the fragment).
    #[test]
    fn fragment_idempotent_for_monotone_shapes(
        g in graph_strategy(12),
        shape in monotone_shape_strategy(),
    ) {
        prop_assert!(shape.is_monotone_syntactically());
        let schema = Schema::empty();
        let once = fragment(&schema, &g, std::slice::from_ref(&shape));
        let twice = fragment(&schema, &once, std::slice::from_ref(&shape));
        prop_assert_eq!(once, twice);
    }
}
