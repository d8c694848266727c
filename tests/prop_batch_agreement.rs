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
//! The two per-node extraction references are the Table 2 oracle in
//! `tests/common/table2.rs`.
//!
//! Schemas are generated with *forward* `hasShape` references so several
//! definitions share sub-shapes — the case the conformance memo dedupes.
//!
//! The last two properties run the quantifier forms alone on graphs of over
//! 300 nodes, so one batch holds more foci than the per-focus kernel's
//! 256-source chunk and the reach kernel's single pass covers them all.

mod common;

use proptest::prelude::*;

use common::table1::Table1;
use common::table2::{fragment_ids_per_node, validate_extract_fragment_per_node};
use common::{graph_strategy, path_strategy, shape_strategy};
use shape_fragments::core::{fragment_ids, validate_extract_fragment};
use shape_fragments::rdf::{Graph, GraphAccess, Term, TermId, Triple};
use shape_fragments::shacl::validator::{validate, validate_batch, Context};
use shape_fragments::shacl::{Nnf, PathExpr, Schema, Shape, ShapeDef};

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

    /// `conforms_all` decides every node exactly as per-node `conforms`,
    /// and both agree with Table 1 read over the general shape.
    #[test]
    fn conforms_all_agrees_pointwise(
        g in graph_strategy(12),
        shape in shape_strategy(),
    ) {
        let schema = Schema::empty();
        let mut ctx = Context::new(&schema, &g);
        let mut oracle = Table1::new(&schema, &g);
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
            prop_assert_eq!(
                oracle.conforms(v, &shape),
                ok,
                "Table 1 disagrees at {} for {}",
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

/// Node count of the large graphs: more than one 256-source chunk.
const BIG_NODES: u16 = 320;

fn big_node(i: u16) -> Term {
    Term::iri(format!("{}n{i}", common::NS))
}

/// Graphs over `BIG_NODES` nodes: every node gets one random out-edge (so
/// all of them occur), plus up to 200 more random edges, over p0..p2.
fn big_graph_strategy() -> impl Strategy<Value = Graph> {
    (
        prop::collection::vec((0u8..3, 0u16..BIG_NODES), BIG_NODES as usize),
        prop::collection::vec((0u16..BIG_NODES, 0u8..3, 0u16..BIG_NODES), 0..200),
    )
        .prop_map(|(firsts, extra)| {
            let firsts = (0..BIG_NODES).zip(firsts).map(|(s, (p, o))| (s, p, o));
            Graph::from_triples(
                firsts
                    .chain(extra)
                    .map(|(s, p, o)| Triple::new(big_node(s), common::pred(p), big_node(o))),
            )
        })
}

/// Quantifier inners: ⊤, a node test, and nested `≥1`/`∀` forms.
fn quantifier_inner_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::True),
        (0u8..6).prop_map(|i| Shape::HasValue(common::node_term(i))),
        (0u8..3).prop_map(|p| Shape::geq(1, PathExpr::Prop(common::pred(p)), Shape::True)),
        (0u8..3, 0u8..6).prop_map(|(p, i)| Shape::for_all(
            PathExpr::Prop(common::pred(p)),
            Shape::HasValue(common::node_term(i)).not()
        )),
    ]
}

/// `≥0/1/2`, `≤0/1` and `∀` over random paths.
fn quantifier_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (0u32..3, path_strategy(), quantifier_inner_strategy())
            .prop_map(|(n, e, s)| Shape::geq(n, e, s)),
        (0u32..2, path_strategy(), quantifier_inner_strategy())
            .prop_map(|(n, e, s)| Shape::leq(n, e, s)),
        (path_strategy(), quantifier_inner_strategy()).prop_map(|(e, s)| Shape::for_all(e, s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On graphs larger than one source chunk, both batch deciders agree
    /// pointwise with per-node `conforms` and with Table 1.
    #[test]
    fn big_graph_quantifiers_agree_pointwise(
        g in big_graph_strategy(),
        shape in quantifier_strategy(),
    ) {
        let schema = Schema::empty();
        let mut ctx = Context::new(&schema, &g);
        let mut oracle = Table1::new(&schema, &g);
        let nodes: Vec<TermId> = g.node_ids().into_iter().collect();
        prop_assert!(nodes.len() >= BIG_NODES as usize);
        let batch = ctx.conforms_all(&nodes, &shape);
        let batch_nnf = ctx.conforms_all_nnf(&nodes, &Nnf::from_shape(&shape));
        for ((&v, ok), ok_nnf) in nodes.iter().zip(batch).zip(batch_nnf) {
            let want = ctx.conforms(v, &shape);
            prop_assert_eq!(want, ok, "conforms_all at {} for {}", g.term(v), shape);
            prop_assert_eq!(want, ok_nnf, "conforms_all_nnf at {} for {}", g.term(v), shape);
            prop_assert_eq!(
                oracle.conforms(v, &shape),
                want,
                "Table 1 disagrees at {} for {}",
                g.term(v),
                shape
            );
        }
    }

    /// On the same graphs, batch fragment computation collects exactly the
    /// per-node triples.
    #[test]
    fn big_graph_fragment_ids_agree_with_per_node(
        g in big_graph_strategy(),
        shape in quantifier_strategy(),
    ) {
        let schema = Schema::empty();
        let shapes = [shape];
        let batch = fragment_ids(&schema, &g, &shapes);
        let per_node = fragment_ids_per_node(&schema, &g, &shapes);
        let to_graph = |ids: &shape_fragments::core::IdTriples| -> Graph {
            ids.iter().map(|&(s, p, o)| g.triple_of(s, p, o)).collect()
        };
        prop_assert_eq!(to_graph(&batch), to_graph(&per_node));
    }
}

/// The memoized batch decider agrees pointwise with Table 1, with
/// `hasShape` under every quantifier form and beside the borrowed atoms.
#[test]
fn conforms_all_agrees_with_table1() {
    use shape_fragments::rdf::Literal;
    use shape_fragments::shacl::shape::PathOrId;
    use shape_fragments::shacl::validator::ConformanceMemo;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    let node = |n: &str| Term::iri(format!("{}{n}", common::NS));
    let p = |n: &str| PathExpr::Prop(common::iri(n));
    let t = |s: &str, q: &str, o: Term| Triple::new(node(s), common::iri(q), o);
    let g = Graph::from_triples([
        t("a", "p", node("x")),
        t("a", "p", node("y")),
        t("b", "p", node("x")),
        t("x", "type", node("C")),
        t("y", "type", node("D")),
        t("a", "q", node("x")),
        t("a", "l", Term::Literal(Literal::lang_string("v", "en"))),
    ]);
    let typed = Shape::HasShape(node("Typed"));
    let schema = Schema::new([ShapeDef::new(
        node("Typed"),
        Shape::geq(1, p("type"), Shape::True),
        Shape::False,
    )])
    .unwrap();
    let shapes = [
        Shape::geq(1, p("p"), typed.clone()),
        Shape::for_all(p("p"), typed),
        Shape::leq(
            1,
            p("p"),
            Shape::geq(1, p("type"), Shape::has_value(node("C"))),
        ),
        Shape::geq(2, p("p"), Shape::True).and(Shape::UniqueLang(p("l"))),
        Shape::geq(1, p("q"), Shape::True).or(Shape::geq(1, p("zz"), Shape::True)),
        Shape::Eq(PathOrId::Path(p("p")), common::iri("q")).not(),
        Shape::Closed(BTreeSet::from([
            common::iri("p"),
            common::iri("q"),
            common::iri("l"),
        ])),
    ];
    let nodes: Vec<TermId> = g.node_ids().into_iter().collect();
    let mut oracle = Table1::new(&schema, &g);
    for shape in &shapes {
        let mut ctx = Context::with_memo(&schema, &g, Arc::new(ConformanceMemo::new()));
        let batch = ctx.conforms_all(&nodes, shape);
        for (&v, ok) in nodes.iter().zip(&batch) {
            assert_eq!(oracle.conforms(v, shape), *ok, "{shape} at {}", g.term(v));
        }
        let nnf_batch = ctx.conforms_all_nnf(&nodes, &Nnf::from_shape(shape));
        assert_eq!(batch, nnf_batch, "memo-warm NNF batch disagrees on {shape}");
    }
}
