#![allow(dead_code)] // shared across several test binaries, not all use every helper
//! Shared proptest strategies for the integration test suite: random RDF
//! graphs, path expressions, and shapes covering every construct of the
//! paper's grammar (§2).

pub mod table1;

use proptest::prelude::*;

use shape_fragments::rdf::{Graph, GraphAccess, Iri, Literal, Term, Triple};
use shape_fragments::shacl::node_test::{NodeKind, NodeTest};
use shape_fragments::shacl::shape::PathOrId;
use shape_fragments::shacl::{PathExpr, Shape};

pub const NS: &str = "http://t.example.org/";

pub fn iri(n: &str) -> Iri {
    Iri::new(format!("{NS}{n}"))
}

pub fn node_term(i: u8) -> Term {
    Term::iri(format!("{NS}n{i}"))
}

pub fn pred(i: u8) -> Iri {
    iri(&format!("p{i}"))
}

/// A term that can appear in object position: nodes, a few literals (some
/// language-tagged so `uniqueLang` is exercised: `w3@en` shares its tag
/// with `w0@en`, and the tagged literals are drawn often enough that
/// generated nodes do violate it), a blank node.
pub fn object_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        5 => (0u8..6).prop_map(node_term),
        1 => (0i64..4).prop_map(|i| Term::Literal(Literal::integer(i))),
        3 => (0u8..4).prop_map(|i| {
            let langs = ["en", "de", "fr"];
            Term::Literal(Literal::lang_string(format!("w{i}"), langs[(i % 3) as usize]))
        }),
        1 => Just(Term::blank("b0")),
    ]
}

/// Random graphs over a small universe: ≤ `max_triples` triples with
/// subjects n0..n5 ∪ {_:b0}, predicates p0..p2, mixed objects.
pub fn graph_strategy(max_triples: usize) -> impl Strategy<Value = Graph> {
    prop::collection::vec(
        (
            prop_oneof![4 => (0u8..6).prop_map(node_term), 1 => Just(Term::blank("b0"))],
            0u8..3,
            object_term(),
        ),
        0..max_triples,
    )
    .prop_map(|triples| {
        Graph::from_triples(
            triples
                .into_iter()
                .map(|(s, p, o)| Triple::new(s, pred(p), o)),
        )
    })
}

/// Random path expressions of bounded depth over p0..p2, including the
/// Remark 6.3 negated-property-set extension.
pub fn path_strategy() -> impl Strategy<Value = PathExpr> {
    let leaf = prop_oneof![
        6 => (0u8..3).prop_map(|i| PathExpr::Prop(pred(i))),
        1 => prop::collection::btree_set((0u8..3).prop_map(pred), 0..2)
            .prop_map(PathExpr::NegProp),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| e.inverse()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.then(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(|e| e.star()),
            inner.prop_map(|e| e.opt()),
        ]
    })
}

fn node_test_strategy() -> impl Strategy<Value = NodeTest> {
    prop_oneof![
        Just(NodeTest::Kind(NodeKind::Iri)),
        Just(NodeTest::Kind(NodeKind::Literal)),
        Just(NodeTest::Kind(NodeKind::BlankNodeOrIri)),
        (0i64..4).prop_map(|i| NodeTest::MinInclusive(Literal::integer(i))),
        (0i64..4).prop_map(|i| NodeTest::MaxExclusive(Literal::integer(i))),
        (1u32..30).prop_map(NodeTest::MinLength),
        Just(NodeTest::Language("en".into())),
    ]
}

/// Random shapes covering the full grammar: atoms (hasValue, test, eq,
/// disj, closed, lessThan, lessThanEq, uniqueLang), boolean operators, and
/// the three quantifiers. Depth-bounded so evaluation stays fast.
pub fn shape_strategy() -> impl Strategy<Value = Shape> {
    let path_or_id = prop_oneof![
        1 => Just(PathOrId::Id),
        3 => path_strategy().prop_map(PathOrId::Path),
    ];
    let atom = prop_oneof![
        Just(Shape::True),
        Just(Shape::False),
        (0u8..6).prop_map(|i| Shape::HasValue(node_term(i))),
        node_test_strategy().prop_map(Shape::Test),
        (path_or_id.clone(), 0u8..3).prop_map(|(f, p)| Shape::Eq(f, pred(p))),
        (path_or_id, 0u8..3).prop_map(|(f, p)| Shape::Disj(f, pred(p))),
        prop::collection::btree_set((0u8..3).prop_map(pred), 0..3).prop_map(Shape::Closed),
        (path_strategy(), 0u8..3).prop_map(|(e, p)| Shape::LessThan(e, pred(p))),
        (path_strategy(), 0u8..3).prop_map(|(e, p)| Shape::LessThanEq(e, pred(p))),
        (path_strategy(), 0u8..3).prop_map(|(e, p)| Shape::MoreThan(e, pred(p))),
        (path_strategy(), 0u8..3).prop_map(|(e, p)| Shape::MoreThanEq(e, pred(p))),
        path_strategy().prop_map(Shape::UniqueLang),
    ];
    atom.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|s| s.not()),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Shape::And),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Shape::Or),
            (0u32..3, path_strategy(), inner.clone()).prop_map(|(n, e, s)| Shape::geq(n, e, s)),
            (0u32..3, path_strategy(), inner.clone()).prop_map(|(n, e, s)| Shape::leq(n, e, s)),
            (path_strategy(), inner).prop_map(|(e, s)| Shape::for_all(e, s)),
        ]
    })
}

/// All nodes of a graph as terms (the candidate focus nodes).
pub fn focus_candidates(g: &Graph) -> Vec<Term> {
    let mut nodes: Vec<Term> = g.nodes().into_iter().cloned().collect();
    nodes.push(node_term(0)); // possibly absent from the graph
    nodes
}

/// Syntactically monotone shapes (the class closed under triple addition):
/// ⊤, ⊥, `hasValue`, `test`, `≥n E.φ` with monotone φ, conjunction and
/// disjunction.
pub fn monotone_shape_strategy() -> impl Strategy<Value = Shape> {
    let atom = prop_oneof![
        Just(Shape::True),
        (0u8..6).prop_map(|i| Shape::HasValue(node_term(i))),
        Just(Shape::Test(NodeTest::Kind(NodeKind::Iri))),
    ];
    atom.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(Shape::And),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Shape::Or),
            (0u32..3, path_strategy(), inner).prop_map(|(n, e, s)| Shape::geq(n, e, s)),
        ]
    })
}
