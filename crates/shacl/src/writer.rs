//! Serialization of formal schemas back to SHACL shapes graphs — the
//! inverse of the Appendix A translation.
//!
//! Every construct of the shape algebra maps to SHACL core except the two
//! extensions, which use an extension namespace `shx:`
//! (`http://shapefragments.example.org/ext#`): `shx:moreThan` /
//! `shx:moreThanOrEquals` (Remark 2.3) and `shx:negatedPropertySet`
//! (Remark 6.3). [`crate::parser`] reads the extension vocabulary back, so
//! `parse(write(schema))` is semantics-preserving for every schema —
//! exercised by the round-trip property tests.

use shapefrag_rdf::vocab::{rdf, sh};
use shapefrag_rdf::{BlankNode, Graph, Iri, Literal, Term, Triple};

use crate::node_test::{NodeKind, NodeTest};
use crate::path::PathExpr;
use crate::schema::Schema;
use crate::shape::{PathOrId, Shape};

/// The extension namespace for constructs beyond SHACL core.
pub const SHX_NS: &str = "http://shapefragments.example.org/ext#";

pub(crate) fn shx(local: &str) -> Iri {
    Iri::new(format!("{SHX_NS}{local}"))
}

/// Serializes a schema as a SHACL shapes graph.
///
/// Targets outside the real-SHACL forms (node / class / subjects-of /
/// objects-of, or disjunctions thereof; `⊥` = never targeted) have no
/// SHACL syntax and are silently written as *no target* — the shape
/// definition survives but is never checked via targets after a round
/// trip. Use [`schema_to_shapes_graph_strict`] to get an error instead.
pub fn schema_to_shapes_graph(schema: &Schema) -> Graph {
    let mut w = Writer {
        graph: Graph::new(),
        counter: 0,
    };
    for def in schema.iter() {
        let node = def.name.clone();
        w.insert(node.clone(), rdf::type_(), Term::Iri(sh::node_shape()));
        w.write_shape_body(&node, &def.shape);
        w.write_target(&node, &def.target);
    }
    w.graph
}

/// A target shape that has no SHACL target syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedTarget {
    /// The shape definition's name.
    pub shape: Term,
}

impl std::fmt::Display for UnsupportedTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the target of shape {} has no SHACL target syntax and would be lost on write",
            self.shape
        )
    }
}

impl std::error::Error for UnsupportedTarget {}

/// Like [`schema_to_shapes_graph`], but fails instead of silently dropping
/// targets that real SHACL cannot express.
pub fn schema_to_shapes_graph_strict(schema: &Schema) -> Result<Graph, UnsupportedTarget> {
    for def in schema.iter() {
        if !target_is_expressible(&def.target) {
            return Err(UnsupportedTarget {
                shape: def.name.clone(),
            });
        }
    }
    Ok(schema_to_shapes_graph(schema))
}

/// Whether a target shape maps onto SHACL target declarations.
fn target_is_expressible(target: &Shape) -> bool {
    match target {
        Shape::False | Shape::HasValue(_) => true,
        Shape::Or(items) => items.iter().all(target_is_expressible),
        Shape::Geq(1, path, inner) => match (path, inner.as_ref()) {
            (PathExpr::Prop(_), Shape::True) => true,
            (PathExpr::Inverse(inv), Shape::True) => {
                matches!(inv.as_ref(), PathExpr::Prop(_))
            }
            (PathExpr::Seq(first, rest), Shape::HasValue(_)) => matches!(
                (first.as_ref(), rest.as_ref()),
                (PathExpr::Prop(tp), PathExpr::ZeroOrMore(sub))
                    if *tp == rdf::type_() && matches!(sub.as_ref(), PathExpr::Prop(_))
            ),
            _ => false,
        },
        _ => false,
    }
}

/// Serializes a schema as SHACL Turtle text.
pub fn schema_to_turtle(schema: &Schema) -> String {
    shapefrag_rdf::turtle::serialize(
        &schema_to_shapes_graph(schema),
        &[
            ("sh", shapefrag_rdf::vocab::SH_NS),
            ("shx", SHX_NS),
            ("rdf", shapefrag_rdf::vocab::RDF_NS),
        ],
    )
}

struct Writer {
    graph: Graph,
    counter: usize,
}

impl Writer {
    fn insert(&mut self, s: Term, p: Iri, o: Term) {
        self.graph.insert(Triple::new(s, p, o));
    }

    fn fresh(&mut self) -> Term {
        self.counter += 1;
        Term::Blank(BlankNode::new(format!("w{}", self.counter)))
    }

    fn list(&mut self, items: Vec<Term>) -> Term {
        let mut tail = Term::Iri(rdf::nil());
        for item in items.into_iter().rev() {
            let cell = self.fresh();
            self.insert(cell.clone(), rdf::first(), item);
            self.insert(cell.clone(), rdf::rest(), tail);
            tail = cell;
        }
        tail
    }

    /// A fresh anonymous node shape wrapping `shape`.
    fn aux_shape(&mut self, shape: &Shape) -> Term {
        let node = self.fresh();
        self.write_shape_body(&node, shape);
        node
    }

    /// Writes the constraints of `shape` onto the (node-shape) `node`.
    fn write_shape_body(&mut self, node: &Term, shape: &Shape) {
        match shape {
            Shape::True => {} // the empty node shape
            Shape::False => {
                // ¬⊤: sh:not of the empty shape.
                let empty = self.fresh();
                self.insert(node.clone(), sh::not(), empty);
            }
            Shape::HasShape(name) => {
                self.insert(node.clone(), sh::node(), name.clone());
            }
            Shape::Test(t) => self.write_test(node, t),
            Shape::HasValue(c) => {
                self.insert(node.clone(), sh::has_value(), c.clone());
            }
            Shape::Eq(PathOrId::Id, p) => {
                self.insert(node.clone(), sh::equals(), Term::Iri(p.clone()));
            }
            Shape::Disj(PathOrId::Id, p) => {
                self.insert(node.clone(), sh::disjoint(), Term::Iri(p.clone()));
            }
            Shape::Eq(PathOrId::Path(e), p) => {
                self.pair_property(node, e, sh::equals(), p);
            }
            Shape::Disj(PathOrId::Path(e), p) => {
                self.pair_property(node, e, sh::disjoint(), p);
            }
            Shape::LessThan(e, p) => self.pair_property(node, e, sh::less_than(), p),
            Shape::LessThanEq(e, p) => self.pair_property(node, e, sh::less_than_or_equals(), p),
            Shape::MoreThan(e, p) => self.pair_property(node, e, shx("moreThan"), p),
            Shape::MoreThanEq(e, p) => self.pair_property(node, e, shx("moreThanOrEquals"), p),
            Shape::Closed(allowed) => {
                self.insert(
                    node.clone(),
                    sh::closed(),
                    Term::Literal(Literal::boolean(true)),
                );
                let items: Vec<Term> = allowed.iter().map(|p| Term::Iri(p.clone())).collect();
                let list = self.list(items);
                self.insert(node.clone(), sh::ignored_properties(), list);
            }
            Shape::UniqueLang(e) => {
                let prop = self.property_shape(e);
                self.insert(
                    prop.clone(),
                    sh::unique_lang(),
                    Term::Literal(Literal::boolean(true)),
                );
                self.insert(node.clone(), sh::property(), prop);
            }
            Shape::Not(inner) => {
                let aux = self.aux_shape(inner);
                self.insert(node.clone(), sh::not(), aux);
            }
            Shape::And(items) => {
                let members: Vec<Term> = items.iter().map(|s| self.aux_shape(s)).collect();
                let list = self.list(members);
                self.insert(node.clone(), sh::and(), list);
            }
            Shape::Or(items) => {
                let members: Vec<Term> = items.iter().map(|s| self.aux_shape(s)).collect();
                let list = self.list(members);
                self.insert(node.clone(), sh::or(), list);
            }
            Shape::Geq(n, e, inner) => self.quantifier(node, *n, e, inner, true),
            Shape::Leq(n, e, inner) => self.quantifier(node, *n, e, inner, false),
            Shape::ForAll(e, inner) => {
                let prop = self.property_shape(e);
                let aux = self.aux_shape(inner);
                self.insert(prop.clone(), sh::node(), aux);
                self.insert(node.clone(), sh::property(), prop);
            }
        }
    }

    /// `≥n E.ψ` / `≤n E.ψ` as (qualified) cardinality property shapes.
    fn quantifier(&mut self, node: &Term, n: u32, e: &PathExpr, inner: &Shape, min: bool) {
        let prop = self.property_shape(e);
        let count = Term::Literal(Literal::integer(n as i64));
        if matches!(inner, Shape::True) {
            let keyword = if min {
                sh::min_count()
            } else {
                sh::max_count()
            };
            self.insert(prop.clone(), keyword, count);
        } else {
            let aux = self.aux_shape(inner);
            self.insert(prop.clone(), sh::qualified_value_shape(), aux);
            let keyword = if min {
                sh::qualified_min_count()
            } else {
                sh::qualified_max_count()
            };
            self.insert(prop.clone(), keyword, count);
        }
        self.insert(node.clone(), sh::property(), prop);
    }

    /// A fresh property shape carrying `sh:path` for `e`.
    fn property_shape(&mut self, e: &PathExpr) -> Term {
        let prop = self.fresh();
        let path = self.write_path(e);
        self.insert(prop.clone(), sh::path(), path);
        prop
    }

    fn pair_property(&mut self, node: &Term, e: &PathExpr, keyword: Iri, p: &Iri) {
        let prop = self.property_shape(e);
        self.insert(prop.clone(), keyword, Term::Iri(p.clone()));
        self.insert(node.clone(), sh::property(), prop);
    }

    /// A.2 in reverse: path expressions to SHACL property paths.
    fn write_path(&mut self, e: &PathExpr) -> Term {
        match e {
            PathExpr::Prop(p) => Term::Iri(p.clone()),
            PathExpr::NegProp(ps) => {
                let node = self.fresh();
                let items: Vec<Term> = ps.iter().map(|p| Term::Iri(p.clone())).collect();
                let list = self.list(items);
                self.insert(node.clone(), shx("negatedPropertySet"), list);
                node
            }
            PathExpr::Inverse(inner) => {
                let node = self.fresh();
                let target = self.write_path(inner);
                self.insert(node.clone(), sh::inverse_path(), target);
                node
            }
            PathExpr::Seq(a, b) => {
                // Flatten nested sequences into one SHACL list.
                let mut parts = Vec::new();
                flatten_seq(e, &mut parts);
                let _ = (a, b);
                let items: Vec<Term> = parts.iter().map(|p| self.write_path(p)).collect();
                self.list(items)
            }
            PathExpr::Alt(_, _) => {
                let mut parts = Vec::new();
                flatten_alt(e, &mut parts);
                let node = self.fresh();
                let items: Vec<Term> = parts.iter().map(|p| self.write_path(p)).collect();
                let list = self.list(items);
                self.insert(node.clone(), sh::alternative_path(), list);
                node
            }
            PathExpr::ZeroOrMore(inner) => {
                let node = self.fresh();
                let target = self.write_path(inner);
                self.insert(node.clone(), sh::zero_or_more_path(), target);
                node
            }
            PathExpr::ZeroOrOne(inner) => {
                let node = self.fresh();
                let target = self.write_path(inner);
                self.insert(node.clone(), sh::zero_or_one_path(), target);
                node
            }
        }
    }

    fn write_test(&mut self, node: &Term, t: &NodeTest) {
        match t {
            NodeTest::Kind(kind) => {
                let iri = match kind {
                    NodeKind::Iri => sh::iri(),
                    NodeKind::BlankNode => sh::blank_node(),
                    NodeKind::Literal => sh::literal(),
                    NodeKind::BlankNodeOrIri => sh::blank_node_or_iri(),
                    NodeKind::BlankNodeOrLiteral => sh::blank_node_or_literal(),
                    NodeKind::IriOrLiteral => sh::iri_or_literal(),
                };
                self.insert(node.clone(), sh::node_kind(), Term::Iri(iri));
            }
            NodeTest::Datatype(dt) => {
                self.insert(node.clone(), sh::datatype(), Term::Iri(dt.clone()));
            }
            NodeTest::MinExclusive(b) => {
                self.insert(node.clone(), sh::min_exclusive(), Term::Literal(b.clone()));
            }
            NodeTest::MinInclusive(b) => {
                self.insert(node.clone(), sh::min_inclusive(), Term::Literal(b.clone()));
            }
            NodeTest::MaxExclusive(b) => {
                self.insert(node.clone(), sh::max_exclusive(), Term::Literal(b.clone()));
            }
            NodeTest::MaxInclusive(b) => {
                self.insert(node.clone(), sh::max_inclusive(), Term::Literal(b.clone()));
            }
            NodeTest::MinLength(n) => {
                self.insert(
                    node.clone(),
                    sh::min_length(),
                    Term::Literal(Literal::integer(*n as i64)),
                );
            }
            NodeTest::MaxLength(n) => {
                self.insert(
                    node.clone(),
                    sh::max_length(),
                    Term::Literal(Literal::integer(*n as i64)),
                );
            }
            NodeTest::Pattern(p) => {
                self.insert(
                    node.clone(),
                    sh::pattern(),
                    Term::Literal(Literal::string(p.source().to_owned())),
                );
                if !p.flags().is_empty() {
                    self.insert(
                        node.clone(),
                        sh::flags(),
                        Term::Literal(Literal::string(p.flags().to_owned())),
                    );
                }
            }
            NodeTest::Language(range) => {
                let list = self.list(vec![Term::Literal(Literal::string(range.clone()))]);
                self.insert(node.clone(), sh::language_in(), list);
            }
        }
    }

    /// Standard target forms become target declarations; a disjunction of
    /// standard forms becomes several declarations; anything else (incl. ⊥,
    /// "never targeted") is written as no target.
    fn write_target(&mut self, node: &Term, target: &Shape) {
        match target {
            Shape::False => {}
            Shape::Or(items) => {
                for item in items {
                    self.write_target(node, item);
                }
            }
            Shape::HasValue(c) => {
                self.insert(node.clone(), sh::target_node(), c.clone());
            }
            Shape::Geq(1, path, inner) => match (path, inner.as_ref()) {
                (PathExpr::Prop(p), Shape::True) => {
                    self.insert(node.clone(), sh::target_subjects_of(), Term::Iri(p.clone()));
                }
                (PathExpr::Inverse(inv), Shape::True) => {
                    if let PathExpr::Prop(p) = inv.as_ref() {
                        self.insert(node.clone(), sh::target_objects_of(), Term::Iri(p.clone()));
                    }
                }
                (PathExpr::Seq(first, rest), Shape::HasValue(c)) => {
                    // type/sub* class target.
                    if matches!(
                        (first.as_ref(), rest.as_ref()),
                        (PathExpr::Prop(tp), PathExpr::ZeroOrMore(_)) if *tp == rdf::type_()
                    ) {
                        self.insert(node.clone(), sh::target_class(), c.clone());
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }
}

fn flatten_seq<'a>(e: &'a PathExpr, out: &mut Vec<&'a PathExpr>) {
    match e {
        PathExpr::Seq(a, b) => {
            flatten_seq(a, out);
            flatten_seq(b, out);
        }
        other => out.push(other),
    }
}

fn flatten_alt<'a>(e: &'a PathExpr, out: &mut Vec<&'a PathExpr>) {
    match e {
        PathExpr::Alt(a, b) => {
            flatten_alt(a, out);
            flatten_alt(b, out);
        }
        other => out.push(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::schema_from_shapes_graph;
    use crate::schema::ShapeDef;
    use crate::validator::Context;
    use shapefrag_rdf::GraphAccess;

    fn term(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn iri(n: &str) -> Iri {
        Iri::new(format!("http://e/{n}"))
    }

    fn p(n: &str) -> PathExpr {
        PathExpr::Prop(iri(n))
    }

    fn round_trip(schema: &Schema) -> Schema {
        let graph = schema_to_shapes_graph(schema);
        schema_from_shapes_graph(&graph).expect("written shapes graph reparses")
    }

    /// Semantic agreement of a schema and its round trip on a test graph.
    fn assert_semantics_equal(original: &Schema, graph: &Graph) {
        let reparsed = round_trip(original);
        let mut ctx1 = Context::new(original, graph);
        let mut ctx2 = Context::new(&reparsed, graph);
        for def in original.iter() {
            let shape1 = Shape::HasShape(def.name.clone());
            // The round-tripped schema keeps the same top-level names.
            let def2 = reparsed
                .get(&def.name)
                .unwrap_or_else(|| panic!("{} lost in round trip", def.name));
            let shape2 = Shape::HasShape(def2.name.clone());
            for v in graph.node_ids() {
                assert_eq!(
                    ctx1.conforms(v, &shape1),
                    ctx2.conforms(v, &shape2),
                    "shape semantics changed for {} at {}",
                    def.name,
                    graph.term(v)
                );
                assert_eq!(
                    ctx1.conforms(v, &def.target),
                    ctx2.conforms(v, &def2.target),
                    "target semantics changed for {} at {}",
                    def.name,
                    graph.term(v)
                );
            }
        }
    }

    fn data() -> Graph {
        let t = |s: &str, pp: &str, o: &str| Triple::new(term(s), iri(pp), term(o));
        let mut g = Graph::from_triples([
            t("a", "p0", "b"),
            t("b", "p1", "c"),
            t("a", "p1", "a"),
            t("c", "p2", "a"),
            t("x", "p0", "c"),
        ]);
        g.insert(Triple::new(term("a"), rdf::type_(), term("C")));
        g.insert(Triple::new(
            term("a"),
            iri("lit"),
            Term::Literal(Literal::integer(5)),
        ));
        g.insert(Triple::new(
            term("a"),
            iri("lab"),
            Term::Literal(Literal::lang_string("x", "en")),
        ));
        g
    }

    #[test]
    fn round_trip_core_constructs() {
        let defs = vec![
            ShapeDef::new(
                term("S1"),
                Shape::geq(1, p("p0"), Shape::geq(2, p("p1"), Shape::True)),
                Shape::geq(1, p("p0"), Shape::True),
            ),
            ShapeDef::new(
                term("S2"),
                Shape::for_all(p("p0"), Shape::Test(NodeTest::Kind(NodeKind::Iri)))
                    .and(Shape::leq(3, p("p1"), Shape::True)),
                Shape::HasValue(term("a")),
            ),
            ShapeDef::new(
                term("S3"),
                Shape::Eq(PathOrId::Id, iri("p1"))
                    .or(Shape::Disj(PathOrId::Path(p("p0")), iri("p1"))),
                Shape::geq(1, p("p2").inverse(), Shape::True),
            ),
            ShapeDef::new(
                term("S4"),
                Shape::Closed([iri("p0"), iri("p1")].into())
                    .and(Shape::UniqueLang(p("lab")))
                    .and(Shape::LessThan(p("lit"), iri("lit2"))),
                Shape::False,
            ),
        ];
        let schema = Schema::new(defs).unwrap();
        assert_semantics_equal(&schema, &data());
    }

    #[test]
    fn round_trip_extensions() {
        let defs = vec![ShapeDef::new(
            term("Ext"),
            Shape::MoreThan(p("lit"), iri("lit2"))
                .and(Shape::MoreThanEq(p("lit"), iri("lit3")))
                .and(Shape::geq(1, PathExpr::neg_props([iri("p0")]), Shape::True)),
            Shape::geq(1, p("p0"), Shape::True),
        )];
        let schema = Schema::new(defs).unwrap();
        assert_semantics_equal(&schema, &data());
    }

    #[test]
    fn round_trip_complex_paths() {
        let path = p("p0")
            .then(p("p1").or(p("p2")).star())
            .then(p("p1").inverse().opt());
        let defs = vec![ShapeDef::new(
            term("Paths"),
            Shape::geq(1, path, Shape::True),
            Shape::geq(
                1,
                PathExpr::Prop(rdf::type_())
                    .then(PathExpr::Prop(shapefrag_rdf::vocab::rdfs::sub_class_of()).star()),
                Shape::has_value(term("C")),
            ),
        )];
        let schema = Schema::new(defs).unwrap();
        assert_semantics_equal(&schema, &data());
    }

    #[test]
    fn strict_writer_rejects_inexpressible_targets() {
        let good = Schema::new(vec![ShapeDef::new(
            term("S"),
            Shape::True,
            Shape::geq(1, p("p0"), Shape::True),
        )])
        .unwrap();
        assert!(schema_to_shapes_graph_strict(&good).is_ok());
        let bad = Schema::new(vec![ShapeDef::new(
            term("S"),
            Shape::True,
            Shape::geq(2, p("p0"), Shape::True), // no SHACL target syntax
        )])
        .unwrap();
        let err = schema_to_shapes_graph_strict(&bad).unwrap_err();
        assert_eq!(err.shape, term("S"));
    }

    #[test]
    fn written_turtle_parses() {
        let schema = Schema::new(vec![ShapeDef::new(
            term("S"),
            Shape::geq(
                1,
                p("p0"),
                Shape::Test(NodeTest::pattern("^a", "i").unwrap()),
            ),
            Shape::geq(1, p("p0"), Shape::True),
        )])
        .unwrap();
        let text = schema_to_turtle(&schema);
        assert!(text.contains("sh:qualifiedValueShape") || text.contains("qualifiedValueShape"));
        let graph = shapefrag_rdf::turtle::parse(&text).expect("turtle parses");
        let reparsed = schema_from_shapes_graph(&graph).expect("schema reparses");
        assert!(reparsed.get(&term("S")).is_some());
    }
}
