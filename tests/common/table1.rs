//! A reference reading of Table 1 (conformance `H, G, a ⊨ φ`) over the
//! general shape algebra, for the property suites to check the deciders
//! against.
//!
//! It follows the table row by row: no NNF, no memo, no batching and no
//! governor. `hasShape(s)` decides `def(s, H)` from the schema, and every
//! path is evaluated with [`CompiledPath::eval_from`]. The deciders under
//! test state Table 1 over NNF only, so comparing them with each other
//! cannot catch a rule that both get wrong; comparing them with this can.

use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

use shape_fragments::rdf::{GraphAccess, Iri, Term, TermId};
use shape_fragments::shacl::shape::PathOrId;
use shape_fragments::shacl::{CompiledPath, PathExpr, Schema, Shape};

/// Table 1 over one schema and graph, with the compiled paths kept per
/// path expression.
pub struct Table1<'a, G: GraphAccess> {
    schema: &'a Schema,
    graph: &'a G,
    paths: HashMap<PathExpr, CompiledPath>,
}

impl<'a, G: GraphAccess> Table1<'a, G> {
    pub fn new(schema: &'a Schema, graph: &'a G) -> Self {
        Table1 {
            schema,
            graph,
            paths: HashMap::new(),
        }
    }

    /// `⟦E⟧^G(a)`.
    fn eval(&mut self, path: &PathExpr, a: TermId) -> BTreeSet<TermId> {
        let graph = self.graph;
        self.paths
            .entry(path.clone())
            .or_insert_with(|| CompiledPath::new(path, graph))
            .eval_from(graph, a)
    }

    /// `⟦F⟧^G(a)` for a path or `id`.
    fn eval_or_id(&mut self, f: &PathOrId, a: TermId) -> BTreeSet<TermId> {
        match f {
            PathOrId::Id => BTreeSet::from([a]),
            PathOrId::Path(e) => self.eval(e, a),
        }
    }

    /// `⟦p⟧^G(a)`.
    fn prop(&mut self, p: &Iri, a: TermId) -> BTreeSet<TermId> {
        self.eval(&PathExpr::Prop(p.clone()), a)
    }

    /// Number of `E`-successors of `a` that conform to `inner`.
    fn count(&mut self, path: &PathExpr, a: TermId, inner: &Shape) -> usize {
        let successors = self.eval(path, a);
        successors
            .into_iter()
            .filter(|&b| self.conforms(b, inner))
            .count()
    }

    /// Every `b ∈ ⟦E⟧(a)` and `c ∈ ⟦p⟧(a)` are literals whose values
    /// compare as `want` allows.
    fn compare(
        &mut self,
        path: &PathExpr,
        p: &Iri,
        a: TermId,
        want: impl Fn(Ordering) -> bool,
    ) -> bool {
        let left = self.eval(path, a);
        let right = self.prop(p, a);
        left.iter().all(|&b| {
            right
                .iter()
                .all(|&c| match (self.graph.term(b), self.graph.term(c)) {
                    (Term::Literal(lb), Term::Literal(lc)) => {
                        lb.value().partial_cmp_value(&lc.value()).is_some_and(&want)
                    }
                    _ => false,
                })
        })
    }

    /// `H, G, a ⊨ φ`.
    pub fn conforms(&mut self, a: TermId, shape: &Shape) -> bool {
        let graph = self.graph;
        match shape {
            Shape::True => true,
            Shape::False => false,
            Shape::HasShape(s) => {
                let schema = self.schema;
                self.conforms(a, schema.def(s))
            }
            Shape::Test(t) => t.satisfied_by(graph.term(a)),
            Shape::HasValue(c) => graph.term(a) == c,
            Shape::Eq(f, p) => self.eval_or_id(f, a) == self.prop(p, a),
            Shape::Disj(f, p) => self.eval_or_id(f, a).is_disjoint(&self.prop(p, a)),
            Shape::Closed(allowed) => graph
                .out_edges_ids(a)
                .all(|(p, _)| matches!(graph.term(p), Term::Iri(iri) if allowed.contains(iri))),
            Shape::LessThan(e, p) => self.compare(e, p, a, |o| o == Ordering::Less),
            Shape::LessThanEq(e, p) => self.compare(e, p, a, |o| o != Ordering::Greater),
            Shape::MoreThan(e, p) => self.compare(e, p, a, |o| o == Ordering::Greater),
            Shape::MoreThanEq(e, p) => self.compare(e, p, a, |o| o != Ordering::Less),
            Shape::UniqueLang(e) => {
                let mut tags = BTreeSet::new();
                self.eval(e, a).into_iter().all(|b| match graph.term(b) {
                    Term::Literal(lit) => lit.language().is_none_or(|tag| tags.insert(tag)),
                    _ => true,
                })
            }
            Shape::Not(inner) => !self.conforms(a, inner),
            Shape::And(items) => items.iter().all(|s| self.conforms(a, s)),
            Shape::Or(items) => items.iter().any(|s| self.conforms(a, s)),
            Shape::Geq(n, e, inner) => self.count(e, a, inner) >= *n as usize,
            Shape::Leq(n, e, inner) => self.count(e, a, inner) <= *n as usize,
            Shape::ForAll(e, inner) => {
                let successors = self.eval(e, a);
                successors.into_iter().all(|b| self.conforms(b, inner))
            }
        }
    }
}
