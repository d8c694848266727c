//! Translation of real SHACL shapes graphs into the formal algebra
//! (Appendix A of the paper).
//!
//! The entry point is [`schema_from_shapes_graph`] (or
//! [`parse_shapes_turtle`] for Turtle text). Shapes may be declared
//! explicitly (`sh:NodeShape` / `sh:PropertyShape`) or referenced from other
//! shapes (`sh:node`, `sh:property`, `sh:not`, `sh:and`/`sh:or`/`sh:xone`
//! members, `sh:qualifiedValueShape`); every reachable shape node receives a
//! definition in the resulting [`Schema`]. A shape node with an `sh:path` is
//! treated as a property shape, any other as a node shape.
//!
//! The translation reads the shapes graph by term id. Each vocabulary IRI
//! it consults is resolved to an id once per graph, each read of a shape
//! node's property is a lookup in that node's CSR run, and list and
//! worklist walks stay on ids; a [`Term`] is cloned only where a [`Shape`]
//! stores one. Wherever a property has several objects they are taken in
//! [`Term`] order, so definitions, and the first error reported, do not
//! depend on how the graph numbered its terms. Source spans
//! ([`SchemaSpans`]) are keyed by the same ids and are resolved only when
//! a diagnostic asks for one.

use std::collections::BTreeSet;
use std::fmt;

use shapefrag_govern::{EngineError, ErrorCode};
use shapefrag_rdf::turtle;
use shapefrag_rdf::vocab::{rdf, rdfs, sh};
use shapefrag_rdf::{GraphAccess, Iri, Literal, Span, Term, TermId, TripleSpans};

use crate::node_test::{NodeKind, NodeTest};
use crate::path::PathExpr;
use crate::schema::{Schema, SchemaError, ShapeDef};
use crate::shape::{PathOrId, Shape};
use crate::writer::shx;

/// An error translating a shapes graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShaclParseError {
    /// Machine-readable classification shared with the other parsers.
    pub code: ErrorCode,
    pub message: String,
}

impl ShaclParseError {
    /// A structural shapes-graph error ([`ErrorCode::BadStructure`]).
    pub fn new(message: impl Into<String>) -> Self {
        ShaclParseError::with_code(ErrorCode::BadStructure, message)
    }

    /// A classified error.
    pub fn with_code(code: ErrorCode, message: impl Into<String>) -> Self {
        ShaclParseError {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for ShaclParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid shapes graph [{}]: {}", self.code, self.message)
    }
}

impl std::error::Error for ShaclParseError {}

impl From<SchemaError> for ShaclParseError {
    fn from(e: SchemaError) -> Self {
        ShaclParseError::new(e.to_string())
    }
}

impl From<ShaclParseError> for EngineError {
    fn from(e: ShaclParseError) -> Self {
        EngineError::Malformed {
            code: e.code,
            line: 0,
            column: 0,
            message: e.message,
        }
    }
}

/// Source positions for a parsed shapes graph: where each shape definition
/// and each of its constraint properties appeared in the Turtle text.
/// Queried by shape name (an IRI, or the generated blank-node label of an
/// inline `[...]` shape).
#[derive(Debug, Clone, Default)]
pub struct SchemaSpans {
    spans: TripleSpans,
}

impl SchemaSpans {
    /// Position of a shape definition (the first statement about it).
    pub fn def(&self, name: &Term) -> Option<Span> {
        self.spans.subject(name)
    }

    /// Position of one constraint property on a shape (e.g. `sh:minCount`).
    pub fn constraint(&self, name: &Term, property: &Iri) -> Option<Span> {
        self.spans.predicate(name, property)
    }
}

/// Parses Turtle text into a schema (shapes graph → formal schema).
pub fn parse_shapes_turtle(text: &str) -> Result<Schema, ShaclParseError> {
    let graph = turtle::parse_frozen(text)
        .map_err(|e| ShaclParseError::with_code(e.code, e.to_string()))?;
    schema_from_shapes_graph(&graph)
}

/// [`parse_shapes_turtle`], additionally returning source positions for
/// every definition and constraint so diagnostics can point at the text.
pub fn parse_shapes_turtle_with_spans(
    text: &str,
) -> Result<(Schema, SchemaSpans), ShaclParseError> {
    let (graph, spans) = turtle::parse_with_spans(text)
        .map_err(|e| ShaclParseError::with_code(e.code, e.to_string()))?;
    let schema = schema_from_shapes_graph(&graph)?;
    Ok((schema, SchemaSpans { spans }))
}

/// [`parse_shapes_turtle_with_spans`] stopping before [`Schema::new`]'s
/// well-formedness gate: returns the raw definitions even when they are
/// recursive or duplicated, so the static analyzer can *report* those
/// defects instead of merely failing on them.
pub fn parse_shape_defs_turtle(
    text: &str,
) -> Result<(Vec<ShapeDef>, SchemaSpans), ShaclParseError> {
    let (graph, spans) = turtle::parse_with_spans(text)
        .map_err(|e| ShaclParseError::with_code(e.code, e.to_string()))?;
    let defs = defs_from_shapes_graph(&graph)?;
    Ok((defs, SchemaSpans { spans }))
}

/// Translates a SHACL shapes graph `S` into a schema `t(S)` (Appendix A).
pub fn schema_from_shapes_graph(shapes: &impl GraphAccess) -> Result<Schema, ShaclParseError> {
    Ok(Schema::new(defs_from_shapes_graph(shapes)?)?)
}

/// The translation underlying [`schema_from_shapes_graph`], without the
/// schema well-formedness checks (duplicate names, recursion). The
/// definitions come out ordered by name.
pub fn defs_from_shapes_graph(shapes: &impl GraphAccess) -> Result<Vec<ShapeDef>, ShaclParseError> {
    let tr = Translator {
        g: shapes,
        v: Vocab::of(shapes),
    };
    let shape_nodes = tr.collect_shape_nodes()?;
    let mut defs = Vec::with_capacity(shape_nodes.len());
    for node in shape_nodes {
        let name = tr.term(node);
        if name.is_literal() {
            // A malformed document can reference a literal where a shape is
            // expected (e.g. as an `sh:node` object); shape names must be
            // IRIs or blank nodes.
            return Err(ShaclParseError::new(format!(
                "literal used as a shape: {name}"
            )));
        }
        let expr = tr.translate_shape(node)?;
        let target = tr.translate_target(node)?;
        defs.push(ShapeDef::new(name.clone(), expr, target));
    }
    Ok(defs)
}

/// Declares [`Vocab`]: one field per IRI the translation reads.
macro_rules! vocab {
    ($($field:ident = $iri:expr),+ $(,)?) => {
        /// The vocabulary IRIs the translation reads, as ids of one shapes
        /// graph; `None` when the graph does not mention the IRI, so no
        /// triple carries it.
        struct Vocab {
            $($field: Option<TermId>),+
        }

        impl Vocab {
            fn of(g: &impl GraphAccess) -> Vocab {
                Vocab {
                    $($field: g.id_of_iri(&$iri)),+
                }
            }
        }
    };
}

vocab! {
    rdf_type = rdf::type_(),
    first = rdf::first(),
    rest = rdf::rest(),
    nil = rdf::nil(),
    node_shape = sh::node_shape(),
    property_shape = sh::property_shape(),
    path = sh::path(),
    inverse_path = sh::inverse_path(),
    alternative_path = sh::alternative_path(),
    zero_or_more_path = sh::zero_or_more_path(),
    one_or_more_path = sh::one_or_more_path(),
    zero_or_one_path = sh::zero_or_one_path(),
    negated_property_set = shx("negatedPropertySet"),
    node = sh::node(),
    property = sh::property(),
    and = sh::and(),
    or = sh::or(),
    not = sh::not(),
    xone = sh::xone(),
    class = sh::class(),
    datatype = sh::datatype(),
    node_kind = sh::node_kind(),
    min_exclusive = sh::min_exclusive(),
    min_inclusive = sh::min_inclusive(),
    max_exclusive = sh::max_exclusive(),
    max_inclusive = sh::max_inclusive(),
    min_length = sh::min_length(),
    max_length = sh::max_length(),
    pattern = sh::pattern(),
    flags = sh::flags(),
    language_in = sh::language_in(),
    unique_lang = sh::unique_lang(),
    equals = sh::equals(),
    disjoint = sh::disjoint(),
    less_than = sh::less_than(),
    less_than_or_equals = sh::less_than_or_equals(),
    more_than = shx("moreThan"),
    more_than_or_equals = shx("moreThanOrEquals"),
    min_count = sh::min_count(),
    max_count = sh::max_count(),
    qualified_value_shape = sh::qualified_value_shape(),
    qualified_min_count = sh::qualified_min_count(),
    qualified_max_count = sh::qualified_max_count(),
    qualified_value_shapes_disjoint = sh::qualified_value_shapes_disjoint(),
    closed = sh::closed(),
    ignored_properties = sh::ignored_properties(),
    has_value = sh::has_value(),
    in_ = sh::in_(),
    deactivated = sh::deactivated(),
    target_node = sh::target_node(),
    target_class = sh::target_class(),
    target_subjects_of = sh::target_subjects_of(),
    target_objects_of = sh::target_objects_of(),
}

struct Translator<'g, G> {
    g: &'g G,
    v: Vocab,
}

impl<'g, G: GraphAccess> Translator<'g, G> {
    fn term(&self, id: TermId) -> &'g Term {
        self.g.term(id)
    }

    /// The IRI of a vocabulary id that an object was read through, for
    /// messages.
    fn iri(&self, p: Option<TermId>) -> &'g Term {
        self.term(p.expect("a property with an object is interned"))
    }

    /// Sorts ids by their terms.
    fn sort(&self, ids: &mut [TermId]) {
        ids.sort_unstable_by(|a, b| self.term(*a).cmp(self.term(*b)));
    }

    /// The objects of `(x, p)`, in term order.
    fn objects(&self, x: TermId, p: Option<TermId>) -> Vec<TermId> {
        let Some(p) = p else {
            return Vec::new();
        };
        let mut out: Vec<TermId> = self.g.objects_ids(x, p).collect();
        if out.len() > 1 {
            self.sort(&mut out);
        }
        out
    }

    /// The least object of `(x, p)` in term order.
    fn first_object(&self, x: TermId, p: Option<TermId>) -> Option<TermId> {
        self.g
            .objects_ids(x, p?)
            .min_by(|a, b| self.term(*a).cmp(self.term(*b)))
    }

    /// True iff `(x, p)` has an object.
    fn has(&self, x: TermId, p: Option<TermId>) -> bool {
        p.is_some_and(|p| self.g.objects_ids(x, p).next().is_some())
    }

    /// True iff some object of `(x, p)` is a literal spelled `true`.
    fn is_true(&self, x: TermId, p: Option<TermId>) -> bool {
        p.is_some_and(|p| {
            self.g
                .objects_ids(x, p)
                .any(|v| matches!(self.term(v), Term::Literal(l) if l.lexical() == "true"))
        })
    }

    /// The only object of `(x, p)`, if it has exactly one.
    fn only_object(&self, x: TermId, p: Option<TermId>) -> Option<TermId> {
        let mut objects = self.g.objects_ids(x, p?);
        let first = objects.next()?;
        objects.next().is_none().then_some(first)
    }

    /// Reads the `rdf:first`/`rdf:rest` list starting at `head`. Returns
    /// `None` if it is malformed (missing or repeated links, or a cycle).
    fn list(&self, head: TermId) -> Option<Vec<TermId>> {
        let mut items = Vec::new();
        let mut current = head;
        let mut steps = 0usize;
        while Some(current) != self.v.nil {
            steps += 1;
            if steps > self.g.len() + 1 {
                return None; // cycle
            }
            items.push(self.only_object(current, self.v.first)?);
            current = self.only_object(current, self.v.rest)?;
        }
        Some(items)
    }

    /// The lists of the objects of `(x, p)`, in term order of their heads.
    fn list_objects(&self, x: TermId, p: Option<TermId>) -> Result<Vec<TermId>, ShaclParseError> {
        let mut out = Vec::new();
        for head in self.objects(x, p) {
            let items = self.list(head).ok_or_else(|| {
                ShaclParseError::new(format!(
                    "malformed SHACL list at {} for {}",
                    self.term(head),
                    self.iri(p)
                ))
            })?;
            out.extend(items);
        }
        Ok(out)
    }

    /// The list at each object of `(x, p)`, in term order of their heads;
    /// a malformed one fails with `message`.
    fn lists(
        &self,
        x: TermId,
        p: Option<TermId>,
        message: &str,
    ) -> Result<Vec<Vec<TermId>>, ShaclParseError> {
        self.objects(x, p)
            .into_iter()
            .map(|head| self.list(head).ok_or_else(|| ShaclParseError::new(message)))
            .collect()
    }

    /// `hasShape` of the shape named by `y`.
    fn has_shape(&self, y: TermId) -> Shape {
        Shape::HasShape(self.term(y).clone())
    }

    /// `hasValue` of the term `y`.
    fn has_value(&self, y: TermId) -> Shape {
        Shape::HasValue(self.term(y).clone())
    }

    /// The IRI `y` names, if it is one.
    fn as_iri(&self, y: TermId) -> Option<Iri> {
        match self.term(y) {
            Term::Iri(p) => Some(p.clone()),
            _ => None,
        }
    }

    /// All shape nodes: declared ones plus everything reachable through
    /// shape-referencing properties, in term order.
    fn collect_shape_nodes(&self) -> Result<Vec<TermId>, ShaclParseError> {
        let mut queue: Vec<TermId> = Vec::new();
        if let Some(type_) = self.v.rdf_type {
            for class in [self.v.node_shape, self.v.property_shape]
                .into_iter()
                .flatten()
            {
                queue.extend(self.g.subjects_ids(class, type_));
            }
        }
        self.sort(&mut queue);
        let mut seen = vec![false; self.g.term_count()];
        let mut out = Vec::new();
        while let Some(node) = queue.pop() {
            if std::mem::replace(&mut seen[node.0 as usize], true) {
                continue;
            }
            // References to other shapes.
            for p in [
                self.v.node,
                self.v.property,
                self.v.not,
                self.v.qualified_value_shape,
            ] {
                queue.extend(self.objects(node, p));
            }
            for p in [self.v.and, self.v.or, self.v.xone] {
                queue.extend(self.list_objects(node, p)?);
            }
            out.push(node);
        }
        self.sort(&mut out);
        Ok(out)
    }

    /// `t_nodeshape` / `t_propertyshape` dispatch.
    fn translate_shape(&self, x: TermId) -> Result<Shape, ShaclParseError> {
        // sh:deactivated true — the shape imposes no constraint.
        if self.is_true(x, self.v.deactivated) {
            return Ok(Shape::True);
        }
        if self.has(x, self.v.path) {
            self.translate_property_shape(x)
        } else {
            self.translate_node_shape(x)
        }
    }

    /// Appendix A.1: `t_nodeshape(d_x)`.
    fn translate_node_shape(&self, x: TermId) -> Result<Shape, ShaclParseError> {
        let mut conj = Vec::new();
        conj.extend(self.t_shape(x));
        conj.extend(self.t_logic(x)?);
        conj.extend(self.t_tests(x)?);
        conj.extend(self.t_value(x));
        conj.extend(self.t_in(x)?);
        conj.extend(self.t_closed(x)?);
        conj.extend(self.t_pair_id(x));
        // languageIn applied to the focus node itself.
        conj.extend(self.t_language_in(x)?);
        Ok(Shape::conj(conj))
    }

    /// Appendix A.3: `t_propertyshape(d_x)`.
    fn translate_property_shape(&self, x: TermId) -> Result<Shape, ShaclParseError> {
        let paths = self.objects(x, self.v.path);
        if paths.len() != 1 {
            return Err(ShaclParseError::new(format!(
                "property shape {} must have exactly one sh:path",
                self.term(x)
            )));
        }
        let e = self.translate_path(paths[0])?;
        let mut conj = Vec::new();
        conj.extend(self.t_card(&e, x));
        conj.extend(self.t_pair_path(&e, x));
        conj.extend(self.t_qual(&e, x)?);
        conj.extend(self.t_all(&e, x)?);
        conj.extend(self.t_uniquelang(&e, x));
        Ok(Shape::conj(conj))
    }

    /// A.1.1 `t_shape`: sh:node / sh:property become `hasShape` references.
    fn t_shape(&self, x: TermId) -> Vec<Shape> {
        let mut out = Vec::new();
        for p in [self.v.node, self.v.property] {
            out.extend(self.objects(x, p).into_iter().map(|y| self.has_shape(y)));
        }
        out
    }

    /// A.1.2 `t_logic`: sh:and, sh:or, sh:not, sh:xone.
    fn t_logic(&self, x: TermId) -> Result<Vec<Shape>, ShaclParseError> {
        let mut out = Vec::new();
        for items in self.lists(x, self.v.and, "malformed sh:and list")? {
            out.push(Shape::conj(
                items.into_iter().map(|y| self.has_shape(y)).collect(),
            ));
        }
        for items in self.lists(x, self.v.or, "malformed sh:or list")? {
            out.push(Shape::disj_of(
                items.into_iter().map(|y| self.has_shape(y)).collect(),
            ));
        }
        for y in self.objects(x, self.v.not) {
            out.push(self.has_shape(y).not());
        }
        for items in self.lists(x, self.v.xone, "malformed sh:xone list")? {
            let mut branches = Vec::new();
            for (i, &y) in items.iter().enumerate() {
                let mut branch = vec![self.has_shape(y)];
                for (j, &z) in items.iter().enumerate() {
                    if i != j {
                        branch.push(self.has_shape(z).not());
                    }
                }
                branches.push(Shape::conj(branch));
            }
            out.push(Shape::disj_of(branches));
        }
        Ok(out)
    }

    /// A.1.3 `t_tests`: class, datatype, nodeKind, value ranges, string
    /// constraints.
    fn t_tests(&self, x: TermId) -> Result<Vec<Shape>, ShaclParseError> {
        let mut out = Vec::new();
        // sh:class → ≥1 rdf:type/rdfs:subClassOf*.hasValue(y)
        for y in self.objects(x, self.v.class) {
            out.push(Shape::geq(1, type_path(), self.has_value(y)));
        }
        for y in self.objects(x, self.v.datatype) {
            let Some(dt) = self.as_iri(y) else {
                return Err(ShaclParseError::new("sh:datatype requires an IRI"));
            };
            out.push(Shape::Test(NodeTest::Datatype(dt)));
        }
        for y in self.objects(x, self.v.node_kind) {
            let Term::Iri(kind_iri) = self.term(y) else {
                return Err(ShaclParseError::new("sh:nodeKind requires an IRI"));
            };
            let kind = match kind_iri.as_str() {
                s if s == sh::iri().as_str() => NodeKind::Iri,
                s if s == sh::blank_node().as_str() => NodeKind::BlankNode,
                s if s == sh::literal().as_str() => NodeKind::Literal,
                s if s == sh::blank_node_or_iri().as_str() => NodeKind::BlankNodeOrIri,
                s if s == sh::blank_node_or_literal().as_str() => NodeKind::BlankNodeOrLiteral,
                s if s == sh::iri_or_literal().as_str() => NodeKind::IriOrLiteral,
                other => return Err(ShaclParseError::new(format!("unknown sh:nodeKind {other}"))),
            };
            out.push(Shape::Test(NodeTest::Kind(kind)));
        }
        for (prop, make) in [
            (
                self.v.min_exclusive,
                NodeTest::MinExclusive as fn(Literal) -> NodeTest,
            ),
            (self.v.min_inclusive, NodeTest::MinInclusive),
            (self.v.max_exclusive, NodeTest::MaxExclusive),
            (self.v.max_inclusive, NodeTest::MaxInclusive),
        ] {
            for y in self.objects(x, prop) {
                let Term::Literal(bound) = self.term(y) else {
                    return Err(ShaclParseError::new(format!(
                        "{} requires a literal",
                        self.iri(prop)
                    )));
                };
                out.push(Shape::Test(make(bound.clone())));
            }
        }
        for (prop, make) in [
            (
                self.v.min_length,
                NodeTest::MinLength as fn(u32) -> NodeTest,
            ),
            (self.v.max_length, NodeTest::MaxLength),
        ] {
            for y in self.objects(x, prop) {
                let n = int_value(self.term(y)).ok_or_else(|| {
                    ShaclParseError::new(format!("{} requires an integer", self.iri(prop)))
                })?;
                out.push(Shape::Test(make(n)));
            }
        }
        let flags = self
            .first_object(x, self.v.flags)
            .and_then(|t| self.term(t).as_literal().map(|l| l.lexical()))
            .unwrap_or_default();
        for y in self.objects(x, self.v.pattern) {
            let Term::Literal(lit) = self.term(y) else {
                return Err(ShaclParseError::new("sh:pattern requires a literal"));
            };
            let test = NodeTest::pattern(lit.lexical(), flags)
                .map_err(|e| ShaclParseError::new(e.to_string()))?;
            out.push(Shape::Test(test));
        }
        Ok(out)
    }

    /// A.1.6 `t_value`: sh:hasValue.
    fn t_value(&self, x: TermId) -> Vec<Shape> {
        self.objects(x, self.v.has_value)
            .into_iter()
            .map(|y| self.has_value(y))
            .collect()
    }

    /// A.1.6 `t_in`: sh:in.
    fn t_in(&self, x: TermId) -> Result<Vec<Shape>, ShaclParseError> {
        Ok(self
            .lists(x, self.v.in_, "malformed sh:in list")?
            .into_iter()
            .map(|items| Shape::disj_of(items.into_iter().map(|y| self.has_value(y)).collect()))
            .collect())
    }

    /// `sh:languageIn`: one disjunction of language tests per list.
    fn t_language_in(&self, x: TermId) -> Result<Vec<Shape>, ShaclParseError> {
        Ok(self
            .lists(x, self.v.language_in, "malformed sh:languageIn list")?
            .into_iter()
            .map(|langs| {
                Shape::disj_of(
                    langs
                        .into_iter()
                        .filter_map(|l| lang_term(self.term(l)))
                        .collect(),
                )
            })
            .collect())
    }

    /// A.1.6 `t_closed`: sh:closed / sh:ignoredProperties. `P` collects the
    /// (IRI) paths of the shape's property shapes plus ignored properties.
    fn t_closed(&self, x: TermId) -> Result<Vec<Shape>, ShaclParseError> {
        if !self.is_true(x, self.v.closed) {
            return Ok(Vec::new());
        }
        let mut allowed: BTreeSet<Iri> = BTreeSet::new();
        for prop_shape in self.objects(x, self.v.property) {
            let paths = self.objects(prop_shape, self.v.path);
            allowed.extend(paths.into_iter().filter_map(|path| self.as_iri(path)));
        }
        for item in self.list_objects(x, self.v.ignored_properties)? {
            allowed.extend(self.as_iri(item));
        }
        Ok(vec![Shape::Closed(allowed)])
    }

    /// A.1.4 `t_pair(id, d_x)`: property-pair components on a node shape.
    fn t_pair_id(&self, x: TermId) -> Vec<Shape> {
        // lessThan / lessThanOrEquals are not allowed on node shapes → ⊥.
        if self.has(x, self.v.less_than) || self.has(x, self.v.less_than_or_equals) {
            return vec![Shape::False];
        }
        let mut out = Vec::new();
        for y in self.objects(x, self.v.equals) {
            out.extend(self.as_iri(y).map(|p| Shape::Eq(PathOrId::Id, p)));
        }
        for y in self.objects(x, self.v.disjoint) {
            out.extend(self.as_iri(y).map(|p| Shape::Disj(PathOrId::Id, p)));
        }
        out
    }

    /// A.3.1 `t_card`: sh:minCount / sh:maxCount.
    fn t_card(&self, e: &PathExpr, x: TermId) -> Vec<Shape> {
        let mut out = Vec::new();
        for y in self.objects(x, self.v.min_count) {
            if let Some(n) = int_value(self.term(y)) {
                out.push(Shape::geq(n, e.clone(), Shape::True));
            }
        }
        for y in self.objects(x, self.v.max_count) {
            if let Some(n) = int_value(self.term(y)) {
                out.push(Shape::leq(n, e.clone(), Shape::True));
            }
        }
        out
    }

    /// A.3.2 `t_pair(E, d_x)`: property-pair components on a property
    /// shape, including the `shx:` extension pairs (Remark 2.3).
    fn t_pair_path(&self, e: &PathExpr, x: TermId) -> Vec<Shape> {
        let mut out = Vec::new();
        for (prop, make) in [
            (
                self.v.equals,
                (|e, p| Shape::Eq(PathOrId::Path(e), p)) as fn(PathExpr, Iri) -> Shape,
            ),
            (self.v.disjoint, |e, p| Shape::Disj(PathOrId::Path(e), p)),
            (self.v.less_than, Shape::LessThan),
            (self.v.less_than_or_equals, Shape::LessThanEq),
            (self.v.more_than, Shape::MoreThan),
            (self.v.more_than_or_equals, Shape::MoreThanEq),
        ] {
            for y in self.objects(x, prop) {
                out.extend(self.as_iri(y).map(|p| make(e.clone(), p)));
            }
        }
        out
    }

    /// A.3.3 `t_qual`: qualified value shapes with optional sibling
    /// disjointness.
    fn t_qual(&self, e: &PathExpr, x: TermId) -> Result<Vec<Shape>, ShaclParseError> {
        let q = self.objects(x, self.v.qualified_value_shape);
        if q.is_empty() {
            return Ok(Vec::new());
        }
        let counts = |p| -> Vec<u32> {
            self.objects(x, p)
                .into_iter()
                .filter_map(|n| int_value(self.term(n)))
                .collect()
        };
        let qmin = counts(self.v.qualified_min_count);
        let qmax = counts(self.v.qualified_max_count);

        // Sibling shapes: qualified value shapes of the *other* property
        // shapes attached to any parent of x, in term order.
        let mut siblings: Vec<TermId> = Vec::new();
        if let (true, Some(property)) = (
            self.is_true(x, self.v.qualified_value_shapes_disjoint),
            self.v.property,
        ) {
            for v in self.g.subjects_ids(x, property) {
                for y in self.g.objects_ids(v, property).filter(|&y| y != x) {
                    siblings.extend(self.objects(y, self.v.qualified_value_shape));
                }
            }
            self.sort(&mut siblings);
            siblings.dedup();
        }

        let qualify = |y: TermId| -> Shape {
            let mut conj = vec![self.has_shape(y)];
            conj.extend(siblings.iter().map(|&s| self.has_shape(s).not()));
            Shape::conj(conj)
        };

        let mut out = Vec::new();
        for &y in &q {
            for &n in &qmin {
                out.push(Shape::geq(n, e.clone(), qualify(y)));
            }
            for &n in &qmax {
                out.push(Shape::leq(n, e.clone(), qualify(y)));
            }
        }
        Ok(out)
    }

    /// A.3.4 `t_all`: components that apply to all value nodes of a
    /// property shape, wrapped in `∀E.(…)`, plus the special `sh:hasValue`
    /// treatment (`≥1 E.hasValue(v)`).
    fn t_all(&self, e: &PathExpr, x: TermId) -> Result<Vec<Shape>, ShaclParseError> {
        let mut inner = Vec::new();
        inner.extend(self.t_shape(x));
        inner.extend(self.t_logic(x)?);
        inner.extend(self.t_tests(x)?);
        inner.extend(self.t_in(x)?);
        inner.extend(self.t_closed(x)?);
        inner.extend(self.t_language_in(x)?);
        let mut out = Vec::new();
        if !inner.is_empty() {
            out.push(Shape::for_all(e.clone(), Shape::conj(inner)));
        }
        // sh:hasValue on a property shape is existential, not universal.
        let values = self.t_value(x);
        if !values.is_empty() {
            out.push(Shape::geq(1, e.clone(), Shape::conj(values)));
        }
        Ok(out)
    }

    /// A.3.5 `t_uniquelang`.
    fn t_uniquelang(&self, e: &PathExpr, x: TermId) -> Vec<Shape> {
        if self.is_true(x, self.v.unique_lang) {
            vec![Shape::UniqueLang(e.clone())]
        } else {
            Vec::new()
        }
    }

    /// A.2 `t_path`: SHACL property paths → path expressions.
    fn translate_path(&self, pp: TermId) -> Result<PathExpr, ShaclParseError> {
        self.translate_path_at(pp, 0)
    }

    /// Depth-guarded body of [`Translator::translate_path`]. A hostile
    /// document can make `sh:inversePath` (or any other structured-path
    /// property) point around a blank-node cycle; without the guard the
    /// translation recurses forever.
    fn translate_path_at(&self, pp: TermId, depth: usize) -> Result<PathExpr, ShaclParseError> {
        const MAX_PATH_DEPTH: usize = 128;
        if depth > MAX_PATH_DEPTH {
            return Err(ShaclParseError::with_code(
                ErrorCode::DepthLimit,
                format!("property path nesting deeper than {MAX_PATH_DEPTH} levels (cyclic path structure?)"),
            ));
        }
        if let Some(p) = self.as_iri(pp) {
            return Ok(PathExpr::Prop(p));
        }
        // Blank node: structured path.
        if let Some(y) = self.first_object(pp, self.v.negated_property_set) {
            // Extension (Remark 6.3): a negated property set.
            let items = self
                .list(y)
                .ok_or_else(|| ShaclParseError::new("malformed shx:negatedPropertySet list"))?;
            let mut props = Vec::new();
            for item in items {
                let Some(p) = self.as_iri(item) else {
                    return Err(ShaclParseError::new(format!(
                        "negated property sets may only contain IRIs, got {}",
                        self.term(item)
                    )));
                };
                props.push(p);
            }
            return Ok(PathExpr::neg_props(props));
        }
        let nested = |p, wrap: fn(PathExpr) -> PathExpr| {
            self.first_object(pp, p)
                .map(|y| Ok(wrap(self.translate_path_at(y, depth + 1)?)))
        };
        if let Some(e) = nested(self.v.inverse_path, PathExpr::inverse) {
            return e;
        }
        if let Some(e) = nested(self.v.zero_or_more_path, PathExpr::star) {
            return e;
        }
        if let Some(e) = nested(self.v.one_or_more_path, PathExpr::plus) {
            return e;
        }
        if let Some(e) = nested(self.v.zero_or_one_path, PathExpr::opt) {
            return e;
        }
        if let Some(y) = self.first_object(pp, self.v.alternative_path) {
            let items = self
                .list(y)
                .ok_or_else(|| ShaclParseError::new("malformed sh:alternativePath list"))?;
            let mut parts = items.iter().map(|&t| self.translate_path_at(t, depth + 1));
            let first = parts
                .next()
                .ok_or_else(|| ShaclParseError::new("empty sh:alternativePath"))??;
            return parts.try_fold(first, |acc, next| Ok(acc.or(next?)));
        }
        // A SHACL list: a sequence path.
        if let Some(items) = self.list(pp) {
            let mut parts = items.iter().map(|&t| self.translate_path_at(t, depth + 1));
            let first = parts
                .next()
                .ok_or_else(|| ShaclParseError::new("empty sequence path"))??;
            return parts.try_fold(first, |acc, next| Ok(acc.then(next?)));
        }
        Err(ShaclParseError::new(format!(
            "unrecognized property path {}",
            self.term(pp)
        )))
    }

    /// A.4 `t_target`: target declarations → target shapes.
    fn translate_target(&self, x: TermId) -> Result<Shape, ShaclParseError> {
        let mut targets = Vec::new();
        for y in self.objects(x, self.v.target_node) {
            targets.push(self.has_value(y));
        }
        for y in self.objects(x, self.v.target_class) {
            targets.push(Shape::geq(1, type_path(), self.has_value(y)));
        }
        for y in self.objects(x, self.v.target_subjects_of) {
            if let Some(p) = self.as_iri(y) {
                targets.push(Shape::geq(1, PathExpr::Prop(p), Shape::True));
            }
        }
        for y in self.objects(x, self.v.target_objects_of) {
            if let Some(p) = self.as_iri(y) {
                targets.push(Shape::geq(1, PathExpr::Prop(p).inverse(), Shape::True));
            }
        }
        // No targets → ⊥ (the shape is never checked via targets).
        Ok(Shape::disj_of(targets))
    }
}

/// `rdf:type/rdfs:subClassOf*`, the path of `sh:class` and `sh:targetClass`.
fn type_path() -> PathExpr {
    PathExpr::Prop(rdf::type_()).then(PathExpr::Prop(rdfs::sub_class_of()).star())
}

fn int_value(t: &Term) -> Option<u32> {
    match t {
        Term::Literal(l) => l.lexical().trim().parse().ok(),
        _ => None,
    }
}

fn lang_term(t: &Term) -> Option<Shape> {
    match t {
        Term::Literal(l) => Some(Shape::Test(NodeTest::Language(l.lexical().to_owned()))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::{validate, Context};

    const PREFIXES: &str = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://e/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
"#;

    fn schema(body: &str) -> Schema {
        parse_shapes_turtle(&format!("{PREFIXES}\n{body}")).unwrap()
    }

    fn ex(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    #[test]
    fn cyclic_inverse_path_is_a_structured_error() {
        // _:p sh:inversePath _:q . _:q sh:inversePath _:p — without the
        // depth guard the translation recurses forever.
        let err = parse_shapes_turtle(&format!(
            "{PREFIXES}
ex:S a sh:NodeShape ;
  sh:property [ sh:path _:p ; sh:minCount 1 ] .
_:p sh:inversePath _:q .
_:q sh:inversePath _:p .
"
        ))
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::DepthLimit);
    }

    #[test]
    fn workshop_shape_from_intro() {
        let s = schema(
            r#"
ex:WorkshopShape a sh:NodeShape ;
  sh:targetClass ex:Paper ;
  sh:property [
    sh:path ex:author ;
    sh:qualifiedMinCount 1 ;
    sh:qualifiedValueShape [ sh:class ex:Student ] ] .
"#,
        );
        // WorkshopShape + property shape + qualified value shape.
        assert_eq!(s.len(), 3);
        let def = s.get(&ex("WorkshopShape")).unwrap();
        assert!(matches!(def.shape, Shape::HasShape(_)));
        // Validate the intro example end to end.
        let data = turtle::parse(&format!(
            "{PREFIXES}
ex:p1 rdf:type ex:Paper ; ex:author ex:alice .
ex:alice rdf:type ex:Student .
ex:p2 rdf:type ex:Paper ; ex:author ex:bob .
ex:bob rdf:type ex:Professor .
"
        ))
        .unwrap();
        let report = validate(&s, &data);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].focus, ex("p2"));
    }

    #[test]
    fn min_max_count() {
        let s = schema(
            r#"
ex:S a sh:NodeShape ;
  sh:targetSubjectsOf ex:p ;
  sh:property [ sh:path ex:p ; sh:minCount 1 ; sh:maxCount 2 ] .
"#,
        );
        let data = turtle::parse(&format!(
            "{PREFIXES}
ex:a ex:p ex:x .
ex:b ex:p ex:x , ex:y , ex:z .
"
        ))
        .unwrap();
        let report = validate(&s, &data);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].focus, ex("b"));
    }

    #[test]
    fn happy_at_work_not_disjoint() {
        let s = schema(
            r#"
ex:HappyAtWork a sh:NodeShape ;
  sh:targetSubjectsOf ex:friend ;
  sh:not [ a sh:PropertyShape ; sh:path ex:friend ; sh:disjoint ex:colleague ] .
"#,
        );
        let data = turtle::parse(&format!(
            "{PREFIXES}
ex:v ex:friend ex:x . ex:v ex:colleague ex:x .
ex:w ex:friend ex:y . ex:w ex:colleague ex:z .
"
        ))
        .unwrap();
        let report = validate(&s, &data);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].focus, ex("w"));
    }

    #[test]
    fn datatype_nodekind_and_ranges() {
        let s = schema(
            r#"
ex:S a sh:NodeShape ;
  sh:targetSubjectsOf ex:age ;
  sh:property [ sh:path ex:age ; sh:datatype xsd:integer ;
                sh:minInclusive 0 ; sh:maxExclusive 150 ] ;
  sh:property [ sh:path ex:friend ; sh:nodeKind sh:IRI ] .
"#,
        );
        let ok = turtle::parse(&format!("{PREFIXES}\nex:a ex:age 42 ; ex:friend ex:b .")).unwrap();
        assert!(validate(&s, &ok).conforms());
        let bad_age = turtle::parse(&format!("{PREFIXES}\nex:a ex:age 200 .")).unwrap();
        assert!(!validate(&s, &bad_age).conforms());
        let bad_type = turtle::parse(&format!("{PREFIXES}\nex:a ex:age \"old\" .")).unwrap();
        assert!(!validate(&s, &bad_type).conforms());
        let bad_friend =
            turtle::parse(&format!("{PREFIXES}\nex:a ex:age 5 ; ex:friend \"lit\" .")).unwrap();
        assert!(!validate(&s, &bad_friend).conforms());
    }

    #[test]
    fn pattern_and_lengths() {
        let s = schema(
            r#"
ex:S a sh:NodeShape ;
  sh:targetSubjectsOf ex:code ;
  sh:property [ sh:path ex:code ; sh:pattern "^[A-Z]{2}\\d+$" ;
                sh:minLength 4 ; sh:maxLength 6 ] .
"#,
        );
        let ok = turtle::parse(&format!("{PREFIXES}\nex:a ex:code \"AB123\" .")).unwrap();
        assert!(validate(&s, &ok).conforms());
        let bad = turtle::parse(&format!("{PREFIXES}\nex:a ex:code \"ab123\" .")).unwrap();
        assert!(!validate(&s, &bad).conforms());
        let too_long = turtle::parse(&format!("{PREFIXES}\nex:a ex:code \"AB12345\" .")).unwrap();
        assert!(!validate(&s, &too_long).conforms());
    }

    #[test]
    fn logical_components() {
        let s = schema(
            r#"
ex:HasP a sh:NodeShape ; sh:property [ sh:path ex:p ; sh:minCount 1 ] .
ex:HasQ a sh:NodeShape ; sh:property [ sh:path ex:q ; sh:minCount 1 ] .
ex:S a sh:NodeShape ;
  sh:targetNode ex:a , ex:b , ex:c ;
  sh:or ( ex:HasP ex:HasQ ) .
"#,
        );
        let data = turtle::parse(&format!(
            "{PREFIXES}\nex:a ex:p ex:x .\nex:b ex:q ex:x .\nex:c ex:r ex:x ."
        ))
        .unwrap();
        let report = validate(&s, &data);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].focus, ex("c"));
    }

    #[test]
    fn xone_is_exactly_one() {
        let s = schema(
            r#"
ex:HasP a sh:NodeShape ; sh:property [ sh:path ex:p ; sh:minCount 1 ] .
ex:HasQ a sh:NodeShape ; sh:property [ sh:path ex:q ; sh:minCount 1 ] .
ex:S a sh:NodeShape ;
  sh:targetNode ex:both , ex:one , ex:none ;
  sh:xone ( ex:HasP ex:HasQ ) .
"#,
        );
        let data = turtle::parse(&format!(
            "{PREFIXES}
ex:both ex:p ex:x ; ex:q ex:x .
ex:one ex:p ex:x .
ex:none ex:r ex:x .
"
        ))
        .unwrap();
        let report = validate(&s, &data);
        let violating: Vec<_> = report.violations.iter().map(|v| v.focus.clone()).collect();
        assert!(violating.contains(&ex("both")));
        assert!(violating.contains(&ex("none")));
        assert!(!violating.contains(&ex("one")));
    }

    #[test]
    fn complex_paths() {
        let s = schema(
            r#"
ex:S a sh:NodeShape ;
  sh:targetNode ex:a ;
  sh:property [ sh:path ( ex:p [ sh:inversePath ex:q ] ) ; sh:minCount 1 ] ;
  sh:property [ sh:path [ sh:zeroOrMorePath ex:r ] ; sh:maxCount 3 ] ;
  sh:property [ sh:path [ sh:alternativePath ( ex:s ex:t ) ] ; sh:minCount 1 ] .
"#,
        );
        let data = turtle::parse(&format!(
            "{PREFIXES}
ex:a ex:p ex:m . ex:n ex:q ex:m .
ex:a ex:r ex:b . ex:b ex:r ex:c .
ex:a ex:t ex:z .
"
        ))
        .unwrap();
        assert!(validate(&s, &data).conforms());
    }

    #[test]
    fn closed_with_ignored_properties() {
        let s = schema(
            r#"
ex:S a sh:NodeShape ;
  sh:targetNode ex:a , ex:b ;
  sh:closed true ;
  sh:ignoredProperties ( rdf:type ) ;
  sh:property [ sh:path ex:p ; sh:minCount 0 ] .
"#,
        );
        let data = turtle::parse(&format!(
            "{PREFIXES}
ex:a ex:p ex:x ; rdf:type ex:C .
ex:b ex:p ex:x ; ex:q ex:y .
"
        ))
        .unwrap();
        let report = validate(&s, &data);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].focus, ex("b"));
    }

    #[test]
    fn less_than_on_property_shape() {
        let s = schema(
            r#"
ex:S a sh:NodeShape ;
  sh:targetNode ex:a , ex:b ;
  sh:property [ sh:path ex:start ; sh:lessThan ex:end ] .
"#,
        );
        let data = turtle::parse(&format!(
            "{PREFIXES}
ex:a ex:start 1 ; ex:end 5 .
ex:b ex:start 9 ; ex:end 5 .
"
        ))
        .unwrap();
        let report = validate(&s, &data);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].focus, ex("b"));
    }

    #[test]
    fn unique_lang_and_language_in() {
        let s = schema(
            r#"
ex:S a sh:NodeShape ;
  sh:targetSubjectsOf ex:label ;
  sh:property [ sh:path ex:label ; sh:uniqueLang true ;
                sh:languageIn ( "en" "de" ) ] .
"#,
        );
        let ok = turtle::parse(&format!(
            "{PREFIXES}\nex:a ex:label \"hi\"@en , \"hallo\"@de ."
        ))
        .unwrap();
        assert!(validate(&s, &ok).conforms());
        let dup = turtle::parse(&format!(
            "{PREFIXES}\nex:a ex:label \"hi\"@en , \"hello\"@en-GB , \"yo\"@en ."
        ))
        .unwrap();
        assert!(!validate(&s, &dup).conforms());
        let wrong_lang =
            turtle::parse(&format!("{PREFIXES}\nex:a ex:label \"bonjour\"@fr .")).unwrap();
        assert!(!validate(&s, &wrong_lang).conforms());
    }

    #[test]
    fn has_value_and_in() {
        let s = schema(
            r#"
ex:S a sh:NodeShape ;
  sh:targetSubjectsOf ex:status ;
  sh:property [ sh:path ex:status ; sh:in ( ex:Active ex:Inactive ) ] ;
  sh:property [ sh:path ex:kind ; sh:hasValue ex:Good ] .
"#,
        );
        let ok = turtle::parse(&format!(
            "{PREFIXES}\nex:a ex:status ex:Active ; ex:kind ex:Good , ex:Other ."
        ))
        .unwrap();
        assert!(validate(&s, &ok).conforms());
        let bad_in = turtle::parse(&format!(
            "{PREFIXES}\nex:a ex:status ex:Unknown ; ex:kind ex:Good ."
        ))
        .unwrap();
        assert!(!validate(&s, &bad_in).conforms());
        // hasValue on a property shape is existential: missing entirely fails.
        let missing = turtle::parse(&format!("{PREFIXES}\nex:a ex:status ex:Active .")).unwrap();
        assert!(!validate(&s, &missing).conforms());
    }

    #[test]
    fn node_reference_and_deactivated() {
        let s = schema(
            r#"
ex:Base a sh:NodeShape ; sh:property [ sh:path ex:p ; sh:minCount 1 ] .
ex:Off a sh:NodeShape ; sh:deactivated true ;
  sh:property [ sh:path ex:zz ; sh:minCount 99 ] .
ex:S a sh:NodeShape ;
  sh:targetNode ex:a ;
  sh:node ex:Base ;
  sh:node ex:Off .
"#,
        );
        let data = turtle::parse(&format!("{PREFIXES}\nex:a ex:p ex:x .")).unwrap();
        assert!(validate(&s, &data).conforms());
    }

    #[test]
    fn qualified_value_shapes_disjoint_siblings() {
        // From the SHACL spec: a hand must have 4 fingers and 1 thumb,
        // disjointly qualified.
        let s = schema(
            r#"
ex:HandShape a sh:NodeShape ;
  sh:targetClass ex:Hand ;
  sh:property ex:fingerProp ;
  sh:property ex:thumbProp .
ex:fingerProp a sh:PropertyShape ;
  sh:path ex:digit ;
  sh:qualifiedValueShapesDisjoint true ;
  sh:qualifiedValueShape [ sh:class ex:Finger ] ;
  sh:qualifiedMinCount 4 ; sh:qualifiedMaxCount 4 .
ex:thumbProp a sh:PropertyShape ;
  sh:path ex:digit ;
  sh:qualifiedValueShapesDisjoint true ;
  sh:qualifiedValueShape [ sh:class ex:Thumb ] ;
  sh:qualifiedMinCount 1 ; sh:qualifiedMaxCount 1 .
"#,
        );
        let ok = turtle::parse(&format!(
            "{PREFIXES}
ex:h rdf:type ex:Hand ; ex:digit ex:f1 , ex:f2 , ex:f3 , ex:f4 , ex:t1 .
ex:f1 rdf:type ex:Finger . ex:f2 rdf:type ex:Finger .
ex:f3 rdf:type ex:Finger . ex:f4 rdf:type ex:Finger .
ex:t1 rdf:type ex:Thumb .
"
        ))
        .unwrap();
        assert!(validate(&s, &ok).conforms());
        let missing_finger = turtle::parse(&format!(
            "{PREFIXES}
ex:h rdf:type ex:Hand ; ex:digit ex:f1 , ex:f2 , ex:f3 , ex:t1 .
ex:f1 rdf:type ex:Finger . ex:f2 rdf:type ex:Finger .
ex:f3 rdf:type ex:Finger . ex:t1 rdf:type ex:Thumb .
"
        ))
        .unwrap();
        assert!(!validate(&s, &missing_finger).conforms());
    }

    #[test]
    fn subclass_reasoning_in_class_targets() {
        let s = schema(
            r#"
ex:S a sh:NodeShape ;
  sh:targetClass ex:Publication ;
  sh:property [ sh:path ex:title ; sh:minCount 1 ] .
"#,
        );
        let data = turtle::parse(&format!(
            "{PREFIXES}
ex:Paper rdfs:subClassOf ex:Publication .
ex:p rdf:type ex:Paper .
"
        ))
        .unwrap();
        // ex:p is a Publication via subclassing, and has no title.
        let report = validate(&s, &data);
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn no_targets_means_never_checked() {
        let s = schema("ex:S a sh:NodeShape ; sh:property [ sh:path ex:p ; sh:minCount 5 ] .");
        let data = turtle::parse(&format!("{PREFIXES}\nex:a ex:q ex:b .")).unwrap();
        assert!(validate(&s, &data).conforms());
        // But the shape still constrains when asked directly.
        let mut ctx = Context::new(&s, &data);
        let a = data.id_of(&ex("a")).unwrap();
        assert!(!ctx.conforms(a, &Shape::HasShape(ex("S"))));
    }

    #[test]
    fn equals_on_node_shape_uses_id() {
        let s = schema(
            r#"
ex:SelfLoop a sh:NodeShape ;
  sh:targetNode ex:a , ex:b ;
  sh:equals ex:p .
"#,
        );
        // eq(id, p): the node's only p-successor is itself.
        let data =
            turtle::parse(&format!("{PREFIXES}\nex:a ex:p ex:a .\nex:b ex:p ex:c .")).unwrap();
        let report = validate(&s, &data);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].focus, ex("b"));
    }

    #[test]
    fn malformed_lists_error() {
        let err = parse_shapes_turtle(&format!(
            "{PREFIXES}
ex:S a sh:NodeShape ; sh:in ex:notalist ."
        ))
        .unwrap_err();
        assert!(err.message.contains("malformed"));
    }
}
