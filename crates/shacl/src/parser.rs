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

use std::collections::{BTreeSet, HashSet};
use std::fmt;

use shapefrag_govern::{EngineError, ErrorCode};
use shapefrag_rdf::turtle::{self, read_list};
use shapefrag_rdf::vocab::{rdf, rdfs, sh};
use shapefrag_rdf::{Graph, GraphAccess, Iri, Literal, Span, Term, TripleSpans};

use crate::node_test::{NodeKind, NodeTest};
use crate::path::PathExpr;
use crate::schema::{Schema, SchemaError, ShapeDef};
use crate::shape::{PathOrId, Shape};
use crate::writer::SHX_NS;

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
    let graph =
        turtle::parse(text).map_err(|e| ShaclParseError::with_code(e.code, e.to_string()))?;
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
pub fn schema_from_shapes_graph(shapes: &Graph) -> Result<Schema, ShaclParseError> {
    Ok(Schema::new(defs_from_shapes_graph(shapes)?)?)
}

/// The translation underlying [`schema_from_shapes_graph`], without the
/// schema well-formedness checks (duplicate names, recursion).
pub fn defs_from_shapes_graph(shapes: &Graph) -> Result<Vec<ShapeDef>, ShaclParseError> {
    let tr = Translator { g: shapes };
    let shape_nodes = tr.collect_shape_nodes()?;
    let mut defs = Vec::new();
    for node in shape_nodes {
        if node.is_literal() {
            // A malformed document can reference a literal where a shape is
            // expected (e.g. as an `sh:node` object); shape names must be
            // IRIs or blank nodes.
            return Err(ShaclParseError::new(format!(
                "literal used as a shape: {node}"
            )));
        }
        let expr = tr.translate_shape(&node)?;
        let target = tr.translate_target(&node)?;
        defs.push(ShapeDef::new(node, expr, target));
    }
    Ok(defs)
}

struct Translator<'g> {
    g: &'g Graph,
}

impl<'g> Translator<'g> {
    fn objects(&self, x: &Term, p: &Iri) -> Vec<Term> {
        let mut v: Vec<Term> = self.g.objects_for(x, p).into_iter().cloned().collect();
        v.sort();
        v
    }

    fn list_objects(&self, x: &Term, p: &Iri) -> Result<Vec<Term>, ShaclParseError> {
        let mut out = Vec::new();
        for head in self.objects(x, p) {
            let items = read_list(self.g, &head).ok_or_else(|| {
                ShaclParseError::new(format!("malformed SHACL list at {head} for {p}"))
            })?;
            out.extend(items);
        }
        Ok(out)
    }

    /// All shape nodes: declared ones plus everything reachable through
    /// shape-referencing properties.
    fn collect_shape_nodes(&self) -> Result<Vec<Term>, ShaclParseError> {
        let type_p = rdf::type_();
        let mut queue: Vec<Term> = Vec::new();
        for t in self
            .g
            .triples_matching(None, Some(&type_p), Some(&Term::Iri(sh::node_shape())))
        {
            queue.push(t.subject);
        }
        for t in
            self.g
                .triples_matching(None, Some(&type_p), Some(&Term::Iri(sh::property_shape())))
        {
            queue.push(t.subject);
        }
        queue.sort();
        let mut seen: HashSet<Term> = HashSet::new();
        let mut out = Vec::new();
        while let Some(node) = queue.pop() {
            if !seen.insert(node.clone()) {
                continue;
            }
            // References to other shapes.
            for p in [
                sh::node(),
                sh::property(),
                sh::not(),
                sh::qualified_value_shape(),
            ] {
                queue.extend(self.objects(&node, &p));
            }
            for p in [sh::and(), sh::or(), sh::xone()] {
                queue.extend(self.list_objects(&node, &p)?);
            }
            out.push(node);
        }
        out.sort();
        Ok(out)
    }

    fn is_property_shape(&self, x: &Term) -> bool {
        !self.objects(x, &sh::path()).is_empty()
    }

    /// `t_nodeshape` / `t_propertyshape` dispatch.
    fn translate_shape(&self, x: &Term) -> Result<Shape, ShaclParseError> {
        // sh:deactivated true — the shape imposes no constraint.
        if self
            .objects(x, &sh::deactivated())
            .iter()
            .any(|v| matches!(v, Term::Literal(l) if l.lexical() == "true"))
        {
            return Ok(Shape::True);
        }
        if self.is_property_shape(x) {
            self.translate_property_shape(x)
        } else {
            self.translate_node_shape(x)
        }
    }

    /// Appendix A.1: `t_nodeshape(d_x)`.
    fn translate_node_shape(&self, x: &Term) -> Result<Shape, ShaclParseError> {
        let mut conj = Vec::new();
        conj.extend(self.t_shape(x));
        conj.extend(self.t_logic(x)?);
        conj.extend(self.t_tests(x)?);
        conj.extend(self.t_value(x));
        conj.extend(self.t_in(x)?);
        conj.extend(self.t_closed(x)?);
        conj.extend(self.t_pair_id(x));
        // languageIn applied to the focus node itself.
        for head in self.objects(x, &sh::language_in()) {
            let langs = read_list(self.g, &head)
                .ok_or_else(|| ShaclParseError::new("malformed sh:languageIn list"))?;
            conj.push(Shape::disj_of(langs.iter().filter_map(lang_term).collect()));
        }
        Ok(Shape::conj(conj))
    }

    /// Appendix A.3: `t_propertyshape(d_x)`.
    fn translate_property_shape(&self, x: &Term) -> Result<Shape, ShaclParseError> {
        let paths = self.objects(x, &sh::path());
        if paths.len() != 1 {
            return Err(ShaclParseError::new(format!(
                "property shape {x} must have exactly one sh:path"
            )));
        }
        let e = self.translate_path(&paths[0])?;
        let mut conj = Vec::new();
        conj.extend(self.t_card(&e, x));
        conj.extend(self.t_pair_path(&e, x));
        conj.extend(self.t_qual(&e, x)?);
        conj.extend(self.t_all(&e, x)?);
        conj.extend(self.t_uniquelang(&e, x));
        Ok(Shape::conj(conj))
    }

    /// A.1.1 `t_shape`: sh:node / sh:property become `hasShape` references.
    fn t_shape(&self, x: &Term) -> Vec<Shape> {
        let mut out = Vec::new();
        for y in self.objects(x, &sh::node()) {
            out.push(Shape::HasShape(y));
        }
        for y in self.objects(x, &sh::property()) {
            out.push(Shape::HasShape(y));
        }
        out
    }

    /// A.1.2 `t_logic`: sh:and, sh:or, sh:not, sh:xone.
    fn t_logic(&self, x: &Term) -> Result<Vec<Shape>, ShaclParseError> {
        let mut out = Vec::new();
        for head in self.objects(x, &sh::and()) {
            let items = read_list(self.g, &head)
                .ok_or_else(|| ShaclParseError::new("malformed sh:and list"))?;
            out.push(Shape::conj(
                items.into_iter().map(Shape::HasShape).collect(),
            ));
        }
        for head in self.objects(x, &sh::or()) {
            let items = read_list(self.g, &head)
                .ok_or_else(|| ShaclParseError::new("malformed sh:or list"))?;
            out.push(Shape::disj_of(
                items.into_iter().map(Shape::HasShape).collect(),
            ));
        }
        for y in self.objects(x, &sh::not()) {
            out.push(Shape::HasShape(y).not());
        }
        for head in self.objects(x, &sh::xone()) {
            let items = read_list(self.g, &head)
                .ok_or_else(|| ShaclParseError::new("malformed sh:xone list"))?;
            let mut branches = Vec::new();
            for (i, y) in items.iter().enumerate() {
                let mut branch = vec![Shape::HasShape(y.clone())];
                for (j, z) in items.iter().enumerate() {
                    if i != j {
                        branch.push(Shape::HasShape(z.clone()).not());
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
    fn t_tests(&self, x: &Term) -> Result<Vec<Shape>, ShaclParseError> {
        let mut out = Vec::new();
        // sh:class → ≥1 rdf:type/rdfs:subClassOf*.hasValue(y)
        for y in self.objects(x, &sh::class()) {
            out.push(Shape::geq(
                1,
                PathExpr::Prop(rdf::type_()).then(PathExpr::Prop(rdfs::sub_class_of()).star()),
                Shape::HasValue(y),
            ));
        }
        for y in self.objects(x, &sh::datatype()) {
            let Term::Iri(dt) = y else {
                return Err(ShaclParseError::new("sh:datatype requires an IRI"));
            };
            out.push(Shape::Test(NodeTest::Datatype(dt)));
        }
        for y in self.objects(x, &sh::node_kind()) {
            let Term::Iri(kind_iri) = &y else {
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
                sh::min_exclusive(),
                NodeTest::MinExclusive as fn(Literal) -> NodeTest,
            ),
            (sh::min_inclusive(), NodeTest::MinInclusive),
            (sh::max_exclusive(), NodeTest::MaxExclusive),
            (sh::max_inclusive(), NodeTest::MaxInclusive),
        ] {
            for y in self.objects(x, &prop) {
                let Term::Literal(bound) = y else {
                    return Err(ShaclParseError::new(format!("{prop} requires a literal")));
                };
                out.push(Shape::Test(make(bound)));
            }
        }
        for (prop, make) in [
            (sh::min_length(), NodeTest::MinLength as fn(u32) -> NodeTest),
            (sh::max_length(), NodeTest::MaxLength),
        ] {
            for y in self.objects(x, &prop) {
                let n = int_value(&y)
                    .ok_or_else(|| ShaclParseError::new(format!("{prop} requires an integer")))?;
                out.push(Shape::Test(make(n)));
            }
        }
        let flags = self
            .objects(x, &sh::flags())
            .first()
            .and_then(|t| t.as_literal().map(|l| l.lexical().to_owned()))
            .unwrap_or_default();
        for y in self.objects(x, &sh::pattern()) {
            let Term::Literal(lit) = y else {
                return Err(ShaclParseError::new("sh:pattern requires a literal"));
            };
            let test = NodeTest::pattern(lit.lexical(), &flags)
                .map_err(|e| ShaclParseError::new(e.to_string()))?;
            out.push(Shape::Test(test));
        }
        Ok(out)
    }

    /// A.1.6 `t_value`: sh:hasValue.
    fn t_value(&self, x: &Term) -> Vec<Shape> {
        self.objects(x, &sh::has_value())
            .into_iter()
            .map(Shape::HasValue)
            .collect()
    }

    /// A.1.6 `t_in`: sh:in.
    fn t_in(&self, x: &Term) -> Result<Vec<Shape>, ShaclParseError> {
        let mut out = Vec::new();
        for head in self.objects(x, &sh::in_()) {
            let items = read_list(self.g, &head)
                .ok_or_else(|| ShaclParseError::new("malformed sh:in list"))?;
            out.push(Shape::disj_of(
                items.into_iter().map(Shape::HasValue).collect(),
            ));
        }
        Ok(out)
    }

    /// A.1.6 `t_closed`: sh:closed / sh:ignoredProperties. `P` collects the
    /// (IRI) paths of the shape's property shapes plus ignored properties.
    fn t_closed(&self, x: &Term) -> Result<Vec<Shape>, ShaclParseError> {
        let closed = self
            .objects(x, &sh::closed())
            .iter()
            .any(|v| matches!(v, Term::Literal(l) if l.lexical() == "true"));
        if !closed {
            return Ok(Vec::new());
        }
        let mut allowed: BTreeSet<Iri> = BTreeSet::new();
        for prop_shape in self.objects(x, &sh::property()) {
            for path in self.objects(&prop_shape, &sh::path()) {
                if let Term::Iri(p) = path {
                    allowed.insert(p);
                }
            }
        }
        for item in self.list_objects(x, &sh::ignored_properties())? {
            if let Term::Iri(p) = item {
                allowed.insert(p);
            }
        }
        Ok(vec![Shape::Closed(allowed)])
    }

    /// A.1.4 `t_pair(id, d_x)`: property-pair components on a node shape.
    fn t_pair_id(&self, x: &Term) -> Vec<Shape> {
        // lessThan / lessThanOrEquals are not allowed on node shapes → ⊥.
        if !self.objects(x, &sh::less_than()).is_empty()
            || !self.objects(x, &sh::less_than_or_equals()).is_empty()
        {
            return vec![Shape::False];
        }
        let mut out = Vec::new();
        for y in self.objects(x, &sh::equals()) {
            if let Term::Iri(p) = y {
                out.push(Shape::Eq(PathOrId::Id, p));
            }
        }
        for y in self.objects(x, &sh::disjoint()) {
            if let Term::Iri(p) = y {
                out.push(Shape::Disj(PathOrId::Id, p));
            }
        }
        out
    }

    /// A.3.1 `t_card`: sh:minCount / sh:maxCount.
    fn t_card(&self, e: &PathExpr, x: &Term) -> Vec<Shape> {
        let mut out = Vec::new();
        for y in self.objects(x, &sh::min_count()) {
            if let Some(n) = int_value(&y) {
                out.push(Shape::geq(n, e.clone(), Shape::True));
            }
        }
        for y in self.objects(x, &sh::max_count()) {
            if let Some(n) = int_value(&y) {
                out.push(Shape::leq(n, e.clone(), Shape::True));
            }
        }
        out
    }

    /// A.3.2 `t_pair(E, d_x)`: property-pair components on a property
    /// shape, including the `shx:` extension pairs (Remark 2.3).
    fn t_pair_path(&self, e: &PathExpr, x: &Term) -> Vec<Shape> {
        let mut out = Vec::new();
        for (prop, make) in [
            (
                sh::equals(),
                (|e, p| Shape::Eq(PathOrId::Path(e), p)) as fn(PathExpr, Iri) -> Shape,
            ),
            (sh::disjoint(), |e, p| Shape::Disj(PathOrId::Path(e), p)),
            (sh::less_than(), Shape::LessThan),
            (sh::less_than_or_equals(), Shape::LessThanEq),
            (Iri::new(format!("{SHX_NS}moreThan")), Shape::MoreThan),
            (
                Iri::new(format!("{SHX_NS}moreThanOrEquals")),
                Shape::MoreThanEq,
            ),
        ] {
            for y in self.objects(x, &prop) {
                if let Term::Iri(p) = y {
                    out.push(make(e.clone(), p));
                }
            }
        }
        out
    }

    /// A.3.3 `t_qual`: qualified value shapes with optional sibling
    /// disjointness.
    fn t_qual(&self, e: &PathExpr, x: &Term) -> Result<Vec<Shape>, ShaclParseError> {
        let q: Vec<Term> = self.objects(x, &sh::qualified_value_shape());
        if q.is_empty() {
            return Ok(Vec::new());
        }
        let qmin: Vec<u32> = self
            .objects(x, &sh::qualified_min_count())
            .iter()
            .filter_map(int_value)
            .collect();
        let qmax: Vec<u32> = self
            .objects(x, &sh::qualified_max_count())
            .iter()
            .filter_map(int_value)
            .collect();
        let disjoint_siblings = self
            .objects(x, &sh::qualified_value_shapes_disjoint())
            .iter()
            .any(|v| matches!(v, Term::Literal(l) if l.lexical() == "true"));

        // Sibling shapes: qualified value shapes of the *other* property
        // shapes attached to any parent of x.
        let mut siblings: BTreeSet<Term> = BTreeSet::new();
        if disjoint_siblings {
            let parents: Vec<Term> = self
                .g
                .triples_matching(None, Some(&sh::property()), Some(x))
                .into_iter()
                .map(|t| t.subject)
                .collect();
            for v in parents {
                for y in self.objects(&v, &sh::property()) {
                    if &y == x {
                        continue;
                    }
                    for w in self.objects(&y, &sh::qualified_value_shape()) {
                        siblings.insert(w);
                    }
                }
            }
        }

        let qualify = |y: &Term| -> Shape {
            let mut conj = vec![Shape::HasShape(y.clone())];
            for s in &siblings {
                conj.push(Shape::HasShape(s.clone()).not());
            }
            Shape::conj(conj)
        };

        let mut out = Vec::new();
        for y in &q {
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
    fn t_all(&self, e: &PathExpr, x: &Term) -> Result<Vec<Shape>, ShaclParseError> {
        let mut inner = Vec::new();
        inner.extend(self.t_shape(x));
        inner.extend(self.t_logic(x)?);
        inner.extend(self.t_tests(x)?);
        inner.extend(self.t_in(x)?);
        inner.extend(self.t_closed(x)?);
        for head in self.objects(x, &sh::language_in()) {
            let langs = read_list(self.g, &head)
                .ok_or_else(|| ShaclParseError::new("malformed sh:languageIn list"))?;
            inner.push(Shape::disj_of(langs.iter().filter_map(lang_term).collect()));
        }
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
    fn t_uniquelang(&self, e: &PathExpr, x: &Term) -> Vec<Shape> {
        let unique = self
            .objects(x, &sh::unique_lang())
            .iter()
            .any(|v| matches!(v, Term::Literal(l) if l.lexical() == "true"));
        if unique {
            vec![Shape::UniqueLang(e.clone())]
        } else {
            Vec::new()
        }
    }

    /// A.2 `t_path`: SHACL property paths → path expressions.
    fn translate_path(&self, pp: &Term) -> Result<PathExpr, ShaclParseError> {
        self.translate_path_at(pp, 0)
    }

    /// Depth-guarded body of [`Translator::translate_path`]. A hostile
    /// document can make `sh:inversePath` (or any other structured-path
    /// property) point around a blank-node cycle; without the guard the
    /// translation recurses forever.
    fn translate_path_at(&self, pp: &Term, depth: usize) -> Result<PathExpr, ShaclParseError> {
        const MAX_PATH_DEPTH: usize = 128;
        if depth > MAX_PATH_DEPTH {
            return Err(ShaclParseError::with_code(
                ErrorCode::DepthLimit,
                format!("property path nesting deeper than {MAX_PATH_DEPTH} levels (cyclic path structure?)"),
            ));
        }
        if let Term::Iri(p) = pp {
            return Ok(PathExpr::Prop(p.clone()));
        }
        // Blank node: structured path.
        if let Some(y) = self
            .objects(pp, &Iri::new(format!("{SHX_NS}negatedPropertySet")))
            .first()
        {
            // Extension (Remark 6.3): a negated property set.
            let items = read_list(self.g, y)
                .ok_or_else(|| ShaclParseError::new("malformed shx:negatedPropertySet list"))?;
            let mut props = Vec::new();
            for item in items {
                match item {
                    Term::Iri(p) => props.push(p),
                    other => {
                        return Err(ShaclParseError::new(format!(
                            "negated property sets may only contain IRIs, got {other}"
                        )))
                    }
                }
            }
            return Ok(PathExpr::neg_props(props));
        }
        if let Some(y) = self.objects(pp, &sh::inverse_path()).first() {
            return Ok(self.translate_path_at(y, depth + 1)?.inverse());
        }
        if let Some(y) = self.objects(pp, &sh::zero_or_more_path()).first() {
            return Ok(self.translate_path_at(y, depth + 1)?.star());
        }
        if let Some(y) = self.objects(pp, &sh::one_or_more_path()).first() {
            return Ok(self.translate_path_at(y, depth + 1)?.plus());
        }
        if let Some(y) = self.objects(pp, &sh::zero_or_one_path()).first() {
            return Ok(self.translate_path_at(y, depth + 1)?.opt());
        }
        if let Some(y) = self.objects(pp, &sh::alternative_path()).first() {
            let items = read_list(self.g, y)
                .ok_or_else(|| ShaclParseError::new("malformed sh:alternativePath list"))?;
            let mut parts = items.iter().map(|t| self.translate_path_at(t, depth + 1));
            let first = parts
                .next()
                .ok_or_else(|| ShaclParseError::new("empty sh:alternativePath"))??;
            return parts.try_fold(first, |acc, next| Ok(acc.or(next?)));
        }
        // A SHACL list: a sequence path.
        if let Some(items) = read_list(self.g, pp) {
            let mut parts = items.iter().map(|t| self.translate_path_at(t, depth + 1));
            let first = parts
                .next()
                .ok_or_else(|| ShaclParseError::new("empty sequence path"))??;
            return parts.try_fold(first, |acc, next| Ok(acc.then(next?)));
        }
        Err(ShaclParseError::new(format!(
            "unrecognized property path {pp}"
        )))
    }

    /// A.4 `t_target`: target declarations → target shapes.
    fn translate_target(&self, x: &Term) -> Result<Shape, ShaclParseError> {
        let mut targets = Vec::new();
        for y in self.objects(x, &sh::target_node()) {
            targets.push(Shape::HasValue(y));
        }
        for y in self.objects(x, &sh::target_class()) {
            targets.push(Shape::geq(
                1,
                PathExpr::Prop(rdf::type_()).then(PathExpr::Prop(rdfs::sub_class_of()).star()),
                Shape::HasValue(y),
            ));
        }
        for y in self.objects(x, &sh::target_subjects_of()) {
            if let Term::Iri(p) = y {
                targets.push(Shape::geq(1, PathExpr::Prop(p), Shape::True));
            }
        }
        for y in self.objects(x, &sh::target_objects_of()) {
            if let Term::Iri(p) = y {
                targets.push(Shape::geq(1, PathExpr::Prop(p).inverse(), Shape::True));
            }
        }
        // No targets → ⊥ (the shape is never checked via targets).
        Ok(Shape::disj_of(targets))
    }
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
