//! Shape schemas (the formalization of SHACL "shapes graphs", §2).
//!
//! A *shape definition* is a triple `(s, φ, τ)` of a shape name, a shape
//! expression, and a target expression. A *schema* is a finite set of shape
//! definitions with distinct names. As in the SHACL recommendation (and the
//! paper), only **nonrecursive** schemas are admitted.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use shapefrag_rdf::Term;

use crate::nnf::Nnf;
use crate::shape::Shape;

/// `def(s, H)` of an undefined name, and its NNF forms (`⊤` and `¬⊤ = ⊥`).
static TOP: Shape = Shape::True;
static TOP_NNF: [Nnf; 2] = [Nnf::True, Nnf::False];

/// A shape definition `(s, φ, τ)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeDef {
    /// The shape name `s ∈ I ∪ B`.
    pub name: Term,
    /// The shape expression φ.
    pub shape: Shape,
    /// The target expression τ (any shape; real SHACL targets are the
    /// monotone forms listed in §4).
    pub target: Shape,
}

impl ShapeDef {
    /// Creates a shape definition.
    pub fn new(name: impl Into<Term>, shape: Shape, target: Shape) -> Self {
        let name = name.into();
        assert!(
            !name.is_literal(),
            "shape names must be IRIs or blank nodes"
        );
        ShapeDef {
            name,
            shape,
            target,
        }
    }
}

/// Error constructing a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// Two definitions share a name.
    DuplicateName(Term),
    /// The `hasShape` reference graph has a directed cycle through this
    /// shape name.
    Recursive(Term),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::DuplicateName(name) => {
                write!(f, "duplicate shape definition for {name}")
            }
            SchemaError::Recursive(name) => {
                write!(f, "schema is recursive through shape {name}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// A nonrecursive shape schema `H`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    defs: BTreeMap<Term, ShapeDef>,
    /// Dense ids for defined shape names in definition (name) order; used
    /// as compact memo keys by the batch validator.
    name_ids: HashMap<Term, u32>,
    /// Per dense id: the definition's NNF and the NNF of its negation,
    /// computed once so dereferencing a name never re-converts.
    nnf: Vec<[Nnf; 2]>,
}

impl Schema {
    /// The empty schema (every `hasShape` reference then defaults to ⊤).
    pub fn empty() -> Self {
        Schema::default()
    }

    /// Builds a schema from definitions, checking name uniqueness and
    /// nonrecursion.
    pub fn new(defs: impl IntoIterator<Item = ShapeDef>) -> Result<Self, SchemaError> {
        let mut map = BTreeMap::new();
        for def in defs {
            let name = def.name.clone();
            if map.insert(name.clone(), def).is_some() {
                return Err(SchemaError::DuplicateName(name));
            }
        }
        let name_ids = map
            .keys()
            .enumerate()
            .map(|(i, name)| (name.clone(), i as u32))
            .collect();
        let nnf = map
            .values()
            .map(|d| [Nnf::from_shape(&d.shape), Nnf::from_negated_shape(&d.shape)])
            .collect();
        let schema = Schema {
            defs: map,
            name_ids,
            nnf,
        };
        if let Some(name) = schema.find_cycle() {
            return Err(SchemaError::Recursive(name));
        }
        Ok(schema)
    }

    /// The dense id of a defined shape name (`None` for undefined names,
    /// which default to ⊤ and need no memoization).
    pub fn name_id(&self, name: &Term) -> Option<u32> {
        self.name_ids.get(name).copied()
    }

    /// `def(s, H)`: the shape expression defining `s`, or ⊤ if `s` has no
    /// definition (the behavior in real SHACL).
    pub fn def(&self, name: &Term) -> &Shape {
        self.defs.get(name).map_or(&TOP, |d| &d.shape)
    }

    /// The NNF of `def(s, H)`, or of `¬def(s, H)` when `negated`; computed
    /// once per definition when the schema is built.
    pub fn def_nnf(&self, name: &Term, negated: bool) -> &Nnf {
        let forms = self
            .name_id(name)
            .map_or(&TOP_NNF, |id| &self.nnf[id as usize]);
        &forms[negated as usize]
    }

    /// Looks up the full definition for a name.
    pub fn get(&self, name: &Term) -> Option<&ShapeDef> {
        self.defs.get(name)
    }

    /// Iterates the shape definitions (ordered by name).
    pub fn iter(&self) -> impl Iterator<Item = &ShapeDef> {
        self.defs.values()
    }

    /// Number of shape definitions.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True iff the schema has no definitions.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// The request shapes `{ φ ∧ τ | (s, φ, τ) ∈ H }` used to form the
    /// shape fragment of a schema (§4).
    pub fn request_shapes(&self) -> Vec<Shape> {
        self.iter()
            .map(|d| d.shape.clone().and(d.target.clone()))
            .collect()
    }

    /// Detects a cycle in the `hasShape` reference graph; returns a name on
    /// a cycle if one exists. Edges `s₁ → s₂` exist when `hasShape(s₂)`
    /// occurs in the shape expression (or target) defining `s₁`.
    fn find_cycle(&self) -> Option<Term> {
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            Visiting,
            Done,
        }
        // Iterative three-color DFS (Enter/Exit job stack): reference chains
        // can be as deep as the schema is large, so no call-stack recursion.
        enum Job<'a> {
            Enter(&'a Term),
            Exit(&'a Term),
        }
        let mut states: HashMap<&Term, State> = HashMap::new();
        for start in self.defs.keys() {
            if states.contains_key(start) {
                continue;
            }
            let mut jobs = vec![Job::Enter(start)];
            while let Some(job) = jobs.pop() {
                match job {
                    Job::Enter(name) => {
                        match states.get(name) {
                            Some(State::Done) => continue,
                            // A back edge into a gray node: that node is on
                            // the cycle (the DFS start need not be).
                            Some(State::Visiting) => return Some(name.clone()),
                            None => {}
                        }
                        let Some(def) = self.defs.get(name) else {
                            continue; // Undefined names dangle to ⊤; no cycle.
                        };
                        states.insert(name, State::Visiting);
                        jobs.push(Job::Exit(name));
                        let mut refs: Vec<&Term> = def.shape.referenced_shapes();
                        refs.extend(def.target.referenced_shapes());
                        for r in refs {
                            jobs.push(Job::Enter(r));
                        }
                    }
                    Job::Exit(name) => {
                        states.insert(name, State::Done);
                    }
                }
            }
        }
        None
    }

    /// All shape names transitively referenced from a shape (for
    /// diagnostics and translation sizing).
    pub fn transitive_refs(&self, shape: &Shape) -> Vec<Term> {
        let mut seen: HashSet<Term> = HashSet::new();
        let mut stack: Vec<Term> = shape.referenced_shapes().into_iter().cloned().collect();
        let mut out = Vec::new();
        while let Some(name) = stack.pop() {
            if seen.insert(name.clone()) {
                for r in self.def(&name).referenced_shapes() {
                    stack.push(r.clone());
                }
                out.push(name);
            }
        }
        out.sort();
        out
    }
}

impl FromIterator<ShapeDef> for Result<Schema, SchemaError> {
    fn from_iter<I: IntoIterator<Item = ShapeDef>>(iter: I) -> Self {
        Schema::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathExpr;

    fn p(name: &str) -> PathExpr {
        PathExpr::prop(format!("http://e/{name}"))
    }

    fn name(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new([
            ShapeDef::new(name("S"), Shape::True, Shape::False),
            ShapeDef::new(name("S"), Shape::False, Shape::False),
        ])
        .unwrap_err();
        assert!(matches!(err, SchemaError::DuplicateName(_)));
    }

    #[test]
    fn undefined_reference_defaults_to_top() {
        let schema = Schema::empty();
        assert_eq!(schema.def(&name("Missing")), &Shape::True);
    }

    #[test]
    fn def_nnf_is_computed_once_per_definition_and_top_for_undefined_names() {
        let shape = Shape::geq(1, p("a"), Shape::HasShape(name("T")).not());
        let schema = Schema::new([
            ShapeDef::new(name("S"), shape.clone(), Shape::False),
            ShapeDef::new(name("T"), Shape::True, Shape::False),
        ])
        .unwrap();
        assert_eq!(schema.def_nnf(&name("S"), false), &Nnf::from_shape(&shape));
        assert_eq!(
            schema.def_nnf(&name("S"), true),
            &Nnf::from_negated_shape(&shape)
        );
        for negated in [false, true] {
            let top = Nnf::from_shape(&Shape::True);
            let expected = if negated { top.negated() } else { top };
            assert_eq!(schema.def_nnf(&name("Missing"), negated), &expected);
        }
    }

    #[test]
    fn direct_recursion_rejected() {
        let err = Schema::new([ShapeDef::new(
            name("S"),
            Shape::geq(1, p("a"), Shape::HasShape(name("S"))),
            Shape::False,
        )])
        .unwrap_err();
        assert!(matches!(err, SchemaError::Recursive(_)));
    }

    #[test]
    fn mutual_recursion_rejected() {
        let err = Schema::new([
            ShapeDef::new(name("S"), Shape::HasShape(name("T")), Shape::False),
            ShapeDef::new(name("T"), Shape::HasShape(name("S")).not(), Shape::False),
        ])
        .unwrap_err();
        assert!(matches!(err, SchemaError::Recursive(_)));
    }

    #[test]
    fn dag_references_accepted() {
        let schema = Schema::new([
            ShapeDef::new(name("S"), Shape::HasShape(name("T")), Shape::False),
            ShapeDef::new(
                name("U"),
                Shape::HasShape(name("T")).and(Shape::HasShape(name("S"))),
                Shape::False,
            ),
            ShapeDef::new(name("T"), Shape::True, Shape::False),
        ])
        .unwrap();
        assert_eq!(schema.len(), 3);
        assert_eq!(schema.transitive_refs(schema.def(&name("U"))).len(), 2);
    }

    #[test]
    fn reference_to_undefined_shape_is_not_recursive() {
        let schema = Schema::new([ShapeDef::new(
            name("S"),
            Shape::HasShape(name("Missing")),
            Shape::False,
        )])
        .unwrap();
        assert_eq!(schema.def(&name("Missing")), &Shape::True);
    }

    #[test]
    fn request_shapes_conjoin_shape_and_target() {
        let schema = Schema::new([ShapeDef::new(
            name("S"),
            Shape::geq(1, p("author"), Shape::True),
            Shape::has_value(Term::iri("http://e/x")),
        )])
        .unwrap();
        let reqs = schema.request_shapes();
        assert_eq!(reqs.len(), 1);
        assert!(matches!(&reqs[0], Shape::And(items) if items.len() == 2));
    }
}
