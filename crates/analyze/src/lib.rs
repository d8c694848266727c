#![forbid(unsafe_code)]
//! # shapefrag-analyze
//!
//! Static analyzer for shape schemas: multi-pass diagnostics with stable
//! codes and source spans. See DESIGN.md §11 for the taxonomy and the
//! argument behind each verdict.
//!
//! The passes, in order:
//!
//! 1. **Reference graph** ([`refgraph`]) — recursion (SF-E020), negation
//!    cycles / unstratifiability (SF-E021), unreachable definitions
//!    (SF-W022), and undefined references (SF-W023).
//! 2. **Constant folding** ([`fold`]) — ⊤/⊥ propagation through NNF,
//!    contradiction detection (SF-E002…E006), dead `sh:pattern`s
//!    (SF-W012), trivial constraints (SF-W001), redundant path operators
//!    (SF-W010), and per-definition unsatisfiability (SF-E001) /
//!    always-⊤ (SF-W006) verdicts.
//! 3. **Extraction routing** ([`cost`]) — whether batch evaluation of a
//!    shape shares work across focus nodes, consumed by the instrumented
//!    driver's routing heuristic.
//!
//! ```
//! use shapefrag_analyze::{analyze_defs, codes, has_deny};
//! use shapefrag_shacl::parser::parse_shape_defs_turtle;
//!
//! let (defs, spans) = parse_shape_defs_turtle(r#"
//!     @prefix sh: <http://www.w3.org/ns/shacl#> .
//!     @prefix ex: <http://example.org/> .
//!     ex:S a sh:NodeShape ;
//!       sh:targetClass ex:Thing ;
//!       sh:property [ sh:path ex:p ; sh:minCount 2 ; sh:maxCount 1 ] .
//! "#).unwrap();
//! let diags = analyze_defs(&defs, Some(&spans));
//! assert!(diags.iter().any(|d| d.code == codes::CARDINALITY_CONFLICT));
//! assert!(has_deny(&diags));
//! ```

pub mod containment;
pub mod cost;
pub mod diagnostic;
pub mod fold;
pub mod impact;
pub mod refgraph;

pub use containment::{containment_diagnostics, subsumes, test_implies, ContainmentMatrix};
pub use cost::{path_is_simple, shape_shares_work};
pub use diagnostic::{codes, has_deny, to_json, Diagnostic, Severity};
pub use fold::{fold_nnf, path_warnings, tests_conflict, Status};
pub use impact::{impact_profiles, ImpactProfile};
pub use refgraph::{analyze_refs, RefGraph};

use std::borrow::Cow;
use std::collections::BTreeMap;

use shapefrag_rdf::vocab::sh;
use shapefrag_rdf::{Iri, Span, Term};
use shapefrag_shacl::{Nnf, Schema, SchemaSpans, ShapeDef};

/// The constraint predicates whose source position best localizes a code,
/// tried in order before falling back to the definition's own position.
fn span_predicates(code: &str) -> Vec<Iri> {
    match code {
        codes::CARDINALITY_CONFLICT => vec![sh::max_count(), sh::min_count()],
        codes::LEQ_ZERO_NULLABLE => vec![sh::max_count()],
        codes::HAS_VALUE_CONFLICT => vec![sh::has_value()],
        codes::TEST_CONFLICT => vec![
            sh::datatype(),
            sh::node_kind(),
            sh::min_length(),
            sh::max_length(),
            sh::min_inclusive(),
            sh::max_inclusive(),
            sh::min_exclusive(),
            sh::max_exclusive(),
            sh::has_value(),
            sh::in_(),
        ],
        codes::CLOSED_CONFLICT => vec![sh::closed()],
        codes::DEAD_PATTERN => vec![sh::pattern()],
        codes::TRIVIAL_CONSTRAINT => vec![sh::min_count()],
        codes::REDUNDANT_PATH_OP => vec![sh::path()],
        codes::UNDEFINED_REF => vec![
            sh::node(),
            sh::property(),
            sh::not(),
            sh::and(),
            sh::or(),
            sh::xone(),
            sh::qualified_value_shape(),
        ],
        _ => Vec::new(),
    }
}

fn resolve_span(spans: &SchemaSpans, name: &Term, code: &str) -> Option<Span> {
    span_predicates(code)
        .iter()
        .find_map(|p| spans.constraint(name, p))
        .or_else(|| spans.def(name))
}

/// One definition as the passes read it, with the NNF of its shape
/// expression and of its target. The shape's NNF is borrowed from the
/// schema when there is one, and derived otherwise.
pub(crate) struct DefForms<'a> {
    pub(crate) def: &'a ShapeDef,
    pub(crate) shape: Cow<'a, Nnf>,
    pub(crate) target: Nnf,
}

impl<'a> DefForms<'a> {
    fn new(def: &'a ShapeDef, shape: Cow<'a, Nnf>) -> Self {
        DefForms {
            def,
            shape,
            target: Nnf::from_shape(&def.target),
        }
    }

    /// Raw definitions, in their order.
    pub(crate) fn of_defs(defs: &'a [ShapeDef]) -> Vec<Self> {
        defs.iter()
            .map(|d| DefForms::new(d, Cow::Owned(Nnf::from_shape(&d.shape))))
            .collect()
    }

    /// A schema's definitions in name order, with the NNF the schema
    /// computed when it was built.
    fn of_schema(schema: &'a Schema) -> Vec<Self> {
        schema
            .iter()
            .map(|d| DefForms::new(d, Cow::Borrowed(schema.def_nnf(&d.name, false))))
            .collect()
    }
}

/// Runs the full analysis over raw shape definitions (pre-[`Schema`], so
/// recursive and otherwise rejected inputs are *reported*, not errored).
/// Pass the spans from [`shapefrag_shacl::parser::parse_shape_defs_turtle`]
/// to get source positions on the findings.
pub fn analyze_defs(defs: &[ShapeDef], spans: Option<&SchemaSpans>) -> Vec<Diagnostic> {
    analyze(&DefForms::of_defs(defs), spans)
}

/// [`analyze_defs`] over an already-constructed (hence nonrecursive)
/// schema. Reads each definition's NNF from the schema, so nothing is
/// cloned or re-derived beyond the targets' NNF.
pub fn analyze_schema(schema: &Schema, spans: Option<&SchemaSpans>) -> Vec<Diagnostic> {
    analyze(&DefForms::of_schema(schema), spans)
}

/// The passes behind [`analyze_defs`] and [`analyze_schema`].
fn analyze(forms: &[DefForms], spans: Option<&SchemaSpans>) -> Vec<Diagnostic> {
    let rg = refgraph::refs_of(forms);
    let mut diags = rg.diagnostics;
    fold_defs(forms, rg.topo, |form, phi_status, mut local, def_status| {
        let (def, phi, tau) = (form.def, &*form.shape, &form.target);
        let (_, tau_status, tau_diags) = fold::fold_nnf(tau, def_status);
        local.extend(tau_diags);
        local.extend(fold::path_warnings(phi));
        local.extend(fold::path_warnings(tau));
        let targeted = tau_status != Status::Unsat;
        if targeted && phi_status == Status::Unsat {
            local.push(Diagnostic::new(
                codes::UNSATISFIABLE_DEF,
                Severity::Deny,
                None,
                "definition is statically unsatisfiable: every target match is \
                     reported as a violation"
                    .to_string(),
            ));
        }
        if targeted && phi_status == Status::Valid {
            local.push(Diagnostic::new(
                codes::ALWAYS_TRUE_DEF,
                Severity::Warn,
                None,
                "shape expression is statically always satisfied: targets can \
                     never fail validation"
                    .to_string(),
            ));
        }
        for mut d in local {
            if d.shape.is_none() {
                d.shape = Some(def.name.clone());
            }
            diags.push(d);
        }
    });
    if let Some(spans) = spans {
        for d in &mut diags {
            if d.span.is_none() {
                if let Some(n) = &d.shape {
                    d.span = resolve_span(spans, n, d.code);
                }
            }
        }
    }
    // Deny findings first; otherwise stable (preserves per-def order).
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
    diags
}

/// Folds every definition's shape references-first (in `topo` order), so
/// statuses resolve across definitions; without a topological order (a
/// recursive schema) every reference conservatively stays `Unknown`.
/// `visit` sees each definition with its NNF forms, its shape's folded
/// status and findings, and the statuses resolved so far, before the
/// definition's own status is recorded. Returns every definition's status.
pub(crate) fn fold_defs(
    forms: &[DefForms],
    topo: Option<Vec<Term>>,
    mut visit: impl FnMut(&DefForms, Status, Vec<Diagnostic>, &BTreeMap<Term, Status>),
) -> BTreeMap<Term, Status> {
    let mut def_status: BTreeMap<Term, Status> = forms
        .iter()
        .map(|f| (f.def.name.clone(), Status::Unknown))
        .collect();
    let order = topo.unwrap_or_else(|| forms.iter().map(|f| f.def.name.clone()).collect());
    let by_name: BTreeMap<&Term, &DefForms> = forms.iter().map(|f| (&f.def.name, f)).collect();
    for name in &order {
        let Some(form) = by_name.get(name) else {
            continue;
        };
        let (_, status, local) = fold::fold_nnf(&form.shape, &def_status);
        visit(form, status, local, &def_status);
        def_status.insert(name.clone(), status);
    }
    def_status
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapefrag_shacl::parser::parse_shape_defs_turtle;
    use shapefrag_shacl::{PathExpr, Shape};

    fn name(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn p(n: &str) -> PathExpr {
        PathExpr::prop(format!("http://e/{n}"))
    }

    #[test]
    fn unsatisfiable_targeted_def_is_e001() {
        let schema = Schema::new([ShapeDef::new(
            name("S"),
            Shape::has_value(Term::iri("http://e/a"))
                .and(Shape::has_value(Term::iri("http://e/b"))),
            Shape::geq(1, p("type"), Shape::True),
        )])
        .unwrap();
        let diags = analyze_schema(&schema, None);
        assert!(diags.iter().any(|d| d.code == codes::UNSATISFIABLE_DEF));
        assert!(has_deny(&diags));
    }

    #[test]
    fn untargeted_unsat_def_is_not_e001() {
        let schema = Schema::new([ShapeDef::new(
            name("S"),
            Shape::has_value(Term::iri("http://e/a"))
                .and(Shape::has_value(Term::iri("http://e/b"))),
            Shape::False,
        )])
        .unwrap();
        let diags = analyze_schema(&schema, None);
        assert!(!diags.iter().any(|d| d.code == codes::UNSATISFIABLE_DEF));
    }

    #[test]
    fn always_true_targeted_def_is_w006() {
        let schema = Schema::new([ShapeDef::new(
            name("S"),
            Shape::True,
            Shape::geq(1, p("type"), Shape::True),
        )])
        .unwrap();
        let diags = analyze_schema(&schema, None);
        assert!(diags.iter().any(|d| d.code == codes::ALWAYS_TRUE_DEF));
        assert!(!has_deny(&diags));
    }

    #[test]
    fn statuses_flow_across_references() {
        // S requires Bad, Bad is unsatisfiable: S is unsatisfiable too.
        let schema = Schema::new([
            ShapeDef::new(
                name("S"),
                Shape::HasShape(name("Bad")),
                Shape::geq(1, p("type"), Shape::True),
            ),
            ShapeDef::new(
                name("Bad"),
                Shape::has_value(Term::iri("http://e/a"))
                    .and(Shape::has_value(Term::iri("http://e/b"))),
                Shape::False,
            ),
        ])
        .unwrap();
        let diags = analyze_schema(&schema, None);
        let e001: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::UNSATISFIABLE_DEF)
            .collect();
        assert_eq!(e001.len(), 1);
        assert_eq!(e001[0].shape, Some(name("S")));
    }

    #[test]
    fn recursive_defs_are_analyzed_not_errored() {
        let (defs, spans) = parse_shape_defs_turtle(
            r#"
            @prefix sh: <http://www.w3.org/ns/shacl#> .
            @prefix ex: <http://example.org/> .
            ex:A a sh:NodeShape ; sh:node ex:B .
            ex:B a sh:NodeShape ; sh:node ex:A .
            "#,
        )
        .unwrap();
        let diags = analyze_defs(&defs, Some(&spans));
        assert!(diags.iter().any(|d| d.code == codes::RECURSIVE_SCHEMA));
    }

    #[test]
    fn spans_point_at_the_offending_constraint() {
        let (defs, spans) = parse_shape_defs_turtle(
            "@prefix sh: <http://www.w3.org/ns/shacl#> .\n\
             @prefix ex: <http://example.org/> .\n\
             ex:S a sh:NodeShape ;\n\
               sh:targetClass ex:T ;\n\
               sh:hasValue ex:a ;\n\
               sh:pattern \"a$b\" .\n",
        )
        .unwrap();
        let diags = analyze_defs(&defs, Some(&spans));
        let dead = diags
            .iter()
            .find(|d| d.code == codes::DEAD_PATTERN)
            .expect("dead pattern reported");
        let span = dead.span.expect("span attached");
        assert_eq!(span.line, 6);
    }

    #[test]
    fn json_output_is_wellformed() {
        let diags = vec![Diagnostic::new(
            codes::DEAD_PATTERN,
            Severity::Warn,
            Some(name("S")),
            "a \"quoted\" message",
        )];
        let json = to_json(&diags);
        assert!(json.contains("\"SF-W012\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"warnings\": 1"));
        assert!(json.contains("\"denials\": 0"));
    }
}
