#![forbid(unsafe_code)]
//! # shapefrag-analyze
//!
//! Static analyzer for shape schemas: multi-pass diagnostics with stable
//! codes and source spans, plus a semantics-preserving simplifier feeding
//! the validator. See DESIGN.md §11 for the taxonomy and the soundness
//! argument behind each rewrite.
//!
//! The passes, in order:
//!
//! 1. **Reference graph** ([`refgraph`]) — recursion (SF-E020), negation
//!    cycles / unstratifiability (SF-E021), unreachable definitions
//!    (SF-W022), undefined references (SF-W023), and the collection
//!    polarities the simplifier's fragment gates need.
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
pub use fold::{fold_nnf, path_warnings, tests_conflict, SimplifyLevel, Status};
pub use impact::{impact_profiles, ImpactProfile};
pub use refgraph::{analyze_refs, Polarity, RefGraph};

use std::collections::BTreeMap;

use shapefrag_rdf::vocab::sh;
use shapefrag_rdf::{GraphAccess, Iri, Span, Term};
use shapefrag_shacl::validator::ValidationReport;
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

/// Runs the full analysis over raw shape definitions (pre-[`Schema`], so
/// recursive and otherwise rejected inputs are *reported*, not errored).
/// Pass the spans from [`shapefrag_shacl::parser::parse_shape_defs_turtle`]
/// to get source positions on the findings.
pub fn analyze_defs(defs: &[ShapeDef], spans: Option<&SchemaSpans>) -> Vec<Diagnostic> {
    let rg = refgraph::analyze_refs(defs);
    let mut diags = rg.diagnostics;
    let mut def_status: BTreeMap<Term, Status> = defs
        .iter()
        .map(|d| (d.name.clone(), Status::Unknown))
        .collect();
    // Fold references-first so statuses resolve across definitions; in
    // recursive schemas every reference conservatively stays Unknown.
    let order: Vec<Term> = rg
        .topo
        .clone()
        .unwrap_or_else(|| defs.iter().map(|d| d.name.clone()).collect());
    let by_name: BTreeMap<&Term, &ShapeDef> = defs.iter().map(|d| (&d.name, d)).collect();
    for name in &order {
        let Some(def) = by_name.get(name) else {
            continue;
        };
        let pol = rg.polarity.get(name).copied().unwrap_or_default();
        let phi = Nnf::from_shape(&def.shape);
        let (_, phi_status, mut local) =
            fold::fold_nnf(&phi, SimplifyLevel::Validation, pol, &def_status);
        let tau = Nnf::from_shape(&def.target);
        let (_, tau_status, tau_diags) =
            fold::fold_nnf(&tau, SimplifyLevel::Validation, pol, &def_status);
        local.extend(tau_diags);
        local.extend(fold::path_warnings(&phi));
        local.extend(fold::path_warnings(&tau));
        def_status.insert((*name).clone(), phi_status);
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
                d.shape = Some((*name).clone());
            }
            diags.push(d);
        }
    }
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

/// [`analyze_defs`] over an already-constructed (hence nonrecursive)
/// schema.
pub fn analyze_schema(schema: &Schema, spans: Option<&SchemaSpans>) -> Vec<Diagnostic> {
    let defs: Vec<ShapeDef> = schema.iter().cloned().collect();
    analyze_defs(&defs, spans)
}

/// Rewrites a schema into a simplified, semantics-preserving form.
///
/// At [`SimplifyLevel::Validation`] the result validates every graph
/// identically (same violations, same checked target sets). At
/// [`SimplifyLevel::Fragment`] the Table-2 provenance fragments are
/// preserved as well — rewrites that could change a neighborhood are gated
/// on the collection polarity computed by the reference pass. Returns the
/// findings surfaced while folding.
pub fn simplify(schema: &Schema, level: SimplifyLevel) -> (Schema, Vec<Diagnostic>) {
    let defs: Vec<ShapeDef> = schema.iter().cloned().collect();
    let rg = refgraph::analyze_refs(&defs);
    let mut diags = rg.diagnostics;
    let mut def_status: BTreeMap<Term, Status> = defs
        .iter()
        .map(|d| (d.name.clone(), Status::Unknown))
        .collect();
    let order = rg
        .topo
        .expect("Schema construction guarantees an acyclic reference graph");
    let by_name: BTreeMap<Term, ShapeDef> = defs.into_iter().map(|d| (d.name.clone(), d)).collect();
    let mut new_defs: Vec<ShapeDef> = Vec::with_capacity(by_name.len());
    for name in &order {
        let def = &by_name[name];
        let pol = rg.polarity.get(name).copied().unwrap_or_default();
        let (phi, phi_status, d1) =
            fold::fold_nnf(&Nnf::from_shape(&def.shape), level, pol, &def_status);
        let (tau, _, d2) = fold::fold_nnf(&Nnf::from_shape(&def.target), level, pol, &def_status);
        def_status.insert(name.clone(), phi_status);
        for mut d in d1.into_iter().chain(d2) {
            if d.shape.is_none() {
                d.shape = Some(name.clone());
            }
            diags.push(d);
        }
        new_defs.push(ShapeDef::new(name.clone(), phi.to_shape(), tau.to_shape()));
    }
    let simplified = Schema::new(new_defs)
        .expect("simplification removes subterms but never introduces names or cycles");
    (simplified, diags)
}

/// Batch validation with a validation-level pre-simplify: folds the schema
/// first (cheap, schema-sized) and validates with the smaller formulas.
/// The report is identical to `validate_batch(schema, graph)`.
pub fn validate_batch_simplified<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
) -> (ValidationReport, Vec<Diagnostic>) {
    let (simplified, diags) = simplify(schema, SimplifyLevel::Validation);
    (
        shapefrag_shacl::validator::validate_batch(&simplified, graph),
        diags,
    )
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
    fn simplify_preserves_schema_validity() {
        let schema = Schema::new([
            ShapeDef::new(
                name("S"),
                Shape::True.and(Shape::HasShape(name("T"))),
                Shape::geq(1, p("type"), Shape::True),
            ),
            ShapeDef::new(name("T"), Shape::geq(0, p("a"), Shape::True), Shape::False),
        ])
        .unwrap();
        let (frag, _) = simplify(&schema, SimplifyLevel::Fragment);
        assert_eq!(frag.len(), schema.len());
        let (val, _) = simplify(&schema, SimplifyLevel::Validation);
        // Validation-level folding collapses T's trivial ≥0 to ⊤.
        assert_eq!(val.def(&name("T")), &Shape::True);
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
