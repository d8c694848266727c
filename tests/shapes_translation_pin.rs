//! Translation pin: the shapes-graph translator (Appendix A), the source
//! spans recorded beside it and the analyzer gate must keep giving the
//! schema, the spans and the diagnostics fixed below.
//!
//! Each digest is an FNV-1a hash over text that does not depend on hash
//! seeds: the `Debug` form of every definition in name order with its two
//! NNF forms (`Schema`'s own `Debug` prints a hash map, whose order does);
//! every diagnostic's code, severity, shape, span and message; and the
//! definition span and constraint spans of every definition. The values
//! were recorded on a translator that read the graph by `Term` and kept
//! spans by `Term`, independent of the id-level code they now check, so a
//! change that alters any schema, span or finding fails here.
//! `14695981039346656037` is the digest of no findings.
//!
//! The properties at the end check, on the 57-shape suite and on random
//! schemas, that the two parse entry points agree and that
//! `analyze_schema` agrees with `analyze_defs` over the same definitions.

mod common;

use proptest::prelude::*;

use common::{node_term, pred, shape_strategy};
use shape_fragments::analyze::{analyze_defs, analyze_schema, Diagnostic};
use shape_fragments::rdf::vocab::sh;
use shape_fragments::rdf::Iri;
use shape_fragments::shacl::parser::{
    parse_shape_defs_turtle, parse_shapes_turtle, parse_shapes_turtle_with_spans,
};
use shape_fragments::shacl::{schema_to_turtle, PathExpr, Schema, SchemaSpans, Shape, ShapeDef};
use shape_fragments::workloads::shapes57::benchmark_schema;
use shape_fragments::workloads::TRANSLATION_SAMPLE_TTL;

/// FNV-1a, 64 bit.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The constraint properties whose spans are pinned for every definition.
fn pinned_predicates() -> Vec<Iri> {
    vec![
        sh::path(),
        sh::node(),
        sh::property(),
        sh::and(),
        sh::or(),
        sh::not(),
        sh::xone(),
        sh::class(),
        sh::datatype(),
        sh::node_kind(),
        sh::min_count(),
        sh::max_count(),
        sh::min_inclusive(),
        sh::max_inclusive(),
        sh::pattern(),
        sh::has_value(),
        sh::in_(),
        sh::closed(),
        sh::less_than(),
        sh::language_in(),
        sh::unique_lang(),
        sh::qualified_value_shape(),
        sh::qualified_min_count(),
    ]
}

fn schema_text(schema: &Schema) -> String {
    let mut out = String::new();
    for def in schema.iter() {
        out.push_str(&format!(
            "{def:?}\n{:?}\n{:?}\n",
            schema.def_nnf(&def.name, false),
            schema.def_nnf(&def.name, true)
        ));
    }
    out
}

fn diagnostics_text(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| {
            format!(
                "{}|{:?}|{:?}|{:?}|{}\n",
                d.code, d.severity, d.shape, d.span, d.message
            )
        })
        .collect()
}

fn spans_text(schema: &Schema, spans: &SchemaSpans) -> String {
    let predicates = pinned_predicates();
    let mut out = String::new();
    for def in schema.iter() {
        out.push_str(&format!("{} {:?}", def.name, spans.def(&def.name)));
        for p in &predicates {
            out.push_str(&format!(" {:?}", spans.constraint(&def.name, p)));
        }
        out.push('\n');
    }
    out
}

/// A nonrecursive shapes graph with a finding of most analyzer codes, in
/// the forms whose spans are recorded differently: prefixed names, inline
/// `[ … ]` shapes, a subject split over two statements, full-IRI lines of
/// the plain shape, a comment and a `PREFIX` directive.
const FINDINGS_TTL: &str = r#"@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
# Cardinality conflict inside an inline property shape (E002, E001).
ex:Card a sh:NodeShape ; sh:targetClass ex:T ;
  sh:property [ sh:path ex:p ; sh:minCount 2 ;
    sh:maxCount 1 ] .
ex:Values a sh:NodeShape ; sh:targetClass ex:T ; sh:hasValue ex:a , ex:b .
ex:Tests a sh:NodeShape ;
  sh:targetNode ex:n ;
  sh:datatype xsd:string .
<http://example.org/Tests> <http://www.w3.org/ns/shacl#datatype> <http://www.w3.org/2001/XMLSchema#integer> .
ex:Dead a sh:NodeShape ; sh:targetClass ex:T ; sh:hasValue ex:a ; sh:pattern "a$b" .
ex:Trivial a sh:NodeShape ; sh:targetClass ex:T ;
  sh:property [ sh:path [ sh:zeroOrOnePath [ sh:zeroOrOnePath ex:q ] ] ; sh:minCount 0 ] .
ex:Closed a sh:NodeShape ; sh:targetClass ex:T ; sh:closed true ;
  sh:ignoredProperties ( ex:r ) ; sh:property [ sh:path ex:p ; sh:minCount 1 ] ;
  sh:node ex:NeedsQ .
ex:NeedsQ a sh:NodeShape ; sh:property [ sh:path ex:q ; sh:minCount 1 ] .
ex:Dangling a sh:NodeShape ; sh:targetClass ex:T ; sh:node ex:Missing .
<http://example.org/Lonely> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.w3.org/ns/shacl#NodeShape> .
ex:Lonely sh:property [ sh:path ex:s ; sh:maxCount 0 ; sh:qualifiedValueShape [ sh:class ex:C ] ;
  sh:qualifiedMinCount 1 ] .
ex:Langs a sh:NodeShape ; sh:targetSubjectsOf ex:label ;
  sh:property [ sh:path ( ex:label [ sh:inversePath ex:of ] ) ; sh:uniqueLang true ;
    sh:languageIn ( "en" "de" ) ; sh:lessThan ex:max ] ;
  sh:xone ( ex:NeedsQ [ sh:not ex:Values ] ) ;
  sh:nodeKind sh:IRI ; sh:minInclusive 3 ; sh:maxInclusive 2 ; sh:in ( ex:a 1 "x"@en ) .
"#;

/// `(definitions, schema, diagnostics, spans)` of one shapes document.
fn pins(text: &str) -> (usize, u64, u64, u64) {
    let (schema, spans) = parse_shapes_turtle_with_spans(text).expect("the document translates");
    let diags = analyze_schema(&schema, Some(&spans));
    (
        schema.len(),
        fnv(&schema_text(&schema)),
        fnv(&diagnostics_text(&diags)),
        fnv(&spans_text(&schema, &spans)),
    )
}

#[test]
fn benchmark_suite_translation_is_pinned() {
    let text = schema_to_turtle(&benchmark_schema());
    assert_eq!(
        pins(&text),
        (
            212,
            12420398534388768526,
            14695981039346656037,
            10297193825942601905
        ),
        "definitions, schema, diagnostics, spans"
    );
}

#[test]
fn findings_document_is_pinned() {
    assert_eq!(
        pins(FINDINGS_TTL),
        (
            19,
            5049354947340852014,
            5439006053709103434,
            16213921462030541101
        ),
        "definitions, schema, diagnostics, spans"
    );
}

#[test]
fn translation_sample_is_pinned() {
    assert_eq!(
        pins(TRANSLATION_SAMPLE_TTL),
        (
            10,
            5295688175104407558,
            14695981039346656037,
            18016166442663343481
        ),
        "definitions, schema, diagnostics, spans"
    );
}

/// The three parse entry points give one schema, and the analyzer gives
/// the same findings over the schema and over its cloned definitions.
fn entry_points_agree(text: &str) -> Result<(), String> {
    let plain = parse_shapes_turtle(text).map_err(|e| e.to_string())?;
    let (spanned, spans) = parse_shapes_turtle_with_spans(text).map_err(|e| e.to_string())?;
    if plain != spanned {
        return Err("parse_shapes_turtle and parse_shapes_turtle_with_spans differ".into());
    }
    let defs: Vec<ShapeDef> = spanned.iter().cloned().collect();
    let (raw, raw_spans) = parse_shape_defs_turtle(text).map_err(|e| e.to_string())?;
    if raw != defs || spans_text(&spanned, &raw_spans) != spans_text(&spanned, &spans) {
        return Err("parse_shape_defs_turtle disagrees with the schema or its spans".into());
    }
    for spans in [None, Some(&spans)] {
        if analyze_schema(&spanned, spans) != analyze_defs(&defs, spans) {
            return Err(format!(
                "analyze_schema and analyze_defs differ (spans: {})",
                spans.is_some()
            ));
        }
    }
    Ok(())
}

#[test]
fn entry_points_agree_on_the_benchmark_suite() {
    entry_points_agree(&schema_to_turtle(&benchmark_schema())).unwrap();
    entry_points_agree(TRANSLATION_SAMPLE_TTL).unwrap();
    entry_points_agree(FINDINGS_TTL).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The same agreement on the random schemas `prop_schema_roundtrip`
    /// writes and reads back.
    #[test]
    fn entry_points_agree_on_random_schemas(
        shape in shape_strategy(),
        other in shape_strategy(),
        p in 0u8..3,
    ) {
        let schema = Schema::new([
            ShapeDef::new(
                node_term(0),
                shape,
                Shape::geq(1, PathExpr::Prop(pred(p)), Shape::True),
            ),
            ShapeDef::new(node_term(1), other, Shape::False),
        ])
        .unwrap();
        let text = schema_to_turtle(&schema);
        entry_points_agree(&text).map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
    }
}
