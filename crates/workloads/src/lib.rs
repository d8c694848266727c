//! # shapefrag-workloads
//!
//! Synthetic workload generators and query suites reproducing the paper's
//! evaluation inputs (see DESIGN.md §2 for the substitution rationale):
//!
//! - [`tyrolean`] — tourism knowledge graph + induced-subgraph sampling
//!   (§5.3.1 data), with [`shapes57`] providing the 57 benchmark shapes.
//! - [`dblp`] — preferential-attachment co-authorship graph with year
//!   slices and the Vardi-distance-k shape (§5.3.2).
//! - [`ecommerce`] + [`queries`] — the 46 BSBM/WatDiv-style subgraph
//!   queries, with [`query2shape`] performing the §4.1 expressibility
//!   analysis and translation.
//! - [`tpf`] — triple pattern fragments and Proposition 6.2.
#![forbid(unsafe_code)]

pub mod dblp;
pub mod ecommerce;
pub mod queries;
pub mod query2shape;
pub mod shapes57;
pub mod tpf;
pub mod tyrolean;

/// A small shapes graph that reaches the translator's structured forms:
/// qualified value shapes, `rdf:first`/`rdf:rest` lists, `sh:closed` with
/// ignored properties, `sh:languageIn`, `sh:lessThan` and a sequence
/// path. The parsing bench times its translation, and the translation pin
/// test fixes the schema it gives.
pub const TRANSLATION_SAMPLE_TTL: &str = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://e/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:S1 a sh:NodeShape ; sh:targetClass ex:Paper ;
  sh:property [ sh:path ex:author ; sh:minCount 1 ;
                sh:qualifiedValueShape [ sh:class ex:Student ] ;
                sh:qualifiedMinCount 1 ] ;
  sh:property [ sh:path ex:year ; sh:datatype xsd:integer ;
                sh:minInclusive 1900 ; sh:maxInclusive 2030 ] ;
  sh:property [ sh:path ( ex:venue ex:name ) ; sh:minCount 1 ] .
ex:S2 a sh:NodeShape ; sh:targetSubjectsOf ex:reviews ;
  sh:or ( ex:S3 ex:S4 ) ; sh:closed true ; sh:ignoredProperties ( ex:x ) .
ex:S3 a sh:NodeShape ; sh:property [ sh:path ex:score ; sh:lessThan ex:max ] .
ex:S4 a sh:NodeShape ; sh:property [ sh:path ex:label ; sh:uniqueLang true ;
  sh:languageIn ( "en" "de" ) ] .
"#;
