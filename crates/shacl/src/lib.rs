//! # shapefrag-shacl
//!
//! SHACL substrate: the paper's formal shape algebra (§2), negation normal
//! form (§3.1), a regular-path-query engine with path tracing (§3.2–3.3),
//! node tests with a built-in lite regex engine, nonrecursive shape schemas,
//! a conformance validator (Table 1), and a parser translating real SHACL
//! shapes graphs into the formal algebra (Appendix A).
//!
//! ```
//! use shapefrag_shacl::{parser::parse_shapes_turtle, validator::validate};
//! use shapefrag_rdf::turtle;
//!
//! let schema = parse_shapes_turtle(r#"
//!     @prefix sh: <http://www.w3.org/ns/shacl#> .
//!     @prefix ex: <http://example.org/> .
//!     ex:PersonShape a sh:NodeShape ;
//!       sh:targetClass ex:Person ;
//!       sh:property [ sh:path ex:name ; sh:minCount 1 ] .
//! "#).unwrap();
//!
//! let data = turtle::parse(r#"
//!     @prefix ex: <http://example.org/> .
//!     @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
//!     ex:ok rdf:type ex:Person ; ex:name "Ann" .
//!     ex:bad rdf:type ex:Person .
//! "#).unwrap();
//!
//! let report = validate(&schema, &data);
//! assert!(!report.conforms());
//! assert_eq!(report.violations.len(), 1);
//! ```
#![forbid(unsafe_code)]

pub mod nnf;
pub mod node_test;
pub mod parser;
pub mod path;
pub mod regex;
pub mod rpq;
pub mod schema;
pub mod shape;
pub mod validator;
pub mod writer;

pub use nnf::Nnf;
pub use node_test::{NodeKind, NodeTest};
pub use parser::{SchemaSpans, ShaclParseError};
pub use path::PathExpr;
pub use rpq::{CompiledPath, Nfa, PathCache, Reach};
pub use schema::{Schema, SchemaError, ShapeDef};
pub use shape::{PathOrId, Shape};
pub use shapefrag_govern::{Budget, CancelToken, EngineError, ErrorCode, ExecCtx};
pub use validator::{
    schema_fingerprint, validate, validate_batch, validate_batch_containment_governed,
    validate_batch_governed, ConformanceMemo, ContainmentIndex, Context, ValidationReport,
    Violation,
};
pub use writer::{schema_to_shapes_graph, schema_to_shapes_graph_strict, schema_to_turtle};
