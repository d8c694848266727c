//! # shapefrag-rdf
//!
//! RDF substrate for the shape-fragments workspace: terms, typed literal
//! values with the paper's `<` partial order and `~` language-tag relation,
//! the mutable [`Graph`] builder, the [`FrozenGraph`] CSR that serves every
//! adjacency read (a `Graph` reads through a lazily built snapshot), the
//! [`DeltaGraph`] edit buffer that folds edit batches into a new
//! `FrozenGraph`, the [`GraphAccess`] read trait over all three, and
//! N-Triples / Turtle I/O.
//!
//! This crate is self-contained (no external RDF dependencies) and provides
//! the data model assumed by the paper's preliminaries (§2): nodes
//! `N = I ∪ B ∪ L` and RDF triples `(I ∪ B) × I × N`.
//!
//! ```
//! use shapefrag_rdf::{turtle, ntriples, GraphAccess, Iri, Term};
//!
//! let graph = turtle::parse(r#"
//!     @prefix ex: <http://example.org/> .
//!     ex:alice a ex:Person ; ex:age 30 ; ex:name "Alice"@en .
//! "#).unwrap();
//! assert_eq!(graph.len(), 3);
//!
//! let ages = graph.objects_for(
//!     &Term::iri("http://example.org/alice"),
//!     &Iri::new("http://example.org/age"),
//! );
//! assert_eq!(ages[0].as_literal().unwrap().lexical(), "30");
//!
//! // Round-trip through N-Triples.
//! let reloaded = ntriples::parse(&ntriples::serialize(&graph)).unwrap();
//! assert_eq!(reloaded, graph);
//! ```
#![forbid(unsafe_code)]

pub mod access;
pub mod delta;
pub mod error;
pub mod frozen;
pub mod graph;
mod lex;
pub mod ntriples;
pub mod span;
pub mod term;
pub mod turtle;
pub mod value;
pub mod vocab;

pub use access::GraphAccess;
pub use delta::DeltaGraph;
pub use error::{LossyLoad, ParseError};
pub use frozen::FrozenGraph;
pub use graph::{Graph, TermId};
pub use shapefrag_govern::{EngineError, ErrorCode};
pub use span::{Span, TripleSpans};
pub use term::{BlankNode, Iri, Literal, Term, Triple};
pub use value::{DateTimeValue, LiteralValue};
