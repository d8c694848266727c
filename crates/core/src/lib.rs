//! # shapefrag-core
//!
//! Data provenance for SHACL (EDBT 2023): the paper's primary contribution.
//!
//! - [`neighborhood()`] — the φ-neighborhood `B(v, G, φ)` of a node (Table 2),
//!   the provenance of `v` conforming to φ, with the Sufficiency guarantee
//!   (Theorem 3.4).
//! - [`fragment()`] — shape fragments `Frag(G, S)` / `Frag(G, H)` (§4), a
//!   subgraph-retrieval mechanism with the Conformance guarantee
//!   (Theorem 4.1).
//! - [`instrumented`] — validation with simultaneous provenance extraction
//!   (§5.2, the pySHACL-fragments strategy). Its governed driver,
//!   [`validate_extract_fragment_governed`], is the one engine behind
//!   reports plus `Frag(G, H)`; reports alone come from
//!   [`shapefrag_shacl::validator::validate_batch_governed`].
//! - [`provenance`] — why / why-not explanations (Remark 3.7).
//! - [`to_sparql`] — translation of neighborhoods and fragments to SPARQL
//!   (§5.1: Lemma 5.1, Proposition 5.3, Corollary 5.5).
//!
//! ```
//! use shapefrag_core::{explain, fragment};
//! use shapefrag_rdf::{turtle, Term, Iri};
//! use shapefrag_shacl::{PathExpr, Schema, Shape};
//!
//! let data = turtle::parse(r#"
//!     @prefix ex: <http://example.org/> .
//!     ex:p1 ex:author ex:alice . ex:alice ex:type ex:Student .
//!     ex:p2 ex:author ex:bob .   ex:bob ex:type ex:Professor .
//! "#).unwrap();
//!
//! // "Has at least one student author" (the paper's WorkshopShape).
//! let shape = Shape::geq(
//!     1,
//!     PathExpr::prop(Iri::new("http://example.org/author")),
//!     Shape::geq(
//!         1,
//!         PathExpr::prop(Iri::new("http://example.org/type")),
//!         Shape::has_value(Term::iri("http://example.org/Student")),
//!     ),
//! );
//! let schema = Schema::empty();
//!
//! // Why does p1 conform? The two evidence triples.
//! let e = explain(&schema, &data, &Term::iri("http://example.org/p1"), &shape);
//! assert!(e.conforms());
//! assert_eq!(e.subgraph().len(), 2);
//!
//! // The shape fragment collects that evidence for every conforming node.
//! let frag = fragment(&schema, &data, std::slice::from_ref(&shape));
//! assert_eq!(frag, e.subgraph().clone());
//! ```
#![forbid(unsafe_code)]

pub mod fragment;
pub mod incremental;
pub mod instrumented;
pub mod neighborhood;
pub mod provenance;
pub mod to_sparql;

pub use fragment::{
    conforming_nodes, fragment, fragment_governed, fragment_ids, fragment_ids_governed,
    fragment_ids_per_node, schema_fragment,
};
pub use incremental::{EditOp, EditScript, IncrementalValidator};
pub use instrumented::{
    validate_extract_fragment, validate_extract_fragment_governed,
    validate_extract_fragment_per_node, validate_extract_fragment_simplified,
    validate_with_provenance, ProvenancedReport, SchemaFragment,
};
pub use neighborhood::{
    collect_neighborhood_many, conforms_and_collect, neighborhood, neighborhood_governed,
    neighborhood_term, IdTriples,
};
pub use provenance::{describe, explain, minimal_witness, Explanation};

/// The sticky fault of a context as a `Result`.
pub(crate) fn fault_of<G: shapefrag_rdf::GraphAccess>(
    ctx: &mut shapefrag_shacl::validator::Context<'_, G>,
) -> Result<(), shapefrag_govern::EngineError> {
    ctx.take_fault().map_or(Ok(()), Err)
}
