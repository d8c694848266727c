//! The per-node reading of Table 2 (neighborhoods `B(v, G, φ)`) that the
//! batch extraction drivers are checked against: one neighborhood
//! computation per (shape, node) pair, with no batching, no shared memo
//! and no target-evidence shortcuts. Built on the public API only.

use shape_fragments::core::neighborhood::{materialize, neighborhood_nnf_ids};
use shape_fragments::core::{conforms_and_collect, IdTriples};
use shape_fragments::rdf::{Graph, GraphAccess, TermId};
use shape_fragments::shacl::validator::{Context, ValidationReport, Violation};
use shape_fragments::shacl::{Nnf, Schema, Shape};

/// The fragment collected by [`validate_extract_fragment_per_node`], as id
/// triples of the graph it was extracted from.
pub struct PerNodeFragment {
    triples: IdTriples,
}

impl PerNodeFragment {
    /// Materializes the fragment (`graph` must be the source graph).
    pub fn to_graph<G: GraphAccess>(&self, graph: &G) -> Graph {
        materialize(graph, &self.triples)
    }
}

/// `Frag(G, H)` with its report, node by node: for every definition
/// `(s, φ, τ)` and every target `v`, one instrumented
/// [`conforms_and_collect`] traversal decides `v ⊨ φ` and collects
/// `B(v, φ)`; a conforming target adds `B(v, τ)` too.
pub fn validate_extract_fragment_per_node<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
) -> (ValidationReport, PerNodeFragment) {
    let mut ctx = Context::new(schema, graph);
    let mut report = ValidationReport::default();
    let mut triples = IdTriples::default();
    let mut journal: Vec<(TermId, TermId, TermId)> = Vec::new();
    for def in schema.iter() {
        let shape = schema.def_nnf(&def.name, false);
        let target = Nnf::from_shape(&def.target);
        for node in ctx.target_nodes(&def.target) {
            report.checked += 1;
            journal.clear();
            if conforms_and_collect(&mut ctx, node, shape, &mut journal) {
                triples.extend(journal.iter().copied());
                triples.extend(neighborhood_nnf_ids(&mut ctx, node, &target));
            } else {
                report.violations.push(Violation {
                    shape: def.name.clone(),
                    focus: graph.term(node).clone(),
                });
            }
        }
    }
    (report, PerNodeFragment { triples })
}

/// `Frag(G, S)` for request shapes `S`, node by node: the union of
/// `B(v, G, φ)` over every graph node `v` and every `φ ∈ S`.
pub fn fragment_ids_per_node<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    shapes: &[Shape],
) -> IdTriples {
    let mut ctx = Context::new(schema, graph);
    let nodes = graph.node_ids();
    let mut out = IdTriples::default();
    for shape in shapes {
        let nnf = Nnf::from_shape(shape);
        for &v in &nodes {
            out.extend(neighborhood_nnf_ids(&mut ctx, v, &nnf));
        }
    }
    out
}
