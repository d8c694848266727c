//! Shape fragments (§4): subgraph retrieval via shapes.
//!
//! `Frag(G, S) = ⋃ { B(v, G, φ) | v ∈ N, φ ∈ S }` — the union of the
//! neighborhoods of all nodes for a set of *request shapes*. Since
//! neighborhoods are subgraphs of `G`, it suffices to range over `N(G)`.
//!
//! For a schema `H`, `Frag(G, H) = Frag(G, { φ ∧ τ | (s, φ, τ) ∈ H })`
//! (each shape conjoined with its target). The Conformance theorem
//! (Theorem 4.1) guarantees that `Frag(G, H)` still conforms to `H` when
//! `G` does and all targets are monotone.

use std::collections::BTreeSet;
use std::sync::Arc;

use shapefrag_govern::{EngineError, ExecCtx};
use shapefrag_rdf::{Graph, GraphAccess, TermId};
use shapefrag_shacl::validator::{ConformanceMemo, Context};
use shapefrag_shacl::{Nnf, Schema, Shape};

use crate::fault_of;
use crate::neighborhood::{
    collect_neighborhood_many, materialize, neighborhood_nnf_ids, IdTriples,
};

/// Computes the shape fragment `Frag(G, S)` for request shapes `S`.
pub fn fragment<G: GraphAccess>(schema: &Schema, graph: &G, shapes: &[Shape]) -> Graph {
    materialize(graph, &fragment_ids(schema, graph, shapes))
}

/// Computes `Frag(G, H)`: the fragment for a schema's request shapes
/// `{ φ ∧ τ | (s, φ, τ) ∈ H }`.
pub fn schema_fragment<G: GraphAccess>(schema: &Schema, graph: &G) -> Graph {
    fragment(schema, graph, &schema.request_shapes())
}

/// Id-triple form of [`fragment`]. Runs set-at-a-time: per request shape,
/// all graph nodes are decided in one batch (with a shared memo for
/// `hasShape` sub-shapes) and the conforming nodes' neighborhoods are
/// collected by the batched Table 2 collector.
pub fn fragment_ids<G: GraphAccess>(schema: &Schema, graph: &G, shapes: &[Shape]) -> IdTriples {
    fragment_ids_governed(schema, graph, shapes, ExecCtx::unbounded())
        .expect("an unbounded context cannot fault")
}

/// Resource-governed [`fragment`]: computes `Frag(G, S)` under a deadline /
/// step / memory / depth / cancellation governor, surfacing the first trip
/// as an [`EngineError`] instead of a silently incomplete fragment.
pub fn fragment_governed<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    shapes: &[Shape],
    exec: ExecCtx,
) -> Result<Graph, EngineError> {
    fragment_ids_governed(schema, graph, shapes, exec).map(|ids| materialize(graph, &ids))
}

/// Id-triple form of [`fragment_governed`], the loop behind it and
/// [`fragment_ids`]; write the result with `ntriples::serialize_ids`.
pub fn fragment_ids_governed<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    shapes: &[Shape],
    exec: ExecCtx,
) -> Result<IdTriples, EngineError> {
    let memo = Arc::new(ConformanceMemo::new());
    let mut ctx = Context::with_memo(schema, graph, memo).with_exec(exec);
    let nodes: Vec<TermId> = graph.node_ids().into_iter().collect();
    let mut out = IdTriples::default();
    for shape in shapes {
        let nnf = Nnf::from_shape(shape);
        let decisions = ctx.conforms_all_nnf(&nodes, &nnf);
        fault_of(&mut ctx)?;
        let conforming: Vec<TermId> = nodes
            .iter()
            .zip(decisions)
            .filter(|(_, ok)| *ok)
            .map(|(&v, _)| v)
            .collect();
        collect_neighborhood_many(&mut ctx, &conforming, &nnf, &mut out);
        fault_of(&mut ctx)?;
    }
    Ok(out)
}

/// Per-node reference implementation of [`fragment_ids`] (one neighborhood
/// computation per (node, shape) pair); baseline for benchmarks and
/// agreement tests.
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

/// The set of nodes conforming to a shape — a shape viewed as a unary query
/// (used when comparing with SPARQL and TPF).
pub fn conforming_nodes<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    shape: &Shape,
) -> BTreeSet<TermId> {
    let mut ctx = Context::new(schema, graph);
    let shape = Nnf::from_shape(shape);
    graph
        .node_ids()
        .into_iter()
        .filter(|&v| ctx.conforms_nnf(v, &shape))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapefrag_rdf::{Iri, Term, Triple};
    use shapefrag_shacl::path::PathExpr;
    use shapefrag_shacl::validator::validate;
    use shapefrag_shacl::ShapeDef;

    fn iri(n: &str) -> Iri {
        Iri::new(format!("http://e/{n}"))
    }

    fn term(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(term(s), iri(p), term(o))
    }

    fn p(n: &str) -> PathExpr {
        PathExpr::Prop(iri(n))
    }

    #[test]
    fn fragment_unions_neighborhoods_over_all_nodes() {
        let g = Graph::from_triples([
            t("p1", "author", "alice"),
            t("alice", "type", "Student"),
            t("p2", "author", "bob"),
            t("bob", "type", "Professor"),
            t("x", "unrelated", "y"),
        ]);
        let shape = Shape::geq(
            1,
            p("author"),
            Shape::geq(1, p("type"), Shape::has_value(term("Student"))),
        );
        let frag = fragment(&Schema::empty(), &g, &[shape]);
        let expected =
            Graph::from_triples([t("p1", "author", "alice"), t("alice", "type", "Student")]);
        assert_eq!(frag, expected);
    }

    #[test]
    fn example_1_3_schema_fragment_conforms() {
        let schema = Schema::new([ShapeDef::new(
            term("WorkshopShape"),
            Shape::geq(
                1,
                p("author"),
                Shape::geq(1, p("type"), Shape::has_value(term("Student"))),
            ),
            Shape::geq(1, p("type"), Shape::has_value(term("Paper"))),
        )])
        .unwrap();
        let g = Graph::from_triples([
            t("p1", "type", "Paper"),
            t("p1", "author", "alice"),
            t("alice", "type", "Student"),
            t("noise", "type", "Venue"),
        ]);
        assert!(validate(&schema, &g).conforms());
        let frag = schema_fragment(&schema, &g);
        // Conformance theorem: the fragment conforms too.
        assert!(validate(&schema, &frag).conforms());
        // And it contains the target triple plus the neighborhood.
        assert!(frag.contains(&t("p1", "type", "Paper")));
        assert!(frag.contains(&t("p1", "author", "alice")));
        assert!(frag.contains(&t("alice", "type", "Student")));
        assert!(!frag.contains(&t("noise", "type", "Venue")));
    }

    #[test]
    fn example_4_3_non_monotone_converse_fails() {
        // φ = ≤0 p.⊤ on G = {(a,p,b)}: fragment is empty, a conforms in
        // the fragment but not in G.
        let g = Graph::from_triples([t("a", "p", "b")]);
        let shape = Shape::leq(0, p("p"), Shape::True);
        let frag = fragment(&Schema::empty(), &g, std::slice::from_ref(&shape));
        assert!(frag.is_empty());
        let schema = Schema::empty();
        let mut ctx_g = Context::new(&schema, &g);
        let a = g.id_of(&term("a")).unwrap();
        assert!(!ctx_g.conforms(a, &shape));
        // In the (empty) fragment, a trivially conforms.
        let mut f2 = frag.clone();
        let a_f = f2.intern(&term("a"));
        let mut ctx_f = Context::new(&schema, &f2);
        assert!(ctx_f.conforms(a_f, &shape));
    }

    #[test]
    fn corollary_4_2_sufficiency_for_fragments() {
        // Every conforming node still conforms in the fragment.
        let g = Graph::from_triples([
            t("a", "p", "b"),
            t("b", "p", "c"),
            t("c", "q", "d"),
            t("e", "p", "a"),
        ]);
        let shapes = vec![
            Shape::geq(1, p("p").then(p("p")), Shape::True),
            Shape::for_all(p("q"), Shape::True),
        ];
        let schema = Schema::empty();
        let frag = fragment(&schema, &g, &shapes);
        let mut ctx_g = Context::new(&schema, &g);
        for shape in &shapes {
            let conforming: Vec<TermId> = g
                .node_ids()
                .into_iter()
                .filter(|&v| ctx_g.conforms(v, shape))
                .collect();
            for v in conforming {
                let vt = g.term(v).clone();
                let mut frag2 = frag.clone();
                let vf = frag2.intern(&vt);
                let mut ctx_f = Context::new(&schema, &frag2);
                assert!(
                    ctx_f.conforms(vf, shape),
                    "{vt} lost conformance to {shape}"
                );
            }
        }
    }

    #[test]
    fn all_node_target_extraction_equals_request_fragment() {
        // Frag(G, {φ ∧ ⊤}) = Frag(G, {φ}): the extraction engine over a
        // ⊤-targeted schema reproduces `fragment`.
        let mut triples = Vec::new();
        for i in 0..40 {
            triples.push(t(&format!("n{i}"), "p", &format!("n{}", (i + 1) % 40)));
            if i % 3 == 0 {
                triples.push(t(&format!("n{i}"), "type", "C"));
            }
        }
        let g = Graph::from_triples(triples).freeze();
        let shape = Shape::geq(
            1,
            p("p"),
            Shape::geq(1, p("type"), Shape::has_value(term("C"))),
        );
        let expected = fragment(&Schema::empty(), &g, std::slice::from_ref(&shape));
        let schema = Schema::new([ShapeDef::new(term("S"), shape, Shape::True)]).unwrap();
        let (_, frag) = crate::validate_extract_fragment(&schema, &g);
        assert_eq!(frag.to_graph(&g), expected);
    }

    #[test]
    fn conforming_nodes_as_query() {
        let g = Graph::from_triples([t("a", "p", "x"), t("b", "q", "x")]);
        let nodes = conforming_nodes(&Schema::empty(), &g, &Shape::geq(1, p("p"), Shape::True));
        assert_eq!(nodes.len(), 1);
        assert_eq!(g.term(*nodes.iter().next().unwrap()), &term("a"));
    }
}
