//! Agreement between the [`GraphAccess`] backends: the mutable [`Graph`]
//! builder (which reads through a lazily built CSR snapshot), the immutable
//! [`FrozenGraph`] CSR built by [`Graph::freeze`] or a frozen loader, and
//! the [`DeltaGraph`] overlay.
//!
//! These layers are exercised on random graphs:
//!
//! - **Scan reference** — every accessor of every backend equals a linear
//!   scan of that backend's sorted `iter_ids()` list, contents and order,
//!   so the CSR is checked against something other than itself.
//! - **Accessor agreement** — every trait accessor (`contains_ids`,
//!   `objects_ids`, `subjects_ids`, `out_edges_ids`, `in_edges_ids`,
//!   `edges_with_predicate_ids`, `predicates_out_ids`, `iter_ids`,
//!   `node_ids`, `term`, `id_of`) returns identical results, in the same
//!   order, for the same ids. Freezing is id-stable, so ids are comparable
//!   across backends directly.
//! - **Kernel agreement** — validation reports, path evaluation and
//!   tracing, fragment extraction, and SPARQL query results are identical
//!   whichever backend the generic kernels run over.
//! - **Constructor and writer agreement** — the frozen loaders, `freeze`
//!   and `DeltaGraph::compact` share one sort-based CSR constructor; a
//!   document loaded frozen equals `parse(text).freeze()` id for id, a
//!   compacted overlay equals a fresh freeze of the same edits (also when
//!   it is folded after every batch, as the incremental engine does), and
//!   the id-level N-Triples writer writes the bytes of the materialized
//!   graph.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use common::{graph_strategy, object_term, path_strategy, shape_strategy};
use shape_fragments::core::neighborhood::materialize;
use shape_fragments::core::to_sparql::fragment_query;
use shape_fragments::core::{schema_fragment, validate_extract_fragment};
use shape_fragments::rdf::{
    ntriples, turtle, DeltaGraph, Graph, GraphAccess, Term, TermId, Triple,
};
use shape_fragments::shacl::validator::{validate, validate_batch, Context};
use shape_fragments::shacl::{PathExpr, Schema, Shape, ShapeDef};
use shape_fragments::sparql::eval;

fn shape_name(i: usize) -> Term {
    Term::iri(format!("{}S{i}", common::NS))
}

/// Target shapes in the real-SHACL forms of §4 (plus ⊤ = "all nodes").
fn target_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (0u8..6).prop_map(|i| Shape::HasValue(common::node_term(i))),
        (0u8..3).prop_map(|p| Shape::geq(1, PathExpr::Prop(common::pred(p)), Shape::True)),
        Just(Shape::True),
    ]
}

/// Random nonrecursive schemas of 1–4 definitions with forward `hasShape`
/// references (the memo-sharing case).
fn schema_strategy() -> impl Strategy<Value = Schema> {
    (
        prop::collection::vec((shape_strategy(), target_strategy()), 1..5),
        prop::collection::vec(any::<bool>(), 8),
    )
        .prop_map(|(parts, links)| {
            let n = parts.len();
            let defs: Vec<ShapeDef> = parts
                .into_iter()
                .enumerate()
                .map(|(i, (mut shape, target))| {
                    if i + 1 < n && links[(2 * i) % links.len()] {
                        shape = shape.and(Shape::HasShape(shape_name(i + 1)));
                    }
                    ShapeDef::new(shape_name(i), shape, target)
                })
                .collect();
            Schema::new(defs).expect("forward references only — nonrecursive")
        })
}

/// All interned ids of a graph (nodes *and* predicates), so accessors are
/// also probed with ids in "wrong" positions (e.g. a predicate id as a
/// subject), where both backends must agree on emptiness.
fn all_ids(g: &Graph) -> Vec<TermId> {
    let mut ids: std::collections::BTreeSet<TermId> = g.node_ids();
    for (s, p, o) in g.iter_ids() {
        ids.extend([s, p, o]);
    }
    ids.into_iter().collect()
}

/// Every accessor of two backends agrees on every id of the id space:
/// same terms under the same ids, same triples, same runs in the same
/// order.
fn assert_same_view(a: &impl GraphAccess, b: &impl GraphAccess) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    prop_assert_eq!(a.term_count(), b.term_count());
    prop_assert_eq!(
        a.iter_ids().collect::<Vec<_>>(),
        b.iter_ids().collect::<Vec<_>>()
    );
    prop_assert_eq!(a.node_ids(), b.node_ids());
    let ids: Vec<TermId> = (0..a.term_count() as u32).map(TermId).collect();
    for &x in &ids {
        prop_assert_eq!(a.term(x), b.term(x));
        prop_assert_eq!(b.id_of(a.term(x)), Some(x));
        prop_assert_eq!(
            a.out_edges_ids(x).collect::<Vec<_>>(),
            b.out_edges_ids(x).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            a.in_edges_ids(x).collect::<Vec<_>>(),
            b.in_edges_ids(x).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            a.edges_with_predicate_ids(x).collect::<Vec<_>>(),
            b.edges_with_predicate_ids(x).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            a.predicates_out_ids(x).collect::<Vec<_>>(),
            b.predicates_out_ids(x).collect::<Vec<_>>()
        );
        for &y in &ids {
            prop_assert_eq!(
                a.objects_ids(x, y).collect::<Vec<_>>(),
                b.objects_ids(x, y).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                a.subjects_ids(x, y).collect::<Vec<_>>(),
                b.subjects_ids(x, y).collect::<Vec<_>>()
            );
        }
    }
    Ok(())
}

/// Every accessor of `b` equals a linear scan of its `iter_ids()` list,
/// which must hold exactly `expected`, strictly ascending by id.
fn assert_matches_scan(
    b: &impl GraphAccess,
    expected: &BTreeSet<Triple>,
) -> Result<(), TestCaseError> {
    let all: Vec<(TermId, TermId, TermId)> = b.iter_ids().collect();
    prop_assert!(
        all.windows(2).all(|w| w[0] < w[1]),
        "iter_ids not strictly ascending"
    );
    let triples: BTreeSet<Triple> = all.iter().map(|&(s, p, o)| b.triple_of(s, p, o)).collect();
    prop_assert_eq!(&triples, expected);
    prop_assert_eq!(b.len(), all.len());
    let nodes: BTreeSet<TermId> = all.iter().flat_map(|&(s, _, o)| [s, o]).collect();
    prop_assert_eq!(b.node_ids(), nodes);
    let ids: Vec<TermId> = (0..b.term_count() as u32).map(TermId).collect();
    for &x in &ids {
        prop_assert_eq!(b.id_of(b.term(x)), Some(x));
        let out: Vec<_> = all
            .iter()
            .filter(|t| t.0 == x)
            .map(|&(_, p, o)| (p, o))
            .collect();
        prop_assert_eq!(b.out_edges_ids(x).collect::<Vec<_>>(), out.clone());
        let mut preds: Vec<_> = out.iter().map(|&(p, _)| p).collect();
        preds.dedup();
        prop_assert_eq!(b.predicates_out_ids(x).collect::<Vec<_>>(), preds);
        let mut inc: Vec<_> = all
            .iter()
            .filter(|t| t.2 == x)
            .map(|&(s, p, _)| (p, s))
            .collect();
        inc.sort_unstable();
        prop_assert_eq!(b.in_edges_ids(x).collect::<Vec<_>>(), inc);
        let by_pred: Vec<_> = all
            .iter()
            .filter(|t| t.1 == x)
            .map(|&(s, _, o)| (s, o))
            .collect();
        prop_assert_eq!(b.edges_with_predicate_ids(x).collect::<Vec<_>>(), by_pred);
        for &y in &ids {
            let objects: Vec<_> = all
                .iter()
                .filter(|t| (t.0, t.1) == (x, y))
                .map(|t| t.2)
                .collect();
            prop_assert_eq!(b.objects_ids(x, y).collect::<Vec<_>>(), objects);
            let subjects: Vec<_> = all
                .iter()
                .filter(|t| (t.2, t.1) == (x, y))
                .map(|t| t.0)
                .collect();
            prop_assert_eq!(b.subjects_ids(x, y).collect::<Vec<_>>(), subjects);
            for &z in &ids {
                prop_assert_eq!(
                    b.contains_ids(x, y, z),
                    all.binary_search(&(x, y, z)).is_ok()
                );
            }
        }
    }
    Ok(())
}

/// `text`'s statement lines with every `k`-th one (from `shift`) written
/// a second time right after itself, so the document repeats statements.
fn with_repeats(text: &str, k: usize, shift: usize) -> String {
    let mut out = String::new();
    for (i, line) in text.lines().enumerate() {
        out.push_str(line);
        out.push('\n');
        if (i + shift).is_multiple_of(k) {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// A Turtle tail exercising blank-node property lists and collections
/// (whose synthesized cells intern after the serialized triples), stated
/// twice.
fn turtle_tail() -> String {
    let ns = common::NS;
    let stmt =
        format!("<{ns}n0> <{ns}p0> ( <{ns}n1> \"w0\"@en 3 ) ; <{ns}p1> [ <{ns}p2> <{ns}n2> ] .\n");
    format!("{stmt}{stmt}")
}

/// One random edit: add or remove a triple over the strategy's universe.
fn edit_strategy() -> impl Strategy<Value = (bool, Triple)> {
    (
        any::<bool>(),
        prop_oneof![4 => (0u8..6).prop_map(common::node_term), 1 => Just(Term::blank("b0"))],
        0u8..4,
        object_term(),
    )
        .prop_map(|(add, s, p, o)| (add, Triple::new(s, common::pred(p), o)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The frozen loaders equal parse-then-freeze on N-Triples and Turtle
    /// documents that repeat statements: same ids, same triples, same
    /// runs.
    #[test]
    fn frozen_loaders_agree_with_parse_then_freeze(
        g in graph_strategy(16),
        k in 1usize..4,
        shift in 0usize..4,
    ) {
        let nt = with_repeats(&ntriples::serialize(&g), k, shift);
        let loaded = ntriples::parse_frozen(&nt)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{nt}")))?;
        assert_same_view(&loaded, &ntriples::parse(&nt).unwrap().freeze())?;
        prop_assert_eq!(loaded.len(), g.len());

        let ttl = with_repeats(&turtle::serialize(&g, &[]), k, shift) + &turtle_tail();
        let loaded = turtle::parse_frozen(&ttl)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{ttl}")))?;
        assert_same_view(&loaded, &turtle::parse(&ttl).unwrap().freeze())?;
    }

    /// The id-level writer writes the bytes of the materialized subset,
    /// whatever mix of IRIs, blank nodes and lang / typed literals the
    /// subset holds, and writes repeated ids once.
    #[test]
    fn id_writer_matches_materialized_serialization(
        g in graph_strategy(20),
        keep in prop::collection::vec(0u8..3, 20),
    ) {
        let f = g.freeze();
        let mut picked = Vec::new();
        for (i, t) in f.iter_ids().enumerate() {
            match keep[i % keep.len()] {
                0 => {}
                1 => picked.push(t),
                _ => picked.extend([t, t]),
            }
        }
        let set = picked.iter().copied().collect();
        prop_assert_eq!(
            ntriples::serialize_ids(&f, picked),
            ntriples::serialize(&materialize(&f, &set))
        );
    }

    /// Compacting an overlay after random edits equals freezing a graph
    /// that received the same edits: same ids, same triples, same runs.
    #[test]
    fn compact_agrees_with_fresh_freeze(
        g in graph_strategy(14),
        edits in prop::collection::vec(edit_strategy(), 0..12),
    ) {
        let mut d = DeltaGraph::new(Arc::new(g.freeze()));
        let mut replayed = g;
        for (add, t) in edits {
            if add {
                prop_assert_eq!(d.insert(&t).is_some(), replayed.insert(t));
            } else {
                prop_assert_eq!(d.remove(&t).is_some(), replayed.remove(&t));
            }
        }
        assert_same_view(&d.compact(), &replayed.freeze())?;
    }

    /// Folding the overlay after every batch, as the incremental engine
    /// does, keeps the frozen graph equal to a linear scan of the replayed
    /// triples and to a fresh freeze of them. Every case runs batches that
    /// intern new terms, orphan a node, and remove every edge of a
    /// predicate, each after that batch's random edits.
    #[test]
    fn per_batch_compaction_agrees_with_scan_and_fresh_freeze(
        g in graph_strategy(14),
        batches in prop::collection::vec(
            (prop::collection::vec(edit_strategy(), 0..6), 0u8..24),
            3..6,
        ),
        shift in 0usize..3,
    ) {
        let mut d = DeltaGraph::new(Arc::new(g.freeze()));
        let mut replayed = g;
        for (i, (edits, pick)) in batches.into_iter().enumerate() {
            let mut ops = edits;
            // The graph as of the batch's random edits.
            let mut now = replayed.clone();
            for (add, t) in &ops {
                if *add {
                    now.insert(t.clone());
                } else {
                    now.remove(t);
                }
            }
            let orphan = common::node_term(pick % 6);
            match (i + shift) % 3 {
                // Fresh subject, predicate and object terms.
                0 => ops.push((
                    true,
                    Triple::new(
                        Term::iri(format!("{}fresh{i}", common::NS)),
                        common::iri(&format!("q{i}")),
                        Term::iri(format!("{}fresh{i}o", common::NS)),
                    ),
                )),
                // Orphan a node: retract every triple it is an endpoint of.
                1 => ops.extend(
                    now.iter()
                        .filter(|t| t.subject == orphan || t.object == orphan)
                        .map(|t| (false, t)),
                ),
                // Retract every edge of a predicate.
                _ => {
                    let p = common::pred(pick % 4);
                    ops.extend(now.iter().filter(|t| t.predicate == p).map(|t| (false, t)));
                }
            }
            for (add, t) in ops {
                if add {
                    prop_assert_eq!(d.insert(&t).is_some(), replayed.insert(t));
                } else {
                    prop_assert_eq!(d.remove(&t).is_some(), replayed.remove(&t));
                }
            }
            let frozen = d.fold();
            prop_assert_eq!(d.delta_len(), 0);
            if (i + shift) % 3 == 1 {
                if let Some(id) = frozen.id_of(&orphan) {
                    prop_assert!(!frozen.node_ids_slice().contains(&id));
                }
            }
            let expected: BTreeSet<Triple> = replayed.iter().collect();
            assert_matches_scan(frozen.as_ref(), &expected)?;
            assert_same_view(frozen.as_ref(), &replayed.freeze())?;
        }
    }

    /// Each backend answers every accessor as a scan of its sorted triple
    /// list does: the builder, its freeze, the frozen N-Triples loader, and
    /// an overlay after random edits next to the builder replaying them.
    #[test]
    fn accessors_match_a_linear_scan(
        g in graph_strategy(20),
        edits in prop::collection::vec(edit_strategy(), 0..12),
    ) {
        let expected: BTreeSet<Triple> = g.iter().collect();
        assert_matches_scan(&g, &expected)?;
        assert_matches_scan(&g.freeze(), &expected)?;
        assert_matches_scan(&ntriples::parse_frozen(&ntriples::serialize(&g)).unwrap(), &expected)?;
        let mut d = DeltaGraph::new(Arc::new(g.freeze()));
        let mut replayed = g;
        for (add, t) in edits {
            if add {
                d.insert(&t);
                replayed.insert(t);
            } else {
                d.remove(&t);
                replayed.remove(&t);
            }
        }
        let expected: BTreeSet<Triple> = replayed.iter().collect();
        assert_matches_scan(&d, &expected)?;
        assert_matches_scan(&replayed, &expected)?;
    }

    /// Every per-id accessor agrees, element for element, in order.
    #[test]
    fn accessors_agree(g in graph_strategy(20)) {
        let f = g.freeze();
        prop_assert_eq!(g.len(), f.len());
        prop_assert_eq!(g.is_empty(), f.is_empty());
        prop_assert_eq!(
            g.iter_ids().collect::<Vec<_>>(),
            f.iter_ids().collect::<Vec<_>>()
        );
        prop_assert_eq!(GraphAccess::node_ids(&g), f.node_ids());
        let ids = all_ids(&g);
        for &a in &ids {
            prop_assert_eq!(g.term(a), f.term(a));
            prop_assert_eq!(f.id_of(g.term(a)), Some(a));
            prop_assert_eq!(
                g.out_edges_ids(a).collect::<Vec<_>>(),
                f.out_edges_ids(a).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                g.in_edges_ids(a).collect::<Vec<_>>(),
                f.in_edges_ids(a).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                g.edges_with_predicate_ids(a).collect::<Vec<_>>(),
                f.edges_with_predicate_ids(a).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                g.predicates_out_ids(a).collect::<Vec<_>>(),
                f.predicates_out_ids(a).collect::<Vec<_>>()
            );
            for &b in &ids {
                prop_assert_eq!(
                    g.objects_ids(a, b).collect::<Vec<_>>(),
                    f.objects_ids(a, b).collect::<Vec<_>>()
                );
                prop_assert_eq!(
                    g.subjects_ids(a, b).collect::<Vec<_>>(),
                    f.subjects_ids(a, b).collect::<Vec<_>>()
                );
                for &c in &ids {
                    prop_assert_eq!(g.contains_ids(a, b, c), f.contains_ids(a, b, c));
                }
            }
        }
    }

    /// Path evaluation and tracing are backend-independent.
    #[test]
    fn eval_and_trace_agree(g in graph_strategy(16), path in path_strategy()) {
        let f = g.freeze();
        let schema = Schema::empty();
        let mut ctx_g = Context::new(&schema, &g);
        let mut ctx_f = Context::new(&schema, &f);
        for v in g.node_ids() {
            let endpoints = ctx_g.eval_path(&path, v);
            prop_assert_eq!(&endpoints, &ctx_f.eval_path(&path, v));
            prop_assert_eq!(
                ctx_g.trace_path(&path, &[v], Some(&endpoints)),
                ctx_f.trace_path(&path, &[v], Some(&endpoints))
            );
        }
    }

    /// `validate` and `validate_batch` produce identical reports over
    /// either backend.
    #[test]
    fn validation_agrees(g in graph_strategy(14), schema in schema_strategy()) {
        let f = g.freeze();
        prop_assert_eq!(validate(&schema, &g), validate(&schema, &f));
        prop_assert_eq!(validate_batch(&schema, &g), validate_batch(&schema, &f));
    }

    /// Fragment extraction (both the plain union and the instrumented
    /// validate-and-extract driver) is backend-independent.
    #[test]
    fn fragments_agree(g in graph_strategy(14), schema in schema_strategy()) {
        let f = g.freeze();
        prop_assert_eq!(schema_fragment(&schema, &g), schema_fragment(&schema, &f));
        let (report_g, frag_g) = validate_extract_fragment(&schema, &g);
        let (report_f, frag_f) = validate_extract_fragment(&schema, &f);
        prop_assert_eq!(report_g, report_f);
        prop_assert_eq!(frag_g.to_graph(&g), frag_f.to_graph(&f));
    }

    /// The generated SPARQL fragment query returns the same bindings over
    /// either backend.
    #[test]
    fn sparql_agrees(g in graph_strategy(12), schema in schema_strategy()) {
        let f = g.freeze();
        let shapes = schema.request_shapes();
        let query = fragment_query(&schema, &shapes);
        prop_assert_eq!(eval(&g, &query), eval(&f, &query));
    }
}
