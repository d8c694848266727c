//! Agreement between the cost-routed work-stealing engines (DESIGN.md
//! §12) and the sequential drivers over the frozen backend.
//!
//! On random graphs and random nonrecursive schemas, the engines at 1, 2,
//! 4 and 8 worker threads must agree **exactly** with the sequential
//! drivers:
//!
//! - `validate_batch_par` reproduces `validate_batch`'s report bit for
//!   bit — same `checked` count and the same violations in the same
//!   (definition-major, target-minor) order;
//! - `validate_extract_fragment_par` reproduces both the report and the
//!   extracted fragment of `validate_extract_fragment`;
//! - its fragment is the request-shape fragment `fragment_ids` computes
//!   over `{ φ ∧ τ }`, and it answers the generated SPARQL fragment query
//!   with the same bindings as the sequential one.

mod common;

use proptest::prelude::*;

use common::{graph_strategy, shape_strategy};
use shape_fragments::core::to_sparql::fragment_query;
use shape_fragments::core::{
    fragment, validate_batch_par, validate_extract_fragment, validate_extract_fragment_par,
    SchemaFragment,
};
use shape_fragments::govern::Budget;
use shape_fragments::rdf::{FrozenGraph, Term};
use shape_fragments::shacl::validator::{validate_batch, ValidationReport};
use shape_fragments::shacl::{PathExpr, Schema, Shape, ShapeDef};
use shape_fragments::sparql::eval;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn extract_par(
    schema: &Schema,
    f: &FrozenGraph,
    threads: usize,
) -> (ValidationReport, SchemaFragment) {
    let (report, fragment, _) =
        validate_extract_fragment_par(schema, f, threads, Budget::unlimited(), None)
            .expect("an unlimited budget cannot fault");
    (report, fragment)
}

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
/// references (the memo-sharing case the shared memo must get right
/// across workers).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parallel validation reproduces the sequential batch report bit for
    /// bit at every thread count.
    #[test]
    fn parallel_validation_agrees(g in graph_strategy(14), schema in schema_strategy()) {
        let f = g.freeze();
        let sequential = validate_batch(&schema, &f);
        for threads in THREADS {
            let (parallel, _) = validate_batch_par(&schema, &f, threads, Budget::unlimited(), None)
                .expect("an unlimited budget cannot fault");
            prop_assert_eq!(&sequential, &parallel, "threads = {}", threads);
        }
    }

    /// Parallel instrumented extraction reproduces both the report and
    /// the fragment of the sequential driver.
    #[test]
    fn parallel_extraction_agrees(g in graph_strategy(14), schema in schema_strategy()) {
        let f = g.freeze();
        let (seq_report, seq_frag) = validate_extract_fragment(&schema, &f);
        let seq_frag = seq_frag.to_graph(&f);
        for threads in THREADS {
            let (report, frag) = extract_par(&schema, &f, threads);
            prop_assert_eq!(&seq_report, &report, "threads = {}", threads);
            prop_assert_eq!(&seq_frag, &frag.to_graph(&f), "threads = {}", threads);
        }
    }

    /// The parallel extraction's fragment is exactly the sequential
    /// request-shape fragment `Frag(G, { φ ∧ τ })`, on every graph.
    #[test]
    fn parallel_fragment_ids_agree(g in graph_strategy(14), schema in schema_strategy()) {
        let f = g.freeze();
        let sequential = fragment(&schema, &f, &schema.request_shapes());
        for threads in THREADS {
            let (_, parallel) = extract_par(&schema, &f, threads);
            prop_assert_eq!(&sequential, &parallel.to_graph(&f), "threads = {}", threads);
        }
    }

    /// The materialized parallel fragment is SPARQL-indistinguishable from
    /// the sequential one: the generated fragment query returns the same
    /// bindings over both.
    #[test]
    fn parallel_fragment_sparql_agrees(g in graph_strategy(12), schema in schema_strategy()) {
        let f = g.freeze();
        let shapes = schema.request_shapes();
        let query = fragment_query(&schema, &shapes);
        let seq_frag = fragment(&schema, &f, &shapes);
        for threads in [2, 8] {
            let par_frag = extract_par(&schema, &f, threads).1.to_graph(&f);
            prop_assert_eq!(&seq_frag, &par_frag, "threads = {}", threads);
            prop_assert_eq!(
                eval(&seq_frag, &query),
                eval(&par_frag, &query),
                "threads = {}", threads
            );
        }
    }
}
