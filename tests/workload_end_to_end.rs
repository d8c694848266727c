//! End-to-end integration over the benchmark workloads: the 57-shape suite
//! against a sampled tourism graph, exercised through every major pipeline
//! at once — validation, instrumented extraction, native fragments, and
//! the SHACL write→parse round trip — and the Vardi shapes on a DBLP slice
//! against the paper's oracles.

mod common;

use common::table2::{fragment_ids_per_node, validate_extract_fragment_per_node};
use shape_fragments::core::neighborhood::materialize;
use shape_fragments::core::to_sparql::fragment_via_sparql;
use shape_fragments::core::{
    schema_fragment, validate_extract_fragment, validate_extract_fragment_governed,
};
use shape_fragments::govern::ExecCtx;
use shape_fragments::rdf::Term;
use shape_fragments::shacl::validator::{validate, validate_batch};
use shape_fragments::shacl::{schema_to_turtle, PathExpr, Schema, Shape, ShapeDef};
use shape_fragments::sparql::eval::EvalConfig;
use shape_fragments::workloads::dblp::{authored_by, vardi_shape, Bibliography, DblpConfig};
use shape_fragments::workloads::shapes57::{benchmark_schema, benchmark_shapes};
use shape_fragments::workloads::tyrolean::{generate, sample_induced, TyroleanConfig};

fn sample() -> shape_fragments::rdf::Graph {
    let full = generate(&TyroleanConfig::new(600, 0xE2E));
    sample_induced(&full, 200, 1)
}

/// The report drivers and the extraction driver agree with their per-node
/// references on a Tyrolean sample of about 19k triples (close to the
/// benchmark's cli-tyrolean graph) with the full 57-shape suite: per-node
/// `validate`, `validate_batch` over the mutable graph and `validate_batch`
/// over its frozen snapshot give one report, and
/// `validate_extract_fragment` gives the per-node Table 2 oracle's report
/// and fragment.
#[test]
fn batch_frozen_and_per_node_drivers_agree_at_workload_scale() {
    let full = generate(&TyroleanConfig::new(6_000, 0xBA7C));
    let graph = sample_induced(&full, 3_000, 300);
    let frozen = graph.freeze();
    let schema = Schema::new(benchmark_shapes()).expect("57-shape suite is nonrecursive");

    let reference = validate(&schema, &graph);
    assert!(graph.len() > 15_000, "workload-scale sample");
    assert!(reference.checked > 500, "targets were selected");
    assert_eq!(
        reference,
        validate_batch(&schema, &graph),
        "batch vs per-node"
    );
    assert_eq!(
        reference,
        validate_batch(&schema, &frozen),
        "frozen vs mutable"
    );

    let (node_report, node_frag) = validate_extract_fragment_per_node(&schema, &frozen);
    let (report, frag) = validate_extract_fragment(&schema, &frozen);
    assert_eq!(node_report, report, "extraction report vs per-node");
    assert_eq!(reference, report, "extraction report vs validation");
    assert_eq!(
        node_frag.to_graph(&frozen),
        frag.to_graph(&frozen),
        "extraction fragment vs per-node"
    );
}

#[test]
fn instrumented_fragment_matches_definitional_fragment() {
    let graph = sample();
    let schema = benchmark_schema();
    let (report, fragment) = validate_extract_fragment(&schema, &graph);
    let fragment = fragment.to_graph(&graph);
    assert!(report.checked > 100, "targets were selected");
    assert!(fragment.is_subgraph_of(&graph));

    // The definitional Frag(G, H) ranges over all nodes with φ∧τ request
    // shapes; the instrumented pass must agree on conforming targets. On a
    // graph with violations the two coincide because non-conforming nodes
    // contribute ∅ either way.
    let definitional = schema_fragment(&schema, &graph);
    assert_eq!(fragment, definitional);
}

#[test]
fn suite_round_trips_through_shacl_turtle() {
    let graph = sample();
    let schema = benchmark_schema();
    let text = schema_to_turtle(&schema);
    assert!(text.len() > 2_000, "a real shapes document");
    let reparsed: Schema = shape_fragments::shacl::parser::parse_shapes_turtle(&text)
        .expect("57-shape suite reparses from Turtle");

    // The reparsed schema introduces auxiliary property-shape definitions,
    // but the original names must all survive…
    for def in benchmark_shapes() {
        assert!(
            reparsed.get(&def.name).is_some(),
            "{} lost in round trip",
            def.name
        );
    }
    // …and produce the identical validation report.
    let before = validate(&schema, &graph);
    let after = validate(&reparsed, &graph);
    assert_eq!(before.conforms(), after.conforms());
    let mut v1: Vec<_> = before
        .violations
        .iter()
        .map(|v| (&v.shape, &v.focus))
        .collect();
    let mut v2: Vec<_> = after
        .violations
        .iter()
        .map(|v| (&v.shape, &v.focus))
        .collect();
    v1.sort();
    v2.sort();
    assert_eq!(v1, v2, "violation sets differ after round trip");
}

#[test]
fn fragment_validates_after_extraction() {
    // Theorem 4.1 at workload scale: restrict to the conforming subset of
    // the schema (drop definitions with any violating target) and check
    // the fragment of that sub-schema still validates.
    let graph = sample();
    let schema = benchmark_schema();
    let report = validate(&schema, &graph);
    let violating: std::collections::HashSet<_> =
        report.violations.iter().map(|v| v.shape.clone()).collect();
    let clean = Schema::new(
        benchmark_shapes()
            .into_iter()
            .filter(|d| !violating.contains(&d.name)),
    )
    .expect("sub-schema is valid");
    assert!(clean.len() > 20, "most shapes validate cleanly");
    assert!(validate(&clean, &graph).conforms());
    let frag = schema_fragment(&clean, &graph);
    assert!(
        validate(&clean, &frag).conforms(),
        "Frag(G, H) violates H at workload scale"
    );
}

/// The Vardi distance-`k` shapes of §5.3.2 on a small DBLP slice: the
/// governed instrumented engine and the set-at-a-time
/// `schema_fragment` both trace each quantifier path once for all foci,
/// and must still equal the per-node Table 2 oracle; at distance 1 they
/// must also equal the fragment the generated SPARQL query computes
/// (Lemma 5.1 / Prop. 5.3). The benchmark's target (the objects of
/// `authoredBy`) puts every authorship triple of a conforming author into
/// the fragment as target evidence, which covers every traced path edge;
/// the `⊤` target leaves the traced paths as the only evidence.
#[test]
fn vardi_fragments_match_per_node_and_sparql_oracles() {
    let bib = Bibliography::generate(&DblpConfig {
        first_year: 2018,
        last_year: 2021,
        papers_per_year: 40,
        new_authors_per_year: 20,
        seed: 11,
        ..DblpConfig::default()
    });
    let graph = bib.slice(2019);
    let authors = Shape::geq(1, PathExpr::Prop(authored_by()).inverse(), Shape::True);
    for target in [authors, Shape::True] {
        for k in [1, 2, 3] {
            let name = Term::iri(format!("http://example.org/shapes/Vardi{k}"));
            let schema = Schema::new([ShapeDef::new(name, vardi_shape(k), target.clone())])
                .expect("one nonrecursive definition");
            let requests = schema.request_shapes();
            let oracle = materialize(&graph, &fragment_ids_per_node(&schema, &graph, &requests));
            assert!(!oracle.is_empty(), "distance {k}: the hub's ball is traced");
            let (_, extracted) =
                validate_extract_fragment_governed(&schema, &graph, ExecCtx::unbounded())
                    .expect("unbounded extraction");
            assert_eq!(
                extracted.to_graph(&graph),
                oracle,
                "distance {k}, target {target}"
            );
            assert_eq!(
                schema_fragment(&schema, &graph),
                oracle,
                "distance {k}, target {target}"
            );
            if k == 1 {
                let via_sparql =
                    fragment_via_sparql(&schema, &graph, &requests, &EvalConfig::indexed())
                        .expect("the query fits the default evaluation limits");
                assert_eq!(via_sparql, oracle, "target {target}");
            }
        }
    }
}
