//! Parser throughput: N-Triples and Turtle loading, plus shapes-graph
//! translation (Appendix A) — the data-ingestion side excluded from the
//! paper's timers but load-bearing for a practical engine. The `load` and
//! `emit` groups set the CLI's id-level paths beside the `Graph` round
//! trips they replace: the frozen loaders against `parse` + `freeze`, and
//! the fragment's id-triple writer against `to_graph` + `serialize`;
//! `load/freeze` times the CSR build on its own, and
//! `load/ntriples_frozen_dblp` the N-Triples load of the Fig. 3 DBLP slice
//! the `cli-dblp` benchmark workload reads (3.6k triples, 1.5k terms), and
//! `load/shapes57_gated` the start-up every CLI command pays on the 57-shape
//! suite: the shapes graph parsed with spans, translated and gated through
//! the analyzer.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use shapefrag_analyze::analyze_schema;
use shapefrag_core::validate_extract_fragment;
use shapefrag_rdf::{ntriples, turtle};
use shapefrag_shacl::parser::{parse_shapes_turtle, parse_shapes_turtle_with_spans};
use shapefrag_shacl::schema_to_turtle;
use shapefrag_workloads::dblp::{Bibliography, DblpConfig};
use shapefrag_workloads::shapes57::benchmark_schema;
use shapefrag_workloads::tyrolean::{generate, TyroleanConfig};
use shapefrag_workloads::TRANSLATION_SAMPLE_TTL;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
}

fn bench_parsing(c: &mut Criterion) {
    let graph = generate(&TyroleanConfig::new(4_000, 3));
    let nt = ntriples::serialize(&graph);
    let ttl = turtle::serialize(
        &graph,
        &[
            ("s", "http://schema.example.org/"),
            ("d", "http://tkg.example.org/"),
        ],
    );

    let mut group = c.benchmark_group("parse");
    group.throughput(Throughput::Bytes(nt.len() as u64));
    group.bench_function("ntriples", |b| {
        b.iter(|| ntriples::parse(&nt).unwrap());
    });
    group.throughput(Throughput::Bytes(ttl.len() as u64));
    group.bench_function("turtle", |b| {
        b.iter(|| turtle::parse(&ttl).unwrap());
    });
    group.throughput(Throughput::Bytes(nt.len() as u64));
    group.bench_function("ntriples_serialize", |b| {
        b.iter(|| ntriples::serialize(&graph));
    });
    group.finish();

    // The Turtle form the CLI workloads load: full IRIs, no prefixes.
    let data_ttl = turtle::serialize(&graph, &[]);
    let mut group = c.benchmark_group("load");
    group.throughput(Throughput::Bytes(data_ttl.len() as u64));
    group.bench_function("turtle_parse_freeze", |b| {
        b.iter(|| turtle::parse(&data_ttl).unwrap().freeze());
    });
    group.bench_function("turtle_frozen", |b| {
        b.iter(|| turtle::parse_frozen(&data_ttl).unwrap());
    });
    group.throughput(Throughput::Bytes(nt.len() as u64));
    group.bench_function("ntriples_frozen", |b| {
        b.iter(|| ntriples::parse_frozen(&nt).unwrap());
    });
    // The 2010–2021 DBLP slice at 96 papers and 52 new authors a year: many
    // short statements over few distinct terms, so the per-statement cost
    // of lexing and interning shows.
    let dblp = ntriples::serialize(
        &Bibliography::generate(&DblpConfig {
            papers_per_year: 96,
            new_authors_per_year: 52,
            ..DblpConfig::default()
        })
        .full_graph(),
    );
    group.throughput(Throughput::Bytes(dblp.len() as u64));
    group.bench_function("ntriples_frozen_dblp", |b| {
        b.iter(|| ntriples::parse_frozen(&dblp).unwrap());
    });
    // The CLI's start-up on the 57-shape suite as the benchmark writes it
    // (519 triples, 212 definitions).
    let shapes57 = schema_to_turtle(&benchmark_schema());
    group.throughput(Throughput::Bytes(shapes57.len() as u64));
    group.bench_function("shapes57_gated", |b| {
        b.iter(|| {
            let (schema, spans) = parse_shapes_turtle_with_spans(&shapes57).unwrap();
            analyze_schema(&schema, Some(&spans))
        });
    });
    // The CSR build alone (`freeze` shares the graph's interner).
    group.throughput(Throughput::Elements(graph.len() as u64));
    group.bench_function("freeze", |b| {
        b.iter(|| graph.freeze());
    });
    group.finish();

    let frozen = graph.freeze();
    let (_, fragment) = validate_extract_fragment(&benchmark_schema(), &frozen);
    let mut group = c.benchmark_group("emit");
    group.bench_function("fragment_to_graph_serialize", |b| {
        b.iter(|| ntriples::serialize(&fragment.to_graph(&frozen)));
    });
    group.bench_function("fragment_ids", |b| {
        b.iter(|| fragment.to_ntriples(&frozen));
    });
    group.finish();

    c.bench_function("shapes_graph_translation", |b| {
        b.iter(|| parse_shapes_turtle(TRANSLATION_SAMPLE_TTL).unwrap());
    });
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_parsing
}
criterion_main!(benches);
