//! Parser throughput: N-Triples and Turtle loading, plus shapes-graph
//! translation (Appendix A) — the data-ingestion side excluded from the
//! paper's timers but load-bearing for a practical engine. The `load` and
//! `emit` groups set the CLI's id-level paths beside the `Graph` round
//! trips they replace: the frozen loader against `parse` + `freeze`, and
//! the fragment's id-triple writer against `to_graph` + `serialize`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use shapefrag_core::validate_extract_fragment;
use shapefrag_rdf::{ntriples, turtle};
use shapefrag_shacl::parser::parse_shapes_turtle;
use shapefrag_workloads::shapes57::benchmark_schema;
use shapefrag_workloads::tyrolean::{generate, TyroleanConfig};

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
}

const SHAPES_TTL: &str = r#"
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
        b.iter(|| parse_shapes_turtle(SHAPES_TTL).unwrap());
    });
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_parsing
}
criterion_main!(benches);
