//! Microbenchmarks for the regular-path-query engine: evaluation
//! `⟦E⟧^G(a)` and tracing `graph(paths(E, G, A, X))` across path-expression
//! classes (the core primitives behind both Table 1 and Table 2), from one
//! source and from all foci of a quantifier at once.

use std::collections::BTreeSet;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use shapefrag_rdf::{GraphAccess, Term, TermId};
use shapefrag_shacl::rpq::CompiledPath;
use shapefrag_shacl::validator::Context;
use shapefrag_shacl::{PathExpr, Schema, Shape};
use shapefrag_workloads::dblp::{authored_by, hub_author, vardi_shape, Bibliography, DblpConfig};
use shapefrag_workloads::tyrolean::{generate, schema, TyroleanConfig};

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
}

fn bench_rpq(c: &mut Criterion) {
    let graph = generate(&TyroleanConfig::new(3_000, 7));
    let review = graph
        .id_of(&Term::iri("http://tkg.example.org/review0"))
        .unwrap();
    let lodging = graph
        .id_of(&Term::iri("http://tkg.example.org/lodging0"))
        .unwrap();

    let paths: Vec<(&str, PathExpr, shapefrag_rdf::TermId)> = vec![
        ("simple-prop", PathExpr::Prop(schema("author")), review),
        (
            "inverse",
            PathExpr::Prop(schema("itemReviewed")).inverse(),
            lodging,
        ),
        (
            "sequence",
            PathExpr::Prop(schema("itemReviewed")).then(PathExpr::Prop(schema("location"))),
            review,
        ),
        (
            "alternative",
            PathExpr::Prop(schema("author")).or(PathExpr::Prop(schema("itemReviewed"))),
            review,
        ),
        (
            "star",
            PathExpr::Prop(schema("itemReviewed"))
                .or(PathExpr::Prop(schema("location")))
                .star(),
            review,
        ),
        (
            "two-hop-inverse",
            PathExpr::Prop(schema("itemReviewed"))
                .then(PathExpr::Prop(schema("itemReviewed")).inverse()),
            review,
        ),
    ];

    let mut group = c.benchmark_group("rpq_eval");
    for (name, path, from) in &paths {
        let compiled = CompiledPath::new(path, &graph);
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &compiled,
            |b, compiled| {
                b.iter(|| compiled.eval_from(&graph, *from));
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("rpq_trace");
    for (name, path, from) in &paths {
        let compiled = CompiledPath::new(path, &graph);
        let targets: BTreeSet<_> = compiled.eval_from(&graph, *from);
        if targets.is_empty() {
            continue;
        }
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &compiled,
            |b, compiled| {
                b.iter(|| compiled.trace(&graph, &[*from], Some(&targets)));
            },
        );
    }
    group.finish();

    bench_vardi_trace(c);

    // Compilation cost itself.
    c.bench_function("rpq_compile_star_alt", |b| {
        let path = PathExpr::Prop(schema("a"))
            .or(PathExpr::Prop(schema("b")))
            .star()
            .then(PathExpr::Prop(schema("c")).opt());
        b.iter(|| CompiledPath::new(&path, &graph));
    });
}

/// The fragment trace of Fig. 3's Vardi distance-3 shape
/// `≥1 (authoredBy⁻/authoredBy)³.hasValue(hub)` on the 2010–2021 DBLP slice
/// (96 papers and 52 new authors per year): every conforming author traced
/// to the hub in one multi-source call, next to the single-source trace of
/// one of them, and the batch decision of the shape over all authors
/// (`decide`, one forward and one backward pass of the reach kernel).
fn bench_vardi_trace(c: &mut Criterion) {
    let graph = Bibliography::generate(&DblpConfig {
        first_year: 2010,
        last_year: 2021,
        papers_per_year: 96,
        new_authors_per_year: 52,
        ..DblpConfig::default()
    })
    .full_graph()
    .freeze();
    let shape = vardi_shape(3);
    let Shape::Geq(_, path, _) = &shape else {
        unreachable!("the Vardi shape is a qualified ≥1 quantifier")
    };
    let compiled = CompiledPath::new(path, &graph);
    let hub = graph.id_of(&hub_author()).expect("hub authored papers");
    let targets = BTreeSet::from([hub]);
    let authored = graph.id_of_iri(&authored_by()).expect("authorship triples");
    let authors: Vec<TermId> = graph
        .node_ids()
        .into_iter()
        .filter(|&v| graph.subjects_ids(v, authored).next().is_some())
        .collect();
    let foci: Vec<TermId> = compiled
        .eval_from_many(&graph, &authors)
        .into_iter()
        .zip(&authors)
        .filter(|(reached, _)| reached.contains(&hub))
        .map(|(_, &v)| v)
        .collect();
    let focus = foci[0];

    let mut group = c.benchmark_group("rpq_trace_vardi3");
    group.bench_function("single-source", |b| {
        b.iter(|| compiled.trace(&graph, &[focus], Some(&targets)));
    });
    group.bench_function(BenchmarkId::new("multi-source", foci.len()), |b| {
        b.iter(|| compiled.trace(&graph, &foci, Some(&targets)));
    });
    let schema = Schema::empty();
    group.bench_function(BenchmarkId::new("decide", authors.len()), |b| {
        b.iter(|| Context::new(&schema, &graph).conforms_all(&authors, &shape));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_rpq
}
criterion_main!(benches);
