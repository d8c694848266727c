//! Microbenchmarks for neighborhood computation (Table 2), one per
//! neighborhood rule class, plus the fragment ablations called out in
//! DESIGN.md: batched vs. per-endpoint tracing and sequential vs. parallel
//! fragment extraction.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use shapefrag_core::{fragment, neighborhood, validate_extract_fragment_par};
use shapefrag_rdf::Term;
use shapefrag_shacl::shape::PathOrId;
use shapefrag_shacl::validator::Context;
use shapefrag_shacl::{Budget, PathExpr, Schema, Shape, ShapeDef};
use shapefrag_workloads::tyrolean::{generate, schema, TyroleanConfig};

fn config() -> Criterion {
    Criterion::default()
        .sample_size(15)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
}

fn bench_neighborhood(c: &mut Criterion) {
    let graph = generate(&TyroleanConfig::new(2_000, 11));
    let empty = Schema::empty();
    let review = graph
        .id_of(&Term::iri("http://tkg.example.org/review0"))
        .unwrap();
    let lodging = graph
        .id_of(&Term::iri("http://tkg.example.org/lodging0"))
        .unwrap();

    let cases: Vec<(&str, Shape, shapefrag_rdf::TermId)> = vec![
        (
            "geq-existential",
            Shape::geq(1, PathExpr::Prop(schema("author")), Shape::True),
            review,
        ),
        (
            "geq-nested",
            Shape::geq(
                1,
                PathExpr::Prop(schema("itemReviewed")),
                Shape::geq(1, PathExpr::Prop(schema("location")), Shape::True),
            ),
            review,
        ),
        (
            "forall",
            Shape::for_all(
                PathExpr::Prop(schema("makesOffer")),
                Shape::geq(1, PathExpr::Prop(schema("price")), Shape::True),
            ),
            lodging,
        ),
        (
            "leq-negated-endpoints",
            Shape::leq(
                5,
                PathExpr::Prop(schema("makesOffer")),
                Shape::geq(1, PathExpr::Prop(schema("price")), Shape::True),
            ),
            lodging,
        ),
        (
            "not-eq",
            Shape::Eq(
                PathOrId::Path(PathExpr::Prop(schema("name"))),
                schema("telephone"),
            )
            .not(),
            lodging,
        ),
        (
            "not-closed",
            Shape::Closed([schema("name")].into_iter().collect()).not(),
            lodging,
        ),
    ];

    let mut group = c.benchmark_group("neighborhood");
    for (name, shape, node) in &cases {
        group.bench_with_input(BenchmarkId::from_parameter(name), shape, |b, shape| {
            b.iter(|| {
                let mut ctx = Context::new(&empty, &graph);
                neighborhood(&mut ctx, *node, shape)
            });
        });
    }
    group.finish();

    // Fragment extraction: sequential vs parallel (ablation).
    let frag_shape = Shape::geq(
        1,
        PathExpr::Prop(schema("author")),
        Shape::geq(1, PathExpr::Prop(schema("email")), Shape::True),
    );
    // The parallel route is the extraction engine over one ⊤-targeted
    // definition: `Frag(G, { φ ∧ ⊤ }) = Frag(G, { φ })`.
    let all_nodes = Schema::new([ShapeDef::new(
        Term::iri("http://tkg.example.org/FragShape"),
        frag_shape.clone(),
        Shape::True,
    )])
    .unwrap();
    let mut group = c.benchmark_group("fragment");
    group.bench_function("sequential", |b| {
        b.iter(|| fragment(&empty, &graph, std::slice::from_ref(&frag_shape)));
    });
    for workers in [2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("parallel", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    validate_extract_fragment_par(
                        &all_nodes,
                        &graph,
                        workers,
                        Budget::unlimited(),
                        None,
                    )
                    .unwrap()
                });
            },
        );
    }
    group.finish();
}

/// Ablation (DESIGN.md): one batched backward product-BFS over the full
/// endpoint set vs. one trace call per endpoint.
fn bench_trace_batching(c: &mut Criterion) {
    use shapefrag_shacl::rpq::CompiledPath;
    use std::collections::BTreeSet;

    let graph = generate(&TyroleanConfig::new(2_000, 17));
    let review = graph
        .id_of(&Term::iri("http://tkg.example.org/review0"))
        .unwrap();
    let path =
        PathExpr::Prop(schema("itemReviewed")).then(PathExpr::Prop(schema("location")).opt());
    let compiled = CompiledPath::new(&path, &graph);
    let targets: BTreeSet<_> = compiled.eval_from(&graph, review);
    if targets.is_empty() {
        return;
    }
    let mut group = c.benchmark_group("trace_ablation");
    group.bench_function("batched", |b| {
        b.iter(|| compiled.trace(&graph, &[review], Some(&targets)));
    });
    group.bench_function("per-endpoint", |b| {
        b.iter(|| {
            let mut out = BTreeSet::new();
            for &x in &targets {
                out.extend(compiled.trace(&graph, &[review], Some(&BTreeSet::from([x]))));
            }
            out
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_neighborhood, bench_trace_batching
}
criterion_main!(benches);
