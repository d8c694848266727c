//! Set-at-a-time vs. per-node evaluation on the Tyrolean 57-shape suite:
//! the batch kernel (multi-source RPQ evaluation + shared conformance
//! memoization) against the per-node reference for plain validation, and
//! the batch validation-with-extraction driver.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use shapefrag_core::validate_extract_fragment;
use shapefrag_shacl::validator::{validate, validate_batch};
use shapefrag_shacl::Schema;
use shapefrag_workloads::shapes57::benchmark_shapes;
use shapefrag_workloads::tyrolean::{generate, TyroleanConfig};

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
}

fn bench_batch_validation(c: &mut Criterion) {
    let graph = generate(&TyroleanConfig::new(2_500, 13));
    let schema = Schema::new(benchmark_shapes()).unwrap();

    let mut group = c.benchmark_group("batch/validate");
    group.bench_function("per-node", |b| b.iter(|| validate(&schema, &graph)));
    group.bench_function("batch", |b| b.iter(|| validate_batch(&schema, &graph)));
    group.finish();

    let mut group = c.benchmark_group("batch/validate+extract");
    group.bench_function("batch", |b| {
        b.iter(|| validate_extract_fragment(&schema, &graph))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_batch_validation
}
criterion_main!(benches);
