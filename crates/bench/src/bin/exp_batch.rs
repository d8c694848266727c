//! **Batch kernel experiment** — set-at-a-time vs. per-node evaluation.
//!
//! Runs the full Tyrolean 57-shape suite over a ladder of graph sizes and
//! measures, per size, the median wall-clock time of
//!
//! - plain validation: per-node `validate` vs. `validate_batch`
//!   (multi-source RPQ kernel + shared conformance memo), and
//! - validation with fragment extraction:
//!   `validate_extract_fragment_per_node` vs. the batch
//!   `validate_extract_fragment`, and
//! - the frozen backend: the same batch kernels over a
//!   [`FrozenGraph`](shapefrag_rdf::FrozenGraph) CSR snapshot (freeze time
//!   reported separately).
//!
//! Results (and the batch/per-node speedup per size) are written to
//! `BENCH_validation.json` in the working directory. Run with `--scale` to
//! shrink/grow the graphs and `--runs` to change the median sample count.

use std::time::Duration;

use shapefrag_analyze::{analyze_schema, simplify, SimplifyLevel};
use shapefrag_bench::{ms, print_table, time, write_json_to, ExpOptions};
use shapefrag_core::{validate_extract_fragment, validate_extract_fragment_per_node};
use shapefrag_shacl::validator::{validate, validate_batch};
use shapefrag_shacl::Schema;
use shapefrag_workloads::shapes57::benchmark_shapes;
use shapefrag_workloads::tyrolean::{generate, sample_induced, TyroleanConfig};

struct SizeRow {
    individuals: usize,
    triples: usize,
    freeze_ms: f64,
    validate_per_node_ms: f64,
    validate_batch_ms: f64,
    validate_speedup: f64,
    validate_frozen_ms: f64,
    validate_frozen_speedup: f64,
    extract_per_node_ms: f64,
    extract_batch_ms: f64,
    extract_speedup: f64,
    extract_frozen_ms: f64,
    extract_frozen_speedup: f64,
}

struct BatchResults {
    suite: String,
    shape_count: usize,
    runs: usize,
    /// Logical cores of the benchmarking host.
    host_cores: usize,
    /// Static analysis of the 57-shape schema (graph-size independent).
    analyze_ms: f64,
    /// Fragment-level semantics-preserving simplification of the schema.
    simplify_ms: f64,
    rows: Vec<SizeRow>,
}

shapefrag_bench::impl_to_json!(SizeRow {
    individuals,
    triples,
    freeze_ms,
    validate_per_node_ms,
    validate_batch_ms,
    validate_speedup,
    validate_frozen_ms,
    validate_frozen_speedup,
    extract_per_node_ms,
    extract_batch_ms,
    extract_speedup,
    extract_frozen_ms,
    extract_frozen_speedup,
});
shapefrag_bench::impl_to_json!(BatchResults {
    suite,
    shape_count,
    runs,
    host_cores,
    analyze_ms,
    simplify_ms,
    rows,
});

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let opts = ExpOptions::from_args();
    let base_individuals = opts.scaled(6_000);
    let sizes: Vec<usize> = [1usize, 2, 3]
        .iter()
        .map(|k| k * base_individuals / 3)
        .collect();
    let runs = opts.runs.max(3);

    eprintln!("generating tourism graph with {base_individuals} individuals…");
    let full = generate(&TyroleanConfig::new(base_individuals, 0xBA7C));
    let shapes = benchmark_shapes();
    let shape_count = shapes.len();
    let schema = Schema::new(shapes).expect("57-shape suite is nonrecursive");

    // Static analysis and simplification are schema-level (independent of
    // the data graph); report their wall time alongside the kernels.
    let mut s_analyze = Vec::with_capacity(runs);
    let mut s_simplify = Vec::with_capacity(runs);
    for _ in 0..runs {
        s_analyze.push(time(|| analyze_schema(&schema, None)).1);
        s_simplify.push(time(|| simplify(&schema, SimplifyLevel::Fragment)).1);
    }
    let analyze_ms = ms(median(s_analyze));
    let simplify_ms = ms(median(s_simplify));
    eprintln!("schema analysis: analyze {analyze_ms:.2}ms, simplify {simplify_ms:.2}ms");

    let mut rows = Vec::new();
    for (i, &individuals) in sizes.iter().enumerate() {
        let graph = if individuals >= base_individuals {
            full.clone()
        } else {
            sample_induced(&full, individuals, 300 + i as u64)
        };
        eprintln!(
            "size {individuals} individuals → {} triples ({} runs each)…",
            graph.len(),
            runs
        );

        let (frozen, t_freeze) = time(|| graph.freeze());

        // Sanity: batch, per-node, frozen-backend, and the extraction
        // drivers must agree before we time them.
        let reference = validate(&schema, &graph);
        assert_eq!(
            reference,
            validate_batch(&schema, &graph),
            "batch validation diverged from per-node at {individuals} individuals"
        );
        assert_eq!(
            reference,
            validate_batch(&schema, &frozen),
            "frozen validation diverged from mutable at {individuals} individuals"
        );
        {
            let (node_report, node_frag) = validate_extract_fragment_per_node(&schema, &frozen);
            let (report, frag) = validate_extract_fragment(&schema, &frozen);
            assert_eq!(
                node_report, report,
                "extraction report diverged from per-node at {individuals} individuals"
            );
            assert_eq!(
                node_frag.to_graph(&frozen),
                frag.to_graph(&frozen),
                "extraction fragment diverged from per-node at {individuals} individuals"
            );
        }

        // Interleave the four measurements so slow machine drift (thermal
        // throttling, allocator state) affects both sides equally.
        let mut s_val_per_node = Vec::with_capacity(runs);
        let mut s_val_batch = Vec::with_capacity(runs);
        let mut s_val_frozen = Vec::with_capacity(runs);
        let mut s_ext_per_node = Vec::with_capacity(runs);
        let mut s_ext_batch = Vec::with_capacity(runs);
        let mut s_ext_frozen = Vec::with_capacity(runs);
        for _ in 0..runs {
            s_val_per_node.push(time(|| validate(&schema, &graph)).1);
            s_val_batch.push(time(|| validate_batch(&schema, &graph)).1);
            s_val_frozen.push(time(|| validate_batch(&schema, &frozen)).1);
            s_ext_per_node.push(time(|| validate_extract_fragment_per_node(&schema, &graph)).1);
            s_ext_batch.push(time(|| validate_extract_fragment(&schema, &graph)).1);
            s_ext_frozen.push(time(|| validate_extract_fragment(&schema, &frozen)).1);
        }
        let t_val_per_node = median(s_val_per_node);
        let t_val_batch = median(s_val_batch);
        let t_val_frozen = median(s_val_frozen);
        let t_ext_per_node = median(s_ext_per_node);
        let t_ext_batch = median(s_ext_batch);
        let t_ext_frozen = median(s_ext_frozen);

        rows.push(SizeRow {
            individuals,
            triples: graph.len(),
            freeze_ms: ms(t_freeze),
            validate_per_node_ms: ms(t_val_per_node),
            validate_batch_ms: ms(t_val_batch),
            validate_speedup: ms(t_val_per_node) / ms(t_val_batch).max(1e-9),
            validate_frozen_ms: ms(t_val_frozen),
            validate_frozen_speedup: ms(t_val_batch) / ms(t_val_frozen).max(1e-9),
            extract_per_node_ms: ms(t_ext_per_node),
            extract_batch_ms: ms(t_ext_batch),
            extract_speedup: ms(t_ext_per_node) / ms(t_ext_batch).max(1e-9),
            extract_frozen_ms: ms(t_ext_frozen),
            extract_frozen_speedup: ms(t_ext_batch) / ms(t_ext_frozen).max(1e-9),
        });
    }

    println!("\nSet-at-a-time kernel vs. per-node evaluation (57-shape suite, median of {runs})");
    println!("schema static analysis: analyze {analyze_ms:.2}ms, simplify {simplify_ms:.2}ms\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.individuals),
                format!("{}", r.triples),
                format!("{:.2}ms", r.freeze_ms),
                format!("{:.1}ms", r.validate_per_node_ms),
                format!("{:.1}ms", r.validate_batch_ms),
                format!("{:.2}x", r.validate_speedup),
                format!("{:.1}ms", r.validate_frozen_ms),
                format!("{:.2}x", r.validate_frozen_speedup),
                format!("{:.1}ms", r.extract_per_node_ms),
                format!("{:.1}ms", r.extract_batch_ms),
                format!("{:.2}x", r.extract_speedup),
                format!("{:.1}ms", r.extract_frozen_ms),
                format!("{:.2}x", r.extract_frozen_speedup),
            ]
        })
        .collect();
    print_table(
        &[
            "individuals",
            "triples",
            "freeze",
            "validate/node",
            "validate/batch",
            "speedup",
            "validate/frozen",
            "vs batch",
            "extract/node",
            "extract/batch",
            "speedup",
            "extract/frozen",
            "vs batch",
        ],
        &table,
    );

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results = BatchResults {
        suite: "tyrolean-57".to_string(),
        shape_count,
        runs,
        host_cores,
        analyze_ms,
        simplify_ms,
        rows,
    };
    let out = opts.out.as_deref().unwrap_or("BENCH_validation.json");
    write_json_to(out, &results);
    println!("\nwrote {out}");
}
