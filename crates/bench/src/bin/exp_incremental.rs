//! **Incremental validation experiment** — compact-first incremental maintenance vs.
//! re-freeze + from-scratch revalidation.
//!
//! Seeds an [`IncrementalValidator`] with the Tyrolean 57-shape suite
//! over a ladder of graph sizes, then applies random edit batches at
//! small/medium delta ratios (0.1%, 1%, 5% of the triple count; half
//! removals of resident triples, half fresh additions over the resident
//! vocabulary). Per `(size, ratio)` cell it reports the median wall-clock
//! of
//!
//! - the incremental path: `apply_governed` with an unlimited budget
//!   (the batch folded into a new frozen graph, then change-impact
//!   routing + selective memo invalidation over it), and
//! - the scratch path: replay the edits into a mutable graph, re-freeze,
//!   and `validate_batch` the snapshot (what a non-incremental server
//!   has to do per batch),
//!
//! plus edits/sec and the incremental-vs-scratch speedup. Reports are
//! asserted identical before anything is timed. Results go to
//! `BENCH_incremental.json` (the tentpole acceptance line is ≥5x speedup
//! at the ≤1% ratio on the largest row).

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shapefrag_bench::{ms, print_table, time, write_json_to, ExpOptions};
use shapefrag_core::{EditOp, EditScript, IncrementalValidator};
use shapefrag_rdf::{Graph, Triple};
use shapefrag_shacl::validator::{validate_batch, ValidationReport};
use shapefrag_shacl::{Budget, Schema};
use shapefrag_workloads::shapes57::benchmark_shapes;
use shapefrag_workloads::tyrolean::{generate, sample_induced, TyroleanConfig};

/// Delta ratios measured per size (fraction of the resident triples).
const RATIOS: [f64; 3] = [0.001, 0.01, 0.05];

struct RatioRow {
    delta_ratio: f64,
    edits: usize,
    incremental_ms: f64,
    scratch_ms: f64,
    speedup: f64,
    edits_per_sec: f64,
}

struct SizeRow {
    individuals: usize,
    triples: usize,
    seed_ms: f64,
    ratios: Vec<RatioRow>,
}

struct IncrementalResults {
    suite: String,
    shape_count: usize,
    runs: usize,
    /// Logical cores of the benchmarking host.
    host_cores: usize,
    rows: Vec<SizeRow>,
}

shapefrag_bench::impl_to_json!(RatioRow {
    delta_ratio,
    edits,
    incremental_ms,
    scratch_ms,
    speedup,
    edits_per_sec,
});
shapefrag_bench::impl_to_json!(SizeRow {
    individuals,
    triples,
    seed_ms,
    ratios,
});
shapefrag_bench::impl_to_json!(IncrementalResults {
    suite,
    shape_count,
    runs,
    host_cores,
    rows,
});

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Builds an all-effective edit batch of `k` ops against `graph`: the
/// first half retracts resident triples, the second half asserts triples
/// absent from the graph but built entirely from its resident vocabulary
/// (so edits land inside the shapes' predicate alphabets, the worst case
/// for impact routing).
fn random_script(graph: &Graph, k: usize, seed: u64) -> EditScript {
    let mut rng = StdRng::seed_from_u64(seed);
    let resident: Vec<Triple> = graph.iter().collect();
    let mut ops = Vec::with_capacity(k);
    let removals = (k / 2).min(resident.len());
    let mut taken = std::collections::HashSet::new();
    while taken.len() < removals {
        let i = rng.gen_range(0..resident.len());
        if taken.insert(i) {
            ops.push(EditOp::Remove(resident[i].clone()));
        }
    }
    let mut added = std::collections::HashSet::new();
    while ops.len() < k {
        let s = &resident[rng.gen_range(0..resident.len())];
        let p = &resident[rng.gen_range(0..resident.len())];
        let o = &resident[rng.gen_range(0..resident.len())];
        let t = Triple::new(s.subject.clone(), p.predicate.clone(), o.object.clone());
        if !graph.contains(&t) && added.insert(t.clone()) {
            ops.push(EditOp::Add(t));
        }
    }
    EditScript::new(ops)
}

/// Applies a script with no resource limit.
fn apply(inc: &mut IncrementalValidator, script: &EditScript) -> ValidationReport {
    inc.apply_governed(script, Budget::unlimited(), None)
        .expect("an unlimited budget cannot fault")
}

/// The inverse script: undoes an all-effective batch exactly, restoring
/// the pre-batch graph between timed runs.
fn inverse(script: &EditScript) -> EditScript {
    script
        .ops
        .iter()
        .rev()
        .map(|op| match op {
            EditOp::Add(t) => EditOp::Remove(t.clone()),
            EditOp::Remove(t) => EditOp::Add(t.clone()),
        })
        .collect()
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
    let schema = Arc::new(Schema::new(shapes).expect("57-shape suite is nonrecursive"));

    let mut rows = Vec::new();
    for (i, &individuals) in sizes.iter().enumerate() {
        let graph = if individuals >= base_individuals {
            full.clone()
        } else {
            sample_induced(&full, individuals, 300 + i as u64)
        };
        let triples = graph.len();
        eprintln!("size {individuals} individuals → {triples} triples ({runs} runs each)…");

        let frozen = Arc::new(graph.freeze());
        let (inc_seed, t_seed) =
            time(|| IncrementalValidator::new(Arc::clone(&schema), Arc::clone(&frozen)));
        let mut inc = inc_seed;

        let mut ratio_rows = Vec::new();
        for (j, &ratio) in RATIOS.iter().enumerate() {
            let k = ((triples as f64 * ratio).round() as usize).max(1);
            let script = random_script(&graph, k, 0xD17A + (i * RATIOS.len() + j) as u64);
            let undo = inverse(&script);

            // Agreement before timing: the maintained report must equal a
            // from-scratch run over the replayed mutable graph.
            let mut post = graph.clone();
            for op in &script.ops {
                match op {
                    EditOp::Add(t) => {
                        post.insert(t.clone());
                    }
                    EditOp::Remove(t) => {
                        post.remove(t);
                    }
                }
            }
            let report = apply(&mut inc, &script);
            assert_eq!(
                report,
                validate_batch(&schema, &post),
                "incremental diverged from scratch at {individuals}/{ratio}"
            );
            apply(&mut inc, &undo);

            // Incremental path, restoring the base state between timed
            // runs.
            let mut s_inc = Vec::with_capacity(runs);
            for _ in 0..runs {
                s_inc.push(time(|| apply(&mut inc, &script)).1);
                apply(&mut inc, &undo);
            }

            // Scratch path: replay + re-freeze + full batch validation.
            let mut s_scratch = Vec::with_capacity(runs);
            for _ in 0..runs {
                s_scratch.push(
                    time(|| {
                        let mut g = graph.clone();
                        for op in &script.ops {
                            match op {
                                EditOp::Add(t) => {
                                    g.insert(t.clone());
                                }
                                EditOp::Remove(t) => {
                                    g.remove(t);
                                }
                            }
                        }
                        let f = g.freeze();
                        validate_batch(&schema, &f)
                    })
                    .1,
                );
            }

            let t_inc = median(s_inc);
            let t_scratch = median(s_scratch);
            let inc_ms = ms(t_inc);
            ratio_rows.push(RatioRow {
                delta_ratio: ratio,
                edits: k,
                incremental_ms: inc_ms,
                scratch_ms: ms(t_scratch),
                speedup: ms(t_scratch) / inc_ms.max(1e-9),
                edits_per_sec: k as f64 / (inc_ms / 1000.0).max(1e-9),
            });
        }

        rows.push(SizeRow {
            individuals,
            triples,
            seed_ms: ms(t_seed),
            ratios: ratio_rows,
        });
    }

    println!("\nIncremental vs. re-freeze + from-scratch (57-shape suite, median of {runs})");
    let table: Vec<Vec<String>> = rows
        .iter()
        .flat_map(|r| rows_table(r).into_iter())
        .collect();
    print_table(
        &[
            "individuals",
            "triples",
            "delta",
            "edits",
            "incremental",
            "scratch",
            "speedup",
            "edits/s",
        ],
        &table,
    );

    if let Some(last) = rows.last() {
        let best = last
            .ratios
            .iter()
            .filter(|r| r.delta_ratio <= 0.01)
            .map(|r| r.speedup)
            .fold(0.0f64, f64::max);
        if best < 5.0 {
            eprintln!(
                "WARNING: best small-delta speedup on the largest row is {best:.2}x, \
                 below the 5x target"
            );
        }
    }

    let results = IncrementalResults {
        suite: "tyrolean-57".to_string(),
        shape_count,
        runs,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows,
    };
    let out = opts.out.as_deref().unwrap_or("BENCH_incremental.json");
    write_json_to(out, &results);
}

fn rows_table(r: &SizeRow) -> Vec<Vec<String>> {
    r.ratios
        .iter()
        .map(|c| {
            vec![
                format!("{}", r.individuals),
                format!("{}", r.triples),
                format!("{:.3}", c.delta_ratio),
                format!("{}", c.edits),
                format!("{:.2}ms", c.incremental_ms),
                format!("{:.2}ms", c.scratch_ms),
                format!("{:.2}x", c.speedup),
                format!("{:.0}", c.edits_per_sec),
            ]
        })
        .collect()
}
