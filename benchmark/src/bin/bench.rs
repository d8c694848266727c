//! `bench` — one run of one workload.
//!
//! ```text
//! bench --workload <cli-tyrolean|cli-dblp|serve-read|serve-ingest>
//!       --seed <n> --seconds <s> --trace <0|1> [--out <result.json>]
//! ```
//!
//! Runs from the root of a checkout after `benchmark/run.sh` has built
//! `shapefrag`; all files it writes live under `.bench_work/`. Human-readable
//! notes go to stdout first; the last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A wrong
//! output makes the run exit 1 after printing `"correct": false`.

use std::path::PathBuf;
use std::process::ExitCode;

use shapefrag_e2e_bench::json::Json;
use shapefrag_e2e_bench::workload::{build_inputs, Workload};
use shapefrag_e2e_bench::{layers, oracle, plain, Outcome};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds takes a number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let program = PathBuf::from(target).join("release").join("shapefrag");
    if !program.is_file() {
        eprintln!(
            "bench: {} is missing; run benchmark/run.sh, which builds it",
            program.display()
        );
        return ExitCode::from(2);
    }
    let name = args.workload.name();
    let dir =
        PathBuf::from(".bench_work").join(format!("{name}-s{}-p{}", args.seed, std::process::id()));
    let scripts = if args.workload == Workload::ServeIngest {
        plain::scripts_needed(args.seconds)
    } else {
        layers::PROBE_SCRIPTS
    };
    let inputs = build_inputs(args.workload, args.seed, &dir, scripts);
    let oracle = oracle::compute(&inputs);
    println!(
        "# {name} seed={} seconds={} trace={}: {} triples, {} shape definitions, \
         {} checks, {} violations, fragment of {} triples",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs.graph.len(),
        inputs.schema.len(),
        oracle.report.checked,
        oracle.report.violations,
        oracle.fragment_triples
    );
    let outcome: Outcome = if args.trace {
        layers::traced(&program, &inputs, &oracle, args.seed, args.seconds)
    } else if args.workload.is_cli() {
        plain::cli(&program, &inputs, &oracle, args.seconds)
    } else {
        plain::serve(&program, &inputs, &oracle, args.seed, args.seconds)
    };
    let _ = std::fs::remove_dir_all(&dir);

    for note in &outcome.notes {
        println!("# {note}");
    }
    for (metric, unit, value) in &outcome.metrics {
        println!("# {metric} = {value:.4} {unit}");
    }
    let result = outcome.result_json();
    if let Some(path) = &args.out {
        let record = Json::obj([
            ("workload", Json::from(name)),
            ("seed", Json::from(args.seed)),
            ("trace", Json::from(args.trace)),
            ("result", result.clone()),
        ]);
        if let Err(e) = std::fs::write(path, format!("{record}\n")) {
            eprintln!("bench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{result}");
    if outcome.correct && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
