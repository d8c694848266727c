//! # shapefrag-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see `EXPERIMENTS.md` at the workspace root):
//!
//! | binary                      | artifact |
//! |-----------------------------|----------|
//! | `exp_fig1`                  | Figure 1 — provenance-extraction overhead |
//! | `exp_fig2`                  | Figure 2 — provenance via generated SPARQL |
//! | `exp_fig3`                  | Figure 3 — Vardi-distance-3 fragment over DBLP slices |
//! | `exp_query_expressibility`  | §4.1 — 39/46 benchmark queries expressible |
//! | `exp_tpf`                   | Proposition 6.2 — TPF expressibility |
//!
//! Every binary accepts an optional `--scale <f64>` multiplier on the
//! default workload size, `--runs <n>`, and `--out <path>` to choose the
//! JSON result file.
#![forbid(unsafe_code)]

pub mod json;

use std::time::{Duration, Instant};

use json::ToJson;

/// Times a closure, returning (result, elapsed).
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Times a closure `runs` times and returns the mean duration of the runs
/// together with the last result (the paper reports averages over three
/// runs).
pub fn time_avg<T>(runs: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(runs >= 1);
    let mut total = Duration::ZERO;
    let mut last = None;
    for _ in 0..runs {
        let (out, d) = time(&mut f);
        total += d;
        last = Some(out);
    }
    (last.unwrap(), total / runs as u32)
}

/// Simple command-line options shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Workload scale multiplier (1.0 = default size).
    pub scale: f64,
    /// Where to write the JSON results (default `results/<name>.json`).
    pub out: Option<String>,
    /// Runs per measurement.
    pub runs: usize,
}

impl ExpOptions {
    /// Parses `--scale`, `--out`, `--runs` from `std::env::args`.
    pub fn from_args() -> ExpOptions {
        let mut opts = ExpOptions {
            scale: 1.0,
            out: None,
            runs: 3,
        };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    opts.scale = args
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .expect("--scale needs a number");
                    i += 2;
                }
                "--out" => {
                    opts.out = Some(args.get(i + 1).expect("--out needs a path").clone());
                    i += 2;
                }
                "--runs" => {
                    opts.runs = args
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .expect("--runs needs an integer");
                    i += 2;
                }
                other => panic!("unknown argument {other} (expected --scale/--out/--runs)"),
            }
        }
        opts
    }

    /// Scales a base count.
    pub fn scaled(&self, base: usize) -> usize {
        ((base as f64) * self.scale).round().max(1.0) as usize
    }

    /// Writes the results JSON (to `--out` or `results/<name>.json`).
    pub fn write_json<T: ToJson>(&self, name: &str, value: &T) {
        let path = self
            .out
            .clone()
            .unwrap_or_else(|| format!("results/{name}.json"));
        write_json_to(&path, value);
    }
}

/// Writes a `ToJson` value to an explicit path, creating parent dirs.
pub fn write_json_to<T: ToJson>(path: &str, value: &T) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, value.to_json().render())
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("\nresults written to {path}");
}

/// Milliseconds as f64 for reporting.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Renders a plain-text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_measures_something() {
        let (value, d) = time(|| (0..10_000u64).sum::<u64>());
        assert_eq!(value, 49995000);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn time_avg_runs_n_times() {
        let mut count = 0;
        time_avg(3, || count += 1);
        assert_eq!(count, 3);
    }

    #[test]
    fn scaled_rounds_and_floors_at_one() {
        let opts = ExpOptions {
            scale: 0.001,
            out: None,
            runs: 1,
        };
        assert_eq!(opts.scaled(100), 1);
        let opts = ExpOptions {
            scale: 2.0,
            out: None,
            runs: 1,
        };
        assert_eq!(opts.scaled(100), 200);
    }
}
