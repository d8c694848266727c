//! `bench-diff` — compares benchmark runs of two commits, or summarizes
//! one commit's runs into a baseline.
//!
//! ```text
//! bench-diff compare [--spec BENCHMARK.json] --parent <path>... --change <path>...
//! bench-diff summarize --git-rev <rev> <path>...
//! ```
//!
//! A path is a result file written by `bench --out`, a directory of them,
//! or a baseline written by `summarize` (its raw records are reused).
//! `compare` prints, per workload and metric, both sides' medians and
//! quartiles, the share of pairs the change won, and a verdict (see
//! `diff.rs`). It exits 1 when any end-to-end metric regressed or the
//! change failed a larger share of operations than the parent.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use shapefrag_e2e_bench::diff::{self, compare, group, load_records, load_specs, Record, Verdict};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  bench-diff compare [--spec BENCHMARK.json] --parent <path>... --change <path>...\n  \
         bench-diff summarize --git-rev <rev> <path>..."
    );
    ExitCode::from(2)
}

fn load_all(paths: &[PathBuf]) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for p in paths {
        out.extend(load_records(p)?);
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("summarize") => run_summarize(&args[1..]),
        _ => usage(),
    }
}

fn run_summarize(args: &[String]) -> ExitCode {
    let (mut rev, mut paths) = (None, Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--git-rev" => rev = it.next().cloned(),
            _ => paths.push(PathBuf::from(a)),
        }
    }
    let (Some(rev), false) = (rev, paths.is_empty()) else {
        return usage();
    };
    match load_all(&paths) {
        Ok(records) => {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            println!("{}", diff::summarize(&records, &rev, cores));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench-diff: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_compare(args: &[String]) -> ExitCode {
    let mut spec = PathBuf::from("BENCHMARK.json");
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<PathBuf>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => match it.next() {
                Some(p) => spec = PathBuf::from(p),
                None => return usage(),
            },
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            path => match side.as_deref_mut() {
                Some(s) => s.push(PathBuf::from(path)),
                None => return usage(),
            },
        }
    }
    if parent.is_empty() || change.is_empty() {
        return usage();
    }
    let loaded = (|| {
        Ok::<_, String>((
            load_specs(Path::new(&spec))?,
            load_all(&parent)?,
            load_all(&change)?,
        ))
    })();
    let (specs, parent, change) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench-diff: {e}");
            return ExitCode::from(2);
        }
    };
    let (parent, change) = (group(&parent), group(&change));
    let mut failed = false;
    for (workload, (p_metrics, p_att, p_fail)) in &parent {
        let Some((c_metrics, c_att, c_fail)) = change.get(workload) else {
            println!("{workload}: no change runs");
            continue;
        };
        println!("== {workload}");
        println!(
            "{:<28} {:>26} {:>26} {:>8} {:>6}  verdict",
            "metric", "parent median [q1, q3]", "change median [q1, q3]", "worse", "wins"
        );
        for spec in &specs {
            let (Some(p), Some(c)) = (p_metrics.get(&spec.name), c_metrics.get(&spec.name)) else {
                continue;
            };
            let cmp = compare(p, c, spec.lower_is_better, spec.bound);
            println!(
                "{:<28} {:>26} {:>26} {:>+7.1}% {:>5.0}%  {}",
                format!("{} ({})", spec.name, spec.unit),
                format!(
                    "{:.4} [{:.4}, {:.4}]",
                    cmp.parent_median, cmp.parent_quartiles.0, cmp.parent_quartiles.1
                ),
                format!(
                    "{:.4} [{:.4}, {:.4}]",
                    cmp.change_median, cmp.change_quartiles.0, cmp.change_quartiles.1
                ),
                cmp.worse_by * 100.0,
                cmp.wins * 100.0,
                cmp.verdict.label()
            );
            failed |= cmp.verdict == Verdict::Regressed;
        }
        let frac = |f: u64, a: u64| f as f64 / a.max(1) as f64;
        let (pf, cf) = (frac(*p_fail, *p_att), frac(*c_fail, *c_att));
        println!(
            "error_frac: parent {pf:.4} ({p_fail} of {p_att}), change {cf:.4} ({c_fail} of {c_att}){}",
            if cf > pf { "  HIGHER" } else { "" }
        );
        failed |= cf > pf;
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
