//! Comparing runs: the verdict rules behind `bench-diff`, and the
//! summary format of the committed baseline.
//!
//! A side is N runs of one workload. For each metric the change is
//! - **improved** when, over at least [`MIN_PAIRS_FOR_GAIN`] pairs, it
//!   wins at least nine tenths of them (ties count for neither) and the
//!   medians differ by more than the parent's interquartile range;
//! - **regressed** when its median is worse than the parent's by more than
//!   the metric's bound, and the runs are steady enough to say so;
//! - **unresolved** when either side's spread (IQR over median) is wider
//!   than the bound, unless every change run beats every parent run;
//! - **unchanged** otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::stats::{median, quartiles, relative_spread};

/// Fewer pairs cannot show a gain: on a drifting host a handful of runs
/// of the same code win every pair by chance.
pub const MIN_PAIRS_FOR_GAIN: usize = 10;

/// One run's result, as `bench --out` writes it.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Record {
    pub fn from_json(v: &Json) -> Option<Record> {
        let result = v.get("result")?;
        let metrics = result
            .get("metrics")?
            .as_obj()?
            .iter()
            .map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect::<Option<_>>()?;
        Some(Record {
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_f64()? as u64,
            trace: v.get("trace")?.as_bool()?,
            attempted: result.get("attempted")?.as_f64()? as u64,
            failed: result.get("failed")?.as_f64()? as u64,
            metrics,
        })
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            ("seed", Json::from(self.seed)),
            ("trace", Json::from(self.trace)),
            (
                "result",
                Json::obj([
                    ("attempted", Json::from(self.attempted)),
                    ("failed", Json::from(self.failed)),
                    (
                        "metrics",
                        Json::Obj(
                            self.metrics
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::obj([("value", Json::from(*v))])))
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }
}

/// Reads records from a `bench --out` file, a baseline summary (its
/// `records`), or every `.json` file of a directory.
pub fn load_records(path: &Path) -> Result<Vec<Record>, String> {
    if path.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        entries.sort();
        let mut out = Vec::new();
        for p in entries {
            out.extend(load_records(&p)?);
        }
        return Ok(out);
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = || format!("{}: not a bench result or baseline", path.display());
    match v.get("records") {
        Some(records) => records
            .as_arr()
            .ok_or_else(bad)?
            .iter()
            .map(|r| Record::from_json(r).ok_or_else(bad))
            .collect(),
        None => Ok(vec![Record::from_json(&v).ok_or_else(bad)?]),
    }
}

/// A metric's direction and bound, from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

/// The end-to-end and per-layer metric specs of a `BENCHMARK.json`.
pub fn load_specs(path: &Path) -> Result<Vec<MetricSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for m in v.get(key).and_then(Json::as_arr).unwrap_or_default() {
            out.push(MetricSpec {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .into(),
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .into(),
                lower_is_better: m.get("better").and_then(Json::as_str) != Some("higher"),
                bound: m.get("bound").and_then(Json::as_f64),
            });
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
    /// A per-layer metric: compared, never judged.
    Info,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// One metric on one workload, parent against change.
#[derive(Debug, Clone)]
pub struct Comparison {
    pub parent_median: f64,
    pub parent_quartiles: (f64, f64),
    pub change_median: f64,
    pub change_quartiles: (f64, f64),
    /// Share of pairs the change won; ties count for neither side.
    pub wins: f64,
    /// How much worse the change's median is, as a share of the parent's
    /// (negative when better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// Compares paired runs (`parent[i]` against `change[i]`).
pub fn compare(
    parent: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: Option<f64>,
) -> Comparison {
    assert!(
        !parent.is_empty() && !change.is_empty(),
        "compare needs runs on both sides"
    );
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let won = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let wins = won as f64 / pairs as f64;
    let (pm, cm) = (median(parent), median(change));
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (cm - pm) / pm.abs().max(f64::MIN_POSITIVE);
    let pq = quartiles(parent);
    let verdict = match bound {
        None => Verdict::Info,
        Some(bound) => {
            let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
            let all_worse = change.iter().all(|c| parent.iter().all(|p| better(*p, *c)));
            let noisy = relative_spread(parent).max(relative_spread(change)) > bound;
            if pairs >= MIN_PAIRS_FOR_GAIN
                && wins >= 0.9
                && (cm - pm).abs() > pq.1 - pq.0
                && better(cm, pm)
            {
                Verdict::Improved
            } else if worse_by > bound && (!noisy || all_worse) {
                Verdict::Regressed
            } else if noisy && !all_better {
                Verdict::Unresolved
            } else {
                Verdict::Unchanged
            }
        }
    };
    Comparison {
        parent_median: pm,
        parent_quartiles: pq,
        change_median: cm,
        change_quartiles: quartiles(change),
        wins,
        worse_by,
        verdict,
    }
}

/// Per workload: `(seed-sorted values per metric, attempted, failed)`.
pub type Grouped = BTreeMap<String, (BTreeMap<String, Vec<f64>>, u64, u64)>;

/// Groups records by workload, each metric's values ordered by seed so
/// that two sides run on the same seeds pair up run for run.
pub fn group(records: &[Record]) -> Grouped {
    let mut sorted: Vec<&Record> = records.iter().collect();
    sorted.sort_by_key(|r| (r.workload.clone(), r.trace, r.seed));
    let mut out: Grouped = BTreeMap::new();
    for r in sorted {
        let entry = out.entry(r.workload.clone()).or_default();
        for (k, v) in &r.metrics {
            entry.0.entry(k.clone()).or_default().push(*v);
        }
        if !r.trace {
            entry.1 += r.attempted;
            entry.2 += r.failed;
        }
    }
    out
}

/// Median, minimum and quartiles of every metric per workload, plus the
/// raw records, as the committed baseline stores them.
pub fn summarize(records: &[Record], git_rev: &str, host_cores: usize) -> Json {
    let grouped = group(records);
    // Plain runs per workload: the number of sets when every workload ran
    // once per set.
    let mut per_workload: BTreeMap<&str, usize> = BTreeMap::new();
    for r in records.iter().filter(|r| !r.trace) {
        *per_workload.entry(&r.workload).or_default() += 1;
    }
    let runs = per_workload.values().copied().min().unwrap_or(0);
    let workloads = grouped
        .iter()
        .map(|(w, (metrics, attempted, failed))| {
            let stats = metrics
                .iter()
                .map(|(name, values)| {
                    let (q1, q3) = quartiles(values);
                    (
                        name.clone(),
                        Json::obj([
                            ("median", Json::from(median(values))),
                            (
                                "min",
                                Json::from(values.iter().copied().fold(f64::INFINITY, f64::min)),
                            ),
                            ("q1", Json::from(q1)),
                            ("q3", Json::from(q3)),
                            ("runs", Json::from(values.len())),
                        ]),
                    )
                })
                .collect();
            (
                w.clone(),
                Json::obj([
                    ("attempted", Json::from(*attempted)),
                    ("failed", Json::from(*failed)),
                    ("metrics", Json::Obj(stats)),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("git_rev", Json::from(git_rev)),
        ("host_cores", Json::from(host_cores)),
        ("runs", Json::from(runs)),
        ("workloads", Json::Obj(workloads)),
        (
            "records",
            Json::Arr(records.iter().map(Record::to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];

    fn scaled(k: f64) -> Vec<f64> {
        STEADY.iter().map(|v| v * k).collect()
    }

    #[test]
    fn steady_and_within_bound_is_unchanged() {
        let c = compare(&STEADY, &scaled(1.03), true, Some(0.10));
        assert_eq!(c.verdict, Verdict::Unchanged);
        assert!((c.worse_by - 0.03).abs() < 1e-3);
        assert_eq!(c.wins, 0.0);
    }

    #[test]
    fn worse_by_more_than_the_bound_is_regressed() {
        let c = compare(&STEADY, &scaled(1.2), true, Some(0.10));
        assert_eq!(c.verdict, Verdict::Regressed);
        // Direction matters: for a higher-is-better metric a drop regresses.
        let c = compare(&STEADY, &scaled(0.8), false, Some(0.10));
        assert_eq!(c.verdict, Verdict::Regressed);
    }

    #[test]
    fn winning_nine_tenths_beyond_the_parent_spread_is_improved() {
        let c = compare(&STEADY, &scaled(0.9), true, Some(0.10));
        assert_eq!(c.verdict, Verdict::Improved);
        assert_eq!(c.wins, 1.0);
        // Winning every pair by less than the parent's spread is not a gain.
        let c = compare(&STEADY, &scaled(0.9995), true, Some(0.10));
        assert_eq!(c.verdict, Verdict::Unchanged);
        // Nor is winning every one of too few pairs.
        let c = compare(&STEADY[..5], &scaled(0.9)[..5], true, Some(0.10));
        assert_eq!((c.wins, c.verdict), (1.0, Verdict::Unchanged));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [
            70.0, 130.0, 90.0, 110.0, 80.0, 120.0, 100.0, 95.0, 105.0, 100.0,
        ];
        let c = compare(&STEADY, &noisy, true, Some(0.10));
        assert_eq!(c.verdict, Verdict::Unresolved);
        // ...even when its median is far worse: noise cannot show it.
        let worse: Vec<f64> = noisy.iter().map(|v| v * 1.15).collect();
        assert_eq!(
            compare(&STEADY, &worse, true, Some(0.10)).verdict,
            Verdict::Unresolved
        );
        // Unless every change run beats every parent run.
        let better: Vec<f64> = noisy.iter().map(|v| v * 0.3).collect();
        assert_ne!(
            compare(&STEADY, &better, true, Some(0.10)).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn per_layer_metrics_get_no_verdict() {
        assert_eq!(
            compare(&STEADY, &scaled(2.0), true, None).verdict,
            Verdict::Info
        );
    }

    #[test]
    fn records_round_trip_and_group_by_seed() {
        let rec = |seed: u64, v: f64| Record {
            workload: "cli-dblp".into(),
            seed,
            trace: false,
            attempted: 10,
            failed: 1,
            metrics: BTreeMap::from([("setup_s".to_string(), v)]),
        };
        let records = vec![rec(2, 0.2), rec(1, 0.1)];
        let back = Record::from_json(&records[0].to_json()).expect("round trip");
        assert_eq!(back.metrics, records[0].metrics);
        let grouped = group(&records);
        let (metrics, attempted, failed) = &grouped["cli-dblp"];
        assert_eq!(metrics["setup_s"], vec![0.1, 0.2]);
        assert_eq!((*attempted, *failed), (20, 2));
        let summary = summarize(&records, "abc", 2);
        assert_eq!(summary.get("runs").and_then(Json::as_f64), Some(2.0));
        let reread: Vec<Record> = summary
            .get("records")
            .and_then(Json::as_arr)
            .expect("records")
            .iter()
            .filter_map(Record::from_json)
            .collect();
        assert_eq!(reread.len(), 2);
    }
}
