//! End-to-end benchmark of the `shapefrag` program.
//!
//! The plain run treats the shipped binary as a black box: it writes
//! seeded inputs, drives `shapefrag validate` / `fragment` subprocesses or
//! a `shapefrag serve` process over HTTP, checks every output against an
//! in-process oracle, and reports the end-to-end metrics. The traced run
//! times calls into each layer's public functions from outside and
//! reports per-layer numbers. See `BENCHMARK.md`.

pub mod diff;
pub mod json;
pub mod layers;
pub mod load;
pub mod oracle;
pub mod plain;
pub mod proc;
pub mod stats;
pub mod trace;
pub mod workload;

use json::Json;

/// What one run produced: the result line plus notes for people.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` in report order.
    pub metrics: Vec<(String, String, f64)>,
    pub notes: Vec<String>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl Outcome {
    pub fn metric(&mut self, name: &str, unit: &str, value: f64) {
        self.metrics
            .push((name.to_string(), unit.to_string(), value));
    }

    pub fn note(&mut self, line: &str) {
        self.notes.push(line.to_string());
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, unit, value)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("value", Json::from(*value)),
                                    ("unit", Json::from(unit.as_str())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}
