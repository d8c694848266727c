//! Expected outputs, computed in-process from the same input files the
//! program reads. A measured output that disagrees fails the run.

use shapefrag_core::{fragment, validate_extract_fragment};
use shapefrag_rdf::{ntriples, Graph, Term};
use shapefrag_shacl::validator::{validate_batch, ValidationReport};
use shapefrag_shacl::Schema;
use shapefrag_sparql::eval::{eval_select, EvalConfig};
use shapefrag_sparql::parser::parse_select;

use crate::json::Json;
use crate::load::fnv1a;
use crate::workload::Inputs;

/// A validation report reduced to what survives re-interning: the check
/// count and the sorted `(shape, focus)` violations, hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportDigest {
    pub checked: u64,
    pub violations: u64,
    pub hash: u64,
}

impl ReportDigest {
    pub fn of_report(report: &ValidationReport) -> ReportDigest {
        digest(
            report.checked as u64,
            report
                .violations
                .iter()
                .map(|v| format!("{}|{}", v.shape, v.focus))
                .collect(),
        )
    }

    /// Reads the digest off a `/validate` (or `/update` `report`) body.
    pub fn of_json(body: &Json) -> Option<ReportDigest> {
        let checked = body.get("checked")?.as_f64()? as u64;
        let lines = body
            .get("violations")?
            .as_arr()?
            .iter()
            .map(|v| {
                Some(format!(
                    "{}|{}",
                    v.get("shape")?.as_str()?,
                    v.get("focus")?.as_str()?
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(digest(checked, lines))
    }
}

fn digest(checked: u64, mut lines: Vec<String>) -> ReportDigest {
    lines.sort();
    ReportDigest {
        checked,
        violations: lines.len() as u64,
        hash: fnv1a(lines.join("\n").as_bytes()),
    }
}

/// What every measured operation of a workload must return.
pub struct Oracle {
    /// `shapefrag validate`: exit code and a hash of stdout.
    pub cli_validate_code: i32,
    pub cli_validate_stdout: u64,
    /// `shapefrag fragment -o`: a hash of the written N-Triples.
    pub cli_fragment: u64,
    pub fragment_triples: usize,
    /// `/validate` on the resident graph.
    pub report: ReportDigest,
    /// Single-shape `/fragment` body hash per fragment name.
    pub shape_fragments: Vec<u64>,
    /// `/sparql` row count per generated query.
    pub sparql_rows: Vec<usize>,
}

/// Computes the oracle once, before anything is timed.
pub fn compute(inputs: &Inputs) -> Oracle {
    let frozen = inputs.graph.freeze();
    let schema = &inputs.schema;
    let report = validate_batch(schema, &frozen);
    let (_, extracted) = validate_extract_fragment(schema, &frozen);
    let frag_text = ntriples::serialize(&extracted.to_graph(&frozen));
    let serve = !inputs.workload.is_cli();
    Oracle {
        cli_validate_code: if report.conforms() { 0 } else { 1 },
        cli_validate_stdout: fnv1a(format!("{report}\n").as_bytes()),
        cli_fragment: fnv1a(frag_text.as_bytes()),
        fragment_triples: extracted.len(),
        report: ReportDigest::of_report(&report),
        shape_fragments: if serve {
            shape_fragment_hashes(schema, &inputs.graph, &inputs.fragment_names)
        } else {
            Vec::new()
        },
        sparql_rows: if serve {
            inputs
                .queries
                .iter()
                .map(|q| {
                    let query = parse_select(q).expect("generated query parses");
                    eval_select(&frozen, &query, &EvalConfig::indexed())
                        .expect("unbounded evaluation")
                        .len()
                })
                .collect()
        } else {
            Vec::new()
        },
    }
}

/// The `/fragment` body hash for each named top-level shape.
pub fn shape_fragment_hashes(schema: &Schema, graph: &Graph, names: &[Term]) -> Vec<u64> {
    let frozen = graph.freeze();
    names
        .iter()
        .map(|name| {
            let def = schema
                .get(name)
                .expect("fragment names are top-level shapes");
            let shape = def.shape.clone().and(def.target.clone());
            fnv1a(ntriples::serialize(&fragment(schema, &frozen, &[shape])).as_bytes())
        })
        .collect()
}

/// Rows in a `/sparql` JSON body.
pub fn sparql_rows(body: &Json) -> Option<usize> {
    Some(body.get("results")?.get("bindings")?.as_arr()?.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn digest_ignores_violation_order() {
        let a = json::parse(
            r#"{"checked":3,"violations":[{"shape":"s","focus":"a"},{"shape":"s","focus":"b"}]}"#,
        )
        .expect("valid");
        let b = json::parse(
            r#"{"checked":3,"violations":[{"shape":"s","focus":"b"},{"shape":"s","focus":"a"}]}"#,
        )
        .expect("valid");
        let da = ReportDigest::of_json(&a).expect("digest");
        assert_eq!(Some(da), ReportDigest::of_json(&b));
        assert_eq!(da.violations, 2);
        let c = json::parse(r#"{"checked":4,"violations":[]}"#).expect("valid");
        assert_ne!(Some(da), ReportDigest::of_json(&c));
    }
}
