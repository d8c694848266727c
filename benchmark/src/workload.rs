//! The four workloads and the seeded inputs each one hands the program.
//!
//! Every input is a file the benchmark writes before timing; the program
//! only ever sees those files (and, for the server, HTTP requests built
//! from them).

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use shapefrag_core::to_sparql::fragment_query;
use shapefrag_core::{EditOp, EditScript};
use shapefrag_rdf::{ntriples, turtle, Graph, Literal, Term, Triple};
use shapefrag_shacl::parser::parse_shapes_turtle_with_spans;
use shapefrag_shacl::writer::{schema_to_shapes_graph_strict, schema_to_turtle};
use shapefrag_shacl::{PathExpr, Schema, Shape, ShapeDef};
use shapefrag_workloads::dblp::{
    authored_by, hub_author, vardi_shape, year_prop, Bibliography, DblpConfig, DBLP_NS,
};
use shapefrag_workloads::shapes57::benchmark_schema;
use shapefrag_workloads::tyrolean::{generate, TyroleanConfig};

/// Which user path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `shapefrag validate` / `fragment` subprocesses on the tourism graph
    /// with the 57-shape suite.
    CliTyrolean,
    /// The same subprocesses on a DBLP slice with the Vardi distance-3
    /// shape (RPQ-bound, parse-light).
    CliDblp,
    /// `shapefrag serve`, read-only mix: validate, single-shape fragment,
    /// generated SPARQL.
    ServeRead,
    /// `shapefrag serve`, writes beside reads: update, compact, validate,
    /// single-shape fragment.
    ServeIngest,
}

pub const ALL: [Workload; 4] = [
    Workload::CliTyrolean,
    Workload::CliDblp,
    Workload::ServeRead,
    Workload::ServeIngest,
];

/// Tourism individuals for the CLI workload (≈22.7k triples).
const CLI_TYROLEAN_INDIVIDUALS: usize = 4_000;
/// Tourism individuals for both server workloads (≈6.8k triples).
const SERVE_INDIVIDUALS: usize = 1_200;
/// Edits per `/update` script: ≈0.1% of the server's graph.
pub const EDITS_PER_SCRIPT: usize = 7;
/// The shapes whose generated fragment queries `/sparql` runs.
const SPARQL_SHAPES: [&str; 4] = ["S57-", "S19-", "S22-", "S17-"];
const SHAPES_NS: &str = "http://tkg.example.org/shapes/";

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::CliTyrolean => "cli-tyrolean",
            Workload::CliDblp => "cli-dblp",
            Workload::ServeRead => "serve-read",
            Workload::ServeIngest => "serve-ingest",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_cli(self) -> bool {
        matches!(self, Workload::CliTyrolean | Workload::CliDblp)
    }
}

/// The generated inputs of one workload, on disk and parsed back the way
/// the program parses them.
pub struct Inputs {
    pub workload: Workload,
    pub dir: PathBuf,
    pub shapes_path: PathBuf,
    pub data_path: PathBuf,
    /// A data file with no triples: the CLI start-up probe.
    pub empty_path: PathBuf,
    pub shapes_text: String,
    pub data_text: String,
    /// The data graph as the program parses it.
    pub graph: Graph,
    /// The schema as the program parses it.
    pub schema: Schema,
    /// Top-level shape names single-shape `/fragment` requests draw from.
    pub fragment_names: Vec<Term>,
    /// Generated fragment queries (`shapefrag translate` output).
    pub queries: Vec<String>,
    /// Effective edit scripts, in order: each removes resident triples
    /// and adds absent ones relative to the graph after its predecessors.
    pub scripts: Vec<EditScript>,
}

/// A 64-bit mix of the run seed with a per-purpose salt, so the inputs
/// of different workloads and generators are independent.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Writes the workload's inputs under `dir` and parses them back.
pub fn build_inputs(workload: Workload, seed: u64, dir: &Path, scripts: usize) -> Inputs {
    std::fs::create_dir_all(dir).expect("create the workload directory");
    let (shapes_text, data_text, data_name, top_level) = match workload {
        Workload::CliDblp => {
            let schema = vardi_schema(3);
            let shapes = turtle::serialize(
                &schema_to_shapes_graph_strict(&schema).expect("objects-of is a SHACL target"),
                &[("sh", shapefrag_rdf::vocab::SH_NS)],
            );
            let data = ntriples::serialize(&relabelled_dblp(derive_seed(seed, 2)));
            let names = schema.iter().map(|d| d.name.clone()).collect();
            (shapes, data, "dblp.nt", names)
        }
        _ => {
            let individuals = if workload == Workload::CliTyrolean {
                CLI_TYROLEAN_INDIVIDUALS
            } else {
                SERVE_INDIVIDUALS
            };
            let graph = generate(&TyroleanConfig::new(individuals, derive_seed(seed, 1)));
            let schema = benchmark_schema();
            let names = schema.iter().map(|d| d.name.clone()).collect();
            (
                schema_to_turtle(&schema),
                turtle::serialize(&graph, &[]),
                "data.ttl",
                names,
            )
        }
    };
    let shapes_path = dir.join("shapes.ttl");
    let data_path = dir.join(data_name);
    let empty_path = dir.join(if data_name.ends_with(".nt") {
        "empty.nt"
    } else {
        "empty.ttl"
    });
    std::fs::write(&shapes_path, &shapes_text).expect("write shapes");
    std::fs::write(&data_path, &data_text).expect("write data");
    std::fs::write(&empty_path, "").expect("write empty data");

    let graph = parse_data(&data_path, &data_text);
    let (schema, _) =
        parse_shapes_turtle_with_spans(&shapes_text).expect("generated shapes parse back");
    let request = |schema: &Schema, d: &ShapeDef| {
        fragment_query(schema, &[d.shape.clone().and(d.target.clone())]).to_string()
    };
    let queries = if workload == Workload::CliDblp {
        // The generated query for distance 3 does not finish within a
        // minute (the paper's Fig. 3 finding); distance 1 does.
        let d1 = vardi_schema(1);
        d1.iter().map(|d| request(&d1, d)).collect()
    } else {
        SPARQL_SHAPES
            .iter()
            .filter_map(|prefix| {
                let prefix = format!("{SHAPES_NS}{prefix}");
                schema
                    .iter()
                    .find(|d| matches!(&d.name, Term::Iri(i) if i.as_str().starts_with(&prefix)))
            })
            .map(|d| request(&schema, d))
            .collect()
    };
    let scripts = edit_scripts(&graph, scripts, derive_seed(seed, 3));
    Inputs {
        workload,
        dir: dir.to_path_buf(),
        shapes_path,
        data_path,
        empty_path,
        shapes_text,
        data_text,
        graph,
        schema,
        fragment_names: top_level,
        queries,
        scripts,
    }
}

/// One definition: the Vardi distance-`k` shape `≥1 (authoredBy⁻/authoredBy)^k.hasValue(hub)`
/// targeted at the objects of `authoredBy` (Fig. 3).
fn vardi_schema(k: usize) -> Schema {
    let name = Term::iri(format!("{SHAPES_NS}Vardi{k}"));
    let target = Shape::geq(1, PathExpr::Prop(authored_by()).inverse(), Shape::True);
    Schema::new([ShapeDef::new(name, vardi_shape(k), target)]).expect("one nonrecursive definition")
}

/// The 2010–2021 DBLP slice with 96 papers and 52 new authors per year.
///
/// The co-authorship structure comes from one fixed generator seed: the
/// RPQ cost of preferential-attachment graphs differs by ±15% between
/// generator seeds, more than the metric bounds. The run seed instead
/// permutes the paper and author IRIs (the hub keeps its name), so every
/// seed hands the program different terms, file order and hash layout
/// over the same structure.
fn relabelled_dblp(seed: u64) -> Graph {
    let bib = Bibliography::generate(&DblpConfig {
        first_year: 2010,
        last_year: 2021,
        papers_per_year: 96,
        new_authors_per_year: 52,
        ..DblpConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let mut authors: Vec<usize> = (1..bib.author_count).collect();
    authors.shuffle(&mut rng);
    let mut papers: Vec<usize> = (0..bib.papers.len()).collect();
    papers.shuffle(&mut rng);
    let author = |i: usize| {
        if i == 0 {
            hub_author()
        } else {
            Term::iri(format!("{DBLP_NS}author/a{}", authors[i - 1]))
        }
    };
    let mut g = Graph::new();
    for paper in &bib.papers {
        let p = Term::iri(format!("{DBLP_NS}rec/{}", papers[paper.id]));
        g.insert(Triple::new(
            p.clone(),
            year_prop(),
            Term::Literal(Literal::integer(i64::from(paper.year))),
        ));
        for &a in &paper.authors {
            g.insert(Triple::new(p.clone(), authored_by(), author(a)));
        }
    }
    g
}

/// Parses a data file with the parser the CLI picks for its extension.
pub fn parse_data(path: &Path, text: &str) -> Graph {
    if path.extension().is_some_and(|x| x == "nt") {
        ntriples::parse(text).expect("generated N-Triples parse")
    } else {
        turtle::parse(text).expect("generated Turtle parses")
    }
}

/// `count` effective scripts of [`EDITS_PER_SCRIPT`] edits each, built as
/// the incremental experiment builds them: half retract resident
/// triples, half assert absent triples recombined from resident terms.
/// Each script is effective against the graph its predecessors leave.
pub fn edit_scripts(graph: &Graph, count: usize, seed: u64) -> Vec<EditScript> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = graph.clone();
    let mut resident: Vec<Triple> = graph.iter().collect();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let mut ops = Vec::with_capacity(EDITS_PER_SCRIPT);
        for _ in 0..EDITS_PER_SCRIPT / 2 {
            let t = resident.swap_remove(rng.gen_range(0..resident.len()));
            current.remove(&t);
            ops.push(EditOp::Remove(t));
        }
        while ops.len() < EDITS_PER_SCRIPT {
            let pick = |rng: &mut StdRng| resident[rng.gen_range(0..resident.len())].clone();
            let (s, p, o) = (pick(&mut rng), pick(&mut rng), pick(&mut rng));
            let t = Triple::new(s.subject, p.predicate, o.object);
            if current.insert(t.clone()) {
                resident.push(t.clone());
                ops.push(EditOp::Add(t));
            }
        }
        out.push(EditScript::new(ops));
    }
    out
}

/// The `/update` body for a script: one signed N-Triples line per edit.
pub fn script_text(script: &EditScript) -> String {
    script
        .ops
        .iter()
        .map(|op| match op {
            EditOp::Add(t) => format!("+ {t}\n"),
            EditOp::Remove(t) => format!("- {t}\n"),
        })
        .collect()
}

/// Replays scripts onto a copy of `graph`.
pub fn replay(graph: &Graph, scripts: &[EditScript]) -> Graph {
    let mut g = graph.clone();
    for op in scripts.iter().flat_map(|s| &s.ops) {
        match op {
            EditOp::Add(t) => g.insert(t.clone()),
            EditOp::Remove(t) => g.remove(t),
        };
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_effective_in_sequence() {
        let graph = generate(&TyroleanConfig::new(60, 5));
        let scripts = edit_scripts(&graph, 20, 9);
        let mut g = graph.clone();
        for s in &scripts {
            assert_eq!(s.len(), EDITS_PER_SCRIPT);
            for op in &s.ops {
                match op {
                    EditOp::Add(t) => assert!(g.insert(t.clone()), "add of a present triple"),
                    EditOp::Remove(t) => assert!(g.remove(t), "removal of an absent triple"),
                }
            }
        }
        assert_eq!(g, replay(&graph, &scripts));
        let text = script_text(&scripts[0]);
        assert_eq!(
            EditScript::parse(&text).expect("script text parses"),
            scripts[0]
        );
    }

    #[test]
    fn derived_seeds_differ_by_salt_and_repeat() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }
}
