//! End-to-end tests for the `shapefrag` command-line interface, driving the
//! compiled binary against files on disk.

use std::path::PathBuf;
use std::process::{Command, Output};

fn write_file(dir: &std::path::Path, name: &str, content: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write fixture");
    path
}

fn shapefrag(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_shapefrag"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn fixtures() -> (tempdir::TempDir, PathBuf, PathBuf) {
    let dir = tempdir::TempDir::new();
    let shapes = write_file(
        dir.path(),
        "shapes.ttl",
        r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
ex:PaperShape a sh:NodeShape ;
  sh:targetClass ex:Paper ;
  sh:property [ sh:path ex:author ; sh:minCount 1 ] .
"#,
    );
    let data = write_file(
        dir.path(),
        "data.ttl",
        r#"
@prefix ex: <http://example.org/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:good rdf:type ex:Paper ; ex:author ex:ann .
ex:bad rdf:type ex:Paper .
ex:noise ex:p ex:q .
"#,
    );
    (dir, shapes, data)
}

/// Minimal self-cleaning temp dir (no external crates).
mod tempdir {
    use std::path::{Path, PathBuf};

    pub struct TempDir(PathBuf);

    impl TempDir {
        pub fn new() -> TempDir {
            let path = std::env::temp_dir().join(format!(
                "shapefrag-cli-test-{}-{:?}",
                std::process::id(),
                std::thread::current().id(),
            ));
            std::fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }

        pub fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[test]
fn validate_reports_violations_and_exit_code() {
    let (_dir, shapes, data) = fixtures();
    let out = shapefrag(&["validate", shapes.to_str().unwrap(), data.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "violations → exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("http://example.org/bad"), "{stdout}");
    assert!(!stdout.contains("http://example.org/good"));
}

#[test]
fn validate_emits_turtle_report() {
    let (_dir, shapes, data) = fixtures();
    let out = shapefrag(&[
        "validate",
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        "--report-ttl",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sh:ValidationReport"), "{stdout}");
    assert!(stdout.contains("sh:focusNode"), "{stdout}");
    // The emitted Turtle parses back.
    shape_fragments::rdf::turtle::parse(&stdout).expect("report parses");
}

#[test]
fn fragment_writes_ntriples_subset() {
    let (dir, shapes, data) = fixtures();
    let out_path = dir.path().join("frag.nt");
    let out = shapefrag(&[
        "fragment",
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        "-o",
        out_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&out_path).expect("fragment file");
    let frag = shape_fragments::rdf::ntriples::parse(&text).expect("fragment parses");
    // good's type + author triples; nothing about noise.
    assert_eq!(frag.len(), 2);
    assert!(text.contains("http://example.org/author"));
    assert!(!text.contains("noise"));
}

#[test]
fn explain_prints_evidence() {
    let (_dir, shapes, data) = fixtures();
    let out = shapefrag(&[
        "explain",
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        "http://example.org/good",
        "http://example.org/PaperShape",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("conforms to"), "{stdout}");
    assert!(
        stdout.contains("ex") || stdout.contains("author"),
        "{stdout}"
    );
}

#[test]
fn translate_emits_parseable_sparql() {
    let (_dir, shapes, _) = fixtures();
    let out = shapefrag(&["translate", shapes.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    shape_fragments::sparql::parser::parse_select(&stdout).expect("generated query parses");
}

#[test]
fn analyze_reports_findings_with_exit_codes() {
    let (dir, shapes, _data) = fixtures();
    // A clean schema: exit 0.
    let out = shapefrag(&["analyze", shapes.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "clean schema → exit 0");
    // A contradictory schema: the findings print and the exit code is 3,
    // distinct from the engine-error code 2.
    let bad = write_file(
        dir.path(),
        "bad.ttl",
        r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
ex:PaperShape a sh:NodeShape ;
  sh:targetClass ex:Paper ;
  sh:property [ sh:path ex:author ; sh:minCount 2 ; sh:maxCount 1 ] .
"#,
    );
    let out = shapefrag(&["analyze", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "deny findings → exit 3");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SF-E002"), "{stdout}");
    assert!(stdout.contains("deny"), "{stdout}");
    // JSON output carries the same findings.
    let out = shapefrag(&["analyze", bad.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"SF-E002\""));
}

#[test]
fn analyze_containment_prints_matrix_and_findings() {
    let dir = tempdir::TempDir::new();
    let shapes = write_file(
        dir.path(),
        "shapes.ttl",
        r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
ex:OneAuthor a sh:NodeShape ;
  sh:targetClass ex:Paper ;
  sh:property [ sh:path ex:author ; sh:minCount 1 ] .
ex:TwoAuthors a sh:NodeShape ;
  sh:targetClass ex:Paper ;
  sh:property [ sh:path ex:author ; sh:minCount 2 ] .
"#,
    );
    // Text mode: subsumption findings plus the rendered matrix.
    let out = shapefrag(&["analyze", shapes.to_str().unwrap(), "--containment"]);
    assert_eq!(out.status.code(), Some(0), "warnings never gate analyze");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SF-W031"), "{stdout}");
    assert!(
        stdout.contains("ex:TwoAuthors") || stdout.contains("TwoAuthors> \u{2291}"),
        "matrix line for the ≥2 ⊑ ≥1 edge missing: {stdout}"
    );
    assert!(stdout.contains("proper containment(s)"), "{stdout}");
    // JSON mode: diagnostics and matrix under stable keys.
    let out = shapefrag(&[
        "analyze",
        shapes.to_str().unwrap(),
        "--containment",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"diagnostics\""), "{stdout}");
    assert!(stdout.contains("\"containment\""), "{stdout}");
    assert!(stdout.contains("\"SF-W031\""), "{stdout}");
    assert!(stdout.contains("\"fingerprint\""), "{stdout}");
    // An unknown flag is still a usage error.
    let out = shapefrag(&["analyze", shapes.to_str().unwrap(), "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn deny_findings_gate_validation() {
    let (dir, _shapes, data) = fixtures();
    let bad = write_file(
        dir.path(),
        "bad.ttl",
        r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
ex:PaperShape a sh:NodeShape ;
  sh:targetClass ex:Paper ;
  sh:property [ sh:path ex:author ; sh:minCount 2 ; sh:maxCount 1 ] .
"#,
    );
    let out = shapefrag(&["validate", bad.to_str().unwrap(), data.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "contradictory shapes graph is rejected before validation"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("SF-E002"), "{stderr}");
}

#[test]
fn help_documents_exit_codes() {
    let out = shapefrag(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("analyze"), "{stdout}");
    assert!(stdout.contains("exit codes"), "{stdout}");
    assert!(stdout.contains('3'), "{stdout}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = shapefrag(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn missing_file_is_reported() {
    let out = shapefrag(&[
        "validate",
        "/nonexistent/shapes.ttl",
        "/nonexistent/data.ttl",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn governed_validate_honors_budget_and_exit_code() {
    let (_dir, shapes, data) = fixtures();
    // A generous budget changes nothing: same verdicts, same exit code.
    let out = shapefrag(&[
        "validate",
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        "--budget-steps",
        "1000000",
        "--deadline-ms",
        "60000",
    ]);
    assert_eq!(out.status.code(), Some(1), "violations still → exit 1");
    assert!(String::from_utf8_lossy(&out.stdout).contains("http://example.org/bad"));

    // One step cannot validate anything → resource-fault exit 4.
    let out = shapefrag(&[
        "validate",
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        "--budget-steps",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(4), "budget trip → exit 4");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resource fault"), "{stderr}");
    assert!(stderr.contains("budget"), "{stderr}");
}

#[test]
fn governed_fragment_honors_deadline_and_exit_code() {
    let (_dir, shapes, data) = fixtures();
    // A generous governor extracts the same fragment.
    let out = shapefrag(&[
        "fragment",
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        "--deadline-ms",
        "60000",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("http://example.org/author"));

    // An already-expired deadline faults with exit 4.
    let out = shapefrag(&[
        "fragment",
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        "--deadline-ms",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(4), "deadline trip → exit 4");
    assert!(String::from_utf8_lossy(&out.stderr).contains("deadline"));
}

/// Every argument a command does not take is a usage error (exit 2), so a
/// typo such as `--report-tt`, or `--threads`, which no command takes,
/// fails loudly instead of being ignored.
#[test]
fn unknown_trailing_arguments_are_usage_errors() {
    let (dir, shapes, data) = fixtures();
    let edits = write_file(dir.path(), "edits.nt", "");
    let (s, d, e) = (
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        edits.to_str().unwrap(),
    );
    let cases: [&[&str]; 6] = [
        &["validate", s, d, "--bogus", "x"],
        &["validate", s, d, "--report-tt"],
        &["validate", s, d, "--report-ttl", "--report-ttl"],
        &["validate", s, d, "--threads", "2"],
        &["fragment", s, d, "--threads", "2"],
        &["update", s, d, e, "--threads", "2"],
    ];
    for args in cases {
        let out = shapefrag(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}"
        );
    }
}

#[test]
fn bad_governance_flag_values_are_usage_errors() {
    let (_dir, shapes, data) = fixtures();
    let out = shapefrag(&[
        "validate",
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        "--deadline-ms",
        "soon",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--deadline-ms"));
}

/// A generous `--budget-steps` changes nothing: `validate`, `fragment -o`
/// and `update` print and write the same bytes, and `fragment` writes
/// exactly `Frag(G, H)` as `schema_fragment` computes it.
#[test]
fn generous_budgets_give_identical_outputs() {
    let (dir, shapes, data) = fixtures();
    let edits = write_file(
        dir.path(),
        "edits.nt",
        "+ <http://example.org/noise> <http://example.org/author> <http://example.org/ann> .\n",
    );
    let (s, d, e) = (
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        edits.to_str().unwrap(),
    );
    let mut outputs = Vec::new();
    for budget in [&[][..], &["--budget-steps", "1000000"][..]] {
        let run = |command: &[&str]| {
            let mut args = command.to_vec();
            args.extend(budget);
            let out = shapefrag(&args);
            (out.status.code(), out.stdout)
        };
        let out_path = dir.path().join(format!("frag-{}.nt", budget.len()));
        let fragment = run(&["fragment", s, d, "-o", out_path.to_str().unwrap()]);
        assert_eq!(fragment.0, Some(0));
        let written = std::fs::read_to_string(&out_path).expect("fragment file");
        outputs.push((run(&["validate", s, d]), written, run(&["update", s, d, e])));
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]), "{outputs:?}");

    let schema = shape_fragments::shacl::parser::parse_shapes_turtle(
        &std::fs::read_to_string(&shapes).unwrap(),
    )
    .unwrap();
    let graph =
        shape_fragments::rdf::turtle::parse(&std::fs::read_to_string(&data).unwrap()).unwrap();
    let definitional = shape_fragments::core::schema_fragment(&schema, &graph);
    assert_eq!(
        outputs[0].1,
        shape_fragments::rdf::ntriples::serialize(&definitional)
    );
}

/// `update` exits with the verdict of the edited graph: 1 when the script
/// leaves a violation, 0 when it repairs the last one.
#[test]
fn update_exit_code_follows_the_edited_graph() {
    let (dir, shapes, data) = fixtures();
    let violating = write_file(
        dir.path(),
        "violating.nt",
        "- <http://example.org/good> <http://example.org/author> <http://example.org/ann> .\n",
    );
    let repairing = write_file(
        dir.path(),
        "repairing.nt",
        "+ <http://example.org/bad> <http://example.org/author> <http://example.org/bea> .\n",
    );
    let (s, d) = (shapes.to_str().unwrap(), data.to_str().unwrap());

    let out = shapefrag(&["update", s, d, violating.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "violations remain → exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("http://example.org/good"), "{stdout}");

    let out = shapefrag(&["update", s, d, repairing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "repaired → exit 0");
    assert!(String::from_utf8_lossy(&out.stdout).contains("conforms"));
}

/// A one-step budget trips the governed extraction.
#[test]
fn governed_parallel_fragment_exits_with_resource_fault() {
    let (_dir, shapes, data) = fixtures();
    let out = shapefrag(&[
        "fragment",
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        "--budget-steps",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(4), "budget trip → exit 4");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resource fault"), "{stderr}");
}

/// On a Vardi distance-3 schema (one quantifier over a six-step path),
/// `fragment` trips a tiny step budget with exit 4, while a generous one
/// writes the same bytes as an ungoverned run.
#[test]
fn governed_vardi_fragment_trips_or_matches_ungoverned_bytes() {
    use shape_fragments::shacl::{PathExpr, Schema, Shape, ShapeDef};
    use shape_fragments::workloads::dblp::{authored_by, vardi_shape, Bibliography, DblpConfig};

    let dir = tempdir::TempDir::new();
    let target = Shape::geq(1, PathExpr::Prop(authored_by()).inverse(), Shape::True);
    let schema = Schema::new([ShapeDef::new(
        shape_fragments::rdf::Term::iri("http://example.org/shapes/Vardi3"),
        vardi_shape(3),
        target,
    )])
    .expect("one nonrecursive definition");
    let bib = Bibliography::generate(&DblpConfig {
        first_year: 2019,
        last_year: 2021,
        papers_per_year: 40,
        new_authors_per_year: 20,
        ..DblpConfig::default()
    });
    let shapes = write_file(
        dir.path(),
        "vardi.ttl",
        &shape_fragments::shacl::schema_to_turtle(&schema),
    );
    let data = write_file(
        dir.path(),
        "dblp.nt",
        &shape_fragments::rdf::ntriples::serialize(&bib.full_graph()),
    );
    let (s, d) = (shapes.to_str().unwrap(), data.to_str().unwrap());
    let extract = |name: &str, budget: &[&str]| {
        let path = dir.path().join(name);
        let mut args = vec!["fragment", s, d, "-o", path.to_str().unwrap()];
        args.extend(budget);
        let out = shapefrag(&args);
        (out, std::fs::read(&path).ok())
    };

    let (out, _) = extract("tiny.nt", &["--budget-steps", "200"]);
    assert_eq!(out.status.code(), Some(4), "budget trip → exit 4");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resource fault"), "{stderr}");

    let (out, free) = extract("free.nt", &[]);
    assert_eq!(out.status.code(), Some(0));
    let free = free.expect("ungoverned fragment written");
    assert!(free.len() > 1_000, "the hub's distance-3 ball is traced");
    let (out, governed) = extract("governed.nt", &["--budget-steps", "1000000000"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(governed.expect("governed fragment written"), free);
}

const LOADER_SHAPES: &str = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix ex: <http://example.org/> .
ex:PaperShape a sh:NodeShape ;
  sh:targetClass ex:Paper ;
  sh:property [ sh:path ex:author ; sh:minCount 1 ; sh:node ex:AuthorShape ] .
ex:AuthorShape a sh:NodeShape ;
  sh:property [ sh:path ex:name ; sh:minCount 1 ] .
ex:LangsShape a sh:NodeShape ;
  sh:targetSubjectsOf ex:langs ;
  sh:property [ sh:path ( ex:langs [ sh:zeroOrMorePath rdf:rest ] rdf:first ) ; sh:minCount 2 ] .
"#;

/// Turtle with blank nodes, a `( … )` collection and a repeated triple.
const LOADER_DATA_TTL: &str = r#"
@prefix ex: <http://example.org/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:good rdf:type ex:Paper ; ex:author [ ex:name "Ann"@en ] , ex:bob .
ex:bob ex:name "Bob" .
ex:bad rdf:type ex:Paper ; ex:author ex:carl .
ex:good ex:langs ( "en" "fr" 3 ) .
ex:good rdf:type ex:Paper .
ex:noise ex:p ex:q .
"#;

/// N-Triples with labelled blank nodes and a repeated line.
const LOADER_DATA_NT: &str = "\
<http://example.org/good> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Paper> .
<http://example.org/good> <http://example.org/author> _:ann .
_:ann <http://example.org/name> \"Ann\"@en .
<http://example.org/bad> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Paper> .
<http://example.org/bad> <http://example.org/author> <http://example.org/carl> .
<http://example.org/good> <http://example.org/langs> _:l1 .
_:l1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> \"en\" .
_:l1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> _:l2 .
_:l2 <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> \"2\"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:l2 <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> <http://www.w3.org/1999/02/22-rdf-syntax-ns#nil> .
<http://example.org/other> <http://example.org/langs> _:l2 .
<http://example.org/good> <http://example.org/author> _:ann .
";

const LOADER_EDITS: &str = "\
+ <http://example.org/carl> <http://example.org/name> \"Carl\" .
- <http://example.org/bob> <http://example.org/name> \"Bob\" .
+ <http://example.org/dora> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Paper> .
";

/// `validate`, `fragment -o` and `update` load the data file straight into
/// the frozen graph and write the fragment from its id triples. The
/// fragment file is byte for byte `ntriples::serialize(&schema_fragment(..))`
/// at every thread count, and the printed reports are the ones the
/// `Graph`-building loader printed.
#[test]
fn frozen_loader_and_id_writer_match_the_graph_path() {
    use shape_fragments::core::schema_fragment;
    use shape_fragments::rdf::{ntriples, turtle};

    let dir = tempdir::TempDir::new();
    let shapes = write_file(dir.path(), "loader-shapes.ttl", LOADER_SHAPES);
    let edits = write_file(dir.path(), "loader-edits.nt", LOADER_EDITS);
    let schema = shape_fragments::shacl::parser::parse_shapes_turtle(LOADER_SHAPES).unwrap();
    let cases = [
        (
            "loader-data.ttl",
            LOADER_DATA_TTL,
            turtle::parse(LOADER_DATA_TTL).unwrap(),
            "1 violations (3 checks):\n  \
             node <http://example.org/bad> does not conform to shape <http://example.org/PaperShape>\n\n",
            "2 violations (4 checks):\n  \
             node <http://example.org/good> does not conform to shape <http://example.org/PaperShape>\n  \
             node <http://example.org/dora> does not conform to shape <http://example.org/PaperShape>\n\n",
        ),
        (
            "loader-data.nt",
            LOADER_DATA_NT,
            ntriples::parse(LOADER_DATA_NT).unwrap(),
            "2 violations (4 checks):\n  \
             node <http://example.org/other> does not conform to shape <http://example.org/LangsShape>\n  \
             node <http://example.org/bad> does not conform to shape <http://example.org/PaperShape>\n\n",
            "2 violations (5 checks):\n  \
             node <http://example.org/other> does not conform to shape <http://example.org/LangsShape>\n  \
             node <http://example.org/dora> does not conform to shape <http://example.org/PaperShape>\n\n",
        ),
    ];
    let (s, e) = (shapes.to_str().unwrap(), edits.to_str().unwrap());
    for (name, text, graph, validated, updated) in cases {
        let data = write_file(dir.path(), name, text);
        let d = data.to_str().unwrap();
        let expected = ntriples::serialize(&schema_fragment(&schema, &graph.freeze()));
        assert!(expected.contains("_:"), "the fragment holds blank nodes");
        assert!(expected.contains("rdf-syntax-ns#first"), "and list cells");
        let out_path = dir.path().join(format!("{name}.out.nt"));
        let out = shapefrag(&["fragment", s, d, "-o", out_path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(0));
        assert_eq!(std::fs::read_to_string(&out_path).unwrap(), expected);

        let out = shapefrag(&["validate", s, d]);
        assert_eq!(out.status.code(), Some(1));
        assert_eq!(String::from_utf8_lossy(&out.stdout), validated);

        let out = shapefrag(&["update", s, d, e]);
        assert_eq!(out.status.code(), Some(1));
        assert_eq!(String::from_utf8_lossy(&out.stdout), updated);
    }
}

/// An IRI holding characters IRIREF forbids is escaped on output, so a
/// written fragment validates again instead of failing to parse.
#[test]
fn fragment_output_with_escaped_iris_reads_back() {
    let dir = tempdir::TempDir::new();
    let shapes = write_file(
        dir.path(),
        "any.ttl",
        "@prefix sh: <http://www.w3.org/ns/shacl#> .\n\
         @prefix ex: <http://e/> .\n\
         ex:S a sh:NodeShape ; sh:targetSubjectsOf ex:p ;\n  \
         sh:property [ sh:path ex:p ; sh:minCount 1 ] .\n",
    );
    let data = write_file(
        dir.path(),
        "odd.nt",
        "<http://a/x\\u003Ey> <http://e/p> <http://e/o> .\n",
    );
    let out_path = dir.path().join("odd-frag.nt");
    let (s, d, o) = (
        shapes.to_str().unwrap(),
        data.to_str().unwrap(),
        out_path.to_str().unwrap(),
    );
    let out = shapefrag(&["fragment", s, d, "-o", o]);
    assert_eq!(out.status.code(), Some(0));
    let written = std::fs::read_to_string(&out_path).unwrap();
    assert_eq!(
        written,
        "<http://a/x\\u003Ey> <http://e/p> <http://e/o> .\n"
    );
    let out = shapefrag(&["validate", s, o]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
