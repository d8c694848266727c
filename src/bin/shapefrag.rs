//! `shapefrag` — command-line interface to the shape-fragments stack.
//!
//! ```text
//! shapefrag validate  <shapes.ttl> <data.(ttl|nt)> [--report-ttl] [--deadline-ms N] [--budget-steps N]
//! shapefrag analyze   <shapes.ttl> [--json] [--containment]
//! shapefrag fragment  <shapes.ttl> <data.(ttl|nt)> [-o out.nt] [--deadline-ms N] [--budget-steps N]
//! shapefrag explain   <shapes.ttl> <data.(ttl|nt)> <focus-node-iri> [<shape-name-iri>]
//! shapefrag translate <shapes.ttl> [<shape-name-iri>]
//! shapefrag update    <shapes.ttl> <data.(ttl|nt)> <edits.txt> [--deadline-ms N] [--budget-steps N]
//! shapefrag serve     <shapes.ttl> <data.(ttl|nt)> [--addr HOST:PORT] [--max-inflight N] ...
//! ```
//!
//! - `validate` prints a validation report (optionally as a standard
//!   `sh:ValidationReport` Turtle document).
//! - `analyze` runs the static schema analyzer and prints its findings
//!   (text lines or JSON with `--json`), without needing a data graph.
//!   `--containment` additionally computes the shape-containment matrix:
//!   equivalence/subsumption findings (SF-W030/SF-W031) join the
//!   diagnostic stream and the matrix itself is printed (text, or under
//!   a `"containment"` key with `--json`).
//! - `fragment` computes the schema's shape fragment `Frag(G, H)` and
//!   writes it as N-Triples (stdout or `-o`).
//! - `explain` prints why/why-not provenance for one focus node.
//! - `translate` prints the generated SPARQL fragment query (§5.1).
//! - `update` applies a signed N-Triples edit script (`+`/`-` line
//!   prefixes): it folds the script into a new frozen data graph and
//!   prints the incrementally-maintained report (DESIGN.md §14).
//! - `serve` runs the long-lived HTTP server (see DESIGN.md §13).
//!
//! Exit codes: `0` success (for `validate`/`explain`: the data conforms;
//! for `analyze`: no deny-level finding), `1` validation violations, `2`
//! usage or engine error (unreadable file, parse error, unknown shape),
//! `3` the shapes graph was rejected by static analysis (deny-level
//! diagnostics; every command that loads a schema applies this gate),
//! `4` a resource fault — the `--deadline-ms` / `--budget-steps` governor
//! tripped before the run finished.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use shape_fragments::analyze::{
    analyze_defs, analyze_schema, containment_diagnostics, has_deny, to_json, ContainmentMatrix,
    Diagnostic,
};
use shape_fragments::core::{
    explain, to_sparql, validate_extract_fragment_governed, EditScript, IncrementalValidator,
};
use shape_fragments::govern::{Budget, EngineError, ExecCtx};
use shape_fragments::rdf::{ntriples, turtle, FrozenGraph, ParseError, Term};
use shape_fragments::serve::{ServeConfig, Server, SnapshotSource};
use shape_fragments::shacl::parser::{parse_shape_defs_turtle, parse_shapes_turtle_with_spans};
use shape_fragments::shacl::validator::validate_batch_governed;
use shape_fragments::shacl::{Schema, Shape};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(CliError::Message(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
        Err(CliError::Deny(diags)) => {
            for d in &diags {
                eprintln!("{d}");
            }
            eprintln!("error: shapes graph rejected by static analysis (run `shapefrag analyze` for details)");
            ExitCode::from(3)
        }
    }
}

/// Failures the driver maps to distinct exit codes: usage/engine errors
/// exit 2, deny-level analyzer findings exit 3.
enum CliError {
    Message(String),
    Deny(Vec<Diagnostic>),
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::Message(message)
    }
}

fn usage() -> String {
    "usage:\n  shapefrag validate  <shapes.ttl> <data.(ttl|nt)> [--report-ttl] [--deadline-ms N] [--budget-steps N]\n  \
     shapefrag analyze   <shapes.ttl> [--json] [--containment]\n  \
     shapefrag fragment  <shapes.ttl> <data.(ttl|nt)> [-o out.nt] [--deadline-ms N] [--budget-steps N]\n  \
     shapefrag explain   <shapes.ttl> <data.(ttl|nt)> <focus-node-iri> [<shape-name-iri>]\n  \
     shapefrag translate <shapes.ttl> [<shape-name-iri>]\n  \
     shapefrag update    <shapes.ttl> <data.(ttl|nt)> <edits.txt> [--deadline-ms N] [--budget-steps N]\n  \
     shapefrag serve     <shapes.ttl> <data.(ttl|nt)> [--addr HOST:PORT] [--max-inflight N]\n                      \
     [--queue-depth N] [--queue-wait-ms N] [--max-body-bytes N] [--max-deadline-ms N]\n\
     exit codes:\n  \
     0  success (validate/explain: conforms; analyze: no deny findings)\n  \
     1  validation violations\n  \
     2  usage or engine error\n  \
     3  shapes graph rejected by static analysis (deny diagnostics)\n  \
     4  resource fault (--deadline-ms / --budget-steps governor tripped)"
        .to_string()
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    let Some(command) = args.first() else {
        return Err(usage().into());
    };
    match command.as_str() {
        "validate" => cmd_validate(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "fragment" => cmd_fragment(&args[1..]),
        "explain" => cmd_explain(&args[1..]),
        "translate" => cmd_translate(&args[1..]),
        "update" => cmd_update(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command '{other}'\n{}", usage()).into()),
    }
}

/// Parses a shapes graph and gates it through the static analyzer: deny
/// findings abort with exit 3, warnings go to stderr and validation
/// proceeds.
fn load_schema(path: &str) -> Result<Schema, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (schema, spans) =
        parse_shapes_turtle_with_spans(&text).map_err(|e| format!("{path}: {e}"))?;
    let diags = analyze_schema(&schema, Some(&spans));
    if has_deny(&diags) {
        return Err(CliError::Deny(diags));
    }
    for d in &diags {
        eprintln!("{path}: {d}");
    }
    Ok(schema)
}

/// Extracts `--deadline-ms N` and `--budget-steps N` from an argument
/// list, returning the resulting [`Budget`] (unlimited when neither flag
/// is given) and the remaining arguments.
fn take_budget(args: &[String]) -> Result<(Budget, Vec<String>), String> {
    let mut budget = Budget::unlimited();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let parse_u64 = |flag: &str, value: Option<&String>| -> Result<u64, String> {
            let value = value.ok_or(format!("{flag} requires a number"))?;
            value
                .parse::<u64>()
                .map_err(|_| format!("invalid {flag} value '{value}'"))
        };
        match arg.as_str() {
            "--deadline-ms" => {
                let ms = parse_u64("--deadline-ms", it.next())?;
                budget = budget.deadline(Duration::from_millis(ms));
            }
            "--budget-steps" => {
                budget = budget.steps(parse_u64("--budget-steps", it.next())?);
            }
            _ => rest.push(arg.clone()),
        }
    }
    Ok((budget, rest))
}

/// Reports a governor trip and exits with the resource-fault code (4).
fn resource_fault_exit(e: &EngineError) -> ExitCode {
    eprintln!("error: resource fault: {e}");
    ExitCode::from(4)
}

/// Reads a data file and parses it as N-Triples (`.nt`, `.ntriples`) or
/// Turtle with the matching parser of the given pair.
fn read_data<T>(
    path: &str,
    parse_nt: fn(&str) -> Result<T, ParseError>,
    parse_ttl: fn(&str) -> Result<T, ParseError>,
) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let parse = if path.ends_with(".nt") || path.ends_with(".ntriples") {
        parse_nt
    } else {
        parse_ttl
    };
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Loads a data file straight into the CSR snapshot every read-only
/// command runs on.
fn load_frozen(path: &str) -> Result<FrozenGraph, String> {
    read_data(path, ntriples::parse_frozen, turtle::parse_frozen)
}

fn cmd_analyze(args: &[String]) -> Result<ExitCode, CliError> {
    let [shapes_path, rest @ ..] = args else {
        return Err(usage().into());
    };
    if !rest.iter().all(|a| a == "--json" || a == "--containment") {
        return Err(usage().into());
    }
    let as_json = rest.iter().any(|a| a == "--json");
    let with_containment = rest.iter().any(|a| a == "--containment");
    let text = std::fs::read_to_string(shapes_path)
        .map_err(|e| format!("cannot read {shapes_path}: {e}"))?;
    // The defs entry point tolerates reference cycles, which the analyzer
    // itself reports (SF-E020/E021) instead of failing to load.
    let (defs, spans) =
        parse_shape_defs_turtle(&text).map_err(|e| format!("{shapes_path}: {e}"))?;
    let mut diags = analyze_defs(&defs, Some(&spans));
    // --containment folds the subsumption matrix's SF-W030/W031 findings
    // into the regular diagnostic stream and prints the matrix itself.
    let matrix = with_containment.then(|| ContainmentMatrix::of_defs(&defs));
    if let Some(m) = &matrix {
        diags.extend(containment_diagnostics(m));
    }
    if as_json {
        match &matrix {
            Some(m) => print!(
                "{{\"diagnostics\":{},\"containment\":{}}}",
                to_json(&diags),
                m.to_json()
            ),
            None => print!("{}", to_json(&diags)),
        }
    } else {
        for d in &diags {
            println!("{d}");
        }
        if let Some(m) = &matrix {
            print!("{}", m.render_text());
        }
        println!(
            "{} shape definition(s) analyzed: {} finding(s)",
            defs.len(),
            diags.len()
        );
    }
    Ok(if has_deny(&diags) {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_validate(args: &[String]) -> Result<ExitCode, CliError> {
    let (budget, args) = take_budget(args)?;
    let (shapes_path, data_path, as_ttl) = match args.as_slice() {
        [shapes, data] => (shapes, data, false),
        [shapes, data, flag] if flag == "--report-ttl" => (shapes, data, true),
        _ => return Err(usage().into()),
    };
    let schema = load_schema(shapes_path)?;
    // Validation is read-only: run it over the CSR snapshot. A governor
    // trip exits with the resource-fault code instead of a partial report.
    let frozen = load_frozen(data_path)?;
    let report = match validate_batch_governed(&schema, &frozen, ExecCtx::with_budget(budget)) {
        Ok(report) => report,
        Err(e) => return Ok(resource_fault_exit(&e)),
    };
    if as_ttl {
        let graph = report.to_graph();
        print!(
            "{}",
            turtle::serialize(&graph, &[("sh", shape_fragments::rdf::vocab::SH_NS)])
        );
    } else {
        println!("{report}");
    }
    Ok(if report.conforms() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_fragment(args: &[String]) -> Result<ExitCode, CliError> {
    let (budget, args) = take_budget(args)?;
    let [shapes_path, data_path, rest @ ..] = args.as_slice() else {
        return Err(usage().into());
    };
    let schema = load_schema(shapes_path)?;
    let frozen = load_frozen(data_path)?;
    // One instrumented pass validates and collects `Frag(G, H)` (§5.2) as
    // id triples, written out without materializing a graph; a governor
    // trip exits with the resource-fault code instead of a truncated
    // fragment.
    let fragment =
        match validate_extract_fragment_governed(&schema, &frozen, ExecCtx::with_budget(budget)) {
            Ok((_, fragment)) => fragment,
            Err(e) => return Ok(resource_fault_exit(&e)),
        };
    eprintln!(
        "fragment: {} of {} triples ({} shape definitions)",
        fragment.len(),
        frozen.len(),
        schema.len()
    );
    let text = fragment.to_ntriples(&frozen);
    match rest {
        [] => {
            print!("{text}");
        }
        [flag, out_path] if flag == "-o" => {
            std::fs::write(out_path, &text).map_err(|e| format!("cannot write {out_path}: {e}"))?;
            eprintln!("written to {out_path}");
        }
        _ => return Err(usage().into()),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_explain(args: &[String]) -> Result<ExitCode, CliError> {
    let [shapes_path, data_path, node_iri, rest @ ..] = args else {
        return Err(usage().into());
    };
    let schema = load_schema(shapes_path)?;
    let data = read_data(data_path, ntriples::parse, turtle::parse)?;
    let node = Term::iri(node_iri.trim_start_matches('<').trim_end_matches('>'));
    let defs: Vec<_> = match rest {
        [] => schema.iter().collect(),
        [name] => {
            let name = Term::iri(name.trim_start_matches('<').trim_end_matches('>'));
            let def = schema
                .get(&name)
                .ok_or_else(|| format!("no shape named {name} in the schema"))?;
            vec![def]
        }
        _ => return Err(usage().into()),
    };
    let mut all_conform = true;
    for def in defs {
        let e = explain(&schema, &data, &node, &Shape::HasShape(def.name.clone()));
        let verdict = if e.conforms() {
            "conforms to"
        } else {
            all_conform = false;
            "VIOLATES"
        };
        println!("{node} {verdict} {}", def.name);
        if e.subgraph().is_empty() {
            println!("  (no witnessing triples)");
        } else {
            for t in e.subgraph().iter() {
                println!("  {t}");
            }
        }
    }
    Ok(if all_conform {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `shapefrag update` — seeds an incremental validator over the frozen
/// data graph, applies the edit script (folded into a new frozen graph), and
/// prints the incrementally-maintained report (identical to re-validating
/// the edited graph from scratch, but only impact-routed pairs re-run).
fn cmd_update(args: &[String]) -> Result<ExitCode, CliError> {
    let (budget, args) = take_budget(args)?;
    let [shapes_path, data_path, edits_path] = args.as_slice() else {
        return Err(usage().into());
    };
    let schema = Arc::new(load_schema(shapes_path)?);
    let frozen = load_frozen(data_path)?;
    let edits_text = std::fs::read_to_string(edits_path)
        .map_err(|e| format!("cannot read {edits_path}: {e}"))?;
    let script = EditScript::parse(&edits_text).map_err(|e| format!("{edits_path}: {e}"))?;
    let mut inc = IncrementalValidator::new(schema, Arc::new(frozen));
    let report = match inc.apply_governed(&script, budget, None) {
        Ok(report) => report,
        Err(e) => return Ok(resource_fault_exit(&e)),
    };
    eprintln!(
        "update: {} edit(s) applied, graph {} triples",
        script.len(),
        inc.graph().len()
    );
    println!("{report}");
    Ok(if report.conforms() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, CliError> {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServeConfig::default()
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut next_u64 = |flag: &str| -> Result<u64, String> {
            let value = it.next().ok_or(format!("{flag} requires a number"))?;
            value
                .parse::<u64>()
                .map_err(|_| format!("invalid {flag} value '{value}'"))
        };
        match arg.as_str() {
            "--addr" => {
                cfg.addr = it
                    .next()
                    .ok_or_else(|| "--addr requires HOST:PORT".to_string())?
                    .clone();
            }
            "--max-inflight" => cfg.max_inflight = next_u64("--max-inflight")?.max(1) as usize,
            "--queue-depth" => cfg.queue_depth = next_u64("--queue-depth")? as usize,
            "--queue-wait-ms" => {
                cfg.queue_wait = Duration::from_millis(next_u64("--queue-wait-ms")?)
            }
            "--max-body-bytes" => cfg.max_body_bytes = next_u64("--max-body-bytes")? as usize,
            "--max-deadline-ms" => {
                cfg.max_request_deadline = Duration::from_millis(next_u64("--max-deadline-ms")?)
            }
            _ => positional.push(arg.clone()),
        }
    }
    let [shapes_path, data_path] = positional.as_slice() else {
        return Err(usage().into());
    };
    // The CLI gate parses and analyzes the schema once, so deny-level
    // findings exit 3 exactly like every other schema-loading command; the
    // server boots on that schema and loads only the data. `/reload`
    // re-reads both files.
    let schema = load_schema(shapes_path)?;
    let server = Server::start_with_schema(
        cfg,
        SnapshotSource::Files {
            shapes: shapes_path.into(),
            data: data_path.into(),
        },
        schema,
    )
    .map_err(CliError::Message)?;
    let snapshot = server.state().snapshots.load();
    eprintln!(
        "shapefrag serve: listening on http://{} (epoch {}, {} triples, {} shapes; \
         cap {} inflight / {} queued)",
        server.addr,
        snapshot.epoch,
        snapshot.frozen.len(),
        snapshot.schema.len(),
        server.state().cfg.max_inflight,
        server.state().cfg.queue_depth,
    );
    drop(snapshot);
    // Serve until the process is killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn cmd_translate(args: &[String]) -> Result<ExitCode, CliError> {
    let [shapes_path, rest @ ..] = args else {
        return Err(usage().into());
    };
    let schema = load_schema(shapes_path)?;
    let shapes: Vec<Shape> = match rest {
        [] => schema.request_shapes(),
        [name] => {
            let name = Term::iri(name.trim_start_matches('<').trim_end_matches('>'));
            let def = schema
                .get(&name)
                .ok_or_else(|| format!("no shape named {name} in the schema"))?;
            vec![def.shape.clone().and(def.target.clone())]
        }
        _ => return Err(usage().into()),
    };
    let query = to_sparql::fragment_query(&schema, &shapes);
    println!("{query}");
    Ok(ExitCode::SUCCESS)
}
