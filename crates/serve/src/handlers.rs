//! Endpoint dispatch: routing, per-request governance, and the mapping
//! from the [`EngineError`] taxonomy to HTTP status codes.
//!
//! | engine fault                | HTTP | notes |
//! |-----------------------------|------|-------|
//! | `BudgetExceeded`            | 429  | `Retry-After: 1` |
//! | `DeadlineExceeded`          | 504  | request-scoped deadline, not the server's |
//! | `Malformed`                 | 400  | parse position and code in the body |
//! | `Cancelled`                 | 499  | server shutting down mid-request |
//! | `DepthLimit`                | 400  | pathological nesting is an input defect |
//!
//! A hit on an epoch's stored result (a plain `/validate` or a
//! single-shape `/fragment`) charges no step or memory budget, since it
//! does no engine work; the deadline and cancellation still apply.
//!
//! Admission shedding (503) and handler panics (500) are mapped by the
//! connection loop in `lib.rs`, not here.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use shapefrag_analyze::{analyze_schema, has_deny, to_json as diags_to_json};
use shapefrag_core::{fragment_ids_governed, EditScript, IncrementalValidator};
use shapefrag_govern::{Budget, EngineError, ErrorCode, ExecCtx};
use shapefrag_rdf::{ntriples, turtle, FrozenGraph, Term};
use shapefrag_shacl::validator::{validate_batch_governed, ValidationReport};
use shapefrag_shacl::Shape;
use shapefrag_sparql::eval::{eval_select_governed, Binding, EvalConfig};
use shapefrag_sparql::parser::parse_select;

use crate::http::{Request, Response};
use crate::state::{json_escape, report_json, Snapshot, Updater};
use crate::{ServeConfig, ServerState};

/// Maps an engine fault to its HTTP response.
pub fn engine_error_response(e: &EngineError) -> Response {
    let body = |code: &str, msg: &str| {
        format!(
            "{{\"error\":\"{}\",\"message\":\"{}\"}}",
            code,
            json_escape(msg)
        )
    };
    match e {
        EngineError::BudgetExceeded { .. } => {
            Response::json(429, body("budget-exceeded", &e.to_string()))
                .with_header("retry-after", "1")
        }
        EngineError::DeadlineExceeded { .. } => {
            Response::json(504, body("deadline-exceeded", &e.to_string()))
        }
        EngineError::Cancelled => Response::json(499, body("cancelled", &e.to_string())),
        EngineError::DepthLimit { .. } => Response::json(400, body("depth-limit", &e.to_string())),
        EngineError::Malformed { code, .. } => {
            Response::json(400, body(code.as_str(), &e.to_string()))
        }
    }
}

/// A plain 4xx/5xx JSON error body.
pub fn error_response(status: u16, code: &str, message: &str) -> Response {
    Response::json(
        status,
        format!(
            "{{\"error\":\"{}\",\"message\":\"{}\"}}",
            code,
            json_escape(message)
        ),
    )
}

/// Builds the per-request [`Budget`] from the governance headers, clamped
/// to the server's ceiling. Returns `Err` on unparsable values.
pub fn budget_from_headers(req: &Request, cfg: &ServeConfig) -> Result<Budget, Response> {
    let parse_u64 = |name: &str| -> Result<Option<u64>, Response> {
        match req.header(name) {
            None => Ok(None),
            Some(v) => v.trim().parse::<u64>().map(Some).map_err(|_| {
                error_response(400, "bad-header", &format!("invalid {name} value '{v}'"))
            }),
        }
    };
    let mut budget = Budget::unlimited();
    // Deadlines are always on: the client may only tighten the server's
    // per-request ceiling, never exceed it.
    let ceiling_ms = cfg.max_request_deadline.as_millis() as u64;
    let requested_ms = parse_u64("x-deadline-ms")?.unwrap_or(ceiling_ms);
    budget = budget.deadline(Duration::from_millis(requested_ms.min(ceiling_ms)));
    if let Some(steps) = parse_u64("x-budget-steps")? {
        budget = budget.steps(steps);
    }
    if let Some(bytes) = parse_u64("x-budget-memory")? {
        budget = budget.memory_bytes(bytes);
    }
    Ok(budget)
}

/// [`budget_from_headers`] wrapped into an execution context.
pub fn exec_from_headers(req: &Request, cfg: &ServeConfig) -> Result<ExecCtx, Response> {
    Ok(ExecCtx::with_budget(budget_from_headers(req, cfg)?))
}

/// Parses a posted RDF payload as Turtle or N-Triples straight into a
/// frozen graph, honoring the `Content-Type` header (defaults to Turtle,
/// which accepts the N-Triples subset for untyped clients).
fn parse_body_graph(req: &Request) -> Result<FrozenGraph, EngineError> {
    let text = std::str::from_utf8(&req.body).map_err(|_| {
        EngineError::malformed(ErrorCode::Syntax, "request body is not valid UTF-8")
    })?;
    let content_type = req.header("content-type").unwrap_or("text/turtle");
    if content_type.starts_with("application/n-triples") {
        ntriples::parse_frozen(text).map_err(EngineError::from)
    } else {
        turtle::parse_frozen(text).map_err(EngineError::from)
    }
}

/// Routes one admitted request. Runs inside the connection loop's
/// panic-isolation boundary.
pub fn dispatch(state: &ServerState, req: &Request) -> Response {
    let snapshot = state.snapshots.load();
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/validate") => handle_validate(state, req, &snapshot),
        ("POST", "/fragment") => handle_fragment(state, req, &snapshot),
        ("GET", "/analyze") => handle_analyze(&snapshot),
        ("POST", "/sparql") => handle_sparql(state, req, &snapshot),
        ("POST", "/reload") => handle_reload(state, req),
        ("POST", "/update") => handle_update(state, req),
        ("POST", "/compact") => handle_compact(state),
        (
            "GET" | "POST",
            "/validate" | "/fragment" | "/analyze" | "/sparql" | "/reload" | "/update" | "/compact",
        ) => error_response(405, "method-not-allowed", "wrong method for this endpoint"),
        _ => error_response(404, "not-found", "unknown endpoint"),
    }
}

/// A report as a `200` body: Turtle when the client accepts it, the JSON
/// body `json` renders otherwise.
fn report_response(
    req: &Request,
    report: &ValidationReport,
    json: impl FnOnce() -> String,
) -> Response {
    if req
        .header("accept")
        .is_some_and(|a| a.contains("text/turtle"))
    {
        let graph = report.to_graph();
        Response::new(
            200,
            "text/turtle",
            turtle::serialize(&graph, &[("sh", shapefrag_rdf::vocab::SH_NS)]),
        )
    } else {
        Response::json(200, json())
    }
}

/// `POST /validate` — empty body validates the resident snapshot; a
/// non-empty body is parsed as a data graph and validated against the
/// resident schema (one resident process, many datasets).
///
/// The resident view's report lives on its snapshot. A plain request on
/// an epoch without one validates and stores the report
/// (`x-validate-cache: miss`); a plain request on an epoch with one
/// checks its deadline and the shutdown flag, then answers from it
/// (`hit`) without charging the step or memory budget, since it does no
/// engine work. A posted body neither reads nor fills the stored report.
fn handle_validate(state: &ServerState, req: &Request, snapshot: &Arc<Snapshot>) -> Response {
    let exec = match exec_from_headers(req, &state.cfg) {
        Ok(e) => e.with_cancel(&state.cancel),
        Err(resp) => return resp,
    };
    if !req.body.is_empty() {
        let result = parse_body_graph(req)
            .and_then(|graph| validate_batch_governed(&snapshot.schema, &graph, exec));
        return match result {
            Ok(report) => report_response(req, &report, || report_json(&report, snapshot.epoch)),
            Err(e) => engine_error_response(&e),
        };
    }
    let (stored, cache) = match snapshot.report() {
        Some(stored) => {
            if let Err(e) = exec.check_now() {
                return engine_error_response(&e);
            }
            state
                .stats
                .validate_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            (stored, "hit")
        }
        None => {
            state
                .stats
                .validate_cache_misses
                .fetch_add(1, Ordering::Relaxed);
            match validate_batch_governed(&snapshot.schema, snapshot.frozen.as_ref(), exec) {
                Ok(report) => (snapshot.store_report(report), "miss"),
                Err(e) => return engine_error_response(&e),
            }
        }
    };
    report_response(req, &stored.report, || stored.json.clone())
        .with_header("x-validate-cache", cache)
}

/// `POST /fragment` — empty body computes the full schema fragment; a
/// non-empty body lists shape-name IRIs (one per line) to restrict to.
/// A single-shape body is stored on the snapshot, keyed by the requested
/// name: a repeat request on the epoch checks its deadline and the
/// shutdown flag, then answers from the stored bytes
/// (`x-fragment-cache: hit`), and hits and misses count into `/stats`.
fn handle_fragment(state: &ServerState, req: &Request, snapshot: &Arc<Snapshot>) -> Response {
    let exec = match exec_from_headers(req, &state.cfg) {
        Ok(e) => e.with_cancel(&state.cancel),
        Err(resp) => return resp,
    };
    let mut names: Vec<Term> = Vec::new();
    let shapes: Vec<Shape> = if req.body.is_empty() {
        snapshot.schema.request_shapes()
    } else {
        let text = match std::str::from_utf8(&req.body) {
            Ok(t) => t,
            Err(_) => return error_response(400, "syntax", "shape list is not valid UTF-8"),
        };
        let mut shapes = Vec::new();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let name = Term::iri(line.trim_start_matches('<').trim_end_matches('>'));
            match snapshot.schema.get(&name) {
                Some(def) => shapes.push(def.shape.clone().and(def.target.clone())),
                None => {
                    return error_response(
                        400,
                        "unknown-shape",
                        &format!("no shape named {name} in the resident schema"),
                    )
                }
            }
            names.push(name);
        }
        shapes
    };
    // Cache only single-shape requests: a multi-shape fragment is the
    // union over its list, not a concatenation of per-shape bodies.
    let cached = match names.as_slice() {
        [name] => Some(name),
        _ => None,
    };
    if let Some(name) = cached {
        if let Some(body) = snapshot.fragment(name) {
            if let Err(e) = exec.check_now() {
                return engine_error_response(&e);
            }
            state
                .stats
                .fragment_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            return Response::new(200, "application/n-triples", body.as_ref().clone())
                .with_header("x-epoch", snapshot.epoch.to_string())
                .with_header("x-fragment-cache", "hit");
        }
        state
            .stats
            .fragment_cache_misses
            .fetch_add(1, Ordering::Relaxed);
    }
    let graph = snapshot.frozen.as_ref();
    let body = fragment_ids_governed(&snapshot.schema, graph, &shapes, exec)
        .map(|ids| ntriples::serialize_ids(graph, ids));
    match body {
        Ok(body) => {
            if let Some(name) = cached {
                snapshot.store_fragment(name.clone(), Arc::new(body.clone()));
            }
            Response::new(200, "application/n-triples", body)
                .with_header("x-epoch", snapshot.epoch.to_string())
                .with_header("x-fragment-cache", "miss")
        }
        Err(e) => engine_error_response(&e),
    }
}

/// `GET /analyze` — static diagnostics for the resident schema.
fn handle_analyze(snapshot: &Arc<Snapshot>) -> Response {
    let diags = analyze_schema(&snapshot.schema, None);
    Response::json(200, diags_to_json(&diags))
}

fn bindings_json(vars: &[String], rows: &[Binding], epoch: u64) -> String {
    let mut out = String::from("{\"head\":{\"vars\":[");
    for (i, v) in vars.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\"", json_escape(v)));
    }
    out.push_str(&format!(
        "]}},\"epoch\":{epoch},\"results\":{{\"bindings\":["
    ));
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        for (j, (var, term)) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":\"{}\"",
                json_escape(var),
                json_escape(&term.to_string())
            ));
        }
        out.push('}');
    }
    out.push_str("]}}");
    out
}

/// `POST /sparql` — evaluates a SELECT query over the resident snapshot.
fn handle_sparql(state: &ServerState, req: &Request, snapshot: &Arc<Snapshot>) -> Response {
    let exec = match exec_from_headers(req, &state.cfg) {
        Ok(e) => e.with_cancel(&state.cancel),
        Err(resp) => return resp,
    };
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return error_response(400, "syntax", "query body is not valid UTF-8"),
    };
    let query = match parse_select(text) {
        Ok(q) => q,
        Err(e) => return engine_error_response(&EngineError::from(e)),
    };
    match eval_select_governed(
        snapshot.frozen.as_ref(),
        &query,
        &EvalConfig::indexed(),
        &exec,
    ) {
        Ok(rows) => Response::json(200, bindings_json(&query.out_vars(), &rows, snapshot.epoch)),
        Err(e) => engine_error_response(&e),
    }
}

/// `POST /reload` — empty body rebuilds the snapshot from the configured
/// source (re-reading files); a non-empty body is parsed as a replacement
/// *data* graph against the resident schema. Either way the new epoch is
/// frozen and published atomically; in-flight requests drain on the old
/// epoch.
fn handle_reload(state: &ServerState, req: &Request) -> Response {
    let built = if req.body.is_empty() {
        state.snapshots.swap(|epoch| {
            let (schema, graph) = crate::load_source(&state.source)
                .map_err(|msg| error_response(400, "reload-failed", &msg))?;
            Ok::<_, Response>(Snapshot::new(epoch, schema, Arc::new(graph)))
        })
    } else {
        let graph = match parse_body_graph(req) {
            Ok(g) => g,
            Err(e) => return engine_error_response(&e),
        };
        let schema = Arc::clone(&state.snapshots.load().schema);
        state
            .snapshots
            .swap(|epoch| Ok::<_, Response>(Snapshot::new(epoch, schema, Arc::new(graph))))
    };
    match built {
        Ok(snapshot) => {
            // The replaced dataset invalidates the incremental state; the
            // next /update reseeds from the new snapshot.
            *state.updater.lock().unwrap_or_else(|e| e.into_inner()) = None;
            state
                .stats
                .reloads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Response::json(
                200,
                format!(
                    "{{\"epoch\":{},\"triples\":{},\"shapes\":{}}}",
                    snapshot.epoch,
                    snapshot.frozen.len(),
                    snapshot.schema.len()
                ),
            )
        }
        Err(resp) => resp,
    }
}

/// `POST /update` — applies a signed N-Triples edit script (`+`/`-`
/// line prefixes, see [`EditScript::parse`]) through the incremental
/// engine, which folds it into a new frozen graph and revalidates
/// incrementally under the request's budget, and epoch-swaps that graph.
/// Readers never block: they keep their snapshot clone while the new
/// epoch is published. The new epoch carries the incrementally-maintained
/// report, which the response embeds, so a plain `/validate` on it is a
/// hit. The first update (or the first after a reload) seeds the
/// incremental state with a full validation.
fn handle_update(state: &ServerState, req: &Request) -> Response {
    let budget = match budget_from_headers(req, &state.cfg) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return error_response(400, "syntax", "edit script is not valid UTF-8"),
    };
    let script = match EditScript::parse(text) {
        Ok(s) => s,
        Err(e) => return engine_error_response(&EngineError::from(e)),
    };
    let mut slot = state.updater.lock().unwrap_or_else(|e| e.into_inner());
    let current = state.snapshots.load();
    if slot.as_ref().is_none_or(|u| u.epoch != current.epoch) {
        // First update, or the snapshot moved under us (reload): seed the
        // incremental state from the published view. This is the one full
        // validation; every subsequent update is impact-routed.
        *slot = Some(Updater {
            inc: IncrementalValidator::new(
                Arc::clone(&current.schema),
                Arc::clone(&current.frozen),
            ),
            epoch: current.epoch,
        });
    }
    let updater = slot.as_mut().expect("updater seeded above");
    match updater
        .inc
        .apply_governed(&script, budget, Some(&state.cancel))
    {
        Ok(report) => {
            let published = state.snapshots.swap(|epoch| {
                let snapshot = Snapshot::new(
                    epoch,
                    Arc::clone(updater.inc.schema()),
                    Arc::clone(updater.inc.graph().base()),
                );
                snapshot.store_report(report);
                Ok::<_, Response>(snapshot)
            });
            match published {
                Ok(snap) => {
                    updater.epoch = snap.epoch;
                    state
                        .stats
                        .updates
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let report = &snap
                        .report()
                        .expect("an /update epoch is published with its report")
                        .json;
                    Response::json(
                        200,
                        format!(
                            "{{\"epoch\":{},\"applied\":{},\"triples\":{},\"report\":{}}}",
                            snap.epoch,
                            script.len(),
                            snap.frozen.len(),
                            report
                        ),
                    )
                }
                Err(resp) => resp,
            }
        }
        Err(e) => engine_error_response(&e),
    }
}

/// `POST /compact` — a no-op kept on the wire: every `/update` already
/// publishes a frozen graph, so there is no overlay to re-freeze. Answers
/// 200 with the current epoch, which it does not swap.
fn handle_compact(state: &ServerState) -> Response {
    let current = state.snapshots.load();
    Response::json(
        200,
        format!(
            "{{\"epoch\":{},\"triples\":{},\"compacted\":false}}",
            current.epoch,
            current.frozen.len()
        ),
    )
}

/// `GET /healthz` — liveness plus the current epoch. Never gated: health
/// checks must answer even under full load.
pub fn handle_healthz(state: &ServerState) -> Response {
    let snapshot = state.snapshots.load();
    Response::json(
        200,
        format!(
            "{{\"status\":\"ok\",\"epoch\":{},\"triples\":{}}}",
            snapshot.epoch,
            snapshot.frozen.len()
        ),
    )
}

/// `GET /stats` — the full counter set. Never gated.
pub fn handle_stats(state: &ServerState) -> Response {
    let snapshot = state.snapshots.load();
    Response::json(
        200,
        state.stats.to_json(
            snapshot.epoch,
            snapshot.frozen.len(),
            snapshot.schema.len(),
            &state.gate,
            state.started,
        ),
    )
}

/// Schema deny-gating shared by boot and reload: a schema with deny-level
/// analyzer findings is refused (the server never publishes an epoch a
/// batch CLI run would reject).
pub fn check_schema(schema: &shapefrag_shacl::Schema) -> Result<(), String> {
    let diags = analyze_schema(schema, None);
    if has_deny(&diags) {
        let lines: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
        return Err(format!(
            "shapes graph rejected by static analysis: {}",
            lines.join("; ")
        ));
    }
    Ok(())
}
