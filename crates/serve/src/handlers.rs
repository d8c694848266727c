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
use crate::state::{json_escape, Snapshot, Updater};
use crate::{ServeConfig, ServerState};

/// Runs `$body` with `$g` bound to the snapshot's read view: the delta
/// overlay when one is published, the frozen base otherwise. A macro
/// because [`shapefrag_rdf::GraphAccess`] is not object-safe (its
/// accessors return `impl Iterator`), so the two arms monomorphize
/// separately.
macro_rules! with_view {
    ($snapshot:expr, |$g:ident| $body:expr) => {
        match &$snapshot.delta {
            Some(d) => {
                let $g = d.as_ref();
                $body
            }
            None => {
                let $g = $snapshot.frozen.as_ref();
                $body
            }
        }
    };
}

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

fn report_json(report: &ValidationReport, epoch: u64) -> String {
    let mut out = format!(
        "{{\"epoch\":{},\"conforms\":{},\"checked\":{},\"violations\":[",
        epoch,
        report.conforms(),
        report.checked
    );
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"shape\":\"{}\",\"focus\":\"{}\"}}",
            json_escape(&v.shape.to_string()),
            json_escape(&v.focus.to_string())
        ));
    }
    out.push_str("]}");
    out
}

/// `POST /validate` — empty body validates the resident snapshot; a
/// non-empty body is parsed as a data graph and validated against the
/// resident schema (one resident process, many datasets).
fn handle_validate(state: &ServerState, req: &Request, snapshot: &Arc<Snapshot>) -> Response {
    let exec = match exec_from_headers(req, &state.cfg) {
        Ok(e) => e.with_cancel(&state.cancel),
        Err(resp) => return resp,
    };
    let result = if req.body.is_empty() {
        with_view!(snapshot, |g| validate_batch_governed(
            &snapshot.schema,
            g,
            exec
        ))
    } else {
        match parse_body_graph(req) {
            Ok(graph) => validate_batch_governed(&snapshot.schema, &graph, exec),
            Err(e) => return engine_error_response(&e),
        }
    };
    match result {
        Ok(report) => {
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
                Response::json(200, report_json(&report, snapshot.epoch))
            }
        }
        Err(e) => engine_error_response(&e),
    }
}

/// `POST /fragment` — empty body computes the full schema fragment; a
/// non-empty body lists shape-name IRIs (one per line) to restrict to.
/// Single-shape requests go through the per-epoch fragment cache, keyed
/// by the requested name: a repeat request is answered from the cached
/// bytes (`x-fragment-cache: hit`), and hits and misses count into
/// `/stats`.
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
        let hit = state
            .fragments
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(snapshot.epoch, name);
        if let Some(body) = hit {
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
    let body = with_view!(snapshot, |g| fragment_ids_governed(
        &snapshot.schema,
        g,
        &shapes,
        exec
    )
    .map(|ids| ntriples::serialize_ids(g, ids)));
    match body {
        Ok(body) => {
            if let Some(name) = cached {
                state
                    .fragments
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(snapshot.epoch, name.clone(), Arc::new(body.clone()));
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
    match with_view!(snapshot, |g| eval_select_governed(
        g,
        &query,
        &EvalConfig::indexed(),
        &exec,
    )) {
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
            Ok::<_, Response>(crate::build_snapshot(epoch, schema, graph))
        })
    } else {
        let graph = match parse_body_graph(req) {
            Ok(g) => g,
            Err(e) => return engine_error_response(&e),
        };
        let schema = Arc::clone(&state.snapshots.load().schema);
        state
            .snapshots
            .swap(|epoch| Ok::<_, Response>(crate::build_snapshot(epoch, schema, graph)))
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
                    snapshot.triples,
                    snapshot.schema.len()
                ),
            )
        }
        Err(resp) => resp,
    }
}

/// `POST /update` — applies a signed N-Triples edit script (`+`/`-`
/// line prefixes, see [`EditScript::parse`]) to the continuous-ingest
/// overlay, revalidates incrementally under the request's budget, and
/// epoch-swaps the merged view. Readers never block: they keep their
/// snapshot clone while the new epoch is published. The first update (or
/// the first after a reload) seeds the incremental state with a full
/// validation.
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
        let base = match &current.delta {
            Some(d) => Arc::new(d.compact()),
            None => Arc::clone(&current.frozen),
        };
        *slot = Some(Updater {
            inc: IncrementalValidator::new(Arc::clone(&current.schema), base),
            epoch: current.epoch,
        });
    }
    let updater = slot.as_mut().expect("updater seeded above");
    match updater
        .inc
        .apply_governed(&script, budget, Some(&state.cancel))
    {
        Ok(report) => {
            let graph = updater.inc.graph();
            let published = state.snapshots.swap(|epoch| {
                Ok::<_, Response>(Snapshot {
                    epoch,
                    schema: Arc::clone(updater.inc.schema()),
                    frozen: Arc::clone(graph.base()),
                    delta: Some(Arc::new(graph.clone())),
                    triples: graph.len(),
                    delta_added: graph.added_len(),
                    delta_removed: graph.removed_len(),
                })
            });
            match published {
                Ok(snap) => {
                    updater.epoch = snap.epoch;
                    state
                        .stats
                        .updates
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    Response::json(
                        200,
                        format!(
                            "{{\"epoch\":{},\"applied\":{},\"triples\":{},\"delta_added\":{},\"delta_removed\":{},\"report\":{}}}",
                            snap.epoch,
                            script.len(),
                            snap.triples,
                            snap.delta_added,
                            snap.delta_removed,
                            report_json(&report, snap.epoch)
                        ),
                    )
                }
                Err(resp) => resp,
            }
        }
        Err(e) => engine_error_response(&e),
    }
}

/// `POST /compact` — re-freezes base + overlay into a fresh snapshot and
/// publishes it with an empty overlay. Ids are stable across compaction,
/// so the incremental rows and memo survive and the next update stays
/// cheap. A no-op (200, `"compacted":false`) when no overlay exists.
fn handle_compact(state: &ServerState) -> Response {
    let mut slot = state.updater.lock().unwrap_or_else(|e| e.into_inner());
    let current = state.snapshots.load();
    let stale = slot.as_ref().is_none_or(|u| u.epoch != current.epoch);
    if stale || current.delta.is_none() {
        return Response::json(
            200,
            format!(
                "{{\"epoch\":{},\"triples\":{},\"compacted\":false}}",
                current.epoch, current.triples
            ),
        );
    }
    let updater = slot.as_mut().expect("checked above");
    updater.inc.compact();
    let published = state.snapshots.swap(|epoch| {
        Ok::<_, Response>(Snapshot {
            epoch,
            schema: Arc::clone(updater.inc.schema()),
            frozen: Arc::clone(updater.inc.graph().base()),
            delta: None,
            triples: updater.inc.graph().len(),
            delta_added: 0,
            delta_removed: 0,
        })
    });
    match published {
        Ok(snap) => {
            updater.epoch = snap.epoch;
            state
                .stats
                .compactions
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Response::json(
                200,
                format!(
                    "{{\"epoch\":{},\"triples\":{},\"compacted\":true}}",
                    snap.epoch, snap.triples
                ),
            )
        }
        Err(resp) => resp,
    }
}

/// `GET /healthz` — liveness plus the current epoch. Never gated: health
/// checks must answer even under full load.
pub fn handle_healthz(state: &ServerState) -> Response {
    let snapshot = state.snapshots.load();
    Response::json(
        200,
        format!(
            "{{\"status\":\"ok\",\"epoch\":{},\"triples\":{}}}",
            snapshot.epoch, snapshot.triples
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
            snapshot.triples,
            snapshot.schema.len(),
            snapshot.delta_added,
            snapshot.delta_removed,
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
