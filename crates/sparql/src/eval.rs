//! SPARQL evaluation: solution mappings over a [`Graph`].
//!
//! Two evaluator configurations stand in for the paper's two engines in the
//! Figure 3 experiment: [`EvalConfig::indexed`] (greedy BGP reordering +
//! hash joins) and [`EvalConfig::naive`] (textual order + nested-loop
//! joins). Both produce identical solution sets.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

use shapefrag_govern::{BudgetKind, EngineError, ExecCtx};
use shapefrag_rdf::{Graph, GraphAccess, Iri, Literal, Term, TermId};
use shapefrag_shacl::rpq::PathCache;
use shapefrag_shacl::PathExpr;

use crate::algebra::{Expr, Pattern, Projection, Select, TriplePattern, VarOrTerm};

/// A solution mapping μ: a partial map from variables to terms.
pub type Binding = BTreeMap<String, Term>;

/// Evaluator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Use hash joins and greedy BGP reordering.
    pub indexed_joins: bool,
    /// Abort evaluation once this many intermediate bindings exist
    /// (`None` = unlimited). Models the out-of-memory behavior observed in
    /// §5.3.2 ("did not terminate or went out of memory").
    pub max_intermediate: Option<usize>,
    /// Abort evaluation after this wall-clock budget (`None` = unlimited).
    /// Models the "did not terminate" outcomes of §5.3.2.
    pub max_duration: Option<Duration>,
}

impl EvalConfig {
    /// The index-accelerated configuration.
    pub fn indexed() -> Self {
        EvalConfig {
            indexed_joins: true,
            max_intermediate: None,
            max_duration: None,
        }
    }

    /// The naive configuration (textual order, nested-loop joins).
    pub fn naive() -> Self {
        EvalConfig {
            indexed_joins: false,
            max_intermediate: None,
            max_duration: None,
        }
    }

    /// Adds an intermediate-result cap.
    pub fn with_cap(mut self, cap: usize) -> Self {
        self.max_intermediate = Some(cap);
        self
    }

    /// Adds a wall-clock budget.
    pub fn with_timeout(mut self, budget: Duration) -> Self {
        self.max_duration = Some(budget);
        self
    }
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig::indexed()
    }
}

/// Evaluation failure: a resource budget (bindings or wall clock) was
/// exceeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceExhausted {
    /// Intermediate binding count at abort (0 for pure timeouts).
    pub intermediate: usize,
    /// True when the wall-clock budget was the trigger.
    pub timed_out: bool,
}

impl std::fmt::Display for ResourceExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.timed_out {
            write!(f, "query aborted: wall-clock budget exceeded")
        } else {
            write!(
                f,
                "query aborted: intermediate result cap exceeded ({} bindings)",
                self.intermediate
            )
        }
    }
}

impl std::error::Error for ResourceExhausted {}

/// Evaluates a `SELECT` query, returning its solution mappings.
pub fn eval_select<G: GraphAccess>(
    graph: &G,
    query: &Select,
    config: &EvalConfig,
) -> Result<Vec<Binding>, ResourceExhausted> {
    let mut ev = Evaluator {
        graph,
        config: *config,
        paths: PathCache::new(),
        started: Instant::now(),
        exec: None,
        fault: None,
    };
    ev.select(query)
}

/// Evaluates a `SELECT` query under an execution-governance context: the
/// step budget, memory estimate, wall-clock deadline, and cancellation
/// token of `exec` are all honored, on top of whatever `config` caps are
/// set. Governance faults surface as structured [`EngineError`]s; a
/// `config`-level cap that trips first is reported as the matching
/// `EngineError` variant (intermediate cap → memory budget, wall-clock cap
/// → deadline).
pub fn eval_select_governed<G: GraphAccess>(
    graph: &G,
    query: &Select,
    config: &EvalConfig,
    exec: &ExecCtx,
) -> Result<Vec<Binding>, EngineError> {
    let mut ev = Evaluator {
        graph,
        config: *config,
        paths: PathCache::new(),
        started: Instant::now(),
        exec: Some(exec),
        fault: None,
    };
    match ev.select(query) {
        Ok(rows) => match ev.fault.take() {
            Some(e) => Err(e),
            None => Ok(rows),
        },
        Err(r) => Err(ev.fault.take().unwrap_or_else(|| {
            if r.timed_out {
                EngineError::DeadlineExceeded {
                    budget_ms: config
                        .max_duration
                        .map(|d| d.as_millis() as u64)
                        .unwrap_or(0),
                }
            } else {
                EngineError::BudgetExceeded {
                    kind: BudgetKind::Memory,
                    limit: config.max_intermediate.unwrap_or(0) as u64,
                }
            }
        })),
    }
}

/// Convenience: evaluates with the default (indexed) configuration,
/// panicking is impossible since no cap is set.
pub fn eval<G: GraphAccess>(graph: &G, query: &Select) -> Vec<Binding> {
    eval_select(graph, query, &EvalConfig::indexed()).expect("no cap set")
}

/// Builds a graph from the `?s ?p ?o` (or custom-named) projections of a
/// solution set — the "CONSTRUCT WHERE" reading used for subgraph queries.
/// Bindings missing any of the three variables, or with a non-IRI
/// predicate/literal subject, are skipped.
pub fn bindings_to_graph(bindings: &[Binding], s: &str, p: &str, o: &str) -> Graph {
    let mut g = Graph::new();
    for b in bindings {
        let (Some(sv), Some(pv), Some(ov)) = (b.get(s), b.get(p), b.get(o)) else {
            continue;
        };
        let Term::Iri(pred) = pv else { continue };
        if sv.is_literal() {
            continue;
        }
        g.insert(shapefrag_rdf::Triple::new(
            sv.clone(),
            pred.clone(),
            ov.clone(),
        ));
    }
    g
}

struct Evaluator<'g, G: GraphAccess> {
    graph: &'g G,
    config: EvalConfig,
    paths: PathCache,
    started: Instant,
    /// Governance context (`None` for the classic, ungoverned entry points).
    exec: Option<&'g ExecCtx>,
    /// First governance fault. The internal operators unwind through
    /// [`ResourceExhausted`]; the governed entry point re-raises this.
    fault: Option<EngineError>,
}

impl<'g, G: GraphAccess> Evaluator<'g, G> {
    /// Records the first governance fault and produces the
    /// [`ResourceExhausted`] used to unwind the operator recursion.
    fn engine_fault(&mut self, e: EngineError, n: usize) -> ResourceExhausted {
        let timed_out = matches!(e, EngineError::DeadlineExceeded { .. });
        if self.fault.is_none() {
            self.fault = Some(e);
        }
        ResourceExhausted {
            intermediate: n,
            timed_out,
        }
    }

    /// Charges `rows` materialized bindings against the step budget.
    fn charge_rows(&mut self, rows: usize) -> Result<(), ResourceExhausted> {
        if let Some(exec) = self.exec {
            if let Err(e) = exec.tick(rows as u64) {
                return Err(self.engine_fault(e, rows));
            }
        }
        Ok(())
    }

    fn check_cap(&mut self, n: usize) -> Result<(), ResourceExhausted> {
        if let Some(exec) = self.exec {
            if let Err(e) = exec.tick(1).and_then(|()| exec.check_now()) {
                return Err(self.engine_fault(e, n));
            }
        }
        if let Some(cap) = self.config.max_intermediate {
            if n > cap {
                return Err(ResourceExhausted {
                    intermediate: n,
                    timed_out: false,
                });
            }
        }
        if let Some(budget) = self.config.max_duration {
            if self.started.elapsed() > budget {
                return Err(ResourceExhausted {
                    intermediate: n,
                    timed_out: true,
                });
            }
        }
        Ok(())
    }

    fn select(&mut self, query: &Select) -> Result<Vec<Binding>, ResourceExhausted> {
        let solutions = self.pattern(&query.pattern)?;
        let mut projected: Vec<Binding> = match &query.projection {
            None => solutions,
            Some(items) => solutions
                .into_iter()
                .map(|b| {
                    let mut out = Binding::new();
                    for item in items {
                        match item {
                            Projection::Var(v) => {
                                if let Some(t) = b.get(v) {
                                    out.insert(v.clone(), t.clone());
                                }
                            }
                            Projection::Rename(x, y) => {
                                if let Some(t) = b.get(x) {
                                    out.insert(y.clone(), t.clone());
                                }
                            }
                            Projection::Const(t, v) => {
                                out.insert(v.clone(), t.clone());
                            }
                        }
                    }
                    out
                })
                .collect(),
        };
        if query.distinct {
            let set: BTreeSet<Binding> = projected.into_iter().collect();
            projected = set.into_iter().collect();
        }
        Ok(projected)
    }

    fn pattern(&mut self, pattern: &Pattern) -> Result<Vec<Binding>, ResourceExhausted> {
        match pattern {
            Pattern::Unit => Ok(vec![Binding::new()]),
            Pattern::Bgp(tps) => self.bgp(tps),
            Pattern::Path {
                subject,
                path,
                object,
            } => self.path_pattern(subject, path, object, &Binding::new()),
            Pattern::Join(a, b) => {
                let left = self.pattern(a)?;
                let right = self.pattern(b)?;
                self.join(left, right)
            }
            Pattern::Union(a, b) => {
                let mut left = self.pattern(a)?;
                let right = self.pattern(b)?;
                left.extend(right);
                self.check_cap(left.len())?;
                self.charge_rows(left.len())?;
                Ok(left)
            }
            Pattern::Minus(a, b) => {
                let left = self.pattern(a)?;
                let right = self.pattern(b)?;
                Ok(left
                    .into_iter()
                    .filter(|mu1| {
                        !right.iter().any(|mu2| {
                            compatible(mu1, mu2) && mu1.keys().any(|k| mu2.contains_key(k))
                        })
                    })
                    .collect())
            }
            Pattern::LeftJoin(a, b, expr) => {
                let left = self.pattern(a)?;
                let right = self.pattern(b)?;
                let mut out = Vec::new();
                for mu1 in left {
                    let mut extended = false;
                    for mu2 in &right {
                        if compatible(&mu1, mu2) {
                            let merged = merge(&mu1, mu2);
                            let keep = match expr {
                                None => true,
                                Some(e) => {
                                    matches!(eval_expr(e, &merged).and_then(|t| ebv(&t)), Ok(true))
                                }
                            };
                            if keep {
                                out.push(merged);
                                extended = true;
                            }
                        }
                    }
                    if !extended {
                        out.push(mu1);
                    }
                }
                self.check_cap(out.len())?;
                self.charge_rows(out.len())?;
                Ok(out)
            }
            Pattern::Filter(inner, expr) => {
                let solutions = self.pattern(inner)?;
                Ok(solutions
                    .into_iter()
                    .filter(|b| matches!(eval_expr(expr, b).and_then(|t| ebv(&t)), Ok(true)))
                    .collect())
            }
            Pattern::SubSelect(sel) => self.select(sel),
        }
    }

    fn bgp(&mut self, tps: &[TriplePattern]) -> Result<Vec<Binding>, ResourceExhausted> {
        let mut remaining: Vec<&TriplePattern> = tps.iter().collect();
        let mut solutions = vec![Binding::new()];
        let mut bound: BTreeSet<String> = BTreeSet::new();
        while !remaining.is_empty() {
            let idx = if self.config.indexed_joins {
                // Greedy: pick the pattern with the most bound positions.
                let score = |tp: &TriplePattern| -> usize {
                    [&tp.subject, &tp.predicate, &tp.object]
                        .into_iter()
                        .filter(|x| match x {
                            VarOrTerm::Term(_) => true,
                            VarOrTerm::Var(v) => bound.contains(v),
                        })
                        .count()
                };
                (0..remaining.len())
                    .max_by_key(|&i| score(remaining[i]))
                    .unwrap()
            } else {
                0
            };
            let tp = remaining.remove(idx);
            let mut next = Vec::new();
            for b in &solutions {
                self.match_triple_pattern(tp, b, &mut next);
            }
            self.check_cap(next.len())?;
            self.charge_rows(next.len())?;
            bound.extend(tp.vars().iter().map(|s| s.to_string()));
            solutions = next;
        }
        Ok(solutions)
    }

    fn match_triple_pattern(&self, tp: &TriplePattern, binding: &Binding, out: &mut Vec<Binding>) {
        let resolve = |x: &VarOrTerm| -> VarOrTerm {
            match x {
                VarOrTerm::Var(v) => match binding.get(v) {
                    Some(t) => VarOrTerm::Term(t.clone()),
                    None => x.clone(),
                },
                t => t.clone(),
            }
        };
        let s = resolve(&tp.subject);
        let p = resolve(&tp.predicate);
        let o = resolve(&tp.object);
        let s_term = match &s {
            VarOrTerm::Term(t) => Some(t.clone()),
            _ => None,
        };
        let p_iri = match &p {
            VarOrTerm::Term(Term::Iri(iri)) => Some(iri.clone()),
            VarOrTerm::Term(_) => return, // non-IRI predicate never matches
            _ => None,
        };
        let o_term = match &o {
            VarOrTerm::Term(t) => Some(t.clone()),
            _ => None,
        };
        for triple in self
            .graph
            .triples_matching(s_term.as_ref(), p_iri.as_ref(), o_term.as_ref())
        {
            let mut b = binding.clone();
            let mut ok = true;
            let mut bind = |x: &VarOrTerm, value: Term| {
                if let VarOrTerm::Var(v) = x {
                    match b.get(v) {
                        Some(existing) if existing != &value => ok = false,
                        _ => {
                            b.insert(v.clone(), value);
                        }
                    }
                }
            };
            bind(&s, triple.subject.clone());
            bind(&p, Term::Iri(triple.predicate.clone()));
            bind(&o, triple.object.clone());
            if ok {
                out.push(b);
            }
        }
    }

    /// `connects` through the evaluator's path cache, under the attached
    /// execution context (unbounded when there is none).
    fn path_connects(
        &mut self,
        path: &PathExpr,
        sid: TermId,
        oid: TermId,
    ) -> Result<bool, ResourceExhausted> {
        let unbounded = ExecCtx::unbounded();
        let exec = self.exec.unwrap_or(&unbounded);
        let r = self.paths.try_connects(path, self.graph, sid, oid, exec);
        r.map_err(|e| self.engine_fault(e, 0))
    }

    /// `eval_from` through the evaluator's path cache, under the attached
    /// execution context (unbounded when there is none).
    fn path_eval_from(
        &mut self,
        path: &PathExpr,
        sid: TermId,
    ) -> Result<BTreeSet<TermId>, ResourceExhausted> {
        let unbounded = ExecCtx::unbounded();
        let exec = self.exec.unwrap_or(&unbounded);
        let r = self.paths.try_eval(path, self.graph, sid, exec);
        r.map_err(|e| self.engine_fault(e, 0))
    }

    fn path_pattern(
        &mut self,
        subject: &VarOrTerm,
        path: &PathExpr,
        object: &VarOrTerm,
        seed: &Binding,
    ) -> Result<Vec<Binding>, ResourceExhausted> {
        let graph = self.graph;
        let resolve = |x: &VarOrTerm| -> VarOrTerm {
            match x {
                VarOrTerm::Var(v) => match seed.get(v) {
                    Some(t) => VarOrTerm::Term(t.clone()),
                    None => x.clone(),
                },
                t => t.clone(),
            }
        };
        let s = resolve(subject);
        let o = resolve(object);
        let mut out = Vec::new();
        match (&s, &o) {
            (VarOrTerm::Term(st), VarOrTerm::Term(ot)) => {
                let (Some(sid), Some(oid)) = (graph.id_of(st), graph.id_of(ot)) else {
                    return Ok(out);
                };
                if self.path_connects(path, sid, oid)? {
                    out.push(seed.clone());
                }
            }
            (VarOrTerm::Term(st), VarOrTerm::Var(ov)) => {
                let Some(sid) = graph.id_of(st) else {
                    return Ok(out);
                };
                for oid in self.path_eval_from(path, sid)? {
                    let mut b = seed.clone();
                    b.insert(ov.clone(), graph.term(oid).clone());
                    out.push(b);
                }
            }
            (VarOrTerm::Var(sv), VarOrTerm::Term(ot)) => {
                let Some(oid) = graph.id_of(ot) else {
                    return Ok(out);
                };
                let inverse = path.clone().inverse();
                for sid in self.path_eval_from(&inverse, oid)? {
                    let mut b = seed.clone();
                    b.insert(sv.clone(), graph.term(sid).clone());
                    out.push(b);
                }
            }
            (VarOrTerm::Var(sv), VarOrTerm::Var(ov)) => {
                // Restricted to N(G) per Lemma 5.1.
                let nodes = graph.node_ids();
                for sid in nodes {
                    for oid in self.path_eval_from(path, sid)? {
                        if sv == ov && sid != oid {
                            continue;
                        }
                        let mut b = seed.clone();
                        b.insert(sv.clone(), graph.term(sid).clone());
                        b.insert(ov.clone(), graph.term(oid).clone());
                        out.push(b);
                    }
                    self.check_cap(out.len())?;
                }
            }
        }
        self.check_cap(out.len())?;
        self.charge_rows(out.len())?;
        Ok(out)
    }

    fn join(
        &mut self,
        left: Vec<Binding>,
        right: Vec<Binding>,
    ) -> Result<Vec<Binding>, ResourceExhausted> {
        let mut out = Vec::new();
        if self.config.indexed_joins {
            // Hash join on the shared variables of the two sides.
            let left_vars: BTreeSet<&String> = left.iter().flat_map(|b| b.keys()).collect();
            let right_vars: BTreeSet<&String> = right.iter().flat_map(|b| b.keys()).collect();
            let shared: Vec<String> = left_vars
                .intersection(&right_vars)
                .map(|s| s.to_string())
                .collect();
            let key = |b: &Binding| -> Vec<Option<Term>> {
                shared.iter().map(|v| b.get(v).cloned()).collect()
            };
            let mut table: HashMap<Vec<Option<Term>>, Vec<&Binding>> = HashMap::new();
            let mut any_partial_right = false;
            for b in &right {
                let k = key(b);
                any_partial_right |= k.iter().any(Option::is_none);
                table.entry(k).or_default().push(b);
            }
            for mu1 in &left {
                // A shared var may be unbound on either side (from UNION
                // branches); those keys must be probed compatibly. Fast
                // path: fully bound keys probe directly.
                let k = key(mu1);
                if k.iter().all(Option::is_some) {
                    if let Some(matches) = table.get(&k) {
                        for mu2 in matches {
                            out.push(merge(mu1, mu2));
                        }
                    }
                    // Partially-bound right-side keys need a compatibility
                    // scan — but only when such keys exist at all.
                    if any_partial_right {
                        for (rk, matches) in &table {
                            if rk != &k && rk.iter().zip(&k).all(|(r, l)| r.is_none() || r == l) {
                                for mu2 in matches {
                                    out.push(merge(mu1, mu2));
                                }
                            }
                        }
                    }
                } else {
                    for mu2 in &right {
                        if compatible(mu1, mu2) {
                            out.push(merge(mu1, mu2));
                        }
                    }
                }
                self.check_cap(out.len())?;
            }
        } else {
            for mu1 in &left {
                for mu2 in &right {
                    if compatible(mu1, mu2) {
                        out.push(merge(mu1, mu2));
                    }
                }
                self.check_cap(out.len())?;
            }
        }
        self.charge_rows(out.len())?;
        Ok(out)
    }
}

/// Two mappings are compatible if they agree on shared variables.
pub fn compatible(a: &Binding, b: &Binding) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small
        .iter()
        .all(|(k, v)| large.get(k).is_none_or(|w| w == v))
}

/// Merges two compatible mappings.
pub fn merge(a: &Binding, b: &Binding) -> Binding {
    let mut out = a.clone();
    for (k, v) in b {
        out.entry(k.clone()).or_insert_with(|| v.clone());
    }
    out
}

/// Evaluates an expression to a term; `Err(())` is the SPARQL error value.
#[allow(clippy::result_unit_err)] // `Err(())` models the SPARQL "error" value
pub fn eval_expr(expr: &Expr, binding: &Binding) -> Result<Term, ()> {
    match expr {
        Expr::Var(v) => binding.get(v).cloned().ok_or(()),
        Expr::Const(t) => Ok(t.clone()),
        Expr::Not(e) => {
            let v = eval_expr(e, binding).and_then(|t| ebv(&t))?;
            Ok(bool_term(!v))
        }
        Expr::And(a, b) => {
            // SPARQL logical-and with error handling: false && error = false.
            let left = eval_expr(a, binding).and_then(|t| ebv(&t));
            let right = eval_expr(b, binding).and_then(|t| ebv(&t));
            match (left, right) {
                (Ok(false), _) | (_, Ok(false)) => Ok(bool_term(false)),
                (Ok(true), Ok(true)) => Ok(bool_term(true)),
                _ => Err(()),
            }
        }
        Expr::Or(a, b) => {
            let left = eval_expr(a, binding).and_then(|t| ebv(&t));
            let right = eval_expr(b, binding).and_then(|t| ebv(&t));
            match (left, right) {
                (Ok(true), _) | (_, Ok(true)) => Ok(bool_term(true)),
                (Ok(false), Ok(false)) => Ok(bool_term(false)),
                _ => Err(()),
            }
        }
        Expr::Eq(a, b) => {
            let x = eval_expr(a, binding)?;
            let y = eval_expr(b, binding)?;
            term_eq(&x, &y).map(bool_term)
        }
        Expr::Neq(a, b) => {
            let x = eval_expr(a, binding)?;
            let y = eval_expr(b, binding)?;
            term_eq(&x, &y).map(|r| bool_term(!r))
        }
        Expr::Lt(a, b) => compare(a, b, binding, |o| o == std::cmp::Ordering::Less),
        Expr::Le(a, b) => compare(a, b, binding, |o| o != std::cmp::Ordering::Greater),
        Expr::Gt(a, b) => compare(a, b, binding, |o| o == std::cmp::Ordering::Greater),
        Expr::Ge(a, b) => compare(a, b, binding, |o| o != std::cmp::Ordering::Less),
        Expr::In(e, terms, negated) => {
            let x = eval_expr(e, binding)?;
            let mut found = false;
            for t in terms {
                if term_eq(&x, t) == Ok(true) {
                    found = true;
                    break;
                }
            }
            Ok(bool_term(found != *negated))
        }
        Expr::Bound(v) => Ok(bool_term(binding.contains_key(v))),
        Expr::Lang(e) => match eval_expr(e, binding)? {
            Term::Literal(l) => Ok(Term::Literal(Literal::string(
                l.language().unwrap_or("").to_owned(),
            ))),
            _ => Err(()),
        },
        Expr::LangMatches(a, b) => {
            let (Term::Literal(tag), Term::Literal(range)) =
                (eval_expr(a, binding)?, eval_expr(b, binding)?)
            else {
                return Err(());
            };
            let tag = tag.lexical().to_ascii_lowercase();
            let range = range.lexical().to_ascii_lowercase();
            let matched = if range == "*" {
                !tag.is_empty()
            } else {
                tag == range
                    || (tag.len() > range.len()
                        && tag.starts_with(&range)
                        && tag.as_bytes()[range.len()] == b'-')
            };
            Ok(bool_term(matched))
        }
        Expr::Str(e) => {
            let t = eval_expr(e, binding)?;
            let s = match &t {
                Term::Iri(iri) => iri.as_str().to_owned(),
                Term::Literal(l) => l.lexical().to_owned(),
                Term::Blank(_) => return Err(()),
            };
            Ok(Term::Literal(Literal::string(s)))
        }
        Expr::IsIri(e) => Ok(bool_term(eval_expr(e, binding)?.is_iri())),
        Expr::IsLiteral(e) => Ok(bool_term(eval_expr(e, binding)?.is_literal())),
        Expr::IsBlank(e) => Ok(bool_term(eval_expr(e, binding)?.is_blank())),
        Expr::SameTerm(a, b) => Ok(bool_term(eval_expr(a, binding)? == eval_expr(b, binding)?)),
        Expr::Coalesce(items) => {
            for e in items {
                if let Ok(t) = eval_expr(e, binding) {
                    return Ok(t);
                }
            }
            Err(())
        }
        Expr::Regex(e, pattern, flags) => {
            let Term::Literal(l) = eval_expr(e, binding)? else {
                return Err(());
            };
            let compiled =
                shapefrag_shacl::regex::Pattern::compile(pattern, flags).map_err(|_| ())?;
            Ok(bool_term(compiled.is_match(l.lexical())))
        }
        Expr::StrLen(e) => {
            let Term::Literal(l) = eval_expr(e, binding)? else {
                return Err(());
            };
            Ok(Term::Literal(Literal::integer(
                l.lexical().chars().count() as i64
            )))
        }
        Expr::Datatype(e) => match eval_expr(e, binding)? {
            Term::Literal(l) => Ok(Term::Iri(l.datatype().clone())),
            _ => Err(()),
        },
        Expr::Add(a, b) => arith(a, b, binding, |x, y| x + y),
        Expr::Sub(a, b) => arith(a, b, binding, |x, y| x - y),
        Expr::Mul(a, b) => arith(a, b, binding, |x, y| x * y),
        Expr::Div(a, b) => {
            let (x, y) = arith_operands(a, b, binding)?;
            if y == 0.0 {
                return Err(());
            }
            Ok(num_term(x / y))
        }
    }
}

fn arith_operands(a: &Expr, b: &Expr, binding: &Binding) -> Result<(f64, f64), ()> {
    let (Term::Literal(x), Term::Literal(y)) = (eval_expr(a, binding)?, eval_expr(b, binding)?)
    else {
        return Err(());
    };
    match (x.value().as_f64(), y.value().as_f64()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(()),
    }
}

fn arith(a: &Expr, b: &Expr, binding: &Binding, op: impl Fn(f64, f64) -> f64) -> Result<Term, ()> {
    let (x, y) = arith_operands(a, b, binding)?;
    Ok(num_term(op(x, y)))
}

fn num_term(v: f64) -> Term {
    if v.fract() == 0.0 && v.abs() < i64::MAX as f64 {
        Term::Literal(Literal::integer(v as i64))
    } else {
        Term::Literal(Literal::double(v))
    }
}

fn compare(
    a: &Expr,
    b: &Expr,
    binding: &Binding,
    check: impl Fn(std::cmp::Ordering) -> bool,
) -> Result<Term, ()> {
    let (Term::Literal(x), Term::Literal(y)) = (eval_expr(a, binding)?, eval_expr(b, binding)?)
    else {
        return Err(());
    };
    match x.value().partial_cmp_value(&y.value()) {
        Some(ord) => Ok(bool_term(check(ord))),
        None => Err(()),
    }
}

/// SPARQL `=`: term equality for IRIs/blanks, value equality for literals;
/// errors on incomparable literal types.
#[allow(clippy::result_unit_err)] // `Err(())` models the SPARQL "error" value
pub fn term_eq(x: &Term, y: &Term) -> Result<bool, ()> {
    if x == y {
        return Ok(true);
    }
    match (x, y) {
        (Term::Literal(a), Term::Literal(b)) => {
            let (va, vb) = (a.value(), b.value());
            use shapefrag_rdf::LiteralValue::Other;
            if matches!(va, Other) || matches!(vb, Other) {
                Err(()) // unknown datatypes: only sameTerm-equal is decidable
            } else {
                Ok(va.value_eq(&vb))
            }
        }
        _ => Ok(false),
    }
}

/// Effective boolean value.
#[allow(clippy::result_unit_err)] // `Err(())` models the SPARQL "error" value
pub fn ebv(t: &Term) -> Result<bool, ()> {
    match t {
        Term::Literal(l) => match l.value() {
            shapefrag_rdf::LiteralValue::Boolean(b) => Ok(b),
            shapefrag_rdf::LiteralValue::Integer(i) => Ok(i != 0),
            shapefrag_rdf::LiteralValue::Double(d) => Ok(d != 0.0 && !d.is_nan()),
            shapefrag_rdf::LiteralValue::String(s) => Ok(!s.is_empty()),
            _ => Err(()),
        },
        _ => Err(()),
    }
}

fn bool_term(b: bool) -> Term {
    Term::Literal(Literal::boolean(b))
}

/// Shorthand for an IRI constant in query construction.
pub fn iri_term(iri: impl Into<Iri>) -> VarOrTerm {
    VarOrTerm::Term(Term::Iri(iri.into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{Pattern, Select, TriplePattern};
    use shapefrag_rdf::Triple;

    fn iri(n: &str) -> Iri {
        Iri::new(format!("http://e/{n}"))
    }

    fn term(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(term(s), iri(p), term(o))
    }

    fn tp(s: VarOrTerm, p: VarOrTerm, o: VarOrTerm) -> TriplePattern {
        TriplePattern::new(s, p, o)
    }

    fn v(n: &str) -> VarOrTerm {
        VarOrTerm::var(n)
    }

    fn test_graph() -> Graph {
        Graph::from_triples([
            t("a", "p", "b"),
            t("a", "p", "c"),
            t("b", "q", "d"),
            t("c", "q", "d"),
            t("x", "r", "y"),
        ])
    }

    #[test]
    fn single_triple_pattern() {
        let g = test_graph();
        let q = Select::star(Pattern::Bgp(vec![tp(v("s"), iri_term(iri("p")), v("o"))]));
        let res = eval(&g, &q);
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn bgp_join_across_patterns() {
        let g = test_graph();
        let q = Select::star(Pattern::Bgp(vec![
            tp(v("s"), iri_term(iri("p")), v("m")),
            tp(v("m"), iri_term(iri("q")), v("o")),
        ]));
        let res = eval(&g, &q);
        assert_eq!(res.len(), 2); // a-b-d, a-c-d
        for b in &res {
            assert_eq!(b["o"], term("d"));
        }
    }

    #[test]
    fn variable_predicate() {
        let g = test_graph();
        let q = Select::star(Pattern::Bgp(vec![tp(v("s"), v("p"), v("o"))]));
        assert_eq!(eval(&g, &q).len(), 5);
    }

    #[test]
    fn shared_variable_in_one_pattern() {
        let mut g = test_graph();
        g.insert(t("z", "p", "z"));
        let q = Select::star(Pattern::Bgp(vec![tp(v("x"), iri_term(iri("p")), v("x"))]));
        let res = eval(&g, &q);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0]["x"], term("z"));
    }

    #[test]
    fn union_concatenates() {
        let g = test_graph();
        let q = Select::star(
            Pattern::Bgp(vec![tp(v("s"), iri_term(iri("p")), v("o"))])
                .union(Pattern::Bgp(vec![tp(v("s"), iri_term(iri("r")), v("o"))])),
        );
        assert_eq!(eval(&g, &q).len(), 3);
    }

    #[test]
    fn minus_removes_overlapping() {
        let g = test_graph();
        // Subjects with p-edges, minus those whose p-value has a q-edge to d.
        let q = Select::star(Pattern::Minus(
            Box::new(Pattern::Bgp(vec![tp(v("s"), iri_term(iri("p")), v("m"))])),
            Box::new(Pattern::Bgp(vec![tp(
                v("m"),
                iri_term(iri("q")),
                VarOrTerm::Term(term("d")),
            )])),
        ));
        assert!(eval(&g, &q).is_empty());
        // MINUS with disjoint domains removes nothing.
        let q2 = Select::star(Pattern::Minus(
            Box::new(Pattern::Bgp(vec![tp(v("s"), iri_term(iri("p")), v("m"))])),
            Box::new(Pattern::Bgp(vec![tp(v("zz"), iri_term(iri("q")), v("ww"))])),
        ));
        assert_eq!(eval(&g, &q2).len(), 2);
    }

    #[test]
    fn optional_keeps_unmatched() {
        let g = test_graph();
        let q = Select::star(Pattern::LeftJoin(
            Box::new(Pattern::Bgp(vec![tp(v("s"), iri_term(iri("p")), v("m"))])),
            Box::new(Pattern::Bgp(vec![tp(v("m"), iri_term(iri("r")), v("o"))])),
            None,
        ));
        let res = eval(&g, &q);
        assert_eq!(res.len(), 2);
        assert!(res.iter().all(|b| !b.contains_key("o")));
    }

    #[test]
    fn optional_with_negated_bound_trick() {
        // The BSBM trick: OPTIONAL { ... } FILTER(!bound(?var)).
        let g = test_graph();
        let q = Select::star(
            Pattern::LeftJoin(
                Box::new(Pattern::Bgp(vec![tp(v("s"), iri_term(iri("p")), v("m"))])),
                Box::new(Pattern::Bgp(vec![tp(v("m"), iri_term(iri("q")), v("w"))])),
                None,
            )
            .filter(Expr::Bound("w".into()).not()),
        );
        // Both p-values (b, c) have q-edges, so nothing survives.
        assert!(eval(&g, &q).is_empty());
    }

    #[test]
    fn filter_comparisons() {
        let mut g = Graph::new();
        for (s, n) in [("a", 1), ("b", 5), ("c", 9)] {
            g.insert(Triple::new(
                term(s),
                iri("v"),
                Term::Literal(Literal::integer(n)),
            ));
        }
        let q = Select::star(
            Pattern::Bgp(vec![tp(v("s"), iri_term(iri("v")), v("n"))])
                .filter(Expr::var("n").lt(Expr::Const(Term::Literal(Literal::integer(6))))),
        );
        assert_eq!(eval(&g, &q).len(), 2);
    }

    #[test]
    fn filter_errors_drop_solutions() {
        let mut g = Graph::new();
        g.insert(t("a", "v", "notanumber"));
        let q = Select::star(
            Pattern::Bgp(vec![tp(v("s"), iri_term(iri("v")), v("n"))])
                .filter(Expr::var("n").lt(Expr::Const(Term::Literal(Literal::integer(6))))),
        );
        assert!(eval(&g, &q).is_empty());
    }

    #[test]
    fn lang_and_langmatches() {
        let mut g = Graph::new();
        g.insert(Triple::new(
            term("a"),
            iri("l"),
            Term::Literal(Literal::lang_string("colour", "en-GB")),
        ));
        g.insert(Triple::new(
            term("b"),
            iri("l"),
            Term::Literal(Literal::lang_string("couleur", "fr")),
        ));
        let q = Select::star(
            Pattern::Bgp(vec![tp(v("s"), iri_term(iri("l")), v("t"))]).filter(Expr::LangMatches(
                Box::new(Expr::Lang(Box::new(Expr::var("t")))),
                Box::new(Expr::Const(Term::Literal(Literal::string("en")))),
            )),
        );
        let res = eval(&g, &q);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0]["s"], term("a"));
    }

    #[test]
    fn path_patterns_all_binding_modes() {
        let g = test_graph();
        let path = PathExpr::prop(iri("p")).then(PathExpr::prop(iri("q")));
        // var-var
        let q = Select::star(Pattern::Path {
            subject: v("s"),
            path: path.clone(),
            object: v("o"),
        });
        // Path endpoints are a set: ⟦p/q⟧ = {(a, d)} (both routes via b
        // and c collapse to the single endpoint pair).
        assert_eq!(eval(&g, &q).len(), 1);
        // term-var
        let q = Select::star(Pattern::Path {
            subject: VarOrTerm::Term(term("a")),
            path: path.clone(),
            object: v("o"),
        });
        let res = eval(&g, &q);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0]["o"], term("d"));
        // var-term
        let q = Select::star(Pattern::Path {
            subject: v("s"),
            path: path.clone(),
            object: VarOrTerm::Term(term("d")),
        });
        assert_eq!(eval(&g, &q).len(), 1);
        // term-term
        let q = Select::star(Pattern::Path {
            subject: VarOrTerm::Term(term("a")),
            path,
            object: VarOrTerm::Term(term("d")),
        });
        assert_eq!(eval(&g, &q).len(), 1);
    }

    #[test]
    fn star_path_includes_identity_on_graph_nodes() {
        let g = Graph::from_triples([t("a", "p", "b")]);
        let q = Select::star(Pattern::Path {
            subject: v("s"),
            path: PathExpr::prop(iri("p")).star(),
            object: v("o"),
        });
        let res = eval(&g, &q);
        // (a,a), (a,b), (b,b)
        assert_eq!(res.len(), 3);
    }

    #[test]
    fn subselect_with_projection_and_rename() {
        let g = test_graph();
        let inner = Select {
            distinct: false,
            projection: Some(vec![
                Projection::Rename("s".into(), "subject".into()),
                Projection::Const(Term::Iri(iri("p")), "pred".into()),
            ]),
            pattern: Pattern::Bgp(vec![tp(v("s"), iri_term(iri("p")), v("o"))]),
        };
        let q = Select::star(Pattern::SubSelect(Box::new(inner)));
        let res = eval(&g, &q);
        assert_eq!(res.len(), 2);
        assert!(res.iter().all(|b| b["pred"] == Term::Iri(iri("p"))));
        assert!(res.iter().all(|b| b.contains_key("subject")));
        assert!(res.iter().all(|b| !b.contains_key("o")));
    }

    #[test]
    fn distinct_dedupes() {
        let g = test_graph();
        let q = Select::vars(
            ["o2"],
            Pattern::Bgp(vec![
                tp(v("s"), iri_term(iri("p")), v("m")),
                tp(v("m"), iri_term(iri("q")), v("o2")),
            ]),
        )
        .distinct();
        assert_eq!(eval(&g, &q).len(), 1);
    }

    #[test]
    fn naive_and_indexed_agree() {
        let g = test_graph();
        let patterns = vec![
            Select::star(Pattern::Bgp(vec![
                tp(v("s"), iri_term(iri("p")), v("m")),
                tp(v("m"), iri_term(iri("q")), v("o")),
            ])),
            Select::star(Pattern::Join(
                Box::new(Pattern::Bgp(vec![tp(v("s"), iri_term(iri("p")), v("m"))])),
                Box::new(Pattern::Bgp(vec![tp(v("m"), iri_term(iri("q")), v("o"))])),
            )),
        ];
        for q in patterns {
            let mut a = eval_select(&g, &q, &EvalConfig::indexed()).unwrap();
            let mut b = eval_select(&g, &q, &EvalConfig::naive()).unwrap();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn resource_cap_aborts() {
        let mut g = Graph::new();
        for i in 0..50 {
            g.insert(t(&format!("s{i}"), "p", &format!("o{i}")));
        }
        let q = Select::star(Pattern::Join(
            Box::new(Pattern::Bgp(vec![tp(v("a"), iri_term(iri("p")), v("b"))])),
            Box::new(Pattern::Bgp(vec![tp(v("c"), iri_term(iri("p")), v("d"))])),
        ));
        let res = eval_select(&g, &q, &EvalConfig::indexed().with_cap(100));
        assert!(res.is_err());
    }

    #[test]
    fn arithmetic_expressions() {
        let mut g = Graph::new();
        for (s, a, b) in [("x", 10, 2), ("y", 9, 3), ("z", 5, 0)] {
            g.insert(Triple::new(
                term(s),
                iri("a"),
                Term::Literal(Literal::integer(a)),
            ));
            g.insert(Triple::new(
                term(s),
                iri("b"),
                Term::Literal(Literal::integer(b)),
            ));
        }
        let base = Pattern::Bgp(vec![
            tp(v("s"), iri_term(iri("a")), v("a")),
            tp(v("s"), iri_term(iri("b")), v("b")),
        ]);
        // a / b > 3 — x: 5, y: 3, z: division by zero (error → dropped).
        let q = Select::star(base.clone().filter(Expr::Gt(
            Box::new(Expr::Div(
                Box::new(Expr::var("a")),
                Box::new(Expr::var("b")),
            )),
            Box::new(Expr::Const(Term::Literal(Literal::integer(3)))),
        )));
        let res = eval(&g, &q);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0]["s"], term("x"));
        // a + b = 12 and a - b = 8 and a * b = 20 all hold only for x.
        let q = Select::star(
            base.filter(
                Expr::Add(Box::new(Expr::var("a")), Box::new(Expr::var("b")))
                    .eq(Expr::Const(Term::Literal(Literal::integer(12))))
                    .and(
                        Expr::Sub(Box::new(Expr::var("a")), Box::new(Expr::var("b")))
                            .eq(Expr::Const(Term::Literal(Literal::integer(8)))),
                    )
                    .and(
                        Expr::Mul(Box::new(Expr::var("a")), Box::new(Expr::var("b")))
                            .eq(Expr::Const(Term::Literal(Literal::integer(20)))),
                    ),
            ),
        );
        let res = eval(&g, &q);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0]["s"], term("x"));
    }

    #[test]
    fn coalesce_strlen_datatype_builtins() {
        let mut g = Graph::new();
        g.insert(Triple::new(
            term("a"),
            iri("v"),
            Term::Literal(Literal::string("hello")),
        ));
        g.insert(Triple::new(
            term("b"),
            iri("v"),
            Term::iri("http://e/thing"),
        ));
        // strlen errors on IRIs; COALESCE falls back.
        let q = Select::star(
            Pattern::Bgp(vec![tp(v("s"), iri_term(iri("v")), v("x"))]).filter(Expr::Eq(
                Box::new(Expr::Coalesce(vec![
                    Expr::StrLen(Box::new(Expr::var("x"))),
                    Expr::Const(Term::Literal(Literal::integer(-1))),
                ])),
                Box::new(Expr::Const(Term::Literal(Literal::integer(5)))),
            )),
        );
        let res = eval(&g, &q);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0]["s"], term("a"));
        // datatype() of the string literal.
        let q = Select::star(
            Pattern::Bgp(vec![tp(v("s"), iri_term(iri("v")), v("x"))]).filter(Expr::Eq(
                Box::new(Expr::Datatype(Box::new(Expr::var("x")))),
                Box::new(Expr::Const(Term::Iri(shapefrag_rdf::vocab::xsd::string()))),
            )),
        );
        assert_eq!(eval(&g, &q).len(), 1);
        // regex builtin.
        let q = Select::star(
            Pattern::Bgp(vec![tp(v("s"), iri_term(iri("v")), v("x"))]).filter(Expr::Regex(
                Box::new(Expr::var("x")),
                "^hel".to_string(),
                String::new(),
            )),
        );
        assert_eq!(eval(&g, &q).len(), 1);
    }

    #[test]
    fn governed_eval_matches_ungoverned_when_unbounded() {
        let g = test_graph();
        let queries = vec![
            Select::star(Pattern::Bgp(vec![
                tp(v("s"), iri_term(iri("p")), v("m")),
                tp(v("m"), iri_term(iri("q")), v("o")),
            ])),
            Select::star(Pattern::Path {
                subject: v("s"),
                path: PathExpr::prop(iri("p")).then(PathExpr::prop(iri("q"))),
                object: v("o"),
            }),
        ];
        let exec = ExecCtx::unbounded();
        for q in queries {
            let mut governed = eval_select_governed(&g, &q, &EvalConfig::indexed(), &exec)
                .expect("unbounded governed eval cannot fail");
            let mut plain = eval_select(&g, &q, &EvalConfig::indexed()).unwrap();
            governed.sort();
            plain.sort();
            assert_eq!(governed, plain);
        }
    }

    #[test]
    fn governed_eval_step_budget_aborts_cross_join() {
        use shapefrag_govern::Budget;
        let mut g = Graph::new();
        for i in 0..50 {
            g.insert(t(&format!("s{i}"), "p", &format!("o{i}")));
        }
        let q = Select::star(Pattern::Join(
            Box::new(Pattern::Bgp(vec![tp(v("a"), iri_term(iri("p")), v("b"))])),
            Box::new(Pattern::Bgp(vec![tp(v("c"), iri_term(iri("p")), v("d"))])),
        ));
        let exec = ExecCtx::with_budget(Budget::unlimited().steps(100));
        let res = eval_select_governed(&g, &q, &EvalConfig::indexed(), &exec);
        assert!(matches!(
            res,
            Err(EngineError::BudgetExceeded {
                kind: BudgetKind::Steps,
                ..
            })
        ));
    }

    #[test]
    fn governed_eval_observes_cancellation() {
        use shapefrag_govern::{Budget, CancelToken};
        let g = test_graph();
        let q = Select::star(Pattern::Bgp(vec![tp(v("s"), v("p"), v("o"))]));
        let token = CancelToken::new();
        token.cancel();
        let exec = ExecCtx::with_budget(Budget::unlimited()).with_cancel(&token);
        let res = eval_select_governed(&g, &q, &EvalConfig::indexed(), &exec);
        assert!(matches!(res, Err(EngineError::Cancelled)));
    }

    #[test]
    fn config_caps_map_to_engine_errors_in_governed_mode() {
        let mut g = Graph::new();
        for i in 0..50 {
            g.insert(t(&format!("s{i}"), "p", &format!("o{i}")));
        }
        let q = Select::star(Pattern::Join(
            Box::new(Pattern::Bgp(vec![tp(v("a"), iri_term(iri("p")), v("b"))])),
            Box::new(Pattern::Bgp(vec![tp(v("c"), iri_term(iri("p")), v("d"))])),
        ));
        let exec = ExecCtx::unbounded();
        let res = eval_select_governed(&g, &q, &EvalConfig::indexed().with_cap(100), &exec);
        assert!(matches!(
            res,
            Err(EngineError::BudgetExceeded {
                kind: BudgetKind::Memory,
                limit: 100,
            })
        ));
    }

    #[test]
    fn bindings_to_graph_extracts_triples() {
        let g = test_graph();
        let q = Select {
            distinct: true,
            projection: Some(vec![
                Projection::Var("s".into()),
                Projection::Const(Term::Iri(iri("p")), "pp".into()),
                Projection::Var("o".into()),
            ]),
            pattern: Pattern::Bgp(vec![tp(v("s"), iri_term(iri("p")), v("o"))]),
        };
        let res = eval(&g, &q);
        let sub = bindings_to_graph(&res, "s", "pp", "o");
        assert_eq!(sub.len(), 2);
        assert!(sub.is_subgraph_of(&g));
    }
}
