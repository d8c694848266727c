//! Incremental validation over delta overlays with change-impact routing
//! (DESIGN.md §14).
//!
//! [`IncrementalValidator`] owns a [`DeltaGraph`] overlay, the per-shape
//! conformance bits of the last full report, and a shared
//! [`ConformanceMemo`]. Applying an [`EditScript`] routes the batch of
//! touched `(s, p, o)` ids through the analyze crate's
//! [`ImpactProfile`]s — the transitive predicate alphabet, wildcard flag,
//! and read depth of every shape definition — to the *affected focus-node
//! set* per shape, then re-runs only those `(shape, focus)` pairs while
//! selectively dropping the matching memo cells. Everything outside the
//! impact region is reused verbatim.
//!
//! ## Soundness (sketch; the full argument is in DESIGN.md §14)
//!
//! Evaluating a focus node `n` only reads triples it can *traverse to*:
//! a plain path step moves subject → object, an `Inverse` step moves
//! object → subject, and every predicate a definition may step over (in
//! either direction) is in its profile's alphabet. So a touched triple
//! `(s, p, o)` can flip `n`'s bit only if `n` reaches `s` through the
//! directed traversal graph and `p` is forward-readable, or `n` reaches
//! `o` and `p` is inverse-readable (`inv_preds`/`inv_wildcard`).
//! Equivalently, `n` lies in the *ancestor* BFS of `depth` hops from the
//! readable endpoints — walking in-edges for forward-alphabet predicates
//! and out-edges for inverse-alphabet ones — over the *old ∪ new* graph
//! (the post-edit overlay plus this batch's removed edges as extra
//! adjacency). Direction is what keeps the sets small: an undirected ball
//! would flood through hub objects (every `rdf:type` class node links all
//! its instances two hops apart), while ancestor sets only grow through
//! shared *subjects*. Profiles that read any predicate in both directions
//! at unbounded depth fall back to rechecking every target. Target sets
//! are recomputed for every
//! definition on every batch: target membership may hinge on bare node
//! existence (the full-scan fallback), which any edit can change, and a
//! recompute is cheap next to conformance work. Bits are reused only for
//! nodes that were already in the previous row and are outside the impact
//! set.
//!
//! ## Memo discipline
//!
//! Before any re-evaluation the engine drops each definition's impacted
//! `(shape, focus)` memo entries ([`ConformanceMemo::invalidate`], or
//! [`ConformanceMemo::invalidate_shape`] for the recheck-all fallback),
//! then re-binds the memo to the post-edit fingerprint
//! ([`ConformanceMemo::rebind`]). A memo cell holds only a verdict decided
//! for its own definition, so each impact drops only that definition's
//! cells; a `hasShape` reference reads the referenced definition's cells,
//! which that definition's own impact (over its own profile) drops.
//! Governed runs snapshot the overlay before mutating; a mid-batch fault
//! restores it and fully clears the memo — the memo is always either
//! correctly maintained or empty, never half-invalidated.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use shapefrag_analyze::{impact_profiles, ImpactProfile};
use shapefrag_govern::{Budget, CancelToken, EngineError, ExecCtx};
use shapefrag_rdf::{ntriples, DeltaGraph, FrozenGraph, GraphAccess, ParseError, TermId, Triple};
use shapefrag_shacl::validator::{ConformanceMemo, Context, ValidationReport, Violation};
use shapefrag_shacl::{Nnf, Schema};

use crate::fault_of;

/// One edit: add or remove a single triple. Adding a triple that is
/// already present (or removing one that is absent) is a no-op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditOp {
    /// Assert the triple.
    Add(Triple),
    /// Retract the triple.
    Remove(Triple),
}

/// An ordered batch of edits, applied atomically by
/// [`IncrementalValidator::apply_governed`] — the report always reflects
/// either none or all of the script.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EditScript {
    /// The edits, in application order (later ops see earlier ones).
    pub ops: Vec<EditOp>,
}

impl EditScript {
    /// Creates a script from ops.
    pub fn new(ops: impl IntoIterator<Item = EditOp>) -> Self {
        EditScript {
            ops: ops.into_iter().collect(),
        }
    }

    /// Number of edits.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True iff the script holds no edits.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Parses the textual edit format: one op per line, `+` (or no
    /// prefix) for add and `-` for remove, followed by an N-Triples
    /// triple. Blank lines and `#` comments are skipped.
    ///
    /// ```text
    /// + <http://e/alice> <http://e/knows> <http://e/bob> .
    /// - <http://e/alice> <http://e/age> "29" .
    /// ```
    pub fn parse(text: &str) -> Result<EditScript, ParseError> {
        let mut ops = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (add, rest) = match line.strip_prefix('+') {
                Some(rest) => (true, rest),
                None => match line.strip_prefix('-') {
                    Some(rest) => (false, rest),
                    None => (true, line),
                },
            };
            // Error columns count characters from the start of `raw`.
            let body = rest.trim_start();
            let skipped = raw[..raw.trim_end().len() - body.len()].chars().count();
            let triple = ntriples::parse_line(body, idx + 1).map_err(|mut e| {
                e.column += skipped;
                e
            })?;
            ops.push(if add {
                EditOp::Add(triple)
            } else {
                EditOp::Remove(triple)
            });
        }
        Ok(EditScript { ops })
    }
}

impl FromIterator<EditOp> for EditScript {
    fn from_iter<T: IntoIterator<Item = EditOp>>(iter: T) -> Self {
        EditScript::new(iter)
    }
}

/// Per-definition change-impact verdict for one edit batch.
enum Impact {
    /// No touched triple is readable by this shape: reuse every bit.
    Untouched,
    /// Wildcard alphabet with unbounded depth: recheck every target.
    All,
    /// Exactly these focus nodes may have changed their bit.
    Set(BTreeSet<TermId>),
}

/// Incrementally-maintained validation state: a delta overlay over a
/// frozen base snapshot, the `(focus, conforms)` rows of the current
/// report per definition, and the shared conformance memo.
///
/// The maintained report is **bit-identical** to
/// [`shapefrag_shacl::validate_batch`] run from scratch on the overlay:
/// same `checked` count, same violations in the same
/// (definition-major, target-minor) order.
pub struct IncrementalValidator {
    schema: Arc<Schema>,
    /// Impact profile per definition, in `schema.iter()` order.
    profiles: Vec<ImpactProfile>,
    delta: DeltaGraph,
    memo: Arc<ConformanceMemo>,
    /// Per definition (in `schema.iter()` order): the current target row,
    /// sorted ascending by focus id, with each node's conformance bit.
    state: Vec<Vec<(TermId, bool)>>,
}

impl IncrementalValidator {
    /// Seeds the state with a full validation of `base`.
    pub fn new(schema: Arc<Schema>, base: Arc<FrozenGraph>) -> Self {
        let delta = DeltaGraph::new(base);
        let profiles = impact_profiles(schema.iter());
        let memo = Arc::new(ConformanceMemo::new());
        let empty = vec![Vec::new(); schema.len()];
        let impacts: Vec<Impact> = (0..schema.len()).map(|_| Impact::All).collect();
        let state = revalidate(
            &schema,
            &delta,
            &empty,
            &memo,
            &impacts,
            ExecCtx::unbounded(),
        )
        .expect("an unbounded context cannot fault");
        IncrementalValidator {
            schema,
            profiles,
            delta,
            memo,
            state,
        }
    }

    /// The schema this state is maintained for.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The current graph: base snapshot plus this overlay's edits.
    pub fn graph(&self) -> &DeltaGraph {
        &self.delta
    }

    /// The shared conformance memo (for introspection/stats).
    pub fn memo(&self) -> &Arc<ConformanceMemo> {
        &self.memo
    }

    /// Rebuilds the maintained report from the per-definition rows.
    pub fn report(&self) -> ValidationReport {
        let mut report = ValidationReport::default();
        for (def, row) in self.schema.iter().zip(&self.state) {
            report.checked += row.len();
            for &(node, ok) in row {
                if !ok {
                    report.violations.push(Violation {
                        shape: def.name.clone(),
                        focus: self.delta.term(node).clone(),
                    });
                }
            }
        }
        report
    }

    /// Re-freezes base + overlay into a fresh snapshot and resets the
    /// overlay to empty on top of it. Ids are stable across compaction
    /// (the overlay's interner is carried over), so the rows and the memo
    /// survive; the memo is re-bound to the compacted fingerprint.
    pub fn compact(&mut self) {
        let frozen = Arc::new(self.delta.compact());
        self.delta = DeltaGraph::new(frozen);
        self.memo.rebind(&self.schema, &self.delta);
    }

    /// Applies the script's effective edits to the overlay; returns the
    /// touched ids and, separately, the removed edges (for old-graph
    /// adjacency in impact routing), or `None` when nothing changed.
    #[allow(clippy::type_complexity)]
    fn stage(
        &mut self,
        script: &EditScript,
    ) -> Option<(Vec<(TermId, TermId, TermId)>, Vec<(TermId, TermId, TermId)>)> {
        let mut touched = Vec::new();
        let mut removed = Vec::new();
        for op in &script.ops {
            match op {
                EditOp::Add(t) => {
                    if let Some(ids) = self.delta.insert(t) {
                        touched.push(ids);
                    }
                }
                EditOp::Remove(t) => {
                    if let Some(ids) = self.delta.remove(t) {
                        touched.push(ids);
                        removed.push(ids);
                    }
                }
            }
        }
        (!touched.is_empty()).then_some((touched, removed))
    }

    fn route_and_invalidate(
        &self,
        touched: &[(TermId, TermId, TermId)],
        removed: &[(TermId, TermId, TermId)],
    ) -> Vec<Impact> {
        let impacts = plan_impacts(&self.profiles, &self.delta, touched, removed);
        for (def, impact) in self.schema.iter().zip(&impacts) {
            let sid = self
                .schema
                .name_id(&def.name)
                .expect("definition name is in its own schema");
            match impact {
                Impact::Untouched => {}
                Impact::All => self.memo.invalidate_shape(sid),
                Impact::Set(nodes) => self.memo.invalidate(sid, nodes.iter().copied()),
            }
        }
        impacts
    }

    /// Applies an edit batch under `budget` (and `cancel`, if given) and
    /// returns the incrementally-maintained report — identical to a
    /// from-scratch `validate_batch` on the post-edit overlay. Target
    /// recomputation and the re-checks draw on one context holding
    /// `budget`. On a fault the overlay is rolled back to its pre-batch
    /// contents, the rows are left untouched, and the memo is fully
    /// cleared — the state is never half-updated.
    pub fn apply_governed(
        &mut self,
        script: &EditScript,
        budget: Budget,
        cancel: Option<&CancelToken>,
    ) -> Result<ValidationReport, EngineError> {
        let saved = self.delta.clone();
        let Some((touched, removed)) = self.stage(script) else {
            return Ok(self.report());
        };
        let impacts = self.route_and_invalidate(&touched, &removed);
        let exec = ExecCtx::with_budget(budget);
        let exec = match cancel {
            Some(token) => exec.with_cancel(token),
            None => exec,
        };
        match revalidate(
            &self.schema,
            &self.delta,
            &self.state,
            &self.memo,
            &impacts,
            exec,
        ) {
            Ok(state) => {
                self.state = state;
                Ok(self.report())
            }
            Err(e) => {
                self.delta = saved;
                self.memo.clear();
                Err(e)
            }
        }
    }
}

/// Adjacency the post-edit overlay no longer has: the edges removed by
/// this batch, split by traversal direction (`out` keyed by subject,
/// `in` keyed by object) so the ancestor BFS can walk them like live
/// edges.
#[derive(Default)]
struct RemovedAdj {
    out: HashMap<TermId, Vec<(TermId, TermId)>>,
    r#in: HashMap<TermId, Vec<(TermId, TermId)>>,
}

/// Computes the per-definition impact of one edit batch.
fn plan_impacts(
    profiles: &[ImpactProfile],
    delta: &DeltaGraph,
    touched: &[(TermId, TermId, TermId)],
    removed: &[(TermId, TermId, TermId)],
) -> Vec<Impact> {
    let mut removed_adj = RemovedAdj::default();
    for &(s, p, o) in removed {
        removed_adj.out.entry(s).or_default().push((p, o));
        removed_adj.r#in.entry(o).or_default().push((p, s));
    }
    profiles
        .iter()
        .map(|prof| {
            let alphabet: BTreeSet<TermId> = prof
                .preds
                .iter()
                .filter_map(|p| delta.id_of_iri(p))
                .collect();
            let inv_alphabet: BTreeSet<TermId> = prof
                .inv_preds
                .iter()
                .filter_map(|p| delta.id_of_iri(p))
                .collect();
            // A touched triple is readable at its subject when its
            // predicate is in the (forward-or-any) alphabet, and at its
            // object only when the predicate may be traversed inversely.
            let mut seeds: BTreeSet<TermId> = BTreeSet::new();
            for &(s, p, o) in touched {
                if prof.wildcard || alphabet.contains(&p) {
                    seeds.insert(s);
                }
                if prof.inv_wildcard || inv_alphabet.contains(&p) {
                    seeds.insert(o);
                }
            }
            if seeds.is_empty() {
                Impact::Untouched
            } else if prof.wildcard && prof.inv_wildcard && prof.depth.is_none() {
                // Unbounded any-predicate reads in both directions: the
                // ancestor BFS would flood the whole weakly-connected
                // component anyway; skip it and recheck every focus.
                Impact::All
            } else {
                Impact::Set(affected_nodes(
                    delta,
                    &removed_adj,
                    seeds,
                    prof,
                    &alphabet,
                    &inv_alphabet,
                ))
            }
        })
        .collect()
}

/// Ancestor BFS in the directed traversal graph: the nodes that can
/// *reach* a touched endpoint, and whose evaluation may therefore read a
/// touched triple. A forward step (`p` in the alphabet) moves
/// subject → object during evaluation, so its reverse walks in-edges; an
/// inverse step (`p` in `inv_preds`) moves object → subject, so its
/// reverse walks out-edges. Runs over old ∪ new (the overlay plus this
/// batch's removed edges), bounded by the profile depth (`None` runs to
/// fixpoint — safe because ancestor sets don't explode through hub
/// *objects* the way undirected balls do).
fn affected_nodes(
    delta: &DeltaGraph,
    removed_adj: &RemovedAdj,
    seeds: BTreeSet<TermId>,
    prof: &ImpactProfile,
    alphabet: &BTreeSet<TermId>,
    inv_alphabet: &BTreeSet<TermId>,
) -> BTreeSet<TermId> {
    let fwd = |p: TermId| prof.wildcard || alphabet.contains(&p);
    let inv = |p: TermId| prof.inv_wildcard || inv_alphabet.contains(&p);
    let mut seen = seeds.clone();
    let mut frontier: Vec<TermId> = seeds.into_iter().collect();
    let mut hops = 0u32;
    while !frontier.is_empty() {
        if let Some(depth) = prof.depth {
            if hops >= depth {
                break;
            }
        }
        let mut next = Vec::new();
        for n in frontier {
            // Reverse of a forward step ending at `n`: the subjects of
            // alphabet-labeled in-edges.
            for (p, s) in delta.in_edges_ids(n) {
                if fwd(p) && seen.insert(s) {
                    next.push(s);
                }
            }
            if let Some(extra) = removed_adj.r#in.get(&n) {
                for &(p, s) in extra {
                    if fwd(p) && seen.insert(s) {
                        next.push(s);
                    }
                }
            }
            // Reverse of an inverse step ending at `n`: the objects of
            // inverse-alphabet-labeled out-edges.
            for (p, o) in delta.out_edges_ids(n) {
                if inv(p) && seen.insert(o) {
                    next.push(o);
                }
            }
            if let Some(extra) = removed_adj.out.get(&n) {
                for &(p, o) in extra {
                    if inv(p) && seen.insert(o) {
                        next.push(o);
                    }
                }
            }
        }
        frontier = next;
        hops += 1;
    }
    seen
}

/// Recomputes every definition's target row over `delta`, re-checking
/// exactly the impact-routed `(shape, focus)` pairs and reusing every
/// other bit from `state`. Must be called after memo invalidation; it
/// re-binds the memo to the post-edit fingerprint itself.
fn revalidate(
    schema: &Schema,
    delta: &DeltaGraph,
    state: &[Vec<(TermId, bool)>],
    memo: &Arc<ConformanceMemo>,
    impacts: &[Impact],
    exec: ExecCtx,
) -> Result<Vec<Vec<(TermId, bool)>>, EngineError> {
    memo.rebind(schema, delta);
    let mut ctx = Context::with_memo(schema, delta, Arc::clone(memo)).with_exec(exec);
    let mut rows = Vec::with_capacity(schema.len());
    for ((def, old), impact) in schema.iter().zip(state).zip(impacts) {
        ctx.exec().check_now()?;
        let targets = ctx.target_nodes(&def.target);
        fault_of(&mut ctx)?;
        let (entries, to_check) = plan_row(targets, old, impact);
        // Route the re-checks through `HasShape(name)` so the def-level
        // bits land in the memo under the definition's own id, where the
        // next batch's impact routing drops exactly the stale ones.
        let decisions = ctx.conforms_all_nnf(&to_check, &Nnf::HasShape(def.name.clone()));
        fault_of(&mut ctx)?;
        let mut bits = decisions.into_iter();
        let row = entries
            .into_iter()
            .map(|(node, reused)| {
                let bit =
                    reused.unwrap_or_else(|| bits.next().expect("one decision per unfilled entry"));
                (node, bit)
            })
            .collect();
        rows.push(row);
    }
    Ok(rows)
}

/// Splits a recomputed target set into the row to fill and the nodes that
/// still need a conformance check (in row order). A row entry is
/// `(focus, Some(bit))` when the old bit is reused and `(focus, None)`
/// when it is filled from the re-checks, ascending by focus. A node must
/// be re-checked when its definition is impact-routed to it, or when it
/// was not in the previous row at all.
fn plan_row(
    targets: BTreeSet<TermId>,
    old: &[(TermId, bool)],
    impact: &Impact,
) -> (Vec<(TermId, Option<bool>)>, Vec<TermId>) {
    let mut entries = Vec::with_capacity(targets.len());
    let mut to_check = Vec::new();
    for node in targets {
        let reused = match impact {
            Impact::All => None,
            Impact::Set(set) if set.contains(&node) => None,
            _ => old
                .binary_search_by_key(&node, |&(m, _)| m)
                .ok()
                .map(|i| old[i].1),
        };
        if reused.is_none() {
            to_check.push(node);
        }
        entries.push((node, reused));
    }
    (entries, to_check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapefrag_rdf::{Graph, Iri, Term};
    use shapefrag_shacl::{validate_batch, PathExpr, Shape, ShapeDef};

    fn iri(n: &str) -> Iri {
        Iri::new(format!("http://e/{n}"))
    }

    fn term(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(term(s), iri(p), term(o))
    }

    /// Persons (by class) must have ≥1 name.
    fn person_schema() -> Arc<Schema> {
        let target = Shape::geq(
            1,
            PathExpr::prop(iri("type")),
            Shape::has_value(term("Person")),
        );
        let shape = Shape::geq(1, PathExpr::prop(iri("name")), Shape::True);
        Arc::new(Schema::new([ShapeDef::new(term("PersonShape"), shape, target)]).unwrap())
    }

    fn seed_graph() -> Graph {
        let mut g = Graph::new();
        g.insert(t("alice", "type", "Person"));
        g.insert(t("alice", "name", "a"));
        g.insert(t("bob", "type", "Person"));
        g
    }

    fn validator(schema: &Arc<Schema>, g: &Graph) -> IncrementalValidator {
        IncrementalValidator::new(Arc::clone(schema), Arc::new(g.freeze()))
    }

    fn apply(inc: &mut IncrementalValidator, script: &EditScript) -> ValidationReport {
        inc.apply_governed(script, Budget::unlimited(), None)
            .expect("an unlimited budget cannot fault")
    }

    #[test]
    fn seed_report_matches_validate_batch() {
        let schema = person_schema();
        let g = seed_graph();
        let inc = validator(&schema, &g);
        let scratch = validate_batch(&schema, inc.graph());
        assert_eq!(inc.report(), scratch);
        assert_eq!(inc.report().checked, 2);
        assert_eq!(inc.report().violations.len(), 1); // bob has no name
    }

    #[test]
    fn apply_maintains_report_exactly() {
        let schema = person_schema();
        let g = seed_graph();
        let mut inc = validator(&schema, &g);
        // Fix bob, break alice, add a fresh violating person.
        let script = EditScript::new([
            EditOp::Add(t("bob", "name", "b")),
            EditOp::Remove(t("alice", "name", "a")),
            EditOp::Add(t("carol", "type", "Person")),
        ]);
        let report = apply(&mut inc, &script);
        let scratch = validate_batch(&schema, inc.graph());
        assert_eq!(report, scratch);
        assert_eq!(report.checked, 3);
        let focs: Vec<_> = report.violations.iter().map(|v| v.focus.clone()).collect();
        assert_eq!(focs, vec![term("alice"), term("carol")]);
    }

    #[test]
    fn noop_script_changes_nothing() {
        let schema = person_schema();
        let g = seed_graph();
        let mut inc = validator(&schema, &g);
        let before = inc.report();
        let script = EditScript::new([
            EditOp::Add(t("alice", "type", "Person")), // already present
            EditOp::Remove(t("zed", "type", "Person")), // absent
        ]);
        assert_eq!(apply(&mut inc, &script), before);
        assert_eq!(inc.graph().delta_len(), 0);
    }

    #[test]
    fn irrelevant_predicates_do_not_invalidate_memo() {
        let schema = person_schema();
        let g = seed_graph();
        let mut inc = validator(&schema, &g);
        let memo_before = inc.memo().len();
        // `hobby` is outside the shape's alphabet; only the new node's
        // target membership is recomputed, no conformance bit is dropped.
        let report = apply(
            &mut inc,
            &EditScript::new([EditOp::Add(t("alice", "hobby", "chess"))]),
        );
        assert_eq!(report, validate_batch(&schema, inc.graph()));
        assert_eq!(inc.memo().len(), memo_before);
    }

    #[test]
    fn impact_routing_is_directional_not_undirected() {
        // Unbounded-depth, forward-only profile: Persons must reach a
        // named node via `knows*`. An undirected ball from any touched
        // node would flood through the shared `Person` class object to
        // every sibling instance; the ancestor BFS must not.
        let target = Shape::geq(
            1,
            PathExpr::prop(iri("type")),
            Shape::has_value(term("Person")),
        );
        let shape = Shape::geq(
            1,
            PathExpr::prop(iri("knows")).star(),
            Shape::geq(1, PathExpr::prop(iri("name")), Shape::True),
        );
        let schema = Schema::new([ShapeDef::new(term("S"), shape, target)]).unwrap();
        let mut g = Graph::new();
        for n in ["alice", "bob"] {
            g.insert(t(n, "type", "Person"));
            g.insert(t(n, "name", n));
        }
        let profiles = impact_profiles(schema.iter());
        assert!(profiles[0].depth.is_none());
        assert!(!profiles[0].wildcard);
        assert!(profiles[0].inv_preds.is_empty());

        let mut delta = DeltaGraph::new(Arc::new(g.freeze()));
        let touched = delta.insert(&t("alice", "name", "extra")).unwrap();
        let impacts = plan_impacts(&profiles, &delta, &[touched], &[]);
        let alice = delta.id_of(&term("alice")).unwrap();
        let bob = delta.id_of(&term("bob")).unwrap();
        let Impact::Set(set) = &impacts[0] else {
            panic!("expected a routed focus set");
        };
        assert!(set.contains(&alice));
        assert!(
            !set.contains(&bob),
            "directional routing must not flood through the class node"
        );
    }

    #[test]
    fn inverse_paths_route_through_objects() {
        // `Parent ≡ child⁻ names them`: conformance of a parent reads the
        // `child` triple at its *object*, so touching it must impact the
        // triple's object ancestry, not just its subject.
        let target = Shape::True;
        let shape = Shape::geq(1, PathExpr::prop(iri("child")).inverse(), Shape::True);
        let schema = Schema::new([ShapeDef::new(term("S"), shape, target)]).unwrap();
        let mut g = Graph::new();
        g.insert(t("root", "child", "kid"));
        let profiles = impact_profiles(schema.iter());
        assert_eq!(profiles[0].inv_preds.len(), 1);

        let mut delta = DeltaGraph::new(Arc::new(g.freeze()));
        let touched = delta.insert(&t("root", "child", "kid2")).unwrap();
        let impacts = plan_impacts(&profiles, &delta, &[touched], &[]);
        let kid2 = delta.id_of(&term("kid2")).unwrap();
        let Impact::Set(set) = &impacts[0] else {
            panic!("expected a routed focus set");
        };
        assert!(
            set.contains(&kid2),
            "the object of an inversely-read triple must be impacted"
        );
    }

    #[test]
    fn compact_preserves_rows_and_report() {
        let schema = person_schema();
        let g = seed_graph();
        let mut inc = validator(&schema, &g);
        apply(
            &mut inc,
            &EditScript::new([EditOp::Add(t("bob", "name", "b"))]),
        );
        let before = inc.report();
        inc.compact();
        assert_eq!(inc.graph().delta_len(), 0);
        assert_eq!(inc.report(), before);
        // And edits keep flowing after compaction.
        let report = apply(
            &mut inc,
            &EditScript::new([EditOp::Remove(t("bob", "name", "b"))]),
        );
        assert_eq!(report, validate_batch(&schema, inc.graph()));
    }

    #[test]
    fn governed_fault_rolls_back_atomically() {
        let schema = person_schema();
        let g = seed_graph();
        let mut inc = validator(&schema, &g);
        let before = inc.report();
        let len_before = inc.graph().len();
        let script = EditScript::new([EditOp::Add(t("carol", "type", "Person"))]);
        let err = inc
            .apply_governed(&script, Budget::unlimited().steps(0), None)
            .unwrap_err();
        assert!(matches!(err, EngineError::BudgetExceeded { .. }));
        // Overlay rolled back, rows untouched, memo fully cleared.
        assert_eq!(inc.graph().len(), len_before);
        assert_eq!(inc.graph().delta_len(), 0);
        assert_eq!(inc.report(), before);
        assert_eq!(inc.memo().len(), 0);
        // And the validator still works after the fault.
        let report = apply(&mut inc, &script);
        assert_eq!(report, validate_batch(&schema, inc.graph()));
    }

    #[test]
    fn edit_script_parses_signed_ntriples() {
        let text = "\
# comment
+ <http://e/a> <http://e/p> <http://e/b> .
- <http://e/a> <http://e/q> \"1\" .
<http://e/c> <http://e/p> <http://e/d> .
";
        let script = EditScript::parse(text).unwrap();
        assert_eq!(script.len(), 3);
        assert!(matches!(script.ops[0], EditOp::Add(_)));
        assert!(matches!(script.ops[1], EditOp::Remove(_)));
        assert!(matches!(script.ops[2], EditOp::Add(_)));
        assert!(EditScript::parse("+ not ntriples").is_err());
    }

    #[test]
    fn edit_script_error_columns_count_from_the_line_start() {
        // `x` is the 27th character of the statement; the prefix before
        // it (`+ \t`, ` - `, `é` in an IRI) shifts it by its characters.
        let cases = [
            ("<http://e/a> <http://e/p> x .", 27),
            ("+ \t<http://e/a> <http://e/p> x .", 30),
            (" - <http://e/a> <http://e/p> x . ", 30),
            ("+<http://e/é> <http://e/p> x .", 28),
        ];
        for (line, column) in cases {
            let err = EditScript::parse(&format!("# edits\n{line}\n")).unwrap_err();
            assert_eq!((err.line, err.column), (2, column), "{line:?}");
        }
    }
}
