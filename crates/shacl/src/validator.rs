//! Conformance checking (Table 1) and schema validation.
//!
//! [`Context`] bundles a schema and a graph with a per-graph compiled-path
//! cache. Table 1 is stated once per arity, over shapes in negation normal
//! form: [`Context::conforms_nnf`] decides `H, G, a ⊨ φ` for one node and
//! [`Context::conforms_all_nnf`] for a batch. `hasShape(s)` decides the
//! schema's compiled NNF of `def(s, H)` ([`Schema::def_nnf`]). The
//! [`Shape`] entry points [`Context::conforms`] and [`Context::conforms_all`]
//! convert their shape once and call the NNF bodies. [`validate`] checks a
//! whole graph against a schema, producing a [`ValidationReport`] in the
//! style of a SHACL engine — this is the "mere validation" baseline of the
//! overhead experiment (§5.3.1).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use shapefrag_govern::{EngineError, ExecCtx};
use shapefrag_rdf::graph::IntMap;
use shapefrag_rdf::{Graph, GraphAccess, Term, TermId};

use crate::nnf::Nnf;
use crate::path::PathExpr;
use crate::rpq::{CompiledPath, PathCache, Reach, TraceSet};
use crate::schema::Schema;
use crate::shape::{PathOrId, Shape};

/// `log2` of the cells per memo page.
const PAGE_BITS: u32 = 10;

/// Cells per memo page: one shape's verdicts for 1024 consecutive term ids.
const PAGE: usize = 1 << PAGE_BITS;

/// One page of a shape's row, one cell per term id: 0 undecided, 1 false,
/// 2 true. Cells are read and written `Relaxed`: a cell publishes nothing
/// but its own verdict, and the page itself is published through its
/// `OnceLock`, whose initialisation synchronises with every `get`.
type Page = Box<[AtomicU8; PAGE]>;

/// One shape's row: a slot per `PAGE` term ids, each page allocated on
/// the first verdict it holds.
type Row = Vec<OnceLock<Page>>;

/// A shared table of decided `(shape name, node)` conformance facts.
///
/// Conformance of a node to a *named* shape is a pure function of the graph
/// and schema, so once decided it can be reused by every referencing target
/// — and by contexts on other threads sharing the memo. The table holds
/// one dense row per shape id, indexed by term id and split into lazily
/// allocated pages of atomic cells: a lookup is a page index and a relaxed
/// load, an insert a `get_or_init` and a relaxed store, and no key is
/// hashed. Rows are sized from the graph's term count when the memo is
/// bound; one lock guards the binding and the row table, and only binding,
/// [`ConformanceMemo::rebind`], [`ConformanceMemo::clear`],
/// [`ConformanceMemo::invalidate_shape`] and a fact beyond the bound width
/// take it for writing. A memo is valid for
/// exactly one `(graph, schema)` pair; the first [`Context::with_memo`]
/// binds the memo to a cheap fingerprint of that pair, and a later mismatch
/// panics in debug builds and detaches the memo (running unmemoized, which
/// is always sound) in release builds — stale reuse across snapshots/epochs
/// cannot poison results. The incremental engine moves a memo across graph
/// *versions* deliberately: it drops the impacted entries
/// ([`ConformanceMemo::invalidate`]) and then re-binds to the new
/// fingerprint ([`ConformanceMemo::rebind`]), which widens the rows when
/// the edits interned new terms.
pub struct ConformanceMemo {
    table: RwLock<MemoTable>,
    /// Optional subsumption index enabling derived answers: a bit decided
    /// for one shape can settle related shapes without re-evaluation. See
    /// [`ConformanceMemo::attach_containment`].
    containment: RwLock<Option<Arc<ContainmentIndex>>>,
    /// Lookups answered through a containment edge rather than a direct bit.
    containment_hits: AtomicU64,
    /// Lookups where the index was attached but no related bit applied.
    containment_misses: AtomicU64,
}

/// What a memo is bound to: the `(schema, graph)` pair's hashes plus the
/// sizes its rows are built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    schema: u64,
    graph: u64,
    shapes: usize,
    terms: usize,
}

/// The lock-guarded part of a [`ConformanceMemo`].
#[derive(Default)]
struct MemoTable {
    /// `None` until the first attachment (or after [`ConformanceMemo::clear`]).
    binding: Option<Fingerprint>,
    /// Pages per row: ids below `width * PAGE` fit without growing.
    width: usize,
    /// One slot per shape id; a row's page table is allocated on its
    /// shape's first verdict, `width` slots long.
    rows: Vec<OnceLock<Row>>,
}

impl MemoTable {
    /// The verdict cell of `(shape, node)`, if its page exists.
    fn cell(&self, shape: u32, node: TermId) -> Option<&AtomicU8> {
        let row = self.rows.get(shape as usize)?.get()?;
        let page = row.get(node.0 as usize >> PAGE_BITS)?.get()?;
        Some(&page[node.0 as usize & (PAGE - 1)])
    }

    fn get(&self, shape: u32, node: TermId) -> Option<bool> {
        match self.cell(shape, node)?.load(Ordering::Relaxed) {
            0 => None,
            cell => Some(cell == 2),
        }
    }

    /// Stores a verdict; `false` when `(shape, node)` lies beyond the
    /// table, which must then [`MemoTable::grow`] first.
    fn set(&self, shape: u32, node: TermId, value: bool) -> bool {
        let page = node.0 as usize >> PAGE_BITS;
        let Some(row) = self.rows.get(shape as usize) else {
            return false;
        };
        if page >= self.width {
            return false;
        }
        let row = row.get_or_init(|| (0..self.width).map(|_| OnceLock::new()).collect());
        row[page].get_or_init(|| Box::new([const { AtomicU8::new(0) }; PAGE]))
            [node.0 as usize & (PAGE - 1)]
            .store(value as u8 + 1, Ordering::Relaxed);
        true
    }

    /// Widens the table to at least `shapes` rows of `pages` pages each.
    fn grow(&mut self, shapes: usize, pages: usize) {
        if shapes > self.rows.len() {
            self.rows.resize_with(shapes, OnceLock::new);
        }
        if pages > self.width {
            self.width = pages;
            for row in self.rows.iter_mut().filter_map(OnceLock::get_mut) {
                row.resize_with(pages, OnceLock::new);
            }
        }
    }

    /// A verdict for `(shape, node)` from decided bits of related shapes: a
    /// `true` bit of a contained shape, or a `false` bit of a containing
    /// shape. Runs only under an attached [`ContainmentIndex`], which no
    /// product path attaches (see its docs).
    fn derive(&self, index: &ContainmentIndex, shape: u32, node: TermId) -> Option<bool> {
        if index
            .subs_of(shape)
            .iter()
            .any(|&sub| self.get(sub, node) == Some(true))
        {
            Some(true)
        } else if index
            .supers_of(shape)
            .iter()
            .any(|&sup| self.get(sup, node) == Some(false))
        {
            Some(false)
        } else {
            None
        }
    }
}

/// Adjacency form of a schema's proven containment relation, consumed by
/// [`ConformanceMemo`] for subsumption-keyed reuse. Shape ids are the
/// dense [`Schema::name_id`] ids; an edge `(sub, sup)` asserts that every
/// `sub`-conformant node is `sup`-conformant. The index is stamped with
/// [`schema_fingerprint`] of the schema it was computed for, so a memo
/// bound to a different schema refuses it.
///
/// The analyze crate's `ContainmentMatrix` produces these; this type is a
/// plain data holder so the validator does not depend on the analyzer.
/// No product path attaches an index; it remains only for the benchmark's
/// layer mirror (`benchmark/src/layers.rs`) and the containment soundness
/// suite until a benchmark change retargets that mirror.
#[derive(Debug, Clone, Default)]
pub struct ContainmentIndex {
    /// `supers[s]`: shapes properly containing `s` (a `false` there derives
    /// `false` for `s`).
    supers: Vec<Vec<u32>>,
    /// `subs[s]`: shapes properly contained in `s` (a `true` there derives
    /// `true` for `s`).
    subs: Vec<Vec<u32>>,
    schema_fp: u64,
}

impl ContainmentIndex {
    /// Builds the adjacency lists from proper containment edges
    /// `(sub, sup)` over `shapes` dense ids.
    pub fn from_edges(shapes: usize, edges: &[(u32, u32)], schema_fp: u64) -> ContainmentIndex {
        let mut supers = vec![Vec::new(); shapes];
        let mut subs = vec![Vec::new(); shapes];
        for &(sub, sup) in edges {
            supers[sub as usize].push(sup);
            subs[sup as usize].push(sub);
        }
        ContainmentIndex {
            supers,
            subs,
            schema_fp,
        }
    }

    /// Shapes properly containing `sid`.
    pub fn supers_of(&self, sid: u32) -> &[u32] {
        self.supers.get(sid as usize).map_or(&[], Vec::as_slice)
    }

    /// Shapes properly contained in `sid`.
    pub fn subs_of(&self, sid: u32) -> &[u32] {
        self.subs.get(sid as usize).map_or(&[], Vec::as_slice)
    }
}

/// Poison-tolerant read access: memo facts are published whole, so data
/// behind a lock poisoned by a panicking worker is still valid.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Poison-tolerant write access (see [`read`]).
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

impl Default for ConformanceMemo {
    fn default() -> Self {
        ConformanceMemo::new()
    }
}

impl ConformanceMemo {
    /// Creates an empty memo (for one graph + schema pair).
    pub fn new() -> Self {
        ConformanceMemo {
            table: RwLock::new(MemoTable::default()),
            containment: RwLock::new(None),
            containment_hits: AtomicU64::new(0),
            containment_misses: AtomicU64::new(0),
        }
    }

    /// Attaches a containment index, enabling subsumption-derived answers
    /// (no product path does; see [`ContainmentIndex`]). Refused (returning `false`, leaving the memo without an index) when
    /// the memo is already bound to a schema with a different fingerprint —
    /// a matrix computed for another schema must never derive bits here.
    pub fn attach_containment(&self, index: Arc<ContainmentIndex>) -> bool {
        let bound = read(&self.table).binding;
        if bound.is_some_and(|b| b.schema != index.schema_fp) {
            return false;
        }
        *write(&self.containment) = Some(index);
        true
    }

    /// The attached containment index, if any.
    pub fn containment(&self) -> Option<Arc<ContainmentIndex>> {
        read(&self.containment).clone()
    }

    /// `(derived answers, derivation attempts that found nothing)` since
    /// construction. Both stay 0 until an index is attached.
    pub fn containment_counters(&self) -> (u64, u64) {
        (
            self.containment_hits.load(Ordering::Relaxed),
            self.containment_misses.load(Ordering::Relaxed),
        )
    }

    /// Looks up a decided fact.
    pub fn lookup(&self, shape: u32, node: TermId) -> Option<bool> {
        read(&self.table).get(shape, node)
    }

    /// [`ConformanceMemo::lookup`] extended with subsumption derivation:
    /// on a direct miss, a `true` bit of any shape contained in `shape`
    /// proves `true` here, and a `false` bit of any shape containing
    /// `shape` proves `false`. Derived answers are written back as regular
    /// bits (they are genuine conformance facts) and counted in
    /// [`ConformanceMemo::containment_counters`]. No product path attaches
    /// an index; see [`ContainmentIndex`].
    pub fn lookup_or_derive(&self, shape: u32, node: TermId) -> Option<bool> {
        let derived = {
            let table = read(&self.table);
            if let Some(v) = table.get(shape, node) {
                return Some(v);
            }
            let index = self.containment()?;
            table.derive(&index, shape, node)
        };
        match derived {
            Some(v) => {
                self.containment_hits.fetch_add(1, Ordering::Relaxed);
                self.insert(shape, node, v);
                Some(v)
            }
            None => {
                self.containment_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records a decided fact.
    pub fn insert(&self, shape: u32, node: TermId, value: bool) {
        self.insert_all(shape, [(node, value)]);
    }

    /// Records decided facts of one shape under one pin of the table; only
    /// facts beyond the bound width wait for the write lock that grows it.
    fn insert_all(&self, shape: u32, facts: impl IntoIterator<Item = (TermId, bool)>) {
        let beyond: Vec<(TermId, bool)> = {
            let table = read(&self.table);
            facts
                .into_iter()
                .filter(|&(node, value)| !table.set(shape, node, value))
                .collect()
        };
        if beyond.is_empty() {
            return;
        }
        let mut table = write(&self.table);
        for (node, value) in beyond {
            // Past the width, at least double it: ids arrive in growing runs.
            let page = node.0 as usize >> PAGE_BITS;
            let pages = if page < table.width {
                table.width
            } else {
                (page + 1).max(2 * table.width)
            };
            table.grow(shape as usize + 1, pages);
            table.set(shape, node, value);
        }
    }

    /// Number of decided facts (decided cells across every row).
    pub fn len(&self) -> usize {
        let table = read(&self.table);
        table
            .rows
            .iter()
            .filter_map(OnceLock::get)
            .flatten()
            .filter_map(OnceLock::get)
            .map(|page| {
                page.iter()
                    .filter(|cell| cell.load(Ordering::Relaxed) != 0)
                    .count()
            })
            .sum()
    }

    /// True iff nothing has been decided yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Binds the memo to a `(schema, graph)` fingerprint on first use,
    /// sizing its rows for the pair; returns `false` when the memo is
    /// already bound to a *different* pair (the caller must then run
    /// unmemoized).
    fn bind_or_check(&self, fingerprint: Fingerprint) -> bool {
        if let Some(bound) = read(&self.table).binding {
            return bound == fingerprint;
        }
        let mut table = write(&self.table);
        match table.binding {
            Some(bound) => bound == fingerprint,
            None => {
                self.bind(&mut table, fingerprint);
                true
            }
        }
    }

    /// Binds `table` to `fingerprint` and grows its rows to the pair's
    /// sizes. A containment index proven over another schema is dropped:
    /// one attached before the first binding was taken on trust.
    fn bind(&self, table: &mut MemoTable, fingerprint: Fingerprint) {
        table.binding = Some(fingerprint);
        table.grow(fingerprint.shapes, fingerprint.terms.div_ceil(PAGE));
        let mut idx = write(&self.containment);
        if idx
            .as_ref()
            .is_some_and(|i| i.schema_fp != fingerprint.schema)
        {
            *idx = None;
        }
    }

    /// Drops the decided facts of `shape` at exactly `nodes`, leaving every
    /// other `(shape, node)` entry in place. This is the incremental
    /// engine's selective invalidation: after an edit batch, only
    /// impact-routed pairs are dropped and everything else is reused.
    pub fn invalidate(&self, shape: u32, nodes: impl IntoIterator<Item = TermId>) {
        let table = read(&self.table);
        for node in nodes {
            if let Some(cell) = table.cell(shape, node) {
                cell.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Drops every decided fact of `shape` regardless of node, freeing its
    /// row. The incremental engine falls back to this when a shape's
    /// impact profile is a wildcard with unbounded depth (any edit may flip
    /// any focus).
    pub fn invalidate_shape(&self, shape: u32) {
        if let Some(row) = write(&self.table).rows.get_mut(shape as usize) {
            *row = OnceLock::new();
        }
    }

    /// Re-binds the memo to a new `(schema, graph)` pair, widening the rows
    /// when the graph interned new terms. Sound only when the caller has
    /// already invalidated every entry whose truth value may differ between
    /// the old and new graph (and the id space is shared, as it is along a
    /// delta/compaction lineage).
    pub fn rebind<G: GraphAccess>(&self, schema: &Schema, graph: &G) {
        self.bind(&mut write(&self.table), memo_fingerprint(schema, graph));
    }

    /// Forgets every decided fact *and* the binding, returning the memo to
    /// its freshly-constructed state. The governed incremental path uses
    /// this on a mid-batch fault: the memo is either untouched or fully
    /// cleared, never half-invalidated.
    pub fn clear(&self) {
        *write(&self.table) = MemoTable::default();
        *write(&self.containment) = None;
        self.containment_hits.store(0, Ordering::Relaxed);
        self.containment_misses.store(0, Ordering::Relaxed);
    }
}

/// Order-sensitive fingerprint of a `(schema, graph)` pair for the memo
/// binding check. Freezing is id-stable, so a graph and its
/// [`FrozenGraph`](shapefrag_rdf::FrozenGraph) snapshot fingerprint alike —
/// sharing a memo across the two backends is sound and stays allowed. The
/// fingerprint is a cheap O(schema + 32 triples) guard against accidental
/// cross-pair reuse, not a cryptographic content hash; it carries the
/// shape and term counts the memo's rows are sized from.
fn memo_fingerprint<G: GraphAccess>(schema: &Schema, graph: &G) -> Fingerprint {
    use std::hash::{Hash, Hasher};
    let mut hg = std::collections::hash_map::DefaultHasher::new();
    graph.len().hash(&mut hg);
    for triple in graph.iter_ids().take(32) {
        triple.hash(&mut hg);
    }
    Fingerprint {
        schema: schema_fingerprint(schema),
        graph: hg.finish(),
        shapes: schema.len(),
        terms: graph.term_count(),
    }
}

/// The schema half of the memo fingerprint, exposed so a
/// [`ContainmentIndex`] can be stamped with the schema it was proven over
/// (and refused by a memo bound to any other schema).
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hs = std::collections::hash_map::DefaultHasher::new();
    schema.len().hash(&mut hs);
    for def in schema.iter() {
        def.name.hash(&mut hs);
    }
    hs.finish()
}

/// Flips every verdict of a batch.
fn negated(mut verdicts: Vec<bool>) -> Vec<bool> {
    for b in &mut verdicts {
        *b = !*b;
    }
    verdicts
}

/// Evaluation context: a schema, a graph, and the path-compilation cache.
///
/// A context optionally carries an [`ExecCtx`] (deadline, step/memory
/// budgets, depth limit, cancellation). The boolean conformance API cannot
/// return `Result`, so resource faults are *sticky*: the first
/// [`EngineError`] is recorded, every subsequent primitive short-circuits
/// (returning `false`/empty to unwind quickly), and governed entry points
/// ([`validate_governed`], [`validate_batch_governed`]) surface the fault as
/// an `Err` instead of a report.
pub struct Context<'a, G: GraphAccess = Graph> {
    pub schema: &'a Schema,
    pub graph: &'a G,
    paths: PathCache,
    /// Shared `hasShape` decisions; `None` disables memoization.
    memo: Option<Arc<ConformanceMemo>>,
    /// Resource governor; unbounded by default.
    exec: ExecCtx,
    /// First resource fault observed (sticky until [`Context::take_fault`]).
    fault: Option<EngineError>,
}

impl<'a, G: GraphAccess> Context<'a, G> {
    /// Creates a context for a schema and graph.
    pub fn new(schema: &'a Schema, graph: &'a G) -> Self {
        Context {
            schema,
            graph,
            paths: PathCache::new(),
            memo: None,
            exec: ExecCtx::unbounded(),
            fault: None,
        }
    }

    /// Term-level convenience for [`Context::conforms`]; nodes not occurring
    /// in the graph still have well-defined conformance (e.g. to `⊤` or
    /// `hasValue`). A node with no incident triple reaches at most itself
    /// along any path, so an absent node is decided over an empty graph
    /// holding only that node.
    pub fn conforms_term(&mut self, node: &Term, shape: &Shape) -> bool {
        match self.graph.id_of(node) {
            Some(id) => self.conforms(id, shape),
            None => {
                let mut lone = Graph::new();
                let id = lone.intern(node);
                Context::new(self.schema, &lone).conforms(id, shape)
            }
        }
    }

    /// Creates a context sharing a conformance memo with other contexts
    /// (possibly on other threads). The memo must have been created for
    /// this same `(graph, schema)` pair; the first attachment binds the
    /// memo to the pair's fingerprint. A mismatching later attachment
    /// panics in debug builds; release builds detach the memo and run
    /// unmemoized (correct, just slower), so a stale memo can never leak
    /// conformance facts across snapshots.
    pub fn with_memo(schema: &'a Schema, graph: &'a G, memo: Arc<ConformanceMemo>) -> Self {
        let attached = memo.bind_or_check(memo_fingerprint(schema, graph));
        debug_assert!(
            attached,
            "ConformanceMemo reused across a different (schema, graph) pair; \
             create one memo per pair (see Context::with_memo)"
        );
        Context {
            schema,
            graph,
            paths: PathCache::new(),
            memo: attached.then_some(memo),
            exec: ExecCtx::unbounded(),
            fault: None,
        }
    }

    /// Attaches an execution governor (builder style):
    /// `Context::new(..).with_exec(ExecCtx::with_budget(..))`.
    pub fn with_exec(mut self, exec: ExecCtx) -> Self {
        self.exec = exec;
        self
    }

    /// The execution governor (for reading `steps_used` etc.).
    pub fn exec(&self) -> &ExecCtx {
        &self.exec
    }

    /// Takes the sticky resource fault, if any. After a `Some` return the
    /// context is usable again (but partial memo entries from the faulted
    /// run remain valid: they were decided before the fault).
    pub fn take_fault(&mut self) -> Option<EngineError> {
        self.fault.take()
    }

    /// True iff a resource fault has been recorded and not yet taken.
    pub fn faulted(&self) -> bool {
        self.fault.is_some()
    }

    fn record_fault(&mut self, e: EngineError) {
        if self.fault.is_none() {
            self.fault = Some(e);
        }
    }

    /// Enters one governed recursion level on behalf of an external
    /// recursive worker (the provenance collectors in `shapefrag-core`
    /// recurse on shape structure without passing through
    /// [`Context::conforms_nnf`]). Returns `false` — recording the fault —
    /// when the depth limit, budget, deadline, or cancellation trips; pair
    /// every `true` return with [`Context::guard_leave`].
    pub fn guard_enter(&mut self) -> bool {
        if self.fault.is_some() {
            return false;
        }
        if let Err(e) = self.exec.enter() {
            self.record_fault(e);
            return false;
        }
        true
    }

    /// Leaves a recursion level entered via [`Context::guard_enter`].
    pub fn guard_leave(&mut self) {
        self.exec.leave();
    }

    /// `⟦E⟧^G(a)`.
    pub fn eval_path(&mut self, path: &PathExpr, from: TermId) -> BTreeSet<TermId> {
        match self.paths.try_eval(path, self.graph, from, &self.exec) {
            Ok(out) => out,
            Err(e) => {
                self.record_fault(e);
                BTreeSet::new()
            }
        }
    }

    /// `⋃_{a ∈ sources} graph(paths(E, G, a, targets))` as id triples, in
    /// one pass over the product graph whatever the number of sources;
    /// `None` admits every endpoint (see [`crate::rpq::CompiledPath::trace`]).
    pub fn trace_path(
        &mut self,
        path: &PathExpr,
        sources: &[TermId],
        targets: Option<&BTreeSet<TermId>>,
    ) -> BTreeSet<(TermId, TermId, TermId)> {
        match self
            .paths
            .try_trace(path, self.graph, sources, targets, &self.exec)
        {
            Ok(out) => out,
            Err(e) => {
                self.record_fault(e);
                BTreeSet::new()
            }
        }
    }

    /// `⋃ᵢ graph(paths(E, G, sources[i], Q))` through the reach kernel, for
    /// `Q = qualify(ctx, endpoints)` where `endpoints` are the distinct
    /// `⋃ᵢ ⟦E⟧(sources[i])` in ascending order and `Q` is any subset of
    /// them; returned with `Q`. The endpoints come from the trace's own
    /// forward pass, so the caller never evaluates the path separately to
    /// pick its targets.
    pub fn trace_qualifying(
        &mut self,
        path: &PathExpr,
        sources: &[TermId],
        qualify: impl FnOnce(&mut Self, Vec<TermId>) -> Vec<TermId>,
    ) -> (TraceSet, Vec<TermId>) {
        let graph = self.graph;
        let edges =
            |path: &CompiledPath, reach: &Reach, exec: &ExecCtx| path.try_edges(graph, reach, exec);
        self.reach(path, sources, qualify, edges)
            .unwrap_or_default()
    }

    /// The reach kernel's run under this context: forward from `sources`,
    /// `qualify` the endpoints (it may decide shapes through `self`),
    /// backward from the qualifying set, then `finish`. `None` on a
    /// resource fault, which is recorded.
    fn reach<R>(
        &mut self,
        path: &PathExpr,
        sources: &[TermId],
        qualify: impl FnOnce(&mut Self, Vec<TermId>) -> Vec<TermId>,
        finish: impl FnOnce(&CompiledPath, &Reach, &ExecCtx) -> Result<R, EngineError>,
    ) -> Option<(R, Vec<TermId>)> {
        if self.fault.is_some() {
            return None;
        }
        let graph = self.graph;
        let mut reach = Reach::default();
        let out = match self
            .paths
            .get(path, graph)
            .try_forward(graph, sources, &mut reach, &self.exec)
        {
            Err(e) => Err(e),
            // A fault recorded while qualifying ends the run unanswered.
            Ok(()) => {
                let targets = qualify(self, reach.endpoints());
                if self.fault.is_some() {
                    Ok(None)
                } else {
                    let compiled = self.paths.get(path, graph);
                    compiled
                        .try_backward(graph, &mut reach, targets.iter().copied(), &self.exec)
                        .and_then(|()| finish(compiled, &reach, &self.exec))
                        .map(|r| Some((r, targets)))
                }
            }
        };
        reach.release(&self.exec);
        out.unwrap_or_else(|e| {
            self.record_fault(e);
            None
        })
    }

    /// `⟦F⟧^G(a)` where `F` is a path expression or `id`.
    pub fn eval_path_or_id(&mut self, f: &PathOrId, from: TermId) -> BTreeSet<TermId> {
        match f {
            PathOrId::Id => BTreeSet::from([from]),
            PathOrId::Path(e) => self.eval_path(e, from),
        }
    }

    /// Decides `H, G, a ⊨ φ` for a general shape by converting it to NNF
    /// once; callers deciding one shape for many nodes convert it
    /// themselves and call [`Context::conforms_nnf`].
    pub fn conforms(&mut self, node: TermId, shape: &Shape) -> bool {
        self.conforms_nnf(node, &Nnf::from_shape(shape))
    }

    /// Decides `H, G, a ⊨ φ` (Table 1) for a shape in NNF.
    ///
    /// Under a governor, each call costs one step and one recursion level;
    /// on a resource fault the answer is `false` and the fault is recorded
    /// (see [`Context::take_fault`]).
    pub fn conforms_nnf(&mut self, node: TermId, shape: &Nnf) -> bool {
        if self.fault.is_some() {
            return false;
        }
        if let Err(e) = self.exec.enter() {
            self.record_fault(e);
            return false;
        }
        let out = self.conforms_nnf_inner(node, shape);
        self.exec.leave();
        out
    }

    fn conforms_nnf_inner(&mut self, node: TermId, shape: &Nnf) -> bool {
        match shape {
            Nnf::True => true,
            Nnf::False => false,
            Nnf::HasShape(name) => self.conforms_named(node, name),
            Nnf::NotHasShape(name) => !self.conforms_named(node, name),
            Nnf::Test(t) => t.satisfied_by(self.graph.term(node)),
            Nnf::NotTest(t) => !t.satisfied_by(self.graph.term(node)),
            Nnf::HasValue(c) => self.graph.term(node) == c,
            Nnf::NotHasValue(c) => self.graph.term(node) != c,
            Nnf::Eq(f, p) => {
                let (left, right) = self.pair_values(node, f, p);
                left == right
            }
            Nnf::NotEq(f, p) => {
                let (left, right) = self.pair_values(node, f, p);
                left != right
            }
            Nnf::Disj(f, p) => {
                let (left, right) = self.pair_values(node, f, p);
                left.is_disjoint(&right)
            }
            Nnf::NotDisj(f, p) => {
                let (left, right) = self.pair_values(node, f, p);
                !left.is_disjoint(&right)
            }
            Nnf::Closed(allowed) => self.closed(node, allowed),
            Nnf::NotClosed(allowed) => !self.closed(node, allowed),
            Nnf::LessThan(e, p) => self.pairwise_cmp(e, p, node, CmpOp::Lt),
            Nnf::NotLessThan(e, p) => !self.pairwise_cmp(e, p, node, CmpOp::Lt),
            Nnf::LessThanEq(e, p) => self.pairwise_cmp(e, p, node, CmpOp::Le),
            Nnf::NotLessThanEq(e, p) => !self.pairwise_cmp(e, p, node, CmpOp::Le),
            Nnf::MoreThan(e, p) => self.pairwise_cmp(e, p, node, CmpOp::Gt),
            Nnf::NotMoreThan(e, p) => !self.pairwise_cmp(e, p, node, CmpOp::Gt),
            Nnf::MoreThanEq(e, p) => self.pairwise_cmp(e, p, node, CmpOp::Ge),
            Nnf::NotMoreThanEq(e, p) => !self.pairwise_cmp(e, p, node, CmpOp::Ge),
            Nnf::UniqueLang(e) => self.unique_lang(node, e),
            Nnf::NotUniqueLang(e) => !self.unique_lang(node, e),
            Nnf::And(items) => items.iter().all(|s| self.conforms_nnf(node, s)),
            Nnf::Or(items) => items.iter().any(|s| self.conforms_nnf(node, s)),
            Nnf::Geq(n, e, inner) => self.count_conforming(node, e, inner, *n) >= *n,
            Nnf::Leq(n, e, inner) => {
                self.count_conforming(node, e, inner, n.saturating_add(1)) <= *n
            }
            Nnf::ForAll(e, inner) => {
                let candidates = self.eval_path(e, node);
                candidates.into_iter().all(|b| self.conforms_nnf(b, inner))
            }
        }
    }

    /// How many `E`-successors of `a` conform to `inner`, deciding no
    /// further successor once `stop` of them do.
    fn count_conforming(&mut self, node: TermId, e: &PathExpr, inner: &Nnf, stop: u32) -> u32 {
        let mut count = 0;
        for b in self.eval_path(e, node) {
            if count == stop {
                break;
            }
            count += u32::from(self.conforms_nnf(b, inner));
        }
        count
    }

    /// Decides `H, G, a ⊨ hasShape(s)`, consulting the shared memo when one
    /// is attached: each `(shape name, node)` pair is decided at most once
    /// per memo, no matter how many referencing shapes or targets ask.
    pub fn conforms_named(&mut self, node: TermId, name: &Term) -> bool {
        let schema = self.schema;
        let sid = schema.name_id(name);
        let shape = schema.def_nnf_by_id(sid, false);
        if let (Some(memo), Some(sid)) = (self.memo.clone(), sid) {
            if let Some(decided) = memo.lookup_or_derive(sid, node) {
                return decided;
            }
            let value = self.conforms_nnf(node, shape);
            // A faulted run's answers are unwinding placeholders, not
            // decisions; keep them out of the shared memo.
            if self.fault.is_none() {
                memo.insert(sid, node, value);
            }
            return value;
        }
        self.conforms_nnf(node, shape)
    }

    /// Set-at-a-time `⟦E⟧^G(sources[i])` through the multi-source kernel.
    pub fn eval_path_many(&mut self, path: &PathExpr, sources: &[TermId]) -> Vec<BTreeSet<TermId>> {
        match self
            .paths
            .try_eval_many(path, self.graph, sources, &self.exec)
        {
            Ok(out) => out,
            Err(e) => {
                self.record_fault(e);
                vec![BTreeSet::new(); sources.len()]
            }
        }
    }

    /// [`Context::conforms_nnf`] for every node at once, converting a
    /// general shape to NNF once.
    pub fn conforms_all(&mut self, nodes: &[TermId], shape: &Shape) -> Vec<bool> {
        self.conforms_all_nnf(nodes, &Nnf::from_shape(shape))
    }

    /// Batch driver: decides `H, G, a ⊨ φ` for every node at once,
    /// agreeing pointwise with [`Context::conforms_nnf`].
    ///
    /// Boolean structure is evaluated set-wise (narrowing to still-undecided
    /// nodes), and quantifier endpoints are decided once per *distinct*
    /// endpoint instead of once per (focus, endpoint) pair. `≥1`, `≤0` and
    /// `∀` read each focus's verdict off one forward and one backward
    /// product pass of the reach kernel; the counting quantifiers take
    /// per-focus candidate sets from one multi-source RPQ pass.
    pub fn conforms_all_nnf(&mut self, nodes: &[TermId], shape: &Nnf) -> Vec<bool> {
        if self.fault.is_some() {
            return vec![false; nodes.len()];
        }
        if let Err(e) = self.exec.enter() {
            self.record_fault(e);
            return vec![false; nodes.len()];
        }
        let out = self.conforms_all_nnf_inner(nodes, shape);
        self.exec.leave();
        out
    }

    fn conforms_all_nnf_inner(&mut self, nodes: &[TermId], shape: &Nnf) -> Vec<bool> {
        match shape {
            Nnf::True => vec![true; nodes.len()],
            Nnf::False => vec![false; nodes.len()],
            Nnf::HasShape(name) => self.conforms_all_named(nodes, name),
            Nnf::NotHasShape(name) => negated(self.conforms_all_named(nodes, name)),
            Nnf::And(items) => self.narrowed_all(nodes, items, true),
            Nnf::Or(items) => self.narrowed_all(nodes, items, false),
            Nnf::Geq(0, _, _) => vec![true; nodes.len()],
            Nnf::Geq(1, e, inner) => self.reach_all(nodes, e, inner, true),
            Nnf::Geq(n, e, inner) => {
                let need = *n as usize;
                self.quantified_all(nodes, e, inner, |count| count >= need)
            }
            Nnf::Leq(0, e, inner) => negated(self.reach_all(nodes, e, inner, true)),
            Nnf::Leq(n, e, inner) => {
                let cap = *n as usize;
                self.quantified_all(nodes, e, inner, |count| count <= cap)
            }
            // Every candidate conforms to ⊤, so ∀E.⊤ holds trivially.
            Nnf::ForAll(_, inner) if matches!(**inner, Nnf::True) => vec![true; nodes.len()],
            Nnf::ForAll(e, inner) => negated(self.reach_all(nodes, e, inner, false)),
            // Shape-free atoms: no sub-shape to share, decide per node.
            atom => nodes.iter().map(|&a| self.conforms_nnf(a, atom)).collect(),
        }
    }

    /// `∧` (`unit = true`) and `∨` (`unit = false`) for the batch driver:
    /// each item decides only the nodes whose verdict is still `unit`.
    fn narrowed_all(&mut self, nodes: &[TermId], items: &[Nnf], unit: bool) -> Vec<bool> {
        let mut out = vec![unit; nodes.len()];
        for item in items {
            let live: Vec<usize> = (0..nodes.len()).filter(|&i| out[i] == unit).collect();
            if live.is_empty() {
                break;
            }
            let subset: Vec<TermId> = live.iter().map(|&i| nodes[i]).collect();
            let sub = self.conforms_all_nnf(&subset, item);
            for (k, &i) in live.iter().enumerate() {
                out[i] = sub[k];
            }
        }
        out
    }

    /// `≥1 E.ψ`, `≤0 E.ψ` and `∀E.ψ` for the batch driver: `out[i]` iff
    /// some `E`-path leads from `nodes[i]` to an endpoint whose verdict for
    /// `ψ = inner` is `want`. `≥1 E.ψ` is `want = true`; `≤0 E.ψ` negates it;
    /// `∀E.ψ` negates `want = false` (no path to a failing endpoint). One
    /// reach-kernel run: the forward pass yields the distinct endpoints,
    /// which are decided in one recursive batch, and one backward pass from
    /// the qualifying ones answers every focus; nothing is counted per
    /// focus.
    fn reach_all(
        &mut self,
        nodes: &[TermId],
        path: &PathExpr,
        inner: &Nnf,
        want: bool,
    ) -> Vec<bool> {
        let qualify = |ctx: &mut Self, endpoints: Vec<TermId>| {
            let verdicts = ctx.conforms_all_nnf(&endpoints, inner);
            endpoints
                .into_iter()
                .zip(verdicts)
                .filter(|&(_, ok)| ok == want)
                .map(|(x, _)| x)
                .collect()
        };
        let verdicts = |_: &CompiledPath, reach: &Reach, _: &ExecCtx| {
            Ok(nodes.iter().map(|&v| reach.reaches(v)).collect())
        };
        match self.reach(path, nodes, qualify, verdicts) {
            Some((out, _)) => out,
            None => vec![false; nodes.len()],
        }
    }

    /// Counting quantifiers (`≥n`, n ≥ 2, and `≤n`, n ≥ 1) for the batch
    /// driver: one multi-source RPQ pass yields each focus node's
    /// candidate set; the *union* of candidates is decided against `inner`
    /// in one recursive batch; each focus then counts its conforming
    /// candidates and `decide(count)` gives the bit.
    fn quantified_all(
        &mut self,
        nodes: &[TermId],
        path: &PathExpr,
        inner: &Nnf,
        decide: impl Fn(usize) -> bool,
    ) -> Vec<bool> {
        let cand_sets = self.eval_path_many(path, nodes);
        if matches!(inner, Nnf::True) {
            // Every candidate conforms, so only the counts are needed.
            return cand_sets.iter().map(|cands| decide(cands.len())).collect();
        }
        let mut union_vec: Vec<TermId> = cand_sets
            .iter()
            .flat_map(|set| set.iter().copied())
            .collect();
        union_vec.sort_unstable();
        union_vec.dedup();
        let decided = self.conforms_all_nnf(&union_vec, inner);
        let ok: IntMap<TermId, bool> = union_vec.into_iter().zip(decided).collect();
        cand_sets
            .iter()
            .map(|cands| decide(cands.iter().filter(|c| ok[c]).count()))
            .collect()
    }

    /// Batch form of [`Context::conforms_named`]: memo hits answer
    /// immediately; the distinct undecided nodes are evaluated in one
    /// recursive batch against the definition and recorded.
    fn conforms_all_named(&mut self, nodes: &[TermId], name: &Term) -> Vec<bool> {
        let schema = self.schema;
        let sid = schema.name_id(name);
        let shape = schema.def_nnf_by_id(sid, false);
        let (Some(memo), Some(sid)) = (self.memo.clone(), sid) else {
            return self.conforms_all_nnf(nodes, shape);
        };
        let mut out = vec![false; nodes.len()];
        let mut missing: Vec<usize> = Vec::new();
        let index = memo.containment();
        let mut derived: Vec<(TermId, bool)> = Vec::new();
        {
            // Pin the row table once; each probe is then a page index and
            // a relaxed load. Subsumption derivation probes the same rows:
            // a true bit of a contained shape, or a false bit of a
            // containing shape, settles this pair without evaluation.
            let table = read(&memo.table);
            let derive = |node| index.as_ref().and_then(|idx| table.derive(idx, sid, node));
            for (i, &node) in nodes.iter().enumerate() {
                if let Some(v) = table.get(sid, node) {
                    out[i] = v;
                } else if let Some(v) = derive(node) {
                    out[i] = v;
                    derived.push((node, v));
                } else {
                    missing.push(i);
                }
            }
        }
        if index.is_some() {
            memo.containment_hits
                .fetch_add(derived.len() as u64, Ordering::Relaxed);
            memo.containment_misses
                .fetch_add(missing.len() as u64, Ordering::Relaxed);
        }
        memo.insert_all(sid, derived);
        if !missing.is_empty() {
            let mut uniq_vec: Vec<TermId> = missing.iter().map(|&i| nodes[i]).collect();
            uniq_vec.sort_unstable();
            uniq_vec.dedup();
            let decided = self.conforms_all_nnf(&uniq_vec, shape);
            // Keep unwinding placeholders from a faulted run out of the
            // shared memo.
            if self.fault.is_none() {
                memo.insert_all(sid, uniq_vec.iter().copied().zip(decided.iter().copied()));
            }
            for &i in &missing {
                let k = uniq_vec
                    .binary_search(&nodes[i])
                    .expect("every missing node was decided");
                out[i] = decided[k];
            }
        }
        out
    }

    /// `(⟦F⟧^G(a), ⟦p⟧^G(a))`, the two sides compared by `eq` and `disj`.
    fn pair_values(
        &mut self,
        node: TermId,
        f: &PathOrId,
        p: &shapefrag_rdf::Iri,
    ) -> (BTreeSet<TermId>, BTreeSet<TermId>) {
        (self.eval_path_or_id(f, node), self.prop_values(node, p))
    }

    /// `closed(P)`: every outgoing predicate of `a` is in `allowed`.
    fn closed(&self, node: TermId, allowed: &BTreeSet<shapefrag_rdf::Iri>) -> bool {
        self.graph
            .predicates_out_ids(node)
            .all(|pid| matches!(self.graph.term(pid), Term::Iri(iri) if allowed.contains(iri)))
    }

    /// `uniqueLang(E)`: no two values of `E` at `a` share a language tag.
    fn unique_lang(&mut self, node: TermId, e: &PathExpr) -> bool {
        let values = self.eval_path(e, node);
        let mut tags: Vec<&str> = Vec::new();
        for v in &values {
            if let Term::Literal(lit) = self.graph.term(*v) {
                if let Some(tag) = lit.language() {
                    if tags.contains(&tag) {
                        return false;
                    }
                    tags.push(tag);
                }
            }
        }
        true
    }

    /// `⟦p⟧^G(a)` for a plain property.
    fn prop_values(&mut self, node: TermId, p: &shapefrag_rdf::Iri) -> BTreeSet<TermId> {
        match self.graph.id_of_iri(p) {
            Some(pid) => self.graph.objects_ids(node, pid).collect(),
            None => BTreeSet::new(),
        }
    }

    fn pairwise_cmp(
        &mut self,
        e: &PathExpr,
        p: &shapefrag_rdf::Iri,
        node: TermId,
        op: CmpOp,
    ) -> bool {
        let left = self.eval_path(e, node);
        let right = self.prop_values(node, p);
        for b in &left {
            for c in &right {
                let (Term::Literal(lb), Term::Literal(lc)) =
                    (self.graph.term(*b), self.graph.term(*c))
                else {
                    return false; // b and c must be literals
                };
                if !op.holds(lb.value().partial_cmp_value(&lc.value())) {
                    return false;
                }
            }
        }
        true
    }

    /// The target nodes of a target shape: all `a ∈ N(G)` with
    /// `H, G, a ⊨ τ`. Common SHACL target forms take fast paths; arbitrary
    /// shapes fall back to a full node scan.
    pub fn target_nodes(&mut self, target: &Shape) -> BTreeSet<TermId> {
        if let Some(fast) = self.fast_targets(target) {
            return fast;
        }
        let target = Nnf::from_shape(target);
        let nodes = self.graph.node_ids();
        nodes
            .into_iter()
            .filter(|n| self.conforms_nnf(*n, &target))
            .collect()
    }

    fn fast_targets(&mut self, target: &Shape) -> Option<BTreeSet<TermId>> {
        match target {
            Shape::False => Some(BTreeSet::new()),
            // Node target.
            Shape::HasValue(c) => Some(self.graph.id_of(c).into_iter().collect()),
            // Union of targets.
            Shape::Or(items) => {
                let mut out = BTreeSet::new();
                for item in items {
                    out.extend(self.fast_targets(item)?);
                }
                Some(out)
            }
            Shape::Geq(1, path, inner) => match (path, inner.as_ref()) {
                // Subjects-of target: ≥1 p.⊤
                (PathExpr::Prop(p), Shape::True) => {
                    let pid = self.graph.id_of_iri(p)?;
                    Some(
                        self.graph
                            .edges_with_predicate_ids(pid)
                            .map(|(s, _)| s)
                            .collect(),
                    )
                }
                // Objects-of target: ≥1 p⁻.⊤
                (PathExpr::Inverse(inv), Shape::True) => match inv.as_ref() {
                    PathExpr::Prop(p) => {
                        let pid = self.graph.id_of_iri(p)?;
                        Some(
                            self.graph
                                .edges_with_predicate_ids(pid)
                                .map(|(_, o)| o)
                                .collect(),
                        )
                    }
                    _ => None,
                },
                // Class target: ≥1 type/sub*.hasValue(c) — find all classes
                // that reach c via sub*, then all their instances.
                (PathExpr::Seq(first, rest), Shape::HasValue(c)) => {
                    let (PathExpr::Prop(type_p), PathExpr::ZeroOrMore(sub)) =
                        (first.as_ref(), rest.as_ref())
                    else {
                        return None;
                    };
                    let PathExpr::Prop(sub_p) = sub.as_ref() else {
                        return None;
                    };
                    let cid = self.graph.id_of(c)?;
                    // Classes reaching c: backward closure over sub_p.
                    let back = PathExpr::Prop(sub_p.clone()).inverse().star();
                    let classes = self.eval_path(&back, cid);
                    let type_pid = self.graph.id_of_iri(type_p)?;
                    let mut out = BTreeSet::new();
                    for class in classes {
                        out.extend(self.graph.subjects_ids(class, type_pid));
                    }
                    Some(out)
                }
                // Plain-class target without subclass closure:
                // ≥1 type.hasValue(c).
                (PathExpr::Prop(type_p), Shape::HasValue(c)) => {
                    let cid = self.graph.id_of(c)?;
                    let type_pid = self.graph.id_of_iri(type_p)?;
                    Some(self.graph.subjects_ids(cid, type_pid).collect())
                }
                _ => None,
            },
            _ => None,
        }
    }
}

/// A literal comparison operator used by the property-pair shapes
/// (`lessThan`, `lessThanEq`, and the Remark 2.3 `moreThan` variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Whether the (possibly undefined) ordering satisfies the operator;
    /// incomparable values never do.
    pub fn holds(self, ord: Option<std::cmp::Ordering>) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Lt, Some(Less))
                | (CmpOp::Le, Some(Less) | Some(Equal))
                | (CmpOp::Gt, Some(Greater))
                | (CmpOp::Ge, Some(Greater) | Some(Equal))
        )
    }
}

/// One violation: a target node that does not conform to its shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The shape definition's name.
    pub shape: Term,
    /// The non-conforming focus node.
    pub focus: Term,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {} does not conform to shape {}",
            self.focus, self.shape
        )
    }
}

/// The result of validating a graph against a schema.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationReport {
    pub violations: Vec<Violation>,
    /// Number of (shape, target node) conformance checks performed.
    pub checked: usize,
}

impl ValidationReport {
    /// True iff the graph conforms to the schema (no violations).
    pub fn conforms(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serializes the report as a standard `sh:ValidationReport` RDF graph
    /// (what a conforming SHACL processor returns), ready for Turtle or
    /// N-Triples output.
    pub fn to_graph(&self) -> Graph {
        use shapefrag_rdf::vocab::{rdf, sh};
        use shapefrag_rdf::{BlankNode, Literal, Triple};
        let mut g = Graph::new();
        let report = Term::Blank(BlankNode::new("report"));
        g.insert(Triple::new(
            report.clone(),
            rdf::type_(),
            Term::Iri(sh::validation_report()),
        ));
        g.insert(Triple::new(
            report.clone(),
            sh::conforms(),
            Term::Literal(Literal::boolean(self.conforms())),
        ));
        for (i, v) in self.violations.iter().enumerate() {
            let result = Term::Blank(BlankNode::new(format!("result{i}")));
            g.insert(Triple::new(report.clone(), sh::result(), result.clone()));
            g.insert(Triple::new(
                result.clone(),
                rdf::type_(),
                Term::Iri(sh::validation_result()),
            ));
            g.insert(Triple::new(
                result.clone(),
                sh::focus_node(),
                v.focus.clone(),
            ));
            g.insert(Triple::new(
                result.clone(),
                sh::source_shape(),
                v.shape.clone(),
            ));
            g.insert(Triple::new(
                result,
                sh::result_severity(),
                Term::Iri(sh::violation()),
            ));
        }
        g
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.conforms() {
            write!(f, "conforms ({} checks)", self.checked)
        } else {
            writeln!(
                f,
                "{} violations ({} checks):",
                self.violations.len(),
                self.checked
            )?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Validates `graph` against `schema`: for every definition `(s, φ, τ)` and
/// every node `a` with `H, G, a ⊨ τ`, checks `H, G, a ⊨ φ`.
pub fn validate<G: GraphAccess>(schema: &Schema, graph: &G) -> ValidationReport {
    let mut ctx = Context::new(schema, graph);
    let mut report = ValidationReport::default();
    for def in schema.iter() {
        let targets = ctx.target_nodes(&def.target);
        let shape = schema.def_nnf(&def.name, false);
        for node in targets {
            report.checked += 1;
            if !ctx.conforms_nnf(node, shape) {
                report.violations.push(Violation {
                    shape: def.name.clone(),
                    focus: graph.term(node).clone(),
                });
            }
        }
    }
    report
}

/// Set-at-a-time [`validate`]: same report, but each definition's targets
/// are decided in one [`Context::conforms_all_nnf`] batch with a fresh shared
/// memo, so `hasShape` sub-shapes are checked once per node across all
/// referencing targets and path work is shared via the multi-source kernel.
pub fn validate_batch<G: GraphAccess>(schema: &Schema, graph: &G) -> ValidationReport {
    validate_batch_governed(schema, graph, ExecCtx::unbounded())
        .expect("an unbounded context cannot fault")
}

/// Resource-governed [`validate_batch`]: the set-at-a-time driver under a
/// deadline/budget/cancellation governor.
pub fn validate_batch_governed<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    exec: ExecCtx,
) -> Result<ValidationReport, EngineError> {
    validate_batch_containment_governed(schema, graph, Arc::new(ConformanceMemo::new()), exec)
        .map(|(report, _)| report)
}

/// Which definitions a containment-aware driver can settle without any
/// shape-body evaluation: definition `i` is covered when an earlier
/// definition with a provably *equivalent* shape and a syntactically
/// identical target has already run, so every one of `i`'s target bits
/// derives from the earlier definition's memo entries. Without an
/// attached [`ContainmentIndex`] — every product path — nothing is
/// covered.
fn covered_defs(schema: &Schema, index: Option<&ContainmentIndex>) -> Vec<bool> {
    let defs: Vec<&crate::schema::ShapeDef> = schema.iter().collect();
    let mut covered = vec![false; defs.len()];
    let Some(index) = index else {
        return covered;
    };
    for i in 0..defs.len() {
        debug_assert_eq!(schema.name_id(&defs[i].name), Some(i as u32));
        for j in 0..i {
            if !covered[j]
                && defs[i].target == defs[j].target
                && index.supers_of(i as u32).contains(&(j as u32))
                && index.subs_of(i as u32).contains(&(j as u32))
            {
                covered[i] = true;
                break;
            }
        }
    }
    covered
}

/// The sequential set-at-a-time driver every batch entry point runs,
/// against a caller-provided memo (which must belong to this
/// `(graph, schema)` pair). Each top-level check is routed through the
/// *named* path (`def(name)` is the definition's shape, so the answers are
/// identical), which lands the definition's own bits in the memo; when the
/// memo carries a [`ContainmentIndex`] (see
/// [`ConformanceMemo::attach_containment`]) decided bits of related shapes
/// then answer top-level checks without evaluation. Returns the report —
/// bit-identical to [`validate`]'s — plus the number of definitions that
/// needed no shape-body evaluation at all (fully derived from an
/// equivalent definition's bits), or the first resource fault.
///
/// Product paths reach this only through [`validate_batch_governed`], with
/// a fresh memo and no index. The index-attached form remains only for the
/// benchmark's layer mirror (`benchmark/src/layers.rs`) and the
/// containment soundness suite until a benchmark change retargets that
/// mirror.
pub fn validate_batch_containment_governed<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    memo: Arc<ConformanceMemo>,
    exec: ExecCtx,
) -> Result<(ValidationReport, u64), EngineError> {
    let covered = covered_defs(schema, memo.containment().as_deref());
    let mut ctx = Context::with_memo(schema, graph, memo).with_exec(exec);
    let mut report = ValidationReport::default();
    for def in schema.iter() {
        ctx.exec.check_now()?;
        let targets: Vec<TermId> = ctx.target_nodes(&def.target).into_iter().collect();
        if let Some(e) = ctx.take_fault() {
            return Err(e);
        }
        let shape = Nnf::HasShape(def.name.clone());
        let conforming = ctx.conforms_all_nnf(&targets, &shape);
        if let Some(e) = ctx.take_fault() {
            return Err(e);
        }
        report.checked += targets.len();
        for (node, ok) in targets.iter().zip(conforming) {
            if !ok {
                report.violations.push(Violation {
                    shape: def.name.clone(),
                    focus: graph.term(*node).clone(),
                });
            }
        }
    }
    let skipped = covered.iter().filter(|&&c| c).count() as u64;
    Ok((report, skipped))
}

/// Resource-governed [`validate`]: same report on success, or the first
/// [`EngineError`] (deadline, budget, cancellation, depth) instead of a
/// partial — and therefore misleading — report.
pub fn validate_governed<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    exec: ExecCtx,
) -> Result<ValidationReport, EngineError> {
    let mut ctx = Context::new(schema, graph).with_exec(exec);
    let mut report = ValidationReport::default();
    for def in schema.iter() {
        ctx.exec.check_now()?;
        let targets = ctx.target_nodes(&def.target);
        if let Some(e) = ctx.take_fault() {
            return Err(e);
        }
        let shape = schema.def_nnf(&def.name, false);
        for node in targets {
            report.checked += 1;
            let ok = ctx.conforms_nnf(node, shape);
            if let Some(e) = ctx.take_fault() {
                return Err(e);
            }
            if !ok {
                report.violations.push(Violation {
                    shape: def.name.clone(),
                    focus: graph.term(node).clone(),
                });
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_test::{NodeKind, NodeTest};
    use crate::schema::ShapeDef;
    use shapefrag_rdf::vocab::rdf;
    use shapefrag_rdf::{Iri, Literal, Triple};

    fn iri(n: &str) -> Iri {
        Iri::new(format!("http://e/{n}"))
    }

    fn term(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(term(s), iri(p), term(o))
    }

    fn lit(s: &str, p: &str, o: Literal) -> Triple {
        Triple::new(term(s), iri(p), Term::Literal(o))
    }

    fn p(n: &str) -> PathExpr {
        PathExpr::Prop(iri(n))
    }

    fn batch_with_memo(
        schema: &Schema,
        g: &impl GraphAccess,
        memo: Arc<ConformanceMemo>,
    ) -> ValidationReport {
        validate_batch_containment_governed(schema, g, memo, ExecCtx::unbounded())
            .unwrap()
            .0
    }

    fn check(g: &Graph, node: &str, shape: &Shape) -> bool {
        let schema = Schema::empty();
        let mut ctx = Context::new(&schema, g);
        ctx.conforms_term(&term(node), shape)
    }

    #[test]
    fn absent_node_conformance_matches_deciding_over_a_graph_clone() {
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(1, p("p"), Shape::True),
            Shape::False,
        )])
        .unwrap();
        let g = Graph::from_triples([t("a", "p", "b"), t("b", "p", "v")]);
        let shapes = [
            Shape::geq(1, p("p").star(), Shape::HasValue(term("z"))),
            Shape::geq(1, p("p"), Shape::True),
            Shape::Closed(BTreeSet::new()),
            Shape::Not(Box::new(Shape::HasValue(term("x")))),
            Shape::HasShape(term("S")),
        ];
        // Both answers occur: z reaches itself along p*, x is excluded by ¬hasValue(x).
        for node in ["z", "x"] {
            let node = term(node);
            assert!(g.id_of(&node).is_none());
            for shape in &shapes {
                let mut cloned = g.clone();
                let id = cloned.intern(&node);
                let expected = Context::new(&schema, &cloned).conforms(id, shape);
                let mut ctx = Context::new(&schema, &g);
                assert_eq!(
                    ctx.conforms_term(&node, shape),
                    expected,
                    "{node} {shape:?}"
                );
            }
        }
    }

    #[test]
    fn workshop_shape_example() {
        // Example 1.1/2.2: ≥1 author.≥1 type/sub*.hasValue(Student)
        let g = Graph::from_triples([
            t("paper1", "author", "alice"),
            t("alice", "type", "PhDStudent"),
            t("PhDStudent", "sub", "Student"),
            t("paper2", "author", "bob"),
            t("bob", "type", "Professor"),
        ]);
        let shape = Shape::geq(
            1,
            p("author"),
            Shape::geq(
                1,
                p("type").then(p("sub").star()),
                Shape::has_value(term("Student")),
            ),
        );
        assert!(check(&g, "paper1", &shape));
        assert!(!check(&g, "paper2", &shape));
    }

    #[test]
    fn happy_at_work_example() {
        // Example 2.2: ¬disj(friend, colleague).
        let g = Graph::from_triples([
            t("v", "friend", "x"),
            t("v", "colleague", "x"),
            t("w", "friend", "y"),
            t("w", "colleague", "z"),
        ]);
        let shape = Shape::Disj(PathOrId::Path(p("friend")), iri("colleague")).not();
        assert!(check(&g, "v", &shape));
        assert!(!check(&g, "w", &shape));
    }

    #[test]
    fn self_loop_shapes() {
        // ¬disj(id, p): p-self-loop. eq(id, p): only p-edge is a self-loop.
        let g = Graph::from_triples([t("v", "p", "v"), t("w", "p", "w"), t("w", "p", "x")]);
        let has_loop = Shape::Disj(PathOrId::Id, iri("p")).not();
        let only_loop = Shape::Eq(PathOrId::Id, iri("p"));
        assert!(check(&g, "v", &has_loop));
        assert!(check(&g, "w", &has_loop));
        assert!(check(&g, "v", &only_loop));
        assert!(!check(&g, "w", &only_loop));
        assert!(!check(&g, "x", &has_loop));
    }

    #[test]
    fn eq_and_disj_on_paths() {
        let g = Graph::from_triples([
            t("a", "e", "x"),
            t("a", "p", "x"),
            t("b", "e", "x"),
            t("b", "p", "y"),
        ]);
        let eq = Shape::Eq(PathOrId::Path(p("e")), iri("p"));
        let disj = Shape::Disj(PathOrId::Path(p("e")), iri("p"));
        assert!(check(&g, "a", &eq));
        assert!(!check(&g, "b", &eq));
        assert!(!check(&g, "a", &disj));
        assert!(check(&g, "b", &disj));
    }

    #[test]
    fn counting_quantifiers() {
        let g = Graph::from_triples([t("a", "p", "x"), t("a", "p", "y"), t("a", "p", "z")]);
        assert!(check(&g, "a", &Shape::geq(3, p("p"), Shape::True)));
        assert!(!check(&g, "a", &Shape::geq(4, p("p"), Shape::True)));
        assert!(check(&g, "a", &Shape::leq(3, p("p"), Shape::True)));
        assert!(!check(&g, "a", &Shape::leq(2, p("p"), Shape::True)));
        // ≥0 is vacuous.
        assert!(check(&g, "nonode", &Shape::geq(0, p("p"), Shape::True)));
    }

    #[test]
    fn forall_vacuous_and_strict() {
        let g = Graph::from_triples([t("a", "p", "x"), t("x", "type", "C"), t("b", "p", "y")]);
        let all_c = Shape::for_all(
            p("p"),
            Shape::geq(1, p("type"), Shape::has_value(term("C"))),
        );
        assert!(check(&g, "a", &all_c));
        assert!(!check(&g, "b", &all_c));
        assert!(check(&g, "zzz-no-edges", &all_c)); // vacuously true
    }

    #[test]
    fn closedness() {
        let g = Graph::from_triples([t("a", "p", "x"), t("a", "q", "y")]);
        let closed_pq = Shape::Closed(BTreeSet::from([iri("p"), iri("q")]));
        let closed_p = Shape::Closed(BTreeSet::from([iri("p")]));
        assert!(check(&g, "a", &closed_pq));
        assert!(!check(&g, "a", &closed_p));
        // Nodes with no outgoing edges are trivially closed.
        assert!(check(&g, "x", &Shape::Closed(BTreeSet::new())));
    }

    #[test]
    fn less_than_shapes() {
        let g = Graph::from_triples([
            lit("a", "start", Literal::integer(1)),
            lit("a", "end", Literal::integer(5)),
            lit("b", "start", Literal::integer(7)),
            lit("b", "end", Literal::integer(5)),
            lit("c", "start", Literal::integer(5)),
            lit("c", "end", Literal::integer(5)),
        ]);
        let lt = Shape::LessThan(p("start"), iri("end"));
        let lte = Shape::LessThanEq(p("start"), iri("end"));
        assert!(check(&g, "a", &lt));
        assert!(!check(&g, "b", &lt));
        assert!(!check(&g, "c", &lt));
        assert!(check(&g, "c", &lte));
        // Non-literal values make lessThan fail.
        let g2 = Graph::from_triples([t("d", "start", "x"), lit("d", "end", Literal::integer(5))]);
        assert!(!check(&g2, "d", &lt));
        // Vacuous when either side is empty.
        assert!(check(&g, "nonode", &lt));
    }

    #[test]
    fn unique_lang() {
        let g = Graph::from_triples([
            lit("a", "label", Literal::lang_string("hi", "en")),
            lit("a", "label", Literal::lang_string("hallo", "de")),
            lit("b", "label", Literal::lang_string("hi", "en")),
            lit("b", "label", Literal::lang_string("hello", "en")),
            lit("c", "label", Literal::string("plain")),
            lit("c", "label", Literal::string("plain2")),
        ]);
        let ul = Shape::UniqueLang(p("label"));
        assert!(check(&g, "a", &ul));
        assert!(!check(&g, "b", &ul));
        // Untagged literals never clash.
        assert!(check(&g, "c", &ul));
    }

    #[test]
    fn node_tests_in_shapes() {
        let g = Graph::from_triples([lit("a", "age", Literal::integer(30)), t("a", "friend", "b")]);
        let all_int = Shape::for_all(
            p("age"),
            Shape::Test(NodeTest::Datatype(shapefrag_rdf::vocab::xsd::integer())),
        );
        assert!(check(&g, "a", &all_int));
        let all_iri = Shape::for_all(p("friend"), Shape::Test(NodeTest::Kind(NodeKind::Iri)));
        assert!(check(&g, "a", &all_iri));
    }

    #[test]
    fn has_shape_resolution_and_default() {
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(1, p("p"), Shape::True),
            Shape::False,
        )])
        .unwrap();
        let g = Graph::from_triples([t("a", "p", "x")]);
        let mut ctx = Context::new(&schema, &g);
        let a = g.id_of(&term("a")).unwrap();
        let x = g.id_of(&term("x")).unwrap();
        assert!(ctx.conforms(a, &Shape::HasShape(term("S"))));
        assert!(!ctx.conforms(x, &Shape::HasShape(term("S"))));
        // Undefined shape name defaults to ⊤.
        assert!(ctx.conforms(x, &Shape::HasShape(term("Undefined"))));
    }

    #[test]
    fn validation_example_1_3() {
        // Schema: papers must have a student author (WorkshopShape with
        // class target Paper).
        let schema = Schema::new([ShapeDef::new(
            term("WorkshopShape"),
            Shape::geq(
                1,
                p("author"),
                Shape::geq(1, p("type"), Shape::has_value(term("Student"))),
            ),
            Shape::geq(
                1,
                PathExpr::Prop(rdf::type_()),
                Shape::has_value(term("Paper")),
            ),
        )])
        .unwrap();
        let mut ok = Graph::from_triples([
            t("paper1", "author", "alice"),
            t("alice", "type", "Student"),
        ]);
        ok.insert(Triple::new(term("paper1"), rdf::type_(), term("Paper")));
        assert!(validate(&schema, &ok).conforms());

        let mut bad = ok.clone();
        bad.insert(Triple::new(term("paper2"), rdf::type_(), term("Paper")));
        bad.insert(t("paper2", "author", "bob"));
        let report = validate(&schema, &bad);
        assert!(!report.conforms());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].focus, term("paper2"));
    }

    #[test]
    fn fast_targets_match_slow_scan() {
        let mut g = Graph::from_triples([
            t("a", "p", "b"),
            t("c", "p", "d"),
            t("x", "type", "C1"),
            t("y", "type", "C2"),
            t("C2", "sub", "C1"),
        ]);
        g.insert(Triple::new(term("z"), rdf::type_(), term("C1")));
        let schema = Schema::empty();
        let targets: Vec<Shape> = vec![
            Shape::has_value(term("a")),
            Shape::geq(1, p("p"), Shape::True),
            Shape::geq(1, p("p").inverse(), Shape::True),
            Shape::geq(
                1,
                p("type").then(p("sub").star()),
                Shape::has_value(term("C1")),
            ),
            Shape::geq(1, p("type"), Shape::has_value(term("C1"))),
        ];
        for target in targets {
            let mut ctx = Context::new(&schema, &g);
            let fast = ctx.target_nodes(&target);
            // Slow scan.
            let slow: BTreeSet<TermId> = g
                .node_ids()
                .into_iter()
                .filter(|n| ctx.conforms(*n, &target))
                .collect();
            assert_eq!(fast, slow, "target {target}");
        }
    }

    #[test]
    fn report_serializes_as_shacl_validation_report() {
        use shapefrag_rdf::vocab::sh;
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(1, p("needed"), Shape::True),
            Shape::geq(1, p("p"), Shape::True),
        )])
        .unwrap();
        let g = Graph::from_triples([t("a", "p", "b")]);
        let report = validate(&schema, &g);
        let rg = report.to_graph();
        // One report node, sh:conforms false, one result with focus ex:a.
        assert_eq!(
            rg.triples_matching(None, Some(&sh::result()), None).len(),
            1
        );
        let focus = rg.triples_matching(None, Some(&sh::focus_node()), None);
        assert_eq!(focus.len(), 1);
        assert_eq!(focus[0].object, term("a"));
        let conforms = rg.triples_matching(None, Some(&sh::conforms()), None);
        assert_eq!(conforms[0].object.as_literal().unwrap().lexical(), "false");
        // A conforming report says so.
        let ok = validate(&schema, &Graph::new());
        let okg = ok.to_graph();
        assert_eq!(
            okg.triples_matching(None, Some(&sh::conforms()), None)[0]
                .object
                .as_literal()
                .unwrap()
                .lexical(),
            "true"
        );
    }

    #[test]
    fn memo_decides_shared_subshapes_once() {
        // Two definitions both reference Typed; with a shared memo the
        // second pass answers from the table.
        let schema = Schema::new([
            ShapeDef::new(
                term("A"),
                Shape::for_all(p("p"), Shape::HasShape(term("Typed"))),
                Shape::geq(1, p("p"), Shape::True),
            ),
            ShapeDef::new(
                term("B"),
                Shape::geq(1, p("p"), Shape::HasShape(term("Typed"))),
                Shape::geq(1, p("p"), Shape::True),
            ),
            ShapeDef::new(
                term("Typed"),
                Shape::geq(1, p("type"), Shape::True),
                Shape::False,
            ),
        ])
        .unwrap();
        let g = Graph::from_triples([t("a", "p", "x"), t("a", "p", "y"), t("x", "type", "C")]);
        let memo = Arc::new(ConformanceMemo::new());
        let report = batch_with_memo(&schema, &g, Arc::clone(&memo));
        // x and y were each decided once for Typed.
        let sid = schema.name_id(&term("Typed")).unwrap();
        assert_eq!(memo.lookup(sid, g.id_of(&term("x")).unwrap()), Some(true));
        assert_eq!(memo.lookup(sid, g.id_of(&term("y")).unwrap()), Some(false));
        assert_eq!(report, validate(&schema, &g));
    }

    #[test]
    fn containment_index_derives_bits_and_skips_equivalent_defs() {
        // A ≥1 q (loose), B ≥2 q (strict, ⊑ A), C duplicates A. Dense ids
        // follow name order: A=0, B=1, C=2.
        let mk = |n: u32| Shape::geq(n, p("q"), Shape::True);
        let target = Shape::geq(1, p("t"), Shape::True);
        let schema = Schema::new([
            ShapeDef::new(term("A"), mk(1), target.clone()),
            ShapeDef::new(term("B"), mk(2), target.clone()),
            ShapeDef::new(term("C"), mk(1), target.clone()),
        ])
        .unwrap();
        let g = Graph::from_triples([
            t("a", "t", "m"),
            t("a", "q", "x"),
            t("b", "t", "m"),
            t("b", "q", "x"),
            t("b", "q", "y"),
            t("c", "t", "m"),
        ]);
        let index = Arc::new(ContainmentIndex::from_edges(
            3,
            &[(1, 0), (0, 2), (2, 0), (1, 2)],
            schema_fingerprint(&schema),
        ));
        let memo = Arc::new(ConformanceMemo::new());
        assert!(memo.attach_containment(Arc::clone(&index)));
        let (report, skipped) = validate_batch_containment_governed(
            &schema,
            &g,
            Arc::clone(&memo),
            ExecCtx::unbounded(),
        )
        .unwrap();
        // C is fully derived from A's bits (equivalent shape, same target).
        assert_eq!(skipped, 1);
        let (hits, _) = memo.containment_counters();
        assert!(hits > 0, "expected derived answers, got none");
        // Bit-identical to the plain sequential driver.
        assert_eq!(report, validate(&schema, &g));
        // A memo bound to a different schema refuses the index.
        let other = Schema::new([ShapeDef::new(term("Z"), mk(1), target)]).unwrap();
        let memo2 = Arc::new(ConformanceMemo::new());
        let _ = batch_with_memo(&other, &g, Arc::clone(&memo2));
        assert!(!memo2.attach_containment(index));
        assert!(memo2.containment().is_none());
    }

    #[test]
    fn memo_sharing_across_backends_of_the_same_graph_is_allowed() {
        // Freezing is id-stable, so a memo warmed on the mutable graph may
        // be reused over its CSR snapshot (same fingerprint in debug).
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(1, p("p"), Shape::True),
            Shape::True,
        )])
        .unwrap();
        let g = Graph::from_triples([t("a", "p", "b")]);
        let f = g.freeze();
        let memo = Arc::new(ConformanceMemo::new());
        let r_mut = batch_with_memo(&schema, &g, Arc::clone(&memo));
        let r_frozen = batch_with_memo(&schema, &f, Arc::clone(&memo));
        assert_eq!(r_mut, r_frozen);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn memo_reuse_across_graphs_detaches_in_release() {
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(1, p("p"), Shape::True),
            Shape::True,
        )])
        .unwrap();
        let g1 = Graph::from_triples([t("a", "p", "b")]);
        let g2 = Graph::from_triples([t("c", "q", "d"), t("c", "q", "e")]);
        let memo = Arc::new(ConformanceMemo::new());
        let r1 = batch_with_memo(&schema, &g1, Arc::clone(&memo));
        assert_eq!(r1, validate(&schema, &g1));
        let before = memo.len();
        // Mismatched attachment: the run must be correct (unmemoized) and
        // must not write g2 facts into g1's memo.
        let r2 = batch_with_memo(&schema, &g2, Arc::clone(&memo));
        assert_eq!(r2, validate(&schema, &g2));
        assert_eq!(memo.len(), before, "detached run must not touch the memo");
    }

    #[test]
    fn memo_invalidate_rebind_and_clear() {
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(1, p("p"), Shape::True),
            Shape::True,
        )])
        .unwrap();
        let g = Graph::from_triples([t("a", "p", "b"), t("c", "p", "d")]);
        let memo = Arc::new(ConformanceMemo::new());
        let sid = schema.name_id(&term("S")).unwrap();
        let a = g.id_of(&term("a")).unwrap();
        let c = g.id_of(&term("c")).unwrap();
        memo.rebind(&schema, &g);
        memo.insert(sid, a, true);
        memo.insert(sid, c, false);
        memo.invalidate(sid, [a]);
        assert_eq!(memo.lookup(sid, a), None, "invalidated entry must drop");
        assert_eq!(memo.lookup(sid, c), Some(false), "other entries survive");
        // After rebinding to the same pair, attaching succeeds.
        let _ctx = Context::with_memo(&schema, &g, Arc::clone(&memo));
        memo.clear();
        assert!(memo.is_empty());
        // A cleared memo re-binds to any pair.
        let g2 = Graph::from_triples([t("x", "p", "y")]);
        let _ctx2 = Context::with_memo(&schema, &g2, Arc::clone(&memo));
    }

    /// A one-definition schema over `p` for the memo's own tests.
    fn memo_schema() -> Schema {
        Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(1, p("p"), Shape::True),
            Shape::True,
        )])
        .unwrap()
    }

    #[test]
    fn memo_page_boundaries_and_ids_beyond_the_bound_width() {
        let schema = memo_schema();
        let g = Graph::from_triples([t("a", "p", "b")]);
        let memo = ConformanceMemo::new();
        memo.rebind(&schema, &g);
        assert_eq!(read(&memo.table).width, 1);
        let edge = [PAGE - 1, PAGE, PAGE + 1, 5 * PAGE + 3].map(|i| TermId(i as u32));
        for (k, &node) in edge.iter().enumerate() {
            memo.insert(0, node, k % 2 == 0);
        }
        // Shape ids past the schema's rows grow the table too, without
        // widening it.
        let width = read(&memo.table).width;
        for shape in 7..40 {
            memo.insert(shape, TermId(2), shape == 7);
        }
        assert_eq!(read(&memo.table).width, width);
        for (k, &node) in edge.iter().enumerate() {
            assert_eq!(memo.lookup(0, node), Some(k % 2 == 0), "{node:?}");
        }
        assert_eq!(memo.lookup(7, TermId(2)), Some(true));
        for node in [PAGE - 2, PAGE + 2, 5 * PAGE + 2, 64 * PAGE] {
            assert_eq!(memo.lookup(0, TermId(node as u32)), None);
        }
        assert_eq!(memo.lookup(8, TermId(2)), Some(false));
        assert_eq!(memo.lookup(40, TermId(2)), None);
        assert_eq!(memo.len(), edge.len() + 33);
    }

    #[test]
    fn memo_rebind_to_a_delta_that_interned_new_terms() {
        use shapefrag_rdf::DeltaGraph;
        let schema = memo_schema();
        // 1,022 terms: the base fits one page.
        let base = Graph::from_triples((0..PAGE - 4).map(|i| t(&format!("n{i}"), "p", "o")));
        let mut delta = DeltaGraph::new(Arc::new(base.freeze()));
        let memo = Arc::new(ConformanceMemo::new());
        memo.rebind(&schema, &delta);
        assert_eq!(read(&memo.table).width, 1);
        let old = delta.id_of(&term("n0")).unwrap();
        memo.insert(0, old, true);
        let fresh: Vec<TermId> = (0..8)
            .map(|i| delta.insert(&t(&format!("new{i}"), "q", "o")).unwrap().0)
            .collect();
        assert!(fresh.iter().any(|id| id.0 as usize >= PAGE));
        memo.rebind(&schema, &delta);
        assert_eq!(read(&memo.table).width, 2, "rebind widens the rows");
        for (k, &id) in fresh.iter().enumerate() {
            memo.insert(0, id, k % 3 == 0);
        }
        for (k, &id) in fresh.iter().enumerate() {
            assert_eq!(memo.lookup(0, id), Some(k % 3 == 0));
        }
        assert_eq!(memo.lookup(0, old), Some(true), "facts survive the rebind");
        // The rebound memo attaches to the delta without a mismatch.
        let ctx = Context::with_memo(&schema, &delta, Arc::clone(&memo));
        assert!(ctx.memo.is_some());
    }

    #[test]
    fn memo_invalidate_drops_listed_cells_and_invalidate_shape_one_row() {
        let memo = ConformanceMemo::new();
        let nodes: Vec<TermId> = [0, 1, 2, PAGE + 5].map(|i| TermId(i as u32)).to_vec();
        for shape in 0..3 {
            for &node in &nodes {
                memo.insert(shape, node, true);
            }
        }
        memo.invalidate(0, [nodes[1], nodes[3], TermId(9 * PAGE as u32)]);
        for &node in &nodes {
            let dropped = node == nodes[1] || node == nodes[3];
            assert_eq!(memo.lookup(0, node), (!dropped).then_some(true));
            assert_eq!(memo.lookup(1, node), Some(true));
        }
        memo.invalidate_shape(1);
        for &node in &nodes {
            assert_eq!(memo.lookup(1, node), None);
            assert_eq!(memo.lookup(2, node), Some(true));
        }
        assert_eq!(memo.len(), 2 + nodes.len());
        // An invalidated row takes new facts again.
        memo.insert(1, nodes[0], false);
        assert_eq!(memo.lookup(1, nodes[0]), Some(false));
    }

    #[test]
    fn memo_clear_resets_rows_and_binding() {
        let schema = memo_schema();
        let g = Graph::from_triples([t("a", "p", "b")]);
        let memo = Arc::new(ConformanceMemo::new());
        let _ctx = Context::with_memo(&schema, &g, Arc::clone(&memo));
        memo.insert(0, TermId(0), true);
        memo.insert(0, TermId(3 * PAGE as u32), false);
        memo.clear();
        assert!(memo.is_empty());
        assert_eq!(memo.lookup(0, TermId(0)), None);
        {
            let table = read(&memo.table);
            assert!(table.binding.is_none());
            assert!(table.rows.is_empty());
            assert_eq!(table.width, 0);
        }
        // Unbound again: another pair binds without a mismatch.
        let g2 = Graph::from_triples([t("x", "q", "y"), t("x", "q", "z")]);
        let ctx = Context::with_memo(&schema, &g2, Arc::clone(&memo));
        assert!(ctx.memo.is_some());
    }

    #[test]
    fn memo_len_counts_decided_cells() {
        let memo = ConformanceMemo::new();
        assert_eq!(memo.len(), 0);
        memo.insert(0, TermId(4), true);
        memo.insert(0, TermId(4), true);
        assert_eq!(memo.len(), 1, "a repeated fact is one cell");
        memo.insert(0, TermId(4), false);
        assert_eq!(memo.len(), 1, "an overwritten fact is one cell");
        memo.insert(0, TermId(PAGE as u32), false);
        memo.insert(3, TermId(4), false);
        assert_eq!(memo.len(), 3, "false facts count as decided");
        memo.invalidate(0, [TermId(4)]);
        assert_eq!(memo.len(), 2);
        assert!(!memo.is_empty());
    }

    #[test]
    fn memo_racing_inserts_into_one_fresh_page_match_a_sequential_run() {
        let verdict = |node: TermId| !node.0.is_multiple_of(3);
        let page: Vec<TermId> = (2 * PAGE..3 * PAGE).map(|i| TermId(i as u32)).collect();
        let sequential = ConformanceMemo::new();
        for &node in &page {
            sequential.insert(1, node, verdict(node));
        }
        let shared = ConformanceMemo::new();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for worker in 0..4usize {
                let (shared, page, start) = (&shared, &page, &start);
                scope.spawn(move || {
                    // Every worker writes the whole page, each in its own
                    // order, so the first allocation of the page is raced.
                    start.wait();
                    for k in 0..PAGE {
                        let node = page[(k * (2 * worker + 1) + worker) % PAGE];
                        shared.insert(1, node, verdict(node));
                    }
                });
            }
        });
        for &node in &page {
            assert_eq!(shared.lookup(1, node), sequential.lookup(1, node));
        }
        assert_eq!(shared.len(), sequential.len());
        assert_eq!(shared.len(), PAGE);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "different (schema, graph) pair")]
    fn memo_reuse_across_graphs_panics_in_debug() {
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(1, p("p"), Shape::True),
            Shape::True,
        )])
        .unwrap();
        let g1 = Graph::from_triples([t("a", "p", "b")]);
        let g2 = Graph::from_triples([t("c", "p", "d"), t("c", "p", "e")]);
        let memo = Arc::new(ConformanceMemo::new());
        let _first = Context::with_memo(&schema, &g1, Arc::clone(&memo));
        // Same schema, different graph: the ids in the memo would be
        // meaningless here — the binding check must refuse.
        let _second = Context::with_memo(&schema, &g2, Arc::clone(&memo));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "different (schema, graph) pair")]
    fn memo_reuse_across_schemas_panics_in_debug() {
        let s1 = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(1, p("p"), Shape::True),
            Shape::True,
        )])
        .unwrap();
        let s2 = Schema::new([ShapeDef::new(
            term("Other"),
            Shape::geq(1, p("p"), Shape::True),
            Shape::True,
        )])
        .unwrap();
        let g = Graph::from_triples([t("a", "p", "b")]);
        let memo = Arc::new(ConformanceMemo::new());
        let _first = Context::with_memo(&s1, &g, Arc::clone(&memo));
        let _second = Context::with_memo(&s2, &g, Arc::clone(&memo));
    }

    #[test]
    fn validate_batch_matches_validate() {
        let schema = Schema::new([
            ShapeDef::new(
                term("S"),
                Shape::geq(
                    1,
                    p("author"),
                    Shape::geq(1, p("type"), Shape::has_value(term("Student"))),
                ),
                Shape::geq(1, p("author"), Shape::True),
            ),
            ShapeDef::new(
                term("T"),
                Shape::for_all(p("author"), Shape::geq(1, p("type"), Shape::True)),
                Shape::geq(1, p("author"), Shape::True),
            ),
        ])
        .unwrap();
        let g = Graph::from_triples([
            t("p1", "author", "alice"),
            t("alice", "type", "Student"),
            t("p2", "author", "bob"),
            t("p3", "author", "alice"),
            t("p3", "author", "bob"),
        ]);
        let per_node = validate(&schema, &g);
        let batch = validate_batch(&schema, &g);
        assert_eq!(per_node, batch);
        assert_eq!(batch.checked, per_node.checked);
    }

    #[test]
    fn governed_validation_matches_ungoverned_when_unbounded() {
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(
                1,
                p("author"),
                Shape::geq(1, p("type"), Shape::has_value(term("Student"))),
            ),
            Shape::geq(1, p("author"), Shape::True),
        )])
        .unwrap();
        let g = Graph::from_triples([
            t("p1", "author", "alice"),
            t("alice", "type", "Student"),
            t("p2", "author", "bob"),
        ]);
        let plain = validate(&schema, &g);
        let gov = validate_governed(&schema, &g, ExecCtx::unbounded()).unwrap();
        assert_eq!(plain, gov);
        let gov_batch = validate_batch_governed(&schema, &g, ExecCtx::unbounded()).unwrap();
        assert_eq!(plain, gov_batch);
    }

    #[test]
    fn exhausted_step_budget_is_an_error_not_a_report() {
        use shapefrag_govern::{Budget, BudgetKind};
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::for_all(p("p").star(), Shape::geq(1, p("p"), Shape::True)),
            Shape::geq(1, p("p"), Shape::True),
        )])
        .unwrap();
        // A cycle so p* has plenty of product-graph work to charge for.
        let g = Graph::from_triples([t("a", "p", "b"), t("b", "p", "c"), t("c", "p", "a")]);
        let err = validate_governed(
            &schema,
            &g,
            ExecCtx::with_budget(Budget::unlimited().steps(2)),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::BudgetExceeded {
                kind: BudgetKind::Steps,
                ..
            }
        ));
        let err = validate_batch_governed(
            &schema,
            &g,
            ExecCtx::with_budget(Budget::unlimited().steps(2)),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::BudgetExceeded {
                kind: BudgetKind::Steps,
                ..
            }
        ));
    }

    #[test]
    fn cancelled_token_aborts_validation() {
        use shapefrag_govern::{Budget, CancelToken};
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::True,
            Shape::geq(1, p("p"), Shape::True),
        )])
        .unwrap();
        let g = Graph::from_triples([t("a", "p", "b")]);
        let token = CancelToken::new();
        token.cancel();
        let exec = ExecCtx::with_budget(Budget::unlimited()).with_cancel(&token);
        let err = validate_governed(&schema, &g, exec).unwrap_err();
        assert!(matches!(err, EngineError::Cancelled));
    }

    #[test]
    fn depth_limit_surfaces_on_deep_shape_trees() {
        use shapefrag_govern::Budget;
        // A right-nested ForAll chain deeper than the depth limit; the data
        // chain keeps candidates non-empty so recursion actually descends.
        let mut shape = Shape::geq(1, p("p"), Shape::True);
        for _ in 0..64 {
            shape = Shape::for_all(p("p"), shape);
        }
        let mut triples = Vec::new();
        for i in 0..70 {
            triples.push(t(&format!("n{i}"), "p", &format!("n{}", i + 1)));
        }
        let g = Graph::from_triples(triples);
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            shape,
            Shape::geq(1, p("p"), Shape::True),
        )])
        .unwrap();
        let err = validate_governed(
            &schema,
            &g,
            ExecCtx::with_budget(Budget::unlimited().max_depth(16)),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::DepthLimit { limit: 16 }));
    }

    #[test]
    fn validation_counts_checks() {
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::True,
            Shape::geq(1, p("p"), Shape::True),
        )])
        .unwrap();
        let g = Graph::from_triples([t("a", "p", "b"), t("c", "p", "d")]);
        let report = validate(&schema, &g);
        assert!(report.conforms());
        assert_eq!(report.checked, 2);
    }
}
