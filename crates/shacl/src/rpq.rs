//! Regular path query evaluation and path tracing.
//!
//! Two operations from the paper are implemented here, both generic over
//! any [`GraphAccess`] backend (mutable `Graph` or immutable
//! `FrozenGraph`):
//!
//! 1. **Evaluation** `⟦E⟧^G(a)` — the set of nodes reachable from `a` along
//!    paths matching `E` (Table 1 semantics, including the identity pairs
//!    contributed by `E?` and `E*`).
//! 2. **Tracing** `⋃_{a ∈ A} ⋃_{x ∈ X} graph(paths(E, G, a, x))` — the
//!    subgraph traced out by all `E`-paths from a set of sources `A` to
//!    nodes in a target set `X` (§3.2). A single source is the paper's
//!    per-node case; a set of foci sharing one target set is the union a
//!    shape fragment needs, computed in one pass.
//!
//! Both work on the *product* of the graph with a Thompson NFA compiled
//! from `E`. For tracing, a product edge lies on an accepting run from some
//! `(a, q₀)` to some `(x, q_F)` iff its source is forward-reachable from
//! `A × {q₀}` and its target is backward-reachable from `X × {q_F}`; the
//! union of the underlying forward triples of all such edges is exactly
//! `graph(paths(E, G, A, X))` — the paper's possibly-infinite path sets
//! collapse to this finite edge set because `graph(·)` only keeps the
//! triples (cf. Proposition 3.1 and §3.3).

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::BuildHasherDefault;

use shapefrag_govern::{EngineError, ExecCtx, MemGuard};
use shapefrag_rdf::graph::IntHasher;
use shapefrag_rdf::{GraphAccess, Iri, TermId};

/// Estimated bytes of intermediate state per discovered product pair
/// (visited-set entry plus its queue slot). Used for the memory budget.
const PAIR_COST: u64 = 48;

type IntSet = std::collections::HashSet<TermId, BuildHasherDefault<IntHasher>>;

/// Visited-set over the product graph: one small hash set per NFA state.
struct ProductSet {
    per_state: Vec<IntSet>,
}

impl ProductSet {
    fn new(states: usize) -> Self {
        ProductSet {
            per_state: (0..states).map(|_| IntSet::default()).collect(),
        }
    }

    fn insert(&mut self, node: TermId, state: u32) -> bool {
        self.per_state[state as usize].insert(node)
    }

    fn contains(&self, node: TermId, state: u32) -> bool {
        self.per_state[state as usize].contains(&node)
    }
}

/// How many sources one multi-source BFS pass handles; bounds the bitset
/// width (`256 / 64 = 4` words per product pair).
const SOURCE_CHUNK: usize = 256;

/// Per-source reachability bits over the product graph: for each
/// `(node, state)` pair, the set of source indices (within one chunk) that
/// reach it.
///
/// Structure-of-arrays layout, reusable across chunks: a dense `(state,
/// node)` → row index table pre-sized to the backend's term count
/// ([`GraphAccess::term_count`]) plus a contiguous bump arena of bitset
/// rows allocated on first touch. Lookups are one array index (no
/// hashing), rows discovered together sit together in memory, and
/// [`FrontierMatrix::reset`] is O(live rows), so a worker thread streaming
/// many chunks through one matrix performs no per-chunk allocation once
/// warm.
struct FrontierMatrix {
    /// Bitset words per row in the current chunk.
    words: usize,
    /// Dense per-state stride: every valid `TermId` is `< node_cap`.
    node_cap: usize,
    /// `state * node_cap + node` → row index into `bits`, `u32::MAX` when
    /// the pair was never reached.
    row_of: Vec<u32>,
    /// Row arena; row `r` occupies `bits[r * words .. (r + 1) * words]`.
    bits: Vec<u64>,
    /// Keys (indices into `row_of`) of live rows, in discovery order.
    touched: Vec<usize>,
}

impl FrontierMatrix {
    fn new() -> Self {
        FrontierMatrix {
            words: 0,
            node_cap: 0,
            row_of: Vec::new(),
            bits: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Prepares the matrix for a fresh chunk: clears live rows (keeping
    /// every buffer's capacity) and re-sizes the index for `states` NFA
    /// states over `node_cap` terms with `words`-word rows.
    fn reset(&mut self, states: usize, node_cap: usize, words: usize) {
        for &key in &self.touched {
            self.row_of[key] = u32::MAX;
        }
        self.touched.clear();
        self.bits.clear();
        self.words = words;
        self.node_cap = node_cap;
        let need = states * node_cap;
        if self.row_of.len() < need {
            self.row_of.resize(need, u32::MAX);
        }
    }

    fn key(&self, node: TermId, state: u32) -> usize {
        state as usize * self.node_cap + node.0 as usize
    }

    /// Unions `bits` into the pair's set; true iff any new bit appeared.
    /// First touch allocates the row from the arena tail.
    fn union(&mut self, node: TermId, state: u32, bits: &[u64]) -> bool {
        let key = self.key(node, state);
        let row = self.row_of[key];
        if row == u32::MAX {
            let r = self.bits.len() / self.words;
            self.row_of[key] = r as u32;
            self.touched.push(key);
            self.bits.extend_from_slice(bits);
            return bits.iter().any(|&w| w != 0);
        }
        let start = row as usize * self.words;
        let mut grew = false;
        for (word, add) in self.bits[start..start + self.words].iter_mut().zip(bits) {
            let merged = *word | add;
            grew |= merged != *word;
            *word = merged;
        }
        grew
    }

    fn get(&self, node: TermId, state: u32) -> Option<&[u64]> {
        let row = self.row_of[self.key(node, state)];
        if row == u32::MAX {
            None
        } else {
            let start = row as usize * self.words;
            Some(&self.bits[start..start + self.words])
        }
    }

    /// Copies the pair's bits into `buf` (zeroing it first); false when the
    /// pair was never reached.
    fn copy_into(&self, node: TermId, state: u32, buf: &mut [u64]) -> bool {
        match self.get(node, state) {
            Some(bits) => {
                buf.copy_from_slice(bits);
                true
            }
            None => {
                buf.fill(0);
                false
            }
        }
    }

    /// Decodes a touched key back into its `(node, state)` pair.
    fn decode(&self, key: usize) -> (TermId, u32) {
        (
            TermId((key % self.node_cap) as u32),
            (key / self.node_cap) as u32,
        )
    }
}

/// Per-worker scratch space for the multi-source evaluation kernel: the
/// forward `FrontierMatrix` plus the worklist and bitset buffers the BFS
/// pass needs. Owned by a [`PathCache`] (one per context, one context per
/// worker thread), so chunk after chunk reuses the same allocations and
/// the frontier stays pre-sized to the CSR.
pub struct FrontierScratch {
    fwd: FrontierMatrix,
    queue: VecDeque<(TermId, u32)>,
    seed_buf: Vec<u64>,
    copy_buf: Vec<u64>,
}

impl FrontierScratch {
    /// Creates an empty scratch; buffers grow to the graph on first use.
    pub fn new() -> Self {
        FrontierScratch {
            fwd: FrontierMatrix::new(),
            queue: VecDeque::new(),
            seed_buf: Vec::new(),
            copy_buf: Vec::new(),
        }
    }
}

impl Default for FrontierScratch {
    fn default() -> Self {
        FrontierScratch::new()
    }
}

fn for_each_bit(bits: &[u64], mut f: impl FnMut(usize)) {
    for (w, word) in bits.iter().enumerate() {
        let mut word = *word;
        while word != 0 {
            let bit = word.trailing_zeros() as usize;
            f(w * 64 + bit);
            word &= word - 1;
        }
    }
}

use crate::path::PathExpr;

/// The result of a traced path evaluation: the set of `(subject,
/// predicate, object)` id-triples that witness the reachable endpoints.
pub type TraceSet = BTreeSet<(TermId, TermId, TermId)>;

/// A transition label: one property, or any property outside a negated set
/// (the Remark 6.3 extension).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Label {
    Prop(Iri),
    NegProp(BTreeSet<Iri>),
}

/// A transition label with properties resolved to graph term ids.
#[derive(Debug, Clone)]
enum ResolvedLabel {
    /// A single resolved property.
    Prop(TermId),
    /// Any property except the resolved ids (unresolved excluded IRIs
    /// cannot occur in the graph, so dropping them is sound).
    NegProp(BTreeSet<TermId>),
}

/// A Thompson NFA over the alphabet of forward/backward property steps.
#[derive(Debug, Clone)]
pub struct Nfa {
    start: u32,
    accept: u32,
    /// Epsilon transitions per state.
    eps: Vec<Vec<u32>>,
    /// Labeled transitions per state: `(label, inverse, next state)`.
    /// An `inverse` step from node `x` to node `y` consumes triple
    /// `(y, property, x)`.
    steps: Vec<Vec<(Label, bool, u32)>>,
}

impl Nfa {
    /// Compiles a path expression.
    pub fn compile(path: &PathExpr) -> Nfa {
        let mut builder = Builder {
            eps: Vec::new(),
            steps: Vec::new(),
        };
        let (start, accept) = builder.build(path, false);
        Nfa {
            start,
            accept,
            eps: builder.eps,
            steps: builder.steps,
        }
    }

    /// Number of states (grows linearly with the expression).
    pub fn state_count(&self) -> usize {
        self.eps.len()
    }

    /// True iff the automaton accepts the empty word, i.e. the path
    /// matches the identity pair `(v, v)` on every node. Agrees with
    /// [`PathExpr::is_nullable`] for compiled expressions.
    pub fn is_nullable(&self) -> bool {
        self.eps_closure(self.start).contains(&self.accept)
    }

    /// The labeled transitions a match can take *first*: every
    /// `(label, inverse)` edge leaving the ε-closure of the start state.
    /// A forward (`inverse == false`) first step from node `v` consumes an
    /// outgoing triple of `v` — which is what a `closed` declaration
    /// constrains — so this is the interface the static analyzer uses to
    /// detect `closed(P)` vs. required-property conflicts.
    pub fn first_steps(&self) -> Vec<(Label, bool)> {
        let mut out = Vec::new();
        for q in self.eps_closure(self.start) {
            for (label, inv, _) in &self.steps[q as usize] {
                let step = (label.clone(), *inv);
                if !out.contains(&step) {
                    out.push(step);
                }
            }
        }
        out
    }

    /// Sound language-inclusion test: `true` means every word accepted by
    /// `self` is accepted by `other`, hence `⟦E⟧^G(a) ⊆ ⟦F⟧^G(a)` on every
    /// graph and every start node (identity pairs included — the empty word
    /// is a word like any other). `false` means inclusion could not be
    /// *established*, never that it is refuted.
    ///
    /// The infinite property alphabet is abstracted to the properties
    /// mentioned by either automaton plus one fresh "unmentioned property"
    /// wildcard per direction; this is exact because a [`Label::NegProp`]
    /// transition treats all unmentioned properties alike. Over that finite
    /// alphabet the check walks the product of `self` with the on-the-fly
    /// determinization of `other` looking for a state that accepts in
    /// `self` but not in `other`; both sides are kept as ε-closed state
    /// sets. The walk gives up (returns `false`) once the product exceeds
    /// an internal cap, which keeps the worst case bounded on
    /// adversarially nested expressions.
    pub fn language_included_in(&self, other: &Nfa) -> bool {
        const PRODUCT_CAP: usize = 4096;
        let mut props: BTreeSet<&Iri> = BTreeSet::new();
        for steps in self.steps.iter().chain(other.steps.iter()) {
            for (label, _, _) in steps {
                match label {
                    Label::Prop(p) => {
                        props.insert(p);
                    }
                    Label::NegProp(ps) => props.extend(ps.iter()),
                }
            }
        }
        // A symbol is `(Some(p), inverse)` for a mentioned property or
        // `(None, inverse)` for the per-direction wildcard.
        let mut symbols: Vec<(Option<&Iri>, bool)> = Vec::new();
        for dir in [false, true] {
            symbols.extend(props.iter().map(|p| (Some(*p), dir)));
            symbols.push((None, dir));
        }
        let matches = |label: &Label, inv: bool, sym: (Option<&Iri>, bool)| {
            inv == sym.1
                && match (label, sym.0) {
                    (Label::Prop(p), Some(q)) => p == q,
                    (Label::Prop(_), None) => false,
                    (Label::NegProp(ps), Some(q)) => !ps.contains(q),
                    (Label::NegProp(_), None) => true,
                }
        };
        let start = (
            self.set_closure(vec![self.start]),
            other.set_closure(vec![other.start]),
        );
        let mut seen: std::collections::HashSet<(Vec<u32>, Vec<u32>)> =
            std::collections::HashSet::new();
        seen.insert(start.clone());
        let mut work = vec![start];
        while let Some((sa, sb)) = work.pop() {
            if sa.contains(&self.accept) && !sb.contains(&other.accept) {
                return false;
            }
            for &sym in &symbols {
                let next_a: Vec<u32> = sa
                    .iter()
                    .flat_map(|&q| self.steps[q as usize].iter())
                    .filter(|(label, inv, _)| matches(label, *inv, sym))
                    .map(|(_, _, n)| *n)
                    .collect();
                if next_a.is_empty() {
                    // `self` has no continuation on this symbol, so no
                    // word of `self` goes this way.
                    continue;
                }
                let next_b: Vec<u32> = sb
                    .iter()
                    .flat_map(|&q| other.steps[q as usize].iter())
                    .filter(|(label, inv, _)| matches(label, *inv, sym))
                    .map(|(_, _, n)| *n)
                    .collect();
                let state = (self.set_closure(next_a), other.set_closure(next_b));
                if seen.contains(&state) {
                    continue;
                }
                if seen.len() >= PRODUCT_CAP {
                    return false;
                }
                seen.insert(state.clone());
                work.push(state);
            }
        }
        true
    }

    /// ε-closure of a state set, sorted and deduplicated (so closures are
    /// usable as visited-set keys).
    fn set_closure(&self, seed: Vec<u32>) -> Vec<u32> {
        let mut seen = vec![false; self.state_count()];
        let mut stack = seed;
        let mut out = Vec::new();
        while let Some(q) = stack.pop() {
            if std::mem::replace(&mut seen[q as usize], true) {
                continue;
            }
            out.push(q);
            stack.extend(self.eps[q as usize].iter().copied());
        }
        out.sort_unstable();
        out
    }

    /// ε-closure of one state (iterative DFS).
    fn eps_closure(&self, from: u32) -> Vec<u32> {
        let mut seen = vec![false; self.state_count()];
        let mut stack = vec![from];
        let mut out = Vec::new();
        while let Some(q) = stack.pop() {
            if std::mem::replace(&mut seen[q as usize], true) {
                continue;
            }
            out.push(q);
            stack.extend(self.eps[q as usize].iter().copied());
        }
        out
    }
}

struct Builder {
    eps: Vec<Vec<u32>>,
    steps: Vec<Vec<(Label, bool, u32)>>,
}

impl Builder {
    fn fresh(&mut self) -> u32 {
        self.eps.push(Vec::new());
        self.steps.push(Vec::new());
        (self.eps.len() - 1) as u32
    }

    /// Builds the fragment for `path`, honoring an accumulated inversion:
    /// `(E₁/E₂)⁻ = E₂⁻/E₁⁻`, `(E⁻)⁻ = E`, and inversion distributes through
    /// the other operators.
    fn build(&mut self, path: &PathExpr, inverted: bool) -> (u32, u32) {
        match path {
            PathExpr::Prop(p) => {
                let s = self.fresh();
                let a = self.fresh();
                self.steps[s as usize].push((Label::Prop(p.clone()), inverted, a));
                (s, a)
            }
            PathExpr::NegProp(ps) => {
                let s = self.fresh();
                let a = self.fresh();
                self.steps[s as usize].push((Label::NegProp(ps.clone()), inverted, a));
                (s, a)
            }
            PathExpr::Inverse(e) => self.build(e, !inverted),
            PathExpr::Seq(e1, e2) => {
                let (first, second) = if inverted { (e2, e1) } else { (e1, e2) };
                let (s1, a1) = self.build(first, inverted);
                let (s2, a2) = self.build(second, inverted);
                self.eps[a1 as usize].push(s2);
                (s1, a2)
            }
            PathExpr::Alt(e1, e2) => {
                let (s1, a1) = self.build(e1, inverted);
                let (s2, a2) = self.build(e2, inverted);
                let s = self.fresh();
                let a = self.fresh();
                self.eps[s as usize].push(s1);
                self.eps[s as usize].push(s2);
                self.eps[a1 as usize].push(a);
                self.eps[a2 as usize].push(a);
                (s, a)
            }
            PathExpr::ZeroOrMore(e) => {
                let (si, ai) = self.build(e, inverted);
                let s = self.fresh();
                let a = self.fresh();
                self.eps[s as usize].push(si);
                self.eps[s as usize].push(a);
                self.eps[ai as usize].push(si);
                self.eps[ai as usize].push(a);
                (s, a)
            }
            PathExpr::ZeroOrOne(e) => {
                let (si, ai) = self.build(e, inverted);
                let s = self.fresh();
                let a = self.fresh();
                self.eps[s as usize].push(si);
                self.eps[s as usize].push(a);
                self.eps[ai as usize].push(a);
                (s, a)
            }
        }
    }
}

/// An NFA with its property IRIs resolved against a particular graph.
/// Resolution happens once per (path, graph) pair; transitions whose
/// property does not occur in the graph are dead.
#[derive(Debug, Clone)]
pub struct CompiledPath {
    nfa: Nfa,
    /// `steps[q]` → `(label, inverse, next)`; unresolved plain preds
    /// dropped.
    resolved: Vec<Vec<(ResolvedLabel, bool, u32)>>,
    /// Reverse of `resolved`: incoming labeled transitions per state.
    resolved_rev: Vec<Vec<(ResolvedLabel, bool, u32)>>,
    /// Reverse epsilon transitions per state.
    eps_rev: Vec<Vec<u32>>,
    /// Fast path: `E` is a single forward or inverse property.
    simple: Option<(TermId, bool)>,
}

impl CompiledPath {
    /// Compiles and resolves a path expression against a graph.
    pub fn new<G: GraphAccess>(path: &PathExpr, graph: &G) -> CompiledPath {
        let simple = match path {
            PathExpr::Prop(p) => graph.id_of_iri(p).map(|id| (id, false)),
            PathExpr::Inverse(inner) => match inner.as_ref() {
                PathExpr::Prop(p) => graph.id_of_iri(p).map(|id| (id, true)),
                _ => None,
            },
            _ => None,
        };
        let nfa = Nfa::compile(path);
        let n = nfa.state_count();
        let mut resolved = vec![Vec::new(); n];
        let mut resolved_rev = vec![Vec::new(); n];
        let mut eps_rev = vec![Vec::new(); n];
        for (q, transitions) in nfa.steps.iter().enumerate() {
            for (label, inv, next) in transitions {
                let resolved_label = match label {
                    Label::Prop(p) => match graph.id_of_iri(p) {
                        Some(pid) => ResolvedLabel::Prop(pid),
                        None => continue, // dead transition
                    },
                    Label::NegProp(ps) => ResolvedLabel::NegProp(
                        ps.iter().filter_map(|p| graph.id_of_iri(p)).collect(),
                    ),
                };
                resolved[q].push((resolved_label.clone(), *inv, *next));
                resolved_rev[*next as usize].push((resolved_label, *inv, q as u32));
            }
        }
        for (q, targets) in nfa.eps.iter().enumerate() {
            for next in targets {
                eps_rev[*next as usize].push(q as u32);
            }
        }
        CompiledPath {
            nfa,
            resolved,
            resolved_rev,
            eps_rev,
            simple,
        }
    }

    /// True iff the path matches the empty path (contributes identity).
    pub fn accepts_empty(&self) -> bool {
        // ε-closure of start contains accept?
        let mut seen = vec![false; self.nfa.state_count()];
        let mut stack = vec![self.nfa.start];
        while let Some(q) = stack.pop() {
            if seen[q as usize] {
                continue;
            }
            seen[q as usize] = true;
            if q == self.nfa.accept {
                return true;
            }
            for &next in &self.nfa.eps[q as usize] {
                stack.push(next);
            }
        }
        false
    }

    /// Evaluates `⟦E⟧^G(from)`: all nodes reachable from `from` along
    /// `E`-paths (plus `from` itself when `E` is nullable).
    pub fn eval_from<G: GraphAccess>(&self, graph: &G, from: TermId) -> BTreeSet<TermId> {
        self.try_eval_from(graph, from, &ExecCtx::unbounded())
            .expect("unbounded context cannot fail")
    }

    /// Governed [`CompiledPath::eval_from`]: ticks once per product-graph
    /// queue pop plus once per expanded edge, and charges the memory budget
    /// for every discovered product pair.
    pub fn try_eval_from<G: GraphAccess>(
        &self,
        graph: &G,
        from: TermId,
        ctx: &ExecCtx,
    ) -> Result<BTreeSet<TermId>, EngineError> {
        if let Some((pid, inv)) = self.simple {
            ctx.tick(1)?;
            return Ok(if inv {
                graph.subjects_ids(from, pid).collect()
            } else {
                graph.objects_ids(from, pid).collect()
            });
        }
        let mut mem = MemGuard::new(ctx);
        let mut result = BTreeSet::new();
        let mut visited = ProductSet::new(self.nfa.state_count());
        let mut queue: VecDeque<(TermId, u32)> = VecDeque::new();
        queue.push_back((from, self.nfa.start));
        visited.insert(from, self.nfa.start);
        while let Some((node, q)) = queue.pop_front() {
            if q == self.nfa.accept {
                result.insert(node);
            }
            let mut discovered = 0u64;
            let mut edges = 0u64;
            for &next in &self.nfa.eps[q as usize] {
                if visited.insert(node, next) {
                    discovered += 1;
                    queue.push_back((node, next));
                }
            }
            for (label, inv, next) in &self.resolved[q as usize] {
                successors(graph, node, label, *inv, |_pred, n2| {
                    edges += 1;
                    if visited.insert(n2, *next) {
                        discovered += 1;
                        queue.push_back((n2, *next));
                    }
                });
            }
            ctx.tick(1 + edges)?;
            mem.charge(discovered * PAIR_COST)?;
        }
        Ok(result)
    }

    /// Decides `(from, to) ∈ ⟦E⟧^G` without materializing the full result.
    pub fn connects<G: GraphAccess>(&self, graph: &G, from: TermId, to: TermId) -> bool {
        self.try_connects(graph, from, to, &ExecCtx::unbounded())
            .expect("unbounded context cannot fail")
    }

    /// Governed [`CompiledPath::connects`].
    pub fn try_connects<G: GraphAccess>(
        &self,
        graph: &G,
        from: TermId,
        to: TermId,
        ctx: &ExecCtx,
    ) -> Result<bool, EngineError> {
        if let Some((pid, inv)) = self.simple {
            ctx.tick(1)?;
            return Ok(if inv {
                graph.contains_ids(to, pid, from)
            } else {
                graph.contains_ids(from, pid, to)
            });
        }
        Ok(self.try_eval_from(graph, from, ctx)?.contains(&to))
    }

    /// Computes `⋃_{a ∈ sources} ⋃_{x ∈ targets} graph(paths(E, G, a, x))`
    /// as a set of id triples `(s, p, o)` of the underlying graph.
    ///
    /// `targets` is the set of admissible endpoints; `None` admits every
    /// endpoint. Nodes in `targets` no source reaches are ignored, so a
    /// caller tracing foci `vᵢ` to `Tᵢ = ⟦E⟧(vᵢ) ∩ Q` for one shared `Q`
    /// gets `⋃ᵢ graph(paths(E, G, vᵢ, Tᵢ))` from a single call with
    /// `targets = Q`: every traced edge lies on an accepting run from some
    /// source `vᵢ` to some `x ∈ Q`, and such an `x` is in `Tᵢ`.
    pub fn trace<G: GraphAccess>(
        &self,
        graph: &G,
        sources: &[TermId],
        targets: Option<&BTreeSet<TermId>>,
    ) -> TraceSet {
        self.try_trace(graph, sources, targets, &ExecCtx::unbounded())
            .expect("unbounded context cannot fail")
    }

    /// Governed [`CompiledPath::trace`]: every BFS pop and edge expansion in
    /// the forward, backward, and collection phases ticks the context, and
    /// every discovered product pair is charged to the memory budget.
    pub fn try_trace<G: GraphAccess>(
        &self,
        graph: &G,
        sources: &[TermId],
        targets: Option<&BTreeSet<TermId>>,
        ctx: &ExecCtx,
    ) -> Result<TraceSet, EngineError> {
        let admits = |x: &TermId| targets.is_none_or(|t| t.contains(x));
        let mut out = BTreeSet::new();
        if let Some((pid, inv)) = self.simple {
            // paths(p, G, a, x) is the single length-one path; its graph is
            // the forward triple.
            let label = ResolvedLabel::Prop(pid);
            for &from in sources {
                let mut edges = 0u64;
                successors(graph, from, &label, inv, |pred, x| {
                    edges += 1;
                    if admits(&x) {
                        out.insert(oriented(from, pred, x, inv));
                    }
                });
                ctx.tick(1 + edges)?;
            }
            return Ok(out);
        }

        // Forward reachability over the product graph from every source.
        let states = self.nfa.state_count();
        let (start, accept) = (self.nfa.start, self.nfa.accept);
        let mut mem = MemGuard::new(ctx);
        let mut forward = ProductSet::new(states);
        let mut queue: VecDeque<(TermId, u32)> = VecDeque::new();
        for &from in sources {
            if forward.insert(from, start) {
                queue.push_back((from, start));
            }
        }
        mem.charge(queue.len() as u64 * PAIR_COST)?;
        while let Some((node, q)) = queue.pop_front() {
            let mut discovered = 0u64;
            let mut edges = 0u64;
            for &next in &self.nfa.eps[q as usize] {
                if forward.insert(node, next) {
                    discovered += 1;
                    queue.push_back((node, next));
                }
            }
            for (label, inv, next) in &self.resolved[q as usize] {
                successors(graph, node, label, *inv, |_pred, n2| {
                    edges += 1;
                    if forward.insert(n2, *next) {
                        discovered += 1;
                        queue.push_back((n2, *next));
                    }
                });
            }
            ctx.tick(1 + edges)?;
            mem.charge(discovered * PAIR_COST)?;
        }

        // Backward reachability from admissible accepting pairs, restricted
        // to forward-reachable pairs.
        let mut backward = ProductSet::new(states);
        for &x in &forward.per_state[accept as usize] {
            if admits(&x) && backward.insert(x, accept) {
                queue.push_back((x, accept));
            }
        }
        mem.charge(queue.len() as u64 * PAIR_COST)?;
        while let Some((node, q)) = queue.pop_front() {
            let mut discovered = 0u64;
            let mut edges = 0u64;
            for &prev in &self.eps_rev[q as usize] {
                if forward.contains(node, prev) && backward.insert(node, prev) {
                    discovered += 1;
                    queue.push_back((node, prev));
                }
            }
            for (label, inv, prev) in &self.resolved_rev[q as usize] {
                // Transition (prev) -(label, inv)-> (q). Find predecessor
                // nodes m with the corresponding triple to `node`:
                //   forward: (m, p, node) ∈ G
                //   inverse: (node, p, m) ∈ G
                predecessors(graph, node, label, *inv, |_pred, m| {
                    edges += 1;
                    if forward.contains(m, *prev) && backward.insert(m, *prev) {
                        discovered += 1;
                        queue.push_back((m, *prev));
                    }
                });
            }
            ctx.tick(1 + edges)?;
            mem.charge(discovered * PAIR_COST)?;
        }

        // Collect edges whose source is reachable and target co-reachable
        // (backward pairs are forward-reachable by construction).
        for (q, nodes) in backward.per_state.iter().enumerate() {
            for &node in nodes {
                let mut edges = 0u64;
                for (label, inv, next) in &self.resolved[q] {
                    successors(graph, node, label, *inv, |pred, n2| {
                        edges += 1;
                        if backward.contains(n2, *next) {
                            out.insert(oriented(node, pred, n2, *inv));
                        }
                    });
                }
                ctx.tick(1 + edges)?;
            }
        }
        Ok(out)
    }

    /// Set-at-a-time evaluation: `⟦E⟧^G(sources[i])` for every source in one
    /// (chunked) product-graph traversal instead of `sources.len()`
    /// independent BFS passes.
    ///
    /// Each product pair `(node, state)` carries a bitset of the source
    /// indices that reach it; a pair is re-expanded only when its bitset
    /// grows, so regions of the product graph shared between sources are
    /// walked once per chunk rather than once per source. Results are
    /// per-source and identical to [`CompiledPath::eval_from`].
    pub fn eval_from_many<G: GraphAccess>(
        &self,
        graph: &G,
        sources: &[TermId],
    ) -> Vec<BTreeSet<TermId>> {
        self.try_eval_from_many(graph, sources, &ExecCtx::unbounded())
            .expect("unbounded context cannot fail")
    }

    /// Governed [`CompiledPath::eval_from_many`]. The context is consulted
    /// at every chunk boundary and throughout the shared product traversal.
    /// Allocates a fresh [`FrontierScratch`]; hot callers (the validator's
    /// [`PathCache`]) reuse a per-worker scratch instead.
    pub fn try_eval_from_many<G: GraphAccess>(
        &self,
        graph: &G,
        sources: &[TermId],
        ctx: &ExecCtx,
    ) -> Result<Vec<BTreeSet<TermId>>, EngineError> {
        self.try_eval_from_many_with(graph, sources, ctx, &mut FrontierScratch::new())
    }

    /// [`CompiledPath::try_eval_from_many`] over caller-owned scratch
    /// buffers, allocation-free across chunks once the scratch is warm.
    pub fn try_eval_from_many_with<G: GraphAccess>(
        &self,
        graph: &G,
        sources: &[TermId],
        ctx: &ExecCtx,
        scratch: &mut FrontierScratch,
    ) -> Result<Vec<BTreeSet<TermId>>, EngineError> {
        if let Some((pid, inv)) = self.simple {
            // Single-property paths are direct index lookups per source;
            // nothing is shared between sources.
            ctx.tick(sources.len() as u64)?;
            return Ok(sources
                .iter()
                .map(|&from| {
                    if inv {
                        graph.subjects_ids(from, pid).collect()
                    } else {
                        graph.objects_ids(from, pid).collect()
                    }
                })
                .collect());
        }
        let mut results: Vec<BTreeSet<TermId>> = vec![BTreeSet::new(); sources.len()];
        for (chunk_idx, chunk) in sources.chunks(SOURCE_CHUNK).enumerate() {
            ctx.check_now()?;
            let base = chunk_idx * SOURCE_CHUNK;
            let mut mem = MemGuard::new(ctx);
            self.forward_bits(graph, chunk, ctx, &mut mem, scratch)?;
            // Read results off the accept state: bit i set at (node, accept)
            // means source i reaches node.
            let forward = &scratch.fwd;
            for &key in &forward.touched {
                let (node, state) = forward.decode(key);
                if state != self.nfa.accept {
                    continue;
                }
                if let Some(bits) = forward.get(node, state) {
                    for_each_bit(bits, |i| {
                        results[base + i].insert(node);
                    });
                }
            }
        }
        Ok(results)
    }

    /// Multi-source forward reachability over the product graph: one worklist
    /// pass labeling each reached `(node, state)` pair with the set of chunk
    /// source indices that reach it. The result is left in `scratch.fwd`.
    fn forward_bits<G: GraphAccess>(
        &self,
        graph: &G,
        chunk: &[TermId],
        ctx: &ExecCtx,
        mem: &mut MemGuard<'_>,
        scratch: &mut FrontierScratch,
    ) -> Result<(), EngineError> {
        let words = chunk.len().div_ceil(64);
        let entry_cost = PAIR_COST + 8 * words as u64;
        let FrontierScratch {
            fwd: forward,
            queue,
            seed_buf: seed,
            copy_buf,
            ..
        } = scratch;
        forward.reset(self.nfa.state_count(), graph.term_count(), words);
        queue.clear();
        seed.clear();
        seed.resize(words, 0);
        for (i, &from) in chunk.iter().enumerate() {
            seed.fill(0);
            seed[i / 64] = 1u64 << (i % 64);
            if forward.union(from, self.nfa.start, seed) {
                queue.push_back((from, self.nfa.start));
            }
        }
        mem.charge(queue.len() as u64 * entry_cost)?;
        copy_buf.clear();
        copy_buf.resize(words, 0);
        while let Some((node, q)) = queue.pop_front() {
            // Re-read current bits: the pair may have grown again since it
            // was queued (stale entries just propagate the newest bits).
            if !forward.copy_into(node, q, copy_buf) {
                continue;
            }
            let mut pushed = 0u64;
            let mut edges = 0u64;
            for &next in &self.nfa.eps[q as usize] {
                if forward.union(node, next, copy_buf) {
                    pushed += 1;
                    queue.push_back((node, next));
                }
            }
            for (label, inv, next) in &self.resolved[q as usize] {
                let mut grown: Vec<TermId> = Vec::new();
                successors(graph, node, label, *inv, |_pred, n2| {
                    edges += 1;
                    grown.push(n2);
                });
                for n2 in grown {
                    if forward.union(n2, *next, copy_buf) {
                        pushed += 1;
                        queue.push_back((n2, *next));
                    }
                }
            }
            ctx.tick(1 + edges)?;
            mem.charge(pushed * entry_cost)?;
        }
        Ok(())
    }
}

/// Enumerates the `(predicate id, neighbor)` pairs reachable from `node`
/// by one transition with the given label/direction.
fn successors<G: GraphAccess>(
    graph: &G,
    node: TermId,
    label: &ResolvedLabel,
    inverse: bool,
    mut f: impl FnMut(TermId, TermId),
) {
    match (label, inverse) {
        (ResolvedLabel::Prop(pid), false) => {
            for o in graph.objects_ids(node, *pid) {
                f(*pid, o);
            }
        }
        (ResolvedLabel::Prop(pid), true) => {
            for s in graph.subjects_ids(node, *pid) {
                f(*pid, s);
            }
        }
        (ResolvedLabel::NegProp(excluded), false) => {
            let edges: Vec<(TermId, TermId)> = graph.out_edges_ids(node).collect();
            for (p, o) in edges {
                if !excluded.contains(&p) {
                    f(p, o);
                }
            }
        }
        (ResolvedLabel::NegProp(excluded), true) => {
            let edges: Vec<(TermId, TermId)> = graph.in_edges_ids(node).collect();
            for (p, s) in edges {
                if !excluded.contains(&p) {
                    f(p, s);
                }
            }
        }
    }
}

/// The stored triple behind one product-graph step from `node` to `next`
/// over `pred`: an inverse step consumes `(next, pred, node)`.
fn oriented(node: TermId, pred: TermId, next: TermId, inverse: bool) -> (TermId, TermId, TermId) {
    if inverse {
        (next, pred, node)
    } else {
        (node, pred, next)
    }
}

/// Enumerates the `(predicate id, predecessor)` pairs that reach `node` by
/// one transition with the given label/direction (the reverse of
/// [`successors`]).
fn predecessors<G: GraphAccess>(
    graph: &G,
    node: TermId,
    label: &ResolvedLabel,
    inverse: bool,
    mut f: impl FnMut(TermId, TermId),
) {
    match (label, inverse) {
        // Forward transition into `node`: (m, p, node) ∈ G.
        (ResolvedLabel::Prop(pid), false) => {
            for m in graph.subjects_ids(node, *pid) {
                f(*pid, m);
            }
        }
        // Inverse transition into `node`: (node, p, m) ∈ G.
        (ResolvedLabel::Prop(pid), true) => {
            for m in graph.objects_ids(node, *pid) {
                f(*pid, m);
            }
        }
        (ResolvedLabel::NegProp(excluded), false) => {
            let edges: Vec<(TermId, TermId)> = graph.in_edges_ids(node).collect();
            for (p, m) in edges {
                if !excluded.contains(&p) {
                    f(p, m);
                }
            }
        }
        (ResolvedLabel::NegProp(excluded), true) => {
            let edges: Vec<(TermId, TermId)> = graph.out_edges_ids(node).collect();
            for (p, m) in edges {
                if !excluded.contains(&p) {
                    f(p, m);
                }
            }
        }
    }
}

/// A per-graph cache of compiled paths. Validators and provenance engines
/// evaluate the same expressions for many focus nodes; compiling once
/// amortizes NFA construction and predicate resolution. The cache also
/// owns a [`FrontierScratch`], so the multi-source kernels of every path
/// evaluated through one cache (= one worker thread) share pre-sized,
/// reusable frontier buffers.
#[derive(Default)]
pub struct PathCache {
    cache: HashMap<PathExpr, CompiledPath>,
    scratch: FrontierScratch,
}

impl PathCache {
    /// Creates an empty cache (tied to one graph by convention: do not mix
    /// graphs in one cache, ids would be meaningless).
    pub fn new() -> Self {
        PathCache::default()
    }

    /// Gets or compiles the path for this graph.
    pub fn get<G: GraphAccess>(&mut self, path: &PathExpr, graph: &G) -> &CompiledPath {
        Self::compiled(&mut self.cache, path, graph)
    }

    /// Entry helper on the bare map so callers can split-borrow the
    /// compiled path and the frontier scratch at once.
    fn compiled<'c, G: GraphAccess>(
        cache: &'c mut HashMap<PathExpr, CompiledPath>,
        path: &PathExpr,
        graph: &G,
    ) -> &'c CompiledPath {
        cache
            .entry(path.clone())
            .or_insert_with(|| CompiledPath::new(path, graph))
    }

    /// Convenience: `⟦E⟧^G(from)`.
    pub fn eval<G: GraphAccess>(
        &mut self,
        path: &PathExpr,
        graph: &G,
        from: TermId,
    ) -> BTreeSet<TermId> {
        self.get(path, graph).eval_from(graph, from)
    }

    /// Convenience: trace `graph(paths(E, G, sources, targets))`.
    pub fn trace<G: GraphAccess>(
        &mut self,
        path: &PathExpr,
        graph: &G,
        sources: &[TermId],
        targets: Option<&BTreeSet<TermId>>,
    ) -> TraceSet {
        self.get(path, graph).trace(graph, sources, targets)
    }

    /// Convenience: set-at-a-time `⟦E⟧^G(sources[i])` for all sources.
    pub fn eval_many<G: GraphAccess>(
        &mut self,
        path: &PathExpr,
        graph: &G,
        sources: &[TermId],
    ) -> Vec<BTreeSet<TermId>> {
        let compiled = Self::compiled(&mut self.cache, path, graph);
        compiled
            .try_eval_from_many_with(graph, sources, &ExecCtx::unbounded(), &mut self.scratch)
            .expect("unbounded context cannot fail")
    }

    /// Governed [`PathCache::eval`].
    pub fn try_eval<G: GraphAccess>(
        &mut self,
        path: &PathExpr,
        graph: &G,
        from: TermId,
        ctx: &ExecCtx,
    ) -> Result<BTreeSet<TermId>, EngineError> {
        self.get(path, graph).try_eval_from(graph, from, ctx)
    }

    /// Governed [`PathCache::trace`].
    pub fn try_trace<G: GraphAccess>(
        &mut self,
        path: &PathExpr,
        graph: &G,
        sources: &[TermId],
        targets: Option<&BTreeSet<TermId>>,
        ctx: &ExecCtx,
    ) -> Result<TraceSet, EngineError> {
        self.get(path, graph)
            .try_trace(graph, sources, targets, ctx)
    }

    /// Governed [`PathCache::eval_many`].
    pub fn try_eval_many<G: GraphAccess>(
        &mut self,
        path: &PathExpr,
        graph: &G,
        sources: &[TermId],
        ctx: &ExecCtx,
    ) -> Result<Vec<BTreeSet<TermId>>, EngineError> {
        let compiled = Self::compiled(&mut self.cache, path, graph);
        compiled.try_eval_from_many_with(graph, sources, ctx, &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapefrag_rdf::{Graph, Term, Triple};

    fn iri(n: &str) -> Iri {
        Iri::new(format!("http://e/{n}"))
    }

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(
            Term::iri(format!("http://e/{s}")),
            iri(p),
            Term::iri(format!("http://e/{o}")),
        )
    }

    fn p(n: &str) -> PathExpr {
        PathExpr::Prop(iri(n))
    }

    fn id(g: &Graph, n: &str) -> TermId {
        g.id_of(&Term::iri(format!("http://e/{n}"))).unwrap()
    }

    fn eval(g: &Graph, e: &PathExpr, from: &str) -> BTreeSet<String> {
        let c = CompiledPath::new(e, g);
        c.eval_from(g, id(g, from))
            .into_iter()
            .map(|x| g.term(x).to_string())
            .collect()
    }

    fn names(g: &Graph, ids: &BTreeSet<TermId>) -> BTreeSet<String> {
        ids.iter().map(|x| g.term(*x).to_string()).collect()
    }

    fn n(x: &str) -> String {
        format!("<http://e/{x}>")
    }

    #[test]
    fn simple_property() {
        let g = Graph::from_triples([t("a", "p", "b"), t("a", "p", "c"), t("b", "p", "d")]);
        assert_eq!(eval(&g, &p("p"), "a"), BTreeSet::from([n("b"), n("c")]));
    }

    fn included(a: &PathExpr, b: &PathExpr) -> bool {
        Nfa::compile(a).language_included_in(&Nfa::compile(b))
    }

    #[test]
    fn language_inclusion_basic() {
        // Reflexivity and alternation weakening.
        assert!(included(&p("p"), &p("p")));
        assert!(included(&p("p"), &p("p").or(p("q"))));
        assert!(!included(&p("p").or(p("q")), &p("p")));
        // Star absorbs repetitions and options.
        assert!(included(&p("p"), &p("p").star()));
        assert!(included(&p("p").then(p("p")), &p("p").star()));
        assert!(included(&p("p").opt(), &p("p").star()));
        assert!(!included(&p("p").star(), &p("p").opt()));
        assert!(!included(&p("p").star(), &p("p")));
        // Nullability matters: p* accepts the empty word, p/p* does not.
        assert!(included(&p("p").plus(), &p("p").star()));
        assert!(!included(&p("p").star(), &p("p").plus()));
    }

    #[test]
    fn language_inclusion_direction_sensitive() {
        assert!(included(&p("p").inverse(), &p("p").inverse()));
        assert!(!included(&p("p").inverse(), &p("p")));
        assert!(!included(&p("p"), &p("p").inverse()));
        // (p/q)⁻ and q⁻/p⁻ are the same language.
        let a = p("p").then(p("q")).inverse();
        let b = p("q").inverse().then(p("p").inverse());
        assert!(included(&a, &b));
        assert!(included(&b, &a));
    }

    #[test]
    fn language_inclusion_negated_sets() {
        let not_q = PathExpr::neg_props([iri("q")]);
        let not_pq = PathExpr::neg_props([iri("p"), iri("q")]);
        // p ∉ {q}, so a p-step is one of !(q)'s steps.
        assert!(included(&p("p"), &not_q));
        assert!(!included(&p("q"), &not_q));
        // Bigger excluded set ⇒ smaller language.
        assert!(included(&not_pq, &not_q));
        assert!(!included(&not_q, &not_pq));
        // The wildcard: !(q) takes properties nobody mentions, p doesn't.
        assert!(!included(&not_q, &p("p")));
        assert!(included(
            &PathExpr::any_prop(),
            &PathExpr::any_prop().star()
        ));
    }

    #[test]
    fn language_inclusion_mixed_structure() {
        // (p|q)/r ⊆ (p/r) | (q/r) and back — distributivity.
        let a = p("p").or(p("q")).then(p("r"));
        let b = p("p").then(p("r")).or(p("q").then(p("r")));
        assert!(included(&a, &b));
        assert!(included(&b, &a));
        // (p*)* ≡ p*.
        assert!(included(&p("p").star().star(), &p("p").star()));
        assert!(included(&p("p").star(), &p("p").star().star()));
        // p/q ⊄ q/p.
        assert!(!included(&p("p").then(p("q")), &p("q").then(p("p"))));
    }

    #[test]
    fn inverse_property() {
        let g = Graph::from_triples([t("a", "p", "b"), t("c", "p", "b")]);
        assert_eq!(
            eval(&g, &p("p").inverse(), "b"),
            BTreeSet::from([n("a"), n("c")])
        );
    }

    #[test]
    fn sequence() {
        let g = Graph::from_triples([t("a", "p", "b"), t("b", "q", "c"), t("b", "q", "d")]);
        assert_eq!(
            eval(&g, &p("p").then(p("q")), "a"),
            BTreeSet::from([n("c"), n("d")])
        );
    }

    #[test]
    fn inverse_of_sequence_reverses() {
        // (p/q)⁻ from c: c -q⁻-> b -p⁻-> a
        let g = Graph::from_triples([t("a", "p", "b"), t("b", "q", "c")]);
        assert_eq!(
            eval(&g, &p("p").then(p("q")).inverse(), "c"),
            BTreeSet::from([n("a")])
        );
    }

    #[test]
    fn double_inverse_cancels() {
        let g = Graph::from_triples([t("a", "p", "b")]);
        assert_eq!(
            eval(&g, &p("p").inverse().inverse(), "a"),
            BTreeSet::from([n("b")])
        );
    }

    #[test]
    fn alternative() {
        let g = Graph::from_triples([t("a", "p", "b"), t("a", "q", "c")]);
        assert_eq!(
            eval(&g, &p("p").or(p("q")), "a"),
            BTreeSet::from([n("b"), n("c")])
        );
    }

    #[test]
    fn zero_or_one_includes_self() {
        let g = Graph::from_triples([t("a", "p", "b")]);
        assert_eq!(
            eval(&g, &p("p").opt(), "a"),
            BTreeSet::from([n("a"), n("b")])
        );
    }

    #[test]
    fn star_reflexive_transitive() {
        let g = Graph::from_triples([t("a", "p", "b"), t("b", "p", "c"), t("c", "p", "d")]);
        assert_eq!(
            eval(&g, &p("p").star(), "a"),
            BTreeSet::from([n("a"), n("b"), n("c"), n("d")])
        );
    }

    #[test]
    fn star_on_cycle_terminates() {
        let g = Graph::from_triples([t("a", "p", "b"), t("b", "p", "a")]);
        assert_eq!(
            eval(&g, &p("p").star(), "a"),
            BTreeSet::from([n("a"), n("b")])
        );
    }

    #[test]
    fn plus_excludes_self_without_cycle() {
        let g = Graph::from_triples([t("a", "p", "b"), t("b", "p", "c")]);
        assert_eq!(
            eval(&g, &p("p").plus(), "a"),
            BTreeSet::from([n("b"), n("c")])
        );
    }

    #[test]
    fn trace_simple_property() {
        let g = Graph::from_triples([t("a", "p", "b"), t("a", "p", "c"), t("x", "p", "y")]);
        let c = CompiledPath::new(&p("p"), &g);
        let targets = BTreeSet::from([id(&g, "b")]);
        let traced = c.trace(&g, &[id(&g, "a")], Some(&targets));
        assert_eq!(traced.len(), 1);
        let (s, _, o) = traced.into_iter().next().unwrap();
        assert_eq!(g.term(s).to_string(), n("a"));
        assert_eq!(g.term(o).to_string(), n("b"));
    }

    #[test]
    fn trace_inverse_keeps_forward_triple() {
        let g = Graph::from_triples([t("a", "p", "b")]);
        let c = CompiledPath::new(&p("p").inverse(), &g);
        let targets = BTreeSet::from([id(&g, "a")]);
        let traced = c.trace(&g, &[id(&g, "b")], Some(&targets));
        assert_eq!(traced.len(), 1);
        let (s, _, o) = traced.into_iter().next().unwrap();
        // The underlying triple is stored forward: (a, p, b).
        assert_eq!(g.term(s).to_string(), n("a"));
        assert_eq!(g.term(o).to_string(), n("b"));
    }

    #[test]
    fn trace_sequence_keeps_only_connecting_edges() {
        let g = Graph::from_triples([
            t("a", "p", "b"),
            t("b", "q", "c"),
            t("a", "p", "dead"), // no q edge out of dead
            t("z", "q", "c"),    // not reachable from a via p
        ]);
        let e = p("p").then(p("q"));
        let c = CompiledPath::new(&e, &g);
        let targets = BTreeSet::from([id(&g, "c")]);
        let traced = names(
            &g,
            &c.trace(&g, &[id(&g, "a")], Some(&targets))
                .into_iter()
                .map(|(s, _, _)| s)
                .collect(),
        );
        // Only edges a-p->b and b-q->c; subjects are a and b.
        assert_eq!(traced, BTreeSet::from([n("a"), n("b")]));
    }

    #[test]
    fn trace_star_includes_all_path_edges() {
        // Diamond: a->b->d and a->c->d; both lie on p* paths from a to d.
        let g = Graph::from_triples([
            t("a", "p", "b"),
            t("b", "p", "d"),
            t("a", "p", "c"),
            t("c", "p", "d"),
            t("d", "p", "e"), // beyond the target; not on a→d path? e is beyond d; edge d->e is not on any a→d path.
        ]);
        let c = CompiledPath::new(&p("p").star(), &g);
        let targets = BTreeSet::from([id(&g, "d")]);
        let traced = c.trace(&g, &[id(&g, "a")], Some(&targets));
        assert_eq!(traced.len(), 4);
    }

    #[test]
    fn trace_star_with_cycle_includes_cycle_edges() {
        // a -> b -> c -> b cycle, target c: the cycle edges b->c and c->b
        // all lie on some a→c path matching p*.
        let g = Graph::from_triples([t("a", "p", "b"), t("b", "p", "c"), t("c", "p", "b")]);
        let c = CompiledPath::new(&p("p").star(), &g);
        let targets = BTreeSet::from([id(&g, "c")]);
        let traced = c.trace(&g, &[id(&g, "a")], Some(&targets));
        assert_eq!(traced.len(), 3);
    }

    #[test]
    fn trace_empty_path_yields_no_triples() {
        // Target reachable only via the empty path: no edges traced.
        let g = Graph::from_triples([t("a", "p", "b")]);
        let c = CompiledPath::new(&p("p").star(), &g);
        let targets = BTreeSet::from([id(&g, "a")]);
        let traced = c.trace(&g, &[id(&g, "a")], Some(&targets));
        assert!(traced.is_empty());
    }

    #[test]
    fn trace_unreachable_target_is_empty() {
        let g = Graph::from_triples([t("a", "p", "b"), t("x", "p", "y")]);
        let c = CompiledPath::new(&p("p"), &g);
        let targets = BTreeSet::from([id(&g, "y")]);
        assert!(c.trace(&g, &[id(&g, "a")], Some(&targets)).is_empty());
    }

    #[test]
    fn proposition_3_1_path_semantics_preserved_in_trace() {
        // F = graph(paths(E, G, a, b)) ⇒ (a,b) ∈ ⟦E⟧^F.
        let g = Graph::from_triples([
            t("a", "p", "b"),
            t("b", "q", "c"),
            t("b", "r", "z"),
            t("c", "p", "c"),
        ]);
        let e = p("p").then(p("q")).then(p("p").star());
        let c = CompiledPath::new(&e, &g);
        let a = id(&g, "a");
        for x in c.eval_from(&g, a) {
            let traced = c.trace(&g, &[a], Some(&BTreeSet::from([x])));
            let f = Graph::from_triples(traced.iter().map(|&(s, pp, o)| g.triple_of(s, pp, o)));
            let cf = CompiledPath::new(&e, &f);
            let a_f = f.id_of(g.term(a)).expect("start node in traced graph");
            let x_term = g.term(x);
            let x_f = f.id_of(x_term).expect("target node in traced graph");
            assert!(
                cf.connects(&f, a_f, x_f),
                "({}, {}) lost in traced subgraph",
                g.term(a),
                x_term
            );
        }
    }

    #[test]
    fn accepts_empty_matches_nullability() {
        let g = Graph::from_triples([t("a", "p", "b")]);
        for e in [
            p("p"),
            p("p").star(),
            p("p").opt(),
            p("p").then(p("q")),
            p("p").star().then(p("q").opt()),
        ] {
            let c = CompiledPath::new(&e, &g);
            assert_eq!(c.accepts_empty(), e.is_nullable(), "for {e}");
        }
    }

    #[test]
    fn unknown_predicate_evaluates_empty() {
        let g = Graph::from_triples([t("a", "p", "b")]);
        assert!(eval(&g, &p("unknown"), "a").is_empty());
        assert_eq!(
            eval(&g, &p("unknown").star(), "a"),
            BTreeSet::from([n("a")])
        );
    }

    #[test]
    fn eval_from_many_matches_eval_from() {
        // A braided graph exercising star/alt sharing between sources.
        let g = Graph::from_triples([
            t("a", "p", "b"),
            t("b", "p", "c"),
            t("c", "p", "d"),
            t("b", "q", "x"),
            t("x", "p", "c"),
            t("d", "q", "a"),
            t("z", "p", "z"),
        ]);
        let exprs = [
            p("p"),
            p("p").inverse(),
            p("p").star(),
            p("p").or(p("q")).star(),
            p("p").then(p("q").opt()),
            p("q").inverse().then(p("p").star()),
        ];
        let sources: Vec<TermId> = ["a", "b", "c", "d", "x", "z"]
            .iter()
            .map(|s| id(&g, s))
            .collect();
        for e in &exprs {
            let c = CompiledPath::new(e, &g);
            let batch = c.eval_from_many(&g, &sources);
            assert_eq!(batch.len(), sources.len());
            for (i, &from) in sources.iter().enumerate() {
                assert_eq!(batch[i], c.eval_from(&g, from), "expr {e}, source {i}");
            }
        }
    }

    #[test]
    fn eval_from_many_handles_duplicate_sources() {
        let g = Graph::from_triples([t("a", "p", "b"), t("b", "p", "c")]);
        let c = CompiledPath::new(&p("p").star(), &g);
        let a = id(&g, "a");
        let batch = c.eval_from_many(&g, &[a, a, id(&g, "b"), a]);
        let single = c.eval_from(&g, a);
        assert_eq!(batch[0], single);
        assert_eq!(batch[1], single);
        assert_eq!(batch[3], single);
        assert_eq!(batch[2], c.eval_from(&g, id(&g, "b")));
    }

    #[test]
    fn eval_from_many_empty_sources() {
        let g = Graph::from_triples([t("a", "p", "b")]);
        let c = CompiledPath::new(&p("p"), &g);
        assert!(c.eval_from_many(&g, &[]).is_empty());
    }

    #[test]
    fn eval_from_many_spans_chunks() {
        // More sources than one bitset chunk: chain x0 -p-> x1 -p-> … so
        // every source has a distinct result.
        let chain: Vec<Triple> = (0..(SOURCE_CHUNK + 40))
            .map(|i| t(&format!("x{i}"), "p", &format!("x{}", i + 1)))
            .collect();
        let g = Graph::from_triples(chain);
        let e = p("p").then(p("p"));
        let c = CompiledPath::new(&e, &g);
        let sources: Vec<TermId> = (0..(SOURCE_CHUNK + 40))
            .map(|i| id(&g, &format!("x{i}")))
            .collect();
        let batch = c.eval_from_many(&g, &sources);
        for (i, &from) in sources.iter().enumerate() {
            assert_eq!(batch[i], c.eval_from(&g, from), "source {i}");
        }
    }

    #[test]
    fn multi_source_trace_is_union_of_single_source_traces() {
        // "z" has only an `r` edge, which no expression mentions, so it
        // reaches no target over any edge.
        let g = Graph::from_triples([
            t("a", "p", "b"),
            t("b", "p", "d"),
            t("a", "p", "c"),
            t("c", "p", "d"),
            t("d", "p", "e"),
            t("b", "q", "c"),
            t("e", "q", "a"),
            t("z", "r", "w"),
        ]);
        let exprs = [
            p("p"),
            p("p").inverse(),
            p("p").star(),
            p("p").or(p("q")).star(),
            p("p").then(p("q")),
            p("q").inverse().then(p("p").star()),
        ];
        let sources: Vec<TermId> = ["a", "b", "c", "d", "e", "z"]
            .iter()
            .map(|s| id(&g, s))
            .collect();
        for e in &exprs {
            let c = CompiledPath::new(e, &g);
            let reached: BTreeSet<TermId> =
                sources.iter().flat_map(|&v| c.eval_from(&g, v)).collect();
            // Every endpoint, and a strict subset of them.
            let half: BTreeSet<TermId> = reached.iter().copied().step_by(2).collect();
            for targets in [&reached, &half] {
                let union: TraceSet = sources
                    .iter()
                    .flat_map(|&v| c.trace(&g, &[v], Some(targets)))
                    .collect();
                assert_eq!(c.trace(&g, &sources, Some(targets)), union, "expr {e}");
            }
            assert_eq!(
                c.trace(&g, &sources, None),
                c.trace(&g, &sources, Some(&reached)),
                "expr {e}: no target filter means every endpoint"
            );
            assert!(c.trace(&g, &[id(&g, "z")], None).is_empty(), "expr {e}");
        }
    }

    #[test]
    fn multi_source_trace_keeps_only_edges_to_shared_targets() {
        // a and b overlap on m -> d; x reaches only w, which is not a
        // target, so its edge must not appear.
        let g = Graph::from_triples([
            t("a", "p", "m"),
            t("b", "p", "m"),
            t("m", "p", "d"),
            t("b", "p", "d"),
            t("x", "p", "w"),
        ]);
        let c = CompiledPath::new(&p("p").plus(), &g);
        let targets = BTreeSet::from([id(&g, "d")]);
        let sources = [id(&g, "a"), id(&g, "b"), id(&g, "x")];
        let traced = c.trace(&g, &sources, Some(&targets));
        let subjects = names(&g, &traced.iter().map(|&(s, _, _)| s).collect());
        assert_eq!(subjects, BTreeSet::from([n("a"), n("b"), n("m")]));
        assert_eq!(traced.len(), 4);
        // Duplicate sources change nothing.
        let doubled = [sources[0], sources[1], sources[0], sources[2]];
        assert_eq!(c.trace(&g, &doubled, Some(&targets)), traced);
    }

    /// A chain x0 -p-> x1 -p-> … with every node a source of `p*`.
    fn chain_trace_inputs(len: usize) -> (Graph, CompiledPath, Vec<TermId>) {
        let g =
            Graph::from_triples((0..len).map(|i| t(&format!("x{i}"), "p", &format!("x{}", i + 1))));
        let c = CompiledPath::new(&p("p").star(), &g);
        let sources = (0..len).map(|i| id(&g, &format!("x{i}"))).collect();
        (g, c, sources)
    }

    #[test]
    fn multi_source_trace_honours_step_budget() {
        let (g, c, sources) = chain_trace_inputs(64);
        let ctx = ExecCtx::with_budget(shapefrag_govern::Budget::unlimited().steps(50));
        let err = c.try_trace(&g, &sources, None, &ctx).unwrap_err();
        assert!(matches!(
            err,
            EngineError::BudgetExceeded {
                kind: shapefrag_govern::BudgetKind::Steps,
                ..
            }
        ));
        // The same trace fits a generous budget and matches the ungoverned one.
        let ctx = ExecCtx::with_budget(shapefrag_govern::Budget::unlimited().steps(1_000_000));
        let governed = c.try_trace(&g, &sources, None, &ctx).unwrap();
        assert_eq!(governed, c.trace(&g, &sources, None));
        assert_eq!(governed.len(), 64);
    }

    #[test]
    fn multi_source_trace_honours_memory_budget() {
        let (g, c, sources) = chain_trace_inputs(64);
        let budget = shapefrag_govern::Budget::unlimited().memory_bytes(10 * PAIR_COST);
        let err = c
            .try_trace(&g, &sources, None, &ExecCtx::with_budget(budget))
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::BudgetExceeded {
                kind: shapefrag_govern::BudgetKind::Memory,
                ..
            }
        ));
    }

    #[test]
    fn path_cache_reuses_compilations() {
        let g = Graph::from_triples([t("a", "p", "b")]);
        let mut cache = PathCache::new();
        let e = p("p").star();
        let r1 = cache.eval(&e, &g, id(&g, "a"));
        let r2 = cache.eval(&e, &g, id(&g, "a"));
        assert_eq!(r1, r2);
        assert_eq!(cache.cache.len(), 1);
    }
}
