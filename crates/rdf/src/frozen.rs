//! Immutable compressed-sparse-row graph: the one adjacency read backend.
//!
//! [`FrozenGraph`] is built once — straight from a parser's id log by the
//! frozen loaders ([`crate::turtle::parse_frozen`],
//! [`crate::ntriples::parse_frozen`]), via [`Graph::freeze`], or lazily as
//! the snapshot behind a [`Graph`]'s adjacency reads — and stores every
//! index as sorted contiguous arrays of dense `u32` ids:
//!
//! - forward `(s, p) → [o]` and backward `(o, p) → [s]` adjacency as
//!   two-level CSR (per-node predicate list + per-pair object/subject run),
//! - per-predicate `(s, o)` edge lists for predicate scans, and
//! - the per-subject sorted predicate list doubling as the `closed`-check
//!   index.
//!
//! An edge step is then a binary search over a short predicate slice plus a
//! contiguous slice iteration — no hash lookups, no tree pointer chases.
//!
//! Freeze invariants (checked by `tests/prop_frozen_agreement.rs`):
//!
//! - **Id stability**: the interner is a clone of the source `Graph`'s
//!   (cloning bumps `Arc` refcounts, not allocations), or the very
//!   interner of the overlay it is folded from, so a `TermId` means the
//!   same term in both and compiled paths / memo keys can be reused
//!   across them.
//! - **Sortedness**: every adjacency run is ascending by id, and
//!   [`GraphAccess::iter_ids`] yields triples ascending by (subject,
//!   predicate, object), the order of the source graph's triple set.
//! - **Same triple set**: `freeze` is a pure snapshot; later mutations of
//!   the source `Graph` are not reflected.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::access::GraphAccess;
use crate::graph::{Graph, Interner, TermId};
use crate::term::Term;

type IdTriple = (TermId, TermId, TermId);

/// A stable counting sort of `triples` by the dense id `key` picks: one
/// pass over `0..n_terms` buckets instead of a comparison sort.
fn counting_sort_by(
    n_terms: usize,
    triples: &[IdTriple],
    key: impl Fn(&IdTriple) -> TermId,
) -> Vec<IdTriple> {
    let mut next = vec![0u32; n_terms + 1];
    for t in triples {
        next[key(t).0 as usize + 1] += 1;
    }
    for k in 0..n_terms {
        next[k + 1] += next[k];
    }
    let mut out = vec![(TermId(0), TermId(0), TermId(0)); triples.len()];
    for t in triples {
        let slot = &mut next[key(t).0 as usize];
        out[*slot as usize] = *t;
        *slot += 1;
    }
    out
}

/// One level of a two-level CSR index: per node, a sorted run of
/// predicates; per (node, predicate) pair, a sorted run of neighbor ids.
#[derive(Debug, Default, Clone)]
struct CsrIndex {
    /// `node_offsets[n]..node_offsets[n + 1]` indexes the predicate run of
    /// node `n` in `preds` (length: id-space size + 1, monotone).
    node_offsets: Vec<u32>,
    /// Predicate ids, sorted within each node's run.
    preds: Vec<TermId>,
    /// `neighbor_starts[k]..neighbor_starts[k + 1]` indexes the neighbor
    /// run of pair `k` (global index into `preds`) in `neighbors`
    /// (length: `preds.len() + 1`, monotone).
    neighbor_starts: Vec<u32>,
    /// Neighbor ids, sorted within each pair's run.
    neighbors: Vec<TermId>,
}

impl CsrIndex {
    /// Builds one direction from triples whose `key` — `(node, predicate,
    /// neighbor)` — ascends without duplicates, so every run lands
    /// pre-sorted.
    fn from_sorted(
        n_terms: usize,
        sorted: &[IdTriple],
        key: impl Fn(&IdTriple) -> IdTriple,
    ) -> Self {
        // Per-node predicate counts first, prefix-summed into offsets below.
        let mut node_offsets = vec![0u32; n_terms + 1];
        let mut preds = Vec::new();
        let mut neighbor_starts = Vec::new();
        let mut neighbors = Vec::with_capacity(sorted.len());
        let mut last = None;
        for (node, pred, neighbor) in sorted.iter().map(key) {
            if last != Some((node, pred)) {
                last = Some((node, pred));
                node_offsets[node.0 as usize + 1] += 1;
                preds.push(pred);
                neighbor_starts.push(neighbors.len() as u32);
            }
            neighbors.push(neighbor);
        }
        for n in 0..n_terms {
            node_offsets[n + 1] += node_offsets[n];
        }
        neighbor_starts.push(neighbors.len() as u32);
        CsrIndex {
            node_offsets,
            preds,
            neighbor_starts,
            neighbors,
        }
    }

    /// The sorted predicate run of `node` (empty for out-of-range ids,
    /// which can arise from terms interned without triples).
    fn pred_run(&self, node: TermId) -> &[TermId] {
        let n = node.0 as usize;
        if n + 1 >= self.node_offsets.len() {
            return &[];
        }
        &self.preds[self.node_offsets[n] as usize..self.node_offsets[n + 1] as usize]
    }

    /// The sorted neighbor run of `(node, pred)`, empty when absent.
    fn neighbor_run(&self, node: TermId, pred: TermId) -> &[TermId] {
        let n = node.0 as usize;
        if n + 1 >= self.node_offsets.len() {
            return &[];
        }
        let lo = self.node_offsets[n] as usize;
        let run = &self.preds[lo..self.node_offsets[n + 1] as usize];
        match run.binary_search(&pred) {
            Ok(pos) => {
                let k = lo + pos;
                &self.neighbors
                    [self.neighbor_starts[k] as usize..self.neighbor_starts[k + 1] as usize]
            }
            Err(_) => &[],
        }
    }

    /// All `(pred, neighbor)` pairs of `node`, ascending.
    fn edges(&self, node: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        let n = node.0 as usize;
        let (lo, hi) = if n + 1 >= self.node_offsets.len() {
            (0, 0)
        } else {
            (
                self.node_offsets[n] as usize,
                self.node_offsets[n + 1] as usize,
            )
        };
        (lo..hi).flat_map(move |k| {
            let p = self.preds[k];
            self.neighbors[self.neighbor_starts[k] as usize..self.neighbor_starts[k + 1] as usize]
                .iter()
                .map(move |&x| (p, x))
        })
    }
}

/// An immutable CSR graph; see the module docs for the layout and
/// invariants. Build with a frozen loader or [`Graph::freeze`].
#[derive(Debug, Default, Clone)]
pub struct FrozenGraph {
    /// Shared with the overlay a graph is folded from, and with the next
    /// fold while no edit interns a new term.
    terms: Arc<Interner>,
    /// Forward adjacency: `(s, p) → [o]`.
    fwd: CsrIndex,
    /// Backward adjacency: `(o, p) → [s]`.
    bwd: CsrIndex,
    /// Distinct predicate ids, ascending.
    pred_ids: Vec<TermId>,
    /// `pred_edge_starts[k]..pred_edge_starts[k + 1]` indexes the edge run
    /// of `pred_ids[k]` in `pred_edges` (length: `pred_ids.len() + 1`).
    pred_edge_starts: Vec<u32>,
    /// `(s, o)` pairs per predicate, ascending.
    pred_edges: Vec<(TermId, TermId)>,
    /// Distinct nodes (subjects and objects), ascending.
    nodes: Vec<TermId>,
    len: usize,
}

impl Graph {
    /// Builds the immutable CSR snapshot of this graph.
    ///
    /// Ids are stable: a [`TermId`] issued by this graph denotes the same
    /// term in the snapshot (the interner is shared structurally), so
    /// anything keyed by id — compiled paths, conformance memos, collected
    /// id-triples — transfers between the backends.
    pub fn freeze(&self) -> FrozenGraph {
        FrozenGraph::from_log(Arc::clone(&self.terms), self.iter_ids().collect())
    }
}

impl FrozenGraph {
    /// The one CSR constructor, behind the frozen loaders, [`Graph::freeze`]
    /// and [`crate::DeltaGraph::compact`]: sorts the id triples by
    /// `(s, p, o)` (set semantics by dedup), then derives the `(p, s, o)`
    /// and `(o, p, s)` orders with two stable counting passes over the
    /// dense ids — by predicate, then by object — and builds each index
    /// from the order keyed for it.
    pub(crate) fn from_log(terms: impl Into<Arc<Interner>>, mut triples: Vec<IdTriple>) -> Self {
        let terms = terms.into();
        triples.sort_unstable();
        triples.dedup();
        let n_terms = terms.len();
        let len = triples.len();
        let fwd = CsrIndex::from_sorted(n_terms, &triples, |&t| t);
        let mut is_node = vec![false; n_terms];
        for &(s, _, o) in &triples {
            is_node[s.0 as usize] = true;
            is_node[o.0 as usize] = true;
        }
        let nodes = (0..n_terms as u32)
            .filter(|&n| is_node[n as usize])
            .map(TermId)
            .collect();
        // At most two full id-triple orders are live at any point.
        let by_pso = counting_sort_by(n_terms, &triples, |&(_, p, _)| p);
        drop(triples);

        let mut pred_ids = Vec::new();
        let mut pred_edge_starts = Vec::new();
        let mut pred_edges = Vec::with_capacity(len);
        for &(s, p, o) in &by_pso {
            if pred_ids.last() != Some(&p) {
                pred_ids.push(p);
                pred_edge_starts.push(pred_edges.len() as u32);
            }
            pred_edges.push((s, o));
        }
        pred_edge_starts.push(pred_edges.len() as u32);

        let by_ops = counting_sort_by(n_terms, &by_pso, |&(_, _, o)| o);
        drop(by_pso);
        let bwd = CsrIndex::from_sorted(n_terms, &by_ops, |&(s, p, o)| (o, p, s));

        FrozenGraph {
            terms,
            fwd,
            bwd,
            pred_ids,
            pred_edge_starts,
            pred_edges,
            nodes,
            len,
        }
    }

    /// The snapshot's interner (shared id space with the source graph);
    /// the delta overlay shares it, and copies it only to extend the id
    /// space without renumbering.
    pub(crate) fn interner(&self) -> &Arc<Interner> {
        &self.terms
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the snapshot has no triples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All nodes as a sorted slice (no allocation; prefer over
    /// [`GraphAccess::node_ids`] on the frozen backend).
    pub fn node_ids_slice(&self) -> &[TermId] {
        &self.nodes
    }
}

impl GraphAccess for FrozenGraph {
    fn len(&self) -> usize {
        self.len
    }

    fn term_count(&self) -> usize {
        self.terms.len()
    }

    fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.fwd.neighbor_run(s, p).binary_search(&o).is_ok()
    }

    fn objects_ids(&self, s: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.fwd.neighbor_run(s, p).iter().copied()
    }

    fn subjects_ids(&self, o: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.bwd.neighbor_run(o, p).iter().copied()
    }

    fn out_edges_ids(&self, s: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        self.fwd.edges(s)
    }

    fn in_edges_ids(&self, o: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        self.bwd.edges(o)
    }

    fn edges_with_predicate_ids(&self, p: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        let run = match self.pred_ids.binary_search(&p) {
            Ok(k) => {
                &self.pred_edges
                    [self.pred_edge_starts[k] as usize..self.pred_edge_starts[k + 1] as usize]
            }
            Err(_) => &[],
        };
        run.iter().copied()
    }

    /// The `closed` constraint's scan, served from one contiguous slice.
    fn predicates_out_ids(&self, s: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.fwd.pred_run(s).iter().copied()
    }

    fn iter_ids(&self) -> impl Iterator<Item = (TermId, TermId, TermId)> + '_ {
        (0..self.terms.len() as u32).flat_map(move |s| {
            self.fwd
                .edges(TermId(s))
                .map(move |(p, o)| (TermId(s), p, o))
        })
    }

    fn node_ids(&self) -> BTreeSet<TermId> {
        self.nodes.iter().copied().collect()
    }

    fn term(&self, id: TermId) -> &Term {
        self.terms.resolve(id)
    }

    fn id_of(&self, term: &Term) -> Option<TermId> {
        self.terms.get(term)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Iri, Triple};

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Iri::new(p), Term::iri(o))
    }

    #[test]
    fn freeze_preserves_triples_ids_and_order() {
        let g = Graph::from_triples([
            t("a", "p", "b"),
            t("a", "p", "c"),
            t("a", "q", "b"),
            t("d", "p", "b"),
        ]);
        let f = g.freeze();
        assert_eq!(f.len(), g.len());
        let g_ids: Vec<_> = g.iter_ids().collect();
        let f_ids: Vec<_> = f.iter_ids().collect();
        assert_eq!(g_ids, f_ids);
        for term in ["a", "b", "c", "d"] {
            assert_eq!(g.id_of(&Term::iri(term)), f.id_of(&Term::iri(term)));
        }
    }

    #[test]
    fn frozen_accessors_match_mutable() {
        let g = Graph::from_triples([
            t("a", "p", "b"),
            t("b", "p", "c"),
            t("c", "q", "a"),
            t("a", "q", "a"),
        ]);
        let f = g.freeze();
        let a = g.id_of(&Term::iri("a")).unwrap();
        let b = g.id_of(&Term::iri("b")).unwrap();
        let p = g.id_of_iri(&Iri::new("p")).unwrap();
        let q = g.id_of_iri(&Iri::new("q")).unwrap();
        assert_eq!(
            g.objects_ids(a, p).collect::<Vec<_>>(),
            f.objects_ids(a, p).collect::<Vec<_>>()
        );
        assert_eq!(
            g.subjects_ids(b, p).collect::<Vec<_>>(),
            f.subjects_ids(b, p).collect::<Vec<_>>()
        );
        assert_eq!(
            g.out_edges_ids(a).collect::<Vec<_>>(),
            f.out_edges_ids(a).collect::<Vec<_>>()
        );
        assert_eq!(
            g.in_edges_ids(a).collect::<Vec<_>>(),
            f.in_edges_ids(a).collect::<Vec<_>>()
        );
        assert_eq!(
            g.edges_with_predicate_ids(q).collect::<Vec<_>>(),
            f.edges_with_predicate_ids(q).collect::<Vec<_>>()
        );
        assert_eq!(
            g.predicates_out_ids(a).collect::<Vec<_>>(),
            f.predicates_out_ids(a).collect::<Vec<_>>()
        );
        assert!(f.contains_ids(a, p, b));
        assert!(!f.contains_ids(b, q, a));
        assert_eq!(g.node_ids(), GraphAccess::node_ids(&f));
    }

    #[test]
    fn freeze_is_a_snapshot_not_a_view() {
        let mut g = Graph::from_triples([t("a", "p", "b")]);
        let f = g.freeze();
        g.insert(t("a", "p", "c"));
        assert_eq!(f.len(), 1);
        let c = g.id_of(&Term::iri("c")).unwrap();
        let a = g.id_of(&Term::iri("a")).unwrap();
        let p = g.id_of_iri(&Iri::new("p")).unwrap();
        assert!(!f.contains_ids(a, p, c));
    }

    #[test]
    fn out_of_range_ids_are_empty_not_panics() {
        let g = Graph::from_triples([t("a", "p", "b")]);
        let f = g.freeze();
        let bogus = TermId(999);
        assert_eq!(f.objects_ids(bogus, bogus).count(), 0);
        assert_eq!(f.out_edges_ids(bogus).count(), 0);
        assert_eq!(f.predicates_out_ids(bogus).count(), 0);
        assert!(!f.contains_ids(bogus, bogus, bogus));
    }
}
