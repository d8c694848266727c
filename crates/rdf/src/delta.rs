//! Edit buffer over a [`FrozenGraph`]: adds and tombstones on top of an
//! immutable CSR base.
//!
//! A [`DeltaGraph`] is where the incremental engine stages an edit batch
//! before folding it into the next frozen graph ([`DeltaGraph::fold`]).
//! The base snapshot stays frozen and shared (`Arc`); edits land in two
//! small tree-indexed sides — `added` (triples not in the base) and
//! `removed` (tombstones over base triples). [`DeltaGraph::compact`]
//! builds the next base from one linear merge of the base's ascending
//! triples, minus the ascending tombstones, with the ascending added side.
//!
//! The overlay also implements [`GraphAccess`] over the *merged* view. No
//! product path reads through it (every published graph is frozen); the
//! agreement suites hold it to the same contract as the other backends:
//!
//! - forward/backward adjacency merges the base's sorted CSR run (minus
//!   tombstones) with the added side's sorted run, two-way, still ascending;
//! - the closed-check (`predicates_out_ids`) keeps a base predicate only
//!   while at least one of its objects survives the tombstones, and dedups
//!   against added predicates;
//! - `iter_ids` yields exactly the order the other backends use
//!   (subject, then predicate, then object), so memo fingerprints and
//!   report orderings transfer.
//!
//! Invariants (maintained by [`DeltaGraph::insert`]/[`DeltaGraph::remove`],
//! checked by the delta cases of `tests/prop_incremental_agreement.rs`):
//!
//! - `added` is disjoint from the live base: re-adding a base triple is a
//!   no-op, re-adding a tombstoned triple just clears the tombstone;
//! - `removed` is a subset of the base: removing an added triple deletes it
//!   from `added`, removing an absent triple is a no-op;
//! - `len == base.len() - removed.len() + added.len()` at all times.
//!
//! **Id stability**: the overlay shares the base's interner, and copies it
//! (each term allocation still shared) only when an edit interns a new
//! term, so every base id keeps its meaning and new terms extend the id
//! space densely. [`DeltaGraph::compact`] re-freezes the merged view over
//! that same interner, which is why memo entries and collected id-triples
//! survive compaction unchanged.

use std::collections::{BTreeMap, BTreeSet};
use std::iter::Peekable;
use std::sync::Arc;

use crate::access::GraphAccess;
use crate::frozen::FrozenGraph;
use crate::graph::{Interner, TermId};
use crate::term::{Term, Triple};

/// Two ascending iterators merged into one ascending iterator; equal
/// elements (possible only where the sides are allowed to overlap, e.g.
/// predicate runs) are emitted once.
struct MergeAsc<T, A, B>
where
    A: Iterator<Item = T>,
    B: Iterator<Item = T>,
{
    a: Peekable<A>,
    b: Peekable<B>,
}

impl<T, A, B> Iterator for MergeAsc<T, A, B>
where
    T: Ord + Copy,
    A: Iterator<Item = T>,
    B: Iterator<Item = T>,
{
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match (self.a.peek().copied(), self.b.peek().copied()) {
            (Some(x), Some(y)) => {
                if x < y {
                    self.a.next()
                } else if y < x {
                    self.b.next()
                } else {
                    self.a.next();
                    self.b.next()
                }
            }
            (Some(_), None) => self.a.next(),
            (None, Some(_)) => self.b.next(),
            (None, None) => None,
        }
    }
}

fn merge<T: Ord + Copy>(
    a: impl Iterator<Item = T>,
    b: impl Iterator<Item = T>,
) -> impl Iterator<Item = T> {
    MergeAsc {
        a: a.peekable(),
        b: b.peekable(),
    }
}

/// One side of the delta (added triples or tombstones): the three access
/// orders the CSR keeps (forward, backward, per predicate), tree-keyed so
/// every run iterates ascending and edits stay cheap, and sized to the
/// delta rather than the dataset.
#[derive(Debug, Default, Clone)]
struct DeltaIndex {
    /// s → p → {o}
    spo: BTreeMap<TermId, BTreeMap<TermId, BTreeSet<TermId>>>,
    /// o → p → {s}
    ops: BTreeMap<TermId, BTreeMap<TermId, BTreeSet<TermId>>>,
    /// p → {(s, o)}
    pso: BTreeMap<TermId, BTreeSet<(TermId, TermId)>>,
    len: usize,
}

impl DeltaIndex {
    fn insert(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        let added = self
            .spo
            .entry(s)
            .or_default()
            .entry(p)
            .or_default()
            .insert(o);
        if added {
            self.ops
                .entry(o)
                .or_default()
                .entry(p)
                .or_default()
                .insert(s);
            self.pso.entry(p).or_default().insert((s, o));
            self.len += 1;
        }
        added
    }

    fn remove(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        let removed = self
            .spo
            .get_mut(&s)
            .and_then(|m| m.get_mut(&p))
            .is_some_and(|set| set.remove(&o));
        if removed {
            let m = self.spo.get_mut(&s).expect("spo entry exists");
            if m.get(&p).is_some_and(|set| set.is_empty()) {
                m.remove(&p);
            }
            if m.is_empty() {
                self.spo.remove(&s);
            }
            if let Some(m) = self.ops.get_mut(&o) {
                if let Some(set) = m.get_mut(&p) {
                    set.remove(&s);
                    if set.is_empty() {
                        m.remove(&p);
                    }
                }
                if m.is_empty() {
                    self.ops.remove(&o);
                }
            }
            if let Some(set) = self.pso.get_mut(&p) {
                set.remove(&(s, o));
                if set.is_empty() {
                    self.pso.remove(&p);
                }
            }
            self.len -= 1;
        }
        removed
    }

    fn contains(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.spo
            .get(&s)
            .and_then(|m| m.get(&p))
            .is_some_and(|set| set.contains(&o))
    }

    fn objects(&self, s: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.spo
            .get(&s)
            .and_then(|m| m.get(&p))
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    fn subjects(&self, o: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.ops
            .get(&o)
            .and_then(|m| m.get(&p))
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    fn out_edges(&self, s: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        self.spo.get(&s).into_iter().flat_map(|m| {
            m.iter()
                .flat_map(|(p, objs)| objs.iter().map(move |o| (*p, *o)))
        })
    }

    fn in_edges(&self, o: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        self.ops.get(&o).into_iter().flat_map(|m| {
            m.iter()
                .flat_map(|(p, subs)| subs.iter().map(move |s| (*p, *s)))
        })
    }

    fn pred_edges(&self, p: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        self.pso
            .get(&p)
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    fn preds_out(&self, s: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.spo.get(&s).into_iter().flat_map(|m| m.keys().copied())
    }

    /// Every triple of this side, ascending by (s, p, o).
    fn iter(&self) -> impl Iterator<Item = (TermId, TermId, TermId)> + '_ {
        self.spo.iter().flat_map(|(&s, by_p)| {
            by_p.iter()
                .flat_map(move |(&p, objs)| objs.iter().map(move |&o| (s, p, o)))
        })
    }
}

/// A mutable overlay over an immutable [`FrozenGraph`]; see the module docs
/// for the merge discipline and invariants.
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    base: Arc<FrozenGraph>,
    /// The base's interner, shared until an edit interns a new term; then
    /// this overlay's own copy, extended by delta-only terms. Base ids are
    /// a stable prefix of this id space.
    terms: Arc<Interner>,
    added: DeltaIndex,
    removed: DeltaIndex,
    len: usize,
}

impl DeltaGraph {
    /// An empty overlay: the merged view equals the base.
    pub fn new(base: Arc<FrozenGraph>) -> DeltaGraph {
        let terms = Arc::clone(base.interner());
        let len = base.len();
        DeltaGraph {
            base,
            terms,
            added: DeltaIndex::default(),
            removed: DeltaIndex::default(),
            len,
        }
    }

    /// The frozen base this overlay extends.
    pub fn base(&self) -> &Arc<FrozenGraph> {
        &self.base
    }

    /// Triples in the added side.
    pub fn added_len(&self) -> usize {
        self.added.len
    }

    /// Tombstoned base triples.
    pub fn removed_len(&self) -> usize {
        self.removed.len
    }

    /// Total delta size (adds + tombstones) — the compaction trigger.
    pub fn delta_len(&self) -> usize {
        self.added.len + self.removed.len
    }

    /// Number of triples in the merged view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the merged view has no triples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a triple into the merged view. Returns the id triple iff the
    /// view changed (re-adding a live triple is a no-op; re-adding a
    /// tombstoned base triple clears the tombstone).
    pub fn insert(&mut self, triple: &Triple) -> Option<(TermId, TermId, TermId)> {
        let (s, p, o) = match self.terms.triple_ids(triple) {
            Some(ids) if triple.subject.is_subject() => ids,
            // A term the id space lacks (or a literal subject, which
            // `intern_triple` rejects): intern into this overlay's own copy.
            _ => Arc::make_mut(&mut self.terms).intern_triple(
                &triple.subject,
                &triple.predicate,
                &triple.object,
            ),
        };
        self.insert_ids(s, p, o).then_some((s, p, o))
    }

    fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        if self.removed.remove(s, p, o) {
            self.len += 1;
            return true;
        }
        if self.base.contains_ids(s, p, o) {
            return false;
        }
        let added = self.added.insert(s, p, o);
        if added {
            self.len += 1;
        }
        added
    }

    /// Removes a triple from the merged view. Returns the id triple iff the
    /// view changed (removing an absent triple is a no-op).
    pub fn remove(&mut self, triple: &Triple) -> Option<(TermId, TermId, TermId)> {
        let (s, p, o) = self.terms.triple_ids(triple)?;
        self.remove_ids(s, p, o).then_some((s, p, o))
    }

    fn remove_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        if self.added.remove(s, p, o) {
            self.len -= 1;
            return true;
        }
        if self.base.contains_ids(s, p, o) && self.removed.insert(s, p, o) {
            self.len -= 1;
            return true;
        }
        false
    }

    /// True iff the triple is in the merged view.
    pub fn contains(&self, triple: &Triple) -> bool {
        self.terms
            .triple_ids(triple)
            .is_some_and(|(s, p, o)| self.contains_ids(s, p, o))
    }

    /// Re-freezes the merged view into a fresh CSR snapshot.
    ///
    /// The compacted graph keeps this overlay's interner (base ids plus
    /// delta ids, unchanged), so everything keyed by id — memo entries,
    /// compiled paths, stored target lists — remains valid against the new
    /// base. The id log is one linear merge of the base's ascending
    /// triples, minus the ascending tombstones, with the ascending added
    /// side; no per-subject overlay read is involved.
    pub fn compact(&self) -> FrozenGraph {
        FrozenGraph::from_log(Arc::clone(&self.terms), self.merged_log())
    }

    /// Compacts in place: re-freezes the merged view and resets this
    /// overlay, empty, on top of the result, which it returns. The new
    /// base shares this overlay's interner, so a batch that interns no new
    /// term copies no interner at all.
    pub fn fold(&mut self) -> Arc<FrozenGraph> {
        let base = Arc::new(self.compact());
        self.base = Arc::clone(&base);
        self.added = DeltaIndex::default();
        self.removed = DeltaIndex::default();
        base
    }

    /// The merged view's id triples, ascending by (s, p, o).
    fn merged_log(&self) -> Vec<(TermId, TermId, TermId)> {
        let mut tombstones = self.removed.iter().peekable();
        // `removed` is a subset of the base, so one forward pointer over
        // it drops exactly the tombstoned base triples.
        let live_base = self.base.iter_ids().filter(move |t| {
            let dead = tombstones.peek() == Some(t);
            if dead {
                tombstones.next();
            }
            !dead
        });
        let mut log = Vec::with_capacity(self.len);
        log.extend(merge(live_base, self.added.iter()));
        log
    }
}

impl GraphAccess for DeltaGraph {
    fn len(&self) -> usize {
        self.len
    }

    fn term_count(&self) -> usize {
        self.terms.len()
    }

    fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.added.contains(s, p, o)
            || (self.base.contains_ids(s, p, o) && !self.removed.contains(s, p, o))
    }

    fn objects_ids(&self, s: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        let live_base = self
            .base
            .objects_ids(s, p)
            .filter(move |&o| !self.removed.contains(s, p, o));
        merge(live_base, self.added.objects(s, p))
    }

    fn subjects_ids(&self, o: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        let live_base = self
            .base
            .subjects_ids(o, p)
            .filter(move |&s| !self.removed.contains(s, p, o));
        merge(live_base, self.added.subjects(o, p))
    }

    fn out_edges_ids(&self, s: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        let live_base = self
            .base
            .out_edges_ids(s)
            .filter(move |&(p, o)| !self.removed.contains(s, p, o));
        merge(live_base, self.added.out_edges(s))
    }

    fn in_edges_ids(&self, o: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        let live_base = self
            .base
            .in_edges_ids(o)
            .filter(move |&(p, s)| !self.removed.contains(s, p, o));
        merge(live_base, self.added.in_edges(o))
    }

    fn edges_with_predicate_ids(&self, p: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        let live_base = self
            .base
            .edges_with_predicate_ids(p)
            .filter(move |&(s, o)| !self.removed.contains(s, p, o));
        merge(live_base, self.added.pred_edges(p))
    }

    /// The closed check. A base predicate stays listed only while at least one of its
    /// objects survives the tombstones; the merge dedups predicates present
    /// on both sides.
    fn predicates_out_ids(&self, s: TermId) -> impl Iterator<Item = TermId> + '_ {
        let live_base = self.base.predicates_out_ids(s).filter(move |&p| {
            self.base
                .objects_ids(s, p)
                .any(|o| !self.removed.contains(s, p, o))
        });
        merge(live_base, self.added.preds_out(s))
    }

    /// Same order as the other backends: ascending by (s, p, o).
    fn iter_ids(&self) -> impl Iterator<Item = (TermId, TermId, TermId)> + '_ {
        (0..self.terms.len() as u32).flat_map(move |s| {
            self.out_edges_ids(TermId(s))
                .map(move |(p, o)| (TermId(s), p, o))
        })
    }

    /// Subjects and objects of live triples.
    fn node_ids(&self) -> BTreeSet<TermId> {
        let mut nodes: BTreeSet<TermId> = self.base.node_ids_slice().iter().copied().collect();
        // Tombstones may have orphaned some base nodes: re-check liveness
        // of exactly the endpoints the tombstones touch.
        let mut candidates = BTreeSet::new();
        for (&s, by_p) in &self.removed.spo {
            candidates.insert(s);
            for objs in by_p.values() {
                candidates.extend(objs.iter().copied());
            }
        }
        for n in candidates {
            let live =
                self.out_edges_ids(n).next().is_some() || self.in_edges_ids(n).next().is_some();
            if !live {
                nodes.remove(&n);
            }
        }
        for (&s, by_p) in &self.added.spo {
            nodes.insert(s);
            for objs in by_p.values() {
                nodes.extend(objs.iter().copied());
            }
        }
        nodes
    }

    fn term(&self, id: TermId) -> &Term {
        self.terms.resolve(id)
    }

    /// Base or delta terms.
    fn id_of(&self, term: &Term) -> Option<TermId> {
        self.terms.get(term)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Iri;
    use crate::Graph;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Iri::new(p), Term::iri(o))
    }

    fn base() -> Arc<FrozenGraph> {
        let g = Graph::from_triples([
            t("a", "p", "b"),
            t("a", "p", "c"),
            t("a", "q", "b"),
            t("d", "p", "b"),
        ]);
        Arc::new(g.freeze())
    }

    #[test]
    fn empty_overlay_equals_base() {
        let b = base();
        let d = DeltaGraph::new(Arc::clone(&b));
        assert_eq!(d.len(), b.len());
        assert_eq!(
            d.iter_ids().collect::<Vec<_>>(),
            b.iter_ids().collect::<Vec<_>>()
        );
        assert_eq!(GraphAccess::node_ids(&d), GraphAccess::node_ids(b.as_ref()));
    }

    #[test]
    fn insert_and_remove_maintain_invariants() {
        let mut d = DeltaGraph::new(base());
        // Adding a live base triple is a no-op.
        assert!(d.insert(&t("a", "p", "b")).is_none());
        assert_eq!(d.delta_len(), 0);
        // A genuinely new triple lands in `added`.
        assert!(d.insert(&t("a", "p", "z")).is_some());
        assert!(d.contains(&t("a", "p", "z")));
        assert_eq!((d.added_len(), d.removed_len()), (1, 0));
        // Removing a base triple tombstones it.
        assert!(d.remove(&t("a", "p", "b")).is_some());
        assert!(!d.contains(&t("a", "p", "b")));
        assert_eq!((d.added_len(), d.removed_len()), (1, 1));
        // Removing it again is a no-op.
        assert!(d.remove(&t("a", "p", "b")).is_none());
        // Re-adding clears the tombstone rather than growing `added`.
        assert!(d.insert(&t("a", "p", "b")).is_some());
        assert_eq!((d.added_len(), d.removed_len()), (1, 0));
        // Removing an added triple shrinks `added`.
        assert!(d.remove(&t("a", "p", "z")).is_some());
        assert_eq!(d.delta_len(), 0);
        assert_eq!(d.len(), d.base().len());
        // Removing an absent triple (unknown terms) is a no-op.
        assert!(d.remove(&t("nope", "p", "nope")).is_none());
    }

    #[test]
    fn merged_view_agrees_with_replayed_graph() {
        let g0 = Graph::from_triples([
            t("a", "p", "b"),
            t("a", "p", "c"),
            t("a", "q", "b"),
            t("d", "p", "b"),
        ]);
        let mut d = DeltaGraph::new(Arc::new(g0.freeze()));
        let mut g = g0;
        // Same edit sequence against both backends: same interning order,
        // so the id spaces stay identical.
        for add in [t("a", "p", "z"), t("z", "q", "a"), t("d", "r", "w")] {
            assert_eq!(d.insert(&add).is_some(), g.insert(add.clone()));
        }
        for del in [t("a", "p", "b"), t("d", "p", "b"), t("a", "p", "z")] {
            assert_eq!(d.remove(&del).is_some(), g.remove(&del));
        }
        assert_eq!(d.len(), g.len());
        assert_eq!(
            d.iter_ids().collect::<Vec<_>>(),
            g.iter_ids().collect::<Vec<_>>()
        );
        assert_eq!(DeltaGraph::node_ids(&d), g.node_ids());
        for n in 0..g.terms.len() as u32 {
            let n = TermId(n);
            assert_eq!(
                d.out_edges_ids(n).collect::<Vec<_>>(),
                g.out_edges_ids(n).collect::<Vec<_>>()
            );
            assert_eq!(
                d.in_edges_ids(n).collect::<Vec<_>>(),
                g.in_edges_ids(n).collect::<Vec<_>>()
            );
            assert_eq!(
                d.predicates_out_ids(n).collect::<Vec<_>>(),
                g.predicates_out_ids(n).collect::<Vec<_>>()
            );
            assert_eq!(
                DeltaGraph::edges_with_predicate_ids(&d, n).collect::<Vec<_>>(),
                Graph::edges_with_predicate_ids(&g, n).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn closed_check_drops_fully_tombstoned_predicates() {
        let mut d = DeltaGraph::new(base());
        let a = d.id_of(&Term::iri("a")).unwrap();
        let q = d.id_of_iri(&Iri::new("q")).unwrap();
        // "a" has predicates p and q; tombstone its only q-edge.
        assert!(d.remove(&t("a", "q", "b")).is_some());
        let preds: Vec<_> = d.predicates_out_ids(a).collect();
        assert!(!preds.contains(&q), "fully tombstoned predicate must drop");
        // p survives: only one of its two objects is gone.
        assert!(d.remove(&t("a", "p", "b")).is_some());
        let p = d.id_of_iri(&Iri::new("p")).unwrap();
        assert!(d.predicates_out_ids(a).any(|x| x == p));
    }

    #[test]
    fn compact_is_id_stable_and_equal() {
        let mut d = DeltaGraph::new(base());
        d.insert(&t("a", "p", "z"));
        d.remove(&t("d", "p", "b"));
        let compacted = d.compact();
        assert_eq!(compacted.len(), d.len());
        assert_eq!(
            compacted.iter_ids().collect::<Vec<_>>(),
            d.iter_ids().collect::<Vec<_>>()
        );
        // Ids survive: the same term resolves to the same id in both.
        for term in ["a", "b", "z"] {
            assert_eq!(d.id_of(&Term::iri(term)), compacted.id_of(&Term::iri(term)));
        }
        // And a fresh overlay on the compacted base is again the identity.
        let d2 = DeltaGraph::new(Arc::new(compacted));
        assert_eq!(d2.len(), d.len());
        assert_eq!(d2.delta_len(), 0);
    }

    #[test]
    fn fold_shares_the_interner_until_an_edit_interns_a_term() {
        let mut d = DeltaGraph::new(base());
        // Edits over known terms copy no interner: the folded base shares
        // the previous one.
        let before = Arc::clone(d.base().interner());
        d.remove(&t("a", "p", "b"));
        d.insert(&t("d", "q", "c"));
        let folded = d.fold();
        assert!(Arc::ptr_eq(folded.interner(), &before));
        assert_eq!((d.delta_len(), d.len()), (0, folded.len()));
        // A new term gives the overlay its own copy, which the next fold
        // then shares.
        d.insert(&t("a", "p", "new"));
        assert!(!Arc::ptr_eq(&d.terms, &before));
        let folded = d.fold();
        assert!(Arc::ptr_eq(folded.interner(), &d.terms));
        assert!(folded.id_of(&Term::iri("new")).is_some());
        assert!(before.get(&Term::iri("new")).is_none());
    }

    #[test]
    fn node_ids_tracks_orphaned_endpoints() {
        let g = Graph::from_triples([t("a", "p", "b"), t("c", "p", "b")]);
        let mut d = DeltaGraph::new(Arc::new(g.freeze()));
        let c = d.id_of(&Term::iri("c")).unwrap();
        assert!(DeltaGraph::node_ids(&d).contains(&c));
        // Tombstoning c's only triple orphans c but keeps b (still an
        // object of a's triple).
        d.remove(&t("c", "p", "b"));
        let nodes = DeltaGraph::node_ids(&d);
        assert!(!nodes.contains(&c));
        assert!(nodes.contains(&d.id_of(&Term::iri("b")).unwrap()));
    }
}
