//! In-memory indexed RDF graph store.
//!
//! A [`Graph`] is a finite set of triples with set semantics. Terms are
//! interned into dense [`TermId`]s; three indexes (subject→predicate→objects,
//! object→predicate→subjects, predicate→(subject,object) pairs) support the
//! access paths needed by path evaluation, validation, and SPARQL:
//!
//! - `objects(s, p)` / `subjects(o, p)` — forward/backward edge steps,
//! - `predicates_out(s)` — all outgoing properties (closedness constraints),
//! - `edges_with_predicate(p)` — predicate scans.
//!
//! Sets are `BTreeSet`s over ids so iteration order is deterministic for a
//! given insertion sequence, which keeps experiments reproducible.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::frozen::FrozenGraph;
use crate::term::{Iri, Term, Triple};

/// A minimal FxHash-style hasher for the id-keyed indexes: ids are dense
/// `u32`s, so the default SipHash costs dominate hot lookups otherwise.
#[derive(Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 ^ v as u64).wrapping_mul(0x9E3779B97F4A7C15);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E3779B97F4A7C15);
    }
}

/// A hash map keyed by integer-like keys using [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A dense identifier for an interned [`Term`] within one [`Graph`].
///
/// Ids are only meaningful relative to the graph that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// Both the id→term table and the term→id map point at one shared
/// allocation per distinct term (`Arc<Term>`; `Arc<Term>: Borrow<Term>`
/// keeps map lookups allocation-free), instead of storing every term twice.
#[derive(Debug, Default, Clone)]
pub(crate) struct Interner {
    pub(crate) lookup: HashMap<Arc<Term>, TermId>,
    pub(crate) terms: Vec<Arc<Term>>,
}

impl Interner {
    pub(crate) fn intern(&mut self, term: &Term) -> TermId {
        if let Some(&id) = self.lookup.get(term) {
            return id;
        }
        let shared = Arc::new(term.clone());
        let id = TermId(self.terms.len() as u32);
        self.terms.push(Arc::clone(&shared));
        self.lookup.insert(shared, id);
        id
    }

    /// Interns a triple's terms in subject, predicate, object order — the
    /// order every id space in the crate is built in.
    pub(crate) fn intern_triple(
        &mut self,
        s: &Term,
        p: &Iri,
        o: &Term,
    ) -> (TermId, TermId, TermId) {
        assert!(
            s.is_subject(),
            "triple subject must be an IRI or blank node"
        );
        (
            self.intern(s),
            self.intern(&Term::Iri(p.clone())),
            self.intern(o),
        )
    }

    pub(crate) fn get(&self, term: &Term) -> Option<TermId> {
        self.lookup.get(term).copied()
    }

    pub(crate) fn resolve(&self, id: TermId) -> &Term {
        &self.terms[id.0 as usize]
    }

    /// Number of interned terms (the id space is `0..len`).
    pub(crate) fn len(&self) -> usize {
        self.terms.len()
    }
}

/// What the parsers write into: an interner plus the id triples in document
/// order, duplicates included. Each triple interns its subject, predicate
/// and object in that order, exactly as [`Graph::insert`] does, so both
/// finishes — [`TripleLog::into_graph`] and [`TripleLog::into_frozen`] —
/// hand out the ids `parse(text).freeze()` would.
#[derive(Default)]
pub(crate) struct TripleLog {
    terms: Interner,
    triples: Vec<(TermId, TermId, TermId)>,
}

impl TripleLog {
    /// A log pre-sized for about `triples` statements.
    pub(crate) fn with_capacity(triples: usize) -> Self {
        let mut log = TripleLog::default();
        log.terms.lookup.reserve(triples);
        log.terms.terms.reserve(triples);
        log.triples.reserve(triples);
        log
    }

    /// Appends one triple.
    pub(crate) fn push(&mut self, s: &Term, p: &Iri, o: &Term) {
        let ids = self.terms.intern_triple(s, p, o);
        self.triples.push(ids);
    }

    /// Finishes the log into a mutable [`Graph`].
    pub(crate) fn into_graph(self) -> Graph {
        let mut g = Graph {
            terms: self.terms,
            ..Graph::default()
        };
        g.spo.reserve(self.triples.len() / 2);
        g.ops.reserve(self.triples.len() / 2);
        for (s, p, o) in self.triples {
            g.insert_ids(s, p, o);
        }
        g
    }

    /// Finishes the log into a CSR snapshot without building a [`Graph`].
    pub(crate) fn into_frozen(self) -> FrozenGraph {
        FrozenGraph::from_log(self.terms, self.triples)
    }
}

/// An in-memory RDF graph (a finite set of triples) with set semantics.
#[derive(Default, Clone)]
pub struct Graph {
    pub(crate) terms: Interner,
    /// s → p → {o}
    pub(crate) spo: IntMap<TermId, BTreeMap<TermId, BTreeSet<TermId>>>,
    /// o → p → {s}
    pub(crate) ops: IntMap<TermId, BTreeMap<TermId, BTreeSet<TermId>>>,
    /// p → {(s, o)}
    pub(crate) pso: IntMap<TermId, BTreeSet<(TermId, TermId)>>,
    pub(crate) len: usize,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Builds a graph from an iterator of triples, pre-sizing the interner
    /// and indexes from the iterator's size hint.
    pub fn from_triples(triples: impl IntoIterator<Item = Triple>) -> Self {
        let iter = triples.into_iter();
        let mut g = Graph::new();
        g.reserve(iter.size_hint().0);
        for t in iter {
            g.insert(t);
        }
        g
    }

    /// Pre-reserves capacity for roughly `triples` additional triples.
    ///
    /// Sizing heuristic: a graph of `n` triples interns at most `2n + p`
    /// terms but real corpora share most subjects/objects; `n` term slots
    /// and `n / 2` subject/object index slots avoid the worst rehash
    /// cascades without overshooting small graphs.
    pub fn reserve(&mut self, triples: usize) {
        self.terms.lookup.reserve(triples);
        self.terms.terms.reserve(triples);
        self.spo.reserve(triples / 2);
        self.ops.reserve(triples / 2);
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the graph has no triples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a triple; returns `true` if it was not already present.
    pub fn insert(&mut self, triple: Triple) -> bool {
        let (s, p, o) =
            self.terms
                .intern_triple(&triple.subject, &triple.predicate, &triple.object);
        self.insert_ids(s, p, o)
    }

    /// Inserts by pre-interned ids (ids must come from this graph).
    pub(crate) fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
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

    /// Removes a triple; returns `true` if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.terms.get(&triple.subject),
            self.terms.get(&Term::Iri(triple.predicate.clone())),
            self.terms.get(&triple.object),
        ) else {
            return false;
        };
        let removed = self
            .spo
            .get_mut(&s)
            .and_then(|m| m.get_mut(&p))
            .map(|set| set.remove(&o))
            .unwrap_or(false);
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

    /// True iff the triple is in the graph.
    pub fn contains(&self, triple: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.terms.get(&triple.subject),
            self.terms.get(&Term::Iri(triple.predicate.clone())),
            self.terms.get(&triple.object),
        ) else {
            return false;
        };
        self.contains_ids(s, p, o)
    }

    /// True iff the id-level triple is in the graph.
    pub fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.spo
            .get(&s)
            .and_then(|m| m.get(&p))
            .map(|set| set.contains(&o))
            .unwrap_or(false)
    }

    /// Extends the graph with all triples of `other`.
    ///
    /// Each distinct term of `other` is resolved against this graph's
    /// interner exactly once (via an id→id translation table) instead of
    /// re-interning a cloned [`Term`] per triple occurrence.
    pub fn extend(&mut self, other: &Graph) {
        self.reserve(other.len);
        let mut map: Vec<Option<TermId>> = vec![None; other.terms.len()];
        for (s, p, o) in other.iter_ids() {
            let s = self.translate_id(other, &mut map, s);
            let p = self.translate_id(other, &mut map, p);
            let o = self.translate_id(other, &mut map, o);
            self.insert_ids(s, p, o);
        }
    }

    /// Resolves `other`'s id into this graph's id space, caching the answer
    /// in `map` so each distinct term is interned at most once.
    fn translate_id(&mut self, other: &Graph, map: &mut [Option<TermId>], id: TermId) -> TermId {
        if let Some(mapped) = map[id.0 as usize] {
            return mapped;
        }
        let mapped = self.terms.intern(other.term(id));
        map[id.0 as usize] = Some(mapped);
        mapped
    }

    /// The id of a term, if it has been interned (i.e. appears in some
    /// triple or was interned explicitly).
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        self.terms.get(term)
    }

    /// The id of an IRI used as a predicate or node.
    pub fn id_of_iri(&self, iri: &Iri) -> Option<TermId> {
        self.terms.get(&Term::Iri(iri.clone()))
    }

    /// Interns a term without adding any triple (useful for focus nodes not
    /// yet mentioned in the graph).
    pub fn intern(&mut self, term: &Term) -> TermId {
        self.terms.intern(term)
    }

    /// Resolves an id back to its term.
    pub fn term(&self, id: TermId) -> &Term {
        self.terms.resolve(id)
    }

    /// Iterates all triples (deterministic order per index structure).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.iter_ids()
            .map(move |(s, p, o)| self.triple_of(s, p, o))
    }

    /// Iterates all triples as id tuples.
    pub fn iter_ids(&self) -> impl Iterator<Item = (TermId, TermId, TermId)> + '_ {
        let mut subjects: Vec<_> = self.spo.keys().copied().collect();
        subjects.sort_unstable();
        subjects.into_iter().flat_map(move |s| {
            self.spo[&s]
                .iter()
                .flat_map(move |(p, objs)| objs.iter().map(move |o| (s, *p, *o)))
        })
    }

    /// Materializes an id triple into a [`Triple`].
    pub fn triple_of(&self, s: TermId, p: TermId, o: TermId) -> Triple {
        let Term::Iri(pred) = self.term(p).clone() else {
            unreachable!("predicate ids always resolve to IRIs");
        };
        Triple {
            subject: self.term(s).clone(),
            predicate: pred,
            object: self.term(o).clone(),
        }
    }

    /// Objects of `(s, p, ?)` as ids.
    pub fn objects_ids(&self, s: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.spo
            .get(&s)
            .and_then(|m| m.get(&p))
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Subjects of `(?, p, o)` as ids.
    pub fn subjects_ids(&self, o: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.ops
            .get(&o)
            .and_then(|m| m.get(&p))
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Outgoing `(predicate, object)` id pairs of a subject.
    pub fn out_edges_ids(&self, s: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        self.spo.get(&s).into_iter().flat_map(|m| {
            m.iter()
                .flat_map(|(p, objs)| objs.iter().map(move |o| (*p, *o)))
        })
    }

    /// Incoming `(predicate, subject)` id pairs of an object.
    pub fn in_edges_ids(&self, o: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        self.ops.get(&o).into_iter().flat_map(|m| {
            m.iter()
                .flat_map(|(p, subs)| subs.iter().map(move |s| (*p, *s)))
        })
    }

    /// All `(s, o)` id pairs with predicate `p`.
    pub fn edges_with_predicate_ids(
        &self,
        p: TermId,
    ) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        self.pso
            .get(&p)
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Objects of `(s, p, ?)` as terms; empty if `s` or `p` unknown.
    pub fn objects_for<'a>(&'a self, s: &Term, p: &Iri) -> Vec<&'a Term> {
        match (self.id_of(s), self.id_of_iri(p)) {
            (Some(s), Some(p)) => self.objects_ids(s, p).map(|o| self.term(o)).collect(),
            _ => Vec::new(),
        }
    }

    /// Subjects of `(?, p, o)` as terms; empty if `o` or `p` unknown.
    pub fn subjects_for<'a>(&'a self, o: &Term, p: &Iri) -> Vec<&'a Term> {
        match (self.id_of(o), self.id_of_iri(p)) {
            (Some(o), Some(p)) => self.subjects_ids(o, p).map(|s| self.term(s)).collect(),
            _ => Vec::new(),
        }
    }

    /// Triples matching an optional pattern on each position.
    pub fn triples_matching(
        &self,
        s: Option<&Term>,
        p: Option<&Iri>,
        o: Option<&Term>,
    ) -> Vec<Triple> {
        let sid = s.map(|t| self.id_of(t));
        let pid = p.map(|t| self.id_of_iri(t));
        let oid = o.map(|t| self.id_of(t));
        // Any bound-but-unknown term means no matches.
        if sid == Some(None) || pid == Some(None) || oid == Some(None) {
            return Vec::new();
        }
        let sid = sid.flatten();
        let pid = pid.flatten();
        let oid = oid.flatten();
        let mut out = Vec::new();
        match (sid, pid, oid) {
            (Some(s), Some(p), Some(o)) => {
                if self.contains_ids(s, p, o) {
                    out.push(self.triple_of(s, p, o));
                }
            }
            (Some(s), Some(p), None) => {
                for o in self.objects_ids(s, p) {
                    out.push(self.triple_of(s, p, o));
                }
            }
            (Some(s), None, oid) => {
                for (p, o) in self.out_edges_ids(s) {
                    if oid.is_none_or(|x| x == o) {
                        out.push(self.triple_of(s, p, o));
                    }
                }
            }
            (None, Some(p), Some(o)) => {
                for s in self.subjects_ids(o, p) {
                    out.push(self.triple_of(s, p, o));
                }
            }
            (None, Some(p), None) => {
                for (s, o) in self.edges_with_predicate_ids(p) {
                    out.push(self.triple_of(s, p, o));
                }
            }
            (None, None, Some(o)) => {
                for (p, s) in self.in_edges_ids(o) {
                    out.push(self.triple_of(s, p, o));
                }
            }
            (None, None, None) => {
                for (s, p, o) in self.iter_ids() {
                    out.push(self.triple_of(s, p, o));
                }
            }
        }
        out
    }

    /// All nodes of the graph (subjects and objects of triples), i.e. the
    /// paper's `N(G)`, as ids.
    pub fn node_ids(&self) -> BTreeSet<TermId> {
        let mut nodes = BTreeSet::new();
        for (s, _p, o) in self.iter_ids() {
            nodes.insert(s);
            nodes.insert(o);
        }
        nodes
    }

    /// All nodes of the graph as terms.
    pub fn nodes(&self) -> Vec<&Term> {
        self.node_ids()
            .into_iter()
            .map(|id| self.term(id))
            .collect()
    }

    /// All distinct predicates.
    pub fn predicates(&self) -> Vec<&Iri> {
        let mut ids: Vec<_> = self.pso.keys().copied().collect();
        ids.sort_unstable();
        ids.iter()
            .filter_map(|p| match self.term(*p) {
                Term::Iri(iri) => Some(iri),
                _ => None,
            })
            .collect()
    }

    /// Distinct outgoing predicates of a subject, as ids.
    pub fn predicates_out_ids(&self, s: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.spo.get(&s).into_iter().flat_map(|m| m.keys().copied())
    }

    /// True iff `other` contains every triple of `self`.
    pub fn is_subgraph_of(&self, other: &Graph) -> bool {
        self.iter().all(|t| other.contains(&t))
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.is_subgraph_of(other)
    }
}

impl Eq for Graph {}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Graph({} triples) {{", self.len)?;
        let mut triples: Vec<_> = self.iter().collect();
        triples.sort();
        for t in triples {
            writeln!(f, "  {t}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Triple> for Graph {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        Graph::from_triples(iter)
    }
}

impl Extend<Triple> for Graph {
    fn extend<I: IntoIterator<Item = Triple>>(&mut self, iter: I) {
        for t in iter {
            self.insert(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Iri, Term, Triple};

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Iri::new(p), Term::iri(o))
    }

    #[test]
    fn insert_is_set_semantics() {
        let mut g = Graph::new();
        assert!(g.insert(t("a", "p", "b")));
        assert!(!g.insert(t("a", "p", "b")));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn remove_updates_all_indexes() {
        let mut g = Graph::from_triples([t("a", "p", "b"), t("a", "p", "c")]);
        assert!(g.remove(&t("a", "p", "b")));
        assert!(!g.remove(&t("a", "p", "b")));
        assert_eq!(g.len(), 1);
        assert!(!g.contains(&t("a", "p", "b")));
        assert_eq!(g.objects_for(&Term::iri("a"), &Iri::new("p")).len(), 1);
        assert_eq!(g.subjects_for(&Term::iri("b"), &Iri::new("p")).len(), 0);
        assert_eq!(
            g.triples_matching(None, Some(&Iri::new("p")), None).len(),
            1
        );
    }

    #[test]
    fn forward_and_backward_lookup() {
        let g = Graph::from_triples([t("a", "p", "b"), t("a", "p", "c"), t("d", "p", "b")]);
        assert_eq!(g.objects_for(&Term::iri("a"), &Iri::new("p")).len(), 2);
        assert_eq!(g.subjects_for(&Term::iri("b"), &Iri::new("p")).len(), 2);
        assert!(g.objects_for(&Term::iri("zzz"), &Iri::new("p")).is_empty());
    }

    #[test]
    fn triples_matching_all_patterns() {
        let g = Graph::from_triples([t("a", "p", "b"), t("a", "q", "c"), t("b", "p", "c")]);
        assert_eq!(g.triples_matching(None, None, None).len(), 3);
        assert_eq!(
            g.triples_matching(Some(&Term::iri("a")), None, None).len(),
            2
        );
        assert_eq!(
            g.triples_matching(None, Some(&Iri::new("p")), None).len(),
            2
        );
        assert_eq!(
            g.triples_matching(None, None, Some(&Term::iri("c"))).len(),
            2
        );
        assert_eq!(
            g.triples_matching(Some(&Term::iri("a")), Some(&Iri::new("p")), None)
                .len(),
            1
        );
        assert_eq!(
            g.triples_matching(
                Some(&Term::iri("a")),
                Some(&Iri::new("p")),
                Some(&Term::iri("b"))
            )
            .len(),
            1
        );
        assert!(g
            .triples_matching(Some(&Term::iri("nope")), None, None)
            .is_empty());
    }

    #[test]
    fn nodes_and_predicates() {
        let g = Graph::from_triples([t("a", "p", "b"), t("b", "q", "a")]);
        assert_eq!(g.nodes().len(), 2);
        assert_eq!(g.predicates().len(), 2);
    }

    #[test]
    fn graph_equality_is_set_equality() {
        let g1 = Graph::from_triples([t("a", "p", "b"), t("b", "p", "c")]);
        let g2 = Graph::from_triples([t("b", "p", "c"), t("a", "p", "b")]);
        assert_eq!(g1, g2);
        let g3 = Graph::from_triples([t("a", "p", "b")]);
        assert_ne!(g1, g3);
        assert!(g3.is_subgraph_of(&g1));
        assert!(!g1.is_subgraph_of(&g3));
    }

    #[test]
    fn literals_as_objects() {
        use crate::term::Literal;
        let mut g = Graph::new();
        g.insert(Triple::new(
            Term::iri("a"),
            Iri::new("p"),
            Term::Literal(Literal::integer(5)),
        ));
        assert_eq!(g.len(), 1);
        let objs = g.objects_for(&Term::iri("a"), &Iri::new("p"));
        assert!(objs[0].is_literal());
    }

    #[test]
    fn interner_shares_one_allocation_per_term() {
        let mut i = Interner::default();
        let id = i.intern(&Term::iri("shared"));
        assert_eq!(i.intern(&Term::iri("shared")), id);
        // The `terms` slot and the `lookup` key are the same allocation.
        assert_eq!(Arc::strong_count(&i.terms[id.0 as usize]), 2);
        assert_eq!(i.resolve(id), &Term::iri("shared"));
    }

    #[test]
    fn intern_unknown_focus_node() {
        let mut g = Graph::new();
        let id = g.intern(&Term::iri("lonely"));
        assert_eq!(g.term(id), &Term::iri("lonely"));
        assert_eq!(g.len(), 0);
    }
}
