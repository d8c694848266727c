//! The mutable RDF graph: a builder over one sorted id-triple set.
//!
//! A [`Graph`] is a finite set of triples with set semantics. Terms are
//! interned into dense [`TermId`]s and the triples are kept as one ordered
//! set of id triples, ascending by (subject, predicate, object), so
//! insertion, removal, membership and iteration order are all plain set
//! operations.
//!
//! Adjacency reads (`objects_ids`, `subjects_ids`, edge scans, the closed
//! check) go through [`GraphAccess`] and are answered by a
//! [`FrozenGraph`] CSR snapshot built on the first such read and dropped by
//! every mutation, so the mutable graph reads through the same code as the
//! frozen loaders' output. Writers that only walk the triples in order
//! (N-Triples, Turtle) never build the snapshot.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};
use std::sync::{Arc, OnceLock};

use crate::access::GraphAccess;
use crate::frozen::FrozenGraph;
use crate::term::{Iri, Term, TermKey, Triple};

/// A minimal FxHash-style hasher for id-keyed maps and sets: ids are dense
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

/// The term table behind every id space: `terms[id]` is the term, and
/// `slots` is an open-addressing table (linear probing, at most half
/// full) from each term's hash to its id. A lookup hashes the key once —
/// by `&Term`, or by the [`TermKey`] strings a parser lexed — and compares
/// keys only on a tag match, so a hit builds nothing; a miss stores the
/// term in the empty slot the probe ended on, without hashing again.
/// Growing re-places the slots by their stored hashes, never by the terms.
///
/// The hash is std's keyed `RandomState`: the parsers intern untrusted
/// documents (posted `/validate` and `/update` bodies), and an unkeyed
/// hash would let one craft colliding IRIs that turn every insert into a
/// scan. A clone keeps the keys, so its slots stay valid.
#[derive(Debug, Default, Clone)]
pub(crate) struct Interner {
    terms: Vec<Term>,
    /// `hash << 32 | (id + 1)` per slot, with the low 32 bits of the
    /// term's hash; `0` marks an empty slot. The length is zero, or a
    /// power of two of at least 16 and at least twice the term count.
    slots: Vec<u64>,
    hasher: RandomState,
}

impl Interner {
    /// An interner pre-sized for about `terms` distinct terms.
    pub(crate) fn with_capacity(terms: usize) -> Self {
        Interner {
            terms: Vec::with_capacity(terms),
            slots: vec![0; (2 * terms).next_power_of_two().max(16)],
            hasher: RandomState::new(),
        }
    }

    pub(crate) fn intern(&mut self, term: &Term) -> TermId {
        self.intern_with(term.key(), || term.clone())
    }

    /// Interns the term `key` spells, building it only on a miss.
    pub(crate) fn intern_key(&mut self, key: TermKey<'_>) -> TermId {
        self.intern_with(key, || key.to_term())
    }

    fn intern_with(&mut self, key: TermKey<'_>, make: impl FnOnce() -> Term) -> TermId {
        if 2 * self.terms.len() >= self.slots.len() {
            self.grow();
        }
        let hash = self.hash(key);
        match self.probe(hash, key) {
            Ok(id) => id,
            Err(slot) => {
                let id = TermId(self.terms.len() as u32);
                self.terms.push(make());
                self.slots[slot] = u64::from(hash) << 32 | (u64::from(id.0) + 1);
                id
            }
        }
    }

    fn hash(&self, key: TermKey<'_>) -> u32 {
        self.hasher.hash_one(key) as u32
    }

    /// The id of `key`, or the empty slot its probe ended on. `slots` must
    /// hold an empty slot.
    fn probe(&self, hash: u32, key: TermKey<'_>) -> Result<TermId, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return Err(i);
            }
            let id = (slot as u32).wrapping_sub(1);
            if (slot >> 32) as u32 == hash && self.terms[id as usize].key() == key {
                return Ok(TermId(id));
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the slot table (at least 16 slots), re-placing each id by
    /// its stored hash.
    fn grow(&mut self) {
        let mut slots = vec![0u64; (2 * self.slots.len()).max(16)];
        let mask = slots.len() - 1;
        for &slot in self.slots.iter().filter(|&&s| s != 0) {
            let mut i = (slot >> 32) as usize & mask;
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = slot;
        }
        self.slots = slots;
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
            self.intern_key(TermKey::Iri(p.as_str())),
            self.intern(o),
        )
    }

    pub(crate) fn get(&self, term: &Term) -> Option<TermId> {
        self.get_key(term.key())
    }

    pub(crate) fn get_key(&self, key: TermKey<'_>) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(self.hash(key), key).ok()
    }

    /// The ids of a triple's terms, if all three are interned.
    pub(crate) fn triple_ids(&self, t: &Triple) -> Option<(TermId, TermId, TermId)> {
        Some((
            self.get(&t.subject)?,
            self.get_key(TermKey::Iri(t.predicate.as_str()))?,
            self.get(&t.object)?,
        ))
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
pub(crate) struct TripleLog {
    terms: Interner,
    triples: Vec<(TermId, TermId, TermId)>,
    /// The previous triple's subject id: documents list a subject's
    /// triples together (on the benchmark inputs, 82% of cli-tyrolean's
    /// and 68% of cli-dblp's triples repeat the previous subject), and
    /// comparing the strings beats hashing them.
    last_subject: Option<TermId>,
    /// `id + 1` of recently pushed terms (`0`: empty), direct-mapped by
    /// [`digest`]: predicates, datatypes and popular objects recur, and a
    /// verified hit skips the keyed hash. A digest collision only costs
    /// a miss, so the unkeyed digest opens no collision attack.
    recent: Box<[u32; RECENT]>,
}

/// Entries of [`TripleLog::recent`].
const RECENT: usize = 256;

/// A cheap unkeyed digest of a term's text: its length and last eight
/// bytes, mixed. Only selects a [`TripleLog::recent`] entry.
fn digest(key: TermKey<'_>) -> usize {
    let text = |s: &str| {
        let b = s.as_bytes();
        let tail = match b.len().checked_sub(8) {
            Some(at) => u64::from_le_bytes(b[at..].try_into().expect("eight bytes")),
            None => b.iter().fold(0, |h, &x| h << 8 | u64::from(x)),
        };
        tail ^ b.len() as u64
    };
    let h = match key {
        TermKey::Iri(s) => text(s),
        TermKey::Blank(s) => !text(s),
        TermKey::Literal {
            lexical, datatype, ..
        } => text(lexical) ^ (datatype.len() as u64).rotate_left(32),
    };
    (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize % RECENT
}

impl TripleLog {
    /// A log pre-sized for about `triples` statements.
    pub(crate) fn with_capacity(triples: usize) -> Self {
        TripleLog {
            terms: Interner::with_capacity(triples),
            triples: Vec::with_capacity(triples),
            last_subject: None,
            recent: Box::new([0; RECENT]),
        }
    }

    /// Appends one triple, given as borrowed terms, and returns its ids;
    /// `s` is never a literal.
    pub(crate) fn push(
        &mut self,
        s: TermKey<'_>,
        p: &str,
        o: TermKey<'_>,
    ) -> (TermId, TermId, TermId) {
        debug_assert!(!matches!(s, TermKey::Literal { .. }));
        let s = match self.last_subject {
            Some(id) if self.terms.resolve(id).key() == s => id,
            _ => {
                let id = self.intern(s);
                *self.last_subject.insert(id)
            }
        };
        let p = self.intern(TermKey::Iri(p));
        let o = self.intern(o);
        self.triples.push((s, p, o));
        (s, p, o)
    }

    /// Interns `key`, trying its [`TripleLog::recent`] entry first.
    fn intern(&mut self, key: TermKey<'_>) -> TermId {
        let slot = digest(key);
        if let Some(id) = self.recent[slot].checked_sub(1).map(TermId) {
            if self.terms.resolve(id).key() == key {
                return id;
            }
        }
        let id = self.terms.intern_key(key);
        self.recent[slot] = id.0 + 1;
        id
    }

    /// Number of triples pushed, duplicates included.
    pub(crate) fn len(&self) -> usize {
        self.triples.len()
    }

    /// Finishes the log into a mutable [`Graph`].
    pub(crate) fn into_graph(self) -> Graph {
        Graph {
            terms: Arc::new(self.terms),
            triples: self.triples.into_iter().collect(),
            snapshot: OnceLock::new(),
        }
    }

    /// Finishes the log into a CSR snapshot without building a [`Graph`].
    pub(crate) fn into_frozen(self) -> FrozenGraph {
        FrozenGraph::from_log(self.terms, self.triples)
    }
}

/// An in-memory RDF graph (a finite set of triples) with set semantics;
/// see the module docs for how reads are served.
#[derive(Default)]
pub struct Graph {
    /// Shared with the snapshot and with clones; a mutation that interns
    /// copies it only while one of those still holds it.
    pub(crate) terms: Arc<Interner>,
    /// The triples as ids, ascending by (s, p, o).
    triples: BTreeSet<(TermId, TermId, TermId)>,
    /// The CSR snapshot behind the adjacency reads: built on the first one,
    /// dropped by every `&mut self` method, not copied by `clone`.
    snapshot: OnceLock<FrozenGraph>,
}

impl Clone for Graph {
    fn clone(&self) -> Self {
        Graph {
            terms: self.terms.clone(),
            triples: self.triples.clone(),
            snapshot: OnceLock::new(),
        }
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Builds a graph from an iterator of triples.
    pub fn from_triples(triples: impl IntoIterator<Item = Triple>) -> Self {
        let mut g = Graph::new();
        for t in triples {
            g.insert(t);
        }
        g
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True iff the graph has no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Inserts a triple; returns `true` if it was not already present.
    pub fn insert(&mut self, triple: Triple) -> bool {
        self.snapshot.take();
        let ids = Arc::make_mut(&mut self.terms).intern_triple(
            &triple.subject,
            &triple.predicate,
            &triple.object,
        );
        self.triples.insert(ids)
    }

    /// Removes a triple; returns `true` if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        self.snapshot.take();
        self.terms
            .triple_ids(triple)
            .is_some_and(|ids| self.triples.remove(&ids))
    }

    /// True iff the triple is in the graph.
    pub fn contains(&self, triple: &Triple) -> bool {
        self.terms
            .triple_ids(triple)
            .is_some_and(|ids| self.triples.contains(&ids))
    }

    /// Extends the graph with all triples of `other`.
    ///
    /// Each distinct term of `other` is resolved against this graph's
    /// interner exactly once (via an id→id translation table) instead of
    /// re-interning a cloned [`Term`] per triple occurrence.
    pub fn extend(&mut self, other: &Graph) {
        self.snapshot.take();
        let mut map: Vec<Option<TermId>> = vec![None; other.terms.len()];
        for &(s, p, o) in &other.triples {
            let s = self.translate_id(other, &mut map, s);
            let p = self.translate_id(other, &mut map, p);
            let o = self.translate_id(other, &mut map, o);
            self.triples.insert((s, p, o));
        }
    }

    /// Resolves `other`'s id into this graph's id space, caching the answer
    /// in `map` so each distinct term is interned at most once.
    fn translate_id(&mut self, other: &Graph, map: &mut [Option<TermId>], id: TermId) -> TermId {
        if let Some(mapped) = map[id.0 as usize] {
            return mapped;
        }
        let mapped = Arc::make_mut(&mut self.terms).intern(other.term(id));
        map[id.0 as usize] = Some(mapped);
        mapped
    }

    /// The id of a term, if it has been interned (i.e. appears in some
    /// triple or was interned explicitly).
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        self.terms.get(term)
    }

    /// Interns a term without adding any triple (useful for focus nodes not
    /// yet mentioned in the graph).
    pub fn intern(&mut self, term: &Term) -> TermId {
        self.snapshot.take();
        Arc::make_mut(&mut self.terms).intern(term)
    }

    /// Resolves an id back to its term.
    pub fn term(&self, id: TermId) -> &Term {
        self.terms.resolve(id)
    }

    /// Iterates all triples, ascending by (s, p, o) id.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        GraphAccess::iter(self)
    }

    /// Iterates all triples as id tuples, ascending by (s, p, o).
    pub fn iter_ids(&self) -> impl Iterator<Item = (TermId, TermId, TermId)> + '_ {
        self.triples.iter().copied()
    }

    /// The CSR snapshot serving the adjacency reads, built on first use.
    fn snapshot(&self) -> &FrozenGraph {
        self.snapshot.get_or_init(|| self.freeze())
    }

    /// True iff `other` contains every triple of `self`.
    pub fn is_subgraph_of(&self, other: &Graph) -> bool {
        self.iter().all(|t| other.contains(&t))
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.is_subgraph_of(other)
    }
}

impl Eq for Graph {}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Graph({} triples) {{", self.len())?;
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

/// Counts, terms, membership and iteration come from the builder; the six
/// adjacency accessors and `node_ids` from the snapshot.
impl GraphAccess for Graph {
    fn len(&self) -> usize {
        Graph::len(self)
    }

    fn term_count(&self) -> usize {
        self.terms.len()
    }

    fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.triples.contains(&(s, p, o))
    }

    fn objects_ids(&self, s: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.snapshot().objects_ids(s, p)
    }

    fn subjects_ids(&self, o: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.snapshot().subjects_ids(o, p)
    }

    fn out_edges_ids(&self, s: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        self.snapshot().out_edges_ids(s)
    }

    fn in_edges_ids(&self, o: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        self.snapshot().in_edges_ids(o)
    }

    fn edges_with_predicate_ids(&self, p: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        self.snapshot().edges_with_predicate_ids(p)
    }

    fn predicates_out_ids(&self, s: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.snapshot().predicates_out_ids(s)
    }

    fn iter_ids(&self) -> impl Iterator<Item = (TermId, TermId, TermId)> + '_ {
        Graph::iter_ids(self)
    }

    fn node_ids(&self) -> BTreeSet<TermId> {
        self.snapshot().node_ids()
    }

    fn term(&self, id: TermId) -> &Term {
        Graph::term(self, id)
    }

    fn id_of(&self, term: &Term) -> Option<TermId> {
        Graph::id_of(self, term)
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
    fn interner_hit_builds_no_term() {
        let mut i = Interner::default();
        let id = i.intern(&Term::iri("shared"));
        let built = std::cell::Cell::new(0);
        let key = TermKey::Iri("shared");
        let hit = i.intern_with(key, || {
            built.set(built.get() + 1);
            key.to_term()
        });
        assert_eq!((hit, built.get(), i.len()), (id, 0, 1));
        let miss = i.intern_with(TermKey::Iri("other"), || {
            built.set(built.get() + 1);
            Term::iri("other")
        });
        assert_eq!((miss, built.get(), i.len()), (TermId(1), 1, 2));
        assert_eq!(i.resolve(id), &Term::iri("shared"));
    }

    #[test]
    fn interner_ids_are_stable_across_intern_intern_key_and_get() {
        let mut i = Interner::with_capacity(1);
        let lit = Term::Literal(crate::term::Literal::lang_string("chat", "FR"));
        let id = i.intern(&lit);
        let key = TermKey::Literal {
            lexical: "chat",
            language: Some("fr"),
            datatype: crate::vocab::rdf::LANG_STRING,
        };
        assert_eq!(i.intern_key(key), id);
        let iri = i.intern_key(TermKey::Iri("http://e/a"));
        assert_eq!(i.get(&Term::iri("http://e/a")), Some(iri));
        assert_eq!(i.get(&Term::blank("http://e/a")), None);
        // Enough terms to grow the slot table several times: every id
        // still resolves, and is found again, by either lookup.
        let ids: Vec<TermId> = (0..1000)
            .map(|k| i.intern_key(TermKey::Blank(&format!("b{k}"))))
            .collect();
        let copy = i.clone();
        for (k, &b) in ids.iter().enumerate() {
            let term = Term::blank(format!("b{k}"));
            assert_eq!(i.resolve(b), &term);
            assert_eq!(i.intern(&term), b);
            assert_eq!(copy.get(&term), Some(b));
        }
        assert_eq!((i.intern(&lit), i.get(&lit)), (id, Some(id)));
        assert_eq!(i.len(), 1002);
    }

    #[test]
    fn log_reuses_a_repeated_subject_id() {
        // Subject reuse must not change the ids interning subject,
        // predicate, object in order hands out.
        let mut log = TripleLog::with_capacity(0);
        let (a, b) = (TermKey::Iri("a"), TermKey::Blank("b"));
        log.push(a, "p", b);
        log.push(a, "p", a);
        log.push(b, "q", a);
        let ids: Vec<_> = log
            .triples
            .iter()
            .map(|&(s, p, o)| [s.0, p.0, o.0])
            .collect();
        assert_eq!(ids, [[0, 1, 2], [0, 1, 0], [2, 3, 0]]);
    }

    #[test]
    fn every_mutation_drops_the_snapshot() {
        let (a, p) = (Term::iri("a"), Iri::new("p"));
        let objects =
            |g: &Graph| -> Vec<Term> { g.objects_for(&a, &p).into_iter().cloned().collect() };
        let mut g = Graph::from_triples([t("a", "p", "b")]);
        assert_eq!(objects(&g), [Term::iri("b")]);
        g.insert(t("a", "p", "c"));
        assert_eq!(objects(&g), [Term::iri("b"), Term::iri("c")]);
        g.remove(&t("a", "p", "b"));
        assert_eq!(objects(&g), [Term::iri("c")]);
        let lonely = g.intern(&Term::iri("lonely"));
        assert_eq!(g.snapshot().term_count(), g.term_count());
        assert_eq!(g.out_edges_ids(lonely).count(), 0);
        g.extend(&Graph::from_triples([t("a", "p", "d")]));
        assert_eq!(objects(&g), [Term::iri("c"), Term::iri("d")]);
    }

    #[test]
    fn clones_do_not_share_the_snapshot() {
        let (a, p) = (Term::iri("a"), Iri::new("p"));
        let g = Graph::from_triples([t("a", "p", "b")]);
        assert_eq!(g.objects_for(&a, &p).len(), 1);
        let mut copy = g.clone();
        assert!(copy.snapshot.get().is_none());
        assert_eq!(copy.objects_for(&a, &p).len(), 1);
        copy.insert(t("a", "p", "c"));
        assert_eq!(copy.objects_for(&a, &p).len(), 2);
        assert_eq!(g.objects_for(&a, &p).len(), 1);
        assert_eq!(g.node_ids().len(), 2);
    }

    #[test]
    fn freeze_shares_the_interner_until_the_graph_interns_again() {
        let mut g = Graph::from_triples([t("a", "p", "b")]);
        let frozen = g.freeze();
        assert!(Arc::ptr_eq(frozen.interner(), &g.terms));
        // Interning copies the shared interner: the snapshot keeps its
        // id space, and the graph's ids stay as they were.
        g.insert(t("a", "p", "c"));
        assert!(!Arc::ptr_eq(frozen.interner(), &g.terms));
        assert_eq!(frozen.term_count(), 3);
        assert_eq!(g.term_count(), 4);
        assert_eq!(frozen.id_of(&Term::iri("c")), None);
        assert_eq!(g.id_of(&Term::iri("b")), frozen.id_of(&Term::iri("b")));
        // With no snapshot left holding it, interning copies nothing.
        drop(frozen);
        let terms = Arc::as_ptr(&g.terms);
        g.insert(t("d", "p", "e"));
        assert_eq!(Arc::as_ptr(&g.terms), terms);
    }

    #[test]
    fn serializing_never_builds_the_snapshot() {
        let g = Graph::from_triples([t("a", "p", "b"), t("b", "q", "c")]);
        assert!(!crate::ntriples::serialize(&g).is_empty());
        assert!(!crate::turtle::serialize(&g, &[]).is_empty());
        assert!(g.snapshot.get().is_none());
    }

    #[test]
    fn intern_unknown_focus_node() {
        let mut g = Graph::new();
        let id = g.intern(&Term::iri("lonely"));
        assert_eq!(g.term(id), &Term::iri("lonely"));
        assert_eq!(g.len(), 0);
    }
}
