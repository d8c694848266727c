//! Backend abstraction over graph read paths.
//!
//! All read-only kernels (path evaluation, validation, neighborhood
//! collection, SPARQL) are generic over [`GraphAccess`], so they run
//! unchanged over the mutable [`Graph`](crate::Graph) builder and the
//! immutable [`FrozenGraph`](crate::FrozenGraph) (contiguous CSR arrays).
//! `Graph` answers its adjacency reads from a `FrozenGraph` snapshot, so
//! product reads go through one adjacency implementation, the CSR: the
//! CLI and the server read frozen graphs, and the incremental engine
//! folds each edit batch into a new one before reading it. The
//! [`DeltaGraph`](crate::DeltaGraph) edit buffer also implements the
//! trait, as a merge over its base; only the agreement suites and the
//! benchmark's traced mirror read through it.
//!
//! Implementations must agree exactly — same triples, same ids, same
//! deterministic iteration order (ascending by id at every level). The
//! property suite `tests/prop_frozen_agreement.rs` checks every accessor
//! of every backend against a linear scan of the sorted triple list.

use std::collections::BTreeSet;

use crate::graph::TermId;
use crate::term::{Iri, Term, Triple};

/// Read-only access to an id-interned RDF graph.
///
/// The `Sync` supertrait lets one backend be shared across threads, as
/// the server's connection threads share one snapshot.
pub trait GraphAccess: Sync {
    /// Number of triples.
    fn len(&self) -> usize;

    /// True iff the graph has no triples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of interned terms: every valid [`TermId`] is `< term_count`,
    /// so dense per-term scratch (bitset frontiers, visited sets) can be
    /// pre-sized once per backend.
    fn term_count(&self) -> usize;

    /// True iff the id-level triple is in the graph.
    fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool;

    /// Objects of `(s, p, ?)` as ids, ascending.
    fn objects_ids(&self, s: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_;

    /// Subjects of `(?, p, o)` as ids, ascending.
    fn subjects_ids(&self, o: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_;

    /// Outgoing `(predicate, object)` id pairs of a subject, ascending.
    fn out_edges_ids(&self, s: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_;

    /// Incoming `(predicate, subject)` id pairs of an object, ascending.
    fn in_edges_ids(&self, o: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_;

    /// All `(s, o)` id pairs with predicate `p`, ascending.
    fn edges_with_predicate_ids(&self, p: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_;

    /// Distinct outgoing predicates of a subject, ascending.
    fn predicates_out_ids(&self, s: TermId) -> impl Iterator<Item = TermId> + '_;

    /// All triples as id tuples, ascending by (s, p, o).
    fn iter_ids(&self) -> impl Iterator<Item = (TermId, TermId, TermId)> + '_;

    /// All nodes (subjects and objects) — the paper's `N(G)` — as ids.
    fn node_ids(&self) -> BTreeSet<TermId>;

    /// Resolves an id back to its term.
    fn term(&self, id: TermId) -> &Term;

    /// The id of a term, if interned.
    fn id_of(&self, term: &Term) -> Option<TermId>;

    /// The id of an IRI used as a predicate or node.
    fn id_of_iri(&self, iri: &Iri) -> Option<TermId> {
        self.id_of(&Term::Iri(iri.clone()))
    }

    /// Materializes an id triple into a [`Triple`].
    fn triple_of(&self, s: TermId, p: TermId, o: TermId) -> Triple {
        let Term::Iri(pred) = self.term(p).clone() else {
            unreachable!("predicate ids always resolve to IRIs");
        };
        Triple {
            subject: self.term(s).clone(),
            predicate: pred,
            object: self.term(o).clone(),
        }
    }

    /// Iterates all triples, ascending by (s, p, o) id.
    fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.iter_ids()
            .map(move |(s, p, o)| self.triple_of(s, p, o))
    }

    /// Objects of `(s, p, ?)` as terms; empty if `s` or `p` unknown.
    fn objects_for<'a>(&'a self, s: &Term, p: &Iri) -> Vec<&'a Term> {
        match (self.id_of(s), self.id_of_iri(p)) {
            (Some(s), Some(p)) => self.objects_ids(s, p).map(|o| self.term(o)).collect(),
            _ => Vec::new(),
        }
    }

    /// Subjects of `(?, p, o)` as terms; empty if `o` or `p` unknown.
    fn subjects_for<'a>(&'a self, o: &Term, p: &Iri) -> Vec<&'a Term> {
        match (self.id_of(o), self.id_of_iri(p)) {
            (Some(o), Some(p)) => self.subjects_ids(o, p).map(|s| self.term(s)).collect(),
            _ => Vec::new(),
        }
    }

    /// All nodes of the graph as terms, ascending by id.
    fn nodes(&self) -> Vec<&Term> {
        self.node_ids()
            .into_iter()
            .map(|id| self.term(id))
            .collect()
    }

    /// All distinct predicates, ascending by id.
    fn predicates(&self) -> Vec<&Iri> {
        let ids: BTreeSet<TermId> = self.iter_ids().map(|(_, p, _)| p).collect();
        ids.into_iter()
            .filter_map(|p| match self.term(p) {
                Term::Iri(iri) => Some(iri),
                _ => None,
            })
            .collect()
    }

    /// Triples matching an optional pattern on each position.
    fn triples_matching(&self, s: Option<&Term>, p: Option<&Iri>, o: Option<&Term>) -> Vec<Triple> {
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
}
