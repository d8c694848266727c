//! Containment analysis over the NNF shape algebra.
//!
//! A *sound but incomplete* subsumption judgment `φ ⊑ ψ`: whenever
//! [`subsumes`] returns `true`, every node conformant to `φ` is conformant
//! to `ψ` on every graph (and contrapositively, every node non-conformant
//! to `ψ` is non-conformant to `φ`). `false` means the judgment could not
//! be *derived* — it never refutes containment. The rule system (DESIGN.md
//! §15) is syntax-directed over [`Nnf`]:
//!
//! - **Boolean structure** — `∨`-elimination and `∧`-introduction first
//!   (they lose nothing), then `∧`-weakening and `∨`-introduction.
//! - **Quantifiers** — `≥n E.α ⊑ ≥m F.β` when `n ≥ m`, `L(E) ⊆ L(F)` and
//!   `α ⊑ β`; `≤n E.α ⊑ ≤m F.β` when `n ≤ m`, `L(F) ⊆ L(E)` and `β ⊑ α`
//!   (anti-monotone body); `∀E.α ⊑ ∀F.β` when `L(F) ⊆ L(E)` and `α ⊑ β`.
//!   Path-language inclusion is decided by
//!   [`Nfa::language_included_in`](shapefrag_shacl::rpq::Nfa), a product /
//!   subset-construction check on the compiled path automata.
//! - **Node tests** — interval inclusion on value ranges and lengths, node
//!   kind category subsets, `test ⊑ ¬test'` through
//!   [`tests_conflict`](crate::fold::tests_conflict), and constant
//!   propagation through `hasValue`.
//! - **References** — `hasShape(a) ⊑ hasShape(b)` coinductively: the pair
//!   is assumed while the dereferenced bodies are compared, so mutually
//!   recursive definitions are handled without divergence.
//!   `¬hasShape(a) ⊑ ¬hasShape(b)` is the contravariant instance.
//!   Asymmetric occurrences unfold one definition (guarded, so cyclic
//!   schemas cannot loop).
//!
//! The per-schema [`ContainmentMatrix`] folds the judgment with the
//! `{Valid, Unsat, Unknown}` status lattice (`Unsat ⊑ anything`,
//! `anything ⊑ Valid`). It is schema-time analysis: `shapefrag analyze
//! --containment` reports its SF-W030/W031 findings, and no validation,
//! fragment or incremental path builds it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use shapefrag_rdf::Term;
use shapefrag_shacl::node_test::{NodeKind, NodeTest};
use shapefrag_shacl::rpq::Nfa;
use shapefrag_shacl::validator::{schema_fingerprint, ContainmentIndex};
use shapefrag_shacl::{Nnf, PathExpr, Schema, ShapeDef};

use crate::diagnostic::{codes, Diagnostic, Severity};
use crate::fold::{self, Status};
use crate::refgraph;

/// Total rule applications allowed per top-level query; exhaustion means
/// "could not derive" (sound). Generously above anything a real schema
/// needs — the 57-shape suite's deepest query uses well under 100.
const FUEL: u32 = 50_000;

/// One sound subsumption query: `true` ⇒ `φ ⊑ ψ` over the definitions in
/// `defs` (used to dereference `hasShape` atoms; absent names default to
/// `⊤`, matching [`Schema::def`]).
pub fn subsumes(defs: &[ShapeDef], phi: &Nnf, psi: &Nnf) -> bool {
    Checker::new(defs).query(phi, psi)
}

/// The syntax-directed derivation engine. One instance amortizes the
/// lazily converted definition NNFs and the path-inclusion cache across
/// many queries (the matrix runs `n²` of them).
struct Checker<'a> {
    env: BTreeMap<&'a Term, &'a ShapeDef>,
    /// Lazily built NNF of each definition body (positive polarity).
    pos: BTreeMap<Term, Rc<Nnf>>,
    /// Lazily built NNF of each *negated* definition body.
    neg: BTreeMap<Term, Rc<Nnf>>,
    /// Name pairs `(a, b)` with `def(a) ⊑ def(b)` already established at
    /// top level (matrix edges proven earlier); usable as facts.
    facts: BTreeSet<(Term, Term)>,
    /// Coinductive hypothesis set for the current query.
    assumed: BTreeSet<(Term, Term)>,
    /// Names currently being unfolded asymmetrically (cycle guard), split
    /// by which side of the judgment the unfolding happened on.
    unfolding: BTreeSet<(Term, bool)>,
    /// Path-language inclusion cache: `(E, F) → L(E) ⊆ L(F)`.
    paths: BTreeMap<(PathExpr, PathExpr), bool>,
    fuel: u32,
}

impl<'a> Checker<'a> {
    fn new(defs: &'a [ShapeDef]) -> Checker<'a> {
        Checker {
            env: defs.iter().map(|d| (&d.name, d)).collect(),
            pos: BTreeMap::new(),
            neg: BTreeMap::new(),
            facts: BTreeSet::new(),
            assumed: BTreeSet::new(),
            unfolding: BTreeSet::new(),
            paths: BTreeMap::new(),
            fuel: 0,
        }
    }

    /// Runs one top-level query with fresh fuel and hypothesis state.
    fn query(&mut self, phi: &Nnf, psi: &Nnf) -> bool {
        self.fuel = FUEL;
        self.assumed.clear();
        self.unfolding.clear();
        self.sub(phi, psi)
    }

    /// NNF of `def(name)` (or `⊤` when undefined, like [`Schema::def`]).
    fn pos_nnf(&mut self, name: &Term) -> Rc<Nnf> {
        if let Some(n) = self.pos.get(name) {
            return Rc::clone(n);
        }
        let nnf = Rc::new(match self.env.get(name) {
            Some(def) => Nnf::from_shape(&def.shape),
            None => Nnf::True,
        });
        self.pos.insert(name.clone(), Rc::clone(&nnf));
        nnf
    }

    /// NNF of `¬def(name)`.
    fn neg_nnf(&mut self, name: &Term) -> Rc<Nnf> {
        if let Some(n) = self.neg.get(name) {
            return Rc::clone(n);
        }
        let nnf = Rc::new(match self.env.get(name) {
            Some(def) => Nnf::from_negated_shape(&def.shape),
            None => Nnf::False,
        });
        self.neg.insert(name.clone(), Rc::clone(&nnf));
        nnf
    }

    /// `L(e) ⊆ L(f)`, cached. Syntactic equality short-circuits the
    /// automaton construction.
    fn path_included(&mut self, e: &PathExpr, f: &PathExpr) -> bool {
        if e == f {
            return true;
        }
        let key = (e.clone(), f.clone());
        if let Some(&hit) = self.paths.get(&key) {
            return hit;
        }
        let ok = Nfa::compile(e).language_included_in(&Nfa::compile(f));
        self.paths.insert(key, ok);
        ok
    }

    /// `def(a) ⊑ def(b)` with the coinductive hypothesis rule: the pair is
    /// assumed while the bodies are compared, so a recursive reference back
    /// to `(a, b)` discharges instead of diverging.
    fn name_subsumes(&mut self, a: &Term, b: &Term) -> bool {
        if a == b || self.facts.contains(&(a.clone(), b.clone())) {
            return true;
        }
        let key = (a.clone(), b.clone());
        if self.assumed.contains(&key) {
            return true;
        }
        self.assumed.insert(key.clone());
        let pa = self.pos_nnf(a);
        let pb = self.pos_nnf(b);
        let ok = self.sub(&pa, &pb);
        self.assumed.remove(&key);
        ok
    }

    /// The judgment `φ ⊑ ψ`. Syntax-directed; every `true` is backed by a
    /// sound rule, `false` merely means no rule applied.
    fn sub(&mut self, phi: &Nnf, psi: &Nnf) -> bool {
        if self.fuel == 0 {
            return false;
        }
        self.fuel -= 1;
        // Reflexivity and the lattice bounds.
        if phi == psi || is_bot(phi) || is_top(psi) {
            return true;
        }
        // Complete boolean decompositions: a disjunction is contained iff
        // every disjunct is; a conjunction contains iff every conjunct does.
        if let Nnf::Or(items) = phi {
            return items.iter().all(|t| self.sub(t, psi));
        }
        if let Nnf::And(items) = psi {
            return items.iter().all(|t| self.sub(phi, t));
        }
        // Reference pairs take the coinductive rule before any unfolding.
        match (phi, psi) {
            (Nnf::HasShape(a), Nnf::HasShape(b)) => return self.name_subsumes(a, b),
            (Nnf::NotHasShape(a), Nnf::NotHasShape(b)) => return self.name_subsumes(b, a),
            _ => {}
        }
        // Weakening: one conjunct of φ suffices; one disjunct of ψ suffices.
        if let Nnf::And(items) = phi {
            if items.iter().any(|t| self.sub(t, psi)) {
                return true;
            }
        }
        if let Nnf::Or(items) = psi {
            if items.iter().any(|t| self.sub(phi, t)) {
                return true;
            }
        }
        // Quantifiers, node tests, constants, closedness.
        let direct = match (phi, psi) {
            (Nnf::Geq(n, e, a), Nnf::Geq(m, f, b)) => {
                n >= m && self.path_included(e, f) && self.sub(a, b)
            }
            (Nnf::Leq(n, e, a), Nnf::Leq(m, f, b)) => {
                n <= m && self.path_included(f, e) && self.sub(b, a)
            }
            (Nnf::ForAll(e, a), Nnf::ForAll(f, b)) => self.path_included(f, e) && self.sub(a, b),
            // ≤0 E.⊤ means "no E-successors at all": any ∀ over a
            // sub-language of E is then vacuous.
            (Nnf::Leq(0, e, a), Nnf::ForAll(f, _)) => is_top(a) && self.path_included(f, e),
            (Nnf::Test(a), Nnf::Test(b)) => test_implies(a, b),
            (Nnf::Test(a), Nnf::NotTest(b)) => fold::tests_conflict(a, b),
            (Nnf::NotTest(a), Nnf::NotTest(b)) => test_implies(b, a),
            (Nnf::Test(a), Nnf::NotHasValue(v)) => !a.satisfied_by(v),
            (Nnf::NotTest(a), Nnf::NotHasValue(v)) => a.satisfied_by(v),
            (Nnf::HasValue(v), Nnf::Test(b)) => b.satisfied_by(v),
            (Nnf::HasValue(v), Nnf::NotTest(b)) => !b.satisfied_by(v),
            (Nnf::HasValue(v), Nnf::NotHasValue(w)) => v != w,
            (Nnf::Closed(p), Nnf::Closed(q)) => p.is_subset(q),
            (Nnf::NotClosed(p), Nnf::NotClosed(q)) => q.is_subset(p),
            (Nnf::UniqueLang(e), Nnf::UniqueLang(f)) => self.path_included(f, e),
            (Nnf::NotUniqueLang(e), Nnf::NotUniqueLang(f)) => self.path_included(e, f),
            _ => false,
        };
        if direct {
            return true;
        }
        // Asymmetric reference unfolding, each guarded per (name, side) so
        // cyclic definitions terminate (the guard refuses re-entry).
        if let Nnf::HasShape(a) = phi {
            if self.unfold(a, true, |c| {
                let body = c.pos_nnf(a);
                c.sub(&body, psi)
            }) {
                return true;
            }
        }
        if let Nnf::NotHasShape(a) = phi {
            if self.unfold(a, true, |c| {
                let body = c.neg_nnf(a);
                c.sub(&body, psi)
            }) {
                return true;
            }
        }
        if let Nnf::HasShape(b) = psi {
            if self.unfold(b, false, |c| {
                let body = c.pos_nnf(b);
                c.sub(phi, &body)
            }) {
                return true;
            }
        }
        if let Nnf::NotHasShape(b) = psi {
            if self.unfold(b, false, |c| {
                let body = c.neg_nnf(b);
                c.sub(phi, &body)
            }) {
                return true;
            }
        }
        false
    }

    /// Runs `body` with `(name, left)` marked as unfolding; returns `false`
    /// without recursing when the mark is already set.
    fn unfold(&mut self, name: &Term, left: bool, body: impl FnOnce(&mut Self) -> bool) -> bool {
        let key = (name.clone(), left);
        if !self.unfolding.insert(key.clone()) {
            return false;
        }
        let ok = body(self);
        self.unfolding.remove(&key);
        ok
    }
}

/// Syntactic tautology check: `true` ⇒ every node satisfies the formula.
fn is_top(n: &Nnf) -> bool {
    match n {
        Nnf::True => true,
        Nnf::Geq(0, _, _) => true,
        Nnf::Leq(_, _, inner) => is_bot(inner),
        Nnf::ForAll(_, inner) => is_top(inner),
        Nnf::And(items) => items.iter().all(is_top),
        Nnf::Or(items) => items.iter().any(is_top),
        _ => false,
    }
}

/// Syntactic unsatisfiability check: `true` ⇒ no node satisfies it.
fn is_bot(n: &Nnf) -> bool {
    match n {
        Nnf::False => true,
        Nnf::Geq(k, _, inner) => *k >= 1 && is_bot(inner),
        // The identity pair makes a nullable path's count at least one.
        Nnf::Leq(0, e, inner) => e.is_nullable() && is_top(inner),
        Nnf::And(items) => items.iter().any(is_bot),
        Nnf::Or(items) => items.iter().all(is_bot),
        _ => false,
    }
}

/// Node-kind category bits: IRI / blank / literal.
fn kind_bits(k: NodeKind) -> u8 {
    match k {
        NodeKind::Iri => 0b001,
        NodeKind::BlankNode => 0b010,
        NodeKind::Literal => 0b100,
        NodeKind::BlankNodeOrIri => 0b011,
        NodeKind::BlankNodeOrLiteral => 0b110,
        NodeKind::IriOrLiteral => 0b101,
    }
}

/// Sound implication between node tests: `true` ⇒ every node satisfying
/// `a` satisfies `b`.
pub fn test_implies(a: &NodeTest, b: &NodeTest) -> bool {
    use std::cmp::Ordering::{Greater, Less};
    if a == b {
        return true;
    }
    let cmp = |x: &shapefrag_rdf::Literal, y: &shapefrag_rdf::Literal| {
        x.value().partial_cmp_value(&y.value())
    };
    match (a, b) {
        (NodeTest::Kind(x), NodeTest::Kind(y)) => kind_bits(*x) & !kind_bits(*y) == 0,
        // Tests only literals can pass imply any literal-admitting kind.
        (
            NodeTest::Datatype(_)
            | NodeTest::Language(_)
            | NodeTest::MinExclusive(_)
            | NodeTest::MinInclusive(_)
            | NodeTest::MaxExclusive(_)
            | NodeTest::MaxInclusive(_),
            NodeTest::Kind(y),
        ) => kind_bits(*y) & 0b100 != 0,
        // Length and pattern tests need a string representation, which
        // only IRIs and literals have.
        (
            NodeTest::MinLength(_) | NodeTest::MaxLength(_) | NodeTest::Pattern(_),
            NodeTest::Kind(y),
        ) => kind_bits(*y) & 0b101 == 0b101,
        (NodeTest::Language(_), NodeTest::Datatype(dt)) => {
            *dt == shapefrag_rdf::vocab::rdf::lang_string()
        }
        // Interval inclusion on the value order. Comparability of the two
        // bounds pins both to the same value family, so transitivity holds
        // for any node the stricter bound admits.
        (NodeTest::MinInclusive(x), NodeTest::MinInclusive(y))
        | (NodeTest::MinExclusive(x), NodeTest::MinInclusive(y))
        | (NodeTest::MinExclusive(x), NodeTest::MinExclusive(y)) => {
            cmp(x, y).is_some_and(|o| o != Less)
        }
        (NodeTest::MinInclusive(x), NodeTest::MinExclusive(y)) => cmp(x, y) == Some(Greater),
        (NodeTest::MaxInclusive(x), NodeTest::MaxInclusive(y))
        | (NodeTest::MaxExclusive(x), NodeTest::MaxInclusive(y))
        | (NodeTest::MaxExclusive(x), NodeTest::MaxExclusive(y)) => {
            cmp(x, y).is_some_and(|o| o != Greater)
        }
        (NodeTest::MaxInclusive(x), NodeTest::MaxExclusive(y)) => cmp(x, y) == Some(Less),
        (NodeTest::MinLength(x), NodeTest::MinLength(y)) => x >= y,
        (NodeTest::MaxLength(x), NodeTest::MaxLength(y)) => x <= y,
        _ => false,
    }
}

/// The containment relation of one schema, as a reusable artifact.
///
/// `names` is in sorted (dense-id) order, matching [`Schema::name_id`], so
/// edge endpoints double as the validator's shape ids. An edge `(sub,
/// sup)` asserts `shape(names[sub]) ⊑ shape(names[sup])` — over the
/// definitions' *shape expressions*, which is exactly what the
/// conformance memo caches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainmentMatrix {
    /// Definition names, sorted; index = dense shape id.
    pub names: Vec<Term>,
    /// Folded `{Valid, Unsat, Unknown}` status per definition.
    pub statuses: Vec<Status>,
    /// Proper containment edges `(sub, sup)`, `sub ≠ sup`, sorted.
    pub edges: Vec<(u32, u32)>,
}

impl ContainmentMatrix {
    /// Computes the matrix over raw definitions (cycles tolerated — the
    /// coinductive rule handles them; statuses fall back to `Unknown`).
    pub fn of_defs(defs: &[ShapeDef]) -> ContainmentMatrix {
        let mut names: Vec<Term> = defs.iter().map(|d| d.name.clone()).collect();
        names.sort();
        names.dedup();
        let status_by_name = def_statuses(defs);
        let statuses: Vec<Status> = names
            .iter()
            .map(|n| status_by_name.get(n).copied().unwrap_or(Status::Unknown))
            .collect();
        let by_name: BTreeMap<&Term, &ShapeDef> = defs.iter().map(|d| (&d.name, d)).collect();
        let nnfs: Vec<Nnf> = names
            .iter()
            .map(|n| Nnf::from_shape(&by_name[n].shape))
            .collect();
        let mut checker = Checker::new(defs);
        let mut edges = Vec::new();
        for a in 0..names.len() {
            for b in 0..names.len() {
                if a == b {
                    continue;
                }
                // Status-lattice folding: ⊥ is below everything, ⊤ above.
                let proven = statuses[a] == Status::Unsat
                    || statuses[b] == Status::Valid
                    || checker.query(&nnfs[a], &nnfs[b]);
                if proven {
                    edges.push((a as u32, b as u32));
                    checker.facts.insert((names[a].clone(), names[b].clone()));
                }
            }
        }
        ContainmentMatrix {
            names,
            statuses,
            edges,
        }
    }

    /// Matrix of an already-constructed schema; ids line up with
    /// [`Schema::name_id`].
    pub fn of_schema(schema: &Schema) -> ContainmentMatrix {
        let defs: Vec<ShapeDef> = schema.iter().cloned().collect();
        ContainmentMatrix::of_defs(&defs)
    }

    /// Shape ids properly subsumed by `sid` (edges into `sid`).
    pub fn subs_of(&self, sid: u32) -> impl Iterator<Item = u32> + '_ {
        self.edges
            .iter()
            .filter(move |(_, sup)| *sup == sid)
            .map(|(sub, _)| *sub)
    }

    /// Shape ids properly subsuming `sid` (edges out of `sid`).
    pub fn supers_of(&self, sid: u32) -> impl Iterator<Item = u32> + '_ {
        self.edges
            .iter()
            .filter(move |(sub, _)| *sub == sid)
            .map(|(_, sup)| *sup)
    }

    /// True iff both directions were proven.
    pub fn equivalent(&self, a: u32, b: u32) -> bool {
        self.edges.binary_search(&(a, b)).is_ok() && self.edges.binary_search(&(b, a)).is_ok()
    }

    /// Stable digest of the whole artifact (names, statuses, edges), printed
    /// with the JSON rendering so two runs' matrices compare at a glance.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.names.len().hash(&mut h);
        for n in &self.names {
            n.to_string().hash(&mut h);
        }
        for s in &self.statuses {
            (*s as u8).hash(&mut h);
        }
        self.edges.hash(&mut h);
        h.finish()
    }

    /// Converts to the validator-side index, stamped with the schema
    /// fingerprint so [`ConformanceMemo`] can refuse a mismatched matrix.
    /// No product path calls this; it remains for the benchmark's layer
    /// mirror and the containment soundness suite.
    ///
    /// [`ConformanceMemo`]: shapefrag_shacl::validator::ConformanceMemo
    pub fn to_index(&self, schema: &Schema) -> ContainmentIndex {
        ContainmentIndex::from_edges(self.names.len(), &self.edges, schema_fingerprint(schema))
    }

    /// Human-readable rendering: one `⊑` / `≡` line per relation plus a
    /// summary line (equivalences are printed once, smaller name first).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut equivalences = 0usize;
        let mut proper = 0usize;
        for &(a, b) in &self.edges {
            if self.equivalent(a, b) {
                if a < b {
                    equivalences += 1;
                    out.push_str(&format!(
                        "{} ≡ {}\n",
                        self.names[a as usize], self.names[b as usize]
                    ));
                }
            } else {
                proper += 1;
                out.push_str(&format!(
                    "{} ⊑ {}\n",
                    self.names[a as usize], self.names[b as usize]
                ));
            }
        }
        out.push_str(&format!(
            "{} shape definition(s): {} proper containment(s), {} equivalence(s)\n",
            self.names.len(),
            proper,
            equivalences
        ));
        out
    }

    /// JSON rendering: `names`/`statuses` aligned arrays plus `edges` as
    /// `[sub, sup]` id pairs.
    pub fn to_json(&self) -> String {
        fn esc(out: &mut String, s: &str) {
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
        }
        let mut out = String::from("{\n  \"shapes\": ");
        out.push_str(&self.names.len().to_string());
        out.push_str(",\n  \"containments\": ");
        out.push_str(&self.edges.len().to_string());
        out.push_str(",\n  \"fingerprint\": ");
        out.push_str(&self.fingerprint().to_string());
        out.push_str(",\n  \"names\": [");
        for (i, n) in self.names.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            esc(&mut out, &n.to_string());
            out.push('"');
        }
        out.push_str("],\n  \"statuses\": [");
        for (i, s) in self.statuses.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(match s {
                Status::Valid => "\"valid\"",
                Status::Unsat => "\"unsat\"",
                Status::Unknown => "\"unknown\"",
            });
        }
        out.push_str("],\n  \"edges\": [");
        for (i, (a, b)) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[{a}, {b}]"));
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Per-definition folded statuses, by the same references-first fold as
/// [`analyze_defs`](crate::analyze_defs).
fn def_statuses(defs: &[ShapeDef]) -> BTreeMap<Term, Status> {
    let forms = crate::DefForms::of_defs(defs);
    crate::fold_defs(&forms, refgraph::refs_of(&forms).topo, |_, _, _, _| {})
}

/// Redundant-shape findings derived from a matrix: `SF-W030` for
/// equivalent definition pairs, `SF-W031` for proper containments not
/// already explained by a trivial status (those carry `SF-E001` /
/// `SF-W006` from the fold pass instead).
pub fn containment_diagnostics(matrix: &ContainmentMatrix) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for &(a, b) in &matrix.edges {
        let (sub, sup) = (&matrix.names[a as usize], &matrix.names[b as usize]);
        if matrix.equivalent(a, b) {
            if a < b {
                out.push(Diagnostic::new(
                    codes::EQUIVALENT_SHAPES,
                    Severity::Warn,
                    Some(sup.clone()),
                    format!(
                        "shape expression is equivalent to {sub}: conformance answers \
                         are shared, and one of the two definitions is redundant"
                    ),
                ));
            }
        } else if matrix.statuses[a as usize] != Status::Unsat
            && matrix.statuses[b as usize] != Status::Valid
        {
            out.push(Diagnostic::new(
                codes::SUBSUMED_SHAPE,
                Severity::Warn,
                Some(sup.clone()),
                format!(
                    "shape expression is subsumed by {sub} (every {sub}-conformant \
                     node conforms here): checks overlap wherever targets do"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapefrag_rdf::Literal;
    use shapefrag_shacl::Shape;

    fn name(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn p(n: &str) -> PathExpr {
        PathExpr::prop(format!("http://e/{n}"))
    }

    fn geq(n: u32, e: PathExpr, inner: Nnf) -> Nnf {
        Nnf::Geq(n, e, Box::new(inner))
    }

    fn leq(n: u32, e: PathExpr, inner: Nnf) -> Nnf {
        Nnf::Leq(n, e, Box::new(inner))
    }

    fn sub(phi: &Nnf, psi: &Nnf) -> bool {
        subsumes(&[], phi, psi)
    }

    #[test]
    fn lattice_bounds() {
        let t = Nnf::Test(NodeTest::MinLength(3));
        assert!(sub(&Nnf::False, &t));
        assert!(sub(&t, &Nnf::True));
        assert!(sub(&t, &t));
        assert!(!sub(&Nnf::True, &t));
        // ≥0 is ⊤, ≥1.⊥ is ⊥.
        assert!(sub(&t, &geq(0, p("a"), t.clone())));
        assert!(sub(&geq(1, p("a"), Nnf::False), &t));
        // ≤0 over a nullable path with a ⊤ body is ⊥.
        assert!(sub(&leq(0, p("a").star(), Nnf::True), &t));
    }

    #[test]
    fn and_or_weakening() {
        let a = Nnf::Test(NodeTest::MinLength(3));
        let b = Nnf::Test(NodeTest::MaxLength(9));
        let both = Nnf::And(vec![a.clone(), b.clone()]);
        let either = Nnf::Or(vec![a.clone(), b.clone()]);
        assert!(sub(&both, &a));
        assert!(sub(&both, &b));
        assert!(sub(&a, &either));
        assert!(sub(&both, &either));
        assert!(!sub(&either, &both));
        assert!(!sub(&either, &a));
        // ∧-intro and ∨-elim.
        assert!(sub(&both, &Nnf::And(vec![b.clone(), a.clone()])));
        assert!(sub(&either, &Nnf::Or(vec![b, a])));
    }

    #[test]
    fn cardinality_interval_inclusion() {
        let top = Nnf::True;
        assert!(sub(
            &geq(3, p("q"), top.clone()),
            &geq(1, p("q"), top.clone())
        ));
        assert!(!sub(
            &geq(1, p("q"), top.clone()),
            &geq(3, p("q"), top.clone())
        ));
        assert!(sub(
            &leq(1, p("q"), top.clone()),
            &leq(4, p("q"), top.clone())
        ));
        assert!(!sub(
            &leq(4, p("q"), top.clone()),
            &leq(1, p("q"), top.clone())
        ));
        // Path weakening on ≥ (language grows), strengthening on ≤.
        assert!(sub(
            &geq(2, p("q"), top.clone()),
            &geq(1, p("q").or(p("r")), top.clone())
        ));
        assert!(sub(
            &leq(1, p("q").or(p("r")), top.clone()),
            &leq(2, p("q"), top.clone())
        ));
        assert!(!sub(
            &geq(2, p("q").or(p("r")), top.clone()),
            &geq(1, p("q"), top.clone())
        ));
        // Body is monotone under ≥, anti-monotone under ≤.
        let strict = Nnf::Test(NodeTest::MinLength(5));
        let loose = Nnf::Test(NodeTest::MinLength(2));
        assert!(sub(
            &geq(1, p("q"), strict.clone()),
            &geq(1, p("q"), loose.clone())
        ));
        assert!(!sub(
            &geq(1, p("q"), loose.clone()),
            &geq(1, p("q"), strict.clone())
        ));
        assert!(sub(
            &leq(2, p("q"), loose.clone()),
            &leq(2, p("q"), strict.clone())
        ));
        assert!(!sub(&leq(2, p("q"), strict), &leq(2, p("q"), loose)));
    }

    #[test]
    fn forall_rules() {
        let strict = Nnf::Test(NodeTest::MinLength(5));
        let loose = Nnf::Test(NodeTest::MinLength(2));
        let fa = |e: PathExpr, inner: Nnf| Nnf::ForAll(e, Box::new(inner));
        assert!(sub(&fa(p("q"), strict.clone()), &fa(p("q"), loose.clone())));
        assert!(!sub(
            &fa(p("q"), loose.clone()),
            &fa(p("q"), strict.clone())
        ));
        // ∀ over the larger language implies ∀ over the smaller.
        assert!(sub(
            &fa(p("q").or(p("r")), loose.clone()),
            &fa(p("q"), loose.clone())
        ));
        assert!(!sub(
            &fa(p("q"), loose.clone()),
            &fa(p("q").or(p("r")), loose.clone())
        ));
        // No successors at all ⇒ any ∀ is vacuous.
        assert!(sub(&leq(0, p("q"), Nnf::True), &fa(p("q"), strict)));
    }

    #[test]
    fn node_test_implication() {
        let t = |t: NodeTest| Nnf::Test(t);
        assert!(sub(&t(NodeTest::MinLength(5)), &t(NodeTest::MinLength(3))));
        assert!(!sub(&t(NodeTest::MinLength(3)), &t(NodeTest::MinLength(5))));
        assert!(sub(&t(NodeTest::MaxLength(3)), &t(NodeTest::MaxLength(5))));
        assert!(sub(
            &t(NodeTest::MinInclusive(Literal::integer(5))),
            &t(NodeTest::MinInclusive(Literal::integer(3)))
        ));
        assert!(sub(
            &t(NodeTest::MinInclusive(Literal::integer(5))),
            &t(NodeTest::MinExclusive(Literal::integer(3)))
        ));
        assert!(!sub(
            &t(NodeTest::MinInclusive(Literal::integer(3))),
            &t(NodeTest::MinExclusive(Literal::integer(3)))
        ));
        assert!(sub(
            &t(NodeTest::MaxExclusive(Literal::integer(3))),
            &t(NodeTest::MaxInclusive(Literal::integer(3)))
        ));
        assert!(sub(
            &t(NodeTest::Kind(NodeKind::Iri)),
            &t(NodeTest::Kind(NodeKind::BlankNodeOrIri))
        ));
        assert!(!sub(
            &t(NodeTest::Kind(NodeKind::BlankNodeOrIri)),
            &t(NodeTest::Kind(NodeKind::Iri))
        ));
        // Datatype pins the node to a literal.
        assert!(sub(
            &t(NodeTest::Datatype(shapefrag_rdf::vocab::xsd::integer())),
            &t(NodeTest::Kind(NodeKind::Literal))
        ));
        // Conflicting tests: minLength 5 rules out maxLength 3.
        assert!(sub(
            &t(NodeTest::MinLength(5)),
            &Nnf::NotTest(NodeTest::MaxLength(3))
        ));
        // Negation is contravariant.
        assert!(sub(
            &Nnf::NotTest(NodeTest::MinLength(3)),
            &Nnf::NotTest(NodeTest::MinLength(5))
        ));
    }

    #[test]
    fn has_value_propagation() {
        let five = Term::Literal(Literal::integer(5));
        let six = Term::Literal(Literal::integer(6));
        assert!(sub(
            &Nnf::HasValue(five.clone()),
            &Nnf::Test(NodeTest::MinInclusive(Literal::integer(5)))
        ));
        assert!(!sub(
            &Nnf::HasValue(five.clone()),
            &Nnf::Test(NodeTest::MinExclusive(Literal::integer(5)))
        ));
        assert!(sub(
            &Nnf::HasValue(five.clone()),
            &Nnf::NotTest(NodeTest::MinLength(2))
        ));
        assert!(sub(&Nnf::HasValue(five.clone()), &Nnf::NotHasValue(six)));
        assert!(!sub(&Nnf::HasValue(five.clone()), &Nnf::NotHasValue(five)));
    }

    #[test]
    fn closed_and_unique_lang() {
        let small: BTreeSet<_> = [shapefrag_rdf::Iri::new("http://e/p")].into();
        let big: BTreeSet<_> = [
            shapefrag_rdf::Iri::new("http://e/p"),
            shapefrag_rdf::Iri::new("http://e/q"),
        ]
        .into();
        assert!(sub(&Nnf::Closed(small.clone()), &Nnf::Closed(big.clone())));
        assert!(!sub(&Nnf::Closed(big.clone()), &Nnf::Closed(small.clone())));
        assert!(sub(
            &Nnf::NotClosed(big.clone()),
            &Nnf::NotClosed(small.clone())
        ));
        assert!(!sub(&Nnf::NotClosed(small), &Nnf::NotClosed(big)));
        // uniqueLang over a superset path implies it over the subset.
        assert!(sub(
            &Nnf::UniqueLang(p("l").or(p("m"))),
            &Nnf::UniqueLang(p("l"))
        ));
        assert!(!sub(
            &Nnf::UniqueLang(p("l")),
            &Nnf::UniqueLang(p("l").or(p("m")))
        ));
    }

    #[test]
    fn has_shape_unfolding_and_coinduction() {
        let defs = vec![
            ShapeDef::new(
                name("Strict"),
                Shape::geq(2, p("q"), Shape::True),
                Shape::False,
            ),
            ShapeDef::new(
                name("Loose"),
                Shape::geq(1, p("q"), Shape::True),
                Shape::False,
            ),
            // Mutually recursive pair, structurally parallel.
            ShapeDef::new(
                name("EvenA"),
                Shape::geq(2, p("n"), Shape::HasShape(name("OddA"))),
                Shape::False,
            ),
            ShapeDef::new(
                name("OddA"),
                Shape::geq(1, p("n"), Shape::HasShape(name("EvenA"))),
                Shape::False,
            ),
            ShapeDef::new(
                name("EvenB"),
                Shape::geq(1, p("n"), Shape::HasShape(name("OddB"))),
                Shape::False,
            ),
            ShapeDef::new(
                name("OddB"),
                Shape::geq(1, p("n"), Shape::HasShape(name("EvenB"))),
                Shape::False,
            ),
        ];
        let hs = |n: &str| Nnf::HasShape(name(n));
        assert!(subsumes(&defs, &hs("Strict"), &hs("Loose")));
        assert!(!subsumes(&defs, &hs("Loose"), &hs("Strict")));
        // Unfold on one side only.
        assert!(subsumes(&defs, &hs("Strict"), &geq(1, p("q"), Nnf::True)));
        assert!(subsumes(&defs, &geq(3, p("q"), Nnf::True), &hs("Loose")));
        // Coinduction: EvenA ⊑ EvenB needs the (OddA, OddB) and back the
        // (EvenA, EvenB) hypothesis.
        assert!(subsumes(&defs, &hs("EvenA"), &hs("EvenB")));
        assert!(!subsumes(&defs, &hs("EvenB"), &hs("EvenA")));
        // Negated references are contravariant.
        assert!(subsumes(
            &defs,
            &Nnf::NotHasShape(name("Loose")),
            &Nnf::NotHasShape(name("Strict"))
        ));
        assert!(!subsumes(
            &defs,
            &Nnf::NotHasShape(name("Strict")),
            &Nnf::NotHasShape(name("Loose"))
        ));
        // Undefined references dereference to ⊤.
        assert!(subsumes(&defs, &hs("Loose"), &hs("NoSuchShape")));
    }

    #[test]
    fn matrix_over_overlapping_defs() {
        let defs = vec![
            ShapeDef::new(
                name("A"),
                Shape::geq(2, p("q"), Shape::True),
                Shape::geq(1, p("t"), Shape::True),
            ),
            ShapeDef::new(
                name("B"),
                Shape::geq(1, p("q"), Shape::True),
                Shape::geq(1, p("t"), Shape::True),
            ),
            // C duplicates B under another name.
            ShapeDef::new(
                name("C"),
                Shape::geq(1, p("q"), Shape::True),
                Shape::geq(1, p("t"), Shape::True),
            ),
        ];
        let m = ContainmentMatrix::of_defs(&defs);
        assert_eq!(m.names, vec![name("A"), name("B"), name("C")]);
        let id = |n: &Term| m.names.iter().position(|x| x == n).unwrap() as u32;
        let (a, b, c) = (id(&name("A")), id(&name("B")), id(&name("C")));
        assert!(m.edges.contains(&(a, b)));
        assert!(m.edges.contains(&(a, c)));
        assert!(!m.edges.contains(&(b, a)));
        assert!(m.equivalent(b, c));
        assert!(!m.equivalent(a, b));
        // Fingerprint is stable and sensitive to edges.
        assert_eq!(
            m.fingerprint(),
            ContainmentMatrix::of_defs(&defs).fingerprint()
        );
        let diags = containment_diagnostics(&m);
        assert!(diags.iter().any(|d| d.code == codes::EQUIVALENT_SHAPES));
        assert!(diags.iter().any(|d| d.code == codes::SUBSUMED_SHAPE));
        let json = m.to_json();
        assert!(json.contains("\"shapes\": 3"));
        assert!(json.contains("\"edges\": ["));
        let text = m.render_text();
        assert!(text.contains("≡"));
        assert!(text.contains("⊑"));
    }

    #[test]
    fn status_lattice_folds_into_edges() {
        let defs = vec![
            // Statically unsatisfiable: below everything.
            ShapeDef::new(
                name("Bot"),
                Shape::has_value(Term::iri("http://e/x"))
                    .and(Shape::has_value(Term::iri("http://e/y"))),
                Shape::False,
            ),
            // Statically valid: above everything.
            ShapeDef::new(
                name("Top"),
                Shape::geq(0, p("q"), Shape::True),
                Shape::False,
            ),
            ShapeDef::new(
                name("Mid"),
                Shape::geq(1, p("q"), Shape::True),
                Shape::False,
            ),
        ];
        let m = ContainmentMatrix::of_defs(&defs);
        let id = |n: &str| m.names.iter().position(|x| *x == name(n)).unwrap() as u32;
        assert!(m.edges.contains(&(id("Bot"), id("Mid"))));
        assert!(m.edges.contains(&(id("Mid"), id("Top"))));
        assert!(m.edges.contains(&(id("Bot"), id("Top"))));
        assert!(!m.edges.contains(&(id("Top"), id("Mid"))));
    }

    #[test]
    fn no_false_positives_on_unrelated_atoms() {
        // A grab bag of pairs that must all stay unproven.
        let pairs = [
            (
                Nnf::Test(NodeTest::MinLength(2)),
                Nnf::Test(NodeTest::MaxLength(9)),
            ),
            (
                Nnf::Eq(
                    shapefrag_shacl::PathOrId::Id,
                    shapefrag_rdf::Iri::new("http://e/p"),
                ),
                Nnf::Eq(
                    shapefrag_shacl::PathOrId::Id,
                    shapefrag_rdf::Iri::new("http://e/q"),
                ),
            ),
            (geq(1, p("a"), Nnf::True), geq(1, p("b"), Nnf::True)),
            (Nnf::UniqueLang(p("l")), Nnf::NotUniqueLang(p("l"))),
        ];
        for (phi, psi) in pairs {
            assert!(!sub(&phi, &psi), "{phi} ⊑ {psi} must not be derivable");
        }
    }
}
