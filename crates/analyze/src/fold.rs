//! Passes 1–2: NNF constant folding, contradiction detection, and dead
//! pattern / trivial-constraint reporting.
//!
//! The fold walks a formula bottom-up (iteratively — `Nnf` trees can be
//! adversarially deep) computing a three-valued [`Status`] per subterm and
//! rebuilding a folded formula, so that each parent's checks see its
//! children's folded forms:
//!
//! - nested `∧`/`∨` are flattened, literal `⊤` conjuncts and literal `⊥`
//!   disjuncts are dropped, exact duplicates are removed, and empty or
//!   singleton connectives are normalized;
//! - a statically valid subterm becomes `⊤` (and is dropped from an
//!   enclosing `∧`), a statically unsatisfiable one becomes `⊥` (and is
//!   dropped from an enclosing `∨`).
//!
//! Every rewrite preserves conformance, so the statuses and findings are
//! those of the original formula. The folded formula is an analysis
//! intermediate only: nothing validates or extracts fragments with it, so
//! rewrites that would change a Table 2 neighborhood are harmless here.

use std::collections::BTreeMap;
use std::mem;

use shapefrag_rdf::Term;
use shapefrag_shacl::rpq::Label;
use shapefrag_shacl::{Nfa, Nnf, NodeKind, NodeTest, PathExpr};

use crate::diagnostic::{codes, Diagnostic, Severity};

/// Three-valued static truth of a subterm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Every node conforms, in every graph.
    Valid,
    /// No node conforms, in any graph.
    Unsat,
    /// Not statically determined.
    Unknown,
}

impl Status {
    pub fn negate(self) -> Status {
        match self {
            Status::Valid => Status::Unsat,
            Status::Unsat => Status::Valid,
            Status::Unknown => Status::Unknown,
        }
    }
}

/// Replaces a subterm of known status by its constant.
fn finalize(nnf: Nnf, status: Status) -> (Nnf, Status) {
    let nnf = match status {
        Status::Valid => Nnf::True,
        Status::Unsat => Nnf::False,
        Status::Unknown => nnf,
    };
    (nnf, status)
}

/// The categories of terms a [`NodeKind`] admits: `(iri, blank, literal)`.
fn kind_categories(kind: NodeKind) -> (bool, bool, bool) {
    match kind {
        NodeKind::Iri => (true, false, false),
        NodeKind::BlankNode => (false, true, false),
        NodeKind::Literal => (false, false, true),
        NodeKind::BlankNodeOrIri => (true, true, false),
        NodeKind::BlankNodeOrLiteral => (false, true, true),
        NodeKind::IriOrLiteral => (true, false, true),
    }
}

/// True when no single term can satisfy both tests.
pub fn tests_conflict(a: &NodeTest, b: &NodeTest) -> bool {
    use std::cmp::Ordering;
    let gt = |x: &shapefrag_rdf::Literal, y: &shapefrag_rdf::Literal| {
        x.value().partial_cmp_value(&y.value()) == Some(Ordering::Greater)
    };
    let ge = |x: &shapefrag_rdf::Literal, y: &shapefrag_rdf::Literal| {
        matches!(
            x.value().partial_cmp_value(&y.value()),
            Some(Ordering::Greater) | Some(Ordering::Equal)
        )
    };
    match (a, b) {
        (NodeTest::Datatype(d1), NodeTest::Datatype(d2)) => d1 != d2,
        (NodeTest::Kind(k1), NodeTest::Kind(k2)) => {
            let (i1, b1, l1) = kind_categories(*k1);
            let (i2, b2, l2) = kind_categories(*k2);
            !((i1 && i2) || (b1 && b2) || (l1 && l2))
        }
        (NodeTest::Datatype(_), NodeTest::Kind(k)) | (NodeTest::Kind(k), NodeTest::Datatype(_)) => {
            !kind_categories(*k).2
        }
        (NodeTest::MinLength(n), NodeTest::MaxLength(m))
        | (NodeTest::MaxLength(m), NodeTest::MinLength(n)) => n > m,
        (NodeTest::MinInclusive(lo), NodeTest::MaxInclusive(hi))
        | (NodeTest::MaxInclusive(hi), NodeTest::MinInclusive(lo)) => gt(lo, hi),
        (NodeTest::MinInclusive(lo), NodeTest::MaxExclusive(hi))
        | (NodeTest::MaxExclusive(hi), NodeTest::MinInclusive(lo)) => ge(lo, hi),
        (NodeTest::MinExclusive(lo), NodeTest::MaxInclusive(hi))
        | (NodeTest::MaxInclusive(hi), NodeTest::MinExclusive(lo)) => ge(lo, hi),
        (NodeTest::MinExclusive(lo), NodeTest::MaxExclusive(hi))
        | (NodeTest::MaxExclusive(hi), NodeTest::MinExclusive(lo)) => ge(lo, hi),
        _ => false,
    }
}

fn is_composite(n: &Nnf) -> bool {
    matches!(
        n,
        Nnf::And(_) | Nnf::Or(_) | Nnf::Geq(..) | Nnf::Leq(..) | Nnf::ForAll(..)
    )
}

/// Checks one ordered pair of conjuncts for a static contradiction.
fn pair_conflict_ordered(a: &Nnf, b: &Nnf) -> Option<(&'static str, String)> {
    match (a, b) {
        (Nnf::HasValue(x), Nnf::HasValue(y)) if x != y => Some((
            codes::HAS_VALUE_CONFLICT,
            format!("conflicting hasValue constraints: the node cannot be both {x} and {y}"),
        )),
        (Nnf::Geq(n, e1, inner1), Nnf::Leq(m, e2, inner2))
            if e1 == e2 && n > m && (inner1 == inner2 || matches!(**inner2, Nnf::True)) =>
        {
            Some((
                codes::CARDINALITY_CONFLICT,
                format!("cardinality conflict on path {e1}: ≥{n} and ≤{m} cannot both hold"),
            ))
        }
        (Nnf::HasValue(v), Nnf::Test(t)) if !t.satisfied_by(v) => Some((
            codes::TEST_CONFLICT,
            format!("hasValue({v}) conflicts with node test {t}"),
        )),
        (Nnf::HasValue(v), Nnf::NotTest(t)) if t.satisfied_by(v) => Some((
            codes::TEST_CONFLICT,
            format!("hasValue({v}) conflicts with negated node test {t}"),
        )),
        (Nnf::Test(t1), Nnf::Test(t2)) if tests_conflict(t1, t2) => Some((
            codes::TEST_CONFLICT,
            format!("conjoined node tests {t1} and {t2} admit no value"),
        )),
        (Nnf::Closed(allowed), Nnf::Geq(n, e, _)) if *n >= 1 && !e.is_nullable() => {
            // closed(P) forbids outgoing triples with predicates outside P.
            // A required path whose every possible first step is a forward
            // property outside P can never start.
            let steps = Nfa::compile(e).first_steps();
            let all_forbidden = !steps.is_empty()
                && steps.iter().all(|(label, inv)| {
                    !inv && matches!(label, Label::Prop(p) if !allowed.contains(p))
                });
            if all_forbidden {
                Some((
                    codes::CLOSED_CONFLICT,
                    format!(
                        "closed shape forbids every first step of required path {e} \
                         (≥{n} can never hold)"
                    ),
                ))
            } else {
                None
            }
        }
        _ => {
            if !is_composite(a) && !is_composite(b) && *b == a.negated() {
                Some((
                    codes::TEST_CONFLICT,
                    format!("mutually exclusive conjuncts: {a} and {b}"),
                ))
            } else {
                None
            }
        }
    }
}

fn pair_conflict(a: &Nnf, b: &Nnf) -> Option<(&'static str, String)> {
    pair_conflict_ordered(a, b).or_else(|| pair_conflict_ordered(b, a))
}

fn fold_leaf(
    leaf: &Nnf,
    def_status: &BTreeMap<Term, Status>,
    diags: &mut Vec<Diagnostic>,
) -> (Nnf, Status) {
    let status = match leaf {
        Nnf::True => Status::Valid,
        Nnf::False => Status::Unsat,
        Nnf::Test(NodeTest::Pattern(p)) if p.never_matches() => {
            diags.push(Diagnostic::new(
                codes::DEAD_PATTERN,
                Severity::Warn,
                None,
                format!("pattern {p:?} cannot match any string; the test always fails"),
            ));
            Status::Unsat
        }
        Nnf::NotTest(NodeTest::Pattern(p)) if p.never_matches() => {
            diags.push(Diagnostic::new(
                codes::DEAD_PATTERN,
                Severity::Warn,
                None,
                format!("pattern {p:?} cannot match any string; the negated test always passes"),
            ));
            Status::Valid
        }
        // Undefined references default to ⊤ (reported by the reference
        // pass); defined ones take the folded status of their φ.
        Nnf::HasShape(name) => def_status.get(name).copied().unwrap_or(Status::Valid),
        Nnf::NotHasShape(name) => def_status
            .get(name)
            .copied()
            .unwrap_or(Status::Valid)
            .negate(),
        _ => Status::Unknown,
    };
    finalize(leaf.clone(), status)
}

fn fold_and(children: Vec<(Nnf, Status)>, diags: &mut Vec<Diagnostic>) -> (Nnf, Status) {
    let mut status = if children.iter().any(|(_, s)| *s == Status::Unsat) {
        Status::Unsat
    } else if children.iter().all(|(_, s)| *s == Status::Valid) {
        Status::Valid
    } else {
        Status::Unknown
    };
    let mut conjuncts: Vec<Nnf> = Vec::new();
    for (mut n, st) in children {
        if st == Status::Valid {
            continue; // A valid conjunct (⊤ included) never constrains conformance.
        }
        if let Nnf::And(items) = &mut n {
            for item in mem::take(items) {
                if !matches!(item, Nnf::True) && !conjuncts.contains(&item) {
                    conjuncts.push(item);
                }
            }
        } else if !conjuncts.contains(&n) {
            conjuncts.push(n);
        }
    }
    for i in 0..conjuncts.len() {
        for j in i + 1..conjuncts.len() {
            if let Some((code, message)) = pair_conflict(&conjuncts[i], &conjuncts[j]) {
                diags.push(Diagnostic::new(code, Severity::Deny, None, message));
                status = Status::Unsat;
            }
        }
    }
    let nnf = match conjuncts.len() {
        0 => Nnf::True,
        1 => conjuncts.pop().expect("len checked"),
        _ => Nnf::And(conjuncts),
    };
    finalize(nnf, status)
}

fn fold_or(children: Vec<(Nnf, Status)>) -> (Nnf, Status) {
    let status = if children.iter().any(|(_, s)| *s == Status::Valid) {
        Status::Valid
    } else if children.iter().all(|(_, s)| *s == Status::Unsat) {
        Status::Unsat
    } else {
        Status::Unknown
    };
    let mut disjuncts: Vec<Nnf> = Vec::new();
    for (mut n, st) in children {
        if st == Status::Unsat {
            continue; // An unsatisfiable disjunct (⊥ included) never helps.
        }
        if let Nnf::Or(items) = &mut n {
            for item in mem::take(items) {
                if !matches!(item, Nnf::False) && !disjuncts.contains(&item) {
                    disjuncts.push(item);
                }
            }
        } else if !disjuncts.contains(&n) {
            disjuncts.push(n);
        }
    }
    let nnf = match disjuncts.len() {
        0 => Nnf::False,
        1 => disjuncts.pop().expect("len checked"),
        _ => Nnf::Or(disjuncts),
    };
    finalize(nnf, status)
}

fn fold_geq(
    k: u32,
    e: &PathExpr,
    inner: Nnf,
    inner_status: Status,
    diags: &mut Vec<Diagnostic>,
) -> (Nnf, Status) {
    let status = if k == 0 {
        diags.push(Diagnostic::new(
            codes::TRIVIAL_CONSTRAINT,
            Severity::Warn,
            None,
            format!("≥0 {e} is trivially satisfied"),
        ));
        Status::Valid
    } else if inner_status == Status::Unsat {
        Status::Unsat
    } else if k == 1 && e.is_nullable() && inner_status == Status::Valid {
        // A nullable path always yields the focus node itself.
        Status::Valid
    } else {
        Status::Unknown
    };
    finalize(Nnf::Geq(k, e.clone(), Box::new(inner)), status)
}

fn fold_leq(
    k: u32,
    e: &PathExpr,
    inner: Nnf,
    inner_status: Status,
    diags: &mut Vec<Diagnostic>,
) -> (Nnf, Status) {
    let status = if inner_status == Status::Unsat {
        Status::Valid // Zero qualifying endpoints: ≤k holds for any k.
    } else if k == 0 && e.is_nullable() && inner_status == Status::Valid {
        if matches!(inner, Nnf::True) {
            diags.push(Diagnostic::new(
                codes::LEQ_ZERO_NULLABLE,
                Severity::Deny,
                None,
                format!(
                    "≤0 {e} over a nullable path can never hold: the focus node \
                     itself always matches"
                ),
            ));
        }
        Status::Unsat
    } else {
        Status::Unknown
    };
    finalize(Nnf::Leq(k, e.clone(), Box::new(inner)), status)
}

fn fold_forall(e: &PathExpr, inner: Nnf, inner_status: Status) -> (Nnf, Status) {
    let status = match inner_status {
        Status::Valid => Status::Valid,
        Status::Unsat if e.is_nullable() => Status::Unsat,
        _ => Status::Unknown,
    };
    finalize(Nnf::ForAll(e.clone(), Box::new(inner)), status)
}

/// Folds one formula bottom-up. `def_status` maps each *defined* name to
/// the folded status of its shape expression (`Unknown` entries are fine —
/// e.g. in recursive schemas).
///
/// Returns the folded formula, its status, and the findings (without
/// shape attribution or spans — the caller adds those).
pub fn fold_nnf(root: &Nnf, def_status: &BTreeMap<Term, Status>) -> (Nnf, Status, Vec<Diagnostic>) {
    enum Job<'a> {
        Enter(&'a Nnf),
        Exit(&'a Nnf),
    }
    let mut jobs = vec![Job::Enter(root)];
    let mut built: Vec<(Nnf, Status)> = Vec::new();
    let mut diags: Vec<Diagnostic> = Vec::new();
    while let Some(job) = jobs.pop() {
        match job {
            Job::Enter(n) => match n {
                Nnf::And(items) | Nnf::Or(items) => {
                    jobs.push(Job::Exit(n));
                    for item in items.iter().rev() {
                        jobs.push(Job::Enter(item));
                    }
                }
                Nnf::Geq(_, _, inner) | Nnf::Leq(_, _, inner) | Nnf::ForAll(_, inner) => {
                    jobs.push(Job::Exit(n));
                    jobs.push(Job::Enter(inner));
                }
                leaf => built.push(fold_leaf(leaf, def_status, &mut diags)),
            },
            Job::Exit(n) => {
                let result = match n {
                    Nnf::And(items) => {
                        let children = built.split_off(built.len() - items.len());
                        fold_and(children, &mut diags)
                    }
                    Nnf::Or(items) => {
                        let children = built.split_off(built.len() - items.len());
                        fold_or(children)
                    }
                    Nnf::Geq(k, e, _) => {
                        let (inner, st) = built.pop().expect("worklist balance");
                        fold_geq(*k, e, inner, st, &mut diags)
                    }
                    Nnf::Leq(k, e, _) => {
                        let (inner, st) = built.pop().expect("worklist balance");
                        fold_leq(*k, e, inner, st, &mut diags)
                    }
                    Nnf::ForAll(e, _) => {
                        let (inner, st) = built.pop().expect("worklist balance");
                        fold_forall(e, inner, st)
                    }
                    _ => unreachable!("only composites take the Exit path"),
                };
                built.push(result);
            }
        }
    }
    debug_assert_eq!(built.len(), 1);
    let (nnf, status) = built.pop().expect("worklist produces exactly one result");
    (nnf, status, diags)
}

/// Scans every path expression in a formula for redundant operators
/// (`(E?)?`, `(E*)*`, `(E*)?`, `(E?)*`) — legal, but they bloat the
/// compiled NFA for no semantic gain. Reports only; path rewrites could
/// change recorded traces, so none are performed.
pub fn path_warnings(root: &Nnf) -> Vec<Diagnostic> {
    use shapefrag_shacl::shape::PathOrId;
    let mut out = Vec::new();
    let mut formulas: Vec<&Nnf> = vec![root];
    let mut paths: Vec<&PathExpr> = Vec::new();
    while let Some(n) = formulas.pop() {
        match n {
            Nnf::And(items) | Nnf::Or(items) => formulas.extend(items.iter()),
            Nnf::Geq(_, e, inner) | Nnf::Leq(_, e, inner) => {
                paths.push(e);
                formulas.push(inner);
            }
            Nnf::ForAll(e, inner) => {
                paths.push(e);
                formulas.push(inner);
            }
            Nnf::UniqueLang(e) | Nnf::NotUniqueLang(e) => paths.push(e),
            Nnf::Eq(PathOrId::Path(e), _)
            | Nnf::NotEq(PathOrId::Path(e), _)
            | Nnf::Disj(PathOrId::Path(e), _)
            | Nnf::NotDisj(PathOrId::Path(e), _) => paths.push(e),
            Nnf::LessThan(e, _)
            | Nnf::NotLessThan(e, _)
            | Nnf::LessThanEq(e, _)
            | Nnf::NotLessThanEq(e, _)
            | Nnf::MoreThan(e, _)
            | Nnf::NotMoreThan(e, _)
            | Nnf::MoreThanEq(e, _)
            | Nnf::NotMoreThanEq(e, _) => paths.push(e),
            _ => {}
        }
    }
    while let Some(p) = paths.pop() {
        match p {
            PathExpr::ZeroOrOne(inner) => {
                match inner.as_ref() {
                    PathExpr::ZeroOrOne(_) => out.push(redundant_op(p, "(E?)? ≡ E?")),
                    PathExpr::ZeroOrMore(_) => out.push(redundant_op(p, "(E*)? ≡ E*")),
                    _ => {}
                }
                paths.push(inner);
            }
            PathExpr::ZeroOrMore(inner) => {
                match inner.as_ref() {
                    PathExpr::ZeroOrMore(_) => out.push(redundant_op(p, "(E*)* ≡ E*")),
                    PathExpr::ZeroOrOne(_) => out.push(redundant_op(p, "(E?)* ≡ E*")),
                    _ => {}
                }
                paths.push(inner);
            }
            PathExpr::Inverse(inner) => paths.push(inner),
            PathExpr::Seq(a, b) | PathExpr::Alt(a, b) => {
                paths.push(a);
                paths.push(b);
            }
            _ => {}
        }
    }
    out
}

fn redundant_op(path: &PathExpr, law: &str) -> Diagnostic {
    Diagnostic::new(
        codes::REDUNDANT_PATH_OP,
        Severity::Warn,
        None,
        format!("redundant path operator in {path}: {law}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapefrag_rdf::Literal;

    fn p(n: &str) -> PathExpr {
        PathExpr::prop(format!("http://e/{n}"))
    }

    fn fold(n: &Nnf) -> (Nnf, Status, Vec<Diagnostic>) {
        fold_nnf(n, &BTreeMap::new())
    }

    #[test]
    fn literal_true_dropped_from_and() {
        let n = Nnf::And(vec![Nnf::True, Nnf::HasValue(Term::iri("http://e/c"))]);
        let (out, st, _) = fold(&n);
        assert_eq!(out, Nnf::HasValue(Term::iri("http://e/c")));
        assert_eq!(st, Status::Unknown);
    }

    #[test]
    fn geq_zero_is_trivial_and_folds_away() {
        let n = Nnf::Geq(0, p("a"), Box::new(Nnf::True));
        let (out, st, diags) = fold(&n);
        assert_eq!(st, Status::Valid);
        assert!(diags.iter().any(|d| d.code == codes::TRIVIAL_CONSTRAINT));
        assert_eq!(out, Nnf::True);
    }

    #[test]
    fn cardinality_conflict_detected() {
        let n = Nnf::And(vec![
            Nnf::Geq(3, p("a"), Box::new(Nnf::True)),
            Nnf::Leq(1, p("a"), Box::new(Nnf::True)),
        ]);
        let (out, st, diags) = fold(&n);
        assert_eq!(st, Status::Unsat);
        assert!(diags.iter().any(|d| d.code == codes::CARDINALITY_CONFLICT));
        assert_eq!(out, Nnf::False);
    }

    #[test]
    fn has_value_conflict_detected() {
        let n = Nnf::And(vec![
            Nnf::HasValue(Term::iri("http://e/a")),
            Nnf::HasValue(Term::iri("http://e/b")),
        ]);
        let (_, st, diags) = fold(&n);
        assert_eq!(st, Status::Unsat);
        assert!(diags.iter().any(|d| d.code == codes::HAS_VALUE_CONFLICT));
    }

    #[test]
    fn test_conflicts_detected() {
        // Disjoint datatypes.
        let n = Nnf::And(vec![
            Nnf::Test(NodeTest::Datatype(shapefrag_rdf::vocab::xsd::integer())),
            Nnf::Test(NodeTest::Datatype(shapefrag_rdf::vocab::xsd::string())),
        ]);
        assert_eq!(fold(&n).1, Status::Unsat);
        // Inverted length bounds.
        let n = Nnf::And(vec![
            Nnf::Test(NodeTest::MinLength(5)),
            Nnf::Test(NodeTest::MaxLength(2)),
        ]);
        assert_eq!(fold(&n).1, Status::Unsat);
        // Inverted value range.
        let n = Nnf::And(vec![
            Nnf::Test(NodeTest::MinInclusive(Literal::integer(10))),
            Nnf::Test(NodeTest::MaxInclusive(Literal::integer(3))),
        ]);
        assert_eq!(fold(&n).1, Status::Unsat);
        // hasValue violating a test.
        let n = Nnf::And(vec![
            Nnf::HasValue(Term::iri("http://e/a")),
            Nnf::Test(NodeTest::Kind(NodeKind::Literal)),
        ]);
        let (_, st, diags) = fold(&n);
        assert_eq!(st, Status::Unsat);
        assert!(diags.iter().any(|d| d.code == codes::TEST_CONFLICT));
        // Dual atoms.
        let t = NodeTest::MinLength(3);
        let n = Nnf::And(vec![Nnf::Test(t.clone()), Nnf::NotTest(t)]);
        assert_eq!(fold(&n).1, Status::Unsat);
    }

    #[test]
    fn compatible_range_is_not_a_conflict() {
        let n = Nnf::And(vec![
            Nnf::Test(NodeTest::MinInclusive(Literal::integer(1))),
            Nnf::Test(NodeTest::MaxInclusive(Literal::integer(10))),
        ]);
        let (_, st, diags) = fold(&n);
        assert_eq!(st, Status::Unknown);
        assert!(diags.is_empty());
    }

    #[test]
    fn closed_conflict_detected() {
        let allowed: std::collections::BTreeSet<_> = [shapefrag_rdf::Iri::new("http://e/ok")]
            .into_iter()
            .collect();
        let n = Nnf::And(vec![
            Nnf::Closed(allowed.clone()),
            Nnf::Geq(1, p("forbidden"), Box::new(Nnf::True)),
        ]);
        let (_, st, diags) = fold(&n);
        assert_eq!(st, Status::Unsat);
        assert!(diags.iter().any(|d| d.code == codes::CLOSED_CONFLICT));
        // An allowed first step is fine.
        let n = Nnf::And(vec![
            Nnf::Closed(allowed.clone()),
            Nnf::Geq(1, PathExpr::prop("http://e/ok"), Box::new(Nnf::True)),
        ]);
        assert!(fold(&n).2.is_empty());
        // Inverse steps are incoming triples: closed does not constrain them.
        let n = Nnf::And(vec![
            Nnf::Closed(allowed),
            Nnf::Geq(1, p("forbidden").inverse(), Box::new(Nnf::True)),
        ]);
        assert!(fold(&n).2.is_empty());
    }

    #[test]
    fn leq_zero_nullable_is_unsat() {
        let n = Nnf::Leq(0, p("a").opt(), Box::new(Nnf::True));
        let (_, st, diags) = fold(&n);
        assert_eq!(st, Status::Unsat);
        assert!(diags.iter().any(|d| d.code == codes::LEQ_ZERO_NULLABLE));
        // Non-nullable path: fine (counts only proper successors).
        let n = Nnf::Leq(0, p("a"), Box::new(Nnf::True));
        assert_eq!(fold(&n).1, Status::Unknown);
    }

    #[test]
    fn dead_pattern_reported() {
        let t = NodeTest::pattern("a$b", "").expect("parses");
        let n = Nnf::Test(t);
        let (_, st, diags) = fold(&n);
        assert_eq!(st, Status::Unsat);
        assert!(diags.iter().any(|d| d.code == codes::DEAD_PATTERN));
    }

    #[test]
    fn valid_conjunct_inside_leq_body_is_dropped() {
        let n = Nnf::Leq(
            2,
            p("a"),
            Box::new(Nnf::And(vec![
                Nnf::Geq(0, p("b"), Box::new(Nnf::True)),
                Nnf::HasValue(Term::iri("http://e/c")),
            ])),
        );
        let (out, _, _) = fold(&n);
        match &out {
            Nnf::Leq(2, _, inner) => {
                assert_eq!(**inner, Nnf::HasValue(Term::iri("http://e/c")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn statuses_propagate_through_references() {
        let mut def_status = BTreeMap::new();
        def_status.insert(Term::iri("http://e/Bad"), Status::Unsat);
        let n = Nnf::HasShape(Term::iri("http://e/Bad"));
        let (out, st, _) = fold_nnf(&n, &def_status);
        assert_eq!(st, Status::Unsat);
        assert_eq!(out, Nnf::False);
        let n = Nnf::NotHasShape(Term::iri("http://e/Bad"));
        let (_, st, _) = fold_nnf(&n, &def_status);
        assert_eq!(st, Status::Valid);
    }

    #[test]
    fn or_of_duplicates_collapses() {
        let c = Nnf::HasValue(Term::iri("http://e/c"));
        let n = Nnf::Or(vec![c.clone(), Nnf::False, c.clone()]);
        let (out, _, _) = fold(&n);
        assert_eq!(out, c);
    }

    #[test]
    fn redundant_path_ops_reported() {
        let n = Nnf::Geq(1, p("a").star().star(), Box::new(Nnf::True));
        let diags = path_warnings(&n);
        assert!(diags.iter().any(|d| d.code == codes::REDUNDANT_PATH_OP));
        let n = Nnf::Geq(1, p("a").opt().opt(), Box::new(Nnf::True));
        assert!(!path_warnings(&n).is_empty());
        let n = Nnf::Geq(1, p("a").star(), Box::new(Nnf::True));
        assert!(path_warnings(&n).is_empty());
    }
}
