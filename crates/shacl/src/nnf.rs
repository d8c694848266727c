//! Negation normal form (NNF).
//!
//! Following Grädel and Tannen (and §3.1 of the paper), the neighborhood
//! definition assumes shapes in NNF: negation applied only to atomic shapes.
//! The [`Nnf`] type makes this invariant structural — negated atoms are
//! their own constructors, and there is no general `Not`.
//!
//! Negation is pushed down with De Morgan's laws and the quantifier rules
//!
//! ```text
//! ¬ ≥n+1 E.ψ ≡ ≤n E.ψ      ¬ ≤n E.ψ ≡ ≥n+1 E.ψ      ¬ ∀E.ψ ≡ ≥1 E.¬ψ
//! ¬ ≥0 E.ψ ≡ ⊥
//! ```

use std::collections::BTreeSet;
use std::fmt;
use std::mem;

use shapefrag_rdf::{Iri, Term};

use crate::node_test::NodeTest;
use crate::path::PathExpr;
use crate::shape::{PathOrId, Shape};

/// A shape in negation normal form.
///
/// Like [`Shape`], `Clone`, `Drop`, and the conversions are implemented
/// with explicit worklists so adversarially deep formulas cannot overflow
/// the thread stack.
#[derive(PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Nnf {
    True,
    False,
    HasShape(Term),
    NotHasShape(Term),
    Test(NodeTest),
    NotTest(NodeTest),
    HasValue(Term),
    NotHasValue(Term),
    Eq(PathOrId, Iri),
    NotEq(PathOrId, Iri),
    Disj(PathOrId, Iri),
    NotDisj(PathOrId, Iri),
    Closed(BTreeSet<Iri>),
    NotClosed(BTreeSet<Iri>),
    LessThan(PathExpr, Iri),
    NotLessThan(PathExpr, Iri),
    LessThanEq(PathExpr, Iri),
    NotLessThanEq(PathExpr, Iri),
    MoreThan(PathExpr, Iri),
    NotMoreThan(PathExpr, Iri),
    MoreThanEq(PathExpr, Iri),
    NotMoreThanEq(PathExpr, Iri),
    UniqueLang(PathExpr),
    NotUniqueLang(PathExpr),
    And(Vec<Nnf>),
    Or(Vec<Nnf>),
    Geq(u32, PathExpr, Box<Nnf>),
    Leq(u32, PathExpr, Box<Nnf>),
    ForAll(PathExpr, Box<Nnf>),
}

impl Nnf {
    /// Converts a shape to NNF (pushing negation down; preserves the
    /// overall syntactic structure).
    pub fn from_shape(shape: &Shape) -> Nnf {
        convert(shape, true)
    }

    /// Converts the *negation* of a shape to NNF.
    pub fn from_negated_shape(shape: &Shape) -> Nnf {
        convert(shape, false)
    }

    /// The NNF of `¬self`. Used by the Table-2 rules for `≤n E.ψ` (which
    /// recurse into `¬ψ`) and rule 2 (`¬hasShape(s)` dereferences to
    /// `¬def(s, H)` in NNF).
    pub fn negated(&self) -> Nnf {
        transform(self, true)
    }

    /// True for variants with no child formulas.
    fn is_leaf(&self) -> bool {
        !matches!(
            self,
            Nnf::And(_) | Nnf::Or(_) | Nnf::Geq(..) | Nnf::Leq(..) | Nnf::ForAll(..)
        )
    }

    /// Detaches every direct child (replacing it with `⊤`) onto `out`.
    /// Shared by the iterative [`Drop`] implementation.
    fn detach_children(&mut self, out: &mut Vec<Nnf>) {
        match self {
            Nnf::Geq(_, _, inner) | Nnf::Leq(_, _, inner) | Nnf::ForAll(_, inner) => {
                out.push(mem::replace(&mut **inner, Nnf::True))
            }
            Nnf::And(items) | Nnf::Or(items) => out.append(items),
            _ => {}
        }
    }

    /// Converts back to the general shape algebra (injective on semantics:
    /// `to_shape` of an NNF conforms exactly like the NNF itself).
    /// Iterative for the same reason as `convert`/`transform`.
    pub fn to_shape(&self) -> Shape {
        enum Job<'a> {
            Enter(&'a Nnf),
            Exit(&'a Nnf),
        }
        let mut jobs = vec![Job::Enter(self)];
        let mut built: Vec<Shape> = Vec::new();
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
                    leaf => built.push(leaf.leaf_to_shape()),
                },
                Job::Exit(n) => {
                    let rebuilt = match n {
                        Nnf::And(items) => Shape::And(built.split_off(built.len() - items.len())),
                        Nnf::Or(items) => Shape::Or(built.split_off(built.len() - items.len())),
                        Nnf::Geq(k, e, _) => {
                            Shape::Geq(*k, e.clone(), Box::new(built.pop().unwrap()))
                        }
                        Nnf::Leq(k, e, _) => {
                            Shape::Leq(*k, e.clone(), Box::new(built.pop().unwrap()))
                        }
                        Nnf::ForAll(e, _) => {
                            Shape::ForAll(e.clone(), Box::new(built.pop().unwrap()))
                        }
                        _ => unreachable!("only composites take the Exit path"),
                    };
                    built.push(rebuilt);
                }
            }
        }
        debug_assert_eq!(built.len(), 1);
        built.pop().expect("worklist produces exactly one shape")
    }

    /// Leaf conversion for the [`Nnf::to_shape`] worklist.
    fn leaf_to_shape(&self) -> Shape {
        match self {
            Nnf::True => Shape::True,
            Nnf::False => Shape::False,
            Nnf::HasShape(s) => Shape::HasShape(s.clone()),
            Nnf::NotHasShape(s) => Shape::HasShape(s.clone()).not(),
            Nnf::Test(t) => Shape::Test(t.clone()),
            Nnf::NotTest(t) => Shape::Test(t.clone()).not(),
            Nnf::HasValue(c) => Shape::HasValue(c.clone()),
            Nnf::NotHasValue(c) => Shape::HasValue(c.clone()).not(),
            Nnf::Eq(e, p) => Shape::Eq(e.clone(), p.clone()),
            Nnf::NotEq(e, p) => Shape::Eq(e.clone(), p.clone()).not(),
            Nnf::Disj(e, p) => Shape::Disj(e.clone(), p.clone()),
            Nnf::NotDisj(e, p) => Shape::Disj(e.clone(), p.clone()).not(),
            Nnf::Closed(ps) => Shape::Closed(ps.clone()),
            Nnf::NotClosed(ps) => Shape::Closed(ps.clone()).not(),
            Nnf::LessThan(e, p) => Shape::LessThan(e.clone(), p.clone()),
            Nnf::NotLessThan(e, p) => Shape::LessThan(e.clone(), p.clone()).not(),
            Nnf::LessThanEq(e, p) => Shape::LessThanEq(e.clone(), p.clone()),
            Nnf::NotLessThanEq(e, p) => Shape::LessThanEq(e.clone(), p.clone()).not(),
            Nnf::MoreThan(e, p) => Shape::MoreThan(e.clone(), p.clone()),
            Nnf::NotMoreThan(e, p) => Shape::MoreThan(e.clone(), p.clone()).not(),
            Nnf::MoreThanEq(e, p) => Shape::MoreThanEq(e.clone(), p.clone()),
            Nnf::NotMoreThanEq(e, p) => Shape::MoreThanEq(e.clone(), p.clone()).not(),
            Nnf::UniqueLang(e) => Shape::UniqueLang(e.clone()),
            Nnf::NotUniqueLang(e) => Shape::UniqueLang(e.clone()).not(),
            Nnf::And(_) | Nnf::Or(_) | Nnf::Geq(..) | Nnf::Leq(..) | Nnf::ForAll(..) => {
                unreachable!("leaf_to_shape called on a composite formula")
            }
        }
    }
}

/// Converts an atomic (leaf) shape under a polarity.
fn convert_atom(shape: &Shape, positive: bool) -> Nnf {
    match (shape, positive) {
        (Shape::True, true) | (Shape::False, false) => Nnf::True,
        (Shape::True, false) | (Shape::False, true) => Nnf::False,
        (Shape::HasShape(s), true) => Nnf::HasShape(s.clone()),
        (Shape::HasShape(s), false) => Nnf::NotHasShape(s.clone()),
        (Shape::Test(t), true) => Nnf::Test(t.clone()),
        (Shape::Test(t), false) => Nnf::NotTest(t.clone()),
        (Shape::HasValue(c), true) => Nnf::HasValue(c.clone()),
        (Shape::HasValue(c), false) => Nnf::NotHasValue(c.clone()),
        (Shape::Eq(e, p), true) => Nnf::Eq(e.clone(), p.clone()),
        (Shape::Eq(e, p), false) => Nnf::NotEq(e.clone(), p.clone()),
        (Shape::Disj(e, p), true) => Nnf::Disj(e.clone(), p.clone()),
        (Shape::Disj(e, p), false) => Nnf::NotDisj(e.clone(), p.clone()),
        (Shape::Closed(ps), true) => Nnf::Closed(ps.clone()),
        (Shape::Closed(ps), false) => Nnf::NotClosed(ps.clone()),
        (Shape::LessThan(e, p), true) => Nnf::LessThan(e.clone(), p.clone()),
        (Shape::LessThan(e, p), false) => Nnf::NotLessThan(e.clone(), p.clone()),
        (Shape::LessThanEq(e, p), true) => Nnf::LessThanEq(e.clone(), p.clone()),
        (Shape::LessThanEq(e, p), false) => Nnf::NotLessThanEq(e.clone(), p.clone()),
        (Shape::MoreThan(e, p), true) => Nnf::MoreThan(e.clone(), p.clone()),
        (Shape::MoreThan(e, p), false) => Nnf::NotMoreThan(e.clone(), p.clone()),
        (Shape::MoreThanEq(e, p), true) => Nnf::MoreThanEq(e.clone(), p.clone()),
        (Shape::MoreThanEq(e, p), false) => Nnf::NotMoreThanEq(e.clone(), p.clone()),
        (Shape::UniqueLang(e), true) => Nnf::UniqueLang(e.clone()),
        (Shape::UniqueLang(e), false) => Nnf::NotUniqueLang(e.clone()),
        _ => unreachable!("convert_atom called on a composite shape"),
    }
}

/// `convert(φ, true)` = NNF of φ; `convert(φ, false)` = NNF of ¬φ.
///
/// Iterative (explicit job stack carrying the polarity): the conversion of
/// a 100 000-deep negation tower must not recurse. Quantifier rules applied
/// at `Exit` time:
///
/// ```text
/// ¬ ≥n+1 E.ψ ≡ ≤n E.ψ      ¬ ≤n E.ψ ≡ ≥n+1 E.ψ      ¬ ∀E.ψ ≡ ≥1 E.¬ψ
/// ¬ ≥0 E.ψ ≡ ⊥
/// ```
fn convert(root: &Shape, positive: bool) -> Nnf {
    enum Job<'a> {
        Enter(&'a Shape, bool),
        Exit(&'a Shape, bool),
    }
    let mut jobs = vec![Job::Enter(root, positive)];
    let mut built: Vec<Nnf> = Vec::new();
    while let Some(job) = jobs.pop() {
        match job {
            Job::Enter(s, pos) => match s {
                Shape::Not(inner) => jobs.push(Job::Enter(inner, !pos)),
                Shape::And(items) | Shape::Or(items) => {
                    jobs.push(Job::Exit(s, pos));
                    for item in items.iter().rev() {
                        jobs.push(Job::Enter(item, pos));
                    }
                }
                Shape::Geq(n, _, inner) => {
                    if !pos && *n == 0 {
                        // ¬ ≥0 E.ψ is simply false.
                        built.push(Nnf::False);
                    } else {
                        jobs.push(Job::Exit(s, pos));
                        jobs.push(Job::Enter(inner, true));
                    }
                }
                Shape::Leq(_, _, inner) => {
                    jobs.push(Job::Exit(s, pos));
                    jobs.push(Job::Enter(inner, true));
                }
                Shape::ForAll(_, inner) => {
                    jobs.push(Job::Exit(s, pos));
                    // ¬∀E.ψ ≡ ≥1 E.¬ψ: the body inherits the polarity.
                    jobs.push(Job::Enter(inner, pos));
                }
                atom => built.push(convert_atom(atom, pos)),
            },
            Job::Exit(s, pos) => {
                let rebuilt = match s {
                    Shape::And(items) => {
                        let children = built.split_off(built.len() - items.len());
                        if pos {
                            Nnf::And(children)
                        } else {
                            Nnf::Or(children)
                        }
                    }
                    Shape::Or(items) => {
                        let children = built.split_off(built.len() - items.len());
                        if pos {
                            Nnf::Or(children)
                        } else {
                            Nnf::And(children)
                        }
                    }
                    Shape::Geq(n, e, _) => {
                        let inner = Box::new(built.pop().unwrap());
                        if pos {
                            Nnf::Geq(*n, e.clone(), inner)
                        } else {
                            Nnf::Leq(n - 1, e.clone(), inner)
                        }
                    }
                    Shape::Leq(n, e, _) => {
                        let inner = Box::new(built.pop().unwrap());
                        if pos {
                            Nnf::Leq(*n, e.clone(), inner)
                        } else {
                            Nnf::Geq(n + 1, e.clone(), inner)
                        }
                    }
                    Shape::ForAll(e, _) => {
                        let inner = Box::new(built.pop().unwrap());
                        if pos {
                            Nnf::ForAll(e.clone(), inner)
                        } else {
                            Nnf::Geq(1, e.clone(), inner)
                        }
                    }
                    _ => unreachable!(),
                };
                built.push(rebuilt);
            }
        }
    }
    debug_assert_eq!(built.len(), 1);
    built.pop().unwrap()
}

/// Negates (or copies) an atomic NNF formula.
fn transform_atom(n: &Nnf, negate: bool) -> Nnf {
    if !negate {
        return match n {
            Nnf::True => Nnf::True,
            Nnf::False => Nnf::False,
            Nnf::HasShape(s) => Nnf::HasShape(s.clone()),
            Nnf::NotHasShape(s) => Nnf::NotHasShape(s.clone()),
            Nnf::Test(t) => Nnf::Test(t.clone()),
            Nnf::NotTest(t) => Nnf::NotTest(t.clone()),
            Nnf::HasValue(c) => Nnf::HasValue(c.clone()),
            Nnf::NotHasValue(c) => Nnf::NotHasValue(c.clone()),
            Nnf::Eq(e, p) => Nnf::Eq(e.clone(), p.clone()),
            Nnf::NotEq(e, p) => Nnf::NotEq(e.clone(), p.clone()),
            Nnf::Disj(e, p) => Nnf::Disj(e.clone(), p.clone()),
            Nnf::NotDisj(e, p) => Nnf::NotDisj(e.clone(), p.clone()),
            Nnf::Closed(ps) => Nnf::Closed(ps.clone()),
            Nnf::NotClosed(ps) => Nnf::NotClosed(ps.clone()),
            Nnf::LessThan(e, p) => Nnf::LessThan(e.clone(), p.clone()),
            Nnf::NotLessThan(e, p) => Nnf::NotLessThan(e.clone(), p.clone()),
            Nnf::LessThanEq(e, p) => Nnf::LessThanEq(e.clone(), p.clone()),
            Nnf::NotLessThanEq(e, p) => Nnf::NotLessThanEq(e.clone(), p.clone()),
            Nnf::MoreThan(e, p) => Nnf::MoreThan(e.clone(), p.clone()),
            Nnf::NotMoreThan(e, p) => Nnf::NotMoreThan(e.clone(), p.clone()),
            Nnf::MoreThanEq(e, p) => Nnf::MoreThanEq(e.clone(), p.clone()),
            Nnf::NotMoreThanEq(e, p) => Nnf::NotMoreThanEq(e.clone(), p.clone()),
            Nnf::UniqueLang(e) => Nnf::UniqueLang(e.clone()),
            Nnf::NotUniqueLang(e) => Nnf::NotUniqueLang(e.clone()),
            _ => unreachable!("transform_atom called on a composite formula"),
        };
    }
    match n {
        Nnf::True => Nnf::False,
        Nnf::False => Nnf::True,
        Nnf::HasShape(s) => Nnf::NotHasShape(s.clone()),
        Nnf::NotHasShape(s) => Nnf::HasShape(s.clone()),
        Nnf::Test(t) => Nnf::NotTest(t.clone()),
        Nnf::NotTest(t) => Nnf::Test(t.clone()),
        Nnf::HasValue(c) => Nnf::NotHasValue(c.clone()),
        Nnf::NotHasValue(c) => Nnf::HasValue(c.clone()),
        Nnf::Eq(e, p) => Nnf::NotEq(e.clone(), p.clone()),
        Nnf::NotEq(e, p) => Nnf::Eq(e.clone(), p.clone()),
        Nnf::Disj(e, p) => Nnf::NotDisj(e.clone(), p.clone()),
        Nnf::NotDisj(e, p) => Nnf::Disj(e.clone(), p.clone()),
        Nnf::Closed(ps) => Nnf::NotClosed(ps.clone()),
        Nnf::NotClosed(ps) => Nnf::Closed(ps.clone()),
        Nnf::LessThan(e, p) => Nnf::NotLessThan(e.clone(), p.clone()),
        Nnf::NotLessThan(e, p) => Nnf::LessThan(e.clone(), p.clone()),
        Nnf::LessThanEq(e, p) => Nnf::NotLessThanEq(e.clone(), p.clone()),
        Nnf::NotLessThanEq(e, p) => Nnf::LessThanEq(e.clone(), p.clone()),
        Nnf::MoreThan(e, p) => Nnf::NotMoreThan(e.clone(), p.clone()),
        Nnf::NotMoreThan(e, p) => Nnf::MoreThan(e.clone(), p.clone()),
        Nnf::MoreThanEq(e, p) => Nnf::NotMoreThanEq(e.clone(), p.clone()),
        Nnf::NotMoreThanEq(e, p) => Nnf::MoreThanEq(e.clone(), p.clone()),
        Nnf::UniqueLang(e) => Nnf::NotUniqueLang(e.clone()),
        Nnf::NotUniqueLang(e) => Nnf::UniqueLang(e.clone()),
        _ => unreachable!("transform_atom called on a composite formula"),
    }
}

/// `transform(n, false)` is a deep copy of `n`; `transform(n, true)` is the
/// NNF of `¬n`. One iterative walker serves as both the manual [`Clone`]
/// implementation and [`Nnf::negated`] — the polarity travels with each job
/// because negation under `≥`/`≤` copies the body unchanged while negation
/// under `∀` flips it (`¬∀E.ψ ≡ ≥1 E.¬ψ`).
fn transform(root: &Nnf, negate: bool) -> Nnf {
    enum Job<'a> {
        Enter(&'a Nnf, bool),
        Exit(&'a Nnf, bool),
    }
    let mut jobs = vec![Job::Enter(root, negate)];
    let mut built: Vec<Nnf> = Vec::new();
    while let Some(job) = jobs.pop() {
        match job {
            Job::Enter(n, neg) => match n {
                Nnf::And(items) | Nnf::Or(items) => {
                    jobs.push(Job::Exit(n, neg));
                    for item in items.iter().rev() {
                        jobs.push(Job::Enter(item, neg));
                    }
                }
                Nnf::Geq(k, _, inner) => {
                    if neg && *k == 0 {
                        built.push(Nnf::False);
                    } else {
                        jobs.push(Job::Exit(n, neg));
                        // ¬ ≥k E.ψ ≡ ≤k−1 E.ψ: the body is copied as-is.
                        jobs.push(Job::Enter(inner, false));
                    }
                }
                Nnf::Leq(_, _, inner) => {
                    jobs.push(Job::Exit(n, neg));
                    jobs.push(Job::Enter(inner, false));
                }
                Nnf::ForAll(_, inner) => {
                    jobs.push(Job::Exit(n, neg));
                    jobs.push(Job::Enter(inner, neg));
                }
                atom => built.push(transform_atom(atom, neg)),
            },
            Job::Exit(n, neg) => {
                let rebuilt = match n {
                    Nnf::And(items) => {
                        let children = built.split_off(built.len() - items.len());
                        if neg {
                            Nnf::Or(children)
                        } else {
                            Nnf::And(children)
                        }
                    }
                    Nnf::Or(items) => {
                        let children = built.split_off(built.len() - items.len());
                        if neg {
                            Nnf::And(children)
                        } else {
                            Nnf::Or(children)
                        }
                    }
                    Nnf::Geq(k, e, _) => {
                        let inner = Box::new(built.pop().unwrap());
                        if neg {
                            Nnf::Leq(k - 1, e.clone(), inner)
                        } else {
                            Nnf::Geq(*k, e.clone(), inner)
                        }
                    }
                    Nnf::Leq(k, e, _) => {
                        let inner = Box::new(built.pop().unwrap());
                        if neg {
                            Nnf::Geq(k + 1, e.clone(), inner)
                        } else {
                            Nnf::Leq(*k, e.clone(), inner)
                        }
                    }
                    Nnf::ForAll(e, _) => {
                        let inner = Box::new(built.pop().unwrap());
                        if neg {
                            Nnf::Geq(1, e.clone(), inner)
                        } else {
                            Nnf::ForAll(e.clone(), inner)
                        }
                    }
                    _ => unreachable!(),
                };
                built.push(rebuilt);
            }
        }
    }
    debug_assert_eq!(built.len(), 1);
    built.pop().unwrap()
}

impl Clone for Nnf {
    fn clone(&self) -> Self {
        transform(self, false)
    }
}

impl Drop for Nnf {
    /// Iterative drop, mirroring [`Shape`]'s.
    fn drop(&mut self) {
        if self.is_leaf() {
            return;
        }
        let mut stack: Vec<Nnf> = Vec::new();
        self.detach_children(&mut stack);
        while let Some(mut n) = stack.pop() {
            n.detach_children(&mut stack);
        }
    }
}

impl fmt::Display for Nnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_shape())
    }
}

impl fmt::Debug for Nnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<&Shape> for Nnf {
    fn from(shape: &Shape) -> Self {
        Nnf::from_shape(shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> PathExpr {
        PathExpr::prop(format!("http://e/{name}"))
    }

    #[test]
    fn double_negation_cancels() {
        let s = Shape::has_value(Term::iri("http://e/c")).not().not();
        assert_eq!(Nnf::from_shape(&s), Nnf::HasValue(Term::iri("http://e/c")));
    }

    #[test]
    fn de_morgan() {
        let s = Shape::True.and(Shape::False).not();
        assert_eq!(Nnf::from_shape(&s), Nnf::Or(vec![Nnf::False, Nnf::True]));
    }

    #[test]
    fn quantifier_duality() {
        // ¬ ≥2 E.⊤ ≡ ≤1 E.⊤
        let s = Shape::geq(2, p("a"), Shape::True).not();
        assert_eq!(
            Nnf::from_shape(&s),
            Nnf::Leq(1, p("a"), Box::new(Nnf::True))
        );
        // ¬ ≤3 E.⊤ ≡ ≥4 E.⊤
        let s = Shape::leq(3, p("a"), Shape::True).not();
        assert_eq!(
            Nnf::from_shape(&s),
            Nnf::Geq(4, p("a"), Box::new(Nnf::True))
        );
        // ¬ ≥0 E.⊤ ≡ ⊥
        let s = Shape::geq(0, p("a"), Shape::True).not();
        assert_eq!(Nnf::from_shape(&s), Nnf::False);
    }

    #[test]
    fn forall_negation_introduces_negated_body() {
        // ¬ ∀E.hasValue(c) ≡ ≥1 E.¬hasValue(c)
        let c = Term::iri("http://e/c");
        let s = Shape::for_all(p("a"), Shape::has_value(c.clone())).not();
        assert_eq!(
            Nnf::from_shape(&s),
            Nnf::Geq(1, p("a"), Box::new(Nnf::NotHasValue(c)))
        );
    }

    #[test]
    fn negation_under_quantifier_body() {
        // ≥1 E.¬(ψ ∧ χ) pushes into the body.
        let s = Shape::geq(
            1,
            p("a"),
            Shape::True
                .and(Shape::has_value(Term::iri("http://e/c")))
                .not(),
        );
        let nnf = Nnf::from_shape(&s);
        match &nnf {
            Nnf::Geq(1, _, body) => {
                assert!(matches!(**body, Nnf::Or(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negated_is_involutive() {
        let shapes = [
            Shape::Eq(PathOrId::Id, Iri::new("http://e/p")),
            Shape::geq(2, p("a"), Shape::for_all(p("b"), Shape::True)),
            Shape::UniqueLang(p("l")),
            Shape::Closed(BTreeSet::from([Iri::new("http://e/p")])),
        ];
        for s in shapes {
            let n = Nnf::from_shape(&s);
            assert_eq!(n.negated().negated(), n, "¬¬{s} should be {s}");
        }
    }

    #[test]
    fn negated_geq_zero_is_false() {
        let n = Nnf::Geq(0, p("a"), Box::new(Nnf::True));
        assert_eq!(n.negated(), Nnf::False);
    }

    #[test]
    fn round_trip_to_shape() {
        let s = Shape::for_all(p("a"), Shape::geq(1, p("b"), Shape::True))
            .and(Shape::Disj(PathOrId::Id, Iri::new("http://e/q")).not());
        let nnf = Nnf::from_shape(&s);
        // Round trip re-normalizes to the same NNF.
        assert_eq!(Nnf::from_shape(&nnf.to_shape()), nnf);
    }
}
