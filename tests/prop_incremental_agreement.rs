//! Agreement between the incremental engine and from-scratch validation:
//! after any random edit script, [`IncrementalValidator`]'s maintained
//! report must be identical to [`validate_batch`] run fresh over the
//! post-edit graph — both over the `FrozenGraph + DeltaGraph` overlay it
//! owns and over a mutable [`Graph`] that replays the same edits (the two
//! backends intern new terms in the same order, so reports are comparable
//! verbatim).
//!
//! Covered per property:
//!
//! - pure additions, pure removals, mixed add/remove scripts (including
//!   add-then-remove of the same triple), and all-no-op scripts;
//! - one worker vs several (`IncrementalValidator::with_threads`);
//! - governed runs under a tiny step budget: a fault rolls back the
//!   overlay and the report, and leaves the memo *fully* cleared — never
//!   half-invalidated (every surviving entry would otherwise be allowed
//!   to contradict a from-scratch run);
//! - `compact()` mid-sequence preserves the report and subsequent edits.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use common::{graph_strategy, object_term, pred, shape_strategy};
use shape_fragments::core::{EditOp, EditScript, IncrementalValidator};
use shape_fragments::govern::{Budget, EngineError};
use shape_fragments::rdf::{Graph, Iri, Term, Triple};
use shape_fragments::shacl::validator::{validate_batch, ValidationReport};
use shape_fragments::shacl::{PathExpr, Schema, Shape, ShapeDef};

fn shape_name(i: usize) -> Term {
    Term::iri(format!("{}S{i}", common::NS))
}

/// Target shapes in the real-SHACL forms of §4 (plus ⊤ = "all nodes").
fn target_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (0u8..6).prop_map(|i| Shape::HasValue(common::node_term(i))),
        (0u8..3).prop_map(|p| Shape::geq(1, PathExpr::Prop(common::pred(p)), Shape::True)),
        Just(Shape::True),
    ]
}

/// Random nonrecursive schemas of 1–4 definitions with forward `hasShape`
/// references (the memo-sharing case, and the case where impact must
/// propagate through the reference graph).
fn schema_strategy() -> impl Strategy<Value = Schema> {
    (
        prop::collection::vec((shape_strategy(), target_strategy()), 1..5),
        prop::collection::vec(any::<bool>(), 8),
    )
        .prop_map(|(parts, links)| {
            let n = parts.len();
            let defs: Vec<ShapeDef> = parts
                .into_iter()
                .enumerate()
                .map(|(i, (mut shape, target))| {
                    if i + 1 < n && links[(2 * i) % links.len()] {
                        shape = shape.and(Shape::HasShape(shape_name(i + 1)));
                    }
                    ShapeDef::new(shape_name(i), shape, target)
                })
                .collect();
            Schema::new(defs).expect("forward references only — nonrecursive")
        })
}

/// One random edit over the same small universe the graphs draw from, so
/// scripts hit existing triples (removals, re-adds) as often as new ones.
fn edit_strategy() -> impl Strategy<Value = EditOp> {
    (
        any::<bool>(),
        prop_oneof![4 => (0u8..6).prop_map(common::node_term), 1 => Just(Term::blank("b0"))],
        0u8..3,
        object_term(),
    )
        .prop_map(|(add, s, p, o)| {
            let triple = Triple::new(s, pred(p), o);
            if add {
                EditOp::Add(triple)
            } else {
                EditOp::Remove(triple)
            }
        })
}

fn script_strategy(max_ops: usize) -> impl Strategy<Value = EditScript> {
    prop::collection::vec(edit_strategy(), 0..max_ops).prop_map(EditScript::new)
}

/// Applies a script with no resource limit.
fn apply(inc: &mut IncrementalValidator, script: &EditScript) -> ValidationReport {
    inc.apply_governed(script, Budget::unlimited(), None)
        .expect("an unlimited budget cannot fault")
}

/// Replays a script on a mutable [`Graph`] the way the overlay does:
/// last-write-wins per triple, idempotent adds and removes.
fn replay(graph: &mut Graph, script: &EditScript) {
    for op in &script.ops {
        match op {
            EditOp::Add(t) => {
                graph.insert(t.clone());
            }
            EditOp::Remove(t) => {
                graph.remove(t);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After each of a chain of random scripts, the maintained report
    /// equals a from-scratch `validate_batch` over the overlay AND over a
    /// mutable graph replaying the same edits.
    #[test]
    fn incremental_matches_scratch_on_random_scripts(
        schema in schema_strategy(),
        g in graph_strategy(14),
        scripts in prop::collection::vec(script_strategy(8), 1..4),
    ) {
        let schema = Arc::new(schema);
        let mut mutable = g.clone();
        let mut inc = IncrementalValidator::new(Arc::clone(&schema), Arc::new(g.freeze()));
        prop_assert_eq!(inc.report(), validate_batch(&schema, &mutable));

        for script in &scripts {
            let report = apply(&mut inc, script);
            replay(&mut mutable, script);
            // Same interning order on both backends → reports compare
            // verbatim (term ids and violation order included).
            prop_assert_eq!(&report, &validate_batch(&schema, inc.graph()));
            prop_assert_eq!(&report, &validate_batch(&schema, &mutable));
            prop_assert_eq!(&report, &inc.report());
        }
    }

    /// A script that only re-asserts present triples and retracts absent
    /// ones changes nothing: same report object, overlay still empty.
    #[test]
    fn noop_scripts_leave_everything_untouched(
        schema in schema_strategy(),
        g in graph_strategy(12),
        extra in prop::collection::vec(edit_strategy(), 0..6),
    ) {
        let schema = Arc::new(schema);
        let present: Vec<Triple> = g.iter().collect();
        let mut ops: Vec<EditOp> = present.iter().cloned().map(EditOp::Add).collect();
        for op in extra {
            // Keep only ops that are no-ops against `g`.
            match &op {
                EditOp::Add(t) if g.contains(t) => ops.push(op),
                EditOp::Remove(t) if !g.contains(t) => ops.push(op),
                _ => {}
            }
        }
        let mut inc = IncrementalValidator::new(Arc::clone(&schema), Arc::new(g.freeze()));
        let before = inc.report();
        let memo_before = inc.memo().len();
        let report = apply(&mut inc, &EditScript::new(ops));
        prop_assert_eq!(report, before);
        prop_assert_eq!(inc.graph().delta_len(), 0);
        // A no-op batch stages nothing, so the memo is not even re-bound.
        prop_assert_eq!(inc.memo().len(), memo_before);
    }

    /// A validator on several workers produces the identical report to a
    /// one-worker validator (and to from-scratch) for every thread count
    /// we run.
    #[test]
    fn parallel_apply_matches_sequential(
        schema in schema_strategy(),
        g in graph_strategy(14),
        script in script_strategy(10),
        threads in 2usize..5,
    ) {
        let schema = Arc::new(schema);
        let frozen = Arc::new(g.freeze());
        let mut seq = IncrementalValidator::new(Arc::clone(&schema), Arc::clone(&frozen));
        let mut par =
            IncrementalValidator::with_threads(Arc::clone(&schema), frozen, threads);
        let a = apply(&mut seq, &script);
        let b = apply(&mut par, &script);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &validate_batch(&schema, par.graph()));
    }

    /// Governed incremental application is atomic: a budget fault rolls
    /// the overlay and report back to their pre-batch values and leaves
    /// the memo fully cleared; success matches the ungoverned run. Either
    /// way the validator stays usable and correct afterwards.
    #[test]
    fn governed_fault_is_atomic_and_memo_never_half_poisoned(
        schema in schema_strategy(),
        g in graph_strategy(12),
        script in script_strategy(8),
        steps in 0u64..40,
        threads in 1usize..4,
    ) {
        let schema = Arc::new(schema);
        let mut inc =
            IncrementalValidator::with_threads(Arc::clone(&schema), Arc::new(g.freeze()), threads);
        let before = inc.report();
        let added_before = inc.graph().added_len();
        let removed_before = inc.graph().removed_len();

        let budget = Budget::unlimited().steps(steps);
        match inc.apply_governed(&script, budget, None) {
            Ok(report) => {
                prop_assert_eq!(&report, &validate_batch(&schema, inc.graph()));
            }
            Err(err) => {
                prop_assert!(matches!(err, EngineError::BudgetExceeded { .. }));
                // Rolled back: overlay and report as before the batch.
                prop_assert_eq!(inc.graph().added_len(), added_before);
                prop_assert_eq!(inc.graph().removed_len(), removed_before);
                prop_assert_eq!(&inc.report(), &before);
                // Never half-poisoned: after a fault the memo is empty.
                prop_assert_eq!(inc.memo().len(), 0);
            }
        }

        // The validator must remain correct after either outcome.
        let after = apply(&mut inc, &script);
        prop_assert_eq!(&after, &validate_batch(&schema, inc.graph()));
    }

    /// Compacting between scripts is invisible: the report is preserved
    /// across `compact()` and later edits still agree with from-scratch.
    #[test]
    fn compact_is_transparent_mid_sequence(
        schema in schema_strategy(),
        g in graph_strategy(12),
        first in script_strategy(8),
        second in script_strategy(8),
    ) {
        let schema = Arc::new(schema);
        let mut inc = IncrementalValidator::new(Arc::clone(&schema), Arc::new(g.freeze()));
        let report = apply(&mut inc, &first);
        inc.compact();
        prop_assert_eq!(inc.graph().delta_len(), 0);
        prop_assert_eq!(&report, &inc.report());
        prop_assert_eq!(&report, &validate_batch(&schema, inc.graph()));

        let report = apply(&mut inc, &second);
        prop_assert_eq!(&report, &validate_batch(&schema, inc.graph()));
    }
}

/// Regression for containment-closure cache coherence: conformance bits
/// can be *derived* across subsumption edges (`Narrow ⊑ Wide` lets a
/// `Narrow` bit answer a `Wide` check), so invalidating only the
/// impact-routed definition's stripe would let stale copies survive in a
/// related definition's row. An edit that impact-routes to `Wide` alone
/// must also drop `Narrow`'s stripe — and must leave the unrelated
/// definition's stripe standing.
#[test]
fn stripe_invalidation_covers_containment_closure() {
    let iri = |n: &str| Iri::new(format!("{}{n}", common::NS));
    let term = |n: &str| Term::iri(format!("{}{n}", common::NS));
    let t = |s: &str, p: &str, o: &str| Triple::new(term(s), iri(p), term(o));

    let person = || {
        Shape::geq(
            1,
            PathExpr::prop(iri("type")),
            Shape::has_value(term("Person")),
        )
    };
    let name_or_alt = PathExpr::Alt(
        Box::new(PathExpr::prop(iri("name"))),
        Box::new(PathExpr::prop(iri("alt"))),
    );
    // Narrow ⊑ Wide (≥2 name ⊑ ≥1 name|alt); Other shares no containment
    // edge with either. Names sort Narrow < Other < Wide, so dense shape
    // ids follow that order.
    let schema = Arc::new(
        Schema::new([
            ShapeDef::new(
                term("Narrow"),
                Shape::geq(2, PathExpr::prop(iri("name")), Shape::True),
                person(),
            ),
            ShapeDef::new(
                term("Other"),
                Shape::geq(1, PathExpr::prop(iri("other")), Shape::True),
                person(),
            ),
            ShapeDef::new(
                term("Wide"),
                Shape::geq(1, name_or_alt, Shape::True),
                person(),
            ),
        ])
        .unwrap(),
    );
    let narrow = schema.name_id(&term("Narrow")).unwrap();
    let other = schema.name_id(&term("Other")).unwrap();
    let wide = schema.name_id(&term("Wide")).unwrap();

    let mut g = Graph::new();
    for triple in [
        t("alice", "type", "Person"),
        t("alice", "name", "n1"),
        t("alice", "name", "n2"),
        t("bob", "type", "Person"),
        t("bob", "name", "n1"),
        t("carol", "type", "Person"),
        t("carol", "other", "o1"),
    ] {
        g.insert(triple);
    }

    let mut inc = IncrementalValidator::new(Arc::clone(&schema), Arc::new(g.freeze()));
    let index = inc.memo().containment().expect("index attached at seed");
    assert_eq!(index.related_closure(wide), vec![narrow, wide]);
    assert_eq!(index.related_closure(other), vec![other]);
    let (hits, misses) = inc.memo().containment_counters();
    assert!(hits + misses > 0, "seeding never consulted the index");

    let alice = inc.graph().id_of(&term("alice")).unwrap();
    assert_eq!(inc.memo().lookup(narrow, alice), Some(true));
    assert_eq!(inc.memo().lookup(wide, alice), Some(true));
    assert_eq!(inc.memo().lookup(other, alice), Some(false));

    // `alt` is readable by Wide only: Narrow and Other route Untouched,
    // so neither gets re-checked and nothing refills their stripes.
    let report = apply(
        &mut inc,
        &EditScript::new([EditOp::Add(t("alice", "alt", "x"))]),
    );
    assert_eq!(report, validate_batch(&schema, inc.graph()));
    assert_eq!(report, inc.report());

    // Wide was re-evaluated at alice; Narrow's bit fell with it through
    // the containment closure; Other's survived untouched.
    assert_eq!(inc.memo().lookup(wide, alice), Some(true));
    assert_eq!(
        inc.memo().lookup(narrow, alice),
        None,
        "containment-related stripe must be dropped with the impacted one"
    );
    assert_eq!(inc.memo().lookup(other, alice), Some(false));

    // The validator stays exact afterwards, including for edits that
    // re-impact the dropped definition.
    let report = apply(
        &mut inc,
        &EditScript::new([EditOp::Remove(t("alice", "name", "n2"))]),
    );
    assert_eq!(report, validate_batch(&schema, inc.graph()));
    assert_eq!(inc.memo().lookup(narrow, alice), Some(false));
}
