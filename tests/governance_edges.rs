//! Edge-case tests for the governance primitives that the server leans
//! on: [`Budget::split`] as the contract between a parent request and its
//! parallel workers, and [`ConformanceMemo`]'s lock stripes under worker
//! panics. The memo is shared across validation workers; a panicking
//! worker must neither wedge the other threads nor hide the facts it
//! already published (the memo recovers a poisoned stripe with
//! `PoisonError::into_inner`: every update leaves a stripe valid, so the
//! data behind the poison flag is sound).

use std::sync::mpsc;
use std::sync::{Arc, PoisonError, RwLock};
use std::thread;
use std::time::Duration;

use shape_fragments::govern::{Budget, BudgetKind, EngineError, ExecCtx};
use shape_fragments::rdf::TermId;
use shape_fragments::shacl::ConformanceMemo;

// ---------------------------------------------------------------------
// Budget::split across real threads
// ---------------------------------------------------------------------

/// Each worker gets an equal share and faults at *its* share, reporting
/// the split limit — the parent pool can never overspend.
#[test]
fn split_budget_partitions_steps_across_workers() {
    let parent = Budget::unlimited().steps(30);
    let share = parent.split(3);
    let faults: Vec<EngineError> = thread::scope(|scope| {
        (0..3)
            .map(|_| {
                // `Budget` is `Copy`: each worker takes its own share.
                scope.spawn(move || {
                    let ctx = ExecCtx::with_budget(share);
                    loop {
                        if let Err(e) = ctx.tick(1) {
                            return e;
                        }
                    }
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for fault in faults {
        assert_eq!(
            fault,
            EngineError::BudgetExceeded {
                kind: BudgetKind::Steps,
                limit: 10
            }
        );
    }
}

/// Splitting below one step per worker still hands every worker a live
/// (floored) budget instead of a zero one.
#[test]
fn split_budget_floors_at_one_step_per_worker() {
    let share = Budget::unlimited().steps(2).split(64);
    assert_eq!(share.steps, Some(1));
    let ctx = ExecCtx::with_budget(share);
    ctx.tick(1).expect("the floored share allows one step");
    assert!(ctx.tick(1).is_err(), "second step must fault");
}

// ---------------------------------------------------------------------
// ConformanceMemo stripe poisoning
// ---------------------------------------------------------------------

/// Keys spread over many stripes (the memo has 64; shape index varies the
/// hash enough to hit a good fraction of them).
fn spread_keys() -> Vec<(u32, TermId)> {
    (0..256u32)
        .map(|i| (i, TermId(i.wrapping_mul(31))))
        .collect()
}

/// A worker that panics *after* publishing facts must leave them visible:
/// conformance facts are pure, so a fact published by a thread that later
/// died is exactly as valid as any other.
#[test]
fn memo_facts_survive_worker_panic() {
    let memo = Arc::new(ConformanceMemo::new());
    let keys = spread_keys();

    let writer = {
        let memo = Arc::clone(&memo);
        let keys = keys.clone();
        thread::spawn(move || {
            for &(shape, node) in &keys {
                memo.insert(shape, node, shape % 2 == 0);
            }
            panic!("worker dies after publishing");
        })
    };
    assert!(writer.join().is_err(), "worker must have panicked");

    // Every fact the dead worker published is still readable…
    for &(shape, node) in &keys {
        assert_eq!(
            memo.lookup(shape, node),
            Some(shape % 2 == 0),
            "fact ({shape}, {node:?}) lost after worker panic"
        );
    }
    assert_eq!(memo.len(), keys.len());

    // …and every stripe is still writable from a fresh thread (no
    // deadlock, no poison error surfacing as a panic).
    let memo2 = Arc::clone(&memo);
    let keys2 = keys.clone();
    let second = thread::spawn(move || {
        for &(shape, node) in &keys2 {
            memo2.insert(shape, node, true);
        }
    });
    second.join().expect("post-panic writes must succeed");
    for &(shape, node) in &keys {
        assert_eq!(memo.lookup(shape, node), Some(true));
    }
}

/// The sharper case: a thread panics while *holding* a stripe's write
/// guard (mid-insert, as far as the lock is concerned). `std` poisons the
/// lock; the memo's idiom, `unwrap_or_else(PoisonError::into_inner)`, lets
/// readers and writers on other threads proceed and see whatever was
/// written before the panic.
#[test]
fn stripe_write_lock_poisoning_is_invisible_to_other_threads() {
    type Stripe = RwLock<Vec<(u32, bool)>>;
    let stripe: Arc<Stripe> = Arc::new(RwLock::new(Vec::new()));

    let poisoner = {
        let stripe = Arc::clone(&stripe);
        thread::spawn(move || {
            let mut guard = stripe.write().unwrap_or_else(PoisonError::into_inner);
            guard.push((7, true));
            panic!("die while holding the write guard");
        })
    };
    assert!(poisoner.join().is_err());
    assert!(
        stripe.is_poisoned(),
        "the panic must have poisoned the stripe"
    );

    // A reader on another thread must not block or panic, and must see
    // the pre-panic write. Run it through a channel with a timeout so a
    // regression (deadlock or propagated poison) fails fast instead of
    // hanging the suite.
    let (tx, rx) = mpsc::channel();
    let reader = {
        let stripe = Arc::clone(&stripe);
        thread::spawn(move || {
            let seen = stripe
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            let _ = tx.send(seen);
        })
    };
    let seen = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("reader wedged on a poisoned stripe");
    reader.join().expect("reader panicked on a poisoned stripe");
    assert_eq!(seen, vec![(7, true)]);

    // And the stripe stays writable.
    stripe
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .push((8, false));
    assert_eq!(
        stripe.read().unwrap_or_else(PoisonError::into_inner).len(),
        2
    );
}
