//! Model-checked suites over the *real* concurrency layer.
//!
//! Compiled only under `RUSTFLAGS="--cfg renaming_model"` (see
//! [`crate::sync_shim`]): the sharded pool below is the production
//! struct, whose atomics resolve to the [`renaming_model`] shim — every
//! interleaving the checker explores is an interleaving of the shipped
//! code, and every cross-thread read is audited by the vector-clock
//! race detector.
//!
//! `crates/model/tests/pool_model.rs` proves the pool *protocol* (on a
//! distilled model, exhaustively, with a seeded mutant); these tests
//! prove the *implementation* follows it. The pool race is explored
//! exhaustively; the service end-to-end runs under an explicit
//! interleaving cap (its state space includes the whole acquire
//! machinery) and asserts cleanliness over that window.

use std::sync::Arc;

use renaming_model::{thread, Checker};

use crate::pool::ShardedPool;

/// The real `ShardedPool` under a two-thread checkout/checkin race on
/// one shard: no worker conservation violation (`created == pooled +
/// retired` after quiescence) in any interleaving, and every
/// cross-thread pointer read carries a happens-before edge (the
/// Acquire/AcqRel strengthening documented in ARCHITECTURE.md).
#[test]
fn real_pool_churn_conserves_items() {
    let report = Checker::new().check(|| {
        let pool = Arc::new(ShardedPool::<u32>::new(1));
        pool.checkin(Box::new(1));

        let churners: Vec<_> = (0..2u32)
            .map(|i| {
                let pool = Arc::clone(&pool);
                thread::spawn(move || {
                    // Checkout (stealing the seeded item or creating a
                    // fresh one), touch, checkin — the service's
                    // acquire-path worker cycle.
                    let (item, created) = match pool.checkout() {
                        Some(item) => (item, 0u64),
                        None => (Box::new(10 + i), 1u64),
                    };
                    pool.checkin(item);
                    created
                })
            })
            .collect();
        let created: u64 = 1 + churners
            .into_iter()
            .map(|t| t.join().unwrap())
            .sum::<u64>();

        assert_eq!(
            pool.pooled() as u64 + pool.retired(),
            created,
            "pool conservation violated after quiescence"
        );
    });
    println!(
        "service-model/pool-churn: {} interleavings (complete: {})",
        report.interleavings, report.complete
    );
    report.assert_clean();
    assert!(report.complete, "real pool churn must be explored exhaustively");
}

/// End-to-end: two threads drive `NameService::acquire` through the
/// real pool (checkout, session acquire, checkin) and drop their guards.
/// The state space includes the whole acquire machinery, so this runs
/// under an explicit interleaving cap rather than to exhaustion; within
/// the window every interleaving must produce two distinct names, drain
/// the namespace, preserve worker conservation, and report no races,
/// deadlocks or livelocks.
#[test]
fn real_service_two_acquirers_stay_conservative() {
    let report = Checker::new()
        .max_interleavings(400)
        .max_steps(20_000)
        .check(|| {
            let service = Arc::new(
                crate::NameService::builder(crate::Algorithm::Rebatching, 8)
                    .seed_policy(crate::SeedPolicy::Fixed(7))
                    .build()
                    .expect("build"),
            );

            let acquirers: Vec<_> = (0..2)
                .map(|_| {
                    let service = Arc::clone(&service);
                    thread::spawn(move || {
                        let guard = service.acquire().expect("within capacity");
                        guard.value()
                        // guard drops here -> name released
                    })
                })
                .collect();
            let mut names: Vec<usize> = acquirers
                .into_iter()
                .map(|t| t.join().unwrap())
                .collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), 2, "concurrent acquires must win distinct names");
            assert_eq!(service.held(), 0, "both guards released");
            assert_eq!(
                service.worker_count() as u64,
                service.pooled_workers() as u64 + service.retired_workers(),
                "worker conservation violated after quiescence"
            );
        });
    println!(
        "service-model/service-end-to-end: {} interleavings (complete: {})",
        report.interleavings, report.complete
    );
    report.assert_clean();
}
