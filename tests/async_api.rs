//! End-to-end tests for the async acquire facade (`AsyncNameService`).
//!
//! Four guarantees under test, mirroring `service_api.rs` on the sync
//! side:
//!
//! 1. **Golden equality** — a single-task `acquire().await` sequence
//!    under a fixed seed is byte-identical to the sync sequence, on
//!    every backend: the async facade is an ownership shape, not a
//!    different algorithm.
//! 2. **Executor churn** — OS threads each driving `block_on` acquires
//!    hold unique names at every instant — proved by the concurrency
//!    oracle's vector-clock history checker, with consistent snapshot
//!    cuts taken mid-churn — and recycle them all, on all seven
//!    backends and on the register-based tournament substrate.
//! 3. **Single-thread interleaving** — `drive_all` multiplexing a batch
//!    of acquires on one thread resolves them all to distinct names
//!    (the cooperative-scheduling shape, closest to the paper's
//!    arbitrarily-delayed asynchronous processes).
//! 4. **One record per outcome** — sync, `block_on` and `drive_all`
//!    acquires each leave exactly one latency sample and one oracle
//!    outcome.

use std::sync::Arc;

use loose_renaming::core::{BatchLayout, ProbeSchedule, Rebatching, DEFAULT_BETA};
use loose_renaming::prelude::*;
use loose_renaming::service::exec;
use loose_renaming::tas::rwtas::TournamentTas;
use loose_renaming::tas::{TasArray, TicketTas};

/// Builds a service wrapped for async acquisition. The concurrency
/// oracle records every acquire/release; recording does not touch the
/// RNG streams, so the fixed-seed goldens below are unaffected.
fn async_service(algorithm: Algorithm, capacity: usize, seed: u64) -> AsyncNameService {
    AsyncNameService::new(
        NameService::builder(algorithm, capacity)
            .oracle(true)
            .seed_policy(SeedPolicy::Fixed(seed))
            .build()
            .expect("build"),
    )
}

/// The mixed hold/release single-thread workload from `service_api.rs`,
/// driven synchronously.
fn sync_sequence(algorithm: Algorithm, seed: u64, n: usize) -> Vec<usize> {
    let service = NameService::builder(algorithm, 32)
        .seed_policy(SeedPolicy::Fixed(seed))
        .build()
        .expect("build");
    let mut values = Vec::new();
    let mut held = Vec::new();
    for i in 0..n {
        let guard = service.acquire().expect("within capacity");
        values.push(guard.value());
        if i % 3 == 0 {
            held.push(guard);
        } else {
            drop(guard);
        }
        if held.len() > 8 {
            held.clear();
        }
    }
    values
}

/// The same workload, acquired through `block_on(service.acquire())`.
fn async_sequence(algorithm: Algorithm, seed: u64, n: usize) -> Vec<usize> {
    let service = async_service(algorithm, 32, seed);
    let mut values = Vec::new();
    let mut held = Vec::new();
    for i in 0..n {
        let guard = exec::block_on(service.acquire()).expect("within capacity");
        values.push(guard.value());
        if i % 3 == 0 {
            held.push(guard);
        } else {
            drop(guard);
        }
        if held.len() > 8 {
            held.clear();
        }
    }
    drop(held);
    assert_eq!(service.held(), 0, "dropping the held guards drains the service");
    values
}

/// A single async task runs the sync acquire path on each first poll,
/// so its fixed-seed sequence must reproduce the sync sequence exactly —
/// on every backend. (The sync path is itself pinned against the golden
/// sequences in `service_api.rs`, so this transitively pins async
/// against those too.)
#[test]
fn async_fixed_seed_sequences_match_sync_on_every_backend() {
    for algorithm in Algorithm::all() {
        assert_eq!(
            async_sequence(algorithm, 0xD0C5, 24),
            sync_sequence(algorithm, 0xD0C5, 24),
            "{algorithm:?}: acquire().await diverged from the sync path"
        );
    }
}

/// Belt and braces: pin the async Rebatching sequence against the PR 3
/// golden values directly, not just transitively.
#[test]
fn async_rebatching_matches_the_pr3_golden_sequence() {
    let golden = [
        9, 20, 21, 13, 29, 19, 0, 19, 29, 30, 18, 14, 17, 6, 21, 1, 4, 24, 24, 26, 3, 26, 29, 8,
    ];
    assert_eq!(async_sequence(Algorithm::Rebatching, 0xD0C5, golden.len()), golden);
}

/// Async churn under the concurrency oracle: `threads` OS threads each
/// drive `iterations` `block_on` acquires while the main thread takes
/// consistent snapshots; the post-run checker proves cross-thread
/// uniqueness over the whole history, full recycling, and worker
/// conservation in one verdict.
fn async_churn(service: &AsyncNameService, threads: usize, iterations: usize) {
    let oracle = service
        .service()
        .oracle()
        .expect("async churn services enable the oracle");

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || {
                for _ in 0..iterations {
                    let guard = exec::block_on(service.acquire()).expect("within capacity");
                    assert!(guard.value() < service.namespace_size());
                    std::hint::spin_loop();
                    drop(guard);
                }
            });
        }
        for _ in 0..2 {
            std::thread::yield_now();
            oracle.snapshot();
        }
    });

    let verdict = service.service().oracle_verdict().expect("oracle enabled");
    assert!(
        verdict.is_clean(),
        "oracle violations under async churn: {:?}",
        verdict.history.violations
    );
    assert!(verdict.drained(), "all names recycled after the churn");
    assert_eq!(verdict.history.wins, (threads * iterations) as u64);
    assert_eq!(verdict.history.released(), verdict.history.wins);
    for snapshot in &verdict.history.snapshots {
        assert!(snapshot.consistent, "inconsistent cut: {snapshot:?}");
        assert!(snapshot.live_at_cut <= service.capacity());
    }
    assert_eq!(service.held(), 0, "all names recycled after the churn");
    assert!(threads * iterations > 2 * service.namespace_size());
}

#[test]
fn async_churn_is_unique_and_recycles_on_every_backend() {
    for algorithm in Algorithm::all() {
        // Linear scan's optimal namespace contends hardest; keep its
        // churn shorter, like the sync suite does.
        let iterations = if algorithm == Algorithm::LinearScan { 50 } else { 100 };
        let threads = 8;
        let service = async_service(algorithm, threads, 0xA57C);
        async_churn(&service, threads, iterations);
    }
}

/// The register-based tournament substrate behind `acquire().await`,
/// reached through `from_parts` and `with_backend`: async acquires drive
/// epoch-stamped trees exactly like sync acquires. Each slot holds
/// `max(2·capacity, 8)` contender tickets per epoch.
#[test]
fn async_tournament_churn_is_unique_and_recycles() {
    let threads = 4;
    let schedule = ProbeSchedule::paper(Epsilon::one(), DEFAULT_BETA).expect("paper schedule");
    let layout = BatchLayout::shared(threads, schedule).expect("layout");
    let slots = (0..layout.namespace_size())
        .map(|_| TicketTas::new(TournamentTas::new((2 * threads).max(8))))
        .collect();
    let backend = Rebatching::from_parts(layout, Arc::new(TasArray::from_slots(slots)))
        .expect("tournament backend");
    let mut service = NameService::with_backend(Arc::new(backend), SeedPolicy::Fixed(0xA57D));
    service.enable_oracle();
    let service = AsyncNameService::new(service);
    let iterations = (10 * service.namespace_size()).div_ceil(threads) + 5;
    async_churn(&service, threads, iterations);
}

/// One acquire is one latency sample and one oracle outcome, whoever
/// made it. For each way to acquire — sync, `block_on`, and 8-future
/// `drive_all` batches — `N` acquire/drop cycles leave exactly `N`
/// acquire and `N` release samples, and an oracle history with `N`
/// starts, `N` outcomes and every win released.
#[test]
fn every_acquire_path_records_each_outcome_once() {
    const N: usize = 64;
    const BATCH: usize = 8;
    type Driver = fn(&AsyncNameService);
    let paths: [(&str, Driver); 3] = [
        ("sync", |service| {
            for _ in 0..N {
                drop(service.service().acquire().expect("within capacity"));
            }
        }),
        ("block_on", |service| {
            for _ in 0..N {
                drop(exec::block_on(service.acquire()).expect("within capacity"));
            }
        }),
        ("drive_all", |service| {
            for _ in 0..N / BATCH {
                let guards = exec::drive_all((0..BATCH).map(|_| service.acquire()))
                    .into_iter()
                    .collect::<Result<Vec<_>, _>>()
                    .expect("within capacity");
                drop(guards);
            }
        }),
    ];
    for (path, drive) in paths {
        let service = AsyncNameService::new(
            NameService::builder(Algorithm::Rebatching, BATCH)
                .metrics(true)
                .oracle(true)
                .seed_policy(SeedPolicy::Fixed(0x5EA4))
                .build()
                .expect("build"),
        );
        drive(&service);
        let metrics = service.metrics().expect("metrics enabled").snapshot();
        assert_eq!(metrics.acquire.count(), N as u64, "{path}: acquire samples");
        assert_eq!(metrics.release.count(), N as u64, "{path}: release samples");
        let history = service.oracle_verdict().expect("oracle enabled").history;
        assert_eq!(history.starts, N as u64, "{path}: oracle starts");
        assert_eq!(
            history.wins + history.fails,
            N as u64,
            "{path}: oracle outcomes"
        );
        assert_eq!(history.released(), history.wins, "{path}: oracle releases");
    }
}

/// One thread, many in-flight acquires: `drive_all` interleaves the
/// futures' polls on a single stack — the executor analogue of the
/// paper's arbitrarily-delayed processes. All resolved names must be
/// distinct (they are held simultaneously).
#[test]
fn drive_all_resolves_a_full_batch_to_distinct_names() {
    let batch = 16;
    let service = async_service(Algorithm::Rebatching, batch, 0xD41E);
    let guards: Vec<AsyncNameGuard> = exec::drive_all((0..batch).map(|_| service.acquire()))
        .into_iter()
        .map(|result| result.expect("within capacity"))
        .collect();
    let mut values: Vec<usize> = guards.iter().map(AsyncNameGuard::value).collect();
    values.sort_unstable();
    let before = values.len();
    values.dedup();
    assert_eq!(values.len(), before, "duplicate names within one batch");
    assert_eq!(service.held(), batch);
    drop(guards);
    assert_eq!(service.held(), 0, "dropping every guard drains the service");
}

/// Guards are `'static` (they hold an `Arc` to the service): they can
/// outlive the `AsyncNameService` handle and cross threads, and their
/// release still lands.
#[test]
fn async_guards_outlive_the_handle_and_cross_threads() {
    let service = async_service(Algorithm::Rebatching, 4, 0x0DD);
    let probe = service.clone();
    let guard = exec::block_on(service.acquire()).expect("name");
    drop(service);
    let value = guard.value();
    std::thread::spawn(move || drop(guard)).join().expect("join");
    assert_eq!(probe.held(), 0, "cross-thread drop released name {value}");
}

/// Exhaustion surfaces through the future as the same structured error
/// the sync path returns — never a panic, and the namespace heals.
#[test]
fn async_exhaustion_is_an_error_not_a_panic() {
    let service = async_service(Algorithm::Rebatching, 2, 0xEE);
    let guards: Vec<AsyncNameGuard> = (0..service.namespace_size())
        .map(|_| exec::block_on(service.acquire()).expect("namespace not yet full"))
        .collect();
    let err = exec::block_on(service.acquire()).unwrap_err();
    assert_eq!(
        err,
        NamespaceExhausted {
            namespace: service.namespace_size()
        }
    );
    drop(guards);
    assert!(exec::block_on(service.acquire()).is_ok());
}
