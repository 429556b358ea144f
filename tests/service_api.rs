//! Real-thread stress tests for the `NameService` acquire/release API.
//!
//! Four guarantees under test:
//!
//! 1. **Cross-thread uniqueness** — all concurrently held [`NameGuard`]s
//!    carry distinct names, proved over the whole execution by the
//!    concurrency oracle: every churn run records vector-clocked
//!    acquire/release events and the post-run checker shows no two
//!    holds of one name overlap under happens-before (plus consistent
//!    mid-churn snapshot cuts — not just post-hoc end states).
//! 2. **Drop-based recycling** — names return to the namespace when
//!    guards drop, so sustained churn far beyond the namespace size never
//!    exhausts it, and the service drains to zero held names.
//! 3. **Reproducibility** — under a fixed seed policy, a single-threaded
//!    acquisition sequence is a pure function of the builder
//!    configuration, and byte-identical to the golden sequences pinned
//!    from the original mutex-pool service.
//! 4. **Pool integrity** — the sharded lock-free pool never hands one
//!    session to two threads at once and never leaks workers, even with
//!    far more threads than shards and churn far beyond capacity.
//! 5. **Substrate parity** — any TAS substrate reaches the
//!    service through the objects' `from_parts` constructors and
//!    `NameService::with_backend`, with the same long-lived guarantees
//!    as the builder's atomics. The register-based tournament recycles
//!    names through its epoch-stamped tree reset under churn ≫ the
//!    namespace size, and draining an epoch's per-slot ticket window
//!    surfaces a structured error (never a panic) and heals on release.
//!    Counted atomic and tournament slots serve every algorithm, with
//!    one counted `test_and_set` or more per acquire.

use std::sync::Arc;

use loose_renaming::baselines::{
    DoublingRenaming, LinearScanRenaming, SingleBatchRenaming, UniformRenaming,
};
use loose_renaming::core::{
    AdaptiveLayout, AdaptiveRebatching, BatchLayout, FastAdaptiveRebatching, ProbeSchedule,
    Rebatching, DEFAULT_BETA,
};
use loose_renaming::prelude::*;
use loose_renaming::service::{CountingSlot, ServiceBackend};
use loose_renaming::tas::rwtas::TournamentTas;
use loose_renaming::tas::{AtomicTas, CountingTas, Tas, TasArray, TicketTas};

/// Acquire/release churn on every releasable backend: `threads` real
/// threads, each cycling `iterations` times, with the concurrency
/// oracle proving cross-thread uniqueness over the recorded history.
fn stress(algorithm: Algorithm, threads: usize, iterations: usize) {
    let service = NameService::builder(algorithm, threads)
        .oracle(true)
        .seed_policy(SeedPolicy::Fixed(0xA11CE))
        .build()
        .expect("build");
    churn(&service, threads, iterations);
}

/// Acquire/release churn on an already-built, oracle-enabled service.
/// The hand-rolled live occupancy table this helper used to carry is
/// replaced by the concurrency oracle: every hold is recorded with a
/// vector clock, mid-churn consistent snapshots bound live occupancy
/// while threads are still running, and the post-run checker proves
/// no overlapping holds, the namespace bound, release matching, and
/// the worker conservation law in one verdict.
fn churn(service: &NameService, threads: usize, iterations: usize) {
    let oracle = service.oracle().expect("churn services enable the oracle");

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let service = &service;
            scope.spawn(move || {
                for _ in 0..iterations {
                    let guard = service.acquire().expect("within capacity");
                    assert!(guard.value() < service.namespace_size());
                    std::hint::spin_loop();
                    drop(guard);
                }
            });
        }
        // Chandy–Lamport cuts taken while the churn is in flight: the
        // checker will prove each cut consistent and its live
        // occupancy within capacity.
        for _ in 0..2 {
            std::thread::yield_now();
            oracle.snapshot();
        }
    });

    let verdict = service.oracle_verdict().expect("oracle enabled");
    assert!(
        verdict.is_clean(),
        "oracle violations under {:?} churn: {:?}",
        service.algorithm(),
        verdict.history.violations
    );
    assert!(verdict.drained(), "all names recycled after the churn");
    assert_eq!(
        verdict.history.wins,
        (threads * iterations) as u64,
        "every cycle must complete"
    );
    assert_eq!(verdict.history.released(), verdict.history.wins);
    assert_eq!(verdict.history.participants, threads);
    for snapshot in &verdict.history.snapshots {
        assert!(snapshot.consistent, "inconsistent cut: {snapshot:?}");
        assert!(
            snapshot.live_at_cut <= service.capacity(),
            "cut occupancy over capacity: {snapshot:?}"
        );
    }
    assert_eq!(service.held(), 0, "all names recycled after the churn");
    // The churn performed far more acquisitions than the namespace has
    // slots — only recycling makes that possible.
    assert!(threads * iterations > 2 * service.namespace_size());
    // Worker conservation (pooled + retired == created) is part of
    // `is_clean` via the verdict's `workers_conserved`.
    assert!(verdict.workers_conserved());
}

#[test]
fn rebatching_churn_is_unique_and_recycles() {
    stress(Algorithm::Rebatching, 8, 200);
}

#[test]
fn adaptive_churn_is_unique_and_recycles() {
    // Also exercises the abandoned-win recycling of the search phase:
    // without it, superseded race/search wins would leak a slot per
    // contended acquire and exhaust the namespace mid-test.
    stress(Algorithm::Adaptive, 8, 200);
}

#[test]
fn fast_adaptive_churn_is_unique_and_recycles() {
    stress(Algorithm::FastAdaptive, 8, 200);
}

#[test]
fn baseline_backends_churn_too() {
    for algorithm in [Algorithm::Uniform, Algorithm::SingleBatch, Algorithm::Doubling] {
        stress(algorithm, 4, 100);
    }
    // Linear scan: optimal namespace => heavier contention; fewer spins.
    stress(Algorithm::LinearScan, 4, 50);
}

#[test]
fn guards_held_together_are_distinct_across_threads() {
    let threads = 16;
    let service = NameService::builder(Algorithm::Rebatching, threads)
        .seed_policy(SeedPolicy::Fixed(7))
        .build()
        .expect("build");
    // Every thread acquires and returns its guard; all are held at once.
    let guards: Vec<NameGuard<'_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let service = &service;
                scope.spawn(move || service.acquire().expect("name"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    let mut values: Vec<usize> = guards.iter().map(NameGuard::value).collect();
    values.sort_unstable();
    let before = values.len();
    values.dedup();
    assert_eq!(values.len(), before, "duplicate concurrent names");
    assert!(values.iter().all(|&v| v < service.namespace_size()));
    assert_eq!(service.held(), threads);
    drop(guards);
    assert_eq!(service.held(), 0, "dropping every guard drains the service");
}

#[test]
fn dropped_names_are_reissued() {
    // The namespace has 4 slots; 50 sequential acquisitions can only
    // succeed if dropped names come back.
    let service = NameService::builder(Algorithm::Rebatching, 2)
        .seed_policy(SeedPolicy::Fixed(3))
        .build()
        .expect("build");
    let mut seen = std::collections::HashSet::new();
    for _ in 0..50 {
        let guard = service.acquire().expect("nothing else held");
        seen.insert(guard.value());
    }
    assert!(!seen.is_empty());
    assert!(seen.len() <= service.namespace_size());
    assert_eq!(service.held(), 0);
}

#[test]
fn fixed_seed_sequences_are_reproducible_per_backend() {
    for algorithm in [
        Algorithm::Rebatching,
        Algorithm::Adaptive,
        Algorithm::FastAdaptive,
        Algorithm::Uniform,
    ] {
        let run = || fixed_seed_sequence(algorithm, 99, 40);
        assert_eq!(run(), run(), "{algorithm:?}: fixed seed must reproduce");
    }
}

/// The mixed hold/release single-thread workload used for the golden
/// sequences below (and by `fixed_seed_sequences_are_reproducible_per_backend`).
fn fixed_seed_sequence(algorithm: Algorithm, seed: u64, n: usize) -> Vec<usize> {
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

/// Golden sequences captured from the PR 3 `Mutex<Vec<_>>`-pool service
/// (seed `0xD0C5`, capacity 32, the mixed workload above). The sharded
/// pool must reproduce them byte-for-byte: stream ids are assigned at
/// session construction, so single-threaded fixed-seed output is part of
/// the service's compatibility contract.
#[test]
fn fixed_seed_sequences_match_pr3_golden_values() {
    let golden: [(Algorithm, &[usize]); 4] = [
        (
            Algorithm::Rebatching,
            &[9, 20, 21, 13, 29, 19, 0, 19, 29, 30, 18, 14, 17, 6, 21, 1, 4, 24, 24, 26, 3, 26, 29, 8],
        ),
        (
            Algorithm::Adaptive,
            &[0, 1, 1, 1, 2, 2, 2, 5, 7, 6, 5, 4, 4, 7, 7, 7, 5, 5, 5, 9, 8, 9, 8, 8],
        ),
        (
            Algorithm::FastAdaptive,
            &[0, 1, 1, 1, 2, 2, 2, 5, 7, 6, 5, 4, 4, 7, 7, 7, 5, 5, 5, 8, 8, 8, 9, 9],
        ),
        (
            Algorithm::Uniform,
            &[18, 40, 43, 27, 59, 38, 1, 38, 58, 60, 37, 29, 34, 12, 43, 3, 8, 49, 48, 53, 7, 52, 59, 16],
        ),
    ];
    for (algorithm, expected) in golden {
        assert_eq!(
            fixed_seed_sequence(algorithm, 0xD0C5, expected.len()),
            expected,
            "{algorithm:?} diverged from its golden sequence"
        );
    }
}

/// Torture the sharded pool through the service: threads ≫ shards (the
/// default is one shard per core) and churn ≫ capacity. The oracle
/// verdict inside `churn` proves no name is duplicated and, through the
/// worker conservation law, that no session is lost to the overflow
/// path. The pool's own unit test `torture_no_double_checkout_and_no_leaks`
/// pins threads ≫ shards directly (16 threads on 2 shards).
#[test]
fn sharded_pool_torture_threads_far_exceed_shards() {
    stress(Algorithm::Rebatching, 16, 300);
    stress(Algorithm::FastAdaptive, 12, 150);
}

/// Every backend fails an acquire one way: once at least `capacity`
/// names are held, filling the namespace ends in `NamespaceExhausted`
/// for the whole namespace — never a panic — and releasing heals it.
#[test]
fn namespace_exhaustion_is_an_error_not_a_panic() {
    for algorithm in Algorithm::all() {
        let service = NameService::builder(algorithm, 2)
            .seed_policy(SeedPolicy::Fixed(5))
            .build()
            .expect("build");
        // After `namespace_size` wins every slot is set, so the next
        // attempt must fail if none did before.
        let attempts = service.namespace_size() + 1;
        let mut guards = Vec::new();
        let err = (0..attempts)
            .find_map(|_| match service.acquire() {
                Ok(guard) => {
                    guards.push(guard);
                    None
                }
                Err(err) => Some(err),
            })
            .unwrap_or_else(|| panic!("{algorithm:?}: {attempts} acquires and no error"));
        assert!(
            guards.len() >= service.capacity(),
            "{algorithm:?}: failed after {} wins, below capacity {}",
            guards.len(),
            service.capacity()
        );
        assert_eq!(
            err,
            NamespaceExhausted {
                namespace: service.namespace_size()
            },
            "{algorithm:?}"
        );
        drop(guards);
        // After draining, acquisition works again.
        assert!(service.acquire().is_ok(), "{algorithm:?}");
    }
}

/// Serves `algorithm` over `slot()`-made TAS slots: each object is
/// built with its `from_parts` constructor at the builder's defaults
/// (paper schedule, `ε = 1`, `β = 3`) and wrapped by
/// `NameService::with_backend`, with the oracle on. Returns the shared
/// slots too, so a caller can read a counting substrate.
fn service_over<T: Tas + 'static>(
    algorithm: Algorithm,
    capacity: usize,
    seed: u64,
    slot: impl Fn() -> T,
) -> Result<(NameService, Arc<TasArray<T>>), RenamingError> {
    let schedule = ProbeSchedule::paper(Epsilon::one(), DEFAULT_BETA)?;
    let batch = BatchLayout::shared(capacity, schedule)?;
    let adaptive = Arc::new(AdaptiveLayout::for_capacity(capacity, schedule)?);
    let len = match algorithm {
        Algorithm::Rebatching => batch.namespace_size(),
        Algorithm::Adaptive | Algorithm::FastAdaptive => adaptive.total_size(),
        Algorithm::Uniform | Algorithm::SingleBatch => 2 * capacity,
        Algorithm::LinearScan => capacity,
        Algorithm::Doubling => 4 * capacity,
    };
    let slots = Arc::new(TasArray::from_slots((0..len).map(|_| slot()).collect()));
    let parts = Arc::clone(&slots);
    let backend: Arc<dyn ServiceBackend> = match algorithm {
        Algorithm::Rebatching => Arc::new(Rebatching::from_parts(batch, parts)?),
        Algorithm::Adaptive => Arc::new(AdaptiveRebatching::from_parts(adaptive, parts)?),
        Algorithm::FastAdaptive => Arc::new(FastAdaptiveRebatching::from_parts(adaptive, parts)?),
        Algorithm::Uniform => Arc::new(UniformRenaming::from_parts(capacity, parts)?),
        Algorithm::LinearScan => Arc::new(LinearScanRenaming::from_parts(capacity, parts)?),
        Algorithm::SingleBatch => {
            let budget = (usize::BITS - len.leading_zeros()) as usize + 3;
            Arc::new(SingleBatchRenaming::from_parts(capacity, budget, parts)?)
        }
        Algorithm::Doubling => Arc::new(DoublingRenaming::from_parts(capacity, 2, parts)?),
    };
    let mut service = NameService::with_backend(backend, SeedPolicy::Fixed(seed));
    service.enable_oracle();
    Ok((service, slots))
}

/// The register-based tournament substrate: a `TicketTas<TournamentTas>`
/// per name. Every probe of a slot burns one of its epoch's contender
/// tickets and a release reissues them, so the window only has to cover
/// the probes between a win and its release — bounded by the concurrent
/// acquirers. It holds `max(2·capacity, 8)`.
fn tournament_service(algorithm: Algorithm, capacity: usize, seed: u64) -> NameService {
    let contenders = (2 * capacity).max(8);
    let tournament = || TicketTas::new(TournamentTas::new(contenders));
    service_over(algorithm, capacity, seed, tournament)
        .unwrap_or_else(|e| panic!("{algorithm:?}: {e}"))
        .0
}

/// Tournament-substrate churn: the mirror of `stress` on the register
/// substrate. Sized from the built namespace so the churn is always
/// ≥ 10× its size — far beyond both the namespace and every slot's
/// per-epoch ticket window, so this passes only if releases really
/// reset the register trees (O(1) epoch bumps) and reissue tickets.
fn stress_tournament(algorithm: Algorithm, threads: usize) {
    let service = tournament_service(algorithm, threads, 0x70AB);
    let iterations = (10 * service.namespace_size()).div_ceil(threads) + 5;
    churn(&service, threads, iterations);
    assert!(threads * iterations >= 10 * service.namespace_size());
}

#[test]
fn tournament_rebatching_churn_is_unique_and_recycles() {
    stress_tournament(Algorithm::Rebatching, 4);
}

#[test]
fn tournament_adaptive_churn_is_unique_and_recycles() {
    // Also exercises abandoned-win recycling over the register trees:
    // a superseded race/search win is released by resetting a slot the
    // machine (not the caller) won — same epoch-bump path.
    stress_tournament(Algorithm::Adaptive, 4);
}

#[test]
fn tournament_fast_adaptive_churn_is_unique_and_recycles() {
    stress_tournament(Algorithm::FastAdaptive, 4);
}

#[test]
fn tournament_ticket_exhaustion_is_an_error_and_heals_on_release() {
    // Capacity 2 ⇒ each slot's tournament holds max(2·2, 8) = 8
    // contender tickets per epoch. Holding the whole namespace while
    // spamming acquires burns far more than that per slot; every failed
    // acquire must surface the structured exhaustion error — never a
    // panic, never a duplicate name.
    let service = tournament_service(Algorithm::Rebatching, 2, 0xE4A);
    let guards: Vec<_> = (0..service.namespace_size())
        .map(|_| service.acquire().expect("namespace not yet full"))
        .collect();
    for _ in 0..40 {
        match service.acquire() {
            Err(NamespaceExhausted { namespace }) => {
                assert_eq!(namespace, service.namespace_size());
            }
            Ok(guard) => panic!("duplicate name {} while namespace full", guard.value()),
        }
    }
    drop(guards);
    assert_eq!(service.held(), 0);
    // The releases bumped every slot's epoch, reissuing its tickets:
    // the pre-reset bug left the pid space drained for good here.
    for _ in 0..20 {
        let guard = service.acquire().expect("ticket windows reissued");
        drop(guard);
    }
    assert_eq!(service.held(), 0);
}

/// Single-threaded churn to 10× the namespace size over counted slots:
/// every name comes back, the oracle's verdict is clean, and each
/// acquire performs at least one counted `test_and_set`.
fn churn_counted<T: Tas + 'static>(algorithm: Algorithm, slot: impl Fn() -> CountingTas<T>) {
    let (service, slots) =
        service_over(algorithm, 8, 0xC0DE, slot).unwrap_or_else(|e| panic!("{algorithm:?}: {e}"));
    let acquires = 10 * service.namespace_size();
    for _ in 0..acquires {
        let guard = service
            .acquire()
            .unwrap_or_else(|e| panic!("{algorithm:?}: {e}"));
        assert!(guard.value() < service.namespace_size(), "{algorithm:?}");
    }
    assert_eq!(service.held(), 0, "{algorithm:?}: drops must recycle");
    let verdict = service.oracle_verdict().expect("oracle enabled");
    assert!(verdict.is_clean() && verdict.drained(), "{algorithm:?}");
    let ops: u64 = (0..slots.len()).map(|i| slots.slot(i).tas_ops()).sum();
    assert!(
        ops >= acquires as u64,
        "{algorithm:?}: {ops} counted TAS ops for {acquires} acquires"
    );
}

/// Every algorithm, baselines included, over `CountingSlot` and over
/// counted tournament slots, each served through `with_backend`.
#[test]
fn every_algorithm_serves_counting_and_tournament_slots() {
    for algorithm in Algorithm::all() {
        churn_counted(algorithm, || CountingSlot::new(AtomicTas::new()));
        // max(2·8, 8) contender tickets per epoch, as `tournament_service`
        // provisions a capacity-8 namespace.
        churn_counted(algorithm, || {
            CountingTas::new(TicketTas::new(TournamentTas::new(16)))
        });
    }
}
