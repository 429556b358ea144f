//! "Test the tester": seeded-violation mutations for the concurrency
//! oracle. A checker that cannot fail is not a check — each test here
//! injects one specific safety violation (a backend that double-issues
//! a name, a release path that bypasses the oracle, a conservation-law
//! off-by-one) and asserts the checker flags it with the right
//! verdict, plus positive coverage for the consistent-snapshot path.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use std::convert::Infallible;

use loose_renaming::prelude::*;
use loose_renaming::service::{PooledSession, ServiceBackend, SeedPolicy};
use rand::RngCore;

/// A deliberately broken backend: every acquire returns name 0, so any
/// two concurrent (or even back-to-back unreleased) holders collide.
#[derive(Debug)]
struct DoubleIssuing {
    held: Arc<AtomicUsize>,
}

#[derive(Debug)]
struct FixedSession {
    held: Arc<AtomicUsize>,
}

impl PooledSession for FixedSession {
    fn acquire(&mut self, _rng: &mut dyn RngCore) -> Result<Name, NamespaceExhausted> {
        self.held.fetch_add(1, Ordering::SeqCst);
        Ok(Name::new(0))
    }

    fn acquire_batch(
        &mut self,
        count: usize,
        rng: &mut dyn RngCore,
        out: &mut Vec<Name>,
    ) -> Result<(), NamespaceExhausted> {
        for _ in 0..count {
            out.push(self.acquire(rng)?);
        }
        Ok(())
    }
}

impl Namespace for DoubleIssuing {
    fn release(&self, _name: Name) -> Result<(), Infallible> {
        self.held.fetch_sub(1, Ordering::SeqCst);
        Ok(())
    }

    fn namespace_size(&self) -> usize {
        8
    }

    fn capacity(&self) -> usize {
        4
    }

    fn held(&self) -> usize {
        self.held.load(Ordering::SeqCst)
    }

    fn algorithm(&self) -> &'static str {
        "double-issuing"
    }
}

impl ServiceBackend for DoubleIssuing {
    fn open_session(&self) -> Box<dyn PooledSession> {
        Box::new(FixedSession {
            held: Arc::clone(&self.held),
        })
    }
}

/// Mutation 1: a namespace that double-issues. The record-time holder
/// cell must flag the `DoubleIssue`, and the replay checker must also
/// call the two holds overlapping — two independent detections of the
/// same seeded bug.
#[test]
fn double_issuing_backend_is_flagged() {
    let backend = Arc::new(DoubleIssuing {
        held: Arc::new(AtomicUsize::new(0)),
    });
    let mut service = NameService::with_backend(backend, SeedPolicy::Fixed(1));
    service.enable_oracle();

    let first = service.acquire_name().expect("acquire");
    let second = service.acquire_name().expect("acquire");
    assert_eq!(first.value(), 0);
    assert_eq!(second.value(), 0, "the seeded bug double-issues name 0");

    let verdict = service.oracle_verdict().expect("oracle enabled");
    assert!(!verdict.is_clean(), "the checker must not bless a double issue");
    assert!(
        verdict
            .history
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DoubleIssue { name: 0, .. })),
        "record-time holder cell missed the double issue: {:?}",
        verdict.history.violations
    );
    assert!(
        verdict
            .history
            .violations
            .iter()
            .any(|v| matches!(v, Violation::OverlappingHolds { name: 0, .. })),
        "replay checker missed the overlapping holds: {:?}",
        verdict.history.violations
    );
}

/// Mutation 2: a guard that skips release — modeled by detaching the
/// name and returning it straight to the backend, behind the oracle's
/// back. The backend says everything drained; the history still shows
/// a live hold. The verdict must notice the disagreement.
#[test]
fn release_bypassing_the_oracle_is_detected() {
    let service = NameService::builder(Algorithm::Rebatching, 4)
        .oracle(true)
        .seed_policy(SeedPolicy::Fixed(0x0DD1))
        .build()
        .expect("build");
    let name = service.acquire().expect("acquire").into_name();
    // The seeded bug: release lands on the backend without the oracle
    // hook ever firing.
    let Ok(()) = service.backend().release(name);
    assert_eq!(service.held(), 0, "backend believes it drained");

    let verdict = service.oracle_verdict().expect("oracle enabled");
    assert_eq!(verdict.history.live_at_exit, 1, "the history still holds the win");
    assert!(
        !verdict.held_matches_history(),
        "history/backend agreement check missed the skipped release"
    );
    assert!(!verdict.is_clean());
    assert!(!verdict.drained());
}

/// Mutation 3: a conservation-law off-by-one. Start from a genuinely
/// clean verdict, then perturb each worker counter by one — every
/// perturbation must flip `workers_conserved` (and with it
/// `is_clean`).
#[test]
fn worker_conservation_off_by_one_is_detected() {
    let service = NameService::builder(Algorithm::Rebatching, 4)
        .oracle(true)
        .seed_policy(SeedPolicy::Fixed(0x0FF))
        .build()
        .expect("build");
    drop(service.acquire().expect("acquire"));

    let clean = service.oracle_verdict().expect("oracle enabled");
    assert!(clean.is_clean() && clean.workers_conserved());

    for (dc, dp) in [(1i64, 0i64), (0, 1), (0, -1)] {
        let mut tampered = clean.clone();
        tampered.workers.created = tampered.workers.created.wrapping_add_signed(dc);
        tampered.workers.pooled = tampered.workers.pooled.wrapping_add_signed(dp);
        assert!(
            !tampered.workers_conserved(),
            "off-by-one (created{dc:+}, pooled{dp:+}) slipped past the conservation law"
        );
        assert!(!tampered.is_clean());
    }
}

/// Out-of-bounds names and capacity excess, driven straight into the
/// recorder: the checker must flag both even though no real backend in
/// this tree can produce them.
#[test]
fn bounds_and_capacity_violations_are_detected() {
    let oracle = Oracle::new(4, 2);
    oracle.acquire_start();
    oracle.acquire_win(7); // namespace is 0..4
    for name in 0..3 {
        oracle.acquire_start();
        oracle.acquire_win(name); // third live hold exceeds capacity 2
    }
    let report = oracle.verdict();
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::NameOutOfBounds { name: 7, .. })));
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::CapacityExceeded { .. })));
}

/// Positive snapshot coverage at the service level: cuts taken while
/// names are held must be consistent and report the held count; a cut
/// after draining reports zero.
#[test]
fn snapshots_report_live_occupancy_at_the_cut() {
    let service = NameService::builder(Algorithm::Rebatching, 8)
        .oracle(true)
        .seed_policy(SeedPolicy::Fixed(0x57A9))
        .build()
        .expect("build");
    let oracle = service.oracle().expect("enabled").clone();

    let guards: Vec<NameGuard<&NameService>> =
        (0..3).map(|_| service.acquire().expect("acquire")).collect();
    let first = oracle.snapshot();
    drop(guards);
    // A recording event after the bump moves this participant into the
    // new epoch; the drops above are already post-cut for `first`.
    drop(service.acquire().expect("acquire"));
    let second = oracle.snapshot();
    drop(service.acquire().expect("acquire"));

    let verdict = service.oracle_verdict().expect("oracle enabled");
    assert!(verdict.is_clean(), "violations: {:?}", verdict.history.violations);
    assert!(verdict.drained());
    let snaps = &verdict.history.snapshots;
    assert_eq!(snaps.len(), 2);
    assert!(snaps.iter().all(|s| s.consistent));
    assert_eq!(snaps[(first - 1) as usize].live_at_cut, 3, "three names held at the first cut");
    assert_eq!(snaps[(second - 1) as usize].live_at_cut, 0, "drained at the second cut");
}

/// The zero-cost-when-off contract: a service built without the oracle
/// reports no verdict and records nothing.
#[test]
fn oracle_off_means_no_verdict() {
    let service = NameService::builder(Algorithm::Rebatching, 4)
        .seed_policy(SeedPolicy::Fixed(2))
        .build()
        .expect("build");
    drop(service.acquire().expect("acquire"));
    assert!(service.oracle().is_none());
    assert!(service.oracle_verdict().is_none());
}
