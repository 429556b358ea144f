//! Engine-tier equivalence: the monomorphic fast path must produce
//! *identical* reports to the boxed path.
//!
//! Both tiers are instantiations of one generic engine, and with the same
//! RNG type (`StdRng`) they must consume identical coin streams and make
//! identical scheduling decisions. This suite compares full
//! `ExecutionReport`s — including complete probe-level traces — from both
//! tiers field for field, across the three paper machines and multiple
//! adversaries. It is the license for using the
//! fast path in experiments: anything measured on it could have been
//! measured (slower) on the boxed path.

use std::sync::Arc;

use loose_renaming::core::{
    AdaptiveLayout, AdaptiveMachine, BatchLayout, Epsilon, FastAdaptiveMachine, ProbeSchedule,
    RebatchingMachine,
};
use loose_renaming::sim::adversary::{Adversary, CollisionSeeker, RoundRobin, UniformRandom};
use loose_renaming::sim::{EngineScratch, Execution, Renamer};
use rand::rngs::StdRng;
use renaming_bench::MachineKind;

fn schedule() -> ProbeSchedule {
    ProbeSchedule::paper(Epsilon::one(), 3).expect("valid")
}

type AdversaryFactory = fn() -> Box<dyn Adversary>;

fn adversaries() -> Vec<(&'static str, AdversaryFactory)> {
    vec![
        ("round-robin", || Box::new(RoundRobin::new())),
        ("uniform-random", || Box::new(UniformRandom::new())),
        ("collision-seeker", || Box::new(CollisionSeeker::new())),
    ]
}

/// Runs the boxed tier and the typed tier (same `StdRng` streams) and
/// asserts the reports are equal.
fn assert_equivalent<M, F, G>(memory: usize, n: usize, seed: u64, boxed: F, typed: G, label: &str)
where
    M: Renamer,
    F: Fn() -> Box<dyn Renamer>,
    G: Fn() -> M,
{
    for (adv_label, adversary) in adversaries() {
        let boxed_machines: Vec<Box<dyn Renamer>> = (0..n).map(|_| boxed()).collect();
        let report_boxed = Execution::new(memory)
            .adversary(adversary())
            .seed(seed)
            .tracing(true)
            .run(boxed_machines)
            .unwrap_or_else(|e| panic!("{label}/{adv_label} boxed: {e}"));

        let typed_machines: Vec<M> = (0..n).map(|_| typed()).collect();
        let report_typed = Execution::new(memory)
            .seed(seed)
            .tracing(true)
            .run_typed::<_, _, StdRng>(typed_machines, adversary())
            .unwrap_or_else(|e| panic!("{label}/{adv_label} typed: {e}"));

        assert_eq!(
            report_boxed, report_typed,
            "{label} under {adv_label}: tiers diverged"
        );
        assert!(report_typed.named_count() > 0, "{label}: nobody named");
    }
}

#[test]
fn rebatching_typed_path_is_byte_identical() {
    let layout = BatchLayout::shared(96, schedule()).expect("layout");
    for seed in [0u64, 7, 42] {
        let l1 = Arc::clone(&layout);
        let l2 = Arc::clone(&layout);
        assert_equivalent(
            layout.namespace_size(),
            96,
            seed,
            move || Box::new(RebatchingMachine::new(Arc::clone(&l1), 0)),
            move || RebatchingMachine::new(Arc::clone(&l2), 0),
            "rebatching",
        );
    }
}

#[test]
fn adaptive_typed_path_is_byte_identical() {
    let layout = Arc::new(AdaptiveLayout::for_capacity(128, schedule()).expect("layout"));
    for seed in [1u64, 13] {
        let l1 = Arc::clone(&layout);
        let l2 = Arc::clone(&layout);
        assert_equivalent(
            layout.total_size(),
            48,
            seed,
            move || Box::new(AdaptiveMachine::new(Arc::clone(&l1))),
            move || AdaptiveMachine::new(Arc::clone(&l2)),
            "adaptive",
        );
    }
}

#[test]
fn fast_adaptive_typed_path_is_byte_identical() {
    let layout = Arc::new(AdaptiveLayout::for_capacity(128, schedule()).expect("layout"));
    for seed in [2u64, 29] {
        let l1 = Arc::clone(&layout);
        let l2 = Arc::clone(&layout);
        assert_equivalent(
            layout.total_size(),
            48,
            seed,
            move || Box::new(FastAdaptiveMachine::new(Arc::clone(&l1))),
            move || FastAdaptiveMachine::new(Arc::clone(&l2)),
            "fast-adaptive",
        );
    }
}

#[test]
fn machine_kind_enum_matches_boxed_tier() {
    // The bench crate's match-dispatched enum is a third representation of
    // the same machines; it must agree with the boxed tier too.
    let layout = BatchLayout::shared(64, schedule()).expect("layout");
    let kind = MachineKind::Rebatching {
        layout: Arc::clone(&layout),
        base: 0,
    };
    let k1 = kind.clone();
    let k2 = kind;
    assert_equivalent(
        layout.namespace_size(),
        64,
        11,
        move || k1.boxed(),
        move || k2.instantiate(),
        "machine-kind",
    );
}

#[test]
fn scratch_reuse_does_not_change_results() {
    // Reusing the engine scratch across runs must be invisible in the
    // reports, including across different sizes.
    let mut scratch = EngineScratch::new();
    let mut fresh_reports = Vec::new();
    let mut reused_reports = Vec::new();
    for &n in &[48usize, 96, 24] {
        let layout = BatchLayout::shared(n, schedule()).expect("layout");
        let machines = |layout: &Arc<BatchLayout>| {
            (0..n)
                .map(|_| RebatchingMachine::new(Arc::clone(layout), 0))
                .collect::<Vec<_>>()
        };
        let fresh = Execution::new(layout.namespace_size())
            .seed(5)
            .tracing(true)
            .run_typed::<_, _, StdRng>(machines(&layout), UniformRandom::new())
            .expect("fresh run");
        let reused = Execution::new(layout.namespace_size())
            .seed(5)
            .tracing(true)
            .run_typed_in::<_, _, StdRng, _>(&mut scratch, machines(&layout), UniformRandom::new())
            .expect("reused run");
        fresh_reports.push(fresh);
        reused_reports.push(reused);
    }
    assert_eq!(fresh_reports, reused_reports);
}
