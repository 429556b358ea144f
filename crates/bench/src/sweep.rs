//! The typed-sweep harness: deterministic, optionally parallel trial
//! execution on the monomorphic engine tier.
//!
//! Every paper experiment boils down to the same loop: run `trials`
//! independent executions of some machine fleet under some adversary,
//! one derived seed per trial, and aggregate the reports. This module
//! packages that loop once, on the fast path PR 1 built:
//!
//! * **Typed engine** — trials run through
//!   [`Execution::run_typed_in`] with [`MachineKind`]-built
//!   [`AnyMachine`] fleets, an [`AnyAdversary`] scheduler and
//!   [`FastRng`] coins, at the ~6× throughput of the boxed tier the
//!   experiments used to call.
//! * **Scratch reuse** — each worker owns one
//!   [`EngineScratch`] and one fleet buffer ([`SweepWorker`]), so
//!   steady-state trials perform no engine allocation.
//! * **Parallel trials** — [`Sweep::trials`] fans trials out over
//!   scoped threads (`std::thread::scope`), one worker per
//!   thread. Results are **deterministic at any thread count**: each
//!   trial's outcome depends only on its trial index (its seed is
//!   derived from the index, never from scheduling), trials are striped
//!   over workers statically, and the result vector is reassembled in
//!   trial order. `--threads 1` and `--threads N` produce byte-identical
//!   experiment reports (enforced by CI).
//!
//! The adversary counterpart of [`MachineKind`] lives here too:
//! [`AdversaryKind`] names a strategy from the closed built-in set and
//! builds a fresh [`AnyAdversary`] per trial (schedulers are stateful,
//! so they are never shared across trials).

use rand::RngCore;

use renaming_core::FastRng;
use renaming_sim::adversary::{
    Adversary, CollisionSeeker, LayeredPermutation, PendingSet, RoundRobin, SchedView, Starver,
    UniformRandom,
};
use renaming_sim::{CrashPlan, EngineScratch, Execution, ExecutionReport, ProcessId};

use crate::machine_kind::{AnyMachine, MachineKind};

/// A recipe for one adversary from the closed built-in strategy set —
/// the scheduler counterpart of [`MachineKind`]. Copyable, so sweeps
/// rebuild a fresh (stateful) adversary for every trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryKind {
    /// Fair, oblivious round-robin cycles.
    RoundRobin,
    /// A uniformly random schedulable process per step.
    UniformRandom,
    /// The §6 lower-bound layered schedule.
    LayeredPermutation,
    /// Strong adversary steering colliding probes together.
    CollisionSeeker,
    /// Strong adversary starving the given process.
    Starver(ProcessId),
}

impl AdversaryKind {
    /// Every built-in strategy, in the presentation order of
    /// `renaming_sim::adversary::all_strategies`.
    pub fn all() -> Vec<AdversaryKind> {
        vec![
            AdversaryKind::RoundRobin,
            AdversaryKind::UniformRandom,
            AdversaryKind::LayeredPermutation,
            AdversaryKind::CollisionSeeker,
            AdversaryKind::Starver(0),
        ]
    }

    /// Builds a fresh adversary.
    pub fn build(self) -> AnyAdversary {
        match self {
            AdversaryKind::RoundRobin => AnyAdversary::RoundRobin(RoundRobin::new()),
            AdversaryKind::UniformRandom => AnyAdversary::UniformRandom(UniformRandom::new()),
            AdversaryKind::LayeredPermutation => {
                AnyAdversary::LayeredPermutation(LayeredPermutation::new())
            }
            AdversaryKind::CollisionSeeker => AnyAdversary::CollisionSeeker(CollisionSeeker::new()),
            AdversaryKind::Starver(victim) => AnyAdversary::Starver(Starver::new(victim)),
        }
    }

    /// The strategy's report label.
    pub fn label(self) -> &'static str {
        self.build().label()
    }
}

/// One built adversary from the closed set, dispatching [`Adversary`]
/// by `match` — the scheduler counterpart of [`AnyMachine`], keeping
/// the typed engine tier free of adversary vtables.
#[derive(Debug)]
pub enum AnyAdversary {
    /// Fair round-robin.
    RoundRobin(RoundRobin),
    /// Uniformly random.
    UniformRandom(UniformRandom),
    /// Layered permutation schedule.
    LayeredPermutation(LayeredPermutation),
    /// Collision-seeking strong adversary.
    CollisionSeeker(CollisionSeeker),
    /// Starvation strong adversary.
    Starver(Starver),
}

macro_rules! dispatch {
    ($self:expr, $a:ident => $body:expr) => {
        match $self {
            AnyAdversary::RoundRobin($a) => $body,
            AnyAdversary::UniformRandom($a) => $body,
            AnyAdversary::LayeredPermutation($a) => $body,
            AnyAdversary::CollisionSeeker($a) => $body,
            AnyAdversary::Starver($a) => $body,
        }
    };
}

impl Adversary for AnyAdversary {
    fn next(&mut self, view: &SchedView<'_>, rng: &mut dyn RngCore) -> ProcessId {
        dispatch!(self, a => a.next(view, rng))
    }

    #[inline]
    fn next_typed<R: RngCore>(&mut self, view: &SchedView<'_>, rng: &mut R) -> ProcessId {
        dispatch!(self, a => a.next_typed(view, rng))
    }

    fn on_executed(&mut self, pid: ProcessId, location: usize, won: bool, pending: &PendingSet) {
        dispatch!(self, a => a.on_executed(pid, location, won, pending))
    }

    fn layers(&self) -> Option<u64> {
        dispatch!(self, a => a.layers())
    }

    fn wants_location_index(&self) -> bool {
        dispatch!(self, a => a.wants_location_index())
    }

    fn label(&self) -> &'static str {
        dispatch!(self, a => a.label())
    }
}

/// One trial of a typed sweep: a fleet of `count` machines built from
/// `kind`, probing `memory` locations under `adversary`, seeded with
/// `seed` (and optionally crashing per `crash_plan`).
#[derive(Debug)]
pub struct TrialSpec<'a> {
    /// Shared-memory size (number of TAS locations).
    pub memory: usize,
    /// Fleet size.
    pub count: usize,
    /// The machine recipe.
    pub kind: &'a MachineKind,
    /// The scheduler recipe (built fresh for the trial).
    pub adversary: AdversaryKind,
    /// The execution seed. Derive it from the trial index only, never
    /// from scheduling state, to keep parallel sweeps deterministic.
    pub seed: u64,
    /// Optional fail-stop crash schedule.
    pub crash_plan: Option<CrashPlan>,
}

impl<'a> TrialSpec<'a> {
    /// A crash-free trial spec.
    pub fn new(
        memory: usize,
        count: usize,
        kind: &'a MachineKind,
        adversary: AdversaryKind,
        seed: u64,
    ) -> Self {
        Self {
            memory,
            count,
            kind,
            adversary,
            seed,
            crash_plan: None,
        }
    }

    /// Adds a fail-stop crash schedule.
    #[must_use]
    pub fn with_crashes(mut self, plan: CrashPlan) -> Self {
        self.crash_plan = Some(plan);
        self
    }
}

/// Per-worker engine state: one [`EngineScratch`] plus a fleet buffer,
/// reused across every trial the worker executes, so steady-state
/// sweeps allocate nothing per trial beyond what machines themselves
/// do.
#[derive(Debug, Default)]
pub struct SweepWorker {
    scratch: EngineScratch<AnyMachine, FastRng>,
    fleet: Vec<AnyMachine>,
}

impl SweepWorker {
    /// Creates an empty worker; the first trial sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one trial on the typed engine tier.
    ///
    /// # Panics
    ///
    /// Panics if the execution reports a safety violation (duplicate
    /// names, out-of-bounds probes, livelock) — experiments treat that
    /// as a hard bug in the algorithm under test, never as data.
    pub fn run(&mut self, spec: &TrialSpec<'_>) -> ExecutionReport {
        self.fleet.clear();
        spec.kind.extend_fleet(&mut self.fleet, spec.count);
        let mut execution = Execution::new(spec.memory).seed(spec.seed);
        if let Some(plan) = &spec.crash_plan {
            execution = execution.crash_plan(plan.clone());
        }
        execution
            .run_typed_in::<_, _, FastRng, _>(
                &mut self.scratch,
                self.fleet.drain(..),
                spec.adversary.build(),
            )
            .expect("safety violation in experiment trial")
    }
}

/// A deterministic, optionally parallel trial runner.
///
/// Cheap to construct (copy of a seed and a thread count); experiments
/// get one from `Harness::sweep()` per sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    seed: u64,
    threads: usize,
}

impl Sweep {
    /// Creates a sweep running trials on up to `threads` worker threads
    /// (clamped to at least 1).
    pub fn new(seed: u64, threads: usize) -> Self {
        Self {
            seed,
            threads: threads.max(1),
        }
    }

    /// The base seed experiments derive per-trial seeds from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured worker-thread cap.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `count` trials of `f`, each on a reusable [`SweepWorker`],
    /// and returns the results in trial order.
    ///
    /// With more than one thread, trials are striped statically over
    /// workers (`worker w` runs trials `w, w+T, w+2T, ...`) and the
    /// output is reassembled by index, so the result is identical at
    /// any thread count as long as `f(trial, _)` depends only on the
    /// trial index — which also makes it identical across *runs*.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f` (e.g. safety violations).
    pub fn trials<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut SweepWorker) -> T + Sync,
    {
        let threads = self.threads.min(count.max(1));
        if threads <= 1 {
            let mut worker = SweepWorker::new();
            return (0..count).map(|trial| f(trial, &mut worker)).collect();
        }
        let buckets: Vec<Vec<T>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let f = &f;
                    s.spawn(move || {
                        let mut worker = SweepWorker::new();
                        (w..count)
                            .step_by(threads)
                            .map(|trial| f(trial, &mut worker))
                            .collect::<Vec<T>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });
        // Reassemble in trial order: trial t is the (t / threads)-th
        // result of worker t % threads.
        let mut cursors: Vec<_> = buckets.into_iter().map(Vec::into_iter).collect();
        (0..count)
            .map(|t| cursors[t % threads].next().expect("bucket sized to stripe"))
            .collect()
    }

    /// Deterministic parallel map over `0..count` for work that needs no
    /// engine state (e.g. numeric recurrences); results in index order.
    pub fn map<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.trials(count, |i, _| f(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::paper_layout;
    use std::sync::Arc;

    fn spec_reports(threads: usize, trials: usize) -> Vec<ExecutionReport> {
        let layout = paper_layout(64);
        let kind = MachineKind::Rebatching {
            layout: Arc::clone(&layout),
            base: 0,
        };
        Sweep::new(42, threads).trials(trials, |trial, worker| {
            let adversary = if trial % 2 == 0 {
                AdversaryKind::RoundRobin
            } else {
                AdversaryKind::UniformRandom
            };
            worker.run(&TrialSpec::new(
                layout.namespace_size(),
                64,
                &kind,
                adversary,
                42 ^ (trial as u64) << 8,
            ))
        })
    }

    fn fingerprint(reports: &[ExecutionReport]) -> String {
        format!("{reports:?}")
    }

    #[test]
    fn results_are_identical_at_any_thread_count() {
        let single = spec_reports(1, 7);
        for threads in [2, 3, 8] {
            let parallel = spec_reports(threads, 7);
            assert_eq!(
                fingerprint(&single),
                fingerprint(&parallel),
                "thread count {threads} changed sweep results"
            );
        }
    }

    #[test]
    fn worker_reuse_does_not_leak_state_between_trials() {
        // Running the same spec twice on one worker must give identical
        // reports (EngineScratch resets everything per execution).
        let layout = paper_layout(32);
        let kind = MachineKind::Rebatching {
            layout: Arc::clone(&layout),
            base: 0,
        };
        let spec = TrialSpec::new(
            layout.namespace_size(),
            32,
            &kind,
            AdversaryKind::UniformRandom,
            9,
        );
        let mut worker = SweepWorker::new();
        let a = worker.run(&spec);
        let b = worker.run(&spec);
        assert_eq!(fingerprint(&[a]), fingerprint(&[b]));
    }

    #[test]
    fn crash_plans_apply_on_the_typed_tier() {
        let layout = paper_layout(32);
        let kind = MachineKind::Rebatching {
            layout: Arc::clone(&layout),
            base: 0,
        };
        let plan = CrashPlan::random_fraction(32, 0.5, 64, 3);
        let expected = plan.crash_count();
        assert!(expected > 0);
        let spec = TrialSpec::new(
            layout.namespace_size(),
            32,
            &kind,
            AdversaryKind::UniformRandom,
            3,
        )
        .with_crashes(plan);
        let report = SweepWorker::new().run(&spec);
        assert!(report.crashed_count() > 0);
        assert!(report.crashed_count() <= expected);
        assert_eq!(report.named_count() + report.crashed_count(), 32);
    }

    #[test]
    fn adversary_kinds_match_builtin_strategies() {
        let kinds = AdversaryKind::all();
        let builtins = renaming_sim::adversary::all_strategies();
        assert_eq!(kinds.len(), builtins.len());
        for (kind, builtin) in kinds.iter().zip(&builtins) {
            assert_eq!(kind.label(), builtin.label());
        }
        // Strong adversaries keep their location-index requirement
        // through the enum dispatch.
        assert!(AdversaryKind::CollisionSeeker.build().wants_location_index());
        assert!(!AdversaryKind::RoundRobin.build().wants_location_index());
    }

    #[test]
    fn map_preserves_index_order() {
        let squares = Sweep::new(0, 4).map(10, |i| i * i);
        assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }
}
