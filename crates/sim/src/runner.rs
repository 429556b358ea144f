//! The execution runner: drives step machines under an adversary.
//!
//! The runner is a single generic engine instantiated at two tiers:
//!
//! * the **boxed tier** ([`Execution::run`]) takes `Vec<Box<dyn Renamer>>`
//!   and a boxed adversary — maximally flexible, used by code that mixes
//!   machine types in one execution;
//! * the **monomorphic tier** ([`Execution::run_typed`]) takes concrete
//!   machine, adversary and RNG types, so the whole per-probe loop
//!   compiles down without heap-allocated machines or adversary vtables.
//!   Paired with a cheap RNG (e.g. `renaming-core`'s xoshiro-based
//!   `FastRng`) this is the throughput path for large experiment sweeps.
//!
//! Both tiers share the same engine function, so they cannot drift: with
//! the same seed, machines and adversary they produce byte-identical
//! reports (asserted by the top-level `engine_equivalence` test suite).

use std::fmt;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::adversary::{Adversary, PendingSet, RoundRobin, SchedView};
use crate::{
    Action, CrashPlan, ExecutionReport, MachineStats, Name, ProcessId, ProcessOutcome, Renamer,
    SimError, TasMemory,
};

/// Step budget multiplier: an execution of `n` processes over `m`
/// locations may take at most
/// `STEP_BUDGET_FACTOR · (n + m) · (max(⌊log₂ n⌋, 1) + 1)` steps before the
/// runner declares a livelock. Every algorithm in this workspace
/// terminates in `O(n + m)` worst-case steps per process, so this bound is
/// never hit by correct code.
const STEP_BUDGET_FACTOR: u64 = 64;

enum ProcessState {
    Running,
    Named(Name),
    Crashed,
    Stuck,
}

/// Which process holds each name: a flat vector indexed by name value for
/// the `0..memory_size` range every correct machine stays in (names are
/// location indices), plus a small spill list for arbitrary out-of-range
/// values from broken machines — duplicate detection stays correct there
/// without letting a bogus `Name::new(huge)` drive a huge allocation.
/// `usize::MAX` marks unclaimed names in the flat table — a simulation
/// cannot have that many processes, and the sentinel halves the table
/// against `Option<usize>`.
struct NameHolders {
    by_name: Vec<ProcessId>,
    overflow: Vec<(usize, ProcessId)>,
}

const UNCLAIMED: ProcessId = usize::MAX;

impl NameHolders {
    fn new(memory_size: usize) -> Self {
        Self {
            by_name: vec![UNCLAIMED; memory_size],
            overflow: Vec::new(),
        }
    }

    #[inline]
    fn claim(&mut self, name: Name, pid: ProcessId) -> Result<(), SimError> {
        let idx = name.value();
        if idx >= self.by_name.len() {
            // Out-of-range name: a machine bug. Linear scan is fine — the
            // spill list only ever holds such bogus names.
            if let Some(&(_, first)) = self.overflow.iter().find(|&&(v, _)| v == idx) {
                return Err(SimError::DuplicateName {
                    name,
                    first,
                    second: pid,
                });
            }
            self.overflow.push((idx, pid));
            return Ok(());
        }
        match self.by_name[idx] {
            UNCLAIMED => {
                self.by_name[idx] = pid;
                Ok(())
            }
            first => Err(SimError::DuplicateName {
                name,
                first,
                second: pid,
            }),
        }
    }

    /// Resets to `m` unclaimed names, reusing the allocation.
    fn reset_to(&mut self, m: usize) {
        self.by_name.clear();
        self.by_name.resize(m, UNCLAIMED);
        self.overflow.clear();
    }
}

/// Builder for a simulated execution.
///
/// Configure the shared-memory size, the adversary, an optional crash plan
/// and the random seed, then [`run`](Self::run) a vector of boxed step
/// machines — or [`run_typed`](Self::run_typed) concrete ones on the
/// monomorphic fast path.
///
/// # Example
///
/// See the [crate-level example](crate).
pub struct Execution {
    memory_size: usize,
    adversary: Box<dyn Adversary>,
    crash_plan: CrashPlan,
    seed: u64,
    tracing: bool,
}

impl fmt::Debug for Execution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Execution")
            .field("memory_size", &self.memory_size)
            .field("adversary", &self.adversary.label())
            .field("crashes", &self.crash_plan.crash_count())
            .field("seed", &self.seed)
            .finish()
    }
}

impl Execution {
    /// Creates an execution over `memory_size` TAS locations, scheduled
    /// round-robin with no crashes and seed 0.
    pub fn new(memory_size: usize) -> Self {
        Self {
            memory_size,
            adversary: Box::new(RoundRobin::new()),
            crash_plan: CrashPlan::none(),
            seed: 0,
            tracing: false,
        }
    }

    /// Enables probe-level tracing; the report's `trace` field will hold
    /// every shared-memory step (costs memory proportional to total
    /// steps).
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
        self
    }

    /// Sets the adversarial scheduler (used by [`run`](Self::run); the
    /// typed tier takes its adversary as an argument instead).
    pub fn adversary(mut self, adversary: Box<dyn Adversary>) -> Self {
        self.adversary = adversary;
        self
    }

    /// Sets the crash plan.
    pub fn crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash_plan = plan;
        self
    }

    /// Sets the master random seed. Per-process coin-flip streams and the
    /// adversary's randomness are derived from it deterministically, so a
    /// `(seed, machines, adversary, crash plan)` tuple fully reproduces an
    /// execution.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs boxed `machines` to completion under the configured adversary.
    ///
    /// # Errors
    ///
    /// * [`SimError::DuplicateName`] if the algorithm under test violates
    ///   uniqueness — the property tests rely on this check.
    /// * [`SimError::ProbeOutOfBounds`] if a machine probes outside the
    ///   memory.
    /// * [`SimError::StepLimitExceeded`] on livelock.
    /// * [`SimError::NoProcesses`] if `machines` is empty.
    pub fn run(self, machines: Vec<Box<dyn Renamer>>) -> Result<ExecutionReport, SimError> {
        let Execution {
            memory_size,
            adversary,
            crash_plan,
            seed,
            tracing,
        } = self;
        run_engine::<_, _, StdRng, _>(
            EngineConfig {
                memory_size,
                crash_plan,
                seed,
                tracing,
            },
            &mut EngineScratch::new(),
            machines,
            adversary,
        )
    }

    /// Monomorphic fast path: runs concrete `machines` under a concrete
    /// `adversary`, flipping coins with generator type `R`.
    ///
    /// This is the same engine as [`run`](Self::run) — identical
    /// scheduling, crash handling, accounting and safety checks — but
    /// instantiated without machine boxes or adversary vtables, so the
    /// per-probe loop monomorphizes and inlines. With `R = StdRng` the
    /// produced report is byte-identical to the boxed tier's for the same
    /// seed; with a cheaper generator (e.g. `renaming-core::FastRng`) it
    /// trades stream identity for throughput.
    ///
    /// The adversary configured via [`adversary`](Self::adversary) is
    /// ignored by this method; pass the typed adversary directly.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_typed<M, A, R>(
        self,
        machines: Vec<M>,
        adversary: A,
    ) -> Result<ExecutionReport, SimError>
    where
        M: Renamer,
        A: Adversary,
        R: RngCore + SeedableRng,
    {
        let mut scratch = EngineScratch::<M, R>::new();
        self.run_typed_in(&mut scratch, machines, adversary)
    }

    /// As [`run_typed`](Self::run_typed), but reusing `scratch` for all
    /// engine state, so a sweep of executions allocates its bookkeeping
    /// once instead of per trial (the "allocation-free" hot path: in
    /// steady state the engine performs no heap allocation per execution
    /// beyond what machines themselves do).
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_typed_in<M, A, R, I>(
        self,
        scratch: &mut EngineScratch<M, R>,
        machines: I,
        adversary: A,
    ) -> Result<ExecutionReport, SimError>
    where
        M: Renamer,
        A: Adversary,
        R: RngCore + SeedableRng,
        I: IntoIterator<Item = M>,
    {
        let Execution {
            memory_size,
            crash_plan,
            seed,
            tracing,
            ..
        } = self;
        run_engine::<M, A, R, _>(
            EngineConfig {
                memory_size,
                crash_plan,
                seed,
                tracing,
            },
            scratch,
            machines,
            adversary,
        )
    }
}

/// Reusable engine state for [`Execution::run_typed_in`]: all the
/// per-execution bookkeeping (process slots, pending set, simulated
/// memory, name-holder table), kept allocated between runs so sweeps pay
/// for it once.
pub struct EngineScratch<M, R> {
    slots: Vec<Slot<M, R>>,
    pending: PendingSet,
    memory: TasMemory,
    holders: NameHolders,
}

impl<M, R> EngineScratch<M, R> {
    /// Creates an empty scratch; the first run sizes it.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            pending: PendingSet::new(0),
            memory: TasMemory::new(0),
            holders: NameHolders::new(0),
        }
    }
}

impl<M, R> Default for EngineScratch<M, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M, R> fmt::Debug for EngineScratch<M, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineScratch")
            .field("slot_capacity", &self.slots.capacity())
            .field("memory_len", &self.memory.len())
            .finish()
    }
}

struct EngineConfig {
    memory_size: usize,
    crash_plan: CrashPlan,
    seed: u64,
    tracing: bool,
}

/// The engine shared by both tiers. `M`, `A` and `R` are `Box<dyn Renamer>`,
/// `Box<dyn Adversary>` and `StdRng` on the boxed tier; concrete types on
/// the monomorphic tier.
fn run_engine<M, A, R, I>(
    cfg: EngineConfig,
    scratch: &mut EngineScratch<M, R>,
    machines: I,
    adversary: A,
) -> Result<ExecutionReport, SimError>
where
    M: Renamer,
    A: Adversary,
    R: RngCore + SeedableRng,
    I: IntoIterator<Item = M>,
{
    let result = engine_loop(cfg, scratch, machines, adversary);
    // Drop the consumed machines now — on error paths too — rather than
    // at the scratch's next reuse (they may hold Arc references callers
    // expect released).
    scratch.slots.clear();
    result
}

/// The engine body; `run_engine` wraps it to guarantee slot cleanup on
/// every exit path.
fn engine_loop<M, A, R, I>(
    cfg: EngineConfig,
    scratch: &mut EngineScratch<M, R>,
    machines: I,
    mut adversary: A,
) -> Result<ExecutionReport, SimError>
where
    M: Renamer,
    A: Adversary,
    R: RngCore + SeedableRng,
    I: IntoIterator<Item = M>,
{
    // Array-of-structs process state: the scheduled pid's machine, coin
    // stream, step counter and fate live on adjacent cache lines, so the
    // random-process access pattern of adversarial schedules touches one
    // region per step instead of four parallel arrays.
    let slots = &mut scratch.slots;
    slots.clear();
    slots.extend(machines.into_iter().enumerate().map(|(pid, machine)| Slot {
        machine,
        rng: R::seed_from_u64(splitmix(cfg.seed ^ splitmix(pid as u64))),
        steps: 0,
        state: ProcessState::Running,
    }));
    let n = slots.len();
    if n == 0 {
        return Err(SimError::NoProcesses);
    }
    let step_limit = STEP_BUDGET_FACTOR
        * (n as u64 + cfg.memory_size as u64)
        * u64::from((n as u64).ilog2().max(1) + 1);

    let memory = &mut scratch.memory;
    memory.reset_to(cfg.memory_size);
    let pending = &mut scratch.pending;
    pending.reset_to(n, adversary.wants_location_index());
    let mut adv_rng = R::seed_from_u64(splitmix(cfg.seed.wrapping_add(0x9e37_79b9)));
    let holders = &mut scratch.holders;
    holders.reset_to(cfg.memory_size);
    let mut trace = cfg.tracing.then(crate::ExecutionTrace::new);

    // Bootstrap: every process proposes its first action.
    for (pid, slot) in slots.iter_mut().enumerate() {
        propose(pid, slot, pending, holders, cfg.memory_size)?;
    }

    let mut global_step = 0u64;
    let mut crash_cursor = 0usize;
    loop {
        for &(_, victim) in cfg.crash_plan.due(&mut crash_cursor, global_step) {
            if victim < n && matches!(slots[victim].state, ProcessState::Running) {
                slots[victim].state = ProcessState::Crashed;
                if pending.contains(victim) {
                    pending.remove(victim);
                }
            }
        }
        if pending.is_empty() {
            break;
        }
        let pid = {
            let view = SchedView {
                pending,
                memory,
                step: global_step,
            };
            adversary.next_typed(&view, &mut adv_rng)
        };
        // `location` panics if the adversary scheduled a non-pending
        // process — that is a bug in the adversary, not the algorithm.
        let location = pending.location(pid);
        let won = memory.test_and_set(location);
        if let Some(trace) = trace.as_mut() {
            trace.push(crate::TraceEvent {
                step: global_step,
                pid,
                location,
                won,
            });
        }
        global_step += 1;
        if global_step > step_limit {
            return Err(SimError::StepLimitExceeded { limit: step_limit });
        }
        adversary.on_executed(pid, location, won, pending);
        let slot = &mut slots[pid];
        slot.steps += 1;
        // Fused observe + next proposal; a re-probe re-aims the pending
        // entry in place instead of cycling through remove/add.
        match slot.machine.step_typed(won, &mut slot.rng) {
            Action::Probe(location) => {
                if location >= cfg.memory_size {
                    return Err(SimError::ProbeOutOfBounds {
                        pid,
                        location,
                        memory: cfg.memory_size,
                    });
                }
                pending.replace(pid, location);
            }
            Action::Done(name) => {
                pending.remove(pid);
                holders.claim(name, pid)?;
                slot.state = ProcessState::Named(name);
            }
            Action::Stuck => {
                pending.remove(pid);
                slot.state = ProcessState::Stuck;
            }
        }
    }

    let outcomes: Vec<ProcessOutcome> = slots
        .iter()
        .enumerate()
        .map(|(pid, slot)| match slot.state {
            ProcessState::Named(name) => ProcessOutcome::Named {
                name,
                steps: slot.steps,
            },
            ProcessState::Crashed => ProcessOutcome::Crashed { steps: slot.steps },
            ProcessState::Stuck => ProcessOutcome::Stuck { steps: slot.steps },
            ProcessState::Running => {
                unreachable!("process {pid} still running after quiescence")
            }
        })
        .collect();
    let stats: Vec<MachineStats> = slots.iter().map(|s| s.machine.stats()).collect();
    let report = ExecutionReport {
        outcomes,
        stats,
        algorithm: slots
            .first()
            .map(|s| s.machine.algorithm().to_owned())
            .unwrap_or_default(),
        adversary: adversary.label().to_owned(),
        total_steps: global_step,
        layers: adversary.layers(),
        set_count: memory.set_count(),
        trace,
    };
    Ok(report)
}

/// Per-process engine state, co-located for cache locality.
struct Slot<M, R> {
    machine: M,
    rng: R,
    steps: u64,
    state: ProcessState,
}

/// Asks the machine in `slot` for its next action and registers it;
/// finalizes the process if it terminates.
#[inline]
fn propose<M: Renamer, R: RngCore>(
    pid: ProcessId,
    slot: &mut Slot<M, R>,
    pending: &mut PendingSet,
    holders: &mut NameHolders,
    memory_size: usize,
) -> Result<(), SimError> {
    match slot.machine.propose_typed(&mut slot.rng) {
        Action::Probe(location) => {
            if location >= memory_size {
                return Err(SimError::ProbeOutOfBounds {
                    pid,
                    location,
                    memory: memory_size,
                });
            }
            pending.add(pid, location);
            Ok(())
        }
        Action::Done(name) => {
            holders.claim(name, pid)?;
            slot.state = ProcessState::Named(name);
            Ok(())
        }
        Action::Stuck => {
            slot.state = ProcessState::Stuck;
            Ok(())
        }
    }
}

/// SplitMix64 finalizer — decorrelates per-process seeds.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{LayeredPermutation, UniformRandom};
    use rand::Rng;
    use rand::RngCore;

    /// Scans locations left to right; wins the first free one.
    struct Scan {
        next: usize,
        done: Option<Name>,
    }

    impl Scan {
        fn boxed() -> Box<dyn Renamer> {
            Box::new(Scan {
                next: 0,
                done: None,
            })
        }
    }

    impl Renamer for Scan {
        fn propose(&mut self, _rng: &mut dyn RngCore) -> Action {
            match self.done {
                Some(name) => Action::Done(name),
                None => Action::Probe(self.next),
            }
        }
        fn observe(&mut self, won: bool) {
            if won {
                self.done = Some(Name::new(self.next));
            } else {
                self.next += 1;
            }
        }
        fn algorithm(&self) -> &'static str {
            "scan"
        }
    }

    /// Pathological machine: probes location 0 forever.
    struct Stubborn;
    impl Renamer for Stubborn {
        fn propose(&mut self, _rng: &mut dyn RngCore) -> Action {
            Action::Probe(0)
        }
        fn observe(&mut self, _won: bool) {}
    }

    /// Broken machine: everyone returns name 0 without probing.
    struct Broken;
    impl Renamer for Broken {
        fn propose(&mut self, _rng: &mut dyn RngCore) -> Action {
            Action::Done(Name::new(0))
        }
        fn observe(&mut self, _won: bool) {}
    }

    /// Broken machine returning a name far outside the memory.
    struct FarBroken;
    impl Renamer for FarBroken {
        fn propose(&mut self, _rng: &mut dyn RngCore) -> Action {
            Action::Done(Name::new(1_000_000))
        }
        fn observe(&mut self, _won: bool) {}
    }

    /// Probes a random in-range location until winning one.
    struct RandomProbe {
        m: usize,
        last: usize,
        done: Option<Name>,
    }
    impl Renamer for RandomProbe {
        fn propose(&mut self, rng: &mut dyn RngCore) -> Action {
            match self.done {
                Some(name) => Action::Done(name),
                None => {
                    self.last = (rng.gen::<u64>() as usize) % self.m;
                    Action::Probe(self.last)
                }
            }
        }
        fn observe(&mut self, won: bool) {
            if won {
                self.done = Some(Name::new(self.last));
            }
        }
        fn algorithm(&self) -> &'static str {
            "random-probe"
        }
    }

    #[test]
    fn scan_machines_get_sequential_names() {
        let machines: Vec<Box<dyn Renamer>> = (0..5).map(|_| Scan::boxed()).collect();
        let report = Execution::new(5).run(machines).expect("run");
        let mut names: Vec<usize> = report
            .assigned_names()
            .into_iter()
            .map(Name::value)
            .collect();
        names.sort_unstable();
        assert_eq!(names, vec![0, 1, 2, 3, 4]);
        assert_eq!(report.named_count(), 5);
        assert_eq!(report.algorithm, "scan");
        assert_eq!(report.adversary, "round-robin");
    }

    #[test]
    fn empty_machines_error() {
        let err = Execution::new(4).run(Vec::new()).unwrap_err();
        assert_eq!(err, SimError::NoProcesses);
    }

    #[test]
    fn duplicate_names_detected() {
        let machines: Vec<Box<dyn Renamer>> = vec![Box::new(Broken), Box::new(Broken)];
        let err = Execution::new(1).run(machines).unwrap_err();
        assert!(matches!(err, SimError::DuplicateName { .. }));
    }

    #[test]
    fn duplicate_out_of_range_names_detected() {
        // Name values beyond the memory grow the holder table instead of
        // panicking, and duplicates are still caught.
        let machines: Vec<Box<dyn Renamer>> = vec![Box::new(FarBroken), Box::new(FarBroken)];
        let err = Execution::new(1).run(machines).unwrap_err();
        assert!(matches!(err, SimError::DuplicateName { .. }));
    }

    #[test]
    fn out_of_bounds_probe_detected() {
        let machines: Vec<Box<dyn Renamer>> = vec![Box::new(Scan {
            next: 10,
            done: None,
        })];
        let err = Execution::new(2).run(machines).unwrap_err();
        assert!(matches!(err, SimError::ProbeOutOfBounds { location: 10, .. }));
    }

    /// The default budget for 2 processes over 1 location:
    /// `64 · (2 + 1) · (max(⌊log₂ 2⌋, 1) + 1) = 384` steps.
    #[test]
    fn livelock_hits_step_limit() {
        let machines: Vec<Box<dyn Renamer>> = vec![Box::new(Stubborn), Box::new(Stubborn)];
        let err = Execution::new(1).run(machines).unwrap_err();
        assert_eq!(err, SimError::StepLimitExceeded { limit: 384 });
    }

    #[test]
    fn crashed_processes_take_no_steps_and_get_no_name() {
        let machines: Vec<Box<dyn Renamer>> = (0..4).map(|_| Scan::boxed()).collect();
        let report = Execution::new(4)
            .crash_plan(CrashPlan::at_steps(vec![(0, 3)]))
            .run(machines)
            .expect("run");
        assert_eq!(report.named_count(), 3);
        assert_eq!(report.crashed_count(), 1);
        assert_eq!(report.outcomes[3].steps(), 0);
        assert_eq!(report.outcomes[3].name(), None);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let run = |seed: u64| {
            let machines: Vec<Box<dyn Renamer>> = (0..16)
                .map(|_| {
                    Box::new(RandomProbe {
                        m: 32,
                        last: 0,
                        done: None,
                    }) as Box<dyn Renamer>
                })
                .collect();
            Execution::new(32)
                .adversary(Box::new(UniformRandom::new()))
                .seed(seed)
                .run(machines)
                .expect("run")
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.assigned_names(), b.assigned_names());
        assert_eq!(a.total_steps, b.total_steps);
        let c = run(43);
        // Different seed virtually surely gives a different execution.
        assert!(a.assigned_names() != c.assigned_names() || a.total_steps != c.total_steps);
    }

    #[test]
    fn layered_adversary_reports_layers() {
        let machines: Vec<Box<dyn Renamer>> = (0..8).map(|_| Scan::boxed()).collect();
        let report = Execution::new(8)
            .adversary(Box::new(LayeredPermutation::new()))
            .seed(3)
            .run(machines)
            .expect("run");
        let layers = report.layers.expect("layered adversary counts layers");
        assert!(layers >= 1);
        // Scanning 8 processes over 8 slots takes at most 8 layers.
        assert!(layers <= 8, "layers = {layers}");
    }

    #[test]
    fn total_steps_accounts_every_probe() {
        let machines: Vec<Box<dyn Renamer>> = (0..3).map(|_| Scan::boxed()).collect();
        let report = Execution::new(3).run(machines).expect("run");
        let per_process: u64 = report.outcomes.iter().map(|o| o.steps()).sum();
        assert_eq!(per_process, report.total_steps);
    }

    #[test]
    fn typed_tier_matches_boxed_tier_exactly() {
        // Same machines, adversary, seed and RNG type: the two tiers must
        // produce identical reports (the engine is literally shared).
        let boxed: Vec<Box<dyn Renamer>> = (0..16)
            .map(|_| {
                Box::new(RandomProbe {
                    m: 32,
                    last: 0,
                    done: None,
                }) as Box<dyn Renamer>
            })
            .collect();
        let report_boxed = Execution::new(32)
            .adversary(Box::new(UniformRandom::new()))
            .seed(9)
            .tracing(true)
            .run(boxed)
            .expect("boxed run");

        let typed: Vec<RandomProbe> = (0..16)
            .map(|_| RandomProbe {
                m: 32,
                last: 0,
                done: None,
            })
            .collect();
        let report_typed = Execution::new(32)
            .seed(9)
            .tracing(true)
            .run_typed::<_, _, StdRng>(typed, UniformRandom::new())
            .expect("typed run");

        assert_eq!(report_boxed.assigned_names(), report_typed.assigned_names());
        assert_eq!(report_boxed.total_steps, report_typed.total_steps);
        assert_eq!(report_boxed.trace, report_typed.trace);
    }

    #[test]
    fn typed_tier_supports_any_seedable_rng() {
        // A trivial non-Std generator: the typed tier only needs
        // `RngCore + SeedableRng`.
        struct Weyl(u64);
        impl RngCore for Weyl {
            fn next_u32(&mut self) -> u32 {
                self.next_u64() as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z ^ (z >> 31)
            }
        }
        impl rand::SeedableRng for Weyl {
            fn seed_from_u64(seed: u64) -> Self {
                Weyl(seed)
            }
        }
        let machines: Vec<RandomProbe> = (0..8)
            .map(|_| RandomProbe {
                m: 16,
                last: 0,
                done: None,
            })
            .collect();
        let report = Execution::new(16)
            .seed(4)
            .run_typed::<_, _, Weyl>(machines, UniformRandom::new())
            .expect("run");
        assert_eq!(report.named_count(), 8);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::Action;
    use rand::RngCore;

    struct Scan {
        next: usize,
        won: Option<Name>,
    }
    impl Renamer for Scan {
        fn propose(&mut self, _rng: &mut dyn RngCore) -> Action {
            match self.won {
                Some(name) => Action::Done(name),
                None => Action::Probe(self.next),
            }
        }
        fn observe(&mut self, won: bool) {
            if won {
                self.won = Some(Name::new(self.next));
            } else {
                self.next += 1;
            }
        }
    }

    #[test]
    fn tracing_records_every_step_and_verifies() {
        let machines: Vec<Box<dyn Renamer>> = (0..4)
            .map(|_| Box::new(Scan { next: 0, won: None }) as Box<dyn Renamer>)
            .collect();
        let report = Execution::new(4)
            .tracing(true)
            .seed(1)
            .run(machines)
            .expect("run");
        let trace = report.trace.as_ref().expect("trace enabled");
        assert_eq!(trace.len() as u64, report.total_steps);
        assert!(trace.verify(), "trace consistency");
        assert_eq!(trace.wins().len(), 4);
        // Location 0 is the hotspot for scanning machines.
        assert_eq!(trace.hotspots()[0].0, 0);
    }

    #[test]
    fn tracing_disabled_by_default() {
        let machines: Vec<Box<dyn Renamer>> =
            vec![Box::new(Scan { next: 0, won: None })];
        let report = Execution::new(1).run(machines).expect("run");
        assert!(report.trace.is_none());
    }
}
