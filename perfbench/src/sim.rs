//! `sim_sweep`: ReBatching fleets on the simulator through `Sweep`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use renaming_bench::{AdversaryKind, MachineKind, Sweep, SweepWorker, TrialSpec};
use renaming_core::{BatchLayout, Epsilon, ProbeSchedule, DEFAULT_BETA};

use crate::gate::Checks;
use crate::trace::{Recorder, ROOT};
use crate::{derive_seed, round_deadline, Config, Phase, Rig, Round};

/// Processes per trial.
pub(crate) const N: usize = 4096;
/// Sweep threads.
pub(crate) const THREADS: usize = 2;
/// Trials per `Sweep::trials` call: about 50 ms of work on two threads.
const CHUNK: usize = 64;

/// The ReBatching machine recipe for `N` processes and its memory size.
pub(crate) fn fleet() -> (MachineKind, usize) {
    let schedule = ProbeSchedule::paper(Epsilon::one(), DEFAULT_BETA).expect("paper defaults");
    let layout: Arc<BatchLayout> = BatchLayout::shared(N, schedule).expect("layout for N");
    let memory = layout.namespace_size();
    (MachineKind::Rebatching { layout, base: 0 }, memory)
}

/// What one trial reports back.
#[derive(Debug, Clone)]
pub(crate) struct Trial {
    pub start: Instant,
    pub end: Instant,
    pub steps: u64,
    pub named: usize,
    pub max_name: usize,
    pub max_steps: u64,
    /// Every name is below the memory size.
    pub within: bool,
    /// Named processes by step count: `by_steps[s]` took `s` steps.
    pub by_steps: Vec<u64>,
}

/// Runs trial `index` of the stream seeded by `seed` on `worker`.
pub(crate) fn trial(
    worker: &mut SweepWorker,
    kind: &MachineKind,
    memory: usize,
    seed: u64,
    index: u64,
) -> Trial {
    let spec = TrialSpec::new(
        memory,
        N,
        kind,
        AdversaryKind::UniformRandom,
        derive_seed(seed, 2, index),
    );
    let start = Instant::now();
    let report = worker.run(&spec);
    let end = Instant::now();
    let max_steps = report.max_steps();
    let mut by_steps = vec![0; max_steps as usize + 1];
    for outcome in report.outcomes.iter().filter(|o| o.name().is_some()) {
        by_steps[outcome.steps() as usize] += 1;
    }
    Trial {
        start,
        end,
        steps: report.total_steps,
        named: report.named_count(),
        max_name: report.max_name().map_or(0, |n| n.value()),
        max_steps,
        within: report.names_within(memory).is_ok(),
        by_steps,
    }
}

pub(crate) struct SimSweep {
    kind: MachineKind,
    memory: usize,
    seed: u64,
    sweep: Sweep,
    next_trial: u64,
    max_name: usize,
    /// Trials with a process left unnamed or a name out of bounds.
    bad_trials: u64,
}

impl SimSweep {
    fn chunk(&mut self) -> Vec<Trial> {
        let (kind, memory, seed, base) = (&self.kind, self.memory, self.seed, self.next_trial);
        let trials = self.sweep.trials(CHUNK, |t, worker| {
            trial(worker, kind, memory, seed, base + t as u64)
        });
        self.next_trial += CHUNK as u64;
        for t in &trials {
            self.max_name = self.max_name.max(t.max_name);
            self.bad_trials += u64::from(t.named != N || !t.within);
        }
        trials
    }
}

impl Rig for SimSweep {
    const PINNED: bool = false;

    fn setup(cfg: &Config) -> Self {
        let (kind, memory) = fleet();
        let mut rig = Self {
            kind,
            memory,
            seed: cfg.seed,
            sweep: Sweep::new(cfg.seed, THREADS),
            next_trial: 0,
            max_name: 0,
            bad_trials: 0,
        };
        rig.chunk();
        rig
    }

    fn measure(&mut self, duration: Duration, rounds: usize, trace: Option<Instant>) -> Phase {
        let mut phase = Phase::default();
        let mut recorders: Vec<Recorder> = trace
            .map(|epoch| {
                (0..THREADS)
                    .map(|_| Recorder::new(epoch, "sim_sweep"))
                    .collect()
            })
            .unwrap_or_default();
        let start = Instant::now();
        let mut failed = 0u64;
        for round in 0..rounds {
            let deadline = round_deadline(start, duration, round, rounds);
            let mut r = Round::default();
            let round_start = Instant::now();
            loop {
                let base = self.next_trial;
                let trials = self.chunk();
                let end = Instant::now();
                for (i, t) in trials.iter().enumerate() {
                    // A simulated acquire's wall time: its step count at
                    // the trial's measured cost per step.
                    let ns_per_step = (t.end - t.start).as_nanos() as f64 / t.steps.max(1) as f64;
                    for (steps, &count) in t.by_steps.iter().enumerate() {
                        r.acquire
                            .record_n((steps as f64 * ns_per_step) as u64, count);
                    }
                    r.ops += t.named as u64;
                    phase.attempted += N as u64;
                    failed += (N - t.named) as u64;
                    if let Some(rec) = recorders.get_mut(i % THREADS) {
                        rec.record("sweep.trial", t.start, t.end, ROOT, base + i as u64);
                    }
                }
                if end >= deadline {
                    r.seconds = (end - round_start).as_secs_f64();
                    break;
                }
            }
            phase.rounds.push(r);
        }
        phase.failed = failed;
        phase.recorders = recorders;
        phase
    }

    fn name_max_ratio(&self) -> f64 {
        (self.max_name + 1) as f64 / N as f64
    }

    fn finish(self, checks: &mut Checks) {
        let bad = self.bad_trials;
        checks.expect(bad == 0, || {
            format!("{bad} trials left a process unnamed or named it outside the namespace")
        });
    }
}
