//! Closed machine registry for the monomorphic engine tier.
//!
//! `Box<dyn Renamer>` is the flexible way to hand machines to the
//! simulator, but it costs a heap allocation per process and a vtable
//! dispatch per probe. Experiments only ever run machines from a closed
//! set — the three paper algorithms plus the baselines — so this module
//! gives that set a name: [`MachineKind`] describes *which* machine to
//! build (shareable, cheap to clone), and [`AnyMachine`] is the built
//! machine as an enum whose `Renamer` impl dispatches by `match`.
//!
//! `Vec<AnyMachine>` through [`renaming_sim::Execution::run_typed`] is the
//! fast path the `throughput` experiment measures against the boxed tier.

use std::sync::Arc;

use rand::RngCore;

use renaming_core::baselines::{LinearScanMachine, SingleBatchMachine, UniformMachine};
use renaming_core::{
    AdaptiveLayout, AdaptiveMachine, BatchLayout, FastAdaptiveMachine, RebatchingMachine,
};
use renaming_sim::{Action, MachineStats, Renamer};

/// A recipe for one machine from the workspace's closed algorithm set.
///
/// Layouts are shared (`Arc`), so cloning a kind and instantiating fleets
/// is cheap.
#[derive(Debug, Clone)]
pub enum MachineKind {
    /// ReBatching (§4) probing the object at `base`.
    Rebatching {
        /// Batch geometry of the object.
        layout: Arc<BatchLayout>,
        /// Global offset of the object in shared memory.
        base: usize,
    },
    /// AdaptiveReBatching (§5.1) over an object collection.
    Adaptive {
        /// The shared collection layout.
        layout: Arc<AdaptiveLayout>,
    },
    /// FastAdaptiveReBatching (§5.2) over an object collection.
    FastAdaptive {
        /// The shared collection layout.
        layout: Arc<AdaptiveLayout>,
    },
    /// Uniform random probing over `0..namespace` (baseline).
    Uniform {
        /// Namespace size `m`.
        namespace: usize,
    },
    /// Deterministic left-to-right scan (baseline).
    LinearScan,
    /// Ablation A1: one flat batch with a probe budget, then backup.
    SingleBatch {
        /// Namespace size `m`.
        namespace: usize,
        /// Random probes before the backup scan.
        budget: usize,
    },
}

impl MachineKind {
    /// Builds one machine as a match-dispatched [`AnyMachine`].
    pub fn instantiate(&self) -> AnyMachine {
        match self {
            MachineKind::Rebatching { layout, base } => {
                AnyMachine::Rebatching(RebatchingMachine::new(Arc::clone(layout), *base))
            }
            MachineKind::Adaptive { layout } => {
                AnyMachine::Adaptive(AdaptiveMachine::new(Arc::clone(layout)))
            }
            MachineKind::FastAdaptive { layout } => {
                AnyMachine::FastAdaptive(FastAdaptiveMachine::new(Arc::clone(layout)))
            }
            MachineKind::Uniform { namespace } => {
                AnyMachine::Uniform(UniformMachine::new(*namespace))
            }
            MachineKind::LinearScan => AnyMachine::LinearScan(LinearScanMachine::new()),
            MachineKind::SingleBatch { namespace, budget } => {
                AnyMachine::SingleBatch(SingleBatchMachine::new(*namespace, *budget))
            }
        }
    }

    /// Builds one machine behind a `Box<dyn Renamer>` (the boxed tier).
    pub fn boxed(&self) -> Box<dyn Renamer> {
        match self.instantiate() {
            AnyMachine::Rebatching(m) => Box::new(m),
            AnyMachine::Adaptive(m) => Box::new(m),
            AnyMachine::FastAdaptive(m) => Box::new(m),
            AnyMachine::Uniform(m) => Box::new(m),
            AnyMachine::LinearScan(m) => Box::new(m),
            AnyMachine::SingleBatch(m) => Box::new(m),
        }
    }

    /// A fleet of `count` machines for the monomorphic tier.
    pub fn fleet(&self, count: usize) -> Vec<AnyMachine> {
        (0..count).map(|_| self.instantiate()).collect()
    }

    /// Appends `count` machines to `out` (pair with a reused buffer and
    /// `out.drain(..)` into `Execution::run_typed_in` for an
    /// allocation-free sweep loop).
    pub fn extend_fleet(&self, out: &mut Vec<AnyMachine>, count: usize) {
        out.extend((0..count).map(|_| self.instantiate()));
    }

    /// A fleet of `count` boxed machines for the boxed tier.
    pub fn boxed_fleet(&self, count: usize) -> Vec<Box<dyn Renamer>> {
        (0..count).map(|_| self.boxed()).collect()
    }
}

/// One built machine from the closed set, dispatching [`Renamer`] by
/// `match` — the monomorphic counterpart of `Box<dyn Renamer>`.
#[derive(Debug, Clone)]
pub enum AnyMachine {
    /// ReBatching (§4).
    Rebatching(RebatchingMachine),
    /// AdaptiveReBatching (§5.1).
    Adaptive(AdaptiveMachine),
    /// FastAdaptiveReBatching (§5.2).
    FastAdaptive(FastAdaptiveMachine),
    /// Uniform random probing baseline.
    Uniform(UniformMachine),
    /// Left-to-right scan baseline.
    LinearScan(LinearScanMachine),
    /// Flat-batch ablation baseline.
    SingleBatch(SingleBatchMachine),
}

macro_rules! dispatch {
    ($self:expr, $m:ident => $body:expr) => {
        match $self {
            AnyMachine::Rebatching($m) => $body,
            AnyMachine::Adaptive($m) => $body,
            AnyMachine::FastAdaptive($m) => $body,
            AnyMachine::Uniform($m) => $body,
            AnyMachine::LinearScan($m) => $body,
            AnyMachine::SingleBatch($m) => $body,
        }
    };
}

impl Renamer for AnyMachine {
    #[inline]
    fn propose(&mut self, rng: &mut dyn RngCore) -> Action {
        dispatch!(self, m => m.propose(rng))
    }

    #[inline]
    fn propose_typed<R: RngCore>(&mut self, rng: &mut R) -> Action {
        dispatch!(self, m => m.propose_typed(rng))
    }

    #[inline]
    fn step_typed<R: RngCore>(&mut self, won: bool, rng: &mut R) -> Action {
        // One variant branch for the observe+propose pair.
        dispatch!(self, m => {
            m.observe(won);
            m.propose_typed(rng)
        })
    }

    #[inline]
    fn observe(&mut self, won: bool) {
        dispatch!(self, m => m.observe(won))
    }

    fn stats(&self) -> MachineStats {
        dispatch!(self, m => m.stats())
    }

    fn algorithm(&self) -> &'static str {
        dispatch!(self, m => m.algorithm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{adaptive_layout, paper_layout};
    use renaming_core::FastRng;
    use renaming_sim::adversary::UniformRandom;
    use renaming_sim::Execution;

    fn kinds() -> Vec<(MachineKind, usize)> {
        let layout = paper_layout(32);
        let adaptive = adaptive_layout(64);
        vec![
            (
                MachineKind::Rebatching {
                    layout: Arc::clone(&layout),
                    base: 0,
                },
                layout.namespace_size(),
            ),
            (
                MachineKind::Adaptive {
                    layout: Arc::clone(&adaptive),
                },
                adaptive.total_size(),
            ),
            (
                MachineKind::FastAdaptive {
                    layout: Arc::clone(&adaptive),
                },
                adaptive.total_size(),
            ),
            (MachineKind::Uniform { namespace: 64 }, 64),
            (MachineKind::LinearScan, 32),
            (
                MachineKind::SingleBatch {
                    namespace: 64,
                    budget: 8,
                },
                64,
            ),
        ]
    }

    #[test]
    fn every_kind_runs_on_the_typed_tier() {
        for (kind, memory) in kinds() {
            let report = Execution::new(memory)
                .seed(11)
                .run_typed::<_, _, FastRng>(kind.fleet(16), UniformRandom::new())
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(report.named_count(), 16, "{kind:?}");
        }
    }

    #[test]
    fn boxed_and_typed_fleets_agree_on_algorithm_labels() {
        for (kind, _) in kinds() {
            let typed = kind.instantiate();
            let boxed = kind.boxed();
            assert_eq!(typed.algorithm(), boxed.algorithm());
        }
    }
}
