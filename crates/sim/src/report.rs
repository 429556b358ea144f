//! Execution results and derived metrics.

use crate::{MachineStats, Name};

/// The fate of a single process in an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessOutcome {
    /// Terminated with a unique name after `steps` shared-memory steps.
    Named {
        /// The acquired name.
        name: Name,
        /// Shared-memory steps the process performed.
        steps: u64,
    },
    /// Crashed (fail-stop) after `steps` shared-memory steps.
    Crashed {
        /// Steps performed before crashing.
        steps: u64,
    },
    /// Gave up with an exhausted namespace (only possible when running more
    /// processes than the algorithm's configured capacity).
    Stuck {
        /// Steps performed before giving up.
        steps: u64,
    },
}

impl ProcessOutcome {
    /// The name, if the process terminated.
    pub fn name(&self) -> Option<Name> {
        match self {
            ProcessOutcome::Named { name, .. } => Some(*name),
            ProcessOutcome::Crashed { .. } | ProcessOutcome::Stuck { .. } => None,
        }
    }

    /// Steps the process performed (terminated or not).
    pub fn steps(&self) -> u64 {
        match self {
            ProcessOutcome::Named { steps, .. }
            | ProcessOutcome::Crashed { steps }
            | ProcessOutcome::Stuck { steps } => *steps,
        }
    }
}

/// Everything measured about one simulated execution.
///
/// The paper's two complexity measures map to [`max_steps`] (individual
/// step complexity: "the maximum number of steps that any process performs
/// in an execution") and [`total_steps`] (total step complexity / work).
///
/// [`max_steps`]: Self::max_steps
/// [`total_steps`]: Self::total_steps
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Per-process outcome, indexed by process id.
    pub outcomes: Vec<ProcessOutcome>,
    /// Per-process algorithm diagnostics, indexed by process id.
    pub stats: Vec<MachineStats>,
    /// Label of the algorithm run (from the first machine).
    pub algorithm: String,
    /// Label of the adversary that scheduled the execution.
    pub adversary: String,
    /// Total shared-memory steps executed.
    pub total_steps: u64,
    /// Layers completed, when the adversary counts them.
    pub layers: Option<u64>,
    /// Locations won at the end of the execution.
    pub set_count: usize,
    /// Full probe-level trace, when tracing was enabled on the execution.
    pub trace: Option<crate::ExecutionTrace>,
}

impl ExecutionReport {
    /// Names assigned to the processes that terminated.
    pub fn assigned_names(&self) -> Vec<Name> {
        self.outcomes.iter().filter_map(|o| o.name()).collect()
    }

    /// Number of processes that terminated with a name.
    pub fn named_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.name().is_some()).count()
    }

    /// Number of crashed processes.
    pub fn crashed_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, ProcessOutcome::Crashed { .. }))
            .count()
    }

    /// Number of processes that gave up with an exhausted namespace.
    pub fn stuck_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, ProcessOutcome::Stuck { .. }))
            .count()
    }

    /// The largest assigned name (namespace usage).
    pub fn max_name(&self) -> Option<Name> {
        self.assigned_names().into_iter().max()
    }

    /// Individual step complexity: max steps over processes that
    /// *terminated* (crashed processes stopped early by fiat).
    pub fn max_steps(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| o.name().is_some())
            .map(|o| o.steps())
            .max()
            .unwrap_or(0)
    }

    /// Mean steps over terminated processes.
    pub fn mean_steps(&self) -> f64 {
        let named: Vec<u64> = self
            .outcomes
            .iter()
            .filter(|o| o.name().is_some())
            .map(|o| o.steps())
            .collect();
        if named.is_empty() {
            0.0
        } else {
            named.iter().sum::<u64>() as f64 / named.len() as f64
        }
    }

    /// The `q`-quantile (in `[0, 1]`) of steps over terminated processes,
    /// linearly interpolated between adjacent order statistics via
    /// [`renaming_analysis::lerp_quantile`] (nearest-rank rounding biased
    /// medians and tail percentiles upward).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn steps_quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let mut named: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.name().is_some())
            .map(|o| o.steps() as f64)
            .collect();
        if named.is_empty() {
            return 0.0;
        }
        named.sort_unstable_by(f64::total_cmp);
        renaming_analysis::lerp_quantile(&named, q)
    }

    /// Lemma 4.2's `n_i`: the number of processes that exhausted every
    /// probe of batches `0..i` without winning (i.e. reached batch `i`).
    /// `survivors_at_batch(0)` counts every process that probed at all.
    pub fn survivors_at_batch(&self, i: usize) -> usize {
        self.stats
            .iter()
            .filter(|s| s.deepest_batch.is_some_and(|d| d >= i))
            .count()
    }

    /// Processes that entered the sequential backup phase.
    pub fn backup_entries(&self) -> usize {
        self.stats.iter().filter(|s| s.entered_backup).count()
    }

    /// Verifies every name fits in `0..bound`; returns the first violator.
    pub fn names_within(&self, bound: usize) -> Result<(), Name> {
        match self.assigned_names().into_iter().find(|n| n.value() >= bound) {
            Some(n) => Err(n),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ExecutionReport {
        ExecutionReport {
            outcomes: vec![
                ProcessOutcome::Named {
                    name: Name::new(3),
                    steps: 4,
                },
                ProcessOutcome::Crashed { steps: 2 },
                ProcessOutcome::Named {
                    name: Name::new(0),
                    steps: 10,
                },
            ],
            stats: vec![
                MachineStats {
                    deepest_batch: Some(1),
                    ..MachineStats::default()
                },
                MachineStats::default(),
                MachineStats {
                    deepest_batch: Some(3),
                    entered_backup: true,
                },
            ],
            algorithm: "test".into(),
            adversary: "round-robin".into(),
            total_steps: 16,
            layers: Some(2),
            set_count: 2,
            trace: None,
        }
    }

    #[test]
    fn outcome_accessors() {
        let named = ProcessOutcome::Named {
            name: Name::new(1),
            steps: 7,
        };
        assert_eq!(named.name(), Some(Name::new(1)));
        assert_eq!(named.steps(), 7);
        let crashed = ProcessOutcome::Crashed { steps: 3 };
        assert_eq!(crashed.name(), None);
        assert_eq!(crashed.steps(), 3);
    }

    #[test]
    fn aggregates() {
        let r = report();
        assert_eq!(r.named_count(), 2);
        assert_eq!(r.crashed_count(), 1);
        assert_eq!(r.max_name(), Some(Name::new(3)));
        assert_eq!(r.max_steps(), 10);
        assert!((r.mean_steps() - 7.0).abs() < 1e-12);
        assert_eq!(r.steps_quantile(0.0), 4.0);
        assert_eq!(r.steps_quantile(1.0), 10.0);
        // Two named processes (4 and 10 steps): the median interpolates.
        assert!((r.steps_quantile(0.5) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn batch_survivors_and_backup() {
        let r = report();
        assert_eq!(r.survivors_at_batch(0), 2);
        assert_eq!(r.survivors_at_batch(1), 2);
        assert_eq!(r.survivors_at_batch(2), 1);
        assert_eq!(r.survivors_at_batch(4), 0);
        assert_eq!(r.backup_entries(), 1);
    }

    #[test]
    fn names_within_bound() {
        let r = report();
        assert!(r.names_within(4).is_ok());
        assert_eq!(r.names_within(3), Err(Name::new(3)));
    }

    #[test]
    fn empty_report_quantiles() {
        let r = ExecutionReport {
            outcomes: vec![ProcessOutcome::Crashed { steps: 1 }],
            stats: vec![MachineStats::default()],
            algorithm: "x".into(),
            adversary: "y".into(),
            total_steps: 1,
            layers: None,
            set_count: 0,
            trace: None,
        };
        assert_eq!(r.max_steps(), 0);
        assert_eq!(r.mean_steps(), 0.0);
        assert_eq!(r.steps_quantile(0.5), 0.0);
        assert_eq!(r.max_name(), None);
    }
}
