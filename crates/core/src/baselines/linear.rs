//! Deterministic left-to-right scan.

use rand::RngCore;

use renaming_sim::{Action, Name, Renamer};

/// Scans locations `0, 1, 2, ...` and keeps the first TAS it wins.
///
/// The namespace is optimal (`n` processes fit in `n` locations — this is
/// *strong* renaming), but the step complexity is `Θ(n)` in the worst case
/// and the low locations become contention hotspots: every process hammers
/// location 0 first. The deterministic counterpart that motivates
/// randomization.
#[derive(Debug, Clone, Default)]
pub struct LinearScanMachine {
    next: usize,
    won: Option<Name>,
    /// Give up (report `Stuck`) at this location instead of scanning past
    /// the namespace. `None` scans unboundedly (the simulator sizes the
    /// memory to the fleet, so the scan always wins first).
    bound: Option<usize>,
}

impl LinearScanMachine {
    /// Creates the machine (scans from location 0, no upper bound).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a machine that reports `Stuck` instead of probing at or
    /// beyond `namespace` — required when driving against a concurrent
    /// slot array that can be fully occupied.
    pub fn bounded(namespace: usize) -> Self {
        Self {
            bound: Some(namespace),
            ..Self::default()
        }
    }
}

/// Baselines hold at most one win at a time, so nothing is superseded,
/// and have no batch structure to resume: each batch request reruns the
/// baseline from scratch (the default rearm = reset).
impl crate::ResetMachine for LinearScanMachine {
    fn reset(&mut self) {
        *self = Self {
            bound: self.bound,
            ..Self::default()
        };
    }
}

impl Renamer for LinearScanMachine {
    fn propose(&mut self, _rng: &mut dyn RngCore) -> Action {
        match self.won {
            Some(name) => Action::Done(name),
            None if self.bound.is_some_and(|b| self.next >= b) => Action::Stuck,
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

    fn algorithm(&self) -> &'static str {
        "linear-scan"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use renaming_sim::adversary::LayeredPermutation;
    use renaming_sim::Execution;

    fn machines(n: usize) -> Vec<Box<dyn Renamer>> {
        (0..n)
            .map(|_| Box::new(LinearScanMachine::new()) as Box<dyn Renamer>)
            .collect()
    }

    #[test]
    fn fills_the_optimal_namespace() {
        let n = 32;
        let report = Execution::new(n).seed(0).run(machines(n)).expect("run");
        assert_eq!(report.named_count(), n);
        // Strong renaming: names exactly 0..n.
        let mut names: Vec<usize> = report
            .assigned_names()
            .into_iter()
            .map(Name::value)
            .collect();
        names.sort_unstable();
        assert_eq!(names, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn worst_case_steps_are_linear() {
        let n = 64;
        let report = Execution::new(n)
            .adversary(Box::new(LayeredPermutation::new()))
            .seed(5)
            .run(machines(n))
            .expect("run");
        // Someone must have scanned a linear fraction of the namespace.
        assert!(
            report.max_steps() >= (n / 2) as u64,
            "max steps {} too small for linear scan",
            report.max_steps()
        );
    }

    #[test]
    fn location_zero_is_a_hotspot() {
        let n = 16;
        let report = Execution::new(n)
            .seed(1)
            .tracing(true)
            .run(machines(n))
            .expect("run");
        let trace = report.trace.expect("tracing enabled");
        // Every process probes location 0 exactly once.
        let at_zero = trace.events().iter().filter(|e| e.location == 0).count();
        assert_eq!(at_zero, n);
    }
}
