//! Ablation A1: ReBatching's probe budget without the batch geometry.

use rand::{Rng, RngCore};

use renaming_sim::{Action, MachineStats, Name, Renamer};

/// Spends a fixed budget of uniformly random probes over the *whole*
/// namespace (as if ReBatching had a single batch `B_0` of size `m`), then
/// falls back to the sequential backup scan.
///
/// Comparing this against real ReBatching (same namespace, same total
/// probe budget) isolates the contribution of Eq. 1's geometric batch
/// sizes: the decreasing batches are what turn "probes until lucky" into
/// "one probe per nearly-empty batch".
#[derive(Debug, Clone)]
pub struct SingleBatchMachine {
    namespace: usize,
    budget: usize,
    used: usize,
    backup_next: usize,
    in_backup: bool,
    last: usize,
    won: Option<Name>,
}

impl SingleBatchMachine {
    /// Creates a machine with `budget` random probes over `0..namespace`
    /// before the backup scan.
    ///
    /// # Panics
    ///
    /// Panics if `namespace == 0` or `budget == 0`.
    pub fn new(namespace: usize, budget: usize) -> Self {
        assert!(namespace > 0, "namespace must be nonempty");
        assert!(budget > 0, "budget must be positive");
        Self {
            namespace,
            budget,
            used: 0,
            backup_next: 0,
            in_backup: false,
            last: 0,
            won: None,
        }
    }
}

impl SingleBatchMachine {
    #[inline]
    fn propose_impl<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> Action {
        if let Some(name) = self.won {
            return Action::Done(name);
        }
        if self.in_backup {
            if self.backup_next >= self.namespace {
                return Action::Stuck;
            }
            self.last = self.backup_next;
            return Action::Probe(self.last);
        }
        self.last = rng.gen_range(0..self.namespace);
        Action::Probe(self.last)
    }
}

impl Renamer for SingleBatchMachine {
    fn propose(&mut self, rng: &mut dyn RngCore) -> Action {
        self.propose_impl(rng)
    }

    #[inline]
    fn propose_typed<R: RngCore>(&mut self, rng: &mut R) -> Action {
        self.propose_impl(rng)
    }

    fn observe(&mut self, won: bool) {
        if won {
            self.won = Some(Name::new(self.last));
            return;
        }
        if self.in_backup {
            self.backup_next += 1;
        } else {
            self.used += 1;
            if self.used >= self.budget {
                self.in_backup = true;
            }
        }
    }

    fn stats(&self) -> MachineStats {
        MachineStats {
            deepest_batch: Some(0),
            entered_backup: self.in_backup,
        }
    }

    fn algorithm(&self) -> &'static str {
        "single-batch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::UniformMachine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use renaming_sim::Execution;

    fn machines(n: usize, m: usize, budget: usize) -> Vec<Box<dyn Renamer>> {
        (0..n)
            .map(|_| Box::new(SingleBatchMachine::new(m, budget)) as Box<dyn Renamer>)
            .collect()
    }

    #[test]
    fn everyone_gets_unique_names() {
        let (n, m) = (64, 128);
        let report = Execution::new(m)
            .seed(1)
            .run(machines(n, m, 8))
            .expect("run");
        assert_eq!(report.named_count(), n);
        assert!(report.names_within(m).is_ok());
    }

    #[test]
    fn tiny_budget_forces_backup() {
        // With budget 1 and a crowded namespace, some processes must enter
        // the backup scan but still terminate.
        let (n, m) = (32, 33);
        let report = Execution::new(m)
            .seed(2)
            .run(machines(n, m, 1))
            .expect("run");
        assert_eq!(report.named_count(), n);
        assert!(report.backup_entries() > 0);
    }

    #[test]
    fn overfull_reports_stuck() {
        let m = 8;
        let report = Execution::new(m)
            .seed(3)
            .run(machines(2 * m, m, 2))
            .expect("run");
        assert_eq!(report.named_count(), m);
        assert_eq!(report.stuck_count(), m);
    }

    #[test]
    fn random_probes_are_uniform_probing_then_a_scan_from_zero() {
        // Over the same namespace and coins, the budgeted probes are
        // exactly uniform probing's: only the budget and the backup
        // scan set this machine apart.
        let (namespace, budget) = (64, 8);
        let mut single = SingleBatchMachine::new(namespace, budget);
        let mut uniform = UniformMachine::new(namespace);
        let mut single_rng = StdRng::seed_from_u64(21);
        let mut uniform_rng = StdRng::seed_from_u64(21);
        for probe in 0..budget {
            let expected = uniform.propose_typed(&mut uniform_rng);
            assert!(matches!(expected, Action::Probe(_)));
            assert_eq!(
                single.propose_typed(&mut single_rng),
                expected,
                "probe {probe}"
            );
            uniform.observe(false);
            single.observe(false);
        }
        for location in 0..namespace {
            assert_eq!(
                single.propose_typed(&mut single_rng),
                Action::Probe(location)
            );
            single.observe(false);
        }
        assert_eq!(single.propose_typed(&mut single_rng), Action::Stuck);
    }

    #[test]
    #[should_panic]
    fn zero_budget_panics() {
        SingleBatchMachine::new(8, 0);
    }
}
