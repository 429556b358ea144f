//! Uniform random probing over the whole namespace.

use rand::{Rng, RngCore};

use renaming_sim::{Action, Name, Renamer};

/// The naive randomized renamer: probe a uniformly random location in
/// `0..m` until a TAS is won.
///
/// With `m = (1+ε)n` this terminates quickly *on average*, but the unlucky
/// tail is long: the last processes face occupancy close to `1/(1+ε)`, so
/// the maximum over `n` processes is `Θ(log n)` probes — the §4
/// observation ReBatching is designed to beat.
#[derive(Debug, Clone)]
pub struct UniformMachine {
    namespace: usize,
    last: usize,
    won: Option<Name>,
    probes: u64,
    /// Report `Stuck` after this many failed probes instead of spinning
    /// forever on a full namespace. `None` never gives up (the simulator
    /// sizes executions so somebody always wins).
    give_up_after: Option<u64>,
}

impl UniformMachine {
    /// Creates a machine probing locations `0..namespace` (never gives
    /// up).
    ///
    /// # Panics
    ///
    /// Panics if `namespace == 0`.
    pub fn new(namespace: usize) -> Self {
        assert!(namespace > 0, "namespace must be nonempty");
        Self {
            namespace,
            last: 0,
            won: None,
            probes: 0,
            give_up_after: None,
        }
    }

    /// Creates a machine that reports `Stuck` after `cap` failed probes —
    /// required when driving against a concurrent slot array that can be
    /// fully occupied (a machine with no give-up path would spin forever
    /// there).
    ///
    /// # Panics
    ///
    /// Panics if `namespace == 0` or `cap == 0`.
    pub fn with_give_up(namespace: usize, cap: u64) -> Self {
        assert!(cap > 0, "give-up cap must be positive");
        Self {
            give_up_after: Some(cap),
            ..Self::new(namespace)
        }
    }

    /// The namespace size `m`.
    pub fn namespace(&self) -> usize {
        self.namespace
    }
}

/// Baselines hold at most one win at a time, so nothing is superseded,
/// and have no batch structure to resume: each batch request reruns the
/// baseline from scratch (the default rearm = reset).
impl crate::ResetMachine for UniformMachine {
    fn reset(&mut self) {
        *self = Self {
            give_up_after: self.give_up_after,
            ..Self::new(self.namespace)
        };
    }
}

impl UniformMachine {
    #[inline]
    fn propose_impl<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> Action {
        match self.won {
            Some(name) => Action::Done(name),
            None if self.give_up_after.is_some_and(|cap| self.probes >= cap) => Action::Stuck,
            None => {
                self.last = rng.gen_range(0..self.namespace);
                Action::Probe(self.last)
            }
        }
    }
}

impl Renamer for UniformMachine {
    fn propose(&mut self, rng: &mut dyn RngCore) -> Action {
        self.propose_impl(rng)
    }

    #[inline]
    fn propose_typed<R: RngCore>(&mut self, rng: &mut R) -> Action {
        self.propose_impl(rng)
    }

    fn observe(&mut self, won: bool) {
        self.probes += 1;
        if won {
            self.won = Some(Name::new(self.last));
        }
    }

    fn algorithm(&self) -> &'static str {
        "uniform"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use renaming_sim::Execution;

    fn machines(n: usize, m: usize) -> Vec<Box<dyn Renamer>> {
        (0..n)
            .map(|_| Box::new(UniformMachine::new(m)) as Box<dyn Renamer>)
            .collect()
    }

    #[test]
    fn everyone_gets_a_unique_name() {
        let (n, m) = (64, 128);
        let report = Execution::new(m).seed(1).run(machines(n, m)).expect("run");
        assert_eq!(report.named_count(), n);
        assert!(report.names_within(m).is_ok());
    }

    #[test]
    fn solo_process_wins_first_probe() {
        let report = Execution::new(16).seed(2).run(machines(1, 16)).expect("run");
        assert_eq!(report.max_steps(), 1);
    }

    #[test]
    fn tight_namespace_still_terminates() {
        // m = n: uniform probing must still fill every slot (slowly).
        let (n, m) = (32, 32);
        let report = Execution::new(m).seed(3).run(machines(n, m)).expect("run");
        assert_eq!(report.named_count(), n);
        assert_eq!(report.set_count, m);
    }

    #[test]
    #[should_panic]
    fn empty_namespace_panics() {
        UniformMachine::new(0);
    }
}
