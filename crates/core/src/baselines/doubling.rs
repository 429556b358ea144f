//! The natural adaptive strawman: uniform probing over a doubling window.

use rand::{Rng, RngCore};

use renaming_sim::{Action, Name, Renamer};

/// Adaptive baseline: probe uniformly inside a window `0..w`, starting
/// with `w = 2` and doubling `w` after every `probes_per_level` failures
/// (capped at the full namespace).
///
/// Names end up `O(k)` in expectation (the window stops growing once it
/// comfortably exceeds the contention), but a process needs `Θ(log k)`
/// window doublings, so its step complexity carries a `log k` factor —
/// the gap to the paper's `O((log log k)^2)` adaptive algorithms that
/// experiment E5 exposes.
#[derive(Debug, Clone)]
pub struct DoublingUniformMachine {
    namespace: usize,
    window: usize,
    probes_per_level: usize,
    used_in_level: usize,
    last: usize,
    won: Option<Name>,
    probes: u64,
    /// Report `Stuck` after this many failed probes instead of spinning
    /// forever on a full namespace. `None` never gives up (the simulator
    /// sizes executions so somebody always wins).
    give_up_after: Option<u64>,
}

impl DoublingUniformMachine {
    /// Creates a machine over `0..namespace` with `probes_per_level`
    /// probes before each doubling (never gives up).
    ///
    /// # Panics
    ///
    /// Panics if `namespace < 2` or `probes_per_level == 0`.
    pub fn new(namespace: usize, probes_per_level: usize) -> Self {
        assert!(namespace >= 2, "namespace must have at least 2 locations");
        assert!(probes_per_level > 0, "probes_per_level must be positive");
        Self {
            namespace,
            window: 2,
            probes_per_level,
            used_in_level: 0,
            last: 0,
            won: None,
            probes: 0,
            give_up_after: None,
        }
    }

    /// Creates a machine that reports `Stuck` after `cap` failed probes —
    /// required when driving against a concurrent slot array that can be
    /// fully occupied.
    ///
    /// # Panics
    ///
    /// Panics if `namespace < 2`, `probes_per_level == 0` or `cap == 0`.
    pub fn with_give_up(namespace: usize, probes_per_level: usize, cap: u64) -> Self {
        assert!(cap > 0, "give-up cap must be positive");
        Self {
            give_up_after: Some(cap),
            ..Self::new(namespace, probes_per_level)
        }
    }

    /// The current window size (grows as the machine fails).
    pub fn window(&self) -> usize {
        self.window
    }
}

/// Baselines hold at most one win at a time, so nothing is superseded,
/// and have no batch structure to resume: each batch request reruns the
/// baseline from scratch (the default rearm = reset).
impl crate::ResetMachine for DoublingUniformMachine {
    fn reset(&mut self) {
        *self = Self {
            give_up_after: self.give_up_after,
            ..Self::new(self.namespace, self.probes_per_level)
        };
    }
}

impl DoublingUniformMachine {
    #[inline]
    fn propose_impl<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> Action {
        match self.won {
            Some(name) => Action::Done(name),
            None if self.give_up_after.is_some_and(|cap| self.probes >= cap) => Action::Stuck,
            None => {
                self.last = rng.gen_range(0..self.window);
                Action::Probe(self.last)
            }
        }
    }
}

impl Renamer for DoublingUniformMachine {
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
            return;
        }
        self.used_in_level += 1;
        if self.used_in_level >= self.probes_per_level {
            self.used_in_level = 0;
            if self.window < self.namespace {
                self.window = (self.window * 2).min(self.namespace);
            }
        }
    }

    fn algorithm(&self) -> &'static str {
        "doubling-uniform"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use renaming_sim::Execution;

    fn machines(k: usize, m: usize) -> Vec<Box<dyn Renamer>> {
        (0..k)
            .map(|_| Box::new(DoublingUniformMachine::new(m, 2)) as Box<dyn Renamer>)
            .collect()
    }

    #[test]
    fn names_unique_and_adaptive() {
        let m = 1 << 12;
        for k in [1usize, 4, 16, 64] {
            let report = Execution::new(m)
                .seed(k as u64)
                .run(machines(k, m))
                .expect("run");
            assert_eq!(report.named_count(), k, "k = {k}");
            let max_name = report.max_name().expect("named").value();
            assert!(
                max_name < 64 * k.max(2),
                "k = {k}: name {max_name} not O(k)"
            );
        }
    }

    #[test]
    fn window_doubles_on_failures() {
        let mut machine = DoublingUniformMachine::new(64, 2);
        assert_eq!(machine.window(), 2);
        for _ in 0..2 {
            machine.observe(false);
        }
        assert_eq!(machine.window(), 4);
        for _ in 0..2 {
            machine.observe(false);
        }
        assert_eq!(machine.window(), 8);
    }

    #[test]
    fn window_caps_at_namespace() {
        let mut machine = DoublingUniformMachine::new(8, 1);
        for _ in 0..10 {
            machine.observe(false);
        }
        assert_eq!(machine.window(), 8);
    }

    #[test]
    #[should_panic]
    fn tiny_namespace_panics() {
        DoublingUniformMachine::new(1, 1);
    }
}
