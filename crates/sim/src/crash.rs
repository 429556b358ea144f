//! Fail-stop crash schedules.

use rand::seq::SliceRandom;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ProcessId;

/// A fail-stop crash schedule: pairs of (global step, process) at which a
/// process stops taking steps forever (§2 of the paper: "A failed process
/// does not take further steps in the execution").
///
/// Crashes fire just *before* the scheduled global step index, so a process
/// crashed at step `s` does not execute the step the adversary would have
/// given it at time `s`.
///
/// # Example
///
/// ```
/// use renaming_sim::CrashPlan;
///
/// let plan = CrashPlan::at_steps(vec![(10, 2), (3, 0)]);
/// assert_eq!(plan.crash_count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashPlan {
    /// Sorted by step, ascending.
    crashes: Vec<(u64, ProcessId)>,
}

impl CrashPlan {
    /// A plan with no crashes.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a plan from explicit (step, process) pairs, in any order.
    pub fn at_steps(mut crashes: Vec<(u64, ProcessId)>) -> Self {
        crashes.sort_unstable();
        Self { crashes }
    }

    /// Crashes `floor(fraction * n)` distinct processes, chosen uniformly,
    /// each at a uniform step in `0..horizon`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `0.0..=1.0`.
    pub fn random_fraction(n: usize, fraction: f64, horizon: u64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1], got {fraction}"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let victims = ((n as f64) * fraction).floor() as usize;
        let mut pids: Vec<ProcessId> = (0..n).collect();
        pids.shuffle(&mut rng);
        let crashes = pids
            .into_iter()
            .take(victims)
            .map(|pid| (rng.gen_range(0..horizon.max(1)), pid))
            .collect();
        Self::at_steps(crashes)
    }

    /// Number of crashes in the plan.
    pub fn crash_count(&self) -> usize {
        self.crashes.len()
    }

    /// Returns `true` if the plan contains no crashes.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
    }

    /// The processes this plan will eventually crash.
    pub fn victims(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.crashes.iter().map(|&(_, pid)| pid)
    }

    /// Advances `cursor` past the crashes due at or before `step` and
    /// returns them as a slice (the plan is sorted by step, so due entries
    /// are contiguous — no allocation on the runner's per-step path).
    /// `cursor` must start at 0 and be threaded through successive calls.
    #[inline]
    pub(crate) fn due(&self, cursor: &mut usize, step: u64) -> &[(u64, ProcessId)] {
        let start = *cursor;
        while *cursor < self.crashes.len() && self.crashes[*cursor].0 <= step {
            *cursor += 1;
        }
        &self.crashes[start..*cursor]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn due_pids(p: &CrashPlan, cursor: &mut usize, step: u64) -> Vec<ProcessId> {
        p.due(cursor, step).iter().map(|&(_, pid)| pid).collect()
    }

    #[test]
    fn none_is_empty() {
        let p = CrashPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.crash_count(), 0);
        let mut cursor = 0;
        assert!(p.due(&mut cursor, 1_000).is_empty());
    }

    #[test]
    fn at_steps_sorts() {
        let p = CrashPlan::at_steps(vec![(10, 2), (3, 0), (7, 1)]);
        let mut cursor = 0;
        assert_eq!(due_pids(&p, &mut cursor, 2), Vec::<usize>::new());
        assert_eq!(due_pids(&p, &mut cursor, 7), vec![0, 1]);
        assert_eq!(due_pids(&p, &mut cursor, 100), vec![2]);
        assert_eq!(due_pids(&p, &mut cursor, 1_000), Vec::<usize>::new());
    }

    #[test]
    fn random_fraction_counts_victims() {
        let p = CrashPlan::random_fraction(100, 0.25, 1_000, 42);
        assert_eq!(p.crash_count(), 25);
        let mut victims: Vec<_> = p.victims().collect();
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), 25, "victims must be distinct");
        assert!(victims.iter().all(|&v| v < 100));
    }

    #[test]
    fn random_fraction_is_deterministic_per_seed() {
        let a = CrashPlan::random_fraction(50, 0.5, 100, 7);
        let b = CrashPlan::random_fraction(50, 0.5, 100, 7);
        assert_eq!(a, b);
        let c = CrashPlan::random_fraction(50, 0.5, 100, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_fraction_crashes_nobody() {
        let p = CrashPlan::random_fraction(10, 0.0, 100, 1);
        assert!(p.is_empty());
    }

    #[test]
    #[should_panic]
    fn fraction_above_one_panics() {
        CrashPlan::random_fraction(10, 1.5, 100, 1);
    }
}
