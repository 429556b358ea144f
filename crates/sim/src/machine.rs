//! The step-machine interface every renaming algorithm implements.

use std::fmt;

use rand::RngCore;

/// A name: the index of the shared TAS location the process won.
///
/// The paper's convention (§1): "a process obtains a name by performing a
/// successful TAS on a location, returning the index of that location as
/// its name". Names are zero-based here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(usize);

impl Name {
    /// Wraps a raw location index as a name.
    pub fn new(value: usize) -> Self {
        Name(value)
    }

    /// The raw value (location index) of the name.
    pub fn value(self) -> usize {
        self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<Name> for usize {
    fn from(name: Name) -> usize {
        name.0
    }
}

/// The next move a step machine wants to make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Perform a test-and-set on the global location with this index.
    ///
    /// One `Probe` is one *step* in the paper's complexity measures.
    Probe(usize),
    /// The machine has terminated with this name. Termination is a local
    /// action and costs no shared-memory step.
    Done(Name),
    /// The machine gives up: its namespace is exhausted. This can only
    /// happen when an algorithm is run with more processes than the
    /// capacity it was constructed for; the runner records the process as
    /// stuck rather than deadlocking.
    Stuck,
}

/// Per-machine diagnostics, reported after an execution.
///
/// Algorithms fill in what applies to them; the defaults are neutral.
/// Steps are not among them: the runner counts every executed probe once,
/// in [`ProcessOutcome::steps`](crate::ProcessOutcome::steps). These two
/// fields are read through
/// [`ExecutionReport::survivors_at_batch`](crate::ExecutionReport::survivors_at_batch)
/// and [`ExecutionReport::backup_entries`](crate::ExecutionReport::backup_entries)
/// by experiments E1, E3, E4, E11, E13, A1 and A2.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Deepest batch index probed inside a single ReBatching object.
    /// For the ReBatching algorithm, a value of `i` means the process
    /// survived into batch `B_i` (Lemma 4.2's `n_i` counts processes with
    /// `deepest_batch >= i`).
    pub deepest_batch: Option<usize>,
    /// Whether the sequential backup phase was entered (§4, lines 5–7).
    pub entered_backup: bool,
}

/// A renaming algorithm expressed as a step machine.
///
/// The contract mirrors the paper's model:
///
/// 1. The runner calls [`propose`](Self::propose). The machine flips any
///    coins it needs (via `rng`) and announces its next shared-memory
///    operation. A strong adversary may inspect the announced location
///    before scheduling the step.
/// 2. When the adversary schedules the process, the runner executes the TAS
///    and reports the outcome through [`observe`](Self::observe).
/// 3. When `propose` returns [`Action::Done`], the process has terminated;
///    the runner never calls the machine again.
///
/// Machines must be deterministic given the coin-flip sequence: all
/// nondeterminism flows through `rng`. This is what lets the concurrent
/// driver in `renaming-core` replay the same machine against hardware
/// atomics.
pub trait Renamer {
    /// Announce the next action. Must not be called again before
    /// [`observe`](Self::observe) if it returned [`Action::Probe`], and
    /// must never be called after it returned [`Action::Done`].
    fn propose(&mut self, rng: &mut dyn RngCore) -> Action;

    /// Monomorphic variant of [`propose`](Self::propose): the runner's
    /// typed tier calls this with a concrete generator so the whole
    /// coin-flip path can inline. The default forwards through the
    /// dynamic entry point (semantically identical — implement it only as
    /// an optimization, and keep both paths flipping the same coins).
    /// Excluded from `dyn Renamer` (`Self: Sized`).
    #[inline]
    fn propose_typed<R: RngCore>(&mut self, rng: &mut R) -> Action
    where
        Self: Sized,
    {
        self.propose(rng)
    }

    /// Fused [`observe`](Self::observe) + [`propose_typed`](Self::propose_typed):
    /// one dispatch per executed probe on the typed tier. The default is
    /// exactly the two calls in sequence; enum-dispatched machines
    /// override it to branch on their variant once instead of twice.
    /// Excluded from `dyn Renamer` (`Self: Sized`).
    #[inline]
    fn step_typed<R: RngCore>(&mut self, won: bool, rng: &mut R) -> Action
    where
        Self: Sized,
    {
        self.observe(won);
        self.propose_typed(rng)
    }

    /// Report the outcome of the most recently proposed probe
    /// (`won == true` iff the TAS was won).
    fn observe(&mut self, won: bool);

    /// Diagnostic counters; see [`MachineStats`].
    fn stats(&self) -> MachineStats {
        MachineStats::default()
    }

    /// Short label for reports ("rebatching", "uniform", ...).
    fn algorithm(&self) -> &'static str {
        "unnamed"
    }
}

impl fmt::Debug for dyn Renamer + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Renamer")
            .field("algorithm", &self.algorithm())
            .finish()
    }
}

/// Boxes forward to the boxed machine, so `Vec<Box<dyn Renamer>>` runs on
/// the same generic engine as concrete machine vectors (the boxed tier of
/// the runner is just `M = Box<dyn Renamer>`).
impl<T: Renamer + ?Sized> Renamer for Box<T> {
    fn propose(&mut self, rng: &mut dyn RngCore) -> Action {
        (**self).propose(rng)
    }

    fn observe(&mut self, won: bool) {
        (**self).observe(won)
    }

    fn stats(&self) -> MachineStats {
        (**self).stats()
    }

    fn algorithm(&self) -> &'static str {
        (**self).algorithm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_accessors() {
        let n = Name::new(17);
        assert_eq!(n.value(), 17);
        assert_eq!(usize::from(n), 17);
        assert_eq!(n.to_string(), "17");
        assert!(Name::new(3) < Name::new(4));
    }

    #[test]
    fn action_equality() {
        assert_eq!(Action::Probe(3), Action::Probe(3));
        assert_ne!(Action::Probe(3), Action::Probe(4));
        assert_ne!(Action::Probe(3), Action::Done(Name::new(3)));
    }

    #[test]
    fn default_stats_are_neutral() {
        let s = MachineStats::default();
        assert_eq!(s.deepest_batch, None);
        assert!(!s.entered_backup);
    }
}
