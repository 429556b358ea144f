//! The **ReBatching** algorithm (§4, Fig. 1): non-adaptive loose renaming
//! into `(1+ε)n` names with `log log n + O(1)` step complexity w.h.p.

use std::sync::Arc;

use rand::{Rng, RngCore};

use renaming_sim::{Action, MachineStats, Name, Renamer};
use renaming_tas::{AtomicTas, ResettableTas, Tas, TasArray};

use crate::calls::{CallStatus, ObjectCall};
use crate::driver;
use crate::{BatchLayout, Epsilon, ProbeSchedule, RenamingError, DEFAULT_BETA};

/// Step machine for one process running ReBatching's `GetName` (Fig. 1):
/// `TryGetName(i)` for `i = 0..=κ` followed by the sequential backup scan.
///
/// Use this with [`renaming_sim::Execution`] to measure step complexity
/// under an adversary; use [`Rebatching`] for real threads.
#[derive(Debug, Clone)]
pub struct RebatchingMachine {
    call: ObjectCall,
    won: Option<Name>,
    exhausted: bool,
    failed_calls: u64,
    last_batch_seen: usize,
}

impl RebatchingMachine {
    /// Creates a machine probing the object described by `layout`, located
    /// at global offset `base` in the shared memory.
    pub fn new(layout: Arc<BatchLayout>, base: usize) -> Self {
        Self {
            call: ObjectCall::with_backup(layout, base),
            won: None,
            exhausted: false,
            failed_calls: 0,
            last_batch_seen: 0,
        }
    }
}

/// ReBatching holds at most one win at a time, so nothing is ever
/// superseded.
impl driver::AbandonedNames for RebatchingMachine {}

/// ReBatching's batched continuation: the next request of a batch
/// resumes the sweep at the batch (or backup offset) the previous win
/// landed in, with a fresh probe budget — the prefix those earlier
/// requests filled is never re-probed. Falls back to a full rewind when
/// there is nothing to resume from.
impl driver::BatchAcquire for RebatchingMachine {
    fn rearm_after_win(&mut self) {
        if self.call.rearm_continue() {
            self.won = None;
            self.exhausted = false;
            self.failed_calls = 0;
            self.last_batch_seen = self.call.deepest_batch();
        } else {
            driver::ResetMachine::reset(self);
        }
    }
}

impl driver::ResetMachine for RebatchingMachine {
    fn reset(&mut self) {
        self.call.reset();
        self.won = None;
        self.exhausted = false;
        self.failed_calls = 0;
        self.last_batch_seen = 0;
    }
}

impl RebatchingMachine {
    #[inline]
    fn propose_impl<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> Action {
        if let Some(name) = self.won {
            return Action::Done(name);
        }
        if self.exhausted {
            return Action::Stuck;
        }
        Action::Probe(self.call.propose(rng))
    }
}

impl Renamer for RebatchingMachine {
    fn propose(&mut self, rng: &mut dyn RngCore) -> Action {
        self.propose_impl(rng)
    }

    #[inline]
    fn propose_typed<R: RngCore>(&mut self, rng: &mut R) -> Action {
        self.propose_impl(rng)
    }

    fn observe(&mut self, won: bool) {
        match self.call.observe(won) {
            CallStatus::Acquired(loc) => self.won = Some(Name::new(loc)),
            CallStatus::Exhausted => self.exhausted = true,
            CallStatus::InProgress => {
                let d = self.call.deepest_batch();
                if d > self.last_batch_seen {
                    // Completed all probes of the previous batch: one more
                    // failed TryGetName call.
                    self.failed_calls += u64::try_from(d - self.last_batch_seen).expect("fits");
                    self.last_batch_seen = d;
                }
            }
        }
    }

    fn name(&self) -> Option<Name> {
        self.won
    }

    fn stats(&self) -> MachineStats {
        MachineStats {
            probes: self.call.probes(),
            failed_calls: self.failed_calls,
            deepest_batch: Some(self.call.deepest_batch()),
            objects_visited: 1,
            entered_backup: self.call.entered_backup(),
            names_acquired: u64::from(self.won.is_some()),
        }
    }

    fn algorithm(&self) -> &'static str {
        "rebatching"
    }
}

/// The concurrent ReBatching object: an array of hardware TAS slots shared
/// by up to `n` threads, each calling [`get_name`](Self::get_name) once.
///
/// Cloning is cheap (the layout and slot array are shared); clones refer to
/// the *same* namespace.
///
/// # Example
///
/// ```
/// use renaming_core::{Epsilon, Rebatching};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let object = Rebatching::with_defaults(32, Epsilon::one())?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let a = object.get_name(&mut rng)?;
/// let b = object.get_name(&mut rng)?;
/// assert_ne!(a, b); // uniqueness
/// assert!(a.value() < object.namespace_size());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Rebatching<T: Tas = AtomicTas> {
    layout: Arc<BatchLayout>,
    slots: Arc<TasArray<T>>,
}

impl<T: Tas> Clone for Rebatching<T> {
    /// Clones the handle; both handles share the same namespace.
    fn clone(&self) -> Self {
        Self {
            layout: Arc::clone(&self.layout),
            slots: Arc::clone(&self.slots),
        }
    }
}

impl Rebatching<AtomicTas> {
    /// Creates an object for up to `n` processes with the paper's probe
    /// schedule (Eq. 2) and the given slack.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn new(n: usize, epsilon: Epsilon, beta: usize) -> Result<Self, RenamingError> {
        let schedule = ProbeSchedule::paper(epsilon, beta)?;
        Self::with_schedule(n, schedule)
    }

    /// Creates an object with the default `β = 3`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn with_defaults(n: usize, epsilon: Epsilon) -> Result<Self, RenamingError> {
        Self::new(n, epsilon, DEFAULT_BETA)
    }

    /// Creates an object with an explicit probe schedule (used by the
    /// tuned-profile ablation).
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn with_schedule(n: usize, schedule: ProbeSchedule) -> Result<Self, RenamingError> {
        let layout = BatchLayout::shared(n, schedule)?;
        let slots = Arc::new(TasArray::new(layout.namespace_size()));
        Ok(Self { layout, slots })
    }
}

impl<T: ResettableTas> Rebatching<T> {
    /// Releases a previously acquired name, making it available to future
    /// [`get_name`](Self::get_name) calls — the *long-lived* renaming
    /// extension the paper's conclusion (§7) points at. Available on any
    /// resettable TAS substrate (hardware atomics, counting wrappers).
    ///
    /// The `(1+ε)n` namespace and uniqueness guarantees continue to hold
    /// as long as at most `n` names are held simultaneously: a release
    /// simply reopens one TAS slot, and every acquire still wins a slot
    /// exactly once between releases. The `log log n + O(1)` w.h.p. step
    /// bound is proven only for the one-shot case; in steady state the
    /// empirical behaviour matches (exercised in the test suite), but it
    /// is not covered by Theorem 4.1.
    ///
    /// # Panics
    ///
    /// Panics if `name` is outside the namespace or not currently held —
    /// both indicate a caller bug (releasing a name you do not own would
    /// silently break uniqueness for another holder).
    pub fn release_name(&self, name: Name) {
        driver::release_checked(&self.slots, self.namespace_size(), name);
    }
}

impl<T: Tas> Rebatching<T> {
    /// Builds an object over caller-provided TAS slots (e.g. counting
    /// wrappers, or the register-based tournament via an adapter).
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::NamespaceExhausted`] if `slots` is smaller
    /// than the layout's namespace.
    pub fn from_parts(layout: Arc<BatchLayout>, slots: Arc<TasArray<T>>) -> Result<Self, RenamingError> {
        if slots.len() < layout.namespace_size() {
            return Err(RenamingError::NamespaceExhausted {
                namespace: layout.namespace_size(),
            });
        }
        Ok(Self { layout, slots })
    }

    /// Acquires a unique name. Call at most once per participating thread
    /// (the object is one-shot, as in the paper).
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::NamespaceExhausted`] if every location is
    /// already taken — only possible when more than `n` threads use the
    /// object.
    pub fn get_name<R: Rng>(&self, rng: &mut R) -> Result<Name, RenamingError> {
        let mut machine = RebatchingMachine::new(Arc::clone(&self.layout), 0);
        driver::drive(&mut machine, &self.slots, rng)
    }

    /// The namespace size `m = (1+ε)n` (names are in `0..m`).
    pub fn namespace_size(&self) -> usize {
        self.layout.namespace_size()
    }

    /// The capacity `n` the object was built for.
    pub fn capacity(&self) -> usize {
        self.layout.capacity()
    }

    /// The batch geometry.
    pub fn layout(&self) -> &Arc<BatchLayout> {
        &self.layout
    }

    /// The underlying slot array (shared).
    pub fn slots(&self) -> &Arc<TasArray<T>> {
        &self.slots
    }

    /// Builds a step machine probing this object's layout (for simulated
    /// executions; the machine does not touch the concurrent slots).
    pub fn machine(&self) -> RebatchingMachine {
        RebatchingMachine::new(Arc::clone(&self.layout), 0)
    }

    /// A per-thread session reusing one machine across
    /// [`get_name`](Self::get_name)-equivalent calls — the long-lived
    /// fast path: no machine construction (and no `Arc` refcount
    /// traffic) per operation.
    pub fn session(&self) -> driver::NameSession<RebatchingMachine, T> {
        driver::NameSession::new(self.machine(), Arc::clone(&self.slots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use renaming_sim::adversary::{CollisionSeeker, LayeredPermutation, Starver, UniformRandom};
    use renaming_sim::Execution;

    fn machines(n: usize, layout: &Arc<BatchLayout>) -> Vec<Box<dyn Renamer>> {
        (0..n)
            .map(|_| Box::new(RebatchingMachine::new(Arc::clone(layout), 0)) as Box<dyn Renamer>)
            .collect()
    }

    fn paper_layout(n: usize) -> Arc<BatchLayout> {
        BatchLayout::shared(n, ProbeSchedule::paper(Epsilon::one(), 3).unwrap()).unwrap()
    }

    #[test]
    fn all_processes_get_unique_names_round_robin() {
        let n = 128;
        let layout = paper_layout(n);
        let report = Execution::new(layout.namespace_size())
            .seed(1)
            .run(machines(n, &layout))
            .expect("no safety violation");
        assert_eq!(report.named_count(), n);
        assert_eq!(report.stuck_count(), 0);
        assert!(report.names_within(layout.namespace_size()).is_ok());
    }

    #[test]
    fn unique_names_under_every_adversary() {
        let n = 64;
        let layout = paper_layout(n);
        let adversaries: Vec<Box<dyn renaming_sim::adversary::Adversary>> = vec![
            Box::new(UniformRandom::new()),
            Box::new(LayeredPermutation::new()),
            Box::new(CollisionSeeker::new()),
            Box::new(Starver::new(0)),
        ];
        for adv in adversaries {
            let label = adv.label();
            let report = Execution::new(layout.namespace_size())
                .adversary(adv)
                .seed(7)
                .run(machines(n, &layout))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(report.named_count(), n, "{label}");
            assert!(report.names_within(layout.namespace_size()).is_ok(), "{label}");
        }
    }

    #[test]
    fn step_complexity_is_bounded_by_probe_budget_plus_backup() {
        let n = 256;
        let layout = paper_layout(n);
        let report = Execution::new(layout.namespace_size())
            .seed(3)
            .run(machines(n, &layout))
            .expect("run");
        // Without entering backup, nobody exceeds t0 + (κ-1) + β probes.
        if report.backup_entries() == 0 {
            assert!(report.max_steps() <= layout.max_probes() as u64);
        }
    }

    #[test]
    fn overfull_object_reports_stuck_not_livelock() {
        // 2n processes on an object sized for n: the n surplus processes
        // must exhaust and report Stuck instead of spinning.
        let n = 8;
        let layout = paper_layout(n);
        let m = layout.namespace_size();
        let report = Execution::new(m)
            .seed(5)
            .run(machines(2 * m, &layout))
            .expect("uniqueness still holds");
        assert_eq!(report.named_count(), m, "every location claimed");
        assert_eq!(report.stuck_count(), 2 * m - m);
    }

    #[test]
    fn concurrent_threads_unique_names() {
        let n = 64;
        let object = Rebatching::with_defaults(n, Epsilon::one()).expect("construct");
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let obj = object.clone();
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(1000 + i as u64);
                    obj.get_name(&mut rng).expect("name")
                })
            })
            .collect();
        let mut names: Vec<usize> = handles
            .into_iter()
            .map(|h| h.join().expect("join").value())
            .collect();
        names.sort_unstable();
        let len_before = names.len();
        names.dedup();
        assert_eq!(names.len(), len_before, "duplicate names handed out");
        assert!(names.iter().all(|&v| v < object.namespace_size()));
    }

    #[test]
    fn concurrent_exhaustion_is_an_error() {
        let object = Rebatching::with_defaults(2, Epsilon::one()).expect("construct");
        let mut rng = StdRng::seed_from_u64(0);
        let m = object.namespace_size();
        for _ in 0..m {
            object.get_name(&mut rng).expect("within capacity");
        }
        let err = object.get_name(&mut rng).unwrap_err();
        assert_eq!(err, RenamingError::NamespaceExhausted { namespace: m });
    }

    #[test]
    fn machine_stats_reflect_probes() {
        let n = 32;
        let layout = paper_layout(n);
        let report = Execution::new(layout.namespace_size())
            .seed(11)
            .run(machines(n, &layout))
            .expect("run");
        for (outcome, stats) in report.outcomes.iter().zip(&report.stats) {
            assert_eq!(outcome.steps(), stats.probes, "steps == probes");
            assert_eq!(stats.objects_visited, 1);
            assert_eq!(stats.names_acquired, 1);
        }
    }

    #[test]
    fn long_lived_release_and_reacquire() {
        let object = Rebatching::with_defaults(4, Epsilon::one()).expect("construct");
        let mut rng = StdRng::seed_from_u64(3);
        let a = object.get_name(&mut rng).expect("name");
        let b = object.get_name(&mut rng).expect("name");
        assert_ne!(a, b);
        object.release_name(a);
        // The released slot is acquirable again; uniqueness among holders
        // is preserved throughout.
        let c = object.get_name(&mut rng).expect("name");
        assert_ne!(c, b);
        object.release_name(b);
        object.release_name(c);
    }

    #[test]
    fn long_lived_steady_state_threads() {
        // 8 threads cycle acquire/release against a capacity-8 object; at
        // most 8 names are ever held, so every acquire must succeed and no
        // two concurrent holders may share a name.
        let object = Rebatching::with_defaults(8, Epsilon::one()).expect("construct");
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let obj = object.clone();
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(500 + i as u64);
                    for _ in 0..50 {
                        let name = obj.get_name(&mut rng).expect("within capacity");
                        // Hold briefly, then release.
                        std::hint::black_box(name);
                        obj.release_name(name);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no uniqueness panic in any thread");
        }
        // Everything released at the end.
        assert_eq!(object.slots().set_count(), 0);
    }

    #[test]
    #[should_panic]
    fn releasing_unheld_name_panics() {
        let object = Rebatching::with_defaults(4, Epsilon::one()).expect("construct");
        object.release_name(renaming_sim::Name::new(0));
    }

    #[test]
    fn from_parts_validates_slot_count() {
        let layout = paper_layout(8);
        let slots: Arc<TasArray<AtomicTas>> = Arc::new(TasArray::new(4));
        assert!(Rebatching::from_parts(Arc::clone(&layout), slots).is_err());
        let enough: Arc<TasArray<AtomicTas>> =
            Arc::new(TasArray::new(layout.namespace_size()));
        assert!(Rebatching::from_parts(layout, enough).is_ok());
    }
}
