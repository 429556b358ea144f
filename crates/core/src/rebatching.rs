//! The **ReBatching** algorithm (§4, Fig. 1): non-adaptive loose renaming
//! into `(1+ε)n` names with `log log n + O(1)` step complexity w.h.p.

use std::sync::Arc;

use rand::RngCore;

use renaming_sim::{Action, MachineStats, Name, Renamer};
use renaming_tas::{AtomicTas, Tas, TasArray};

use crate::calls::{CallStatus, ObjectCall};
use crate::driver;
use crate::{BatchLayout, Epsilon, ProbeSchedule, RenamingError, RenamingObject, DEFAULT_BETA};

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
}

impl RebatchingMachine {
    /// Creates a machine probing the object described by `layout`, located
    /// at global offset `base` in the shared memory.
    pub fn new(layout: Arc<BatchLayout>, base: usize) -> Self {
        Self {
            call: ObjectCall::with_backup(layout, base),
            won: None,
            exhausted: false,
        }
    }
}

/// ReBatching holds at most one win at a time, so nothing is ever
/// superseded (the default `abandoned`). Its batched continuation: the
/// next request of a batch resumes the sweep at the batch (or backup
/// offset) the previous win landed in, with a fresh probe budget — the
/// prefix those earlier requests filled is never re-probed. Falls back
/// to a full rewind when there is nothing to resume from.
impl driver::ResetMachine for RebatchingMachine {
    fn reset(&mut self) {
        self.call.reset();
        self.won = None;
        self.exhausted = false;
    }

    fn rearm_after_win(&mut self) {
        if self.call.rearm_continue() {
            self.won = None;
            self.exhausted = false;
        } else {
            driver::ResetMachine::reset(self);
        }
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
            CallStatus::InProgress => {}
        }
    }

    fn stats(&self) -> MachineStats {
        MachineStats {
            deepest_batch: Some(self.call.deepest_batch()),
            entered_backup: self.call.entered_backup(),
        }
    }

    fn algorithm(&self) -> &'static str {
        "rebatching"
    }
}

/// The concurrent ReBatching object: an array of hardware TAS slots shared
/// by up to `n` threads, each calling [`get_name`](RenamingObject::get_name)
/// once.
///
/// Cloning is cheap (the layout and slot array are shared); clones refer to
/// the *same* namespace.
///
/// [`release_name`](RenamingObject::release_name) makes the object
/// long-lived: the `(1+ε)n` namespace and uniqueness guarantees hold as
/// long as at most `n` names are held simultaneously, but the
/// `log log n + O(1)` w.h.p. step bound is proven only for the one-shot
/// case. The long-lived step count lies outside Theorem 4.1: it depends on
/// occupancy and on the order in which names are released (when every
/// free name lies outside batch 0, each acquire first spends batch 0's
/// whole `t₀` probe budget), and it is not yet measured.
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
pub type Rebatching<T = AtomicTas> = RenamingObject<RebatchingMachine, T>;

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
        Self::from_parts(layout, slots)
    }
}

impl<T: Tas> Rebatching<T> {
    /// Builds an object over caller-provided TAS slots (e.g. counting
    /// wrappers, or the register-based tournament via an adapter).
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::SlotArrayMismatch`] if `slots` is not
    /// exactly the layout's namespace.
    pub fn from_parts(layout: Arc<BatchLayout>, slots: Arc<TasArray<T>>) -> Result<Self, RenamingError> {
        let (capacity, namespace) = (layout.capacity(), layout.namespace_size());
        let machine = RebatchingMachine::new(layout, 0);
        Self::from_machine(machine, capacity, namespace, slots)
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
    fn reported_batch_and_backup_match_the_trace() {
        // `deepest_batch` and `entered_backup` feed every per-batch and
        // backup figure of the experiments; rederive both from the probe
        // trace. The second case crowds processes into the backup scan.
        for (capacity, n, min_backups) in [(256, 256, 0), (32, 60, 1)] {
            let layout = paper_layout(capacity);
            let report = Execution::new(layout.namespace_size())
                .adversary(Box::new(CollisionSeeker::new()))
                .seed(1)
                .tracing(true)
                .run(machines(n, &layout))
                .expect("run");
            let trace = report.trace.as_ref().expect("tracing enabled");
            let mut steps = vec![0usize; n];
            let mut last = vec![0usize; n];
            for event in trace.events() {
                steps[event.pid] += 1;
                last[event.pid] = event.location;
            }
            let mut backups = 0;
            for (pid, stats) in report.stats.iter().enumerate() {
                // Batch probes alone cost at most `max_probes`; only the
                // backup scan goes past it.
                let in_backup = steps[pid] > layout.max_probes();
                assert_eq!(stats.entered_backup, in_backup, "n = {n}, process {pid}");
                if in_backup {
                    backups += 1;
                } else {
                    let (batch, _) = layout.locate(last[pid]).expect("batch-area probe");
                    assert_eq!(stats.deepest_batch, Some(batch), "n = {n}, process {pid}");
                }
            }
            assert_eq!(backups, report.backup_entries(), "n = {n}");
            assert!(backups >= min_backups, "n = {n}: {backups} backup entries");
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
        assert_eq!(err, crate::NamespaceExhausted { namespace: m });
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
        let longer: Arc<TasArray<AtomicTas>> = Arc::new(TasArray::new(layout.namespace_size() + 1));
        assert!(Rebatching::from_parts(Arc::clone(&layout), longer).is_err());
        let enough: Arc<TasArray<AtomicTas>> =
            Arc::new(TasArray::new(layout.namespace_size()));
        assert!(Rebatching::from_parts(layout, enough).is_ok());
    }
}
