//! **AdaptiveReBatching** (§5.1): adaptive loose renaming with
//! `O((log log k)^2)` step complexity and names of value `O(k)` w.h.p.,
//! where `k` is the actual contention.
//!
//! A process first *races*: it calls `GetName` (without backup) on objects
//! `R_1, R_2, R_4, ...` until one call succeeds, say on `R_b`. It then
//! *crunches* the namespace by binary search over the object indices
//! between the last failed landmark and `b`, returning the name acquired
//! from the smallest index whose `GetName` succeeded.

use std::sync::Arc;

use rand::RngCore;

use renaming_sim::{Action, MachineStats, Name, Renamer};
use renaming_tas::{AtomicTas, Tas, TasArray};

use crate::calls::{CallStatus, ObjectCall};
use crate::driver;
use crate::{AdaptiveLayout, Epsilon, ProbeSchedule, RenamingError, RenamingObject, DEFAULT_BETA};

/// Step machine for one process running AdaptiveReBatching.
///
/// The `GetName` calls of the race phase omit the backup phase exactly as
/// §5.1 prescribes, with one deliberate deviation: the
/// *top* object `R_L` keeps its backup scan, which restores a deterministic
/// termination guarantee once the collection is bounded (`R_L` has at least
/// `2n` slots and each process claims at most one of them in the race).
#[derive(Debug, Clone)]
pub struct AdaptiveMachine {
    layout: Arc<AdaptiveLayout>,
    phase: Phase,
    /// Locations won during the search and later superseded by a smaller
    /// name (see [`driver::ResetMachine::abandoned`]).
    abandoned: Vec<usize>,
    deepest_batch: usize,
    entered_backup: bool,
}

#[derive(Debug, Clone)]
enum Phase {
    /// Race phase: `pos` indexes the layout's landmark sequence.
    Race { pos: usize, call: ObjectCall },
    /// Binary search over object indices `a..=b`; `best` was acquired from
    /// object `b`.
    Search {
        a: usize,
        b: usize,
        best: Name,
        /// The in-flight `GetName` on object `d`, if any.
        call: Option<(usize, ObjectCall)>,
    },
    Finished(Name),
    Stuck,
}

impl AdaptiveMachine {
    /// Creates a machine over the shared object collection.
    pub fn new(layout: Arc<AdaptiveLayout>) -> Self {
        let first = Self::object_call(&layout, layout.landmarks()[0]);
        Self {
            layout,
            phase: Phase::Race { pos: 0, call: first },
            abandoned: Vec::new(),
            deepest_batch: 0,
            entered_backup: false,
        }
    }

    fn object_call(layout: &AdaptiveLayout, index: usize) -> ObjectCall {
        let object = Arc::clone(layout.object(index));
        let base = layout.base(index);
        if index == layout.max_index() {
            // D4 termination safeguard: backup on the top object only.
            ObjectCall::with_backup(object, base)
        } else {
            ObjectCall::new(object, base)
        }
    }

    fn absorb_call_stats(&mut self, call: &ObjectCall) {
        self.deepest_batch = self.deepest_batch.max(call.deepest_batch());
        self.entered_backup |= call.entered_backup();
    }

    /// Moves the binary search forward; starts the next `GetName` when
    /// `a < b`, otherwise finishes with the name held from `R_b`.
    fn continue_search(layout: &Arc<AdaptiveLayout>, a: usize, b: usize, best: Name) -> Phase {
        if a < b {
            let d = (a + b) / 2;
            Phase::Search {
                a,
                b,
                best,
                call: Some((d, Self::object_call(layout, d))),
            }
        } else {
            Phase::Finished(best)
        }
    }
}

/// The adaptive race/search walk re-derives its starting object from the
/// contention it observes, so there is no cheap continuation: each batch
/// request runs as a fresh operation (the default rearm = reset).
impl driver::ResetMachine for AdaptiveMachine {
    fn reset(&mut self) {
        // Recycle the abandoned-wins buffer, then delegate so the reset
        // state is definitionally a fresh machine (future fields cannot
        // drift out of the reset).
        let mut abandoned = std::mem::take(&mut self.abandoned);
        abandoned.clear();
        *self = Self::new(Arc::clone(&self.layout));
        self.abandoned = abandoned;
    }

    fn abandoned(&self) -> &[usize] {
        &self.abandoned
    }

    fn clear_abandoned(&mut self) {
        self.abandoned.clear();
    }
}

impl AdaptiveMachine {
    #[inline]
    fn propose_impl<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> Action {
        match &mut self.phase {
            Phase::Race { call, .. } => Action::Probe(call.propose(rng)),
            Phase::Search {
                call: Some((_, call)),
                ..
            } => Action::Probe(call.propose(rng)),
            Phase::Search { call: None, .. } => {
                unreachable!("search phase always holds an in-flight call")
            }
            Phase::Finished(name) => Action::Done(*name),
            Phase::Stuck => Action::Stuck,
        }
    }
}

impl Renamer for AdaptiveMachine {
    fn propose(&mut self, rng: &mut dyn RngCore) -> Action {
        self.propose_impl(rng)
    }

    #[inline]
    fn propose_typed<R: RngCore>(&mut self, rng: &mut R) -> Action {
        self.propose_impl(rng)
    }

    fn observe(&mut self, won: bool) {
        let layout = Arc::clone(&self.layout);
        // Take ownership of the phase so stats bookkeeping and the
        // transition logic don't fight the borrow checker.
        let phase = std::mem::replace(&mut self.phase, Phase::Stuck);
        self.phase = match phase {
            Phase::Race { pos, mut call } => match call.observe(won) {
                CallStatus::InProgress => Phase::Race { pos, call },
                CallStatus::Acquired(loc) => {
                    self.absorb_call_stats(&call);
                    let landmark = layout.landmarks()[pos];
                    let name = Name::new(loc);
                    if pos == 0 {
                        Phase::Finished(name)
                    } else {
                        // Binary search over R_(prev+1) ..= R_(landmark).
                        let a = layout.landmarks()[pos - 1] + 1;
                        Self::continue_search(&layout, a, landmark, name)
                    }
                }
                CallStatus::Exhausted => {
                    self.absorb_call_stats(&call);
                    let next = pos + 1;
                    if next < layout.landmarks().len() {
                        Phase::Race {
                            pos: next,
                            call: Self::object_call(&layout, layout.landmarks()[next]),
                        }
                    } else {
                        // Only possible when the object collection is used
                        // beyond its configured capacity (the top object's
                        // backup otherwise guarantees success).
                        Phase::Stuck
                    }
                }
            },
            Phase::Search { a, b, best, call } => {
                let (d, mut object_call) = call.expect("in-flight call");
                match object_call.observe(won) {
                    CallStatus::InProgress => Phase::Search {
                        a,
                        b,
                        best,
                        call: Some((d, object_call)),
                    },
                    CallStatus::Acquired(loc) => {
                        self.absorb_call_stats(&object_call);
                        // Success at R_d supersedes the name held from R_b.
                        self.abandoned.push(best.value());
                        // d becomes the new upper bound.
                        Self::continue_search(&layout, a, d, Name::new(loc))
                    }
                    CallStatus::Exhausted => {
                        self.absorb_call_stats(&object_call);
                        // Failure at R_d: the contention exceeds d.
                        Self::continue_search(&layout, d + 1, b, best)
                    }
                }
            }
            Phase::Finished(_) | Phase::Stuck => unreachable!("observe after termination"),
        };
    }

    fn stats(&self) -> MachineStats {
        MachineStats {
            deepest_batch: Some(self.deepest_batch),
            entered_backup: self.entered_backup,
        }
    }

    fn algorithm(&self) -> &'static str {
        "adaptive-rebatching"
    }
}

/// The concurrent AdaptiveReBatching object collection.
///
/// Unlike [`crate::Rebatching`], the *capacity* passed at construction is
/// only a system bound (the paper's `n`); the step complexity and the
/// value of the returned names scale with the actual number of
/// participating threads `k`.
///
/// The one-shot [`get_name`](RenamingObject::get_name) leaves the surplus
/// TAS wins the search phase superseded set — exactly what the paper's
/// `O(k)` namespace accounting expects, but a slot leak per operation
/// under acquire/release churn. Long-lived callers acquire through a
/// [`session`](RenamingObject::session)'s
/// [`get_name_recycling`](driver::NameSession::get_name_recycling), which
/// reopens them. Under steady-state churn names stay small because
/// releases refill the low objects the race phase visits first, but
/// Theorem 5.1 covers the one-shot case only.
///
/// # Example
///
/// ```
/// use renaming_core::{AdaptiveRebatching, Epsilon};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // System bound 1024 processes, but only two will actually show up.
/// let object = AdaptiveRebatching::with_defaults(1024, Epsilon::one())?;
/// let mut rng = StdRng::seed_from_u64(3);
/// let a = object.get_name(&mut rng)?;
/// let b = object.get_name(&mut rng)?;
/// assert_ne!(a, b);
/// // With contention 2, names stay near the bottom of the namespace.
/// assert!(a.value().max(b.value()) < 64);
/// # Ok(())
/// # }
/// ```
pub type AdaptiveRebatching<T = AtomicTas> = RenamingObject<AdaptiveMachine, T>;

impl AdaptiveRebatching<AtomicTas> {
    /// Creates a collection sized for up to `capacity` processes.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn new(capacity: usize, epsilon: Epsilon, beta: usize) -> Result<Self, RenamingError> {
        let schedule = ProbeSchedule::paper(epsilon, beta)?;
        Self::with_schedule(capacity, schedule)
    }

    /// Creates a collection with the default `β = 3`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn with_defaults(capacity: usize, epsilon: Epsilon) -> Result<Self, RenamingError> {
        Self::new(capacity, epsilon, DEFAULT_BETA)
    }

    /// Creates a collection with an explicit probe schedule.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn with_schedule(capacity: usize, schedule: ProbeSchedule) -> Result<Self, RenamingError> {
        let layout = Arc::new(AdaptiveLayout::for_capacity(capacity, schedule)?);
        let slots = Arc::new(TasArray::new(layout.total_size()));
        Self::from_parts(layout, slots)
    }
}

impl<T: Tas> AdaptiveRebatching<T> {
    /// Builds a collection over caller-provided TAS slots (e.g. counting
    /// wrappers, or the register-based tournament via an adapter).
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::SlotArrayMismatch`] if `slots` is not
    /// exactly the layout's total size.
    pub fn from_parts(
        layout: Arc<AdaptiveLayout>,
        slots: Arc<TasArray<T>>,
    ) -> Result<Self, RenamingError> {
        let (capacity, namespace) = (layout.capacity(), layout.total_size());
        Self::from_machine(AdaptiveMachine::new(layout), capacity, namespace, slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use renaming_sim::adversary::{CollisionSeeker, LayeredPermutation, UniformRandom};
    use renaming_sim::Execution;

    fn shared_layout(capacity: usize) -> Arc<AdaptiveLayout> {
        let s = ProbeSchedule::paper(Epsilon::one(), 3).unwrap();
        Arc::new(AdaptiveLayout::for_capacity(capacity, s).unwrap())
    }

    fn machines(k: usize, layout: &Arc<AdaptiveLayout>) -> Vec<Box<dyn Renamer>> {
        (0..k)
            .map(|_| Box::new(AdaptiveMachine::new(Arc::clone(layout))) as Box<dyn Renamer>)
            .collect()
    }

    #[test]
    fn all_participants_get_unique_names() {
        let layout = shared_layout(256);
        for k in [1usize, 2, 5, 32, 100] {
            let report = Execution::new(layout.total_size())
                .seed(k as u64)
                .run(machines(k, &layout))
                .expect("no safety violation");
            assert_eq!(report.named_count(), k, "k = {k}");
            assert_eq!(report.stuck_count(), 0, "k = {k}");
        }
    }

    #[test]
    fn names_scale_with_contention_not_capacity() {
        // Capacity is huge; with k = 4 participants the names must stay
        // O(k), far below the capacity-scale namespace.
        let layout = shared_layout(1 << 14);
        let report = Execution::new(layout.total_size())
            .adversary(Box::new(UniformRandom::new()))
            .seed(9)
            .run(machines(4, &layout))
            .expect("run");
        let max_name = report.max_name().expect("names assigned").value();
        assert!(
            max_name < 200,
            "k=4 should yield names O(k), got {max_name} (total namespace {})",
            layout.total_size()
        );
    }

    #[test]
    fn unique_names_under_adversaries() {
        let layout = shared_layout(128);
        let advs: Vec<Box<dyn renaming_sim::adversary::Adversary>> = vec![
            Box::new(UniformRandom::new()),
            Box::new(LayeredPermutation::new()),
            Box::new(CollisionSeeker::new()),
        ];
        for adv in advs {
            let label = adv.label();
            let report = Execution::new(layout.total_size())
                .adversary(adv)
                .seed(17)
                .run(machines(64, &layout))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(report.named_count(), 64, "{label}");
        }
    }

    #[test]
    fn solo_process_gets_tiny_name_quickly() {
        let layout = shared_layout(1 << 12);
        let report = Execution::new(layout.total_size())
            .seed(4)
            .run(machines(1, &layout))
            .expect("run");
        let name = report.max_name().expect("named").value();
        // Alone, the race succeeds at R_1 whose namespace is tiny.
        assert!(name < layout.object(1).namespace_size());
        assert!(report.max_steps() <= 4, "solo run should win immediately");
    }

    #[test]
    fn concurrent_threads_unique_names() {
        let object = AdaptiveRebatching::with_defaults(512, Epsilon::one()).expect("construct");
        let k = 48;
        let handles: Vec<_> = (0..k)
            .map(|i| {
                let obj = object.clone();
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(7_000 + i as u64);
                    obj.get_name(&mut rng).expect("name")
                })
            })
            .collect();
        let mut names: Vec<usize> = handles
            .into_iter()
            .map(|h| h.join().expect("join").value())
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate names");
    }

    #[test]
    fn capacity_reports_the_provisioned_bound_exactly() {
        // Not the power-of-two rounding the collection is built from.
        let object = AdaptiveRebatching::with_defaults(100, Epsilon::one()).expect("construct");
        assert_eq!(object.capacity(), 100);
        let s = ProbeSchedule::paper(Epsilon::one(), 3).unwrap();
        assert_eq!(
            AdaptiveLayout::with_max_index(8, s).unwrap().capacity(),
            128
        );
    }

    #[test]
    fn release_and_reacquire_recycles_slots() {
        let object = AdaptiveRebatching::with_defaults(64, Epsilon::one()).expect("construct");
        assert_eq!(object.capacity(), 64);
        let mut rng = StdRng::seed_from_u64(11);
        let a = object.get_name(&mut rng).expect("name");
        let b = object.get_name(&mut rng).expect("name");
        assert_ne!(a, b);
        object.release_name(a);
        let c = object.get_name(&mut rng).expect("name");
        assert_ne!(c, b, "b is still held");
        object.release_name(b);
        object.release_name(c);
        assert_eq!(object.slots().set_count(), 0);
    }

    #[test]
    #[should_panic]
    fn releasing_unheld_name_panics() {
        let object = AdaptiveRebatching::with_defaults(64, Epsilon::one()).expect("construct");
        object.release_name(renaming_sim::Name::new(0));
    }

    #[test]
    fn from_parts_validates_slot_count() {
        let layout = shared_layout(32);
        let short: Arc<TasArray<AtomicTas>> = Arc::new(TasArray::new(4));
        assert!(AdaptiveRebatching::from_parts(Arc::clone(&layout), short).is_err());
        let longer: Arc<TasArray<AtomicTas>> = Arc::new(TasArray::new(layout.total_size() + 1));
        assert!(AdaptiveRebatching::from_parts(Arc::clone(&layout), longer).is_err());
        let enough: Arc<TasArray<AtomicTas>> = Arc::new(TasArray::new(layout.total_size()));
        assert!(AdaptiveRebatching::from_parts(layout, enough).is_ok());
    }
}
