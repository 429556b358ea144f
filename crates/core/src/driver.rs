//! Drives a step machine against real hardware TAS slots.
//!
//! This is the bridge between the simulation model and the concurrent
//! world: the *same* [`Renamer`] state machines that the simulator
//! schedules step-by-step are executed here as a tight loop on the calling
//! thread, with each proposed probe hitting a real [`TasArray`] slot. Since
//! all algorithm logic lives in the machines, the simulated and threaded
//! implementations cannot drift apart.
//!
//! Long-lived workloads should hold a [`NameSession`] per thread: it
//! reuses one machine across acquires (via [`ResetMachine`]) instead of
//! constructing a machine — with its `Arc` refcount traffic and, for the
//! fast-adaptive algorithm, its search-stack allocation — on every
//! operation.

use std::sync::Arc;

use rand::Rng;

use renaming_sim::{Action, Name, Renamer};
use renaming_tas::{Tas, TasArray};

use crate::NamespaceExhausted;

/// A step machine that can rewind to its initial state in place,
/// reusing its allocations, so one machine instance serves many
/// renaming operations.
pub trait ResetMachine: Renamer {
    /// Rewinds the machine to the state a freshly constructed machine
    /// starts in. After `reset`, driving the machine with the same coin
    /// flips against the same memory produces the same outcome as a new
    /// machine would.
    fn reset(&mut self);

    /// Prepares the machine for the next request of a *batch* of
    /// acquires, right after a win — the paper's `BatchCall` shape,
    /// surfaced as `PooledSession::acquire_batch` in the service crate.
    ///
    /// Between two wins of one batch the driver calls this instead of
    /// [`reset`](Self::reset). The default simply resets, which is
    /// always correct (each request behaves exactly like a fresh
    /// operation); machines with a cheaper continuation override it —
    /// ReBatching resumes its batch walk at the batch the previous win
    /// landed in, skipping the prefix the batch has already filled.
    ///
    /// Implementations must uphold the same postcondition as `reset`:
    /// after `rearm_after_win`, driving the machine acquires a fresh,
    /// unique name (uniqueness is carried by the TAS slots, so any probe
    /// schedule is safe — the contract is only that the machine probes
    /// until it wins or reports exhaustion).
    fn rearm_after_win(&mut self) {
        self.reset();
    }

    /// Locations won and then superseded during the current run.
    ///
    /// The adaptive algorithms (§5) acquire a name per successful
    /// `GetName`/`TryGetName` along their race and search phases and
    /// keep only the smallest; the superseded wins stay *set* in shared
    /// memory. For the paper's one-shot objects that is the intended
    /// behaviour (the `O(k)` namespace bound counts them), but a
    /// long-lived service must return them to the namespace or every
    /// acquire leaks slots. Machines record the superseded locations
    /// here so [`drive_recycling`] can reopen them once the operation
    /// completes. The default, for machines that hold at most one win
    /// at a time, is empty.
    fn abandoned(&self) -> &[usize] {
        &[]
    }

    /// Forgets the recorded [`abandoned`](Self::abandoned) locations
    /// (after the caller recycled them).
    fn clear_abandoned(&mut self) {}
}

/// A per-thread handle onto one concurrent renaming object that reuses
/// a single machine across operations.
///
/// Obtained from [`crate::RenamingObject::session`]. Each participating
/// thread keeps its own session; the underlying slot array stays shared,
/// so names remain unique across sessions. Every acquire recycles: the
/// surplus TAS wins a machine supersedes return to the namespace (see
/// [`ResetMachine::abandoned`]).
#[derive(Debug)]
pub struct NameSession<M, T: Tas> {
    machine: M,
    slots: Arc<TasArray<T>>,
}

impl<M: ResetMachine, T: Tas> NameSession<M, T> {
    /// Builds a session from a machine and the object's shared slots.
    pub(crate) fn new(machine: M, slots: Arc<TasArray<T>>) -> Self {
        Self { machine, slots }
    }

    /// Acquires a unique name, reusing this session's machine, and
    /// reopens any surplus TAS wins the machine superseded along the
    /// way — the long-lived mode (see [`ResetMachine::abandoned`]).
    ///
    /// # Errors
    ///
    /// As for the owning object's `get_name`.
    pub fn get_name_recycling<R: Rng>(&mut self, rng: &mut R) -> Result<Name, NamespaceExhausted> {
        self.machine.reset();
        drive_recycling(&mut self.machine, &self.slots, rng)
    }

    /// Acquires `count` unique names in one batched sweep, appending
    /// them to `out`, and reopens each request's superseded TAS wins as
    /// it completes (see [`ResetMachine::abandoned`]).
    ///
    /// The machine is reset once at the start; between wins it is
    /// *rearmed* ([`ResetMachine::rearm_after_win`]) rather than reset,
    /// so machines with batch structure amortize their probe work across
    /// the whole batch — a request starts probing where the previous win
    /// left off instead of rewinding to the (already crowded) front.
    /// `acquire_batch_recycling(1, ..)` behaves exactly like
    /// [`get_name_recycling`](Self::get_name_recycling).
    ///
    /// # Errors
    ///
    /// Returns [`NamespaceExhausted`] if the namespace cannot satisfy
    /// the whole batch; names already won stay acquired and are left in
    /// `out` (the caller distributes them or releases them).
    pub fn acquire_batch_recycling<R: Rng>(
        &mut self,
        count: usize,
        rng: &mut R,
        out: &mut Vec<Name>,
    ) -> Result<(), NamespaceExhausted> {
        self.machine.reset();
        for served in 0..count {
            if served > 0 {
                self.machine.rearm_after_win();
            }
            let name = drive_recycling(&mut self.machine, &self.slots, rng)?;
            out.push(name);
        }
        Ok(())
    }
}

/// Runs `machine` to completion against `slots`, drawing coins from `rng`.
///
/// # Errors
///
/// Returns [`NamespaceExhausted`] if the machine gives up (more callers
/// than the namespace can hold).
///
/// # Panics
///
/// In debug builds, panics if the machine proposes a probe outside `slots`
/// — that is a bug in the machine, not a runtime condition. The check sits
/// inside the per-probe loop, so release builds elide it and rely on
/// `TasArray`'s own bounds check to catch the (machine-bug) case.
#[inline]
pub fn drive<M, T, R>(
    machine: &mut M,
    slots: &TasArray<T>,
    rng: &mut R,
) -> Result<Name, NamespaceExhausted>
where
    M: Renamer + ?Sized,
    T: Tas,
    R: Rng,
{
    loop {
        match machine.propose(rng) {
            Action::Probe(location) => {
                debug_assert!(
                    location < slots.len(),
                    "machine probed location {location} outside the {}-slot array",
                    slots.len()
                );
                let won = slots.test_and_set(location).won();
                machine.observe(won);
            }
            Action::Done(name) => return Ok(name),
            Action::Stuck => {
                return Err(NamespaceExhausted {
                    namespace: slots.len(),
                })
            }
        }
    }
}

/// Runs `machine` to completion like [`drive`], then reopens every TAS
/// location the machine won but superseded (see
/// [`ResetMachine::abandoned`]) — the drive mode of long-lived
/// workloads.
///
/// # Errors
///
/// As for [`drive`].
#[inline]
pub fn drive_recycling<M, T, R>(
    machine: &mut M,
    slots: &TasArray<T>,
    rng: &mut R,
) -> Result<Name, NamespaceExhausted>
where
    M: ResetMachine + ?Sized,
    T: Tas,
    R: Rng,
{
    let result = drive(machine, slots, rng);
    for &location in machine.abandoned() {
        // The machine won this location during the completed run and
        // nobody else can have reset it, so the slot must still be set.
        let was_set = slots.reset_slot(location);
        debug_assert!(was_set, "abandoned location {location} was not set");
    }
    machine.clear_abandoned();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use renaming_tas::AtomicTas;

    struct Scan {
        next: usize,
        won: Option<Name>,
        give_up_at: usize,
    }

    impl Renamer for Scan {
        fn propose(&mut self, _rng: &mut dyn RngCore) -> Action {
            match self.won {
                Some(name) => Action::Done(name),
                None if self.next >= self.give_up_at => Action::Stuck,
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
    }

    #[test]
    fn drives_machine_to_a_name() {
        let slots: TasArray<AtomicTas> = TasArray::new(4);
        slots.test_and_set(0);
        slots.test_and_set(1);
        let mut rng = StdRng::seed_from_u64(0);
        let mut machine = Scan {
            next: 0,
            won: None,
            give_up_at: 4,
        };
        let name = drive(&mut machine, &slots, &mut rng).expect("finds slot 2");
        assert_eq!(name.value(), 2);
    }

    #[test]
    fn stuck_machine_surfaces_error() {
        let slots: TasArray<AtomicTas> = TasArray::new(2);
        slots.test_and_set(0);
        slots.test_and_set(1);
        let mut rng = StdRng::seed_from_u64(0);
        let mut machine = Scan {
            next: 0,
            won: None,
            give_up_at: 2,
        };
        let err = drive(&mut machine, &slots, &mut rng).unwrap_err();
        assert_eq!(err, NamespaceExhausted { namespace: 2 });
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_probe_panics() {
        let slots: TasArray<AtomicTas> = TasArray::new(1);
        let mut rng = StdRng::seed_from_u64(0);
        let mut machine = Scan {
            next: 5,
            won: None,
            give_up_at: 10,
        };
        let _ = drive(&mut machine, &slots, &mut rng);
    }
}

#[cfg(test)]
mod session_tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::baselines::{
        DoublingRenaming, LinearScanRenaming, SingleBatchRenaming, UniformRenaming,
    };
    use crate::{
        AdaptiveRebatching, Epsilon, FastAdaptiveRebatching, Rebatching, RenamingObject,
        ResetMachine,
    };

    /// Drains `count` names from `per_call` via a fresh session per call
    /// and from its `twin` via one reused session; the sequences must
    /// agree exactly (same coins, same slot states, same machine logic),
    /// so a reset machine acts like a new one.
    fn assert_session_matches_per_call<M: ResetMachine + Clone>(
        count: usize,
        per_call: RenamingObject<M>,
        twin: RenamingObject<M>,
    ) {
        let mut session = twin.session();
        let mut rng_fresh = StdRng::seed_from_u64(77);
        let mut rng_session = StdRng::seed_from_u64(77);
        for i in 0..count {
            let a = per_call
                .session()
                .get_name_recycling(&mut rng_fresh)
                .expect("per-call name");
            let b = session
                .get_name_recycling(&mut rng_session)
                .expect("session name");
            assert_eq!(a, b, "call {i} diverged between session and per-call path");
        }
    }

    #[test]
    fn rebatching_session_matches_per_call_machines() {
        let object = || Rebatching::with_defaults(32, Epsilon::one()).expect("construct");
        assert_session_matches_per_call(32, object(), object());
    }

    #[test]
    fn adaptive_session_matches_per_call_machines() {
        let object = || AdaptiveRebatching::with_defaults(256, Epsilon::one()).expect("construct");
        assert_session_matches_per_call(32, object(), object());
    }

    #[test]
    fn fast_adaptive_session_matches_per_call_machines() {
        let object = || FastAdaptiveRebatching::with_defaults(256).expect("construct");
        // Enough acquires that later calls run real Search chains, so the
        // recycled frame pool is exercised, not just the race phase.
        assert_session_matches_per_call(64, object(), object());
    }

    #[test]
    fn baseline_sessions_match_per_call_machines() {
        assert_session_matches_per_call(32, UniformRenaming::new(32), UniformRenaming::new(32));
        assert_session_matches_per_call(
            32,
            LinearScanRenaming::new(32),
            LinearScanRenaming::new(32),
        );
        assert_session_matches_per_call(
            32,
            SingleBatchRenaming::new(32),
            SingleBatchRenaming::new(32),
        );
        assert_session_matches_per_call(32, DoublingRenaming::new(32), DoublingRenaming::new(32));
    }

    #[test]
    fn session_steady_state_acquire_release_stays_unique() {
        // One session per simulated thread; acquire/release cycles on a
        // full-capacity object must keep succeeding (the reused machine
        // rewinds completely between operations).
        let object = Rebatching::with_defaults(8, Epsilon::one()).expect("construct");
        let mut session = object.session();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let name = session
                .get_name_recycling(&mut rng)
                .expect("within capacity");
            object.release_name(name);
        }
        assert_eq!(object.slots().set_count(), 0);
    }

    #[test]
    fn concurrent_sessions_hand_out_unique_names() {
        let n = 64;
        let object = Rebatching::with_defaults(n, Epsilon::one()).expect("construct");
        let names = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let mut session = object.session();
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(900 + t as u64);
                        (0..n / 8)
                            .map(|_| session.get_name_recycling(&mut rng).expect("name").value())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("join"))
                .collect::<Vec<_>>()
        });
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate names across sessions");
    }
}
