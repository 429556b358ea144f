//! **FastAdaptiveReBatching** (§5.2, Fig. 2): adaptive loose renaming with
//! `O(k log log k)` *total* step complexity w.h.p.
//!
//! Instead of running a full `GetName` (Θ(log log n_i) probes) per object
//! like §5.1, a process spends only a constant-size `TryGetName` call per
//! visit and may revisit an object later with the next batch index — the
//! recursive `Search` method (Fig. 2 lines 11–17) pipelines these probes
//! down the implicit binary search tree over object indices.
//!
//! The recursion is flattened into an explicit frame stack so the
//! algorithm can run as a step machine. The paper fixes `ε = 1` for this
//! algorithm; the constructors default to it.

use std::sync::Arc;

use rand::RngCore;

use renaming_sim::{Action, MachineStats, Name, Renamer};
use renaming_tas::{AtomicTas, Tas, TasArray};

use crate::calls::{BatchCall, CallStatus, ObjectCall};
use crate::driver;
use crate::{AdaptiveLayout, Epsilon, ProbeSchedule, RenamingError, RenamingObject, DEFAULT_BETA};

/// One suspended `Search(a, b, u, t)` activation (Fig. 2).
#[derive(Debug, Clone)]
struct Frame {
    a: usize,
    b: usize,
    u: Name,
    t: usize,
    stage: Stage,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// About to execute line 11 (the `t > κ(a)` guard) and line 12.
    Entry,
    /// `TryGetName(t)` on `R_a` in flight (line 12).
    Probing,
    /// Waiting for the line-15 recursive call `Search(d, b, u, 0)`.
    AwaitRight,
    /// Waiting for the line-16 recursive call `Search(a, d, u, t+1)`.
    AwaitLeft,
}

impl Frame {
    fn entry(a: usize, b: usize, u: Name, t: usize) -> Self {
        Frame {
            a,
            b,
            u,
            t,
            stage: Stage::Entry,
        }
    }

    /// Line 14: `d = ceil((a + b) / 2)`.
    fn midpoint(&self) -> usize {
        (self.a + self.b).div_ceil(2)
    }
}

#[derive(Debug, Clone)]
enum Phase {
    /// Lines 1–5: `TryGetName(0)` on the landmark objects.
    Race { pos: usize, call: BatchCall },
    /// Termination safeguard (same deviation as `AdaptiveMachine`'s top
    /// object): full `GetName` with backup on
    /// the top object after the entire race failed.
    Fallback { call: ObjectCall },
    /// Lines 6–9: between `Search` chains; `j` indexes the landmark list.
    TopLoop { j: usize, u: Name },
    /// A `Search` chain in flight.
    Searching {
        j: usize,
        frames: Vec<Frame>,
        sub: Option<BatchCall>,
    },
    Finished(Name),
    Stuck,
}

/// Step machine for one process running FastAdaptiveReBatching.
#[derive(Debug, Clone)]
pub struct FastAdaptiveMachine {
    layout: Arc<AdaptiveLayout>,
    phase: Phase,
    /// Retired search-stack buffer, reused by the next `Search` chain so
    /// session-reused machines stop allocating one per chain.
    frame_pool: Vec<Frame>,
    /// Locations won and then superseded by a smaller name (line 13
    /// discards the incoming `u` when `TryGetName` succeeds); see
    /// [`driver::ResetMachine::abandoned`].
    abandoned: Vec<usize>,
    deepest_batch: usize,
    entered_backup: bool,
}

impl FastAdaptiveMachine {
    /// Creates a machine over the shared object collection.
    ///
    /// The collection should be built with `ε = 1` (the constructors of
    /// [`FastAdaptiveRebatching`] default to it; other slacks are accepted
    /// for ablations, they just leave the §5.2 regime).
    pub fn new(layout: Arc<AdaptiveLayout>) -> Self {
        let first_landmark = layout.landmarks()[0];
        let call = BatchCall::new(
            Arc::clone(layout.object(first_landmark)),
            layout.base(first_landmark),
            0,
        );
        Self {
            layout,
            phase: Phase::Race { pos: 0, call },
            frame_pool: Vec::new(),
            abandoned: Vec::new(),
            deepest_batch: 0,
            entered_backup: false,
        }
    }

    /// `TryGetName(t)` on `R_index` (line 12).
    fn batch_call(layout: &AdaptiveLayout, index: usize, t: usize) -> BatchCall {
        BatchCall::new(Arc::clone(layout.object(index)), layout.base(index), t)
    }

    /// Runs local (probe-free) transitions until the machine needs a probe
    /// or terminates: enters frames (line 11), and advances the top-level
    /// loop (lines 6–9). `unwind` handles returns.
    fn settle(&mut self) {
        loop {
            match &self.phase {
                Phase::Race { .. }
                | Phase::Fallback { .. }
                | Phase::Finished(_)
                | Phase::Stuck => return,
                Phase::Searching { sub: Some(_), .. } => return,
                Phase::TopLoop { j, u } => {
                    let (j, u) = (*j, *u);
                    // Line 6: while ℓ >= 1 and u ∈ R_(2^ℓ).
                    if j >= 1
                        && self.layout.object_of_name(u.value()) == self.layout.landmarks()[j]
                    {
                        let a = self.layout.landmarks()[j - 1];
                        let b = self.layout.landmarks()[j];
                        // Line 7: Search(2^(ℓ-1), 2^ℓ, u, 1) — t starts at 1
                        // because R_a already received TryGetName(0) in the
                        // race phase.
                        let mut frames = std::mem::take(&mut self.frame_pool);
                        frames.clear();
                        frames.push(Frame::entry(a, b, u, 1));
                        self.phase = Phase::Searching {
                            j,
                            frames,
                            sub: None,
                        };
                    } else {
                        // Line 10: return u.
                        self.phase = Phase::Finished(u);
                        return;
                    }
                }
                Phase::Searching {
                    frames, sub: None, ..
                } => {
                    let frame = frames.last().expect("search chain has a frame");
                    debug_assert_eq!(frame.stage, Stage::Entry);
                    let kappa = self.layout.object(frame.a).kappa();
                    if frame.t > kappa {
                        // Line 11: return u.
                        let value = frame.u;
                        self.unwind(value);
                    } else {
                        // Line 12: start TryGetName(t) on R_a.
                        let (a, t) = (frame.a, frame.t);
                        let call = Self::batch_call(&self.layout, a, t);
                        let Phase::Searching { frames, sub, .. } = &mut self.phase else {
                            unreachable!()
                        };
                        frames.last_mut().expect("frame").stage = Stage::Probing;
                        *sub = Some(call);
                        return;
                    }
                }
            }
        }
    }

    /// Pops the top frame, delivering `value` as its `Search` return value
    /// to the parent frame (resuming at line 16 or 17) or to the top-level
    /// loop (line 8). Leaves the machine in a state `settle` can continue
    /// from.
    fn unwind(&mut self, value: Name) {
        let mut value = value;
        loop {
            let Phase::Searching { j, frames, .. } = &mut self.phase else {
                unreachable!("unwind outside a search chain")
            };
            frames.pop().expect("unwind pops the returning frame");
            if frames.is_empty() {
                // The chain's outermost Search returned: line 8 (ℓ--).
                let j = *j;
                let old = std::mem::replace(&mut self.phase, Phase::TopLoop { j: j - 1, u: value });
                if let Phase::Searching { frames, .. } = old {
                    // Retire the (empty) search stack for the next chain.
                    self.frame_pool = frames;
                }
                return;
            }
            let last = frames.len() - 1;
            match frames[last].stage {
                Stage::AwaitRight => {
                    // Line 15 returned (or was skipped with d == b).
                    frames[last].u = value;
                    let d = frames[last].midpoint();
                    let (a, u, t) = (frames[last].a, frames[last].u, frames[last].t);
                    // Line 16: if u ∈ R_d then u ← Search(a, d, u, t+1).
                    if self.layout.object_of_name(u.value()) == d {
                        let Phase::Searching { frames, .. } = &mut self.phase else {
                            unreachable!()
                        };
                        frames[last].stage = Stage::AwaitLeft;
                        frames.push(Frame::entry(a, d, u, t + 1));
                        return; // settle() will enter the new frame
                    }
                    // Line 17: return u — keep unwinding from this frame.
                    value = u;
                }
                Stage::AwaitLeft => {
                    // Line 16 returned; line 17: return u.
                    frames[last].u = value;
                    // value stays: the frame returns the same u.
                }
                Stage::Entry | Stage::Probing => {
                    unreachable!("parent frame cannot be mid-probe during unwind")
                }
            }
        }
    }

    /// Handles the outcome of the in-flight `TryGetName` (lines 12–16).
    fn on_batch_result(&mut self, status: CallStatus) {
        match status {
            CallStatus::InProgress => {}
            CallStatus::Acquired(loc) => {
                let name = Name::new(loc);
                let Phase::Searching { frames, sub, .. } = &mut self.phase else {
                    unreachable!()
                };
                *sub = None;
                // Line 13: return u' — the activation's incoming u is
                // discarded, its win superseded.
                let superseded = frames.last().expect("probing frame").u;
                self.abandoned.push(superseded.value());
                self.unwind(name);
                self.settle();
            }
            CallStatus::Exhausted => {
                let Phase::Searching { frames, sub, .. } = &mut self.phase else {
                    unreachable!()
                };
                *sub = None;
                let last = frames.len() - 1;
                let d = frames[last].midpoint();
                let (b, u) = (frames[last].b, frames[last].u);
                // The frame now waits on its "right" recursion whether the
                // call is real (line 15, d < b) or skipped (d == b — then
                // the recursion is a no-op returning u unchanged).
                frames[last].stage = Stage::AwaitRight;
                if d < b {
                    frames.push(Frame::entry(d, b, u, 0));
                    self.settle();
                } else {
                    // Simulate the skipped call returning `u`: push a
                    // placeholder frame and immediately unwind it, which
                    // resumes the parent at line 16.
                    frames.push(Frame::entry(d, b, u, 0));
                    self.unwind(u);
                    self.settle();
                }
            }
        }
    }
}

/// Like the adaptive machine, the binary-search walk starts from the
/// observed contention each time: batch requests rerun from scratch
/// (the default rearm = reset).
impl driver::ResetMachine for FastAdaptiveMachine {
    fn reset(&mut self) {
        // A reset mid-search (e.g. after a caller abandoned a drive)
        // still recycles the stack buffer.
        if let Phase::Searching { frames, .. } = &mut self.phase {
            self.frame_pool = std::mem::take(frames);
        }
        let mut pool = std::mem::take(&mut self.frame_pool);
        pool.clear();
        let mut abandoned = std::mem::take(&mut self.abandoned);
        abandoned.clear();
        // Delegate so the reset state is definitionally a fresh machine;
        // only the recycled buffers survive.
        *self = Self::new(Arc::clone(&self.layout));
        self.frame_pool = pool;
        self.abandoned = abandoned;
    }

    fn abandoned(&self) -> &[usize] {
        &self.abandoned
    }

    fn clear_abandoned(&mut self) {
        self.abandoned.clear();
    }
}

impl FastAdaptiveMachine {
    #[inline]
    fn propose_impl<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> Action {
        // `observe` always settles the machine into a probe-ready or
        // terminal phase before returning.
        match &mut self.phase {
            Phase::Race { call, .. } => Action::Probe(call.propose(rng)),
            Phase::Fallback { call } => Action::Probe(call.propose(rng)),
            Phase::Searching {
                sub: Some(call), ..
            } => Action::Probe(call.propose(rng)),
            Phase::Searching { sub: None, .. } => {
                unreachable!("settle() always leaves a probe ready")
            }
            Phase::TopLoop { .. } => unreachable!("settle() resolves the top loop"),
            Phase::Finished(name) => Action::Done(*name),
            Phase::Stuck => Action::Stuck,
        }
    }
}

impl Renamer for FastAdaptiveMachine {
    fn propose(&mut self, rng: &mut dyn RngCore) -> Action {
        self.propose_impl(rng)
    }

    #[inline]
    fn propose_typed<R: RngCore>(&mut self, rng: &mut R) -> Action {
        self.propose_impl(rng)
    }

    fn observe(&mut self, won: bool) {
        let layout = Arc::clone(&self.layout);
        match &mut self.phase {
            Phase::Race { pos, call } => match call.observe(won) {
                CallStatus::InProgress => {}
                CallStatus::Acquired(loc) => {
                    let j = *pos;
                    self.phase = Phase::TopLoop {
                        j,
                        u: Name::new(loc),
                    };
                    self.settle();
                }
                CallStatus::Exhausted => {
                    let next = *pos + 1;
                    if next < layout.landmarks().len() {
                        let landmark = layout.landmarks()[next];
                        self.phase = Phase::Race {
                            pos: next,
                            call: Self::batch_call(&layout, landmark, 0),
                        };
                    } else {
                        // The entire race failed (probability < 4^-t0 per
                        // process): fall back to a full GetName with backup
                        // on the top object (the termination safeguard).
                        let top = layout.max_index();
                        self.phase = Phase::Fallback {
                            call: ObjectCall::with_backup(
                                Arc::clone(layout.object(top)),
                                layout.base(top),
                            ),
                        };
                    }
                }
            },
            Phase::Fallback { call } => match call.observe(won) {
                CallStatus::InProgress => {}
                CallStatus::Acquired(loc) => {
                    self.deepest_batch = self.deepest_batch.max(call.deepest_batch());
                    self.entered_backup |= call.entered_backup();
                    let j = layout.landmarks().len() - 1;
                    self.phase = Phase::TopLoop {
                        j,
                        u: Name::new(loc),
                    };
                    self.settle();
                }
                CallStatus::Exhausted => {
                    // More processes than the collection's capacity.
                    self.entered_backup = true;
                    self.phase = Phase::Stuck;
                }
            },
            Phase::Searching { frames, sub, .. } => {
                let call = sub.as_mut().expect("observe with a sub-call in flight");
                let status = call.observe(won);
                self.deepest_batch = self
                    .deepest_batch
                    .max(frames.last().map(|f| f.t).unwrap_or(0));
                self.on_batch_result(status);
            }
            Phase::TopLoop { .. } | Phase::Finished(_) | Phase::Stuck => {
                unreachable!("observe in a probe-free phase")
            }
        }
    }

    fn stats(&self) -> MachineStats {
        MachineStats {
            deepest_batch: Some(self.deepest_batch),
            entered_backup: self.entered_backup,
        }
    }

    fn algorithm(&self) -> &'static str {
        "fast-adaptive-rebatching"
    }
}

/// The concurrent FastAdaptiveReBatching object collection (`ε = 1`).
///
/// The one-shot [`get_name`](RenamingObject::get_name) leaves the surplus
/// TAS wins the `Search` chains superseded set (Fig. 2 line 13 discards
/// the incoming `u` whenever `TryGetName` succeeds). Long-lived callers
/// acquire through a [`session`](RenamingObject::session)'s
/// [`get_name_recycling`](driver::NameSession::get_name_recycling), which
/// reopens them and reuses one search-stack buffer across calls. The
/// `O(k log log k)` total step bound of Theorem 5.2 is proven for the
/// one-shot case only.
///
/// # Example
///
/// ```
/// use renaming_core::FastAdaptiveRebatching;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let object = FastAdaptiveRebatching::with_defaults(256)?;
/// let mut rng = StdRng::seed_from_u64(5);
/// let a = object.get_name(&mut rng)?;
/// let b = object.get_name(&mut rng)?;
/// assert_ne!(a, b);
/// # Ok(())
/// # }
/// ```
pub type FastAdaptiveRebatching<T = AtomicTas> = RenamingObject<FastAdaptiveMachine, T>;

impl FastAdaptiveRebatching<AtomicTas> {
    /// Creates a collection sized for up to `capacity` processes with the
    /// paper's parameters (`ε = 1`, Eq. 2 probe schedule).
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn new(capacity: usize, beta: usize) -> Result<Self, RenamingError> {
        let schedule = ProbeSchedule::paper(Epsilon::one(), beta)?;
        Self::with_schedule(capacity, schedule)
    }

    /// Creates a collection with the default `β = 3`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn with_defaults(capacity: usize) -> Result<Self, RenamingError> {
        Self::new(capacity, DEFAULT_BETA)
    }

    /// Creates a collection with an explicit probe schedule (`ε` should be
    /// 1 to stay in the §5.2 regime; other values are accepted for
    /// ablations).
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

impl<T: Tas> FastAdaptiveRebatching<T> {
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
        Self::from_machine(FastAdaptiveMachine::new(layout), capacity, namespace, slots)
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
            .map(|_| Box::new(FastAdaptiveMachine::new(Arc::clone(layout))) as Box<dyn Renamer>)
            .collect()
    }

    #[test]
    fn all_participants_get_unique_names() {
        let layout = shared_layout(256);
        for k in [1usize, 2, 3, 7, 32, 100] {
            let report = Execution::new(layout.total_size())
                .seed(100 + k as u64)
                .run(machines(k, &layout))
                .expect("no safety violation");
            assert_eq!(report.named_count(), k, "k = {k}");
            assert_eq!(report.stuck_count(), 0, "k = {k}");
        }
    }

    #[test]
    fn names_scale_with_contention() {
        let layout = shared_layout(1 << 14);
        let report = Execution::new(layout.total_size())
            .adversary(Box::new(UniformRandom::new()))
            .seed(21)
            .run(machines(8, &layout))
            .expect("run");
        let max_name = report.max_name().expect("named").value();
        assert!(
            max_name < 400,
            "k=8 should yield names O(k), got {max_name}"
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
                .seed(31)
                .run(machines(48, &layout))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(report.named_count(), 48, "{label}");
        }
    }

    #[test]
    fn many_seeds_never_violate_safety() {
        // The frame-stack Search is intricate; sweep seeds to exercise many
        // interleavings and recursion shapes.
        let layout = shared_layout(64);
        for seed in 0..40 {
            let report = Execution::new(layout.total_size())
                .adversary(Box::new(UniformRandom::new()))
                .seed(seed)
                .run(machines(24, &layout))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(report.named_count(), 24, "seed {seed}");
        }
    }

    #[test]
    fn concurrent_threads_unique_names() {
        let object = FastAdaptiveRebatching::with_defaults(512).expect("construct");
        let k = 48;
        let handles: Vec<_> = (0..k)
            .map(|i| {
                let obj = object.clone();
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(9_000 + i as u64);
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
    fn solo_process_terminates_fast_with_small_name() {
        let layout = shared_layout(1 << 12);
        let report = Execution::new(layout.total_size())
            .seed(8)
            .run(machines(1, &layout))
            .expect("run");
        assert_eq!(report.named_count(), 1);
        let name = report.max_name().unwrap().value();
        assert!(name < layout.object(1).namespace_size() + layout.object(2).namespace_size());
    }

    #[test]
    fn release_and_reacquire_recycles_slots() {
        let object = FastAdaptiveRebatching::with_defaults(64).expect("construct");
        assert_eq!(object.capacity(), 64);
        let mut rng = StdRng::seed_from_u64(23);
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
    fn from_parts_validates_slot_count() {
        let layout = shared_layout(32);
        let short: Arc<TasArray<AtomicTas>> = Arc::new(TasArray::new(4));
        assert!(FastAdaptiveRebatching::from_parts(Arc::clone(&layout), short).is_err());
        let longer: Arc<TasArray<AtomicTas>> = Arc::new(TasArray::new(layout.total_size() + 1));
        assert!(FastAdaptiveRebatching::from_parts(Arc::clone(&layout), longer).is_err());
        let enough: Arc<TasArray<AtomicTas>> = Arc::new(TasArray::new(layout.total_size()));
        assert!(FastAdaptiveRebatching::from_parts(layout, enough).is_ok());
    }
}
