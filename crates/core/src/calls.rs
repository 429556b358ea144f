//! Reusable probe sub-machines: `TryGetName` on one batch, and a full
//! backup-free `GetName` pass over one object.
//!
//! These are the building blocks all three algorithms compose:
//!
//! * [`BatchCall`] — the paper's `TryGetName(i)` (Fig. 1 lines 9–13):
//!   up to `t_i` uniformly random probes inside batch `B_i`.
//! * [`ObjectCall`] — a `GetName` pass (Fig. 1 lines 1–7): `TryGetName(i)`
//!   for `i = 0..=κ`, optionally followed by the sequential backup phase.
//!
//! Both are *pull*-style state machines mirroring [`renaming_sim::Renamer`]
//! but returning a tri-state outcome so composite machines (the adaptive
//! algorithms) can react to exhaustion.

use std::sync::Arc;

use rand::RngCore;

use crate::rng::sample_bounded;
use crate::BatchLayout;

/// Progress of a sub-call after observing a probe outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallStatus {
    /// More probes to go; ask for the next location.
    InProgress,
    /// Won a TAS: the process owns this (global) location.
    Acquired(usize),
    /// All probes spent without a win (the paper's `-1` return).
    Exhausted,
}

/// The paper's `TryGetName(i)`: at most `t_i` independent uniformly random
/// probes in batch `i` of one ReBatching object.
///
/// The batch's global bounds are resolved once at construction, so each
/// probe is a single bounded coin flip plus an add — no layout lookups on
/// the per-probe path.
#[derive(Debug, Clone)]
pub struct BatchCall {
    batch: usize,
    /// Global index of the batch's first location (`base + offset(batch)`).
    first: usize,
    /// `b_batch`, the number of locations probed uniformly.
    size: usize,
    budget: usize,
    used: usize,
    last_location: usize,
}

impl BatchCall {
    /// Starts a `TryGetName(batch)` call on the object at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is out of range for the layout.
    pub fn new(layout: Arc<BatchLayout>, base: usize, batch: usize) -> Self {
        Self::new_ref(&layout, base, batch)
    }

    /// As [`new`](Self::new), but borrowing the layout — the call only
    /// reads it at construction, so composite machines that already hold
    /// an `Arc` avoid a clone/drop pair per batch transition.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is out of range for the layout.
    pub fn new_ref(layout: &BatchLayout, base: usize, batch: usize) -> Self {
        let budget = layout.probes(batch); // panics on bad batch
        Self {
            batch,
            first: base + layout.batch_offset(batch),
            size: layout.batch_size(batch),
            budget,
            used: 0,
            last_location: 0,
        }
    }

    /// The batch being probed.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Chooses the next probe location (flipping coins from `rng`).
    ///
    /// Generic over the generator so the monomorphic engine tier inlines
    /// the whole sampling path; `&mut dyn RngCore` still works (the
    /// trait-object type itself implements `RngCore`).
    ///
    /// # Panics
    ///
    /// Panics if the call is already exhausted — composite machines must
    /// check [`CallStatus`] from [`observe`](Self::observe).
    #[inline]
    pub fn propose<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> usize {
        assert!(self.used < self.budget, "batch call already exhausted");
        self.last_location = self.first + sample_bounded(rng, self.size);
        self.last_location
    }

    /// Records the probe outcome.
    pub fn observe(&mut self, won: bool) -> CallStatus {
        if won {
            return CallStatus::Acquired(self.last_location);
        }
        self.used += 1;
        if self.used < self.budget {
            CallStatus::InProgress
        } else {
            CallStatus::Exhausted
        }
    }
}

/// A full `GetName` pass over one object: `TryGetName(i)` for
/// `i = 0, 1, ..., κ`, then (if enabled) the backup scan over the whole
/// namespace (Fig. 1 lines 5–7).
#[derive(Debug, Clone)]
pub struct ObjectCall {
    layout: Arc<BatchLayout>,
    base: usize,
    backup: bool,
    state: ObjectState,
    /// Deepest batch index started (Lemma 4.2 diagnostics).
    deepest_batch: usize,
    /// Whether the backup phase was entered.
    entered_backup: bool,
    /// Where the last win happened, for batched continuation (see
    /// [`rearm_continue`](Self::rearm_continue)).
    resume: Option<ResumeAt>,
}

#[derive(Debug, Clone)]
enum ObjectState {
    Batch(BatchCall),
    Backup { next: usize },
    Finished,
}

/// The point a finished (winning) pass can be resumed from: names below
/// this point are densely claimed, so a batched follow-up request starts
/// here instead of re-probing the crowded prefix.
#[derive(Debug, Clone, Copy)]
enum ResumeAt {
    /// Resume with a fresh probe budget in this batch.
    Batch(usize),
    /// Resume the sequential backup scan at this offset.
    Backup(usize),
}

impl ObjectCall {
    /// Starts a backup-free `GetName` (the modified objects of §5.1).
    pub fn new(layout: Arc<BatchLayout>, base: usize) -> Self {
        Self::with_backup_flag(layout, base, false)
    }

    /// Starts a full `GetName` including the backup phase (Fig. 1).
    pub fn with_backup(layout: Arc<BatchLayout>, base: usize) -> Self {
        Self::with_backup_flag(layout, base, true)
    }

    fn with_backup_flag(layout: Arc<BatchLayout>, base: usize, backup: bool) -> Self {
        let first = BatchCall::new_ref(&layout, base, 0);
        Self {
            layout,
            base,
            backup,
            state: ObjectState::Batch(first),
            deepest_batch: 0,
            entered_backup: false,
            resume: None,
        }
    }

    /// Deepest batch index started so far.
    pub fn deepest_batch(&self) -> usize {
        self.deepest_batch
    }

    /// Whether the backup phase was entered.
    pub fn entered_backup(&self) -> bool {
        self.entered_backup
    }

    /// Rewinds the call to its initial state (batch 0, no probes spent),
    /// keeping the layout handle — the building block of per-thread
    /// session reuse, where one machine serves many operations without
    /// being reconstructed per call.
    pub fn reset(&mut self) {
        self.state = ObjectState::Batch(BatchCall::new_ref(&self.layout, self.base, 0));
        self.deepest_batch = 0;
        self.entered_backup = false;
        self.resume = None;
    }

    /// Rearms a *won* call to continue from the point its win happened —
    /// the batched-acquire fast path: a follow-up request on the same
    /// object gets a fresh probe budget at the batch (or backup offset)
    /// the previous win landed in, instead of rewinding to batch 0 and
    /// re-probing the prefix the batch has already filled. Uniqueness is
    /// carried by the TAS slots, so a shifted probe schedule is always
    /// safe; it only changes which empty slot a request finds first.
    ///
    /// Returns `false` (and leaves the call finished) when there is
    /// nothing to resume from — no recorded win, or the backup scan's
    /// win was the namespace's last location. Callers then fall back to
    /// a full [`reset`](Self::reset).
    pub fn rearm_continue(&mut self) -> bool {
        let Some(resume) = self.resume else {
            return false;
        };
        match resume {
            ResumeAt::Batch(batch) => {
                self.state =
                    ObjectState::Batch(BatchCall::new_ref(&self.layout, self.base, batch));
                self.deepest_batch = batch;
                self.entered_backup = false;
            }
            ResumeAt::Backup(next) => {
                if next >= self.layout.namespace_size() {
                    self.resume = None;
                    return false;
                }
                self.state = ObjectState::Backup { next };
                self.deepest_batch = self.layout.batch_count() - 1;
                self.entered_backup = true;
            }
        }
        self.resume = None;
        true
    }

    /// Chooses the next probe location.
    ///
    /// # Panics
    ///
    /// Panics if the call already finished.
    #[inline]
    pub fn propose<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> usize {
        match &mut self.state {
            ObjectState::Batch(call) => call.propose(rng),
            ObjectState::Backup { next } => self.base + *next,
            ObjectState::Finished => panic!("object call already finished"),
        }
    }

    /// Records the probe outcome and advances the pass.
    pub fn observe(&mut self, won: bool) -> CallStatus {
        match &mut self.state {
            ObjectState::Batch(call) => match call.observe(won) {
                CallStatus::Acquired(loc) => {
                    self.resume = Some(ResumeAt::Batch(call.batch()));
                    self.state = ObjectState::Finished;
                    CallStatus::Acquired(loc)
                }
                CallStatus::InProgress => CallStatus::InProgress,
                CallStatus::Exhausted => {
                    let next_batch = call.batch() + 1;
                    if next_batch < self.layout.batch_count() {
                        self.deepest_batch = next_batch;
                        self.state = ObjectState::Batch(BatchCall::new_ref(
                            &self.layout,
                            self.base,
                            next_batch,
                        ));
                        CallStatus::InProgress
                    } else if self.backup {
                        self.entered_backup = true;
                        self.state = ObjectState::Backup { next: 0 };
                        CallStatus::InProgress
                    } else {
                        self.state = ObjectState::Finished;
                        CallStatus::Exhausted
                    }
                }
            },
            ObjectState::Backup { next } => {
                if won {
                    let loc = self.base + *next;
                    self.resume = Some(ResumeAt::Backup(*next + 1));
                    self.state = ObjectState::Finished;
                    CallStatus::Acquired(loc)
                } else {
                    *next += 1;
                    if *next < self.layout.namespace_size() {
                        CallStatus::InProgress
                    } else {
                        self.state = ObjectState::Finished;
                        CallStatus::Exhausted
                    }
                }
            }
            ObjectState::Finished => panic!("observe after object call finished"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Epsilon, ProbeSchedule};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layout(n: usize) -> Arc<BatchLayout> {
        let s = ProbeSchedule::tuned(Epsilon::one(), 2, 3).unwrap();
        BatchLayout::shared(n, s).unwrap()
    }

    #[test]
    fn batch_call_probes_inside_its_batch() {
        let l = layout(64);
        let mut rng = StdRng::seed_from_u64(0);
        for batch in 0..l.batch_count() {
            let mut call = BatchCall::new(Arc::clone(&l), 100, batch);
            let loc = call.propose(&mut rng);
            let lo = 100 + l.batch_offset(batch);
            let hi = lo + l.batch_size(batch);
            assert!((lo..hi).contains(&loc), "batch {batch}: {loc} not in [{lo},{hi})");
        }
    }

    #[test]
    fn batch_call_budget_respected() {
        let l = layout(64); // t0 = 3 (tuned)
        let mut rng = StdRng::seed_from_u64(1);
        let mut call = BatchCall::new(Arc::clone(&l), 0, 0);
        call.propose(&mut rng);
        assert_eq!(call.observe(false), CallStatus::InProgress);
        call.propose(&mut rng);
        assert_eq!(call.observe(false), CallStatus::InProgress);
        call.propose(&mut rng);
        assert_eq!(call.observe(false), CallStatus::Exhausted);
        assert_eq!(call.used, 3);
    }

    #[test]
    fn batch_call_win_reports_location() {
        let l = layout(64);
        let mut rng = StdRng::seed_from_u64(2);
        let mut call = BatchCall::new(Arc::clone(&l), 10, 1);
        let loc = call.propose(&mut rng);
        assert_eq!(call.observe(true), CallStatus::Acquired(loc));
    }

    #[test]
    #[should_panic]
    fn batch_call_propose_after_exhaustion_panics() {
        let l = layout(64);
        let mut rng = StdRng::seed_from_u64(3);
        let mut call = BatchCall::new(Arc::clone(&l), 0, 1); // middle batch: 1 probe
        call.propose(&mut rng);
        assert_eq!(call.observe(false), CallStatus::Exhausted);
        call.propose(&mut rng);
    }

    #[test]
    fn object_call_walks_batches_then_exhausts_without_backup() {
        let l = layout(64); // t0=3, middles=1, beta=2; κ = 3 for n=64
        let mut rng = StdRng::seed_from_u64(4);
        let mut call = ObjectCall::new(Arc::clone(&l), 0);
        let total: usize = l.max_probes();
        let mut outcomes = 0;
        loop {
            let _ = call.propose(&mut rng);
            outcomes += 1;
            match call.observe(false) {
                CallStatus::InProgress => continue,
                CallStatus::Exhausted => break,
                CallStatus::Acquired(_) => unreachable!("all probes forced to lose"),
            }
        }
        assert_eq!(outcomes, total);
        assert_eq!(call.deepest_batch(), l.kappa());
        assert!(!call.entered_backup());
    }

    #[test]
    fn object_call_backup_scans_sequentially() {
        let l = layout(4); // tiny: batch area small
        let mut rng = StdRng::seed_from_u64(5);
        let mut call = ObjectCall::with_backup(Arc::clone(&l), 7);
        // Force every batch probe to lose.
        loop {
            let _ = call.propose(&mut rng);
            if call.entered_backup() {
                break;
            }
            match call.observe(false) {
                CallStatus::InProgress | CallStatus::Exhausted => {
                    if call.entered_backup() {
                        break;
                    }
                }
                CallStatus::Acquired(_) => unreachable!(),
            }
        }
        // Now in backup: the scan starts at base + 0 and walks up.
        let first = call.propose(&mut rng);
        assert_eq!(first, 7);
        assert_eq!(call.observe(false), CallStatus::InProgress);
        let second = call.propose(&mut rng);
        assert_eq!(second, 8);
        // Winning in backup acquires that location.
        assert_eq!(call.observe(true), CallStatus::Acquired(8));
    }

    #[test]
    fn object_call_backup_exhausts_whole_namespace() {
        let l = layout(4);
        let mut rng = StdRng::seed_from_u64(6);
        let mut call = ObjectCall::with_backup(Arc::clone(&l), 0);
        let mut probes = 0;
        loop {
            let _ = call.propose(&mut rng);
            probes += 1;
            match call.observe(false) {
                CallStatus::InProgress => continue,
                CallStatus::Exhausted => break,
                CallStatus::Acquired(_) => unreachable!(),
            }
        }
        assert_eq!(probes, l.max_probes() + l.namespace_size());
        assert!(call.entered_backup());
    }

    #[test]
    fn rearm_continue_resumes_in_the_winning_batch() {
        let l = layout(64);
        let mut rng = StdRng::seed_from_u64(8);
        let mut call = ObjectCall::new(Arc::clone(&l), 0);
        // Exhaust batch 0, then win in batch 1.
        for _ in 0..l.probes(0) {
            call.propose(&mut rng);
            call.observe(false);
        }
        let loc = call.propose(&mut rng);
        assert_eq!(call.observe(true), CallStatus::Acquired(loc));
        assert!(call.rearm_continue(), "a won call must be resumable");
        assert_eq!(call.deepest_batch(), 1, "resumes at the winning batch");
        // A fresh probe budget: batch 1's full `t_1` losing probes all land
        // inside its bounds, and only then does the call move on.
        let lo = l.batch_offset(1);
        let hi = lo + l.batch_size(1);
        for _ in 0..l.probes(1) {
            let probe = call.propose(&mut rng);
            assert!((lo..hi).contains(&probe), "{probe} not in [{lo},{hi})");
            assert_eq!(call.observe(false), CallStatus::InProgress);
        }
        assert_eq!(call.deepest_batch(), 2, "moved past batch 1");
    }

    #[test]
    fn rearm_continue_without_a_win_returns_false() {
        let l = layout(64);
        let mut call = ObjectCall::new(Arc::clone(&l), 0);
        assert!(!call.rearm_continue(), "nothing to resume on a fresh call");
    }

    #[test]
    fn rearm_continue_resumes_the_backup_scan_past_the_win() {
        let l = layout(4);
        let mut rng = StdRng::seed_from_u64(9);
        let mut call = ObjectCall::with_backup(Arc::clone(&l), 0);
        // Fail everything until backup, then win at the first scan slot.
        loop {
            call.propose(&mut rng);
            if call.entered_backup() {
                break;
            }
            call.observe(false);
        }
        assert_eq!(call.observe(true), CallStatus::Acquired(0));
        assert!(call.rearm_continue());
        assert_eq!(call.propose(&mut rng), 1, "scan continues past the win");
        // Winning the namespace's last slot leaves nothing to resume.
        let mut tail = call.clone();
        for next in 1..l.namespace_size() {
            let probe = tail.propose(&mut rng);
            assert_eq!(probe, next);
            let won = next == l.namespace_size() - 1;
            tail.observe(won);
        }
        assert!(!tail.rearm_continue(), "no namespace left to scan");
    }

    #[test]
    fn deepest_batch_tracks_progress() {
        let l = layout(64);
        let mut rng = StdRng::seed_from_u64(7);
        let mut call = ObjectCall::new(Arc::clone(&l), 0);
        assert_eq!(call.deepest_batch(), 0);
        // Exhaust batch 0 (3 tuned probes).
        for _ in 0..3 {
            call.propose(&mut rng);
            call.observe(false);
        }
        assert_eq!(call.deepest_batch(), 1);
    }
}
