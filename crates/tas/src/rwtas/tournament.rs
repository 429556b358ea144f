//! Tournament-tree test-and-set for `n` processes from register-based
//! two-process objects, long-lived via an epoch-stamped O(1) reset.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::Rng;

use crate::rwtas::{Side, TwoProcessTas};
use crate::TasResult;

/// The largest epoch a tournament will ever issue: `2^48 - 1` resets,
/// after which [`TournamentTas::reset`] saturates and the object
/// degrades to one-shot (never unsafe). The bound is shared with the
/// 48-bit epoch field of [`crate::TicketTas`]'s packed grant counter
/// and sits comfortably under the 56-bit register stamps of
/// [`TwoProcessTas`].
pub const EPOCH_LIMIT: u64 = (1 << 48) - 1;

/// An `n`-process randomized test-and-set built as a binary tournament of
/// [`TwoProcessTas`] objects — the construction the paper's references
/// [6, 22] use to obtain `n`-process TAS from two-process leader election.
///
/// Each process enters at a leaf determined by its id and plays the
/// two-process object at every internal node on the way to the root; a
/// process that wins all of its matches wins the TAS. Because each internal
/// node is contested by at most one winner from each child subtree, every
/// match really is a two-process race.
///
/// The id-based leaf assignment is why this type implements [`crate::IdTas`]
/// rather than [`crate::Tas`]: the caller must present a process id in
/// `0..capacity`, and at most one thread may use a given id at a time
/// *within an epoch* (see below).
///
/// Step complexity per call is `Θ(log capacity)` expected register
/// operations — the multiplicative overhead the paper's §2 remark prices at
/// `O(log log k)` when the adaptive objects of [6, 22] are used instead of
/// this static tree (experiment E14 measures our tree's overhead).
///
/// # Reset: one epoch bump, no tree rebuild
///
/// The tournament is long-lived: [`reset`](Self::reset) advances a single
/// shared epoch counter — an O(1) operation that performs **zero**
/// register operations on the tree's two-process nodes. Every
/// node register is stamped with the epoch it was written in; contenders
/// of the new epoch read older stamps as pristine state (lazy
/// invalidation), while stragglers still walking the tree under a dead
/// epoch observe the bumped counter (or a newer stamp) and concede.
/// Safety across epochs rests on the reset precondition: **only the
/// current epoch's winner may reset**, once it is done with the object —
/// then every path to the root still carries that winner's epoch-stamped
/// marks, so no dead-epoch straggler can ever claim a second win.
///
/// Epochs saturate at [`EPOCH_LIMIT`] (`2^48 - 1`), after which the
/// object degrades to one-shot rather than wrapping stamps. The limit
/// matches the 48-bit epoch field of [`crate::TicketTas`]'s packed
/// grant counter and leaves headroom under the node registers' 56-bit
/// stamps; an earlier layout saturated at `u32::MAX`, which sustained
/// churn (~50M resets/s for half an hour) could actually reach.
///
/// # Example
///
/// ```
/// use renaming_tas::rwtas::TournamentTas;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let t = TournamentTas::new(4);
/// let mut rng = StdRng::seed_from_u64(1);
/// assert!(t.test_and_set_with(3, &mut rng).won());
/// assert!(t.test_and_set_with(0, &mut rng).lost());
///
/// t.reset(); // O(1): bumps the epoch, touches no node
/// assert!(!t.is_decided());
/// assert!(t.test_and_set_with(0, &mut rng).won());
/// ```
pub struct TournamentTas {
    capacity: usize,
    /// Heap-ordered internal nodes: node 1 is the root, node `k` has
    /// children `2k` and `2k + 1`. Empty when `capacity == 1`.
    nodes: Vec<TwoProcessTas>,
    leaf_base: usize,
    /// The current epoch; bumped by [`reset`](Self::reset), re-read by
    /// in-flight contenders to detect resets.
    epoch: AtomicU64,
    /// `capacity == 1` degenerate case: `0` = unset, `e + 1` = won in
    /// epoch `e`. A plain register morally; the monotone CAS only guards
    /// against dead-epoch stragglers.
    solo_set: AtomicU64,
}

impl TournamentTas {
    /// Creates a tournament for ids `0..capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::with_epoch(capacity, 0)
    }

    /// Creates a tournament whose epoch counter starts at `epoch` — a
    /// slot that has already been reset `epoch` times. Regression tests
    /// use this to exercise slots past the old `u32::MAX` saturation
    /// bound without performing billions of resets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `epoch > EPOCH_LIMIT`.
    pub fn with_epoch(capacity: usize, epoch: u64) -> Self {
        assert!(capacity > 0, "TournamentTas capacity must be positive");
        assert!(epoch <= EPOCH_LIMIT, "epoch {epoch} exceeds EPOCH_LIMIT");
        let leaves = capacity.next_power_of_two();
        let node_count = if capacity == 1 { 0 } else { leaves };
        // Index 0 unused; nodes 1..leaves are internal.
        let nodes = (0..node_count).map(|_| TwoProcessTas::new()).collect();
        Self {
            capacity,
            nodes,
            leaf_base: leaves,
            epoch: AtomicU64::new(epoch),
            solo_set: AtomicU64::new(0),
        }
    }

    /// Maximum number of distinct process ids.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current epoch (starts at 0, advanced by [`reset`](Self::reset)).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Reopens the tournament for a fresh round of contenders: a single
    /// epoch bump, O(1) regardless of the number of tree nodes.
    /// Stale node state is invalidated lazily on the next read (see the
    /// type-level docs); no node register is written.
    ///
    /// The caller must be (or act for) the current epoch's winner, and
    /// must not reuse a process id concurrently within the new epoch —
    /// the same ownership rule [`crate::Tas::reset`] states for
    /// anonymous slots.
    pub fn reset(&self) {
        // Saturate at the system-wide limit instead of wrapping into the
        // register stamp space: a slot that somehow burns 2^48 epochs
        // becomes one-shot, never unsafe.
        let _ = self.epoch.fetch_update(Ordering::AcqRel, Ordering::Acquire, |e| {
            (e < EPOCH_LIMIT).then_some(e + 1)
        });
    }

    /// Performs the test-and-set on behalf of `pid` as a contender of the
    /// tournament's current epoch, drawing coins from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= self.capacity()`.
    pub fn test_and_set_with<R: Rng + ?Sized>(&self, pid: usize, rng: &mut R) -> TasResult {
        self.test_and_set_in_epoch(pid, self.epoch(), rng, &mut 0)
    }

    /// Performs the test-and-set on behalf of `pid` as a contender of
    /// `epoch`, adding the register operations this call performs on
    /// the nodes it touches to `ops`. A call whose epoch is already (or
    /// becomes) stale loses.
    ///
    /// This is the entry point for adapters that couple the epoch to
    /// another per-epoch resource ([`crate::TicketTas`] couples it to the
    /// ticket window, so a ticket and the epoch it was drawn in travel
    /// together).
    ///
    /// # Panics
    ///
    /// Panics if `pid >= self.capacity()`.
    pub fn test_and_set_in_epoch<R: Rng + ?Sized>(
        &self,
        pid: usize,
        epoch: u64,
        rng: &mut R,
        ops: &mut u64,
    ) -> TasResult {
        assert!(
            pid < self.capacity,
            "pid {pid} out of range 0..{}",
            self.capacity
        );
        if self.capacity == 1 {
            // Single possible contender per epoch: first call wins. A
            // plain register suffices within an epoch (only pid 0 may
            // call); the monotone CAS fences off dead-epoch stragglers.
            let cur = self.solo_set.load(Ordering::Acquire);
            let won = cur < epoch + 1
                && self
                    .solo_set
                    .compare_exchange(cur, epoch + 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok();
            *ops += 2;
            return TasResult::from_won(won);
        }

        let mut node = self.leaf_base + pid;
        while node > 1 {
            let parent = node / 2;
            let side = if node.is_multiple_of(2) {
                Side::Left
            } else {
                Side::Right
            };
            if self.nodes[parent]
                .test_and_set_in_epoch(side, epoch, &self.epoch, rng, ops)
                .lost()
            {
                return TasResult::Lost;
            }
            node = parent;
        }
        TasResult::Won
    }

    /// Advisory: `true` once the current epoch's winner has been decided
    /// at the root. May lag behind an in-flight winning call; resets to
    /// `false` after [`reset`](Self::reset).
    pub fn is_decided(&self) -> bool {
        let epoch = self.epoch();
        if self.capacity == 1 {
            self.solo_set.load(Ordering::Acquire) == epoch + 1
        } else {
            self.nodes[1].is_decided_in_epoch(epoch)
        }
    }
}

impl crate::IdTas for TournamentTas {
    fn is_set(&self) -> bool {
        self.is_decided()
    }

    fn test_and_set_as_in_epoch(&self, pid: usize, epoch: u64) -> TasResult {
        self.test_and_set_in_epoch(pid, epoch, &mut rand::thread_rng(), &mut 0)
    }

    fn epoch(&self) -> u64 {
        TournamentTas::epoch(self)
    }

    fn advance_epoch(&self) {
        self.reset();
    }
}

impl fmt::Debug for TournamentTas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TournamentTas")
            .field("capacity", &self.capacity)
            .field("nodes", &self.nodes.len().saturating_sub(1))
            .field("epoch", &self.epoch())
            .field("decided", &self.is_decided())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        TournamentTas::new(0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_pid_panics() {
        let t = TournamentTas::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        t.test_and_set_with(4, &mut rng);
    }

    #[test]
    fn capacity_one_first_call_wins() {
        let t = TournamentTas::new(1);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(t.test_and_set_with(0, &mut rng).won());
        assert!(t.test_and_set_with(0, &mut rng).lost());
        assert!(t.is_decided());
    }

    #[test]
    fn capacity_one_resets_too() {
        let t = TournamentTas::new(1);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(t.test_and_set_with(0, &mut rng).won());
        t.reset();
        assert!(!t.is_decided());
        assert!(t.test_and_set_with(0, &mut rng).won());
        assert!(t.test_and_set_with(0, &mut rng).lost());
    }

    #[test]
    fn sequential_callers_single_winner() {
        for cap in [2, 3, 4, 5, 8, 13, 16] {
            let t = TournamentTas::new(cap);
            let mut rng = StdRng::seed_from_u64(cap as u64);
            let wins = (0..cap)
                .filter(|&pid| t.test_and_set_with(pid, &mut rng).won())
                .count();
            assert_eq!(wins, 1, "capacity {cap}");
            assert!(t.is_decided());
        }
    }

    #[test]
    fn first_sequential_caller_wins() {
        // Solo prefix: the very first arrival must win (TAS semantics).
        let t = TournamentTas::new(16);
        let mut rng = StdRng::seed_from_u64(9);
        assert!(t.test_and_set_with(11, &mut rng).won());
    }

    #[test]
    fn op_count_scales_with_depth() {
        let mut rng = StdRng::seed_from_u64(5);
        let t16 = TournamentTas::new(16);
        let mut ops16 = 0;
        assert!(t16.test_and_set_in_epoch(0, 0, &mut rng, &mut ops16).won());
        // Solo walk to the root of a 16-leaf tree: 4 fast-path matches, 3
        // register ops each.
        assert_eq!(ops16, 12);
    }

    #[test]
    fn reset_is_one_epoch_bump_with_no_node_traffic() {
        let t = TournamentTas::new(16);
        let mut rng = StdRng::seed_from_u64(6);
        assert!(t.test_and_set_with(3, &mut rng).won());
        let node_words = |t: &TournamentTas| {
            t.nodes
                .iter()
                .map(TwoProcessTas::raw_words)
                .collect::<Vec<_>>()
        };
        let words_before = node_words(&t);
        let epoch_before = t.epoch();
        t.reset();
        assert_eq!(
            node_words(&t),
            words_before,
            "reset must not write any node register"
        );
        assert_eq!(t.epoch(), epoch_before + 1);
        assert!(!t.is_decided(), "epoch bump reopens the tournament");
        assert!(t.test_and_set_with(5, &mut rng).won(), "winnable again");
    }

    #[test]
    fn every_epoch_elects_exactly_one_sequential_winner() {
        let cap = 8;
        let t = TournamentTas::new(cap);
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..20 {
            let wins = (0..cap)
                .filter(|&pid| t.test_and_set_with(pid, &mut rng).won())
                .count();
            assert_eq!(wins, 1, "round {round}");
            t.reset();
        }
    }

    #[test]
    fn stale_epoch_callers_lose_after_reset() {
        let t = TournamentTas::new(8);
        let mut rng = StdRng::seed_from_u64(8);
        let old_epoch = t.epoch();
        assert!(t
            .test_and_set_in_epoch(2, old_epoch, &mut rng, &mut 0)
            .won());
        t.reset();
        // The new epoch's race is open...
        assert!(t.test_and_set_with(5, &mut rng).won());
        // ...but a straggler still carrying the dead epoch must lose,
        // even on a leaf path the old winner never touched.
        for pid in [0, 3, 7] {
            assert!(t
                .test_and_set_in_epoch(pid, old_epoch, &mut rng, &mut 0)
                .lost());
        }
    }

    #[test]
    fn slots_past_the_old_u32_epoch_bound_still_reset() {
        // The pre-widening layout saturated its epoch at `u32::MAX`,
        // silently degrading a slot that old to one-shot. With the
        // 48-bit limit it must keep electing one winner per epoch.
        let start = u64::from(u32::MAX) + 3;
        let t = TournamentTas::with_epoch(8, start);
        let mut rng = StdRng::seed_from_u64(12);
        for round in 0..5 {
            let wins = (0..8)
                .filter(|&pid| t.test_and_set_with(pid, &mut rng).won())
                .count();
            assert_eq!(wins, 1, "round {round} past the old bound");
            t.reset();
        }
        assert_eq!(t.epoch(), start + 5, "resets past u32::MAX advance");
    }

    #[test]
    fn capacity_one_slots_reset_past_the_old_bound_too() {
        let start = u64::from(u32::MAX) + 1;
        let t = TournamentTas::with_epoch(1, start);
        let mut rng = StdRng::seed_from_u64(13);
        assert!(t.test_and_set_with(0, &mut rng).won());
        t.reset();
        assert!(!t.is_decided());
        assert!(t.test_and_set_with(0, &mut rng).won());
    }

    #[test]
    fn epochs_saturate_at_the_48_bit_limit() {
        let t = TournamentTas::with_epoch(2, EPOCH_LIMIT);
        t.reset();
        assert_eq!(t.epoch(), EPOCH_LIMIT, "reset saturates, never wraps");
    }

    #[test]
    #[should_panic]
    fn with_epoch_rejects_epochs_beyond_the_limit() {
        TournamentTas::with_epoch(2, EPOCH_LIMIT + 1);
    }

    #[test]
    fn concurrent_contenders_exactly_one_winner() {
        for trial in 0..20 {
            let cap = 8;
            let t = Arc::new(TournamentTas::new(cap));
            let handles: Vec<_> = (0..cap)
                .map(|pid| {
                    let t = Arc::clone(&t);
                    std::thread::spawn(move || {
                        let mut rng = StdRng::seed_from_u64(trial * 100 + pid as u64);
                        t.test_and_set_with(pid, &mut rng).won()
                    })
                })
                .collect();
            let wins = handles
                .into_iter()
                .map(|h| h.join().expect("thread panicked"))
                .filter(|won| *won)
                .count();
            assert_eq!(wins, 1, "trial {trial}");
        }
    }

    #[test]
    fn concurrent_churn_across_epochs_has_one_winner_per_epoch() {
        // Every round: all pids race, exactly one wins, the winner's
        // epoch is then reset. Losers of earlier epochs may still be
        // finishing while the next epoch races — the stamps must keep
        // every epoch's winner unique.
        let cap = 4;
        let t = Arc::new(TournamentTas::new(cap));
        for round in 0..30u64 {
            let handles: Vec<_> = (0..cap)
                .map(|pid| {
                    let t = Arc::clone(&t);
                    std::thread::spawn(move || {
                        let mut rng = StdRng::seed_from_u64(round * 64 + pid as u64);
                        t.test_and_set_with(pid, &mut rng).won()
                    })
                })
                .collect();
            let wins = handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .filter(|w| *w)
                .count();
            assert_eq!(wins, 1, "round {round}");
            t.reset();
        }
    }
}
