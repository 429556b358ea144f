//! Two-process randomized test-and-set from single-writer registers,
//! with epoch-stamped state for in-place, O(1) reset.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::Rng;

use crate::TasResult;

/// Which of the two contender slots a caller occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Contender 0.
    Left,
    /// Contender 1.
    Right,
}

impl Side {
    /// The opposing side.
    #[inline]
    pub fn other(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }

    /// Index (0 for [`Side::Left`], 1 for [`Side::Right`]).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Side::Left => 0,
            Side::Right => 1,
        }
    }
}

// Per-side state register encoding (the *value* half of a stamped
// register). Each register is single-writer within an epoch: only the
// owning side stores to it; the opponent only loads. Across epochs the
// same register may be rewritten by the side's new owner — the stamp
// arbitrates (see `stamped_store`).
const STATE_NONE: u64 = 0; // entered the door, race state not yet published
const STATE_WON_FAST: u64 = 1; // won via the empty-door fast path
const STATE_WON_SLOW: u64 = 2; // won the round race (opponent quit)
const STATE_QUIT: u64 = 3; // lost: observed the opponent ahead
const STATE_RACING_BASE: u64 = 4; // STATE_RACING_BASE + r  <=>  racing at round r

const DOOR_UP: u64 = 1;

/// Bit position of the epoch stamp inside a packed register. The low
/// byte holds the protocol value (states plus a round counter capped at
/// [`MAX_ROUND`]), leaving 56 bits of stamp — far beyond the
/// tournament's system-wide [`EPOCH_LIMIT`](super::EPOCH_LIMIT) of
/// `2^48 - 1` resets, so a long-lived slot never saturates its stamps
/// in practice (the old 32-bit layout degraded a slot to one-shot after
/// `u32::MAX` resets).
const STAMP_SHIFT: u32 = 8;
const VALUE_MASK: u64 = (1 << STAMP_SHIFT) - 1;

/// The largest racing round the 8-bit value field can encode
/// (`VALUE_MASK - STATE_RACING_BASE` = 251). Reaching it requires ~251
/// consecutive tied coin flips (probability ≈ 2⁻²⁵¹); at the cap the
/// race resolves deterministically — `Right` concedes, `Left` wins — so
/// safety never depends on rounds beyond the field width.
const MAX_ROUND: u64 = VALUE_MASK - STATE_RACING_BASE;

#[inline]
fn racing(round: u64) -> u64 {
    STATE_RACING_BASE + round
}

#[inline]
fn pack(epoch: u64, value: u64) -> u64 {
    (epoch << STAMP_SHIFT) | (value & VALUE_MASK)
}

/// What a stamped-register read tells an epoch-`e` contender.
enum Reg {
    /// The register was written in a later epoch: the reader's epoch is
    /// over (the object was reset since the reader entered).
    Stale,
    /// The register's value as of the reader's epoch. Writes from
    /// *earlier* epochs read as the reset default (`0`: door down /
    /// `STATE_NONE`) — this lazy reinterpretation is what makes reset an
    /// O(1) epoch bump instead of an O(nodes) rewrite.
    Val(u64),
}

#[inline]
fn decode(raw: u64, epoch: u64) -> Reg {
    let stamp = raw >> STAMP_SHIFT;
    if stamp > epoch {
        Reg::Stale
    } else if stamp < epoch {
        Reg::Val(0)
    } else {
        Reg::Val(raw & VALUE_MASK)
    }
}

/// A randomized test-and-set object for **two** processes built from
/// single-writer read/write registers, resettable in place via epoch
/// stamps.
///
/// The protocol is a doorway followed by a round race (in the spirit of
/// Tromp–Vitányi leader election):
///
/// 1. *Doorway*: the caller raises its door bit, then reads the opponent's
///    door. If the opponent has not entered, the caller wins on the fast
///    path (publishing `WonFast` so a late opponent observes the decision).
/// 2. *Round race*: both contenders hold a round counter, initially 0,
///    published through their state register. Each iteration a contender
///    reads the opponent's state:
///    * opponent quit or still unseen after winning — win / keep waiting;
///    * opponent **ahead** — publish `Quit`, lose;
///    * opponent *tied* — flip a fair coin; on heads advance to the next
///      round (publishing it);
///    * opponent *behind* — wait; the opponent must observe us ahead and
///      quit.
///
/// # Epochs (long-lived use)
///
/// Every register carries an epoch stamp in its high bits. A contender
/// of epoch `e` reads stamps `< e` as the pristine default (the lazy
/// reset), stamps `== e` as live protocol state, and stamps `> e` as
/// proof that its own epoch ended mid-call — it then *concedes*
/// (best-effort publishes `Quit` for any same-epoch peer and loses,
/// which is always sound for a TAS contender). Writes go through a
/// monotone-stamp compare-exchange, so a stale straggler can never
/// clobber a newer epoch's state. The owning
/// [`TournamentTas`](crate::rwtas::TournamentTas) bumps one shared epoch
/// counter to reset the whole tree at once; contenders re-check that
/// counter in their wait loops so a reset cannot strand a stale caller
/// spinning on a peer that already conceded.
///
/// The stamp CAS and the reset-counter probe are bookkeeping of the
/// long-lived extension, not protocol steps: a call adds one to its
/// caller's `ops` per logical load/store of its own, keeping experiment
/// E14 comparable to the paper's one-shot register model.
///
/// # Safety argument (at most one winner per epoch, in every execution)
///
/// * Two fast-path wins are impossible: if both read the other's door as
///   down, each read preceded the other's door write, which precedes that
///   side's door read — a cycle. This is the store-buffering pattern, so
///   "preceded" must be one order over both doors' stores and loads: the
///   door store's successful CAS and the door load are `SeqCst`. With a
///   `Release` store and an `Acquire` load both sides may read the other's
///   door as down (an RCpc acquire load, such as aarch64's `ldapr`, can
///   pass the earlier store); on x86 both orderings compile to the same
///   instructions.
/// * In the race, a contender quits only after observing the opponent at a
///   strictly larger round. Rounds are monotone and a quitter stops
///   advancing, so if `L` quit after seeing `R` ahead, `R` can never
///   subsequently observe `L` ahead. Hence at most one `Quit`, and a win is
///   only claimed after observing `Quit` (or `WonFast`/`WonSlow`,
///   published strictly after the opponent's decision).
/// * Across epochs: stale contenders only ever concede when they meet
///   newer-stamped state, and their own writes cannot survive into the
///   new epoch (monotone stamps), so each epoch's race is independent.
///
/// # Termination
///
/// With probability 1 in executions where both contenders keep taking
/// steps: a tied round resolves with probability 1/2 per double coin flip.
/// If the opponent crashes mid-race the survivor may spin — the
/// leader-election caveat described at the [module level](crate::rwtas).
///
/// Calls are idempotent per side within an epoch: calling again after a
/// decision returns the same result without re-racing.
///
/// # Example
///
/// ```
/// use renaming_tas::rwtas::{Side, TwoProcessTas};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let t = TwoProcessTas::new();
/// let mut rng = StdRng::seed_from_u64(7);
/// assert!(t.test_and_set_on(Side::Left, &mut rng).won());
/// assert!(t.test_and_set_on(Side::Right, &mut rng).lost());
/// ```
#[derive(Debug, Default)]
pub struct TwoProcessTas {
    door: [AtomicU64; 2],
    state: [AtomicU64; 2],
}

impl TwoProcessTas {
    /// Creates a fresh, undecided object (epoch 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes `value` stamped with `epoch` unless the register already
    /// carries a newer stamp (then the writer's epoch is over: `false`).
    /// The monotone-stamp CAS is what keeps stale stragglers from
    /// clobbering a later epoch's single-writer register. Its success
    /// ordering is `SeqCst` for the doorway (see the safety argument).
    fn stamped_store(cell: &AtomicU64, epoch: u64, value: u64) -> bool {
        let new = pack(epoch, value);
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            if (cur >> STAMP_SHIFT) > epoch {
                return false;
            }
            match cell.compare_exchange_weak(cur, new, Ordering::SeqCst, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    #[inline]
    fn load_state(&self, side: Side, epoch: u64, ops: &mut u64) -> Reg {
        *ops += 1;
        decode(self.state[side.index()].load(Ordering::Acquire), epoch)
    }

    #[inline]
    fn store_state(&self, side: Side, epoch: u64, value: u64, ops: &mut u64) -> bool {
        *ops += 1;
        Self::stamped_store(&self.state[side.index()], epoch, value)
    }

    /// `SeqCst`, pairing with the door store's `SeqCst` CAS (see the
    /// safety argument).
    #[inline]
    fn load_door(&self, side: Side, epoch: u64, ops: &mut u64) -> Reg {
        *ops += 1;
        decode(self.door[side.index()].load(Ordering::SeqCst), epoch)
    }

    #[inline]
    fn store_door(&self, side: Side, epoch: u64, ops: &mut u64) -> bool {
        *ops += 1;
        Self::stamped_store(&self.door[side.index()], epoch, DOOR_UP)
    }

    /// Every register's raw word (both doors, then both states).
    #[cfg(test)]
    pub(super) fn raw_words(&self) -> [u64; 4] {
        [&self.door[0], &self.door[1], &self.state[0], &self.state[1]]
            .map(|cell| cell.load(Ordering::Relaxed))
    }

    /// Abandons a call whose epoch turned stale: best-effort publishes
    /// `Quit` (so a same-epoch peer still racing us can win and move on)
    /// and loses. Losing is always sound for a TAS contender, and a
    /// contender of a dead epoch in particular can never be owed the win.
    fn concede(&self, side: Side, epoch: u64, ops: &mut u64) -> TasResult {
        let _ = self.store_state(side, epoch, STATE_QUIT, ops);
        TasResult::Lost
    }

    /// Runs the protocol for `side` in the one-shot configuration
    /// (epoch 0, never reset), drawing coins from `rng`.
    ///
    /// See the type-level documentation for guarantees.
    pub fn test_and_set_on<R: Rng + ?Sized>(&self, side: Side, rng: &mut R) -> TasResult {
        // A pinned, never-advancing epoch cell: standalone objects are
        // exactly the paper's one-shot register TAS.
        let epoch = AtomicU64::new(0);
        self.test_and_set_in_epoch(side, 0, &epoch, rng, &mut 0)
    }

    /// Runs the protocol for `side` as a contender of `epoch`, adding
    /// the register operations this call performs to `ops`.
    ///
    /// `reset_epoch` is the shared counter the owning object bumps to
    /// reset; the call re-checks it while waiting and concedes once it
    /// moves past `epoch`. Callers must pass the epoch they read from
    /// that counter when they entered (the tournament reads it once per
    /// tree walk).
    pub fn test_and_set_in_epoch<R: Rng + ?Sized>(
        &self,
        side: Side,
        epoch: u64,
        reset_epoch: &AtomicU64,
        rng: &mut R,
        ops: &mut u64,
    ) -> TasResult {
        // Idempotent re-entry within the epoch (an uncounted peek: no
        // protocol step has happened yet).
        match decode(self.state[side.index()].load(Ordering::Acquire), epoch) {
            Reg::Stale => return TasResult::Lost,
            Reg::Val(STATE_WON_FAST | STATE_WON_SLOW) => return TasResult::Won,
            Reg::Val(STATE_QUIT) => return TasResult::Lost,
            Reg::Val(_) => {}
        }

        let me = side;
        let peer = side.other();

        // Doorway.
        if !self.store_door(me, epoch, ops) {
            return self.concede(me, epoch, ops);
        }
        match self.load_door(peer, epoch, ops) {
            Reg::Stale => return self.concede(me, epoch, ops),
            Reg::Val(0) => {
                return if self.store_state(me, epoch, STATE_WON_FAST, ops) {
                    TasResult::Won
                } else {
                    self.concede(me, epoch, ops)
                };
            }
            Reg::Val(_) => {}
        }

        // Round race.
        let mut my_round = 0u64;
        if !self.store_state(me, epoch, racing(my_round), ops) {
            return self.concede(me, epoch, ops);
        }
        let mut spins = 0u32;
        loop {
            // A bumped counter means the object was reset mid-call: this
            // contender belongs to a dead epoch. Conceding here (rather
            // than only on a stale stamp) keeps stale contenders from
            // spinning on a peer that already conceded and will never
            // publish again. Reset detection, not a protocol register op.
            if reset_epoch.load(Ordering::Acquire) != epoch {
                return self.concede(me, epoch, ops);
            }
            match self.load_state(peer, epoch, ops) {
                Reg::Stale => return self.concede(me, epoch, ops),
                Reg::Val(peer_state) => match peer_state {
                    STATE_WON_FAST | STATE_WON_SLOW => {
                        let _ = self.store_state(me, epoch, STATE_QUIT, ops);
                        return TasResult::Lost;
                    }
                    STATE_QUIT => {
                        return if self.store_state(me, epoch, STATE_WON_SLOW, ops) {
                            TasResult::Won
                        } else {
                            self.concede(me, epoch, ops)
                        };
                    }
                    STATE_NONE => {
                        // Peer passed the doorway but has not published its
                        // race state yet; it will, unless it crashed.
                        Self::pause(&mut spins);
                    }
                    racing_state => {
                        let peer_round = racing_state - STATE_RACING_BASE;
                        match peer_round.cmp(&my_round) {
                            std::cmp::Ordering::Greater => {
                                let _ = self.store_state(me, epoch, STATE_QUIT, ops);
                                return TasResult::Lost;
                            }
                            std::cmp::Ordering::Equal if my_round >= MAX_ROUND => {
                                // Both contenders reached the last round
                                // the 8-bit value field can encode
                                // (probability ≈ 2⁻²⁵¹). Resolve the tie
                                // deterministically by side: Right
                                // concedes, Left waits to observe the
                                // quit and win. One quitter, one winner
                                // — the safety argument is unchanged.
                                if me == Side::Right {
                                    let _ = self.store_state(me, epoch, STATE_QUIT, ops);
                                    return TasResult::Lost;
                                }
                                Self::pause(&mut spins);
                            }
                            std::cmp::Ordering::Equal => {
                                if rng.gen::<bool>() {
                                    my_round += 1;
                                    if !self.store_state(me, epoch, racing(my_round), ops) {
                                        return self.concede(me, epoch, ops);
                                    }
                                }
                            }
                            std::cmp::Ordering::Less => {
                                // Peer is behind; it must observe us ahead
                                // and quit.
                                Self::pause(&mut spins);
                            }
                        }
                    }
                },
            }
        }
    }

    /// Returns the winning side of `epoch` once that epoch is decided.
    pub fn winner_in_epoch(&self, epoch: u64) -> Option<Side> {
        for side in [Side::Left, Side::Right] {
            if let Reg::Val(STATE_WON_FAST | STATE_WON_SLOW) =
                decode(self.state[side.index()].load(Ordering::Acquire), epoch)
            {
                return Some(side);
            }
        }
        None
    }

    /// Returns the winning side once the object is decided (one-shot
    /// configuration: epoch 0).
    pub fn winner(&self) -> Option<Side> {
        self.winner_in_epoch(0)
    }

    /// Advisory: `true` once a winner has been published in `epoch`.
    pub fn is_decided_in_epoch(&self, epoch: u64) -> bool {
        self.winner_in_epoch(epoch).is_some()
    }

    /// Advisory: `true` once a winner has been published (epoch 0).
    pub fn is_decided(&self) -> bool {
        self.is_decided_in_epoch(0)
    }

    /// Iterations of pure spinning before [`Self::pause`] escalates to
    /// yielding on every call. Short waits (the common case: the peer is
    /// one store away from publishing) resolve without a syscall; past
    /// the threshold the waiter is almost certainly waiting on a peer
    /// that is *descheduled*, so burning the rest of a scheduling
    /// quantum in `spin_loop` only delays that peer further — on a
    /// single-CPU box it delays it by the whole quantum.
    const SPIN_BEFORE_YIELD: u32 = 32;

    /// Escalating backoff for the race's wait points: spin for the
    /// first [`Self::SPIN_BEFORE_YIELD`] iterations, then yield the
    /// processor on every iteration. The old shape (yield only every
    /// 64th iteration) made progress on 1-cpu hosts depend on exhausting
    /// 63 spins per quantum handoff, which is why `e14_quick_passes`
    /// used to be gated on `available_parallelism() >= 2`.
    #[inline]
    fn pause(spins: &mut u32) {
        if *spins < Self::SPIN_BEFORE_YIELD {
            *spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    #[test]
    fn solo_caller_wins_fast_path() {
        let t = TwoProcessTas::new();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(t.test_and_set_on(Side::Right, &mut rng).won());
        assert_eq!(t.winner(), Some(Side::Right));
        assert!(t.is_decided());
    }

    #[test]
    fn second_caller_loses() {
        let t = TwoProcessTas::new();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(t.test_and_set_on(Side::Left, &mut rng).won());
        assert!(t.test_and_set_on(Side::Right, &mut rng).lost());
        assert_eq!(t.winner(), Some(Side::Left));
    }

    #[test]
    fn reentry_is_idempotent() {
        let t = TwoProcessTas::new();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(t.test_and_set_on(Side::Left, &mut rng).won());
        assert!(t.test_and_set_on(Side::Left, &mut rng).won());
        assert!(t.test_and_set_on(Side::Right, &mut rng).lost());
        assert!(t.test_and_set_on(Side::Right, &mut rng).lost());
    }

    #[test]
    fn each_call_counts_its_own_register_steps() {
        let t = TwoProcessTas::new();
        let mut rng = StdRng::seed_from_u64(4);
        let epoch = AtomicU64::new(0);
        let (mut left_ops, mut right_ops) = (0, 0);
        assert!(t
            .test_and_set_in_epoch(Side::Left, 0, &epoch, &mut rng, &mut left_ops)
            .won());
        // Fast path: door store, door load, state store.
        assert_eq!(left_ops, 3);
        assert!(t
            .test_and_set_in_epoch(Side::Right, 0, &epoch, &mut rng, &mut right_ops)
            .lost());
        // Door store, door load, race-state store, peer-state load, quit
        // store; the winner's count is untouched.
        assert_eq!((left_ops, right_ops), (3, 5));
    }

    #[test]
    fn undecided_object_reports_no_winner() {
        let t = TwoProcessTas::new();
        assert_eq!(t.winner(), None);
        assert!(!t.is_decided());
    }

    #[test]
    fn epoch_bump_reopens_the_object() {
        let epoch = AtomicU64::new(0);
        let t = TwoProcessTas::new();
        let mut rng = StdRng::seed_from_u64(9);
        assert!(t
            .test_and_set_in_epoch(Side::Left, 0, &epoch, &mut rng, &mut 0)
            .won());
        assert!(t
            .test_and_set_in_epoch(Side::Right, 0, &epoch, &mut rng, &mut 0)
            .lost());
        // Reset = bump the shared counter; no register of `t` is touched.
        let words_before = t.raw_words();
        epoch.store(1, Ordering::Release);
        assert_eq!(t.raw_words(), words_before);
        // Epoch 1 races from a pristine state: the old decision reads as
        // default, and the other side can now win.
        assert!(!t.is_decided_in_epoch(1));
        assert!(t
            .test_and_set_in_epoch(Side::Right, 1, &epoch, &mut rng, &mut 0)
            .won());
        assert_eq!(t.winner_in_epoch(1), Some(Side::Right));
        // Epoch 0 still remembers its own winner.
        assert_eq!(t.winner_in_epoch(0), Some(Side::Left));
    }

    #[test]
    fn stale_epoch_caller_loses() {
        let epoch = AtomicU64::new(0);
        let t = TwoProcessTas::new();
        let mut rng = StdRng::seed_from_u64(10);
        assert!(t
            .test_and_set_in_epoch(Side::Left, 0, &epoch, &mut rng, &mut 0)
            .won());
        epoch.store(1, Ordering::Release);
        assert!(t
            .test_and_set_in_epoch(Side::Left, 1, &epoch, &mut rng, &mut 0)
            .won());
        // A straggler still carrying epoch 0 observes epoch-1 stamps and
        // must concede — it can never elect a second winner.
        assert!(t
            .test_and_set_in_epoch(Side::Right, 0, &epoch, &mut rng, &mut 0)
            .lost());
    }

    #[test]
    fn stale_write_cannot_clobber_newer_epoch() {
        let cell = AtomicU64::new(pack(5, STATE_WON_FAST));
        // An epoch-3 straggler's store must bounce off the epoch-5 value.
        assert!(!TwoProcessTas::stamped_store(&cell, 3, STATE_QUIT));
        assert_eq!(cell.load(Ordering::Relaxed), pack(5, STATE_WON_FAST));
        // A newer epoch may overwrite an older one.
        assert!(TwoProcessTas::stamped_store(&cell, 6, DOOR_UP));
        assert_eq!(cell.load(Ordering::Relaxed), pack(6, DOOR_UP));
    }

    #[test]
    fn stamps_survive_epochs_past_the_old_u32_bound() {
        // The pre-widening layout packed the epoch into 32 bits, so a
        // slot reset more than `u32::MAX` times silently degraded to
        // one-shot. With the 56-bit stamp, epochs beyond that bound
        // still race, decide, and reset like young ones.
        let e = u64::from(u32::MAX) + 7;
        let epoch_cell = AtomicU64::new(e);
        let t = TwoProcessTas::new();
        let mut rng = StdRng::seed_from_u64(11);
        assert!(t
            .test_and_set_in_epoch(Side::Left, e, &epoch_cell, &mut rng, &mut 0)
            .won());
        assert!(t
            .test_and_set_in_epoch(Side::Right, e, &epoch_cell, &mut rng, &mut 0)
            .lost());
        assert_eq!(t.winner_in_epoch(e), Some(Side::Left));
        // The next epoch past the bound reads as pristine again.
        epoch_cell.store(e + 1, Ordering::Release);
        assert!(!t.is_decided_in_epoch(e + 1));
        assert!(t
            .test_and_set_in_epoch(Side::Right, e + 1, &epoch_cell, &mut rng, &mut 0)
            .won());
    }

    #[test]
    fn round_cap_and_states_fit_the_value_field() {
        // Every encodable protocol value must survive a pack/decode
        // round-trip under the largest epoch the tournament will ever
        // issue (the system-wide 2^48 - 1 reset limit).
        let epoch = (1u64 << 48) - 1;
        assert_eq!(racing(MAX_ROUND), VALUE_MASK, "cap uses the full field");
        for value in [
            STATE_NONE,
            STATE_WON_FAST,
            STATE_WON_SLOW,
            STATE_QUIT,
            racing(0),
            racing(MAX_ROUND),
        ] {
            match decode(pack(epoch, value), epoch) {
                Reg::Val(v) => assert_eq!(v, value),
                Reg::Stale => panic!("same-epoch read decoded stale"),
            }
        }
        // One epoch later the same raw word reads as the reset default.
        match decode(pack(epoch - 1, STATE_WON_FAST), epoch) {
            Reg::Val(v) => assert_eq!(v, 0),
            Reg::Stale => panic!("older stamp must read as default"),
        }
    }

    #[test]
    fn concurrent_race_has_exactly_one_winner() {
        for seed in 0..200 {
            let t = Arc::new(TwoProcessTas::new());
            let handles: Vec<_> = [Side::Left, Side::Right]
                .into_iter()
                .enumerate()
                .map(|(k, side)| {
                    let t = Arc::clone(&t);
                    std::thread::spawn(move || {
                        let mut rng = StdRng::seed_from_u64(seed * 2 + k as u64);
                        t.test_and_set_on(side, &mut rng).won()
                    })
                })
                .collect();
            let wins = handles
                .into_iter()
                .map(|h| h.join().expect("thread panicked"))
                .filter(|won| *won)
                .count();
            assert_eq!(wins, 1, "seed {seed}: expected exactly one winner");
        }
    }

    #[test]
    fn concurrent_epoch_races_stay_safe_across_resets() {
        // Round-trip winner/loser pairs across many epochs on one object,
        // with the loser of each epoch deliberately left mid-protocol
        // sometimes (it finishes late, as a stale straggler).
        let epoch = Arc::new(AtomicU64::new(0));
        let t = Arc::new(TwoProcessTas::new());
        for e in 0..50u64 {
            let handles: Vec<_> = [Side::Left, Side::Right]
                .into_iter()
                .enumerate()
                .map(|(k, side)| {
                    let (t, epoch) = (Arc::clone(&t), Arc::clone(&epoch));
                    std::thread::spawn(move || {
                        let mut rng = StdRng::seed_from_u64(e * 31 + k as u64);
                        t.test_and_set_in_epoch(side, e, &epoch, &mut rng, &mut 0)
                            .won()
                    })
                })
                .collect();
            let wins = handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .filter(|w| *w)
                .count();
            assert_eq!(wins, 1, "epoch {e}: expected exactly one winner");
            epoch.store(e + 1, Ordering::Release);
        }
    }
}
