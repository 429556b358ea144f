//! Adapter from caller-identified TAS objects to anonymous ones.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{IdTas, Tas, TasResult};

/// Bit position of the epoch field of the packed grant counter; the low
/// 16 bits are the next ticket within that epoch, the high 48 the epoch
/// itself. 48 epoch bits match the tournament's system-wide reset limit
/// ([`crate::rwtas::EPOCH_LIMIT`]): under the old 32-bit split a slot
/// reset more than `u32::MAX` times saturated and went one-shot.
const EPOCH_SHIFT: u32 = 16;
const TICKET_MASK: u64 = (1 << EPOCH_SHIFT) - 1;

/// Adapts an [`IdTas`] (which needs caller identities, like the
/// register-based [`crate::rwtas::TournamentTas`]) into an anonymous
/// [`Tas`] by handing each arriving call a fresh ticket id.
///
/// This is what lets the renaming algorithms — written against anonymous
/// TAS slots — run end-to-end on the read/write-register substrate: wrap
/// every slot's tournament in a `TicketTas` and plug the array into
/// [`crate::TasArray`].
///
/// The ticket counter itself is a read-modify-write, i.e. *not* a plain
/// register operation. The paper's reduction does not need it (there,
/// process ids are known a priori and each process calls a TAS object at
/// most once per identity); the counter is an artifact of exposing the
/// object through an anonymous interface.
///
/// # Tickets are an epoch-scoped resource
///
/// Each ticket is drawn together with the epoch it belongs to, from one
/// packed counter — a single read-modify-write couples the two, so a
/// ticket can never be used under a different epoch than it was issued
/// in. The draw is bounded: once an epoch has issued `capacity` tickets
/// it refuses, writing nothing, so the ticket half never passes
/// `capacity` and never carries into the epoch bits. Calls beyond the
/// wrapped object's capacity **within one epoch** lose without racing —
/// by then the object is guaranteed decided, so this preserves TAS
/// semantics. [`Tas::reset`] advances the wrapped object's epoch
/// ([`IdTas::advance_epoch`]) and reopens a full ticket window: under
/// long-lived churn the pid space is replenished on every release
/// instead of draining away (the exhaustion bound applies per epoch,
/// not per object lifetime). If an epoch's tickets do drain before its
/// winner releases, later calls keep losing cleanly, and an acquire
/// that finds no slot to win fails with the renaming layer's one
/// acquire error, `NamespaceExhausted` — never a panic, never a wrapped
/// pid. A release cannot fail: it is a `reset`, which returns nothing.
///
/// # Example
///
/// ```
/// use renaming_tas::rwtas::TournamentTas;
/// use renaming_tas::{Tas, TicketTas};
///
/// let t = TicketTas::new(TournamentTas::new(4));
/// assert!(t.test_and_set().won());
/// assert!(t.test_and_set().lost());
///
/// t.reset(); // epoch bump + fresh ticket window
/// assert!(!t.is_set());
/// assert!(t.test_and_set().won());
/// ```
#[derive(Debug)]
pub struct TicketTas<T> {
    inner: T,
    capacity: usize,
    /// Packed `(epoch << 16) | next_ticket`, with `next_ticket` at most
    /// `capacity`. One read-modify-write draws a ticket *and* observes
    /// the epoch it belongs to; `reset` rewrites the word to
    /// `(new_epoch << 16) | 0`, reopening the window.
    grants: AtomicU64,
}

impl TicketTas<crate::rwtas::TournamentTas> {
    /// Wraps a tournament, inheriting its capacity.
    pub fn new(inner: crate::rwtas::TournamentTas) -> Self {
        let capacity = inner.capacity();
        Self::with_capacity(inner, capacity)
    }
}

impl<T: IdTas> TicketTas<T> {
    /// Wraps an arbitrary [`IdTas`] accepting ids `0..capacity`.
    ///
    /// # Panics
    ///
    /// If `capacity` does not fit the 16-bit ticket field (capacities
    /// this large are far beyond any per-slot tournament the workspace
    /// builds).
    pub fn with_capacity(inner: T, capacity: usize) -> Self {
        assert!(
            capacity as u64 <= TICKET_MASK,
            "TicketTas capacity {capacity} overflows the 16-bit ticket field"
        );
        Self {
            inner,
            capacity,
            grants: AtomicU64::new(0),
        }
    }

    /// Tickets handed out so far in the current epoch.
    pub fn tickets_issued(&self) -> usize {
        (self.grants.load(Ordering::Relaxed) & TICKET_MASK) as usize
    }

    /// The epoch the next ticket will be drawn in (0 until the first
    /// [`Tas::reset`]).
    pub fn ticket_epoch(&self) -> u64 {
        self.grants.load(Ordering::Relaxed) >> EPOCH_SHIFT
    }
}

impl<T: IdTas> Tas for TicketTas<T> {
    fn test_and_set(&self) -> TasResult {
        let capacity = self.capacity as u64;
        let drawn = self
            .grants
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |grant| {
                (grant & TICKET_MASK < capacity).then_some(grant + 1)
            });
        match drawn {
            Ok(grant) => self
                .inner
                .test_and_set_as_in_epoch((grant & TICKET_MASK) as usize, grant >> EPOCH_SHIFT),
            // The object saw `capacity` contenders this epoch already; it
            // is decided (or will be, by contenders that entered before
            // us), and we were not the first — losing is sound.
            Err(_) => TasResult::Lost,
        }
    }

    fn is_set(&self) -> bool {
        self.inner.is_set()
    }

    /// Reopens the slot: advances the wrapped object's epoch (O(1); see
    /// [`IdTas::advance_epoch`]) and reissues the ticket window for the
    /// new epoch.
    ///
    /// Order matters: the epoch bump comes first, so a concurrent caller
    /// can only ever draw (old epoch, old ticket) — a cleanly losing
    /// stale contender — or (new epoch, fresh ticket), never a fresh
    /// ticket under the dead epoch. Resets themselves are serialized by
    /// the [`Tas::reset`] ownership rule (only the slot's current winner
    /// releases it).
    ///
    /// If the epoch cannot advance (the wrapped object saturated its
    /// stamp space), the ticket window stays closed too: the slot
    /// degrades to one-shot, it never reissues wins for a live epoch.
    /// The reset still returns normally; the slot just stays taken, and
    /// an acquire that finds no other slot fails with
    /// `NamespaceExhausted`.
    fn reset(&self) {
        let before = self.inner.epoch();
        self.inner.advance_epoch();
        let after = self.inner.epoch();
        if after != before {
            self.grants.store(after << EPOCH_SHIFT, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwtas::TournamentTas;
    use std::sync::Arc;

    #[test]
    fn first_caller_wins_rest_lose() {
        let t = TicketTas::new(TournamentTas::new(4));
        assert!(t.test_and_set().won());
        for _ in 0..6 {
            assert!(t.test_and_set().lost());
        }
        assert!(Tas::is_set(&t));
        assert_eq!(t.tickets_issued(), 4); // the draw stops at capacity
    }

    #[test]
    fn over_capacity_calls_lose_without_racing() {
        let t = TicketTas::new(TournamentTas::new(2));
        assert!(t.test_and_set().won());
        assert!(t.test_and_set().lost());
        // Third call exceeds capacity: guaranteed loss.
        assert!(t.test_and_set().lost());
    }

    #[test]
    fn reset_reissues_tickets_and_reopens_the_slot() {
        let t = TicketTas::new(TournamentTas::new(2));
        assert!(t.test_and_set().won());
        // Burn the whole epoch-0 ticket window and then some — the
        // pre-reset regression: these pids are gone for good.
        for _ in 0..5 {
            assert!(t.test_and_set().lost());
        }
        t.reset();
        assert!(!Tas::is_set(&t), "reset reopens the slot");
        assert_eq!(t.tickets_issued(), 0, "ticket window reissued");
        assert_eq!(t.ticket_epoch(), 1);
        assert!(
            t.test_and_set().won(),
            "a fresh epoch must win again even after pid exhaustion"
        );
    }

    #[test]
    fn churn_never_exhausts_the_pid_space() {
        // The long-lived workload that motivated the epoch redesign:
        // win/reset cycles far beyond the per-epoch contender budget.
        let t = TicketTas::new(TournamentTas::new(2));
        for round in 0..100 {
            assert!(t.test_and_set().won(), "round {round}");
            assert!(t.test_and_set().lost(), "round {round}");
            assert!(t.test_and_set().lost(), "round {round} over-capacity");
            t.reset();
        }
        assert_eq!(t.ticket_epoch(), 100);
    }

    #[test]
    fn exhausted_epoch_keeps_losing_cleanly_until_reset() {
        let t = TicketTas::new(TournamentTas::new(2));
        assert!(t.test_and_set().won());
        // Hold the win; every further call this epoch loses, including
        // far past the contender budget — no panic, no wraparound.
        for _ in 0..64 {
            assert!(t.test_and_set().lost());
        }
        assert!(Tas::is_set(&t));
        t.reset();
        assert!(t.test_and_set().won());
    }

    #[test]
    fn concurrent_tickets_single_winner() {
        for trial in 0..20 {
            let t = Arc::new(TicketTas::new(TournamentTas::new(8)));
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let t = Arc::clone(&t);
                    std::thread::spawn(move || t.test_and_set().won())
                })
                .collect();
            let winners = handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .filter(|w| *w)
                .count();
            assert_eq!(winners, 1, "trial {trial}");
        }
    }

    #[test]
    fn concurrent_churn_with_resets_has_one_winner_per_epoch() {
        // Threads race for the slot; whoever wins resets it, handing the
        // next epoch to the field. Total wins must equal total resets
        // (one winner per epoch), and nothing may panic or wedge.
        const THREADS: usize = 4;
        const ROUNDS: usize = 50;
        let t = Arc::new(TicketTas::new(TournamentTas::new(2 * THREADS)));
        let wins = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let t = Arc::clone(&t);
                    scope.spawn(move || {
                        let mut wins = 0u32;
                        for _ in 0..ROUNDS {
                            if t.test_and_set().won() {
                                wins += 1;
                                // We own this epoch's win: release it.
                                t.reset();
                            }
                        }
                        wins
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .sum::<u32>()
        });
        let epochs = t.ticket_epoch();
        assert_eq!(
            u64::from(wins),
            epochs,
            "every epoch must elect exactly one winner (wins == resets)"
        );
    }

    #[test]
    fn slots_past_the_old_u32_epoch_bound_still_reissue_tickets() {
        // Regression for the 32-bit epoch split: a slot reset more than
        // `u32::MAX` times saturated and went one-shot. The widened
        // 48-bit epoch field must keep cycling win/reset far past it.
        let start = u64::from(u32::MAX) + 5;
        let t = TicketTas::new(crate::rwtas::TournamentTas::with_epoch(2, start));
        // First reset syncs the ticket window to the inherited epoch.
        t.reset();
        assert_eq!(t.ticket_epoch(), start + 1);
        for round in 0..10 {
            assert!(t.test_and_set().won(), "round {round} past the old bound");
            assert!(t.test_and_set().lost(), "round {round}");
            t.reset();
        }
        assert_eq!(t.ticket_epoch(), start + 11, "windows reissued past u32::MAX");
    }

    #[test]
    fn contended_draws_stop_at_capacity() {
        // Sixteen callers race for four tickets: one wins, and the twelve
        // refused draws leave the ticket half at capacity.
        let t = TicketTas::new(TournamentTas::new(4));
        let wins = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|_| scope.spawn(|| t.test_and_set().won()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .filter(|won| *won)
                .count()
        });
        assert_eq!(wins, 1);
        assert_eq!(t.grants.load(Ordering::Relaxed) & TICKET_MASK, 4);
    }

    #[test]
    fn the_whole_ticket_field_is_usable_capacity() {
        let t = TicketTas::with_capacity(SaturatingTas::new(), TICKET_MASK as usize);
        assert!(t.test_and_set().won());
        assert_eq!(t.tickets_issued(), 1);
    }

    #[test]
    #[should_panic]
    fn oversized_capacity_is_rejected() {
        // The 16-bit ticket field cannot hold a capacity of 2^16.
        TicketTas::with_capacity(SaturatingTas::new(), 1 << 16);
    }

    /// A minimal epoch TAS whose epoch saturates at [`Self::CAP`] —
    /// a stand-in for a tournament that burned all 2^48 - 1 of its
    /// resets (the system-wide `EPOCH_LIMIT`).
    struct SaturatingTas {
        epoch: AtomicU64,
        /// `0` = unset, `e + 1` = won in epoch `e`.
        won: AtomicU64,
    }

    impl SaturatingTas {
        const CAP: u64 = 3;

        fn new() -> Self {
            Self {
                epoch: AtomicU64::new(0),
                won: AtomicU64::new(0),
            }
        }
    }

    impl IdTas for SaturatingTas {
        fn is_set(&self) -> bool {
            self.won.load(Ordering::Acquire) == self.epoch.load(Ordering::Acquire) + 1
        }

        fn test_and_set_as_in_epoch(&self, _pid: usize, epoch: u64) -> TasResult {
            let cur = self.won.load(Ordering::Acquire);
            TasResult::from_won(
                cur < epoch + 1
                    && self
                        .won
                        .compare_exchange(cur, epoch + 1, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok(),
            )
        }

        fn epoch(&self) -> u64 {
            self.epoch.load(Ordering::Acquire)
        }

        fn advance_epoch(&self) {
            let _ = self.epoch.fetch_update(Ordering::AcqRel, Ordering::Acquire, |e| {
                (e < Self::CAP).then_some(e + 1)
            });
        }
    }

    #[test]
    fn saturated_epoch_degrades_to_one_shot_without_reissuing_wins() {
        let t = TicketTas::with_capacity(SaturatingTas::new(), 2);
        // Burn every available epoch.
        for round in 0..SaturatingTas::CAP {
            assert!(t.test_and_set().won(), "round {round}");
            t.reset();
        }
        assert_eq!(t.ticket_epoch(), SaturatingTas::CAP);
        // The final epoch's win sticks: a reset that cannot advance the
        // epoch must NOT reopen the ticket window, or the next caller
        // would redraw pid 0 in the still-live epoch and double-win.
        assert!(t.test_and_set().won());
        t.reset();
        assert_eq!(t.ticket_epoch(), SaturatingTas::CAP, "epoch saturated");
        assert!(
            t.test_and_set().lost(),
            "saturated slot must degrade to one-shot, never duplicate a win"
        );
        assert!(Tas::is_set(&t));
    }
}
