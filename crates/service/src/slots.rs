//! Request-slot state for the combining front-end: the published-request
//! state machine, the padded slot table, and the per-thread slot leases.
//!
//! A slot cycles through
//!
//! ```text
//! EMPTY ──publish──▶ PENDING ──take_for_service──▶ SERVING ──fill──▶ DONE | FAILED ──finish──▶ EMPTY
//!                       │
//!                       └──withdraw (cancelled async request)──▶ EMPTY
//! ```
//!
//! Ownership of each edge is strict: only the slot's owner (the thread
//! or task that claimed it) publishes, withdraws, or finishes; only the
//! combiner takes a slot for service and fills it. `PENDING → SERVING`
//! and `PENDING → EMPTY` are both CASes on the same word, so a combiner
//! adopting a request and a cancelled future withdrawing it can never
//! both succeed — the edge that loses sees the other's transition and
//! defers (the combiner skips the slot; the canceller waits for the
//! verdict and recycles an abandoned win).
//!
//! Every transition out of `PENDING`/`SERVING` pairs with the slot's
//! [`WaitCell`] to notify whoever is sleeping on the result — see
//! [`crate::wait`] for the handshake.

use std::cell::RefCell;
use std::sync::Arc;

use renaming_core::{Name, RenamingError};

use crate::sync_shim::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use crate::wait::{WaitCell, WaiterKind};

/// No request published; the slot may be claimed/leased but is idle.
const EMPTY: u32 = 0;
/// A request is published and waiting for a combiner to adopt it.
const PENDING: u32 = 1;
/// A combiner has adopted the request into its current batch and will
/// fill the slot before it releases the combiner lock.
const SERVING: u32 = 2;
/// Filled with a won name (in `result`); the owner consumes it.
const DONE: u32 = 3;
/// Filled with a failure (namespace exhausted); the owner consumes it.
const FAILED: u32 = 4;

/// Per-thread cap on remembered `(table id, slot lease)` pairs —
/// the same bounded-TLS discipline as the pool's shard hints.
const LEASES_PER_THREAD: usize = 64;

/// What the owner of a published request sees when it checks its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotPoll {
    /// Still `PENDING` or `SERVING`: no verdict yet.
    Waiting,
    /// Served: the request won this name value.
    Done(usize),
    /// Served: the namespace was exhausted.
    Failed,
}

/// One published acquire request. Padded to own its cache lines
/// outright, so a waiter spinning on its own slot never false-shares
/// with a neighbor's publication.
#[repr(align(128))]
#[derive(Debug)]
pub(crate) struct RequestSlot {
    /// Claimed by a thread lease ([`SlotLease`]) or directly by an async
    /// future: only the claimant may publish requests here.
    claimed: AtomicBool,
    state: AtomicU32,
    /// The acquired name's value; meaningful only in state `DONE`.
    result: AtomicUsize,
    /// The wait/notify half: who (if anyone) sleeps on this slot.
    pub(crate) wait: WaitCell,
}

impl RequestSlot {
    fn new() -> Self {
        Self {
            claimed: AtomicBool::new(false),
            state: AtomicU32::new(EMPTY),
            result: AtomicUsize::new(0),
            wait: WaitCell::new(),
        }
    }

    /// Publishes a request: `EMPTY → PENDING`. Owner only; the caller
    /// must bump the combiner's queued hint *before* this store (program
    /// order on the SeqCst pair is what lets a combiner that sees
    /// `PENDING` also see the count).
    pub(crate) fn publish(&self) {
        debug_assert_eq!(self.state.load(Ordering::Relaxed), EMPTY);
        self.state.store(PENDING, Ordering::SeqCst);
    }

    /// The owner's view of the slot.
    pub(crate) fn poll(&self) -> SlotPoll {
        match self.state.load(Ordering::SeqCst) {
            DONE => SlotPoll::Done(self.result.load(Ordering::Relaxed)),
            FAILED => SlotPoll::Failed,
            _ => SlotPoll::Waiting,
        }
    }

    /// Whether the request is still in flight (`PENDING` or `SERVING`) —
    /// the sync waiter's post-engage park condition.
    pub(crate) fn in_flight(&self) -> bool {
        matches!(self.state.load(Ordering::SeqCst), PENDING | SERVING)
    }

    /// Combiner edge: adopts a pending request into the current batch
    /// (`PENDING → SERVING`). Returns `false` if the slot holds no
    /// pending request — including the case where a cancelled future
    /// withdrew it between our load and CAS.
    pub(crate) fn take_for_service(&self) -> bool {
        self.state.load(Ordering::SeqCst) == PENDING
            && self
                .state
                .compare_exchange(PENDING, SERVING, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
    }

    /// Owner edge (cancellation): withdraws a request no combiner has
    /// adopted yet (`PENDING → EMPTY`). Returns `false` if a combiner
    /// won the race — the verdict is then coming and must be consumed.
    pub(crate) fn withdraw(&self) -> bool {
        self.state
            .compare_exchange(PENDING, EMPTY, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Combiner edge: fills an adopted slot with its verdict
    /// (`SERVING → DONE | FAILED`) and collects the waiter to notify.
    /// The SeqCst state store before the engaged-flag load is the
    /// combiner's half of the Dekker handshake (see [`crate::wait`]).
    pub(crate) fn fill(&self, outcome: Option<usize>) -> Option<WaiterKind> {
        debug_assert_eq!(self.state.load(Ordering::Relaxed), SERVING);
        let state = match outcome {
            Some(value) => {
                self.result.store(value, Ordering::Relaxed);
                DONE
            }
            None => FAILED,
        };
        self.state.store(state, Ordering::SeqCst);
        self.wait.take_notification()
    }

    /// Owner edge: consumes a verdict (`DONE | FAILED → EMPTY`), making
    /// the slot publishable again.
    pub(crate) fn finish(&self) {
        self.state.store(EMPTY, Ordering::Relaxed);
    }

    /// Owner edge: consumes the verdict as the acquire's result (a
    /// failure exhausted a namespace of size `namespace`); `None` while
    /// the request is in flight.
    pub(crate) fn take_verdict(&self, namespace: usize) -> Option<Result<Name, RenamingError>> {
        let result = match self.poll() {
            SlotPoll::Waiting => return None,
            SlotPoll::Done(value) => Ok(Name::new(value)),
            SlotPoll::Failed => Err(RenamingError::NamespaceExhausted { namespace }),
        };
        self.finish();
        Some(result)
    }
}

/// Identity source for slot tables (monotonic, never reused), keying
/// each thread's slot leases per combiner.
///
/// Deliberately on `std` even under `--cfg renaming_model`: model
/// atomics are not const-constructible, and a process-global id counter
/// is not part of any modeled protocol (see [`crate::sync_shim`]).
fn next_table_id() -> u64 {
    use std::sync::atomic::AtomicU64;
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// The combining front-end's array of request slots, shared between the
/// combiner core, thread leases, and in-flight async futures.
#[derive(Debug)]
pub(crate) struct SlotTable {
    slots: Box<[RequestSlot]>,
    /// This table's key into the per-thread lease table.
    id: u64,
}

impl SlotTable {
    /// A table with `slots` request slots (clamped to `2..=256`, rounded
    /// up to a power of two).
    pub(crate) fn new(slots: usize) -> Arc<Self> {
        let slots = slots.clamp(2, 256).next_power_of_two();
        Arc::new(Self {
            slots: (0..slots).map(|_| RequestSlot::new()).collect(),
            id: next_table_id(),
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn slot(&self, index: usize) -> &RequestSlot {
        &self.slots[index]
    }

    /// Claims an unclaimed slot outright (no lease, no waiter
    /// registration) — the async path, where a future owns the claim for
    /// exactly one request and releases it on completion or drop.
    /// `None` when every slot is taken.
    pub(crate) fn claim(&self) -> Option<usize> {
        for (index, slot) in self.slots.iter().enumerate() {
            // Acquire on both the hint load and the CAS: either read may
            // be the one that observes the releasing thread's clear, and
            // the claimant's subsequent slot accesses must be ordered
            // after it (free on x86; keeps the model's race detector
            // edge-complete).
            if slot.claimed.load(Ordering::Acquire) {
                continue;
            }
            if slot
                .claimed
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Acquire)
                .is_ok()
            {
                return Some(index);
            }
        }
        None
    }

    /// Releases a claim taken by [`claim`](Self::claim) (or held by a
    /// dropped lease): clears the waiter registration, then reopens the
    /// slot. The Release store pairs with the Acquire CAS in `claim`,
    /// ordering the clear before the slot's next claimant.
    pub(crate) fn release(&self, index: usize) {
        let slot = &self.slots[index];
        debug_assert_eq!(slot.state.load(Ordering::Relaxed), EMPTY);
        slot.wait.clear();
        slot.claimed.store(false, Ordering::Release);
    }

    /// The calling thread's leased slot index in this table, claiming
    /// one (and registering the thread's park handle as its waiter) on
    /// first touch. `None` when every slot is taken by another live
    /// thread or an in-flight async future — the caller then falls back
    /// to the direct path.
    pub(crate) fn leased_index(self: &Arc<Self>) -> Option<usize> {
        LEASES.with(|leases| {
            let mut leases = leases.borrow_mut();
            if let Some((_, lease)) = leases.iter().find(|(id, _)| *id == self.id) {
                return Some(lease.index);
            }
            let index = self.claim()?;
            self.slots[index].wait.install_thread();
            if leases.len() >= LEASES_PER_THREAD {
                leases.remove(0); // evict (and thereby release) the oldest
            }
            leases.push((self.id, SlotLease { table: Arc::clone(self), index }));
            Some(index)
        })
    }

    /// How many slots are currently unclaimed (tests).
    #[cfg(test)]
    pub(crate) fn unclaimed(&self) -> usize {
        self.slots
            .iter()
            .filter(|slot| !slot.claimed.load(Ordering::Relaxed))
            .count()
    }
}

/// A thread's exclusive claim on one request slot of one slot table.
/// Dropping the lease (thread exit, or TLS eviction) releases the slot
/// for other threads; the `Arc` keeps the slot array alive even if the
/// service is gone.
#[derive(Debug)]
struct SlotLease {
    table: Arc<SlotTable>,
    index: usize,
}

impl Drop for SlotLease {
    fn drop(&mut self) {
        self.table.release(self.index);
    }
}

thread_local! {
    static LEASES: RefCell<Vec<(u64, SlotLease)>> = const { RefCell::new(Vec::new()) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_counts_clamp_and_round() {
        assert_eq!(SlotTable::new(0).len(), 2);
        assert_eq!(SlotTable::new(3).len(), 4);
        assert_eq!(SlotTable::new(usize::MAX).len(), 256);
    }

    #[test]
    fn request_slots_own_their_cache_lines() {
        assert!(std::mem::align_of::<RequestSlot>() >= 128);
        assert!(std::mem::size_of::<RequestSlot>().is_multiple_of(128));
    }

    #[test]
    fn state_machine_walks_the_published_request_cycle() {
        let table = SlotTable::new(2);
        let index = table.claim().expect("fresh table has slots");
        let slot = table.slot(index);
        assert_eq!(slot.poll(), SlotPoll::Waiting);
        assert!(!slot.in_flight(), "EMPTY is not in flight");
        slot.publish();
        assert!(slot.in_flight());
        assert!(slot.take_for_service(), "combiner adopts a pending slot");
        assert!(!slot.take_for_service(), "adoption is exclusive");
        assert!(!slot.withdraw(), "withdraw loses against an adoption");
        assert!(slot.in_flight(), "SERVING is still in flight");
        assert!(slot.fill(Some(7)).is_none(), "no waiter engaged");
        assert_eq!(slot.poll(), SlotPoll::Done(7));
        slot.finish();
        assert_eq!(slot.poll(), SlotPoll::Waiting);
        table.release(index);
    }

    #[test]
    fn withdraw_beats_a_combiner_that_has_not_adopted() {
        let table = SlotTable::new(2);
        let index = table.claim().expect("claim");
        let slot = table.slot(index);
        slot.publish();
        assert!(slot.withdraw(), "unadopted requests withdraw cleanly");
        assert!(!slot.take_for_service(), "nothing left to adopt");
        table.release(index);
    }

    #[test]
    fn failed_fill_reports_exhaustion() {
        let table = SlotTable::new(2);
        let index = table.claim().expect("claim");
        let slot = table.slot(index);
        slot.publish();
        assert!(slot.take_for_service());
        assert!(slot.fill(None).is_none());
        assert_eq!(slot.poll(), SlotPoll::Failed);
        slot.finish();
        table.release(index);
    }

    #[test]
    fn leases_are_sticky_per_thread_and_released_on_exit() {
        let table = SlotTable::new(4);
        let a = table.leased_index().expect("claim");
        assert_eq!(table.leased_index(), Some(a), "lease is sticky");
        let clone = Arc::clone(&table);
        std::thread::spawn(move || {
            let b = clone.leased_index().expect("claim");
            assert_ne!(a, b, "two live threads never share a slot");
        })
        .join()
        .expect("join");
        // The spawned thread exited: its lease dropped, its slot is free
        // again (claimed flag cleared, waiter handle gone).
        assert_eq!(table.unclaimed(), 3, "only the live thread's slot stays claimed");
    }

    #[test]
    fn direct_claims_and_leases_share_the_table() {
        let table = SlotTable::new(2);
        let leased = table.leased_index().expect("lease");
        let claimed = table.claim().expect("one slot left");
        assert_ne!(leased, claimed);
        assert!(table.claim().is_none(), "table exhausted");
        assert_eq!(
            table.leased_index(),
            Some(leased),
            "the sticky lease survives a full table"
        );
        table.release(claimed);
        assert_eq!(table.unclaimed(), 1);
    }
}
