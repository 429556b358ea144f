//! The session pool behind [`NameService`](crate::NameService): a
//! sharded, lock-free checkout path.
//!
//! # Why sharded
//!
//! The service's acquire fast path is the whole point of the paper's
//! algorithms: `O(log log n)` TAS probes, no global serialization. A
//! `Mutex<Vec<_>>` checkout in front of that re-introduces exactly the
//! global point of contention the algorithms avoid — every acquire and
//! every release takes the same lock, and on an oversubscribed machine a
//! preempted lock holder convoys every other thread. The
//! [`ShardedPool`] removes it:
//!
//! * a fixed, power-of-two array of **shards**, each a cache-line-padded
//!   bank of `AtomicPtr` slots, so different threads' check-ins land on
//!   different cache lines;
//! * a **per-pool, per-thread shard hint** spreads threads across shards
//!   and sends a thread back to the slot it used last, so the
//!   single-thread fast path is one `swap` on one warm line. Hints are
//!   drawn from each pool's own round-robin counter (keyed by a pool
//!   id in thread-local storage), so a thread's placement in one
//!   `NameService` never dictates its placement in another;
//! * **work stealing**: a checkout that finds its home shard empty
//!   probes the neighboring shards before giving up;
//! * a **bounded slow path**: only when every slot of every shard is
//!   empty does the caller construct a fresh session.
//!
//! All transfers use `swap`/`compare_exchange` of whole pointers —
//! ownership moves atomically in one instruction, no node links are ever
//! traversed, so the classic Treiber-stack ABA hazard cannot arise and
//! no deferred reclamation scheme is needed: whoever swaps a non-null
//! pointer out of a slot owns it exclusively.

use std::cell::RefCell;
use std::ptr;

use crate::sync_shim::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Idle slots per shard. Four pointers cover the common burst of
/// same-shard check-ins (several threads hashing to one shard) while
/// keeping the padded shard a single 128-byte unit.
const SLOTS_PER_SHARD: usize = 4;

/// Upper bound on the shard count; beyond this the empty-pool probe walk
/// costs more than it saves.
const MAX_SHARDS: usize = 1024;

/// One bank of idle-session slots, aligned and sized to own its cache
/// lines outright (128 bytes covers the adjacent-line prefetcher on
/// x86), so checkouts on one shard never false-share with another.
#[repr(align(128))]
struct Shard<T> {
    slots: [AtomicPtr<T>; SLOTS_PER_SHARD],
}

impl<T> Shard<T> {
    fn new() -> Self {
        Self {
            slots: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
        }
    }
}

/// Identity source for [`ShardedPool`]s, so each thread's shard hints
/// are keyed by pool instance. Monotonic — ids are never reused, so a
/// dead pool's leftover thread-local entries can never alias a live one.
///
/// Deliberately on `std` even under `--cfg renaming_model`: model
/// atomics are not const-constructible, and a process-global id counter
/// is not part of any modeled protocol (see [`crate::sync_shim`]).
fn next_pool_id() -> u64 {
    use std::sync::atomic::AtomicU64;
    static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(0);
    NEXT_POOL_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Per-thread cap on remembered `(pool id, hint)` pairs. A thread that
/// somehow touches more pools than this just re-draws a hint from the
/// evicted pool's round-robin counter on its next visit — placement
/// changes, correctness does not.
const HINTS_PER_THREAD: usize = 64;

/// A lock-free pool of idle `Box<T>` items, sharded to kill contention
/// and false sharing on the checkout path.
///
/// `checkout` and `checkin` are lock-free and finish in at most
/// `shards × SLOTS_PER_SHARD` atomic operations. Ownership transfers via
/// whole-pointer `swap`, so no ABA hazard exists and no reclamation
/// scheme is needed.
pub(crate) struct ShardedPool<T> {
    shards: Box<[Shard<T>]>,
    /// `shards.len() - 1`; the length is a power of two.
    mask: usize,
    /// Items dropped by `checkin` because every slot was occupied. Only
    /// possible when more than `shards.len() × SLOTS_PER_SHARD` items
    /// are idle at once — the pool is already warm, so retiring the
    /// surplus is the bounded-memory choice.
    retired: AtomicU64,
    /// This pool's key into the per-thread hint table.
    id: u64,
    /// First-touch round-robin counter for this pool's hints. Scoped
    /// per pool: a thread's placement here says nothing about its
    /// placement in any other pool (a process-global counter used to
    /// make two services collide the same threads onto the same shard
    /// index systematically).
    next_hint: AtomicUsize,
}

// SAFETY: the pool owns heap pointers to `T` and hands each out to at
// most one thread at a time (`swap` takes the pointer out of the slot
// before anyone touches it), so moving the pool between threads moves
// only `T`s no other thread can reach — sound whenever sending `T` is.
unsafe impl<T: Send> Send for ShardedPool<T> {}
// SAFETY: shared access goes exclusively through the slots' atomics;
// the single-holder transfer discipline above means `&ShardedPool`
// never yields two threads access to the same `T`, so `Sync` needs
// only `T: Send` (no `&T` is ever shared across threads).
unsafe impl<T: Send> Sync for ShardedPool<T> {}

impl<T> ShardedPool<T> {
    /// A pool with `shards` shards, rounded up to a power of two and
    /// clamped to `1..=MAX_SHARDS`.
    pub(crate) fn new(shards: usize) -> Self {
        let shards = shards.clamp(1, MAX_SHARDS).next_power_of_two();
        Self {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            mask: shards - 1,
            retired: AtomicU64::new(0),
            id: next_pool_id(),
            next_hint: AtomicUsize::new(0),
        }
    }

    /// The calling thread's home shard index in *this* pool (before
    /// masking). Assigned round-robin per pool on first touch, so
    /// simultaneously active threads start on distinct shards; stable
    /// thereafter, so a thread re-checks-out the worker it just checked
    /// in — the warm line, the warm session.
    fn shard_hint(&self) -> usize {
        thread_local! {
            static HINTS: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
        }
        HINTS.with(|hints| {
            let mut hints = hints.borrow_mut();
            if let Some(&(_, hint)) = hints.iter().find(|&&(id, _)| id == self.id) {
                return hint;
            }
            // AcqRel (not Relaxed): the RMW chain on this counter is the
            // only synchronization between the threads drawing hints, and
            // the model's race detector requires each link of the chain
            // to carry a happens-before edge. Once-per-(thread, pool), so
            // the fence cost is irrelevant.
            let hint = self.next_hint.fetch_add(1, Ordering::AcqRel);
            if hints.len() >= HINTS_PER_THREAD {
                hints.remove(0); // evict the oldest-assigned entry
            }
            hints.push((self.id, hint));
            hint
        })
    }

    /// The default shard count: the machine's parallelism, rounded up to
    /// a power of two (more concurrent threads than cores gain nothing
    /// from more shards — they cannot all be checking out at once).
    pub(crate) fn default_shards() -> usize {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }

    /// Takes an idle item, preferring the calling thread's home shard
    /// and stealing from neighbors before reporting the pool empty.
    pub(crate) fn checkout(&self) -> Option<Box<T>> {
        let home = self.shard_hint() & self.mask;
        for probe in 0..self.shards.len() {
            let shard = &self.shards[(home + probe) & self.mask];
            for slot in &shard.slots {
                // Cheap read first: swapping an empty slot would pull its
                // line exclusive for nothing on the steal path. Acquire
                // (free on x86): the non-null it may observe is another
                // thread's Release publication, and the model's race
                // detector requires the edge even on the hint.
                if slot.load(Ordering::Acquire).is_null() {
                    continue;
                }
                // AcqRel: Acquire pairs with the publishing CAS (we are
                // about to own what it published); Release orders this
                // thread's history before the null it leaves behind,
                // which a concurrent hint load may observe.
                let p = slot.swap(ptr::null_mut(), Ordering::AcqRel);
                if !p.is_null() {
                    // SAFETY: `p` came from `Box::into_raw` in `checkin`
                    // and the swap made this thread its only holder.
                    return Some(unsafe { Box::from_raw(p) });
                }
            }
        }
        None
    }

    /// Returns an item to the pool. If every slot of every shard is
    /// occupied the item is dropped (counted in [`Self::retired`]).
    pub(crate) fn checkin(&self, item: Box<T>) {
        let p = Box::into_raw(item);
        let home = self.shard_hint() & self.mask;
        for probe in 0..self.shards.len() {
            let shard = &self.shards[(home + probe) & self.mask];
            for slot in &shard.slots {
                // Acquire on the hint load and on both CAS outcomes, for
                // the same reason as `checkout`: whatever pointer (or
                // null) this thread observes was stored by another
                // thread's Release operation, and every such read must
                // be a happens-before edge. AcqRel success: Acquire for
                // the null we consume, Release for the pointer we
                // publish.
                if slot.load(Ordering::Acquire).is_null()
                    && slot
                        .compare_exchange(
                            ptr::null_mut(),
                            p,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                {
                    return;
                }
            }
        }
        // AcqRel pairs with the Acquire read in `retired`, so the count
        // is exact after the churning threads are joined (the torture
        // tests' conservation law counts on it).
        self.retired.fetch_add(1, Ordering::AcqRel);
        // SAFETY: `p` was produced by `Box::into_raw` above and was never
        // published (every compare_exchange failed).
        drop(unsafe { Box::from_raw(p) });
    }

    /// Idle items currently pooled. A pointer scan: advisory while
    /// checkouts are in flight, exact once the pool is quiescent (thread
    /// join orders the slots' CAS publications before the scan). Acquire
    /// loads (free on x86) so a mid-churn scan still reads each slot
    /// through a happens-before edge.
    pub(crate) fn pooled(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|shard| shard.slots.iter())
            .filter(|slot| !slot.load(Ordering::Acquire).is_null())
            .count()
    }

    /// Items dropped on check-in because the pool was full. Acquire, to
    /// pair with the overflow path's AcqRel increment.
    pub(crate) fn retired(&self) -> u64 {
        self.retired.load(Ordering::Acquire)
    }
}

impl<T> Drop for ShardedPool<T> {
    fn drop(&mut self) {
        for shard in self.shards.iter() {
            for slot in &shard.slots {
                let p = slot.swap(ptr::null_mut(), Ordering::Acquire);
                if !p.is_null() {
                    // SAFETY: exclusive access (`&mut self`), pointer came
                    // from `Box::into_raw`.
                    drop(unsafe { Box::from_raw(p) });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Mutex};

    #[test]
    fn shard_counts_round_up_and_clamp() {
        assert_eq!(ShardedPool::<u32>::new(0).shards.len(), 1);
        assert_eq!(ShardedPool::<u32>::new(1).shards.len(), 1);
        assert_eq!(ShardedPool::<u32>::new(3).shards.len(), 4);
        assert_eq!(ShardedPool::<u32>::new(8).shards.len(), 8);
        assert_eq!(ShardedPool::<u32>::new(usize::MAX).shards.len(), MAX_SHARDS);
    }

    #[test]
    fn checkout_returns_checked_in_items() {
        let pool = ShardedPool::new(4);
        assert!(pool.checkout().is_none());
        pool.checkin(Box::new(7u32));
        pool.checkin(Box::new(8u32));
        assert_eq!(pool.pooled(), 2);
        let mut got = vec![*pool.checkout().expect("one"), *pool.checkout().expect("two")];
        got.sort_unstable();
        assert_eq!(got, vec![7, 8]);
        assert!(pool.checkout().is_none());
    }

    #[test]
    fn same_thread_gets_its_own_item_back() {
        // The single-thread fast path: the hint shard's first slot is
        // both the check-in and the checkout target, so the same box
        // cycles — this is what keeps single-thread `SeedPolicy::Fixed`
        // sequences on one worker stream, matching the pinned goldens.
        let pool = ShardedPool::new(8);
        let first = Box::new(41u32);
        let addr = &*first as *const u32 as usize;
        pool.checkin(first);
        pool.checkin(Box::new(42u32));
        let got = pool.checkout().expect("item");
        assert_eq!(&*got as *const u32 as usize, addr);
        assert_eq!(*got, 41);
    }

    #[test]
    fn overflow_retires_rather_than_grows() {
        let pool = ShardedPool::new(1); // 1 shard => SLOTS_PER_SHARD slots
        for i in 0..SLOTS_PER_SHARD as u32 {
            pool.checkin(Box::new(i));
        }
        assert_eq!(pool.pooled(), SLOTS_PER_SHARD);
        assert_eq!(pool.retired(), 0);
        pool.checkin(Box::new(99));
        assert_eq!(pool.pooled(), SLOTS_PER_SHARD, "full pool must not grow");
        assert_eq!(pool.retired(), 1, "surplus item must be retired");
    }

    /// An item whose drop decrements a shared live counter, so leaks
    /// show up as a nonzero count.
    struct Tracked {
        live: Arc<AtomicUsize>,
    }

    impl Tracked {
        fn new(live: &Arc<AtomicUsize>) -> Box<Self> {
            live.fetch_add(1, Ordering::Relaxed);
            Box::new(Self { live: Arc::clone(live) })
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn dropping_the_pool_frees_every_pooled_item() {
        let live = Arc::new(AtomicUsize::new(0));
        let pool = ShardedPool::new(4);
        for _ in 0..10 {
            pool.checkin(Tracked::new(&live));
        }
        let checked_out = pool.checkout().expect("non-empty");
        assert!(live.load(Ordering::Relaxed) >= 1);
        drop(pool);
        assert_eq!(
            live.load(Ordering::Relaxed),
            1,
            "pool drop must free every pooled item (one survives: it is checked out)"
        );
        drop(checked_out);
        assert_eq!(live.load(Ordering::Relaxed), 0);
    }

    /// The torture invariants, at pool level: many threads, few shards,
    /// heavy churn; no box is ever held by two threads at once, and at
    /// the end nothing has leaked (every item is pooled, retired, or was
    /// dropped by the drain below).
    #[test]
    fn torture_no_double_checkout_and_no_leaks() {
        const THREADS: usize = 16;
        const ROUNDS: usize = 400;

        let pool = ShardedPool::new(2); // threads >> shards
        let live = Arc::new(AtomicUsize::new(0));
        let created = AtomicUsize::new(0);
        let out = Mutex::new(HashSet::<usize>::new());

        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let (pool, live, created, out) = (&pool, &live, &created, &out);
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        let item = pool.checkout().unwrap_or_else(|| {
                            created.fetch_add(1, Ordering::Relaxed);
                            Tracked::new(live)
                        });
                        let addr = &*item as *const Tracked as usize;
                        assert!(
                            out.lock().expect("out set").insert(addr),
                            "item {addr:#x} checked out by two threads at once"
                        );
                        std::hint::spin_loop();
                        assert!(out.lock().expect("out set").remove(&addr));
                        pool.checkin(item);
                    }
                });
            }
        });

        assert!(out.lock().expect("out set").is_empty());
        let created = created.load(Ordering::Relaxed);
        let accounted = pool.pooled() + pool.retired() as usize;
        assert_eq!(
            created, accounted,
            "every created item must be pooled or retired once the churn stops"
        );
        assert_eq!(
            live.load(Ordering::Relaxed),
            pool.pooled(),
            "live items == pooled items (retired ones were dropped)"
        );
        drop(pool);
        assert_eq!(live.load(Ordering::Relaxed), 0, "pool drop leaked items");
    }

    #[test]
    fn shard_hints_are_scoped_per_pool() {
        let a = ShardedPool::<u32>::new(8);
        let b = ShardedPool::<u32>::new(8);
        // Three threads draw their hints from A first (joined in order,
        // so the assignment is deterministic).
        std::thread::scope(|scope| {
            for expected in 0..3 {
                let a = &a;
                scope
                    .spawn(move || assert_eq!(a.shard_hint(), expected))
                    .join()
                    .expect("join");
            }
            // A later thread whose first touch is B: under the old
            // process-global counter it would inherit the continuation
            // (hint 3); per-pool scoping gives it B's own hint 0.
            let (a, b) = (&a, &b);
            scope
                .spawn(move || {
                    assert_eq!(b.shard_hint(), 0, "B assigns from its own counter");
                    assert_eq!(a.shard_hint(), 3, "A continues its own round-robin");
                    // Hints are sticky per (thread, pool).
                    assert_eq!(b.shard_hint(), 0);
                    assert_eq!(a.shard_hint(), 3);
                })
                .join()
                .expect("join");
        });
    }

    #[test]
    fn two_pools_distribute_the_same_threads_independently() {
        // The regression this guards: with one global hint per thread,
        // the threads that happened to land on even hints in one service
        // all collided on shard 0 of every other 2-shard service too.
        // Per-pool assignment hands each pool its own dense 0..n hints
        // in that pool's first-touch order.
        let a = ShardedPool::<u32>::new(4);
        let b = ShardedPool::<u32>::new(4);
        let hints = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for i in 0..4 {
                let (a, b, hints) = (&a, &b, &hints);
                scope
                    .spawn(move || {
                        // Half the threads meet A first, half meet B first.
                        let (ha, hb) = if i % 2 == 0 {
                            let ha = a.shard_hint();
                            (ha, b.shard_hint())
                        } else {
                            let hb = b.shard_hint();
                            (a.shard_hint(), hb)
                        };
                        hints.lock().expect("hints").push((ha, hb));
                    })
                    .join()
                    .expect("join");
            }
        });
        let hints = hints.into_inner().expect("hints");
        let mut a_hints: Vec<usize> = hints.iter().map(|&(ha, _)| ha).collect();
        let mut b_hints: Vec<usize> = hints.iter().map(|&(_, hb)| hb).collect();
        a_hints.sort_unstable();
        b_hints.sort_unstable();
        // Each pool hands out a dense, collision-free 0..4 — maximal
        // spread over 4 shards in *both* pools simultaneously.
        assert_eq!(a_hints, vec![0, 1, 2, 3]);
        assert_eq!(b_hints, vec![0, 1, 2, 3]);
    }
}
