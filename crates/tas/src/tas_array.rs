//! Cache-padded arrays of test-and-set objects.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;

use crate::{ResettableTas, Tas, TasResult};

/// A fixed-size array of TAS objects, one per candidate name.
///
/// This is the shared-memory layout every renaming algorithm in the
/// workspace operates on: the paper associates one TAS object with each
/// name, and a process acquires the name by winning the object (§1, §4).
///
/// Slots are cache-padded so that independent probes by different threads do
/// not false-share cache lines — important for the wall-clock benchmarks,
/// irrelevant for correctness.
///
/// # Example
///
/// ```
/// use renaming_tas::{AtomicTas, TasArray};
///
/// let slots: TasArray<AtomicTas> = TasArray::new(8);
/// assert_eq!(slots.len(), 8);
/// assert!(slots.test_and_set(3).won());
/// assert!(slots.test_and_set(3).lost());
/// assert_eq!(slots.set_count(), 1);
/// ```
pub struct TasArray<T> {
    slots: Box<[CachePadded<T>]>,
    /// Relaxed count of won slots, bumped on every winning TAS so
    /// [`set_count`](Self::set_count) is O(1) instead of a linear scan
    /// (experiments read it once per trial; long-lived workloads per
    /// release). Relaxed suffices: the counter is statistics, not a
    /// synchronization edge.
    wins: CachePadded<AtomicUsize>,
}

impl<T: Tas + Default> TasArray<T> {
    /// Creates an array of `len` unset TAS objects.
    pub fn new(len: usize) -> Self {
        let slots: Vec<CachePadded<T>> =
            (0..len).map(|_| CachePadded::new(T::default())).collect();
        Self {
            slots: slots.into_boxed_slice(),
            wins: CachePadded::new(AtomicUsize::new(0)),
        }
    }
}

impl<T: Tas> TasArray<T> {
    /// Creates an array from pre-built TAS objects (which may already be
    /// set; the win counter accounts for them).
    pub fn from_slots(slots: Vec<T>) -> Self {
        let preset = slots.iter().filter(|s| s.is_set()).count();
        Self {
            slots: slots.into_iter().map(CachePadded::new).collect(),
            wins: CachePadded::new(AtomicUsize::new(preset)),
        }
    }

    /// Number of slots in the array.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if the array has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Performs a test-and-set on slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn test_and_set(&self, index: usize) -> TasResult {
        let result = self.slots[index].test_and_set();
        if result.won() {
            self.wins.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Reads slot `index` without modifying it.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn is_set(&self, index: usize) -> bool {
        self.slots[index].is_set()
    }

    /// Borrows the underlying TAS object at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn slot(&self, index: usize) -> &T {
        &self.slots[index]
    }

    /// Number of slots won so far (O(1): a relaxed counter maintained by
    /// [`test_and_set`](Self::test_and_set) and
    /// [`reset_slot`](Self::reset_slot)).
    ///
    /// Wins through [`slot`](Self::slot)'s direct object access bypass the
    /// counter; use the array's own operations when the count matters.
    pub fn set_count(&self) -> usize {
        self.wins.load(Ordering::Relaxed)
    }
}

impl<T: ResettableTas> TasArray<T> {
    /// Resets one slot, keeping the win counter consistent. Returns `true`
    /// if the slot was set (and is now released), `false` if it was
    /// already unset.
    ///
    /// The caller must own the slot (e.g. hold its name): releasing a slot
    /// another thread is racing on breaks TAS semantics.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn reset_slot(&self, index: usize) -> bool {
        let slot = &self.slots[index];
        if slot.is_set() {
            slot.reset();
            self.wins.fetch_sub(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }
}

impl<T: Tas> fmt::Debug for TasArray<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TasArray")
            .field("len", &self.len())
            .field("set_count", &self.set_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AtomicTas;
    use std::sync::Arc;

    #[test]
    fn new_array_is_unset() {
        let a: TasArray<AtomicTas> = TasArray::new(16);
        assert_eq!(a.len(), 16);
        assert!(!a.is_empty());
        assert_eq!(a.set_count(), 0);
        assert!((0..16).all(|i| !a.is_set(i)));
    }

    #[test]
    fn empty_array() {
        let a: TasArray<AtomicTas> = TasArray::new(0);
        assert!(a.is_empty());
        assert_eq!(a.set_count(), 0);
    }

    #[test]
    fn wins_are_per_slot() {
        let a: TasArray<AtomicTas> = TasArray::new(4);
        assert!(a.test_and_set(0).won());
        assert!(a.test_and_set(1).won());
        assert!(a.test_and_set(0).lost());
        assert_eq!(a.set_count(), 2);
        assert!(a.is_set(0) && a.is_set(1) && !a.is_set(2));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let a: TasArray<AtomicTas> = TasArray::new(2);
        a.test_and_set(2);
    }

    #[test]
    fn concurrent_threads_claim_distinct_slots() {
        // 16 threads race over 16 slots with sequential scans; every thread
        // must end up with a unique slot (pigeonhole through TAS safety).
        let a: Arc<TasArray<AtomicTas>> = Arc::new(TasArray::new(16));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for i in 0..a.len() {
                        if a.test_and_set(i).won() {
                            return i;
                        }
                    }
                    panic!("no free slot found");
                })
            })
            .collect();
        let mut claimed: Vec<usize> = handles
            .into_iter()
            .map(|h| h.join().expect("thread panicked"))
            .collect();
        claimed.sort_unstable();
        claimed.dedup();
        assert_eq!(claimed.len(), 16);
    }
}
