//! Dense arrays of test-and-set objects.

use std::fmt;

use crate::{Tas, TasResult};

/// A fixed-size array of TAS objects, one per candidate name.
///
/// This is the shared-memory layout every renaming algorithm in the
/// workspace operates on: the paper associates one TAS object with each
/// name, and a process acquires the name by winning the object (§1, §4).
///
/// Slots are stored densely, `size_of::<T>()` bytes apart, with no other
/// state, so an acquire writes only the slots it probes. This type once
/// padded each slot to 128 bytes and kept a shared win counter; on
/// perfbench's `inproc_full` (90% occupancy, two threads, a 2-vCPU host)
/// that read 2.6M ops/s and 38 MB of peak RSS, against 4.0M and 10 MB dense.
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
    slots: Box<[T]>,
}

impl<T: Tas + Default> TasArray<T> {
    /// Creates an array of `len` unset TAS objects.
    pub fn new(len: usize) -> Self {
        Self {
            slots: (0..len).map(|_| T::default()).collect(),
        }
    }
}

impl<T: Tas> TasArray<T> {
    /// Creates an array from pre-built TAS objects, which may already be set.
    pub fn from_slots(slots: Vec<T>) -> Self {
        Self {
            slots: slots.into_boxed_slice(),
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
        self.slots[index].test_and_set()
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

    /// Number of slots currently set, however they were set: a scan of
    /// [`is_set`](Self::is_set) over every slot, O(len). Exact once no
    /// thread is setting or resetting slots; while they are, it may count
    /// a slot before or after a concurrent change.
    pub fn set_count(&self) -> usize {
        self.slots.iter().filter(|slot| slot.is_set()).count()
    }

    /// Resets one slot. Returns `true` if the slot was set (and is now
    /// released), `false` if it was already unset.
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
    use crate::{AtomicTas, CountingTas};
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
    fn slots_are_dense() {
        fn check<T: Tas + Default>() {
            let a: TasArray<T> = TasArray::new(4);
            let addr = |i| a.slot(i) as *const T as usize;
            for i in 0..a.len() - 1 {
                assert_eq!(
                    addr(i + 1) - addr(i),
                    size_of::<T>(),
                    "stride after slot {i}"
                );
            }
        }
        check::<AtomicTas>();
        check::<CountingTas<AtomicTas>>();
    }

    #[test]
    fn set_count_counts_every_set_slot() {
        let preset = AtomicTas::new();
        assert!(preset.test_and_set().won());
        let slots = vec![AtomicTas::new(), AtomicTas::new(), preset, AtomicTas::new()];
        let a = TasArray::from_slots(slots);
        assert_eq!(a.set_count(), 1, "preset before the array was built");
        assert!(a.test_and_set(0).won());
        assert_eq!(a.set_count(), 2, "won through the array");
        assert!(a.slot(1).test_and_set().won());
        assert_eq!(a.set_count(), 3, "won through the object directly");
        assert!(a.reset_slot(1) && a.reset_slot(2));
        assert!(!a.reset_slot(3), "an unset slot stays unset");
        assert_eq!(a.set_count(), 1);
        assert!(a.is_set(0));
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
