//! Simulated shared memory: an indexed array of one-shot TAS locations.

/// The shared array of test-and-set locations used by a simulated
/// execution: one won-or-free flag per location.
///
/// # Example
///
/// ```
/// use renaming_sim::TasMemory;
///
/// let mut mem = TasMemory::new(4);
/// assert!(mem.test_and_set(2));   // the first probe of location 2 wins
/// assert!(!mem.test_and_set(2));  // every later one loses
/// assert!(mem.is_set(2));
/// assert_eq!(mem.set_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TasMemory {
    set: Vec<bool>,
    /// Number of won locations, maintained incrementally so
    /// [`set_count`](Self::set_count) is O(1) (the runner reads it once
    /// per report, experiments may poll it per trial).
    wins: usize,
}

impl TasMemory {
    /// Creates `size` unset locations.
    pub fn new(size: usize) -> Self {
        Self {
            set: vec![false; size],
            wins: 0,
        }
    }

    /// Number of locations.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Returns `true` if the memory has no locations.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Performs a TAS on `location`; returns `true` if the probe won.
    ///
    /// # Panics
    ///
    /// Panics if `location` is out of bounds.
    #[inline]
    pub fn test_and_set(&mut self, location: usize) -> bool {
        let set = &mut self.set[location];
        if *set {
            false
        } else {
            *set = true;
            self.wins += 1;
            true
        }
    }

    /// Reads `location` without modifying it.
    ///
    /// # Panics
    ///
    /// Panics if `location` is out of bounds.
    #[inline]
    pub fn is_set(&self, location: usize) -> bool {
        self.set[location]
    }

    /// Number of won locations (O(1): maintained incrementally).
    pub fn set_count(&self) -> usize {
        self.wins
    }

    /// Resets to `size` unset locations, reusing the allocation
    /// (runner-internal scratch reuse).
    pub(crate) fn reset_to(&mut self, size: usize) {
        self.set.clear();
        self.set.resize(size, false);
        self.wins = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_memory_is_unset() {
        let mem = TasMemory::new(3);
        assert_eq!(mem.len(), 3);
        assert!(!mem.is_empty());
        assert_eq!(mem.set_count(), 0);
        assert!((0..3).all(|l| !mem.is_set(l)));
    }

    #[test]
    fn empty_memory() {
        let mem = TasMemory::new(0);
        assert!(mem.is_empty());
        assert_eq!(mem.set_count(), 0);
    }

    #[test]
    fn first_tas_wins_then_loses() {
        let mut mem = TasMemory::new(2);
        assert!(mem.test_and_set(1));
        assert!(!mem.test_and_set(1));
        assert!(!mem.test_and_set(1));
        assert!(mem.is_set(1));
        assert!(!mem.is_set(0));
        assert_eq!(mem.set_count(), 1);
    }

    #[test]
    fn reset_to_clears_everything() {
        let mut mem = TasMemory::new(2);
        mem.test_and_set(0);
        mem.test_and_set(0);
        mem.reset_to(3);
        assert_eq!(mem.len(), 3);
        assert_eq!(mem.set_count(), 0);
        assert!(!mem.is_set(0));
        assert!(mem.test_and_set(0));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_probe_panics() {
        let mut mem = TasMemory::new(1);
        mem.test_and_set(1);
    }
}
