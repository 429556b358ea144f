//! Simulated shared memory: an indexed array of one-shot TAS locations.

use crate::ProcessId;

/// One TAS location's state: winner (or unset) plus its access count,
/// co-located in a single 8-byte record so a probe touches one cache line
/// slot instead of three parallel arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Location {
    /// Winning pid, or [`UNSET`] while the location is free. `u32` keeps
    /// the record dense; simulations are capped at `u32::MAX - 1`
    /// processes (enforced in [`TasMemory::test_and_set`]), far beyond
    /// what fits in memory anyway.
    winner: u32,
    /// Number of TAS operations that hit the location.
    accesses: u32,
}

/// Sentinel winner value for free locations.
const UNSET: u32 = u32::MAX;

/// The shared array of test-and-set locations used by a simulated
/// execution.
///
/// Besides the win flags themselves, the memory records which process won
/// each location and how often each location was probed — the contention
/// statistics several experiments report.
///
/// # Example
///
/// ```
/// use renaming_sim::TasMemory;
///
/// let mut mem = TasMemory::new(4);
/// assert!(mem.test_and_set(2, 0));   // process 0 wins location 2
/// assert!(!mem.test_and_set(2, 1));  // process 1 loses it
/// assert_eq!(mem.winner(2), Some(0));
/// assert_eq!(mem.accesses(2), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TasMemory {
    locations: Vec<Location>,
    /// Number of won locations, maintained incrementally so
    /// [`set_count`](Self::set_count) is O(1) (the runner reads it once
    /// per report, experiments may poll it per trial).
    wins: usize,
}

impl TasMemory {
    /// Creates `size` unset locations.
    pub fn new(size: usize) -> Self {
        Self {
            locations: vec![
                Location {
                    winner: UNSET,
                    accesses: 0,
                };
                size
            ],
            wins: 0,
        }
    }

    /// Number of locations.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// Returns `true` if the memory has no locations.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Performs a TAS on `location` on behalf of `pid`; returns `true` if
    /// the process won.
    ///
    /// # Panics
    ///
    /// Panics if `location` is out of bounds or `pid >= u32::MAX`.
    #[inline]
    pub fn test_and_set(&mut self, location: usize, pid: ProcessId) -> bool {
        let loc = &mut self.locations[location];
        loc.accesses = loc.accesses.saturating_add(1);
        if loc.winner != UNSET {
            false
        } else {
            loc.winner = u32::try_from(pid).expect("process id exceeds u32 capacity");
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
        self.locations[location].winner != UNSET
    }

    /// The process that won `location`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `location` is out of bounds.
    pub fn winner(&self, location: usize) -> Option<ProcessId> {
        match self.locations[location].winner {
            UNSET => None,
            pid => Some(pid as ProcessId),
        }
    }

    /// How many TAS operations hit `location`.
    ///
    /// # Panics
    ///
    /// Panics if `location` is out of bounds.
    pub fn accesses(&self, location: usize) -> u32 {
        self.locations[location].accesses
    }

    /// Number of won locations (O(1): maintained incrementally).
    pub fn set_count(&self) -> usize {
        self.wins
    }

    /// The largest access count over all locations (peak contention).
    pub fn max_accesses(&self) -> u32 {
        self.locations.iter().map(|l| l.accesses).max().unwrap_or(0)
    }

    /// Resets all locations and statistics (for trial reuse).
    pub fn reset(&mut self) {
        self.locations.iter_mut().for_each(|l| {
            l.winner = UNSET;
            l.accesses = 0;
        });
        self.wins = 0;
    }

    /// Resets to `size` unset locations, reusing the allocation
    /// (runner-internal scratch reuse).
    pub(crate) fn reset_to(&mut self, size: usize) {
        self.locations.clear();
        self.locations.resize(
            size,
            Location {
                winner: UNSET,
                accesses: 0,
            },
        );
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
        assert_eq!(mem.max_accesses(), 0);
        assert_eq!(mem.winner(0), None);
    }

    #[test]
    fn empty_memory() {
        let mem = TasMemory::new(0);
        assert!(mem.is_empty());
        assert_eq!(mem.max_accesses(), 0);
    }

    #[test]
    fn first_tas_wins_then_loses() {
        let mut mem = TasMemory::new(2);
        assert!(mem.test_and_set(1, 5));
        assert!(!mem.test_and_set(1, 6));
        assert!(!mem.test_and_set(1, 5));
        assert!(mem.is_set(1));
        assert!(!mem.is_set(0));
        assert_eq!(mem.winner(1), Some(5));
        assert_eq!(mem.accesses(1), 3);
        assert_eq!(mem.accesses(0), 0);
        assert_eq!(mem.set_count(), 1);
        assert_eq!(mem.max_accesses(), 3);
    }

    #[test]
    fn reset_clears_everything() {
        let mut mem = TasMemory::new(2);
        mem.test_and_set(0, 1);
        mem.test_and_set(0, 2);
        mem.reset();
        assert_eq!(mem.set_count(), 0);
        assert_eq!(mem.max_accesses(), 0);
        assert_eq!(mem.winner(0), None);
        assert!(mem.test_and_set(0, 2));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_probe_panics() {
        let mut mem = TasMemory::new(1);
        mem.test_and_set(1, 0);
    }
}
