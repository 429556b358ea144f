//! Hardware test-and-set backed by [`AtomicBool`].

use std::sync::atomic::{AtomicBool, Ordering};

use crate::{Tas, TasResult};

/// The paper's "hardware TAS": a one-shot flag implemented with
/// [`AtomicBool::swap`].
///
/// The first caller to swap `false -> true` wins. This is the exact
/// primitive the paper assumes given in hardware (§2, "Test-and-Set vs.
/// Read-Write").
///
/// # Example
///
/// ```
/// use renaming_tas::{AtomicTas, Tas};
///
/// let t = AtomicTas::new();
/// assert!(t.test_and_set().won());
/// assert!(t.test_and_set().lost());
/// ```
#[derive(Debug, Default)]
pub struct AtomicTas {
    flag: AtomicBool,
}

impl AtomicTas {
    /// Creates an unset (not yet won) TAS object.
    pub fn new() -> Self {
        Self {
            flag: AtomicBool::new(false),
        }
    }

    /// Resets the object to the unset state.
    ///
    /// The renaming algorithms are one-shot; `reset` exists so arrays can be
    /// reused across experiment trials without reallocation. The caller must
    /// guarantee quiescence (no concurrent `test_and_set`).
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Release);
    }
}

impl Tas for AtomicTas {
    #[inline]
    fn test_and_set(&self) -> TasResult {
        // `swap` returns the previous value: `false` means we flipped it.
        TasResult::from_won(!self.flag.swap(true, Ordering::AcqRel))
    }

    #[inline]
    fn is_set(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn first_caller_wins() {
        let t = AtomicTas::new();
        assert!(!t.is_set());
        assert!(t.test_and_set().won());
        assert!(t.is_set());
        for _ in 0..10 {
            assert!(t.test_and_set().lost());
        }
    }

    #[test]
    fn reset_reopens_object() {
        let t = AtomicTas::new();
        assert!(t.test_and_set().won());
        t.reset();
        assert!(!t.is_set());
        assert!(t.test_and_set().won());
    }

    #[test]
    fn exactly_one_winner_under_contention() {
        // The fundamental safety property the renaming algorithms rely on.
        for _ in 0..50 {
            let t = Arc::new(AtomicTas::new());
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    let t = Arc::clone(&t);
                    std::thread::spawn(move || t.test_and_set().won())
                })
                .collect();
            let winners = threads
                .into_iter()
                .map(|h| h.join().expect("thread panicked"))
                .filter(|won| *won)
                .count();
            assert_eq!(winners, 1);
        }
    }
}
