//! Test-and-set (TAS) substrate for the loose-renaming algorithms of
//! Alistarh, Aspnes, Giakkoupis and Woelfel (PODC 2013).
//!
//! The paper assumes *hardware* test-and-set: a one-shot shared object on
//! which a process **wins** if it is the first to flip the object's value,
//! and **loses** otherwise (§2 of the paper). This crate provides:
//!
//! * [`Tas`] — the test-and-set trait (one-shot for the paper's
//!   algorithms, resettable for long-lived release), and [`AtomicTas`],
//!   the hardware implementation backed by
//!   [`core::sync::atomic::AtomicBool`].
//! * [`TasArray`] — a dense array of TAS objects, one per name: the
//!   shared-memory layout used by every renaming algorithm in the
//!   companion crates.
//! * [`CountingTas`] — an instrumentation wrapper that counts TAS
//!   operations, used by the experiment harness to measure step complexity
//!   on real hardware.
//! * [`rwtas`] — a randomized test-and-set built from read/write registers
//!   only (a reproduction of the substitute the paper references in §2 and
//!   footnote 1: leader-election-grade TAS in the spirit of refs [6, 22]).
//!
//! # Example
//!
//! ```
//! use renaming_tas::{AtomicTas, Tas, TasResult};
//!
//! let t = AtomicTas::new();
//! assert_eq!(t.test_and_set(), TasResult::Won);
//! assert_eq!(t.test_and_set(), TasResult::Lost);
//! assert!(t.is_set());
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod atomic;
mod counting;
mod tas_array;
mod ticket;

pub mod rwtas;

pub use atomic::AtomicTas;
pub use counting::CountingTas;
pub use tas_array::TasArray;
pub use ticket::TicketTas;

/// Outcome of a test-and-set operation.
///
/// A process *wins* a TAS object if it is the first to change the object's
/// value (the paper's convention: the winning operation returns 0, all later
/// operations return 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TasResult {
    /// The caller changed the value: it owns the object.
    Won,
    /// The object had already been won by another caller.
    Lost,
}

impl TasResult {
    /// Returns `true` if the caller won the object.
    ///
    /// ```
    /// use renaming_tas::TasResult;
    /// assert!(TasResult::Won.won());
    /// assert!(!TasResult::Lost.won());
    /// ```
    #[inline]
    pub fn won(self) -> bool {
        matches!(self, TasResult::Won)
    }

    /// Returns `true` if the caller lost the object.
    #[inline]
    pub fn lost(self) -> bool {
        !self.won()
    }

    /// Converts a "did I win?" boolean into a `TasResult`.
    #[inline]
    pub fn from_won(won: bool) -> Self {
        if won {
            TasResult::Won
        } else {
            TasResult::Lost
        }
    }
}

/// A test-and-set object: one-shot for the paper's algorithms,
/// long-lived through [`reset`](Self::reset).
///
/// Exactly one caller per set-reset epoch observes [`TasResult::Won`];
/// every other call returns [`TasResult::Lost`]. Implementations must be
/// linearizable for the purposes of this crate's algorithms, *except* the
/// register-based objects in [`rwtas`], which provide the weaker
/// leader-election guarantee the paper's footnote 1 requires (at most one
/// winner, and a winner exists in every complete fault-free execution).
pub trait Tas: Send + Sync {
    /// Performs the test-and-set operation.
    fn test_and_set(&self) -> TasResult;

    /// Reads the current value without modifying it.
    ///
    /// Returns `true` once some caller has won the object.
    fn is_set(&self) -> bool;

    /// Resets the object to the unset (not yet won) state.
    ///
    /// The paper's algorithms never call it; long-lived release does
    /// (the extension the paper's §7 conclusion points at): releasing a
    /// name resets its TAS slot, so a later acquire can win it again.
    ///
    /// The caller must own the object's win (hold the corresponding
    /// name); concurrent `test_and_set` calls remain safe — they either
    /// observe the set state before the reset or race for the reopened
    /// object after it, and in both cases at most one caller per
    /// set-reset epoch wins.
    fn reset(&self);
}

/// A test-and-set object that needs to know the caller's identity, and
/// whose lifetime is divided into reset epochs.
///
/// The register-based [`rwtas::TournamentTas`] routes each contender through
/// a per-process leaf, so the caller must supply a process id in
/// `0..capacity`; every register in its tree carries an epoch stamp, so
/// advancing the epoch resets the whole object in O(1) without touching
/// a node. [`TicketTas`] adapts an `IdTas` into an anonymous [`Tas`].
pub trait IdTas: Send + Sync {
    /// Reads the current value without modifying it.
    fn is_set(&self) -> bool;

    /// Performs the test-and-set on behalf of `pid` as a contender of
    /// `epoch`.
    ///
    /// Adapters that hand out per-epoch identities ([`TicketTas`]) call
    /// this so the identity and the epoch it was drawn in travel
    /// together — re-reading the object's epoch inside the call would
    /// race with a concurrent reset. An object that is never reset lives
    /// entirely in epoch 0.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `pid` is out of range or reused
    /// concurrently by two threads.
    fn test_and_set_as_in_epoch(&self, pid: usize, epoch: u64) -> TasResult;

    /// The current epoch (0 for a fresh object).
    fn epoch(&self) -> u64;

    /// Advances to the next epoch, atomically resetting the object: all
    /// state written in earlier epochs reads as unset afterwards, and
    /// contenders still in flight under a dead epoch lose.
    ///
    /// The caller must own the current epoch's win (the quiescence rule
    /// of [`Tas::reset`]); process ids are reusable in the new epoch.
    fn advance_epoch(&self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tas_result_roundtrip() {
        assert_eq!(TasResult::from_won(true), TasResult::Won);
        assert_eq!(TasResult::from_won(false), TasResult::Lost);
        assert!(TasResult::Won.won());
        assert!(TasResult::Lost.lost());
        assert!(!TasResult::Won.lost());
        assert!(!TasResult::Lost.won());
    }

    #[test]
    fn resettable_tas_reopens_through_wrappers() {
        let t = CountingTas::new(AtomicTas::new());
        assert!(t.test_and_set().won());
        t.reset();
        assert!(!t.is_set());
        assert!(t.test_and_set().won());
        assert_eq!(t.tas_ops(), 2);
    }

    #[test]
    fn traits_are_object_safe() {
        let t: Box<dyn Tas> = Box::new(AtomicTas::new());
        assert!(t.test_and_set().won());
        let i: Box<dyn IdTas> = Box::new(rwtas::TournamentTas::new(2));
        assert!(i.test_and_set_as_in_epoch(0, 0).won());
    }
}
