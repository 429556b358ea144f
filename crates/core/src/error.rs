//! Error type for the renaming algorithms.

use std::error::Error;
use std::fmt;

/// Failures surfaced by the renaming algorithms' public API.
#[derive(Debug, Clone, PartialEq)]
pub enum RenamingError {
    /// The namespace slack parameter was not a positive finite number.
    InvalidEpsilon(f64),
    /// The backup probe count `beta` (Eq. 2's `t_kappa`) must be at least 1.
    InvalidBeta(usize),
    /// The algorithm needs at least this many processes to be meaningful.
    TooFewProcesses {
        /// The `n` the caller supplied.
        n: usize,
        /// The smallest supported value.
        min: usize,
    },
    /// A `get_name` call found every location taken: the object was used by
    /// more processes than the capacity it was constructed for.
    NamespaceExhausted {
        /// The namespace size of the object.
        namespace: usize,
    },
    /// The object's TAS substrate cannot recycle names. No built-in
    /// backend returns it: the service implements every object over
    /// resettable substrates only (`renaming_tas::ResettableTas`). It
    /// remains for custom one-shot `Namespace` implementations.
    ReleaseUnsupported {
        /// The backend that rejected the release.
        backend: &'static str,
    },
}

impl RenamingError {
    /// The variant's **stable numeric code**, the identity wire
    /// protocols and logs key on.
    ///
    /// The contract: codes are assigned once and never renumbered or
    /// reused; `0` is reserved for "no error" (wire-level `Ok`), and new
    /// variants take the next free code. `renaming-net` maps its
    /// response status bytes through this method, so the wire protocol
    /// cannot drift from the library enum — a test asserts the mapping
    /// is total (the `match` below has no wildcard arm, so adding a
    /// variant without a code is a compile error).
    ///
    /// # Example
    ///
    /// ```
    /// use renaming_core::RenamingError;
    ///
    /// let err = RenamingError::NamespaceExhausted { namespace: 8 };
    /// assert_eq!(err.code(), 4);
    /// ```
    pub const fn code(&self) -> u8 {
        // Stable by fiat: NEVER renumber these. 0 is reserved for Ok.
        match self {
            RenamingError::InvalidEpsilon(_) => 1,
            RenamingError::InvalidBeta(_) => 2,
            RenamingError::TooFewProcesses { .. } => 3,
            RenamingError::NamespaceExhausted { .. } => 4,
            RenamingError::ReleaseUnsupported { .. } => 5,
        }
    }
}

impl fmt::Display for RenamingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RenamingError::InvalidEpsilon(e) => {
                write!(f, "epsilon must be a positive finite number, got {e}")
            }
            RenamingError::InvalidBeta(b) => write!(f, "beta must be at least 1, got {b}"),
            RenamingError::TooFewProcesses { n, min } => {
                write!(f, "at least {min} processes are required, got {n}")
            }
            RenamingError::NamespaceExhausted { namespace } => write!(
                f,
                "all {namespace} names taken: more processes than the object's capacity"
            ),
            RenamingError::ReleaseUnsupported { backend } => write!(
                f,
                "the `{backend}` TAS backend is one-shot: it cannot recycle released names"
            ),
        }
    }
}

impl Error for RenamingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(RenamingError::InvalidEpsilon(-1.0)
            .to_string()
            .contains("-1"));
        assert!(RenamingError::InvalidBeta(0).to_string().contains('0'));
        assert!(RenamingError::TooFewProcesses { n: 1, min: 2 }
            .to_string()
            .contains('2'));
        assert!(RenamingError::NamespaceExhausted { namespace: 8 }
            .to_string()
            .contains('8'));
        assert!(RenamingError::ReleaseUnsupported { backend: "tournament" }
            .to_string()
            .contains("tournament"));
    }

    #[test]
    fn codes_are_total_stable_and_distinct() {
        // One constructed witness per variant. A new variant must be
        // added here AND given a code in `code()` (whose `match` has no
        // wildcard arm, so forgetting the code is a compile error; this
        // list makes forgetting the test a test failure: the count below
        // is the number of variants).
        let witnesses = [
            (RenamingError::InvalidEpsilon(-1.0), 1),
            (RenamingError::InvalidBeta(0), 2),
            (RenamingError::TooFewProcesses { n: 1, min: 2 }, 3),
            (RenamingError::NamespaceExhausted { namespace: 8 }, 4),
            (RenamingError::ReleaseUnsupported { backend: "x" }, 5),
        ];
        let mut seen = Vec::new();
        for (err, expected) in witnesses {
            assert_eq!(err.code(), expected, "{err}");
            assert_ne!(err.code(), 0, "0 is reserved for Ok");
            assert!(!seen.contains(&err.code()), "duplicate code for {err}");
            seen.push(err.code());
        }
        assert_eq!(seen.len(), 5, "one witness per RenamingError variant");
    }

    #[test]
    fn implements_error() {
        fn assert_error<E: Error>(_: E) {}
        assert_error(RenamingError::InvalidBeta(0));
    }
}
