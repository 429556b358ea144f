//! Error types for the renaming algorithms: one for building an object,
//! one for acquiring a name.

use std::error::Error;
use std::fmt;

/// Why an object could not be built: a parameter or slot array it was
/// given does not fit the algorithm.
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
    /// The caller-provided slot array does not fit the object: its
    /// length differs from the layout's namespace, or leaves a baseline
    /// too little room for its capacity.
    SlotArrayMismatch {
        /// The slot array's length.
        slots: usize,
    },
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
            RenamingError::SlotArrayMismatch { slots } => write!(
                f,
                "a slot array of {slots} slots does not fit the object's namespace and capacity"
            ),
        }
    }
}

impl Error for RenamingError {}

/// The one way an acquire fails: the machine gave up because it found
/// the namespace full — only possible when more names are held than the
/// object's capacity. The paper's `GetName` fails only this way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NamespaceExhausted {
    /// The namespace size of the object.
    pub namespace: usize,
}

impl fmt::Display for NamespaceExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "all {} names taken: more processes than the object's capacity",
            self.namespace
        )
    }
}

impl Error for NamespaceExhausted {}

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
        assert!(RenamingError::SlotArrayMismatch { slots: 5 }
            .to_string()
            .contains('5'));
        assert!(NamespaceExhausted { namespace: 8 }
            .to_string()
            .contains('8'));
    }

    #[test]
    fn implements_error() {
        fn assert_error<E: Error>(_: E) {}
        assert_error(RenamingError::InvalidBeta(0));
        assert_error(NamespaceExhausted { namespace: 8 });
    }
}
