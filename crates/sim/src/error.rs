//! Error type for simulated executions.

use std::error::Error;
use std::fmt;

use crate::{Name, ProcessId};

/// Failures a simulated execution can surface.
///
/// A `DuplicateName` is a *safety violation* of the algorithm under test —
/// the simulator checks uniqueness so property tests can falsify broken
/// algorithms. The other variants are harness-level misconfigurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Two processes terminated with the same name.
    DuplicateName {
        /// The name both processes returned.
        name: Name,
        /// First process holding the name.
        first: ProcessId,
        /// Second process holding the name.
        second: ProcessId,
    },
    /// A machine proposed a probe outside the shared memory.
    ProbeOutOfBounds {
        /// The offending process.
        pid: ProcessId,
        /// The location it proposed.
        location: usize,
        /// The memory size.
        memory: usize,
    },
    /// The execution exceeded its step budget, which grows with the
    /// process count and the memory size — in this workspace's algorithms
    /// that indicates a livelock bug, because every algorithm has a
    /// deterministic termination guarantee.
    StepLimitExceeded {
        /// The budget.
        limit: u64,
    },
    /// The execution was configured with no processes.
    NoProcesses,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DuplicateName { name, first, second } => write!(
                f,
                "uniqueness violated: processes {first} and {second} both hold name {name}"
            ),
            SimError::ProbeOutOfBounds { pid, location, memory } => write!(
                f,
                "process {pid} probed location {location} but the memory has {memory} locations"
            ),
            SimError::StepLimitExceeded { limit } => {
                write!(f, "execution exceeded the step budget of {limit}")
            }
            SimError::NoProcesses => write!(f, "execution configured with no processes"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::DuplicateName {
            name: Name::new(4),
            first: 1,
            second: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains("uniqueness"));
        assert!(msg.contains('4'));

        assert!(SimError::NoProcesses.to_string().contains("no processes"));
        assert!(SimError::StepLimitExceeded { limit: 10 }
            .to_string()
            .contains("10"));
        assert!(SimError::ProbeOutOfBounds {
            pid: 0,
            location: 9,
            memory: 4
        }
        .to_string()
        .contains("9"));
    }

    #[test]
    fn implements_error_trait() {
        fn takes_error<E: Error>(_e: E) {}
        takes_error(SimError::NoProcesses);
    }
}
