//! Instrumentation wrapper counting test-and-set operations.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{ResettableTas, Tas, TasResult};

/// A [`Tas`] wrapper that counts `test_and_set` calls.
///
/// The paper's complexity measures are *step complexity* (maximum number of
/// shared-memory steps by any process) and *total step complexity* (work),
/// and the renaming algorithms' steps are TAS probes. On real hardware we
/// cannot intercept process scheduling, but we can count those probes;
/// `CountingTas` is how the benchmark harness measures steps of the
/// threaded implementations. Reads ([`Tas::is_set`]) are not counted.
///
/// # Example
///
/// ```
/// use renaming_tas::{AtomicTas, CountingTas, Tas};
///
/// let t = CountingTas::new(AtomicTas::new());
/// t.test_and_set();
/// t.test_and_set();
/// t.is_set();
/// assert_eq!(t.tas_ops(), 2);
/// ```
#[derive(Debug, Default)]
pub struct CountingTas<T> {
    inner: T,
    tas_ops: AtomicU64,
}

impl<T: Tas> CountingTas<T> {
    /// Wraps `inner`, starting the counter at zero.
    pub fn new(inner: T) -> Self {
        Self {
            inner,
            tas_ops: AtomicU64::new(0),
        }
    }

    /// Number of `test_and_set` calls so far.
    pub fn tas_ops(&self) -> u64 {
        self.tas_ops.load(Ordering::Relaxed)
    }
}

impl<T: Tas> Tas for CountingTas<T> {
    fn test_and_set(&self) -> TasResult {
        self.tas_ops.fetch_add(1, Ordering::Relaxed);
        self.inner.test_and_set()
    }

    fn is_set(&self) -> bool {
        self.inner.is_set()
    }
}

impl<T: ResettableTas> ResettableTas for CountingTas<T> {
    fn reset(&self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AtomicTas;

    #[test]
    fn counts_operations() {
        let t = CountingTas::new(AtomicTas::new());
        assert_eq!(t.tas_ops(), 0);
        assert!(t.test_and_set().won());
        assert!(t.test_and_set().lost());
        assert!(t.is_set());
        assert_eq!(t.tas_ops(), 2, "reads are not counted");
    }
}
