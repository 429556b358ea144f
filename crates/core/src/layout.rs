//! Batch geometry of a ReBatching object — Eq. 1 of the paper.

use std::sync::Arc;

use crate::{Epsilon, ProbeSchedule, RenamingError};

/// The shared-memory layout of one ReBatching object for `n` processes:
/// `κ + 1` disjoint batches of TAS locations,
///
/// ```text
/// κ   = ceil(log2 log2 n)        (clamped to >= 1)
/// b_0 = n
/// b_i = ceil(ε n / 2^i)          (1 <= i <= κ)
/// ```
///
/// laid out consecutively: batch `i` occupies locations
/// `offset(i) .. offset(i) + size(i)`. The full namespace has
/// `m >= ceil((1+ε) n)` locations; the backup phase (§4, lines 5–7) may
/// return any of them. For large `n` the batches fit inside `(1+ε)n`
/// exactly as the paper computes; for small `n` the layout allocates the
/// few extra locations the ceilings cost (`m` reports the truth).
///
/// # Example
///
/// ```
/// use renaming_core::{BatchLayout, Epsilon, ProbeSchedule};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schedule = ProbeSchedule::paper(Epsilon::one(), 3)?;
/// let layout = BatchLayout::new(1024, schedule)?;
/// assert_eq!(layout.batch_size(0), 1024);       // b_0 = n
/// assert_eq!(layout.kappa(), 4);                // ceil(log2 log2 1024) = ceil(log2 10)
/// assert!(layout.namespace_size() >= 2 * 1024); // (1+ε)n with ε = 1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchLayout {
    n: usize,
    schedule: ProbeSchedule,
    /// `b_i` for `i = 0..=κ`.
    sizes: Vec<usize>,
    /// Cumulative offsets: `offsets[i]` is the first location of batch `i`;
    /// `offsets[κ+1]` is the total batch area size.
    offsets: Vec<usize>,
    /// Namespace size `m >= max(ceil((1+ε) n), batch area)`.
    m: usize,
}

impl BatchLayout {
    /// Minimum supported `n`.
    pub const MIN_N: usize = 2;

    /// Computes the layout for `n` processes with the given probe schedule.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::TooFewProcesses`] if `n < 2`.
    pub fn new(n: usize, schedule: ProbeSchedule) -> Result<Self, RenamingError> {
        if n < Self::MIN_N {
            return Err(RenamingError::TooFewProcesses { n, min: Self::MIN_N });
        }
        let eps = schedule.epsilon().value();
        let kappa = kappa_for(n);
        let mut sizes = Vec::with_capacity(kappa + 1);
        sizes.push(n);
        for i in 1..=kappa {
            let b = (eps * n as f64 / f64::powi(2.0, i as i32)).ceil() as usize;
            sizes.push(b.max(1));
        }
        let mut offsets = Vec::with_capacity(kappa + 2);
        let mut acc = 0usize;
        for &b in &sizes {
            offsets.push(acc);
            acc += b;
        }
        offsets.push(acc);
        let m = acc.max(((1.0 + eps) * n as f64).ceil() as usize);
        Ok(Self {
            n,
            schedule,
            sizes,
            offsets,
            m,
        })
    }

    /// Convenience: wrap in an [`Arc`] for sharing across machines/threads.
    pub fn shared(n: usize, schedule: ProbeSchedule) -> Result<Arc<Self>, RenamingError> {
        Ok(Arc::new(Self::new(n, schedule)?))
    }

    /// The `n` the object was built for.
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// The probe schedule in force.
    pub fn schedule(&self) -> &ProbeSchedule {
        &self.schedule
    }

    /// The slack `ε`.
    pub fn epsilon(&self) -> Epsilon {
        self.schedule.epsilon()
    }

    /// The last batch index `κ = ceil(log2 log2 n)` (clamped to `>= 1`).
    pub fn kappa(&self) -> usize {
        self.sizes.len() - 1
    }

    /// Number of batches (`κ + 1`).
    pub fn batch_count(&self) -> usize {
        self.sizes.len()
    }

    /// `b_i`, the number of locations in batch `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > κ`.
    #[inline]
    pub fn batch_size(&self, i: usize) -> usize {
        self.sizes[i]
    }

    /// The first location of batch `i` (the paper's `s_i`).
    ///
    /// # Panics
    ///
    /// Panics if `i > κ`.
    #[inline]
    pub fn batch_offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Total locations covered by batches (excludes any backup-only slack).
    pub fn batch_area(&self) -> usize {
        *self.offsets.last().expect("offsets nonempty")
    }

    /// The namespace size `m`: locations `0..m` may be returned as names.
    pub fn namespace_size(&self) -> usize {
        self.m
    }

    /// `t_i`: probes a process spends on batch `i` (Eq. 2).
    ///
    /// # Panics
    ///
    /// Panics if `i > κ`.
    pub fn probes(&self, i: usize) -> usize {
        assert!(i < self.batch_count(), "batch {i} out of range");
        self.schedule.probes_for(i, self.kappa())
    }

    /// Total probes across all batches: the non-backup step bound
    /// `t_0 + (κ - 1) + β` of Theorem 4.1.
    pub fn max_probes(&self) -> usize {
        (0..self.batch_count()).map(|i| self.probes(i)).sum()
    }

    /// The location (name) of `slot` within batch `batch`: one add against
    /// the precomputed offset prefix sums.
    ///
    /// # Panics
    ///
    /// Panics if `batch > κ`; the slot bound is a `debug_assert` (callers
    /// on the probe path — [`crate::calls::BatchCall`] — sample slots from
    /// the batch size, so the bound holds by construction).
    #[inline]
    pub fn location(&self, batch: usize, slot: usize) -> usize {
        debug_assert!(
            slot < self.sizes[batch],
            "slot {slot} out of range for batch {batch} (size {})",
            self.sizes[batch]
        );
        self.offsets[batch] + slot
    }

    /// Maps a location back to `(batch, slot)`; `None` for locations in the
    /// backup-only slack area (`batch_area().. m`).
    pub fn locate(&self, location: usize) -> Option<(usize, usize)> {
        if location >= self.batch_area() {
            return None;
        }
        // offsets is sorted; find the batch containing `location`.
        let batch = match self.offsets.binary_search(&location) {
            Ok(i) if i < self.sizes.len() => i,
            Ok(i) => i - 1,
            Err(i) => i - 1,
        };
        Some((batch, location - self.offsets[batch]))
    }
}

/// `κ = ceil(log2 log2 n)`, clamped so every object has at least two
/// batches (the paper assumes `n` large; tiny `n` keeps the algorithm
/// shape).
fn kappa_for(n: usize) -> usize {
    let log2n = (n.max(2) as f64).log2();
    let kappa = log2n.log2().ceil() as isize;
    kappa.max(1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(n: usize, eps: f64) -> BatchLayout {
        let schedule = ProbeSchedule::paper(Epsilon::new(eps).unwrap(), 3).unwrap();
        BatchLayout::new(n, schedule).unwrap()
    }

    #[test]
    fn kappa_values() {
        // log2 log2: 16 -> 2, 256 -> 3, 65536 -> 4, 2^32 -> 5.
        assert_eq!(layout(16, 1.0).kappa(), 2);
        assert_eq!(layout(256, 1.0).kappa(), 3);
        assert_eq!(layout(65_536, 1.0).kappa(), 4);
        assert_eq!(layout(1 << 20, 1.0).kappa(), 5);
        // Clamp for tiny n.
        assert_eq!(layout(2, 1.0).kappa(), 1);
        assert_eq!(layout(4, 1.0).kappa(), 1);
    }

    #[test]
    fn eq1_batch_sizes() {
        let l = layout(1024, 1.0);
        assert_eq!(l.batch_size(0), 1024);
        for i in 1..=l.kappa() {
            let expected = ((1024.0 / f64::powi(2.0, i as i32)).ceil()) as usize;
            assert_eq!(l.batch_size(i), expected, "batch {i}");
        }
    }

    #[test]
    fn eq1_batch_sizes_fractional_epsilon() {
        let l = layout(1000, 0.5);
        assert_eq!(l.batch_size(0), 1000);
        assert_eq!(l.batch_size(1), 250); // ceil(0.5*1000/2)
        assert_eq!(l.batch_size(2), 125); // ceil(0.5*1000/4)
    }

    #[test]
    fn offsets_are_cumulative_and_disjoint() {
        let l = layout(512, 1.0);
        let mut expected = 0;
        for i in 0..l.batch_count() {
            assert_eq!(l.batch_offset(i), expected);
            expected += l.batch_size(i);
        }
        assert_eq!(l.batch_area(), expected);
        assert!(l.namespace_size() >= l.batch_area());
    }

    #[test]
    fn namespace_is_one_plus_epsilon_for_large_n() {
        for n in [4096usize, 65_536, 1 << 18] {
            let l = layout(n, 1.0);
            assert_eq!(
                l.namespace_size(),
                2 * n,
                "batches must fit in (1+ε)n for large n"
            );
        }
        let l = layout(1 << 16, 0.5);
        assert_eq!(l.namespace_size(), 3 * (1 << 16) / 2);
    }

    #[test]
    fn location_roundtrip() {
        let l = layout(300, 1.0);
        for batch in 0..l.batch_count() {
            for slot in [0, l.batch_size(batch) / 2, l.batch_size(batch) - 1] {
                let loc = l.location(batch, slot);
                assert_eq!(l.locate(loc), Some((batch, slot)), "batch {batch} slot {slot}");
            }
        }
        assert_eq!(l.locate(l.batch_area()), None);
    }

    #[test]
    fn probes_follow_eq2() {
        let l = layout(1 << 16, 1.0); // κ = 4
        assert_eq!(l.probes(0), 53);
        assert_eq!(l.probes(1), 1);
        assert_eq!(l.probes(2), 1);
        assert_eq!(l.probes(3), 1);
        assert_eq!(l.probes(4), 3);
        assert_eq!(l.max_probes(), 53 + 3 + 3);
    }

    #[test]
    fn min_n_enforced() {
        let schedule = ProbeSchedule::paper(Epsilon::one(), 3).unwrap();
        assert!(matches!(
            BatchLayout::new(1, schedule),
            Err(RenamingError::TooFewProcesses { .. })
        ));
        assert!(BatchLayout::new(2, schedule).is_ok());
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn bad_slot_panics() {
        let l = layout(16, 1.0);
        l.location(0, 16);
    }

    #[test]
    fn shared_returns_arc() {
        let schedule = ProbeSchedule::paper(Epsilon::one(), 3).unwrap();
        let l = BatchLayout::shared(64, schedule).unwrap();
        assert_eq!(l.capacity(), 64);
        assert_eq!(Arc::strong_count(&l), 1);
    }
}
