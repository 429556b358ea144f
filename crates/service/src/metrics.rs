//! Opt-in latency metrics: fixed-bucket log₂ histograms over the
//! service's acquire/release paths, fed — like the concurrency oracle —
//! by one instrumentation seam that the one acquire path (reached by
//! sync callers, the async facade and the wire server) calls once per
//! outcome, so a sample means the same thing whoever made the request.
//!
//! The observability discipline is the monomorphic-tier one: **zero
//! cost when disabled**. A service built without
//! [`NameServiceBuilder::metrics`](crate::NameServiceBuilder::metrics)
//! carries `None` and its hot paths pay never-taken branches and no
//! clock reads; with metrics on, each operation adds two `Instant` reads
//! and one `Relaxed` `fetch_add` into a fixed-size bucket array — no
//! locks, no allocation, no contention beyond the bucket's cache line.
//!
//! The histogram is the live-metrics shape network servers export (the
//! `Stats` endpoint of `renaming-net` serializes
//! [`MetricsSnapshot`]): 64 buckets, bucket `i` counting samples whose
//! latency in nanoseconds has its highest set bit at position `i`
//! (i.e. lies in `[2^i, 2^(i+1))`; bucket 0 additionally holds 0 ns
//! samples). Quantiles interpolate linearly *within* the winning
//! bucket — the fixed-bucket analogue of the workspace's
//! `lerp_quantile` rule. Benchmarks that can afford to keep raw samples
//! (the load generator) still compute their committed quantiles through
//! `renaming_analysis::Summary`; the histogram is for always-on
//! production visibility where an unbounded sample vector is not.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use renaming_core::{Name, RenamingError};
use renaming_oracle::Oracle;

/// Number of log₂ buckets: `u64` nanosecond latencies have at most 64
/// significant-bit positions, so the histogram can never overflow into
/// an "other" bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket log₂ latency histogram with `Relaxed` atomic
/// increments — cheap enough to sit on a service hot path, bounded
/// memory regardless of sample count.
///
/// # Example
///
/// ```
/// use renaming_service::LatencyHistogram;
/// use std::time::Duration;
///
/// let hist = LatencyHistogram::new();
/// hist.record(Duration::from_nanos(900));
/// hist.record(Duration::from_nanos(1_100));
/// let snap = hist.snapshot();
/// assert_eq!(snap.count(), 2);
/// // Both samples fall between the recorded extremes' bucket bounds.
/// assert!(snap.quantile(0.5) >= 512.0 && snap.quantile(0.5) < 2048.0);
/// ```
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Total recorded nanoseconds (saturating), for mean latency.
    sum_nanos: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Records one latency sample. `Relaxed` increments: counts are
    /// exact once the service is quiescent, advisory while operations
    /// are in flight — the same contract as every service counter.
    pub fn record(&self, latency: Duration) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.record_nanos(nanos);
    }

    /// Records one latency sample given directly in nanoseconds.
    pub fn record_nanos(&self, nanos: u64) {
        // Bucket = highest set bit position; 0 ns lands in bucket 0
        // (`max(1)` — there is no "below 1 ns" bucket to distinguish).
        let bucket = 63 - nanos.max(1).leading_zeros() as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("LatencyHistogram")
            .field("count", &snap.count())
            .field("p50_nanos", &snap.quantile(0.5))
            .finish_non_exhaustive()
    }
}

/// An owned, immutable copy of a [`LatencyHistogram`]'s state:
/// quantile/mean accessors plus the raw buckets for serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; HISTOGRAM_BUCKETS],
    sum_nanos: u64,
}

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean latency in nanoseconds (0.0 when empty).
    pub fn mean_nanos(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / count as f64
        }
    }

    /// The `q`-quantile estimate in nanoseconds, `q` in `[0, 1]`
    /// (0.0 when the histogram is empty).
    ///
    /// Finds the bucket holding the target rank, then interpolates
    /// linearly across that bucket's `[2^i, 2^(i+1))` span by the
    /// rank's position within the bucket — the fixed-bucket analogue of
    /// the interpolated order-statistic quantiles the analysis crate
    /// uses. The error is bounded by one bucket width (a factor of 2 in
    /// latency), the classic log-histogram trade.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        // Interpolated rank in [0, count-1], as in lerp_quantile.
        let rank = (count - 1) as f64 * q;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let end = seen + c;
            if rank < end as f64 {
                // Position of the rank within this bucket, in [0, 1).
                let within = (rank - seen as f64) / c as f64;
                let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
                let hi = (1u128 << (i + 1)) as f64;
                return lo + (hi - lo) * within;
            }
            seen = end;
        }
        // Unreachable when count > 0; keep a defined answer anyway.
        f64::MAX
    }

    /// The raw bucket counts: index `i` counts samples in
    /// `[2^i, 2^(i+1))` ns (index 0 also holds 0 ns samples).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Total recorded nanoseconds (saturating at `u64::MAX`).
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos
    }

    /// The non-empty buckets as `(bucket_floor_nanos, count)` pairs —
    /// the compact form the wire `Stats` endpoint serializes.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
            .collect()
    }
}

/// The service's metrics façade: one histogram per operation kind.
///
/// Held behind `Option<Arc<..>>` on [`NameService`](crate::NameService)
/// — `None` (the default) is the zero-cost disabled state.
#[derive(Debug)]
pub struct ServiceMetrics {
    /// Latency of an acquire on any path: from the call (or an async
    /// future's first poll) to its outcome.
    pub acquire: LatencyHistogram,
    /// Latency of a release (the backend's reset), explicit or by drop.
    pub release: LatencyHistogram,
}

impl ServiceMetrics {
    /// Fresh, empty metrics.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self {
            acquire: LatencyHistogram::new(),
            release: LatencyHistogram::new(),
        }
    }

    /// Snapshots both histograms at once.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            acquire: self.acquire.snapshot(),
            release: self.release.snapshot(),
        }
    }
}

/// A point-in-time copy of a service's [`ServiceMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Acquire-latency histogram snapshot.
    pub acquire: HistogramSnapshot,
    /// Release-latency histogram snapshot.
    pub release: HistogramSnapshot,
}

/// How a name came back, for the oracle's event log.
#[derive(Clone, Copy)]
pub(crate) enum ReleaseKind {
    Explicit,
    GuardDrop,
}

/// The instrumentation seam: the optional histograms and oracle, fed
/// only through these three calls. An acquire makes one `acquire_start`
/// and one `acquire_end`; a release makes one `release`. With
/// both consumers off, no call reads the clock.
#[derive(Default)]
pub(crate) struct Instruments {
    pub(crate) metrics: Option<Arc<ServiceMetrics>>,
    pub(crate) oracle: Option<Arc<Oracle>>,
}

impl Instruments {
    /// An acquire enters the service; returns the start time for
    /// `acquire_end` (`None` when metrics are off).
    pub(crate) fn acquire_start(&self) -> Option<Instant> {
        if let Some(oracle) = &self.oracle {
            oracle.acquire_start();
        }
        self.metrics.as_ref().map(|_| Instant::now())
    }

    /// The acquire begun at `started` has its outcome. Call on the
    /// requester's thread before a won name reaches the caller: the
    /// oracle attributes the hold to the recording thread.
    pub(crate) fn acquire_end(
        &self,
        started: Option<Instant>,
        result: &Result<Name, RenamingError>,
    ) {
        if let (Some(metrics), Some(started)) = (&self.metrics, started) {
            metrics.acquire.record(started.elapsed());
        }
        if let Some(oracle) = &self.oracle {
            match result {
                Ok(name) => oracle.acquire_win(name.value()),
                Err(_) => oracle.acquire_fail(),
            }
        }
    }

    /// Releases `name` through `backend_release`. The oracle records
    /// *before* the backend frees the slot: the published clock has to
    /// be visible to the name's next winner (see `renaming_oracle`).
    pub(crate) fn release(
        &self,
        name: Name,
        kind: ReleaseKind,
        backend_release: impl FnOnce() -> Result<(), RenamingError>,
    ) -> Result<(), RenamingError> {
        if let Some(oracle) = &self.oracle {
            match kind {
                ReleaseKind::Explicit => oracle.release(name.value()),
                ReleaseKind::GuardDrop => oracle.guard_drop(name.value()),
            }
        }
        let Some(metrics) = &self.metrics else {
            return backend_release();
        };
        let started = Instant::now();
        let result = backend_release();
        metrics.release.record(started.elapsed());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_and_zero_safe() {
        let hist = LatencyHistogram::new();
        hist.record_nanos(0); // bucket 0
        hist.record_nanos(1); // bucket 0
        hist.record_nanos(2); // bucket 1
        hist.record_nanos(3); // bucket 1
        hist.record_nanos(1024); // bucket 10
        hist.record_nanos(u64::MAX); // bucket 63 — no overflow
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 6);
        assert_eq!(snap.buckets()[0], 2);
        assert_eq!(snap.buckets()[1], 2);
        assert_eq!(snap.buckets()[10], 1);
        assert_eq!(snap.buckets()[63], 1);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let hist = LatencyHistogram::new();
        // 100 samples all in bucket 10: [1024, 2048).
        for _ in 0..100 {
            hist.record_nanos(1500);
        }
        let snap = hist.snapshot();
        let p0 = snap.quantile(0.0);
        let p50 = snap.quantile(0.5);
        let p100 = snap.quantile(1.0);
        assert!((1024.0..2048.0).contains(&p0), "{p0}");
        assert!((1024.0..2048.0).contains(&p50), "{p50}");
        assert!((1024.0..=2048.0).contains(&p100), "{p100}");
        assert!(p0 < p50 && p50 < p100, "monotone within the bucket");
    }

    #[test]
    fn quantiles_cross_buckets_by_rank() {
        let hist = LatencyHistogram::new();
        for _ in 0..90 {
            hist.record_nanos(100); // bucket 6: [64, 128)
        }
        for _ in 0..10 {
            hist.record_nanos(1_000_000); // bucket 19
        }
        let snap = hist.snapshot();
        assert!(snap.quantile(0.5) < 128.0, "median in the low bucket");
        assert!(snap.quantile(0.99) >= 524_288.0, "p99 in the tail bucket");
        assert_eq!(snap.nonzero_buckets().len(), 2);
        let mean = snap.mean_nanos();
        assert!(mean > 100.0 && mean < 1_000_000.0, "{mean}");
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let snap = LatencyHistogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.quantile(0.5), 0.0);
        assert_eq!(snap.mean_nanos(), 0.0);
        assert!(snap.nonzero_buckets().is_empty());
    }

    #[test]
    fn concurrent_records_conserve_counts() {
        let metrics = ServiceMetrics::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let metrics = &metrics;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        metrics.acquire.record_nanos(i);
                        metrics.release.record(Duration::from_nanos(i));
                    }
                });
            }
        });
        let snap = metrics.snapshot();
        assert_eq!(snap.acquire.count(), 4000);
        assert_eq!(snap.release.count(), 4000);
        assert_eq!(snap.acquire.buckets(), snap.release.buckets());
    }
}
