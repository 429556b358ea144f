//! Latency histograms and the order statistics the report is built from.

/// Sub-buckets per power of two: values keep 7 significant bits, so a
/// bucket is at most 1/128 (0.8%) wide.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Covers values up to 2^41 ns (about 36 minutes).
const BUCKETS: usize = SUB * (41 - SUB_BITS as usize + 1);

/// A log-linear histogram of nanosecond latencies. Recording is one
/// increment; quantiles interpolate linearly inside the bucket that
/// holds the rank.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("total", &self.total)
            .finish()
    }
}

fn bucket_of(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let shift = exp - SUB_BITS;
    let sub = ((value >> shift) as usize) & (SUB - 1);
    ((shift as usize + 1) * SUB + sub).min(BUCKETS - 1)
}

/// The `[low, high)` value range of bucket `index`.
fn bucket_range(index: usize) -> (f64, f64) {
    if index < SUB {
        return (index as f64, index as f64 + 1.0);
    }
    let shift = (index / SUB - 1) as u32;
    let low = ((SUB + index % SUB) as u64) << shift;
    (low as f64, (low + (1u64 << shift)) as f64)
}

impl Histogram {
    /// Records one value in nanoseconds.
    pub fn record(&mut self, nanos: u64) {
        self.record_n(nanos, 1);
    }

    /// Records `count` occurrences of one value in nanoseconds.
    pub fn record_n(&mut self, nanos: u64, count: u64) {
        self.counts[bucket_of(nanos)] += count;
        self.total += count;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every count of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `q`-quantile in nanoseconds, or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (below + count) as f64 > rank {
                let (low, high) = bucket_range(index);
                let within = (rank - below as f64 + 0.5) / count as f64;
                return Some(low + (high - low) * within.clamp(0.0, 1.0));
            }
            below += count;
        }
        None
    }
}

/// The `q`-quantile of the finite `values`, interpolating linearly
/// between order statistics.
pub fn quantile_f64(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let frac = rank - low as f64;
    let high = sorted[rank.ceil() as usize];
    Some(sorted[low] * (1.0 - frac) + high * frac)
}

/// The median of the finite `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile_f64(values, 0.5)
}

/// The `q`-quantile of raw nanosecond samples.
pub fn quantile(values: &[u64], q: f64) -> Option<f64> {
    let values: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    quantile_f64(&values, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_tight() {
        for value in [0u64, 1, 127, 128, 129, 255, 256, 1000, 15_000, 1 << 30] {
            let (low, high) = bucket_range(bucket_of(value));
            assert!(low <= value as f64 && (value as f64) < high, "{value}");
            assert!(high - low <= (value as f64 / 100.0).max(1.0), "{value}");
        }
    }

    #[test]
    fn quantiles_track_the_samples() {
        let mut hist = Histogram::default();
        for v in 1..=10_000u64 {
            hist.record(v * 10);
        }
        let p50 = hist.quantile(0.5).expect("non-empty");
        assert!((p50 / 50_000.0 - 1.0).abs() < 0.01, "{p50}");
        let p99 = hist.quantile(0.99).expect("non-empty");
        assert!((p99 / 99_000.0 - 1.0).abs() < 0.01, "{p99}");
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(quantile(&[1, 2, 3, 4], 0.5), Some(2.5));
    }
}
