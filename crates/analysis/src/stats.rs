//! Descriptive statistics over trial measurements.

use std::fmt;

/// Summary statistics of a sample: count, mean, standard deviation,
/// extremes and quantiles.
///
/// # Example
///
/// ```
/// use renaming_analysis::Summary;
///
/// let s = Summary::from_values([4.0, 8.0, 6.0]);
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.mean(), 6.0);
/// assert_eq!(s.min(), 4.0);
/// assert_eq!(s.max(), 8.0);
/// assert_eq!(s.quantile(0.5), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
    sd: f64,
}

impl Summary {
    /// Builds a summary from any collection of values.
    ///
    /// Non-finite values are rejected to keep downstream statistics
    /// meaningful.
    ///
    /// # Panics
    ///
    /// Panics if the collection is empty or contains NaN/infinite values.
    pub fn from_values<I>(values: I) -> Self
    where
        I: IntoIterator<Item = f64>,
    {
        let mut sorted: Vec<f64> = values.into_iter().collect();
        assert!(!sorted.is_empty(), "summary of an empty sample");
        assert!(
            sorted.iter().all(|v| v.is_finite()),
            "summary requires finite values"
        );
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        Self {
            sorted,
            mean,
            sd: var.sqrt(),
        }
    }

    /// Convenience: summarize integer measurements.
    ///
    /// # Panics
    ///
    /// Panics if the collection is empty.
    pub fn from_counts<I>(values: I) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        Self::from_values(values.into_iter().map(|v| v as f64))
    }

    /// Sample size.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// Smallest value.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest value.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("nonempty")
    }

    /// The `q`-quantile by linear interpolation between adjacent order
    /// statistics (see [`lerp_quantile`]), `q` in `[0, 1]`.
    ///
    /// The previous nearest-rank `.round()` rule biased medians and tail
    /// percentiles upward (the median of `[1.0, 2.0]` came out as `2.0`);
    /// interpolation makes `quantile(0.5)` the textbook median and keeps
    /// p90/p99 on small samples between the surrounding observations.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        lerp_quantile(&self.sorted, q)
    }

    /// Median (`quantile(0.5)`).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// The `q`-quantile of an ascending-sorted sample by linear
/// interpolation between adjacent order statistics (the R-7 / NumPy
/// `linear` definition). The single definition every quantile in the
/// workspace goes through, so the experiment statistics cannot drift
/// between crates.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn lerp_quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let pos = (sorted.len() - 1) as f64 * q;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} p50={:.3} max={:.3}",
            self.count(),
            self.mean(),
            self.sd(),
            self.min(),
            self.median(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let s = Summary::from_values([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.sd(), 2.0); // classic textbook sample
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn quantiles() {
        let s = Summary::from_counts(1..=100u64);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.median(), 50.5);
        assert!((s.quantile(0.99) - 99.01).abs() < 1e-9);
    }

    #[test]
    fn even_sized_median_interpolates() {
        // Regression: nearest-rank `.round()` reported 2.0 here.
        let s = Summary::from_values([1.0, 2.0]);
        assert_eq!(s.median(), 1.5);
        let s = Summary::from_values([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.median(), 2.5);
        // Odd-sized samples still return the middle element exactly.
        let s = Summary::from_values([1.0, 2.0, 3.0]);
        assert_eq!(s.median(), 2.0);
    }

    #[test]
    fn tail_quantiles_on_small_samples() {
        // 5 points: p90 sits 0.6 of the way from the 4th to the 5th order
        // statistic, p99 almost at the maximum — the old rule snapped both
        // straight to the max.
        let s = Summary::from_values([10.0, 20.0, 30.0, 40.0, 50.0]);
        assert!((s.quantile(0.9) - 46.0).abs() < 1e-9);
        assert!((s.quantile(0.99) - 49.6).abs() < 1e-9);
        assert!(s.quantile(0.99) < s.max());
        // 10 points 0..=9: p90 = 8.1, between the 9th and 10th.
        let s = Summary::from_counts(0..10u64);
        assert!((s.quantile(0.9) - 8.1).abs() < 1e-9);
    }

    #[test]
    fn quantile_endpoints_are_exact_extremes() {
        let s = Summary::from_values([3.0, 1.0, 4.0, 1.0, 5.0]);
        assert_eq!(s.quantile(0.0), s.min());
        assert_eq!(s.quantile(1.0), s.max());
        let single = Summary::from_values([7.0]);
        assert_eq!(single.quantile(0.0), 7.0);
        assert_eq!(single.quantile(1.0), 7.0);
        assert_eq!(single.quantile(0.5), 7.0);
    }

    #[test]
    fn single_value() {
        let s = Summary::from_values([42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.sd(), 0.0);
        assert_eq!(s.median(), 42.0);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let s = Summary::from_values([9.0, 1.0, 5.0]);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    #[should_panic]
    fn empty_sample_panics() {
        Summary::from_values(std::iter::empty());
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        Summary::from_values([1.0, f64::NAN]);
    }

    #[test]
    fn display_contains_all_fields() {
        let s = Summary::from_values([1.0, 2.0, 3.0]);
        let text = s.to_string();
        for needle in ["n=3", "mean=", "sd=", "min=", "p50=", "max="] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }
}
