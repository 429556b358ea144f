//! Least-squares fitting of measurements against transformed axes.

use std::fmt;

/// An ordinary least-squares fit `y ≈ intercept + slope · x` with its
/// coefficient of determination `R²`.
///
/// The experiments use this to decide which growth model explains a
/// measurement: e.g. Theorem 4.1 predicts max steps fit
/// `a + b·log2 log2 n` with `b ≈ 1` and far better `R²` than a
/// `a + b·log2 n` fit.
///
/// # Example
///
/// ```
/// use renaming_analysis::LinearFit;
///
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// let ys = [3.0, 5.0, 7.0, 9.0]; // y = 1 + 2x
/// let fit = LinearFit::fit(&xs, &ys);
/// assert!((fit.slope() - 2.0).abs() < 1e-12);
/// assert!((fit.intercept() - 1.0).abs() < 1e-12);
/// assert!((fit.r_squared() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    slope: f64,
    intercept: f64,
    r_squared: f64,
}

impl LinearFit {
    /// Fits `ys ≈ intercept + slope · xs` by ordinary least squares.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths, fewer than 2 points, or
    /// contain non-finite values.
    pub fn fit(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "mismatched sample lengths");
        assert!(xs.len() >= 2, "a line needs at least two points");
        assert!(
            xs.iter().chain(ys).all(|v| v.is_finite()),
            "fit requires finite values"
        );
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
        // A vertical cloud (all x equal) has no meaningful slope; report a
        // flat line through the mean.
        let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
        let intercept = my - slope * mx;
        let r_squared = if syy == 0.0 {
            1.0 // constant y is perfectly explained by the flat line
        } else {
            let ss_res: f64 = xs
                .iter()
                .zip(ys)
                .map(|(x, y)| {
                    let pred = intercept + slope * x;
                    (y - pred) * (y - pred)
                })
                .sum();
            1.0 - ss_res / syy
        };
        Self {
            slope,
            intercept,
            r_squared,
        }
    }

    /// The fitted slope `b`.
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// The fitted intercept `a`.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Coefficient of determination in `(-inf, 1]`; 1 is a perfect fit.
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// The fitted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

impl fmt::Display for LinearFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "y = {:.3} + {:.3}·x (R² = {:.4})",
            self.intercept, self.slope, self.r_squared
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 4.0 - 0.5 * x).collect();
        let fit = LinearFit::fit(&xs, &ys);
        assert!((fit.slope() + 0.5).abs() < 1e-12);
        assert!((fit.intercept() - 4.0).abs() < 1e-12);
        assert!((fit.r_squared() - 1.0).abs() < 1e-12);
        assert!((fit.predict(20.0) + 6.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_has_reasonable_r2() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        // y = 2x + deterministic "noise" in [-1, 1].
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x + if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let fit = LinearFit::fit(&xs, &ys);
        assert!((fit.slope() - 2.0).abs() < 0.05);
        assert!(fit.r_squared() > 0.99);
    }

    #[test]
    fn log_vs_loglog_model_selection() {
        // Synthetic measurement that truly grows like log2 log2 n: the
        // loglog fit must beat the log fit — the exact test the harness
        // applies to Theorem 4.1 data.
        let ns: Vec<f64> = (3..20).map(|e| f64::powi(2.0, e)).collect();
        let ys: Vec<f64> = ns.iter().map(|n| 5.0 + n.log2().log2()).collect();
        let loglog_axis: Vec<f64> = ns.iter().map(|n| n.log2().log2()).collect();
        let log_axis: Vec<f64> = ns.iter().map(|n| n.log2()).collect();
        let good = LinearFit::fit(&loglog_axis, &ys);
        let bad = LinearFit::fit(&log_axis, &ys);
        assert!(good.r_squared() > bad.r_squared());
        assert!((good.slope() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_y_is_flat() {
        let fit = LinearFit::fit(&[1.0, 2.0, 3.0], &[7.0, 7.0, 7.0]);
        assert_eq!(fit.slope(), 0.0);
        assert_eq!(fit.intercept(), 7.0);
        assert_eq!(fit.r_squared(), 1.0);
    }

    #[test]
    fn vertical_cloud_reports_flat_line() {
        let fit = LinearFit::fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]);
        assert_eq!(fit.slope(), 0.0);
        assert_eq!(fit.intercept(), 2.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        LinearFit::fit(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn single_point_panics() {
        LinearFit::fit(&[1.0], &[1.0]);
    }

    #[test]
    fn display_format() {
        let fit = LinearFit::fit(&[0.0, 1.0], &[1.0, 3.0]);
        let s = fit.to_string();
        assert!(s.contains("R²"));
        assert!(s.contains("2.000"));
    }
}
