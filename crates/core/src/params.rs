//! Algorithm parameters: the namespace slack `ε`, the last-batch probe
//! count `β`, and the probe schedule of Eq. 2.

use std::fmt;

use crate::RenamingError;

/// The namespace slack: ReBatching renames into `(1 + ε)n` names.
///
/// The paper allows any fixed constant `ε > 0` (§4). Validated at
/// construction so the layout code never sees a bad value.
///
/// # Example
///
/// ```
/// use renaming_core::Epsilon;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let eps = Epsilon::new(0.5)?;
/// assert_eq!(eps.value(), 0.5);
/// assert!(Epsilon::new(0.0).is_err());
/// assert!(Epsilon::new(f64::NAN).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Validates and wraps a slack value.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::InvalidEpsilon`] unless `0 < value` and
    /// `value` is finite.
    pub fn new(value: f64) -> Result<Self, RenamingError> {
        if value.is_finite() && value > 0.0 {
            Ok(Epsilon(value))
        } else {
            Err(RenamingError::InvalidEpsilon(value))
        }
    }

    /// The paper's running choice for the fast adaptive algorithm (§5.2
    /// requires `ε = 1`).
    pub fn one() -> Self {
        Epsilon(1.0)
    }

    /// The wrapped value.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Epsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// How a process spreads its probes over the batches — Eq. 2 of the paper,
/// with an optional "tuned" override of `t_0` for the A2 ablation.
///
/// The paper's schedule for batch `i` of a ReBatching object:
///
/// ```text
/// t_0 = ceil(17 * ln(8e/ε) / ε)      (batch 0)
/// t_i = 1                            (1 <= i <= κ-1)
/// t_κ = β                            (last batch)
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSchedule {
    epsilon: Epsilon,
    beta: usize,
    t0: usize,
}

impl ProbeSchedule {
    /// The paper's schedule (Eq. 2) for slack `epsilon` and last-batch
    /// probe count `beta`.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::InvalidBeta`] if `beta == 0`.
    pub fn paper(epsilon: Epsilon, beta: usize) -> Result<Self, RenamingError> {
        if beta == 0 {
            return Err(RenamingError::InvalidBeta(beta));
        }
        Ok(Self {
            epsilon,
            beta,
            t0: t0_paper(epsilon),
        })
    }

    /// A practical profile with an explicit `t_0` (ablation A2: the paper's
    /// constant `17·ln(8e/ε)/ε` is tuned for the high-probability proof,
    /// not for throughput).
    ///
    /// # Errors
    ///
    /// Returns [`RenamingError::InvalidBeta`] if `beta == 0` or `t0 == 0`
    /// (reported as an invalid probe count).
    pub fn tuned(epsilon: Epsilon, beta: usize, t0: usize) -> Result<Self, RenamingError> {
        if beta == 0 {
            return Err(RenamingError::InvalidBeta(beta));
        }
        if t0 == 0 {
            return Err(RenamingError::InvalidBeta(t0));
        }
        Ok(Self { epsilon, beta, t0 })
    }

    /// The slack `ε`.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The last-batch probe count `β` (`t_κ`).
    pub fn beta(&self) -> usize {
        self.beta
    }

    /// The batch-0 probe count `t_0`.
    pub fn t0(&self) -> usize {
        self.t0
    }

    /// Eq. 2: the probe count for batch `i` of an object whose last batch
    /// index is `kappa`.
    pub fn probes_for(&self, i: usize, kappa: usize) -> usize {
        if i == 0 && kappa == 0 {
            // Degenerate single-batch object: give it the larger budget.
            self.t0.max(self.beta)
        } else if i == 0 {
            self.t0
        } else if i == kappa {
            self.beta
        } else {
            1
        }
    }
}

/// `t_0 = ceil(17 * ln(8e/ε) / ε)` — Eq. 2.
fn t0_paper(epsilon: Epsilon) -> usize {
    let e = epsilon.value();
    (17.0 * (8.0 * std::f64::consts::E / e).ln() / e).ceil() as usize
}

/// Default `β`: the paper's Theorem 4.1 analysis wants `β >= 3` for the
/// expected total-step bound, so the library defaults to 3.
pub const DEFAULT_BETA: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_validation() {
        assert!(Epsilon::new(0.1).is_ok());
        assert!(Epsilon::new(4.0).is_ok());
        assert_eq!(
            Epsilon::new(0.0),
            Err(RenamingError::InvalidEpsilon(0.0))
        );
        assert!(Epsilon::new(-2.0).is_err());
        assert!(Epsilon::new(f64::INFINITY).is_err());
        assert!(Epsilon::new(f64::NAN).is_err());
        assert_eq!(Epsilon::one().value(), 1.0);
        assert_eq!(Epsilon::one().to_string(), "1");
    }

    #[test]
    fn paper_t0_matches_formula() {
        // ε = 1: 17·ln(8e) = 17·(ln 8 + 1) ≈ 52.35 → 53.
        let s = ProbeSchedule::paper(Epsilon::one(), 3).expect("schedule");
        assert_eq!(s.t0(), 53);
        // ε = 2: 17·ln(4e)/2 = 17·(ln 4 + 1)/2 ≈ 20.28 → 21.
        let s2 = ProbeSchedule::paper(Epsilon::new(2.0).unwrap(), 3).unwrap();
        assert_eq!(s2.t0(), 21);
        // Smaller ε means more batch-0 probes.
        let s01 = ProbeSchedule::paper(Epsilon::new(0.1).unwrap(), 3).unwrap();
        assert!(s01.t0() > s.t0());
    }

    #[test]
    fn eq2_schedule_shape() {
        let s = ProbeSchedule::paper(Epsilon::one(), 4).expect("schedule");
        let kappa = 5;
        assert_eq!(s.probes_for(0, kappa), 53);
        for i in 1..kappa {
            assert_eq!(s.probes_for(i, kappa), 1, "middle batch {i}");
        }
        assert_eq!(s.probes_for(kappa, kappa), 4);
    }

    #[test]
    fn degenerate_single_batch_uses_max_budget() {
        let s = ProbeSchedule::tuned(Epsilon::one(), 7, 3).expect("schedule");
        assert_eq!(s.probes_for(0, 0), 7);
    }

    #[test]
    fn tuned_profile_overrides_t0() {
        let s = ProbeSchedule::tuned(Epsilon::one(), 3, 4).expect("schedule");
        assert_eq!(s.t0(), 4);
        assert_eq!(s.beta(), 3);
        assert_eq!(s.epsilon().value(), 1.0);
    }

    #[test]
    fn zero_beta_rejected() {
        assert_eq!(
            ProbeSchedule::paper(Epsilon::one(), 0),
            Err(RenamingError::InvalidBeta(0))
        );
        assert!(ProbeSchedule::tuned(Epsilon::one(), 1, 0).is_err());
    }
}
