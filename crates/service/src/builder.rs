//! Configuration surface: pick an algorithm, its parameters and a seed
//! policy, get a [`NameService`] over hardware atomics.

use std::sync::Arc;

use renaming_baselines::{
    DoublingRenaming, LinearScanRenaming, SingleBatchRenaming, UniformRenaming,
};
use renaming_core::{
    AdaptiveRebatching, Epsilon, FastAdaptiveRebatching, Rebatching, RenamingError, DEFAULT_BETA,
};

use crate::namespace::ServiceBackend;
use crate::{NameService, SeedPolicy};

/// The renaming algorithm backing a [`NameService`].
///
/// The paper's three algorithms plus the measured baselines; every
/// variant hands out unique names, they differ in namespace size, step
/// complexity and adaptivity (see the crate docs of `renaming-core` and
/// `renaming-baselines`).
///
/// # Example
///
/// Every algorithm serves the same acquire/release contract:
///
/// ```
/// use renaming_service::{Algorithm, NameService};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// for algorithm in Algorithm::all() {
///     let service = NameService::builder(algorithm, 8).build()?;
///     let guard = service.acquire()?;
///     assert!(guard.value() < service.namespace_size());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// ReBatching (§4): namespace `(1+ε)n`, `log log n + O(1)` steps
    /// w.h.p. The default choice.
    Rebatching,
    /// AdaptiveReBatching (§5.1): names `O(k)` for actual contention `k`.
    Adaptive,
    /// FastAdaptiveReBatching (§5.2): names `O(k)`, `O(k log log k)`
    /// total steps.
    FastAdaptive,
    /// Baseline: uniform random probing over the whole namespace.
    Uniform,
    /// Baseline: deterministic scan; optimal namespace, `Θ(n)` steps.
    LinearScan,
    /// Ablation A1: ReBatching's budget without the batch geometry.
    SingleBatch,
    /// Baseline: uniform probing over a doubling window.
    Doubling,
}

impl Algorithm {
    /// All selectable algorithms, paper order then baselines.
    pub fn all() -> [Algorithm; 7] {
        [
            Algorithm::Rebatching,
            Algorithm::Adaptive,
            Algorithm::FastAdaptive,
            Algorithm::Uniform,
            Algorithm::LinearScan,
            Algorithm::SingleBatch,
            Algorithm::Doubling,
        ]
    }
}

/// Builder for [`NameService`]: algorithm, capacity, slack and seed
/// policy, over hardware atomics ([`renaming_tas::AtomicTas`], the
/// paper's model). Any other substrate — counting slots, the
/// register-based tournament — reaches the service through the objects'
/// `from_parts` constructors and [`NameService::with_backend`].
///
/// # Example
///
/// ```
/// use renaming_service::{Algorithm, NameServiceBuilder, SeedPolicy};
/// use renaming_service::Epsilon;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = NameServiceBuilder::new(Algorithm::Adaptive, 128)
///     .epsilon(Epsilon::new(0.5)?)
///     .seed_policy(SeedPolicy::Fixed(42))
///     .build()?;
/// let guard = service.acquire()?;
/// assert!(guard.value() < service.namespace_size());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct NameServiceBuilder {
    algorithm: Algorithm,
    capacity: usize,
    epsilon: Epsilon,
    beta: usize,
    seed_policy: SeedPolicy,
    metrics: bool,
    oracle: bool,
}

impl NameServiceBuilder {
    /// Starts a build for `capacity` concurrent holders on `algorithm`,
    /// with the paper defaults everywhere else (`ε = 1`, `β = 3`,
    /// entropy seeding).
    pub fn new(algorithm: Algorithm, capacity: usize) -> Self {
        Self {
            algorithm,
            capacity,
            epsilon: Epsilon::one(),
            beta: DEFAULT_BETA,
            seed_policy: SeedPolicy::Entropy,
            metrics: false,
            oracle: false,
        }
    }

    /// Namespace slack `ε` (namespace `(1+ε)n`). Ignored by
    /// [`Algorithm::FastAdaptive`] (the paper fixes its `ε = 1`) and by
    /// the baselines (fixed slack ratios).
    #[must_use]
    pub fn epsilon(mut self, epsilon: Epsilon) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Backup probe count `β` (Eq. 2's `t_κ`). Ignored by the baselines.
    #[must_use]
    pub fn beta(mut self, beta: usize) -> Self {
        self.beta = beta;
        self
    }

    /// The per-worker RNG seed policy (default [`SeedPolicy::Entropy`]).
    #[must_use]
    pub fn seed_policy(mut self, policy: SeedPolicy) -> Self {
        self.seed_policy = policy;
        self
    }

    /// Opt into latency metrics (default **off**): per-operation log₂
    /// histograms over acquire and release, readable via
    /// [`NameService::metrics`] and exported by the wire server's
    /// `Stats` endpoint. Disabled, the hot paths read no clocks at all
    /// — see [`crate::LatencyHistogram`].
    #[must_use]
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Opt into the concurrency oracle (default **off**): vector-clock
    /// event recording on every acquire/release plus a post-run history
    /// checker proving the paper's safety claims over the actual
    /// execution — no overlapping holds of one name, the namespace
    /// bound respected at every cut, every win released or held at
    /// exit. Read the verdict via [`NameService::oracle_verdict`] (or
    /// the raw recorder via [`NameService::oracle`]). Disabled, the hot
    /// paths record nothing — same zero-cost discipline as `metrics`.
    #[must_use]
    pub fn oracle(mut self, enabled: bool) -> Self {
        self.oracle = enabled;
        self
    }

    /// Builds the service.
    ///
    /// # Errors
    ///
    /// Propagates the backing algorithm's parameter validation (bad `ε`
    /// or `β`, capacity too small for the algorithm).
    pub fn build(self) -> Result<NameService, RenamingError> {
        if self.capacity == 0 {
            return Err(RenamingError::TooFewProcesses { n: 0, min: 1 });
        }
        let mut service = NameService::with_backend(self.build_atomic()?, self.seed_policy);
        if self.metrics {
            service.enable_metrics();
        }
        if self.oracle {
            service.enable_oracle();
        }
        Ok(service)
    }

    fn build_atomic(self) -> Result<Arc<dyn ServiceBackend>, RenamingError> {
        Ok(match self.algorithm {
            Algorithm::Rebatching => {
                Arc::new(Rebatching::new(self.capacity, self.epsilon, self.beta)?)
            }
            Algorithm::Adaptive => {
                Arc::new(AdaptiveRebatching::new(self.capacity, self.epsilon, self.beta)?)
            }
            Algorithm::FastAdaptive => {
                Arc::new(FastAdaptiveRebatching::new(self.capacity, self.beta)?)
            }
            Algorithm::Uniform => Arc::new(UniformRenaming::new(self.capacity)),
            Algorithm::LinearScan => Arc::new(LinearScanRenaming::new(self.capacity)),
            Algorithm::SingleBatch => Arc::new(SingleBatchRenaming::new(self.capacity)),
            Algorithm::Doubling => Arc::new(DoublingRenaming::new(self.capacity)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algorithm_builds_and_serves_on_atomics() {
        for algorithm in Algorithm::all() {
            let service = NameServiceBuilder::new(algorithm, 16)
                .seed_policy(SeedPolicy::Fixed(3))
                .build()
                .unwrap_or_else(|e| panic!("{algorithm:?}: {e}"));
            let a = service.acquire().unwrap_or_else(|e| panic!("{algorithm:?}: {e}"));
            let b = service.acquire().unwrap_or_else(|e| panic!("{algorithm:?}: {e}"));
            assert_ne!(a.value(), b.value(), "{algorithm:?}");
            drop(a);
            drop(b);
            assert_eq!(service.held(), 0, "{algorithm:?}");
        }
    }

    #[test]
    fn zero_capacity_is_rejected() {
        let err = NameServiceBuilder::new(Algorithm::Rebatching, 0)
            .build()
            .unwrap_err();
        assert_eq!(err, RenamingError::TooFewProcesses { n: 0, min: 1 });
    }

    #[test]
    fn epsilon_shapes_the_namespace() {
        let tight = NameService::builder(Algorithm::Rebatching, 64)
            .epsilon(Epsilon::new(0.25).expect("valid"))
            .build()
            .expect("build");
        let loose = NameService::builder(Algorithm::Rebatching, 64)
            .epsilon(Epsilon::new(2.0).expect("valid"))
            .build()
            .expect("build");
        assert!(tight.namespace_size() < loose.namespace_size());
        assert_eq!(tight.namespace_size(), 80); // (1 + 0.25) * 64
    }
}
