//! Configuration surface: pick an algorithm, a TAS substrate and a seed
//! policy, get a [`NameService`].

use std::sync::Arc;

use renaming_baselines::{
    DoublingRenaming, LinearScanRenaming, SingleBatchRenaming, UniformRenaming,
};
use renaming_core::{
    AdaptiveLayout, AdaptiveRebatching, BatchLayout, Epsilon, FastAdaptiveRebatching,
    ProbeSchedule, Rebatching, RenamingError, DEFAULT_BETA,
};
use renaming_tas::rwtas::TournamentTas;
use renaming_tas::{TasArray, TicketTas};

use crate::namespace::{ServiceBackend, TournamentSlot};
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

/// How a [`NameService`] routes its `acquire` hot path.
///
/// # Example
///
/// Both modes serve the same contract; single-threaded they produce
/// byte-identical sequences (a combining batch of one *is* a direct
/// acquire):
///
/// ```
/// use renaming_service::{AcquireMode, Algorithm, NameService, SeedPolicy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let seq = |mode: AcquireMode| -> Vec<usize> {
///     let service = NameService::builder(Algorithm::Rebatching, 8)
///         .acquire_mode(mode)
///         .seed_policy(SeedPolicy::Fixed(7))
///         .build()
///         .expect("build");
///     (0..10).map(|_| service.acquire().expect("name").value()).collect()
/// };
/// assert_eq!(seq(AcquireMode::Direct), seq(AcquireMode::Combining));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AcquireMode {
    /// Every thread drives its own checked-out session — the PR 5
    /// behaviour, unchanged. The default.
    #[default]
    Direct,
    /// Flat combining: threads publish requests into padded slots; one
    /// thread elects itself combiner and satisfies the whole batch
    /// through a single session in one rebatching sweep (the machine is
    /// rearmed, not reset, between wins — the paper's `BatchCall`
    /// amortization applied to service traffic). Best under heavy
    /// multi-thread contention; identical results single-threaded.
    Combining,
}

/// The test-and-set substrate under the namespace's slots.
///
/// # Example
///
/// Both substrates are long-lived — the tournament recycles names
/// through its epoch-stamped O(1) reset, so churn far beyond the
/// namespace size never exhausts it:
///
/// ```
/// use renaming_service::{Algorithm, NameService, TasBackend};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = NameService::builder(Algorithm::Rebatching, 4)
///     .tas_backend(TasBackend::Tournament)
///     .build()?;
/// assert!(service.supports_release());
/// for _ in 0..40 {
///     let guard = service.acquire()?;
///     assert!(guard.value() < service.namespace_size());
/// } // each drop releases: an epoch bump on the name's register tree
/// assert_eq!(service.held(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TasBackend {
    /// Hardware atomics ([`renaming_tas::AtomicTas`]): the paper's model,
    /// resettable, so names recycle on guard drop. The default.
    Atomic,
    /// The register-based tournament ([`TournamentTas`] behind a
    /// ticketing adapter) — the §2/footnote-1 substitute built from
    /// read/write registers only. Long-lived like the atomic backend:
    /// releasing a name bumps its slot's epoch (O(1), no tree rebuild)
    /// and reissues the slot's contender tickets. Memory is
    /// `O(capacity)` *per slot* and every probe costs `Θ(log capacity)`
    /// register operations, so reserve it for demonstrations and small
    /// capacities.
    Tournament,
}

/// Builder for [`NameService`]: algorithm, capacity, slack, TAS backend
/// and seed policy.
///
/// # Example
///
/// ```
/// use renaming_service::{Algorithm, NameServiceBuilder, SeedPolicy, TasBackend};
/// use renaming_service::Epsilon;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = NameServiceBuilder::new(Algorithm::Adaptive, 128)
///     .epsilon(Epsilon::new(0.5)?)
///     .tas_backend(TasBackend::Atomic)
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
    backend: TasBackend,
    seed_policy: SeedPolicy,
    acquire_mode: AcquireMode,
    metrics: bool,
    oracle: bool,
}

impl NameServiceBuilder {
    /// Starts a build for `capacity` concurrent holders on `algorithm`,
    /// with the paper defaults everywhere else (`ε = 1`, `β = 3`, atomic
    /// TAS, entropy seeding).
    pub fn new(algorithm: Algorithm, capacity: usize) -> Self {
        Self {
            algorithm,
            capacity,
            epsilon: Epsilon::one(),
            beta: DEFAULT_BETA,
            backend: TasBackend::Atomic,
            seed_policy: SeedPolicy::Entropy,
            acquire_mode: AcquireMode::Direct,
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

    /// The TAS substrate (default [`TasBackend::Atomic`]).
    #[must_use]
    pub fn tas_backend(mut self, backend: TasBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The per-worker RNG seed policy (default [`SeedPolicy::Entropy`]).
    #[must_use]
    pub fn seed_policy(mut self, policy: SeedPolicy) -> Self {
        self.seed_policy = policy;
        self
    }

    /// The acquire-path routing (default [`AcquireMode::Direct`]).
    /// [`AcquireMode::Combining`] batches concurrent acquires through a
    /// flat-combining front-end (see [`AcquireMode`]).
    #[must_use]
    pub fn acquire_mode(mut self, mode: AcquireMode) -> Self {
        self.acquire_mode = mode;
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
        let backend = match self.backend {
            TasBackend::Atomic => self.build_atomic()?,
            TasBackend::Tournament => self.build_tournament()?,
        };
        let mut service =
            NameService::with_backend_mode(backend, self.seed_policy, self.acquire_mode);
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

    fn build_tournament(self) -> Result<Arc<dyn ServiceBackend>, RenamingError> {
        // Contenders per slot *per epoch*: every probe of a slot burns one
        // of its current epoch's tickets, and the window is reissued on
        // every release (the epoch bump), so the budget only has to cover
        // the probes that land between a win and its release — bounded by
        // the concurrent acquirers, i.e. by capacity. Provision double
        // that (floored for tiny services). A slot that does drain an
        // epoch keeps losing cleanly until its holder releases, which at
        // worst surfaces as NamespaceExhausted, never as a safety
        // violation — and the release replenishes it.
        let contenders = (2 * self.capacity).max(8);
        let slots = |len: usize| -> Arc<TasArray<TournamentSlot>> {
            Arc::new(TasArray::from_slots(
                (0..len)
                    .map(|_| TicketTas::new(TournamentTas::new(contenders)))
                    .collect(),
            ))
        };
        let schedule = ProbeSchedule::paper(self.epsilon, self.beta)?;
        Ok(match self.algorithm {
            Algorithm::Rebatching => {
                let layout = BatchLayout::shared(self.capacity, schedule)?;
                let slots = slots(layout.namespace_size());
                Arc::new(Rebatching::from_parts(layout, slots)?)
            }
            Algorithm::Adaptive => {
                let layout = Arc::new(AdaptiveLayout::for_capacity(self.capacity, schedule)?);
                let slots = slots(layout.total_size());
                Arc::new(AdaptiveRebatching::from_parts(layout, slots)?)
            }
            Algorithm::FastAdaptive => {
                let schedule = ProbeSchedule::paper(Epsilon::one(), self.beta)?;
                let layout = Arc::new(AdaptiveLayout::for_capacity(self.capacity, schedule)?);
                let slots = slots(layout.total_size());
                Arc::new(FastAdaptiveRebatching::from_parts(layout, slots)?)
            }
            Algorithm::Uniform => {
                Arc::new(UniformRenaming::from_parts(self.capacity, slots(2 * self.capacity))?)
            }
            Algorithm::LinearScan => {
                Arc::new(LinearScanRenaming::from_parts(self.capacity, slots(self.capacity))?)
            }
            Algorithm::SingleBatch => {
                let budget = (usize::BITS - (2 * self.capacity).leading_zeros()) as usize + 3;
                Arc::new(SingleBatchRenaming::from_parts(
                    self.capacity,
                    budget,
                    slots(2 * self.capacity),
                )?)
            }
            Algorithm::Doubling => Arc::new(DoublingRenaming::from_parts(
                self.capacity,
                2,
                slots(4 * self.capacity),
            )?),
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
            assert!(service.supports_release(), "{algorithm:?}");
            drop(a);
            drop(b);
            assert_eq!(service.held(), 0, "{algorithm:?}");
        }
    }

    #[test]
    fn tournament_backend_builds_and_recycles_for_every_algorithm() {
        for algorithm in Algorithm::all() {
            let service = NameServiceBuilder::new(algorithm, 4)
                .tas_backend(TasBackend::Tournament)
                .seed_policy(SeedPolicy::Fixed(5))
                .build()
                .unwrap_or_else(|e| panic!("{algorithm:?}: {e}"));
            assert!(service.supports_release(), "{algorithm:?}");
            // Churn beyond the per-epoch ticket budget: only the epoch
            // reset on release makes this terminate successfully.
            for _ in 0..30 {
                let guard = service
                    .acquire()
                    .unwrap_or_else(|e| panic!("{algorithm:?}: {e}"));
                assert!(guard.value() < service.namespace_size(), "{algorithm:?}");
            }
            assert_eq!(service.held(), 0, "{algorithm:?}: drops must recycle");
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
