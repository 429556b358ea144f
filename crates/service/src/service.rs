//! The [`NameService`] front-end: pooled sessions, per-stream RNGs, RAII
//! guards.

use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::SeedableRng;

use renaming_core::{FastRng, Name, NamespaceExhausted};

use renaming_oracle::Oracle;

use crate::builder::NameServiceBuilder;
use crate::guard::NameGuard;
use crate::metrics::{Instruments, ReleaseKind, ServiceMetrics};
use crate::oracle::OracleVerdict;
use crate::namespace::{PooledSession, ServiceBackend};
use crate::pool::ShardedPool;
use crate::Algorithm;

/// How [`NameService`] seeds the per-worker coin-flip streams.
///
/// # Example
///
/// Fixed seeding makes single-threaded acquisition sequences a pure
/// function of the builder configuration:
///
/// ```
/// use renaming_service::{Algorithm, NameService, SeedPolicy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let run = || -> Result<Vec<usize>, Box<dyn std::error::Error>> {
///     let service = NameService::builder(Algorithm::Rebatching, 16)
///         .seed_policy(SeedPolicy::Fixed(42))
///         .build()?;
///     Ok((0..10).map(|_| service.acquire().map(|g| g.value()).expect("name")).collect())
/// };
/// assert_eq!(run()?, run()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedPolicy {
    /// Derive stream `i`'s seed deterministically from this base via a
    /// SplitMix64 increment. A service used from one thread at a time
    /// then produces a reproducible acquisition sequence — the mode
    /// experiments and tests want.
    Fixed(u64),
    /// Seed each stream from the system clock and a process-wide
    /// counter: distinct streams per service instance and run.
    Entropy,
}

impl SeedPolicy {
    /// The seed of worker stream `stream`.
    fn stream_seed(self, stream: u64) -> u64 {
        match self {
            // The SplitMix64 increment keeps distinct streams far apart
            // in seed space even for consecutive stream ids.
            SeedPolicy::Fixed(base) => {
                base.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            }
            SeedPolicy::Entropy => {
                static COUNTER: AtomicU64 = AtomicU64::new(0);
                let nanos = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0);
                nanos
                    ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ COUNTER.fetch_add(1, Ordering::Relaxed).rotate_left(32)
            }
        }
    }
}

/// One pooled worker: a reusable machine session plus its private RNG
/// stream. The stream id (and therefore the RNG seed) is assigned once,
/// at construction — never at checkout — so which pool slot a worker
/// lands in has no effect on the names it produces.
struct Worker {
    session: Box<dyn PooledSession>,
    rng: FastRng,
}

/// A thread-safe, long-lived renaming service: `acquire` from any
/// thread, get an RAII [`NameGuard`], drop it to recycle the name.
///
/// The service wraps one [`ServiceBackend`] (any of the paper's
/// algorithms or the baselines, over hardware atomics from
/// [`NameServiceBuilder`], or over any resettable TAS substrate through
/// [`with_backend`](Self::with_backend)) and owns a
/// pool of per-worker [`PooledSession`]s with private [`FastRng`]
/// streams. An acquire checks a worker out of the pool (creating one
/// only when the pool is empty, so the steady-state worker count tracks
/// the peak concurrency), drives its reusable machine, and checks it
/// back in: after warm-up, no machine construction, no RNG construction
/// and no allocation per operation — callers just write
/// `let guard = service.acquire()?`.
///
/// The pool is sharded and lock-free: checkout is an atomic `swap` on a
/// cache-line-padded, thread-hinted shard slot, with work-stealing from
/// neighboring shards, so the acquire path has no global lock at all.
/// It has one shard per hardware thread, rounded up to a power of two.
///
/// # Example
///
/// ```
/// use renaming_service::{Algorithm, NameService};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = NameService::builder(Algorithm::Rebatching, 64).build()?;
/// let guard = service.acquire()?;
/// assert!(guard.value() < service.namespace_size());
/// drop(guard); // name recycled
/// assert_eq!(service.held(), 0);
/// # Ok(())
/// # }
/// ```
pub struct NameService {
    backend: Arc<dyn ServiceBackend>,
    pool: ShardedPool<Worker>,
    seed_policy: SeedPolicy,
    /// Next worker stream id; also the number of workers ever created.
    streams: AtomicU64,
    /// Latency metrics ([`NameServiceBuilder::metrics`]) and the
    /// concurrency oracle ([`NameServiceBuilder::oracle`]) behind the one
    /// instrumentation seam the acquire and release paths report
    /// through. Both off — the default — is the zero-cost state: no
    /// clock reads.
    instruments: Instruments,
}

impl NameService {
    /// Starts building a service for `capacity` concurrent holders on
    /// `algorithm` (atomic TAS backend, paper-default parameters).
    pub fn builder(algorithm: Algorithm, capacity: usize) -> NameServiceBuilder {
        NameServiceBuilder::new(algorithm, capacity)
    }

    /// Wraps an explicit backend; the builder's own `build` hook. Every
    /// object implements [`ServiceBackend`] over any
    /// [`Tas`](renaming_tas::Tas), so any substrate
    /// other than the builder's atomics comes through here: build the
    /// object with its `from_parts` constructor (over
    /// [`crate::CountingSlot`]s, register tournaments as
    /// `TicketTas<TournamentTas>`, or with a custom probe schedule).
    pub fn with_backend(backend: Arc<dyn ServiceBackend>, seed_policy: SeedPolicy) -> Self {
        Self {
            backend,
            pool: ShardedPool::new(ShardedPool::<Worker>::default_shards()),
            seed_policy,
            streams: AtomicU64::new(0),
            instruments: Instruments::default(),
        }
    }

    /// Attaches latency metrics — the builder's `metrics(true)` hook.
    /// Takes `&mut self` so it can only happen before the service is
    /// shared, keeping the enabled/disabled decision fixed for the
    /// service's lifetime (the hot path reads it branch-predictably).
    pub(crate) fn enable_metrics(&mut self) {
        self.instruments.metrics = Some(Arc::new(ServiceMetrics::new()));
    }

    /// The latency metrics, if the service was built with
    /// [`NameServiceBuilder::metrics`]`(true)` — `None` means disabled
    /// (the default; the acquire/release paths then read no clocks).
    ///
    /// # Example
    ///
    /// ```
    /// use renaming_service::{Algorithm, NameService};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let service = NameService::builder(Algorithm::Rebatching, 8)
    ///     .metrics(true)
    ///     .build()?;
    /// drop(service.acquire()?);
    /// let snap = service.metrics().expect("enabled").snapshot();
    /// assert_eq!(snap.acquire.count(), 1);
    /// assert_eq!(snap.release.count(), 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn metrics(&self) -> Option<&Arc<ServiceMetrics>> {
        self.instruments.metrics.as_ref()
    }

    /// Attaches the concurrency oracle — the builder's `oracle(true)`
    /// hook, public so [`with_backend`](Self::with_backend) services
    /// (backends the builder does not build) can be instrumented too.
    /// Takes `&mut self` for the same reason as `enable_metrics`: the
    /// enabled/disabled decision is fixed before the service is shared.
    pub fn enable_oracle(&mut self) {
        self.instruments.oracle = Some(Arc::new(Oracle::new(
            self.backend.namespace_size(),
            self.backend.capacity(),
        )));
    }

    /// The concurrency oracle, if the service was built with
    /// [`NameServiceBuilder::oracle`]`(true)` — `None` means disabled
    /// (the default; the acquire/release paths then record nothing).
    ///
    /// # Example
    ///
    /// ```
    /// use renaming_service::{Algorithm, NameService};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let service = NameService::builder(Algorithm::Rebatching, 8)
    ///     .oracle(true)
    ///     .build()?;
    /// drop(service.acquire()?);
    /// let report = service.oracle().expect("enabled").verdict();
    /// assert!(report.is_clean() && report.drained());
    /// # Ok(())
    /// # }
    /// ```
    pub fn oracle(&self) -> Option<&Arc<Oracle>> {
        self.instruments.oracle.as_ref()
    }

    /// Checks the recorded history *and* the service's own quiescent
    /// counters in one verdict: the history checker's report, the
    /// worker conservation law, and agreement between the history's
    /// live count and the backend's [`held`](Self::held). `None` if the
    /// oracle is disabled. Meaningful at quiescence (all acquiring
    /// threads joined); see [`OracleVerdict`].
    pub fn oracle_verdict(&self) -> Option<OracleVerdict> {
        let oracle = self.oracle()?;
        Some(OracleVerdict {
            history: oracle.verdict(),
            workers: renaming_oracle::WorkerCounts {
                created: self.worker_count() as u64,
                pooled: self.pooled_workers() as u64,
                retired: self.retired_workers(),
            },
            held: self.held(),
        })
    }

    /// Acquires a unique name, returning an RAII guard that releases it
    /// on drop.
    ///
    /// Callable from any number of threads concurrently (up to
    /// [`capacity`](Self::capacity) names may be held at once).
    ///
    /// # Errors
    ///
    /// Returns [`NamespaceExhausted`] when the namespace cannot hold
    /// another name; an acquire fails in no other way.
    ///
    /// # Example
    ///
    /// ```
    /// use renaming_service::{Algorithm, NameService};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let service = NameService::builder(Algorithm::FastAdaptive, 8).build()?;
    /// let a = service.acquire()?;
    /// let b = service.acquire()?;
    /// assert_ne!(a.value(), b.value(), "live guards hold distinct names");
    /// # Ok(())
    /// # }
    /// ```
    pub fn acquire(&self) -> Result<NameGuard<'_>, NamespaceExhausted> {
        self.acquire_name().map(|name| NameGuard::new(self, name))
    }

    /// Acquires a raw name without a guard. The caller owns it and is
    /// responsible for an eventual [`release_name`](Self::release_name).
    ///
    /// This is the one acquire path: [`acquire`](Self::acquire), the
    /// async facade and the wire server all come through here. It checks
    /// a worker out of the pool, drives one acquisition on the worker's
    /// own session and RNG stream, and checks the worker back in.
    ///
    /// # Errors
    ///
    /// As for [`acquire`](Self::acquire).
    pub fn acquire_name(&self) -> Result<Name, NamespaceExhausted> {
        let started = self.instruments.acquire_start();
        let mut worker = self.checkout();
        let result = worker.session.acquire(&mut worker.rng);
        self.pool.checkin(worker);
        self.instruments.acquire_end(started, &result);
        result
    }

    /// Releases a raw name previously obtained from
    /// [`acquire_name`](Self::acquire_name) (or detached via
    /// [`NameGuard::into_name`]). A release cannot fail; the
    /// [`Infallible`] result is kept only because the benchmark
    /// (`perfbench/`) calls `.expect` and `.is_err()` on it.
    ///
    /// # Panics
    ///
    /// May panic if `name` is not currently held — a caller bug.
    ///
    /// # Example
    ///
    /// ```
    /// use renaming_service::{Algorithm, NameService};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let service = NameService::builder(Algorithm::Rebatching, 4).build()?;
    /// let name = service.acquire_name()?;
    /// assert_eq!(service.held(), 1);
    /// let Ok(()) = service.release_name(name);
    /// assert_eq!(service.held(), 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn release_name(&self, name: Name) -> Result<(), Infallible> {
        self.release_as(name, ReleaseKind::Explicit);
        Ok(())
    }

    /// The one release path, shared by [`release_name`](Self::release_name)
    /// and both guards' drops; `kind` lets the oracle's history tell
    /// explicit releases from guard drops.
    pub(crate) fn release_as(&self, name: Name, kind: ReleaseKind) {
        self.instruments.release(name, kind, || {
            let Ok(()) = self.backend.release(name);
        });
    }

    /// The namespace size `m`: every acquired name is in `0..m`.
    pub fn namespace_size(&self) -> usize {
        self.backend.namespace_size()
    }

    /// The maximum number of simultaneously held names.
    pub fn capacity(&self) -> usize {
        self.backend.capacity()
    }

    /// Names currently held: a scan of the backend's slots, O(namespace
    /// size). Approximate while acquires and releases are in flight,
    /// exact once the service is quiescent. No acquire or release reads
    /// it.
    pub fn held(&self) -> usize {
        self.backend.held()
    }

    /// The backing algorithm's label (e.g. `"rebatching"`).
    pub fn algorithm(&self) -> &'static str {
        self.backend.algorithm()
    }

    /// Workers (sessions + RNG streams) created so far. Tracks the peak
    /// number of concurrent acquires; under sustained overflow of a full
    /// sharded pool it can exceed it (surplus idle workers are retired
    /// rather than pooled without bound).
    ///
    /// The load is `Acquire`, pairing with the `AcqRel` increment in the
    /// checkout slow path, so the count is exact once the service is
    /// quiescent (e.g. after joining all acquiring threads — the
    /// conservation law `worker_count == pooled_workers +
    /// retired_workers` the torture tests assert).
    /// While acquires are in flight it is a snapshot, advisory like
    /// every concurrent counter.
    pub fn worker_count(&self) -> usize {
        self.streams.load(Ordering::Acquire) as usize
    }

    /// Workers currently idle in the checkout pool (advisory under
    /// concurrency).
    pub fn pooled_workers(&self) -> usize {
        self.pool.pooled()
    }

    /// Workers the pool has dropped because every slot was already
    /// occupied at check-in. When the service is idle,
    /// `worker_count() == pooled_workers() + retired_workers()` — the
    /// no-leak conservation law the torture tests assert.
    pub fn retired_workers(&self) -> u64 {
        self.pool.retired()
    }

    /// Workers held outside the pool between acquires: always `0`. Every
    /// acquire checks its worker back in before returning, so no worker
    /// stays resident anywhere else. Kept so callers that sum
    /// `pooled + retired + resident` against
    /// [`worker_count`](Self::worker_count) still compile and still
    /// balance.
    pub fn resident_workers(&self) -> usize {
        0
    }

    /// The shared backend.
    pub fn backend(&self) -> &Arc<dyn ServiceBackend> {
        &self.backend
    }

    fn checkout(&self) -> Box<Worker> {
        if let Some(worker) = self.pool.checkout() {
            return worker;
        }
        // Bounded slow path: only reached when every shard slot is
        // empty. Stream ids — and with them the RNG seeds — are fixed
        // here, at construction, so pool placement never changes a
        // worker's coin flips. AcqRel pairs with the
        // Acquire read in `worker_count`, keeping the post-quiescence
        // conservation law exact.
        let stream = self.streams.fetch_add(1, Ordering::AcqRel);
        Box::new(Worker {
            session: self.backend.open_session(),
            rng: FastRng::seed_from_u64(self.seed_policy.stream_seed(stream)),
        })
    }
}

impl fmt::Debug for NameService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NameService")
            .field("algorithm", &self.algorithm())
            .field("capacity", &self.capacity())
            .field("namespace_size", &self.namespace_size())
            .field("held", &self.held())
            .field("workers", &self.worker_count())
            .field("seed_policy", &self.seed_policy)
            .field("oracle", &self.oracle().is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_cycle_recycles_names() {
        let service = NameService::builder(Algorithm::Rebatching, 4)
            .seed_policy(SeedPolicy::Fixed(7))
            .build()
            .expect("build");
        // Far more acquisitions than the namespace holds: only recycling
        // makes this terminate successfully.
        for _ in 0..100 {
            let guard = service.acquire().expect("within capacity");
            assert!(guard.value() < service.namespace_size());
        }
        assert_eq!(service.held(), 0);
        // Single-threaded use needs exactly one pooled worker.
        assert_eq!(service.worker_count(), 1);
        assert_eq!(service.pooled_workers(), 1);
    }

    #[test]
    fn concurrent_holders_are_distinct() {
        let service = NameService::builder(Algorithm::FastAdaptive, 16)
            .build()
            .expect("build");
        let guards: Vec<_> = (0..16).map(|_| service.acquire().expect("name")).collect();
        let mut values: Vec<usize> = guards.iter().map(|g| g.value()).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 16, "duplicate names among live guards");
        assert_eq!(service.held(), 16);
        drop(guards);
        assert_eq!(service.held(), 0);
    }

    #[test]
    fn fixed_seed_policy_reproduces_sequences() {
        let sequence = |seed: u64| -> Vec<usize> {
            let service = NameService::builder(Algorithm::Adaptive, 32)
                .seed_policy(SeedPolicy::Fixed(seed))
                .build()
                .expect("build");
            (0..20)
                .map(|_| {
                    let guard = service.acquire().expect("name");
                    guard.value()
                })
                .collect()
        };
        assert_eq!(sequence(42), sequence(42));
        assert_ne!(sequence(42), sequence(43), "seeds should matter");
    }

    #[test]
    fn guard_accessors_and_detach() {
        let service = NameService::builder(Algorithm::LinearScan, 4)
            .build()
            .expect("build");
        let guard = service.acquire().expect("name");
        assert_eq!(guard.name().value(), guard.value());
        assert_eq!(guard.service().algorithm(), "linear-scan");
        assert_eq!(format!("{guard}"), format!("{}", guard.name()));
        let name = guard.into_name();
        assert_eq!(service.held(), 1, "detached name stays held");
        let Ok(()) = service.release_name(name);
        assert_eq!(service.held(), 0);
    }

    #[test]
    fn sharded_service_survives_thread_churn() {
        // More threads than shards (the default count is the core
        // count), churn far beyond capacity: the service must neither
        // duplicate names nor lose workers.
        let service = NameService::builder(Algorithm::Rebatching, 16)
            .seed_policy(SeedPolicy::Fixed(3))
            .build()
            .expect("build");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let service = &service;
                scope.spawn(move || {
                    for _ in 0..200 {
                        let guard = service.acquire().expect("within capacity");
                        std::hint::black_box(guard.value());
                    }
                });
            }
        });
        assert_eq!(service.held(), 0);
        // Conservation: once idle, every worker ever created is either
        // pooled or was retired on overflow — nothing leaks.
        assert_eq!(
            service.worker_count() as u64,
            service.pooled_workers() as u64 + service.retired_workers(),
        );
    }
}
