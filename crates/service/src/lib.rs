//! A unified, thread-safe **acquire/release** front-end over every
//! renaming algorithm in the workspace.
//!
//! The paper's objects are long-lived loose-renaming primitives, but
//! their raw APIs are simulation-shaped: per-algorithm `get_name`
//! methods, hand-managed per-thread sessions and RNGs. This crate turns
//! them into one ergonomic service, the way practical renaming
//! front-ends (cf. the LevelArray line of work) expose the primitive:
//!
//! * [`Namespace`] — the interchangeable-backend trait (`release`,
//!   `namespace_size`, `capacity`, `held`, `algorithm`), with
//!   [`ServiceBackend::open_session`] as the one acquire route: each
//!   [`PooledSession`] drives its own reusable machine. Implemented once
//!   for [`renaming_core::RenamingObject`], so `Rebatching`,
//!   `AdaptiveRebatching`, `FastAdaptiveRebatching` and all four
//!   baselines serve over any resettable TAS substrate — hardware
//!   atomics, [`CountingSlot`], or the register-based tournament;
//! * [`NameGuard`] — RAII ownership of an acquired name: drop it and
//!   the name is recycled. One type for both facades, generic over how
//!   it holds the service (a borrow for sync callers, an `Arc` for
//!   async ones);
//! * [`NamespaceExhausted`] — the one way an acquire fails, on every
//!   path below; a release cannot fail;
//! * [`NameService`] — the thread-safe front-end, built over atomics
//!   via [`NameServiceBuilder`] or over any other substrate via
//!   [`NameService::with_backend`]: internal per-worker session
//!   pooling and [`renaming_core::FastRng`] streams, so callers just
//!   write `let guard = service.acquire()?` from any thread;
//! * [`AsyncNameService`] — the same service behind `acquire().await`:
//!   a [`std::future::poll_fn`] (std `Waker`/`Poll` only, no external
//!   runtime) that runs the one acquire path on its first poll and
//!   resolves to an [`AsyncNameGuard`], the `'static` guard;
//! * [`exec`] — minimal, documented executors ([`exec::block_on`],
//!   [`exec::drive_all`]) for driving the async facade without any
//!   runtime — what the examples, tests and experiments use;
//! * [`ServiceMetrics`] — opt-in latency histograms
//!   ([`NameServiceBuilder::metrics`]): fixed-bucket log₂
//!   [`LatencyHistogram`]s with relaxed-counter increments, zero cost
//!   when disabled, exported over the wire by `renaming-net`'s `Stats`
//!   endpoint.
//!
//! # Quickstart
//!
//! ```
//! use renaming_service::{Algorithm, NameService, SeedPolicy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = NameService::builder(Algorithm::Rebatching, 64)
//!     .seed_policy(SeedPolicy::Fixed(42))
//!     .build()?;
//!
//! std::thread::scope(|scope| {
//!     for _ in 0..8 {
//!         scope.spawn(|| {
//!             let guard = service.acquire().expect("within capacity");
//!             // `guard.value()` is a dense id unique among live guards.
//!             assert!(guard.value() < service.namespace_size());
//!             // dropped here -> name recycled
//!         });
//!     }
//! });
//! assert_eq!(service.held(), 0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod async_api;
mod builder;
pub mod exec;
mod guard;
mod metrics;
mod namespace;
mod oracle;
mod pool;
mod service;
mod sync_shim;

#[cfg(all(test, renaming_model))]
mod model_tests;

pub use async_api::{AsyncNameGuard, AsyncNameService};
pub use builder::{Algorithm, NameServiceBuilder};
pub use guard::NameGuard;
pub use metrics::{
    HistogramSnapshot, LatencyHistogram, MetricsSnapshot, ServiceMetrics, HISTOGRAM_BUCKETS,
};
pub use namespace::{CountingSlot, Namespace, PooledSession, ServiceBackend};
pub use oracle::OracleVerdict;
pub use service::{NameService, SeedPolicy};

// Re-export the vocabulary types a service caller needs, so depending on
// `renaming-core` directly is optional.
pub use renaming_core::{Epsilon, Name, NamespaceExhausted, RenamingError};

// Re-export the oracle's own vocabulary so callers consuming a verdict
// (tests, the wire server's `Stats`) need not depend on
// `renaming-oracle` directly.
pub use renaming_oracle::{
    History, HistoryReport, Oracle, OracleSummary, SnapshotReport, Violation, WorkerCounts,
};
