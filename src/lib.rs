//! # loose-renaming
//!
//! Facade crate for the reproduction of *"Randomized loose renaming in
//! O(log log n) time"* (Alistarh, Aspnes, Giakkoupis, Woelfel — PODC 2013).
//!
//! Re-exports the workspace crates under stable module names:
//!
//! * [`service`] — the **recommended entry point**: a unified,
//!   thread-safe acquire/release API (`NameService`, RAII `NameGuard`,
//!   `Namespace` backends, and `AsyncNameService` for runtime-free
//!   `acquire().await`) over every algorithm below.
//! * [`net`] — the wire front-end: a length-prefixed binary protocol,
//!   the `renaming-server` TCP server (per-connection sessions, RAII
//!   release over the wire, a JSON `Stats` endpoint), a blocking
//!   client, and the `renaming-loadgen` load-generator library.
//! * [`tas`] — test-and-set substrate (hardware atomics and the
//!   read/write-register tournament).
//! * [`sim`] — asynchronous shared-memory execution model with adversarial
//!   schedulers and crash injection.
//! * [`core`] — the paper's algorithms: `ReBatching` (§4),
//!   `AdaptiveReBatching` (§5.1) and `FastAdaptiveReBatching` (§5.2).
//! * [`baselines`] — `core`'s comparison algorithms (uniform probing,
//!   linear scan, ablations), as machines and as the same concurrent
//!   object type as the paper's algorithms.
//! * [`lowerbound`] — the §6 lower-bound machinery as executable code.
//! * [`analysis`] — statistics and reporting helpers used by the
//!   experiments.
//!
//! See the repository `README.md` for a quickstart, `ARCHITECTURE.md`
//! for the layer-by-layer guide (TAS substrate → algorithms → two-tier
//! engine → sweep harness → service → network front-end), and
//! `EXPERIMENTS.md` for the
//! catalog of all reproduction experiments.
//!
//! # Example
//!
//! Acquire unique dense names from any thread, release by dropping:
//!
//! ```
//! use loose_renaming::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Namespace (1 + 1.0) * 64 = 128 names for up to 64 holders.
//! let service = NameService::builder(Algorithm::Rebatching, 64)
//!     .seed_policy(SeedPolicy::Fixed(42))
//!     .build()?;
//! let guard = service.acquire()?;
//! assert!(guard.value() < service.namespace_size());
//! drop(guard); // name recycled
//! assert_eq!(service.held(), 0);
//! # Ok(())
//! # }
//! ```
//!
//! The algorithm objects remain available directly for one-shot use and
//! simulation:
//!
//! ```
//! use loose_renaming::core::{Epsilon, Rebatching};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let renaming = Rebatching::with_defaults(64, Epsilon::new(1.0)?)?;
//! let mut rng = StdRng::seed_from_u64(42);
//! let name = renaming.get_name(&mut rng)?;
//! assert!(name.value() < renaming.namespace_size());
//! # Ok(())
//! # }
//! ```

pub use renaming_analysis as analysis;
pub use renaming_core::baselines;
pub use renaming_core as core;
pub use renaming_lowerbound as lowerbound;
pub use renaming_net as net;
pub use renaming_service as service;
pub use renaming_sim as sim;
pub use renaming_tas as tas;

/// The service-level vocabulary in one import: `use
/// loose_renaming::prelude::*;`.
pub mod prelude {
    pub use renaming_core::{Epsilon, Name, NamespaceExhausted, RenamingError};
    pub use renaming_service::{
        Algorithm, AsyncNameGuard, AsyncNameService, HistoryReport, NameGuard, NameService,
        NameServiceBuilder, Namespace, Oracle, OracleVerdict, SeedPolicy, Violation, WorkerCounts,
    };
}
