//! The renaming algorithms of *"Randomized loose renaming in O(log log n)
//! time"* (Alistarh, Aspnes, Giakkoupis, Woelfel — PODC 2013).
//!
//! Three algorithms, each available both as a [`renaming_sim::Renamer`]
//! step machine (for exact step-complexity measurement under adversarial
//! schedulers) and as a concurrent object over hardware atomics — one
//! object type, [`RenamingObject`], over each machine:
//!
//! | Paper | Type | Guarantee (w.h.p.) |
//! |-------|------|--------------------|
//! | §4, Fig. 1 | [`Rebatching`] | `(1+ε)n` names, `log log n + O(1)` steps |
//! | §5.1 | [`AdaptiveRebatching`] | names `O(k)`, `O((log log k)^2)` steps |
//! | §5.2, Fig. 2 | [`FastAdaptiveRebatching`] | names `O(k)`, `O(k log log k)` total steps |
//!
//! `n` is the (known) bound on the number of processes; `k` is the actual
//! contention of the execution. The [`baselines`] module holds the
//! algorithms the paper is measured against, as machines and as
//! [`RenamingObject`]s too.
//!
//! # Quickstart
//!
//! ```
//! use renaming_core::{Epsilon, Rebatching};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let object = Rebatching::with_defaults(64, Epsilon::one())?;
//! let mut rng = StdRng::seed_from_u64(0);
//! let name = object.get_name(&mut rng)?;
//! assert!(name.value() < object.namespace_size());
//! # Ok(())
//! # }
//! ```
//!
//! # Model notes
//!
//! All coin flips flow through the caller-supplied RNG, so executions are
//! reproducible from a seed. The machines are the single source of truth:
//! the concurrent objects drive the very same state machines against a
//! [`renaming_tas::TasArray`] (see [`driver`]).

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod adaptive;
mod adaptive_layout;
pub mod baselines;
pub mod calls;
pub mod driver;
mod error;
mod fast_adaptive;
mod layout;
mod object;
mod params;
mod rebatching;
pub mod rng;

pub use adaptive::{AdaptiveMachine, AdaptiveRebatching};
pub use driver::{NameSession, ResetMachine};
pub use adaptive_layout::AdaptiveLayout;
pub use error::RenamingError;
pub use fast_adaptive::{FastAdaptiveMachine, FastAdaptiveRebatching};
pub use layout::BatchLayout;
pub use object::RenamingObject;
pub use params::{Epsilon, ProbeSchedule, DEFAULT_BETA};
pub use rebatching::{Rebatching, RebatchingMachine};
pub use rng::FastRng;

// Re-export the vocabulary types callers need.
pub use renaming_sim::Name;
