//! The concurrency-primitive switchboard for the service's hot module.
//!
//! `pool.rs` imports its atomics from here instead of `std`. In a normal
//! build (no `renaming_model` cfg) every path below is a plain
//! `pub(crate) use` of the `std` item — zero overhead, same types,
//! golden tests and benches untouched. Under
//! `RUSTFLAGS="--cfg renaming_model"` the same paths resolve to the
//! [`renaming_model`] shim, whose primitives are scheduling points of
//! the interleaving checker and feed its vector-clock ordering
//! detector; `crates/service/src/model_tests.rs` then model-checks the
//! *real* pool, alone and behind `NameService::acquire`.
//!
//! Two deliberate exceptions stay on `std` even under the cfg:
//!
//! * const-initialized function-local statics (the pool id counter) —
//!   model atomics carry detector state and cannot be const-constructed,
//!   and process-global counters are not part of any modeled protocol;
//! * `std::thread::available_parallelism` (capacity heuristics, not
//!   synchronization).
//!
//! Model primitives created *outside* a checker execution (or cached in
//! thread-locals across executions) degrade to plain uninstrumented
//! behavior, so the ordinary test suite still passes when the cfg is
//! set globally.

/// Mirror of the `std::sync` paths the hot module uses.
#[cfg(not(renaming_model))]
pub(crate) mod sync {
    /// Mirror of `std::sync::atomic`.
    pub(crate) mod atomic {
        pub(crate) use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
    }
}

/// Model-checked replacements for the `std::sync` paths.
#[cfg(renaming_model)]
pub(crate) mod sync {
    /// Model-checked replacements for `std::sync::atomic`.
    pub(crate) mod atomic {
        pub(crate) use renaming_model::sync::atomic::{
            AtomicPtr, AtomicU64, AtomicUsize, Ordering,
        };
    }
}
