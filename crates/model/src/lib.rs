//! `renaming-model` — a loom-style deterministic interleaving model
//! checker and vector-clock ordering detector for the renaming
//! service's concurrency layer.
//!
//! # What it does
//!
//! [`Checker::check`] runs a closure many times, each time under a
//! different thread interleaving, with every atomic operation, spawn,
//! join, and yield acting as a scheduling point. The code it checks is
//! lock-free, so a model thread can block only in `join`.
//! Interleavings are explored by depth-first replay of
//! scheduling decisions under a **preemption bound** (exhaustive for
//! small bounds — the CHESS result is that almost all concurrency bugs
//! need very few preemptions), up to an interleaving cap that marks the
//! report incomplete. Three violation classes are detected:
//!
//! * **panics** — any assertion failing in any explored interleaving,
//!   reported with the decision schedule that reproduces it;
//! * **deadlock** — every unfinished thread joining another unfinished
//!   thread (a join cycle);
//! * **livelock** — an interleaving exceeding the step budget.
//!
//! Orthogonally, a **vector-clock detector** checks the memory-ordering
//! annotations: `Release` stores publish the writer's clock, `Acquire`
//! loads join it, `SeqCst` accesses additionally join the global
//! total-order clock, and `Relaxed` does neither — so a read that
//! observes another thread's write without a happens-before edge is
//! reported as an ordering race even though the model itself is
//! sequentially consistent at the value level.
//!
//! # Using it
//!
//! Write the concurrent scenario against [`sync`], [`thread`] and
//! [`hint`] (drop-in mirrors of the std atomics, `spawn`/`join`,
//! `yield_now` and `spin_loop`), then hand it to the checker:
//!
//! ```
//! use renaming_model::{model, sync::atomic::{AtomicUsize, Ordering}, sync::Arc, thread};
//!
//! model(|| {
//!     let counter = Arc::new(AtomicUsize::new(0));
//!     let clone = Arc::clone(&counter);
//!     let worker = thread::spawn(move || {
//!         clone.fetch_add(1, Ordering::SeqCst);
//!     });
//!     counter.fetch_add(1, Ordering::SeqCst);
//!     worker.join().unwrap();
//!     assert_eq!(counter.load(Ordering::SeqCst), 2);
//! });
//! ```
//!
//! The service's `sync_shim` module re-exports these types under
//! `--cfg renaming_model`, so the *real* `pool.rs` code paths — alone
//! and behind `NameService::acquire` — run under the checker in
//! `crates/service/src/model_tests.rs`; the suites in `tests/` model
//! the pool protocol in isolation and calibrate the ordering detector,
//! including mutants the checker must flag.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod clock;
pub mod hint;
mod report;
mod scheduler;
#[path = "sync.rs"]
mod sync_impl;
pub mod thread;

pub use clock::VClock;
pub use report::{Access, RaceReport, Report, Violation};

/// Model `std::sync`: atomics (under [`sync::atomic`]) and re-exported
/// [`sync::Arc`].
pub mod sync {
    pub use std::sync::Arc;

    /// Model `std::sync::atomic`.
    pub mod atomic {
        pub use crate::sync_impl::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
    }
}

use std::sync::Arc;

/// Configures and runs an exploration. The defaults are tuned for
/// small models (2–4 threads, a few dozen operations): preemption
/// bound 2 and a generous interleaving cap.
#[derive(Debug, Clone)]
pub struct Checker {
    preemption_bound: usize,
    max_interleavings: usize,
    max_steps: usize,
}

impl Default for Checker {
    fn default() -> Self {
        Self {
            preemption_bound: 2,
            max_interleavings: 200_000,
            max_steps: 10_000,
        }
    }
}

impl Checker {
    /// A checker with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maximum preemptions (involuntary context switches) per explored
    /// schedule. Within the bound, exploration is exhaustive.
    pub fn preemption_bound(mut self, bound: usize) -> Self {
        self.preemption_bound = bound;
        self
    }

    /// Cap on executed interleavings; hitting it makes the report
    /// incomplete.
    pub fn max_interleavings(mut self, cap: usize) -> Self {
        self.max_interleavings = cap;
        self
    }

    /// Per-interleaving step budget; exceeding it reports a livelock.
    pub fn max_steps(mut self, budget: usize) -> Self {
        self.max_steps = budget;
        self
    }

    /// Explores `f` under every schedule within the bound and returns
    /// what was found. `f` runs once per interleaving and must be
    /// deterministic apart from scheduling.
    pub fn check<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        scheduler::explore(
            Arc::new(f),
            self.preemption_bound,
            self.max_interleavings,
            self.max_steps,
        )
    }
}

/// Checks `f` with the default [`Checker`] and panics on any violation
/// or ordering race — the loom-style entry point for tests.
#[track_caller]
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    Checker::new().check(f).assert_clean();
}
