//! Experiment harness reproducing every quantitative claim of the paper.
//!
//! The paper is a theory paper; its "evaluation" is a set of theorems and
//! lemmas. The registry in [`experiments`] maps each to an experiment id
//! (E1–E14, A1–A2, plus tooling); this crate implements them, prints one
//! table per claim, and emits machine-readable JSON-lines records. The
//! repository's `EXPERIMENTS.md` catalogs every id and is
//! consistency-checked against the registry by a test.
//!
//! Run everything:
//!
//! ```text
//! cargo run -p renaming-bench --release --bin experiments -- all
//! cargo run -p renaming-bench --release --bin experiments -- e1 e7 --quick
//! cargo run -p renaming-bench --release --bin experiments -- all --threads 8
//! ```
//!
//! Experiment sweeps run on the monomorphic engine tier through the
//! [`sweep::Sweep`] harness: `MachineKind` fleets, `AdversaryKind`
//! schedulers, `FastRng` coins and per-worker `EngineScratch` reuse,
//! with trials optionally fanned out across cores (`--threads`,
//! default: all cores). Per-trial seeds are derived from the trial
//! index alone, so reports are byte-identical at any thread count.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod experiments;
mod harness;
pub mod machine_kind;
pub mod sweep;

pub use harness::Harness;
pub use machine_kind::{AnyMachine, MachineKind};
pub use sweep::{AdversaryKind, AnyAdversary, Sweep, SweepWorker, TrialSpec};
