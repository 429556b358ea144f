//! Asynchronous shared-memory execution model for renaming algorithms.
//!
//! This crate reproduces the model of §2 of *"Randomized loose renaming in
//! O(log log n) time"* (PODC 2013): `n` processes take *steps*, each step
//! consisting of local computation (including coin flips) followed by one
//! shared-memory operation — here always a test-and-set (TAS) on an indexed
//! location. The order of steps, and crashes, are controlled by an
//! **adversary**:
//!
//! * the *adaptive (strong)* adversary sees the full state of every process,
//!   including the outcome of coin flips, before each scheduling decision;
//! * the *oblivious* adversary fixes the schedule independently of the coin
//!   flips (e.g. the layered random-permutation schedule of the paper's §6
//!   lower bound).
//!
//! Algorithms are expressed as deterministic-given-coins step machines
//! ([`Renamer`]): the simulator asks a machine to [`Renamer::propose`] its
//! next shared-memory operation (this is where coins are flipped — and the
//! strong adversary gets to see the chosen location), schedules it at a
//! moment of the adversary's choosing, and reports the outcome via
//! [`Renamer::observe`].
//!
//! The same machines are run, unchanged, against real hardware atomics by
//! `renaming-core`'s concurrent driver — the simulator is how we measure
//! *step complexity* exactly, the threads are how we measure wall-clock
//! time.
//!
//! # The two-tier engine
//!
//! One generic engine powers two public entry points:
//!
//! * **Boxed tier** — [`Execution::run`] takes `Vec<Box<dyn Renamer>>`
//!   and a `Box<dyn Adversary>`. Use it when machines of different types
//!   share one execution, or when flexibility matters more than speed.
//! * **Monomorphic tier** — [`Execution::run_typed`] (and the
//!   scratch-reusing [`Execution::run_typed_in`]) takes concrete machine,
//!   adversary and RNG types. The whole per-probe loop monomorphizes:
//!   no machine boxes, no adversary vtables, coin flips inlined through
//!   [`Renamer::propose_typed`] / [`Renamer::step_typed`], and (with
//!   [`EngineScratch`]) no per-execution allocation in steady state.
//!   Pair it with a cheap seedable generator such as `renaming-core`'s
//!   xoshiro-based `FastRng` for large experiment sweeps — the
//!   `throughput` experiment in `renaming-bench` times this tier against
//!   the boxed one and, through a frozen seed-to-boxed ratio, holds it to
//!   ≥ 5× the steps/sec of the original (seed) engine.
//!
//! The tiers are the *same* engine function instantiated twice, so they
//! cannot drift: with equal seeds, machines, adversary and RNG type they
//! produce byte-identical [`ExecutionReport`]s, traces included. The
//! workspace's `engine_equivalence` integration suite asserts exactly
//! that across all three paper machines.
//!
//! # Example
//!
//! ```
//! use renaming_sim::adversary::RoundRobin;
//! use renaming_sim::{Action, Execution, Name, Renamer};
//! use rand::RngCore;
//!
//! /// A toy renamer: scan locations left to right.
//! struct Scan { next: usize, won: Option<Name> }
//!
//! impl Renamer for Scan {
//!     fn propose(&mut self, _rng: &mut dyn RngCore) -> Action {
//!         match self.won {
//!             Some(name) => Action::Done(name),
//!             None => Action::Probe(self.next),
//!         }
//!     }
//!     fn observe(&mut self, won: bool) {
//!         if won { self.won = Some(Name::new(self.next)) } else { self.next += 1 }
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machines: Vec<Box<dyn Renamer>> = (0..4)
//!     .map(|_| Box::new(Scan { next: 0, won: None }) as Box<dyn Renamer>)
//!     .collect();
//! let report = Execution::new(8)
//!     .adversary(Box::new(RoundRobin::new()))
//!     .seed(7)
//!     .run(machines)?;
//! assert_eq!(report.assigned_names().len(), 4);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod adversary;
mod crash;
mod error;
mod machine;
mod memory;
mod report;
mod runner;
mod trace;

pub use crash::CrashPlan;
pub use error::SimError;
pub use machine::{Action, MachineStats, Name, Renamer};
pub use memory::TasMemory;
pub use report::{ExecutionReport, ProcessOutcome};
pub use runner::{EngineScratch, Execution};
pub use trace::{ExecutionTrace, TraceEvent};

/// Identifier of a simulated process (its index in the machine vector).
pub type ProcessId = usize;
