//! The service-level oracle verdict: the history checker's report
//! combined with the service's own quiescent counters.
//!
//! The recording machinery lives in the dependency-free
//! [`renaming_oracle`] crate; this module only adds the pieces that
//! need the service — the worker conservation law and the agreement
//! between the history's live count and the backend's occupancy
//! counter. See [`crate::NameService::oracle_verdict`].

use renaming_oracle::{HistoryReport, WorkerCounts};

/// Everything the oracle can say about a finished run, produced by
/// [`NameService::oracle_verdict`](crate::NameService::oracle_verdict)
/// at quiescence.
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
/// let verdict = service.oracle_verdict().expect("oracle enabled");
/// assert!(verdict.is_clean());
/// assert!(verdict.drained());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OracleVerdict {
    /// The history checker's report: overlap, bounds, capacity,
    /// release matching, snapshot cuts.
    pub history: HistoryReport,
    /// The service's worker counters at verdict time.
    pub workers: WorkerCounts,
    /// The backend's own held-names counter at verdict time.
    pub held: usize,
}

impl OracleVerdict {
    /// The worker conservation law: every worker created is pooled or
    /// retired.
    pub fn workers_conserved(&self) -> bool {
        self.workers.conserved()
    }

    /// The history's live count agrees with the backend's occupancy
    /// counter — wins the history never saw returned are exactly the
    /// names the backend still counts held.
    pub fn held_matches_history(&self) -> bool {
        self.history.live_at_exit == self.held
    }

    /// Clean across every axis: no history violations, workers
    /// conserved, and history live count agreeing with the backend.
    pub fn is_clean(&self) -> bool {
        self.history.is_clean() && self.workers_conserved() && self.held_matches_history()
    }

    /// Clean *and* fully returned: the namespace drained to zero.
    pub fn drained(&self) -> bool {
        self.is_clean() && self.history.drained() && self.held == 0
    }
}
