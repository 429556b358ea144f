//! Full probe-level execution traces.
//!
//! When enabled on an [`crate::Execution`], the runner records every
//! shared-memory step: which process probed which location and whether it
//! won. Traces power debugging, the contention analyses, and replay-style
//! assertions in tests (e.g. "the victim's probes all landed in batch 0
//! while it was starved").

use crate::ProcessId;

/// One shared-memory step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global step index (0-based, in execution order).
    pub step: u64,
    /// The scheduled process.
    pub pid: ProcessId,
    /// The probed location.
    pub location: usize,
    /// Whether the TAS was won.
    pub won: bool,
}

/// The ordered list of steps of one execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionTrace {
    events: Vec<TraceEvent>,
}

impl ExecutionTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event (runner-internal).
    pub(crate) fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// All events in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Locations ordered by how many probes they received, descending —
    /// the execution's contention hotspots.
    pub fn hotspots(&self) -> Vec<(usize, usize)> {
        let mut counts: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for e in &self.events {
            *counts.entry(e.location).or_insert(0) += 1;
        }
        let mut out: Vec<(usize, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// The winning step for each location that was won, keyed by location.
    pub fn wins(&self) -> Vec<TraceEvent> {
        self.events.iter().copied().filter(|e| e.won).collect()
    }

    /// Internal consistency check: at most one win per location, and wins
    /// precede every later losing probe of the same location.
    pub fn verify(&self) -> bool {
        let mut won_at: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        for e in &self.events {
            if e.won {
                if won_at.insert(e.location, e.step).is_some() {
                    return false; // double win
                }
            } else if let Some(&w) = won_at.get(&e.location) {
                if e.step < w {
                    return false; // lost before anyone won
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(step: u64, pid: usize, location: usize, won: bool) -> TraceEvent {
        TraceEvent {
            step,
            pid,
            location,
            won,
        }
    }

    #[test]
    fn records_and_filters_events() {
        let mut t = ExecutionTrace::new();
        assert!(t.is_empty());
        t.push(event(0, 1, 5, true));
        t.push(event(1, 2, 5, false));
        t.push(event(2, 1, 6, false));
        assert_eq!(t.len(), 3);
        let probes_of = |pid| t.events().iter().filter(|e| e.pid == pid).count();
        assert_eq!(probes_of(1), 2);
        assert_eq!(probes_of(2), 1);
        assert_eq!(t.wins().len(), 1);
    }

    #[test]
    fn hotspots_sorted_by_contention() {
        let mut t = ExecutionTrace::new();
        for i in 0..5 {
            t.push(event(i, 0, 9, false));
        }
        t.push(event(5, 0, 2, true));
        let hs = t.hotspots();
        assert_eq!(hs[0], (9, 5));
        assert_eq!(hs[1], (2, 1));
    }

    #[test]
    fn verify_accepts_legal_traces() {
        let mut t = ExecutionTrace::new();
        t.push(event(0, 0, 1, false));
        t.push(event(1, 1, 1, true));
        t.push(event(2, 2, 1, false));
        assert!(t.verify());
    }

    #[test]
    fn verify_rejects_double_wins() {
        let mut t = ExecutionTrace::new();
        t.push(event(0, 0, 1, true));
        t.push(event(1, 1, 1, true));
        assert!(!t.verify());
    }
}
