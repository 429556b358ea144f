//! What a [`Checker`](crate::Checker) run reports back: exploration
//! statistics, the first schedule-level violation found (assertion
//! panic, deadlock, livelock), and every distinct ordering race the
//! vector-clock detector observed.

use std::panic::Location;

/// One side of a detected ordering race: which thread touched the
/// atomic, with which memory ordering, from which source location.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Access {
    /// Model thread id of the accessor.
    pub thread: usize,
    /// The `Ordering` the access was performed with, rendered as text.
    pub ordering: String,
    /// `file:line:column` of the load/store call site.
    pub location: String,
}

/// A cross-thread access pair with no happens-before edge between the
/// store and the load that observed it — the model-level analogue of a
/// data race: the code is relying on an ordering edge the annotations
/// do not establish.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RaceReport {
    /// `file:line:column` where the atomic was created — its identity.
    pub atomic: String,
    /// The store whose value was observed.
    pub store: Access,
    /// The load that observed it without an intervening release/acquire
    /// (or SeqCst) edge.
    pub load: Access,
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unsynchronized read of atomic created at {}: thread {} stored ({}) at {}, \
             thread {} loaded ({}) at {} with no happens-before edge",
            self.atomic,
            self.store.thread,
            self.store.ordering,
            self.store.location,
            self.load.thread,
            self.load.ordering,
            self.load.location
        )
    }
}

/// A schedule-level failure: the checker found an interleaving in which
/// the model breaks. The `schedule` is the decision trace (one choice
/// index per scheduling decision) that reproduces it deterministically.
#[derive(Debug, Clone)]
pub enum Violation {
    /// A model thread panicked (an assertion in the model failed).
    Panic {
        /// The panic payload, if it was a string.
        message: String,
        /// The thread that panicked.
        thread: usize,
        /// The decision trace reproducing the failing interleaving.
        schedule: Vec<usize>,
    },
    /// Every unfinished thread is blocked joining an unfinished thread
    /// — a join cycle, the only way a model thread can block.
    Deadlock {
        /// `(thread id, status, last yield-point location)` for every
        /// unfinished thread.
        waiting: Vec<(usize, String, String)>,
        /// The decision trace reproducing the deadlock.
        schedule: Vec<usize>,
    },
    /// The execution exceeded the per-interleaving step budget without
    /// finishing — threads are runnable but not progressing.
    Livelock {
        /// The step budget that was exhausted.
        steps: usize,
        /// The decision trace of the runaway interleaving (truncated to
        /// the budget).
        schedule: Vec<usize>,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Panic { message, thread, schedule } => write!(
                f,
                "model thread {thread} panicked: {message} (schedule {schedule:?})"
            ),
            Violation::Deadlock { waiting, schedule } => {
                write!(f, "deadlock: every unfinished thread is blocked —")?;
                for (tid, status, loc) in waiting {
                    write!(f, " [thread {tid}: {status} at {loc}]")?;
                }
                write!(f, " (schedule {schedule:?})")
            }
            Violation::Livelock { steps, schedule } => write!(
                f,
                "livelock: step budget of {steps} exhausted without completion \
                 (schedule prefix {:?}…)",
                &schedule[..schedule.len().min(64)]
            ),
        }
    }
}

/// The outcome of a [`Checker::check`](crate::Checker::check) run.
#[derive(Debug)]
pub struct Report {
    /// How many interleavings the DFS executed.
    pub interleavings: usize,
    /// Whether the DFS exhausted every schedule within the preemption
    /// bound (`false` when the interleaving cap was hit first, or when
    /// exploration stopped early at a violation).
    pub complete: bool,
    /// The first schedule-level violation found, if any. Exploration
    /// stops at the first violation — its `schedule` reproduces it.
    pub violation: Option<Violation>,
    /// Every distinct ordering race observed across all explored
    /// interleavings (deduplicated by atomic + access locations).
    pub races: Vec<RaceReport>,
    /// The largest number of preemptions any explored schedule used —
    /// always ≤ the configured bound.
    pub max_preemptions: usize,
    /// The longest explored schedule, in scheduling decisions.
    pub max_steps: usize,
}

impl Report {
    /// `true` when no violation was found and no race was detected.
    pub fn is_clean(&self) -> bool {
        self.violation.is_none() && self.races.is_empty()
    }

    /// Panics with a full description unless the run was clean.
    /// The loom-style entry point [`crate::model`] calls this.
    #[track_caller]
    pub fn assert_clean(&self) {
        if let Some(violation) = &self.violation {
            panic!(
                "model check failed after {} interleavings: {violation}",
                self.interleavings
            );
        }
        if !self.races.is_empty() {
            let mut text = format!(
                "model check found {} ordering race(s) across {} interleavings:",
                self.races.len(),
                self.interleavings
            );
            for race in &self.races {
                text.push_str("\n  - ");
                text.push_str(&race.to_string());
            }
            panic!("{text}");
        }
    }
}

/// Renders a `#[track_caller]` location as `file:line:column`.
pub(crate) fn render_location(location: &'static Location<'static>) -> String {
    format!("{}:{}:{}", location.file(), location.line(), location.column())
}
