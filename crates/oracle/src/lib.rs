//! Concurrency oracle for the renaming service: vector-clock event
//! recording plus a post-run history checker.
//!
//! The paper's safety claims are *history* properties — no two
//! processes ever hold the same name concurrently, and the loose
//! namespace bound is never exceeded at any point of the execution —
//! but the stress tests in this tree historically checked only
//! end-state invariants (occupancy tables after the fact). This crate
//! closes that gap with a small oracle whose one dependency is the
//! model checker's [`VClock`]:
//!
//! * **Recording.** Each participating thread records
//!   [`EventKind::AcquireStart`] / [`EventKind::AcquireWin`] /
//!   [`EventKind::Release`] / [`EventKind::GuardDrop`] events into its
//!   own append-only log, stamped with a dense per-participant
//!   [vector clock](VClock). Logs are merged once, at quiescence — the
//!   hot path touches only the recording thread's own state (an
//!   uncontended mutex plus relaxed counters), mirroring the shape of
//!   the service's `ServiceMetrics`.
//! * **Happens-before edges.** A release publishes the releaser's
//!   clock into a per-name *channel* cell **before** the backend slot
//!   is reset; the next winner of that name joins the channel clock
//!   into its own at win-record time. Because a name physically cannot
//!   be re-won until the previous release reset its slot, the channel
//!   read always observes the publish, so the recorded order is a
//!   sound under-approximation of the real synchronizes-with edges:
//!   any two holds of the same name in a correct run are ordered by
//!   the recorded happens-before relation.
//! * **Record-time double-issue detection.** Vector clocks alone
//!   cannot *prove* a double issue (a racing release could create a
//!   spurious edge that masks it), so each name also carries an atomic
//!   holder cell swapped at win- and release-record time. This detects
//!   a second win of a held name at recording granularity — the same
//!   strength as the hand-rolled occupancy tables the oracle replaces.
//! * **Checking.** [`History::check`] replays the merged logs in a
//!   linear extension of the recorded happens-before order (Kahn-style
//!   over the per-participant logs) and proves: no overlapping holds
//!   of one name (pairwise `release ≤ next-win` on clocks), names stay
//!   inside the loose namespace bound, live occupancy never exceeds
//!   the capacity, every release matches a prior win, and every win is
//!   released or live at exit.
//! * **Consistent snapshots.** [`Oracle::snapshot`] bumps a global
//!   epoch, Chandy–Lamport style. Participants record a
//!   [`EventKind::Marker`] when they first observe the new epoch —
//!   from the global counter or from a channel cell, so the marker
//!   rides the same per-name channels as the happens-before edges
//!   (churn on the names flushes them naturally). The checker
//!   verifies each cut is consistent (no event inside the cut depends
//!   on one outside it) and that live occupancy *at the cut* respects
//!   the capacity — an invariant asserted mid-churn, not after join.
//!
//! The crate is intentionally free of any dependency on the service
//! layer: the service calls [`Oracle::acquire_start`] /
//! [`Oracle::acquire_win`] / [`Oracle::release`] / [`Oracle::guard_drop`]
//! at its hook points, and the tests consume [`Oracle::verdict`].

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

pub use renaming_model::VClock;

mod history;

pub use history::{History, HistoryReport, SnapshotReport, Violation, WorkerCounts};

/// Lock a mutex, recovering the data if a previous holder panicked.
/// Oracle state stays meaningful across a panicking test thread: the
/// log merge at quiescence should report what *was* recorded, not
/// poison-cascade.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a participant did, as recorded in its event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The participant called into the acquire path.
    AcquireStart,
    /// The participant was issued `name`.
    AcquireWin {
        /// The issued name (zero-based slot index).
        name: usize,
    },
    /// The acquire attempt failed (namespace exhausted, poisoned, …).
    AcquireFail,
    /// The participant explicitly released `name`.
    Release {
        /// The released name.
        name: usize,
    },
    /// The participant's guard released `name` on drop (RAII path).
    GuardDrop {
        /// The released name.
        name: usize,
    },
    /// The participant observed a new snapshot epoch (Chandy–Lamport
    /// marker): every earlier event of this participant is inside the
    /// cut, everything from here on is outside it.
    Marker,
}

impl EventKind {
    /// The name this event issues or returns, if any.
    pub fn name(&self) -> Option<usize> {
        match *self {
            EventKind::AcquireWin { name }
            | EventKind::Release { name }
            | EventKind::GuardDrop { name } => Some(name),
            EventKind::AcquireStart | EventKind::AcquireFail | EventKind::Marker => None,
        }
    }
}

/// One recorded event: who, what, under which snapshot epoch, and the
/// recording participant's vector clock *after* ticking for this
/// event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Dense participant index (clock component) of the recorder.
    pub participant: usize,
    /// What happened.
    pub kind: EventKind,
    /// Snapshot epoch the event belongs to: the event is inside the
    /// cut of every snapshot with epoch greater than this value.
    pub epoch: u64,
    /// Vector clock at the event. Participant `p` ticks component `p`
    /// once per event it records, so `clock.component(participant)`
    /// equals this event's 1-based position in the participant's log —
    /// the checker leans on this to replay logs in happens-before order.
    pub clock: VClock,
}

/// Per-participant recording state, touched only by the owning thread
/// until the quiescence merge.
#[derive(Debug, Default)]
struct PartState {
    clock: VClock,
    epoch: u64,
    events: Vec<Event>,
}

/// One registered participant (one OS thread per oracle).
#[derive(Debug)]
struct Participant {
    index: usize,
    state: Mutex<PartState>,
}

/// Per-name cell: the happens-before channel (clock published by each
/// release, joined by the next win) and the record-time holder mark.
#[derive(Debug, Default)]
struct NameCell {
    /// `0` = free; otherwise `participant index + 1` of the recorded
    /// holder. Swapped with `SeqCst` at win/release record time.
    holder: AtomicUsize,
    channel: Mutex<Channel>,
}

#[derive(Debug, Default)]
struct Channel {
    clock: VClock,
    epoch: u64,
}

/// Counter-only view of an oracle mid-run: cheap to take while churn
/// is still in flight (no per-participant locks beyond the registry).
/// The full [`HistoryReport`] needs quiescence; this does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleSummary {
    /// Participants (threads) that recorded at least one event.
    pub participants: usize,
    /// `AcquireStart` events recorded.
    pub starts: u64,
    /// `AcquireWin` events recorded.
    pub wins: u64,
    /// Explicit `Release` events recorded.
    pub releases: u64,
    /// `GuardDrop` release events recorded.
    pub guard_drops: u64,
    /// `AcquireFail` events recorded.
    pub fails: u64,
    /// Wins not yet returned: `wins - releases - guard_drops`,
    /// saturating (counters are read without a barrier mid-run).
    pub live: u64,
    /// Snapshot epochs taken so far.
    pub snapshots: u64,
    /// Violations flagged at record time (double issues).
    pub record_violations: usize,
}

impl OracleSummary {
    /// Releases of either flavor (explicit + guard drop).
    pub fn released(&self) -> u64 {
        self.releases + self.guard_drops
    }
}

static ORACLE_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Registry mapping oracle id → this thread's participant handle.
    /// Entries whose oracle died (strong count collapsed to the TLS
    /// reference) are pruned once the registry grows past a threshold,
    /// so long-lived threads crossing many oracles do not leak.
    static PARTICIPANTS: RefCell<Vec<(u64, Arc<Participant>)>> =
        const { RefCell::new(Vec::new()) };
}

/// How many TLS registry entries accumulate before dead oracles are
/// pruned.
const TLS_PRUNE_THRESHOLD: usize = 32;

/// The recording half of the oracle: hand one (inside an `Arc`) to a
/// `NameService` via its builder and call [`Oracle::verdict`] after
/// the run.
///
/// ```
/// use renaming_oracle::Oracle;
///
/// let oracle = Oracle::new(8, 4);
/// oracle.acquire_start();
/// oracle.acquire_win(3);
/// oracle.release(3);
/// let report = oracle.verdict();
/// assert!(report.is_clean() && report.drained());
/// ```
pub struct Oracle {
    id: u64,
    namespace_size: usize,
    capacity: usize,
    epoch: AtomicU64,
    participants: Mutex<Vec<Arc<Participant>>>,
    cells: Vec<NameCell>,
    starts: AtomicU64,
    wins: AtomicU64,
    releases: AtomicU64,
    guard_drops: AtomicU64,
    fails: AtomicU64,
    violations: Mutex<Vec<Violation>>,
}

impl std::fmt::Debug for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Oracle")
            .field("namespace_size", &self.namespace_size)
            .field("capacity", &self.capacity)
            .field("summary", &self.summary())
            .finish()
    }
}

impl Oracle {
    /// Create an oracle for a namespace of `namespace_size` slots and
    /// a participation bound of `capacity` (the `n` of the loose
    /// renaming instance: at most `capacity` names may be live at
    /// once, and issued names must lie in `0..namespace_size`).
    pub fn new(namespace_size: usize, capacity: usize) -> Self {
        Oracle {
            id: ORACLE_IDS.fetch_add(1, Ordering::Relaxed),
            namespace_size,
            capacity,
            epoch: AtomicU64::new(0),
            participants: Mutex::new(Vec::new()),
            cells: (0..namespace_size).map(|_| NameCell::default()).collect(),
            starts: AtomicU64::new(0),
            wins: AtomicU64::new(0),
            releases: AtomicU64::new(0),
            guard_drops: AtomicU64::new(0),
            fails: AtomicU64::new(0),
            violations: Mutex::new(Vec::new()),
        }
    }

    /// Namespace bound issued names are checked against.
    pub fn namespace_size(&self) -> usize {
        self.namespace_size
    }

    /// Maximum number of simultaneously live names tolerated.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// This thread's participant handle, registering it on first use.
    fn participant(&self) -> Arc<Participant> {
        PARTICIPANTS.with(|slot| {
            let mut registry = slot.borrow_mut();
            if let Some((_, part)) = registry.iter().find(|(id, _)| *id == self.id) {
                return part.clone();
            }
            if registry.len() >= TLS_PRUNE_THRESHOLD {
                // An entry whose only remaining reference is ours
                // belongs to a dropped oracle.
                registry.retain(|(_, part)| Arc::strong_count(part) > 1);
            }
            let part = {
                let mut all = lock(&self.participants);
                let part = Arc::new(Participant {
                    index: all.len(),
                    state: Mutex::new(PartState::default()),
                });
                all.push(part.clone());
                part
            };
            registry.push((self.id, part.clone()));
            part
        })
    }

    /// Tick the participant's clock and append the event.
    fn push(part: &Participant, st: &mut PartState, kind: EventKind) {
        st.clock.tick(part.index);
        st.events.push(Event {
            participant: part.index,
            kind,
            epoch: st.epoch,
            clock: st.clock.clone(),
        });
    }

    /// Move the participant to `target` epoch if it is newer,
    /// recording the Chandy–Lamport marker event.
    fn enter_epoch(part: &Participant, st: &mut PartState, target: u64) {
        if target > st.epoch {
            st.epoch = target;
            Self::push(part, st, EventKind::Marker);
        }
    }

    /// Record an acquire attempt starting on this thread.
    pub fn acquire_start(&self) {
        self.starts.fetch_add(1, Ordering::Relaxed);
        let part = self.participant();
        let mut st = lock(&part.state);
        let target = self.epoch.load(Ordering::Acquire);
        Self::enter_epoch(&part, &mut st, target);
        Self::push(&part, &mut st, EventKind::AcquireStart);
    }

    /// Record this thread winning `name`. Must be called after the
    /// underlying slot acquisition succeeds and before the name is
    /// surfaced to the caller.
    pub fn acquire_win(&self, name: usize) {
        self.wins.fetch_add(1, Ordering::Relaxed);
        let part = self.participant();
        let mut st = lock(&part.state);
        let mut target = self.epoch.load(Ordering::Acquire);
        let inherited = self.cells.get(name).map(|cell| {
            let chan = lock(&cell.channel);
            target = target.max(chan.epoch);
            chan.clock.clone()
        });
        Self::enter_epoch(&part, &mut st, target);
        if let Some(chan_clock) = inherited {
            st.clock.join(&chan_clock);
        }
        Self::push(&part, &mut st, EventKind::AcquireWin { name });
        drop(st);
        if let Some(cell) = self.cells.get(name) {
            let prev = cell.holder.swap(part.index + 1, Ordering::SeqCst);
            if prev != 0 {
                lock(&self.violations).push(Violation::DoubleIssue {
                    name,
                    first: prev - 1,
                    second: part.index,
                });
            }
        }
    }

    /// Record an acquire attempt failing on this thread.
    pub fn acquire_fail(&self) {
        self.fails.fetch_add(1, Ordering::Relaxed);
        let part = self.participant();
        let mut st = lock(&part.state);
        let target = self.epoch.load(Ordering::Acquire);
        Self::enter_epoch(&part, &mut st, target);
        Self::push(&part, &mut st, EventKind::AcquireFail);
    }

    /// Record an explicit release of `name`. Must be called *before*
    /// the backend resets the slot, so the published clock is visible
    /// to the name's next winner.
    pub fn release(&self, name: usize) {
        self.record_release(name, false);
    }

    /// Record a guard-drop (RAII) release of `name`. Same ordering
    /// contract as [`Oracle::release`].
    pub fn guard_drop(&self, name: usize) {
        self.record_release(name, true);
    }

    fn record_release(&self, name: usize, guard: bool) {
        if guard {
            self.guard_drops.fetch_add(1, Ordering::Relaxed);
        } else {
            self.releases.fetch_add(1, Ordering::Relaxed);
        }
        let part = self.participant();
        let mut st = lock(&part.state);
        let target = self.epoch.load(Ordering::Acquire);
        Self::enter_epoch(&part, &mut st, target);
        let kind = if guard {
            EventKind::GuardDrop { name }
        } else {
            EventKind::Release { name }
        };
        Self::push(&part, &mut st, kind);
        if let Some(cell) = self.cells.get(name) {
            let mut chan = lock(&cell.channel);
            chan.clock.join(&st.clock);
            chan.epoch = chan.epoch.max(st.epoch);
            drop(chan);
            cell.holder.store(0, Ordering::SeqCst);
        }
    }

    /// Take a Chandy–Lamport-style consistent snapshot: bump the
    /// global epoch and return the new epoch number. Participants
    /// record a marker when they first observe the epoch (from this
    /// counter or from a per-name channel); the checker later proves
    /// the cut is consistent and reports live occupancy at the cut.
    pub fn snapshot(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Cheap counter-only summary; safe to call mid-run.
    pub fn summary(&self) -> OracleSummary {
        let wins = self.wins.load(Ordering::Relaxed);
        let releases = self.releases.load(Ordering::Relaxed);
        let guard_drops = self.guard_drops.load(Ordering::Relaxed);
        OracleSummary {
            participants: lock(&self.participants).len(),
            starts: self.starts.load(Ordering::Relaxed),
            wins,
            releases,
            guard_drops,
            fails: self.fails.load(Ordering::Relaxed),
            live: wins.saturating_sub(releases + guard_drops),
            snapshots: self.epoch.load(Ordering::SeqCst),
            record_violations: lock(&self.violations).len(),
        }
    }

    /// Merge every participant's log into a standalone [`History`].
    /// Intended at quiescence (all recording threads joined); calling
    /// it mid-run is safe but may observe a torn prefix, which the
    /// checker reports as incomplete rather than panicking.
    pub fn history(&self) -> History {
        let parts: Vec<Arc<Participant>> = lock(&self.participants).clone();
        let mut events = vec![Vec::new(); parts.len()];
        for part in &parts {
            events[part.index] = lock(&part.state).events.clone();
        }
        History {
            namespace_size: self.namespace_size,
            capacity: self.capacity,
            snapshots: self.epoch.load(Ordering::SeqCst),
            events,
            recorded: lock(&self.violations).clone(),
        }
    }

    /// Merge and check in one step: `self.history().check()`.
    pub fn verdict(&self) -> HistoryReport {
        self.history().check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn sequential_acquire_release_is_clean() {
        let oracle = Oracle::new(8, 4);
        for i in 0..4 {
            oracle.acquire_start();
            oracle.acquire_win(i);
        }
        for i in 0..4 {
            oracle.release(i);
        }
        let report = oracle.verdict();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.drained());
        assert_eq!(report.wins, 4);
        assert_eq!(report.releases, 4);
        assert_eq!(report.max_live, 4);
        assert_eq!(report.live_at_exit, 0);
        assert!(report.complete);
    }

    #[test]
    fn double_issue_is_flagged_at_record_time_and_in_replay() {
        let oracle = Oracle::new(8, 4);
        oracle.acquire_start();
        oracle.acquire_win(3);
        oracle.acquire_start();
        oracle.acquire_win(3); // second win of a held name
        let report = oracle.verdict();
        assert!(!report.is_clean());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DoubleIssue { name: 3, .. })));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::OverlappingHolds { name: 3, .. })));
    }

    #[test]
    fn release_without_hold_is_flagged() {
        let oracle = Oracle::new(8, 4);
        oracle.release(2);
        let report = oracle.verdict();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ReleaseWithoutHold { name: 2, .. })));
    }

    #[test]
    fn out_of_bounds_name_is_flagged() {
        let oracle = Oracle::new(4, 4);
        oracle.acquire_start();
        oracle.acquire_win(4); // namespace is 0..4
        let report = oracle.verdict();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NameOutOfBounds { name: 4, .. })));
    }

    #[test]
    fn capacity_excess_is_flagged() {
        let oracle = Oracle::new(8, 2);
        for i in 0..3 {
            oracle.acquire_start();
            oracle.acquire_win(i);
        }
        let report = oracle.verdict();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::CapacityExceeded { live: 3, capacity: 2 })));
        assert_eq!(report.max_live, 3);
    }

    #[test]
    fn unreleased_win_is_live_at_exit_not_a_violation() {
        let oracle = Oracle::new(8, 4);
        oracle.acquire_start();
        oracle.acquire_win(5);
        let report = oracle.verdict();
        assert!(report.is_clean());
        assert!(!report.drained());
        assert_eq!(report.live_at_exit, 1);
    }

    #[test]
    fn threaded_churn_with_snapshots_yields_consistent_cuts() {
        let oracle = Arc::new(Oracle::new(16, 8));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let oracle = Arc::clone(&oracle);
                scope.spawn(move || {
                    // Each thread owns names {t, t+4, t+8} and churns
                    // them; ownership means no real overlap exists.
                    let mine = [t, t + 4, t + 8];
                    for round in 0..200 {
                        let name = mine[round % mine.len()];
                        oracle.acquire_start();
                        oracle.acquire_win(name);
                        if round % 2 == 0 {
                            oracle.release(name);
                        } else {
                            oracle.guard_drop(name);
                        }
                    }
                });
            }
            for _ in 0..3 {
                std::thread::yield_now();
                oracle.snapshot();
            }
        });
        let report = oracle.verdict();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.drained());
        assert_eq!(report.wins, 800);
        assert_eq!(report.snapshots.len(), 3);
        for snap in &report.snapshots {
            assert!(snap.consistent, "inconsistent cut: {snap:?}");
            assert!(snap.live_at_cut <= 8);
        }
        let summary = oracle.summary();
        assert_eq!(summary.wins, 800);
        assert_eq!(summary.released(), 800);
        assert_eq!(summary.live, 0);
    }

    #[test]
    fn handoff_chain_is_ordered_by_the_name_channel() {
        // Thread A wins and releases name 0; thread B then wins it.
        // The channel join must order A's release before B's win even
        // though A and B never otherwise synchronize.
        let oracle = Arc::new(Oracle::new(4, 2));
        let handed = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            {
                let oracle = Arc::clone(&oracle);
                let handed = Arc::clone(&handed);
                scope.spawn(move || {
                    oracle.acquire_start();
                    oracle.acquire_win(0);
                    oracle.release(0);
                    handed.store(true, Ordering::Release);
                });
            }
            {
                let oracle = Arc::clone(&oracle);
                let handed = Arc::clone(&handed);
                scope.spawn(move || {
                    while !handed.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    oracle.acquire_start();
                    oracle.acquire_win(0);
                    oracle.release(0);
                });
            }
        });
        let report = oracle.verdict();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.wins, 2);
        assert!(report.drained());
    }

    #[test]
    fn summary_counts_mid_run_state() {
        let oracle = Oracle::new(8, 4);
        oracle.acquire_start();
        oracle.acquire_win(1);
        oracle.acquire_start();
        oracle.acquire_fail();
        let summary = oracle.summary();
        assert_eq!(summary.starts, 2);
        assert_eq!(summary.wins, 1);
        assert_eq!(summary.fails, 1);
        assert_eq!(summary.live, 1);
        assert_eq!(summary.participants, 1);
        assert_eq!(summary.record_violations, 0);
    }

    #[test]
    fn worker_counts_conservation_law() {
        let balanced = WorkerCounts {
            created: 5,
            pooled: 4,
            retired: 1,
        };
        assert!(balanced.conserved());
        let leaky = WorkerCounts {
            created: 5,
            pooled: 3,
            retired: 1,
        };
        assert!(!leaky.conserved());
    }
}
