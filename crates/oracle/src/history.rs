//! The merged history and its checker.
//!
//! [`History::check`] replays the per-participant logs in a linear
//! extension of the recorded happens-before order and layers three
//! independent proofs on top:
//!
//! 1. **Replay invariants** — along the extension: issued names stay
//!    in bounds, live occupancy never exceeds the capacity, every
//!    release matches an open hold.
//! 2. **Pairwise hold exclusion** — for every pair of holds of the
//!    same name, one's release happens before the other's win under
//!    the vector-clock order. This is order-insensitive: it holds for
//!    *every* linear extension, which is exactly the paper's "no two
//!    processes hold the same name concurrently".
//! 3. **Snapshot cuts** — for every epoch, the cut induced by the
//!    markers is consistent (closed under happens-before) and live
//!    occupancy at the cut respects the capacity.

use crate::{Event, EventKind, VClock};

/// A merged, immutable execution history: per-participant event logs
/// plus the bounds they were recorded against. Produced by
/// [`Oracle::history`](crate::Oracle::history); checkable offline.
#[derive(Debug, Clone)]
pub struct History {
    /// Issued names must lie in `0..namespace_size`.
    pub namespace_size: usize,
    /// At most this many names may be live at once.
    pub capacity: usize,
    /// Snapshot epochs taken during the run.
    pub snapshots: u64,
    /// `events[p]` is participant `p`'s append-only log, in program
    /// order.
    pub events: Vec<Vec<Event>>,
    /// Violations already flagged at record time (double issues seen
    /// by the per-name holder cells).
    pub recorded: Vec<Violation>,
}

/// A safety violation found at record time or by the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A name was issued while the holder cell still marked it held —
    /// caught at record time, the same guarantee as the occupancy
    /// tables the oracle replaces.
    DoubleIssue {
        /// The doubly-issued name.
        name: usize,
        /// Participant recorded as still holding the name.
        first: usize,
        /// Participant that won the name again.
        second: usize,
    },
    /// Two holds of one name are unordered under happens-before:
    /// neither hold's release provably precedes the other's win.
    OverlappingHolds {
        /// The name held twice.
        name: usize,
        /// Participant of the first (log-merge order) hold.
        first: usize,
        /// Participant of the second hold.
        second: usize,
    },
    /// An issued name fell outside `0..namespace_size`.
    NameOutOfBounds {
        /// The out-of-range name.
        name: usize,
        /// The allowed bound.
        namespace_size: usize,
    },
    /// Live occupancy exceeded the capacity along the replay or at a
    /// snapshot cut.
    CapacityExceeded {
        /// The occupancy reached.
        live: usize,
        /// The allowed bound.
        capacity: usize,
    },
    /// A release event had no matching open hold of that name.
    ReleaseWithoutHold {
        /// The released name.
        name: usize,
        /// Participant that recorded the spurious release.
        participant: usize,
    },
    /// A snapshot cut was not closed under happens-before: an event
    /// inside the cut depends on one outside it.
    InconsistentCut {
        /// The snapshot epoch whose cut failed.
        epoch: u64,
        /// A participant owning an offending in-cut event.
        participant: usize,
    },
    /// The logs could not be replayed to completion — some event's
    /// clock references events missing from the merge (a torn mid-run
    /// merge), so replay-dependent checks cover only a prefix.
    UnorderedHistory {
        /// Events left unprocessed when replay stalled.
        remaining: usize,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::DoubleIssue { name, first, second } => write!(
                f,
                "double issue: name {name} issued to participant {second} while held by {first}"
            ),
            Violation::OverlappingHolds { name, first, second } => write!(
                f,
                "overlapping holds: name {name} holds by participants {first} and {second} are unordered"
            ),
            Violation::NameOutOfBounds { name, namespace_size } => {
                write!(f, "name {name} outside namespace 0..{namespace_size}")
            }
            Violation::CapacityExceeded { live, capacity } => {
                write!(f, "live occupancy {live} exceeded capacity {capacity}")
            }
            Violation::ReleaseWithoutHold { name, participant } => {
                write!(f, "participant {participant} released name {name} without holding it")
            }
            Violation::InconsistentCut { epoch, participant } => write!(
                f,
                "snapshot {epoch}: participant {participant} has an in-cut event depending outside the cut"
            ),
            Violation::UnorderedHistory { remaining } => {
                write!(f, "history replay stalled with {remaining} events unordered")
            }
        }
    }
}

/// Live occupancy at one snapshot cut, as proved by the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotReport {
    /// The epoch this cut belongs to (1-based).
    pub epoch: u64,
    /// Whether the cut is consistent (closed under happens-before).
    pub consistent: bool,
    /// Names live at the cut: wins minus releases inside it.
    pub live_at_cut: usize,
}

/// The service's worker conservation law, checked at quiescence:
/// every worker ever created is pooled or retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerCounts {
    /// Workers ever created by the service.
    pub created: u64,
    /// Workers idle in the checkout pool.
    pub pooled: u64,
    /// Workers dropped by the sharded pool at check-in.
    pub retired: u64,
}

impl WorkerCounts {
    /// `created == pooled + retired` — no worker leaked, none
    /// double-counted.
    pub fn conserved(&self) -> bool {
        self.created == self.pooled + self.retired
    }
}

/// Everything the checker proved (or disproved) about a history.
#[derive(Debug, Clone)]
pub struct HistoryReport {
    /// Participants that recorded events.
    pub participants: usize,
    /// Total events across all logs (markers included).
    pub events: usize,
    /// `AcquireStart` events.
    pub starts: u64,
    /// `AcquireWin` events.
    pub wins: u64,
    /// Explicit `Release` events.
    pub releases: u64,
    /// `GuardDrop` events.
    pub guard_drops: u64,
    /// `AcquireFail` events.
    pub fails: u64,
    /// `Marker` events.
    pub markers: u64,
    /// Wins never released: live occupancy when recording stopped.
    pub live_at_exit: usize,
    /// Peak live occupancy along the replayed linear extension.
    pub max_live: usize,
    /// Whether replay consumed every event (false only for torn
    /// mid-run merges; see [`Violation::UnorderedHistory`]).
    pub complete: bool,
    /// One entry per snapshot epoch, in epoch order.
    pub snapshots: Vec<SnapshotReport>,
    /// Every violation found, record-time and checker both.
    pub violations: Vec<Violation>,
}

impl HistoryReport {
    /// No violations of any kind.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Clean *and* every win returned: the namespace drained to zero.
    pub fn drained(&self) -> bool {
        self.complete && self.live_at_exit == 0
    }

    /// Releases of either flavor (explicit + guard drop).
    pub fn released(&self) -> u64 {
        self.releases + self.guard_drops
    }
}

/// One hold of a name reconstructed during replay.
struct Hold {
    participant: usize,
    win_clock: VClock,
    release_clock: Option<VClock>,
}

impl History {
    /// Replay and check the history; see the module docs for what is
    /// proved. Never panics: unparseable situations become
    /// [`Violation`] entries instead.
    pub fn check(&self) -> HistoryReport {
        let nparts = self.events.len();
        let total: usize = self.events.iter().map(Vec::len).sum();
        let mut violations = self.recorded.clone();

        // Event-kind tallies are independent of replay order.
        let (mut starts, mut wins, mut releases) = (0u64, 0u64, 0u64);
        let (mut guard_drops, mut fails, mut markers) = (0u64, 0u64, 0u64);
        for event in self.events.iter().flatten() {
            match event.kind {
                EventKind::AcquireStart => starts += 1,
                EventKind::AcquireWin { .. } => wins += 1,
                EventKind::AcquireFail => fails += 1,
                EventKind::Release { .. } => releases += 1,
                EventKind::GuardDrop { .. } => guard_drops += 1,
                EventKind::Marker => markers += 1,
            }
        }

        // 1) Kahn-style replay: an event is ready once, for every
        // other participant q, its clock's q-component is covered by
        // the events of q already replayed. Per-participant logs are
        // consumed in order, so the result is a linear extension of
        // the recorded happens-before relation.
        let mut done = vec![0usize; nparts];
        let mut processed = 0usize;
        let mut holds: Vec<Vec<Hold>> =
            (0..self.namespace_size).map(|_| Vec::new()).collect();
        let mut open: Vec<Vec<usize>> = vec![Vec::new(); self.namespace_size];
        let mut live = 0usize;
        let mut max_live = 0usize;
        let mut complete = true;
        let mut capacity_flagged = false;
        let mut bounds_flagged: Vec<usize> = Vec::new();
        loop {
            let mut progressed = false;
            for p in 0..nparts {
                while done[p] < self.events[p].len() {
                    let event = &self.events[p][done[p]];
                    let ready =
                        (0..nparts).all(|q| q == p || event.clock.component(q) <= done[q] as u64);
                    if !ready {
                        break;
                    }
                    done[p] += 1;
                    processed += 1;
                    progressed = true;
                    match event.kind {
                        EventKind::AcquireWin { name } => {
                            if name >= self.namespace_size {
                                if !bounds_flagged.contains(&name) {
                                    bounds_flagged.push(name);
                                    violations.push(Violation::NameOutOfBounds {
                                        name,
                                        namespace_size: self.namespace_size,
                                    });
                                }
                                continue;
                            }
                            open[name].push(holds[name].len());
                            holds[name].push(Hold {
                                participant: p,
                                win_clock: event.clock.clone(),
                                release_clock: None,
                            });
                            live += 1;
                            max_live = max_live.max(live);
                            if live > self.capacity && !capacity_flagged {
                                capacity_flagged = true;
                                violations.push(Violation::CapacityExceeded {
                                    live,
                                    capacity: self.capacity,
                                });
                            }
                        }
                        EventKind::Release { name } | EventKind::GuardDrop { name } => {
                            if name >= self.namespace_size {
                                continue;
                            }
                            if let Some(hold_index) = open[name].first().copied() {
                                open[name].remove(0);
                                holds[name][hold_index].release_clock =
                                    Some(event.clock.clone());
                                live -= 1;
                            } else {
                                violations.push(Violation::ReleaseWithoutHold {
                                    name,
                                    participant: p,
                                });
                            }
                        }
                        EventKind::AcquireStart
                        | EventKind::AcquireFail
                        | EventKind::Marker => {}
                    }
                }
            }
            if processed == total {
                break;
            }
            if !progressed {
                complete = false;
                violations.push(Violation::UnorderedHistory {
                    remaining: total - processed,
                });
                break;
            }
        }

        // 2) Pairwise hold exclusion per name: for holds i < j (in
        // replay order), i's release must happen before j's win, or
        // j's release before i's win — otherwise the two holds are
        // concurrent. Order-insensitive, so this covers every linear
        // extension, not just the replayed one.
        for (name, name_holds) in holds.iter().enumerate() {
            for i in 0..name_holds.len() {
                for j in (i + 1)..name_holds.len() {
                    let (a, b) = (&name_holds[i], &name_holds[j]);
                    let a_before_b = a
                        .release_clock
                        .as_ref()
                        .is_some_and(|r| r.leq(&b.win_clock));
                    let b_before_a = b
                        .release_clock
                        .as_ref()
                        .is_some_and(|r| r.leq(&a.win_clock));
                    if !a_before_b && !b_before_a {
                        violations.push(Violation::OverlappingHolds {
                            name,
                            first: a.participant,
                            second: b.participant,
                        });
                    }
                }
            }
        }

        // 3) Snapshot cuts. A participant's events carry monotone
        // epochs, so "events with epoch < E" is a log prefix; the cut
        // is consistent iff every in-cut event's clock is covered by
        // the per-participant prefix lengths.
        let mut snapshots = Vec::with_capacity(self.snapshots as usize);
        for epoch in 1..=self.snapshots {
            let cut: Vec<usize> = self
                .events
                .iter()
                .map(|log| log.iter().take_while(|e| e.epoch < epoch).count())
                .collect();
            let mut consistent = true;
            let (mut cut_wins, mut cut_releases) = (0usize, 0usize);
            for (p, log) in self.events.iter().enumerate() {
                for event in &log[..cut[p]] {
                    let covered = (0..nparts).all(|q| event.clock.component(q) <= cut[q] as u64);
                    if !covered && consistent {
                        consistent = false;
                        violations.push(Violation::InconsistentCut {
                            epoch,
                            participant: p,
                        });
                    }
                    match event.kind {
                        EventKind::AcquireWin { .. } => cut_wins += 1,
                        EventKind::Release { .. } | EventKind::GuardDrop { .. } => {
                            cut_releases += 1
                        }
                        _ => {}
                    }
                }
            }
            let live_at_cut = cut_wins.saturating_sub(cut_releases);
            if live_at_cut > self.capacity && !capacity_flagged {
                capacity_flagged = true;
                violations.push(Violation::CapacityExceeded {
                    live: live_at_cut,
                    capacity: self.capacity,
                });
            }
            snapshots.push(SnapshotReport {
                epoch,
                consistent,
                live_at_cut,
            });
        }

        let live_at_exit = if complete {
            live
        } else {
            wins.saturating_sub(releases + guard_drops) as usize
        };

        HistoryReport {
            participants: nparts,
            events: total,
            starts,
            wins,
            releases,
            guard_drops,
            fails,
            markers,
            live_at_exit,
            max_live,
            complete,
            snapshots,
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An event whose clock ticks component `i` `ticks[i]` times.
    fn event(participant: usize, kind: EventKind, epoch: u64, ticks: &[u64]) -> Event {
        let mut clock = VClock::new();
        for (index, &count) in ticks.iter().enumerate() {
            for _ in 0..count {
                clock.tick(index);
            }
        }
        Event {
            participant,
            kind,
            epoch,
            clock,
        }
    }

    /// Two participants whose holds of name 0 carry no ordering edge:
    /// the checker must call them overlapping even though each log is
    /// individually well formed.
    #[test]
    fn concurrent_holds_without_channel_edge_overlap() {
        let history = History {
            namespace_size: 4,
            capacity: 4,
            snapshots: 0,
            events: vec![
                vec![
                    event(0, EventKind::AcquireWin { name: 0 }, 0, &[1]),
                    event(0, EventKind::Release { name: 0 }, 0, &[2]),
                ],
                vec![
                    event(1, EventKind::AcquireWin { name: 0 }, 0, &[0, 1]),
                    event(1, EventKind::Release { name: 0 }, 0, &[0, 2]),
                ],
            ],
            recorded: Vec::new(),
        };
        let report = history.check();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::OverlappingHolds { name: 0, .. })));
    }

    /// Same two holds, but participant 1's win joins participant 0's
    /// release clock (the channel edge): ordered, hence clean.
    #[test]
    fn channel_edge_orders_sequential_holds() {
        let history = History {
            namespace_size: 4,
            capacity: 4,
            snapshots: 0,
            events: vec![
                vec![
                    event(0, EventKind::AcquireWin { name: 0 }, 0, &[1]),
                    event(0, EventKind::Release { name: 0 }, 0, &[2]),
                ],
                vec![
                    event(1, EventKind::AcquireWin { name: 0 }, 0, &[2, 1]),
                    event(1, EventKind::Release { name: 0 }, 0, &[2, 2]),
                ],
            ],
            recorded: Vec::new(),
        };
        let report = history.check();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.drained());
    }

    /// A torn merge: participant 1's event depends on a participant 0
    /// event missing from the logs. Replay must stall gracefully.
    #[test]
    fn missing_dependency_reports_unordered_history() {
        let history = History {
            namespace_size: 4,
            capacity: 4,
            snapshots: 0,
            events: vec![
                Vec::new(),
                vec![event(1, EventKind::AcquireStart, 0, &[5, 1])],
            ],
            recorded: Vec::new(),
        };
        let report = history.check();
        assert!(!report.complete);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UnorderedHistory { remaining: 1 })));
    }

    /// An inconsistent cut: participant 1 claims an epoch-0 event that
    /// depends on a participant-0 event recorded *after* the marker.
    #[test]
    fn inconsistent_cut_is_flagged() {
        let history = History {
            namespace_size: 4,
            capacity: 4,
            snapshots: 1,
            events: vec![
                vec![
                    event(0, EventKind::Marker, 1, &[1]),
                    event(0, EventKind::AcquireStart, 1, &[2]),
                ],
                // In-cut (epoch 0) event whose clock says it saw
                // participant 0's second (post-cut) event.
                vec![event(1, EventKind::AcquireStart, 0, &[2, 1])],
            ],
            recorded: Vec::new(),
        };
        let report = history.check();
        assert_eq!(report.snapshots.len(), 1);
        assert!(!report.snapshots[0].consistent);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::InconsistentCut { epoch: 1, .. })));
    }

    /// Two concurrent participants each win a different name in epoch
    /// 0 and release it in epoch 1. The Kahn replay can run one hold to
    /// its release before the other starts, so it never sees more than
    /// one live name; only the snapshot cut, where both wins are in and
    /// both releases out, exceeds the capacity of 1.
    #[test]
    fn capacity_excess_at_a_cut_is_flagged() {
        let history = History {
            namespace_size: 4,
            capacity: 1,
            snapshots: 1,
            events: vec![
                vec![
                    event(0, EventKind::AcquireWin { name: 0 }, 0, &[1]),
                    event(0, EventKind::Release { name: 0 }, 1, &[2]),
                ],
                vec![
                    event(1, EventKind::AcquireWin { name: 1 }, 0, &[0, 1]),
                    event(1, EventKind::Release { name: 1 }, 1, &[0, 2]),
                ],
            ],
            recorded: Vec::new(),
        };
        let report = history.check();
        assert!(report.complete);
        assert_eq!(report.max_live, 1, "the replay stays within capacity");
        assert_eq!(report.snapshots.len(), 1);
        assert!(report.snapshots[0].consistent);
        assert_eq!(report.snapshots[0].live_at_cut, 2);
        assert_eq!(
            report.violations,
            [Violation::CapacityExceeded {
                live: 2,
                capacity: 1
            }]
        );
    }

    #[test]
    fn violation_display_is_human_readable() {
        let text = Violation::DoubleIssue {
            name: 3,
            first: 0,
            second: 1,
        }
        .to_string();
        assert!(text.contains("name 3"), "{text}");
        let text = Violation::CapacityExceeded {
            live: 9,
            capacity: 8,
        }
        .to_string();
        assert!(text.contains('9') && text.contains('8'), "{text}");
    }
}
