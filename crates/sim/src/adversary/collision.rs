//! A strong adversary that maximizes failed probes.

use std::collections::VecDeque;

use rand::RngCore;

use crate::adversary::{Adversary, PendingSet, SchedView};
use crate::ProcessId;

/// Strong (adaptive) adversary: it inspects coin flips and greedily wastes
/// them.
///
/// Whenever a probe *wins* a location, every other process whose pending
/// probe points at the same location is now guaranteed to lose; the
/// adversary queues those processes and schedules them first, forcing their
/// steps to be wasted. When no guaranteed loss is available it falls back
/// to a uniformly random choice.
///
/// This exercises the paper's strong-adversary model (§2): the scheduler
/// sees "the state of all processes (including the results of coin flips)
/// when making its scheduling choices".
#[derive(Debug, Default)]
pub struct CollisionSeeker {
    doomed: VecDeque<ProcessId>,
}

impl CollisionSeeker {
    /// Creates the adversary.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CollisionSeeker {
    #[inline]
    fn next_impl<R: rand::Rng + ?Sized>(&mut self, view: &SchedView<'_>, rng: &mut R) -> ProcessId {
        while let Some(pid) = self.doomed.pop_front() {
            // Still waiting with a probe aimed at a now-set location?
            if view.pending.contains(pid) && view.memory.is_set(view.pending.location(pid)) {
                return pid;
            }
        }
        view.pending.random(rng)
    }
}

impl Adversary for CollisionSeeker {
    fn next(&mut self, view: &SchedView<'_>, rng: &mut dyn RngCore) -> ProcessId {
        self.next_impl(view, rng)
    }

    #[inline]
    fn next_typed<R: RngCore>(&mut self, view: &SchedView<'_>, rng: &mut R) -> ProcessId {
        self.next_impl(view, rng)
    }

    fn on_executed(&mut self, pid: ProcessId, location: usize, won: bool, pending: &PendingSet) {
        if won {
            for &other in pending.pids_at(location) {
                if other != pid {
                    self.doomed.push_back(other);
                }
            }
        }
    }

    fn wants_location_index(&self) -> bool {
        true // on_executed scans pids_at(location) for doomed probes
    }

    fn label(&self) -> &'static str {
        "collision-seeker"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TasMemory;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schedules_doomed_processes_first() {
        let mut pending = PendingSet::new(3);
        pending.add(0, 5);
        pending.add(1, 5);
        pending.add(2, 7);
        let mut memory = TasMemory::new(10);
        let mut adv = CollisionSeeker::new();
        let mut rng = StdRng::seed_from_u64(1);

        // Process 0 wins location 5.
        assert!(memory.test_and_set(5));
        adv.on_executed(0, 5, true, &pending);
        pending.remove(0);

        // The adversary must now pick process 1 (doomed at location 5).
        let view = SchedView {
            pending: &pending,
            memory: &memory,
            step: 1,
        };
        assert_eq!(adv.next(&view, &mut rng), 1);
    }

    #[test]
    fn stale_doomed_entries_are_skipped() {
        let mut pending = PendingSet::new(2);
        pending.add(0, 3);
        pending.add(1, 3);
        let mut memory = TasMemory::new(4);
        let mut adv = CollisionSeeker::new();
        let mut rng = StdRng::seed_from_u64(2);

        assert!(memory.test_and_set(3));
        adv.on_executed(0, 3, true, &pending);
        pending.remove(0);
        // Process 1 moves on before being scheduled (it re-proposed at a
        // different location in the real runner; emulate by re-adding).
        pending.remove(1);
        pending.add(1, 2);

        let view = SchedView {
            pending: &pending,
            memory: &memory,
            step: 2,
        };
        // Falls back to the only live process without panicking.
        assert_eq!(adv.next(&view, &mut rng), 1);
    }

    #[test]
    fn losses_do_not_queue_anyone() {
        let mut pending = PendingSet::new(2);
        pending.add(0, 1);
        pending.add(1, 1);
        let memory = TasMemory::new(2);
        let mut adv = CollisionSeeker::new();
        adv.on_executed(0, 1, false, &pending);
        assert!(adv.doomed.is_empty());
        let _ = memory;
    }
}
