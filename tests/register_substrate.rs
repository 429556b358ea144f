//! End-to-end renaming over the read/write-register TAS substrate:
//! ReBatching running with every slot backed by a register-based
//! tournament instead of a hardware atomic — the §2 "read-write model"
//! configuration, executable.

use std::collections::HashSet;
use std::sync::Arc;

use loose_renaming::core::{driver, BatchLayout, Epsilon, ProbeSchedule, RebatchingMachine};
use loose_renaming::tas::rwtas::TournamentTas;
use loose_renaming::tas::{TasArray, TicketTas};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn register_slot_array(slots: usize, contenders: usize) -> TasArray<TicketTas<TournamentTas>> {
    let slots: Vec<TicketTas<TournamentTas>> = (0..slots)
        .map(|_| TicketTas::new(TournamentTas::new(contenders)))
        .collect();
    TasArray::from_slots(slots)
}

#[test]
fn rebatching_over_register_tas_sequential() {
    let n = 16;
    let layout = BatchLayout::shared(
        n,
        ProbeSchedule::paper(Epsilon::one(), 3).expect("schedule"),
    )
    .expect("layout");
    let slots = register_slot_array(layout.namespace_size(), n);
    let mut names = HashSet::new();
    for i in 0..n {
        let mut machine = RebatchingMachine::new(Arc::clone(&layout), 0);
        let mut rng = StdRng::seed_from_u64(900 + i as u64);
        let name = driver::drive(&mut machine, &slots, &mut rng).expect("name");
        assert!(
            names.insert(name.value()),
            "duplicate name {name} over the register substrate"
        );
    }
    assert_eq!(names.len(), n);
}

#[test]
fn rebatching_over_register_tas_threaded() {
    let n = 12;
    let layout = BatchLayout::shared(
        n,
        ProbeSchedule::paper(Epsilon::one(), 3).expect("schedule"),
    )
    .expect("layout");
    let slots = Arc::new(register_slot_array(layout.namespace_size(), n));
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let slots = Arc::clone(&slots);
            let layout = Arc::clone(&layout);
            std::thread::spawn(move || {
                let mut machine = RebatchingMachine::new(layout, 0);
                let mut rng = StdRng::seed_from_u64(7_000 + i as u64);
                driver::drive(&mut machine, &slots, &mut rng)
                    .expect("name")
                    .value()
            })
        })
        .collect();
    let names: HashSet<usize> = handles
        .into_iter()
        .map(|h| h.join().expect("join"))
        .collect();
    assert_eq!(
        names.len(),
        n,
        "uniqueness must survive the register substrate under real concurrency"
    );
}

mod epoch_reset_properties {
    //! Property: an epoch-reset slot is indistinguishable from a freshly
    //! built one. Whatever history a `TicketTas<TournamentTas>` slot
    //! accumulates — wins, loss storms past the ticket window, repeated
    //! resets — one `reset()` must leave it answering exactly like a
    //! brand-new slot of the same capacity, because the reset is a lazy
    //! epoch bump, not a rebuild: stale registers are *reinterpreted*,
    //! and any leak of old state through the stamps would show up here.

    use loose_renaming::tas::rwtas::TournamentTas;
    use loose_renaming::tas::{Tas, TicketTas};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn epoch_reset_slots_are_indistinguishable_from_fresh(
            capacity in 1usize..12,
            burns in 0usize..24,
            rounds in 1usize..4,
        ) {
            let used = TicketTas::new(TournamentTas::new(capacity));
            for round in 0..rounds {
                // Dirty the slot: a win plus `burns` losing calls (which
                // may drain the epoch's ticket window entirely).
                let _ = used.test_and_set();
                for _ in 0..burns {
                    prop_assert!(used.test_and_set().lost());
                }
                used.reset();

                // From here the used slot and a pristine twin must agree
                // call-for-call, across the full ticket window and past
                // its end.
                let fresh = TicketTas::new(TournamentTas::new(capacity));
                prop_assert_eq!(Tas::is_set(&used), Tas::is_set(&fresh));
                prop_assert_eq!(used.tickets_issued(), fresh.tickets_issued());
                for call in 0..capacity + 2 {
                    prop_assert_eq!(
                        used.test_and_set(),
                        fresh.test_and_set(),
                        "call {} after reset {} diverged from a fresh slot",
                        call,
                        round
                    );
                    prop_assert_eq!(Tas::is_set(&used), Tas::is_set(&fresh));
                }
                prop_assert_eq!(used.tickets_issued(), fresh.tickets_issued());
            }
        }
    }
}
