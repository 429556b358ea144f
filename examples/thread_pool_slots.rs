//! Domain scenario: slot assignment for concurrent memory reclamation.
//!
//! The paper's introduction motivates renaming with "concurrent memory
//! management" [27]: schemes like hazard pointers need each participating
//! thread to own a small, dense slot index into a shared announcement
//! array. Thread ids are useless for this (they come from an enormous
//! sparse namespace); loose renaming is exactly the right tool — the array
//! only needs `(1+ε)·max_threads` entries, and `NameService` hands the
//! slots out.
//!
//! ```text
//! cargo run --release --example thread_pool_slots
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

use loose_renaming::prelude::*;

/// A miniature hazard-slot table: one announcement cell per renamed slot.
struct HazardTable {
    service: NameService,
    announcements: Vec<AtomicUsize>,
}

impl HazardTable {
    fn new(max_threads: usize) -> Result<Self, Box<dyn std::error::Error>> {
        let service = NameService::builder(Algorithm::Rebatching, max_threads)
            .seed_policy(SeedPolicy::Entropy)
            .build()?;
        let announcements = (0..service.namespace_size())
            .map(|_| AtomicUsize::new(0))
            .collect();
        Ok(Self {
            service,
            announcements,
        })
    }

    /// Called once per thread activation: acquire a dense slot. The guard
    /// *is* the registration — dropping it deregisters the thread.
    fn register(&self) -> NameGuard<'_> {
        self.service
            .acquire()
            .expect("more threads than the table's capacity")
    }

    /// Publish a "protected pointer" in the thread's slot.
    fn announce(&self, slot: &NameGuard<'_>, ptr: usize) {
        self.announcements[slot.value()].store(ptr, Ordering::Release);
    }

    /// Scan announcements (what a reclaimer would do): the scan cost is
    /// proportional to the *renamed* namespace, not to the thread-id space.
    fn scan(&self) -> Vec<usize> {
        self.announcements
            .iter()
            .map(|a| a.load(Ordering::Acquire))
            .filter(|&p| p != 0)
            .collect()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let max_threads = 24;
    let table = HazardTable::new(max_threads)?;
    println!(
        "hazard table: {} announcement cells for up to {} threads",
        table.announcements.len(),
        max_threads
    );

    let mut mapping: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..max_threads)
            .map(|i| {
                let table = &table;
                scope.spawn(move || {
                    // Simulate a thread arriving with a huge sparse id.
                    let sparse_id = 0x5eed_0000_0000 + i * 7919;
                    let slot = table.register();
                    table.announce(&slot, sparse_id);
                    // Keep the registration alive for this activation.
                    (sparse_id, slot.into_name().value())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread panicked"))
            .collect()
    });
    mapping.sort_by_key(|&(_, slot)| slot);
    println!("\nsparse thread id     -> dense slot");
    for (sparse, slot) in &mapping {
        println!("  {sparse:#014x} -> {slot:>3}");
    }

    let protected = table.scan();
    assert_eq!(protected.len(), max_threads);
    println!(
        "\nreclaimer scan found {} protected pointers by reading {} cells \
         (instead of 2^48 possible thread ids)",
        protected.len(),
        table.announcements.len()
    );

    // Deregister everyone: hand the detached names back.
    for (_, slot) in mapping {
        let Ok(()) = table.service.release_name(Name::new(slot));
    }
    assert_eq!(table.service.held(), 0);
    println!("all slots handed back; table empty");
    Ok(())
}
