//! Model of the sharded worker pool (`crates/service/src/pool.rs`):
//! per-slot atomic pointers (stood in by ids), checkout via
//! load-hint + swap, checkin via null→ptr CAS with retire on overflow.
//! Two threads share one shard of two slots — so every checkout past
//! the first is the cross-thread steal path — and the model asserts no
//! worker is ever handed out twice and none goes missing
//! (`created == pooled + retired + held`). A mutant whose check-in
//! publishes with a load and a plain store instead of the CAS must be
//! caught: a checker that cannot fail is not a check.

use renaming_model::sync::atomic::{AtomicUsize, Ordering};
use renaming_model::sync::Arc;
use renaming_model::{thread, Checker};

const SLOTS: usize = 2;

struct PoolModel {
    /// Slot contents: a worker id, or 0 for empty (the real code's
    /// null pointer).
    slots: [AtomicUsize; SLOTS],
    created: AtomicUsize,
    retired: AtomicUsize,
    /// The mutant: check-in stores into a slot it saw empty, so two
    /// check-ins can claim the same slot and one worker is lost.
    blind_checkin: bool,
}

impl PoolModel {
    fn new(blind_checkin: bool) -> Self {
        Self {
            slots: [AtomicUsize::new(0), AtomicUsize::new(0)],
            created: AtomicUsize::new(0),
            retired: AtomicUsize::new(0),
            blind_checkin,
        }
    }

    /// Checkout: hint-load then swap, falling back to creating a fresh
    /// worker — `ShardedPool::checkout`.
    fn checkout(&self) -> usize {
        for slot in &self.slots {
            if slot.load(Ordering::Acquire) != 0 {
                let taken = slot.swap(0, Ordering::AcqRel);
                if taken != 0 {
                    return taken;
                }
            }
        }
        self.created.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Checkin: publish into the first empty slot with a CAS, retiring
    /// the worker when every slot is taken — `ShardedPool::checkin`.
    fn checkin(&self, worker: usize) {
        for slot in &self.slots {
            if slot.load(Ordering::Acquire) != 0 {
                continue;
            }
            if self.blind_checkin {
                slot.store(worker, Ordering::Release);
                return;
            }
            if slot
                .compare_exchange(0, worker, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
        self.retired.fetch_add(1, Ordering::SeqCst);
    }
}

/// Two threads each check a worker out and back in, on one seeded
/// shard, under the checker.
fn churn(blind_checkin: bool) -> renaming_model::Report {
    Checker::new().check(move || {
        let pool = Arc::new(PoolModel::new(blind_checkin));
        // Seed one pooled worker so a cross-thread steal of a
        // previously-pooled worker is reachable in the explored window.
        pool.checkin(pool.created.fetch_add(1, Ordering::SeqCst) + 1);

        // One in-use flag per possible worker id (seed + one fresh per
        // thread): a checkout that finds its flag already set means the
        // same worker was handed out twice at once.
        let in_use: Arc<Vec<AtomicUsize>> =
            Arc::new((0..4).map(|_| AtomicUsize::new(0)).collect());

        let holders: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let in_use = Arc::clone(&in_use);
                thread::spawn(move || {
                    let worker = pool.checkout();
                    let holders_before = in_use[worker].fetch_add(1, Ordering::SeqCst);
                    assert_eq!(
                        holders_before, 0,
                        "worker {worker} was checked out by two threads at once"
                    );
                    in_use[worker].fetch_sub(1, Ordering::SeqCst);
                    pool.checkin(worker);
                    worker
                })
            })
            .collect();
        for holder in holders {
            holder.join().unwrap();
        }

        let pooled = (0..SLOTS)
            .filter(|&i| pool.slots[i].load(Ordering::SeqCst) != 0)
            .count();
        let created = pool.created.load(Ordering::SeqCst);
        let retired = pool.retired.load(Ordering::SeqCst);
        assert_eq!(
            created,
            pooled + retired,
            "worker conservation violated: created {created} != pooled {pooled} \
             + retired {retired}"
        );
    })
}

#[test]
fn checkout_checkin_steal_conserves_and_never_double_hands() {
    let report = churn(false);
    println!(
        "pool/checkout-checkin-steal: {} interleavings (complete: {})",
        report.interleavings, report.complete
    );
    report.assert_clean();
    assert!(report.complete, "pool model must be explored exhaustively");
}

#[test]
fn blind_store_checkin_mutant_is_caught() {
    let report = churn(true);
    println!(
        "pool/blind-store-checkin mutant: {} interleavings (caught: {})",
        report.interleavings,
        report.violation.is_some()
    );
    assert!(
        report.violation.is_some(),
        "a check-in that can overwrite a pooled worker must be caught"
    );
}
