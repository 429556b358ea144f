//! Vector-clock ordering-detector calibration: no false positive on a
//! correctly SeqCst Dekker pair, no false negative on its
//! Relaxed-weakened mutant, and the same pair of checks for the
//! release/acquire publication idiom the service's pool check-in uses.

use renaming_model::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use renaming_model::sync::Arc;
use renaming_model::{thread, Checker};

/// The classic Dekker store/load pair (each side stores its flag, then
/// loads the other's), with configurable orderings.
/// Returns the checker report; the scenario itself asserts mutual
/// exclusion (which sequentially-consistent value semantics always
/// provide — only the *detector* can tell the orderings apart).
fn dekker(store_order: Ordering, load_order: Ordering) -> renaming_model::Report {
    Checker::new().check(move || {
        let flag_a = Arc::new(AtomicBool::new(false));
        let flag_b = Arc::new(AtomicBool::new(false));
        let in_critical = Arc::new(AtomicUsize::new(0));

        let (a1, b1, c1) = (Arc::clone(&flag_a), Arc::clone(&flag_b), Arc::clone(&in_critical));
        let other = thread::spawn(move || {
            a1.store(true, store_order);
            if !b1.load(load_order) {
                let overlapped = c1.fetch_add(1, Ordering::Relaxed);
                assert_eq!(overlapped, 0, "both sides entered the critical section");
                c1.fetch_sub(1, Ordering::Relaxed);
            }
        });

        flag_b.store(true, store_order);
        if !flag_a.load(load_order) {
            let overlapped = in_critical.fetch_add(1, Ordering::Relaxed);
            assert_eq!(overlapped, 0, "both sides entered the critical section");
            in_critical.fetch_sub(1, Ordering::Relaxed);
        }
        other.join().unwrap();
    })
}

#[test]
fn seqcst_dekker_pair_is_race_free() {
    let report = dekker(Ordering::SeqCst, Ordering::SeqCst);
    println!(
        "detector/seqcst-dekker: {} interleavings (complete: {})",
        report.interleavings, report.complete
    );
    report.assert_clean();
    assert!(report.complete, "small model must be explored exhaustively");
}

#[test]
fn relaxed_dekker_mutant_is_flagged() {
    let report = dekker(Ordering::Relaxed, Ordering::Relaxed);
    println!(
        "detector/relaxed-dekker: {} interleavings, {} race(s)",
        report.interleavings,
        report.races.len()
    );
    assert!(
        report.violation.is_none(),
        "value-level mutual exclusion still holds in the SC model: {:?}",
        report.violation
    );
    assert!(
        !report.races.is_empty(),
        "the detector must flag the Relaxed store/load pair"
    );
    let race = &report.races[0];
    assert!(race.atomic.contains("detector.rs"), "race names the atomic: {race}");
}

/// The service's `RequestSlot::fill` idiom: payload stored `Relaxed`,
/// then the state flag published; the consumer loads the flag and only
/// then reads the payload. `flag_store`/`flag_load` control the flag's
/// orderings.
fn publication(flag_store: Ordering, flag_load: Ordering) -> renaming_model::Report {
    Checker::new().check(move || {
        let payload = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicBool::new(false));

        let (payload_w, flag_w) = (Arc::clone(&payload), Arc::clone(&flag));
        let producer = thread::spawn(move || {
            payload_w.store(42, Ordering::Relaxed);
            flag_w.store(true, flag_store);
        });

        if flag.load(flag_load) {
            assert_eq!(payload.load(Ordering::Relaxed), 42, "published value visible");
        }
        producer.join().unwrap();
    })
}

#[test]
fn release_acquire_publication_is_race_free() {
    let report = publication(Ordering::Release, Ordering::Acquire);
    println!(
        "detector/release-acquire-publication: {} interleavings (complete: {})",
        report.interleavings, report.complete
    );
    report.assert_clean();
    assert!(report.complete);
}

#[test]
fn relaxed_publication_mutant_is_flagged() {
    let report = publication(Ordering::Relaxed, Ordering::Relaxed);
    println!(
        "detector/relaxed-publication: {} interleavings, {} race(s)",
        report.interleavings,
        report.races.len()
    );
    assert!(report.violation.is_none(), "SC value semantics keep the assert true");
    assert!(
        report
            .races
            .iter()
            .any(|race| race.load.ordering == "Relaxed"),
        "the unsynchronized payload read must be reported: {:?}",
        report.races
    );
}
