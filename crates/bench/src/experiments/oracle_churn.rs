//! Oracle-checked churn: the concurrency oracle's vector-clock history
//! checker, run as an experiment over the whole service matrix.
//!
//! Not a paper claim — this experiment gates on **verdicts, not
//! timing**. For every algorithm selectable through `NameServiceBuilder`
//! and both callers of the one acquire path (sync `NameService::acquire`
//! and the async facade), real OS threads
//! churn acquire/drop cycles against an oracle-instrumented service
//! while the main thread takes a Chandy–Lamport-style snapshot mid-run.
//! Each cell must replay to a clean verdict: no overlapping holds under
//! happens-before, names in bounds, capacity respected at every cut,
//! worker conservation intact, and everything drained at exit.
//!
//! Two companions keep the verdict honest:
//!
//! * a **seeded-violation self-check** drives an out-of-bounds win, a
//!   capacity excess and a double issue straight into a recorder and
//!   asserts the checker flags all three — a checker that cannot fail
//!   is not a check;
//! * an **overhead axis** times checked against unchecked ops/sec for
//!   every backend on the direct path as a
//!   [`paired`](super::service_throughput::paired) measurement, pricing
//!   the recording layer. The oracle-off rows use the exact code path
//!   CI's stability diff watches, so "zero cost when off" stays an
//!   enforced property, not a slogan.
//!
//! Results land in `BENCH_oracle.json`, overhead table included.

use std::fmt::Write as _;
use std::sync::Barrier;

use serde_json::{json, Value};

use renaming_analysis::Table;
use renaming_service::{Algorithm, AsyncNameService, NameService, Oracle, SeedPolicy, Violation};

use crate::experiments::service_throughput::{async_cycle, direct_cycle, paired};
use crate::experiments::{verdict, write_artifact};
use crate::Harness;

/// Where the JSON artifact lands (relative to the working directory).
pub const ARTIFACT_PATH: &str = "BENCH_oracle.json";

/// Capacity every checked service is provisioned for; small enough that
/// the post-run replay (linear in recorded events, with per-event clock
/// comparisons against every participant) stays cheap on CI boxes.
const CAPACITY: usize = 16;

/// Alternating unchecked/checked repetition pairs per overhead point.
/// Every checked repetition adds its threads' histories to the oracle,
/// so the oracle's memory grows with pairs times `overhead_ops`; full
/// mode keeps that product at 120,000 checked cycles per thread.
const OVERHEAD_PAIRS: usize = 5;

/// One oracle-checked churn cell: `threads` threads run
/// `ops_per_thread` acquire/drop cycles through `cycle` (a caller of
/// `service`: [`direct_cycle`] or [`async_cycle`]) while the main thread
/// takes a snapshot mid-run, then the full history replays. Returns
/// `(verdict_is_clean, wins, events, snapshots_consistent)`.
///
/// A barrier holds every churn thread at op `ops_per_thread / 2` until
/// the snapshot is taken, so the cut lands mid-churn and each thread
/// records exactly one marker: `events` is a function of the cell.
fn checked_churn(
    service: &NameService,
    cycle: impl Fn() + Sync,
    threads: usize,
    ops_per_thread: usize,
) -> (bool, u64, u64, bool) {
    let oracle = service.oracle().expect("oracle enabled").clone();
    let halfway = Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for op in 0..ops_per_thread {
                    if op == ops_per_thread / 2 {
                        halfway.wait();
                        halfway.wait();
                    }
                    cycle();
                }
            });
        }
        // A consistent cut taken while the churn is in full flight.
        halfway.wait();
        oracle.snapshot();
        halfway.wait();
    });
    let verdict = service.oracle_verdict().expect("oracle enabled");
    let snapshots_ok = !verdict.history.snapshots.is_empty()
        && verdict.history.snapshots.iter().all(|s| s.consistent);
    let clean = verdict.is_clean() && verdict.drained() && verdict.history.complete;
    (clean, verdict.history.wins, verdict.history.events as u64, snapshots_ok)
}

/// The seeded-violation self-check: drive an out-of-bounds win, a
/// capacity excess and a double issue straight into a fresh recorder;
/// the checker must flag all three classes.
fn injected_violations_detected() -> bool {
    let oracle = Oracle::new(4, 2);
    oracle.acquire_start();
    oracle.acquire_win(7); // namespace is 0..4
    for name in 0..2 {
        oracle.acquire_start();
        oracle.acquire_win(name);
    }
    oracle.acquire_start();
    oracle.acquire_win(0); // name 0 is still held: a double issue
    let report = oracle.verdict();
    let bounds = report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::NameOutOfBounds { .. }));
    let capacity = report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::CapacityExceeded { .. }));
    let overlap = report.violations.iter().any(|v| {
        matches!(
            v,
            Violation::DoubleIssue { .. } | Violation::OverlappingHolds { .. }
        )
    });
    bounds && capacity && overlap
}

/// The `oracle_churn` experiment: oracle-checked churn verdicts for
/// every algorithm × {direct, async}, a seeded-violation
/// self-check, and a checked-vs-unchecked overhead axis. Writes
/// `BENCH_oracle.json`. The PASS gate is verdicts, not timing.
pub fn oracle_churn(h: &mut Harness) -> String {
    let mut out = String::new();
    let ops_per_thread = if h.quick() { 400 } else { 4_000 };
    let overhead_ops = if h.quick() { 3_000 } else { 24_000 };
    let threads = h.threads().clamp(2, CAPACITY);
    let overhead_threads = h.threads().clamp(1, CAPACITY);
    let mode_labels = ["direct", "async"];

    let mut table = Table::new(["backend", "mode", "threads", "wins", "events", "verdict"]);
    let mut rows: Vec<Value> = Vec::new();
    let mut all_clean = true;
    let mut all_snapshots_consistent = true;

    for algorithm in Algorithm::all() {
        for &mode_label in &mode_labels {
            let service = NameService::builder(algorithm, CAPACITY)
                .oracle(true)
                .seed_policy(SeedPolicy::Fixed(h.seed()))
                .build()
                .expect("service builds for every algorithm");
            let backend_label = service.algorithm();
            let (clean, wins, events, snapshots_ok) = if mode_label == "async" {
                let service = AsyncNameService::new(service);
                checked_churn(service.service(), || async_cycle(&service), threads, ops_per_thread)
            } else {
                checked_churn(&service, || direct_cycle(&service), threads, ops_per_thread)
            };
            all_clean &= clean;
            all_snapshots_consistent &= snapshots_ok;
            table.row([
                backend_label.to_string(),
                mode_label.to_string(),
                threads.to_string(),
                wins.to_string(),
                events.to_string(),
                if clean { "clean".into() } else { "VIOLATED".to_string() },
            ]);
            rows.push(json!({
                "backend": backend_label,
                "mode": mode_label,
                "threads": threads,
                "ops_per_thread": ops_per_thread,
                "wins": wins,
                "events": events,
                "clean": clean,
                "snapshots_consistent": snapshots_ok
            }));
            h.record(
                "oracle_churn",
                json!({
                    "backend": backend_label,
                    "mode": mode_label,
                    "threads": threads,
                    "capacity": CAPACITY
                }),
                json!({"wins": wins, "events": events, "clean": clean}),
            );
        }
    }

    // ---- Checked-vs-unchecked overhead, direct path, per backend. ----
    //
    // The two services are timed as a pair. The oracle-off one is the
    // stock service — the same configuration CI's stability diff tracks.
    let mut overhead_table = Table::new(["backend", "off Kops/s", "on Kops/s", "on/off"]);
    let mut overhead_rows: Vec<Value> = Vec::new();
    for algorithm in Algorithm::all() {
        let plain = NameService::builder(algorithm, CAPACITY)
            .seed_policy(SeedPolicy::Fixed(h.seed()))
            .build()
            .expect("service builds");
        let checked = NameService::builder(algorithm, CAPACITY)
            .oracle(true)
            .seed_policy(SeedPolicy::Fixed(h.seed()))
            .build()
            .expect("service builds");
        let cell = paired(
            || direct_cycle(&plain),
            || direct_cycle(&checked),
            overhead_threads,
            overhead_ops,
            OVERHEAD_PAIRS,
        );
        let [q1, ratio, q3] = cell.ratio;
        overhead_table.row([
            plain.algorithm().to_string(),
            format!("{:.0}", cell.first / 1e3),
            format!("{:.0}", cell.second / 1e3),
            format!("{ratio:.2}"),
        ]);
        overhead_rows.push(json!({
            "backend": plain.algorithm(),
            "threads": overhead_threads,
            "ops": cell.ops,
            "unchecked_ops_per_sec": cell.first,
            "checked_ops_per_sec": cell.second,
            "checked_over_unchecked": ratio,
            "checked_over_unchecked_quartiles": [q1, q3]
        }));
        h.record(
            "oracle_churn",
            json!({
                "backend": plain.algorithm(),
                "axis": "overhead",
                "threads": overhead_threads,
                "capacity": CAPACITY
            }),
            json!({
                "unchecked_ops_per_sec": cell.first,
                "checked_ops_per_sec": cell.second,
                "checked_over_unchecked": ratio
            }),
        );
    }

    let injections_caught = injected_violations_detected();
    let _ = writeln!(
        out,
        "seeded violations (out-of-bounds win, capacity excess, double issue) detected: {injections_caught}"
    );

    write_artifact(
        h,
        "oracle_churn",
        ARTIFACT_PATH,
        json!({
            "capacity": CAPACITY,
            "threads": threads,
            "ops_per_thread": ops_per_thread,
            "verdict_rows": rows,
            "oracle_overhead": overhead_rows,
            "injected_violations_detected": injections_caught
        }),
        &mut out,
    );

    let _ = writeln!(out, "{table}");
    let _ = writeln!(out, "{overhead_table}");
    out.push_str(&verdict(
        all_clean && all_snapshots_consistent && injections_caught,
        "every backend x mode cell replayed to a clean, drained, complete verdict with consistent mid-churn snapshots, and every seeded violation was flagged",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_violations_never_pass_silently() {
        assert!(injected_violations_detected());
    }

    #[test]
    fn quick_mode_checks_every_backend_and_mode() {
        let mut h = Harness::with_threads(true, 5, 2);
        let report = oracle_churn(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
        for label in [
            "rebatching",
            "adaptive-rebatching",
            "fast-adaptive-rebatching",
            "uniform",
            "linear-scan",
            "single-batch",
            "doubling-uniform",
            " direct ",
            " async ",
            "detected: true",
        ] {
            assert!(report.contains(label), "missing {label} in:\n{report}");
        }
        assert!(!report.contains("VIOLATED"), "{report}");
    }
}
