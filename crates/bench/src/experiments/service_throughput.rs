//! Service throughput: acquire/release operations per second through the
//! `NameService` front-end, across backends, sync and async callers and
//! thread counts.
//!
//! Not a paper claim — this experiment tracks the service layer the API
//! redesign introduced: real OS threads hammer one `NameService` with
//! acquire/drop cycles (guard drop releases the name), for every
//! algorithm selectable through `NameServiceBuilder` on the atomic TAS
//! backend. The thread axis is driven by the harness's `--threads` flag
//! (powers of two up to it) rather than a pinned 1/2/4.
//!
//! Each (backend, threads) cell times the two **callers** of the one
//! acquire path as a [`paired`] measurement — sync `NameService::acquire`
//! (the `direct` rows) and the async facade
//! (`AsyncNameService::acquire().await`, each hammer thread a one-task
//! `block_on` executor), alternating one repetition at a time — and
//! records both curves (median repetitions) and the async/direct ratio
//! (median and quartiles of the per-pair ratios) in the artifact's
//! `mode_comparison` section.
//!
//! Beyond raw ops/sec, the run is a correctness soak: every cycle must
//! succeed within capacity, and every namespace must drain to zero held
//! names at the end.
//!
//! Results land in the harness records and in `BENCH_service.json` — the
//! CI artifact tracking the service's perf trajectory across PRs,
//! including the sync and async curves side by side.

use std::fmt::Write as _;
use std::sync::Barrier;
use std::time::Instant;

use serde_json::{json, Value};

use renaming_analysis::{Summary, Table};
use renaming_service::{exec, Algorithm, AsyncNameService, NameService, SeedPolicy};

use crate::experiments::{verdict, write_artifact};
use crate::Harness;

/// Where the JSON artifact lands (relative to the working directory).
pub const ARTIFACT_PATH: &str = "BENCH_service.json";

/// Capacity every atomic-backend service is provisioned for; thread
/// counts stay below it so each acquire must succeed.
const CAPACITY: usize = 64;

/// Alternating direct/async repetition pairs per (backend, threads)
/// cell (see [`paired`]).
const PAIRS: usize = 9;

/// Untimed cycles each [`hammer`] thread runs before the clock starts:
/// enough to fill a fresh service's worker pool (first acquires
/// construct sessions).
const WARM_UP: usize = 50;

/// The thread axis: powers of two up to the harness's `--threads`
/// setting, always ending exactly there (so `--threads 6` sweeps
/// 1, 2, 4, 6). Replaces the previously pinned 1/2/4.
fn thread_sweep(max: usize) -> Vec<usize> {
    let max = max.max(1);
    let mut counts = Vec::new();
    let mut t = 1;
    while t < max {
        counts.push(t);
        t *= 2;
    }
    counts.push(max);
    counts
}

/// One acquire/drop cycle from a sync caller (`direct`): guard drop
/// releases the name.
pub(super) fn direct_cycle(service: &NameService) {
    let guard = service.acquire().expect("within capacity");
    std::hint::black_box(guard.value());
}

/// One acquire/drop cycle through the async facade, with the calling
/// thread as a one-task `block_on` executor. Prices the executor and
/// future machinery (waker construction, one poll, the `Arc`-holding
/// guard) on top of the sync path it wraps.
pub(super) fn async_cycle(service: &AsyncNameService) {
    let guard = exec::block_on(service.acquire()).expect("within capacity");
    std::hint::black_box(guard.value());
}

/// `threads` OS threads each run `ops_per_thread` acquire/drop cycles
/// through `cycle` (a caller of one shared service: [`direct_cycle`]
/// or [`async_cycle`]); returns ops/sec. Each thread first runs
/// [`WARM_UP`] untimed cycles, then waits on a barrier that releases
/// them all at once. The clock runs from the first timed cycle to the
/// last, so thread spawn, warm-up and join stay outside it.
fn hammer(cycle: impl Fn() + Sync, threads: usize, ops_per_thread: usize) -> f64 {
    let start_line = Barrier::new(threads);
    let spans: Vec<(Instant, Instant)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    for _ in 0..WARM_UP {
                        cycle();
                    }
                    start_line.wait();
                    let start = Instant::now();
                    for _ in 0..ops_per_thread {
                        cycle();
                    }
                    (start, Instant::now())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("hammer thread"))
            .collect()
    });
    let start = spans
        .iter()
        .map(|&(start, _)| start)
        .min()
        .expect("a thread");
    let end = spans.iter().map(|&(_, end)| end).max().expect("a thread");
    (threads * ops_per_thread) as f64 / (end - start).as_secs_f64()
}

/// Two variants timed against each other by [`paired`].
pub(super) struct Measurement {
    /// Cycles in one repetition of either variant.
    pub(super) ops: u64,
    /// Median ops/sec over the first variant's repetitions.
    pub(super) first: f64,
    /// Median ops/sec over the second variant's repetitions.
    pub(super) second: f64,
    /// Quartiles `[q1, median, q3]` of the per-pair ratio
    /// `second / first`.
    pub(super) ratio: [f64; 3],
}

/// Times `second` against `first` in `pairs` pairs of [`hammer`]
/// repetitions. Each variant makes the cycle that one repetition runs,
/// before its clock starts: a cycle may borrow a service shared by
/// every repetition, or own one built for its repetition alone. The
/// two run back to back within a pair, and which one runs first swaps
/// from pair to pair, so drift on the machine lands on both sides of a
/// pair's ratio and neither variant always runs first. A descheduled
/// repetition moves one pair's ratio, not the median.
pub(super) fn paired<A: Fn() + Sync, B: Fn() + Sync>(
    first: impl Fn() -> A,
    second: impl Fn() -> B,
    threads: usize,
    ops_per_thread: usize,
    pairs: usize,
) -> Measurement {
    let (mut firsts, mut seconds) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for pair in 0..pairs {
        let (a, b) = if pair % 2 == 0 {
            let a = hammer(first(), threads, ops_per_thread);
            (a, hammer(second(), threads, ops_per_thread))
        } else {
            let b = hammer(second(), threads, ops_per_thread);
            (hammer(first(), threads, ops_per_thread), b)
        };
        firsts.push(a);
        seconds.push(b);
    }
    let ratios = Summary::from_values(firsts.iter().zip(&seconds).map(|(a, b)| b / a));
    Measurement {
        ops: (threads * ops_per_thread) as u64,
        first: Summary::from_values(firsts).median(),
        second: Summary::from_values(seconds).median(),
        ratio: [
            ratios.quantile(0.25),
            ratios.median(),
            ratios.quantile(0.75),
        ],
    }
}

/// The `service_throughput` experiment: acquire/release ops/sec through
/// `NameService` for every atomic-backend algorithm from sync and async
/// callers, across a `--threads`-driven sweep, plus a post-run drain
/// check and a per-backend mode comparison. Writes `BENCH_service.json`.
pub fn service_throughput(h: &mut Harness) -> String {
    let mut out = String::new();
    let ops_per_thread = if h.quick() { 10_000 } else { 60_000 };
    let thread_counts = thread_sweep(h.threads().min(CAPACITY));
    let mut all_drained = true;

    // ---- Caller axis: sync (`direct`) vs the async facade. ----
    //
    // Each (backend, threads) cell builds one service per caller and
    // times them as a pair: the async side is the same kind of service
    // driven through the facade, each hammer thread a one-task executor
    // running `exec::block_on(service.acquire())` per cycle
    // (`async_cycle`).
    let mut mode_table = Table::new(["backend", "mode", "threads", "ops", "Kops/s", "drained"]);
    let mut mode_rows: Vec<Value> = Vec::new();
    let mut mode_comparison: Vec<Value> = Vec::new();
    for algorithm in Algorithm::all() {
        let mut curves = [Vec::new(), Vec::new()];
        let mut ratios = Vec::new();
        let mut backend_label = "";
        for &threads in &thread_counts {
            let build = || {
                NameService::builder(algorithm, CAPACITY)
                    .seed_policy(SeedPolicy::Fixed(h.seed()))
                    .build()
                    .expect("every backend builds")
            };
            let direct = &build();
            let facade = &AsyncNameService::new(build());
            backend_label = direct.algorithm();
            let cell = paired(
                || move || direct_cycle(direct),
                || move || async_cycle(facade),
                threads,
                ops_per_thread,
                PAIRS,
            );
            let [q1, ratio, q3] = cell.ratio;
            ratios.push(json!({"threads": threads, "median": ratio, "quartiles": [q1, q3]}));
            let modes = [
                ("direct", cell.first, direct.held() == 0),
                ("async", cell.second, facade.held() == 0),
            ];
            for (curve, (mode_label, ops_per_sec, drained)) in curves.iter_mut().zip(modes) {
                all_drained &= drained;
                curve.push(ops_per_sec);
                mode_table.row([
                    backend_label.to_string(),
                    mode_label.to_string(),
                    threads.to_string(),
                    cell.ops.to_string(),
                    format!("{:.0}", ops_per_sec / 1e3),
                    if drained { "yes".into() } else { "NO".to_string() },
                ]);
                mode_rows.push(json!({
                    "backend": backend_label,
                    "mode": mode_label,
                    "threads": threads,
                    "ops": cell.ops,
                    "ops_per_sec": ops_per_sec,
                    "drained": drained
                }));
                h.record(
                    "service_throughput",
                    json!({
                        "backend": backend_label,
                        "mode": mode_label,
                        "threads": threads,
                        "capacity": CAPACITY
                    }),
                    json!({"ops": cell.ops, "ops_per_sec": ops_per_sec, "drained": drained}),
                );
            }
            let _ = writeln!(
                out,
                "{algorithm:?}: async/direct = {ratio:.2}x (quartiles {q1:.2}-{q3:.2}) at {threads} thread(s)",
            );
        }
        let [direct, r#async] = curves;
        mode_comparison.push(json!({
            "backend": backend_label,
            "threads": thread_counts.clone(),
            "direct_ops_per_sec": direct,
            "async_ops_per_sec": r#async,
            "async_over_direct": ratios
        }));
    }

    write_artifact(
        h,
        "service_throughput",
        ARTIFACT_PATH,
        json!({
            "capacity": CAPACITY,
            "pairs": PAIRS,
            "threads_sweep": thread_counts,
            "mode_rows": mode_rows,
            "mode_comparison": mode_comparison
        }),
        &mut out,
    );

    let _ = writeln!(out, "{mode_table}");
    out.push_str(&verdict(
        all_drained,
        "every backend completed all acquire/release cycles and drained to 0 held names",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_sweep_is_driven_by_the_thread_knob() {
        assert_eq!(thread_sweep(1), vec![1]);
        assert_eq!(thread_sweep(2), vec![1, 2]);
        assert_eq!(thread_sweep(4), vec![1, 2, 4]);
        assert_eq!(thread_sweep(6), vec![1, 2, 4, 6]);
        assert_eq!(thread_sweep(16), vec![1, 2, 4, 8, 16]);
        assert_eq!(thread_sweep(0), vec![1], "clamped to at least one thread");
    }

    #[test]
    fn quick_mode_passes_and_covers_every_backend_pool_and_substrate() {
        let mut h = Harness::with_threads(true, 5, 2);
        let report = service_throughput(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
        for label in [
            "rebatching",
            "adaptive-rebatching",
            "fast-adaptive-rebatching",
            "uniform",
            "linear-scan",
            " direct ",
            " async ",
            "async/direct",
        ] {
            assert!(report.contains(label), "missing {label} in:\n{report}");
        }
    }
}
