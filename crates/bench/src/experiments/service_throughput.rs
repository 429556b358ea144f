//! Service throughput: acquire/release operations per second through the
//! `NameService` front-end, across backends, sync and async callers, TAS
//! substrates and thread counts.
//!
//! Not a paper claim — this experiment tracks the service layer the API
//! redesign introduced: real OS threads hammer one `NameService` with
//! acquire/drop cycles (guard drop releases the name), for every
//! algorithm selectable through `NameServiceBuilder` on the atomic TAS
//! backend. The thread axis is driven by the harness's `--threads` flag
//! (powers of two up to it) rather than a pinned 1/2/4.
//!
//! Each (backend, threads) cell runs the two **callers** of the one
//! acquire path back-to-back — sync `NameService::acquire` (the `direct`
//! rows) and the async facade (`AsyncNameService::acquire().await`, each
//! hammer thread a one-task `block_on` executor) — recording both curves
//! and the async/direct ratio in the artifact's `mode_comparison`
//! section.
//!
//! Since the register substrate became long-lived, the run also sweeps
//! the **tournament backend under acquire/release churn** for the
//! paper's three algorithms — every cycle recycles its name through the
//! epoch-stamped tree reset — and proves the O(1) reset claim directly:
//! using the tournament's register-operation instrumentation, it asserts
//! that a reset performs *zero* node register operations (an epoch bump,
//! not an `O(node_count)` rebuild).
//!
//! Beyond raw ops/sec, the run is a correctness soak: every cycle must
//! succeed within capacity, and every namespace must drain to zero held
//! names at the end.
//!
//! Results land in the harness records and in `BENCH_service.json` — the
//! CI artifact tracking the service's perf trajectory across PRs,
//! including the sync and async curves side by side and the tournament
//! churn curves.

use std::fmt::Write as _;
use std::time::Instant;

use serde_json::{json, Value};

use renaming_analysis::Table;
use renaming_service::{exec, Algorithm, AsyncNameService, NameService, SeedPolicy, TasBackend};
use renaming_tas::rwtas::TournamentTas;
use renaming_tas::{ResettableTas, Tas, TicketTas};

use crate::experiments::{verdict, write_artifact};
use crate::Harness;

/// Where the JSON artifact lands (relative to the working directory).
pub const ARTIFACT_PATH: &str = "BENCH_service.json";

/// Capacity every atomic-backend service is provisioned for; thread
/// counts stay below it so each acquire must succeed.
const CAPACITY: usize = 64;

/// Capacity for the tournament-backend churn cells. Smaller: every slot
/// carries an `O(capacity)`-node register tree and each probe costs
/// `Θ(log capacity)` register operations.
const TOURNAMENT_CAPACITY: usize = 16;

/// Timed repetitions per (backend, mode, threads) point; the best
/// ops/sec is reported, as in the engine throughput experiment, so a
/// descheduled rep does not masquerade as a slow path. The two modes
/// are measured back-to-back within each (backend, threads) cell so
/// slow machine-wide drift cancels out of their ratio.
const REPS: usize = 9;

/// Repetitions for the (much slower) tournament churn cells.
const TOURNAMENT_REPS: usize = 3;

/// One timed run of the hammer.
pub(super) struct Measurement {
    pub(super) ops: u64,
    seconds: f64,
}

impl Measurement {
    pub(super) fn ops_per_sec(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.ops as f64 / self.seconds
        }
    }
}

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
/// or [`async_cycle`]). The timed region includes thread spawn/join —
/// a fixed cost identical for both callers, so it dilutes the
/// async/direct ratio slightly toward 1.0.
fn hammer(cycle: impl Fn() + Sync, threads: usize, ops_per_thread: usize) -> Measurement {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for _ in 0..ops_per_thread {
                    cycle();
                }
            });
        }
    });
    Measurement {
        ops: (threads * ops_per_thread) as u64,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// The best of `reps` [`hammer`] runs, after a short warm-up run that
/// fills the worker pool (first acquires construct sessions).
pub(super) fn best_of(
    cycle: impl Fn() + Sync,
    threads: usize,
    ops_per_thread: usize,
    reps: usize,
) -> Measurement {
    hammer(&cycle, threads, 50);
    let mut best = hammer(&cycle, threads, ops_per_thread);
    for _ in 1..reps {
        let m = hammer(&cycle, threads, ops_per_thread);
        if m.ops_per_sec() > best.ops_per_sec() {
            best = m;
        }
    }
    best
}

/// The `service_throughput` experiment: acquire/release ops/sec through
/// `NameService` for every atomic-backend algorithm from sync and async
/// callers and for the paper algorithms on the long-lived tournament
/// substrate, across a `--threads`-driven sweep, plus a post-run drain
/// check, a per-backend mode comparison and an O(1)-reset proof for the
/// register trees. Writes `BENCH_service.json`.
pub fn service_throughput(h: &mut Harness) -> String {
    let mut out = String::new();
    let ops_per_thread = if h.quick() { 10_000 } else { 60_000 };
    let thread_counts = thread_sweep(h.threads().min(CAPACITY));
    let max_threads = *thread_counts.last().expect("non-empty");
    let mut all_drained = true;

    // ---- Caller axis: sync (`direct`) vs the async facade. ----
    //
    // Both callers measured back-to-back within each (backend, threads)
    // cell so machine-wide drift cancels out of the ratio. The second
    // cell drives the same kind of service through the async facade:
    // each hammer thread is a one-task executor running
    // `exec::block_on(service.acquire())` per cycle (`async_cycle`).
    let mut mode_table = Table::new(["backend", "mode", "threads", "ops", "Kops/s", "drained"]);
    let mut mode_rows: Vec<Value> = Vec::new();
    let mut mode_comparison: Vec<Value> = Vec::new();
    let mode_labels = ["direct", "async"];
    for algorithm in Algorithm::all() {
        let mut curve = vec![vec![0.0f64; thread_counts.len()]; mode_labels.len()];
        let mut backend_label = "";
        for (thread_idx, &threads) in thread_counts.iter().enumerate() {
            for (mode_idx, &mode_label) in mode_labels.iter().enumerate() {
                let service = NameService::builder(algorithm, CAPACITY)
                    .seed_policy(SeedPolicy::Fixed(h.seed()))
                    .build()
                    .expect("every backend builds");
                backend_label = service.algorithm();
                let (best, drained) = if mode_label == "async" {
                    let service = AsyncNameService::new(service);
                    let best = best_of(|| async_cycle(&service), threads, ops_per_thread, REPS);
                    (best, service.held() == 0)
                } else {
                    let best = best_of(|| direct_cycle(&service), threads, ops_per_thread, REPS);
                    (best, service.held() == 0)
                };
                all_drained &= drained;
                curve[mode_idx][thread_idx] = best.ops_per_sec();
                mode_table.row([
                    backend_label.to_string(),
                    mode_label.to_string(),
                    threads.to_string(),
                    best.ops.to_string(),
                    format!("{:.0}", best.ops_per_sec() / 1e3),
                    if drained { "yes".into() } else { "NO".to_string() },
                ]);
                mode_rows.push(json!({
                    "backend": backend_label,
                    "tas": "atomic",
                    "mode": mode_label,
                    "threads": threads,
                    "ops": best.ops,
                    "ops_per_sec": best.ops_per_sec(),
                    "drained": drained
                }));
                h.record(
                    "service_throughput",
                    json!({
                        "backend": backend_label,
                        "tas": "atomic",
                        "mode": mode_label,
                        "threads": threads,
                        "capacity": CAPACITY
                    }),
                    json!({"ops": best.ops, "ops_per_sec": best.ops_per_sec(), "drained": drained}),
                );
            }
        }
        let (direct, r#async) = (&curve[0], &curve[1]);
        let last = thread_counts.len() - 1;
        let async_at_1 = r#async[0] / direct[0].max(f64::MIN_POSITIVE);
        let async_at_max = r#async[last] / direct[last].max(f64::MIN_POSITIVE);
        mode_comparison.push(json!({
            "backend": backend_label,
            "threads": thread_counts.clone(),
            "direct_ops_per_sec": direct,
            "async_ops_per_sec": r#async,
            "async_over_direct_at_1_thread": async_at_1,
            "async_over_direct_at_max_threads": async_at_max
        }));
        let _ = writeln!(
            out,
            "{algorithm:?}: async/direct = {async_at_1:.2}x at 1 thread, {async_at_max:.2}x at {max_threads} threads",
        );
    }

    // ---- Tournament substrate: acquire/release churn curves. ----
    //
    // Every cycle recycles its name through the slot's epoch-stamped
    // reset; total cycles dwarf both the namespace and every slot's
    // per-epoch ticket window, so these cells double as the long-lived
    // soak for the register substrate.
    let tournament_ops = if h.quick() { 1_000 } else { 8_000 };
    let tournament_threads: Vec<usize> = thread_counts
        .iter()
        .copied()
        .filter(|&t| t <= TOURNAMENT_CAPACITY)
        .collect();
    let mut table = Table::new(["backend", "tas", "threads", "ops", "Kops/s", "drained"]);
    let mut tournament_rows: Vec<Value> = Vec::new();
    for algorithm in [Algorithm::Rebatching, Algorithm::Adaptive, Algorithm::FastAdaptive] {
        let mut curve = Vec::new();
        for &threads in &tournament_threads {
            let service = NameService::builder(algorithm, TOURNAMENT_CAPACITY)
                .tas_backend(TasBackend::Tournament)
                .seed_policy(SeedPolicy::Fixed(h.seed()))
                .build()
                .expect("tournament service builds");
            assert!(service.supports_release(), "tournament must be long-lived");
            let best = best_of(|| direct_cycle(&service), threads, tournament_ops, TOURNAMENT_REPS);
            let drained = service.held() == 0;
            all_drained &= drained;
            curve.push(best.ops_per_sec());
            table.row([
                service.algorithm().to_string(),
                "tournament".to_string(),
                threads.to_string(),
                best.ops.to_string(),
                format!("{:.0}", best.ops_per_sec() / 1e3),
                if drained { "yes".into() } else { "NO".to_string() },
            ]);
            tournament_rows.push(json!({
                "backend": service.algorithm(),
                "tas": "tournament",
                "threads": threads,
                "capacity": TOURNAMENT_CAPACITY,
                "ops": best.ops,
                "ops_per_sec": best.ops_per_sec(),
                "drained": drained
            }));
            h.record(
                "service_throughput",
                json!({
                    "backend": service.algorithm(),
                    "tas": "tournament",
                    "threads": threads,
                    "capacity": TOURNAMENT_CAPACITY
                }),
                json!({"ops": best.ops, "ops_per_sec": best.ops_per_sec(), "drained": drained}),
            );
        }
        let _ = writeln!(
            out,
            "{algorithm:?} over the tournament substrate: {:.0} .. {:.0} Kops/s across {:?} threads (every cycle epoch-resets its slot)",
            curve.first().copied().unwrap_or(0.0) / 1e3,
            curve.last().copied().unwrap_or(0.0) / 1e3,
            tournament_threads,
        );
    }

    // ---- O(1) reset proof, via the counting instrumentation. ----
    //
    // A reset must be a pure epoch bump: win a slot, reset it, and
    // assert the register-operation counters across all of the tree's
    // nodes did not move — i.e. the cost is independent of node_count()
    // — and that the slot is immediately winnable again.
    let slot = TicketTas::new(TournamentTas::new(TOURNAMENT_CAPACITY));
    assert!(slot.test_and_set().won(), "fresh slot must be winnable");
    let ops_before_reset = slot.inner().register_ops();
    slot.reset();
    let reset_register_ops = slot.inner().register_ops() - ops_before_reset;
    let reset_is_epoch_bump = reset_register_ops == 0;
    let reacquired = slot.test_and_set().won();
    let _ = writeln!(
        out,
        "tournament reset: {reset_register_ops} register ops across {} nodes (epoch bump), slot winnable again: {reacquired}",
        slot.inner().node_count(),
    );

    write_artifact(
        h,
        "service_throughput",
        ARTIFACT_PATH,
        json!({
            "capacity": CAPACITY,
            "tournament_capacity": TOURNAMENT_CAPACITY,
            "reps": REPS,
            "threads_sweep": thread_counts,
            "mode_rows": mode_rows,
            "mode_comparison": mode_comparison,
            "tournament_churn": tournament_rows,
            "tournament_reset": {
                "register_ops": reset_register_ops,
                "node_count": slot.inner().node_count(),
                "is_epoch_bump": reset_is_epoch_bump,
                "reacquired_after_reset": reacquired
            }
        }),
        &mut out,
    );

    let _ = writeln!(out, "{mode_table}");
    let _ = writeln!(out, "{table}");
    out.push_str(&verdict(
        all_drained && reset_is_epoch_bump && reacquired,
        "every backend (incl. tournament churn) completed all acquire/release cycles, drained to 0 held names, and reset cost 0 register ops",
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
            "single-batch",
            "doubling-uniform",
            " tournament ",
            " direct ",
            " async ",
            "async/direct",
            "epoch bump",
        ] {
            assert!(report.contains(label), "missing {label} in:\n{report}");
        }
    }
}
