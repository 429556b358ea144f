//! End-to-end wire throughput: the renaming protocol served over real
//! loopback TCP, measured from the client side.
//!
//! Not a paper claim — this experiment tracks the network front-end
//! (`renaming-net`): for each of the paper's three algorithms, it binds
//! a `NameServer` on an ephemeral loopback port and drives the shared
//! load-generator library (`renaming_net::loadgen`, the same code
//! behind the `renaming-loadgen` bin) through a connections × churn
//! sweep. Every wire round trip is timed on the client side and the
//! committed p50/p99 come from the interpolated
//! `renaming_analysis::Summary::quantile` path over those raw samples —
//! the numbers here are what a caller of the *deployed* service would
//! see, syscalls and scheduling included, where `service_throughput`
//! stops at the in-process boundary.
//!
//! Each backend's run also proves two lifecycle properties over the
//! wire: a client connection dropped while holding names heals the
//! namespace (occupancy provably returns to zero in the `Stats`
//! answer — RAII over the wire), and a `Shutdown` request stops the
//! server gracefully (the accept loop and every handler join).
//!
//! Results land in the harness records and in `BENCH_net.json`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use renaming_net::{Client, LoadConfig, NameServer, ServerConfig, ServerHandle};
use renaming_service::{Algorithm, NameService, SeedPolicy};

use crate::experiments::{header, verdict};
use crate::Harness;

/// Where the JSON artifact lands (relative to the working directory).
pub const ARTIFACT_PATH: &str = "BENCH_net.json";

/// Provisioned capacity: comfortably above the largest sweep point's
/// steady-state occupancy (`connections * (hold + pipeline)`), so every
/// acquire must succeed and any `Exhausted` answer is a failure.
const CAPACITY: usize = 128;

/// The backends served: the paper's three algorithms.
const BACKENDS: [Algorithm; 3] = [
    Algorithm::Rebatching,
    Algorithm::Adaptive,
    Algorithm::FastAdaptive,
];

fn connection_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 2]
    } else {
        vec![1, 2, 4, 8]
    }
}

fn hold_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 4]
    } else {
        vec![1, 8]
    }
}

/// The server's occupancy as one `Stats` round trip sees it.
fn occupancy(client: &mut Client) -> Option<u64> {
    let stats = client.stats().ok()?;
    stats
        .get("service")
        .and_then(|s| s.get("occupancy"))
        .and_then(Value::as_u64)
}

/// Polls occupancy until it reaches `target` or the deadline passes.
fn wait_for_occupancy(client: &mut Client, target: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if occupancy(client) == Some(target) {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Spawns a server for `algorithm`: metrics on (so `Stats` exports the
/// histograms), handler pool sized for the sweep.
fn spawn_backend(algorithm: Algorithm, seed: u64, handlers: usize) -> ServerHandle {
    let service = NameService::builder(algorithm, CAPACITY)
        .metrics(true)
        .seed_policy(SeedPolicy::Fixed(seed))
        .build()
        .expect("service builds for every paper algorithm");
    let config = ServerConfig {
        handlers: handlers.max(2),
        ..ServerConfig::default()
    };
    NameServer::bind("127.0.0.1:0", service, config)
        .expect("loopback ephemeral bind")
        .spawn()
        .expect("server thread spawns")
}

/// The `net_throughput` experiment: wire-protocol acquire/release
/// ops/sec and client-observed p50/p99 latency per backend across a
/// connections × churn sweep, plus the dropped-connection heal proof
/// and a graceful wire shutdown per backend. Writes `BENCH_net.json`.
pub fn net_throughput(h: &mut Harness) -> String {
    let mut out = header(
        "net_throughput",
        "Net: wire-protocol server ops/sec and p50/p99 latency per backend, connections, churn (tooling)",
    );
    let ops_per_connection = if h.quick() { 150 } else { 3_000 };
    let connections_sweep = connection_sweep(h.quick());
    let holds = hold_sweep(h.quick());
    let max_connections = *connections_sweep.last().expect("non-empty");

    let mut table = renaming_analysis::Table::new([
        "backend", "conns", "hold", "ops", "Kops/s", "p50_us", "p99_us", "drained",
    ]);
    let mut rows: Vec<Value> = Vec::new();
    let mut lifecycle: Vec<Value> = Vec::new();
    let mut all_clean = true;
    let mut all_drained = true;
    let mut all_healed = true;
    let mut all_shutdown = true;

    for algorithm in BACKENDS {
        let handle = spawn_backend(algorithm, h.seed(), max_connections);
        let addr = handle.addr();
        let mut observer = Client::connect(addr).expect("observer connects");
        let backend = format!("{algorithm:?}");

        for &connections in &connections_sweep {
            for &hold in &holds {
                let config = LoadConfig {
                    connections,
                    ops_per_connection,
                    pipeline: 1,
                    hold,
                };
                let report = renaming_net::loadgen::run(addr, &config)
                    .expect("load run completes over loopback");
                let clean = report.errors == 0 && report.exhausted == 0;
                all_clean &= clean;
                // The loadgen drains every name it acquired before
                // disconnecting, so steady-state occupancy must be 0.
                let drained = wait_for_occupancy(&mut observer, 0);
                all_drained &= drained;
                table.row([
                    backend.clone(),
                    connections.to_string(),
                    hold.to_string(),
                    report.ops.to_string(),
                    format!("{:.1}", report.ops_per_sec() / 1e3),
                    format!("{:.1}", report.acquire.p50_nanos / 1e3),
                    format!("{:.1}", report.acquire.p99_nanos / 1e3),
                    if drained { "yes".into() } else { "NO".to_string() },
                ]);
                let mut row = report.to_json();
                if let Value::Object(pairs) = &mut row {
                    pairs.push(("backend".to_string(), json!(backend.clone())));
                    pairs.push(("drained".to_string(), json!(drained)));
                    pairs.push(("clean".to_string(), json!(clean)));
                }
                rows.push(row);
                h.record(
                    "net_throughput",
                    json!({
                        "backend": backend.clone(),
                        "connections": connections,
                        "hold": hold,
                        "pipeline": 1,
                        "capacity": CAPACITY
                    }),
                    json!({
                        "ops": report.ops,
                        "ops_per_sec": report.ops_per_sec(),
                        "acquire_p50_nanos": report.acquire.p50_nanos,
                        "acquire_p99_nanos": report.acquire.p99_nanos,
                        "release_p50_nanos": report.release.p50_nanos,
                        "exhausted": report.exhausted,
                        "errors": report.errors,
                        "drained": drained
                    }),
                );
            }
        }

        // RAII over the wire: a connection dropped while holding names
        // must heal the namespace without any release request.
        let healed = {
            let mut holder = Client::connect(addr).expect("holder connects");
            let acquired = holder.acquire_many(3).expect("pipeline of 3");
            let all_names = acquired.iter().all(Result::is_ok);
            drop(holder);
            all_names && wait_for_occupancy(&mut observer, 0)
        };
        all_healed &= healed;

        // The final stats snapshot carries the server-side histograms
        // (the metrics layer this PR added) into the artifact.
        let stats = observer.stats().expect("stats snapshot");

        // Graceful shutdown over the wire: acknowledged, then the
        // accept loop and every handler join.
        let shutdown_ok = observer.shutdown().is_ok() && handle.join().is_ok();
        all_shutdown &= shutdown_ok;

        let _ = writeln!(
            out,
            "{backend}: dropped-connection heal {}, graceful shutdown {}",
            if healed { "ok" } else { "FAILED" },
            if shutdown_ok { "ok" } else { "FAILED" },
        );
        lifecycle.push(json!({
            "backend": backend,
            "dropped_connection_healed": healed,
            "graceful_shutdown": shutdown_ok,
            "final_stats": stats,
        }));
    }

    let artifact = json!({
        "experiment": "net_throughput",
        "mode": if h.quick() { "quick" } else { "full" },
        "seed": h.seed(),
        "capacity": CAPACITY,
        "ops_per_connection": ops_per_connection,
        "connections_sweep": connections_sweep,
        "hold_sweep": holds,
        "reproduce": format!(
            "cargo run -p renaming-bench --release --bin experiments -- net_throughput{} --seed {}",
            if h.quick() { " --quick" } else { "" },
            h.seed(),
        ),
        "rows": rows,
        "lifecycle": lifecycle,
    });
    match serde_json::to_string(&artifact) {
        Ok(text) => match std::fs::write(ARTIFACT_PATH, text + "\n") {
            Ok(()) => {
                let _ = writeln!(out, "wrote {ARTIFACT_PATH}");
            }
            Err(e) => {
                let _ = writeln!(out, "could not write {ARTIFACT_PATH}: {e}");
            }
        },
        Err(e) => {
            let _ = writeln!(out, "could not serialize artifact: {e}");
        }
    }

    let _ = writeln!(out, "{table}");
    out.push_str(&verdict(
        all_clean && all_drained && all_healed && all_shutdown,
        "every wire op succeeded within capacity, every run drained to 0 occupancy, every dropped connection healed, every backend shut down gracefully",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_passes_and_covers_every_backend_and_lifecycle_check() {
        let mut h = Harness::with_threads(true, 5, 2);
        let report = net_throughput(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
        for label in [
            "Rebatching",
            "Adaptive",
            "FastAdaptive",
            "dropped-connection heal ok",
            "graceful shutdown ok",
            "p50_us",
        ] {
            assert!(report.contains(label), "missing {label} in:\n{report}");
        }
        assert!(!h.records().is_empty());
    }
}
