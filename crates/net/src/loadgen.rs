//! The load-generator library: connections × churn sweeps against a
//! live server, with client-observed latency summaries.
//!
//! Each configured connection is one OS thread running one [`Client`]
//! through an acquire/release churn loop: acquire (possibly pipelined),
//! hold up to a churn window of names, release the oldest beyond it.
//! Every wire round trip is timed on the client side; per-connection
//! samples are merged and summarized through the workspace's
//! interpolated [`Summary::quantile`] path — the same order-statistic
//! rule every committed benchmark uses — so its p50/p99 are directly
//! comparable to the in-process numbers.
//!
//! Used by the `renaming-loadgen` bin against a live server; the wire
//! integration tests run it against an in-process one.

use std::net::SocketAddr;
use std::time::Instant;

use renaming_analysis::Summary;
use serde_json::{json, Value};

use crate::client::{Client, ClientError};

/// One load-generation run's shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent connections (one OS thread and one [`Client`] each).
    /// The target server's handler pool must be at least this large or
    /// the surplus connections wait unserved.
    pub connections: usize,
    /// Acquire operations per connection.
    pub ops_per_connection: usize,
    /// Pipeline depth: `1` issues serial round trips (highest latency
    /// fidelity); `d > 1` batches `d` acquires per flush, which the
    /// server answers with one write (throughput shape).
    pub pipeline: usize,
    /// Churn window: how many names a connection holds before it starts
    /// releasing the oldest. Small = hot recycle churn; large = high
    /// steady-state occupancy.
    pub hold: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            connections: 4,
            ops_per_connection: 1_000,
            pipeline: 1,
            hold: 4,
        }
    }
}

/// Client-observed latency for one operation kind, summarized through
/// [`Summary`] (interpolated quantiles over the raw per-call samples).
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Number of samples (for `pipeline > 1`, one acquire sample is the
    /// batch round trip divided by its depth).
    pub count: usize,
    /// Mean latency in nanoseconds.
    pub mean_nanos: f64,
    /// Interpolated median, nanoseconds.
    pub p50_nanos: f64,
    /// Interpolated 99th percentile, nanoseconds.
    pub p99_nanos: f64,
}

impl LatencySummary {
    fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self {
                count: 0,
                mean_nanos: 0.0,
                p50_nanos: 0.0,
                p99_nanos: 0.0,
            };
        }
        let summary = Summary::from_values(samples.iter().copied());
        Self {
            count: summary.count(),
            mean_nanos: summary.mean(),
            p50_nanos: summary.quantile(0.5),
            p99_nanos: summary.quantile(0.99),
        }
    }

    /// The summary as a JSON object (the `acquire` and `release`
    /// entries of [`LoadReport::to_json`]).
    pub fn to_json(&self) -> Value {
        json!({
            "count": self.count,
            "mean_nanos": self.mean_nanos,
            "p50_nanos": self.p50_nanos,
            "p99_nanos": self.p99_nanos,
        })
    }
}

/// The merged result of one run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The configuration that produced this report.
    pub config: LoadConfig,
    /// Wall-clock seconds for the whole run (connect to last release).
    pub wall_seconds: f64,
    /// Total wire operations completed (acquires + releases).
    pub ops: u64,
    /// Graceful `Exhausted` answers received (the loadgen releases a
    /// held name and continues when it sees one).
    pub exhausted: u64,
    /// Non-exhausted server error statuses received.
    pub errors: u64,
    /// Client-observed acquire latency.
    pub acquire: LatencySummary,
    /// Client-observed release latency.
    pub release: LatencySummary,
}

impl LoadReport {
    /// Operations per second over the wall clock.
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.ops as f64 / self.wall_seconds
        }
    }

    /// The report as a JSON object — one row of the
    /// `renaming-loadgen --json` document.
    pub fn to_json(&self) -> Value {
        json!({
            "connections": self.config.connections,
            "ops_per_connection": self.config.ops_per_connection,
            "pipeline": self.config.pipeline,
            "hold": self.config.hold,
            "wall_seconds": self.wall_seconds,
            "ops": self.ops,
            "ops_per_sec": self.ops_per_sec(),
            "exhausted": self.exhausted,
            "errors": self.errors,
            "acquire": self.acquire.to_json(),
            "release": self.release.to_json(),
        })
    }
}

/// Per-connection accumulator merged into the final report.
#[derive(Debug, Default)]
struct WorkerStats {
    acquire_nanos: Vec<f64>,
    release_nanos: Vec<f64>,
    ops: u64,
    exhausted: u64,
    errors: u64,
}

/// Runs one load sweep point against a live server.
///
/// # Errors
///
/// The first transport-level failure any connection hit (server error
/// *statuses* are counted in the report, not fatal).
pub fn run(addr: SocketAddr, config: &LoadConfig) -> Result<LoadReport, ClientError> {
    let config = LoadConfig {
        connections: config.connections.max(1),
        ops_per_connection: config.ops_per_connection.max(1),
        pipeline: config.pipeline.max(1),
        hold: config.hold.max(1),
    };
    let start = Instant::now();
    let outcomes: Vec<Result<WorkerStats, ClientError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.connections)
            .map(|_| {
                let config = &config;
                scope.spawn(move || worker(addr, config))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen worker never panics"))
            .collect()
    });
    let wall_seconds = start.elapsed().as_secs_f64();

    let mut acquire_nanos = Vec::new();
    let mut release_nanos = Vec::new();
    let mut ops = 0u64;
    let mut exhausted = 0u64;
    let mut errors = 0u64;
    for outcome in outcomes {
        let stats = outcome?;
        acquire_nanos.extend(stats.acquire_nanos);
        release_nanos.extend(stats.release_nanos);
        ops += stats.ops;
        exhausted += stats.exhausted;
        errors += stats.errors;
    }
    Ok(LoadReport {
        config,
        wall_seconds,
        ops,
        exhausted,
        errors,
        acquire: LatencySummary::from_samples(&acquire_nanos),
        release: LatencySummary::from_samples(&release_nanos),
    })
}

/// One connection's churn loop.
fn worker(addr: SocketAddr, config: &LoadConfig) -> Result<WorkerStats, ClientError> {
    let mut client = Client::connect(addr)?;
    let mut stats = WorkerStats::default();
    let mut held: Vec<u64> = Vec::with_capacity(config.hold + config.pipeline);
    let mut remaining = config.ops_per_connection;
    while remaining > 0 {
        let depth = config.pipeline.min(remaining);
        let start = Instant::now();
        let outcomes = client.acquire_many(depth)?;
        // One batch round trip covers `depth` acquires; attribute the
        // per-op share to each so pipeline depths stay comparable on
        // the same axis (documented approximation; exact at depth 1).
        let per_op = start.elapsed().as_nanos() as f64 / depth as f64;
        for outcome in outcomes {
            match outcome {
                Ok(name) => {
                    stats.acquire_nanos.push(per_op);
                    stats.ops += 1;
                    held.push(name);
                }
                Err(e) if e.is_exhausted() => stats.on_exhausted(&mut client, &mut held)?,
                Err(ClientError::Server { .. }) => stats.errors += 1,
                Err(e) => return Err(e),
            }
        }
        remaining -= depth;
        // Churn: shed oldest names beyond the hold window.
        while held.len() > config.hold {
            let name = held.remove(0);
            stats.timed_release(&mut client, name)?;
        }
    }
    // Drain: every name back before disconnecting (the server would
    // release them on drop, but a clean drain keeps the release-latency
    // sample set complete and leaves occupancy at zero deterministically).
    for name in held.drain(..) {
        stats.timed_release(&mut client, name)?;
    }
    Ok(stats)
}

impl WorkerStats {
    fn timed_release(&mut self, client: &mut Client, name: u64) -> Result<(), ClientError> {
        let start = Instant::now();
        match client.release(name) {
            Ok(()) => {
                self.release_nanos.push(start.elapsed().as_nanos() as f64);
                self.ops += 1;
                Ok(())
            }
            Err(ClientError::Server { .. }) => {
                self.errors += 1;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// The graceful-exhaustion policy: count it, free one held name so
    /// forward progress resumes, and carry on.
    fn on_exhausted(&mut self, client: &mut Client, held: &mut Vec<u64>) -> Result<(), ClientError> {
        self.exhausted += 1;
        if !held.is_empty() {
            let name = held.remove(0);
            self.timed_release(client, name)?;
        }
        Ok(())
    }
}
