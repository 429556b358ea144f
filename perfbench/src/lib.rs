//! The repository's benchmark: four closed-loop workloads measured from
//! outside the program, each gated by correctness checks, plus a traced
//! run that splits the time by layer. See `README.md` in this directory
//! for the workloads, the metrics and how to run them.

pub mod gate;
pub mod host;
mod inproc;
mod layers;
mod sim;
mod stats;
pub mod trace;
mod wire;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use gate::Checks;
use stats::{median, quantile_f64, Histogram};
use trace::Recorder;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One wire connection, one request in flight, hold window of 16.
    WireSerial,
    /// One wire connection, windows of 16 releases then 16 acquires.
    WirePipelined,
    /// `NameService` in-process at 90% occupancy, two threads.
    InprocFull,
    /// `Sweep` trials of ReBatching fleets on the simulator.
    SimSweep,
}

impl Workload {
    /// Every workload the binary can run; `BENCHMARK.json` lists the
    /// ones a regression check runs.
    pub const ALL: [Workload; 4] = [
        Workload::WireSerial,
        Workload::WirePipelined,
        Workload::InprocFull,
        Workload::SimSweep,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSerial => "wire_serial",
            Workload::WirePipelined => "wire_pipelined",
            Workload::InprocFull => "inproc_full",
            Workload::SimSweep => "sim_sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seeds every input the workload generates.
    pub seed: u64,
    /// Length of the timed phase.
    pub duration: Duration,
    /// Emit per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Build services with the concurrency oracle (the benchmark's tests
    /// only; measured runs use builder defaults).
    pub oracle: bool,
}

/// End-to-end metrics: name and unit, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("acquire_p50_us", "us"),
    ("acquire_p90_us", "us"),
    ("name_max_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("net.encode_ns", "ns"),
    ("net.decode_ns", "ns"),
    ("net.server_acquire_us.p50", "us"),
    ("net.server_acquire_us.p99", "us"),
    ("net.server_release_us.p50", "us"),
    ("net.outside_server_us.p50", "us"),
    ("net.client_release_us.p50", "us"),
    ("net.requests_per_flush", "count"),
    ("service.acquire_ns.p50", "ns"),
    ("service.acquire_ns.p99", "ns"),
    ("service.release_ns.p50", "ns"),
    ("service.async_acquire_ns.p50", "ns"),
    ("service.batch_acquire_ns_per_name", "ns"),
    ("service.workers_created", "count"),
    ("service.workers_retired", "count"),
    ("core.session_acquire_ns.p50", "ns"),
    ("core.session_acquire_ns.p99", "ns"),
    ("core.batch_acquire_ns_per_name", "ns"),
    ("tas.ops_per_acquire", "count"),
    ("tas.win_frac", "ratio"),
    ("sim.ns_per_step", "ns"),
    ("sim.max_steps", "count"),
    ("sim.steps_per_name", "count"),
    ("sweep.steps_per_s", "1/s"),
    ("sweep.efficiency", "ratio"),
    ("sweep.trials_per_s", "1/s"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds the timed phase is cut into.
const ROUNDS: usize = 50;
/// Where over the rounds throughput and latency are read. The host's
/// speed swings by up to half within seconds (other tenants share its
/// cores and caches); a run spends most rounds in the slower, contended
/// state, with bursts of a faster one that come and go between runs.
/// Reading throughput at the 10th percentile of rounds and latencies at
/// the 90th takes the contended state, which nearly every run contains.
/// See `STEADINESS.md` for the measurements behind this choice.
const SLOW_END: f64 = 0.1;

/// One round of a timed phase.
#[derive(Debug, Default)]
pub(crate) struct Round {
    pub ops: u64,
    pub seconds: f64,
    pub acquire: Histogram,
    pub release: Histogram,
}

/// A timed phase: its rounds, operation counts and (when traced) spans.
#[derive(Debug, Default)]
pub(crate) struct Phase {
    pub rounds: Vec<Round>,
    pub attempted: u64,
    pub failed: u64,
    pub recorders: Vec<Recorder>,
}

impl Phase {
    /// The `at`-quantile over rounds of a per-round figure.
    fn over_rounds(&self, at: f64, f: impl Fn(&Round) -> Option<f64>) -> f64 {
        let values: Vec<f64> = self.rounds.iter().filter_map(f).collect();
        quantile_f64(&values, at).unwrap_or(f64::NAN)
    }

    pub fn ops_per_s(&self) -> f64 {
        self.over_rounds(SLOW_END, |r| {
            (r.seconds > 0.0).then(|| r.ops as f64 / r.seconds)
        })
    }

    /// Each round's own acquire `q`-quantile, read at the slow end over
    /// rounds. Every percentile is read at the same place over rounds, so
    /// p50 ≤ p90 ≤ p99 holds in the report as it does in each round.
    pub fn acquire_us(&self, q: f64) -> f64 {
        self.over_rounds(1.0 - SLOW_END, |r| r.acquire.quantile(q).map(|ns| ns / 1e3))
    }

    pub fn release_p50_us(&self) -> f64 {
        self.over_rounds(1.0 - SLOW_END, |r| {
            r.release.quantile(0.5).map(|ns| ns / 1e3)
        })
    }

    /// Operations per second over the whole phase.
    fn throughput(&self) -> f64 {
        let ops: u64 = self.rounds.iter().map(|r| r.ops).sum();
        let seconds: f64 = self.rounds.iter().map(|r| r.seconds).sum();
        ops as f64 / seconds
    }

    /// Whole-run figures, for comparison in the notes: throughput over
    /// the whole phase and acquire p50 and p99 over all its samples.
    fn whole_run(&self) -> [(&'static str, f64); 4] {
        let mut pooled = Histogram::default();
        for r in &self.rounds {
            pooled.merge(&r.acquire);
        }
        let us = |q| pooled.quantile(q).map_or(f64::NAN, |ns| ns / 1e3);
        [
            ("acquire_samples", pooled.count() as f64),
            ("whole_run_ops_per_s", self.throughput()),
            ("whole_run_acquire_p50_us", us(0.5)),
            ("whole_run_acquire_p99_us", us(0.99)),
        ]
    }
}

/// Deadline of round `round` of `rounds` in a phase of `duration`
/// starting at `start`.
pub(crate) fn round_deadline(
    start: Instant,
    duration: Duration,
    round: usize,
    rounds: usize,
) -> Instant {
    start + duration.mul_f64((round + 1) as f64 / rounds as f64)
}

/// A workload's set-up state, able to run timed phases.
pub(crate) trait Rig: Sized {
    /// Whether the workload runs pinned to one CPU (see [`placed`]).
    const PINNED: bool;
    /// Builds, connects, prefills and warms up.
    fn setup(cfg: &Config) -> Self;
    /// Runs the workload for `duration` in `rounds` rounds; with
    /// `trace`, records spans against that epoch.
    fn measure(&mut self, duration: Duration, rounds: usize, trace: Option<Instant>) -> Phase;
    /// (Largest name issued + 1) / capacity.
    fn name_max_ratio(&self) -> f64;
    /// Returns every name, runs the end-of-run checks and tears down.
    fn finish(self, checks: &mut Checks);
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Metric name, unit, value, in declaration order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// The correctness gate; any failure makes the run invalid.
    pub checks: Checks,
    /// Supporting figures (sample counts, per-setup times), not metrics.
    pub notes: Vec<(String, f64)>,
    /// Spans of a traced run.
    pub recorders: Vec<Recorder>,
}

/// `values` in the order and with the units of `table`; a metric with no
/// value reads NaN, which the result line refuses.
fn in_table_order(
    table: &[(&'static str, &'static str)],
    values: &[(&'static str, f64)],
) -> Vec<(&'static str, &'static str, f64)> {
    table
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            (name, unit, value)
        })
        .collect()
}

/// Runs `cfg` and returns its outcome.
pub fn run(cfg: &Config) -> Outcome {
    match cfg.workload {
        Workload::WireSerial => run_rig::<wire::Serial>(cfg),
        Workload::WirePipelined => run_rig::<wire::Pipelined>(cfg),
        Workload::InprocFull => run_rig::<inproc::Inproc>(cfg),
        Workload::SimSweep => run_rig::<sim::SimSweep>(cfg),
    }
}

fn run_rig<R: Rig>(cfg: &Config) -> Outcome {
    if cfg.trace {
        traced::<R>(cfg)
    } else {
        placed(R::PINNED, || untraced::<R>(cfg))
    }
}

/// The CPU the wire workloads run on: the last one this process may
/// use.
pub fn wire_cpu() -> Option<usize> {
    host::allowed_cpus().last().copied()
}

/// Runs `f` on a thread pinned to [`wire_cpu`] when `pin` is set, else
/// on the calling thread. Threads `f` spawns inherit the pin, so a wire
/// server and its client share one CPU: a wake-up is then a same-CPU
/// switch, not a cross-CPU interrupt whose cost depends on where the
/// scheduler happened to put the two threads.
pub(crate) fn placed<T: Send>(pin: bool, f: impl FnOnce() -> T + Send) -> T {
    if !pin {
        return f();
    }
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                if let Some(cpu) = wire_cpu() {
                    host::pin_current_thread(cpu).expect("pin the wire workload to one CPU");
                }
                f()
            })
            .join()
            .expect("pinned workload thread")
    })
}

fn untraced<R: Rig>(cfg: &Config) -> Outcome {
    let mut checks = Checks::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        if let Some(previous) = rig.take() {
            R::finish(previous, &mut checks);
        }
        let start = Instant::now();
        rig = Some(R::setup(cfg));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");
    let phase = rig.measure(cfg.duration, ROUNDS, None);
    let ratio = rig.name_max_ratio();
    rig.finish(&mut checks);
    let values = [
        ("setup_s", median(&setups).unwrap_or(f64::NAN)),
        ("ops_per_s", phase.ops_per_s()),
        ("acquire_p50_us", phase.acquire_us(0.5)),
        ("acquire_p90_us", phase.acquire_us(0.9)),
        ("name_max_ratio", ratio),
        ("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN)),
    ];
    let mut notes: Vec<(String, f64)> = setups
        .iter()
        .enumerate()
        .map(|(i, s)| (format!("setup_{i}_s"), *s))
        .collect();
    notes.push(("acquire_p99_us".into(), phase.acquire_us(0.99)));
    notes.push(("release_p50_us".into(), phase.release_p50_us()));
    notes.extend(phase.whole_run().map(|(k, v)| (k.to_string(), v)));
    Outcome {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: in_table_order(&END_TO_END, &values),
        checks,
        notes,
        recorders: Vec::new(),
    }
}

fn traced<R: Rig>(cfg: &Config) -> Outcome {
    let epoch = Instant::now();
    // A quarter of the time each: the same rig untraced, then traced.
    let quarter = cfg.duration / 4;
    let (plain, mut traced, mut checks) = placed(R::PINNED, || {
        let mut checks = Checks::default();
        let mut rig = R::setup(cfg);
        let plain = rig.measure(quarter, 2, None);
        let traced = rig.measure(quarter, 2, Some(epoch));
        rig.finish(&mut checks);
        (plain, traced, checks)
    });
    let overhead = (plain.throughput() / traced.throughput() - 1.0) * 100.0;

    let mut recorders = std::mem::take(&mut traced.recorders);
    let mut values = layers::probe_all(cfg, cfg.duration / 2, epoch, &mut recorders, &mut checks);
    let spans: usize = recorders.iter().map(|r| r.spans().len()).sum();
    values.push(("trace.overhead_pct", overhead));
    values.push(("trace.spans", spans as f64));
    Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics: in_table_order(&PER_LAYER, &values),
        checks,
        notes: vec![
            ("untraced_ops_per_s".into(), plain.throughput()),
            ("traced_ops_per_s".into(), traced.throughput()),
        ],
        recorders,
    }
}

/// Where runs write their records and spans: `out/` next to this
/// package's manifest, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Derives the seed of item `index` of a stream from the run's seed.
pub(crate) fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
