//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a host record, supporting figures, and as its last line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits non-zero, printing no metrics, when a correctness check fails.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::{host, out_dir, run, trace, wire_cpu, Config, Outcome, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::WireSerial,
        seed: 0,
        duration: Duration::from_secs(10),
        trace: false,
        oracle: false,
    };
    let mut workload = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                cfg.duration = Duration::from_secs_f64(seconds);
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

/// A JSON number; non-finite values have no JSON form.
fn number(value: f64) -> Option<String> {
    value.is_finite().then(|| format!("{value}"))
}

fn host_record(cfg: &Config, busy_steal: Option<(f64, f64)>) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let allowed: Vec<String> = host::allowed_cpus().iter().map(usize::to_string).collect();
    // The wire workloads, and the wire probes of every traced run, run
    // pinned.
    let wire = matches!(cfg.workload, Workload::WireSerial | Workload::WirePipelined);
    let or_null = |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
    let pinned = or_null(
        (wire || cfg.trace)
            .then(wire_cpu)
            .flatten()
            .map(|c| c.to_string()),
    );
    let busy = or_null(busy_steal.and_then(|(b, _)| number(b)));
    let steal = or_null(busy_steal.and_then(|(_, s)| number(s)));
    format!(
        "{{\"host\": {{\"rev\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"available_parallelism\": {parallelism}, \"cpus_allowed\": [{}], \
         \"wire_pinned_cpu\": {pinned}, \"busy_frac\": {busy}, \"steal_frac\": {steal}}}}}",
        host::git_rev(),
        cfg.workload.name(),
        cfg.seed,
        cfg.duration.as_secs_f64(),
        cfg.trace,
        allowed.join(", "),
    )
}

fn result_line(outcome: &Outcome, correct: bool) -> String {
    let mut metrics = String::new();
    if correct {
        for (i, (name, unit, value)) in outcome.metrics.iter().enumerate() {
            let value = number(*value).expect("finite metric");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted, outcome.failed
    )
}

fn write_artifacts(
    cfg: &Config,
    host: &str,
    result: &str,
    outcome: &Outcome,
) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    std::fs::write(
        dir.join(format!("{stem}.json")),
        format!("{host}\n{result}\n"),
    )?;
    if cfg.trace {
        let file = std::fs::File::create(dir.join(format!("spans-{}.tsv", cfg.workload.name())))?;
        let mut out = std::io::BufWriter::new(file);
        trace::write_tsv(&mut out, &outcome.recorders)?;
        std::io::Write::flush(&mut out)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let before = host::CpuTimes::now();
    let outcome = run(&cfg);
    let after = host::CpuTimes::now();
    let busy_steal = before.zip(after).map(|(b, a)| b.fractions(&a));
    let host = host_record(&cfg, busy_steal);
    let mut violations = outcome.checks.failures.clone();
    for (name, _, value) in &outcome.metrics {
        if !value.is_finite() {
            violations.push(format!("metric {name} could not be measured ({value})"));
        }
    }
    let correct = violations.is_empty();
    let result = result_line(&outcome, correct);
    println!("{host}");
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .filter_map(|(k, v)| number(*v).map(|v| format!("\"{k}\": {v}")))
        .collect();
    println!("{{\"notes\": {{{}}}}}", notes.join(", "));
    if let Err(e) = write_artifacts(&cfg, &host, &result, &outcome) {
        eprintln!("could not write run artifacts: {e}");
    }
    for v in &violations {
        eprintln!("correctness check failed: {v}");
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
