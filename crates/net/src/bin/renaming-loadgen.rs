//! The `renaming-loadgen` binary: drive a live `renaming-server` and
//! report client-observed throughput and latency.
//!
//! ```text
//! renaming-loadgen (--addr HOST:PORT | --addr-file PATH)
//!                  [--connections 4] [--ops 1000] [--pipeline 1]
//!                  [--hold 4] [--quick] [--json PATH]
//!                  [--stats] [--shutdown]
//! ```
//!
//! `--quick` shrinks the run to CI-smoke size. `--json PATH` writes the
//! report as a JSON document labelled `"experiment": "loadgen"`: one
//! `rows` entry in `LoadReport::to_json`'s shape, plus a final `Stats`
//! snapshot. `--stats` prints the server's `Stats` JSON after the run;
//! `--shutdown` then asks the server to stop gracefully — the CI smoke
//! step uses both.

use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;

use renaming_net::{loadgen, Client, LoadConfig};
use serde_json::json;

const USAGE: &str = "usage: renaming-loadgen (--addr HOST:PORT | --addr-file PATH) \
[--connections N] [--ops N] [--pipeline N] [--hold N] [--quick] [--json PATH] \
[--stats] [--shutdown]";

struct Args {
    addr: Option<String>,
    addr_file: Option<String>,
    config: LoadConfig,
    quick: bool,
    json: Option<String>,
    stats: bool,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        addr_file: None,
        config: LoadConfig::default(),
        quick: false,
        json: None,
        stats: false,
        shutdown: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--addr-file" => args.addr_file = Some(value("--addr-file")?),
            "--connections" => {
                args.config.connections = value("--connections")?
                    .parse()
                    .map_err(|e| format!("--connections: {e}"))?;
            }
            "--ops" => {
                args.config.ops_per_connection =
                    value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?;
            }
            "--pipeline" => {
                args.config.pipeline = value("--pipeline")?
                    .parse()
                    .map_err(|e| format!("--pipeline: {e}"))?;
            }
            "--hold" => {
                args.config.hold = value("--hold")?.parse().map_err(|e| format!("--hold: {e}"))?;
            }
            "--quick" => args.quick = true,
            "--json" => args.json = Some(value("--json")?),
            "--stats" => args.stats = true,
            "--shutdown" => args.shutdown = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.quick {
        args.config.connections = args.config.connections.min(2);
        args.config.ops_per_connection = args.config.ops_per_connection.min(100);
        args.config.pipeline = args.config.pipeline.min(4);
    }
    if args.addr.is_none() && args.addr_file.is_none() {
        return Err(format!("one of --addr / --addr-file is required\n{USAGE}"));
    }
    Ok(args)
}

fn resolve_addr(args: &Args) -> Result<SocketAddr, String> {
    let text = match (&args.addr, &args.addr_file) {
        (Some(addr), _) => addr.clone(),
        (None, Some(path)) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))?
            .trim()
            .to_string(),
        (None, None) => unreachable!("checked in parse_args"),
    };
    text.to_socket_addrs()
        .map_err(|e| format!("cannot resolve {text:?}: {e}"))?
        .next()
        .ok_or_else(|| format!("{text:?} resolved to no address"))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let addr = resolve_addr(&args)?;
    let report =
        loadgen::run(addr, &args.config).map_err(|e| format!("load run against {addr}: {e}"))?;

    println!(
        "{} connections x {} ops (pipeline {}, hold {}): {:.0} ops/s over {:.2}s",
        report.config.connections,
        report.config.ops_per_connection,
        report.config.pipeline,
        report.config.hold,
        report.ops_per_sec(),
        report.wall_seconds,
    );
    println!(
        "acquire: n={} mean={:.0}ns p50={:.0}ns p99={:.0}ns",
        report.acquire.count,
        report.acquire.mean_nanos,
        report.acquire.p50_nanos,
        report.acquire.p99_nanos,
    );
    println!(
        "release: n={} mean={:.0}ns p50={:.0}ns p99={:.0}ns",
        report.release.count,
        report.release.mean_nanos,
        report.release.p50_nanos,
        report.release.p99_nanos,
    );
    if report.exhausted > 0 || report.errors > 0 {
        println!(
            "exhausted: {}  server errors: {}",
            report.exhausted, report.errors
        );
    }

    let mut control =
        Client::connect(addr).map_err(|e| format!("control connection to {addr}: {e}"))?;
    let stats = control.stats().map_err(|e| format!("stats: {e}"))?;
    if args.stats {
        println!("{stats}");
    }

    if let Some(path) = &args.json {
        let document = json!({
            "experiment": "loadgen",
            "mode": if args.quick { "quick" } else { "full" },
            "addr": addr.to_string(),
            "rows": [report.to_json()],
            "server_stats": stats,
        });
        let text = serde_json::to_string(&document).map_err(|e| format!("serialize: {e}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }

    if args.shutdown {
        control.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        println!("server acknowledged shutdown");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
