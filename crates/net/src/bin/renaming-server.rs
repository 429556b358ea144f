//! The `renaming-server` binary: a standalone wire-protocol renaming
//! server over any backend the service builder offers.
//!
//! ```text
//! renaming-server [--addr 127.0.0.1:0] [--addr-file PATH]
//!                 [--algorithm rebatching] [--capacity 64]
//!                 [--handlers 8] [--pipeline 32] [--no-metrics]
//!                 [--oracle] [--seed N]
//! ```
//!
//! Binding `:0` picks an ephemeral port; the resolved address is
//! printed to stdout (`listening on ...`) and, with `--addr-file`,
//! written to a file so scripts (CI's smoke step, the load generator's
//! `--addr-file`) can discover it without parsing output. The process
//! serves until a wire `Shutdown` request arrives.

use std::io::Write as _;
use std::process::ExitCode;

use renaming_net::{NameServer, ServerConfig};
use renaming_service::{Algorithm, NameService, SeedPolicy};

const USAGE: &str = "usage: renaming-server [--addr HOST:PORT] [--addr-file PATH] \
[--algorithm NAME] [--capacity N] [--handlers N] \
[--pipeline N] [--no-metrics] [--oracle] [--seed N]
algorithms: rebatching | adaptive | fast-adaptive | uniform | linear-scan";

fn parse_algorithm(name: &str) -> Option<Algorithm> {
    Some(match name {
        "rebatching" => Algorithm::Rebatching,
        "adaptive" | "adaptive-rebatching" => Algorithm::Adaptive,
        "fast-adaptive" | "fast-adaptive-rebatching" => Algorithm::FastAdaptive,
        "uniform" => Algorithm::Uniform,
        "linear-scan" => Algorithm::LinearScan,
        _ => return None,
    })
}

struct Args {
    addr: String,
    addr_file: Option<String>,
    algorithm: Algorithm,
    capacity: usize,
    config: ServerConfig,
    metrics: bool,
    oracle: bool,
    seed: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        addr_file: None,
        algorithm: Algorithm::Rebatching,
        capacity: 64,
        config: ServerConfig::default(),
        metrics: true,
        oracle: false,
        seed: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--addr-file" => args.addr_file = Some(value("--addr-file")?),
            "--algorithm" => {
                let name = value("--algorithm")?;
                args.algorithm = parse_algorithm(&name)
                    .ok_or_else(|| format!("unknown algorithm {name:?}\n{USAGE}"))?;
            }
            "--capacity" => {
                args.capacity = value("--capacity")?
                    .parse()
                    .map_err(|e| format!("--capacity: {e}"))?;
            }
            "--handlers" => {
                args.config.handlers = value("--handlers")?
                    .parse()
                    .map_err(|e| format!("--handlers: {e}"))?;
            }
            "--pipeline" => {
                args.config.max_pipeline = value("--pipeline")?
                    .parse()
                    .map_err(|e| format!("--pipeline: {e}"))?;
            }
            "--no-metrics" => args.metrics = false,
            "--oracle" => args.oracle = true,
            "--seed" => {
                args.seed = Some(value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let mut builder = NameService::builder(args.algorithm, args.capacity)
        .metrics(args.metrics)
        .oracle(args.oracle);
    if let Some(seed) = args.seed {
        builder = builder.seed_policy(SeedPolicy::Fixed(seed));
    }
    let service = match builder.build() {
        Ok(service) => service,
        Err(e) => {
            eprintln!("cannot build service: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match NameServer::bind(args.addr.as_str(), service, args.config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    if let Some(path) = &args.addr_file {
        if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("listening on {addr}");
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("server error: {e}");
            ExitCode::FAILURE
        }
    }
}
