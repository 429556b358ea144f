//! The benchmark's own tests: every workload runs and passes its gate at
//! a minimal length, the service workloads pass the concurrency oracle,
//! and the metric names the binary prints are the ones `BENCHMARK.json`
//! declares.

use std::path::Path;
use std::process::Command;
use std::time::Duration;

use perfbench::{run, Config, Workload, END_TO_END, PER_LAYER};
use serde_json::Value;

fn config(workload: Workload, millis: u64) -> Config {
    Config {
        workload,
        seed: 7,
        duration: Duration::from_millis(millis),
        trace: false,
        oracle: false,
    }
}

#[test]
fn every_workload_runs_and_passes_its_gate() {
    for workload in Workload::ALL {
        let outcome = run(&config(workload, 200));
        let name = workload.name();
        assert!(
            outcome.checks.failures.is_empty(),
            "{name}: {:?}",
            outcome.checks.failures
        );
        assert!(outcome.attempted > 0, "{name}: nothing attempted");
        assert_eq!(outcome.failed, 0, "{name}: operations failed");
        let names: Vec<&str> = outcome.metrics.iter().map(|(n, _, _)| *n).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared, "{name}");
        for (metric, _, value) in &outcome.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{name}: {metric} = {value}"
            );
        }
    }
}

#[test]
fn service_workloads_leave_a_clean_drained_oracle_verdict() {
    for workload in [
        Workload::WireSerial,
        Workload::WirePipelined,
        Workload::InprocFull,
    ] {
        let outcome = run(&Config {
            oracle: true,
            ..config(workload, 100)
        });
        let name = workload.name();
        // Every set-up's service is checked when it is torn down.
        assert!(
            outcome.checks.verdicts >= 1,
            "{name}: no oracle verdict was examined"
        );
        assert!(
            outcome.checks.failures.is_empty(),
            "{name}: {:?}",
            outcome.checks.failures
        );
    }
}

/// Runs the benchmark binary and parses its last line.
fn printed(workload: Workload, trace: bool) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "3",
            "--seconds",
            "0.8",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "exit {:?}: {stdout}",
        output.status
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

/// `(name, unit)` pairs of a `BENCHMARK.json` metric list.
fn declared(list: &Value) -> Vec<(String, String)> {
    let Value::Array(items) = list else {
        panic!("metric list is not an array");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` pairs of a printed `metrics` object, in order.
fn metrics_of(result: &Value) -> Vec<(String, String)> {
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("no metrics object in {result}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has no value"
            );
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let end_to_end = declared(spec.get("end_to_end").expect("end_to_end"));
    let per_layer = declared(spec.get("per_layer").expect("per_layer"));

    let Some(Value::Array(workloads)) = spec.get("workloads") else {
        panic!("no workloads list");
    };
    let declared_workloads: Vec<Workload> = workloads
        .iter()
        .map(|w| {
            let name = w
                .get("name")
                .and_then(Value::as_str)
                .expect("workload name");
            Workload::parse(name)
                .unwrap_or_else(|| panic!("BENCHMARK.json names unknown workload {name}"))
        })
        .collect();
    let first = *declared_workloads.first().expect("at least one workload");

    let pairs = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        pairs(&END_TO_END),
        end_to_end,
        "END_TO_END drifted from BENCHMARK.json"
    );
    assert_eq!(
        pairs(&PER_LAYER),
        per_layer,
        "PER_LAYER drifted from BENCHMARK.json"
    );
    assert_eq!(metrics_of(&printed(first, false)), end_to_end);
    assert_eq!(metrics_of(&printed(first, true)), per_layer);
}
