//! The experiment registry: one entry per reproduced claim.
//!
//! Ids follow the paper's claims (`e1`..`e14`, ablations `a1`/`a2`,
//! plus tooling). Every experiment takes the shared [`Harness`], prints
//! nothing itself, and returns its tables and verdict, which [`run`]
//! heads with the catalog claim; the repository's `EXPERIMENTS.md`
//! catalogs the registry and a test keeps the two consistent.

mod ablations;
mod adaptive;
mod comparisons;
mod lower_bound;
mod non_adaptive;
mod oracle_churn;
mod robustness;
mod service_throughput;
mod throughput;

pub use comparisons::layers_to_completion;
pub use oracle_churn::ARTIFACT_PATH as ORACLE_ARTIFACT;
pub use service_throughput::ARTIFACT_PATH as SERVICE_ARTIFACT;
pub use throughput::{ARTIFACT_PATH as THROUGHPUT_ARTIFACT, SEED_OVER_BOXED, SPEEDUP_TARGET};

use std::fmt::Write as _;

use serde_json::{json, Value};

use crate::Harness;

/// Static description of one experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentInfo {
    /// Registry id: the paper claims `e1` .. `e14`, the ablations `a1`
    /// and `a2`, plus the tooling entries `throughput` (engine),
    /// `service_throughput` (the `NameService` front-end) and
    /// `oracle_churn` (the concurrency oracle's history checker).
    pub id: &'static str,
    /// The paper claim being reproduced; [`run`] heads the report with
    /// it.
    pub claim: &'static str,
    /// The experiment body. [`run`] dispatches through this pointer, so
    /// the catalog and the dispatcher cannot drift apart.
    pub runner: fn(&mut Harness) -> String,
}

/// All registered experiments, in presentation order.
pub fn catalog() -> Vec<ExperimentInfo> {
    vec![
        ExperimentInfo { id: "e1", claim: "Thm 4.1: ReBatching step complexity <= log log n + O(1) w.h.p.", runner: non_adaptive::e1_step_complexity },
        ExperimentInfo { id: "e2", claim: "Thm 4.1: ReBatching total step complexity O(n)", runner: non_adaptive::e2_total_steps },
        ExperimentInfo { id: "e3", claim: "Lemma 4.2: batch survivors n_i <= n*_i", runner: non_adaptive::e3_batch_survivors },
        ExperimentInfo { id: "e4", claim: "S4: the backup phase runs with very low probability", runner: non_adaptive::e4_backup_rate },
        ExperimentInfo { id: "e5", claim: "Thm 5.1: adaptive steps O((log log k)^2), names O(k) w.h.p.", runner: adaptive::e5_adaptive_steps },
        ExperimentInfo { id: "e6", claim: "Thm 5.2: fast adaptive total steps O(k log log k), names O(k) w.h.p.", runner: adaptive::e6_fast_adaptive },
        ExperimentInfo { id: "e7", claim: "Thm 6.1: survivors persist Omega(log log n) layers", runner: lower_bound::e7_layers },
        ExperimentInfo { id: "e8", claim: "Lemma 6.5: P_lambda(n+1) <= P_gamma(n)", runner: lower_bound::e8_lemma_6_5 },
        ExperimentInfo { id: "e9", claim: "Lemma 6.6: per-layer rate decay bound", runner: lower_bound::e9_lemma_6_6 },
        ExperimentInfo { id: "e10", claim: "S4 intro: uniform probing needs Theta(log n); ReBatching stays flat", runner: comparisons::e10_crossover },
        ExperimentInfo { id: "e11", claim: "S2: the algorithms work against strong adversaries", runner: comparisons::e11_adversaries },
        ExperimentInfo { id: "e12", claim: "S2 model: any number of crash failures is tolerated", runner: robustness::e12_crashes },
        ExperimentInfo { id: "e13", claim: "S4: namespace (1+eps)n for any fixed eps > 0", runner: robustness::e13_epsilon },
        ExperimentInfo { id: "e14", claim: "S2 remark: register-based TAS costs a log factor per operation", runner: robustness::e14_rw_tas },
        ExperimentInfo { id: "a1", claim: "Ablation: geometric batches vs same budget without geometry", runner: ablations::a1_geometry },
        ExperimentInfo { id: "a2", claim: "Ablation: the t0 = 17 ln(8e/eps)/eps constant", runner: ablations::a2_t0 },
        ExperimentInfo { id: "throughput", claim: "Engine: monomorphic fast path >= 5x the seed engine's steps/sec (tooling)", runner: throughput::throughput },
        ExperimentInfo { id: "service_throughput", claim: "Service: NameService acquire/release ops/sec per backend, sync/async caller, TAS substrate (tooling)", runner: service_throughput::service_throughput },
        ExperimentInfo { id: "oracle_churn", claim: "Oracle: vector-clock history checking passes under churn for every backend, sync and async (tooling)", runner: oracle_churn::oracle_churn },
    ]
}

/// Runs one experiment by id, returning its report text: the standard
/// header line with the catalog claim, then the runner's tables and
/// verdict.
///
/// # Panics
///
/// Panics on an unknown id — the binary validates ids first via
/// [`catalog`].
pub fn run(id: &str, harness: &mut Harness) -> String {
    let info = catalog()
        .into_iter()
        .find(|info| info.id == id)
        .unwrap_or_else(|| panic!("unknown experiment id `{id}`"));
    let mut report = header(info.id, info.claim);
    report.push_str(&(info.runner)(harness));
    report
}

/// Formats the standard report header.
fn header(id: &str, claim: &str) -> String {
    format!("== {} — {}\n", id.to_uppercase(), claim)
}

/// Writes a tooling experiment's JSON artifact to `path` (relative to
/// the working directory) and reports the outcome on `out`. Every
/// artifact opens with the same header: `experiment`, `mode`, `seed`,
/// the host's `available_parallelism`, and the `reproduce` command line
/// (which always names `--threads`); `body`'s fields follow.
///
/// # Panics
///
/// Panics if `body` is not a JSON object.
pub(crate) fn write_artifact(h: &Harness, id: &str, path: &str, body: Value, out: &mut String) {
    let Value::Object(body) = body else {
        panic!("the `{id}` artifact body must be a JSON object");
    };
    let mut artifact = json!({
        "experiment": id,
        "mode": if h.quick() { "quick" } else { "full" },
        "seed": h.seed(),
        "available_parallelism": std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        "reproduce": format!(
            "cargo run -p renaming-bench --release --bin experiments -- {id}{} --seed {} --threads {}",
            if h.quick() { " --quick" } else { "" },
            h.seed(),
            h.threads()
        )
    });
    if let Value::Object(fields) = &mut artifact {
        fields.extend(body);
    }
    let written = serde_json::to_string(&artifact)
        .map_err(std::io::Error::from)
        .and_then(|text| std::fs::write(path, text + "\n"));
    let _ = match written {
        Ok(()) => writeln!(out, "wrote {path}"),
        Err(e) => writeln!(out, "could not write {path}: {e}"),
    };
}

/// Formats the standard verdict line.
pub(crate) fn verdict(pass: bool, detail: &str) -> String {
    format!("[{}] {}\n", if pass { "PASS" } else { "FAIL" }, detail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_are_unique_and_runnable_names() {
        let cat = catalog();
        let mut ids: Vec<&str> = cat.iter().map(|e| e.id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
        assert_eq!(before, 19);
    }

    #[test]
    fn catalog_and_run_dispatch_stay_in_sync() {
        // `run` resolves through the catalog itself, so every id in the
        // catalog is runnable by construction; each entry must point at a
        // distinct body (a copy-pasted runner would silently shadow an
        // experiment).
        let cat = catalog();
        for info in &cat {
            let duplicates = cat
                .iter()
                .filter(|other| {
                    std::ptr::fn_addr_eq(other.runner, info.runner)
                })
                .count();
            assert_eq!(duplicates, 1, "runner for `{}` is shared", info.id);
        }
    }

    #[test]
    #[should_panic]
    fn unknown_id_panics() {
        let mut h = Harness::new(true, 0);
        run("zz", &mut h);
    }

    #[test]
    fn header_and_verdict_formats() {
        assert!(header("e1", "claim").starts_with("== E1"));
        assert!(verdict(true, "ok").starts_with("[PASS]"));
        assert!(verdict(false, "bad").starts_with("[FAIL]"));
    }
}
