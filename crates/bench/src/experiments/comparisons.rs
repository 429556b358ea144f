//! E10–E11: baseline comparisons and adversary sweeps.

use std::fmt::Write as _;
use std::sync::Arc;

use serde_json::json;

use renaming_analysis::{axis, LinearFit, Summary, Table};
use renaming_core::{Epsilon, ProbeSchedule};
use renaming_sim::ExecutionReport;

use crate::experiments::verdict;
use crate::harness::paper_layout;
use crate::sweep::{AdversaryKind, SweepWorker, TrialSpec};
use crate::Harness;
use crate::MachineKind;

/// One E10 trial: the same seed run through every contender.
struct CrossoverTrial {
    paper: ExecutionReport,
    tuned: ExecutionReport,
    uniform: ExecutionReport,
    /// Skipped for large `n` (linear scan is `Θ(n²)` total work).
    linear: Option<ExecutionReport>,
}

/// E10 — uniform probing grows like log n; ReBatching stays flat.
pub fn e10_crossover(h: &mut Harness) -> String {
    let mut out = String::new();
    let tuned = ProbeSchedule::tuned(Epsilon::one(), 3, 3).expect("valid tuned schedule");
    let mut table = Table::new([
        "n",
        "rebatch(paper) max",
        "rebatch(tuned) max",
        "uniform max",
        "uniform mean",
        "linear max",
    ]);
    let mut uniform_maxes = Vec::new();
    let mut rebatch_tuned_maxes = Vec::new();
    let mut log_axis = Vec::new();
    for n in h.n_sweep() {
        let trials = h.trials_for(n);
        let layout = paper_layout(n);
        let m = layout.namespace_size();
        let tuned_layout =
            renaming_core::BatchLayout::shared(n, tuned).expect("tuned layout");
        let paper_kind = MachineKind::Rebatching {
            layout: Arc::clone(&layout),
            base: 0,
        };
        let tuned_kind = MachineKind::Rebatching {
            layout: Arc::clone(&tuned_layout),
            base: 0,
        };
        let uniform_kind = MachineKind::Uniform { namespace: m };
        let linear_kind = MachineKind::LinearScan;
        let reports = h.sweep().trials(trials, |t, worker| {
            let seed = h.seed() ^ ((n as u64) << 18) ^ t as u64;
            let run = |worker: &mut SweepWorker, memory: usize, kind: &MachineKind| {
                worker.run(&TrialSpec::new(
                    memory,
                    n,
                    kind,
                    AdversaryKind::RoundRobin,
                    seed,
                ))
            };
            CrossoverTrial {
                paper: run(worker, m, &paper_kind),
                tuned: run(worker, tuned_layout.namespace_size(), &tuned_kind),
                uniform: run(worker, m, &uniform_kind),
                // Linear scan is Theta(n) per process (Theta(n^2) total
                // work): cap its sweep so it fits the livelock budget.
                linear: (n <= 1 << 11).then(|| run(worker, n, &linear_kind)),
            }
        });
        let uni = Summary::from_counts(reports.iter().map(|r| r.uniform.max_steps()));
        let tun = Summary::from_counts(reports.iter().map(|r| r.tuned.max_steps()));
        let lin_max: Vec<u64> = reports
            .iter()
            .filter_map(|r| r.linear.as_ref().map(ExecutionReport::max_steps))
            .collect();
        uniform_maxes.push(uni.mean());
        rebatch_tuned_maxes.push(tun.mean());
        log_axis.push(axis::log2(n));
        table.row([
            n.to_string(),
            format!(
                "{:.0}",
                Summary::from_counts(reports.iter().map(|r| r.paper.max_steps())).max()
            ),
            format!("{:.0}", tun.max()),
            format!("{:.0}", uni.max()),
            format!(
                "{:.2}",
                Summary::from_values(reports.iter().map(|r| r.uniform.mean_steps())).mean()
            ),
            if lin_max.is_empty() {
                "-".to_string()
            } else {
                format!("{:.0}", Summary::from_counts(lin_max).max())
            },
        ]);
        h.record(
            "e10",
            json!({"n": n, "trials": trials}),
            json!({"uniform_max": uni.max(), "tuned_max": tun.max()}),
        );
    }
    let uni_fit = LinearFit::fit(&log_axis, &uniform_maxes);
    let reb_fit = LinearFit::fit(&log_axis, &rebatch_tuned_maxes);
    let _ = writeln!(out, "{table}");
    let _ = writeln!(out, "uniform max-steps vs log2 n:        {uni_fit}");
    let _ = writeln!(out, "rebatch(tuned) max-steps vs log2 n: {reb_fit}");
    let _ = writeln!(
        out,
        "note: with the paper's t0 = 53 the constant dominates at laptop scales, so the\n\
         paper-profile crossover against uniform sits beyond n = 2^50; the tuned profile\n\
         (t0 = 3, same w.h.p. structure) wins from moderate n on — the asymptotic shapes\n\
         (Theta(log n) vs ~flat) are exactly the paper's."
    );
    // Shape check: uniform grows with log n clearly; tuned rebatching is
    // at least 3x flatter.
    let pass = uni_fit.slope() > 0.4 && reb_fit.slope() < uni_fit.slope() / 3.0;
    let crossover = log_axis
        .iter()
        .zip(uniform_maxes.iter().zip(&rebatch_tuned_maxes))
        .find(|(_, (u, r))| u > r)
        .map(|(x, _)| format!("2^{:.0}", x));
    out.push_str(&verdict(
        pass,
        &format!(
            "uniform grows {:.2} probes per doubling of n; tuned ReBatching {:.2} \
             (crossover at n ~ {})",
            uni_fit.slope(),
            reb_fit.slope(),
            crossover.unwrap_or_else(|| "beyond sweep".to_string())
        ),
    ));
    out
}

/// E11 — adversary sweep: correctness and step complexity under every
/// scheduler, including the strong ones.
pub fn e11_adversaries(h: &mut Harness) -> String {
    let mut out = String::new();
    let n = if h.quick() { 1 << 9 } else { 1 << 12 };
    let layout = paper_layout(n);
    let kind = MachineKind::Rebatching {
        layout: Arc::clone(&layout),
        base: 0,
    };
    let m = layout.namespace_size();
    let budget = layout.max_probes() as u64;
    let mut table = Table::new(["adversary", "max steps", "mean steps", "layers", "backup"]);
    let mut pass = true;
    for adversary in AdversaryKind::all() {
        let trials = h.trials_for(n).max(5);
        let reports = h.sweep().trials(trials, |t, worker| {
            worker.run(&TrialSpec::new(
                m,
                n,
                &kind,
                adversary,
                h.seed() ^ (t as u64) << 7,
            ))
        });
        let mut layers = None;
        let mut backups = 0usize;
        for r in &reports {
            pass &= r.named_count() == n;
            backups += r.backup_entries();
            pass &= r.backup_entries() > 0 || r.max_steps() <= budget;
            layers = r.layers.or(layers);
        }
        let maxes = Summary::from_counts(reports.iter().map(|r| r.max_steps()));
        table.row([
            adversary.label().to_string(),
            format!("{:.0}", maxes.max()),
            format!(
                "{:.2}",
                Summary::from_values(reports.iter().map(|r| r.mean_steps())).mean()
            ),
            layers.map(|l| l.to_string()).unwrap_or_else(|| "-".into()),
            backups.to_string(),
        ]);
        h.record(
            "e11",
            json!({"n": n, "adversary": adversary.label()}),
            json!({"max_steps": maxes.max(), "backups": backups}),
        );
    }
    let _ = writeln!(out, "n = {n}, probe budget = {budget}");
    let _ = writeln!(out, "{table}");
    out.push_str(&verdict(
        pass,
        "unique names under every scheduler; steps within budget whenever no backup ran",
    ));
    out
}

/// Shared by E7(c)-style diagnostics: layers-to-completion under the
/// layered schedule (used by the integration tests too).
pub fn layers_to_completion(n: usize, seed: u64, uniform: bool) -> u64 {
    let layout = paper_layout(n);
    let m = layout.namespace_size();
    let kind = if uniform {
        MachineKind::Uniform { namespace: m }
    } else {
        MachineKind::Rebatching {
            layout: Arc::clone(&layout),
            base: 0,
        }
    };
    let report = SweepWorker::new().run(&TrialSpec::new(
        m,
        n,
        &kind,
        AdversaryKind::LayeredPermutation,
        seed,
    ));
    report.layers.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_quick_passes() {
        let mut h = Harness::new(true, 11);
        let report = e10_crossover(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
    }

    #[test]
    fn e11_quick_passes() {
        let mut h = Harness::new(true, 11);
        let report = e11_adversaries(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
    }

    #[test]
    fn layered_layers_reflect_max_steps() {
        // Under the layered schedule, layers == max steps of the slowest
        // process (every live process takes one step per layer).
        let layers = layers_to_completion(128, 3, false);
        assert!(layers > 0 && layers < 200, "layers = {layers}");
    }

    #[test]
    fn uniform_needs_more_layers_than_tuned_budget() {
        let uniform_layers = layers_to_completion(1 << 10, 9, true);
        assert!(uniform_layers >= 4, "uniform should face collisions");
    }
}
