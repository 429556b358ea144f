//! A1–A2: ablations of ReBatching's design choices.

use std::fmt::Write as _;
use std::sync::Arc;

use serde_json::json;

use renaming_analysis::{Summary, Table};
use renaming_core::{BatchLayout, Epsilon, ProbeSchedule};
use renaming_sim::ExecutionReport;

use crate::experiments::verdict;
use crate::sweep::{AdversaryKind, TrialSpec};
use crate::Harness;
use crate::MachineKind;

/// A1 — the geometric batch layout vs the same probe budget without it.
pub fn a1_geometry(h: &mut Harness) -> String {
    let mut out = String::new();
    // Use the practical tuned profile so the probe budget is small enough
    // for the geometry to matter (with t0 = 53 neither variant ever runs
    // out of probes at these scales).
    let schedule = ProbeSchedule::tuned(Epsilon::one(), 3, 3).expect("tuned schedule");
    let mut table = Table::new([
        "n",
        "rebatch max",
        "rebatch backup",
        "single-batch max",
        "single-batch backup",
    ]);
    let mut pass = true;
    for n in h.n_sweep() {
        let layout = BatchLayout::shared(n, schedule).expect("layout");
        let m = layout.namespace_size();
        let budget = layout.max_probes();
        let trials = h.trials_for(n);
        let reb_kind = MachineKind::Rebatching {
            layout: Arc::clone(&layout),
            base: 0,
        };
        let sb_kind = MachineKind::SingleBatch {
            namespace: m,
            budget,
        };
        let reports: Vec<(ExecutionReport, ExecutionReport)> =
            h.sweep().trials(trials, |t, worker| {
                let seed = h.seed() ^ ((n as u64) << 16) ^ t as u64;
                let reb = worker.run(&TrialSpec::new(
                    m,
                    n,
                    &reb_kind,
                    AdversaryKind::UniformRandom,
                    seed,
                ));
                let sb = worker.run(&TrialSpec::new(
                    m,
                    n,
                    &sb_kind,
                    AdversaryKind::UniformRandom,
                    seed,
                ));
                (reb, sb)
            });
        let reb_backup: usize = reports.iter().map(|(r, _)| r.backup_entries()).sum();
        let sb_backup: usize = reports.iter().map(|(_, s)| s.backup_entries()).sum();
        let reb = Summary::from_counts(reports.iter().map(|(r, _)| r.max_steps()));
        let sb = Summary::from_counts(reports.iter().map(|(_, s)| s.max_steps()));
        // The geometry guarantees the budget; the flat variant may fall
        // into its (expensive, sequential) backup scan.
        pass &= reb_backup == 0 && reb.max() <= budget as f64;
        table.row([
            n.to_string(),
            format!("{:.0}", reb.max()),
            reb_backup.to_string(),
            format!("{:.0}", sb.max()),
            sb_backup.to_string(),
        ]);
        h.record(
            "a1",
            json!({"n": n, "budget": budget}),
            json!({"rebatch_max": reb.max(), "single_max": sb.max(),
                   "rebatch_backup": reb_backup, "single_backup": sb_backup}),
        );
    }
    let _ = writeln!(out, "tuned profile: t0 = 3, beta = 3 (same total budget for both)");
    let _ = writeln!(out, "{table}");
    out.push_str(&verdict(
        pass,
        "with geometric batches the budget always suffices (no backup); the flat \
         variant leans on its backup scan as n grows",
    ));
    out
}

/// A2 — the batch-0 probe count `t0`.
pub fn a2_t0(h: &mut Harness) -> String {
    let mut out = String::new();
    let n = if h.quick() { 1 << 10 } else { 1 << 14 };
    let mut table = Table::new([
        "t0",
        "max steps",
        "p99 steps",
        "mean steps",
        "into batch>=1",
        "backup",
    ]);
    let paper_t0 = ProbeSchedule::paper(Epsilon::one(), 3).expect("paper").t0();
    for &t0 in &[1usize, 2, 4, 8, paper_t0] {
        let schedule = ProbeSchedule::tuned(Epsilon::one(), 3, t0).expect("schedule");
        let layout = BatchLayout::shared(n, schedule).expect("layout");
        let kind = MachineKind::Rebatching {
            layout: Arc::clone(&layout),
            base: 0,
        };
        let m = layout.namespace_size();
        let trials = h.trials_for(n);
        let reports = h.sweep().trials(trials, |t, worker| {
            worker.run(&TrialSpec::new(
                m,
                n,
                &kind,
                AdversaryKind::UniformRandom,
                h.seed() ^ ((t0 as u64) << 13) ^ t as u64,
            ))
        });
        let deep: usize = reports.iter().map(|r| r.survivors_at_batch(1)).sum();
        let backups: usize = reports.iter().map(|r| r.backup_entries()).sum();
        table.row([
            t0.to_string(),
            format!(
                "{:.0}",
                Summary::from_counts(reports.iter().map(|r| r.max_steps())).max()
            ),
            format!(
                "{:.1}",
                Summary::from_values(reports.iter().map(|r| r.steps_quantile(0.99))).max()
            ),
            format!(
                "{:.2}",
                Summary::from_values(reports.iter().map(|r| r.mean_steps())).mean()
            ),
            deep.to_string(),
            backups.to_string(),
        ]);
        h.record(
            "a2",
            json!({"n": n, "t0": t0}),
            json!({"deep": deep, "backups": backups}),
        );
    }
    let _ = writeln!(out, "n = {n}, eps = 1, beta = 3");
    let _ = writeln!(out, "{table}");
    // Informational ablation: always "passes"; the table is the finding.
    out.push_str(&verdict(
        true,
        "small t0 pushes processes into later batches (and eventually backup); a few \
         probes already deliver the paper's behaviour — 17 ln(8e/eps)/eps is a proof \
         constant, not a practical requirement",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_quick_passes() {
        let mut h = Harness::new(true, 17);
        let report = a1_geometry(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
    }

    #[test]
    fn a2_quick_passes() {
        let mut h = Harness::new(true, 17);
        let report = a2_t0(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
    }
}
