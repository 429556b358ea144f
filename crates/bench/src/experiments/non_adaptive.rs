//! E1–E4: the non-adaptive ReBatching claims (§4 of the paper).

use std::fmt::Write as _;
use std::sync::Arc;

use serde_json::json;

use renaming_analysis::{axis, LinearFit, Summary, Table};
use renaming_sim::ExecutionReport;

use crate::experiments::verdict;
use crate::harness::paper_layout;
use crate::sweep::{AdversaryKind, TrialSpec};
use crate::Harness;
use crate::MachineKind;

/// Alternating benign adversaries for the sweep trials.
fn sweep_adversary(trial: usize) -> AdversaryKind {
    if trial.is_multiple_of(2) {
        AdversaryKind::RoundRobin
    } else {
        AdversaryKind::UniformRandom
    }
}

fn rebatching_reports(h: &Harness, n: usize) -> Vec<ExecutionReport> {
    let layout = paper_layout(n);
    let kind = MachineKind::Rebatching {
        layout: Arc::clone(&layout),
        base: 0,
    };
    let memory = layout.namespace_size();
    h.sweep().trials(h.trials_for(n), |trial, worker| {
        worker.run(&TrialSpec::new(
            memory,
            n,
            &kind,
            sweep_adversary(trial),
            h.seed() ^ ((n as u64) << 20) ^ trial as u64,
        ))
    })
}

/// E1 — Theorem 4.1, individual step complexity.
pub fn e1_step_complexity(h: &mut Harness) -> String {
    let mut out = String::new();
    let mut table = Table::new(["n", "kappa", "budget", "max", "p99", "mean", "backup"]);
    let mut xs_loglog = Vec::new();
    let mut xs_log = Vec::new();
    let mut ys = Vec::new();
    let mut all_within_budget = true;
    let mut any_backup = false;

    for n in h.n_sweep() {
        let layout = paper_layout(n);
        let budget = layout.max_probes() as u64;
        let reports = rebatching_reports(h, n);
        let maxes = Summary::from_counts(reports.iter().map(|r| r.max_steps()));
        let p99 = Summary::from_values(reports.iter().map(|r| r.steps_quantile(0.99)));
        let means = Summary::from_values(reports.iter().map(|r| r.mean_steps()));
        let backups: usize = reports.iter().map(|r| r.backup_entries()).sum();
        any_backup |= backups > 0;
        all_within_budget &= reports
            .iter()
            .all(|r| r.backup_entries() > 0 || r.max_steps() <= budget);
        table.row([
            n.to_string(),
            layout.kappa().to_string(),
            budget.to_string(),
            format!("{:.0}", maxes.max()),
            format!("{:.1}", p99.max()),
            format!("{:.2}", means.mean()),
            backups.to_string(),
        ]);
        xs_loglog.push(axis::log2_log2(n));
        xs_log.push(axis::log2(n));
        ys.push(maxes.mean());
        h.record(
            "e1",
            json!({"n": n, "trials": reports.len()}),
            json!({"max": maxes.max(), "p99": p99.max(), "mean": means.mean(), "backup": backups}),
        );
    }
    let fit_loglog = LinearFit::fit(&xs_loglog, &ys);
    let fit_log = LinearFit::fit(&xs_log, &ys);
    let _ = writeln!(out, "{table}");
    let _ = writeln!(out, "fit max-steps vs log2 log2 n: {fit_loglog}");
    let _ = writeln!(out, "fit max-steps vs log2 n:      {fit_log}");
    let pass = all_within_budget && !any_backup;
    out.push_str(&verdict(
        pass,
        &format!(
            "every process within the t0+(kappa-1)+beta budget, no backup entered; \
             growth tracks log log n (slope {:.2})",
            fit_loglog.slope()
        ),
    ));
    out
}

/// E2 — Theorem 4.1, total step complexity O(n).
pub fn e2_total_steps(h: &mut Harness) -> String {
    let mut out = String::new();
    let mut table = Table::new(["n", "total/n (mean)", "total/n (max)"]);
    let mut worst_ratio = 0.0f64;
    let mut budget_bound = 0.0f64;
    for n in h.n_sweep() {
        let layout = paper_layout(n);
        budget_bound = budget_bound.max(layout.max_probes() as f64);
        let reports = rebatching_reports(h, n);
        let ratios = Summary::from_values(
            reports
                .iter()
                .map(|r| r.total_steps as f64 / n as f64),
        );
        worst_ratio = worst_ratio.max(ratios.max());
        table.row([
            n.to_string(),
            format!("{:.2}", ratios.mean()),
            format!("{:.2}", ratios.max()),
        ]);
        h.record(
            "e2",
            json!({"n": n, "trials": reports.len()}),
            json!({"ratio_mean": ratios.mean(), "ratio_max": ratios.max()}),
        );
    }
    let _ = writeln!(out, "{table}");
    let pass = worst_ratio <= budget_bound;
    out.push_str(&verdict(
        pass,
        &format!(
            "total steps / n bounded by {worst_ratio:.2} across the sweep (theory: O(1), \
             at most the probe budget {budget_bound:.0})"
        ),
    ));
    out
}

/// Lemma 4.2's bound `n*_i` for slack `eps = 1` and margin `delta`.
fn survivor_bound(n: usize, i: usize, kappa: usize, delta: f64) -> f64 {
    if i == 0 {
        n as f64
    } else if i < kappa {
        // n*_i = eps * n / 2^(2^i + i + delta), eps = 1.
        n as f64 / f64::powf(2.0, f64::powi(2.0, i as i32) + i as f64 + delta)
    } else {
        // n*_kappa = log^2 n.
        let l = (n as f64).log2();
        l * l
    }
}

/// E3 — Lemma 4.2: per-batch survivor counts.
pub fn e3_batch_survivors(h: &mut Harness) -> String {
    let mut out = String::new();
    let n = if h.quick() { 1 << 12 } else { 1 << 16 };
    let layout = paper_layout(n);
    let kappa = layout.kappa();
    let delta = 0.1;
    let reports = rebatching_reports(h, n);
    let mut table = Table::new(["batch i", "worst n_i", "bound n*_i", "ok"]);
    let mut pass = true;
    for i in 0..=kappa + 1 {
        let observed = reports
            .iter()
            .map(|r| {
                if i <= kappa {
                    r.survivors_at_batch(i)
                } else {
                    r.backup_entries()
                }
            })
            .max()
            .unwrap_or(0);
        let bound = if i <= kappa {
            survivor_bound(n, i, kappa, delta)
        } else {
            0.0
        };
        let ok = (observed as f64) <= bound.max(0.0) || i == 0;
        pass &= ok;
        table.row([
            if i <= kappa {
                i.to_string()
            } else {
                format!("{i} (backup)")
            },
            observed.to_string(),
            format!("{bound:.2}"),
            if ok { "yes".into() } else { "NO".to_string() },
        ]);
        h.record(
            "e3",
            json!({"n": n, "batch": i}),
            json!({"observed": observed, "bound": bound}),
        );
    }
    let _ = writeln!(out, "n = {n}, kappa = {kappa}, trials = {}", reports.len());
    let _ = writeln!(out, "{table}");
    out.push_str(&verdict(
        pass,
        "observed survivors stay below the Lemma 4.2 envelope in every batch",
    ));
    out
}

/// E4 — backup-phase frequency.
pub fn e4_backup_rate(h: &mut Harness) -> String {
    let mut out = String::new();
    let mut table = Table::new(["n", "runs", "processes", "backup entries"]);
    let mut total_processes: u64 = 0;
    let mut total_backups: u64 = 0;
    for n in h.n_sweep() {
        let reports = rebatching_reports(h, n);
        let backups: u64 = reports.iter().map(|r| r.backup_entries() as u64).sum();
        let processes = (reports.len() * n) as u64;
        total_processes += processes;
        total_backups += backups;
        table.row([
            n.to_string(),
            reports.len().to_string(),
            processes.to_string(),
            backups.to_string(),
        ]);
        h.record(
            "e4",
            json!({"n": n}),
            json!({"processes": processes, "backups": backups}),
        );
    }
    let _ = writeln!(out, "{table}");
    // Rule of three: zero events over N trials bounds the rate by 3/N at
    // 95% confidence.
    let bound = 3.0 / total_processes.max(1) as f64;
    let pass = total_backups == 0;
    out.push_str(&verdict(
        pass,
        &format!(
            "{total_backups} backup entries over {total_processes} processes \
             (95% rate bound {bound:.2e})"
        ),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survivor_bound_shapes() {
        let n = 1 << 16;
        // Bound decays doubly exponentially in i.
        assert!(survivor_bound(n, 1, 4, 0.1) > survivor_bound(n, 2, 4, 0.1));
        assert!(survivor_bound(n, 2, 4, 0.1) > survivor_bound(n, 3, 4, 0.1));
        // Last batch switches to log^2 n.
        let last = survivor_bound(n, 4, 4, 0.1);
        assert!((last - 256.0).abs() < 1e-9); // (log2 65536)^2
    }

    #[test]
    fn e1_quick_passes() {
        let mut h = Harness::new(true, 42);
        let report = e1_step_complexity(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
        assert!(!h.records().is_empty());
    }

    #[test]
    fn e2_quick_passes() {
        let mut h = Harness::new(true, 42);
        let report = e2_total_steps(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
    }

    #[test]
    fn e3_quick_passes() {
        let mut h = Harness::new(true, 42);
        let report = e3_batch_survivors(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
    }

    #[test]
    fn e4_quick_passes() {
        let mut h = Harness::new(true, 42);
        let report = e4_backup_rate(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
    }
}
