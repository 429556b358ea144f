//! E12–E14: crash tolerance, namespace slack, and the register-TAS
//! substrate.

use std::fmt::Write as _;
use std::sync::Arc;

use serde_json::json;

use renaming_analysis::{axis, LinearFit, Summary, Table};
use renaming_core::{Epsilon, ProbeSchedule};
use renaming_sim::CrashPlan;
use renaming_tas::rwtas::TournamentTas;

use crate::experiments::verdict;
use crate::harness::paper_layout;
use crate::sweep::{AdversaryKind, TrialSpec};
use crate::Harness;
use crate::MachineKind;

/// E12 — fail-stop crashes: survivors still rename correctly and fast.
pub fn e12_crashes(h: &mut Harness) -> String {
    let mut out = String::new();
    let n = if h.quick() { 1 << 9 } else { 1 << 12 };
    let layout = paper_layout(n);
    let kind = MachineKind::Rebatching {
        layout: Arc::clone(&layout),
        base: 0,
    };
    let m = layout.namespace_size();
    let budget = layout.max_probes() as u64;
    let mut table = Table::new(["crash fraction", "survivors named", "max steps", "unique"]);
    let mut pass = true;
    for &fraction in &[0.0, 0.1, 0.25, 0.5, 0.75, 0.9] {
        let trials = h.trials_for(n);
        let reports = h.sweep().trials(trials, |t, worker| {
            let seed = h.seed() ^ (t as u64) << 3 ^ ((fraction * 100.0) as u64) << 40;
            let plan = CrashPlan::random_fraction(n, fraction, (n as u64) * 2, seed);
            let planned = plan.crash_count();
            let report = worker.run(
                &TrialSpec::new(m, n, &kind, AdversaryKind::UniformRandom, seed)
                    .with_crashes(plan),
            );
            (report, planned)
        });
        let mut all_named = true;
        let mut all_unique = true;
        let mut named_counts = Vec::new();
        for (report, planned) in &reports {
            // Every process either crashed or finished with a name (a
            // planned crash is a no-op if the victim finished first, so
            // the actual crash count can undershoot the plan).
            all_named &= report.named_count() + report.crashed_count() == n
                && report.stuck_count() == 0
                && report.crashed_count() <= *planned;
            all_unique &= report.names_within(m).is_ok();
            named_counts.push(report.named_count() as u64);
        }
        let maxes = Summary::from_counts(reports.iter().map(|(r, _)| r.max_steps()));
        pass &= all_named && all_unique && maxes.max() <= budget as f64;
        table.row([
            format!("{fraction:.2}"),
            format!("{:.0}", Summary::from_counts(named_counts).mean()),
            format!("{:.0}", maxes.max()),
            if all_unique { "yes".into() } else { "NO".to_string() },
        ]);
        h.record(
            "e12",
            json!({"n": n, "fraction": fraction}),
            json!({"max_steps": maxes.max()}),
        );
    }
    let _ = writeln!(out, "n = {n}, probe budget = {budget}");
    let _ = writeln!(out, "{table}");
    out.push_str(&verdict(
        pass,
        "all survivors rename uniquely within the probe budget at every crash rate",
    ));
    out
}

/// E13 — namespace slack sweep: `(1+eps)n` for any fixed `eps > 0`.
pub fn e13_epsilon(h: &mut Harness) -> String {
    let mut out = String::new();
    let n = if h.quick() { 1 << 9 } else { 1 << 12 };
    let mut table = Table::new(["eps", "t0", "m/n", "max steps", "mean steps", "backup"]);
    let mut pass = true;
    for &eps in &[0.1, 0.25, 0.5, 1.0, 2.0, 4.0] {
        let epsilon = Epsilon::new(eps).expect("valid eps");
        let schedule = ProbeSchedule::paper(epsilon, 3).expect("valid schedule");
        let layout = renaming_core::BatchLayout::shared(n, schedule).expect("layout");
        let kind = MachineKind::Rebatching {
            layout: Arc::clone(&layout),
            base: 0,
        };
        let m = layout.namespace_size();
        let budget = layout.max_probes() as u64;
        let trials = h.trials_for(n);
        let reports = h.sweep().trials(trials, |t, worker| {
            worker.run(&TrialSpec::new(
                m,
                n,
                &kind,
                AdversaryKind::UniformRandom,
                h.seed() ^ (t as u64) ^ ((eps * 1000.0) as u64) << 30,
            ))
        });
        let mut backups = 0usize;
        for report in &reports {
            pass &= report.named_count() == n && report.names_within(m).is_ok();
            backups += report.backup_entries();
            pass &= report.backup_entries() > 0 || report.max_steps() <= budget;
        }
        table.row([
            format!("{eps}"),
            schedule.t0().to_string(),
            format!("{:.3}", m as f64 / n as f64),
            format!(
                "{:.0}",
                Summary::from_counts(reports.iter().map(|r| r.max_steps())).max()
            ),
            format!(
                "{:.2}",
                Summary::from_values(reports.iter().map(|r| r.mean_steps())).mean()
            ),
            backups.to_string(),
        ]);
        h.record(
            "e13",
            json!({"n": n, "eps": eps}),
            json!({"t0": schedule.t0(), "m_over_n": m as f64 / n as f64}),
        );
    }
    let _ = writeln!(out, "n = {n}");
    let _ = writeln!(out, "{table}");
    out.push_str(&verdict(
        pass,
        "unique names inside (1+eps)n for every slack; t0 grows as eps shrinks, \
         per Eq. 2",
    ));
    out
}

/// E14 — the register-based TAS substrate: per-operation cost multiplier.
pub fn e14_rw_tas(h: &mut Harness) -> String {
    let mut out = String::new();
    let mut table = Table::new(["contenders k", "mean register ops/call", "max ops/call"]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let ks: Vec<usize> = if h.quick() {
        vec![2, 4, 8, 16, 32]
    } else {
        vec![2, 4, 8, 16, 32, 64, 128, 256]
    };
    for &k in &ks {
        let trials = if h.quick() { 5 } else { 15 };
        let mut ops = Vec::new();
        for t in 0..trials {
            let tas = Arc::new(TournamentTas::new(k));
            let handles: Vec<_> = (0..k)
                .map(|pid| {
                    let tas = Arc::clone(&tas);
                    let seed = h.seed() ^ (t as u64) << 32 ^ pid as u64;
                    std::thread::spawn(move || {
                        use rand::SeedableRng;
                        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                        let (_res, count) = tas.test_and_set_counted(pid, &mut rng);
                        count
                    })
                })
                .collect();
            for hnd in handles {
                ops.push(hnd.join().expect("thread"));
            }
        }
        let summary = Summary::from_counts(ops.iter().copied());
        xs.push(axis::log2(k));
        ys.push(summary.max());
        table.row([
            k.to_string(),
            format!("{:.1}", summary.mean()),
            format!("{:.0}", summary.max()),
        ]);
        h.record(
            "e14",
            json!({"k": k, "trials": trials}),
            json!({"mean_ops": summary.mean(), "max_ops": summary.max()}),
        );
    }
    let fit = LinearFit::fit(&xs, &ys);
    let _ = writeln!(out, "hardware AtomicTas: exactly 1 shared-memory op per call");
    let _ = writeln!(out, "{table}");
    let _ = writeln!(out, "fit max ops vs log2 k: {fit}");
    let _ = writeln!(
        out,
        "note: the *mean* flattens to O(1) — most contenders lose at their first or\n\
         second match — while the winner's path pays the full Theta(log k) depth, which\n\
         is what the worst-case step complexity of the renaming algorithms inherits."
    );
    // Θ(log k): the worst-case call cost grows with log k (3 register ops
    // per tournament level plus the doorway) and stays inside that
    // logarithmic envelope at the top of the sweep.
    let last = *ys.last().expect("nonempty sweep");
    let top_k = ks.last().copied().unwrap_or(2);
    let pass = fit.slope() > 1.0
        && fit.r_squared() > 0.8
        && last <= 3.0 * axis::log2(top_k) + 8.0;
    out.push_str(&verdict(
        pass,
        &format!(
            "worst-case register ops per TAS call grow ~{:.1} per doubling of k \
             (Theta(log k) tournament depth), vs 1 op for hardware TAS",
            fit.slope()
        ),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_quick_passes() {
        let mut h = Harness::new(true, 13);
        let report = e12_crashes(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
    }

    #[test]
    fn e13_quick_passes() {
        let mut h = Harness::new(true, 13);
        let report = e13_epsilon(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
    }

    #[test]
    fn e14_quick_passes() {
        // Runs unconditionally, including on single-CPU boxes: the
        // register-TAS wait loops now escalate to `yield_now` after a
        // short spin phase (`TwoProcessTas::pause`), so contenders hand
        // the processor over instead of burning whole scheduling quanta
        // waiting for a descheduled peer. The old
        // `available_parallelism() < 2` gate existed only to dodge that
        // pathology.
        let mut h = Harness::new(true, 13);
        let report = e14_rw_tas(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
    }
}
