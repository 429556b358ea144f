//! E7–E9: the §6 lower-bound machinery as experiments.

use std::fmt::Write as _;

use serde_json::json;

use renaming_analysis::{LinearFit, Table};
use renaming_lowerbound::types::{concentrated_types, uniform_types};
use renaming_lowerbound::{
    extinction_layer, lemma_6_6_bound, predicted_layers, run_marking_sharded,
    uniform_extinction_layers, verify_lemma_6_5, CoupledPoisson, MarkingConfig, RateSystem,
};

use crate::experiments::verdict;
use crate::Harness;

/// E7 — Theorem 6.1: survivors persist `Ω(log log n)` layers.
pub fn e7_layers(h: &mut Harness) -> String {
    let mut out = String::new();

    // (a) Deterministic rate recurrence: layers until the total rate drops
    // below the constant 4, for the paper's parameters (λ0 = n/2 over
    // s + m = 2n per-layer objects).
    let mut table = Table::new(["n", "layers (exact recurrence)", "predicted floor", "lg lg n"]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let exps: Vec<u32> = if h.quick() {
        vec![8, 12, 16, 20]
    } else {
        vec![8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56]
    };
    // The recurrence is independent per exponent: fan it out.
    let recurrences = h.sweep().map(exps.len(), |i| {
        let e = exps[i];
        let n = 1u64 << e;
        let s = 2 * n as usize;
        let layers = uniform_extinction_layers(n as f64 / 2.0, s, 4.0, 128);
        let predicted = predicted_layers(n as f64 / 2.0, s);
        (layers, predicted)
    });
    for (e, (layers, predicted)) in exps.iter().zip(&recurrences) {
        table.row([
            format!("2^{e}"),
            layers.to_string(),
            predicted.to_string(),
            format!("{:.2}", (*e as f64).log2()),
        ]);
        xs.push((*e as f64).log2()); // lg lg n for n = 2^e
        ys.push(*layers as f64);
        h.record(
            "e7",
            json!({"part": "recurrence", "n_exp": e}),
            json!({"layers": layers, "predicted": predicted}),
        );
    }
    let fit = LinearFit::fit(&xs, &ys);
    let _ = writeln!(out, "(a) exact rate recurrence, threshold 4:");
    let _ = writeln!(out, "{table}");
    let _ = writeln!(out, "fit layers vs lg lg n: {fit}");

    // (b) Monte-Carlo marking with the coupling gadget. The per-location
    // coupled draws inside a layer are independent (each has its own
    // (seed, layer, location) RNG stream), so they shard across the
    // sweep's worker threads — byte-identical at any thread count.
    let mc_n = if h.quick() { 1 << 10 } else { 1 << 14 };
    let s = 2 * mc_n;
    let types = uniform_types(2 * mc_n, s, 12, h.seed());
    let config = MarkingConfig {
        n: mc_n,
        s,
        layers: 12,
        seed: h.seed() ^ 0xabcd,
    };
    let marking_sweep = h.sweep();
    let outcomes = run_marking_sharded(config, &types, |count, survivors_at| {
        marking_sweep.map(count, survivors_at)
    });
    let mut mc_table = Table::new(["layer", "marked (realized)", "lambda (analytic)"]);
    for o in &outcomes {
        mc_table.row([
            o.layer.to_string(),
            o.marked.to_string(),
            format!("{:.2}", o.lambda),
        ]);
        h.record(
            "e7",
            json!({"part": "marking", "n": mc_n, "layer": o.layer}),
            json!({"marked": o.marked, "lambda": o.lambda}),
        );
    }
    let _ = writeln!(out, "(b) Monte-Carlo marking, n = {mc_n}, s = {s}:");
    let _ = writeln!(out, "{mc_table}");
    let survived_predicted = {
        let p = predicted_layers(mc_n as f64 / 2.0, s);
        outcomes
            .iter()
            .find(|o| o.layer == p)
            .map(|o| o.marked > 0)
            .unwrap_or(false)
    };
    let ext = extinction_layer(&outcomes);
    let _ = writeln!(
        out,
        "extinction at layer {:?} (predicted floor {})",
        ext,
        predicted_layers(mc_n as f64 / 2.0, s)
    );

    // Verdicts: layers grow with lg lg n (positive slope, sublinear in lg n)
    // and the MC survivors persist through the predicted layer count.
    let monotone = ys.windows(2).all(|w| w[0] <= w[1]);
    let slow_growth = ys.last().unwrap() - ys.first().unwrap() <= 2.0 * (xs.last().unwrap() - xs.first().unwrap()) + 2.0;
    out.push_str(&verdict(
        monotone && slow_growth && survived_predicted && fit.slope() > 0.0,
        &format!(
            "layer counts grow with lg lg n (slope {:.2}) and marked processes survive \
             through the predicted layer",
            fit.slope()
        ),
    ));
    out
}

/// E8 — Lemma 6.5 numeric verification.
pub fn e8_lemma_6_5(h: &mut Harness) -> String {
    let mut out = String::new();
    let lambdas: Vec<f64> = vec![
        0.001, 0.01, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 4.0, 6.0,
        8.0, 12.0, 16.0, 32.0, 64.0, 128.0, 512.0, 2048.0,
    ];
    let max_n = if h.quick() { 128 } else { 1024 };
    let mut table = Table::new(["lambda", "gamma", "worst margin over n"]);
    let mut worst = f64::INFINITY;
    // Each lambda's margin scan is independent: fan them out.
    let margins = h.sweep().map(lambdas.len(), |i| {
        let c = CoupledPoisson::new(lambdas[i]);
        let mut margin = f64::INFINITY;
        for n in 0..=max_n {
            margin = margin.min(c.lemma_6_5_margin(n));
        }
        (c.gamma(), margin)
    });
    for (&l, &(gamma, margin)) in lambdas.iter().zip(&margins) {
        worst = worst.min(margin);
        table.row([
            format!("{l}"),
            format!("{gamma:.4}"),
            format!("{margin:.3e}"),
        ]);
        h.record("e8", json!({"lambda": l, "max_n": max_n}), json!({"margin": margin}));
    }
    let _ = writeln!(out, "{table}");
    let grid_worst = verify_lemma_6_5(&lambdas, max_n);
    let pass = worst >= -1e-12 && grid_worst >= -1e-12;
    out.push_str(&verdict(
        pass,
        &format!("smallest margin {worst:.3e} (never meaningfully negative)"),
    ));
    out
}

/// E9 — Lemma 6.6: per-layer rate decay bound over several type maps.
pub fn e9_lemma_6_6(h: &mut Harness) -> String {
    let mut out = String::new();
    let s = if h.quick() { 1 << 10 } else { 1 << 13 };
    let num_types = 4 * s;
    let layers = 8;
    let maps: Vec<(&str, Vec<Vec<usize>>)> = vec![
        ("uniform", uniform_types(num_types, s, layers, h.seed())),
        ("concentrated", concentrated_types(num_types, layers)),
        // Half the types hammer a small hot set, half spread out.
        ("mixed", {
            let mut m = uniform_types(num_types / 2, s, layers, h.seed() ^ 1);
            m.extend(
                uniform_types(num_types / 2, 16, layers, h.seed() ^ 2), // hot 16 locations
            );
            m
        }),
    ];
    let mut table = Table::new(["type map", "layer", "lambda", "bound", "ok"]);
    let mut pass = true;
    // The recurrence fans its per-type chunks out over the sweep's
    // worker threads (sequential across layers within the trial);
    // `step_sharded`'s fixed chunking keeps the rates byte-identical at
    // any thread count — e9 is in the parallel-determinism suite.
    let sweep = h.sweep();
    for (label, map) in &maps {
        let mut rates = RateSystem::uniform(map.len(), s as f64 / 4.0);
        let mut lambda = rates.total();
        for layer in 0..layers {
            let locations: Vec<usize> = map.iter().map(|t| t[layer]).collect();
            let next = rates.step_sharded(&locations, s, |count, chunk| sweep.map(count, chunk));
            let bound = lemma_6_6_bound(lambda, s as f64);
            let ok = next >= bound - 1e-9;
            pass &= ok;
            if layer < 4 {
                table.row([
                    label.to_string(),
                    layer.to_string(),
                    format!("{next:.4}"),
                    format!("{bound:.4}"),
                    if ok { "yes".into() } else { "NO".to_string() },
                ]);
            }
            h.record(
                "e9",
                json!({"map": label, "layer": layer, "s": s}),
                json!({"lambda": next, "bound": bound}),
            );
            lambda = next;
            if lambda < 1e-12 {
                break;
            }
        }
    }
    let _ = writeln!(out, "s = {s}, initial rate s/4 (first 4 layers shown per map)");
    let _ = writeln!(out, "{table}");
    out.push_str(&verdict(
        pass,
        "every observed layer satisfies lambda' >= bound(lambda, s) for all three type maps",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_quick_passes() {
        let mut h = Harness::new(true, 5);
        let report = e7_layers(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
    }

    #[test]
    fn e8_quick_passes() {
        let mut h = Harness::new(true, 5);
        let report = e8_lemma_6_5(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
    }

    #[test]
    fn e9_quick_passes() {
        let mut h = Harness::new(true, 5);
        let report = e9_lemma_6_6(&mut h);
        assert!(report.contains("[PASS]"), "{report}");
    }
}
