//! Monte-Carlo marking simulation of the layered execution (§6.1–6.2).
//!
//! The paper's adversarial execution proceeds in layers; marked processes
//! are the ones that have not yet won a TAS, kept *independent* by the
//! coupling gadget: at every location with total arriving rate `λ_j` and
//! realized marked count `z_j`, the marks retained for the next layer are
//! a coupled draw `Y_j <= max(0, z_j - 1)` with `Y_j ~ Pois(γ_j)` — and
//! because the last `Y_j` arrivals in the layer's random permutation
//! cannot include the location's winner, surviving marks really do
//! correspond to processes that keep losing.
//!
//! This module realizes that construction executably: Poissonized
//! instances, per-layer grouping, coupled mark draws, and the exact
//! analytic rate system evolving alongside.
//!
//! The per-location mark draws inside a layer are independent, so each
//! location draws from its own RNG stream derived from
//! `(seed, layer, location)` alone. That makes the simulation **shardable**
//! ([`run_marking_sharded`] fans the location groups out over any worker
//! pool with bit-identical results) and deterministic across runs — the
//! grouping used to iterate a `HashMap`, whose random iteration order
//! leaked into the draws.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::types::TypeTable;
use crate::{CoupledPoisson, Poisson, RateSystem};

/// Configuration of a marking simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkingConfig {
    /// System size `n`: the initial total rate is `n/2`, as in the proof
    /// of Theorem 6.1.
    pub n: usize,
    /// Locations per layer (the proof's `s + m` fresh TAS objects).
    pub s: usize,
    /// Layers to simulate.
    pub layers: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Per-layer result of the marking simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerOutcome {
    /// Layer index (0 = before any layer).
    pub layer: usize,
    /// Realized marked instances still alive.
    pub marked: usize,
    /// Analytic total rate `λ^ℓ` of the marked-count distribution.
    pub lambda: f64,
}

/// The RNG stream of one location's coupled draw: a function of the
/// seed, the layer and the location only, so the draw is independent of
/// grouping order, worker assignment and thread count.
fn location_rng(seed: u64, layer: usize, location: usize) -> StdRng {
    // SplitMix64-style mix of the three coordinates.
    let mut z = seed
        ^ (layer as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (location as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Runs the marking simulation over the given type table.
///
/// The table's length is the number of *types* `M'` (the proof uses
/// `M >= n²`; experiments subsample types — instances drawn onto the same
/// type share coin flips, which only makes survival easier to disrupt, so
/// the measured layer counts are conservative). The table must cover at
/// least `config.layers` layers.
///
/// Returns one outcome per layer boundary, starting with layer 0 (the
/// initial Poissonized population of expected size `n/2`).
///
/// Equivalent to [`run_marking_sharded`] with a serial mapper — the two
/// produce bit-identical outcomes for the same inputs.
///
/// # Panics
///
/// Panics if the type table is empty or shorter than `config.layers`.
pub fn run_marking(config: MarkingConfig, types: &TypeTable) -> Vec<LayerOutcome> {
    run_marking_sharded(config, types, |count, survivors_at| {
        (0..count).map(survivors_at).collect()
    })
}

/// [`run_marking`] with the per-layer location groups fanned out through
/// a caller-supplied mapper (e.g. a worker pool).
///
/// `shard(count, survivors_at)` must return
/// `(0..count).map(survivors_at)` in index order; the groups are
/// independent, so the mapper may evaluate them on any threads in any
/// order. Every location draws from its own RNG stream derived from
/// `(seed, layer, location)`, so the outcome is a pure function of the
/// config and the type table — byte-identical at any worker count.
///
/// # Panics
///
/// Panics if the type table is empty or shorter than `config.layers`.
pub fn run_marking_sharded<F>(
    config: MarkingConfig,
    types: &TypeTable,
    mut shard: F,
) -> Vec<LayerOutcome>
where
    F: FnMut(usize, &(dyn Fn(usize) -> Vec<usize> + Sync)) -> Vec<Vec<usize>>,
{
    assert!(!types.is_empty(), "need at least one type");
    assert!(
        types.iter().all(|t| t.len() >= config.layers),
        "type table shorter than the requested layers"
    );
    let num_types = types.len();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Poissonization: N ~ Pois(n/2) instances, types i.i.d. uniform — this
    // makes the per-type counts independent Pois(n/2M') exactly.
    let lambda0 = config.n as f64 / 2.0;
    let population = Poisson::new(lambda0).sample(&mut rng) as usize;
    let mut marked: Vec<usize> = (0..population)
        .map(|_| rand::Rng::gen_range(&mut rng, 0..num_types))
        .collect();

    let mut rates = RateSystem::uniform(num_types, lambda0);
    let mut outcomes = vec![LayerOutcome {
        layer: 0,
        marked: marked.len(),
        lambda: rates.total(),
    }];

    for layer in 0..config.layers {
        let locations: Vec<usize> = types.iter().map(|t| t[layer]).collect();
        let loc_rates = rates.location_rates(&locations, config.s);

        // Group the marked instances by the location their type probes.
        // Instances keep their arrival order within a group, and groups
        // are sorted by location — fully deterministic, independent of
        // hash iteration order (the map is only used for indexing).
        let mut group_of: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for &type_idx in &marked {
            let loc = locations[type_idx];
            let g = *group_of.entry(loc).or_insert_with(|| {
                groups.push((loc, Vec::new()));
                groups.len() - 1
            });
            groups[g].1.push(type_idx);
        }
        groups.sort_unstable_by_key(|&(loc, _)| loc);

        // Coupled mark draws per location, each on its own (seed, layer,
        // location) RNG stream; survivors are a uniform subset (the "last
        // Y in a random permutation" of exchangeable arrivals). The
        // groups are independent — fan them out.
        let survivors_at = |g: usize| -> Vec<usize> {
            let (loc, instances) = &groups[g];
            let mut rng = location_rng(config.seed, layer, *loc);
            let z = instances.len() as u64;
            let coupling = CoupledPoisson::new(loc_rates[*loc]);
            let y = coupling.sample_marks_given(z, &mut rng) as usize;
            let mut instances = instances.clone();
            instances.shuffle(&mut rng);
            instances.truncate(y);
            instances
        };
        marked = shard(groups.len(), &survivors_at)
            .into_iter()
            .flatten()
            .collect();

        // Advance the analytic rates in lockstep.
        let lambda = rates.step(&locations, config.s);
        outcomes.push(LayerOutcome {
            layer: layer + 1,
            marked: marked.len(),
            lambda,
        });
    }
    outcomes
}

/// Convenience: layers until the simulation ran out of marked instances
/// (`None` if some are still alive at the end).
pub fn extinction_layer(outcomes: &[LayerOutcome]) -> Option<usize> {
    outcomes.iter().find(|o| o.marked == 0).map(|o| o.layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{concentrated_types, uniform_types};

    fn config(n: usize, s: usize, layers: usize, seed: u64) -> MarkingConfig {
        MarkingConfig { n, s, layers, seed }
    }

    #[test]
    fn initial_population_is_poissonized() {
        let n = 1 << 12;
        let types = uniform_types(4 * n, 2 * n, 1, 0);
        let outcomes = run_marking(config(n, 2 * n, 0, 1), &types);
        assert_eq!(outcomes.len(), 1);
        let pop = outcomes[0].marked as f64;
        // Pop ~ Pois(n/2): within 6 sigma of n/2.
        let expected = n as f64 / 2.0;
        assert!(
            (pop - expected).abs() < 6.0 * expected.sqrt(),
            "population {pop} vs expected {expected}"
        );
        assert!((outcomes[0].lambda - expected).abs() < 1e-9);
    }

    #[test]
    fn marks_shrink_but_survive_early_layers() {
        let n = 1 << 12;
        let s = 2 * n;
        let types = uniform_types(4 * n, s, 8, 3);
        let outcomes = run_marking(config(n, s, 8, 4), &types);
        // Marked counts are non-increasing.
        for w in outcomes.windows(2) {
            assert!(w[1].marked <= w[0].marked);
            assert!(w[1].lambda <= w[0].lambda + 1e-9);
        }
        // Theorem 6.1: survivors persist while λ^ℓ stays large. With
        // n = 4096 and s = 2n the analytic rate after one layer is
        // λ¹ = λ0²/(4s) = 128, so layer 1 retains marks in any but
        // astronomically unlucky runs (Pr[Pois(128) = 0] = e^-128).
        assert!(
            outcomes[1].marked > 0,
            "no survivors after 1 layer: {outcomes:?}"
        );
    }

    #[test]
    fn realized_marks_track_analytic_rate() {
        let n = 1 << 14;
        let s = 2 * n;
        let types = uniform_types(2 * n, s, 4, 5);
        let outcomes = run_marking(config(n, s, 4, 6), &types);
        for o in &outcomes {
            if o.lambda >= 8.0 {
                let sigma = o.lambda.sqrt();
                assert!(
                    (o.marked as f64 - o.lambda).abs() < 8.0 * sigma + 8.0,
                    "layer {}: marked {} vs λ {}",
                    o.layer,
                    o.marked,
                    o.lambda
                );
            }
        }
    }

    #[test]
    fn concentrated_types_decay_geometrically() {
        // Everything on one location: λ drops by exactly 1/4 per layer
        // (once λ >= 1), and extinction is fast.
        let n = 256;
        let types = concentrated_types(1024, 16);
        let outcomes = run_marking(config(n, 64, 16, 7), &types);
        for w in outcomes.windows(2) {
            if w[0].lambda >= 1.0 {
                assert!((w[1].lambda - w[0].lambda / 4.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn extinction_layer_detection() {
        let outcomes = vec![
            LayerOutcome {
                layer: 0,
                marked: 5,
                lambda: 5.0,
            },
            LayerOutcome {
                layer: 1,
                marked: 0,
                lambda: 1.0,
            },
        ];
        assert_eq!(extinction_layer(&outcomes), Some(1));
        assert_eq!(extinction_layer(&outcomes[..1]), None);
    }

    #[test]
    fn sharded_and_serial_runs_are_identical() {
        let n = 1 << 10;
        let s = 2 * n;
        let types = uniform_types(2 * n, s, 6, 9);
        let cfg = config(n, s, 6, 10);
        let serial = run_marking(cfg, &types);
        // Evaluate groups in reverse and in rayon-less "striped" order:
        // the outcome may not depend on evaluation order.
        let reversed = run_marking_sharded(cfg, &types, |count, f| {
            let mut out: Vec<Vec<usize>> = (0..count).rev().map(f).collect();
            out.reverse();
            out
        });
        let striped = run_marking_sharded(cfg, &types, |count, f| {
            let mut out: Vec<Option<Vec<usize>>> = vec![None; count];
            for start in 0..4 {
                for g in (start..count).step_by(4) {
                    out[g] = Some(f(g));
                }
            }
            out.into_iter().map(|v| v.expect("covered")).collect()
        });
        assert_eq!(serial, reversed, "evaluation order changed the outcome");
        assert_eq!(serial, striped, "striping changed the outcome");
    }

    #[test]
    fn runs_are_reproducible_across_invocations() {
        // The HashMap-grouped implementation drew coins in hash-iteration
        // order, which varies per process; the per-location streams must
        // not.
        let types = uniform_types(512, 256, 5, 3);
        let a = run_marking(config(256, 256, 5, 8), &types);
        let b = run_marking(config(256, 256, 5, 8), &types);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn short_type_table_panics() {
        let types = uniform_types(8, 8, 2, 0);
        run_marking(config(16, 8, 5, 0), &types);
    }
}
