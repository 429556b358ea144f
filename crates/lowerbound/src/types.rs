//! Type→location mappings for layered executions.
//!
//! §6 reduces any algorithm to a set of *types*: a type determines, for
//! each layer `ℓ`, which location the process probes given that it lost
//! all earlier probes (Lemma 6.3 replicates the TAS array per layer, so a
//! type is simply a sequence of locations). This module builds the
//! mappings the experiments feed to the rate recurrence and the marking
//! simulation:
//!
//! * [`uniform_types`] — every type probes an independent uniform location
//!   each layer (the behaviour of uniform random probing);
//! * [`renamer_types`] — types derived from real algorithm machines by
//!   feeding them losses and recording their probe sequence;
//! * [`concentrated_types`] — all types hammer location 0 (degenerate
//!   contrast case).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use renaming_sim::{Action, Renamer};

/// A type→location table: `map[i][l]` is the location type `i` probes in
/// layer `l`.
pub type TypeTable = Vec<Vec<usize>>;

/// Types that probe a fresh uniform location every layer.
pub fn uniform_types(num_types: usize, s: usize, layers: usize, seed: u64) -> TypeTable {
    assert!(s > 0, "need at least one location");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_types)
        .map(|_| (0..layers).map(|_| rng.gen_range(0..s)).collect())
        .collect()
}

/// All types probe location 0 forever.
pub fn concentrated_types(num_types: usize, layers: usize) -> TypeTable {
    (0..num_types).map(|_| vec![0; layers]).collect()
}

/// Derives types from a renaming algorithm: each type is a fresh machine
/// (seeded independently) run against all-losing probes, its first
/// `layers` probe locations recorded — exactly the Lemma 6.3 reduction,
/// where the `ℓ`-th operation of a process that lost everything so far is
/// a deterministic function of its type.
///
/// Machines that terminate (give up) before `layers` probes keep repeating
/// their last location; `s` must be at least the machine's memory need.
///
/// # Panics
///
/// Panics if a machine probes a location `>= s`.
pub fn renamer_types<F>(factory: F, num_types: usize, s: usize, layers: usize, seed: u64) -> TypeTable
where
    F: Fn() -> Box<dyn Renamer>,
{
    (0..num_types)
        .map(|i| {
            let mut machine = factory();
            let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9));
            let mut sequence = Vec::with_capacity(layers);
            while sequence.len() < layers {
                match machine.propose(&mut rng) {
                    Action::Probe(loc) => {
                        assert!(loc < s, "machine probed {loc} >= layer width {s}");
                        sequence.push(loc);
                        machine.observe(false);
                    }
                    Action::Done(_) | Action::Stuck => {
                        let last = sequence.last().copied().unwrap_or(0);
                        sequence.push(last);
                    }
                }
            }
            sequence
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn uniform_types_shape_and_range() {
        let t = uniform_types(10, 16, 5, 1);
        assert_eq!(t.len(), 10);
        assert!(t.iter().all(|seq| seq.len() == 5));
        assert!(t.iter().flatten().all(|&l| l < 16));
    }

    #[test]
    fn uniform_types_deterministic_per_seed() {
        assert_eq!(uniform_types(4, 8, 3, 7), uniform_types(4, 8, 3, 7));
        assert_ne!(uniform_types(4, 8, 64, 7), uniform_types(4, 8, 64, 8));
    }

    #[test]
    fn concentrated_types_all_zero() {
        let t = concentrated_types(3, 4);
        assert_eq!(t, vec![vec![0; 4]; 3]);
    }

    /// A scripted machine probing 5, 6, 7, ... then giving up at 8.
    struct Scripted {
        next: usize,
    }
    impl Renamer for Scripted {
        fn propose(&mut self, _rng: &mut dyn RngCore) -> Action {
            if self.next >= 8 {
                Action::Stuck
            } else {
                Action::Probe(self.next)
            }
        }
        fn observe(&mut self, _won: bool) {
            self.next += 1;
        }
    }

    #[test]
    fn renamer_types_record_probe_sequences() {
        let t = renamer_types(
            || Box::new(Scripted { next: 5 }) as Box<dyn Renamer>,
            2,
            16,
            3,
            0,
        );
        assert_eq!(t, vec![vec![5, 6, 7], vec![5, 6, 7]]);
    }

    #[test]
    fn renamer_types_pad_after_termination() {
        let t = renamer_types(
            || Box::new(Scripted { next: 6 }) as Box<dyn Renamer>,
            1,
            16,
            5,
            0,
        );
        // Probes 6, 7 then gives up; padding repeats the last location.
        assert_eq!(t, vec![vec![6, 7, 7, 7, 7]]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_probe_panics() {
        renamer_types(
            || Box::new(Scripted { next: 5 }) as Box<dyn Renamer>,
            1,
            4,
            2,
            0,
        );
    }
}
