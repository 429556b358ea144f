//! The fast coin-flip path: a cheap, seedable generator and an unbiased
//! bounded sampler, used by every probe of the hot loop.
//!
//! The paper's machines flip a handful of coins per shared-memory step, so
//! at simulation scale (millions of steps per `n`-sweep) the generator and
//! the bounded-sampling method dominate the per-probe cost. The default
//! `StdRng` is ChaCha-based — strong but ~10× more expensive per word than
//! needed here — and naive `gen_range` adds a rejection loop with a 128-bit
//! division. This module provides:
//!
//! * [`FastRng`] — xoshiro256** (Blackman & Vigna), seeded via SplitMix64;
//!   passes BigCrush, 4 × u64 of state, a few ALU ops per word;
//! * [`sample_bounded`] — Lemire's multiply-shift bounded sampler with
//!   rejection only in the biased sliver, so the common case is one
//!   widening multiply.
//!
//! `FastRng` implements the `rand` traits, so it drops into the simulator's
//! monomorphic tier (`Execution::run_typed::<M, A, FastRng>`) and the
//! concurrent driver alike. Statistical quality is ample for experiment
//! sampling; it is *not* a cryptographic generator.

use rand::{RngCore, SeedableRng};

/// xoshiro256** — a small, fast, high-quality PRNG.
#[derive(Debug, Clone)]
pub struct FastRng {
    s: [u64; 4],
}

impl FastRng {
    /// SplitMix64 step — also the seed expander.
    #[inline]
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl RngCore for FastRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl SeedableRng for FastRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        let s = [
            Self::splitmix(&mut state),
            Self::splitmix(&mut state),
            Self::splitmix(&mut state),
            Self::splitmix(&mut state),
        ];
        // SplitMix64 output is never all-zero across four draws.
        Self { s }
    }
}

/// Draws a uniform index in `[0, n)` with Lemire's multiply-shift method:
/// one 64×64→128 multiply in the common case, rejection only inside the
/// biased sliver (probability `< n / 2^64`).
///
/// # Panics
///
/// Panics (debug only) if `n == 0`.
#[inline]
pub fn sample_bounded<R: RngCore + ?Sized>(rng: &mut R, n: usize) -> usize {
    debug_assert!(n > 0, "cannot sample an empty range");
    let n = n as u64;
    let mut x = rng.next_u64();
    let mut m = (x as u128) * (n as u128);
    let mut lo = m as u64;
    if lo < n {
        let t = n.wrapping_neg() % n;
        while lo < t {
            x = rng.next_u64();
            m = (x as u128) * (n as u128);
            lo = m as u64;
        }
    }
    (m >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = FastRng::seed_from_u64(1);
        let mut b = FastRng::seed_from_u64(1);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = FastRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn known_xoshiro_sequence() {
        // Reference vector: seeding the raw state with 1,2,3,4 must produce
        // the canonical xoshiro256** outputs (from the reference C code).
        let mut rng = FastRng { s: [1, 2, 3, 4] };
        let expected: [u64; 3] = [11520, 0, 1509978240];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(rng.next_u64(), e, "output {i}");
        }
    }

    #[test]
    fn bounded_sampling_is_in_range_and_roughly_uniform() {
        let mut rng = FastRng::seed_from_u64(3);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            let v = sample_bounded(&mut rng, 7);
            counts[v] += 1;
        }
        for &c in &counts {
            assert!((8_500..11_500).contains(&c), "skewed: {counts:?}");
        }
    }

    #[test]
    fn bounded_sampling_handles_size_one() {
        let mut rng = FastRng::seed_from_u64(4);
        for _ in 0..10 {
            assert_eq!(sample_bounded(&mut rng, 1), 0);
        }
    }

    #[test]
    fn works_through_dyn_rng_core() {
        let mut rng = FastRng::seed_from_u64(5);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        let v = sample_bounded(dyn_rng, 100);
        assert!(v < 100);
    }
}
