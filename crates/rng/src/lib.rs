//! A small, dependency-free, deterministic pseudo-random number generator.
//!
//! The workspace needs randomness in exactly three places — the synthetic
//! workload generators, LSH-DDP's random projections and CFSFDP-A's k-means
//! seeding — and in all three the requirements are the same: seeded,
//! reproducible across platforms, fast, and of "simulation quality" (no
//! cryptographic strength needed). This crate provides a xoshiro256++
//! generator seeded through SplitMix64, the combination recommended by the
//! xoshiro authors, with the handful of sampling helpers those call sites use.
//!
//! The type is named [`StdRng`] so call sites read like the `rand` crate
//! idiom, but the stream is stable forever: dataset seeds recorded in
//! EXPERIMENTS.md keep reproducing the same bytes.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// SplitMix64 step, used for seeding and as a standalone mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A seeded xoshiro256++ generator.
#[derive(Clone, Debug)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion, as
    /// recommended by the xoshiro reference implementation).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s: [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)],
        }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample from `range` (see [`SampleRange`] for the supported
    /// range types).
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..i + 1);
            slice.swap(i, j);
        }
    }

    /// One standard-normal sample (Box–Muller transform).
    pub fn gen_standard_normal(&mut self) -> f64 {
        // Sample u1 from (0, 1] so ln(u1) is finite.
        let u1: f64 = 1.0 - self.gen_f64();
        let u2: f64 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Ranges [`StdRng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut StdRng) -> Self::Output;
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "empty range {:?}", self);
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    fn sample(self, rng: &mut StdRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range {lo}..={hi}");
        // gen_f64 never returns 1.0, so `hi` itself is unreachable (except in
        // the degenerate lo == hi case) — indistinguishable from a half-open
        // range for the continuous distributions sampled here; the inclusive
        // form is accepted so generator call sites read naturally.
        lo + rng.gen_f64() * (hi - lo)
    }
}

impl SampleRange for Range<usize> {
    type Output = usize;
    fn sample(self, rng: &mut StdRng) -> usize {
        assert!(self.start < self.end, "empty range {:?}", self);
        let span = (self.end - self.start) as u64;
        // Modulo bias is below 2^-53 for the span sizes used in this workspace
        // (dataset sizes ≪ 2^32); accepted for simulation purposes.
        self.start + (rng.next_u64() % span) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_range(-3.0..7.0);
            assert!((-3.0..7.0).contains(&x));
            let y = rng.gen_range(2.0..=4.0);
            assert!((2.0..=4.0).contains(&y));
            let k = rng.gen_range(5..9usize);
            assert!((5..9).contains(&k));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle should move something");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(12345);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gen_standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn uniform_mean_is_plausible() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.gen_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }
}
