//! Minimal offline stand-in for the `rand` 0.8 crate.
//!
//! Provides `StdRng` (a SplitMix64 generator — deterministic, seedable,
//! statistically fine for workload synthesis, *not* cryptographic),
//! the `Rng`/`SeedableRng` traits with `gen_range`/`gen_bool`, and
//! `seq::SliceRandom` with `choose`/`shuffle`. Workload generators in this
//! workspace only rely on determinism for a fixed seed, which this
//! implementation guarantees (the exact stream differs from upstream
//! `rand`, so regenerated datasets differ in content but not in shape).
#![forbid(unsafe_code)]

use std::ops::Range;

/// Core trait: a source of pseudo-random `u64`s plus derived helpers.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Construction from seeds.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be drawn uniformly from a half-open range.
pub trait SampleUniform: PartialOrd + Copy {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range called with empty range");
                let span = (high as i128 - low as i128) as u128;
                let draw = ((rng.next_u64() as u128) % span) as i128;
                (low as i128 + draw) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range called with empty range");
                // 53 random bits → uniform in [0, 1).
                let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                low + (high - low) * unit as $t
            }
        }
    )*};
}

impl_sample_uniform_float!(f32, f64);

/// Range arguments accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, self.start, self.end)
    }
}

/// The user-facing random-value API (blanket-implemented for any core rng).
pub trait Rng: RngCore {
    /// Uniform draw from a half-open range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range"
        );
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic SplitMix64 generator standing in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }
}

pub mod seq {
    use super::{Rng, RngCore};

    /// Slice extensions: uniform element choice and Fisher–Yates shuffle.
    pub trait SliceRandom {
        type Item;
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.gen_range(0..self.len()))
            }
        }

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..i + 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0usize..1000), b.gen_range(0usize..1000));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(3u32..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(0.0..1.5);
            assert!((0.0..1.5).contains(&f));
            let i = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn choose_and_shuffle_cover_all_elements() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!(v.choose(&mut rng).is_some());
        let empty: Vec<u32> = Vec::new();
        assert!(empty.choose(&mut rng).is_none());
    }
}
