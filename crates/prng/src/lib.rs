#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! # axml-prng — deterministic, dependency-free pseudo-randomness
//!
//! Every randomized component of this workspace — workload generators,
//! pick policies, property-test case generation — must be **reproducible
//! bit-for-bit** from a seed, and must build **offline** (no registry
//! access). This crate provides the one primitive both require: a
//! [`SplitMix64`] generator (Steele, Lea & Flood, *Fast splittable
//! pseudorandom number generators*, OOPSLA 2014), the same mixer `rand`
//! uses to seed its own engines.
//!
//! SplitMix64 passes BigCrush, has a full 2⁶⁴ period, needs eight bytes
//! of state, and is obviously portable — there is nothing platform- or
//! version-dependent in its output, so experiment tables regenerated on
//! any machine agree byte-for-byte.
//!
//! ```
//! use axml_prng::SplitMix64;
//!
//! let mut rng = SplitMix64::new(42);
//! let a = rng.gen_range(0..100u32);
//! let b = rng.gen_range(0..100u32);
//! // Same seed ⇒ same stream.
//! let mut rng2 = SplitMix64::new(42);
//! assert_eq!((a, b), (rng2.gen_range(0..100u32), rng2.gen_range(0..100u32)));
//! ```

use std::ops::{Range, RangeInclusive};

/// A 64-bit splitmix generator: the workspace's single source of
/// deterministic randomness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`. Equal seeds produce equal streams
    /// on every platform.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next 32-bit output (upper half of [`SplitMix64::next_u64`]).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from a range, e.g. `rng.gen_range(0..n)` or
    /// `rng.gen_range(0..=i)`. Panics on an empty range, mirroring
    /// `rand::Rng::gen_range`.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: IntoBounds<T>,
    {
        let (lo, hi_inclusive) = range.into_bounds();
        T::sample(self, lo, hi_inclusive)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle, in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(0..=i);
            xs.swap(i, j);
        }
    }

    /// A reference to a uniformly chosen element (`None` on empty input).
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.gen_range(0..xs.len())])
        }
    }

    /// One byte-level mutation for decoder robustness properties: flip a
    /// bit, truncate, splice in junk, or duplicate a run, at a uniformly
    /// chosen offset. Empty input is left alone.
    pub fn mutate_bytes(&mut self, bytes: &mut Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        let at = self.gen_range(0..bytes.len());
        match self.gen_range(0u32..4) {
            0 => bytes[at] ^= 1 << self.gen_range(0u32..8),
            1 => bytes.truncate(at),
            2 => {
                let junk: Vec<u8> = (0..self.gen_range(1usize..12))
                    .map(|_| self.gen_range(0u32..256) as u8)
                    .collect();
                bytes.splice(at..at, junk);
            }
            _ => {
                let end = (at + self.gen_range(1usize..40)).min(bytes.len());
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
        }
    }

    /// Derive an independent generator (the "split" of splitmix): useful
    /// for giving each parallel task its own stream.
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

/// Types [`SplitMix64::gen_range`] can sample uniformly.
pub trait SampleUniform: Copy {
    /// Sample uniformly from `[lo, hi]` (both inclusive).
    fn sample(rng: &mut SplitMix64, lo: Self, hi: Self) -> Self;
}

/// Range-like arguments accepted by [`SplitMix64::gen_range`].
pub trait IntoBounds<T> {
    /// Convert to `(low, high_inclusive)`, panicking if empty.
    fn into_bounds(self) -> (T, T);
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(rng: &mut SplitMix64, lo: Self, hi: Self) -> Self {
                let span = (hi as i128 - lo as i128 + 1) as u128;
                // Multiply-shift rejection-free mapping is fine here: the
                // bias for spans ≪ 2^64 is far below anything the
                // deterministic experiments could observe.
                let draw = (rng.next_u64() as u128 * span) >> 64;
                (lo as i128 + draw as i128) as $t
            }
        }
        impl IntoBounds<$t> for Range<$t> {
            fn into_bounds(self) -> ($t, $t) {
                assert!(self.start < self.end, "gen_range: empty range");
                (self.start, self.end - 1)
            }
        }
        impl IntoBounds<$t> for RangeInclusive<$t> {
            fn into_bounds(self) -> ($t, $t) {
                assert!(self.start() <= self.end(), "gen_range: empty range");
                (*self.start(), *self.end())
            }
        }
    )*};
}

impl_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample(rng: &mut SplitMix64, lo: Self, hi: Self) -> Self {
        lo + rng.next_f64() * (hi - lo)
    }
}

impl IntoBounds<f64> for Range<f64> {
    fn into_bounds(self) -> (f64, f64) {
        assert!(self.start < self.end, "gen_range: empty range");
        (self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // First outputs of splitmix64 seeded with 1234567, from the
        // reference C implementation.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn determinism_per_seed() {
        let seq = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..32).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(seq(9), seq(9));
        assert_ne!(seq(9), seq(10));
    }

    #[test]
    fn ranges_in_bounds() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = rng.gen_range(10..20u32);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(0..=3usize);
            assert!(y <= 3);
            let z = rng.gen_range(-5..5i32);
            assert!((-5..5).contains(&z));
            let f = rng.gen_range(0.5..2.5f64);
            assert!((0.5..2.5).contains(&f));
        }
    }

    #[test]
    fn full_range_hits_every_value() {
        let mut rng = SplitMix64::new(3);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.gen_range(0..4usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SplitMix64::new(11);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SplitMix64::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "seed 5 must actually permute");
    }

    #[test]
    fn choose_and_split() {
        let mut rng = SplitMix64::new(1);
        assert!(rng.choose::<u8>(&[]).is_none());
        assert!([1, 2, 3].contains(rng.choose(&[1, 2, 3]).unwrap()));
        let mut a = rng.split();
        let mut b = rng.split();
        assert_ne!(a.next_u64(), b.next_u64(), "split streams diverge");
    }

    #[test]
    fn float_unit_interval() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
