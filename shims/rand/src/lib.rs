//! Offline stand-in for the `rand` crate.
//!
//! This workspace builds in environments with no network and no crates
//! registry cache, so it cannot depend on the real `rand`. This crate
//! implements exactly the API subset the workspace uses — `Rng`
//! (`gen`, `gen_range`, `gen_bool`), `SeedableRng::seed_from_u64`,
//! `rngs::StdRng`, `seq::SliceRandom::shuffle` and
//! `seq::index::sample` — on top of xoshiro256\*\* seeded through
//! SplitMix64.
//!
//! Streams differ from the real `rand`'s ChaCha-based `StdRng` (so any
//! recorded experiment numbers shift once), but all the properties the
//! workspace relies on hold: seed determinism, stream independence per
//! seed, and uniformity good enough for simulation. `gen_range` uses
//! Lemire-style widening multiplication, not modulo, so small ranges
//! are unbiased to well below anything a simulation could observe.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Source of raw random words. The one required method; everything in
/// [`Rng`] is derived from it.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Types that can be sampled uniformly from raw bits (the shim's
/// version of `Standard: Distribution<T>`).
pub trait SampleStandard: Sized {
    /// Draw one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl SampleStandard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl SampleStandard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl SampleStandard for u8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl SampleStandard for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl SampleStandard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // Use a high bit; low bits of some generators are weaker.
        rng.next_u64() >> 63 == 1
    }
}

impl SampleStandard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform `u64` in `[0, bound)` via Lemire's widening-multiply method
/// with rejection — unbiased for every bound.
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    assert!(bound > 0, "cannot sample from an empty range");
    // threshold = 2^64 mod bound; rejecting products with a low half
    // below it leaves every value with equal mass.
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let wide = (rng.next_u64() as u128) * (bound as u128);
        if (wide as u64) >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let width = (self.end - self.start) as u64;
                self.start + uniform_below(rng, width) as $t
            }
        }
    )*};
}

impl_sample_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_int {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let width = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64).wrapping_add(uniform_below(rng, width) as i64) as $t
            }
        }
    )*};
}

impl_sample_range_int!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

/// The user-facing RNG interface: derived sampling methods over
/// [`RngCore`]. Blanket-implemented for every `RngCore`.
pub trait Rng: RngCore {
    /// A uniformly random value of `T`.
    fn gen<T: SampleStandard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniformly random value from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} outside [0, 1]");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction of RNGs from seeds. Only the `u64` entry point the
/// workspace uses.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named RNG implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// One round of SplitMix64, used to expand a `u64` seed into
    /// xoshiro state (the construction xoshiro's authors recommend).
    fn splitmix64(z: &mut u64) -> u64 {
        *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = *z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// The workspace's standard generator: xoshiro256\*\* (Blackman &
    /// Vigna), a small fast generator with excellent statistical
    /// quality. Not the real `rand`'s ChaCha12 — streams differ, which
    /// only shifts recorded simulation numbers, never correctness.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut z);
            }
            // All-zero state is the one forbidden point; SplitMix64
            // cannot produce four zero outputs from any seed, but keep
            // the guard for clarity.
            if s == [0; 4] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.s;
            let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s1 << 17;
            let mut s2n = s2 ^ s0;
            let mut s3n = s3 ^ s1;
            let s1n = s1 ^ s2n;
            let s0n = s0 ^ s3n;
            s2n ^= t;
            s3n = s3n.rotate_left(45);
            self.s = [s0n, s1n, s2n, s3n];
            result
        }
    }
}

/// Sequence-related helpers (`shuffle`, distinct-index sampling).
pub mod seq {
    use super::Rng;

    /// Shuffling for slices.
    pub trait SliceRandom {
        /// Uniform (Fisher–Yates) in-place shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }
    }

    /// Distinct-index sampling.
    pub mod index {
        use super::super::Rng;
        use std::collections::BTreeMap;

        /// A set of distinct indices in `0..length`, in the random
        /// order they were drawn.
        #[derive(Clone, Debug)]
        pub struct IndexVec(Vec<usize>);

        impl IndexVec {
            /// The indices as a plain vector.
            pub fn into_vec(self) -> Vec<usize> {
                self.0
            }

            /// Number of sampled indices.
            pub fn len(&self) -> usize {
                self.0.len()
            }

            /// `true` iff no indices were sampled.
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }

            /// Iterate over the sampled indices.
            pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, usize>> {
                self.0.iter().copied()
            }
        }

        impl IntoIterator for IndexVec {
            type Item = usize;
            type IntoIter = std::vec::IntoIter<usize>;
            fn into_iter(self) -> Self::IntoIter {
                self.0.into_iter()
            }
        }

        impl<'a> IntoIterator for &'a IndexVec {
            type Item = usize;
            type IntoIter = std::iter::Copied<std::slice::Iter<'a, usize>>;
            fn into_iter(self) -> Self::IntoIter {
                self.iter()
            }
        }

        /// Sample `amount` distinct indices uniformly from
        /// `0..length`, via a partial Fisher–Yates shuffle.
        ///
        /// The shuffled pool `0..length` is never materialised: slot
        /// `x` holds `x` unless a swap displaced it, and only displaced
        /// slots are kept (at most `amount` of them). Draws and picks
        /// are exactly those of the dense shuffle, in the same order,
        /// at O(amount · log amount) instead of O(length).
        ///
        /// # Panics
        /// Panics if `amount > length`.
        pub fn sample<R: Rng + ?Sized>(rng: &mut R, length: usize, amount: usize) -> IndexVec {
            assert!(
                amount <= length,
                "cannot sample {amount} distinct of {length}"
            );
            let mut displaced: BTreeMap<usize, usize> = BTreeMap::new();
            let mut picks = Vec::with_capacity(amount);
            for i in 0..amount {
                let j = rng.gen_range(i..length);
                let at_i = displaced.get(&i).copied().unwrap_or(i);
                // Slot `i` is never read again, so only slot `j` needs
                // to remember the value swapped into it.
                let at_j = displaced.insert(j, at_i).unwrap_or(j);
                picks.push(at_j);
            }
            IndexVec(picks)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::super::rngs::StdRng;
        use super::super::{Rng, SeedableRng};
        use super::index::sample;
        use super::SliceRandom;

        #[test]
        fn shuffle_is_a_permutation() {
            let mut rng = StdRng::seed_from_u64(1);
            let mut v: Vec<usize> = (0..100).collect();
            v.shuffle(&mut rng);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn sample_yields_distinct_in_range() {
            let mut rng = StdRng::seed_from_u64(2);
            for (len, k) in [(10, 0), (10, 10), (100, 7), (1, 1)] {
                let s = sample(&mut rng, len, k).into_vec();
                assert_eq!(s.len(), k);
                let mut d = s.clone();
                d.sort_unstable();
                d.dedup();
                assert_eq!(d.len(), k, "duplicates in sample");
                assert!(s.iter().all(|&i| i < len));
            }
        }

        /// The dense partial Fisher–Yates the sparse one replaces.
        fn dense_sample(rng: &mut StdRng, length: usize, amount: usize) -> Vec<usize> {
            let mut pool: Vec<usize> = (0..length).collect();
            for i in 0..amount {
                let j = rng.gen_range(i..length);
                pool.swap(i, j);
            }
            pool.truncate(amount);
            pool
        }

        #[test]
        fn sparse_sample_matches_the_dense_shuffle() {
            for length in [1usize, 2, 7, 64, 1000, 100_000] {
                for amount in [0usize, 1, 2, 5, 63, 500, 100_000] {
                    if amount > length {
                        continue;
                    }
                    for seed in 0..4u64 {
                        let mut a = StdRng::seed_from_u64(seed);
                        let mut b = StdRng::seed_from_u64(seed);
                        assert_eq!(
                            sample(&mut a, length, amount).into_vec(),
                            dense_sample(&mut b, length, amount),
                            "length={length} amount={amount} seed={seed}"
                        );
                        // Both consumed the same draws.
                        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
                    }
                }
            }
        }

        #[test]
        #[should_panic(expected = "cannot sample")]
        fn oversample_panics() {
            let mut rng = StdRng::seed_from_u64(3);
            sample(&mut rng, 3, 4);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seed_determinism() {
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(42);
            (0..16).map(|_| r.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(42);
            (0..16).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
        let c: u64 = StdRng::seed_from_u64(43).gen();
        assert_ne!(a[0], c);
    }

    #[test]
    fn gen_range_stays_in_bounds_and_covers() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x: usize = rng.gen_range(3..10);
            assert!((3..10).contains(&x));
            seen[x - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "7 values in 1000 draws");
        for _ in 0..100 {
            let y = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&y));
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        // Mean of 1000 uniforms is 0.5 ± ~0.03 at 3σ.
        assert!((sum / 1000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn gen_bool_extremes_and_balance() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let heads = (0..1000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((400..600).contains(&heads), "{heads}/1000 heads");
    }

    #[test]
    fn works_through_unsized_refs() {
        // The workspace bounds helpers on `R: Rng + ?Sized`.
        fn draw(rng: &mut (impl Rng + ?Sized)) -> u64 {
            rng.gen()
        }
        let mut rng = StdRng::seed_from_u64(8);
        let _ = draw(&mut rng);
    }
}
