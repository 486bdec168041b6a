//! In-tree seeded pseudo-random number generation.
//!
//! The workspace must build in network-restricted environments, so it
//! cannot depend on the `rand` registry crate. This module provides the
//! small, deterministic PRNG surface the DOE search and the stochastic
//! optimisers actually need: a [SplitMix64] core with uniform, range,
//! shuffle and Gaussian helpers.
//!
//! SplitMix64 passes BigCrush, has a full 2⁶⁴ period for every seed
//! (including 0), and — crucially for the deterministic parallel
//! evaluation layer — supports cheap *substreams*: [`Rng::stream`]
//! derives an independent generator from a `(seed, index)` pair, so work
//! items can be randomised identically no matter how many threads execute
//! them or in which order.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c
//!
//! # Example
//!
//! ```
//! use numkit::rng::Rng;
//!
//! let mut a = Rng::new(42);
//! let mut b = Rng::new(42);
//! assert_eq!(a.next_u64(), b.next_u64()); // deterministic per seed
//! let u = a.next_f64();
//! assert!((0.0..1.0).contains(&u));
//! ```

/// A seeded SplitMix64 generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: u64,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl Rng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Derives an independent substream from a `(seed, index)` pair.
    ///
    /// Streams with different indices are statistically independent; the
    /// mixing step keeps adjacent indices uncorrelated. This is the basis
    /// of deterministic parallelism: give work item `i` the stream
    /// `Rng::stream(seed, i)` and its randomness no longer depends on
    /// which thread runs it.
    pub fn stream(seed: u64, index: u64) -> Self {
        // Decorrelate (seed, index) pairs by running two mix steps over
        // a combination that separates the two arguments.
        let mut base = Rng::new(seed ^ index.wrapping_mul(GOLDEN_GAMMA));
        let s = base.next_u64() ^ index;
        let mut derived = Rng::new(s);
        derived.next_u64();
        derived
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi]` (`lo <= hi`, both finite).
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi` or a bound is non-finite.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo <= hi && lo.is_finite() && hi.is_finite(),
            "uniform: invalid range [{lo}, {hi}]"
        );
        let v = lo + self.next_f64() * (hi - lo);
        // Guard against rounding above hi when hi - lo overflows upward.
        v.clamp(lo, hi)
    }

    /// Uniform `u64` in `[0, n)` via Lemire-style rejection (unbiased).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.below_zone(n, Rng::zone(n))
    }

    /// The rejection zone [`below`](Self::below) draws `n` under: the
    /// largest multiple of `n` that fits in a `u64`. A caller that draws
    /// many times below one `n` computes it once for
    /// [`below_zone`](Self::below_zone).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    #[inline]
    pub fn zone(n: u64) -> u64 {
        assert!(n > 0, "below: n must be positive");
        u64::MAX - (u64::MAX % n)
    }

    /// [`below`](Self::below) with its rejection zone given: the same
    /// draws and the same value when `zone == Rng::zone(n)`.
    #[inline]
    pub fn below_zone(&mut self, n: u64, zone: u64) -> u64 {
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "range_usize: empty range [{lo}, {hi})");
        lo + self.index(hi - lo)
    }

    /// Uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64: empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Fair coin flip.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Standard normal sample via Box–Muller:
    /// `Rng::box_muller` of [`normal_uniforms`](Self::normal_uniforms).
    #[inline]
    pub fn normal(&mut self) -> f64 {
        let (u1, u2) = self.normal_uniforms();
        Rng::box_muller(u1, u2)
    }

    /// The two uniforms one [`normal`](Self::normal) draw consumes:
    /// `u1` in `(f64::MIN_POSITIVE, 1)`, redrawn until it lies there,
    /// then `u2` in `[0, 1)`.
    #[inline]
    pub fn normal_uniforms(&mut self) -> (f64, f64) {
        loop {
            let u1 = self.next_f64();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            return (u1, self.next_f64());
        }
    }

    /// The Box–Muller transform of [`normal_uniforms`](Self::normal_uniforms)'
    /// pair. Its radius `sqrt(-2 ln u1)` is positive, so its sign is the
    /// sign of `cos(2π u2)`.
    #[inline]
    pub fn box_muller(u1: f64, u2: f64) -> f64 {
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element (None for an empty slice).
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.index(slice.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c = Rng::new(8).next_u64();
        assert_ne!(a[0], c);
    }

    #[test]
    fn known_splitmix_vector() {
        // Reference outputs of splitmix64 with seed 1234567.
        let mut r = Rng::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = Rng::new(5);
        for _ in 0..10_000 {
            let v = r.uniform(-2.5, 7.0);
            assert!((-2.5..=7.0).contains(&v));
        }
        // Degenerate range collapses to the point.
        assert_eq!(r.uniform(1.5, 1.5), 1.5);
    }

    #[test]
    fn uniform_mean_is_plausible() {
        let mut r = Rng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform(0.0, 1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_unbiased_over_small_n() {
        let mut r = Rng::new(13);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[r.below(5) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    fn ranges() {
        let mut r = Rng::new(17);
        for _ in 0..1000 {
            let v = r.range_usize(3, 9);
            assert!((3..9).contains(&v));
            let w = r.range_u64(10, 12);
            assert!((10..12).contains(&w));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(19);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // And it actually moved something (probability of identity ~ 1/50!).
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(23);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn streams_are_independent_and_deterministic() {
        let mut s0 = Rng::stream(42, 0);
        let mut s1 = Rng::stream(42, 1);
        assert_ne!(s0.next_u64(), s1.next_u64());
        let mut again = Rng::stream(42, 0);
        let mut s0b = Rng::stream(42, 0);
        assert_eq!(again.next_u64(), s0b.next_u64());
    }

    #[test]
    fn choose_covers_elements() {
        let mut r = Rng::new(29);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[*r.choose(&items).unwrap() - 1] = true;
        }
        assert_eq!(seen, [true, true, true]);
        assert!(r.choose::<i32>(&[]).is_none());
    }
}
