//! Deterministic pseudo-random numbers for workload generation.
//!
//! [`SplitMix64`] is a tiny, fast, well-distributed 64-bit generator
//! (Steele/Lea/Flood, used as the seeding PRNG in many suites). It is more
//! than adequate for simulation jitter and keeps the workspace free of
//! external RNG dependencies, which in turn keeps runs exactly reproducible
//! across crate upgrades.

use crate::time::SimDuration;

/// A deterministic 64-bit pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use event_sim::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds produce equal streams.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives an independent child generator; useful for giving each
    /// process or subsystem its own stream so that adding draws in one
    /// place does not perturb another.
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift bounded generation (Lemire). The tiny modulo bias
        // of the plain approach would be irrelevant here, but this is just
        // as cheap and exact for small bounds.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo + self.next_below(hi - lo + 1)
    }

    /// A duration jittered uniformly in `[base*(1-frac), base*(1+frac)]`.
    /// `frac` is clamped to `[0, 1]`.
    pub fn jitter(&mut self, base: SimDuration, frac: f64) -> SimDuration {
        let frac = frac.clamp(0.0, 1.0);
        let scale = 1.0 - frac + 2.0 * frac * self.next_f64();
        base.mul_f64(scale)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_values_respect_bound() {
        let mut r = SplitMix64::new(4);
        for _ in 0..10_000 {
            assert!(r.next_below(7) < 7);
            let v = r.next_range(10, 20);
            assert!((10..=20).contains(&v));
        }
    }

    #[test]
    fn bounded_values_cover_range() {
        let mut r = SplitMix64::new(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.next_below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn jitter_within_band() {
        let mut r = SplitMix64::new(6);
        let base = SimDuration::from_millis(100);
        for _ in 0..1000 {
            let d = r.jitter(base, 0.2);
            assert!(d >= SimDuration::from_millis(80), "{d}");
            assert!(d <= SimDuration::from_millis(120), "{d}");
        }
    }

    #[test]
    fn jitter_zero_frac_is_identity() {
        let mut r = SplitMix64::new(6);
        let base = SimDuration::from_millis(100);
        assert_eq!(r.jitter(base, 0.0), base);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SplitMix64::new(9);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMix64::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "shuffle should change order with overwhelming probability"
        );
    }

    #[test]
    fn mean_is_roughly_half() {
        let mut r = SplitMix64::new(12);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
