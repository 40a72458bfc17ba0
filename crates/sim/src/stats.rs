//! Small statistics accumulators used by the kernel metrics and the
//! experiment harness.
//!
//! * [`OnlineStats`] — count/mean/variance/min/max in O(1) space (Welford).
//! * [`LogHistogram`] — log-bucketed latency histogram with deterministic
//!   bucket boundaries, merge, and percentile queries.

use crate::time::SimDuration;

/// Streaming count/mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use event_sim::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.add(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds a duration observation in seconds.
    pub fn add_duration(&mut self, d: SimDuration) {
        self.add(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Population variance; zero when fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Log-bucketed histogram for latency-like quantities that span many
/// orders of magnitude.
///
/// Bucket `i` covers `[min · growth^i, min · growth^(i+1))`; boundaries
/// are precomputed once by repeated multiplication, so two histograms
/// built with the same parameters have bit-identical boundaries and can
/// be [merged](LogHistogram::merge). Values below `min` (including the
/// very common zero latency) land in an underflow bucket covering
/// `[0, min)`; values at or past the last boundary land in overflow.
///
/// # Examples
///
/// ```
/// use event_sim::LogHistogram;
/// let mut h = LogHistogram::latency();
/// for us in [5u64, 50, 500, 5_000] {
///     h.add(us as f64 * 1e-6); // seconds
/// }
/// assert_eq!(h.count(), 4);
/// let p50 = h.percentile(50.0).unwrap();
/// assert!(p50 > 5e-6 && p50 < 5e-4);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    /// `bounds[i]` is the inclusive lower edge of bucket `i`; one extra
    /// entry holds the exclusive upper edge of the last bucket.
    bounds: Vec<f64>,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
    max: f64,
}

impl LogHistogram {
    /// Creates a histogram whose first bucket starts at `min` and whose
    /// bucket widths grow geometrically by `growth`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `min <= 0`, or `growth <= 1`.
    pub fn new(min: f64, growth: f64, n: usize) -> Self {
        assert!(n > 0, "need at least one bucket");
        assert!(min > 0.0, "first boundary must be positive");
        assert!(growth > 1.0, "growth factor must exceed 1");
        let mut bounds = Vec::with_capacity(n + 1);
        let mut edge = min;
        for _ in 0..=n {
            bounds.push(edge);
            edge *= growth;
        }
        LogHistogram {
            bounds,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// The standard latency histogram used across the kernel: 1 µs first
    /// bucket, doubling per bucket, 36 buckets (covers past 19 simulated
    /// hours before overflow).
    pub fn latency() -> Self {
        LogHistogram::new(1e-6, 2.0, 36)
    }

    /// Adds one observation (negative values count as underflow).
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        self.sum += x.max(0.0);
        self.max = self.max.max(x);
        if x < self.bounds[0] {
            self.underflow += 1;
        } else if x >= self.bounds[self.buckets.len()] {
            self.overflow += 1;
        } else {
            // First edge strictly above x, minus one, is x's bucket.
            let idx = self.bounds.partition_point(|&b| b <= x) - 1;
            self.buckets[idx] += 1;
        }
    }

    /// Adds a duration observation in seconds.
    pub fn add_duration(&mut self, d: SimDuration) {
        self.add(d.as_secs_f64());
    }

    /// Total number of observations including under/overflow.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all (non-negative) observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest observation seen (exact, not bucketed); zero when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another histogram with identical boundaries into this one.
    ///
    /// # Panics
    ///
    /// Panics if the boundary sets differ.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.bounds, other.bounds, "merging mismatched histograms");
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Approximate `p`-th percentile (`0 < p <= 100`), linearly
    /// interpolated within the containing bucket. Underflow reads as 0,
    /// overflow as the last boundary. Returns `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let target = (p / 100.0 * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(0.0);
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            if seen + c >= target {
                let into = (target - seen) as f64 / c.max(1) as f64;
                let lo = self.bounds[i];
                let hi = self.bounds[i + 1];
                return Some(lo + (hi - lo) * into);
            }
            seen += c;
        }
        Some(self.bounds[self.buckets.len()])
    }

    /// Occupied buckets as `(lower_edge, upper_edge, count)` triples, in
    /// ascending order; underflow appears as `(0, min, n)`. Useful for
    /// compact export.
    pub fn nonzero_buckets(&self) -> Vec<(f64, f64, u64)> {
        let mut out = Vec::new();
        if self.underflow > 0 {
            out.push((0.0, self.bounds[0], self.underflow));
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                out.push((self.bounds[i], self.bounds[i + 1], c));
            }
        }
        if self.overflow > 0 {
            let last = self.bounds[self.buckets.len()];
            out.push((last, f64::INFINITY, self.overflow));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_merge_matches_single_stream() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 37 % 13) as f64).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..40] {
            a.add(x);
        }
        for &x in &xs[40..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.add(1.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn log_histogram_buckets_and_percentiles() {
        let mut h = LogHistogram::new(1.0, 2.0, 8);
        // 1, 2, 4, ..., 128: one observation per bucket.
        for i in 0..8 {
            h.add((1u64 << i) as f64);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.nonzero_buckets().len(), 8);
        let p50 = h.percentile(50.0).unwrap();
        assert!((8.0..=16.0).contains(&p50), "{p50}");
        let p100 = h.percentile(100.0).unwrap();
        assert!(p100 >= 128.0, "{p100}");
        assert_eq!(h.max(), 128.0);
        assert!((h.mean() - 255.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_underflow_and_overflow() {
        let mut h = LogHistogram::new(1.0, 10.0, 2); // buckets [1,10) [10,100)
        h.add(0.0);
        h.add(0.5);
        h.add(5.0);
        h.add(1e6);
        assert_eq!(h.count(), 4);
        assert_eq!(h.percentile(25.0), Some(0.0));
        assert_eq!(h.percentile(100.0), Some(100.0));
        let nz = h.nonzero_buckets();
        assert_eq!(nz[0], (0.0, 1.0, 2));
        assert_eq!(nz.last().unwrap().2, 1);
        assert!(nz.last().unwrap().1.is_infinite());
    }

    #[test]
    fn log_histogram_merge_matches_single_stream() {
        let xs: Vec<f64> = (1..200).map(|i| (i * i) as f64 * 1e-6).collect();
        let mut whole = LogHistogram::latency();
        let mut a = LogHistogram::latency();
        let mut b = LogHistogram::latency();
        for (i, &x) in xs.iter().enumerate() {
            whole.add(x);
            if i % 2 == 0 {
                a.add(x);
            } else {
                b.add(x);
            }
        }
        a.merge(&b);
        // Bucket counts match exactly; the sum only up to float
        // re-association (merge adds two partial sums).
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.nonzero_buckets(), whole.nonzero_buckets());
        assert!((a.sum() - whole.sum()).abs() < 1e-9 * whole.sum().abs());
        assert_eq!(a.percentile(95.0), whole.percentile(95.0));
    }

    #[test]
    fn log_histogram_boundaries_are_reproducible() {
        let a = LogHistogram::latency();
        let b = LogHistogram::latency();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn log_histogram_merge_rejects_mismatched_bounds() {
        let mut a = LogHistogram::new(1.0, 2.0, 4);
        let b = LogHistogram::new(1.0, 2.0, 5);
        a.merge(&b);
    }

    #[test]
    fn log_histogram_empty_percentile_is_none() {
        assert_eq!(LogHistogram::latency().percentile(50.0), None);
    }
}
