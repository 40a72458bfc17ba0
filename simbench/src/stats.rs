//! Percentiles and quartiles of host-time samples.

use smp_kernel::obsv::interference::nearest_rank;

/// Exact nearest-rank `p`-th percentile of unsorted samples (0 when
/// empty). With 200 samples, p95 leaves exactly 10 samples above it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, p)
}

/// The percentile `victim_tail_sim_ms` reports for `n` samples: p99 when
/// at least ten samples lie beyond it, else p95. A tail with fewer
/// samples beyond it moves with a handful of cells.
pub fn tail_percentile(n: usize) -> f64 {
    let beyond_p99 = n - (0.99 * n as f64).ceil() as usize;
    if beyond_p99 >= 10 {
        99.0
    } else {
        95.0
    }
}

/// `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here match
/// ones computed from the same numbers in Python. A single sample is its
/// own quartiles; `None` when empty.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => None,
        1 => Some((s[0], s[0], s[0])),
        n => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                s[j - 1] + (s[j] - s[j - 1]) * delta
            };
            Some((q(1), q(2), q(3)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[]), None);
    }
}
