//! Property tests for the simulation substrate.

use event_sim::{EventQueue, LogHistogram, OnlineStats, SimDuration, SimTime, SplitMix64};
use proptest::prelude::*;

proptest! {
    /// Events pop in non-decreasing time order, and same-time events pop
    /// in insertion order, for any schedule sequence.
    #[test]
    fn queue_pops_sorted_and_stable(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), (t, i));
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut count = 0;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at, SimTime::from_nanos(t));
            if let Some((lt, li)) = last {
                prop_assert!(at >= lt);
                if at == lt {
                    prop_assert!(i > li, "same-time events must be FIFO");
                }
            }
            last = Some((at, i));
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// The queue length always reflects schedules minus pops.
    #[test]
    fn queue_len_is_consistent(times in prop::collection::vec(0u64..1_000, 0..100), pops in 0usize..120) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(SimTime::from_nanos(t), ());
        }
        let mut popped = 0;
        for _ in 0..pops {
            if q.pop().is_some() {
                popped += 1;
            }
        }
        prop_assert_eq!(q.len(), times.len() - popped);
    }

    /// Bounded RNG draws stay in bounds for any seed/bound.
    #[test]
    fn rng_bounds_hold(seed in any::<u64>(), bound in 1u64..10_000) {
        let mut r = SplitMix64::new(seed);
        for _ in 0..100 {
            prop_assert!(r.next_below(bound) < bound);
        }
    }

    /// Range draws are inclusive of both ends and never escape.
    #[test]
    fn rng_range_holds(seed in any::<u64>(), lo in 0u64..1000, width in 0u64..1000) {
        let hi = lo + width;
        let mut r = SplitMix64::new(seed);
        for _ in 0..50 {
            let v = r.next_range(lo, hi);
            prop_assert!((lo..=hi).contains(&v));
        }
    }

    /// Jitter never leaves the configured band.
    #[test]
    fn jitter_band_holds(seed in any::<u64>(), base_ms in 1u64..10_000, frac in 0.0f64..1.0) {
        let mut r = SplitMix64::new(seed);
        let base = SimDuration::from_millis(base_ms);
        let d = r.jitter(base, frac);
        let lo = base.mul_f64(1.0 - frac);
        let hi = base.mul_f64(1.0 + frac);
        prop_assert!(d >= lo && d <= hi, "{d} outside [{lo}, {hi}]");
    }

    /// Identical seeds replay identical streams regardless of draw mix.
    #[test]
    fn rng_streams_replay(seed in any::<u64>(), ops in prop::collection::vec(0u8..3, 1..50)) {
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        for op in ops {
            match op {
                0 => prop_assert_eq!(a.next_u64(), b.next_u64()),
                1 => prop_assert_eq!(a.next_f64(), b.next_f64()),
                _ => prop_assert_eq!(a.next_below(17), b.next_below(17)),
            }
        }
    }

    /// Welford statistics agree with naive computation.
    #[test]
    fn online_stats_match_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.add(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() < 1e-4 * var.abs().max(1.0));
        prop_assert_eq!(s.min().unwrap(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max().unwrap(), xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Merging partitions equals single-stream accumulation.
    #[test]
    fn online_stats_merge_associates(xs in prop::collection::vec(-1e3f64..1e3, 2..100), split in 1usize..99) {
        let split = split.min(xs.len() - 1);
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..split] {
            a.add(x);
        }
        for &x in &xs[split..] {
            b.add(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9 * whole.mean().abs().max(1.0));
    }

    /// round_up lands on a multiple at or after the input.
    #[test]
    fn round_up_properties(t in 0u64..1_000_000, period in 1u64..10_000) {
        let time = SimTime::from_nanos(t);
        let p = SimDuration::from_nanos(period);
        let r = time.round_up(p);
        prop_assert!(r >= time);
        prop_assert_eq!(r.as_nanos() % period, 0);
        prop_assert!(r.as_nanos() - t < period);
    }

    /// Merging two log histograms matches one histogram built over the
    /// concatenation of their streams (bucket-exactly; the running sum
    /// only up to float re-association).
    #[test]
    fn log_histogram_merge_matches_concat(
        xs in prop::collection::vec(1u64..100_000_000, 0..100),
        ys in prop::collection::vec(1u64..100_000_000, 0..100),
    ) {
        let mut a = LogHistogram::latency();
        let mut b = LogHistogram::latency();
        let mut whole = LogHistogram::latency();
        for &v in &xs {
            a.add(v as f64 * 1e-6);
            whole.add(v as f64 * 1e-6);
        }
        for &v in &ys {
            b.add(v as f64 * 1e-6);
            whole.add(v as f64 * 1e-6);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert_eq!(a.max(), whole.max());
        prop_assert_eq!(a.nonzero_buckets(), whole.nonzero_buckets());
        prop_assert!((a.sum() - whole.sum()).abs() <= 1e-9 * whole.sum().abs());
        prop_assert_eq!(a.percentile(50.0), whole.percentile(50.0));
        prop_assert_eq!(a.percentile(99.0), whole.percentile(99.0));
    }

    /// Log-histogram percentiles are monotone in p and stay within one
    /// growth factor of the true data range.
    #[test]
    fn log_histogram_percentiles_bounded(xs in prop::collection::vec(1u64..100_000_000, 1..200)) {
        let mut h = LogHistogram::latency();
        let mut hi = 0.0f64;
        for &v in &xs {
            let x = v as f64 * 1e-6;
            hi = hi.max(x);
            h.add(x);
        }
        let mut last = 0.0f64;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let q = h.percentile(p).unwrap();
            prop_assert!(q >= last, "not monotone at p={p}");
            last = q;
        }
        // The top percentile lands inside the max value's x2 bucket.
        let p100 = h.percentile(100.0).unwrap();
        prop_assert!(p100 >= hi * (1.0 - 1e-12), "p100={p100} below max={hi}");
        prop_assert!(p100 <= hi * 2.0 * (1.0 + 1e-12), "p100={p100} beyond bucket of max={hi}");
    }
}
