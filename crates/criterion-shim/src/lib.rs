//! An offline, dependency-free subset of the `criterion` API.
//!
//! The workspace builds in environments with no access to a crates
//! registry, so the real `criterion` crate cannot be resolved. This shim
//! implements the surface our benches use — `Criterion`,
//! `benchmark_group`, `bench_function`, `Bencher::iter`,
//! `Bencher::iter_batched` and `black_box` — with a simple timer in
//! place of criterion's statistical machinery.
//!
//! Behaviour:
//!
//! * `cargo bench` (cargo passes `--bench`) runs each benchmark for a
//!   fixed number of timed samples and prints `name: median ns/iter`.
//! * `cargo test` (no `--bench` flag) skips measurement entirely so the
//!   test suite stays fast; the bench targets still compile and link.
//!
//! The dependency is renamed in the workspace manifest
//! (`criterion = { package = "criterion-shim", .. }`) so bench code is
//! written against the ordinary `criterion::*` imports. It would compile
//! against the real crate except for `iter_batched`, which here takes no
//! `BatchSize`: every timed call gets its own input.

use std::sync::Mutex;
use std::time::Instant;

/// Opaque value barrier; stops the optimiser from deleting benched work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// One finished benchmark's summary statistics, as recorded by
/// [`take_measurements`].
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Full benchmark name (`group/function`).
    pub name: String,
    /// Median wall-clock time of one iteration, in nanoseconds.
    pub median_ns: u128,
    /// Fastest observed iteration, in nanoseconds.
    pub min_ns: u128,
    /// Number of timed samples.
    pub samples: usize,
}

static MEASUREMENTS: Mutex<Vec<Measurement>> = Mutex::new(Vec::new());

/// Drains every [`Measurement`] recorded since the last call, in
/// completion order. Lets a bench binary post-process its own results —
/// e.g. serialize them into a tracked baseline file — without parsing
/// its own stderr.
pub fn take_measurements() -> Vec<Measurement> {
    std::mem::take(&mut *MEASUREMENTS.lock().unwrap())
}

/// True when cargo invoked this binary as a benchmark (`cargo bench`).
pub fn running_as_bench() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// Entry point handed to benchmark functions.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Registers and immediately runs a single benchmark.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(&name.into(), self.sample_size, &mut f);
        self
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
        }
    }
}

/// A named collection of benchmarks sharing settings.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Sets how many timed samples each benchmark takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Registers and immediately runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, name.into());
        run_bench(&full, self.sample_size, &mut f);
        self
    }

    /// Ends the group (kept for API compatibility; no-op).
    pub fn finish(self) {}
}

/// Timing harness passed to each benchmark closure.
pub struct Bencher {
    samples_ns: Vec<u128>,
    iters_per_sample: u64,
}

impl Bencher {
    /// Times `f`, recording one sample per configured repetition.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // One untimed warm-up pass.
        black_box(f());
        for _ in 0..self.iters_per_sample {
            let start = Instant::now();
            black_box(f());
            self.samples_ns.push(start.elapsed().as_nanos());
        }
    }

    /// Times `routine` on a fresh input from `setup`, one sample per
    /// configured repetition. Neither the set-up nor dropping the
    /// routine's output is timed.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // One untimed warm-up pass.
        black_box(routine(setup()));
        for _ in 0..self.iters_per_sample {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            self.samples_ns.push(start.elapsed().as_nanos());
            drop(output);
        }
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(name: &str, sample_size: usize, f: &mut F) {
    let mut b = Bencher {
        samples_ns: Vec::with_capacity(sample_size),
        iters_per_sample: sample_size as u64,
    };
    f(&mut b);
    if b.samples_ns.is_empty() {
        eprintln!("{name}: no samples recorded");
        return;
    }
    b.samples_ns.sort_unstable();
    let median = b.samples_ns[b.samples_ns.len() / 2];
    let min = b.samples_ns[0];
    eprintln!(
        "{name}: median {median} ns/iter (min {min}, {} samples)",
        b.samples_ns.len()
    );
    MEASUREMENTS.lock().unwrap().push(Measurement {
        name: name.to_string(),
        median_ns: median,
        min_ns: min,
        samples: b.samples_ns.len(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_and_function_run_closures() {
        let mut c = Criterion::default();
        let mut hits = 0u32;
        c.bench_function("unit/one", |b| b.iter(|| hits += 1));
        assert!(hits >= 1);

        let mut group = c.benchmark_group("unit");
        group.sample_size(3);
        let mut group_hits = 0u32;
        group.bench_function(format!("two/{}", 2), |b| b.iter(|| group_hits += 1));
        group.finish();
        // 3 timed samples + 1 warm-up.
        assert_eq!(group_hits, 4);
    }

    #[test]
    fn iter_batched_sets_up_a_fresh_input_per_call() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("unit");
        group.sample_size(3);
        let (mut setups, mut seen) = (0u32, Vec::new());
        group.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    setups
                },
                |input| seen.push(input),
            )
        });
        // 3 timed samples + 1 warm-up, each on its own input.
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }

    #[test]
    fn black_box_is_identity() {
        assert_eq!(black_box(41) + 1, 42);
    }

    #[test]
    fn measurements_are_recorded_and_drained() {
        let mut c = Criterion::default();
        c.bench_function("unit/measured", |b| b.iter(|| black_box(1)));
        // The store is shared with concurrently running tests, so only
        // assert on this test's own entry.
        let ms = take_measurements();
        assert!(ms
            .iter()
            .any(|m| m.name == "unit/measured" && m.samples >= 1));
    }
}
