//! Checks of the generators, the percentile helper, the committed
//! digests and the metric names against `BENCHMARK.json`. Cells run at
//! `Size::Tiny` so the whole set stays fast in a debug build.

use std::time::Duration;

use event_sim::SplitMix64;
use simbench::compare::{parse_benchmark, Benchmark};
use simbench::expected::{committed_digests, BLESSED_SEEDS};
use simbench::report::{end_to_end, json_line, per_layer};
use simbench::run::{run_cell, Block, Outcome, Traced, BLOCK_CELLS};
use simbench::stats::{percentile, tail_percentile};
use simbench::trace::Tracer;
use simbench::workload::spawn_all;
use simbench::{Size, Workload};

fn benchmark() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse_benchmark(&text).expect("BENCHMARK.json scans")
}

/// Fingerprint of everything the kernel is given for one cell: machine,
/// SPUs, files and spawned programs.
fn inputs(w: Workload, seed: u64) -> u64 {
    let mut k = w.boot(Size::Tiny);
    let spawns = w.generate(Size::Tiny, &mut k, &mut SplitMix64::new(seed));
    spawn_all(&mut k, spawns);
    k.fingerprint()
}

#[test]
fn generators_are_deterministic_per_seed_and_vary_across_seeds() {
    for w in Workload::ALL {
        let cell = || {
            run_cell(
                w,
                Size::Tiny,
                &mut SplitMix64::new(7),
                &mut Tracer::off(),
                0,
            )
        };
        let (a, b) = (cell(), cell());
        assert_eq!(a.failure, None, "{}", w.name());
        assert_eq!(
            a.digest,
            b.digest,
            "{}: same seed, different export",
            w.name()
        );
        assert_eq!(inputs(w, 7), inputs(w, 7), "{}", w.name());
        assert_ne!(
            inputs(w, 7),
            inputs(w, 8),
            "{}: seed does not reach the inputs",
            w.name()
        );
    }
}

#[test]
fn p95_of_200_samples_leaves_ten_above() {
    let samples: Vec<f64> = (0..200u32).map(|i| f64::from(i * 7919 % 200)).collect();
    let p95 = percentile(&samples, 95.0);
    assert_eq!(samples.iter().filter(|&&s| s > p95).count(), 10);
}

#[test]
fn victim_tail_is_p99_only_with_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(200), 95.0);
    assert_eq!(tail_percentile(999), 95.0);
    assert_eq!(tail_percentile(1000), 99.0);
    assert_eq!(tail_percentile(1600), 99.0);
}

/// What a traced run of two tiny cells of `w` reports.
fn tiny_outcome(w: Workload) -> Outcome {
    let mut tracer = Tracer::on();
    let mut block = Block::default();
    let mut times = Vec::new();
    let mut stream = SplitMix64::new(1);
    for id in 0..2 {
        let cell = run_cell(w, Size::Tiny, &mut stream.fork(), &mut tracer, id);
        assert_eq!(cell.failure, None, "{}", w.name());
        block.add(&cell);
        times.push(cell.times);
    }
    Outcome {
        times: times.iter().map(|&t| vec![t]).collect(),
        first_pass: Duration::from_millis(1),
        probe: Duration::from_millis(1),
        block,
        digests: Vec::new(),
        failures: Default::default(),
        peak_rss_mb: 1.0,
        traced: Some(Traced {
            spans: tracer.into_spans(),
            times,
        }),
    }
}

#[test]
fn runner_prints_exactly_the_declared_metrics() {
    let bench = benchmark();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(bench.workloads, names);

    let mut nonzero_somewhere = vec![false; bench.per_layer.len()];
    for w in Workload::ALL {
        let outcome = tiny_outcome(w);
        for (declared, printed) in [
            (&bench.end_to_end, end_to_end(&outcome)),
            (&bench.per_layer, per_layer(&outcome)),
        ] {
            let declared: Vec<(&str, &str)> = declared
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect();
            let printed_names: Vec<(&str, &str)> =
                printed.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(declared, printed_names, "{}", w.name());
            let line = json_line(true, 2, 0, &printed);
            for m in &printed {
                let value = m.value.expect("declared metrics have values");
                assert!(value.is_finite() && value >= 0.0, "{} = {value}", m.name);
                assert!(
                    line.contains(&format!("\"{}\":{{\"value\":", m.name)),
                    "{line}"
                );
            }
        }
        // End-to-end metrics are never 0.
        for m in end_to_end(&outcome) {
            assert!(m.value > Some(0.0), "{}: {} is 0", w.name(), m.name);
        }
        for (seen, m) in nonzero_somewhere.iter_mut().zip(per_layer(&outcome)) {
            *seen |= m.value > Some(0.0);
        }
    }
    // A per-layer metric reads 0 only on a workload that skips its layer,
    // never on all of them.
    for (m, seen) in bench.per_layer.iter().zip(nonzero_somewhere) {
        assert!(seen, "{} is 0 on every workload", m.name);
    }
}

#[test]
fn committed_digests_cover_the_reference_block() {
    for w in Workload::ALL {
        for seed in BLESSED_SEEDS {
            let digests = committed_digests(w, seed);
            assert_eq!(
                digests.len(),
                BLOCK_CELLS as usize,
                "{} seed {seed}",
                w.name()
            );
        }
    }
}
