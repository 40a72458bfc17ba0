//! Drives every experiment matrix in the repo — the paper's static
//! tables plus all nine simulated harnesses — through the sweep
//! engine, and exports the per-cell outcomes and sweep counters under
//! `results/`.
//!
//! All matrices' cells are drained by **one** worker pool
//! (`sweep::run_pool`), so there is no barrier between matrices. Every
//! run simulates every cell, and the output is byte-identical for any
//! `--threads` value; only the timing lines (which go to stdout, never
//! into result files) vary between runs.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example paper_tables -- [--quick] [--threads N]
//! cargo run --release --example paper_tables -- --quick --compare-threads 4
//! ```
//!
//! `--compare-threads N` is the CI mode: it runs the full matrix twice
//! (serial, then N workers), asserts the outputs are byte-identical,
//! and prints the measured speedup.

use std::time::Instant;

use perf_isolation::experiments::cli::Args;
use perf_isolation::experiments::report::export;
use perf_isolation::experiments::sweep::{self, SweepOptions, SweepOutput};
use perf_isolation::Scale;

fn main() {
    let args = Args::from_env(&["--quick", "--threads", "--compare-threads"]);
    let scale = args.scale();
    if let Some(n) = args.compare_threads {
        compare(scale, n);
        return;
    }

    let opts = args.sweep_options();

    let mut outcomes = String::new();
    let mut counters = String::new();
    for out in sweep::run_pool(&sweep::all_scenarios(scale), &opts) {
        println!("{}", out.text);
        println!("[{}] per-cell timing:\n{}", out.name, out.timing_summary());
        outcomes.push_str(&out.outcomes_jsonl);
        counters.push_str(&out.counters_jsonl());
    }
    export(
        "results",
        &[
            ("sweep_outcomes.jsonl", &outcomes),
            ("sweep_counters.jsonl", &counters),
        ],
    )
    .expect("write results/");
}

/// Runs every scenario serially and then with `threads` workers,
/// asserts byte-identical output, and prints the speedup.
fn compare(scale: Scale, threads: usize) {
    let run_all = |opts: &SweepOptions| -> (Vec<SweepOutput>, f64) {
        let start = Instant::now();
        let outputs = sweep::run_pool(&sweep::all_scenarios(scale), opts);
        (outputs, start.elapsed().as_secs_f64())
    };

    println!("sweep comparison at scale={}", scale.label());
    let (serial, serial_wall) = run_all(&SweepOptions::new());
    let (parallel, parallel_wall) = run_all(&SweepOptions::new().threads(threads));

    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(
            a.text, b.text,
            "[{}] parallel report text diverged from serial",
            a.name
        );
        assert_eq!(
            a.outcomes_jsonl, b.outcomes_jsonl,
            "[{}] parallel outcome export diverged from serial",
            a.name
        );
        println!("[{}] per-cell timing ({threads} threads):", b.name);
        println!("{}", b.timing_summary());
    }
    let cells: usize = serial.iter().map(|o| o.stats.len()).sum();
    println!(
        "{cells} cells: serial {serial_wall:.2}s, {threads} threads {parallel_wall:.2}s \
         -> speedup {:.2}x (outputs byte-identical)",
        serial_wall / parallel_wall
    );
}
