//! Reproduces Figures 1, 2 and 3 (§4.2): the Pmake8 workload.
//!
//! Eight users on an eight-way machine; the unbalanced configuration
//! adds a second pmake job to four of them. Figure 2 shows isolation
//! (the light SPUs are unaffected under Quo/PIso), Figure 3 shows
//! sharing (the heavy SPUs do better under PIso than Quo).
//!
//! Run with: `cargo run --release --example pmake8_figures`
//! (pass `--quick` for the reduced-scale variant, `--threads N` to run
//! the six scheme × balance cells in parallel)
//!
//! Besides the text tables, an instrumented PIso run of the unbalanced
//! configuration is exported to `results/`:
//! * `pmake8_metrics.jsonl` — run header, per-job records, counters,
//!   latency histograms and the per-SPU (entitled, allowed, used) series
//!   for CPU, memory and disk;
//! * `pmake8_trace.json` — Chrome trace-event JSON, loadable in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`.

use perf_isolation::experiments::cli::Args;
use perf_isolation::experiments::pmake8::{self, Pmake8Scenario};
use perf_isolation::experiments::report::export;
use perf_isolation::experiments::sweep;
use perf_isolation::experiments::tables;

fn main() {
    let args = Args::from_env(&["--quick", "--threads"]);
    let scale = args.scale();
    let opts = args.sweep_options();
    println!("{}", tables::figure1());
    println!("Running the Pmake8 workload under SMP, Quo, and PIso ({scale:?} scale)...\n");
    let result = sweep::run_scenario(&Pmake8Scenario { scale }, &opts).report;
    println!("{}", result.format());
    println!(
        "Paper shape: Fig 2 — SMP unbalanced ≈ 156, Quo/PIso unbalanced ≈ 100;\n\
         Fig 3 — SMP 156, Quo 187, PIso ≈ 146.\n"
    );

    println!("Instrumented PIso run (trace + 100 ms sampler)...");
    let inst = pmake8::run_instrumented(scale);
    export(
        "results",
        &[
            ("pmake8_metrics.jsonl", &inst.metrics_jsonl),
            ("pmake8_trace.json", &inst.chrome_trace),
        ],
    )
    .expect("write results/");
    println!("Open the trace in Perfetto (https://ui.perfetto.dev).");
}
