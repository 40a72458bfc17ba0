//! Fault isolation: response times under injected faults (robustness
//! extension of §4).
//!
//! A 4-SPU machine runs a foreground job stream on SPU 0 while SPU 3
//! (or its disk) suffers each fault class in turn — transient I/O
//! errors, a degraded device, CPU loss, process crashes, a fork bomb.
//! The tables show each scheme's foreground mean/p95 against its own
//! fault-free baseline: PIso holds the foreground steady through every
//! background-scoped fault while SMP bleeds.
//!
//! Run with: `cargo run --release --example fault_isolation`
//! (pass `--quick` for the reduced-scale variant, `--threads N` to run
//! the 18 scheme × fault cells in parallel)
//!
//! An instrumented PIso run under a seeded *random* fault plan is
//! exported to `results/`:
//! * `fault_isolation_metrics.jsonl` — metrics, counters (including
//!   `fault.*`, `audit.*`, `kernel.errors`) and resource series;
//! * `fault_isolation_trace.json` — Chrome trace-event JSON with
//!   `fault:*` instant events marking each injection.

use perf_isolation::experiments::cli::Args;
use perf_isolation::experiments::fault_isolation::{self, FaultIsolationScenario};
use perf_isolation::experiments::report::export;
use perf_isolation::experiments::sweep;

fn main() {
    let args = Args::from_env(&["--quick", "--threads"]);
    let scale = args.scale();
    let opts = args.sweep_options();
    println!("Running the fault matrix under SMP, Quo, and PIso ({scale:?} scale)...\n");
    let result = sweep::run_scenario(&FaultIsolationScenario { scale }, &opts).report;
    println!("{}", result.format());
    println!(
        "\nExpectation: under PIso the foreground Δ stays within ~10% for every\n\
         background-scoped fault; under SMP the fork bomb and crash classes bleed\n\
         into the foreground. `audits` must be 0 everywhere.\n"
    );

    println!("Instrumented PIso run under a seeded random fault plan...");
    let inst = fault_isolation::run_instrumented(42, scale);
    export(
        "results",
        &[
            ("fault_isolation_metrics.jsonl", &inst.metrics_jsonl),
            ("fault_isolation_trace.json", &inst.chrome_trace),
        ],
    )
    .expect("write results/");
    println!("Open the trace in Perfetto (https://ui.perfetto.dev).");
}
