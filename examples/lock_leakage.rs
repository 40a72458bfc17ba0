//! Lock leakage: cross-SPU interference through kernel locks (§3.4).
//!
//! An antagonist SPU hammers the root-inode lock with pathname lookups
//! while a latency-sensitive victim SPU runs staggered read/compute
//! jobs against a 10 ms response target. The matrix crosses every
//! scheme with both lock modes (exclusive mutex vs the paper's
//! multi-reader fix) and reads the kernel's interference attribution:
//! the antagonist→victim `lock.root` cell is the §3.4 leak, nonzero
//! under SMP, smaller once PIso pins the antagonist to its half of the
//! machine, and collapsed to zero by reader-writer lookups.
//!
//! Run with: `cargo run --release --example lock_leakage`
//! (pass `--quick` for the reduced-scale variant, `--threads N` to run
//! the 6 scheme × lock-mode cells in parallel)
//!
//! An instrumented PIso/exclusive run is exported to `results/`:
//! * `lock_leakage_metrics.jsonl` — counters, resource series, the
//!   interference matrix and the per-SPU SLO rows;
//! * `lock_leakage_trace.json` — Chrome trace-event JSON where every
//!   contended lock acquisition is a named `lock-wait:*` span;
//! * `lock_leakage_matrix.json` — the interference matrix alone, one
//!   JSON document (the CI artifact).

use perf_isolation::experiments::cli::Args;
use perf_isolation::experiments::lock_leakage::{self, LockLeakageScenario};
use perf_isolation::experiments::report::export;
use perf_isolation::experiments::sweep;
use perf_isolation::kernel::interference_matrix_json;

fn main() {
    let args = Args::from_env(&["--quick", "--threads"]);
    let scale = args.scale();
    let opts = args.sweep_options();
    println!("Running the lock-leakage matrix under SMP, Quo, and PIso ({scale:?} scale)...\n");
    let result = sweep::run_scenario(&LockLeakageScenario { scale }, &opts).report;
    println!("{}", result.format());
    println!(
        "\nExpectation: the antagonist→victim wait is largest under SMP, shrinks\n\
         once PIso confines the antagonist to its own CPUs, and vanishes under\n\
         the reader-writer mode — where the victim also meets its 10 ms target.\n"
    );

    println!("Instrumented PIso run (exclusive mode), attribution + SLO + trace on...");
    let inst = lock_leakage::run_instrumented(scale);
    println!("\n{}", inst.metrics.interference().format_table());
    println!("{}", inst.metrics.slo().format_table());
    export(
        "results",
        &[
            ("lock_leakage_metrics.jsonl", &inst.metrics_jsonl),
            ("lock_leakage_trace.json", &inst.chrome_trace),
            (
                "lock_leakage_matrix.json",
                &interference_matrix_json(inst.metrics.interference()),
            ),
        ],
    )
    .expect("write results/");
    println!("Open the trace in Perfetto (https://ui.perfetto.dev).");
}
