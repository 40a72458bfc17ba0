//! Server consolidation: the scenario the paper's introduction
//! motivates ("a compute server often has to serve many masters"),
//! grown to the multi-tenant shape the flat SPU model cannot express
//! (hierarchy extension).
//!
//! Two tenants share the machine. Tenant `acme` runs a
//! latency-sensitive service (`vic`) next to a noisy batch sibling
//! (`noisy`) whose open-loop fork-bursts are driven past its
//! entitlement; tenant `bell` runs its own service (`vic2`) and an idle
//! `spare`. The matrix compares three ways of drawing the isolation
//! domains — SMP (none), one flat PIso SPU per tenant, and the
//! hierarchical per-service leaves under tenant ceilings — at 1.0× and
//! 4.0× antagonist load. Flat per-tenant SPUs protect `bell` but let
//! `acme`'s own sibling wreck `vic`; the hierarchy protects both
//! levels.
//!
//! Run with: `cargo run --release --example server_consolidation`
//! (pass `--quick` for the reduced-scale variant, `--threads N` to run
//! the 6 layout × load cells in parallel)
//!
//! An instrumented hierarchical run at 4.0× is exported to `results/`:
//! * `consolidation_metrics.jsonl` — counters (including the
//!   `spu.tree.*` tenant rollups), series, per-service SLO rows;
//! * `consolidation_trace.json` — Chrome trace-event JSON with
//!   tenant/service process names;
//! * `consolidation_matrix.json` — the full matrix (the CI artifact).

use perf_isolation::experiments::cli::Args;
use perf_isolation::experiments::consolidation::{self, ConsolidationScenario};
use perf_isolation::experiments::report::export;
use perf_isolation::experiments::sweep;

fn main() {
    let args = Args::from_env(&["--quick", "--threads"]);
    let scale = args.scale();
    let opts = args.sweep_options();
    println!("Running the consolidation matrix: layout x load ({scale:?} scale)...\n");
    let result = sweep::run_scenario(&ConsolidationScenario::seed(scale), &opts).report;
    println!("{}", result.format());
    println!(
        "\nExpectation: at 4.0x SMP leaks the antagonist's fork-bursts into\n\
         both tenants. One flat SPU per tenant walls off tenant bell but\n\
         mixes acme's own service with its noisy sibling — vic's p99 blows\n\
         through the target. Only the hierarchy holds both lines:\n\
         per-service leaves under per-tenant ceilings.\n"
    );

    println!("Instrumented hierarchical run (4.0x), SLO + sampling + trace on...");
    let inst = consolidation::run_instrumented(scale);
    println!("\n{}", inst.metrics.slo().format_table());
    println!("tenant rollup (leaf -> tenant):");
    for (tenant, jobs, violated, p99) in &inst.tenants {
        println!(
            "  {tenant:<6} {jobs:>6} jobs {violated:>5} violated  worst p99 {:>7.2} ms",
            p99 * 1e3
        );
    }
    export(
        "results",
        &[
            ("consolidation_metrics.jsonl", &inst.metrics_jsonl),
            ("consolidation_trace.json", &inst.chrome_trace),
            (
                "consolidation_matrix.json",
                &consolidation::consolidation_matrix_json(&result),
            ),
        ],
    )
    .expect("write results/");
    println!("\nwrote results/consolidation_{{metrics.jsonl,trace.json,matrix.json}}");
    println!("Open the trace in Perfetto (https://ui.perfetto.dev).");
}
