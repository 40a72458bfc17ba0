//! Overload robustness: open-loop traffic, admission control, and load
//! shedding (robustness extension).
//!
//! A latency-sensitive victim SPU (60% entitlement, a modest Poisson
//! request stream against a 30 ms target) shares the machine with an
//! antagonist SPU whose open-loop request stream is driven past its
//! entitled capacity (1.0× → 2.5×). The matrix crosses every scheme
//! with every shed policy: isolation decides whether the victim feels
//! the flood at all, and shedding decides whether the antagonist's own
//! goodput survives its overload or collapses into the metastable
//! queue-growth / retry-storm regime.
//!
//! Run with: `cargo run --release --example overload`
//! (pass `--quick` for the reduced-scale variant, `--threads N` to run
//! the 24 scheme × policy × load cells in parallel, `--cpus N` to rerun
//! the matrix on an N-CPU machine — rates and admission caps scale
//! linearly, so the overload factors and expected regimes carry over)
//!
//! An instrumented PIso/deadline-aware run at 2.5× is exported to
//! `results/`:
//! * `overload_metrics.jsonl` — counters, resource series, per-SPU SLO
//!   rows and the per-SPU request/admission report;
//! * `overload_trace.json` — Chrome trace-event JSON;
//! * `overload_matrix.json` — the full matrix, one JSON document (the
//!   CI artifact).

use perf_isolation::experiments::cli::Args;
use perf_isolation::experiments::overload::{self, OverloadScenario};
use perf_isolation::experiments::report::export;
use perf_isolation::experiments::sweep;

fn main() {
    let args = Args::from_env(&["--quick", "--threads", "--cpus"]);
    let scale = args.scale();
    let cpus = args.cpus.unwrap_or(overload::SEED_CPUS);
    let opts = args.sweep_options();
    println!(
        "Running the overload matrix: scheme x shed policy x load \
         ({scale:?} scale, {cpus} CPUs)...\n"
    );
    let result = sweep::run_scenario(&OverloadScenario::at(scale, cpus), &opts).report;
    println!("{}", result.format());
    println!(
        "\nExpectation: at 2.5x the no-shed antagonist queue goes metastable —\n\
         every request is served long past its deadline and goodput collapses —\n\
         while deadline-aware shedding keeps serving the requests that still\n\
         count. The victim's p99 blows through its target under SMP but never\n\
         moves under PIso, whatever the antagonist does.\n"
    );

    if cpus != overload::SEED_CPUS {
        // The instrumented run and its exports are pinned to the seed
        // machine; a scaled rerun just writes its own matrix artifact.
        let name = format!("overload_matrix_{cpus}cpu.json");
        export(
            "results",
            &[(&name, &overload::overload_matrix_json(&result))],
        )
        .expect("write results/");
        println!("wrote results/{name}");
        return;
    }

    println!("Instrumented PIso run (deadline-aware, 2.5x), SLO + sampling + trace on...");
    let inst = overload::run_instrumented(scale);
    println!("\n{}", inst.metrics.slo().format_table());
    export(
        "results",
        &[
            ("overload_metrics.jsonl", &inst.metrics_jsonl),
            ("overload_trace.json", &inst.chrome_trace),
            (
                "overload_matrix.json",
                &overload::overload_matrix_json(&result),
            ),
        ],
    )
    .expect("write results/");
    println!("Open the trace in Perfetto (https://ui.perfetto.dev).");
}
