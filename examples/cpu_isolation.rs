//! Reproduces Figures 4 and 5 (§4.3): the CPU-isolation workload.
//!
//! Ocean (a barrier-synchronized parallel app) in one SPU vs six EDA
//! simulators in the other, on an eight-way machine.
//!
//! Run with: `cargo run --release --example cpu_isolation`
//! (pass `--quick` for the reduced-scale variant, `--threads N` to run
//! the three scheme cells in parallel)

use perf_isolation::experiments::cli::Args;
use perf_isolation::experiments::cpu_iso::CpuIsoScenario;
use perf_isolation::experiments::sweep;
use perf_isolation::experiments::tables;

fn main() {
    let args = Args::from_env(&["--quick", "--threads"]);
    let scale = args.scale();
    let opts = args.sweep_options();
    println!("{}", tables::figure4());
    println!("Running the CPU-isolation workload ({scale:?} scale)...\n");
    let result = sweep::run_scenario(&CpuIsoScenario { scale }, &opts).report;
    println!("{}", result.format());
    println!(
        "Paper shape: Ocean — Quo best, PIso close behind, SMP worst\n\
         (interference); Flashlite/VCS — Quo markedly worse than SMP,\n\
         PIso comparable to SMP (idle Ocean CPUs are borrowed)."
    );
}
