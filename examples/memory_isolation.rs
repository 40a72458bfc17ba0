//! Reproduces Figures 6 and 7 (§4.4): the memory-isolation workload.
//!
//! Two SPUs on a four-CPU, 16 MB machine running pmake jobs sized so one
//! job fits an SPU's share of memory but two jobs thrash it.
//!
//! Run with: `cargo run --release --example memory_isolation`
//! (pass `--quick` for the reduced-scale variant, `--threads N` to run
//! the scheme × balance cells in parallel)
//!
//! Also exports `results/mem_iso_series.jsonl`: the sampled per-SPU
//! `(entitled, allowed, used)` series of an instrumented PIso run —
//! the memory rows show `allowed` rising above `entitled` while idle
//! pages are on loan and dropping back on revocation.

use perf_isolation::experiments::cli::Args;
use perf_isolation::experiments::mem_iso::{self, MemIsoScenario};
use perf_isolation::experiments::report::export;
use perf_isolation::experiments::sweep;
use perf_isolation::experiments::tables;

fn main() {
    let args = Args::from_env(&["--quick", "--threads"]);
    let scale = args.scale();
    let opts = args.sweep_options();
    println!("{}", tables::figure6());
    println!("Running the memory-isolation workload ({scale:?} scale)...\n");
    let result = sweep::run_scenario(&MemIsoScenario { scale }, &opts).report;
    println!("{}", result.format());
    println!(
        "SPU2 major faults (unbalanced): SMP={} Quo={} PIso={}",
        result.spu2_major_faults[0], result.spu2_major_faults[1], result.spu2_major_faults[2]
    );
    println!(
        "\nPaper shape: isolation — SMP degrades SPU1 ~45%, PIso ~13%, Quo ~0;\n\
         sharing — Quo degrades SPU2 ~145% vs balanced (100% CPU + 45% memory\n\
         thrash), PIso close to SMP.\n"
    );

    let (_, series) = mem_iso::run_instrumented(scale);
    export("results", &[("mem_iso_series.jsonl", &series)]).expect("write results/");
}
