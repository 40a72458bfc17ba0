//! Reproduces Tables 3 and 4 (§4.5): disk-bandwidth isolation.
//!
//! Two SPUs share one HP 97560 (half seek latency, as in the paper).
//! Table 3: a scattered pmake vs a 20 MB sequential copy. Table 4: a
//! 500 KB copy vs a 5 MB copy. Three disk schedulers: Pos (C-SCAN),
//! Iso (blind fairness), PIso (hybrid).
//!
//! Run with: `cargo run --release --example disk_bandwidth`
//! (pass `--quick` for the reduced-scale variant, `--threads N` to run
//! the six workload × scheduler cells in parallel)

use perf_isolation::experiments::cli::Args;
use perf_isolation::experiments::disk_bw::DiskBwScenario;
use perf_isolation::experiments::sweep;

fn main() {
    let args = Args::from_env(&["--quick", "--threads"]);
    let scale = args.scale();
    let opts = args.sweep_options();
    println!("Running the disk-bandwidth workloads ({scale:?} scale)...\n");
    let report = sweep::run_scenario(&DiskBwScenario::both(scale), &opts).report;
    println!(
        "Table 3: the pmake-copy workload\n{}",
        report.tables[0].format()
    );
    println!(
        "Paper shape: PIso cuts the pmake's response ~39% and per-request\n\
         wait ~76% vs Pos; the copy pays ~23%; seek stays near Pos.\n"
    );
    println!(
        "Table 4: the big-and-small-copy workload\n{}",
        report.tables[1].format()
    );
    println!(
        "Paper shape: under Pos the big copy locks out the small one; both\n\
         fairness policies fix that, but blind Iso pays ~30% extra seek\n\
         latency while PIso keeps seek near the Pos level and gives the\n\
         small copy its best response."
    );
}
