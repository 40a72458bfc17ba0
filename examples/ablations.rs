//! Runs the design-choice ablations the paper calls out:
//!
//! * §3.4 — root inode lock: mutex vs multiple-readers (the kernel fix
//!   the authors report improved base IRIX response time 20-30% on some
//!   four-processor workloads);
//! * §3.2 — the memory Reserve Threshold sweep;
//! * §3.3 — the disk BW-difference threshold sweep (round-robin → pure
//!   C-SCAN interpolation);
//! * §3.1 — tick-based vs IPI-based revocation of loaned CPUs.
//!
//! Run with: `cargo run --release --example ablations`
//! (pass `--quick` for the reduced-scale variant, `--threads N` to run
//! the 15 ablation cells in parallel)

use perf_isolation::experiments::ablation::AblationScenario;
use perf_isolation::experiments::cli::Args;
use perf_isolation::experiments::sweep::{self, Render};

fn main() {
    let args = Args::from_env(&["--quick", "--threads"]);
    let scale = args.scale();
    let opts = args.sweep_options();

    println!("Running ablations ({scale:?} scale)...\n");
    let report = sweep::run_scenario(&AblationScenario::standard(scale), &opts).report;
    println!("{}", report.render());
    println!(
        "§3.3: \"Smaller values imply better isolation, with a choice of zero\n\
         resulting in round-robin scheduling. Larger values imply smaller seek\n\
         times, and a very large value results in the normal disk-head-position\n\
         scheduling.\""
    );
}
