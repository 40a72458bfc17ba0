//! Network-bandwidth isolation (extension).
//!
//! The paper does not implement network isolation but specifies it
//! precisely: "the implementation would be similar to that of disk
//! bandwidth, without the complication of head position" (§5). This
//! example runs a bulk transfer against an interactive RPC stream on a
//! shared 100 Mb/s NIC under FCFS and under the §3.3 fairness
//! criterion.
//!
//! Run with: `cargo run --release --example network_bandwidth`
//! (pass `--quick` for the reduced-scale variant, `--threads N` to run
//! the two scheduler cells in parallel)

use perf_isolation::experiments::cli::Args;
use perf_isolation::experiments::net_bw::NetBwScenario;
use perf_isolation::experiments::sweep;

fn main() {
    let args = Args::from_env(&["--quick", "--threads"]);
    let scale = args.scale();
    let opts = args.sweep_options();
    println!("Running the network-bandwidth scenario ({scale:?} scale)...\n");
    let t = sweep::run_scenario(&NetBwScenario { scale }, &opts).report;
    println!("{}", t.format());
    println!(
        "Expected shape: under FCFS the interactive stream's packets wait\n\
         behind the bulk sender's queue; the fairness criterion interleaves\n\
         them at a negligible cost to the bulk transfer — the same outcome\n\
         the disk scheduler produces, minus the seek trade-off."
    );
}
