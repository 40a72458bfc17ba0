//! Scaling sweeps (extension): the §2.1 isolation guarantee under
//! growing background load — and growing machines.
//!
//! Default mode: the Pmake8 machine with the light SPUs fixed at one
//! job each and the heavy SPUs swept from 1 to 4 jobs each (8 to 20
//! jobs total on 8 CPUs). The guarantee predicts flat light-SPU
//! response lines for Quo and PIso and a rising line for SMP.
//!
//! `--cpu-scale` mode: the machine-size ladder instead — 8/32/128/512
//! CPUs × {2×, 4×} SPU oversubscription under PIso, asserting the
//! light-SPU response stays flat as the machine grows, and reporting
//! each cell's simulation throughput (simulated seconds per wall
//! second).
//!
//! Run with: `cargo run --release --example load_scaling`
//! (pass `--quick` for the reduced-scale variant, `--threads N` for
//! parallel cells; with `--cpu-scale`: `--max-cpus N` truncates the
//! ladder and `--out FILE` writes the per-cell outcome JSONL artifact)

use perf_isolation::experiments::cli::Args;
use perf_isolation::experiments::scaling::{self, CpuScaleScenario, ScalingScenario};
use perf_isolation::experiments::sweep::{self, Render};

fn main() {
    let args = Args::from_env(&["--quick", "--threads", "--cpu-scale", "--max-cpus", "--out"]);
    let scale = args.scale();
    let opts = args.sweep_options();

    if args.cpu_scale {
        let max_cpus = args.max_cpus.unwrap_or(usize::MAX);
        let scenario = CpuScaleScenario::capped(scale, max_cpus);
        println!("Sweeping machine size under PIso ({scale:?} scale)...\n");
        let run = sweep::run_scenario(&scenario, &opts);
        println!("{}", run.report.render());
        println!("sim-throughput (simulated seconds per wall second):");
        println!(
            "{}",
            scaling::throughput_summary(&run.report.rows, &run.stats)
        );
        let violations = run.report.isolation_violations();
        if let Some(path) = &args.out {
            std::fs::write(path, &run.outcomes_jsonl).expect("write outcome artifact");
            println!("wrote {path}");
        }
        assert!(
            violations.is_empty(),
            "isolation violated at scale: {violations:?}"
        );
        return;
    }

    println!("Sweeping background load on the Pmake8 machine ({scale:?} scale)...\n");
    let report = sweep::run_scenario(&ScalingScenario::standard(scale), &opts).report;
    println!("{}", scaling::format(&report.points));
    println!(
        "\"If the resource requirements of an SPU are less than its allocated\n\
         fraction of the machine, the SPU should see no degradation in\n\
         performance, regardless of the load placed on the system by others.\"\n\
         (§2.1) — the Quo and PIso columns should stay at ~100."
    );
}
