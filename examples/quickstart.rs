//! Quickstart: build a machine, attach two SPUs, and watch performance
//! isolation work — expressed as a custom [`Scenario`] so the same
//! three-scheme matrix runs through the deterministic sweep engine.
//!
//! A "victim" user runs one modest job; a "hog" user floods the machine
//! with compute. We run the same scenario under all three allocation
//! schemes (Table 2) and print the victim's and hog's response times:
//! under `SMP` the victim suffers, under `Quota` the hog is crippled,
//! under `PIso` the victim is protected *and* the hog still borrows the
//! idle capacity it can get.
//!
//! Run with: `cargo run --example quickstart [-- --threads 3]`

use perf_isolation::core::{Scheme, SpuId, SpuSet};
use perf_isolation::experiments::sweep::{self, Scenario, SweepOptions, Value};
use perf_isolation::kernel::{Kernel, MachineConfig, Program};
use perf_isolation::sim::{SimDuration, SimTime};

/// The quickstart matrix: one cell per scheme, each measuring the
/// victim's and the hog's mean response on the same two-SPU machine.
struct Quickstart;

/// Builds the machine and job mix for one scheme.
fn boot(scheme: Scheme) -> Kernel {
    let cfg = MachineConfig::builder()
        .topology(2, 32, 1)
        .scheme(scheme)
        .build()
        .unwrap();
    let spus = SpuSet::equal_users(2).named(0, "victim").named(1, "hog");
    let mut kernel = Kernel::new(cfg, spus);

    // The victim's job: 300 ms of compute over a small working set.
    let victim_job = Program::builder("victim-job")
        .alloc(64)
        .compute(SimDuration::from_millis(300), 64)
        .build();
    kernel.spawn_at(SpuId::user(0), victim_job, Some("victim"), SimTime::ZERO);

    // The hog: six compute jobs, far more than its half of the
    // machine can serve.
    for i in 0..6 {
        let job = Program::builder("hog-job")
            .compute(SimDuration::from_millis(300), 0)
            .build();
        kernel.spawn_at(
            SpuId::user(1),
            job,
            Some(&format!("hog-{i}")),
            SimTime::ZERO,
        );
    }
    kernel
}

impl Scenario for Quickstart {
    type Cell = Scheme;
    type Outcome = Value;
    type Report = Vec<(Scheme, f64, f64)>;

    fn name(&self) -> &'static str {
        "quickstart"
    }

    fn cells(&self) -> Vec<Scheme> {
        Scheme::ALL.to_vec()
    }

    fn cell_key(&self, scheme: &Scheme) -> String {
        scheme.label().to_lowercase()
    }

    fn run_cell(&self, &scheme: &Scheme) -> Value {
        let mut kernel = boot(scheme);
        let metrics = kernel.run(SimTime::from_secs(60));
        assert!(metrics.completed, "run hit the time cap");
        Value::list(vec![
            Value::F(metrics.mean_response_secs("victim").expect("victim ran")),
            Value::F(metrics.mean_response_secs("hog").expect("hogs ran")),
        ])
    }

    fn reduce(&self, outcomes: Vec<Value>) -> Self::Report {
        self.cells()
            .into_iter()
            .zip(outcomes)
            .map(|(scheme, v)| {
                let l = v.as_list().expect("victim/hog pair");
                (scheme, l[0].as_f64().unwrap(), l[1].as_f64().unwrap())
            })
            .collect()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = SweepOptions::new().threads(sweep::threads_from_args(&args));

    println!("Performance Isolation quickstart");
    println!("2 CPUs, 32 MB, two SPUs: a victim (1 job) and a hog (6 jobs)\n");

    let run = sweep::run_scenario(&Quickstart, &opts);
    println!(
        "{:<6} {:>14} {:>14}",
        "scheme", "victim resp(s)", "hog mean(s)"
    );
    for (scheme, victim, hog) in run.report {
        println!("{:<6} {:>14.3} {:>14.3}", scheme.label(), victim, hog);
    }

    println!();
    println!("SMP:  the victim is slowed by the hog's load (no isolation).");
    println!("Quo:  the victim is protected, but the hog cannot use the");
    println!("      victim's idle CPU once the victim finishes.");
    println!("PIso: the victim is protected AND the hog borrows idle");
    println!("      capacity — isolation plus sharing.");
}
