//! The memory-isolation experiment (§4.4): Figures 6 and 7.
//!
//! Two SPUs on a four-processor, 16 MB machine (Figure 6) running pmake
//! jobs with four parallel compiles each. The memory "is enough to run
//! one job in each SPU, but leads to memory pressure in a SPU with two
//! jobs".
//!
//! Figure 7:
//! * **Isolation** (lower graph): SPU1's single job, balanced vs
//!   unbalanced. Paper: SMP degrades ~45%, PIso only ~13%, Quo ~0%.
//! * **Sharing** (upper graph): SPU2's two jobs in the unbalanced
//!   configuration. Paper: Quo degrades 145% vs balanced (100% from CPU
//!   doubling + 45% from memory thrash); PIso close to SMP.

use event_sim::SimTime;
use smp_kernel::{Kernel, MachineConfig};
use spu_core::{Scheme, SpuId, SpuSet};
use workloads::PmakeConfig;

use crate::report::{bar_label, norm, render_table, Percentiles};
use crate::sweep::{self, Render, Scenario, SweepOptions, Value};
use crate::Scale;

/// Results of the memory-isolation experiment.
#[derive(Clone, Debug)]
pub struct MemIsoResult {
    /// SPU1's job response (s), balanced, per scheme (SMP/Quo/PIso).
    pub spu1_balanced: [f64; 3],
    /// SPU1's job response (s), unbalanced.
    pub spu1_unbalanced: [f64; 3],
    /// SPU2's mean job response (s), unbalanced.
    pub spu2_unbalanced: [f64; 3],
    /// Major faults of SPU2 in the unbalanced configuration, per scheme.
    pub spu2_major_faults: [u64; 3],
    /// `(p50, p95, p99)` response percentiles (s) over all jobs in the
    /// unbalanced configuration, per scheme.
    pub pct_unbalanced: [(f64, f64, f64); 3],
}

impl MemIsoResult {
    /// Normalization baseline: SMP balanced.
    pub fn baseline(&self) -> f64 {
        self.spu1_balanced[0]
    }

    /// Isolation graph: `(scheme, balanced, unbalanced)` for SPU1,
    /// normalized to SMP-balanced = 100.
    pub fn isolation(&self) -> Vec<(Scheme, f64, f64)> {
        Scheme::ALL
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                (
                    s,
                    norm(self.spu1_balanced[i], self.baseline()),
                    norm(self.spu1_unbalanced[i], self.baseline()),
                )
            })
            .collect()
    }

    /// Sharing graph: `(scheme, unbalanced)` for SPU2's jobs.
    pub fn sharing(&self) -> Vec<(Scheme, f64)> {
        Scheme::ALL
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, norm(self.spu2_unbalanced[i], self.baseline())))
            .collect()
    }

    /// Renders Figure 7 as text tables.
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str("Figure 7 (lower): isolation — SPU1's job (normalized, SMP balanced = 100)\n");
        let rows: Vec<Vec<String>> = self
            .isolation()
            .into_iter()
            .map(|(s, b, u)| vec![s.to_string(), bar_label(b), bar_label(u)])
            .collect();
        out.push_str(&render_table(&["scheme", "balanced", "unbalanced"], &rows));
        out.push('\n');
        out.push_str("Figure 7 (upper): sharing — SPU2's two jobs, unbalanced\n");
        let rows: Vec<Vec<String>> = self
            .sharing()
            .into_iter()
            .map(|(s, u)| vec![s.to_string(), bar_label(u)])
            .collect();
        out.push_str(&render_table(&["scheme", "unbalanced"], &rows));
        out.push('\n');
        out.push_str("Job-response percentiles (s), unbalanced, all jobs\n");
        let rows: Vec<Vec<String>> = Scheme::ALL
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let (p50, p95, p99) = self.pct_unbalanced[i];
                vec![
                    s.to_string(),
                    format!("{p50:.2}"),
                    format!("{p95:.2}"),
                    format!("{p99:.2}"),
                ]
            })
            .collect();
        out.push_str(&render_table(&["scheme", "p50", "p95", "p99"], &rows));
        out
    }
}

fn job_config(scale: Scale) -> PmakeConfig {
    match scale {
        Scale::Full => PmakeConfig::mem_iso(),
        Scale::Quick => PmakeConfig {
            waves: 1,
            ..PmakeConfig::mem_iso()
        },
    }
}

/// Boots the Figure-6 machine and spawns the job set.
fn boot(scheme: Scheme, unbalanced: bool, scale: Scale) -> Kernel {
    // Table 1: 4 CPUs, 16 MB, separate fast disks (one per SPU).
    let cfg = MachineConfig::builder()
        .topology(4, 16, 2)
        .scheme(scheme)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
    let job = job_config(scale);
    let p = job.build(&mut k, 0);
    k.spawn_at(SpuId::user(0), p, Some("spu1-job"), SimTime::ZERO);
    let p = job.build(&mut k, 1);
    k.spawn_at(SpuId::user(1), p, Some("spu2-a"), SimTime::ZERO);
    if unbalanced {
        let p = job.build(&mut k, 1);
        k.spawn_at(SpuId::user(1), p, Some("spu2-b"), SimTime::ZERO);
    }
    k
}

/// Measurements from one memory-isolation configuration run (see
/// [`run_one`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MemIsoRun {
    /// SPU1's mean job response (s).
    pub spu1_mean: f64,
    /// SPU2's mean job response (s).
    pub spu2_mean: f64,
    /// SPU2's major page faults (the thrash signal).
    pub spu2_major_faults: u64,
    /// Response percentiles (s) over all jobs.
    pub percentiles: Percentiles,
}

/// Runs one configuration of the memory-isolation workload.
pub fn run_one(scheme: Scheme, unbalanced: bool, scale: Scale) -> MemIsoRun {
    let mut k = boot(scheme, unbalanced, scale);
    let m = k.run(SimTime::from_secs(1200));
    assert!(m.completed, "mem-iso run hit the time cap");
    MemIsoRun {
        spu1_mean: m
            .mean_response_of_spu(SpuId::user(0))
            .expect("SPU1 ran a job"),
        spu2_mean: m
            .mean_response_of_spu(SpuId::user(1))
            .expect("SPU2 ran a job"),
        spu2_major_faults: m.vm[SpuId::user(1).index()].major_faults,
        percentiles: m.response_percentiles("").expect("jobs ran").into(),
    }
}

/// Runs the unbalanced configuration under PIso with the 100 ms resource
/// sampler on. Returns the metrics and the JSONL export of the per-SPU
/// `(entitled, allowed, used)` series — the lend-and-revoke cycle of
/// §3.2, ready for plotting.
pub fn run_instrumented(scale: Scale) -> (smp_kernel::RunMetrics, String) {
    let mut k = boot(Scheme::PIso, true, scale);
    k.enable_sampling(event_sim::SimDuration::from_millis(100));
    let m = k.run(SimTime::from_secs(1200));
    assert!(m.completed, "instrumented mem-iso run hit the time cap");
    let jsonl = smp_kernel::series_jsonl(&m.obsv);
    (m, jsonl)
}

impl sweep::Outcome for MemIsoRun {
    fn encode(&self) -> Value {
        let (p50, p95, p99) = self.percentiles.as_tuple();
        Value::list(vec![
            Value::F(self.spu1_mean),
            Value::F(self.spu2_mean),
            Value::U(self.spu2_major_faults),
            Value::F(p50),
            Value::F(p95),
            Value::F(p99),
        ])
    }
}

impl Render for MemIsoResult {
    fn render(&self) -> String {
        self.format()
    }
}

/// The memory-isolation matrix as a [`Scenario`]: scheme × {balanced,
/// unbalanced}.
pub struct MemIsoScenario {
    /// Workload scale.
    pub scale: Scale,
}

impl Scenario for MemIsoScenario {
    type Cell = (Scheme, bool);
    type Outcome = MemIsoRun;
    type Report = MemIsoResult;

    fn name(&self) -> &'static str {
        "mem-iso"
    }

    fn cells(&self) -> Vec<Self::Cell> {
        Scheme::ALL
            .iter()
            .flat_map(|&s| [(s, false), (s, true)])
            .collect()
    }

    fn cell_key(&self, &(scheme, unbalanced): &Self::Cell) -> String {
        format!(
            "{}-{}",
            scheme.label().to_lowercase(),
            if unbalanced { "unbalanced" } else { "balanced" }
        )
    }

    fn run_cell(&self, &(scheme, unbalanced): &Self::Cell) -> MemIsoRun {
        run_one(scheme, unbalanced, self.scale)
    }

    fn reduce(&self, outcomes: Vec<MemIsoRun>) -> MemIsoResult {
        let mut r = MemIsoResult {
            spu1_balanced: [0.0; 3],
            spu1_unbalanced: [0.0; 3],
            spu2_unbalanced: [0.0; 3],
            spu2_major_faults: [0; 3],
            pct_unbalanced: [(0.0, 0.0, 0.0); 3],
        };
        // Cell order: per scheme, balanced then unbalanced.
        for (i, pair) in outcomes.chunks(2).enumerate() {
            r.spu1_balanced[i] = pair[0].spu1_mean;
            r.spu1_unbalanced[i] = pair[1].spu1_mean;
            r.spu2_unbalanced[i] = pair[1].spu2_mean;
            r.spu2_major_faults[i] = pair[1].spu2_major_faults;
            r.pct_unbalanced[i] = pair[1].percentiles.as_tuple();
        }
        r
    }
}

/// Runs the experiment under all three schemes.
pub fn run(scale: Scale) -> MemIsoResult {
    sweep::run_scenario(&MemIsoScenario { scale }, &SweepOptions::new()).report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_the_paper_shape() {
        let r = run(Scale::Quick);
        let iso = r.isolation();
        // SMP: background load hurts SPU1 substantially.
        let smp_delta = iso[0].2 - iso[0].1;
        assert!(smp_delta > 15.0, "SMP should degrade SPU1: {smp_delta}");
        // PIso: much smaller degradation than SMP.
        let piso_delta = iso[2].2 - iso[2].1;
        assert!(
            piso_delta < smp_delta * 0.6,
            "PIso isolates: piso={piso_delta} smp={smp_delta}"
        );
        // Sharing: Quo worst for SPU2 (thrash inside its half).
        let sharing = r.sharing();
        let (smp, quo, piso) = (sharing[0].1, sharing[1].1, sharing[2].1);
        assert!(quo > piso, "Quo worse than PIso: quo={quo} piso={piso}");
        assert!(quo > smp, "Quo worse than SMP: quo={quo} smp={smp}");
        // Quota thrashes: far more major faults than PIso.
        assert!(
            r.spu2_major_faults[1] > r.spu2_major_faults[2],
            "faults quo={} piso={}",
            r.spu2_major_faults[1],
            r.spu2_major_faults[2]
        );
    }
}
