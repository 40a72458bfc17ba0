//! Scaling sweeps (extensions of §4.2): how the isolation guarantee
//! holds as load grows and as the machine itself grows.
//!
//! Two sweeps live here:
//!
//! * **Load scaling** ([`ScalingScenario`]): the paper evaluates one
//!   unbalanced point (two jobs in each heavy SPU). This sweep pushes
//!   further — 1, 2, 3, 4 jobs per heavy SPU — and plots the light
//!   SPUs' response under each scheme. The paper's claim predicts a
//!   flat line for Quo and PIso and a rising line for SMP, *regardless
//!   of how heavy the background load gets* ("the SPU should see no
//!   degradation in performance, regardless of the load placed on the
//!   system by others", §2.1).
//! * **Machine scaling** ([`CpuScaleScenario`]): the paper's machines
//!   top out at 8 CPUs. This sweep grows the machine through 8, 32,
//!   128 and 512 CPUs while oversubscribing it with 2× or 4× as many
//!   equal-entitlement SPUs (so every CPU is time-partitioned), and
//!   asserts the same guarantee along the *machine* axis: an
//!   underloaded SPU's response depends only on its entitlement
//!   fraction, not on how many CPUs or co-tenants the machine has.

use event_sim::{SimDuration, SimTime};
use smp_kernel::{Kernel, MachineConfig, Program};
use spu_core::{Scheme, SpuId, SpuSet};
use workloads::PmakeConfig;

use crate::report::render_table;
use crate::sweep::{self, CellStat, Render, Scenario, SweepOptions, Value};
use crate::Scale;

/// Light-SPU mean response (s) at one background-load level, per scheme.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    /// Jobs per heavy SPU.
    pub heavy_jobs: u32,
    /// Per-scheme light-SPU responses (SMP/Quo/PIso order).
    pub light_response: [f64; 3],
}

/// Boots one point's machine: 4 light SPUs × 1 job, 4 heavy SPUs ×
/// `heavy_jobs`.
fn boot_point(scheme: Scheme, heavy_jobs: u32, scale: Scale) -> Kernel {
    let cfg = MachineConfig::builder()
        .topology(8, 44, 8)
        .scheme(scheme)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(8));
    let job = match scale {
        Scale::Full => PmakeConfig::pmake8(),
        Scale::Quick => PmakeConfig {
            waves: 1,
            ..PmakeConfig::pmake8()
        },
    };
    for spu_idx in 0..8u32 {
        let jobs = if spu_idx < 4 { 1 } else { heavy_jobs };
        for j in 0..jobs {
            let prog = job.build(&mut k, spu_idx as usize);
            k.spawn_at(
                SpuId::user(spu_idx),
                prog,
                Some(&format!("pmake-s{spu_idx}-{j}")),
                SimTime::ZERO,
            );
        }
    }
    k
}

/// Runs one point: 4 light SPUs × 1 job, 4 heavy SPUs × `heavy_jobs`.
pub fn run_point(scheme: Scheme, heavy_jobs: u32, scale: Scale) -> f64 {
    let mut k = boot_point(scheme, heavy_jobs, scale);
    let m = k.run(SimTime::from_secs(1200));
    assert!(m.completed, "scaling point hit the cap");
    let vals: Vec<f64> = (0..4)
        .map(|s| {
            m.mean_response_of_spu(SpuId::user(s))
                .expect("light SPU ran a job")
        })
        .collect();
    vals.iter().sum::<f64>() / vals.len() as f64
}

/// The rendered load-scaling sweep.
#[derive(Clone, Debug)]
pub struct ScalingReport {
    /// One point per background-load level.
    pub points: Vec<ScalingPoint>,
}

impl Render for ScalingReport {
    fn render(&self) -> String {
        format(&self.points)
    }
}

/// The load-scaling sweep as a [`Scenario`]: level × scheme.
pub struct ScalingScenario {
    /// Jobs-per-heavy-SPU levels to sweep.
    pub levels: Vec<u32>,
    /// Workload scale.
    pub scale: Scale,
}

impl ScalingScenario {
    /// The standard sweep: 1–4 jobs per heavy SPU.
    pub fn standard(scale: Scale) -> Self {
        ScalingScenario {
            levels: vec![1, 2, 3, 4],
            scale,
        }
    }
}

impl Scenario for ScalingScenario {
    type Cell = (u32, Scheme);
    type Outcome = f64;
    type Report = ScalingReport;

    fn name(&self) -> &'static str {
        "scaling"
    }

    fn cells(&self) -> Vec<Self::Cell> {
        self.levels
            .iter()
            .flat_map(|&l| Scheme::ALL.iter().map(move |&s| (l, s)))
            .collect()
    }

    fn cell_key(&self, &(level, scheme): &Self::Cell) -> String {
        format!("{level}jobs-{}", scheme.label().to_lowercase())
    }

    fn run_cell(&self, &(level, scheme): &Self::Cell) -> f64 {
        run_point(scheme, level, self.scale)
    }

    fn reduce(&self, outcomes: Vec<f64>) -> ScalingReport {
        let points = self
            .levels
            .iter()
            .zip(outcomes.chunks(Scheme::ALL.len()))
            .map(|(&heavy_jobs, vals)| {
                let mut light_response = [0.0; 3];
                light_response.copy_from_slice(vals);
                ScalingPoint {
                    heavy_jobs,
                    light_response,
                }
            })
            .collect();
        ScalingReport { points }
    }
}

/// Sweeps background load over `levels` jobs-per-heavy-SPU.
pub fn run(levels: &[u32], scale: Scale) -> Vec<ScalingPoint> {
    let scenario = ScalingScenario {
        levels: levels.to_vec(),
        scale,
    };
    sweep::run_scenario(&scenario, &SweepOptions::new())
        .report
        .points
}

/// Renders the sweep, normalized to each scheme's 1-job point = 100.
pub fn format(points: &[ScalingPoint]) -> String {
    let base = points
        .first()
        .expect("at least one sweep point")
        .light_response;
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let mut row = vec![p.heavy_jobs.to_string()];
            for (b, r) in base.iter().zip(&p.light_response) {
                row.push(format!("{:.0}", r / b * 100.0));
            }
            row
        })
        .collect();
    let mut out = String::from(
        "Load scaling (extension): light-SPU response vs background load\n\
         (normalized per scheme to the 1-job-per-heavy-SPU point = 100)\n",
    );
    out.push_str(&render_table(&["heavy jobs", "SMP", "Quo", "PIso"], &rows));
    out
}

// ---------------------------------------------------------------------------
// Machine-size scaling: 8 → 512 CPUs, 2×/4× SPU oversubscription
// ---------------------------------------------------------------------------

/// CPU counts of the machine-scaling ladder.
pub const SCALE_CPU_SIZES: [usize; 4] = [8, 32, 128, 512];

/// SPU oversubscription factors: SPUs per cell = `mult × cpus`.
pub const SCALE_SPU_MULTS: [usize; 2] = [2, 4];

/// Run cap for one machine-scaling cell — every cell drains long
/// before this (the largest quick cell ends around 3 simulated
/// seconds).
const SCALE_CAP: SimTime = SimTime::from_secs(600);

/// CPU work of one scale job.
fn scale_burst(scale: Scale) -> SimDuration {
    match scale {
        Scale::Full => SimDuration::from_millis(960),
        Scale::Quick => SimDuration::from_millis(240),
    }
}

/// Boots one machine-scaling cell: `cpus` CPUs hosting `mult × cpus`
/// equal SPUs under PIso. Even-indexed SPUs are *light* (one job), odd
/// ones *heavy* (two jobs); every job is the same compute burst with a
/// small working set, so a light SPU's demand is always below its
/// entitlement fraction while the machine as a whole is oversubscribed.
///
/// Built through the topology-first config surface — the explicit
/// share-vector API would need a 2048-element literal for the largest
/// cell.
fn boot_scale_cell(cpus: usize, mult: usize, scale: Scale) -> Kernel {
    let spus = cpus * mult;
    let (cfg, set) = MachineConfig::builder()
        .topology(cpus, (cpus as u64 * 6).max(44), 8)
        .scheme(Scheme::PIso)
        .spus(spus, 1)
        .build_with_spus()
        .expect("scale cell config is valid");
    let mut k = Kernel::new(cfg, set);
    let burst = scale_burst(scale);
    let prog = Program::builder("scale-job").compute(burst, 8).build();
    for s in 0..spus as u32 {
        let jobs = if s % 2 == 0 { 1 } else { 2 };
        for j in 0..jobs {
            k.spawn_at(
                SpuId::user(s),
                prog.clone(),
                Some(&format!("scale-s{s}-{j}")),
                SimTime::ZERO,
            );
        }
    }
    k
}

/// One machine-scaling measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScaleCellOutcome {
    /// CPUs in the machine.
    pub cpus: u64,
    /// User SPUs sharing it.
    pub spus: u64,
    /// Mean response of the light (underloaded) SPUs, seconds.
    pub light_mean_s: f64,
    /// Mean response of the heavy (2-job) SPUs, seconds.
    pub heavy_mean_s: f64,
    /// Simulated time at which the last job finished, seconds.
    pub sim_end_s: f64,
}

impl sweep::Outcome for ScaleCellOutcome {
    fn encode(&self) -> Value {
        Value::list(vec![
            Value::U(self.cpus),
            Value::U(self.spus),
            Value::F(self.light_mean_s),
            Value::F(self.heavy_mean_s),
            Value::F(self.sim_end_s),
        ])
    }
}

/// Runs one machine-scaling cell.
pub fn run_scale_cell(cpus: usize, mult: usize, scale: Scale) -> ScaleCellOutcome {
    let mut k = boot_scale_cell(cpus, mult, scale);
    let m = k.run(SCALE_CAP);
    assert!(m.completed, "scale cell {cpus}cpu/{mult}x hit the cap");
    let spus = cpus * mult;
    let mean_over = |parity: u32| {
        let vals: Vec<f64> = (0..spus as u32)
            .filter(|s| s % 2 == parity)
            .map(|s| {
                m.mean_response_of_spu(SpuId::user(s))
                    .expect("every SPU ran a job")
            })
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    ScaleCellOutcome {
        cpus: cpus as u64,
        spus: spus as u64,
        light_mean_s: mean_over(0),
        heavy_mean_s: mean_over(1),
        sim_end_s: m.end_time.as_secs_f64(),
    }
}

/// The reduced machine-scaling sweep.
#[derive(Clone, Debug)]
pub struct CpuScaleReport {
    /// One row per (cpus, mult) cell, in declared order.
    pub rows: Vec<ScaleCellOutcome>,
}

/// Max allowed deviation of a light SPU's response from the smallest
/// machine's, per oversubscription factor. Deficit-round-robin
/// time-partitioning is exact over whole slices, so the spread across
/// machine sizes is rounding, not contention.
const ISOLATION_BAND: f64 = 0.12;

impl CpuScaleReport {
    /// The §2.1 guarantee along the machine axis: for each
    /// oversubscription factor, every machine size's light-SPU response
    /// within `ISOLATION_BAND` of the smallest machine's. Returns the
    /// offending `(cpus, mult, ratio)` triples.
    pub fn isolation_violations(&self) -> Vec<(u64, u64, f64)> {
        let mut bad = Vec::new();
        let mults: Vec<u64> = {
            let mut m: Vec<u64> = self.rows.iter().map(|r| r.spus / r.cpus).collect();
            m.dedup();
            m.sort_unstable();
            m.dedup();
            m
        };
        for mult in mults {
            let series: Vec<&ScaleCellOutcome> = self
                .rows
                .iter()
                .filter(|r| r.spus / r.cpus == mult)
                .collect();
            let Some(base) = series.first() else { continue };
            for r in &series {
                let ratio = r.light_mean_s / base.light_mean_s;
                if (ratio - 1.0).abs() > ISOLATION_BAND {
                    bad.push((r.cpus, mult, ratio));
                }
            }
        }
        bad
    }
}

impl Render for CpuScaleReport {
    fn render(&self) -> String {
        let mut out = String::from(
            "Machine scaling (extension): light-SPU response vs machine size\n\
             (PIso; SPUs = mult x CPUs, all equal shares; light = 1 job,\n\
             heavy = 2 jobs; light response normalized to the 8-CPU cell = 100)\n",
        );
        let base_for = |mult: u64| {
            self.rows
                .iter()
                .find(|r| r.spus / r.cpus == mult)
                .map(|r| r.light_mean_s)
                .unwrap_or(1.0)
        };
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let mult = r.spus / r.cpus;
                vec![
                    r.cpus.to_string(),
                    r.spus.to_string(),
                    format!("{mult}x"),
                    format!("{:.0}", r.light_mean_s / base_for(mult) * 100.0),
                    format!("{:.3}", r.light_mean_s),
                    format!("{:.3}", r.heavy_mean_s),
                    format!("{:.3}", r.sim_end_s),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &[
                "cpus",
                "spus",
                "mult",
                "light idx",
                "light s",
                "heavy s",
                "sim end s",
            ],
            &rows,
        ));
        let bad = self.isolation_violations();
        if bad.is_empty() {
            out.push_str(&format!(
                "isolation: light-SPU response flat within {:.0}% across all machine sizes\n",
                ISOLATION_BAND * 100.0
            ));
        } else {
            for (cpus, mult, ratio) in bad {
                out.push_str(&format!(
                    "isolation VIOLATED at {cpus} cpus ({mult}x): light ratio {ratio:.3}\n"
                ));
            }
        }
        out
    }
}

/// The machine-scaling sweep as a [`Scenario`]: machine size ×
/// oversubscription factor.
pub struct CpuScaleScenario {
    /// CPU counts to sweep.
    pub cpu_sizes: Vec<usize>,
    /// SPUs-per-CPU factors to sweep.
    pub spu_mults: Vec<usize>,
    /// Workload scale.
    pub scale: Scale,
}

impl CpuScaleScenario {
    /// The standard ladder: 8/32/128/512 CPUs × {2×, 4×} SPUs.
    pub fn standard(scale: Scale) -> Self {
        CpuScaleScenario {
            cpu_sizes: SCALE_CPU_SIZES.to_vec(),
            spu_mults: SCALE_SPU_MULTS.to_vec(),
            scale,
        }
    }

    /// The standard ladder truncated at `max_cpus` (for CI budgets).
    pub fn capped(scale: Scale, max_cpus: usize) -> Self {
        let mut s = Self::standard(scale);
        s.cpu_sizes.retain(|&c| c <= max_cpus);
        s
    }
}

impl Scenario for CpuScaleScenario {
    type Cell = (usize, usize);
    type Outcome = ScaleCellOutcome;
    type Report = CpuScaleReport;

    fn name(&self) -> &'static str {
        "cpu-scale"
    }

    fn cells(&self) -> Vec<Self::Cell> {
        self.cpu_sizes
            .iter()
            .flat_map(|&c| self.spu_mults.iter().map(move |&m| (c, m)))
            .collect()
    }

    fn cell_key(&self, &(cpus, mult): &Self::Cell) -> String {
        format!("{cpus}cpu-{mult}x")
    }

    fn run_cell(&self, &(cpus, mult): &Self::Cell) -> ScaleCellOutcome {
        run_scale_cell(cpus, mult, self.scale)
    }

    fn reduce(&self, outcomes: Vec<ScaleCellOutcome>) -> CpuScaleReport {
        CpuScaleReport { rows: outcomes }
    }
}

/// Sim-throughput lines for a machine-scaling run: simulated seconds
/// per wall second, per cell. Wall-clock is run-dependent, so this
/// never feeds the report or the outcome export — it is for logs and
/// CI, like [`SweepRun::timing_summary`](crate::sweep::SweepRun).
pub fn throughput_summary(rows: &[ScaleCellOutcome], stats: &[CellStat]) -> String {
    let mut out = String::new();
    for (r, s) in rows.iter().zip(stats) {
        let wall = s.wall.as_secs_f64();
        out.push_str(&format!(
            "  {:>4} cpus {:>4} spus: {:>8.2} sim-s/wall-s ({:.3} sim s in {:.3} wall s)\n",
            r.cpus,
            r.spus,
            r.sim_end_s / wall.max(1e-9),
            r.sim_end_s,
            wall
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolation_holds_as_load_scales() {
        let points = run(&[1, 3], Scale::Quick);
        let base = points[0].light_response;
        let loaded = points[1].light_response;
        // SMP: the light SPUs degrade with load.
        assert!(
            loaded[0] > base[0] * 1.2,
            "SMP must degrade: {base:?} -> {loaded:?}"
        );
        // Quo and PIso: flat (within 12%) even at 3x background load.
        for i in [1, 2] {
            let ratio = loaded[i] / base[i];
            assert!(
                ratio < 1.12,
                "scheme {i} broke isolation at 3 jobs: {ratio}"
            );
        }
    }

    #[test]
    fn machine_scaling_keeps_light_spus_flat() {
        let scenario = CpuScaleScenario {
            cpu_sizes: vec![8, 32],
            spu_mults: vec![2, 4],
            scale: Scale::Quick,
        };
        let report = sweep::run_scenario(&scenario, &SweepOptions::new()).report;
        assert_eq!(report.rows.len(), 4);
        assert!(
            report.isolation_violations().is_empty(),
            "isolation violations: {:?}",
            report.isolation_violations()
        );
        // A light SPU entitled 1/mult of a CPU should see a response
        // near mult × burst; heavier oversubscription means a slower —
        // but still entitlement-bound — response.
        let burst = scale_burst(Scale::Quick).as_secs_f64();
        for r in &report.rows {
            let mult = (r.spus / r.cpus) as f64;
            assert!(
                r.light_mean_s >= burst && r.light_mean_s <= mult * burst * 1.5,
                "light response {:.3}s out of band for mult {mult}",
                r.light_mean_s
            );
            assert!(
                r.heavy_mean_s >= r.light_mean_s,
                "heavy SPUs cannot outrun light ones at equal entitlement"
            );
        }
    }

    #[test]
    fn largest_quick_cell_512_cpus_1024_spus_completes() {
        let row = run_scale_cell(512, 2, Scale::Quick);
        assert_eq!((row.cpus, row.spus), (512, 1024));
        assert!(row.light_mean_s > 0.0 && row.heavy_mean_s >= row.light_mean_s);
        // Same isolation band against the 8-CPU cell of the same
        // oversubscription factor.
        let base = run_scale_cell(8, 2, Scale::Quick);
        let ratio = row.light_mean_s / base.light_mean_s;
        assert!(
            (ratio - 1.0).abs() <= ISOLATION_BAND,
            "512-CPU light response drifted: ratio {ratio:.3}"
        );
    }
}
