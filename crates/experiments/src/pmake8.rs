//! The Pmake8 experiment (§4.2): Figures 1, 2 and 3.
//!
//! Eight SPUs on an eight-way machine, one pmake job per SPU in the
//! *balanced* configuration (8 jobs) and one extra job in each of SPUs
//! 5–8 in the *unbalanced* configuration (12 jobs, Figure 1).
//!
//! * **Figure 2 (isolation)**: mean response of the lightly-loaded SPUs
//!   (1–4), balanced vs unbalanced, normalized to SMP-balanced = 100.
//!   Paper: SMP rises to ~156; Quo and PIso stay at ~100.
//! * **Figure 3 (sharing)**: mean response of the heavily-loaded SPUs
//!   (5–8) in the unbalanced configuration. Paper: SMP 156, Quo 187,
//!   PIso ~146.

use event_sim::{SimDuration, SimTime};
use smp_kernel::{Kernel, MachineConfig, RunMetrics};
use spu_core::{Scheme, SpuId, SpuSet};
use workloads::PmakeConfig;

use crate::report::{bar_label, norm, render_table, Percentiles};
use crate::sweep::{self, Render, Scenario, SweepOptions, Value};

/// Results of the Pmake8 experiment across all three schemes.
#[derive(Clone, Debug)]
pub struct Pmake8Result {
    /// Mean response (s) of SPUs 1–4 jobs, balanced, per scheme
    /// (SMP/Quo/PIso order).
    pub light_balanced: [f64; 3],
    /// Mean response (s) of SPUs 1–4 jobs, unbalanced.
    pub light_unbalanced: [f64; 3],
    /// Mean response (s) of SPUs 5–8 jobs, unbalanced.
    pub heavy_unbalanced: [f64; 3],
    /// `(p50, p95, p99)` response percentiles (s) over all jobs in the
    /// unbalanced configuration, per scheme.
    pub pct_unbalanced: [(f64, f64, f64); 3],
}

impl Pmake8Result {
    /// The Figure-2 normalization baseline: SMP in the balanced
    /// configuration.
    pub fn baseline(&self) -> f64 {
        self.light_balanced[0]
    }

    /// Figure 2 bars: `(scheme, balanced, unbalanced)` normalized to 100.
    pub fn fig2(&self) -> Vec<(Scheme, f64, f64)> {
        Scheme::ALL
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                (
                    s,
                    norm(self.light_balanced[i], self.baseline()),
                    norm(self.light_unbalanced[i], self.baseline()),
                )
            })
            .collect()
    }

    /// Figure 3 bars: `(scheme, unbalanced-heavy)` normalized to 100.
    pub fn fig3(&self) -> Vec<(Scheme, f64)> {
        Scheme::ALL
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, norm(self.heavy_unbalanced[i], self.baseline())))
            .collect()
    }

    /// Renders both figures as text tables.
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str("Figure 2: isolation — response of lightly-loaded SPUs (1-4)\n");
        out.push_str("(normalized to SMP balanced = 100)\n");
        let rows: Vec<Vec<String>> = self
            .fig2()
            .into_iter()
            .map(|(s, b, u)| vec![s.to_string(), bar_label(b), bar_label(u)])
            .collect();
        out.push_str(&render_table(&["scheme", "balanced", "unbalanced"], &rows));
        out.push('\n');
        out.push_str("Figure 3: sharing — response of heavily-loaded SPUs (5-8), unbalanced\n");
        let rows: Vec<Vec<String>> = self
            .fig3()
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

fn job_config(scale: crate::Scale) -> PmakeConfig {
    match scale {
        crate::Scale::Full => PmakeConfig::pmake8(),
        crate::Scale::Quick => PmakeConfig {
            waves: 1,
            ..PmakeConfig::pmake8()
        },
    }
}

/// Builds and spawns the Pmake8 job set into a fresh kernel.
fn boot(scheme: Scheme, unbalanced: bool, scale: crate::Scale) -> Kernel {
    let cfg = MachineConfig::builder()
        .topology(8, 44, 8)
        .scheme(scheme)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(8));
    spawn_jobs(&mut k, unbalanced, scale);
    k
}

fn spawn_jobs(k: &mut Kernel, unbalanced: bool, scale: crate::Scale) {
    let job = job_config(scale);
    for spu_idx in 0..8u32 {
        let prog = job.build(k, spu_idx as usize);
        k.spawn_at(
            SpuId::user(spu_idx),
            prog,
            Some(&format!("pmake-s{spu_idx}-a")),
            SimTime::ZERO,
        );
        if unbalanced && spu_idx >= 4 {
            let prog = job.build(k, spu_idx as usize);
            k.spawn_at(
                SpuId::user(spu_idx),
                prog,
                Some(&format!("pmake-s{spu_idx}-b")),
                SimTime::ZERO,
            );
        }
    }
}

/// Measurements from one Pmake8 configuration run (see [`run_one`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Pmake8Run {
    /// Mean response (s) of the lightly-loaded SPUs 1–4.
    pub light_mean: f64,
    /// Mean response (s) of the heavily-loaded SPUs 5–8.
    pub heavy_mean: f64,
    /// Response percentiles (s) over all jobs.
    pub percentiles: Percentiles,
}

/// Runs one configuration of the Pmake8 workload.
///
/// Table 1: 8 CPUs, 44 MB memory, separate fast disks (one per SPU).
pub fn run_one(scheme: Scheme, unbalanced: bool, scale: crate::Scale) -> Pmake8Run {
    let mut k = boot(scheme, unbalanced, scale);
    let m = k.run(SimTime::from_secs(600));
    assert!(m.completed, "pmake8 run hit the time cap");
    let mean_of = |spus: std::ops::Range<u32>| -> f64 {
        let vals: Vec<f64> = spus
            .map(|s| {
                m.mean_response_of_spu(SpuId::user(s))
                    .expect("every SPU ran a pmake job")
            })
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    let pct = m.response_percentiles("pmake").expect("pmake jobs ran");
    Pmake8Run {
        light_mean: mean_of(0..4),
        heavy_mean: mean_of(4..8),
        percentiles: pct.into(),
    }
}

impl sweep::Outcome for Pmake8Run {
    fn encode(&self) -> Value {
        let (p50, p95, p99) = self.percentiles.as_tuple();
        Value::list(vec![
            Value::F(self.light_mean),
            Value::F(self.heavy_mean),
            Value::F(p50),
            Value::F(p95),
            Value::F(p99),
        ])
    }
}

impl Render for Pmake8Result {
    fn render(&self) -> String {
        self.format()
    }
}

/// The Pmake8 matrix as a [`Scenario`]: scheme × {balanced, unbalanced}.
pub struct Pmake8Scenario {
    /// Workload scale.
    pub scale: crate::Scale,
}

impl Scenario for Pmake8Scenario {
    type Cell = (Scheme, bool);
    type Outcome = Pmake8Run;
    type Report = Pmake8Result;

    fn name(&self) -> &'static str {
        "pmake8"
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

    fn run_cell(&self, &(scheme, unbalanced): &Self::Cell) -> Pmake8Run {
        run_one(scheme, unbalanced, self.scale)
    }

    fn reduce(&self, outcomes: Vec<Pmake8Run>) -> Pmake8Result {
        let mut r = Pmake8Result {
            light_balanced: [0.0; 3],
            light_unbalanced: [0.0; 3],
            heavy_unbalanced: [0.0; 3],
            pct_unbalanced: [(0.0, 0.0, 0.0); 3],
        };
        // Cell order: per scheme, balanced then unbalanced.
        for (i, pair) in outcomes.chunks(2).enumerate() {
            r.light_balanced[i] = pair[0].light_mean;
            r.light_unbalanced[i] = pair[1].light_mean;
            r.heavy_unbalanced[i] = pair[1].heavy_mean;
            r.pct_unbalanced[i] = pair[1].percentiles.as_tuple();
        }
        r
    }
}

/// Runs the full experiment: both configurations under all three
/// schemes.
pub fn run(scale: crate::Scale) -> Pmake8Result {
    sweep::run_scenario(&Pmake8Scenario { scale }, &SweepOptions::new()).report
}

/// One fully instrumented run with its exports rendered: what every
/// experiment's `run_instrumented` returns (the consolidation one adds
/// a tenant rollup).
#[derive(Clone, Debug)]
pub struct InstrumentedRun {
    /// The run's metrics (including the observability report).
    pub metrics: RunMetrics,
    /// JSONL metrics export ([`smp_kernel::metrics_jsonl`]).
    pub metrics_jsonl: String,
    /// Chrome trace-event JSON ([`smp_kernel::chrome_trace_json`]),
    /// loadable in Perfetto / `chrome://tracing`.
    pub chrome_trace: String,
}

impl InstrumentedRun {
    /// Renders both exports of `metrics`, the finished run of `k`.
    pub fn new(k: &Kernel, metrics: RunMetrics) -> InstrumentedRun {
        InstrumentedRun {
            metrics_jsonl: smp_kernel::metrics_jsonl(&metrics),
            chrome_trace: smp_kernel::chrome_trace_json(k.trace(), k.spus(), &metrics.obsv),
            metrics,
        }
    }
}

/// Runs the unbalanced Pmake8 workload under PIso with the event trace
/// and the 100 ms resource sampler on, and renders both exports.
///
/// Deterministic: two calls at the same scale produce byte-identical
/// export strings.
pub fn run_instrumented(scale: crate::Scale) -> InstrumentedRun {
    let mut k = boot(Scheme::PIso, true, scale);
    k.enable_trace(1 << 20);
    k.enable_sampling(SimDuration::from_millis(100));
    let metrics = k.run(SimTime::from_secs(600));
    assert!(
        metrics.completed,
        "instrumented pmake8 run hit the time cap"
    );
    InstrumentedRun::new(&k, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_the_paper_shape() {
        let r = run(crate::Scale::Quick);
        let fig2 = r.fig2();
        // SMP: unbalanced load hurts the light SPUs substantially.
        let (_, smp_b, smp_u) = (fig2[0].0, fig2[0].1, fig2[0].2);
        assert!((smp_b - 100.0).abs() < 1.0);
        assert!(smp_u > 120.0, "SMP must degrade: {smp_u}");
        // Quo and PIso: isolation holds (within ~12%).
        for &(scheme, b, u) in &fig2[1..] {
            assert!(
                (u - b).abs() / b < 0.12,
                "{scheme} isolation broken: balanced={b} unbalanced={u}"
            );
        }
        // Figure 3: Quo wastes idle resources; PIso shares them.
        let fig3 = r.fig3();
        let (smp, quo, piso) = (fig3[0].1, fig3[1].1, fig3[2].1);
        assert!(quo > smp * 1.1, "Quo must be worst: quo={quo} smp={smp}");
        assert!(
            piso < quo * 0.9,
            "PIso must beat Quo via sharing: piso={piso} quo={quo}"
        );
    }
}
