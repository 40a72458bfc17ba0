//! The CPU-isolation experiment (§4.3): Figures 4 and 5.
//!
//! Two SPUs, each entitled to half of an eight-way machine (Figure 4).
//! SPU 1 runs the four-process Ocean; SPU 2 runs three Flashlite and
//! three VCS jobs — ten processes on eight processors, memory plentiful.
//!
//! Figure 5 reports per-application mean response normalized to SMP:
//! * Ocean: PIso better than SMP (isolation from the six EDA jobs); Quo
//!   the ideal, slightly better than PIso.
//! * Flashlite/VCS: Quo markedly worse (idle Ocean CPUs wasted); PIso
//!   comparable to SMP.

use event_sim::SimDuration;
use event_sim::SimTime;
use smp_kernel::{Kernel, MachineConfig};
use spu_core::{Scheme, SpuId, SpuSet};
use workloads::{flashlite_with, vcs_with, OceanConfig};

use crate::report::{bar_label, norm, render_table};
use crate::sweep::{self, Render, Scenario, SweepOptions, Value};
use crate::Scale;

/// Per-application mean response times (seconds) for one scheme.
#[derive(Clone, Copy, Debug, Default)]
pub struct AppResponses {
    /// Ocean (root job: all four workers done).
    pub ocean: f64,
    /// Mean over the three Flashlite jobs.
    pub flashlite: f64,
    /// Mean over the three VCS jobs.
    pub vcs: f64,
}

/// Results across the three schemes (SMP/Quo/PIso order).
#[derive(Clone, Debug)]
pub struct CpuIsoResult {
    /// Per-scheme responses.
    pub by_scheme: [AppResponses; 3],
}

impl CpuIsoResult {
    /// Figure 5 bars: rows `(scheme, ocean, flashlite, vcs)` normalized
    /// to the SMP value of each application (= 100).
    pub fn fig5(&self) -> Vec<(Scheme, f64, f64, f64)> {
        let base = self.by_scheme[0];
        Scheme::ALL
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let r = self.by_scheme[i];
                (
                    s,
                    norm(r.ocean, base.ocean),
                    norm(r.flashlite, base.flashlite),
                    norm(r.vcs, base.vcs),
                )
            })
            .collect()
    }

    /// Renders Figure 5 as a text table.
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str("Figure 5: compute-intensive workload — response normalized to SMP = 100\n");
        out.push_str("(SPU1: 4-process Ocean on 4 CPUs; SPU2: 3 Flashlite + 3 VCS on 4 CPUs)\n");
        let rows: Vec<Vec<String>> = self
            .fig5()
            .into_iter()
            .map(|(s, o, f, v)| vec![s.to_string(), bar_label(o), bar_label(f), bar_label(v)])
            .collect();
        out.push_str(&render_table(
            &["scheme", "Ocean", "Flashlite", "VCS"],
            &rows,
        ));
        out
    }
}

fn ocean_config(scale: Scale) -> OceanConfig {
    match scale {
        Scale::Full => OceanConfig::paper(),
        Scale::Quick => OceanConfig {
            iterations: 30,
            ..OceanConfig::paper()
        },
    }
}

fn eda_durations(scale: Scale) -> (SimDuration, SimDuration) {
    match scale {
        Scale::Full => (
            SimDuration::from_millis(9000),
            SimDuration::from_millis(7000),
        ),
        Scale::Quick => (
            SimDuration::from_millis(5400),
            SimDuration::from_millis(4200),
        ),
    }
}

/// Boots the Figure-4 machine and spawns the job set.
fn boot(scheme: Scheme, scale: Scale) -> Kernel {
    // Table 1: 8 CPUs, 64 MB, separate fast disks.
    let cfg = MachineConfig::builder()
        .topology(8, 64, 2)
        .scheme(scheme)
        .build()
        .unwrap();
    let mut k = Kernel::new(
        cfg,
        SpuSet::equal_users(2).named(0, "ocean").named(1, "eda"),
    );
    let ocean = ocean_config(scale).build(1000);
    let (fl_cpu, vcs_cpu) = eda_durations(scale);
    k.spawn_at(
        SpuId::user(0),
        ocean[0].clone(),
        Some("ocean"),
        SimTime::ZERO,
    );
    for i in 0..3 {
        let f = flashlite_with(&mut k, 1, fl_cpu);
        k.spawn_at(
            SpuId::user(1),
            f,
            Some(&format!("flashlite-{i}")),
            SimTime::ZERO,
        );
        let v = vcs_with(&mut k, 1, vcs_cpu);
        k.spawn_at(SpuId::user(1), v, Some(&format!("vcs-{i}")), SimTime::ZERO);
    }
    k
}

/// Runs the workload under one scheme; returns per-app responses.
pub fn run_one(scheme: Scheme, scale: Scale) -> AppResponses {
    let mut k = boot(scheme, scale);
    let m = k.run(SimTime::from_secs(300));
    assert!(m.completed, "cpu-iso run hit the time cap");
    AppResponses {
        ocean: m.mean_response_secs("ocean").expect("ocean jobs ran"),
        flashlite: m
            .mean_response_secs("flashlite")
            .expect("flashlite jobs ran"),
        vcs: m.mean_response_secs("vcs").expect("vcs jobs ran"),
    }
}

impl sweep::Outcome for AppResponses {
    fn encode(&self) -> Value {
        Value::list(vec![
            Value::F(self.ocean),
            Value::F(self.flashlite),
            Value::F(self.vcs),
        ])
    }
}

impl Render for CpuIsoResult {
    fn render(&self) -> String {
        self.format()
    }
}

/// The CPU-isolation matrix as a [`Scenario`]: one cell per scheme.
pub struct CpuIsoScenario {
    /// Workload scale.
    pub scale: Scale,
}

impl Scenario for CpuIsoScenario {
    type Cell = Scheme;
    type Outcome = AppResponses;
    type Report = CpuIsoResult;

    fn name(&self) -> &'static str {
        "cpu-iso"
    }

    fn cells(&self) -> Vec<Scheme> {
        Scheme::ALL.to_vec()
    }

    fn cell_key(&self, scheme: &Scheme) -> String {
        scheme.label().to_lowercase()
    }

    fn run_cell(&self, &scheme: &Scheme) -> AppResponses {
        run_one(scheme, self.scale)
    }

    fn reduce(&self, outcomes: Vec<AppResponses>) -> CpuIsoResult {
        let mut by_scheme = [AppResponses::default(); 3];
        for (slot, outcome) in by_scheme.iter_mut().zip(outcomes) {
            *slot = outcome;
        }
        CpuIsoResult { by_scheme }
    }
}

/// Runs the experiment under all three schemes.
pub fn run(scale: Scale) -> CpuIsoResult {
    sweep::run_scenario(&CpuIsoScenario { scale }, &SweepOptions::new()).report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_the_paper_shape() {
        let r = run(Scale::Quick);
        let fig5 = r.fig5();
        let (smp, quo, piso) = (fig5[0], fig5[1], fig5[2]);
        // Ocean: isolation helps — PIso clearly better than SMP; Quo (the
        // isolation ideal) at least as good as PIso (small tolerance).
        assert!(piso.1 < 90.0, "PIso Ocean should beat SMP: {}", piso.1);
        assert!(
            quo.1 <= piso.1 * 1.05,
            "Quo Ocean ≈ best: quo={} piso={}",
            quo.1,
            piso.1
        );
        // Flashlite/VCS: Quo wastes Ocean's idle CPUs; PIso shares them.
        assert!(
            quo.2 > piso.2 * 1.1,
            "Quo Flashlite worst: quo={} piso={}",
            quo.2,
            piso.2
        );
        assert!(
            quo.3 > piso.3 * 1.1,
            "Quo VCS worst: quo={} piso={}",
            quo.3,
            piso.3
        );
        // PIso keeps the EDA jobs near SMP (paper: "comparable").
        assert!(piso.2 < 125.0, "PIso Flashlite near SMP: {}", piso.2);
        assert!(piso.3 < 125.0, "PIso VCS near SMP: {}", piso.3);
        let _ = smp;
    }
}
