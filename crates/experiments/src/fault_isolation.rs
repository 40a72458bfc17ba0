//! The fault-isolation experiment (robustness extension of §4).
//!
//! The paper's experiments stress SPUs with *antisocial but healthy*
//! workloads. This experiment asks the same isolation question about
//! *faults*: when a background SPU's disk throws transient errors, its
//! device degrades, one of its CPUs dies, its processes crash, or it
//! fork-bombs, does the foreground SPU's response time survive under
//! each scheme?
//!
//! Machine: 4 CPUs, 96 MB (48 at quick scale), 4 disks, 4 SPUs. SPU 0
//! is the foreground
//! (six staggered read/compute/write jobs on its own disk); SPUs 1–3
//! run the same job shape as background. Every fault targets SPU 3 or
//! its disk (disk 3) — machine-scoped faults like CPU loss necessarily
//! bleed into every SPU and are reported for comparison.

use event_sim::{FaultDomain, FaultKind, FaultPlan, SimDuration, SimTime};
use smp_kernel::{Kernel, MachineConfig, RunMetrics};
use spu_core::{Scheme, SpuId, SpuSet};

use crate::pmake8::InstrumentedRun;
use crate::report::render_table;
use crate::sweep::{self, Render, Scenario, SweepOptions, Value};
use crate::Scale;

/// The injected fault classes, [`FaultClass::None`] being the baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// Fault-free baseline.
    None,
    /// A burst of transient I/O errors on the background disk.
    DiskErrors,
    /// The background disk drops to quarter speed, repaired later.
    DiskDegraded,
    /// One CPU goes offline mid-run and returns later.
    CpuLoss,
    /// A background process crashes holding whatever it holds.
    ProcessCrash,
    /// A fork bomb detonates in the background SPU.
    ForkBomb,
    /// A retry storm: the background SPU's live work is duplicated in a
    /// burst, the closed-loop analogue of clients blindly retrying.
    RetryStorm,
}

impl FaultClass {
    /// Every class, baseline first.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::None,
        FaultClass::DiskErrors,
        FaultClass::DiskDegraded,
        FaultClass::CpuLoss,
        FaultClass::ProcessCrash,
        FaultClass::ForkBomb,
        FaultClass::RetryStorm,
    ];

    /// Short table label.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::None => "none",
            FaultClass::DiskErrors => "disk-errors",
            FaultClass::DiskDegraded => "disk-degraded",
            FaultClass::CpuLoss => "cpu-loss",
            FaultClass::ProcessCrash => "crash",
            FaultClass::ForkBomb => "fork-bomb",
            FaultClass::RetryStorm => "retry-storm",
        }
    }

    /// Whether the fault is scoped to the background SPU/disk (so an
    /// isolating scheme should shield the foreground from it) rather
    /// than shrinking the whole machine.
    pub fn background_scoped(self) -> bool {
        !matches!(self, FaultClass::CpuLoss)
    }

    /// The deterministic fault plan for this class at `scale`.
    pub fn plan(self, scale: Scale) -> FaultPlan {
        let (hit, fix) = match scale {
            Scale::Full => (SimTime::from_secs(1), SimTime::from_secs(3)),
            Scale::Quick => (SimTime::from_millis(200), SimTime::from_millis(700)),
        };
        match self {
            FaultClass::None => FaultPlan::new(),
            FaultClass::DiskErrors => {
                FaultPlan::new().at(hit, FaultKind::DiskTransientErrors { disk: 3, count: 6 })
            }
            FaultClass::DiskDegraded => FaultPlan::new()
                .at(
                    hit,
                    FaultKind::DiskDegrade {
                        disk: 3,
                        factor: 4.0,
                    },
                )
                .at(fix, FaultKind::DiskRepair { disk: 3 }),
            FaultClass::CpuLoss => FaultPlan::new()
                .at(hit, FaultKind::CpuOffline { cpu: 3 })
                .at(fix, FaultKind::CpuOnline { cpu: 3 }),
            FaultClass::ProcessCrash => FaultPlan::new()
                .at(hit, FaultKind::ProcessCrash { user_spu: 3 })
                .at(fix, FaultKind::ProcessCrash { user_spu: 3 }),
            FaultClass::ForkBomb => FaultPlan::new().at(
                hit,
                FaultKind::ForkBomb {
                    user_spu: 3,
                    width: 4,
                    depth: 3,
                    burn: SimDuration::from_millis(30),
                    pages: 32,
                },
            ),
            FaultClass::RetryStorm => FaultPlan::new().at(
                hit,
                FaultKind::RetryStorm {
                    user_spu: 3,
                    burst: 4,
                },
            ),
        }
    }
}

/// One scheme × fault-class measurement.
#[derive(Clone, Debug)]
pub struct FaultRow {
    /// Resource-management scheme.
    pub scheme: Scheme,
    /// Injected fault class.
    pub fault: FaultClass,
    /// Mean foreground (SPU 0) response, seconds.
    pub fg_mean: f64,
    /// Exact p95 of foreground responses, seconds (unfinished jobs
    /// scored at run end).
    pub fg_p95: f64,
    /// Mean background response, seconds.
    pub bg_mean: f64,
    /// `audit.violations` counter after the run.
    pub audit_violations: u64,
    /// `fault.io_retries` counter.
    pub io_retries: u64,
    /// `fault.io_failures` counter.
    pub io_failures: u64,
    /// `kernel.errors` counter.
    pub kernel_errors: u64,
    /// Whether every process exited before the time cap.
    pub completed: bool,
}

/// Results of the full scheme × fault-class matrix.
#[derive(Clone, Debug)]
pub struct FaultIsolationResult {
    /// All rows, scheme-major in [`Scheme::ALL`] × [`FaultClass::ALL`]
    /// order.
    pub rows: Vec<FaultRow>,
}

impl FaultIsolationResult {
    /// The row for a `(scheme, fault)` pair.
    pub fn row(&self, scheme: Scheme, fault: FaultClass) -> &FaultRow {
        self.rows
            .iter()
            .find(|r| r.scheme == scheme && r.fault == fault)
            .expect("full matrix")
    }

    /// Renders one response-time table per scheme.
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str("Fault isolation: foreground (SPU 0) response under background faults\n");
        for &scheme in &Scheme::ALL {
            let base = self.row(scheme, FaultClass::None).fg_mean;
            out.push_str(&format!("\n{scheme}\n"));
            let rows: Vec<Vec<String>> = FaultClass::ALL
                .iter()
                .map(|&fc| {
                    let r = self.row(scheme, fc);
                    vec![
                        fc.name().to_string(),
                        format!("{:.3}", r.fg_mean),
                        format!("{:.3}", r.fg_p95),
                        format!("{:+.1}%", (r.fg_mean / base - 1.0) * 100.0),
                        format!("{:.3}", r.bg_mean),
                        r.io_retries.to_string(),
                        r.io_failures.to_string(),
                        r.audit_violations.to_string(),
                    ]
                })
                .collect();
            out.push_str(&render_table(
                &[
                    "fault", "fg mean", "fg p95", "fg Δ", "bg mean", "retries", "failures",
                    "audits",
                ],
                &rows,
            ));
        }
        out
    }
}

fn job_sizes(scale: Scale) -> (u64, SimDuration) {
    match scale {
        Scale::Full => (1024 * 1024, SimDuration::from_millis(40)),
        Scale::Quick => (256 * 1024, SimDuration::from_millis(10)),
    }
}

fn stagger(scale: Scale) -> SimDuration {
    match scale {
        Scale::Full => SimDuration::from_millis(500),
        Scale::Quick => SimDuration::from_millis(100),
    }
}

/// Spawns the foreground/background job mix: six staggered jobs on
/// SPU 0 / disk 0, three jobs each on SPUs 1-3 against their own disks.
fn spawn_mix(k: &mut Kernel, scale: Scale) {
    let (bytes, burn) = job_sizes(scale);
    let step = stagger(scale);
    let files: Vec<_> = (0..4).map(|d| k.create_file(d, 4 * bytes, 0)).collect();
    // Writes are a quarter of the read size: enough to exercise the
    // write-behind flush path (and its per-SPU recharging), small enough
    // that the *global* dirty-buffer throttle never engages — that
    // throttle couples every SPU to the slowest disk and would mask the
    // per-disk isolation this experiment measures.
    let job = |name: &str, file, j: u64| {
        smp_kernel::Program::builder(name)
            .read(file, (j % 4) * bytes, bytes)
            .compute(burn, 0)
            .write(file, (j % 4) * bytes, bytes / 4)
            .compute(burn, 0)
            .build()
    };
    for j in 0..6u64 {
        k.spawn_at(
            SpuId::user(0),
            job("fg", files[0], j),
            Some(&format!("fg-{j}")),
            SimTime::ZERO + step.mul_f64(j as f64),
        );
    }
    for s in 1..4u32 {
        for j in 0..3u64 {
            k.spawn_at(
                SpuId::user(s),
                job("bg", files[s as usize], j),
                Some(&format!("bg{s}-{j}")),
                SimTime::ZERO + step.mul_f64(j as f64),
            );
        }
    }
}

/// Boots the 4-SPU machine with the job mix and the fault class's plan
/// installed.
/// Machine memory per scale: sized so the page cache holds the working
/// set comfortably — cross-SPU eviction pressure is studied by
/// `mem_iso`, not here, and would only blur the fault deltas.
fn machine_mem(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 96,
        Scale::Quick => 48,
    }
}

fn boot(scheme: Scheme, fault: FaultClass, scale: Scale) -> Kernel {
    let cfg = MachineConfig::builder()
        .topology(4, machine_mem(scale), 4)
        .scheme(scheme)
        .fault_plan(fault.plan(scale))
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(4));
    spawn_mix(&mut k, scale);
    k
}

/// Exact percentile over scored responses (nearest-rank on the sorted
/// sample — the coarse `LogHistogram` buckets are too wide for the
/// ±10% comparisons this experiment makes).
fn exact_percentile(mut vals: Vec<f64>, q: f64) -> f64 {
    vals.sort_by(|a, b| a.total_cmp(b));
    let idx = ((vals.len() as f64 - 1.0) * q).round() as usize;
    vals[idx]
}

fn scored_responses(m: &RunMetrics, prefix: &str) -> Vec<f64> {
    m.jobs_with_prefix(prefix)
        .map(|j| {
            j.finished
                .unwrap_or(m.end_time)
                .saturating_since(j.started)
                .as_secs_f64()
        })
        .collect()
}

/// Runs one scheme × fault-class cell.
pub fn run_one(scheme: Scheme, fault: FaultClass, scale: Scale) -> FaultRow {
    let mut k = boot(scheme, fault, scale);
    let m = k.run(SimTime::from_secs(600));
    let fg = scored_responses(&m, "fg-");
    let bg = scored_responses(&m, "bg");
    let c = &m.obsv.counters;
    FaultRow {
        scheme,
        fault,
        fg_mean: fg.iter().sum::<f64>() / fg.len() as f64,
        fg_p95: exact_percentile(fg, 0.95),
        bg_mean: bg.iter().sum::<f64>() / bg.len() as f64,
        audit_violations: c.get("audit.violations"),
        io_retries: c.get("fault.io_retries"),
        io_failures: c.get("fault.io_failures"),
        kernel_errors: c.get("kernel.errors"),
        completed: m.completed,
    }
}

impl sweep::Outcome for FaultRow {
    fn encode(&self) -> Value {
        Value::list(vec![
            Value::S(self.scheme.label().to_string()),
            Value::S(self.fault.name().to_string()),
            Value::F(self.fg_mean),
            Value::F(self.fg_p95),
            Value::F(self.bg_mean),
            Value::U(self.audit_violations),
            Value::U(self.io_retries),
            Value::U(self.io_failures),
            Value::U(self.kernel_errors),
            Value::B(self.completed),
        ])
    }
}

impl Render for FaultIsolationResult {
    fn render(&self) -> String {
        self.format()
    }
}

/// The fault matrix as a [`Scenario`]: scheme-major scheme × fault
/// cells.
pub struct FaultIsolationScenario {
    /// Workload scale.
    pub scale: Scale,
}

impl Scenario for FaultIsolationScenario {
    type Cell = (Scheme, FaultClass);
    type Outcome = FaultRow;
    type Report = FaultIsolationResult;

    fn name(&self) -> &'static str {
        "fault-iso"
    }

    fn cells(&self) -> Vec<Self::Cell> {
        Scheme::ALL
            .iter()
            .flat_map(|&s| FaultClass::ALL.iter().map(move |&f| (s, f)))
            .collect()
    }

    fn cell_key(&self, &(scheme, fault): &Self::Cell) -> String {
        format!("{}-{}", scheme.label().to_lowercase(), fault.name())
    }

    fn run_cell(&self, &(scheme, fault): &Self::Cell) -> FaultRow {
        run_one(scheme, fault, self.scale)
    }

    fn reduce(&self, outcomes: Vec<FaultRow>) -> FaultIsolationResult {
        FaultIsolationResult { rows: outcomes }
    }
}

/// Runs the full matrix: every scheme under every fault class.
pub fn run(scale: Scale) -> FaultIsolationResult {
    sweep::run_scenario(&FaultIsolationScenario { scale }, &SweepOptions::new()).report
}

/// One instrumented PIso run under a seeded *random* fault plan:
/// tracing and sampling on, exports rendered. Deterministic in
/// `(seed, scale)` — equal inputs give byte-identical exports.
pub fn run_instrumented(seed: u64, scale: Scale) -> InstrumentedRun {
    let horizon = match scale {
        Scale::Full => SimTime::from_secs(4),
        Scale::Quick => SimTime::from_secs(1),
    };
    let domain = FaultDomain {
        cpus: 4,
        disks: 4,
        user_spus: 4,
    };
    let plan = FaultPlan::random(seed, horizon, &domain);
    let cfg = MachineConfig::builder()
        .topology(4, machine_mem(scale), 4)
        .scheme(Scheme::PIso)
        .fault_plan(plan)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(4));
    spawn_mix(&mut k, scale);
    k.enable_trace(1 << 20);
    k.enable_sampling(SimDuration::from_millis(100));
    let metrics = k.run(SimTime::from_secs(600));
    let metrics_jsonl = smp_kernel::metrics_jsonl(&metrics);
    let chrome_trace = smp_kernel::chrome_trace_json(k.trace(), k.spus(), &metrics.obsv);
    InstrumentedRun {
        metrics,
        metrics_jsonl,
        chrome_trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_isolates_piso_foreground() {
        let r = run(Scale::Quick);
        for row in &r.rows {
            assert!(row.completed, "{:?}/{:?} hit cap", row.scheme, row.fault);
            assert_eq!(
                row.audit_violations, 0,
                "{:?}/{:?} audit violations",
                row.scheme, row.fault
            );
        }
        // PIso foreground stays near its fault-free baseline for every
        // background-scoped fault class.
        let base = r.row(Scheme::PIso, FaultClass::None).fg_p95;
        for &fc in FaultClass::ALL.iter().filter(|f| f.background_scoped()) {
            let p95 = r.row(Scheme::PIso, fc).fg_p95;
            assert!(
                p95 <= base * 1.10,
                "PIso fg p95 under {fc:?}: {p95} vs baseline {base}"
            );
        }
    }

    #[test]
    fn instrumented_run_is_deterministic_in_seed() {
        let a = run_instrumented(7, Scale::Quick);
        let b = run_instrumented(7, Scale::Quick);
        assert_eq!(a.metrics_jsonl, b.metrics_jsonl);
        assert_eq!(a.chrome_trace, b.chrome_trace);
    }
}
