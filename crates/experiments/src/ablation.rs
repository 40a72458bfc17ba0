//! Ablations of the design choices the paper calls out.
//!
//! * [`lock_granularity`] — §3.4: the inode-lock mutex →
//!   multiple-readers fix ("improvement in response time was as much as
//!   20-30% on a four processor system for some workloads").
//! * [`reserve_threshold_sweep`] — §3.2: the Reserve Threshold hides
//!   memory revocation cost; 0% risks the lender, large values waste
//!   lendable memory.
//! * [`bw_threshold_sweep`] — §3.3: the BW-difference threshold
//!   interpolates between round-robin (0) and pure head-position
//!   scheduling (∞).
//! * [`ipi_revocation`] — §3.1's suggested extension: revoking loaned
//!   CPUs by inter-processor interrupt instead of waiting for the next
//!   clock tick, "needed to provide response time performance isolation
//!   guarantees to interactive processes".
//!
//! All four run through [`AblationScenario`], whose heterogeneous cells
//! demonstrate the [`Scenario`] API's escape hatch: each cell encodes
//! its measurement as a raw [`Value`].

use event_sim::{SimDuration, SimTime};
use hp_disk::SchedulerKind;
use smp_kernel::{Kernel, MachineConfig, Tuning};
use spu_core::{Scheme, SpuId, SpuSet};
use workloads::PmakeConfig;

use crate::report::render_table;
use crate::sweep::{self, Render, Scenario, SweepOptions, Value};
use crate::Scale;

/// Result of the §3.4 lock ablation.
#[derive(Clone, Copy, Debug)]
pub struct LockAblation {
    /// Mean job response with the stock mutex inode lock, seconds.
    pub mutex_response: f64,
    /// Mean job response with the multi-reader fix, seconds.
    pub rw_response: f64,
    /// Contention ratio under the mutex.
    pub mutex_contention: f64,
    /// Contention ratio with the fix.
    pub rw_contention: f64,
}

impl LockAblation {
    /// Relative response-time improvement from the fix.
    pub fn improvement(&self) -> f64 {
        (self.mutex_response - self.rw_response) / self.mutex_response
    }

    /// Renders the comparison.
    pub fn format(&self) -> String {
        let rows = vec![
            vec![
                "mutex (stock IRIX)".to_string(),
                format!("{:.3}", self.mutex_response),
                format!("{:.1}%", self.mutex_contention * 100.0),
            ],
            vec![
                "multi-reader (fix)".to_string(),
                format!("{:.3}", self.rw_response),
                format!("{:.1}%", self.rw_contention * 100.0),
            ],
        ];
        let mut out = String::from("Ablation §3.4: root inode lock granularity\n");
        out.push_str(&render_table(
            &["inode lock", "mean response (s)", "contention"],
            &rows,
        ));
        out.push_str(&format!(
            "response-time improvement from the fix: {:.0}%\n",
            self.improvement() * 100.0
        ));
        out
    }
}

/// Boots the §3.4 lock-granularity machine: a lookup-bound parallel
/// workload on a four-processor system. Each SPU runs a job of two
/// workers repeatedly re-reading a set of small files — after the first
/// pass the data is cached, so response time is dominated by lookups
/// under the root inode lock, exactly the §3.4 hotspot.
fn boot_lock(rw: bool, scale: Scale) -> Kernel {
    let (rounds, files_per_worker) = match scale {
        Scale::Full => (150, 8),
        Scale::Quick => (60, 6),
    };
    // Deep pathname traversals under the root lock.
    let tuning = Tuning {
        rw_inode_lock: rw,
        lookup_cost: SimDuration::from_micros(1200),
        ..Tuning::default()
    };
    let cfg = MachineConfig::builder()
        .topology(4, 44, 4)
        .scheme(Scheme::Smp)
        .tuning(tuning)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(4));
    for s in 0..4u32 {
        let mut workers = Vec::new();
        for _ in 0..2 {
            let files: Vec<_> = (0..files_per_worker)
                .map(|_| k.create_file(s as usize, 8 * 1024, 16))
                .collect();
            let mut wb = smp_kernel::Program::builder("worker");
            for r in 0..rounds {
                let f = files[r % files.len()];
                wb = wb
                    .read(f, 0, 8 * 1024)
                    .compute(SimDuration::from_micros(2500), 0);
            }
            workers.push(wb.build());
        }
        let mut jb = smp_kernel::Program::builder("fsjob");
        for w in workers {
            jb = jb.fork(w);
        }
        let p = jb.wait_children().build();
        k.spawn_at(SpuId::user(s), p, Some(&format!("fsjob{s}")), SimTime::ZERO);
    }
    k
}

/// Runs one lock-granularity cell: `(mean response, contention ratio)`.
fn run_lock(rw: bool, scale: Scale) -> (f64, f64) {
    let mut k = boot_lock(rw, scale);
    let m = k.run(SimTime::from_secs(600));
    assert!(m.completed);
    (
        m.mean_response_secs("fsjob").expect("fsjobs ran"),
        m.lock_contention_ratio(),
    )
}

/// Runs the lock-granularity ablation (§3.4): mutex vs multi-reader.
pub fn lock_granularity(scale: Scale) -> LockAblation {
    let scenario = AblationScenario::only_lock(scale);
    run_via_sweep(&scenario).lock.expect("lock cells ran")
}

/// One point of the Reserve-Threshold sweep.
#[derive(Clone, Copy, Debug)]
pub struct ReservePoint {
    /// Reserve fraction of total memory.
    pub reserve_frac: f64,
    /// Response of the lender's post-idle memory burst (the phase the
    /// Reserve Threshold exists to protect), seconds.
    pub lender_burst_response: f64,
    /// Mean response of the borrower SPU's two thrashing jobs (sharing
    /// quality), seconds.
    pub borrower_response: f64,
    /// Swap-out writes suffered by the lender SPU during its reclaim.
    pub lender_swap_outs: u64,
}

/// Boots one Reserve-Threshold cell (§3.2): an idle-then-burst lender
/// against two continuously-thrashing borrowers.
///
/// Borrower demand (2 × thrash_pages) deliberately exceeds its
/// entitlement plus everything lendable, so the borrowers absorb the
/// whole lendable pool whatever the reserve is — leaving exactly the
/// reserve free when the lender's burst arrives.
fn boot_reserve(frac: f64, scale: Scale) -> Kernel {
    let (idle_ms, burst_pages, thrash_pages, thrash_ms) = match scale {
        Scale::Full => (1500u64, 900u32, 1820u32, 600u64),
        Scale::Quick => (700, 700, 1820, 150),
    };
    let tuning = Tuning {
        reserve_frac: frac,
        ..Tuning::default()
    };
    let cfg = MachineConfig::builder()
        .topology(4, 16, 2)
        .scheme(Scheme::PIso)
        .tuning(tuning)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
    // The lender: a long small-footprint phase, then the burst.
    let idle_phase = smp_kernel::Program::builder("lender-idle")
        .alloc(100)
        .compute(SimDuration::from_millis(idle_ms), 100)
        .build();
    let burst = smp_kernel::Program::builder("lender-burst")
        .alloc(burst_pages)
        .compute(SimDuration::from_millis(200), burst_pages)
        .build();
    k.spawn_at(
        SpuId::user(0),
        idle_phase,
        Some("lender-idle"),
        SimTime::ZERO,
    );
    k.spawn_at(
        SpuId::user(0),
        burst,
        Some("lender-burst"),
        SimTime::from_millis(idle_ms),
    );
    for j in 0..2 {
        let p = smp_kernel::Program::builder("thrash")
            .alloc(thrash_pages)
            .compute(SimDuration::from_millis(thrash_ms), thrash_pages)
            .build();
        k.spawn_at(
            SpuId::user(1),
            p,
            Some(&format!("borrower{j}")),
            SimTime::ZERO,
        );
    }
    k
}

/// Runs one Reserve-Threshold cell.
fn run_reserve(frac: f64, scale: Scale) -> ReservePoint {
    let mut k = boot_reserve(frac, scale);
    let m = k.run(SimTime::from_secs(1200));
    assert!(m.completed, "reserve sweep hit the time cap");
    ReservePoint {
        reserve_frac: frac,
        lender_burst_response: m
            .mean_response_secs("lender-burst")
            .expect("lender burst ran"),
        borrower_response: m.mean_response_secs("borrower").expect("borrowers ran"),
        lender_swap_outs: m.vm[SpuId::user(0).index()].swap_outs
            + m.vm[SpuId::user(1).index()].swap_outs,
    }
}

/// Sweeps the Reserve Threshold (§3.2) with a workload designed around
/// its purpose: "The Reserve Threshold is needed to hide the revocation
/// cost for memory ... \[it\] reduces the chance of a loaning SPU
/// incorrectly being denied a page temporarily."
///
/// The lender idles on a tiny working set (its memory is lent out), then
/// suddenly demands a large region. With no reserve every page of that
/// burst must wait for an eviction (often a dirty swap write); with the
/// paper's 8% reserve the first tranche of pages is free on arrival.
/// The borrower runs two continuously-thrashing jobs, so a larger
/// reserve also means less lending — the §3.2 trade-off.
pub fn reserve_threshold_sweep(fracs: &[f64], scale: Scale) -> Vec<ReservePoint> {
    let scenario = AblationScenario {
        scale,
        lock: false,
        ipi: false,
        reserve_fracs: fracs.to_vec(),
        bw_thresholds: Vec::new(),
    };
    run_via_sweep(&scenario).reserve
}

/// Formats a reserve sweep.
pub fn format_reserve_sweep(points: &[ReservePoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.reserve_frac * 100.0),
                format!("{:.3}", p.lender_burst_response),
                format!("{:.3}", p.borrower_response),
                format!("{}", p.lender_swap_outs),
            ]
        })
        .collect();
    let mut out =
        String::from("Ablation §3.2: Reserve Threshold sweep (PIso, idle-then-burst lender)\n");
    out.push_str(&render_table(
        &[
            "reserve",
            "lender burst (s)",
            "borrower resp (s)",
            "swap-outs",
        ],
        &rows,
    ));
    out
}

/// Result of the §3.1 IPI-revocation ablation.
#[derive(Clone, Copy, Debug)]
pub struct IpiAblation {
    /// Interactive job response with tick-based (≤10 ms) revocation, s.
    pub tick_response: f64,
    /// Interactive job response with immediate IPI revocation, s.
    pub ipi_response: f64,
}

impl IpiAblation {
    /// Relative improvement from IPI revocation.
    pub fn improvement(&self) -> f64 {
        (self.tick_response - self.ipi_response) / self.tick_response
    }

    /// Renders the comparison.
    pub fn format(&self) -> String {
        let rows = vec![
            vec![
                "tick (≤10 ms)".to_string(),
                format!("{:.3}", self.tick_response),
            ],
            vec![
                "IPI (immediate)".to_string(),
                format!("{:.3}", self.ipi_response),
            ],
        ];
        let mut out = String::from(
            "Ablation §3.1: loaned-CPU revocation latency (interactive job vs borrowing hog)\n",
        );
        out.push_str(&render_table(
            &["revocation", "interactive resp (s)"],
            &rows,
        ));
        out.push_str(&format!(
            "response-time improvement from IPI revocation: {:.0}%\n",
            self.improvement() * 100.0
        ));
        out
    }
}

/// Boots one IPI-revocation cell (§3.1): an interactive process (1 ms of
/// CPU, then a synchronous scattered disk read, repeatedly) whose home
/// CPU is constantly borrowed by a compute hog in the other SPU. With
/// tick revocation every wake-up eats up to a 10 ms clock-tick delay;
/// with IPI it preempts the borrower at once.
///
/// The I/O must be *scattered single-block reads*: a repeated write to
/// one sector is phase-locked to the disk rotation, which silently
/// absorbs any wake latency below one revolution.
fn boot_ipi(ipi: bool, scale: Scale) -> Kernel {
    let rounds = match scale {
        Scale::Full => 200u64,
        Scale::Quick => 60,
    };
    let tuning = Tuning {
        ipi_revocation: ipi,
        prefetch_windows: 0, // each read is an isolated stall
        ..Tuning::default()
    };
    let cfg = MachineConfig::builder()
        .topology(2, 32, 2)
        .scheme(Scheme::PIso)
        .tuning(tuning)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
    let f = k.create_file(0, rounds * 64 * 1024, 0);
    let mut b = smp_kernel::Program::builder("interactive");
    for r in 0..rounds {
        b = b
            .compute(SimDuration::from_millis(1), 0)
            .read(f, r * 64 * 1024, 4096);
    }
    k.spawn_at(
        SpuId::user(0),
        b.build(),
        Some("interactive"),
        SimTime::ZERO,
    );
    for i in 0..2 {
        let hog = smp_kernel::Program::builder("hog")
            .compute(SimDuration::from_secs(20), 0)
            .build();
        k.spawn_at(SpuId::user(1), hog, Some(&format!("hog{i}")), SimTime::ZERO);
    }
    k
}

/// Runs one IPI-revocation cell: the interactive job's mean response.
fn run_ipi(ipi: bool, scale: Scale) -> f64 {
    let mut k = boot_ipi(ipi, scale);
    let m = k.run(SimTime::from_secs(300));
    assert!(m.completed);
    m.mean_response_secs("interactive")
        .expect("interactive job ran")
}

/// Runs the IPI-revocation ablation (§3.1): tick vs IPI.
pub fn ipi_revocation(scale: Scale) -> IpiAblation {
    let scenario = AblationScenario {
        scale,
        lock: false,
        ipi: true,
        reserve_fracs: Vec::new(),
        bw_thresholds: Vec::new(),
    };
    run_via_sweep(&scenario).ipi.expect("ipi cells ran")
}

/// One point of the BW-difference-threshold sweep.
#[derive(Clone, Copy, Debug)]
pub struct BwPoint {
    /// The threshold in sectors.
    pub threshold: f64,
    /// Pmake response, seconds.
    pub pmake_response: f64,
    /// Copy response, seconds.
    pub copy_response: f64,
    /// Mean seek latency, milliseconds.
    pub avg_seek_ms: f64,
}

/// Boots one BW-threshold cell: the pmake-copy workload with the hybrid
/// scheduler at the given threshold.
fn boot_bw(threshold: f64, scale: Scale) -> Kernel {
    let tuning = Tuning {
        bw_threshold: threshold,
        ..Tuning::default()
    };
    let cfg = MachineConfig::builder()
        .topology(2, 44, 1)
        .scheme(Scheme::PIso)
        .seek_scale(0.5)
        .disk_scheduler(SchedulerKind::Hybrid)
        .tuning(tuning)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
    let pmake_cfg = match scale {
        Scale::Full => PmakeConfig::disk_bw(),
        Scale::Quick => PmakeConfig {
            waves: 4,
            ..PmakeConfig::disk_bw()
        },
    };
    let copy_bytes = match scale {
        Scale::Full => 20 * 1024 * 1024u64,
        Scale::Quick => 6 * 1024 * 1024,
    };
    let p = pmake_cfg.build(&mut k, 0);
    k.spawn_at(SpuId::user(0), p, Some("pmake"), SimTime::ZERO);
    let c = workloads::copy_job(&mut k, 0, copy_bytes, 64 * 1024);
    k.spawn_at(SpuId::user(1), c, Some("copy"), SimTime::ZERO);
    k
}

/// Runs one BW-threshold cell.
fn run_bw(threshold: f64, scale: Scale) -> BwPoint {
    let mut k = boot_bw(threshold, scale);
    let m = k.run(SimTime::from_secs(600));
    assert!(m.completed);
    BwPoint {
        threshold,
        pmake_response: m.mean_response_secs("pmake").expect("pmake ran"),
        copy_response: m.mean_response_secs("copy").expect("copy ran"),
        avg_seek_ms: m.disks[0].mean_seek_ms(),
    }
}

/// Sweeps the BW-difference threshold over the pmake-copy workload with
/// the hybrid scheduler (§3.3: zero → round robin, huge → pure C-SCAN).
pub fn bw_threshold_sweep(thresholds: &[f64], scale: Scale) -> Vec<BwPoint> {
    let scenario = AblationScenario {
        scale,
        lock: false,
        ipi: false,
        reserve_fracs: Vec::new(),
        bw_thresholds: thresholds.to_vec(),
    };
    run_via_sweep(&scenario).bw
}

/// Formats a BW-threshold sweep.
pub fn format_bw_sweep(points: &[BwPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                if p.threshold.is_infinite() {
                    "inf".to_string()
                } else {
                    format!("{:.0}", p.threshold)
                },
                format!("{:.2}", p.pmake_response),
                format!("{:.2}", p.copy_response),
                format!("{:.1}", p.avg_seek_ms),
            ]
        })
        .collect();
    let mut out =
        String::from("Ablation §3.3: BW-difference threshold sweep (pmake-copy, hybrid)\n");
    out.push_str(&render_table(
        &[
            "threshold (sectors)",
            "pmake resp (s)",
            "copy resp (s)",
            "avg seek (ms)",
        ],
        &rows,
    ));
    out
}

/// One cell of the ablation matrix. The four ablations measure
/// different things, so the scenario's outcome type is the raw
/// [`Value`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AblationCell {
    /// §3.4 lock granularity: mutex (`false`) or multi-reader (`true`).
    Lock {
        /// Whether the multi-reader fix is on.
        rw: bool,
    },
    /// §3.1 revocation: tick (`false`) or IPI (`true`).
    Ipi {
        /// Whether IPI revocation is on.
        ipi: bool,
    },
    /// §3.2 Reserve Threshold at one fraction.
    Reserve {
        /// Reserve fraction of total memory.
        frac: f64,
    },
    /// §3.3 BW-difference threshold at one value.
    Bw {
        /// Threshold in sectors.
        threshold: f64,
    },
}

/// The reduced ablation results; sections are present when their cells
/// were requested.
#[derive(Clone, Debug)]
pub struct AblationReport {
    /// §3.4 lock granularity (needs both lock cells).
    pub lock: Option<LockAblation>,
    /// §3.1 revocation latency (needs both IPI cells).
    pub ipi: Option<IpiAblation>,
    /// §3.2 Reserve-Threshold sweep points.
    pub reserve: Vec<ReservePoint>,
    /// §3.3 BW-threshold sweep points.
    pub bw: Vec<BwPoint>,
}

impl Render for AblationReport {
    fn render(&self) -> String {
        let mut sections = Vec::new();
        if let Some(lock) = &self.lock {
            sections.push(lock.format());
        }
        if let Some(ipi) = &self.ipi {
            sections.push(ipi.format());
        }
        if !self.reserve.is_empty() {
            sections.push(format_reserve_sweep(&self.reserve));
        }
        if !self.bw.is_empty() {
            sections.push(format_bw_sweep(&self.bw));
        }
        sections.join("\n")
    }
}

/// The ablation matrix as a [`Scenario`] with heterogeneous cells.
pub struct AblationScenario {
    /// Workload scale.
    pub scale: Scale,
    /// Run the §3.4 lock-granularity pair.
    pub lock: bool,
    /// Run the §3.1 revocation pair.
    pub ipi: bool,
    /// §3.2 reserve fractions to sweep (empty to skip).
    pub reserve_fracs: Vec<f64>,
    /// §3.3 BW thresholds to sweep (empty to skip).
    pub bw_thresholds: Vec<f64>,
}

impl AblationScenario {
    /// Every ablation at its standard sweep points.
    pub fn standard(scale: Scale) -> Self {
        AblationScenario {
            scale,
            lock: true,
            ipi: true,
            reserve_fracs: vec![0.0, 0.02, 0.04, 0.08, 0.16],
            bw_thresholds: vec![0.0, 16.0, 64.0, 256.0, 1024.0, f64::INFINITY],
        }
    }

    fn only_lock(scale: Scale) -> Self {
        AblationScenario {
            scale,
            lock: true,
            ipi: false,
            reserve_fracs: Vec::new(),
            bw_thresholds: Vec::new(),
        }
    }
}

impl Scenario for AblationScenario {
    type Cell = AblationCell;
    type Outcome = Value;
    type Report = AblationReport;

    fn name(&self) -> &'static str {
        "ablation"
    }

    fn cells(&self) -> Vec<AblationCell> {
        let mut cells = Vec::new();
        if self.lock {
            cells.push(AblationCell::Lock { rw: false });
            cells.push(AblationCell::Lock { rw: true });
        }
        if self.ipi {
            cells.push(AblationCell::Ipi { ipi: false });
            cells.push(AblationCell::Ipi { ipi: true });
        }
        for &frac in &self.reserve_fracs {
            cells.push(AblationCell::Reserve { frac });
        }
        for &threshold in &self.bw_thresholds {
            cells.push(AblationCell::Bw { threshold });
        }
        cells
    }

    fn cell_key(&self, cell: &AblationCell) -> String {
        match *cell {
            AblationCell::Lock { rw } => {
                format!("lock-{}", if rw { "rw" } else { "mutex" })
            }
            AblationCell::Ipi { ipi } => {
                format!("revoke-{}", if ipi { "ipi" } else { "tick" })
            }
            AblationCell::Reserve { frac } => {
                format!("reserve-{}permille", (frac * 1000.0).round() as u64)
            }
            AblationCell::Bw { threshold } => {
                if threshold.is_infinite() {
                    "bw-inf".to_string()
                } else {
                    format!("bw-{}", threshold.round() as u64)
                }
            }
        }
    }

    fn run_cell(&self, cell: &AblationCell) -> Value {
        match *cell {
            AblationCell::Lock { rw } => {
                let (response, contention) = run_lock(rw, self.scale);
                Value::list(vec![Value::F(response), Value::F(contention)])
            }
            AblationCell::Ipi { ipi } => Value::F(run_ipi(ipi, self.scale)),
            AblationCell::Reserve { frac } => {
                let p = run_reserve(frac, self.scale);
                Value::list(vec![
                    Value::F(p.lender_burst_response),
                    Value::F(p.borrower_response),
                    Value::U(p.lender_swap_outs),
                ])
            }
            AblationCell::Bw { threshold } => {
                let p = run_bw(threshold, self.scale);
                Value::list(vec![
                    Value::F(p.pmake_response),
                    Value::F(p.copy_response),
                    Value::F(p.avg_seek_ms),
                ])
            }
        }
    }

    fn reduce(&self, outcomes: Vec<Value>) -> AblationReport {
        let mut report = AblationReport {
            lock: None,
            ipi: None,
            reserve: Vec::new(),
            bw: Vec::new(),
        };
        let mut lock = [None, None]; // [mutex, rw]
        let mut revoke = [None, None]; // [tick, ipi]
        let expect_f = |v: &Value| v.as_f64().expect("ablation outcome shape");
        for (cell, v) in self.cells().iter().zip(&outcomes) {
            match *cell {
                AblationCell::Lock { rw } => {
                    let l = v.as_list().expect("lock outcome shape");
                    lock[rw as usize] = Some((expect_f(&l[0]), expect_f(&l[1])));
                }
                AblationCell::Ipi { ipi } => revoke[ipi as usize] = Some(expect_f(v)),
                AblationCell::Reserve { frac } => {
                    let l = v.as_list().expect("reserve outcome shape");
                    report.reserve.push(ReservePoint {
                        reserve_frac: frac,
                        lender_burst_response: expect_f(&l[0]),
                        borrower_response: expect_f(&l[1]),
                        lender_swap_outs: l[2].as_u64().expect("swap-out count"),
                    });
                }
                AblationCell::Bw { threshold } => {
                    let l = v.as_list().expect("bw outcome shape");
                    report.bw.push(BwPoint {
                        threshold,
                        pmake_response: expect_f(&l[0]),
                        copy_response: expect_f(&l[1]),
                        avg_seek_ms: expect_f(&l[2]),
                    });
                }
            }
        }
        if let (Some((mutex_response, mutex_contention)), Some((rw_response, rw_contention))) =
            (lock[0], lock[1])
        {
            report.lock = Some(LockAblation {
                mutex_response,
                rw_response,
                mutex_contention,
                rw_contention,
            });
        }
        if let (Some(tick_response), Some(ipi_response)) = (revoke[0], revoke[1]) {
            report.ipi = Some(IpiAblation {
                tick_response,
                ipi_response,
            });
        }
        report
    }
}

fn run_via_sweep(scenario: &AblationScenario) -> AblationReport {
    sweep::run_scenario(scenario, &SweepOptions::new()).report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_fix_improves_response() {
        let a = lock_granularity(Scale::Quick);
        assert!(
            a.rw_response < a.mutex_response,
            "fix must help: rw={} mutex={}",
            a.rw_response,
            a.mutex_response
        );
        assert!(a.mutex_contention > a.rw_contention);
    }

    #[test]
    fn reserve_protects_lender_but_starves_sharing() {
        let pts = reserve_threshold_sweep(&[0.0, 0.16], Scale::Quick);
        // A large reserve keeps frames free for the lender's burst...
        assert!(
            pts[1].lender_burst_response < pts[0].lender_burst_response,
            "reserve should protect the lender: r0={} r16={}",
            pts[0].lender_burst_response,
            pts[1].lender_burst_response
        );
        // ...at the cost of the borrower, which gets less lent memory.
        assert!(
            pts[1].borrower_response > pts[0].borrower_response,
            "reserve should cost the borrower: r0={} r16={}",
            pts[0].borrower_response,
            pts[1].borrower_response
        );
    }

    #[test]
    fn ipi_revocation_cuts_interactive_latency() {
        let a = ipi_revocation(Scale::Quick);
        assert!(
            a.ipi_response < a.tick_response,
            "ipi={} tick={}",
            a.ipi_response,
            a.tick_response
        );
    }

    #[test]
    fn bw_threshold_interpolates() {
        let pts = bw_threshold_sweep(&[0.0, f64::INFINITY], Scale::Quick);
        // Threshold 0 ≈ round robin: best pmake fairness.
        // Threshold ∞ ≈ pure position scheduling: pmake locked out.
        assert!(
            pts[0].pmake_response < pts[1].pmake_response,
            "tight threshold favours pmake: {} vs {}",
            pts[0].pmake_response,
            pts[1].pmake_response
        );
    }
}
