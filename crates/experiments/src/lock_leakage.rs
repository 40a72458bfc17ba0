//! The lock-leakage experiment — the quantitative version of §3.4's
//! contention story.
//!
//! An antagonist SPU hammers the root-inode lock (pathname lookups
//! through the buffer cache) while a latency-sensitive victim SPU runs
//! a stream of small read/compute requests against a 5 ms response
//! target. The matrix crosses every scheme with both lock modes — the
//! stock exclusive inode mutex and the paper's multi-reader fix — and
//! reads the kernel's cross-SPU interference attribution to answer
//! *who waited on whom, and for how long*:
//!
//! * Under `SMP` + exclusive, the antagonist's lookups saturate the
//!   root lock and the victim's waits land squarely in the
//!   antagonist→victim `lock.root` cell.
//! * Under `PIso` the CPU partition throttles the antagonist's
//!   lock-acquisition rate, shrinking that cell even though the lock
//!   itself is unchanged — isolation leaks through the lock, but less.
//! * Under the reader-writer mode the lookups share the lock and the
//!   cell collapses toward zero under every scheme.
//!
//! Machine: 4 CPUs, one disk, two user SPUs. The victim keeps its
//! half of the partition busy (staggered jobs) and IPI revocation is
//! on, so idle-CPU loans don't quietly hand the antagonist the whole
//! machine under `PIso`.

use event_sim::{SimDuration, SimTime};
use smp_kernel::{Channel, Kernel, MachineConfig, Program, RunMetrics, Tuning, PAGE_SIZE};
use spu_core::{Scheme, SpuId, SpuSet};

use crate::pmake8::InstrumentedRun;
use crate::report::render_table;
use crate::sweep::{self, Render, Scenario, SweepOptions, Value};
use crate::Scale;

/// Root-inode lock mode under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    /// Stock IRIX 5.3: the root inode lock is a mutual-exclusion
    /// semaphore (`rw_inode_lock = false`).
    Excl,
    /// The §3.4 fix: multi-reader lookups (`rw_inode_lock = true`).
    Rw,
}

impl LockMode {
    /// Both modes, stock first.
    pub const ALL: [LockMode; 2] = [LockMode::Excl, LockMode::Rw];

    /// Short stable label.
    pub fn name(self) -> &'static str {
        match self {
            LockMode::Excl => "excl",
            LockMode::Rw => "rw",
        }
    }

    /// The `rw_inode_lock` tuning value for this mode.
    pub fn rw(self) -> bool {
        matches!(self, LockMode::Rw)
    }
}

/// The victim's response-time target.
pub fn slo_target() -> SimDuration {
    SimDuration::from_millis(10)
}

/// Run cap — every cell completes far earlier.
const CAP: SimTime = SimTime::from_secs(60);

/// Blocks in each SPU's private file (all cached after warm-up).
const FILE_BLOCKS: u64 = 16;

fn victim_params(scale: Scale) -> (u64, u32, SimDuration) {
    // (jobs, reads per job, stagger). A job is reads × ~125 µs of CPU,
    // so the stagger is chosen to demand the victim's full two-CPU
    // entitlement — the regime where the schemes actually differ.
    match scale {
        Scale::Full => (60, 16, SimDuration::from_micros(1800)),
        Scale::Quick => (24, 12, SimDuration::from_micros(1350)),
    }
}

fn antagonist_params(scale: Scale) -> (u32, u64) {
    // (processes, lookup iterations per process). More processes than
    // the antagonist's entitled CPUs: under SMP's per-process fair
    // share the pool out-schedules the victim, under PIso it is pinned
    // to its half of the machine.
    match scale {
        Scale::Full => (8, 800),
        Scale::Quick => (8, 500),
    }
}

fn soaker_len(scale: Scale) -> SimDuration {
    // Outlasts the antagonist pool under every scheme.
    match scale {
        Scale::Full => SimDuration::from_secs(3),
        Scale::Quick => SimDuration::from_millis(1500),
    }
}

/// Boots the two-SPU machine: victim (user 0) + antagonist (user 1),
/// lock mode applied, warm-up readers and the job mix spawned.
fn boot(scheme: Scheme, mode: LockMode, scale: Scale) -> Kernel {
    let tuning = Tuning {
        rw_inode_lock: mode.rw(),
        // Immediate loan revocation: the victim's sub-millisecond idle
        // gaps must not turn into 10 ms loans of its CPUs.
        ipi_revocation: true,
        // A 2 ms slice (vs the stock 30 ms) bounds how long a woken
        // process waits behind a running slice. With the stock slice a
        // single dispatch delay dwarfs every lock hold and the matrix
        // measures slice granularity, not lock traffic.
        slice: SimDuration::from_millis(2),
        ..Tuning::default()
    };
    let cfg = MachineConfig::builder()
        .topology(4, 48, 1)
        .scheme(scheme)
        .tuning(tuning)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
    let vic_file = k.create_file(0, FILE_BLOCKS * PAGE_SIZE, 0);
    let ant_file = k.create_file(0, FILE_BLOCKS * PAGE_SIZE, 0);

    // Untracked warm-up readers pull both files into the cache so the
    // measured jobs exercise the lookup path, not the disk.
    let warm = |name: &str, file| {
        Program::builder(name)
            .read(file, 0, FILE_BLOCKS * PAGE_SIZE)
            .build()
    };
    k.spawn_at(
        SpuId::user(0),
        warm("warm-v", vic_file),
        None,
        SimTime::ZERO,
    );
    k.spawn_at(
        SpuId::user(1),
        warm("warm-a", ant_file),
        None,
        SimTime::ZERO,
    );

    // The long-running processes start at once. By the time the victim
    // jobs arrive their decayed usage has climbed a few priority bands,
    // so a fresh victim job (band 0) wins every scheduler pick — the
    // classic interactive-over-batch split of decay-usage scheduling.
    let early = SimTime::from_millis(10);
    let vic_start = SimTime::from_millis(400);

    // Two untracked CPU soakers keep the victim's half of the machine
    // busy whenever its jobs block on the lock. Without them PIso would
    // loan the victim's momentarily idle CPUs to the antagonist —
    // work-conserving sharing that erases exactly the throttling this
    // experiment measures. Decay-usage pushes the long-running soakers
    // below the short victim jobs, so they only ever consume capacity
    // the jobs were not using.
    let soak = Program::builder("soak")
        .compute(soaker_len(scale), 0)
        .build();
    for _ in 0..2 {
        k.spawn_at(SpuId::user(0), soak.clone(), None, early);
    }

    // Antagonist: a pool of processes looping lookup + compute. The
    // compute phase makes the lock-acquisition rate CPU-limited, which
    // is exactly the lever the schemes differ on.
    let (procs, iters) = antagonist_params(scale);
    let mut ab = Program::builder("ant");
    for i in 0..iters {
        ab = ab
            .read(ant_file, (i % FILE_BLOCKS) * PAGE_SIZE, 64)
            .compute(SimDuration::from_micros(300), 0);
    }
    let ant = ab.build();
    for p in 0..procs {
        k.spawn_at(
            SpuId::user(1),
            ant.clone(),
            Some(&format!("ant-{p}")),
            early,
        );
    }

    // Victim: staggered small requests — each read is one pathname
    // lookup (root lock, 40 µs) plus a cached block copy, interleaved
    // with a little compute.
    let (jobs, reads, stagger) = victim_params(scale);
    let mut vb = Program::builder("vic");
    for i in 0..reads {
        vb = vb
            .read(vic_file, (i as u64 % FILE_BLOCKS) * PAGE_SIZE, 64)
            .compute(SimDuration::from_micros(160), 0);
    }
    let vic = vb.build();
    for j in 0..jobs {
        k.spawn_at(
            SpuId::user(0),
            vic.clone(),
            Some(&format!("vic-{j}")),
            vic_start + stagger.mul_f64(j as f64),
        );
    }
    k
}

/// One scheme × lock-mode measurement.
#[derive(Clone, Debug)]
pub struct LeakRow {
    /// Resource-management scheme.
    pub scheme: Scheme,
    /// Root-lock mode.
    pub mode: LockMode,
    /// Victim time spent waiting on antagonist-held root locks, seconds
    /// (the antagonist→victim `lock.root` matrix cell).
    pub vic_wait_on_ant_s: f64,
    /// Number of such waits.
    pub vic_wait_events: u64,
    /// The reverse cell: antagonist waits behind the victim, seconds.
    pub ant_wait_on_vic_s: f64,
    /// Total CPU-revocation delay attributed across SPUs, seconds.
    pub revoke_s: f64,
    /// Victim p99 response, seconds.
    pub vic_p99_s: f64,
    /// Victim SLO-violation fraction.
    pub vic_violation_frac: f64,
    /// Victim SLO-met jobs per simulated second.
    pub vic_goodput: f64,
    /// Victim tracked jobs.
    pub vic_jobs: u64,
    /// Whether every process finished before the cap.
    pub completed: bool,
}

/// Results of the scheme × lock-mode matrix.
#[derive(Clone, Debug)]
pub struct LockLeakageResult {
    /// All rows, scheme-major in [`Scheme::ALL`] × [`LockMode::ALL`]
    /// order.
    pub rows: Vec<LeakRow>,
}

impl LockLeakageResult {
    /// The row for a `(scheme, mode)` pair.
    pub fn row(&self, scheme: Scheme, mode: LockMode) -> &LeakRow {
        self.rows
            .iter()
            .find(|r| r.scheme == scheme && r.mode == mode)
            .expect("full matrix")
    }

    /// One table per lock mode: who the victim waited on, and what it
    /// cost the victim's SLO.
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str("Lock leakage: victim waits behind the antagonist's root-lock holds\n");
        for &mode in &LockMode::ALL {
            out.push_str(&format!("\nlock mode: {}\n", mode.name()));
            let rows: Vec<Vec<String>> = Scheme::ALL
                .iter()
                .map(|&s| {
                    let r = self.row(s, mode);
                    vec![
                        s.label().to_string(),
                        format!("{:.3}", r.vic_wait_on_ant_s * 1e3),
                        r.vic_wait_events.to_string(),
                        format!("{:.3}", r.ant_wait_on_vic_s * 1e3),
                        format!("{:.3}", r.revoke_s * 1e3),
                        format!("{:.2}", r.vic_p99_s * 1e3),
                        format!("{:.3}", r.vic_violation_frac),
                        format!("{:.1}", r.vic_goodput),
                    ]
                })
                .collect();
            out.push_str(&render_table(
                &[
                    "scheme",
                    "vic-wait ms",
                    "waits",
                    "ant-wait ms",
                    "revoke ms",
                    "p99 ms",
                    "viol frac",
                    "goodput/s",
                ],
                &rows,
            ));
        }
        out
    }
}

/// Runs one scheme × lock-mode cell with attribution and the SLO
/// tracker on.
pub fn run_one(scheme: Scheme, mode: LockMode, scale: Scale) -> LeakRow {
    let mut k = boot(scheme, mode, scale);
    k.enable_attribution();
    k.enable_slo(slo_target());
    let m = k.run(CAP);
    row_from_metrics(scheme, mode, &m)
}

fn row_from_metrics(scheme: Scheme, mode: LockMode, m: &RunMetrics) -> LeakRow {
    let vic = SpuId::user(0);
    let ant = SpuId::user(1);
    let inter = m.interference();
    let (p99, viol, goodput, jobs) = match m.slo().spu(vic) {
        Some(s) => (s.p99, s.violation_frac, s.goodput, s.jobs),
        None => (0.0, 0.0, 0.0, 0),
    };
    LeakRow {
        scheme,
        mode,
        vic_wait_on_ant_s: m.interference_amount(Channel::LockRoot, vic, ant),
        vic_wait_events: inter.matrix.events(Channel::LockRoot, vic, ant),
        ant_wait_on_vic_s: m.interference_amount(Channel::LockRoot, ant, vic),
        revoke_s: inter.matrix.channel_total(Channel::CpuRevoke) as f64 / 1e9,
        vic_p99_s: p99,
        vic_violation_frac: viol,
        vic_goodput: goodput,
        vic_jobs: jobs,
        completed: m.completed,
    }
}

impl sweep::Outcome for LeakRow {
    fn encode(&self) -> Value {
        Value::list(vec![
            Value::S(self.scheme.label().to_string()),
            Value::S(self.mode.name().to_string()),
            Value::F(self.vic_wait_on_ant_s),
            Value::U(self.vic_wait_events),
            Value::F(self.ant_wait_on_vic_s),
            Value::F(self.revoke_s),
            Value::F(self.vic_p99_s),
            Value::F(self.vic_violation_frac),
            Value::F(self.vic_goodput),
            Value::U(self.vic_jobs),
            Value::B(self.completed),
        ])
    }
}

impl Render for LockLeakageResult {
    fn render(&self) -> String {
        self.format()
    }
}

/// The lock-leakage matrix as a [`Scenario`]: scheme × lock-mode
/// cells.
pub struct LockLeakageScenario {
    /// Workload scale.
    pub scale: Scale,
}

impl Scenario for LockLeakageScenario {
    type Cell = (Scheme, LockMode);
    type Outcome = LeakRow;
    type Report = LockLeakageResult;

    fn name(&self) -> &'static str {
        "lock-leakage"
    }

    fn cells(&self) -> Vec<Self::Cell> {
        Scheme::ALL
            .iter()
            .flat_map(|&s| LockMode::ALL.iter().map(move |&m| (s, m)))
            .collect()
    }

    fn cell_key(&self, &(scheme, mode): &Self::Cell) -> String {
        format!("{}-{}", scheme.label().to_lowercase(), mode.name())
    }

    fn run_cell(&self, &(scheme, mode): &Self::Cell) -> LeakRow {
        run_one(scheme, mode, self.scale)
    }

    fn reduce(&self, outcomes: Vec<LeakRow>) -> LockLeakageResult {
        LockLeakageResult { rows: outcomes }
    }
}

/// Runs the full matrix: every scheme under both lock modes.
pub fn run(scale: Scale) -> LockLeakageResult {
    sweep::run_scenario(&LockLeakageScenario { scale }, &SweepOptions::new()).report
}

/// Runs the instrumented cell's kernel with every observer off — the
/// baseline the benches compare [`run_instrumented`] against to price
/// the attribution + export layer.
pub fn run_baseline(scale: Scale) -> RunMetrics {
    boot(Scheme::PIso, LockMode::Excl, scale).run(CAP)
}

/// Runs the instrumented cell (PIso, exclusive mode — where both the
/// lock channel and CPU revocation show up) with attribution, the SLO
/// tracker, tracing and 10 ms sampling on. The metrics export carries
/// the interference and SLO lines and the trace the `lock-wait:*`
/// spans; [`smp_kernel::interference_matrix_json`] renders the matrix
/// alone from `metrics.interference()`. Deterministic: equal scales give
/// byte-identical exports.
pub fn run_instrumented(scale: Scale) -> InstrumentedRun {
    let mut k = boot(Scheme::PIso, LockMode::Excl, scale);
    k.enable_attribution();
    k.enable_slo(slo_target());
    k.enable_trace(1 << 20);
    k.enable_sampling(SimDuration::from_millis(10));
    let metrics = k.run(CAP);
    InstrumentedRun::new(&k, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_shows_shrinking_leakage() {
        let r = run(Scale::Quick);
        for row in &r.rows {
            assert!(row.completed, "{:?}/{:?} hit cap", row.scheme, row.mode);
            assert_eq!(row.vic_jobs, victim_params(Scale::Quick).0);
        }
        // The antagonist→victim lock.root cell is the §3.4 leak: present
        // under SMP + exclusive…
        let smp_excl = r.row(Scheme::Smp, LockMode::Excl);
        assert!(
            smp_excl.vic_wait_on_ant_s > 0.0 && smp_excl.vic_wait_events > 0,
            "no leak under SMP/excl: {smp_excl:?}"
        );
        // …smaller once PIso throttles the antagonist's CPUs…
        let piso_excl = r.row(Scheme::PIso, LockMode::Excl);
        assert!(
            piso_excl.vic_wait_on_ant_s < smp_excl.vic_wait_on_ant_s,
            "PIso did not shrink the leak: {} vs {}",
            piso_excl.vic_wait_on_ant_s,
            smp_excl.vic_wait_on_ant_s
        );
        // …and smaller again under the reader-writer fix.
        let piso_rw = r.row(Scheme::PIso, LockMode::Rw);
        assert!(
            piso_rw.vic_wait_on_ant_s < piso_excl.vic_wait_on_ant_s,
            "rw mode did not shrink the leak: {} vs {}",
            piso_rw.vic_wait_on_ant_s,
            piso_excl.vic_wait_on_ant_s
        );
    }

    #[test]
    fn attribution_is_pure_observation() {
        // Enabling the trackers must not move a single job.
        let m_plain = boot(Scheme::Smp, LockMode::Excl, Scale::Quick).run(CAP);
        let mut k = boot(Scheme::Smp, LockMode::Excl, Scale::Quick);
        k.enable_attribution();
        k.enable_slo(slo_target());
        let m_obs = k.run(CAP);
        assert_eq!(m_plain.end_time, m_obs.end_time);
        let finished = |m: &RunMetrics| {
            m.jobs
                .iter()
                .map(|j| (j.label.clone(), j.started, j.finished))
                .collect::<Vec<_>>()
        };
        assert_eq!(finished(&m_plain), finished(&m_obs));
        assert!(m_plain.interference().is_empty());
        assert!(!m_obs.interference().is_empty());
    }

    #[test]
    fn instrumented_run_is_deterministic_and_exports_everything() {
        let a = run_instrumented(Scale::Quick);
        let b = run_instrumented(Scale::Quick);
        assert_eq!(a.metrics_jsonl, b.metrics_jsonl);
        assert_eq!(a.chrome_trace, b.chrome_trace);
        assert_eq!(
            smp_kernel::interference_matrix_json(a.metrics.interference()),
            smp_kernel::interference_matrix_json(b.metrics.interference())
        );
        assert!(a.metrics_jsonl.contains("\"type\":\"interference\""));
        assert!(a.metrics_jsonl.contains("\"type\":\"slo\""));
        assert!(a.metrics_jsonl.contains("\"type\":\"slo_sample\""));
        assert!(a.chrome_trace.contains("lock-wait:root"));
    }
}
