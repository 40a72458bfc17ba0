//! The multi-tenant consolidation experiment: what the SPU *hierarchy*
//! buys over flat SPUs (hierarchy extension).
//!
//! The paper's SPUs are a flat partition: one isolation domain per
//! "master". A consolidation host has structure the flat model cannot
//! express — *tenants* buy entitlement ceilings and subdivide them among
//! *services*. This experiment puts two tenants on one machine, each
//! with a latency-sensitive service and (for the first tenant) an
//! antagonist sibling, and measures isolation at both levels:
//!
//! * **Tenant-level**: tenant `bell`'s service must not feel tenant
//!   `acme`'s overload. Any per-tenant partition delivers this; SMP
//!   does not.
//! * **Service-level**: `acme`'s victim service must not feel its *own
//!   sibling's* overload. A flat SPU per tenant mixes the siblings into
//!   one domain and loses exactly this; only the hierarchy keeps a
//!   per-leaf entitlement under the tenant ceiling.
//!
//! Three layouts of the same machine and workload:
//!
//! * [`Layout::Smp`] — four SPUs, no isolation (per-process fair share).
//! * [`Layout::FlatPIso`] — the best the *flat* model offers a
//!   consolidation host: one SPU per tenant (weights 2:2), services
//!   mixed inside their tenant's domain.
//! * [`Layout::HierPIso`] — the hierarchy: one leaf SPU per service
//!   under per-tenant ceilings ([`SpuTree`](spu_core::SpuTree)),
//!   sibling-first lending and tenant-aware revocation in force.
//!
//! The antagonist is an open-loop stream of fork-bursts (fresh
//! processes start at the best priority band, so decay-usage scheduling
//! cannot save the victims) driven past its entitled capacity. Victim
//! services are modest Poisson request streams judged against a 30 ms
//! target. Machine: `cpus` CPUs (seed matrix: 4), 12 MB/CPU, one disk;
//! all knobs scale linearly with the CPU count as in
//! [`crate::overload`].

use std::fmt::Write as _;

use event_sim::{ArrivalProcess, SimDuration, SimTime};
use smp_kernel::export::{Num, Str};
use smp_kernel::{Kernel, MachineConfig, Program, RunMetrics, Tuning};
use spu_core::{Scheme, SpuId, SpuSet};
use workloads::ServiceConfig;

use crate::report::render_table;
use crate::sweep::{self, Render, Scenario, SweepOptions, Value};
use crate::Scale;

/// Victim response-time target (also every request's deadline).
pub fn slo_target() -> SimDuration {
    SimDuration::from_millis(30)
}

/// Run cap — the antagonist backlog drains long before this.
const CAP: SimTime = SimTime::from_secs(60);

/// Offered antagonist load as a multiple of its entitled capacity, in
/// tenths: 1.0× (everyone healthy) and 4.0× (the machine itself is
/// oversubscribed, so *somebody* must eat the backlog).
pub const LOADS: [u32; 2] = [10, 40];

/// Antagonist fork-burst fan-out: children per burst. Each child is a
/// fresh process in the best priority band — per-process fair share
/// (SMP) must give it a full share against a victim request.
const NOISY_FANOUT: u32 = 4;

/// CPU count of the seed matrix machine.
pub const SEED_CPUS: usize = 4;

/// Total CPU work per antagonist burst.
fn noisy_burst_cpu() -> SimDuration {
    SimDuration::from_millis(10)
}

/// Antagonist entitled capacity in bursts/second: 1 of 4 entitlement
/// shares (1 CPU on the seed machine) at 10 ms of CPU per burst.
fn noisy_entitled_rate(cpus: usize) -> f64 {
    (cpus as f64 / 4.0) / noisy_burst_cpu().as_secs_f64()
}

/// Victim offered rate: ~50% of the service's 1-share entitlement at
/// 2 ms per request (250/s on the seed machine).
fn service_rate(cpus: usize) -> f64 {
    62.5 * cpus as f64
}

fn horizon(scale: Scale) -> SimTime {
    match scale {
        Scale::Full => SimTime::from_secs(8),
        Scale::Quick => SimTime::from_secs(2),
    }
}

const VIC_SEED: u64 = 31;
const VIC2_SEED: u64 = 32;
const NOISY_SEED: u64 = 33;

/// Renders a tenths load factor as `x1.0` / `x4.0`.
pub fn load_label(tenths: u32) -> String {
    format!("x{}.{}", tenths / 10, tenths % 10)
}

/// How the two tenants map onto isolation domains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Four SPUs, SMP scheme: no isolation at either level.
    Smp,
    /// One flat PIso SPU per tenant: tenant-level isolation only.
    FlatPIso,
    /// One leaf SPU per service under tenant ceilings: both levels.
    HierPIso,
}

impl Layout {
    /// All layouts in presentation order.
    pub const ALL: [Layout; 3] = [Layout::Smp, Layout::FlatPIso, Layout::HierPIso];

    /// Short label for tables and cell keys.
    pub fn label(self) -> &'static str {
        match self {
            Layout::Smp => "SMP",
            Layout::FlatPIso => "flat",
            Layout::HierPIso => "hier",
        }
    }

    /// The scheme the layout runs under.
    pub fn scheme(self) -> Scheme {
        match self {
            Layout::Smp => Scheme::Smp,
            Layout::FlatPIso | Layout::HierPIso => Scheme::PIso,
        }
    }
}

/// `(victim, antagonist, second-tenant victim)` SPU ids for a layout.
fn actors(layout: Layout) -> (SpuId, SpuId, SpuId) {
    match layout {
        // One SPU per tenant: the antagonist shares the victim's domain.
        Layout::FlatPIso => (SpuId::user(0), SpuId::user(0), SpuId::user(1)),
        // One SPU per service.
        Layout::Smp | Layout::HierPIso => (SpuId::user(0), SpuId::user(1), SpuId::user(2)),
    }
}

/// Boots one cell: victim service streams on `acme/vic` and
/// `bell/vic2`, the fork-burst antagonist on `acme/noisy`, `bell/spare`
/// idle. The hierarchical layout is declared through the builder's
/// [`tenant`](smp_kernel::MachineConfigBuilder::tenant) /
/// [`service`](smp_kernel::MachineConfigBuilder::service) surface; the
/// flat layouts carry the same tenant structure only in their display
/// names. The workload streams are identical plans in every layout, so
/// rows differ *only* in how the domains are drawn.
fn boot(layout: Layout, load_tenths: u32, scale: Scale, cpus: usize) -> Kernel {
    let tuning = Tuning {
        // Loans must snap back the instant a victim request lands.
        ipi_revocation: true,
        // Short slices: dispatch wait behind the antagonist's fresh
        // children is material under per-process fair share.
        slice: SimDuration::from_millis(2),
        ..Tuning::default()
    };
    let builder = MachineConfig::builder()
        .topology(cpus, 12 * cpus as u64, 1)
        .scheme(layout.scheme())
        .tuning(tuning);
    let (cfg, spus) = match layout {
        Layout::HierPIso => builder
            .tenant("acme", 2)
            .service("vic", 1)
            .service("noisy", 1)
            .tenant("bell", 2)
            .service("vic2", 1)
            .service("spare", 1)
            .build_with_spus()
            .unwrap(),
        Layout::FlatPIso => {
            let cfg = builder.build().unwrap();
            let spus = SpuSet::with_weights(&[2, 2])
                .named(0, "acme")
                .named(1, "bell");
            (cfg, spus)
        }
        Layout::Smp => {
            let cfg = builder.build().unwrap();
            let spus = SpuSet::equal_users(4)
                .named(0, "acme/vic")
                .named(1, "acme/noisy")
                .named(2, "bell/vic2")
                .named(3, "bell/spare");
            (cfg, spus)
        }
    };
    let (vic, noisy, vic2) = actors(layout);
    let mut k = Kernel::new(cfg, spus);
    let h = horizon(scale);

    // The victims: Poisson streams of 2 ms pure-CPU requests at ~50% of
    // each service's entitlement. Pure CPU: a cold disk read would
    // dominate the 10 ms budget and hide the scheduling story.
    let svc = |seed: u64| ServiceConfig {
        cpu_burst: SimDuration::from_millis(2),
        read_bytes: 0,
        deadline: slo_target(),
        seed,
        ..ServiceConfig::default()
    };
    let vplan = ArrivalProcess::Poisson {
        rate_per_sec: service_rate(cpus),
    }
    .generate(VIC_SEED, h);
    svc(VIC_SEED).spawn_stream(&mut k, vic, 0, &vplan, "vic");
    let v2plan = ArrivalProcess::Poisson {
        rate_per_sec: service_rate(cpus),
    }
    .generate(VIC2_SEED, h);
    svc(VIC2_SEED).spawn_stream(&mut k, vic2, 0, &v2plan, "vic2");

    // The antagonist: open-loop fork-bursts at load × entitled
    // capacity. Unlabelled processes, so they are never SLO-scored —
    // in the flat layout they share the victim's SPU, and a labelled
    // job would pollute the victim's per-SPU SLO row.
    let child = Program::builder("noisy-child")
        .compute(
            SimDuration::from_nanos(noisy_burst_cpu().as_nanos() / NOISY_FANOUT as u64),
            0,
        )
        .build();
    let mut rb = Program::builder("noisy-burst");
    for _ in 0..NOISY_FANOUT {
        rb = rb.fork(child.clone());
    }
    let burst = rb.wait_children().build();
    let nplan = ArrivalProcess::Poisson {
        rate_per_sec: noisy_entitled_rate(cpus) * load_tenths as f64 / 10.0,
    }
    .generate(NOISY_SEED, h);
    for &at in nplan.times() {
        k.spawn_at(noisy, burst.clone(), None, at);
    }
    k
}

/// One layout × load measurement.
#[derive(Clone, Debug)]
pub struct ConsolidationRow {
    /// Domain layout.
    pub layout: Layout,
    /// Antagonist load factor in tenths of entitled capacity.
    pub load_tenths: u32,
    /// `acme/vic` p99 response, seconds — the *service-level* victim
    /// (shares a tenant with the antagonist).
    pub vic_p99_s: f64,
    /// `acme/vic` requests over target (or unfinished at run end).
    pub vic_violated: u64,
    /// `acme/vic` requests scored.
    pub vic_jobs: u64,
    /// `bell/vic2` p99 response, seconds — the *tenant-level* victim
    /// (a different tenant from the antagonist).
    pub vic2_p99_s: f64,
    /// `bell/vic2` requests over target.
    pub vic2_violated: u64,
    /// `bell/vic2` requests scored.
    pub vic2_jobs: u64,
    /// Whether every process finished before the cap.
    pub completed: bool,
}

/// Results of the layout × load matrix.
#[derive(Clone, Debug)]
pub struct ConsolidationResult {
    /// All rows in [`Layout::ALL`] × [`LOADS`] order.
    pub rows: Vec<ConsolidationRow>,
}

impl ConsolidationResult {
    /// The row for a `(layout, load)` pair.
    pub fn row(&self, layout: Layout, load_tenths: u32) -> &ConsolidationRow {
        self.rows
            .iter()
            .find(|r| r.layout == layout && r.load_tenths == load_tenths)
            .expect("full matrix")
    }

    /// One table per load factor.
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Consolidation: two tenants, a noisy sibling, a {} ms target\n",
            slo_target().as_millis_f64()
        ));
        for &load in &LOADS {
            out.push_str(&format!("\nantagonist load {}\n", load_label(load)));
            let rows: Vec<Vec<String>> = Layout::ALL
                .iter()
                .map(|&l| {
                    let r = self.row(l, load);
                    vec![
                        l.label().to_string(),
                        format!("{:.2}", r.vic_p99_s * 1e3),
                        r.vic_violated.to_string(),
                        r.vic_jobs.to_string(),
                        format!("{:.2}", r.vic2_p99_s * 1e3),
                        r.vic2_violated.to_string(),
                        r.vic2_jobs.to_string(),
                    ]
                })
                .collect();
            out.push_str(&render_table(
                &[
                    "layout",
                    "vic p99 ms",
                    "vic viol",
                    "vic jobs",
                    "vic2 p99 ms",
                    "vic2 viol",
                    "vic2 jobs",
                ],
                &rows,
            ));
        }
        out
    }
}

/// The matrix as one JSON document (the CI artifact): an array of row
/// objects.
pub fn consolidation_matrix_json(result: &ConsolidationResult) -> String {
    let mut out = String::from("[");
    for (i, r) in result.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"layout\":{},\"load\":{},\
             \"vic_p99_secs\":{},\"vic_violated\":{},\"vic_jobs\":{},\
             \"vic2_p99_secs\":{},\"vic2_violated\":{},\"vic2_jobs\":{},\
             \"completed\":{}}}",
            Str(r.layout.label()),
            Num(r.load_tenths as f64 / 10.0),
            Num(r.vic_p99_s),
            r.vic_violated,
            r.vic_jobs,
            Num(r.vic2_p99_s),
            r.vic2_violated,
            r.vic2_jobs,
            r.completed
        );
    }
    out.push_str("\n]\n");
    out
}

/// Runs one cell with the SLO tracker on.
pub fn run_one(layout: Layout, load_tenths: u32, scale: Scale) -> ConsolidationRow {
    run_one_at(layout, load_tenths, scale, SEED_CPUS)
}

/// Runs one cell on a machine with `cpus` CPUs.
pub fn run_one_at(layout: Layout, load_tenths: u32, scale: Scale, cpus: usize) -> ConsolidationRow {
    let mut k = boot(layout, load_tenths, scale, cpus);
    k.enable_slo(slo_target());
    let m = k.run(CAP);
    row_from_metrics(layout, load_tenths, &m)
}

fn row_from_metrics(layout: Layout, load_tenths: u32, m: &RunMetrics) -> ConsolidationRow {
    let (vic, _, vic2) = actors(layout);
    // In the flat layout the antagonist shares `vic`'s SPU, but its
    // bursts are unlabelled (never scored), so the row is purely the
    // victim's even there.
    let pick = |spu: SpuId| match m.slo().spu(spu) {
        Some(s) => (s.p99, s.violated, s.jobs),
        None => (0.0, 0, 0),
    };
    let (vic_p99_s, vic_violated, vic_jobs) = pick(vic);
    let (vic2_p99_s, vic2_violated, vic2_jobs) = pick(vic2);
    ConsolidationRow {
        layout,
        load_tenths,
        vic_p99_s,
        vic_violated,
        vic_jobs,
        vic2_p99_s,
        vic2_violated,
        vic2_jobs,
        completed: m.completed,
    }
}

/// Aggregates the per-service SLO rows of a hierarchical run to tenant
/// level: `(tenant name, jobs, violated, worst p99 seconds)` per
/// tenant, in declaration order. Empty on a flat SPU set.
pub fn tenant_rollup(m: &RunMetrics, spus: &SpuSet) -> Vec<(String, u64, u64, f64)> {
    let Some(tree) = spus.tree() else {
        return Vec::new();
    };
    tree.tenants()
        .iter()
        .enumerate()
        .map(|(t, tenant)| {
            let mut jobs = 0;
            let mut violated = 0;
            let mut p99 = 0.0f64;
            for row in &m.slo().per_spu {
                if spus.tenant_of(row.spu) == Some(t) {
                    jobs += row.jobs;
                    violated += row.violated;
                    p99 = p99.max(row.p99);
                }
            }
            (tenant.name().to_string(), jobs, violated, p99)
        })
        .collect()
}

impl sweep::Outcome for ConsolidationRow {
    fn encode(&self) -> Value {
        Value::list(vec![
            Value::S(self.layout.label().to_string()),
            Value::U(self.load_tenths as u64),
            Value::F(self.vic_p99_s),
            Value::U(self.vic_violated),
            Value::U(self.vic_jobs),
            Value::F(self.vic2_p99_s),
            Value::U(self.vic2_violated),
            Value::U(self.vic2_jobs),
            Value::B(self.completed),
        ])
    }
}

impl Render for ConsolidationResult {
    fn render(&self) -> String {
        self.format()
    }
}

/// The consolidation matrix as a [`Scenario`]: layout × load cells on a
/// machine with `cpus` CPUs.
pub struct ConsolidationScenario {
    /// Workload scale.
    pub scale: Scale,
    /// Machine size. [`SEED_CPUS`] reproduces the seed matrix exactly;
    /// larger values scale rates linearly.
    pub cpus: usize,
}

impl ConsolidationScenario {
    /// The seed 4-CPU matrix.
    pub fn seed(scale: Scale) -> Self {
        Self::at(scale, SEED_CPUS)
    }

    /// The matrix on a machine with `cpus` CPUs.
    pub fn at(scale: Scale, cpus: usize) -> Self {
        ConsolidationScenario { scale, cpus }
    }
}

impl Scenario for ConsolidationScenario {
    type Cell = (Layout, u32);
    type Outcome = ConsolidationRow;
    type Report = ConsolidationResult;

    fn name(&self) -> &'static str {
        if self.cpus == SEED_CPUS {
            "consolidation"
        } else {
            "consolidation-large"
        }
    }

    fn cells(&self) -> Vec<Self::Cell> {
        Layout::ALL
            .iter()
            .flat_map(|&l| LOADS.iter().map(move |&load| (l, load)))
            .collect()
    }

    fn cell_key(&self, &(layout, load): &Self::Cell) -> String {
        format!("{}-{}", layout.label().to_lowercase(), load_label(load))
    }

    fn run_cell(&self, &(layout, load): &Self::Cell) -> ConsolidationRow {
        run_one_at(layout, load, self.scale, self.cpus)
    }

    fn reduce(&self, outcomes: Vec<ConsolidationRow>) -> ConsolidationResult {
        ConsolidationResult { rows: outcomes }
    }
}

/// Runs the full matrix: every layout × load factor.
pub fn run(scale: Scale) -> ConsolidationResult {
    sweep::run_scenario(&ConsolidationScenario::seed(scale), &SweepOptions::new()).report
}

/// Runs the full matrix on a machine with `cpus` CPUs.
pub fn run_at(scale: Scale, cpus: usize) -> ConsolidationResult {
    sweep::run_scenario(
        &ConsolidationScenario::at(scale, cpus),
        &SweepOptions::new(),
    )
    .report
}

/// One fully instrumented run of the headline cell (hierarchical, 4.0×):
/// SLO tracker, sampling, tracing, all exports rendered, tenant rollup
/// computed.
pub struct ConsolidationInstrumented {
    /// The run's metrics.
    pub metrics: RunMetrics,
    /// JSONL metrics export (`spu.tree.*` counters included).
    pub metrics_jsonl: String,
    /// Chrome trace-event JSON (process names are tenant/service paths).
    pub chrome_trace: String,
    /// Leaf→tenant SLO rollup: `(tenant, jobs, violated, worst p99 s)`.
    pub tenants: Vec<(String, u64, u64, f64)>,
}

/// Runs the instrumented headline cell. Deterministic: equal scales
/// give byte-identical exports.
pub fn run_instrumented(scale: Scale) -> ConsolidationInstrumented {
    let mut k = boot(Layout::HierPIso, 40, scale, SEED_CPUS);
    k.enable_slo(slo_target());
    k.enable_trace(1 << 20);
    k.enable_sampling(SimDuration::from_millis(10));
    let metrics = k.run(CAP);
    let metrics_jsonl = smp_kernel::metrics_jsonl(&metrics);
    let chrome_trace = smp_kernel::chrome_trace_json(k.trace(), k.spus(), &metrics.obsv);
    let tenants = tenant_rollup(&metrics, k.spus());
    ConsolidationInstrumented {
        metrics,
        metrics_jsonl,
        chrome_trace,
        tenants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_shows_isolation_at_both_levels() {
        let r = run(Scale::Quick);
        let target = slo_target().as_secs_f64();
        for row in &r.rows {
            assert!(
                row.completed,
                "{}/{} hit cap",
                row.layout.label(),
                load_label(row.load_tenths)
            );
            assert!(row.vic_jobs > 0 && row.vic2_jobs > 0);
        }
        // At 1.0× the antagonist is within its entitlement and nobody
        // suffers, whatever the layout — the matrix measures overload
        // isolation, not steady-state overhead.
        for layout in Layout::ALL {
            let row = r.row(layout, 10);
            assert!(
                row.vic_p99_s <= target && row.vic2_p99_s <= target,
                "{} at x1.0: p99s {}/{} above target {target}",
                layout.label(),
                row.vic_p99_s,
                row.vic2_p99_s
            );
        }
        let hier = r.row(Layout::HierPIso, 40);
        let flat = r.row(Layout::FlatPIso, 40);
        let smp = r.row(Layout::Smp, 40);
        // Service-level isolation: only the hierarchy protects the
        // antagonist's own sibling. The flat per-tenant domain mixes
        // them, SMP mixes everyone.
        assert!(
            hier.vic_p99_s <= target,
            "hier vic p99 {} above target {target}",
            hier.vic_p99_s
        );
        assert_eq!(hier.vic_violated, 0, "hier vic violations");
        assert!(
            flat.vic_p99_s > target,
            "flat vic p99 {} did not blow past target {target}",
            flat.vic_p99_s
        );
        assert!(
            smp.vic_p99_s > target,
            "SMP vic p99 {} did not blow past target {target}",
            smp.vic_p99_s
        );
        assert!(hier.vic_p99_s < flat.vic_p99_s, "hier not better than flat");
        assert!(hier.vic_p99_s < smp.vic_p99_s, "hier not better than SMP");
        // Tenant-level isolation: both partitioned layouts protect the
        // other tenant; SMP lets the overload cross the tenant line.
        assert!(
            hier.vic2_p99_s <= target && flat.vic2_p99_s <= target,
            "partitioned layouts must protect tenant bell: hier {} flat {}",
            hier.vic2_p99_s,
            flat.vic2_p99_s
        );
        assert!(
            smp.vic2_p99_s > target,
            "SMP vic2 p99 {} did not blow past target {target}",
            smp.vic2_p99_s
        );
        assert!(
            hier.vic2_p99_s < smp.vic2_p99_s,
            "hier not better than SMP for tenant bell"
        );
    }

    #[test]
    fn instrumented_run_is_deterministic_and_rolls_up_tenants() {
        let a = run_instrumented(Scale::Quick);
        let b = run_instrumented(Scale::Quick);
        assert_eq!(a.metrics_jsonl, b.metrics_jsonl);
        assert_eq!(a.chrome_trace, b.chrome_trace);
        crate::report::check_export_digest("consolidation_metrics.jsonl", &a.metrics_jsonl);
        crate::report::check_export_digest("consolidation_trace.json", &a.chrome_trace);
        // The hierarchy shows up in every export surface: tree counters
        // in the JSONL, tenant/service paths in SLO rows and the trace.
        assert!(a.metrics_jsonl.contains("spu.tree.tenants"));
        assert!(a.metrics_jsonl.contains("spu.tree.acme.ceiling"));
        assert!(a.metrics_jsonl.contains("acme/vic"));
        assert!(a.chrome_trace.contains("bell/vic2"));
        // Leaf→tenant rollup: two tenants in declaration order, and
        // every scored job accounted to exactly one tenant.
        assert_eq!(a.tenants.len(), 2);
        assert_eq!(a.tenants[0].0, "acme");
        assert_eq!(a.tenants[1].0, "bell");
        let scored: u64 = a.metrics.slo().per_spu.iter().map(|s| s.jobs).sum();
        assert_eq!(a.tenants[0].1 + a.tenants[1].1, scored);
        assert!(a.tenants[0].1 > 0 && a.tenants[1].1 > 0);
    }

    #[test]
    fn cell_keys_are_unique_and_scaled_machine_is_named_apart() {
        let s = ConsolidationScenario::seed(Scale::Quick);
        let keys: Vec<String> = s.cells().iter().map(|c| s.cell_key(c)).collect();
        let mut dedup = keys.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(keys.len(), dedup.len(), "cell keys must be unique");
        let large = ConsolidationScenario::at(Scale::Quick, 128);
        assert_eq!(large.name(), "consolidation-large");
    }
}
