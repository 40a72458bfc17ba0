//! The four seeded workloads.
//!
//! Every cell boots a fresh kernel, so simulated buffer caches and
//! memory start cold by design. A cell is set up in three phases that
//! the traced run records as separate spans: [`Workload::boot`]
//! (configuration and `Kernel::new`), [`Workload::generate`] (the
//! `workloads` builders, arrival plans and programs, drawn from the
//! cell's random stream) and [`spawn_all`] (the `spawn_at` /
//! `spawn_request_at` calls). The kernel only ever sees the generated
//! programs and instants, never the seed.

use std::sync::Arc;

use event_sim::{ArrivalProcess, SimDuration, SimTime, SplitMix64};
use hp_disk::SchedulerKind;
use smp_kernel::{Kernel, MachineConfig, Program, Tuning, PAGE_SIZE};
use spu_core::{Scheme, ShedPolicy, SpuId};
use workloads::{copy_job, PmakeConfig};

/// Label of every victim job; `victim_tail_sim_ms` pools their responses.
pub const VICTIM: &str = "vic";

/// Simulated-time cap of one cell; a cell that reaches it fails.
pub const CAP: SimTime = SimTime::from_secs(300);

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 512 CPUs and 1024 flat PIso SPUs of long CPU-bound processes,
    /// plus a Poisson stream of short victim requests on SPU 0.
    CpuScale,
    /// 16 CPUs, 64 MB and 8 PIso SPUs running memory-hungry pmake jobs.
    MemPressure,
    /// Four shared disks, each carrying scattered pmake traffic beside
    /// sequential copies.
    DiskMix,
    /// A tenant tree under open-loop overload with admission control,
    /// attribution, SLO tracking and sampling on.
    ServiceOverload,
}

/// Input size. `Bench` is the frozen benchmark shape; `Tiny` keeps each
/// workload's structure at a size a unit test can afford.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's inputs.
    Bench,
    /// A few milliseconds per cell.
    Tiny,
}

/// One process or request to start, as generated.
pub struct Spawn {
    spu: SpuId,
    program: Arc<Program>,
    label: Option<&'static str>,
    at: SimTime,
    /// `Some` submits the job as a request through admission control.
    deadline: Option<SimDuration>,
}

impl Spawn {
    fn job(spu: SpuId, program: Arc<Program>, label: Option<&'static str>, at: SimTime) -> Self {
        Spawn {
            spu,
            program,
            label,
            at,
            deadline: None,
        }
    }
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::CpuScale,
        Workload::MemPressure,
        Workload::DiskMix,
        Workload::ServiceOverload,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CpuScale => "cpu_scale",
            Workload::MemPressure => "mem_pressure",
            Workload::DiskMix => "disk_mix",
            Workload::ServiceOverload => "service_overload",
        }
    }

    /// The workload with this name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the cell also renders the interference matrix.
    pub(crate) fn renders_matrix(self) -> bool {
        self == Workload::ServiceOverload
    }

    /// Builds the machine and boots a kernel on it.
    pub fn boot(self, size: Size) -> Kernel {
        let tiny = size == Size::Tiny;
        match self {
            Workload::CpuScale => {
                let (cpus, spus) = if tiny { (8, 16) } else { (512, 1024) };
                let (cfg, set) = MachineConfig::builder()
                    .topology(cpus, 2 * cpus as u64, 1)
                    .scheme(Scheme::PIso)
                    .spus(spus, 1)
                    .build_with_spus()
                    .expect("cpu_scale config is valid");
                Kernel::new(cfg, set)
            }
            Workload::MemPressure => {
                let (cpus, mb, spus) = if tiny { (4, 4, 2) } else { (16, 64, 8) };
                let (cfg, set) = MachineConfig::builder()
                    .topology(cpus, mb, spus)
                    .scheme(Scheme::PIso)
                    .spus(spus, 1)
                    .build_with_spus()
                    .expect("mem_pressure config is valid");
                Kernel::new(cfg, set)
            }
            Workload::DiskMix => {
                let disks = if tiny { 1 } else { 4 };
                let (cfg, set) = MachineConfig::builder()
                    .topology(2 * disks, 16 * disks as u64, disks)
                    .scheme(Scheme::PIso)
                    .seek_scale(0.5)
                    .disk_scheduler(SchedulerKind::Hybrid)
                    .spus(4 * disks, 1)
                    .build_with_spus()
                    .expect("disk_mix config is valid");
                Kernel::new(cfg, set)
            }
            Workload::ServiceOverload => {
                let cpus = if tiny { 4 } else { 16 };
                let tuning = Tuning {
                    ipi_revocation: true,
                    slice: SimDuration::from_millis(2),
                    admission_cap: (3 * cpus / 4) as u32,
                    queue_cap: (cpus / 2) as u32,
                    shed_policy: ShedPolicy::DeadlineAware,
                    request_timeout: SimDuration::from_millis(100),
                    request_max_retries: 3,
                    request_retry_base: SimDuration::from_millis(10),
                    request_retry_cap: SimDuration::from_millis(160),
                    ..Tuning::default()
                };
                let (cfg, set) = MachineConfig::builder()
                    .topology(cpus, 12 * cpus as u64, 1)
                    .scheme(Scheme::PIso)
                    .tuning(tuning)
                    .tenant("acme", 2)
                    .service("vic", 1)
                    .service("noisy", 1)
                    .tenant("bell", 2)
                    .service("vic2", 1)
                    .service("spare", 1)
                    .build_with_spus()
                    .expect("service_overload config is valid");
                let mut k = Kernel::new(cfg, set);
                k.enable_attribution();
                k.enable_slo(SLO_TARGET);
                k.enable_sampling(SimDuration::from_millis(10));
                k
            }
        }
    }

    /// Draws one cell's inputs from `rng`: creates the files the jobs
    /// use and returns what to spawn.
    pub fn generate(self, size: Size, k: &mut Kernel, rng: &mut SplitMix64) -> Vec<Spawn> {
        let tiny = size == Size::Tiny;
        match self {
            Workload::CpuScale => cpu_scale(k, rng, tiny),
            Workload::MemPressure => mem_pressure(k, rng, tiny),
            Workload::DiskMix => disk_mix(k, rng, tiny),
            Workload::ServiceOverload => service_overload(k, rng, tiny),
        }
    }
}

/// Starts every generated job; returns the number of spawn calls.
pub fn spawn_all(k: &mut Kernel, spawns: Vec<Spawn>) -> usize {
    let calls = spawns.len();
    for s in spawns {
        match s.deadline {
            Some(deadline) => {
                let label = s.label.expect("requests carry a label");
                k.spawn_request_at(s.spu, s.program, label, s.at, deadline);
            }
            None => {
                k.spawn_at(s.spu, s.program, s.label, s.at);
            }
        }
    }
    calls
}

/// Response-time target and deadline of every service request.
const SLO_TARGET: SimDuration = SimDuration::from_millis(30);

/// Poisson arrival instants at `rate_per_sec` over `horizon`.
fn poisson(rng: &mut SplitMix64, rate_per_sec: f64, horizon: SimTime) -> Vec<SimTime> {
    ArrivalProcess::Poisson { rate_per_sec }
        .generate(rng.next_u64(), horizon)
        .times()
        .to_vec()
}

/// Each SPU runs 1–3 CPU hogs (bursts of 100–400 ms over an 8-page
/// working set); SPU 0 also serves 2 ms requests at half its entitlement.
/// The bursts are short enough that three passes over the block fit in
/// about 20 s on the tuning VM.
fn cpu_scale(k: &mut Kernel, rng: &mut SplitMix64, tiny: bool) -> Vec<Spawn> {
    let (burst_lo, burst_hi, horizon) = if tiny {
        (20, 80, SimTime::from_millis(200))
    } else {
        (100, 400, SimTime::from_secs(1))
    };
    let spus = k.spus().user_count() as u32;
    let mut out = Vec::new();
    for s in 0..spus {
        for _ in 0..rng.next_range(1, 3) {
            let burst = SimDuration::from_millis(rng.next_range(burst_lo, burst_hi));
            let hog = Program::builder("hog").alloc(8).compute(burst, 8).build();
            out.push(Spawn::job(SpuId::user(s), hog, None, SimTime::ZERO));
        }
    }
    // Half of SPU 0's entitlement at 2 ms of CPU per request.
    let share = k.config().cpus as f64 / spus as f64;
    let request = Program::builder("request")
        .compute(SimDuration::from_millis(2), 0)
        .build();
    for at in poisson(rng, 0.5 * share / 0.002, horizon) {
        out.push(Spawn::job(
            SpuId::user(0),
            request.clone(),
            Some(VICTIM),
            at,
        ));
    }
    out
}

/// SPU 0 runs one 4-wave `mem_iso` pmake (the victim); every other SPU
/// runs 1–3, so some overrun their memory share while others lend.
fn mem_pressure(k: &mut Kernel, rng: &mut SplitMix64, tiny: bool) -> Vec<Spawn> {
    let job = if tiny {
        PmakeConfig {
            parallelism: 2,
            waves: 1,
            // Two compiles overrun an SPU's 512-page share, and each
            // sweeps its working set more than once, so even a tiny cell
            // swaps pages out and faults them back in.
            compile_cpu: SimDuration::from_millis(120),
            compile_ws: 300,
            ..PmakeConfig::mem_iso()
        }
    } else {
        PmakeConfig {
            waves: 4,
            ..PmakeConfig::mem_iso()
        }
    };
    let spus = k.spus().user_count();
    let mut out = Vec::new();
    for s in 0..spus {
        let jobs = if s == 0 { 1 } else { rng.next_range(1, 3) };
        let label = if s == 0 { VICTIM } else { "pmake" };
        for _ in 0..jobs {
            let at = SimTime::from_millis(rng.next_below(100));
            let prog = job.build(k, s);
            out.push(Spawn::job(SpuId::user(s as u32), prog, Some(label), at));
        }
    }
    out
}

/// On every disk, two `disk_bw` pmakes (the victims) share the spindle
/// with two copies streaming 10–30 MB each.
fn disk_mix(k: &mut Kernel, rng: &mut SplitMix64, tiny: bool) -> Vec<Spawn> {
    const CHUNK: u64 = 64 * 1024;
    // Copy sizes in 64 KiB chunks: 10-30 MiB, or 256-768 KiB when tiny.
    let (pmake, chunks) = if tiny {
        (
            PmakeConfig {
                waves: 1,
                ..PmakeConfig::disk_bw()
            },
            (4, 12),
        )
    } else {
        (PmakeConfig::disk_bw(), (160, 480))
    };
    let disks = k.config().disks.len();
    let mut out = Vec::new();
    for d in 0..disks {
        let spu = |i: usize| SpuId::user((4 * d + i) as u32);
        for i in 0..2 {
            let prog = pmake.build(k, d);
            out.push(Spawn::job(spu(i), prog, Some(VICTIM), SimTime::ZERO));
        }
        for i in 2..4 {
            let bytes = rng.next_range(chunks.0, chunks.1) * CHUNK;
            let prog = copy_job(k, d, bytes, CHUNK);
            out.push(Spawn::job(spu(i), prog, Some("copy"), SimTime::ZERO));
        }
    }
    out
}

/// `vic` and `vic2` take requests at half their entitlement, each a
/// cached table read plus 2 ms of CPU; `noisy` sends fork-burst requests
/// at 2.5× its entitlement. Every service is one quarter of the machine.
fn service_overload(k: &mut Kernel, rng: &mut SplitMix64, tiny: bool) -> Vec<Spawn> {
    const TABLE_PAGES: u64 = 16;
    const FANOUT: u64 = 4;
    let horizon = SimTime::from_millis(if tiny { 100 } else { 1500 });
    let quarter = k.config().cpus as f64 / 4.0;
    let mut out = Vec::new();
    for (spu, label) in [(0, VICTIM), (2, "vic2")] {
        let table = k.create_file(0, TABLE_PAGES * PAGE_SIZE, 0);
        let requests: Vec<Arc<Program>> = (0..TABLE_PAGES)
            .map(|page| {
                Program::builder("request")
                    .read(table, page * PAGE_SIZE, PAGE_SIZE)
                    .compute(SimDuration::from_millis(2), 0)
                    .build()
            })
            .collect();
        for at in poisson(rng, 0.5 * quarter / 0.002, horizon) {
            let program = requests[rng.next_below(TABLE_PAGES) as usize].clone();
            out.push(Spawn {
                spu: SpuId::user(spu),
                program,
                label: Some(label),
                at,
                deadline: Some(SLO_TARGET),
            });
        }
    }
    // 10 ms of CPU per burst, split over fresh children.
    let child = Program::builder("noisy-child")
        .compute(SimDuration::from_micros(10_000 / FANOUT), 0)
        .build();
    let mut burst = Program::builder("noisy-burst");
    for _ in 0..FANOUT {
        burst = burst.fork(child.clone());
    }
    let burst = burst.wait_children().build();
    for at in poisson(rng, 2.5 * quarter / 0.010, horizon) {
        out.push(Spawn {
            spu: SpuId::user(1),
            program: burst.clone(),
            label: Some("noisy"),
            at,
            deadline: Some(SLO_TARGET),
        });
    }
    out
}
