//! The closed loop: one client runs cell after cell, each timed from
//! outside the public calls it makes, and checks every cell's outputs
//! outside the timed region.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use event_sim::{Fnv64, LogHistogram, SplitMix64};
use smp_kernel::{interference_matrix_json, metrics_jsonl, RunMetrics};

use crate::speed::{HostSpeed, WINDOW};
use crate::trace::{Span, Tracer};
use crate::workload::{spawn_all, Size, Workload, CAP, VICTIM};

/// Cells every run times: the reference block. Simulated statistics,
/// counts and digests cover exactly these, so they repeat exactly for a
/// seed whatever the host's speed.
pub const BLOCK_CELLS: u32 = 200;
/// Untimed warm-up cells, drawn from their own stream.
pub const WARMUP_CELLS: u32 = 5;
/// Cells the traced run re-runs with spans on.
pub const TRACE_CELLS: u32 = 20;
/// Fewest passes over the block. A cell's time is its fastest pass: on a
/// shared host, slow spells of a second or so hit whole runs of
/// consecutive cells. Later passes visit the cells in a shuffled order,
/// so the few cells a spell slows in every pass are scattered instead of
/// forming a run that can shift `cell_ms_p95` on its own. Set-up times
/// are taken the same way.
pub const MIN_PASSES: usize = 2;

const WARMUP_SALT: u64 = 0x5741_524d_5550;
const SHUFFLE_SALT: u64 = 0x5348_5546_464c;

/// Counters summed over the reference block, by their kernel names.
pub const COUNTERS: [&str; 23] = [
    "sched.dispatches",
    "sched.preemptions",
    "sched.loans",
    "sched.ipis",
    "audit.checks",
    "audit.violations",
    "vm.minor_faults",
    "vm.major_faults",
    "vm.swap_outs",
    "vm.denials",
    "cache.hits",
    "cache.misses",
    "cache.fill_joins",
    "cache.flushed_blocks",
    "locks.acquires",
    "locks.contended",
    "requests.arrivals",
    "requests.admitted",
    "requests.shed",
    "requests.expired",
    "requests.retries",
    "interference.lock_wait_nanos",
    "interference.cpu_revoke_nanos",
];

/// Host time of one cell's phases.
#[derive(Clone, Copy, Debug, Default)]
pub struct CellTimes {
    /// `Kernel::new` plus configuration.
    pub boot: Duration,
    /// The `workloads` builders, arrival plans and programs.
    pub build: Duration,
    /// The spawn batch.
    pub spawn: Duration,
    /// `Kernel::run`.
    pub run: Duration,
    /// The export renderers.
    pub render: Duration,
}

impl CellTimes {
    /// Set-up: everything before `Kernel::run`.
    pub fn setup(&self) -> Duration {
        self.boot + self.build + self.spawn
    }

    /// What `cell_ms_*` measures: the run and the export render.
    pub fn cell(&self) -> Duration {
        self.run + self.render
    }

    /// Every phase multiplied by `by`.
    pub fn scaled(&self, by: f64) -> CellTimes {
        CellTimes {
            boot: self.boot.mul_f64(by),
            build: self.build.mul_f64(by),
            spawn: self.spawn.mul_f64(by),
            run: self.run.mul_f64(by),
            render: self.render.mul_f64(by),
        }
    }
}

/// One executed cell.
pub struct Cell {
    /// Host time per phase.
    pub times: CellTimes,
    /// Spawn calls made.
    pub spawn_calls: u64,
    /// FNV-64 of the rendered export.
    pub digest: u64,
    /// Rendered export size in bytes.
    pub export_bytes: u64,
    /// The run's metrics.
    pub metrics: RunMetrics,
    /// Why the cell failed its checks, if it did.
    pub failure: Option<String>,
}

/// Runs one cell on inputs drawn from `rng`.
pub fn run_cell(
    w: Workload,
    size: Size,
    rng: &mut SplitMix64,
    tracer: &mut Tracer,
    id: u32,
) -> Cell {
    tracer.begin_cell(id);
    let (mut k, boot) = tracer.timed("kernel.boot", 1, || w.boot(size));
    let (spawns, build) = tracer.timed("workloads.build", 1, || w.generate(size, &mut k, rng));
    let calls = spawns.len() as u64;
    let (_, spawn) = tracer.timed("kernel.spawn", calls, || spawn_all(&mut k, spawns));
    let (metrics, run) = tracer.timed("kernel.run", 1, || k.run(CAP));
    let (export, render) = tracer.timed("export.render", 1, || {
        let mut out = metrics_jsonl(&metrics);
        if w.renders_matrix() {
            out.push_str(&interference_matrix_json(metrics.interference()));
        }
        out
    });
    tracer.end_cell();

    let mut h = Fnv64::new();
    h.write_bytes(export.as_bytes());
    let violations = metrics.obsv.counters.get("audit.violations");
    let failure = if !metrics.completed {
        Some(format!("hit its {CAP} cap"))
    } else if violations > 0 {
        Some(format!("{violations} audit violations"))
    } else {
        catch_unwind(AssertUnwindSafe(|| k.check_invariants()))
            .err()
            .map(|_| "kernel invariants failed".to_string())
    };
    Cell {
        times: CellTimes {
            boot,
            build,
            spawn,
            run,
            render,
        },
        spawn_calls: calls,
        digest: h.finish(),
        export_bytes: export.len() as u64,
        metrics,
        failure,
    }
}

/// Simulated statistics and counts over the reference block.
#[derive(Debug, Default)]
pub struct Block {
    /// Cells folded in.
    pub cells: u64,
    /// [`COUNTERS`] summed.
    pub counters: BTreeMap<&'static str, u64>,
    /// Disk requests completed, and failed.
    pub disk_requests: u64,
    /// Disk requests that failed.
    pub disk_errors: u64,
    /// Seek time summed over requests, simulated seconds.
    pub seek_s: f64,
    /// Queue wait of the victims' disk requests, simulated seconds.
    pub victim_wait_s: f64,
    /// The victims' disk requests.
    pub victim_requests: u64,
    /// Victim job responses, simulated ms.
    pub victim_ms: Vec<f64>,
    /// Wake-to-dispatch latencies, pooled.
    pub wake: Option<LogHistogram>,
    /// Loan-revocation latencies, pooled.
    pub revoke: Option<LogHistogram>,
    /// Simulated seconds.
    pub sim_s: f64,
    /// Spawn calls.
    pub spawn_calls: u64,
    /// Rendered export bytes.
    pub export_bytes: u64,
}

fn merge(pool: &mut Option<LogHistogram>, h: &LogHistogram) {
    match pool {
        Some(p) => p.merge(h),
        None => *pool = Some(h.clone()),
    }
}

impl Block {
    /// Folds one cell in.
    pub fn add(&mut self, cell: &Cell) {
        let m = &cell.metrics;
        self.cells += 1;
        for name in COUNTERS {
            *self.counters.entry(name).or_default() += m.obsv.counters.get(name);
        }
        // Shed requests were refused, not served late: like the kernel's
        // SLO tracker, leave them out of the response pool (the
        // `requests.shed` count reports them).
        let victims: Vec<_> = m
            .jobs
            .iter()
            .filter(|j| j.label == VICTIM && !j.shed)
            .collect();
        for j in &victims {
            let response = j
                .response()
                .unwrap_or_else(|| m.end_time.saturating_since(j.started));
            self.victim_ms.push(response.as_millis_f64());
        }
        for d in &m.disks {
            self.disk_requests += d.total_requests();
            self.disk_errors += d.total_errors();
            self.seek_s += d.mean_seek_ms() / 1e3 * d.total_requests() as f64;
        }
        let mut spus: Vec<_> = victims.iter().map(|j| j.spu).collect();
        spus.sort();
        spus.dedup();
        for d in &m.disks {
            for &spu in &spus {
                let wait = &d.stream(spu).wait;
                self.victim_wait_s += wait.sum();
                self.victim_requests += wait.count();
            }
        }
        merge(&mut self.wake, &m.obsv.latency.wake_to_dispatch);
        merge(&mut self.revoke, &m.obsv.latency.revocation);
        self.sim_s += m.end_time.as_secs_f64();
        self.spawn_calls += cell.spawn_calls;
        self.export_bytes += cell.export_bytes;
    }

    /// A summed counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Host seconds one pass over the block takes on the 2-core VM the
/// benchmark was tuned on, checks included. Frozen: a run's pass count
/// follows from its time budget alone, never from the host's speed.
fn pass_seconds(w: Workload) -> f64 {
    match w {
        Workload::CpuScale => 10.0,
        Workload::MemPressure => 3.5,
        Workload::DiskMix => 11.5,
        Workload::ServiceOverload => 6.5,
    }
}

/// Passes over the block that fit in `seconds` on the tuning VM, and at
/// least [`MIN_PASSES`].
pub fn passes(w: Workload, seconds: f64) -> usize {
    ((seconds / pass_seconds(w)) as usize).max(MIN_PASSES)
}

/// How to run one workload.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload, at [`Size::Bench`].
    pub workload: Workload,
    /// Seed of the cell streams.
    pub seed: u64,
    /// Passes over the block.
    pub passes: usize,
    /// Re-run the first [`TRACE_CELLS`] cells with spans on.
    pub trace: bool,
    /// Committed digests of the reference block, for this seed.
    pub expected: Option<Vec<u64>>,
}

/// Everything one run measured.
pub struct Outcome {
    /// Host times of each cell of the block, in cell order, one per pass,
    /// rescaled to the reference host speed (see [`crate::speed`]).
    pub times: Vec<Vec<CellTimes>>,
    /// Host time of the first pass, as measured.
    pub first_pass: Duration,
    /// Median host-speed probe time, as measured.
    pub probe: Duration,
    /// The reference block.
    pub block: Block,
    /// Digests of the reference block's cells.
    pub digests: Vec<u64>,
    /// Why each failed cell failed (its first failure).
    pub failures: BTreeMap<u32, String>,
    /// Peak resident set (`VmHWM`) once the first pass has run the
    /// warm-up and the block, MiB. Read there, not at the end, because
    /// heap fragmentation grows it a little with every further pass.
    pub peak_rss_mb: f64,
    /// The traced re-run, when tracing.
    pub traced: Option<Traced>,
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 where
/// `/proc/self/status` is unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The traced re-run of the first [`TRACE_CELLS`] cells.
pub struct Traced {
    /// Every span recorded, as measured.
    pub spans: Vec<Span>,
    /// Host time of each traced cell's phases, rescaled like
    /// [`Outcome::times`].
    pub times: Vec<CellTimes>,
}

/// Runs the warm-up, the passes over the reference block, and the traced
/// re-run when asked. A host-speed probe runs before every cell.
pub fn run(opts: &Options) -> Outcome {
    let (w, size) = (opts.workload, Size::Bench);
    let mut off = Tracer::off();
    let mut speed = HostSpeed::default();
    let mut warm = SplitMix64::new(opts.seed ^ WARMUP_SALT);
    for i in 0..WARMUP_CELLS {
        speed.probe();
        run_cell(w, size, &mut warm.fork(), &mut off, i);
    }

    let mut out = Outcome {
        times: vec![Vec::new(); BLOCK_CELLS as usize],
        first_pass: Duration::ZERO,
        probe: Duration::ZERO,
        block: Block::default(),
        digests: Vec::new(),
        failures: BTreeMap::new(),
        peak_rss_mb: 0.0,
        traced: None,
    };
    // Each timed cell's id, the probe taken just before it and its host
    // times as measured; rescaled once the probes after it are in.
    let mut timed = Vec::new();
    // Each cell's input stream, kept so that later passes replay it.
    let mut inputs = Vec::new();
    let mut stream = SplitMix64::new(opts.seed);
    let start = Instant::now();
    for id in 0..BLOCK_CELLS {
        inputs.push(stream.fork());
        let probe = speed.probe();
        let cell = run_cell(w, size, &mut inputs[id as usize].clone(), &mut off, id);
        out.block.add(&cell);
        let mut failure = cell.failure;
        if let Some(expected) = &opts.expected {
            if expected.get(id as usize) != Some(&cell.digest) {
                failure.get_or_insert_with(|| {
                    format!("digest {:016x} differs from the committed one", cell.digest)
                });
            }
        }
        if let Some(reason) = failure {
            out.failures.insert(id, reason);
        }
        timed.push((id, probe, cell.times));
        out.digests.push(cell.digest);
    }
    out.first_pass = start.elapsed();
    out.peak_rss_mb = peak_rss_mb();
    let mut order: Vec<u32> = (0..BLOCK_CELLS).collect();
    let mut shuffler = SplitMix64::new(opts.seed ^ SHUFFLE_SALT);
    for _ in 1..opts.passes {
        shuffler.shuffle(&mut order);
        for &cell in &order {
            let probe = speed.probe();
            let times = rerun(opts, cell, &inputs, &mut off, &mut out);
            timed.push((cell, probe, times));
        }
    }

    let traced = opts.trace.then(|| {
        let mut tracer = Tracer::on();
        let times: Vec<_> = (0..TRACE_CELLS)
            .map(|cell| {
                (
                    speed.probe(),
                    rerun(opts, cell, &inputs, &mut tracer, &mut out),
                )
            })
            .collect();
        (tracer.into_spans(), times)
    });
    // The probes after the last cell complete its window.
    for _ in 0..WINDOW {
        speed.probe();
    }
    for (cell, probe, times) in timed {
        out.times[cell as usize].push(times.scaled(speed.scale(probe)));
    }
    out.traced = traced.map(|(spans, times)| Traced {
        spans,
        times: times
            .into_iter()
            .map(|(probe, times)| times.scaled(speed.scale(probe)))
            .collect(),
    });
    out.probe = speed.median();
    out
}

/// Runs cell `id` again on its inputs; the cell fails if its export
/// differs from its first run.
fn rerun(
    opts: &Options,
    id: u32,
    inputs: &[SplitMix64],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> CellTimes {
    let rng = &mut inputs[id as usize].clone();
    let cell = run_cell(opts.workload, Size::Bench, rng, tracer, id);
    if cell.digest != out.digests[id as usize] {
        out.failures
            .entry(id)
            .or_insert_with(|| "a rerun rendered a different export".into());
    }
    cell.times
}
