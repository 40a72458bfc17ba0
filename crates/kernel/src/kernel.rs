//! The simulated SMP kernel: machine state, the event loop, and the
//! run/metrics lifecycle.
//!
//! [`Kernel`] owns the machine (CPUs, memory, disks) and the OS state
//! (processes, scheduler, VM, buffer cache, locks) and drives everything
//! from a single deterministic event queue. The subsystems live in
//! private sibling modules — `event` (dispatch), `cpu` (scheduling and
//! the interpreter), `mem` (the fault path), `io` (the file-I/O path
//! and disk plumbing) and `policy` (sampling, auditing, faults) — all
//! implemented as
//! `impl Kernel` blocks over the state held here. Workloads are attached
//! with [`Kernel::spawn_at`] and the run is driven to completion with
//! [`Kernel::run`], which returns the [`RunMetrics`] the experiment
//! harnesses turn into the paper's figures.

use std::collections::BTreeMap;

use crate::fastmap::FastMap;
use std::sync::Arc;

use event_sim::{EventQueue, Fingerprint, Fnv64, LogHistogram, SimDuration, SimTime};
use hp_disk::{DiskDevice, DiskModel};
use spu_core::{CpuPartition, LedgerAuditor, SpuId, SpuSet};

use crate::bufcache::{BufferCache, CacheEntry};
use crate::config::{
    MachineConfig, BW_HALF_LIFE, KERNEL_MEM_FRAC, MEM_POLICY_PERIOD, SYNC_PERIOD, TICK,
};
use crate::error::KernelError;
use crate::event::Event;
use crate::fs::{FileId, FileSystem};
use crate::io::{IoPurpose, RetryState};
use crate::locks::LockTable;
use crate::metrics::{JobRecord, RunMetrics};
use crate::obsv::interference::{nearest_rank, Attribution, SloReport, SloTracker, SpuSlo};
use crate::obsv::{CounterId, CounterRegistry, LatencyStats, ObsvReport, SampleSeries};
use crate::process::{BlockReason, JobId, Pid, ProcState, Process};
use crate::program::{BarrierId, Program};
use crate::sched::{ProcTable, Scheduler};
use crate::trace::Trace;
use crate::vm::{FrameId, FrameOwner, MemoryManager};

/// The simulated kernel.
///
/// # Examples
///
/// ```
/// use event_sim::{SimDuration, SimTime};
/// use smp_kernel::{Kernel, MachineConfig, Program};
/// use spu_core::{Scheme, SpuId, SpuSet};
///
/// let cfg = MachineConfig::builder().topology(2, 32, 1).scheme(Scheme::PIso).build().unwrap();
/// let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
/// let prog = Program::builder("spin")
///     .compute(SimDuration::from_millis(50), 0)
///     .build();
/// k.spawn_at(SpuId::user(0), prog, Some("job0"), SimTime::ZERO);
/// let metrics = k.run(SimTime::from_secs(10));
/// assert!(metrics.completed);
/// assert!(metrics.job("job0").unwrap().response().is_some());
/// ```
#[derive(Debug)]
pub struct Kernel {
    pub(crate) cfg: MachineConfig,
    pub(crate) spus: SpuSet,
    pub(crate) now: SimTime,
    pub(crate) events: EventQueue<Event>,
    pub(crate) procs: ProcTable,
    pub(crate) sched: Scheduler,
    pub(crate) vm: MemoryManager,
    pub(crate) cache: BufferCache,
    pub(crate) locks: LockTable,
    pub(crate) fs: FileSystem,
    pub(crate) disks: Vec<DiskDevice>,
    /// Every outstanding disk request's purpose, by tag. Only
    /// `Kernel::issue` and `Kernel::retire` change it or the tag counter.
    pub(crate) io_purpose: FastMap<u64, IoPurpose>,
    /// Fill-join waiters per request tag. BTreeMap: every access today is
    /// keyed, but a future drain would otherwise iterate in hash order
    /// and leak nondeterministic wake order into the exports.
    pub(crate) fill_waiters: BTreeMap<u64, Vec<Pid>>,
    pub(crate) dirty_waiters: Vec<Pid>,
    pub(crate) mem_waiters: Vec<Pid>,
    /// Sleepers per barrier, ordered for the same reason as
    /// [`fill_waiters`](Self::fill_waiters).
    pub(crate) barriers: BTreeMap<BarrierId, Vec<Pid>>,
    pub(crate) next_tag: u64,
    pub(crate) trace: Trace,
    pub(crate) ipi_pending: bool,
    pub(crate) live_procs: u32,
    pub(crate) jobs: Vec<JobRecord>,
    /// Per-SPU admission queues (dense [`SpuId::index`] order), active
    /// only when `cfg.tuning.admission_cap > 0`.
    pub(crate) admission: Vec<crate::admission::AdmissionQueue>,
    pub(crate) spu_cpu: Vec<SimDuration>,
    // --- observability ----------------------------------------------------
    /// Sampling interval, `None` until [`enable_sampling`](Self::enable_sampling).
    pub(crate) sample_interval: Option<SimDuration>,
    /// Per-SPU resource series, SPU-major, in
    /// [`SAMPLED`](crate::policy::SAMPLED) order within an SPU.
    pub(crate) series: Vec<SampleSeries>,
    /// Each user SPU's CPU entitlement from the §3.1 hybrid partition.
    pub(crate) cpu_entitled: Vec<f64>,
    /// Live latency histograms.
    pub(crate) latency: LatencyStats,
    /// Pending wake → dispatch measurements (latest wake wins).
    pub(crate) wake_pending: FastMap<Pid, SimTime>,
    /// Cross-SPU interference attribution, `None` until
    /// [`enable_attribution`](Self::enable_attribution).
    pub(crate) attribution: Option<Attribution>,
    /// The SLO tracker's running counts and samples, `None` until
    /// [`enable_slo`](Self::enable_slo).
    pub(crate) slo: Option<SloTracker>,
    // --- faults & recovery ------------------------------------------------
    /// Retry state per erroring request tag.
    pub(crate) retries: FastMap<u64, RetryState>,
    /// Bounded sample of recovered kernel errors ([`Kernel::errors`]).
    pub(crate) errors: Vec<KernelError>,
    /// Conservation-invariant auditor over the memory ledger.
    pub(crate) auditor: LedgerAuditor,
    /// Denial total at the last audit, for memory-pressure detection.
    pub(crate) last_denials: u64,
    /// Kernel-owned arena of per-process page tables; exited processes'
    /// slabs are recycled by the next fork.
    pub(crate) page_arena: crate::process::PageArena,
    /// Stable content hash of everything that determines the run:
    /// configuration, SPU set, files, spawned programs. Because the
    /// simulation is a pure function of these inputs, the digest
    /// identifies the run's outcome (see [`Kernel::fingerprint`]).
    pub(crate) fp: Fnv64,
    /// Every published counter name interned once at boot (including the
    /// per-disk `disk.{i}.*` names), so counting is a dense-id add with
    /// no string hashing or formatting.
    pub(crate) counter_ids: KernelCounterIds,
    /// The one store of every counter the kernel increments as events
    /// happen (scheduler, fault, error and CPU-audit counts);
    /// [`publish_counters`](Self::publish_counters) adds the values it
    /// derives from subsystem state.
    pub(crate) counters: CounterRegistry,
}

/// Lowercases a display name and maps anything outside `[a-z0-9_]` to
/// `_`, so tenant names can appear as segments of well-formed counter
/// paths.
fn counter_segment(name: &str) -> String {
    name.chars()
        .map(|c| {
            let c = c.to_ascii_lowercase();
            if c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Dense [`CounterId`]s for every counter the kernel publishes, interned
/// once at boot into the kernel's [`CounterRegistry`].
/// [`Kernel::publish_counters`] clones that registry (an `Arc` bump for
/// the shared name table plus one `memcpy` of the value vector) and
/// fills in the derived values by id.
#[derive(Debug)]
pub(crate) struct KernelCounterIds {
    pub(crate) sched_dispatches: CounterId,
    pub(crate) sched_preemptions: CounterId,
    pub(crate) sched_loans: CounterId,
    pub(crate) sched_ipis: CounterId,
    locks_acquires: CounterId,
    locks_contended: CounterId,
    cache_hits: CounterId,
    cache_misses: CounterId,
    cache_fill_joins: CounterId,
    cache_flushed_blocks: CounterId,
    vm_minor_faults: CounterId,
    vm_major_faults: CounterId,
    vm_swap_outs: CounterId,
    vm_denials: CounterId,
    /// `(requests, errors)` per disk index.
    disk: Vec<(CounterId, CounterId)>,
    pub(crate) kernel_errors: CounterId,
    audit_checks: CounterId,
    pub(crate) audit_violations: CounterId,
    pub(crate) fault_injected: CounterId,
    pub(crate) fault_skipped: CounterId,
    pub(crate) fault_crashes: CounterId,
    pub(crate) fault_forkbombs: CounterId,
    pub(crate) fault_cpu_offline: CounterId,
    pub(crate) fault_cpu_online: CounterId,
    pub(crate) fault_disk_errors: CounterId,
    pub(crate) fault_io_retries: CounterId,
    pub(crate) fault_io_failures: CounterId,
    pub(crate) fault_retry_storms: CounterId,
    trace_dropped: CounterId,
}

impl KernelCounterIds {
    fn new(proto: &mut CounterRegistry, disk_count: usize) -> Self {
        KernelCounterIds {
            sched_dispatches: proto.intern("sched.dispatches"),
            sched_preemptions: proto.intern("sched.preemptions"),
            sched_loans: proto.intern("sched.loans"),
            sched_ipis: proto.intern("sched.ipis"),
            locks_acquires: proto.intern("locks.acquires"),
            locks_contended: proto.intern("locks.contended"),
            cache_hits: proto.intern("cache.hits"),
            cache_misses: proto.intern("cache.misses"),
            cache_fill_joins: proto.intern("cache.fill_joins"),
            cache_flushed_blocks: proto.intern("cache.flushed_blocks"),
            vm_minor_faults: proto.intern("vm.minor_faults"),
            vm_major_faults: proto.intern("vm.major_faults"),
            vm_swap_outs: proto.intern("vm.swap_outs"),
            vm_denials: proto.intern("vm.denials"),
            disk: (0..disk_count)
                .map(|i| {
                    (
                        proto.intern(&format!("disk.{i}.requests")),
                        proto.intern(&format!("disk.{i}.errors")),
                    )
                })
                .collect(),
            kernel_errors: proto.intern("kernel.errors"),
            audit_checks: proto.intern("audit.checks"),
            audit_violations: proto.intern("audit.violations"),
            fault_injected: proto.intern("fault.injected"),
            fault_skipped: proto.intern("fault.skipped"),
            fault_crashes: proto.intern("fault.crashes"),
            fault_forkbombs: proto.intern("fault.forkbombs"),
            fault_cpu_offline: proto.intern("fault.cpu_offline"),
            fault_cpu_online: proto.intern("fault.cpu_online"),
            fault_disk_errors: proto.intern("fault.disk_errors"),
            fault_io_retries: proto.intern("fault.io_retries"),
            fault_io_failures: proto.intern("fault.io_failures"),
            fault_retry_storms: proto.intern("fault.retry_storms"),
            trace_dropped: proto.intern("trace.dropped"),
        }
    }
}

impl Kernel {
    /// Boots a kernel on the configured machine with the given SPU set.
    pub fn new(cfg: MachineConfig, spus: SpuSet) -> Self {
        let n_spus = spus.total_count();
        let disks: Vec<DiskDevice> = cfg
            .disks
            .iter()
            .enumerate()
            .map(|(i, d)| {
                DiskDevice::new(
                    DiskModel::hp97560().with_seek_scale(d.seek_scale),
                    cfg.disk_scheduler(i),
                    n_spus,
                )
                .with_bw_threshold(cfg.tuning.bw_threshold)
                .with_half_life(BW_HALF_LIFE)
            })
            .collect();
        let mut disks = disks;
        for d in &mut disks {
            for id in spus.user_ids() {
                d.set_share(id, spus.disk_weight(id) as f64);
            }
        }
        let sectors_per_disk = DiskModel::hp97560().total_sectors();
        let vm = MemoryManager::new(
            cfg.total_frames(),
            &spus,
            cfg.scheme,
            KERNEL_MEM_FRAC,
            cfg.tuning.reserve_frac,
        );
        let sched = Scheduler::new(cfg.scheme, cfg.cpus, &spus);
        let locks = LockTable::new(!cfg.tuning.rw_inode_lock);
        let disk_count = disks.len();
        let mut fp = Fnv64::new();
        cfg.fingerprint(&mut fp);
        spus.fingerprint(&mut fp);
        let mut counters = CounterRegistry::new();
        let counter_ids = KernelCounterIds::new(&mut counters, disk_count);
        Kernel {
            spus,
            now: SimTime::ZERO,
            events: EventQueue::new(),
            procs: ProcTable::new(),
            sched,
            vm,
            cache: BufferCache::new(),
            locks,
            fs: FileSystem::new(disk_count, sectors_per_disk),
            disks,
            io_purpose: FastMap::default(),
            fill_waiters: BTreeMap::new(),
            dirty_waiters: Vec::new(),
            mem_waiters: Vec::new(),
            barriers: BTreeMap::new(),
            next_tag: 1,
            trace: Trace::new(),
            ipi_pending: false,
            live_procs: 0,
            jobs: Vec::new(),
            admission: (0..n_spus)
                .map(|_| crate::admission::AdmissionQueue::default())
                .collect(),
            spu_cpu: vec![SimDuration::ZERO; n_spus],
            sample_interval: None,
            series: Vec::new(),
            cpu_entitled: Vec::new(),
            latency: LatencyStats::new(),
            wake_pending: FastMap::default(),
            attribution: None,
            slo: None,
            retries: FastMap::default(),
            errors: Vec::new(),
            auditor: LedgerAuditor::new(n_spus, MEM_POLICY_PERIOD.mul_f64(3.0)),
            last_denials: 0,
            page_arena: crate::process::PageArena::new(),
            fp,
            counter_ids,
            counters,
            cfg,
        }
    }

    /// Stable 64-bit digest of the kernel's construction inputs — the
    /// machine configuration, SPU set, and every `create_file` /
    /// `spawn_at` call so far. Two kernels with equal fingerprints run
    /// identically, so the digest identifies a run by its inputs. The
    /// hash (FNV-1a) does not depend on pointer values, build, or
    /// platform.
    pub fn fingerprint(&self) -> u64 {
        self.fp.finish()
    }

    /// The configuration in force.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The SPU set.
    pub fn spus(&self) -> &SpuSet {
        &self.spus
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Debug invariants across subsystems: the memory ledger vs frame
    /// ownership, the buffer cache's counts and dirty list vs its tables
    /// and the VM's frame owners ([`BufferCache::check_invariants`]),
    /// every user frame pinned exactly while an outstanding disk request
    /// holds it (a filling block's frame, or one an outstanding swap-in
    /// or flush lists), every scheduler index vs its from-scratch value
    /// ([`Scheduler::check_invariants`]), every disk's queue
    /// ([`DiskDevice::check_invariants`]), every outstanding request vs
    /// its recorded purpose, and, with the SLO tracker on, every SPU's
    /// running SLO counts vs a rescan of every job at the current
    /// instant. Cheap enough to call after every test run.
    pub fn check_invariants(&self) {
        self.vm.check_invariants();
        self.cache.check_invariants(&self.vm);
        self.check_pinned_frames();
        self.check_disk_requests();
        self.sched.check_invariants(&self.procs);
        if let Some(slo) = &self.slo {
            slo.check(&self.jobs, self.now);
        }
    }

    /// Asserts each disk's queue invariants and the request lifecycle
    /// of `issue` and `retire`: every queued or in-service request's tag
    /// has a purpose and is on exactly one disk, and every purpose whose
    /// tag is on no disk has retry state, because it waits for its
    /// `IoRetry`.
    fn check_disk_requests(&self) {
        let mut on_disk = Vec::new();
        for d in &self.disks {
            d.check_invariants();
            on_disk.extend(d.outstanding().map(|r| r.tag));
        }
        on_disk.sort_unstable();
        for pair in on_disk.windows(2) {
            assert_ne!(pair[0], pair[1], "request {} is on a disk twice", pair[0]);
        }
        for tag in &on_disk {
            assert!(
                self.io_purpose.contains_key(tag),
                "request {tag} is on a disk without a purpose"
            );
        }
        for tag in self.io_purpose.keys() {
            assert!(
                on_disk.binary_search(tag).is_ok() || self.retries.contains_key(tag),
                "request {tag} is on no disk and awaits no retry"
            );
        }
    }

    /// Asserts that every user frame is pinned exactly while an
    /// outstanding request holds it. Boot pins the kernel's frames for
    /// good.
    fn check_pinned_frames(&self) {
        let mut held = Vec::new();
        for purpose in self.io_purpose.values() {
            match purpose {
                &IoPurpose::CacheFill {
                    file,
                    first_block,
                    nblocks,
                } => {
                    for b in first_block..first_block + nblocks as u64 {
                        if let Some(CacheEntry::Filling { frame, .. }) = self.cache.get(file, b) {
                            held.push(frame);
                        }
                    }
                }
                IoPurpose::SwapIn { frames, .. } | IoPurpose::Flush { frames } => {
                    held.extend_from_slice(frames)
                }
                IoPurpose::Private { .. } | IoPurpose::Noop => {}
            }
        }
        held.sort_unstable();
        for id in (0..self.vm.frame_count() as u32).map(FrameId) {
            let frame = self.vm.frame(id);
            let is_held = held.binary_search(&id).is_ok();
            assert!(
                frame.owner == FrameOwner::Kernel || frame.pinned == is_held,
                "{id:?} pinned: {}, held by an outstanding request: {is_held}",
                frame.pinned
            );
        }
    }

    /// Enables execution tracing of up to `cap` events (see
    /// [`Trace`]); call before [`run`](Self::run).
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace.enable(cap);
    }

    /// The recorded trace (empty unless enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The ledger auditor's findings (checked after every tick and
    /// memory-policy evaluation; see [`LedgerAuditor`]).
    pub fn auditor(&self) -> &LedgerAuditor {
        &self.auditor
    }

    /// Kernel errors recovered during the run (bounded sample; the full
    /// count is the `kernel.errors` counter).
    pub fn errors(&self) -> &[KernelError] {
        &self.errors
    }

    /// Enables the periodic resource sampler: every `interval` of
    /// simulated time the kernel records each user SPU's
    /// `(entitled, allowed, used)` levels for every managed resource —
    /// CPU time, memory and disk bandwidth — plus one sample at run
    /// start. Call before [`run`](Self::run); the series come back in
    /// [`RunMetrics::obsv`](crate::metrics::RunMetrics).
    ///
    /// Sampling reads state the event loop maintains anyway (ledger
    /// levels, CPU occupancy, decayed bandwidth counts whose decay is
    /// step-invariant), so enabling it never changes the simulation's
    /// behaviour — only what gets recorded.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn enable_sampling(&mut self, interval: SimDuration) {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        self.sample_interval = Some(interval);
        let partition = CpuPartition::compute(self.cfg.cpus, &self.spus);
        self.cpu_entitled = self
            .spus
            .user_ids()
            .map(|id| partition.milli_cpus(id) as f64 / 1000.0)
            .collect();
        self.series = self
            .spus
            .user_ids()
            .flat_map(|id| crate::policy::SAMPLED.map(|r| (id, r)))
            .map(|(id, r)| SampleSeries::new(id, self.spus.path(id), r))
            .collect();
    }

    /// Enables cross-SPU interference attribution (see
    /// [`obsv::interference`](crate::obsv::interference)): lock waits,
    /// CPU-revocation delays, disk-queue waits and memory steals are
    /// attributed to the SPU that caused them, and lock waits become
    /// named trace spans when tracing is also on. Call before
    /// [`run`](Self::run).
    ///
    /// Attribution only *observes* state the kernel maintains anyway, so
    /// enabling it never changes scheduling decisions, the fingerprint,
    /// or any pre-existing export line — exports gain lines, byte-for-
    /// byte identical prefixes aside.
    pub fn enable_attribution(&mut self) {
        self.attribution = Some(Attribution::new(self.spus.total_count()));
        for d in &mut self.disks {
            d.record_queue_waits(true);
        }
    }

    /// Enables the per-SPU SLO tracker: every tracked job's response
    /// time is judged against `target`, and
    /// [`RunMetrics::obsv`](crate::metrics::RunMetrics)'s
    /// [`SloReport`] reports
    /// percentiles, goodput and the violation fraction per SPU. When
    /// sampling is also enabled, cumulative `(completed, violated)`
    /// counts are recorded at every sampling instant alongside the
    /// resource series. Call before [`run`](Self::run).
    ///
    /// The counts are kept as the run goes: a root exit bumps its SPU's
    /// `completed` (and `violated` when over target), each job joins its
    /// SPU's start-ordered queue when it starts, and a sample pops the
    /// jobs that went over target since the last one, counting the
    /// unfinished ones as violations. A sample therefore costs one step
    /// per SPU plus one per job that crossed the target, not a pass over
    /// every job; a shed or finished job that was counted late leaves
    /// the late count when it closes.
    ///
    /// # Panics
    ///
    /// Panics if `target` is zero.
    pub fn enable_slo(&mut self, target: SimDuration) {
        assert!(!target.is_zero(), "SLO target must be positive");
        self.slo = Some(SloTracker::new(target, self.spus.total_count()));
    }

    /// Creates a file on `disk` (see [`FileSystem::create`]).
    pub fn create_file(&mut self, disk: usize, bytes: u64, gap_blocks: u64) -> FileId {
        self.fp.write_u64(0xf11e);
        self.fp.write_usize(disk);
        self.fp.write_u64(bytes);
        self.fp.write_u64(gap_blocks);
        self.fs.create(disk, bytes, gap_blocks)
    }

    /// Spawns a process of `program` in `spu` starting at `at`. With a
    /// label the process becomes the root of a tracked job.
    pub fn spawn_at(
        &mut self,
        spu: SpuId,
        program: Arc<Program>,
        job_label: Option<&str>,
        at: SimTime,
    ) -> Pid {
        self.fp.write_u64(0x5fa0);
        self.fp.write_usize(spu.index());
        program.fingerprint(&mut self.fp);
        match job_label {
            Some(label) => {
                self.fp.write_bool(true);
                self.fp.write_str(label);
            }
            None => self.fp.write_bool(false),
        }
        at.fingerprint(&mut self.fp);
        self.spawn(spu, program, job_label.map(|label| (label, None)), at)
    }

    /// Spawns a *request* — a tracked job with a per-request `deadline`
    /// (relative to `at`) that is subject to the SPU's admission queue
    /// when admission control is on (`Tuning::admission_cap > 0`).
    /// Without admission control a request behaves exactly like a
    /// [`spawn_at`](Self::spawn_at) job; the deadline still feeds SLO
    /// scoring via the job record.
    pub fn spawn_request_at(
        &mut self,
        spu: SpuId,
        program: Arc<Program>,
        label: &str,
        at: SimTime,
        deadline: SimDuration,
    ) -> Pid {
        self.fp.write_u64(0x5fa1);
        self.fp.write_usize(spu.index());
        program.fingerprint(&mut self.fp);
        self.fp.write_str(label);
        at.fingerprint(&mut self.fp);
        deadline.fingerprint(&mut self.fp);
        self.spawn(spu, program, Some((label, Some(at + deadline))), at)
    }

    /// Creates a process of `program` in `spu` that starts at `at`. With
    /// a `(label, deadline)` job the process becomes the root of a
    /// tracked job with that label and absolute deadline.
    fn spawn(
        &mut self,
        spu: SpuId,
        program: Arc<Program>,
        job: Option<(&str, Option<SimTime>)>,
        at: SimTime,
    ) -> Pid {
        let pid = self.procs.next_pid();
        let job = job.map(|(label, deadline)| {
            let id = JobId(self.jobs.len() as u32);
            self.jobs.push(JobRecord {
                job: id,
                label: label.to_string(),
                spu,
                root: pid,
                started: at,
                finished: None,
                deadline,
                shed: false,
            });
            id
        });
        let mut p = Process::new(pid, spu, job, program, None, at);
        p.pages = self.page_arena.alloc();
        p.state = ProcState::Blocked(BlockReason::Io); // not started yet
        self.procs.insert(p);
        self.live_procs += 1;
        self.events.schedule(at, Event::Start(pid));
        pid
    }

    /// Drives the simulation until every process exits or `cap` is
    /// reached. Returns the collected metrics.
    pub fn run(&mut self, cap: SimTime) -> RunMetrics {
        self.events.schedule(self.now + TICK, Event::Tick);
        self.events
            .schedule(self.now + SYNC_PERIOD, Event::SyncDaemon);
        self.events
            .schedule(self.now + MEM_POLICY_PERIOD, Event::MemPolicy);
        if let Some(iv) = self.sample_interval {
            self.on_sample(); // baseline sample at run start
            self.events.schedule(self.now + iv, Event::Sample);
        }
        for e in self.cfg.fault_plan.events() {
            self.events.schedule(e.at, Event::Fault(e.kind));
        }
        let mut completed = false;
        // Drain same-instant events in one batch per queue visit: swap-in
        // completions, wakes, and dispatches that land on the same tick
        // skip the per-event advance/promote round-trip. Delivery order is
        // identical to a one-at-a-time pop loop (see `EventQueue::pop_run`).
        let mut batch: Vec<Event> = Vec::new();
        'run: while let Some(at) = self.events.pop_run(&mut batch) {
            if at > cap {
                // The pre-batching loop popped (and dropped) exactly one
                // over-cap event before breaking; keep the rest pending so
                // queue state after an early stop is unchanged.
                for ev in batch.drain(..).skip(1) {
                    self.events.schedule(at, ev);
                }
                break;
            }
            self.now = at;
            let mut pending = batch.drain(..);
            while let Some(ev) = pending.next() {
                self.handle(ev);
                if self.live_procs == 0 {
                    completed = true;
                    // Undrained same-instant events go back to the queue
                    // (order preserved — fresh seqs are assigned in push
                    // order), matching the unbatched loop's early break.
                    for rest in pending {
                        self.events.schedule(at, rest);
                    }
                    break 'run;
                }
            }
        }
        self.collect_metrics(completed)
    }

    // ----- metrics ---------------------------------------------------------

    /// Publishes every subsystem's counters into one registry
    /// (deterministic name order; see [`CounterRegistry`]): a clone of
    /// the kernel's live counters plus the values derived from subsystem
    /// state, stored by the ids interned at boot ([`KernelCounterIds`])
    /// — no string hashing, no per-disk name formatting.
    pub(crate) fn publish_counters(&self) -> CounterRegistry {
        let ids = &self.counter_ids;
        let mut reg = self.counters.clone();
        reg.set_id(ids.locks_acquires, self.locks.total_acquires());
        reg.set_id(ids.locks_contended, self.locks.contended_acquires());
        let cache = self.cache.stats();
        reg.set_id(ids.cache_hits, cache.hits);
        reg.set_id(ids.cache_misses, cache.misses);
        reg.set_id(ids.cache_fill_joins, cache.fill_joins);
        reg.set_id(ids.cache_flushed_blocks, cache.flushed_blocks);
        for id in self.spus.all_ids() {
            let v = self.vm.stats(id);
            reg.add_id(ids.vm_minor_faults, v.minor_faults);
            reg.add_id(ids.vm_major_faults, v.major_faults);
            reg.add_id(ids.vm_swap_outs, v.swap_outs);
            reg.add_id(ids.vm_denials, v.denials);
        }
        for (d, &(requests, errors)) in self.disks.iter().zip(&ids.disk) {
            reg.set_id(requests, d.stats().total_requests());
            reg.set_id(errors, d.stats().total_errors());
        }
        reg.set_id(ids.audit_checks, self.auditor.checks());
        // The live count holds the CPU-partition audit failures.
        reg.add_id(ids.audit_violations, self.auditor.violation_count());
        reg.set_id(ids.trace_dropped, self.trace.dropped());
        // Interference counters are interned only when attribution is on,
        // so the registry (and every export derived from it) is untouched
        // for ordinary runs.
        if let Some(attr) = &self.attribution {
            reg.set("interference.lock_waits", attr.lock_waits);
            reg.set("interference.lock_wait_nanos", attr.lock_wait_nanos);
            reg.set("interference.lock_hold_nanos", attr.lock_hold_total_nanos);
            reg.set("interference.cpu_revoke_nanos", attr.cpu_revoke_nanos);
            reg.set("interference.disk_queue_nanos", attr.disk_queue_nanos);
            reg.set("interference.mem_steals", attr.mem_steals);
        }
        // Admission counters are interned only when admission control is
        // on, for the same byte-identity reason.
        if self.cfg.tuning.admission_cap > 0 {
            let mut sum = crate::admission::AdmissionTotals::default();
            for q in &self.admission {
                sum.add(q);
            }
            reg.set("requests.arrivals", sum.arrivals);
            reg.set("requests.admitted", sum.admitted);
            reg.set("requests.shed", sum.shed);
            reg.set("requests.expired", sum.expired);
            reg.set("requests.timeouts", sum.timeouts);
            reg.set("requests.retries", sum.retries);
            reg.set("requests.brownout_skips", sum.brownout_skips);
        }
        // Tenant roll-ups are interned only on hierarchical SPU sets, so
        // flat machines' registries (and exports) stay byte-identical.
        if let Some(tree) = self.spus.tree() {
            reg.set("spu.tree.tenants", tree.tenant_count() as u64);
            reg.set("spu.tree.services", tree.leaf_count() as u64);
            for tenant in tree.tenants() {
                let seg = counter_segment(tenant.name());
                let (cpu, pages) = tenant.leaves().iter().fold((0u64, 0u64), |(c, p), &l| {
                    let id = SpuId::user(l);
                    (
                        c + self.spu_cpu[id.index()].as_nanos(),
                        p + self.vm.levels(id).used,
                    )
                });
                reg.set(&format!("spu.tree.{seg}.ceiling"), tenant.ceiling() as u64);
                reg.set(&format!("spu.tree.{seg}.cpu_nanos"), cpu);
                reg.set(&format!("spu.tree.{seg}.pages_used"), pages);
            }
        }
        reg
    }

    /// The per-SPU SLO table for the configured target (empty when the
    /// tracker is off). Unfinished jobs count as violations and are
    /// scored at `end_time`; percentiles are exact nearest-rank over the
    /// scored responses.
    fn collect_slo(&self, end_time: SimTime) -> SloReport {
        let Some(slo) = &self.slo else {
            return SloReport::default();
        };
        let target = slo.target();
        let elapsed = end_time.as_secs_f64();
        let mut per_spu = Vec::new();
        for (idx, spu) in self.spus.all_ids().enumerate() {
            let mut responses: Vec<f64> = Vec::new();
            let mut met = 0u64;
            // Shed requests were refused, not served late: they are
            // excluded from SLO scoring (the shed counters account for
            // them).
            for j in self.jobs.iter().filter(|j| j.spu == spu && !j.shed) {
                match j.response() {
                    Some(r) => {
                        if r <= target {
                            met += 1;
                        }
                        responses.push(r.as_secs_f64());
                    }
                    None => responses.push(end_time.saturating_since(j.started).as_secs_f64()),
                }
            }
            if responses.is_empty() {
                continue;
            }
            responses.sort_by(f64::total_cmp);
            let jobs = responses.len() as u64;
            per_spu.push(SpuSlo {
                spu,
                name: self.spus.path(spu),
                jobs,
                met,
                violated: jobs - met,
                p50: nearest_rank(&responses, 50.0),
                p99: nearest_rank(&responses, 99.0),
                p999: nearest_rank(&responses, 99.9),
                goodput: if elapsed > 0.0 {
                    met as f64 / elapsed
                } else {
                    0.0
                },
                violation_frac: (jobs - met) as f64 / jobs as f64,
                samples: slo.samples(idx).to_vec(),
            });
        }
        SloReport { target, per_spu }
    }

    pub(crate) fn collect_metrics(&mut self, completed: bool) -> RunMetrics {
        let mut cpu_idle = Vec::new();
        let mut cpu_busy = Vec::new();
        for i in 0..self.sched.cpu_count() {
            let c = self.sched.cpu_mut(i);
            if let Some(since) = c.idle_since.take() {
                c.idle_total += self.now.saturating_since(since);
            }
            cpu_idle.push(c.idle_total);
            cpu_busy.push(c.busy_total);
        }
        let mut latency = self.latency.clone();
        let mut disk_service = LogHistogram::latency();
        for d in &self.disks {
            disk_service.merge(d.stats().service_histogram());
        }
        latency.disk_service = disk_service;
        let interference = match &self.attribution {
            Some(attr) => attr.report(self.spus.all_ids().map(|id| self.spus.path(id)).collect()),
            None => Default::default(),
        };
        let obsv = ObsvReport {
            counters: self.publish_counters(),
            series: self.series.clone(),
            latency,
            sample_interval: self.sample_interval,
            interference,
            slo: self.collect_slo(self.now),
            requests: self.collect_requests(),
        };
        RunMetrics {
            end_time: self.now,
            completed,
            jobs: self.jobs.clone(),
            spu_cpu_time: self.spu_cpu.clone(),
            cpu_idle,
            cpu_busy,
            vm: self
                .spus
                .all_ids()
                .map(|id| self.vm.stats(id).clone())
                .collect(),
            mem_levels: self.spus.all_ids().map(|id| self.vm.levels(id)).collect(),
            cache: self.cache.stats(),
            disks: self.disks.iter().map(|d| d.stats().clone()).collect(),
            obsv,
        }
    }
}
