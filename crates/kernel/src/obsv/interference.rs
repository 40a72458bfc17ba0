//! Cross-SPU interference attribution: who waited on whom, through which
//! kernel channel, and for how long.
//!
//! The schemes of §3 bound how much CPU, memory and disk bandwidth an SPU
//! may *consume*, but a victim can still stall behind another SPU inside
//! the kernel. This module names those channels and accumulates a
//! waiter × holder matrix per channel so a slowdown can be attributed to
//! the offending SPU rather than merely observed:
//!
//! * **Kernel locks** (§3.4) — a process blocks on the root-directory or
//!   an inode lock held by another SPU. The wait is attributed to the SPU
//!   of the process that *hands the lock over* (the critical section the
//!   waiter actually sat behind); hold time is accumulated per holder
//!   SPU and lock class on the side.
//! * **CPU revocation** (§3.1) — a home SPU waits out the revocation
//!   delay while a borrower finishes on a loaned CPU.
//! * **Disk queue** (§3.3) — a request waits while the device services
//!   other streams. The wait is blamed on the stream serviced
//!   immediately before this request started ("last holder").
//! * **Memory steals** (§3.2) — a frame acquisition evicts another SPU's
//!   resident page. This channel counts pages, not nanoseconds.
//!
//! Everything here is off by default ([`enable_attribution`]) and adds
//! nothing — no counters, no trace events, no export lines — when
//! disabled, so existing exports stay byte-identical.
//!
//! [`enable_attribution`]: crate::Kernel::enable_attribution

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use event_sim::{SimDuration, SimTime};
use spu_core::SpuId;

use crate::locks::LockId;
use crate::metrics::JobRecord;
use crate::process::{JobId, Pid};

/// The lock classes of the simulated kernel (§3.4): the root-directory
/// lock and the per-file inode locks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    /// The root-directory lock ([`LockId::ROOT`]), taken by every name
    /// lookup.
    Root,
    /// A per-file inode lock, held across metadata updates.
    Inode,
}

impl LockClass {
    /// The class of a lock id.
    pub fn of(lock: LockId) -> LockClass {
        if lock == LockId::ROOT {
            LockClass::Root
        } else {
            LockClass::Inode
        }
    }

    /// Dense index (matches the order of [`LockClass::ALL`]).
    pub fn index(self) -> usize {
        match self {
            LockClass::Root => 0,
            LockClass::Inode => 1,
        }
    }

    /// Both classes, in export order.
    pub const ALL: [LockClass; 2] = [LockClass::Root, LockClass::Inode];

    /// Stable lowercase name used in exports and span names.
    pub fn as_str(self) -> &'static str {
        match self {
            LockClass::Root => "root",
            LockClass::Inode => "inode",
        }
    }
}

/// A blocking channel through which one SPU can delay another.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Channel {
    /// Wait for the root-directory lock.
    LockRoot,
    /// Wait for an inode lock.
    LockInode,
    /// Revocation delay of a loaned CPU.
    CpuRevoke,
    /// Disk-queue wait behind another stream's request.
    DiskQueue,
    /// Resident pages stolen by another SPU's frame acquisition.
    MemSteal,
}

impl Channel {
    /// Every channel, in the fixed export order.
    pub const ALL: [Channel; 5] = [
        Channel::LockRoot,
        Channel::LockInode,
        Channel::CpuRevoke,
        Channel::DiskQueue,
        Channel::MemSteal,
    ];

    /// The channel of a lock wait.
    pub fn of_lock(lock: LockId) -> Channel {
        match LockClass::of(lock) {
            LockClass::Root => Channel::LockRoot,
            LockClass::Inode => Channel::LockInode,
        }
    }

    /// Dense index (matches the order of [`Channel::ALL`]).
    pub fn index(self) -> usize {
        match self {
            Channel::LockRoot => 0,
            Channel::LockInode => 1,
            Channel::CpuRevoke => 2,
            Channel::DiskQueue => 3,
            Channel::MemSteal => 4,
        }
    }

    /// Stable dotted lowercase name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Channel::LockRoot => "lock.root",
            Channel::LockInode => "lock.inode",
            Channel::CpuRevoke => "cpu.revoke",
            Channel::DiskQueue => "disk.queue",
            Channel::MemSteal => "mem.steal",
        }
    }

    /// The unit of the accumulated amount.
    pub fn unit(self) -> &'static str {
        match self {
            Channel::MemSteal => "pages",
            _ => "ns",
        }
    }
}

/// A dense waiter × holder matrix per channel. `amount` is nanoseconds
/// for the time channels and pages for [`Channel::MemSteal`]; `events`
/// counts attributions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InterferenceMatrix {
    spu_count: usize,
    amounts: Vec<u64>,
    events: Vec<u64>,
}

impl InterferenceMatrix {
    /// An all-zero matrix over `spu_count` SPUs (dense
    /// [`SpuId::index`] order, kernel and shared included).
    pub fn new(spu_count: usize) -> Self {
        let cells = Channel::ALL.len() * spu_count * spu_count;
        InterferenceMatrix {
            spu_count,
            amounts: vec![0; cells],
            events: vec![0; cells],
        }
    }

    fn idx(&self, ch: Channel, waiter: usize, holder: usize) -> usize {
        debug_assert!(waiter < self.spu_count && holder < self.spu_count);
        (ch.index() * self.spu_count + waiter) * self.spu_count + holder
    }

    /// Number of SPUs the matrix covers.
    pub fn spu_count(&self) -> usize {
        self.spu_count
    }

    /// Records one attribution: `waiter` was delayed by `amount` behind
    /// `holder` through `ch`. Saturates instead of wrapping.
    pub fn add(&mut self, ch: Channel, waiter: SpuId, holder: SpuId, amount: u64) {
        let i = self.idx(ch, waiter.index(), holder.index());
        self.amounts[i] = self.amounts[i].saturating_add(amount);
        self.events[i] = self.events[i].saturating_add(1);
    }

    /// Accumulated amount in one cell; 0 for out-of-range SPUs (e.g. on
    /// a default, zero-SPU matrix).
    pub fn amount(&self, ch: Channel, waiter: SpuId, holder: SpuId) -> u64 {
        if waiter.index() >= self.spu_count || holder.index() >= self.spu_count {
            return 0;
        }
        self.amounts[self.idx(ch, waiter.index(), holder.index())]
    }

    /// Number of attributions in one cell; 0 for out-of-range SPUs.
    pub fn events(&self, ch: Channel, waiter: SpuId, holder: SpuId) -> u64 {
        if waiter.index() >= self.spu_count || holder.index() >= self.spu_count {
            return 0;
        }
        self.events[self.idx(ch, waiter.index(), holder.index())]
    }

    /// Total amount over a whole channel.
    pub fn channel_total(&self, ch: Channel) -> u64 {
        let n = self.spu_count;
        let base = ch.index() * n * n;
        self.amounts[base..base + n * n]
            .iter()
            .fold(0u64, |a, &v| a.saturating_add(v))
    }

    /// `true` when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.events.iter().all(|&v| v == 0)
    }

    /// Every non-zero cell as `(channel, waiter index, holder index,
    /// amount, events)`, in deterministic channel-major order.
    pub fn nonzero(&self) -> Vec<(Channel, usize, usize, u64, u64)> {
        let mut out = Vec::new();
        for ch in Channel::ALL {
            for w in 0..self.spu_count {
                for h in 0..self.spu_count {
                    let i = self.idx(ch, w, h);
                    if self.events[i] > 0 {
                        out.push((ch, w, h, self.amounts[i], self.events[i]));
                    }
                }
            }
        }
        out
    }
}

/// The attribution result attached to an
/// [`ObsvReport`](crate::ObsvReport): the matrix plus per-SPU lock hold
/// time, with SPU names for rendering.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InterferenceReport {
    /// SPU names in dense index order.
    pub spu_names: Vec<String>,
    /// The waiter × holder matrix.
    pub matrix: InterferenceMatrix,
    /// Lock hold time in nanoseconds, `[class][spu]` flattened in
    /// [`LockClass::ALL`] order.
    pub lock_hold_nanos: Vec<u64>,
}

impl InterferenceReport {
    /// `true` when attribution was disabled or nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.matrix.is_empty() && self.lock_hold_nanos.iter().all(|&v| v == 0)
    }

    /// Hold time of one SPU on one lock class.
    pub fn hold_nanos(&self, class: LockClass, spu: SpuId) -> u64 {
        let n = self.matrix.spu_count();
        self.lock_hold_nanos
            .get(class.index() * n + spu.index())
            .copied()
            .unwrap_or(0)
    }

    /// A plain-text table of every non-zero matrix cell, channel-major.
    pub fn format_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<12} {:<10} {:<10} {:>14} {:>8}",
            "channel", "waiter", "holder", "amount", "events"
        );
        let name = |i: usize| -> &str { self.spu_names.get(i).map(String::as_str).unwrap_or("?") };
        for (ch, w, h, amount, events) in self.matrix.nonzero() {
            let shown = if ch == Channel::MemSteal {
                format!("{amount} pages")
            } else {
                format!("{:.3} ms", amount as f64 / 1e6)
            };
            let _ = writeln!(
                s,
                "{:<12} {:<10} {:<10} {:>14} {:>8}",
                ch.as_str(),
                name(w),
                name(h),
                shown,
                events
            );
        }
        if self.matrix.is_empty() {
            let _ = writeln!(s, "(no cross-SPU interference recorded)");
        }
        s
    }
}

/// One SPU's service-level objective summary: response latency
/// percentiles against the configured target, goodput, and the violation
/// fraction. Unfinished jobs at run end count as violations and are
/// scored at the run's end time.
#[derive(Clone, Debug, PartialEq)]
pub struct SpuSlo {
    /// The SPU.
    pub spu: SpuId,
    /// Its display name.
    pub name: String,
    /// Tracked jobs spawned in this SPU.
    pub jobs: u64,
    /// Jobs that finished within the target.
    pub met: u64,
    /// Jobs over target or unfinished at run end.
    pub violated: u64,
    /// Exact nearest-rank response percentiles in seconds.
    pub p50: f64,
    /// 99th percentile response in seconds.
    pub p99: f64,
    /// 99.9th percentile response in seconds.
    pub p999: f64,
    /// SLO-met jobs per simulated second.
    pub goodput: f64,
    /// `violated / jobs`.
    pub violation_frac: f64,
    /// Cumulative `(completed, violated)` counts at each sampling
    /// instant (present when sampling was enabled alongside the SLO
    /// tracker).
    pub samples: Vec<SloSample>,
}

/// A cumulative SLO sample at one sampling instant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SloSample {
    /// Sampling instant.
    pub at: SimTime,
    /// Jobs completed by `at`.
    pub completed: u64,
    /// Violations by `at`: jobs finished over target, plus jobs already
    /// running longer than the target.
    pub violated: u64,
}

/// The per-SPU SLO table attached to an
/// [`ObsvReport`](crate::ObsvReport).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SloReport {
    /// The response-time target every job is judged against.
    pub target: SimDuration,
    /// One row per SPU that ran at least one tracked job, in dense
    /// index order.
    pub per_spu: Vec<SpuSlo>,
}

impl SloReport {
    /// `true` when the SLO tracker was disabled or no jobs ran.
    pub fn is_empty(&self) -> bool {
        self.per_spu.is_empty()
    }

    /// The row of one SPU, if it ran tracked jobs.
    pub fn spu(&self, spu: SpuId) -> Option<&SpuSlo> {
        self.per_spu.iter().find(|s| s.spu == spu)
    }

    /// A plain-text SLO table.
    pub fn format_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "SLO target: {:.1} ms", self.target.as_millis_f64());
        let _ = writeln!(
            s,
            "{:<10} {:>5} {:>5} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9}",
            "spu",
            "jobs",
            "met",
            "violated",
            "p50 ms",
            "p99 ms",
            "p999 ms",
            "goodput/s",
            "viol frac"
        );
        for r in &self.per_spu {
            let _ = writeln!(
                s,
                "{:<10} {:>5} {:>5} {:>9} {:>9.2} {:>9.2} {:>9.2} {:>10.2} {:>9.3}",
                r.name,
                r.jobs,
                r.met,
                r.violated,
                r.p50 * 1e3,
                r.p99 * 1e3,
                r.p999 * 1e3,
                r.goodput,
                r.violation_frac
            );
        }
        if self.per_spu.is_empty() {
            let _ = writeln!(s, "(no tracked jobs)");
        }
        s
    }
}

/// Exact nearest-rank percentile of a **sorted** slice (p in 0..=100).
/// Returns 0.0 on an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The live SLO tracker behind [`Kernel::enable_slo`]: per-SPU
/// cumulative counts kept as jobs start, finish and are shed, so a
/// sample costs time in the jobs that crossed the target since the last
/// one, not in every job ever spawned.
///
/// A job is *late* while it runs unfinished past the target. Each SPU
/// queues its started jobs in start order (`Event::Start` fires in time
/// order, at the job's start time). A sample pops the front while it is
/// over target and counts each popped job that is still open as late;
/// a job closed before it reaches the front is dropped there. Closing a
/// job that was counted late takes it back out of the late count: a
/// finished job moves to `violated` (it finished over target), and a
/// shed one leaves SLO scoring altogether. A crashed root never closes,
/// so it stays late.
///
/// [`Kernel::enable_slo`]: crate::Kernel::enable_slo
#[derive(Debug)]
pub(crate) struct SloTracker {
    target: SimDuration,
    /// Per SPU, in dense [`SpuId::index`] order.
    spus: Vec<SpuSloCounts>,
    /// The last sampling instant, when the queues were last popped.
    last_sample: Option<SimTime>,
}

/// One SPU's running counts.
#[derive(Clone, Debug, Default)]
struct SpuSloCounts {
    /// Jobs finished so far.
    completed: u64,
    /// Jobs finished over target.
    violated: u64,
    /// Open jobs counted late at the last sample.
    late: u64,
    /// Started jobs not yet past the target at the last sample, in
    /// start order; closed ones wait here until they reach the front.
    open: VecDeque<JobId>,
    samples: Vec<SloSample>,
}

impl SloTracker {
    pub(crate) fn new(target: SimDuration, spu_count: usize) -> Self {
        SloTracker {
            target,
            spus: vec![SpuSloCounts::default(); spu_count],
            last_sample: None,
        }
    }

    /// The response-time target.
    pub(crate) fn target(&self) -> SimDuration {
        self.target
    }

    /// SPU `idx`'s samples so far.
    pub(crate) fn samples(&self, idx: usize) -> &[SloSample] {
        &self.spus[idx].samples
    }

    /// Registers job `id`, whose `Event::Start` just fired.
    pub(crate) fn start(&mut self, jobs: &[JobRecord], id: JobId) {
        let job = &jobs[id.0 as usize];
        let open = &mut self.spus[job.spu.index()].open;
        debug_assert!(
            open.back()
                .is_none_or(|&b| jobs[b.0 as usize].started <= job.started),
            "{id:?} started out of order"
        );
        open.push_back(id);
    }

    /// Whether a job started at `started` and open until now was
    /// counted late: the last sample popped every job over target.
    fn counted_late(&self, started: SimTime) -> bool {
        self.last_sample
            .is_some_and(|at| at.saturating_since(started) > self.target)
    }

    /// Closes a job whose root just exited normally.
    pub(crate) fn finish(&mut self, job: &JobRecord) {
        let response = job.response().expect("finished job");
        let late = self.counted_late(job.started);
        let s = &mut self.spus[job.spu.index()];
        s.completed += 1;
        if response > self.target {
            s.violated += 1;
        }
        if late {
            s.late -= 1;
        }
    }

    /// Closes a job that admission control just shed.
    pub(crate) fn shed(&mut self, job: &JobRecord) {
        if self.counted_late(job.started) {
            self.spus[job.spu.index()].late -= 1;
        }
    }

    /// Records one cumulative `(completed, violated)` sample per SPU at
    /// `now`, first counting the open jobs that went over target since
    /// the last sample.
    pub(crate) fn sample(&mut self, jobs: &[JobRecord], now: SimTime) {
        for s in &mut self.spus {
            while let Some(&id) = s.open.front() {
                let job = &jobs[id.0 as usize];
                if now.saturating_since(job.started) <= self.target {
                    break;
                }
                s.open.pop_front();
                s.late += is_open(job) as u64;
            }
            s.samples.push(SloSample {
                at: now,
                completed: s.completed,
                violated: s.violated + s.late,
            });
        }
        self.last_sample = Some(now);
    }

    /// SPU `idx`'s `(completed, violated)` as a sample at `now` would
    /// record them, without popping its queue.
    fn counts_at(&self, jobs: &[JobRecord], idx: usize, now: SimTime) -> (u64, u64) {
        let s = &self.spus[idx];
        let newly_late = s
            .open
            .iter()
            .map(|id| &jobs[id.0 as usize])
            .take_while(|job| now.saturating_since(job.started) > self.target)
            .filter(|job| is_open(job))
            .count() as u64;
        (s.completed, s.violated + s.late + newly_late)
    }

    /// Asserts that every SPU's counts at `now` equal a rescan of every
    /// job ([`rescan_slo_counts`]). Right after a sample at `now`, these
    /// are the counts it recorded.
    ///
    /// # Panics
    ///
    /// Panics on the first SPU whose counts disagree.
    pub(crate) fn check(&self, jobs: &[JobRecord], now: SimTime) {
        for idx in 0..self.spus.len() {
            assert_eq!(
                self.counts_at(jobs, idx, now),
                rescan_slo_counts(jobs, idx, now, self.target),
                "SLO counts of SPU {idx} at {now:?}"
            );
        }
    }
}

/// Neither finished nor shed.
fn is_open(job: &JobRecord) -> bool {
    job.finished.is_none() && !job.shed
}

/// The reference the [`SloTracker`] is checked against: SPU `idx`'s
/// cumulative `(completed, violated)` at `now`, counted from scratch
/// over every job. Shed jobs and jobs not yet started are skipped; a
/// job still running past the target counts as violated.
fn rescan_slo_counts(
    jobs: &[JobRecord],
    idx: usize,
    now: SimTime,
    target: SimDuration,
) -> (u64, u64) {
    let mut completed = 0u64;
    let mut violated = 0u64;
    for j in jobs
        .iter()
        .filter(|j| j.spu.index() == idx && j.started <= now && !j.shed)
    {
        match j.finished {
            Some(f) => {
                completed += 1;
                if f.saturating_since(j.started) > target {
                    violated += 1;
                }
            }
            None if now.saturating_since(j.started) > target => violated += 1,
            None => {}
        }
    }
    (completed, violated)
}

/// Live attribution bookkeeping while a run executes. All maps are
/// `BTreeMap` so nothing about iteration order can leak into exports.
#[derive(Clone, Debug, Default)]
pub(crate) struct Attribution {
    pub matrix: InterferenceMatrix,
    /// `[class][spu]` flattened lock hold nanoseconds.
    pub lock_hold_nanos: Vec<u64>,
    /// When each blocked process started waiting for its lock.
    lock_wait_since: BTreeMap<Pid, SimTime>,
    /// When each holder acquired each lock it currently holds.
    lock_hold_since: BTreeMap<(Pid, LockId), SimTime>,
    pub lock_waits: u64,
    pub lock_wait_nanos: u64,
    pub lock_hold_total_nanos: u64,
    pub cpu_revoke_nanos: u64,
    pub disk_queue_nanos: u64,
    pub mem_steals: u64,
}

impl Attribution {
    pub fn new(spu_count: usize) -> Self {
        Attribution {
            matrix: InterferenceMatrix::new(spu_count),
            lock_hold_nanos: vec![0; LockClass::ALL.len() * spu_count],
            ..Default::default()
        }
    }

    /// A lock acquire succeeded immediately: the hold starts now.
    pub fn lock_acquired(&mut self, pid: Pid, lock: LockId, at: SimTime) {
        self.lock_hold_since.insert((pid, lock), at);
    }

    /// A lock acquire blocked: the wait starts now.
    pub fn lock_blocked(&mut self, pid: Pid, at: SimTime) {
        self.lock_wait_since.insert(pid, at);
    }

    /// A blocked process was handed the lock by `holder`'s release (or
    /// crash cleanup): attribute the wait to the holder's SPU and start
    /// the waiter's own hold. Returns the wait, for tracing.
    pub fn lock_granted(
        &mut self,
        pid: Pid,
        waiter_spu: SpuId,
        lock: LockId,
        holder_spu: SpuId,
        at: SimTime,
    ) -> SimDuration {
        let wait = self
            .lock_wait_since
            .remove(&pid)
            .map(|since| at.saturating_since(since))
            .unwrap_or(SimDuration::ZERO);
        if !wait.is_zero() {
            self.matrix.add(
                Channel::of_lock(lock),
                waiter_spu,
                holder_spu,
                wait.as_nanos(),
            );
            self.lock_wait_nanos = self.lock_wait_nanos.saturating_add(wait.as_nanos());
        }
        self.lock_waits = self.lock_waits.saturating_add(1);
        self.lock_hold_since.insert((pid, lock), at);
        wait
    }

    /// `holder_spu` released the lock while `pid` stayed queued: charge
    /// the hold segment since `pid`'s last checkpoint to that holder and
    /// restart the clock. Segment-wise charging spreads a long queue
    /// wait over the holders that actually ran during it, instead of
    /// dumping it all on whoever released last.
    pub fn lock_still_waiting(
        &mut self,
        pid: Pid,
        waiter_spu: SpuId,
        lock: LockId,
        holder_spu: SpuId,
        at: SimTime,
    ) {
        if let Some(since) = self.lock_wait_since.get_mut(&pid) {
            let wait = at.saturating_since(*since);
            *since = at;
            if !wait.is_zero() {
                self.matrix.add(
                    Channel::of_lock(lock),
                    waiter_spu,
                    holder_spu,
                    wait.as_nanos(),
                );
                self.lock_wait_nanos = self.lock_wait_nanos.saturating_add(wait.as_nanos());
            }
        }
    }

    /// `pid` released `lock`: close its hold interval and charge the
    /// hold time to its SPU and the lock's class.
    pub fn lock_released(&mut self, pid: Pid, spu: SpuId, lock: LockId, at: SimTime) {
        if let Some(since) = self.lock_hold_since.remove(&(pid, lock)) {
            let held = at.saturating_since(since).as_nanos();
            let n = self.matrix.spu_count();
            let i = LockClass::of(lock).index() * n + spu.index();
            if let Some(cell) = self.lock_hold_nanos.get_mut(i) {
                *cell = cell.saturating_add(held);
            }
            self.lock_hold_total_nanos = self.lock_hold_total_nanos.saturating_add(held);
        }
    }

    /// A process died: drop its pending wait and close all of its holds
    /// (crash cleanup mirrors [`LockTable::release_all`]).
    ///
    /// [`LockTable::release_all`]: crate::LockTable::release_all
    pub fn forget(&mut self, pid: Pid, spu: SpuId, at: SimTime) {
        self.lock_wait_since.remove(&pid);
        let held: Vec<LockId> = self
            .lock_hold_since
            .keys()
            .filter(|(p, _)| *p == pid)
            .map(|(_, l)| *l)
            .collect();
        for lock in held {
            self.lock_released(pid, spu, lock, at);
        }
    }

    /// A home SPU waited out a revocation delay behind `holder`.
    pub fn cpu_revoked(&mut self, waiter: SpuId, holder: SpuId, delay: SimDuration) {
        self.matrix
            .add(Channel::CpuRevoke, waiter, holder, delay.as_nanos());
        self.cpu_revoke_nanos = self.cpu_revoke_nanos.saturating_add(delay.as_nanos());
    }

    /// A disk request of `waiter` queued behind `holder`'s service.
    pub fn disk_queue_wait(&mut self, waiter: SpuId, holder: SpuId, wait: SimDuration) {
        self.matrix
            .add(Channel::DiskQueue, waiter, holder, wait.as_nanos());
        self.disk_queue_nanos = self.disk_queue_nanos.saturating_add(wait.as_nanos());
    }

    /// `thief`'s frame acquisition evicted one of `victim`'s pages.
    pub fn mem_steal(&mut self, victim: SpuId, thief: SpuId) {
        self.matrix.add(Channel::MemSteal, victim, thief, 1);
        self.mem_steals = self.mem_steals.saturating_add(1);
    }

    /// Freezes the accumulated state into a report.
    pub fn report(&self, spu_names: Vec<String>) -> InterferenceReport {
        InterferenceReport {
            spu_names,
            matrix: self.matrix.clone(),
            lock_hold_nanos: self.lock_hold_nanos.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_names_and_order() {
        let names: Vec<&str> = Channel::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(
            names,
            [
                "lock.root",
                "lock.inode",
                "cpu.revoke",
                "disk.queue",
                "mem.steal"
            ]
        );
        for (i, ch) in Channel::ALL.into_iter().enumerate() {
            assert_eq!(ch.index(), i);
        }
        assert_eq!(Channel::MemSteal.unit(), "pages");
        assert_eq!(Channel::LockRoot.unit(), "ns");
        assert_eq!(Channel::of_lock(LockId::ROOT), Channel::LockRoot);
        assert_eq!(Channel::of_lock(LockId(7)), Channel::LockInode);
    }

    #[test]
    fn matrix_accumulates_and_lists_nonzero_in_order() {
        let mut m = InterferenceMatrix::new(4);
        let v = SpuId::user(0);
        let a = SpuId::user(1);
        m.add(Channel::LockRoot, v, a, 100);
        m.add(Channel::LockRoot, v, a, 50);
        m.add(Channel::MemSteal, a, v, 1);
        assert_eq!(m.amount(Channel::LockRoot, v, a), 150);
        assert_eq!(m.events(Channel::LockRoot, v, a), 2);
        assert_eq!(m.amount(Channel::LockRoot, a, v), 0);
        assert_eq!(m.channel_total(Channel::LockRoot), 150);
        assert!(!m.is_empty());
        let nz = m.nonzero();
        assert_eq!(
            nz,
            vec![
                (Channel::LockRoot, 2, 3, 150, 2),
                (Channel::MemSteal, 3, 2, 1, 1),
            ]
        );
    }

    #[test]
    fn matrix_saturates_instead_of_wrapping() {
        let mut m = InterferenceMatrix::new(3);
        m.add(Channel::LockRoot, SpuId::user(0), SpuId::user(0), u64::MAX);
        m.add(Channel::LockRoot, SpuId::user(0), SpuId::user(0), u64::MAX);
        assert_eq!(
            m.amount(Channel::LockRoot, SpuId::user(0), SpuId::user(0)),
            u64::MAX
        );
    }

    #[test]
    fn attribution_lock_lifecycle() {
        let mut a = Attribution::new(4);
        let w = Pid(10);
        let h = Pid(20);
        let ws = SpuId::user(0);
        let hs = SpuId::user(1);

        a.lock_acquired(h, LockId::ROOT, SimTime::from_micros(0));
        a.lock_blocked(w, SimTime::from_micros(10));
        a.lock_released(h, hs, LockId::ROOT, SimTime::from_micros(50));
        let wait = a.lock_granted(w, ws, LockId::ROOT, hs, SimTime::from_micros(50));
        assert_eq!(wait, SimDuration::from_micros(40));
        a.lock_released(w, ws, LockId::ROOT, SimTime::from_micros(90));

        assert_eq!(a.matrix.amount(Channel::LockRoot, ws, hs), 40_000);
        assert_eq!(a.lock_waits, 1);
        assert_eq!(a.lock_wait_nanos, 40_000);
        // Both holds closed: 50 µs + 40 µs.
        assert_eq!(a.lock_hold_total_nanos, 90_000);
        let rep = a.report(vec!["k".into(), "s".into(), "u0".into(), "u1".into()]);
        assert_eq!(rep.hold_nanos(LockClass::Root, hs), 50_000);
        assert_eq!(rep.hold_nanos(LockClass::Root, ws), 40_000);
        assert!(!rep.is_empty());
        assert!(rep.format_table().contains("lock.root"));
    }

    #[test]
    fn forget_closes_holds_and_drops_waits() {
        let mut a = Attribution::new(4);
        let p = Pid(3);
        let s = SpuId::user(1);
        a.lock_acquired(p, LockId::ROOT, SimTime::ZERO);
        a.lock_acquired(p, LockId(5), SimTime::ZERO);
        a.lock_blocked(Pid(4), SimTime::ZERO);
        a.forget(p, s, SimTime::from_micros(100));
        a.forget(Pid(4), SpuId::user(0), SimTime::from_micros(100));
        assert_eq!(a.report(vec![]).hold_nanos(LockClass::Root, s), 100_000);
        assert_eq!(a.report(vec![]).hold_nanos(LockClass::Inode, s), 100_000);
        // The dropped waiter never contributes a grant.
        assert_eq!(a.lock_waits, 0);
    }

    #[test]
    fn nearest_rank_is_exact() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(nearest_rank(&xs, 50.0), 50.0);
        assert_eq!(nearest_rank(&xs, 99.0), 99.0);
        assert_eq!(nearest_rank(&xs, 99.9), 100.0);
        assert_eq!(nearest_rank(&xs, 100.0), 100.0);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
        assert_eq!(nearest_rank(&[7.0], 1.0), 7.0);
    }

    #[test]
    fn nearest_rank_boundaries() {
        // A single sample answers every percentile.
        for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(nearest_rank(&[7.0], p), 7.0);
        }
        // p = 0 clamps to the first sample instead of rank 0.
        let xs: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        assert_eq!(nearest_rank(&xs, 0.0), 1.0);
        // Rank arithmetic is exact at the p99/p999 boundaries: with 200
        // samples p99 is the 198th and p99.9 rounds up to the 200th.
        assert_eq!(nearest_rank(&xs, 50.0), 100.0);
        assert_eq!(nearest_rank(&xs, 99.0), 198.0);
        assert_eq!(nearest_rank(&xs, 99.9), 200.0);
        // Odd lengths round up: rank ceil(1.5) = 2 of 3.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn slo_empty_window_yields_empty_report() {
        use crate::{Kernel, MachineConfig};
        use spu_core::{Scheme, SpuSet};
        let cfg = MachineConfig::builder()
            .topology(1, 44, 1)
            .scheme(Scheme::Smp)
            .build()
            .unwrap();
        let mut k = Kernel::new(cfg, SpuSet::equal_users(1));
        k.enable_slo(SimDuration::from_millis(10));
        let m = k.run(SimTime::from_millis(5));
        assert!(m.slo().is_empty(), "no jobs ran, so no SLO rows");
        assert!(m.slo().format_table().contains("no tracked jobs"));
    }

    #[test]
    fn slo_single_sample_percentiles_collapse() {
        use crate::{Kernel, MachineConfig, Program};
        use spu_core::{Scheme, SpuSet};
        let cfg = MachineConfig::builder()
            .topology(1, 44, 1)
            .scheme(Scheme::Smp)
            .build()
            .unwrap();
        let mut k = Kernel::new(cfg, SpuSet::equal_users(1));
        k.enable_slo(SimDuration::from_millis(10));
        let prog = Program::builder("one")
            .compute(SimDuration::from_millis(2), 0)
            .build();
        k.spawn_at(SpuId::user(0), prog, Some("one"), SimTime::ZERO);
        let m = k.run(SimTime::from_secs(1));
        let row = m.slo().spu(SpuId::user(0)).expect("one tracked job");
        assert_eq!((row.jobs, row.met, row.violated), (1, 1, 0));
        assert!(row.p50 > 0.0);
        assert_eq!(row.p50, row.p99, "one sample answers every percentile");
        assert_eq!(row.p99, row.p999);
        assert_eq!(row.violation_frac, 0.0);
    }

    #[test]
    fn slo_unfinished_jobs_all_count_violated() {
        use crate::{Kernel, MachineConfig, Program};
        use spu_core::{Scheme, SpuSet};
        let cfg = MachineConfig::builder()
            .topology(1, 44, 1)
            .scheme(Scheme::Smp)
            .build()
            .unwrap();
        let mut k = Kernel::new(cfg, SpuSet::equal_users(1));
        k.enable_slo(SimDuration::from_millis(10));
        let prog = Program::builder("hog")
            .compute(SimDuration::from_secs(30), 0)
            .build();
        k.spawn_at(SpuId::user(0), prog, Some("hog"), SimTime::ZERO);
        let m = k.run(SimTime::from_millis(50));
        assert!(!m.completed);
        let row = m.slo().spu(SpuId::user(0)).expect("row for the hog");
        // Zero completed requests: the unfinished job is scored at the
        // run's end time and the violation fraction saturates at 1.0.
        assert_eq!((row.jobs, row.met, row.violated), (1, 0, 1));
        assert_eq!(row.violation_frac, 1.0);
        assert_eq!(row.goodput, 0.0);
        assert_eq!(row.p50, m.end_time.as_secs_f64());
        assert_eq!(row.p999, m.end_time.as_secs_f64());
    }

    #[test]
    fn slo_fully_shed_spu_has_no_row() {
        use crate::{Kernel, MachineConfig, Program, Tuning};
        use spu_core::{Scheme, ShedPolicy, SpuSet};
        let tuning = Tuning {
            admission_cap: 1,
            shed_policy: ShedPolicy::DeadlineAware,
            ..Tuning::default()
        };
        let cfg = MachineConfig::builder()
            .topology(1, 44, 1)
            .scheme(Scheme::Smp)
            .tuning(tuning)
            .build()
            .unwrap();
        let mut k = Kernel::new(cfg, SpuSet::equal_users(1));
        k.enable_slo(SimDuration::from_millis(10));
        let prog = Program::builder("req")
            .compute(SimDuration::from_millis(1), 0)
            .build();
        // A zero deadline budget: dead on arrival, refused by the
        // deadline-aware policy before ever being served.
        k.spawn_request_at(
            SpuId::user(0),
            prog,
            "req",
            SimTime::from_millis(1),
            SimDuration::ZERO,
        );
        let m = k.run(SimTime::from_secs(1));
        let req = m.requests().spu(SpuId::user(0)).expect("request row");
        assert_eq!((req.arrivals, req.expired), (1, 1));
        // Every request was shed, none served: no SLO row at all.
        assert!(m.slo().spu(SpuId::user(0)).is_none());
    }

    #[test]
    fn empty_reports_render() {
        let rep = InterferenceReport::default();
        assert!(rep.is_empty());
        assert!(rep.format_table().contains("no cross-SPU interference"));
        let slo = SloReport::default();
        assert!(slo.is_empty());
        assert!(slo.format_table().contains("no tracked jobs"));
    }
}
