//! The hybrid CPU scheduler (§3.1).
//!
//! "To provide isolation the normal priority-based scheduling behavior is
//! modified by having CPUs select processes only from their home SPUs
//! when scheduling ... Sharing is implemented by relaxing the SPU ID
//! restriction when a processor becomes idle. ... Currently, the process
//! with the highest priority is chosen."
//!
//! Priorities are classic UNIX decay-usage: a process's `p_cpu` rises
//! while it runs and decays over time; lower values win. Between
//! processes of the same SPU the standard discipline applies unchanged.
//!
//! # Scaling structure
//!
//! Every decision costs time in the state that changed, not in the size
//! of the machine:
//!
//! * **Per-SPU ready heaps under a min-tree.** Each SPU's ready list is
//!   a binary min-heap of cached `(priority band, ready_seq)` keys, so
//!   its head is the heap's root and enqueue and removal cost
//!   O(log n). A fixed-size tournament tree over the SPU indices holds
//!   the machine-wide best head at its root. A home pick takes its
//!   SPU's head, the sibling steal the best of the siblings' heads, and
//!   the SMP pick and the PIso loan the root. The cached keys are
//!   exact: a band moves only with `p_cpu`, which
//!   [`ProcTable::charge_p_cpu`] refuses to change for a queued process
//!   and priority decay changes for all at once. Decay then refreshes
//!   every queued process's cached band and re-heapifies the lists
//!   whose bands moved, O(n) per tick, the cost of the scan it replaced.
//! * **Bitset CPU sets.** The idle, loaned, revocable and
//!   revocation-requested CPUs are word bitsets, scanned in ascending
//!   order with `trailing_zeros`.
//! * **An exact revocable index.** CPU `c` is in the revocable set
//!   exactly when [`Scheduler::needs_revocation`] holds for it. The
//!   predicate reads `c`'s running, loaned and online state, its
//!   assignment, and whether its home SPUs (and, on tenant trees, their
//!   siblings) have ready work; `c` is re-evaluated whenever one of
//!   those inputs changes: in [`sync_cpu`](Scheduler::sync_cpu), when an
//!   SPU's ready count crosses zero, and on rebalance.
//!
//! Decisions are byte-identical to scanning every ready process and
//! every loaned CPU: pick keys are unique (the FIFO stamp is unique per
//! enqueue), so each pick minimizes over the same candidate set with no
//! tie to reorder it, and each index is re-evaluated on every change to
//! its inputs. `crates/kernel/tests/sched_equivalence.rs` checks this
//! against a linear-scan reference model, and
//! [`Scheduler::check_invariants`] re-derives every index from scratch.

use event_sim::{SimDuration, SimTime};
use spu_core::{CpuAssignment, CpuPartition, Scheme, SharedCpuRotor, SpuId, SpuSet};

use crate::process::{Pid, ProcState, Process};

/// Sentinel for "not on any ready list" in [`Process::run_q`].
pub(crate) const NO_QUEUE: u32 = u32::MAX;

/// Per-tick multiplicative decay of `p_cpu` (half-life ≈ 1 s at a 10 ms
/// tick).
pub const P_CPU_DECAY: f64 = 0.9931;

/// Width of one priority band in `p_cpu` milliseconds. Like classic
/// UNIX/IRIX schedulers, priorities are coarse bands with round-robin
/// (FIFO) inside a band: two compute-bound processes whose decayed usage
/// differs by less than a band are *equal* and rotate, rather than the
/// infinitesimally-less-used one always winning.
pub const PRIORITY_BAND_MS: f64 = 120.0;

/// The discrete priority of a `p_cpu` value (lower wins).
fn priority_band(p_cpu: f64) -> i64 {
    (p_cpu / PRIORITY_BAND_MS) as i64
}

/// A queued process's pick key, `(priority band, ready_seq)`: lower
/// wins. Stamps are unique per enqueue, so no two queued keys tie.
type Key = (i64, u64);

/// The key of an empty ready list; loses to every queued process.
const NO_KEY: Key = (i64::MAX, u64::MAX);

/// A process table indexed by [`Pid`]. Processes are never removed;
/// exited processes stay in the `Done` state.
#[derive(Debug, Default)]
pub struct ProcTable {
    procs: Vec<Process>,
    /// Decayed CPU usage per pid, in ms; lower is higher priority. A
    /// dense column so decay is one pass, and private so only
    /// [`charge_p_cpu`](Self::charge_p_cpu) and the scheduler's decay
    /// change a key the ready-list heads cache.
    p_cpu: Vec<f64>,
}

impl ProcTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ProcTable::default()
    }

    /// The pid the next inserted process will get.
    pub fn next_pid(&self) -> Pid {
        Pid(self.procs.len() as u32)
    }

    /// Inserts a process.
    ///
    /// # Panics
    ///
    /// Panics if the process's pid is not the next free pid.
    pub fn insert(&mut self, p: Process) -> Pid {
        assert_eq!(p.pid, self.next_pid(), "pid mismatch");
        let pid = p.pid;
        self.procs.push(p);
        self.p_cpu.push(0.0);
        pid
    }

    /// Shared access.
    pub fn get(&self, pid: Pid) -> &Process {
        &self.procs[pid.0 as usize]
    }

    /// Exclusive access.
    pub fn get_mut(&mut self, pid: Pid) -> &mut Process {
        &mut self.procs[pid.0 as usize]
    }

    /// A process's decayed CPU usage in ms (lower = higher priority).
    pub fn p_cpu(&self, pid: Pid) -> f64 {
        self.p_cpu[pid.0 as usize]
    }

    /// Adds `ms` of consumed CPU to a process's usage.
    ///
    /// # Panics
    ///
    /// Panics if the process is queued: its key is cached by its ready
    /// list, so it may only change while the process is off the lists.
    pub fn charge_p_cpu(&mut self, pid: Pid, ms: f64) {
        assert_eq!(
            self.get(pid).run_q,
            NO_QUEUE,
            "{pid:?} charged while queued"
        );
        self.p_cpu[pid.0 as usize] += ms;
    }

    /// Iterates over all processes.
    pub fn iter(&self) -> impl Iterator<Item = &Process> {
        self.procs.iter()
    }

    /// Number of processes ever created.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// True when no process was ever created.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    fn key(&self, seq: u64, pid: Pid) -> Key {
        (priority_band(self.p_cpu(pid)), seq)
    }
}

/// Per-CPU scheduler state.
#[derive(Debug)]
pub struct CpuState {
    /// The home assignment of this CPU.
    pub assignment: CpuAssignment,
    rotor: Option<SharedCpuRotor>,
    /// Currently running process.
    pub running: Option<Pid>,
    /// When the current process was dispatched.
    pub run_start: SimTime,
    /// When its time slice expires.
    pub slice_end: SimTime,
    /// Dispatch generation; stale `OpDone` events carry an old value.
    pub gen: u64,
    /// Whether the running process was loaned from a non-home SPU.
    pub loaned: bool,
    /// Start of the current idle period, if idle.
    pub idle_since: Option<SimTime>,
    /// Accumulated idle time.
    pub idle_total: SimDuration,
    /// Accumulated busy time.
    pub busy_total: SimDuration,
    /// Whether the CPU is powered on. Offline CPUs neither run nor
    /// receive dispatches (fault injection).
    pub online: bool,
}

impl CpuState {
    fn new(assignment: CpuAssignment) -> Self {
        let rotor = match &assignment {
            CpuAssignment::TimeShared(entries) => Some(SharedCpuRotor::new(entries.clone())),
            CpuAssignment::Dedicated(_) => None,
        };
        CpuState {
            assignment,
            rotor,
            running: None,
            run_start: SimTime::ZERO,
            slice_end: SimTime::ZERO,
            gen: 0,
            loaned: false,
            idle_since: Some(SimTime::ZERO),
            idle_total: SimDuration::ZERO,
            busy_total: SimDuration::ZERO,
            online: true,
        }
    }

    /// Whether the CPU has no running process.
    pub fn is_idle(&self) -> bool {
        self.running.is_none()
    }

    /// Whether the CPU can accept a dispatch: online and idle.
    pub fn is_available(&self) -> bool {
        self.online && self.running.is_none()
    }
}

/// A set of CPU indices as a word bitset, iterated in ascending order.
#[derive(Debug)]
struct CpuSet {
    words: Vec<u64>,
}

impl CpuSet {
    fn new(n: usize) -> Self {
        CpuSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    fn set(&mut self, i: usize, on: bool) {
        let bit = 1u64 << (i % 64);
        if on {
            self.words[i / 64] |= bit;
        } else {
            self.words[i / 64] &= !bit;
        }
    }

    /// The lowest member `>= from`.
    fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.words.get(w)? & (!0u64 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }
}

/// One SPU's ready processes: a binary min-heap of `(key, pid)` on each
/// queued process's cached pick key, so the root is the list's head. A
/// process's heap slot is its [`Process::run_q`], kept current by every
/// move.
///
/// The cached keys are exact: a key's band changes only with `p_cpu`,
/// [`ProcTable::charge_p_cpu`] refuses a queued process, and
/// [`Scheduler::decay_priorities`] refreshes every cached band it moves.
#[derive(Debug, Default)]
struct ReadyList {
    heap: Vec<(Key, Pid)>,
}

impl ReadyList {
    const EMPTY_HEAD: (Key, Pid) = (NO_KEY, Pid(u32::MAX));

    /// The best key on the list and its process (`EMPTY_HEAD` when empty).
    fn head(&self) -> (Key, Pid) {
        self.heap.first().copied().unwrap_or(Self::EMPTY_HEAD)
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Stores `entry` at `slot` and records the slot in its process.
    fn place(&mut self, procs: &mut ProcTable, slot: usize, entry: (Key, Pid)) {
        self.heap[slot] = entry;
        procs.get_mut(entry.1).run_q = slot as u32;
    }

    /// Moves the entry at `slot` up past every parent with a larger key.
    fn sift_up(&mut self, procs: &mut ProcTable, mut slot: usize) {
        let entry = self.heap[slot];
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if self.heap[parent].0 < entry.0 {
                break;
            }
            self.place(procs, slot, self.heap[parent]);
            slot = parent;
        }
        self.place(procs, slot, entry);
    }

    /// Moves the entry at `slot` down past every smaller child.
    fn sift_down(&mut self, procs: &mut ProcTable, mut slot: usize) {
        let entry = self.heap[slot];
        let n = self.heap.len();
        loop {
            let left = 2 * slot + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.heap[right].0 < self.heap[left].0 {
                right
            } else {
                left
            };
            if entry.0 < self.heap[child].0 {
                break;
            }
            self.place(procs, slot, self.heap[child]);
            slot = child;
        }
        self.place(procs, slot, entry);
    }

    fn push(&mut self, procs: &mut ProcTable, entry: (Key, Pid)) {
        self.heap.push(entry);
        self.sift_up(procs, self.heap.len() - 1);
    }

    /// Removes the entry at `slot`, filling the hole with the last entry.
    fn remove(&mut self, procs: &mut ProcTable, slot: usize) {
        let last = self.heap.pop().expect("remove from an empty ready list");
        if slot == self.heap.len() {
            return;
        }
        self.heap[slot] = last;
        if slot > 0 && last.0 < self.heap[(slot - 1) / 2].0 {
            self.sift_up(procs, slot);
        } else {
            self.sift_down(procs, slot);
        }
    }

    /// Re-reads every cached band after a decay of `p_cpu` and restores
    /// heap order if any band moved. Returns whether one did. A band-0
    /// key stays band 0 under decay, so it is not re-read.
    fn refresh_bands(&mut self, procs: &mut ProcTable) -> bool {
        let mut changed = false;
        for (key, pid) in &mut self.heap {
            if key.0 != 0 {
                let band = priority_band(procs.p_cpu(*pid));
                changed |= band != key.0;
                key.0 = band;
            }
        }
        if changed {
            for slot in (0..self.heap.len() / 2).rev() {
                self.sift_down(procs, slot);
            }
        }
        changed
    }

    /// The best key on the list, recomputed by a linear scan: the
    /// reference [`Scheduler::check_invariants`] holds the heap to.
    fn best(&self, procs: &ProcTable) -> (Key, Pid) {
        let mut best = Self::EMPTY_HEAD;
        for &((_, seq), pid) in &self.heap {
            let key = procs.key(seq, pid);
            if key < best.0 {
                best = (key, pid);
            }
        }
        best
    }
}

/// A fixed-size tournament tree over SPU indices: leaf `s` holds SPU
/// `s`'s head key and every inner node the smaller of its two children,
/// so the root is the best queued process machine-wide.
#[derive(Debug)]
struct MinTree {
    /// Heap layout: the root at 1, node `i`'s children at `2i` and
    /// `2i + 1`, leaf `s` at `leaves + s`.
    nodes: Vec<(Key, u32)>,
    leaves: usize,
}

impl MinTree {
    fn new(n: usize) -> Self {
        let leaves = n.next_power_of_two();
        let mut nodes = vec![(NO_KEY, u32::MAX); 2 * leaves];
        for (s, node) in nodes[leaves..].iter_mut().enumerate() {
            node.1 = s as u32;
        }
        for i in (1..leaves).rev() {
            nodes[i] = nodes[2 * i].min(nodes[2 * i + 1]);
        }
        MinTree { nodes, leaves }
    }

    /// Sets leaf `s`'s key and replays the matches above it, stopping
    /// at the first node whose winner does not change.
    fn set(&mut self, s: usize, key: Key) {
        let mut i = self.leaves + s;
        self.nodes[i] = (key, s as u32);
        while i > 1 {
            i /= 2;
            let winner = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
            if self.nodes[i] == winner {
                break;
            }
            self.nodes[i] = winner;
        }
    }

    /// The SPU index holding the best key, if any list is non-empty.
    fn min(&self) -> Option<usize> {
        let (key, s) = self.nodes[1];
        (key != NO_KEY).then_some(s as usize)
    }

    fn leaf(&self, s: usize) -> Key {
        self.nodes[self.leaves + s].0
    }

    fn check(&self) {
        for i in 1..self.leaves {
            let winner = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
            assert_eq!(self.nodes[i], winner, "min-tree node {i} is stale");
        }
    }
}

/// The machine-wide CPU scheduler.
///
/// # Examples
///
/// ```
/// use smp_kernel::Scheduler;
/// use spu_core::{Scheme, SpuSet};
///
/// let spus = SpuSet::equal_users(2);
/// let s = Scheduler::new(Scheme::PIso, 8, &spus);
/// assert_eq!(s.cpu_count(), 8);
/// ```
#[derive(Debug)]
pub struct Scheduler {
    scheme: Scheme,
    cpus: Vec<CpuState>,
    /// One ready list per SPU (dense [`SpuId::index`]).
    ready: Vec<ReadyList>,
    /// Tournament tree over the ready lists' heads.
    heads: MinTree,
    /// Total queued processes.
    total_ready: usize,
    /// The CPUs whose assignment names each SPU, in ascending CPU
    /// index; rebuilt on rebalance. Offline CPUs keep a stale
    /// assignment, but they are never idle and never revocable.
    spu_home: Vec<Vec<u32>>,
    /// Online CPUs with no running process.
    idle: CpuSet,
    /// Online CPUs running a borrowed (loaned) process.
    loaned: CpuSet,
    /// CPUs for which [`needs_revocation`](Self::needs_revocation)
    /// holds.
    revocable: CpuSet,
    /// CPUs with a revocation-latency stamp in `stamps`.
    requested: CpuSet,
    /// Per-CPU time a revocation became needed, cleared when the
    /// borrower leaves the CPU.
    stamps: Vec<Option<SimTime>>,
    seq: u64,
    spus: SpuSet,
}

impl Scheduler {
    /// Creates the scheduler, computing the hybrid CPU partition.
    pub fn new(scheme: Scheme, n_cpus: usize, spus: &SpuSet) -> Self {
        let partition = CpuPartition::compute(n_cpus, spus);
        let n_spus = spus.total_count();
        let mut s = Scheduler {
            scheme,
            cpus: partition
                .assignments()
                .iter()
                .cloned()
                .map(CpuState::new)
                .collect(),
            ready: (0..n_spus).map(|_| ReadyList::default()).collect(),
            heads: MinTree::new(n_spus),
            total_ready: 0,
            spu_home: vec![Vec::new(); n_spus],
            idle: CpuSet::new(n_cpus),
            loaned: CpuSet::new(n_cpus),
            revocable: CpuSet::new(n_cpus),
            requested: CpuSet::new(n_cpus),
            stamps: vec![None; n_cpus],
            seq: 0,
            spus: spus.clone(),
        };
        for i in 0..n_cpus {
            s.idle.set(i, true);
        }
        s.rebuild_homes();
        s
    }

    /// Rebuilds the SPU → home-CPU index from the CPUs' assignments
    /// (ascending CPU order).
    fn rebuild_homes(&mut self) {
        for home in &mut self.spu_home {
            home.clear();
        }
        for (i, c) in self.cpus.iter().enumerate() {
            match &c.assignment {
                CpuAssignment::Dedicated(spu) => self.spu_home[spu.index()].push(i as u32),
                CpuAssignment::TimeShared(entries) => {
                    for (spu, _) in entries {
                        self.spu_home[spu.index()].push(i as u32);
                    }
                }
            }
        }
    }

    /// Reconciles the idle, loaned and revocable sets with a CPU's
    /// state. Call after mutating `running`, `loaned` or `online`
    /// outside the scheduler's own methods.
    pub fn sync_cpu(&mut self, procs: &ProcTable, i: usize) {
        let c = &self.cpus[i];
        self.idle.set(i, c.is_available());
        self.loaned
            .set(i, c.online && c.loaned && c.running.is_some());
        let revocable = self.needs_revocation(procs, i);
        self.revocable.set(i, revocable);
    }

    /// Re-evaluates the revocable bit of every CPU whose predicate reads
    /// `spu`'s ready count, after that count crossed zero: `spu`'s home
    /// CPUs and, on tenant trees, its siblings' home CPUs. Only loaned
    /// CPUs can need revocation, and a CPU outside the loaned set already
    /// has its revocable bit clear, so only loaned home CPUs are read.
    fn ready_crossed_zero(&mut self, procs: &ProcTable, spu: SpuId) {
        let Scheduler {
            cpus,
            ready,
            spu_home,
            loaned,
            revocable,
            spus,
            ..
        } = self;
        let mut reevaluate = |s: SpuId| {
            for &c in &spu_home[s.index()] {
                let c = c as usize;
                if loaned.contains(c) {
                    revocable.set(c, revocation_needed(&cpus[c], ready, spus, procs));
                }
            }
        };
        reevaluate(spu);
        if let Some(tree) = spus.tree() {
            for s in tree.siblings(spu) {
                reevaluate(s);
            }
        }
    }

    /// The lowest loaned CPU index `>= from`.
    pub fn next_loaned_cpu(&self, from: usize) -> Option<usize> {
        self.loaned.next_from(from)
    }

    /// The lowest revocable CPU index `>= from` (one for which
    /// [`needs_revocation`](Self::needs_revocation) holds). The set is
    /// live, so a sweep that dispatches as it goes sees the loans its
    /// own dispatches create.
    pub fn next_revocable_cpu(&self, from: usize) -> Option<usize> {
        self.revocable.next_from(from)
    }

    /// The lowest idle online CPU index `>= from`.
    pub fn next_idle_cpu(&self, from: usize) -> Option<usize> {
        self.idle.next_from(from)
    }

    /// Stamps every revocable CPU that has no revocation stamp yet with
    /// `now`, starting its revocation-latency clock, and returns whether
    /// any CPU is revocable.
    pub fn mark_revocable(&mut self, now: SimTime) -> bool {
        let mut any = false;
        let words = self.revocable.words.iter().zip(&mut self.requested.words);
        for (w, (&revocable, requested)) in words.enumerate() {
            any |= revocable != 0;
            let mut fresh = revocable & !*requested;
            *requested |= fresh;
            while fresh != 0 {
                self.stamps[w * 64 + fresh.trailing_zeros() as usize] = Some(now);
                fresh &= fresh - 1;
            }
        }
        any
    }

    /// When CPU `cpu`'s pending revocation was requested, if one is.
    pub fn revoke_request(&self, cpu: usize) -> Option<SimTime> {
        self.stamps[cpu]
    }

    /// Clears and returns CPU `cpu`'s revocation stamp. Call when the
    /// running process leaves the CPU.
    pub fn take_revoke_request(&mut self, cpu: usize) -> Option<SimTime> {
        self.requested.set(cpu, false);
        self.stamps[cpu].take()
    }

    /// Number of CPUs.
    pub fn cpu_count(&self) -> usize {
        self.cpus.len()
    }

    /// Access to a CPU's state.
    pub fn cpu(&self, i: usize) -> &CpuState {
        &self.cpus[i]
    }

    /// Mutable access to a CPU's state.
    pub fn cpu_mut(&mut self, i: usize) -> &mut CpuState {
        &mut self.cpus[i]
    }

    /// Puts a ready process on its SPU's ready list behind every
    /// process already queued in its priority band.
    ///
    /// # Panics
    ///
    /// Panics if the process is not in the `Ready` state.
    pub fn enqueue(&mut self, procs: &mut ProcTable, pid: Pid) {
        let p = procs.get_mut(pid);
        assert_eq!(p.state, ProcState::Ready, "enqueue of non-ready {pid:?}");
        debug_assert_eq!(p.run_q, NO_QUEUE, "{pid:?} queued twice");
        let spu = p.spu;
        let seq = self.seq;
        self.seq += 1;
        let key = procs.key(seq, pid);
        let list = &mut self.ready[spu.index()];
        list.push(procs, (key, pid));
        self.total_ready += 1;
        if procs.get(pid).run_q == 0 {
            self.heads.set(spu.index(), key);
        }
        if list.heap.len() == 1 {
            self.ready_crossed_zero(procs, spu);
        }
    }

    /// Removes a queued process from its SPU's heap. Only removing the
    /// root changes the list's head: every other entry's key is larger.
    fn remove(&mut self, procs: &mut ProcTable, pid: Pid) {
        let p = procs.get_mut(pid);
        let (spu, slot) = (p.spu, p.run_q as usize);
        p.run_q = NO_QUEUE;
        let list = &mut self.ready[spu.index()];
        debug_assert_eq!(list.heap[slot].1, pid, "stale ready-list slot");
        list.remove(procs, slot);
        self.total_ready -= 1;
        if slot == 0 {
            self.heads.set(spu.index(), list.head().0);
        }
        if list.is_empty() {
            self.ready_crossed_zero(procs, spu);
        }
    }

    /// Whether any process is queued for `spu`.
    pub fn has_ready(&self, spu: SpuId) -> bool {
        !self.ready[spu.index()].is_empty()
    }

    /// Total queued processes.
    pub fn ready_count(&self) -> usize {
        self.total_ready
    }

    /// Removes and returns the highest-priority ready process of `spu`
    /// (lowest priority band, then FIFO): its list's head.
    fn take_best_of(&mut self, procs: &mut ProcTable, spu: SpuId) -> Option<Pid> {
        let (key, pid) = self.ready[spu.index()].head();
        if key == NO_KEY {
            return None;
        }
        self.remove(procs, pid);
        Some(pid)
    }

    /// Removes and returns the globally highest-priority ready process
    /// (the cross-SPU steal): the min-tree's root.
    fn take_best_global(&mut self, procs: &mut ProcTable) -> Option<Pid> {
        let spu = self.heads.min()?;
        let pid = self.ready[spu].head().1;
        self.remove(procs, pid);
        Some(pid)
    }

    /// Removes and returns the highest-priority ready process among the
    /// sibling services (same tenant, self excluded) of a CPU's home
    /// SPUs: the intra-tenant steal. `None` on flat SPU sets.
    fn take_best_sibling(&mut self, procs: &mut ProcTable, cpu_idx: usize) -> Option<Pid> {
        let tree = self.spus.tree()?;
        let mut best = ReadyList::EMPTY_HEAD;
        let mut consider = |home: SpuId| {
            for s in tree.siblings(home) {
                best = best.min(self.ready[s.index()].head());
            }
        };
        match &self.cpus[cpu_idx].assignment {
            CpuAssignment::Dedicated(spu) => consider(*spu),
            CpuAssignment::TimeShared(entries) => {
                for (spu, _) in entries {
                    consider(*spu);
                }
            }
        }
        if best.0 == NO_KEY {
            return None;
        }
        self.remove(procs, best.1);
        Some(best.1)
    }

    /// Chooses the next process for CPU `cpu_idx` following the scheme's
    /// rules. Returns `(pid, loaned)` or `None` if the CPU should idle.
    /// Steal order: the CPU's home SPUs first, then (PIso) any SPU with
    /// the pick marked as a loan.
    pub fn pick(&mut self, procs: &mut ProcTable, cpu_idx: usize) -> Option<(Pid, bool)> {
        if !self.cpus[cpu_idx].online {
            return None;
        }
        if self.scheme == Scheme::Smp {
            return self.take_best_global(procs).map(|pid| (pid, false));
        }
        // Home pick.
        let granted = match self.cpus[cpu_idx].assignment {
            CpuAssignment::Dedicated(spu) => Some(spu),
            CpuAssignment::TimeShared(_) => {
                let mut rotor = self.cpus[cpu_idx].rotor.take();
                let granted = rotor
                    .as_mut()
                    .and_then(|r| r.grant(|spu| self.has_ready(spu)));
                self.cpus[cpu_idx].rotor = rotor;
                granted
            }
        };
        if let Some(pid) = granted.and_then(|spu| self.take_best_of(procs, spu)) {
            return Some((pid, false));
        }
        if self.scheme == Scheme::PIso {
            // Hierarchical sets relax the restriction in two steps: an
            // idle CPU offers itself to its tenant's other services
            // (sibling-first lending) before escalating machine-wide.
            if let Some(pid) = self.take_best_sibling(procs, cpu_idx) {
                return Some((pid, true));
            }
            // Idle CPU: relax the SPU restriction and loan the CPU to the
            // highest-priority process of any SPU.
            return self.take_best_global(procs).map(|pid| (pid, true));
        }
        None
    }

    /// Finds an idle CPU suitable for a newly runnable process of `spu`
    /// via the idle set: the lowest-index idle home CPU first, then
    /// (hierarchical PIso) the lowest-index idle CPU homed to a sibling
    /// service, then (PIso/SMP) the lowest-index idle CPU overall.
    pub fn find_idle_for(&self, spu: SpuId) -> Option<usize> {
        let first_idle = |s: SpuId| {
            self.spu_home[s.index()]
                .iter()
                .map(|&c| c as usize)
                .find(|&c| self.idle.contains(c))
        };
        if self.scheme != Scheme::Smp {
            if let Some(c) = first_idle(spu) {
                return Some(c);
            }
        }
        if self.scheme == Scheme::PIso {
            if let Some(tree) = self.spus.tree() {
                // Borrow from the tenant's own pool before a stranger's.
                if let Some(c) = tree.siblings(spu).filter_map(first_idle).min() {
                    return Some(c);
                }
            }
        }
        if self.scheme.shares_idle_resources() || !spu.is_user() {
            self.idle.next_from(0)
        } else {
            None
        }
    }

    /// Whether a loaned CPU should be revoked: it runs a borrowed process
    /// while a home-SPU process waits (§3.1). On hierarchical SPU sets a
    /// CPU loaned *outside* its tenant is also revoked when a sibling
    /// service of its home has waiting work — the loan should have
    /// stayed inside the tenant. Intra-tenant loans stand against
    /// sibling demand (only home demand reclaims them).
    ///
    /// Evaluated from scratch; the sweeps read the same answer from the
    /// revocable set ([`next_revocable_cpu`](Self::next_revocable_cpu)).
    pub fn needs_revocation(&self, procs: &ProcTable, cpu_idx: usize) -> bool {
        revocation_needed(&self.cpus[cpu_idx], &self.ready, &self.spus, procs)
    }

    /// Marks a CPU online or offline (updating the CPU sets). The
    /// caller handles preempting a running process and rebalancing the
    /// partition.
    pub fn set_online(&mut self, procs: &ProcTable, cpu_idx: usize, online: bool) {
        self.cpus[cpu_idx].online = online;
        self.sync_cpu(procs, cpu_idx);
    }

    /// Number of online CPUs.
    pub fn online_count(&self) -> usize {
        self.cpus.iter().filter(|c| c.online).count()
    }

    /// Re-derives the CPU partition over the *online* CPUs, mapping the
    /// surviving assignments onto them in index order (offline CPUs keep
    /// a stale assignment but can never be picked). Loan flags of
    /// running processes are recomputed against the new homes, so
    /// [`needs_revocation`](Self::needs_revocation) revokes loans that
    /// exceed an SPU's shrunken share. Queued processes stay on their
    /// SPUs' lists with their FIFO stamps.
    pub fn rebalance(&mut self, procs: &ProcTable) {
        let online: Vec<usize> = (0..self.cpus.len())
            .filter(|&i| self.cpus[i].online)
            .collect();
        if online.is_empty() {
            return;
        }
        let partition = CpuPartition::compute(online.len(), &self.spus);
        for (&cpu_idx, assignment) in online.iter().zip(partition.assignments()) {
            let c = &mut self.cpus[cpu_idx];
            c.assignment = assignment.clone();
            c.rotor = match assignment {
                CpuAssignment::TimeShared(entries) => Some(SharedCpuRotor::new(entries.clone())),
                CpuAssignment::Dedicated(_) => None,
            };
            if let Some(pid) = c.running {
                c.loaned =
                    self.scheme != Scheme::Smp && !c.assignment.is_home_of(procs.get(pid).spu);
            }
        }
        self.rebuild_homes();
        for i in 0..self.cpus.len() {
            self.sync_cpu(procs, i);
        }
    }

    /// Removes a queued process from its ready list (crash recovery) in
    /// O(1) via its slot record. Returns whether it was queued.
    pub fn dequeue(&mut self, procs: &mut ProcTable, pid: Pid) -> bool {
        if procs.get(pid).run_q == NO_QUEUE {
            return false;
        }
        self.remove(procs, pid);
        true
    }

    /// Applies priority decay to every process (called each tick), then
    /// refreshes the cached bands of every queued process: decay can move
    /// a queued process into a better band. A list whose bands moved is
    /// re-heapified, and its head re-published if it changed.
    pub fn decay_priorities(&mut self, procs: &mut ProcTable) {
        for p in &mut procs.p_cpu {
            *p *= P_CPU_DECAY;
        }
        for (s, list) in self.ready.iter_mut().enumerate() {
            if list.refresh_bands(procs) && list.head().0 != self.heads.leaf(s) {
                self.heads.set(s, list.head().0);
            }
        }
    }

    /// The scheme in force.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Asserts that every index equals its from-scratch value: each
    /// ready list's slots, head and count; the min-tree over the heads;
    /// the idle and loaned sets against the CPU flags; the revocable set
    /// against [`needs_revocation`](Self::needs_revocation); and the
    /// requested set against the stamps.
    ///
    /// # Panics
    ///
    /// Panics on the first index that disagrees.
    pub fn check_invariants(&self, procs: &ProcTable) {
        let mut queued = 0;
        for (s, list) in self.ready.iter().enumerate() {
            for (slot, &(key, pid)) in list.heap.iter().enumerate() {
                let p = procs.get(pid);
                assert_eq!(p.spu.index(), s, "{pid:?} on another SPU's list");
                assert_eq!(p.run_q as usize, slot, "{pid:?} has a stale slot");
                assert_eq!(p.state, ProcState::Ready, "{pid:?} queued but not ready");
                assert_eq!(key, procs.key(key.1, pid), "stale cached key of {pid:?}");
                if slot > 0 {
                    let parent = list.heap[(slot - 1) / 2].0;
                    assert!(parent < key, "heap order broken at slot {slot} of SPU {s}");
                }
            }
            assert_eq!(list.head(), list.best(procs), "stale head of SPU {s}");
            assert_eq!(self.heads.leaf(s), list.head().0, "stale leaf of SPU {s}");
            queued += list.heap.len();
        }
        self.heads.check();
        assert_eq!(queued, self.total_ready, "ready count drifted");
        let marked = procs.iter().filter(|p| p.run_q != NO_QUEUE).count();
        assert_eq!(marked, self.total_ready, "processes marked queued");
        for (i, c) in self.cpus.iter().enumerate() {
            assert_eq!(self.idle.contains(i), c.is_available(), "idle bit of {i}");
            let loaned = c.online && c.loaned && c.running.is_some();
            assert_eq!(self.loaned.contains(i), loaned, "loaned bit of {i}");
            let revocable = self.needs_revocation(procs, i);
            assert_eq!(
                self.revocable.contains(i),
                revocable,
                "revocable bit of {i}"
            );
            // What lets `ready_crossed_zero` skip CPUs outside the loaned
            // set: none of them needs revocation or has the bit set.
            assert!(loaned || !revocable, "unloaned CPU {i} needs revocation");
            assert!(
                loaned || !self.revocable.contains(i),
                "unloaned CPU {i} is in the revocable set"
            );
            let stamped = self.stamps[i].is_some();
            assert_eq!(self.requested.contains(i), stamped, "requested bit of {i}");
        }
    }
}

/// The revocation predicate of [`Scheduler::needs_revocation`] over the
/// pieces it reads, so index maintenance can evaluate it while holding
/// the revocable set mutably.
fn revocation_needed(c: &CpuState, ready: &[ReadyList], spus: &SpuSet, procs: &ProcTable) -> bool {
    let Some(running) = c.running else {
        return false;
    };
    if !c.online || !c.loaned {
        return false;
    }
    let waiting = |spu: SpuId| !ready[spu.index()].is_empty();
    let home_ready = match &c.assignment {
        CpuAssignment::Dedicated(spu) => waiting(*spu),
        CpuAssignment::TimeShared(entries) => entries.iter().any(|(spu, _)| waiting(*spu)),
    };
    if home_ready {
        return true;
    }
    let Some(tree) = spus.tree() else {
        return false;
    };
    let running_spu = procs.get(running).spu;
    let sibling_waits =
        |home: SpuId| !tree.same_tenant(home, running_spu) && tree.siblings(home).any(waiting);
    match &c.assignment {
        CpuAssignment::Dedicated(spu) => sibling_waits(*spu),
        CpuAssignment::TimeShared(entries) => entries.iter().any(|(spu, _)| sibling_waits(*spu)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use std::sync::Arc;

    fn table_with(n: u32, spu_of: impl Fn(u32) -> SpuId) -> ProcTable {
        let prog = Program::builder("t").build();
        let mut t = ProcTable::new();
        for i in 0..n {
            t.insert(Process::new(
                Pid(i),
                spu_of(i),
                None,
                Arc::clone(&prog),
                None,
                SimTime::ZERO,
            ));
        }
        t
    }

    #[test]
    fn smp_picks_global_best_priority() {
        let spus = SpuSet::equal_users(2);
        let mut s = Scheduler::new(Scheme::Smp, 2, &spus);
        let mut procs = table_with(2, |i| SpuId::user(i % 2));
        procs.charge_p_cpu(Pid(0), 500.0);
        procs.charge_p_cpu(Pid(1), 1.0);
        s.enqueue(&mut procs, Pid(0));
        s.enqueue(&mut procs, Pid(1));
        let (pid, loaned) = s.pick(&mut procs, 0).unwrap();
        assert_eq!(pid, Pid(1));
        assert!(!loaned);
    }

    #[test]
    fn quota_cpu_idles_when_home_empty() {
        let spus = SpuSet::equal_users(2);
        let mut s = Scheduler::new(Scheme::Quota, 2, &spus);
        let mut procs = table_with(1, |_| SpuId::user(1));
        s.enqueue(&mut procs, Pid(0));
        // CPU 0 is user0's home; user0 has nothing: the CPU idles even
        // though user1 has work.
        let home0 = s.cpu(0).assignment.clone();
        let cpu_for_user1 = if home0.is_home_of(SpuId::user(1)) {
            1
        } else {
            0
        };
        assert!(s.pick(&mut procs, cpu_for_user1).is_none());
    }

    #[test]
    fn piso_loans_idle_cpu() {
        let spus = SpuSet::equal_users(2);
        let mut s = Scheduler::new(Scheme::PIso, 2, &spus);
        let mut procs = table_with(1, |_| SpuId::user(1));
        s.enqueue(&mut procs, Pid(0));
        let cpu_of_user0 = (0..2)
            .find(|&i| s.cpu(i).assignment.is_home_of(SpuId::user(0)))
            .unwrap();
        let (pid, loaned) = s.pick(&mut procs, cpu_of_user0).unwrap();
        assert_eq!(pid, Pid(0));
        assert!(loaned, "cross-SPU pick must be marked as a loan");
    }

    #[test]
    fn home_process_beats_loan() {
        let spus = SpuSet::equal_users(2);
        let mut s = Scheduler::new(Scheme::PIso, 2, &spus);
        let mut procs = table_with(2, SpuId::user);
        // Foreign process has much better priority...
        procs.charge_p_cpu(Pid(0), 50.0);
        s.enqueue(&mut procs, Pid(0));
        s.enqueue(&mut procs, Pid(1));
        let cpu_of_user0 = (0..2)
            .find(|&i| s.cpu(i).assignment.is_home_of(SpuId::user(0)))
            .unwrap();
        // ...but the home CPU still picks its own SPU's process.
        let (pid, loaned) = s.pick(&mut procs, cpu_of_user0).unwrap();
        assert_eq!(pid, Pid(0));
        assert!(!loaned);
    }

    #[test]
    fn revocation_flagged_when_home_work_arrives() {
        let spus = SpuSet::equal_users(2);
        let mut s = Scheduler::new(Scheme::PIso, 2, &spus);
        let mut procs = table_with(2, SpuId::user);
        let cpu_of_user0 = (0..2)
            .find(|&i| s.cpu(i).assignment.is_home_of(SpuId::user(0)))
            .unwrap();
        // Loan user0's CPU to user1's process.
        s.enqueue(&mut procs, Pid(1));
        let (pid, loaned) = s.pick(&mut procs, cpu_of_user0).unwrap();
        assert_eq!(pid, Pid(1));
        assert!(loaned);
        s.cpu_mut(cpu_of_user0).running = Some(pid);
        s.cpu_mut(cpu_of_user0).loaned = true;
        s.sync_cpu(&procs, cpu_of_user0);
        assert!(!s.needs_revocation(&procs, cpu_of_user0));
        // A home process becomes ready: revocation needed.
        s.enqueue(&mut procs, Pid(0));
        assert!(s.needs_revocation(&procs, cpu_of_user0));
    }

    #[test]
    fn fifo_among_equal_priorities() {
        let spus = SpuSet::equal_users(1);
        let mut s = Scheduler::new(Scheme::PIso, 1, &spus);
        let mut procs = table_with(3, |_| SpuId::user(0));
        s.enqueue(&mut procs, Pid(2));
        s.enqueue(&mut procs, Pid(0));
        s.enqueue(&mut procs, Pid(1));
        assert_eq!(s.pick(&mut procs, 0).unwrap().0, Pid(2));
        assert_eq!(s.pick(&mut procs, 0).unwrap().0, Pid(0));
        assert_eq!(s.pick(&mut procs, 0).unwrap().0, Pid(1));
        assert!(s.pick(&mut procs, 0).is_none());
    }

    fn tenanted4() -> SpuSet {
        SpuSet::with_weights(&[1, 1, 1, 1]).with_tree(spu_core::SpuTree::new(vec![
            ("a".into(), 2, vec![0, 1]),
            ("b".into(), 2, vec![2, 3]),
        ]))
    }

    fn home_of(s: &Scheduler, user: u32) -> usize {
        (0..s.cpu_count())
            .find(|&i| s.cpu(i).assignment.is_home_of(SpuId::user(user)))
            .unwrap()
    }

    #[test]
    fn sibling_steal_beats_stranger() {
        let spus = tenanted4();
        let mut s = Scheduler::new(Scheme::PIso, 4, &spus);
        // Pid0: user1 (sibling of user0, worse priority); Pid1: user2
        // (other tenant, better priority).
        let mut procs = table_with(2, |i| SpuId::user(i + 1));
        procs.charge_p_cpu(Pid(0), 500.0);
        s.enqueue(&mut procs, Pid(0));
        s.enqueue(&mut procs, Pid(1));
        let cpu0 = home_of(&s, 0);
        // user0's idle CPU lends itself inside the tenant first, even
        // though the stranger outranks the sibling.
        let (pid, loaned) = s.pick(&mut procs, cpu0).unwrap();
        assert_eq!(pid, Pid(0), "tenant-mate must be stolen first");
        assert!(loaned);
        // With no sibling work left the loan escalates machine-wide.
        let (pid, loaned) = s.pick(&mut procs, cpu0).unwrap();
        assert_eq!(pid, Pid(1));
        assert!(loaned);
    }

    #[test]
    fn cross_tenant_loan_yields_to_sibling_demand() {
        let spus = tenanted4();
        let mut s = Scheduler::new(Scheme::PIso, 4, &spus);
        // Pid0: user2 (tenant b); Pid1, Pid2: user1 (tenant a).
        let mut procs = table_with(3, |i| SpuId::user([2, 1, 1][i as usize]));
        let cpu0 = home_of(&s, 0);
        // user0's CPU runs a cross-tenant loan.
        s.cpu_mut(cpu0).running = Some(Pid(0));
        s.cpu_mut(cpu0).loaned = true;
        s.sync_cpu(&procs, cpu0);
        assert!(!s.needs_revocation(&procs, cpu0));
        // Sibling demand appears: the cross-tenant loan must yield.
        s.enqueue(&mut procs, Pid(1));
        assert!(s.needs_revocation(&procs, cpu0));
        // An intra-tenant loan stands against the same sibling demand.
        s.cpu_mut(cpu0).running = Some(Pid(2));
        s.sync_cpu(&procs, cpu0);
        assert!(!s.needs_revocation(&procs, cpu0));
    }

    #[test]
    fn find_idle_prefers_sibling_cpu() {
        let spus = tenanted4();
        let mut s = Scheduler::new(Scheme::PIso, 4, &spus);
        let procs = table_with(2, |_| SpuId::user(2));
        let (h2, h3) = (home_of(&s, 2), home_of(&s, 3));
        // user2's own CPU is busy; its sibling's CPU idles alongside the
        // other tenant's.
        s.cpu_mut(h2).running = Some(Pid(0));
        s.sync_cpu(&procs, h2);
        assert_eq!(
            s.find_idle_for(SpuId::user(2)),
            Some(h3),
            "sibling CPU first"
        );
        // Sibling busy too: fall back to the lowest idle CPU anywhere.
        s.cpu_mut(h3).running = Some(Pid(1));
        s.sync_cpu(&procs, h3);
        let lowest = (0..4).find(|i| ![h2, h3].contains(i)).unwrap();
        assert_eq!(s.find_idle_for(SpuId::user(2)), Some(lowest));
    }

    #[test]
    fn find_idle_prefers_home() {
        let spus = SpuSet::equal_users(2);
        let s = Scheduler::new(Scheme::PIso, 2, &spus);
        let home1 = s.find_idle_for(SpuId::user(1)).unwrap();
        assert!(s.cpu(home1).assignment.is_home_of(SpuId::user(1)));
    }

    #[test]
    fn find_idle_quota_never_crosses() {
        let spus = SpuSet::equal_users(2);
        let mut s = Scheduler::new(Scheme::Quota, 2, &spus);
        let procs = table_with(1, |_| SpuId::user(1));
        let home1 = (0..2)
            .find(|&i| s.cpu(i).assignment.is_home_of(SpuId::user(1)))
            .unwrap();
        s.cpu_mut(home1).running = Some(Pid(0));
        s.sync_cpu(&procs, home1);
        // user1's home CPU is busy; Quota must not hand out the other CPU.
        assert_eq!(s.find_idle_for(SpuId::user(1)), None);
    }

    #[test]
    fn decay_shrinks_p_cpu() {
        let spus = SpuSet::equal_users(1);
        let mut s = Scheduler::new(Scheme::PIso, 1, &spus);
        let mut procs = table_with(1, |_| SpuId::user(0));
        procs.charge_p_cpu(Pid(0), 100.0);
        s.decay_priorities(&mut procs);
        let v = procs.p_cpu(Pid(0));
        assert!(v < 100.0 && v > 99.0, "{v}");
    }

    #[test]
    fn offline_cpu_never_picks_or_hosts() {
        let spus = SpuSet::equal_users(2);
        let mut s = Scheduler::new(Scheme::Smp, 2, &spus);
        let mut procs = table_with(1, |_| SpuId::user(0));
        s.enqueue(&mut procs, Pid(0));
        s.set_online(&procs, 0, false);
        assert_eq!(s.online_count(), 1);
        assert!(s.pick(&mut procs, 0).is_none(), "offline CPU must not pick");
        assert_eq!(s.find_idle_for(SpuId::user(0)), Some(1));
        s.set_online(&procs, 0, true);
        assert!(s.pick(&mut procs, 0).is_some());
    }

    #[test]
    fn rebalance_rehomes_surviving_cpus() {
        let spus = SpuSet::equal_users(2);
        let mut s = Scheduler::new(Scheme::Quota, 2, &spus);
        let procs = table_with(2, SpuId::user);
        s.set_online(&procs, 0, false);
        s.rebalance(&procs);
        // The lone surviving CPU must now be home to both SPUs.
        assert!(s.cpu(1).assignment.is_home_of(SpuId::user(0)));
        assert!(s.cpu(1).assignment.is_home_of(SpuId::user(1)));
        // Coming back online and rebalancing restores dedicated homes.
        s.set_online(&procs, 0, true);
        s.rebalance(&procs);
        let homes_0 = s.cpu(0).assignment.is_home_of(SpuId::user(0))
            || s.cpu(1).assignment.is_home_of(SpuId::user(0));
        assert!(homes_0);
    }

    #[test]
    fn rebalance_recomputes_loan_flags() {
        let spus = SpuSet::equal_users(2);
        let mut s = Scheduler::new(Scheme::PIso, 2, &spus);
        let mut procs = table_with(1, |_| SpuId::user(1));
        let cpu_of_user0 = (0..2)
            .find(|&i| s.cpu(i).assignment.is_home_of(SpuId::user(0)))
            .unwrap();
        s.enqueue(&mut procs, Pid(0));
        let (pid, loaned) = s.pick(&mut procs, cpu_of_user0).unwrap();
        assert!(loaned);
        s.cpu_mut(cpu_of_user0).running = Some(pid);
        s.cpu_mut(cpu_of_user0).loaned = true;
        s.sync_cpu(&procs, cpu_of_user0);
        // The other CPU dies; the survivor becomes home to both SPUs, so
        // the borrowed process is no longer a loan.
        let other = 1 - cpu_of_user0;
        s.set_online(&procs, other, false);
        s.rebalance(&procs);
        assert!(!s.cpu(cpu_of_user0).loaned);
    }

    #[test]
    fn dequeue_removes_only_queued() {
        let spus = SpuSet::equal_users(1);
        let mut s = Scheduler::new(Scheme::PIso, 1, &spus);
        let mut procs = table_with(2, |_| SpuId::user(0));
        s.enqueue(&mut procs, Pid(0));
        assert!(s.dequeue(&mut procs, Pid(0)));
        assert!(!s.dequeue(&mut procs, Pid(0)));
        assert!(!s.dequeue(&mut procs, Pid(1)));
        assert_eq!(s.ready_count(), 0);
    }

    #[test]
    fn requeue_after_preempt_goes_behind_equal_band() {
        // A preempted process re-enters its band *behind* peers that
        // kept waiting: requeue re-stamps the FIFO sequence.
        let spus = SpuSet::equal_users(1);
        let mut s = Scheduler::new(Scheme::PIso, 1, &spus);
        let mut procs = table_with(3, |_| SpuId::user(0));
        s.enqueue(&mut procs, Pid(0));
        s.enqueue(&mut procs, Pid(1));
        s.enqueue(&mut procs, Pid(2));
        // Pid(0) runs, then is preempted and requeued.
        assert_eq!(s.pick(&mut procs, 0).unwrap().0, Pid(0));
        s.enqueue(&mut procs, Pid(0));
        assert_eq!(s.pick(&mut procs, 0).unwrap().0, Pid(1));
        assert_eq!(s.pick(&mut procs, 0).unwrap().0, Pid(2));
        assert_eq!(s.pick(&mut procs, 0).unwrap().0, Pid(0));
        assert!(s.pick(&mut procs, 0).is_none());
    }

    #[test]
    fn queue_membership_survives_swap_removal() {
        // Dequeueing from the middle swap-fills the hole; the moved
        // process's slot record must stay accurate so its own O(1)
        // dequeue still lands on the right entry.
        let spus = SpuSet::equal_users(1);
        let mut s = Scheduler::new(Scheme::PIso, 1, &spus);
        let mut procs = table_with(4, |_| SpuId::user(0));
        for i in 0..4 {
            s.enqueue(&mut procs, Pid(i));
        }
        assert!(s.dequeue(&mut procs, Pid(1)));
        assert!(s.dequeue(&mut procs, Pid(3))); // swapped into slot 1
        assert!(s.dequeue(&mut procs, Pid(0)));
        assert!(s.dequeue(&mut procs, Pid(2)));
        assert_eq!(s.ready_count(), 0);
        assert!(!s.has_ready(SpuId::user(0)));
    }

    #[test]
    fn rebalance_preserves_fifo_order_across_queues() {
        // Queued work keeps its arrival order across a partition
        // change (stamps are not refreshed by rebalance).
        let spus = SpuSet::equal_users(2);
        let mut s = Scheduler::new(Scheme::PIso, 2, &spus);
        let mut procs = table_with(3, |_| SpuId::user(0));
        s.enqueue(&mut procs, Pid(1));
        s.enqueue(&mut procs, Pid(0));
        s.enqueue(&mut procs, Pid(2));
        s.set_online(&procs, 0, false);
        s.rebalance(&procs);
        assert_eq!(s.pick(&mut procs, 1).unwrap().0, Pid(1));
        assert_eq!(s.pick(&mut procs, 1).unwrap().0, Pid(0));
        assert_eq!(s.pick(&mut procs, 1).unwrap().0, Pid(2));
    }

    #[test]
    #[should_panic(expected = "pid mismatch")]
    fn wrong_pid_insert_panics() {
        let prog = Program::builder("t").build();
        let mut t = ProcTable::new();
        t.insert(Process::new(
            Pid(5),
            SpuId::user(0),
            None,
            prog,
            None,
            SimTime::ZERO,
        ));
    }

    #[test]
    fn cpu_set_scans_ascending_across_words() {
        let mut set = CpuSet::new(130);
        for i in [3, 64, 65, 129] {
            set.set(i, true);
        }
        set.set(65, false);
        let mut seen = Vec::new();
        let mut from = 0;
        while let Some(i) = set.next_from(from) {
            seen.push(i);
            from = i + 1;
        }
        assert_eq!(seen, [3, 64, 129]);
        assert_eq!(set.next_from(130), None);
        assert!(set.contains(64) && !set.contains(65));
    }

    #[test]
    fn decay_can_reorder_queued_processes() {
        // Pid0 (band 2) queues before Pid1 (band 1), so Pid1 heads the
        // list; six decays bring Pid0 into band 1, where its older stamp
        // wins. The head must follow without a new enqueue.
        let spus = SpuSet::equal_users(1);
        let mut s = Scheduler::new(Scheme::PIso, 1, &spus);
        let mut procs = table_with(2, |_| SpuId::user(0));
        procs.charge_p_cpu(Pid(0), 250.0);
        procs.charge_p_cpu(Pid(1), 130.0);
        s.enqueue(&mut procs, Pid(0));
        s.enqueue(&mut procs, Pid(1));
        for _ in 0..6 {
            s.decay_priorities(&mut procs);
        }
        s.check_invariants(&procs);
        assert_eq!(s.pick(&mut procs, 0).unwrap().0, Pid(0));
    }

    #[test]
    fn decay_reorders_keys_below_the_heap_root() {
        // Eight processes on one SPU, queued in pid order. Pid0 (band 0)
        // holds the root throughout. Six decays bring Pid1, Pid3 and Pid6
        // from band 2 into band 1, where their older stamps beat Pid4 and
        // Pid7; Pid5 (260 ms) stays in band 2. The re-heapified list must
        // hand them out in linear-scan order.
        let spus = SpuSet::equal_users(1);
        let mut s = Scheduler::new(Scheme::PIso, 1, &spus);
        let charges = [5.0, 250.0, 130.0, 245.0, 200.0, 260.0, 241.0, 150.0];
        let mut procs = table_with(charges.len() as u32, |_| SpuId::user(0));
        for (i, &ms) in charges.iter().enumerate() {
            procs.charge_p_cpu(Pid(i as u32), ms);
            s.enqueue(&mut procs, Pid(i as u32));
        }
        // Linear scan: least (band, stamp), and stamps follow pid order.
        let linear = |procs: &ProcTable| {
            let mut order: Vec<Pid> = (0..charges.len() as u32).map(Pid).collect();
            order.sort_by_key(|&pid| (priority_band(procs.p_cpu(pid)), pid.0));
            order
        };
        let before = linear(&procs);
        for _ in 0..6 {
            s.decay_priorities(&mut procs);
        }
        s.check_invariants(&procs);
        let after = linear(&procs);
        assert_ne!(before, after, "decay must reorder the queued keys");
        assert_eq!(after[0], Pid(0), "the root keeps band 0");
        let picks: Vec<Pid> = (0..charges.len())
            .map(|_| s.pick(&mut procs, 0).unwrap().0)
            .collect();
        assert_eq!(picks, after);
    }

    #[test]
    fn revocation_stamps_once_until_taken() {
        let spus = SpuSet::equal_users(2);
        let mut s = Scheduler::new(Scheme::PIso, 2, &spus);
        let mut procs = table_with(3, |i| SpuId::user([1, 0, 0][i as usize]));
        let cpu0 = home_of(&s, 0);
        s.enqueue(&mut procs, Pid(0));
        let (pid, loaned) = s.pick(&mut procs, cpu0).unwrap();
        s.cpu_mut(cpu0).running = Some(pid);
        s.cpu_mut(cpu0).loaned = loaned;
        s.sync_cpu(&procs, cpu0);
        assert!(!s.mark_revocable(SimTime::from_millis(1)));
        assert_eq!(s.revoke_request(cpu0), None);
        // Home work arrives: the loan becomes revocable and is stamped.
        s.enqueue(&mut procs, Pid(1));
        assert_eq!(s.next_revocable_cpu(0), Some(cpu0));
        assert!(s.mark_revocable(SimTime::from_millis(2)));
        // A later wake-up keeps the first stamp.
        s.enqueue(&mut procs, Pid(2));
        assert!(s.mark_revocable(SimTime::from_millis(3)));
        s.check_invariants(&procs);
        assert_eq!(s.take_revoke_request(cpu0), Some(SimTime::from_millis(2)));
        assert_eq!(s.take_revoke_request(cpu0), None);
    }

    #[test]
    #[should_panic(expected = "charged while queued")]
    fn charging_a_queued_process_panics() {
        let spus = SpuSet::equal_users(1);
        let mut s = Scheduler::new(Scheme::PIso, 1, &spus);
        let mut procs = table_with(1, |_| SpuId::user(0));
        s.enqueue(&mut procs, Pid(0));
        procs.charge_p_cpu(Pid(0), 1.0);
    }
}
