//! Processes and the script interpreter's micro-operations.
//!
//! The kernel expands each [`ProgramOp`] into a
//! queue of [`MicroOp`]s — the granularity at which the simulated kernel
//! makes decisions (one buffer-cache block, one lock acquire, one CPU
//! burst). Most blocking micro-ops are *idempotent*: a woken process
//! re-executes the micro-op at the front of its queue, observes the new
//! state (page now resident, cache block now valid, lock now free) and
//! proceeds.

use std::collections::VecDeque;
use std::sync::Arc;

use event_sim::{SimDuration, SimTime};
use spu_core::SpuId;

use crate::config::{FORK_COST, PAGE_SIZE, TOUCH_INTERVAL};
use crate::fs::FileId;
use crate::locks::LockId;
use crate::program::{BarrierId, Program, ProgramOp};

/// Process identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

/// Identifies a top-level job for response-time reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

/// Why a process is blocked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting for its own disk I/O (swap, eviction writes, metadata).
    Io,
    /// Waiting for a buffer-cache fill issued by itself or another
    /// process.
    CacheFill,
    /// Waiting for a kernel lock.
    Lock(LockId),
    /// Refused a page; waiting for memory to free up.
    Memory,
    /// Waiting for children to exit.
    Children,
    /// Waiting at a barrier.
    Barrier(BarrierId),
    /// Throttled on the dirty-buffer high watermark.
    DirtyThrottle,
}

/// Scheduler-visible process state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcState {
    /// Runnable, waiting for a CPU.
    Ready,
    /// Executing on the given CPU.
    Running(usize),
    /// Blocked for the given reason.
    Blocked(BlockReason),
    /// Exited.
    Done,
}

/// State of one page of a process's anonymous region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageState {
    /// Never touched; first touch zero-fills.
    Unmapped,
    /// Resident in the given physical frame.
    Resident(crate::vm::FrameId),
    /// Paged out to the given swap slot (absolute sector on the swap
    /// disk).
    Swapped(u64),
}

/// One interpreter step.
#[derive(Clone, Debug)]
pub enum MicroOp {
    /// Consume CPU time.
    Cpu(SimDuration),
    /// Sweep the first `pages` pages of the region in order, faulting in
    /// any that are not resident when reached. `cursor` records progress
    /// so a blocked sweep resumes where it left off — crucially, a sweep
    /// does **not** require the whole set to be resident at once, so a
    /// working set larger than the SPU's allowed memory thrashes (with
    /// forward progress) instead of livelocking.
    Touch {
        /// Pages to sweep.
        pages: u32,
        /// Next page to visit.
        cursor: u32,
    },
    /// Grow the region to at least this many pages.
    Alloc(u32),
    /// Wait until the process's private pending I/O count reaches zero
    /// (idempotent).
    AwaitIo,
    /// Acquire a kernel lock (idempotent: retried until granted).
    LockAcquire {
        /// Which lock.
        lock: LockId,
        /// Exclusive (writer) or shared (reader) intent.
        excl: bool,
    },
    /// Release a kernel lock.
    LockRelease {
        /// Which lock.
        lock: LockId,
    },
    /// Read one file block through the buffer cache (idempotent).
    BlockRead {
        /// File.
        file: FileId,
        /// Block index within the file.
        block: u64,
    },
    /// Write one file block through the buffer cache (idempotent).
    BlockWrite {
        /// File.
        file: FileId,
        /// Block index within the file.
        block: u64,
    },
    /// Issue a synchronous single-sector metadata write.
    MetaWrite {
        /// File whose metadata sector is written.
        file: FileId,
    },
    /// Spawn a child running the program.
    Fork(Arc<Program>),
    /// Wait for all children to exit (idempotent).
    WaitChildren,
    /// Arrive at a barrier (pops on arrival; the barrier wakes sleepers).
    Barrier {
        /// Barrier identity.
        id: BarrierId,
        /// Total arrivals required.
        participants: u32,
    },
}

/// A simulated process.
#[derive(Debug)]
pub struct Process {
    /// Its id.
    pub pid: Pid,
    /// The SPU whose resources it uses.
    pub spu: SpuId,
    /// The job it belongs to, if tracked.
    pub job: Option<JobId>,
    program: Arc<Program>,
    pc: usize,
    micro: VecDeque<MicroOp>,
    /// Scheduler state.
    pub state: ProcState,
    /// Slot in its SPU's ready heap, or
    /// [`NO_QUEUE`](crate::sched::NO_QUEUE) when not queued. Maintained
    /// by the scheduler (kept current by every heap move) so dequeue
    /// finds the entry without a list scan.
    pub(crate) run_q: u32,
    /// Handle to this process's page table in the kernel's [`PageArena`].
    pub pages: PageSlab,
    /// Private outstanding disk operations ([`MicroOp::AwaitIo`]).
    pub pending_io: u32,
    /// Parent process, if forked.
    pub parent: Option<Pid>,
    /// Children that have not exited yet.
    pub live_children: u32,
    /// Spawn time.
    pub spawned: SimTime,
    /// Exit time.
    pub finished: Option<SimTime>,
    /// Total CPU time consumed.
    pub cpu_time: SimDuration,
}

impl Process {
    /// Creates a process about to start `program`.
    pub fn new(
        pid: Pid,
        spu: SpuId,
        job: Option<JobId>,
        program: Arc<Program>,
        parent: Option<Pid>,
        spawned: SimTime,
    ) -> Self {
        Process {
            pid,
            spu,
            job,
            program,
            pc: 0,
            micro: VecDeque::new(),
            state: ProcState::Ready,
            run_q: crate::sched::NO_QUEUE,
            pages: PageSlab::NONE,
            pending_io: 0,
            parent,
            live_children: 0,
            spawned,
            finished: None,
            cpu_time: SimDuration::ZERO,
        }
    }

    /// The current front micro-op, expanding program ops as needed
    /// (`lookup_cost` is [`Tuning::lookup_cost`](crate::Tuning)).
    /// `None` means the program has finished.
    pub fn current_micro(&mut self, lookup_cost: SimDuration) -> Option<&MicroOp> {
        while self.micro.is_empty() {
            let op = self.program.ops().get(self.pc)?.clone();
            self.pc += 1;
            expand_op(&op, lookup_cost, &mut self.micro);
        }
        self.micro.front()
    }

    /// The front micro-op without expansion (for assertions and
    /// preemption).
    pub fn micro_front(&self) -> Option<&MicroOp> {
        self.micro.front()
    }

    /// The program this process runs (shared, immutable).
    pub fn program_arc(&self) -> Arc<Program> {
        Arc::clone(&self.program)
    }

    /// Frees the micro-op queue's storage at exit: the process table
    /// keeps every process for the whole run.
    pub(crate) fn free_micro(&mut self) {
        self.micro = VecDeque::new();
    }

    /// Pops the front micro-op (it completed).
    pub fn pop_micro(&mut self) {
        self.micro.pop_front();
    }

    /// Pushes a micro-op to the front (to run next).
    pub fn push_front_micro(&mut self, op: MicroOp) {
        self.micro.push_front(op);
    }

    /// Records sweep progress in the front `Touch` micro-op.
    ///
    /// # Panics
    ///
    /// Panics if the front micro-op is not `Touch`.
    pub fn set_touch_cursor(&mut self, cursor: u32) {
        match self.micro.front_mut() {
            Some(MicroOp::Touch { cursor: c, .. }) => *c = cursor,
            other => panic!("set_touch_cursor on {other:?}"),
        }
    }

    /// Reduces the front `Cpu` micro-op by `consumed`, popping it when it
    /// reaches zero. Returns `true` if the burst completed.
    ///
    /// # Panics
    ///
    /// Panics if the front micro-op is not `Cpu`.
    pub fn consume_cpu(&mut self, consumed: SimDuration) -> bool {
        match self.micro.front_mut() {
            Some(MicroOp::Cpu(rem)) => {
                *rem = rem.saturating_sub(consumed);
                if rem.is_zero() {
                    self.micro.pop_front();
                    true
                } else {
                    false
                }
            }
            other => panic!("consume_cpu on non-Cpu micro-op: {other:?}"),
        }
    }
}

/// Handle to one process's page table inside the kernel's [`PageArena`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageSlab(u32);

impl PageSlab {
    /// Sentinel for processes that have not been given a table yet
    /// (pre-insert construction, scheduler test fixtures). Any table
    /// access through it panics.
    pub const NONE: PageSlab = PageSlab(u32::MAX);
}

/// Kernel-owned arena of per-process page tables.
///
/// Page state lives in dense per-process slabs indexed by a [`PageSlab`]
/// handle rather than inside each [`Process`]: the fault path reads the
/// table and the frame table side by side (disjoint kernel fields, so the
/// borrows split), and exited processes return their slab — storage
/// included — for the next fork to reuse, replacing the old page-table
/// pool.
#[derive(Debug, Default)]
pub struct PageArena {
    slabs: Vec<Vec<PageState>>,
    free: Vec<u32>,
}

impl PageArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates an empty page table, reusing a retired slab's storage
    /// when one is available.
    pub fn alloc(&mut self) -> PageSlab {
        if let Some(i) = self.free.pop() {
            PageSlab(i)
        } else {
            self.slabs.push(Vec::new());
            PageSlab(self.slabs.len() as u32 - 1)
        }
    }

    /// Retires a table at process exit: entries are dropped, capacity is
    /// kept for the next [`alloc`](Self::alloc).
    pub fn release(&mut self, slab: PageSlab) {
        self.slabs[slab.0 as usize].clear();
        self.free.push(slab.0);
    }

    /// Grows a table to at least `pages` entries.
    pub fn grow(&mut self, slab: PageSlab, pages: u32) {
        let t = &mut self.slabs[slab.0 as usize];
        if t.len() < pages as usize {
            t.resize(pages as usize, PageState::Unmapped);
        }
    }

    /// A table's entries.
    #[inline]
    pub fn table(&self, slab: PageSlab) -> &[PageState] {
        &self.slabs[slab.0 as usize]
    }

    /// A table's entries, mutably.
    #[inline]
    pub fn table_mut(&mut self, slab: PageSlab) -> &mut [PageState] {
        &mut self.slabs[slab.0 as usize]
    }
}

/// Expands one program op into micro-ops, appended to `out`; a
/// pathname lookup costs `lookup_cost` of CPU.
pub fn expand_op(op: &ProgramOp, lookup_cost: SimDuration, out: &mut VecDeque<MicroOp>) {
    match op {
        ProgramOp::Compute {
            duration,
            working_set,
        } => {
            if *working_set == 0 {
                out.push_back(MicroOp::Cpu(*duration));
            } else {
                let mut remaining = *duration;
                while !remaining.is_zero() {
                    let chunk = remaining.min(TOUCH_INTERVAL);
                    out.push_back(MicroOp::Touch {
                        pages: *working_set,
                        cursor: 0,
                    });
                    out.push_back(MicroOp::Cpu(chunk));
                    remaining = remaining.saturating_sub(chunk);
                }
            }
        }
        ProgramOp::Alloc { pages } => out.push_back(MicroOp::Alloc(*pages)),
        ProgramOp::Read {
            file,
            offset,
            bytes,
        } => {
            lookup_micro_ops(lookup_cost, out);
            for block in block_range(*offset, *bytes) {
                out.push_back(MicroOp::BlockRead { file: *file, block });
            }
        }
        ProgramOp::Write {
            file,
            offset,
            bytes,
        } => {
            lookup_micro_ops(lookup_cost, out);
            for block in block_range(*offset, *bytes) {
                out.push_back(MicroOp::BlockWrite { file: *file, block });
            }
        }
        ProgramOp::MetaWrite { file } => {
            // Metadata updates lock the file's inode exclusively for the
            // duration of the synchronous write.
            out.push_back(MicroOp::LockAcquire {
                lock: LockId::inode(*file),
                excl: true,
            });
            out.push_back(MicroOp::Cpu(lookup_cost));
            out.push_back(MicroOp::MetaWrite { file: *file });
            out.push_back(MicroOp::AwaitIo);
            out.push_back(MicroOp::LockRelease {
                lock: LockId::inode(*file),
            });
        }
        ProgramOp::Fork { program } => {
            out.push_back(MicroOp::Cpu(FORK_COST));
            out.push_back(MicroOp::Fork(Arc::clone(program)));
        }
        ProgramOp::WaitChildren => out.push_back(MicroOp::WaitChildren),
        ProgramOp::Barrier { id, participants } => out.push_back(MicroOp::Barrier {
            id: *id,
            participants: *participants,
        }),
    }
}

/// Pathname lookup: hold the root inode lock for the lookup cost. The
/// lookup asks for a shared hold; the [`LockTable`](crate::LockTable)
/// makes it exclusive under the stock mutex (no §3.4 fix).
fn lookup_micro_ops(lookup_cost: SimDuration, out: &mut VecDeque<MicroOp>) {
    out.push_back(MicroOp::LockAcquire {
        lock: LockId::ROOT,
        excl: false,
    });
    out.push_back(MicroOp::Cpu(lookup_cost));
    out.push_back(MicroOp::LockRelease { lock: LockId::ROOT });
}

/// The file blocks covering `[offset, offset + bytes)`.
pub fn block_range(offset: u64, bytes: u64) -> std::ops::Range<u64> {
    if bytes == 0 {
        return 0..0;
    }
    let first = offset / PAGE_SIZE;
    let last = (offset + bytes - 1) / PAGE_SIZE;
    first..last + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOOKUP: SimDuration = SimDuration::from_micros(40);

    fn mk(program: Arc<Program>) -> Process {
        Process::new(Pid(1), SpuId::user(0), None, program, None, SimTime::ZERO)
    }

    #[test]
    fn block_range_math() {
        assert_eq!(block_range(0, 4096), 0..1);
        assert_eq!(block_range(0, 4097), 0..2);
        assert_eq!(block_range(4096, 4096), 1..2);
        assert_eq!(block_range(100, 8000), 0..2);
        assert_eq!(block_range(0, 0), 0..0);
    }

    #[test]
    fn compute_with_working_set_interleaves_touch() {
        let p = Program::builder("c")
            .compute(SimDuration::from_millis(100), 32)
            .build();
        let mut proc = mk(p);
        let first = proc.current_micro(LOOKUP).unwrap();
        assert!(
            matches!(
                first,
                MicroOp::Touch {
                    pages: 32,
                    cursor: 0
                }
            ),
            "{first:?}"
        );
        proc.pop_micro();
        // 100ms at 50ms touch interval = 2 chunks of [Touch, Cpu].
        let mut cpu_total = SimDuration::ZERO;
        let mut touches = 1;
        while let Some(m) = proc.current_micro(LOOKUP) {
            match m {
                MicroOp::Cpu(d) => cpu_total += *d,
                MicroOp::Touch { .. } => touches += 1,
                other => panic!("unexpected {other:?}"),
            }
            proc.pop_micro();
        }
        assert_eq!(cpu_total, SimDuration::from_millis(100));
        assert_eq!(touches, 2);
    }

    #[test]
    fn compute_without_working_set_is_one_burst() {
        let p = Program::builder("c")
            .compute(SimDuration::from_millis(500), 0)
            .build();
        let mut proc = mk(p);
        assert!(matches!(
            proc.current_micro(LOOKUP).unwrap(),
            MicroOp::Cpu(d) if *d == SimDuration::from_millis(500)
        ));
        proc.pop_micro();
        assert!(proc.current_micro(LOOKUP).is_none());
    }

    #[test]
    fn read_expands_to_lookup_then_blocks() {
        let p = Program::builder("r").read(FileId(3), 0, 12_288).build();
        let mut proc = mk(p);
        let mut kinds = Vec::new();
        while let Some(m) = proc.current_micro(LOOKUP) {
            kinds.push(format!("{m:?}"));
            proc.pop_micro();
        }
        assert!(kinds[0].starts_with("LockAcquire"), "{kinds:?}");
        assert!(kinds[1].starts_with("Cpu"), "{kinds:?}");
        assert!(kinds[2].starts_with("LockRelease"), "{kinds:?}");
        assert_eq!(
            kinds.iter().filter(|k| k.starts_with("BlockRead")).count(),
            3
        );
    }

    #[test]
    fn meta_write_holds_inode_lock_across_io() {
        let p = Program::builder("m").meta_write(FileId(0)).build();
        let mut proc = mk(p);
        let mut kinds = Vec::new();
        while let Some(m) = proc.current_micro(LOOKUP) {
            kinds.push(format!("{m:?}"));
            proc.pop_micro();
        }
        assert!(kinds[0].starts_with("LockAcquire"));
        assert!(kinds[2].starts_with("MetaWrite"));
        assert!(kinds[3].starts_with("AwaitIo"));
        assert!(kinds[4].starts_with("LockRelease"));
    }

    #[test]
    fn consume_cpu_partial_and_complete() {
        let p = Program::builder("c")
            .compute(SimDuration::from_millis(30), 0)
            .build();
        let mut proc = mk(p);
        proc.current_micro(LOOKUP);
        assert!(!proc.consume_cpu(SimDuration::from_millis(10)));
        assert!(!proc.consume_cpu(SimDuration::from_millis(10)));
        assert!(proc.consume_cpu(SimDuration::from_millis(10)));
        assert!(proc.current_micro(LOOKUP).is_none());
    }

    #[test]
    fn alloc_expands_to_alloc_micro_op() {
        let p = Program::builder("a").alloc(4).build();
        let mut proc = mk(p);
        assert!(matches!(
            proc.current_micro(LOOKUP).unwrap(),
            MicroOp::Alloc(4)
        ));
    }

    #[test]
    fn arena_grows_tables_and_recycles_slabs() {
        let mut arena = PageArena::new();
        let slab = arena.alloc();
        arena.grow(slab, 4);
        assert_eq!(arena.table(slab).len(), 4);
        assert!(arena
            .table(slab)
            .iter()
            .all(|s| matches!(s, PageState::Unmapped)));
        arena.table_mut(slab)[1] = PageState::Resident(crate::vm::FrameId(9));
        // Growing never shrinks.
        arena.grow(slab, 2);
        assert_eq!(arena.table(slab).len(), 4);
        // Releasing empties the table and recycles the slab id.
        arena.release(slab);
        let again = arena.alloc();
        assert_eq!(again, slab);
        assert!(arena.table(again).is_empty());
    }

    #[test]
    fn fork_costs_cpu_then_forks() {
        let child = Program::builder("child").build();
        let p = Program::builder("f").fork(child).wait_children().build();
        let mut proc = mk(p);
        assert!(matches!(
            proc.current_micro(LOOKUP).unwrap(),
            MicroOp::Cpu(_)
        ));
        proc.pop_micro();
        assert!(matches!(
            proc.current_micro(LOOKUP).unwrap(),
            MicroOp::Fork(_)
        ));
        proc.pop_micro();
        assert!(matches!(
            proc.current_micro(LOOKUP).unwrap(),
            MicroOp::WaitChildren
        ));
    }
}
