//! The memory fault path: working-set sweeps (`Touch`), swap-in
//! coalescing, frame acquisition with eviction handling (§3.2's
//! revocation cost), and the memory-waiter queue. Swap-ins and
//! write-backs go through the one request lifecycle in `io`:
//! `Kernel::issue` starts them and `Kernel::retire` ends them.

use event_sim::SimDuration;
use hp_disk::{DiskRequest, RequestKind};
use spu_core::SpuId;

use crate::bufcache::CacheEntry;
use crate::config::{SECTORS_PER_PAGE, ZERO_FILL_COST};
use crate::io::IoPurpose;
use crate::kernel::Kernel;
use crate::process::{BlockReason, MicroOp, PageState, Pid};
use crate::trace::TraceEvent;
use crate::vm::{Acquired, Evicted, FrameId, FrameOwner};

impl Kernel {
    /// Pages faulted per blocking round of a working-set sweep.
    pub(crate) const TOUCH_BATCH: u32 = 32;

    /// Handles one round of a `Touch` sweep: advances the cursor over
    /// resident pages and faults in the next batch of missing ones. A
    /// sweep larger than the SPU's allowed memory thrashes — pages
    /// faulted early in the sweep get evicted to make room for later
    /// ones — but always makes forward progress. Returns `false` if the
    /// process blocked (I/O or memory).
    pub(crate) fn do_touch(&mut self, cpu: usize, pid: Pid, pages: u32, cursor: u32) -> bool {
        let (slab, spu) = {
            let p = self.procs.get(pid);
            (p.pages, p.spu)
        };
        let want = (self.page_arena.table(slab).len() as u32).min(pages);
        let mut c = cursor;
        {
            // Hit path: the page table and frame table are disjoint
            // kernel fields, so the resident sweep runs over the slab
            // slice with no per-page process-table lookup.
            let table = self.page_arena.table(slab);
            while c < want {
                match table[c as usize] {
                    PageState::Resident(f) => self.vm.touch_frame(f),
                    _ => break,
                }
                c += 1;
            }
        }
        if c >= want {
            self.procs.get_mut(pid).pop_micro();
            return true;
        }
        let mut cpu_cost = SimDuration::ZERO;
        // (swap slot, frame) pairs of the batch's major faults.
        let mut swapins = Vec::new();
        let end = (c + Self::TOUCH_BATCH).min(want);
        let mut page = c;
        let mut denied = false;
        while page < end {
            let prior = self.page_arena.table(slab)[page as usize];
            if matches!(prior, PageState::Resident(_)) {
                page += 1;
                continue;
            }
            let Some(frame) = self.acquire(spu, FrameOwner::Anon { pid, page }, Some(pid)) else {
                denied = true;
                break;
            };
            self.page_arena.table_mut(slab)[page as usize] = PageState::Resident(frame);
            self.vm.set_dirty(frame, true); // anon pages are born dirty
            match prior {
                PageState::Swapped(slot) => {
                    self.vm.set_pinned(frame, true);
                    swapins.push((slot, frame));
                    self.vm.count_fault(spu, true);
                    self.trace.push(TraceEvent::Fault {
                        at: self.now,
                        spu,
                        major: true,
                    });
                }
                PageState::Unmapped => {
                    cpu_cost += ZERO_FILL_COST;
                    self.vm.count_fault(spu, false);
                    self.trace.push(TraceEvent::Fault {
                        at: self.now,
                        spu,
                        major: false,
                    });
                }
                PageState::Resident(_) => unreachable!("checked above"),
            }
            page += 1;
        }
        // Sweep progress: everything before `page` has been visited.
        self.procs.get_mut(pid).set_touch_cursor(page);
        self.issue_swapins(pid, spu, &mut swapins);
        if self.procs.get(pid).pending_io > 0 {
            self.push_wait_and_cost(pid, cpu_cost);
            self.block_running(cpu, BlockReason::Io);
            self.dispatch(cpu);
            false
        } else if denied {
            self.mem_waiters.push(pid);
            self.block_running(cpu, BlockReason::Memory);
            self.dispatch(cpu);
            false
        } else if !cpu_cost.is_zero() {
            self.push_wait_and_cost(pid, cpu_cost);
            true
        } else {
            true
        }
    }

    /// Issues the swap-in reads collected by a touch, one per run of
    /// contiguous slots. Sorts `swapins` in place.
    fn issue_swapins(&mut self, pid: Pid, spu: SpuId, swapins: &mut [(u64, FrameId)]) {
        let disk = self.swap_disk_of(spu);
        swapins.sort_unstable_by_key(|&(slot, _)| slot);
        for run in swapins.chunk_by(|a, b| b.0 == a.0 + SECTORS_PER_PAGE as u64) {
            let frames: Vec<FrameId> = run.iter().map(|&(_, f)| f).collect();
            let sector = self.swap_sector(disk, run[0].0);
            let sectors = frames.len() as u32 * SECTORS_PER_PAGE;
            let req = DiskRequest::new(spu, RequestKind::Read, sector, sectors);
            self.issue(disk, req, IoPurpose::SwapIn { pid, frames });
        }
    }

    /// Queues `[AwaitIo, Cpu(cost)]` in front of the process's script so
    /// it waits for its fault I/O and then pays the fault CPU cost.
    pub(crate) fn push_wait_and_cost(&mut self, pid: Pid, cost: SimDuration) {
        let p = self.procs.get_mut(pid);
        if !cost.is_zero() {
            p.push_front_micro(MicroOp::Cpu(cost));
        }
        p.push_front_micro(MicroOp::AwaitIo);
    }

    /// Takes a frame for `owner`, charged to `spu`, or `None` when the
    /// VM denies one. A frame stolen on the way is recorded in the
    /// interference matrix when it was another SPU's, and its contents
    /// are evicted ([`handle_eviction`](Self::handle_eviction)) with
    /// `waiter` waiting for the write-back.
    pub(crate) fn acquire(
        &mut self,
        spu: SpuId,
        owner: FrameOwner,
        waiter: Option<Pid>,
    ) -> Option<FrameId> {
        let Acquired::Frame { frame, evicted } = self.vm.acquire_frame(spu, owner) else {
            return None;
        };
        if let Some(ev) = evicted {
            if let Some(attr) = &mut self.attribution {
                if ev.spu != spu {
                    attr.mem_steal(ev.spu, spu);
                }
            }
            self.handle_eviction(ev, waiter);
        }
        Some(frame)
    }

    /// Processes an eviction decided by the VM: fixes the page table or
    /// cache map and writes a dirty page back.
    ///
    /// `waiter`: when the eviction was forced by a faulting process
    /// (isolation at work), that process waits for the write-back — the
    /// revocation cost of §2.3. Asynchronous cleanings pass `None`.
    fn handle_eviction(&mut self, ev: Evicted, waiter: Option<Pid>) {
        match ev.owner {
            FrameOwner::Anon { pid: owner, page } => {
                let slot = self.vm.alloc_swap_run(1);
                let slab = self.procs.get(owner).pages;
                self.page_arena.table_mut(slab)[page as usize] = PageState::Swapped(slot);
                if ev.dirty {
                    let disk = self.swap_disk_of(ev.spu);
                    let sector = self.swap_sector(disk, slot);
                    self.write_back(disk, sector, ev.spu, waiter);
                }
            }
            FrameOwner::Cache { file, block } => {
                let entry = self.cache.remove(file, block);
                if matches!(entry, Some(CacheEntry::Valid { dirty: true, .. })) {
                    let disk = self.fs.meta(file).disk;
                    let sector = self.fs.sector_of_block(file, block);
                    self.write_back(disk, sector, SpuId::SHARED, waiter);
                }
            }
            FrameOwner::Kernel | FrameOwner::Free => {
                unreachable!("kernel/free frames are never evicted")
            }
        }
    }

    /// Writes one evicted page back to `sector` on `disk`. A `waiter`
    /// waits for the write and its SPU's stream carries it; otherwise
    /// nobody waits and `owner`'s stream carries it.
    fn write_back(&mut self, disk: usize, sector: u64, owner: SpuId, waiter: Option<Pid>) {
        let (stream, purpose) = match waiter {
            Some(pid) => (self.procs.get(pid).spu, IoPurpose::Private { pid }),
            None => (owner, IoPurpose::Noop),
        };
        let req = DiskRequest::new(stream, RequestKind::Write, sector, SECTORS_PER_PAGE);
        self.issue(disk, req, purpose);
    }

    pub(crate) fn wake_mem_waiters(&mut self) {
        if self.mem_waiters.is_empty() {
            return;
        }
        for w in std::mem::take(&mut self.mem_waiters) {
            self.make_ready(w);
        }
    }
}
