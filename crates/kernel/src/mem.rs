//! The memory fault path: working-set sweeps (`Touch`), swap-in
//! coalescing, eviction handling (§3.2's revocation cost), and the
//! memory-waiter queue.

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
        // (slot sector, frame) pairs, collected into the kernel's reused
        // scratch buffer — touch rounds fire once per fault batch, so a
        // fresh Vec here shows up in thrash-heavy scenarios.
        let mut swapins = std::mem::take(&mut self.swapin_scratch);
        debug_assert!(swapins.is_empty());
        let end = (c + Self::TOUCH_BATCH).min(want);
        let mut page = c;
        let mut denied = false;
        while page < end {
            let prior = self.page_arena.table(slab)[page as usize];
            if matches!(prior, PageState::Resident(_)) {
                page += 1;
                continue;
            }
            let owner = FrameOwner::Anon { pid, page };
            let (frame, evicted) = match self.vm.acquire_frame(spu, owner) {
                Acquired::Frame { frame, evicted } => (frame, evicted),
                Acquired::Denied => {
                    denied = true;
                    break;
                }
            };
            if let Some(ev) = evicted {
                self.note_steal(spu, &ev);
                self.handle_eviction(ev, Some(pid));
            }
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
        swapins.clear();
        self.swapin_scratch = swapins;
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

    /// Issues the swap-in reads collected by a touch, coalescing
    /// contiguous slots. Sorts `swapins` in place; each run's frame list
    /// comes from (and eventually returns to) the kernel's frame-vector
    /// pool, so no per-request clones are made.
    pub(crate) fn issue_swapins(&mut self, pid: Pid, spu: SpuId, swapins: &mut [(u64, FrameId)]) {
        if swapins.is_empty() {
            return;
        }
        let disk = self.swap_disk_of(spu);
        swapins.sort_unstable_by_key(|&(slot, _)| slot);
        let mut i = 0;
        while i < swapins.len() {
            let run_start = swapins[i].0;
            let mut prev = swapins[i].0;
            let mut frames = self.take_frame_vec();
            frames.push(swapins[i].1);
            let mut j = i + 1;
            while j < swapins.len() && swapins[j].0 == prev + SECTORS_PER_PAGE as u64 {
                frames.push(swapins[j].1);
                prev = swapins[j].0;
                j += 1;
            }
            let sectors = frames.len() as u32 * SECTORS_PER_PAGE;
            let tag = self.next_tag();
            let sector = self.swap_sector(disk, run_start);
            let req = DiskRequest::new(spu, RequestKind::Read, sector, sectors).with_tag(tag);
            self.io_purpose
                .insert(tag, IoPurpose::SwapIn { pid, frames });
            self.procs.get_mut(pid).pending_io += 1;
            self.submit_io(disk, req);
            i = j;
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

    /// Records a cross-SPU page steal in the interference matrix: the
    /// faulting/filling SPU (`thief`) took a frame away from the victim
    /// recorded in the eviction. No-op when attribution is off or the
    /// frame belonged to the same SPU (or a non-user owner).
    pub(crate) fn note_steal(&mut self, thief: SpuId, ev: &Evicted) {
        if let Some(attr) = &mut self.attribution {
            if ev.spu != thief {
                attr.mem_steal(ev.spu, thief);
            }
        }
    }

    /// Processes an eviction decided by the VM: fixes the page table or
    /// cache map and issues the writeback.
    ///
    /// `charge_to`: when the eviction was forced by a faulting process
    /// (isolation at work), that process waits for the swap-out write —
    /// the revocation cost of §2.3. Asynchronous cleanings pass `None`.
    pub(crate) fn handle_eviction(&mut self, ev: Evicted, charge_to: Option<Pid>) {
        match ev.owner {
            FrameOwner::Anon { pid: owner, page } => {
                let slot = self.vm.alloc_swap_run(1);
                let slab = self.procs.get(owner).pages;
                self.page_arena.table_mut(slab)[page as usize] = PageState::Swapped(slot);
                if ev.dirty {
                    let disk = self.swap_disk_of(ev.spu);
                    let sector = self.swap_sector(disk, slot);
                    let tag = self.next_tag();
                    let stream = charge_to.map(|p| self.procs.get(p).spu).unwrap_or(ev.spu);
                    let req =
                        DiskRequest::new(stream, RequestKind::Write, sector, SECTORS_PER_PAGE)
                            .with_tag(tag);
                    match charge_to {
                        Some(p) => {
                            self.io_purpose.insert(tag, IoPurpose::Private { pid: p });
                            self.procs.get_mut(p).pending_io += 1;
                        }
                        None => {
                            self.io_purpose.insert(tag, IoPurpose::Noop);
                        }
                    }
                    self.submit_io(disk, req);
                }
            }
            FrameOwner::Cache { file, block } => {
                let entry = self.cache.remove(file, block);
                let dirty = matches!(entry, Some(CacheEntry::Valid { dirty: true, .. }));
                if dirty {
                    let meta = self.fs.meta(file).clone();
                    let sector = self.fs.sector_of_block(file, block);
                    let tag = self.next_tag();
                    let stream = charge_to
                        .map(|p| self.procs.get(p).spu)
                        .unwrap_or(SpuId::SHARED);
                    let req =
                        DiskRequest::new(stream, RequestKind::Write, sector, SECTORS_PER_PAGE)
                            .with_tag(tag);
                    match charge_to {
                        Some(p) => {
                            self.io_purpose.insert(tag, IoPurpose::Private { pid: p });
                            self.procs.get_mut(p).pending_io += 1;
                        }
                        None => {
                            self.io_purpose.insert(tag, IoPurpose::Noop);
                        }
                    }
                    self.submit_io(meta.disk, req);
                }
            }
            FrameOwner::Kernel | FrameOwner::Free => {
                unreachable!("kernel/free frames are never evicted")
            }
        }
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
