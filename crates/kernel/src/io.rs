//! The file-I/O path and disk plumbing: cache reads with read-ahead and
//! prefetch, the dirty-buffer throttle, write-behind flush batches
//! (§3.3's shared writes), and the one lifecycle of every disk request
//! the kernel makes. `Kernel::issue` draws the request's tag, records
//! its [`IoPurpose`], counts it against the process that waits for it
//! and submits it; `Kernel::retire` undoes all of that when the request
//! completes, or when the retry-with-backoff recovery policy gives it
//! up.

use event_sim::{backoff_delay, SimTime};
use hp_disk::{DiskRequest, RequestKind};
use spu_core::SpuId;

use crate::bufcache::CacheEntry;
use crate::config::{
    COPY_COST, DIRTY_HIGH_FRAC, DIRTY_LOW_FRAC, IO_MAX_RETRIES, IO_RETRY_BASE, IO_RETRY_CAP,
    IO_TIMEOUT, READAHEAD_BLOCKS, SECTORS_PER_PAGE,
};
use crate::error::KernelError;
use crate::event::Event;
use crate::fs::FileId;
use crate::kernel::Kernel;
use crate::process::{BlockReason, MicroOp, Pid, ProcState};
use crate::trace::TraceEvent;
use crate::vm::{FrameId, FrameOwner};

/// What an outstanding disk request is for: what `Kernel::retire` undoes
/// and whom it wakes, whether the request completed or was given up.
#[derive(Debug)]
pub(crate) enum IoPurpose {
    /// A buffer-cache fill of `nblocks` starting at `first_block`; the
    /// blocks' frames stay pinned under `Filling` entries until it
    /// retires.
    CacheFill {
        file: FileId,
        first_block: u64,
        nblocks: u32,
    },
    /// Swap-in of a process's pages, which it waits on via `AwaitIo`;
    /// the frames stay pinned until it retires.
    SwapIn { pid: Pid, frames: Vec<FrameId> },
    /// Private I/O a process waits on via `AwaitIo` (swap-out writes,
    /// metadata writes).
    Private { pid: Pid },
    /// A write-behind flush batch; the frames stay pinned until it
    /// retires.
    Flush { frames: Vec<FrameId> },
    /// Timing/bandwidth-only I/O nobody waits for (asynchronous eviction
    /// cleaning).
    Noop,
}

/// Retry bookkeeping for an erroring disk request, keyed by tag.
#[derive(Debug)]
pub(crate) struct RetryState {
    pub(crate) attempts: u32,
    pub(crate) first_error: SimTime,
}

impl Kernel {
    /// Handles a `BlockRead`. Returns `false` if the process blocked.
    pub(crate) fn do_block_read(&mut self, cpu: usize, pid: Pid, file: FileId, block: u64) -> bool {
        let tag = match self.cache.lookup(file, block) {
            Some(CacheEntry::Valid { frame, .. }) => {
                let spu = self.procs.get(pid).spu;
                self.vm.touch_frame(frame);
                if self.vm.frame(frame).spu.is_user() && self.vm.frame(frame).spu != spu {
                    // §3.2: second SPU touching the page re-marks it shared.
                    self.vm.mark_shared(frame);
                }
                // Asynchronous read-ahead: keep the next window in flight
                // ("There are multiple outstanding reads because of
                // read-ahead by the kernel", §4.5).
                self.maybe_prefetch(spu, file, block);
                let p = self.procs.get_mut(pid);
                p.pop_micro();
                p.push_front_micro(MicroOp::Cpu(COPY_COST));
                return true;
            }
            Some(CacheEntry::Filling { tag, .. }) => tag,
            None => {
                let spu = self.procs.get(pid).spu;
                // Read-ahead: extend the miss over following uncached
                // blocks (§4.5, as above). Brown-out degrades a backed-up
                // SPU's miss to demand-only paging: optional work goes
                // first, requests go last.
                let max_blocks = if self.in_brownout(spu) {
                    self.admission[spu.index()].brownout_skips += 1;
                    1
                } else {
                    1 + READAHEAD_BLOCKS as u64
                };
                let Some((tag, _)) = self.start_fill(spu, file, block, max_blocks) else {
                    // Not even one frame: block on memory.
                    self.mem_waiters.push(pid);
                    self.block_running(cpu, BlockReason::Memory);
                    self.dispatch(cpu);
                    return false;
                };
                tag
            }
        };
        self.fill_waiters.entry(tag).or_default().push(pid);
        self.block_running(cpu, BlockReason::CacheFill);
        self.dispatch(cpu);
        false
    }

    /// Issues asynchronous read-ahead following a cache hit: keeps up to
    /// `prefetch_windows` fills of `READAHEAD_BLOCKS + 1` in flight per file,
    /// so a sequential reader keeps the disk queue occupied ("multiple
    /// outstanding reads because of read-ahead", §4.5). Nobody waits on a
    /// prefetch.
    pub(crate) fn maybe_prefetch(&mut self, spu: SpuId, file: FileId, block: u64) {
        // Brown-out: while the SPU's admission queue is backed up, its
        // optional prefetch is the first work to go.
        if self.in_brownout(spu) {
            self.admission[spu.index()].brownout_skips += 1;
            return;
        }
        let windows = self.cfg.tuning.prefetch_windows;
        if windows == 0 {
            return;
        }
        let ra = READAHEAD_BLOCKS as u64 + 1;
        // Scan ahead a bounded distance for the first uncached block.
        let horizon = (block + 1 + ra * windows as u64).min(self.fs.meta(file).blocks);
        let mut next = block + 1;
        while self.cache.fills_in_flight(file) < windows {
            while next < horizon && self.cache.get(file, next).is_some() {
                next += 1;
            }
            if next >= horizon {
                return;
            }
            let Some((_, nblocks)) = self.start_fill(spu, file, next, ra) else {
                return;
            };
            next += nblocks as u64;
        }
    }

    /// Starts one cache fill, for a demand miss or for read-ahead alike:
    /// acquires frames for up to `max_blocks` uncached blocks of `file`
    /// from `first`, issues one read for them charged to `spu`, and pins
    /// the frames under `Filling` entries. Returns the fill's tag and
    /// length, or `None` when not even one frame could be had.
    ///
    /// The tag is drawn only after the last acquire, because an acquire
    /// can evict a dirty page whose write-back draws a tag first. The
    /// frames are not pinned until then either, so at the SPU's allowed
    /// limit an acquire can evict the frame the loop took just before
    /// (the test `readahead_at_the_memory_limit_aliases_blocks_to_one_frame`
    /// pins that defect).
    fn start_fill(
        &mut self,
        spu: SpuId,
        file: FileId,
        first: u64,
        max_blocks: u64,
    ) -> Option<(u64, u32)> {
        let meta = self.fs.meta(file);
        let (disk, end) = (meta.disk, meta.blocks.min(first + max_blocks));
        let mut frames = Vec::new();
        let mut block = first;
        while block < end && self.cache.get(file, block).is_none() {
            let Some(frame) = self.acquire(spu, FrameOwner::Cache { file, block }, None) else {
                break;
            };
            frames.push(frame);
            block += 1;
        }
        if frames.is_empty() {
            return None;
        }
        let nblocks = frames.len() as u32;
        let sector = self.fs.sector_of_block(file, first);
        let req = DiskRequest::new(spu, RequestKind::Read, sector, nblocks * SECTORS_PER_PAGE);
        let purpose = IoPurpose::CacheFill {
            file,
            first_block: first,
            nblocks,
        };
        let tag = self.issue(disk, req, purpose);
        for (block, frame) in (first..).zip(frames) {
            self.vm.set_pinned(frame, true);
            self.cache.insert_filling(file, block, frame, tag);
        }
        self.cache.fill_issued(file);
        Some((tag, nblocks))
    }

    /// Handles a `BlockWrite`. Returns `false` if the process blocked.
    pub(crate) fn do_block_write(
        &mut self,
        cpu: usize,
        pid: Pid,
        file: FileId,
        block: u64,
    ) -> bool {
        // Dirty-buffer throttle: "The buffer cache fills up causing
        // writes to the disk" (§4.5).
        let high = (self.cfg.total_frames() as f64 * DIRTY_HIGH_FRAC) as u64;
        if self.cache.dirty_load() >= high {
            self.flush_dirty();
            self.dirty_waiters.push(pid);
            self.block_running(cpu, BlockReason::DirtyThrottle);
            self.dispatch(cpu);
            return false;
        }
        match self.cache.lookup(file, block) {
            Some(CacheEntry::Valid { .. }) => {
                self.cache.mark_dirty(file, block);
                let p = self.procs.get_mut(pid);
                p.pop_micro();
                p.push_front_micro(MicroOp::Cpu(COPY_COST));
                true
            }
            Some(CacheEntry::Filling { tag, .. }) => {
                self.fill_waiters.entry(tag).or_default().push(pid);
                self.block_running(cpu, BlockReason::CacheFill);
                self.dispatch(cpu);
                false
            }
            None => {
                // Whole-block overwrite: no read needed.
                let spu = self.procs.get(pid).spu;
                let Some(frame) = self.acquire(spu, FrameOwner::Cache { file, block }, None) else {
                    self.mem_waiters.push(pid);
                    self.block_running(cpu, BlockReason::Memory);
                    self.dispatch(cpu);
                    return false;
                };
                self.cache.insert_valid(file, block, frame, true);
                let p = self.procs.get_mut(pid);
                p.pop_micro();
                p.push_front_micro(MicroOp::Cpu(COPY_COST));
                true
            }
        }
    }

    /// Flushes every dirty cache block as shared-SPU write batches
    /// (§3.3), coalescing contiguous sectors up to 64 blocks a batch.
    /// The blocks are sorted by `(disk, sector)`, unique per block, so
    /// the requests do not depend on the order the blocks were dirtied
    /// in.
    pub(crate) fn flush_dirty(&mut self) {
        let batch = self.cache.take_dirty();
        if batch.is_empty() {
            return;
        }
        // (disk, sector, frame, owner spu)
        let mut items: Vec<(usize, u64, FrameId, SpuId)> = batch
            .into_iter()
            .map(|(file, block, frame)| {
                let disk = self.fs.meta(file).disk;
                let sector = self.fs.sector_of_block(file, block);
                (disk, sector, frame, self.vm.frame(frame).spu)
            })
            .collect();
        items.sort_unstable_by_key(|&(d, s, _, _)| (d, s));
        let runs = items
            .chunk_by(|a, b| b.0 == a.0 && b.1 == a.1 + SECTORS_PER_PAGE as u64)
            .flat_map(|run| run.chunks(64));
        for run in runs {
            let (disk, start_sector, ..) = run[0];
            // Charge breakdown: "Once the shared write request is done,
            // the individual pages are charged to the appropriate user
            // SPUs" (§3.3).
            let mut charges: Vec<(SpuId, u32)> = Vec::new();
            for &(.., s) in run {
                match charges.iter_mut().find(|(cs, _)| *cs == s) {
                    Some((_, n)) => *n += SECTORS_PER_PAGE,
                    None => charges.push((s, SECTORS_PER_PAGE)),
                }
            }
            let frames: Vec<FrameId> = run.iter().map(|&(_, _, f, _)| f).collect();
            for &f in &frames {
                self.vm.set_pinned(f, true);
            }
            let sectors = frames.len() as u32 * SECTORS_PER_PAGE;
            let req = DiskRequest::new(SpuId::SHARED, RequestKind::Write, start_sector, sectors)
                .with_charges(charges);
            self.issue(disk, req, IoPurpose::Flush { frames });
        }
    }

    // ----- the request lifecycle ------------------------------------------

    /// Issues a request on `disk` for `purpose`: draws its tag, records
    /// the purpose, counts the request against the process that waits
    /// for it (a swap-in's or private write's `pid`), and submits it.
    /// Returns the tag. Every request the kernel makes starts here and
    /// ends in [`retire`](Self::retire).
    pub(crate) fn issue(&mut self, disk: usize, req: DiskRequest, purpose: IoPurpose) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        if let IoPurpose::SwapIn { pid, .. } | IoPurpose::Private { pid } = &purpose {
            self.procs.get_mut(*pid).pending_io += 1;
        }
        self.io_purpose.insert(tag, purpose);
        self.submit_io(disk, req.with_tag(tag));
        tag
    }

    /// Hands a tagged request to its disk; a retry comes back here.
    pub(crate) fn submit_io(&mut self, disk: usize, req: DiskRequest) {
        self.trace.push(TraceEvent::IoIssue {
            at: self.now,
            disk,
            stream: req.stream,
            sectors: req.sectors,
        });
        if let Some(c) = self.disks[disk].submit(req, self.now) {
            self.events.schedule(c.at, Event::DiskDone { disk });
        }
    }

    pub(crate) fn on_disk_done(&mut self, disk: usize) {
        let (done, next) = self.disks[disk].complete(self.now);
        if let Some(c) = next {
            self.events.schedule(c.at, Event::DiskDone { disk });
        }
        if let Some(attr) = self.attribution.as_mut() {
            for (waiter, holder, wait) in self.disks[disk].drain_queue_waits() {
                attr.disk_queue_wait(waiter, holder, wait);
            }
        }
        if done.failed {
            self.counters.add_id(self.counter_ids.fault_disk_errors, 1);
            self.handle_io_error(disk, done.req);
        } else {
            self.retire(done.req.tag);
        }
    }

    /// Recovery policy for a failed disk request: capped exponential
    /// backoff retries, then the request is given up. A given-up request
    /// records an `io-failure` trace instant, counts in
    /// `fault.io_failures`, and retires like a completed one, so its
    /// waiters wake and continue.
    pub(crate) fn handle_io_error(&mut self, disk: usize, req: DiskRequest) {
        let entry = self.retries.entry(req.tag).or_insert(RetryState {
            attempts: 0,
            first_error: self.now,
        });
        entry.attempts += 1;
        let attempts = entry.attempts;
        let elapsed = self.now.saturating_since(entry.first_error);
        if attempts <= IO_MAX_RETRIES && elapsed < IO_TIMEOUT {
            self.counters.add_id(self.counter_ids.fault_io_retries, 1);
            let delay = backoff_delay(attempts - 1, IO_RETRY_BASE, IO_RETRY_CAP);
            self.events.schedule(
                self.now + delay,
                Event::IoRetry {
                    disk,
                    req: Box::new(req),
                },
            );
        } else {
            self.counters.add_id(self.counter_ids.fault_io_failures, 1);
            self.trace.push(TraceEvent::FaultInjected {
                at: self.now,
                label: "io-failure",
            });
            self.retire(req.tag);
        }
    }

    /// Retires request `tag`, completed or given up: drops its purpose
    /// and retry state, releases the waiting process's pending count,
    /// unpins its frames and wakes whoever waits on it. The simulator
    /// models placement and timing rather than data, so a given-up fill
    /// leaves its blocks valid (with garbage nobody models) instead of
    /// stranded in the `Filling` state.
    pub(crate) fn retire(&mut self, tag: u64) {
        self.retries.remove(&tag);
        let Some(purpose) = self.io_purpose.remove(&tag) else {
            self.report_error(KernelError::CompletionWithoutPurpose { tag });
            return;
        };
        match purpose {
            IoPurpose::CacheFill {
                file,
                first_block,
                nblocks,
            } => {
                self.cache.fill_retired(file);
                for b in first_block..first_block + nblocks as u64 {
                    if let Some(frame) = self.cache.complete_fill(file, b) {
                        self.vm.set_pinned(frame, false);
                    }
                }
                for w in self.fill_waiters.remove(&tag).unwrap_or_default() {
                    self.make_ready(w);
                }
                self.wake_mem_waiters();
            }
            IoPurpose::SwapIn { pid, frames } => {
                for f in frames {
                    self.vm.set_pinned(f, false);
                }
                self.io_finished(pid);
                self.wake_mem_waiters();
            }
            IoPurpose::Private { pid } => self.io_finished(pid),
            IoPurpose::Flush { frames } => {
                self.cache.flush_completed(frames.len() as u64);
                for f in frames {
                    self.vm.set_pinned(f, false);
                }
                let low = (self.cfg.total_frames() as f64 * DIRTY_LOW_FRAC) as u64;
                if self.cache.dirty_load() <= low && !self.dirty_waiters.is_empty() {
                    for w in std::mem::take(&mut self.dirty_waiters) {
                        self.make_ready(w);
                    }
                }
                self.wake_mem_waiters();
            }
            IoPurpose::Noop => {}
        }
    }

    pub(crate) fn io_finished(&mut self, pid: Pid) {
        let p = self.procs.get_mut(pid);
        debug_assert!(p.pending_io > 0, "io completion underflow for {pid:?}");
        p.pending_io -= 1;
        if p.pending_io == 0 && matches!(p.state, ProcState::Blocked(BlockReason::Io)) {
            self.make_ready(pid);
        }
    }

    // ----- swap geometry ---------------------------------------------------

    /// The disk holding an SPU's swap space.
    pub(crate) fn swap_disk_of(&self, spu: SpuId) -> usize {
        match spu.user_index() {
            Some(i) => i % self.disks.len(),
            None => 0,
        }
    }

    /// Maps a global swap-slot offset to a sector in the disk's swap
    /// region (the upper half of the disk, far from the file extents).
    pub(crate) fn swap_sector(&self, disk: usize, slot: u64) -> u64 {
        let total = self.disks[disk].model().total_sectors();
        let base = total / 2;
        base + (slot % (total / 2 - SECTORS_PER_PAGE as u64 * 16))
    }
}

#[cfg(test)]
mod tests {
    use event_sim::{SimDuration, SimTime};
    use hp_disk::{DiskRequest, RequestKind};
    use spu_core::{Scheme, SpuId, SpuSet};

    use crate::bufcache::CacheEntry;
    use crate::config::{MachineConfig, READAHEAD_BLOCKS, SECTORS_PER_PAGE};
    use crate::event::Event;
    use crate::kernel::Kernel;
    use crate::program::Program;
    use crate::vm::{Acquired, FrameOwner};

    /// Caches the `(file, block)` keys on a two-disk machine, dirties them
    /// in the given order, flushes, and returns the write requests the
    /// flush issued, in submission order. Files 0 and 2 share disk 0,
    /// file 1 is on disk 1; even blocks are charged to user 0, odd
    /// blocks to user 1.
    fn flushed_writes(dirtying_order: &[(usize, u64)]) -> Vec<DiskRequest> {
        let cfg = MachineConfig::builder()
            .topology(2, 32, 2)
            .scheme(Scheme::PIso)
            .build()
            .unwrap();
        let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
        let files = [
            k.create_file(0, 64 * 4096, 0),
            k.create_file(1, 64 * 4096, 0),
            k.create_file(0, 64 * 4096, 0),
        ];
        // Frames are handed out in key order whatever the dirtying
        // order, so every run backs each block with the same frame.
        let mut keys = dirtying_order.to_vec();
        keys.sort_unstable();
        for &(f, block) in &keys {
            let file = files[f];
            let spu = SpuId::user((block % 2) as u32);
            let Acquired::Frame { frame, .. } =
                k.vm.acquire_frame(spu, FrameOwner::Cache { file, block })
            else {
                panic!("memory is nearly empty");
            };
            k.cache.insert_valid(file, block, frame, false);
        }
        for &(f, block) in dirtying_order {
            assert!(k.cache.mark_dirty(files[f], block));
        }
        k.flush_dirty();
        assert_eq!(k.cache.dirty_blocks(), 0);
        // Retire every request; tags number them in submission order.
        let mut writes = Vec::new();
        while let Some((at, ev)) = k.events.pop() {
            let Event::DiskDone { disk } = ev else {
                panic!("only disk completions are scheduled");
            };
            let (done, next) = k.disks[disk].complete(at);
            if let Some(c) = next {
                k.events.schedule(c.at, Event::DiskDone { disk });
            }
            writes.push(done.req);
        }
        writes.sort_by_key(|r| r.tag);
        writes
    }

    #[test]
    fn flush_requests_do_not_depend_on_dirtying_order() {
        let order = [
            (0, 9),
            (0, 2),
            (1, 5),
            (0, 3),
            (2, 4),
            (0, 5),
            (1, 6),
            (0, 4),
            (2, 5),
            (1, 4),
        ];
        let writes = flushed_writes(&order);
        // Disk 0 in sector order (file 0 blocks 2-5, then 9, then file 2
        // blocks 4-5), then disk 1 (file 1 blocks 4-6): contiguous blocks
        // coalesce, each a shared-SPU write charged to the pages' SPUs.
        let page = SECTORS_PER_PAGE;
        let shape: Vec<(u64, u32)> = writes.iter().map(|r| (r.start, r.sectors)).collect();
        assert_eq!(writes.len(), 4, "{shape:?}");
        assert_eq!(shape[0].1, 4 * page);
        assert_eq!(shape[1], (shape[0].0 + 7 * page as u64, page));
        assert_eq!(shape[2].1, 2 * page);
        assert!(shape[2].0 > shape[1].0, "file 2 follows file 0 on disk 0");
        assert_eq!(shape[3].1, 3 * page);
        assert_eq!(
            shape[3].0,
            shape[0].0 + 2 * page as u64,
            "same offset, disk 1"
        );
        for r in &writes {
            assert_eq!((r.stream, r.kind), (SpuId::SHARED, RequestKind::Write));
        }
        let (u0, u1) = (SpuId::user(0), SpuId::user(1));
        assert_eq!(writes[0].charges(), vec![(u0, 2 * page), (u1, 2 * page)]);
        assert_eq!(writes[1].charges(), vec![(u1, page)]);
        assert_eq!(writes[3].charges(), vec![(u0, 2 * page), (u1, page)]);

        let mut reversed = order;
        reversed.reverse();
        assert_eq!(flushed_writes(&reversed), writes);
        let mut sorted = order;
        sorted.sort_unstable();
        assert_eq!(flushed_writes(&sorted), writes);
        let interleaved: Vec<_> = order
            .iter()
            .step_by(2)
            .chain(order.iter().skip(1).step_by(2))
            .copied()
            .collect();
        assert_eq!(flushed_writes(&interleaved), writes);
    }

    /// Known defect, pinned here until its fix lands together with
    /// re-blessed benchmark digests: a read-ahead run takes its frames
    /// unpinned, so at an SPU's allowed limit each acquire evicts the
    /// cache frame the run took just before (cache frames are the
    /// preferred victims). Every block of the run ends up on one frame,
    /// which the VM owns as the run's last block. When that frame is
    /// evicted, only the last block's entry goes; the others stay as
    /// stale aliases of a frame that now belongs to someone else, and a
    /// later hit on one of them touches that frame.
    #[test]
    fn readahead_at_the_memory_limit_aliases_blocks_to_one_frame() {
        let cfg = MachineConfig::builder()
            .topology(1, 32, 1)
            .scheme(Scheme::Quota)
            .build()
            .unwrap();
        let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
        let file = k.create_file(0, 64 * 4096, 0);
        // Fill the SPU's allowed memory with anonymous pages, then miss.
        let allowed = k.vm.levels(SpuId::user(0)).allowed as u32;
        let prog = Program::builder("fill-then-read")
            .alloc(allowed)
            .compute(SimDuration::from_millis(1), allowed)
            .read(file, 0, 4096)
            .build();
        k.spawn_at(SpuId::user(0), prog, None, SimTime::ZERO);
        assert!(k.run(SimTime::from_secs(60)).completed);
        // The miss's run and the prefetch behind it each landed on one
        // frame. The prefetch evicted the miss run's frame, and its
        // owner entry with it, so the run's other blocks alias a frame
        // the VM now owns as a later block.
        let aliased = READAHEAD_BLOCKS as u64;
        let frame = k.cache.get(file, 0).expect("block 0 was read").frame();
        for b in 1..aliased {
            assert_eq!(k.cache.get(file, b).map(CacheEntry::frame), Some(frame));
        }
        let FrameOwner::Cache { file: f, block } = k.vm.frame(frame).owner else {
            panic!("the frame went to a cache block");
        };
        assert_eq!(f, file);
        assert!(block > aliased, "owned as block {block}");
        // Everything `check_invariants` does assert still holds.
        k.check_invariants();
    }
}
