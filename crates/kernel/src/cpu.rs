//! CPU scheduling and the micro-op interpreter: wake/dispatch/preempt,
//! the §3.1 loan-revocation latency accounting, slice handling, and
//! process lifecycle (fork, exit).

use std::sync::Arc;

use hp_disk::{DiskRequest, RequestKind};
use spu_core::SpuId;

use crate::config::TICK;
use crate::error::KernelError;
use crate::event::Event;
use crate::io::IoPurpose;
use crate::kernel::Kernel;
use crate::process::{BlockReason, MicroOp, Pid, ProcState};
use crate::program::Program;
use crate::trace::TraceEvent;

impl Kernel {
    /// Marks a process runnable and dispatches it on an idle CPU if the
    /// scheme permits.
    pub(crate) fn make_ready(&mut self, pid: Pid) {
        let p = self.procs.get_mut(pid);
        p.state = ProcState::Ready;
        let spu = p.spu;
        self.trace.push(TraceEvent::Wake {
            at: self.now,
            pid,
            spu,
        });
        // Wake→dispatch latency starts (or restarts — latest wake wins)
        // here; the matching dispatch closes it.
        self.wake_pending.insert(pid, self.now);
        self.sched.enqueue(&mut self.procs, pid);
        if let Some(cpu) = self.sched.find_idle_for(spu) {
            self.dispatch(cpu);
        } else {
            // No CPU free: every revocable CPU without a stamp yet (not
            // only those this wake-up made revocable) starts its
            // revocation-latency clock now.
            let needs_any = self.sched.mark_revocable(self.now);
            if self.cfg.tuning.ipi_revocation && !self.ipi_pending && needs_any {
                // If one of this SPU's home CPUs is out on loan, interrupt
                // it now rather than waiting for the tick. The IPI is
                // delivered as a same-timestamp event so revocation never
                // re-enters the interpreter of the CPU that woke us.
                self.ipi_pending = true;
                self.events.schedule(self.now, Event::Ipi);
            }
        }
    }

    /// Fills an idle CPU with the scheduler's choice and starts
    /// interpreting. No-op when the CPU is already occupied (a wake-up
    /// triggered by the previous occupant's exit may have refilled it).
    pub(crate) fn dispatch(&mut self, cpu: usize) {
        if !self.sched.cpu(cpu).is_idle() {
            return;
        }
        let Some((pid, loaned)) = self.sched.pick(&mut self.procs, cpu) else {
            let c = self.sched.cpu_mut(cpu);
            if c.idle_since.is_none() {
                c.idle_since = Some(self.now);
            }
            return;
        };
        let slice = self.cfg.tuning.slice;
        let c = self.sched.cpu_mut(cpu);
        if let Some(since) = c.idle_since.take() {
            c.idle_total += self.now.saturating_since(since);
        }
        c.running = Some(pid);
        c.loaned = loaned;
        c.run_start = self.now;
        c.slice_end = self.now + slice;
        c.gen += 1;
        self.sched.sync_cpu(&self.procs, cpu);
        let spu = self.procs.get(pid).spu;
        self.trace.push(TraceEvent::Dispatch {
            at: self.now,
            cpu,
            pid,
            spu,
            loaned,
        });
        self.counters.add_id(self.counter_ids.sched_dispatches, 1);
        if loaned {
            self.counters.add_id(self.counter_ids.sched_loans, 1);
        }
        if let Some(woke) = self.wake_pending.remove(&pid) {
            self.latency
                .wake_to_dispatch
                .add_duration(self.now.saturating_since(woke));
        }
        self.procs.get_mut(pid).state = ProcState::Running(cpu);
        self.interpret(cpu);
    }

    /// Records a recovered kernel error (bounded sample + counter).
    pub(crate) fn report_error(&mut self, e: KernelError) {
        self.counters.add_id(self.counter_ids.kernel_errors, 1);
        if self.errors.len() < 64 {
            self.errors.push(e);
        }
    }

    /// Accounts the running process's consumed CPU and removes it from
    /// the CPU. The caller decides its next state.
    pub(crate) fn deschedule(&mut self, cpu: usize) -> Result<Pid, KernelError> {
        let c = self.sched.cpu_mut(cpu);
        let Some(pid) = c.running.take() else {
            return Err(KernelError::DescheduleIdleCpu { cpu });
        };
        let was_loaned = c.loaned;
        let consumed = self.now.saturating_since(c.run_start);
        c.busy_total += consumed;
        c.gen += 1;
        c.loaned = false;
        c.idle_since = Some(self.now);
        self.sched.sync_cpu(&self.procs, cpu);
        // §3.1 revocation latency: a home wake-up marked this loaned CPU
        // revocable; the borrower leaving it (preempt at the tick/IPI, or
        // a voluntary kernel entry) completes the revocation.
        self.complete_revocation(cpu, pid, was_loaned);
        let p = self.procs.get_mut(pid);
        p.cpu_time += consumed;
        self.spu_cpu[p.spu.index()] += consumed;
        self.procs.charge_p_cpu(pid, consumed.as_millis_f64());
        Ok(pid)
    }

    /// Clears `cpu`'s revocation stamp as `borrower` leaves it and, when
    /// it left a loan, records the revocation latency and charges it to
    /// the borrower's SPU on behalf of the CPU's home SPUs (attribution
    /// only when enabled).
    fn complete_revocation(&mut self, cpu: usize, borrower: Pid, was_loaned: bool) {
        let Some(requested) = self.sched.take_revoke_request(cpu) else {
            return;
        };
        if !was_loaned {
            return;
        }
        let delay = self.now.saturating_since(requested);
        self.latency.revocation.add_duration(delay);
        if self.attribution.is_none() {
            return;
        }
        let holder = self.procs.get(borrower).spu;
        let homes = self.sched.cpu(cpu).assignment.home_spus();
        let attr = self.attribution.as_mut().expect("checked above");
        for home in homes {
            if home != holder {
                attr.cpu_revoked(home, holder, delay);
            }
        }
    }

    /// Preempts the running process mid-burst (tick revocation or slice
    /// expiry), reducing its in-progress `Cpu` micro-op.
    pub(crate) fn preempt(&mut self, cpu: usize) {
        let c = self.sched.cpu(cpu);
        let consumed = self.now.saturating_since(c.run_start);
        let pid = match self.deschedule(cpu) {
            Ok(pid) => pid,
            Err(e) => {
                self.report_error(e);
                return;
            }
        };
        self.trace.push(TraceEvent::Preempt {
            at: self.now,
            cpu,
            pid,
        });
        self.counters.add_id(self.counter_ids.sched_preemptions, 1);
        let p = self.procs.get_mut(pid);
        // A preempted process is necessarily inside a Cpu burst: every
        // other micro-op resolves synchronously during interpret.
        if matches!(p.micro_front(), Some(MicroOp::Cpu(_))) {
            p.consume_cpu(consumed);
        } else {
            debug_assert!(consumed.is_zero(), "non-Cpu micro-op consumed time");
        }
        p.state = ProcState::Ready;
        self.sched.enqueue(&mut self.procs, pid);
    }

    /// Blocks the running process on `reason` and frees its CPU.
    pub(crate) fn block_running(&mut self, cpu: usize, reason: BlockReason) {
        let pid = match self.deschedule(cpu) {
            Ok(pid) => pid,
            Err(e) => {
                self.report_error(e);
                return;
            }
        };
        self.trace.push(TraceEvent::Block {
            at: self.now,
            pid,
            reason,
        });
        self.procs.get_mut(pid).state = ProcState::Blocked(reason);
    }

    pub(crate) fn on_tick(&mut self) {
        self.sched.decay_priorities(&mut self.procs);
        // Loan revocation (§3.1): "the revocation of the CPU happens
        // either at the next clock tick interrupt (every 10 ms), or when
        // the process voluntarily enters the kernel."
        self.revoke_loans();
        // Fill any CPUs that went idle while no wake event fired (e.g.
        // after a revocation shuffle).
        self.fill_idle_cpus();
        if self.live_procs > 0 {
            self.events.schedule(self.now + TICK, Event::Tick);
        }
    }

    /// Preempts and redispatches every revocable CPU in ascending order.
    /// The revocable set is read live: a dispatch inside the sweep can
    /// create a revocable loan on a later CPU, which the sweep must
    /// still visit.
    pub(crate) fn revoke_loans(&mut self) {
        let mut cpu = 0;
        while let Some(c) = self.sched.next_revocable_cpu(cpu) {
            self.preempt(c);
            self.dispatch(c);
            cpu = c + 1;
        }
    }

    /// Dispatches idle online CPUs in ascending order while work is
    /// queued.
    pub(crate) fn fill_idle_cpus(&mut self) {
        let mut cpu = 0;
        while let Some(c) = self.sched.next_idle_cpu(cpu) {
            if self.sched.ready_count() == 0 {
                break;
            }
            self.dispatch(c);
            cpu = c + 1;
        }
    }

    pub(crate) fn on_op_done(&mut self, cpu: usize, gen: u64) {
        if self.sched.cpu(cpu).gen != gen {
            return; // stale: the process was preempted or blocked
        }
        let c = self.sched.cpu(cpu);
        let Some(pid) = c.running else {
            self.report_error(KernelError::OpDoneIdleCpu { cpu });
            return;
        };
        let consumed = self.now.saturating_since(c.run_start);
        let slice_end = c.slice_end;
        {
            let c = self.sched.cpu_mut(cpu);
            c.busy_total += consumed;
            c.run_start = self.now;
        }
        let p = self.procs.get_mut(pid);
        p.cpu_time += consumed;
        self.spu_cpu[p.spu.index()] += consumed;
        p.consume_cpu(consumed);
        self.procs.charge_p_cpu(pid, consumed.as_millis_f64());
        if self.now >= slice_end {
            // Slice expired: round-robin back through the ready list. The
            // time is charged above, so the deschedule charges none.
            if let Some(p) = self.preempt_for_requeue(cpu) {
                self.sched.enqueue(&mut self.procs, p);
            }
            self.dispatch(cpu);
        } else {
            self.interpret(cpu);
        }
    }

    /// Runs the current process's micro-ops until it consumes CPU time
    /// (an `OpDone` event is scheduled), blocks, or exits.
    pub(crate) fn interpret(&mut self, cpu: usize) {
        let lookup_cost = self.cfg.tuning.lookup_cost;
        loop {
            let pid = match self.sched.cpu(cpu).running {
                Some(p) => p,
                None => return,
            };
            let micro = match self.procs.get_mut(pid).current_micro(lookup_cost) {
                Some(m) => m.clone(),
                None => {
                    if let Err(e) = self.deschedule(cpu) {
                        self.report_error(e);
                    }
                    self.exit_process(pid, false);
                    self.dispatch(cpu);
                    return;
                }
            };
            match micro {
                MicroOp::Cpu(d) => {
                    let slice_end = self.sched.cpu(cpu).slice_end;
                    if self.now >= slice_end {
                        // Slice exhausted by instantaneous ops.
                        if let Some(p) = self.preempt_for_requeue(cpu) {
                            self.sched.enqueue(&mut self.procs, p);
                        }
                        self.dispatch(cpu);
                        return;
                    }
                    let runtime = d.min(slice_end.saturating_since(self.now));
                    let gen = self.sched.cpu(cpu).gen;
                    self.events
                        .schedule(self.now + runtime, Event::OpDone { cpu, gen });
                    return;
                }
                MicroOp::Touch { pages, cursor } => {
                    if !self.do_touch(cpu, pid, pages, cursor) {
                        return; // blocked
                    }
                }
                MicroOp::Alloc(pages) => {
                    let slab = self.procs.get(pid).pages;
                    self.page_arena.grow(slab, pages);
                    self.procs.get_mut(pid).pop_micro();
                }
                MicroOp::AwaitIo => {
                    if self.procs.get(pid).pending_io == 0 {
                        self.procs.get_mut(pid).pop_micro();
                    } else {
                        self.block_running(cpu, BlockReason::Io);
                        self.dispatch(cpu);
                        return;
                    }
                }
                MicroOp::LockAcquire { lock, excl } => {
                    if self.locks.acquire(lock, pid, excl) {
                        if let Some(attr) = &mut self.attribution {
                            attr.lock_acquired(pid, lock, self.now);
                        }
                        self.procs.get_mut(pid).pop_micro();
                    } else {
                        if let Some(attr) = self.attribution.as_mut() {
                            let spu = self.procs.get(pid).spu;
                            attr.lock_blocked(pid, self.now);
                            self.trace.push(TraceEvent::LockWait {
                                at: self.now,
                                pid,
                                spu,
                                lock,
                            });
                        }
                        self.block_running(cpu, BlockReason::Lock(lock));
                        self.dispatch(cpu);
                        return;
                    }
                }
                MicroOp::LockRelease { lock } => {
                    self.procs.get_mut(pid).pop_micro();
                    let woken = self.locks.release(lock, pid);
                    let holder_spu = self.procs.get(pid).spu;
                    if let Some(attr) = &mut self.attribution {
                        attr.lock_released(pid, holder_spu, lock, self.now);
                        // Charge everyone still queued for the hold
                        // segment that just ended.
                        let (procs, now) = (&self.procs, self.now);
                        self.locks.for_each_waiter(lock, |p| {
                            attr.lock_still_waiting(p, procs.get(p).spu, lock, holder_spu, now);
                        });
                    }
                    for w in woken {
                        self.grant_lock(w, holder_spu);
                    }
                }
                MicroOp::BlockRead { file, block } => {
                    if !self.do_block_read(cpu, pid, file, block) {
                        return;
                    }
                }
                MicroOp::BlockWrite { file, block } => {
                    if !self.do_block_write(cpu, pid, file, block) {
                        return;
                    }
                }
                MicroOp::MetaWrite { file } => {
                    let meta = self.fs.meta(file);
                    let (disk, sector) = (meta.disk, meta.meta_sector);
                    let p = self.procs.get_mut(pid);
                    p.pop_micro();
                    let req = DiskRequest::new(p.spu, RequestKind::Write, sector, 1);
                    self.issue(disk, req, IoPurpose::Private { pid });
                }
                MicroOp::Fork(program) => {
                    self.procs.get_mut(pid).pop_micro();
                    self.fork_child(pid, program);
                }
                MicroOp::WaitChildren => {
                    if self.procs.get(pid).live_children == 0 {
                        self.procs.get_mut(pid).pop_micro();
                    } else {
                        self.block_running(cpu, BlockReason::Children);
                        self.dispatch(cpu);
                        return;
                    }
                }
                MicroOp::Barrier { id, participants } => {
                    self.procs.get_mut(pid).pop_micro();
                    let arrived = self.barriers.entry(id).or_default();
                    if arrived.len() as u32 + 1 >= participants {
                        let sleepers = self.barriers.remove(&id).unwrap_or_default();
                        for s in sleepers {
                            self.make_ready(s);
                        }
                        // The last arriver continues on its CPU.
                    } else {
                        arrived.push(pid);
                        self.block_running(cpu, BlockReason::Barrier(id));
                        self.dispatch(cpu);
                        return;
                    }
                }
            }
        }
    }

    /// Completes a woken lock waiter's `LockAcquire`: the lock was
    /// already handed to it as a process of `holder` let go (a release,
    /// or a crash's cleanup). Attributes the wait to `holder` and wakes
    /// the waiter.
    pub(crate) fn grant_lock(&mut self, waiter: Pid, holder: SpuId) {
        let p = self.procs.get_mut(waiter);
        debug_assert!(matches!(p.micro_front(), Some(MicroOp::LockAcquire { .. })));
        if let Some(&MicroOp::LockAcquire { lock, .. }) = p.micro_front() {
            p.pop_micro();
            if let Some(attr) = self.attribution.as_mut() {
                attr.lock_granted(waiter, p.spu, lock, holder, self.now);
                self.trace.push(TraceEvent::LockGrant {
                    at: self.now,
                    pid: waiter,
                    lock,
                    holder,
                });
            }
        }
        self.make_ready(waiter);
    }

    /// Deschedules for requeue after slice exhaustion (no in-progress
    /// Cpu burst left to reduce).
    pub(crate) fn preempt_for_requeue(&mut self, cpu: usize) -> Option<Pid> {
        let pid = match self.deschedule(cpu) {
            Ok(pid) => pid,
            Err(e) => {
                self.report_error(e);
                return None;
            }
        };
        self.procs.get_mut(pid).state = ProcState::Ready;
        Some(pid)
    }

    // ----- process lifecycle ----------------------------------------------

    pub(crate) fn fork_child(&mut self, parent: Pid, program: Arc<Program>) {
        let (spu, job) = {
            let p = self.procs.get(parent);
            (p.spu, p.job)
        };
        let pid = self.procs.next_pid();
        let mut child =
            crate::process::Process::new(pid, spu, job, program, Some(parent), self.now);
        child.pages = self.page_arena.alloc();
        self.procs.insert(child);
        self.procs.get_mut(parent).live_children += 1;
        self.live_procs += 1;
        self.make_ready(pid);
    }

    /// Retires a process. A `crashed` exit leaves the job unfinished —
    /// its response is scored at run end, so a crash injected into a
    /// job's root degrades its numbers rather than erasing them.
    pub(crate) fn exit_process(&mut self, pid: Pid, crashed: bool) {
        let slab = {
            let p = self.procs.get_mut(pid);
            p.state = ProcState::Done;
            p.finished = Some(self.now);
            p.free_micro();
            std::mem::replace(&mut p.pages, crate::process::PageSlab::NONE)
        };
        self.live_procs -= 1;
        // Release the process's resident frames through its page table —
        // O(pages), where the old owner-column scan was O(total frames)
        // per exit — then retire the slab for reuse.
        for s in self.page_arena.table(slab) {
            if let crate::process::PageState::Resident(f) = *s {
                self.vm.release_frame(f);
            }
        }
        self.page_arena.release(slab);
        // The light-load SPU "releases memory in addition to CPUs"
        // (§4.3 footnote) — waking anyone blocked on memory.
        self.wake_mem_waiters();
        // Job completion.
        let mut release_admission = false;
        if let Some(job) = self.procs.get(pid).job {
            let rec = &mut self.jobs[job.0 as usize];
            if rec.root == pid && !crashed {
                rec.finished = Some(self.now);
                self.latency
                    .response
                    .add_duration(self.now.saturating_since(rec.started));
                if let Some(slo) = &mut self.slo {
                    slo.finish(rec);
                }
            }
            // An admitted request's root frees its service slot (shed
            // requests were never admitted, so they free nothing).
            release_admission = rec.root == pid && rec.deadline.is_some() && !rec.shed;
        }
        if release_admission {
            self.request_exited(pid);
        }
        // Parent notification.
        if let Some(parent) = self.procs.get(pid).parent {
            let pp = self.procs.get_mut(parent);
            pp.live_children -= 1;
            if pp.live_children == 0
                && matches!(pp.state, ProcState::Blocked(BlockReason::Children))
            {
                self.make_ready(parent);
            }
        }
    }
}
