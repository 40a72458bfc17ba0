//! Event dispatch: the kernel's event vocabulary and the single switch
//! that routes each popped event to its subsystem module
//! ([`cpu`](crate::cpu), [`mem`](crate::mem), [`io`](crate::io),
//! [`policy`](crate::policy)).

use event_sim::FaultKind;
use hp_disk::DiskRequest;

use crate::config::{MEM_POLICY_PERIOD, SYNC_PERIOD};
use crate::kernel::Kernel;
use crate::process::Pid;
use crate::trace::TraceEvent;

/// Simulation events.
#[derive(Debug)]
pub(crate) enum Event {
    /// A spawned process starts.
    Start(Pid),
    /// The 10 ms clock tick.
    Tick,
    /// A CPU's current compute burst (or slice) ends; stale if the
    /// generation does not match.
    OpDone { cpu: usize, gen: u64 },
    /// The in-flight request on a disk completes.
    DiskDone { disk: usize },
    /// The write-behind daemon runs.
    SyncDaemon,
    /// The periodic memory sharing policy runs.
    MemPolicy,
    /// An inter-processor interrupt revokes loaned CPUs immediately
    /// (optional §3.1 extension).
    Ipi,
    /// The periodic observability sampler records per-SPU resource
    /// levels (see [`Kernel::enable_sampling`]).
    Sample,
    /// An injected fault from the configured
    /// [`FaultPlan`](event_sim::FaultPlan) fires.
    Fault(FaultKind),
    /// A failed disk request is retried after backoff. The request is
    /// boxed so this rare variant doesn't set the size of every `Event`
    /// — the queue's buckets move entries by value, and retries are
    /// orders of magnitude rarer than ticks and completions.
    IoRetry { disk: usize, req: Box<DiskRequest> },
    /// A queued request's wait-timeout budget expires (stale if the
    /// request was admitted or shed in the meantime — the attempt
    /// number disambiguates).
    RequestTimeout { pid: Pid, attempt: u32 },
    /// A timed-out request is resubmitted by its client after backoff.
    RequestResubmit { pid: Pid, attempt: u32 },
}

impl Kernel {
    pub(crate) fn handle(&mut self, ev: Event) {
        match ev {
            Event::Start(pid) => self.on_start(pid),
            Event::Tick => {
                self.on_tick();
                self.audit_ledger();
            }
            Event::OpDone { cpu, gen } => self.on_op_done(cpu, gen),
            Event::DiskDone { disk } => self.on_disk_done(disk),
            Event::SyncDaemon => {
                self.flush_dirty();
                if self.live_procs > 0 {
                    self.events
                        .schedule(self.now + SYNC_PERIOD, Event::SyncDaemon);
                }
            }
            Event::MemPolicy => {
                self.vm.run_policy();
                self.trace.push(TraceEvent::PolicyRun { at: self.now });
                self.wake_mem_waiters();
                self.audit_ledger();
                if self.live_procs > 0 {
                    self.events
                        .schedule(self.now + MEM_POLICY_PERIOD, Event::MemPolicy);
                }
            }
            Event::Ipi => {
                self.ipi_pending = false;
                self.counters.add_id(self.counter_ids.sched_ipis, 1);
                self.revoke_loans();
            }
            Event::Sample => {
                self.on_sample();
                if self.live_procs > 0 {
                    if let Some(iv) = self.sample_interval {
                        self.events.schedule(self.now + iv, Event::Sample);
                    }
                }
            }
            Event::Fault(kind) => self.on_fault(kind),
            Event::IoRetry { disk, req } => self.submit_io(disk, *req),
            Event::RequestTimeout { pid, attempt } => self.on_request_timeout(pid, attempt),
            Event::RequestResubmit { pid, attempt } => self.on_request_resubmit(pid, attempt),
        }
    }
}
