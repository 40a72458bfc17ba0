//! Resource policy and recovery: the per-tick ledger audit, the
//! periodic `(entitled, allowed, used)` sampler over CPU time, memory
//! and disk bandwidth, and fault injection with its recovery policies.

use std::sync::Arc;

use event_sim::{FaultKind, SimDuration, SimTime};
use spu_core::{CpuPartition, ResourceKind, SpuId};

use crate::kernel::Kernel;
use crate::obsv::ResourceSample;
use crate::process::ProcState;
use crate::program::Program;
use crate::trace::TraceEvent;

/// The resources the sampler records, in the order their series are
/// laid out within each SPU (see [`Kernel::on_sample`]).
pub(crate) const SAMPLED: [ResourceKind; 3] = [
    ResourceKind::CpuTime,
    ResourceKind::Memory,
    ResourceKind::DiskBandwidth,
];

impl Kernel {
    /// Audits the memory ledger (the one ledger with conservation
    /// invariants). Violations surface as the `audit.violations`
    /// counter, never as a panic.
    pub(crate) fn audit_ledger(&mut self) {
        let denials: u64 = self
            .spus
            .all_ids()
            .map(|id| self.vm.stats(id).denials)
            .sum();
        let pressure = denials > self.last_denials;
        self.last_denials = denials;
        let enforce = self.cfg.scheme.enforces_isolation();
        self.auditor
            .check(self.vm.ledger(), &self.spus, enforce, pressure, self.now);
    }

    /// Records one `(entitled, allowed, used)` sample per user SPU and
    /// [`SAMPLED`] resource. See
    /// [`enable_sampling`](Self::enable_sampling).
    pub(crate) fn on_sample(&mut self) {
        let now = self.now;
        let users = self.spus.user_count();
        let per_kind = [
            self.sample_cpu(users, now),
            self.sample_memory(users, now),
            self.sample_disk(users, now),
        ];
        for (slot, samples) in per_kind.into_iter().enumerate() {
            for (u, s) in samples.into_iter().enumerate() {
                self.series[u * SAMPLED.len() + slot].push(s);
            }
        }
        // The SLO tracker piggybacks on the same cadence: cumulative
        // per-SPU completion/violation counts at every sampling instant.
        if let Some(slo) = &mut self.slo {
            slo.sample(&self.jobs, now);
            if cfg!(debug_assertions) {
                slo.check(&self.jobs, now);
            }
        }
    }

    /// CPU time through the §3.1 hybrid partition: entitlement from the
    /// partition; `allowed` is the entitlement plus any CPUs currently
    /// borrowed (loans); `used` is how many CPUs the SPU is running on.
    fn sample_cpu(&self, users: usize, at: SimTime) -> Vec<ResourceSample> {
        let mut used = vec![0u64; users];
        let mut loaned = vec![0u64; users];
        for i in 0..self.sched.cpu_count() {
            let c = self.sched.cpu(i);
            if let Some(pid) = c.running {
                if let Some(u) = self.procs.get(pid).spu.user_index() {
                    used[u] += 1;
                    if c.loaned {
                        loaned[u] += 1;
                    }
                }
            }
        }
        (0..users)
            .map(|u| ResourceSample {
                at,
                entitled: self.cpu_entitled[u],
                allowed: self.cpu_entitled[u] + loaned[u] as f64,
                used: used[u] as f64,
            })
            .collect()
    }

    /// Physical memory straight from the VM ledger (§3.2): under PIso
    /// the policy raises `allowed` above `entitled` while lending and
    /// drops it back at the next evaluation.
    fn sample_memory(&self, users: usize, at: SimTime) -> Vec<ResourceSample> {
        (0..users)
            .map(|u| {
                let lv = self.vm.levels(SpuId::user(u as u32));
                ResourceSample {
                    at,
                    entitled: lv.entitled as f64,
                    allowed: lv.allowed as f64,
                    used: lv.used as f64,
                }
            })
            .collect()
    }

    /// Disk bandwidth as decayed sector counts per §3.3. The fair share
    /// of the current decayed total is the entitlement; `allowed` tops
    /// out at actual usage because the §3.3 scheduler throttles rather
    /// than reserves. The decay is step-invariant, so sampling never
    /// perturbs scheduling.
    fn sample_disk(&mut self, users: usize, at: SimTime) -> Vec<ResourceSample> {
        let used: Vec<f64> = (0..users)
            .map(|u| {
                let spu = SpuId::user(u as u32);
                self.disks
                    .iter_mut()
                    .map(|d| d.sampled_bandwidth(spu, at))
                    .sum()
            })
            .collect();
        let total: f64 = used.iter().sum();
        let weight_sum: f64 = (0..users)
            .map(|u| self.spus.disk_weight(SpuId::user(u as u32)) as f64)
            .sum();
        (0..users)
            .map(|u| {
                let entitled = if weight_sum > 0.0 {
                    total * self.spus.disk_weight(SpuId::user(u as u32)) as f64 / weight_sum
                } else {
                    0.0
                };
                ResourceSample {
                    at,
                    entitled,
                    allowed: entitled.max(used[u]),
                    used: used[u],
                }
            })
            .collect()
    }

    // ----- fault injection & recovery --------------------------------------

    /// Applies one injected fault. Malformed targets (out-of-range disk
    /// or CPU, the last online CPU, an SPU with nothing to crash) are
    /// counted as skipped rather than applied, so a random plan can
    /// never wedge the machine.
    pub(crate) fn on_fault(&mut self, kind: FaultKind) {
        self.counters.add_id(self.counter_ids.fault_injected, 1);
        match kind {
            FaultKind::DiskTransientErrors { disk, count } => {
                if disk >= self.disks.len() || count == 0 {
                    self.counters.add_id(self.counter_ids.fault_skipped, 1);
                    return;
                }
                self.trace.push(TraceEvent::FaultInjected {
                    at: self.now,
                    label: "disk-errors",
                });
                self.disks[disk].inject_failures(count);
            }
            FaultKind::DiskDegrade { disk, factor } => {
                if disk >= self.disks.len() || !factor.is_finite() || factor < 1.0 {
                    self.counters.add_id(self.counter_ids.fault_skipped, 1);
                    return;
                }
                self.trace.push(TraceEvent::FaultInjected {
                    at: self.now,
                    label: "disk-degrade",
                });
                self.disks[disk].set_degraded(Some(factor));
                self.set_disk_shares(disk, factor);
            }
            FaultKind::DiskRepair { disk } => {
                if disk >= self.disks.len() {
                    self.counters.add_id(self.counter_ids.fault_skipped, 1);
                    return;
                }
                self.trace.push(TraceEvent::FaultInjected {
                    at: self.now,
                    label: "disk-repair",
                });
                self.disks[disk].set_degraded(None);
                self.set_disk_shares(disk, 1.0);
            }
            FaultKind::CpuOffline { cpu } => {
                if cpu >= self.sched.cpu_count()
                    || !self.sched.cpu(cpu).online
                    || self.sched.online_count() <= 1
                {
                    self.counters.add_id(self.counter_ids.fault_skipped, 1);
                    return;
                }
                self.trace.push(TraceEvent::FaultInjected {
                    at: self.now,
                    label: "cpu-offline",
                });
                self.counters.add_id(self.counter_ids.fault_cpu_offline, 1);
                if self.sched.cpu(cpu).running.is_some() {
                    self.preempt(cpu);
                }
                self.sched.set_online(&self.procs, cpu, false);
                self.rebalance_cpus();
            }
            FaultKind::CpuOnline { cpu } => {
                if cpu >= self.sched.cpu_count() || self.sched.cpu(cpu).online {
                    self.counters.add_id(self.counter_ids.fault_skipped, 1);
                    return;
                }
                self.trace.push(TraceEvent::FaultInjected {
                    at: self.now,
                    label: "cpu-online",
                });
                self.counters.add_id(self.counter_ids.fault_cpu_online, 1);
                self.sched.set_online(&self.procs, cpu, true);
                self.rebalance_cpus();
            }
            FaultKind::ProcessCrash { user_spu } => self.crash_in_spu(user_spu),
            FaultKind::ForkBomb {
                user_spu,
                width,
                depth,
                burn,
                pages,
            } => {
                if user_spu as usize >= self.spus.user_count() {
                    self.counters.add_id(self.counter_ids.fault_skipped, 1);
                    return;
                }
                self.trace.push(TraceEvent::FaultInjected {
                    at: self.now,
                    label: "fork-bomb",
                });
                self.counters.add_id(self.counter_ids.fault_forkbombs, 1);
                self.spawn_fork_bomb(user_spu, width, depth, burn, pages);
            }
            FaultKind::RetryStorm { user_spu, burst } => {
                if user_spu as usize >= self.spus.user_count() || burst == 0 {
                    self.counters.add_id(self.counter_ids.fault_skipped, 1);
                    return;
                }
                let spu = SpuId::user(user_spu);
                // Impatient clients re-submit the SPU's outstanding
                // work: duplicate the programs of its live root
                // processes, untracked (the storm is load, not jobs).
                let dups: Vec<Arc<Program>> = self
                    .procs
                    .iter()
                    .filter(|p| {
                        p.spu == spu && p.parent.is_none() && !matches!(p.state, ProcState::Done)
                    })
                    .map(|p| p.program_arc())
                    .take(burst.clamp(1, 16) as usize)
                    .collect();
                if dups.is_empty() {
                    self.counters.add_id(self.counter_ids.fault_skipped, 1);
                    return;
                }
                self.trace.push(TraceEvent::FaultInjected {
                    at: self.now,
                    label: "retry-storm",
                });
                self.counters.add_id(self.counter_ids.fault_retry_storms, 1);
                let now = self.now;
                for prog in dups {
                    self.spawn_at(spu, prog, None, now);
                }
            }
        }
    }

    /// Graceful degradation of disk bandwidth (§3.3 under failure): a
    /// device running `factor`× slower grants every SPU proportionally
    /// less `allowed` share; repair restores the configured weights.
    pub(crate) fn set_disk_shares(&mut self, disk: usize, factor: f64) {
        let shares: Vec<(SpuId, f64)> = self
            .spus
            .user_ids()
            .map(|id| (id, self.spus.disk_weight(id) as f64 / factor))
            .collect();
        for (id, w) in shares {
            self.disks[disk].set_share(id, w);
        }
    }

    /// Re-derives every SPU's CPU entitlement from the surviving online
    /// CPUs, revokes loans the new partition disallows, and refills idle
    /// CPUs. Audits that the re-derived entitlements still fit the
    /// machine (conservation under reconfiguration).
    pub(crate) fn rebalance_cpus(&mut self) {
        self.sched.rebalance(&self.procs);
        let online = self.sched.online_count();
        if online == 0 {
            return;
        }
        let partition = CpuPartition::compute(online, &self.spus);
        let total: u64 = self
            .spus
            .user_ids()
            .map(|id| partition.milli_cpus(id))
            .sum();
        if total > online as u64 * 1000 {
            self.counters.add_id(self.counter_ids.audit_violations, 1);
        }
        if self.sample_interval.is_some() {
            self.cpu_entitled = self
                .spus
                .user_ids()
                .map(|id| partition.milli_cpus(id) as f64 / 1000.0)
                .collect();
        }
        self.revoke_loans();
        self.fill_idle_cpus();
    }

    /// Crashes the lowest-pid ready or running process of the given user
    /// SPU: its locks are released (waiters woken), its frames are
    /// freed, and its job is left unfinished. Blocked processes are not
    /// chosen — their wakeups are owned by other subsystems' queues.
    pub(crate) fn crash_in_spu(&mut self, user_spu: u32) {
        if user_spu as usize >= self.spus.user_count() {
            self.counters.add_id(self.counter_ids.fault_skipped, 1);
            return;
        }
        let spu = SpuId::user(user_spu);
        let victim = self
            .procs
            .iter()
            .filter(|p| p.spu == spu && matches!(p.state, ProcState::Ready | ProcState::Running(_)))
            .map(|p| (p.pid, p.state))
            .min_by_key(|&(pid, _)| pid);
        let Some((pid, state)) = victim else {
            self.counters.add_id(self.counter_ids.fault_skipped, 1);
            return;
        };
        self.trace.push(TraceEvent::FaultInjected {
            at: self.now,
            label: "process-crash",
        });
        self.counters.add_id(self.counter_ids.fault_crashes, 1);
        match state {
            ProcState::Running(cpu) => {
                if let Err(e) = self.deschedule(cpu) {
                    self.report_error(e);
                }
            }
            ProcState::Ready => {
                self.sched.dequeue(&mut self.procs, pid);
            }
            _ => {}
        }
        self.wake_pending.remove(&pid);
        if let Some(attr) = &mut self.attribution {
            // Close the dead process's holds and drop its queued waits;
            // grants below are blamed on the crashed SPU, whose cleanup
            // the waiters actually sat behind.
            attr.forget(pid, spu, self.now);
        }
        for w in self.locks.release_all(pid) {
            self.grant_lock(w, spu);
        }
        self.exit_process(pid, true);
        self.fill_idle_cpus();
    }

    /// Spawns the antisocial fork-bomb workload in `user_spu`: a tree of
    /// processes `width` wide and `depth` deep, each touching `pages`
    /// pages and burning `burn` of CPU. Width and depth are clamped so
    /// an adversarial plan cannot explode the process table.
    pub(crate) fn spawn_fork_bomb(
        &mut self,
        user_spu: u32,
        width: u32,
        depth: u32,
        burn: SimDuration,
        pages: u32,
    ) {
        fn bomb(width: u32, depth: u32, burn: SimDuration, pages: u32) -> Arc<Program> {
            let mut b = Program::builder("bomb");
            if pages > 0 {
                b = b.alloc(pages);
            }
            b = b.compute(burn, pages);
            if depth > 0 {
                let child = bomb(width, depth - 1, burn, pages);
                for _ in 0..width {
                    b = b.fork(child.clone());
                }
                b = b.wait_children();
            }
            b.build()
        }
        let prog = bomb(width.clamp(1, 6), depth.min(4), burn, pages.min(1 << 14));
        let label = format!("bomb-u{user_spu}");
        self.spawn_at(SpuId::user(user_spu), prog, Some(&label), self.now);
    }
}
