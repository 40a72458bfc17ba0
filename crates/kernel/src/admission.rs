//! Per-SPU admission control and load shedding for open-loop request
//! traffic.
//!
//! Entitlement bounds what an SPU may *consume*; under open-loop load
//! nothing bounds what clients may *offer*. Past saturation an
//! unbounded run queue enters the metastable regime: sojourn times grow
//! without limit, every queued request is already dead on arrival, and
//! goodput collapses even though the SPU is running flat out. This
//! module puts a bounded admission queue in front of each SPU:
//!
//! * at most `Tuning::admission_cap` requests are *in service* at once
//!   (a per-SPU multiprogramming-level cap); the rest wait in a queue;
//! * the configured [`ShedPolicy`] decides which waiting requests to
//!   refuse — tail-drop at `queue_cap`, deadline-aware expiry, or a
//!   CoDel-style sojourn controller;
//! * a queued request that waits longer than `Tuning::request_timeout`
//!   times out and is resubmitted with capped exponential backoff
//!   ([`event_sim::backoff_delay`]), up to `request_max_retries` times —
//!   the client-side behaviour that turns overload into retry storms
//!   when admission control is absent;
//! * while an SPU's queue is non-empty it is in *brown-out*: the kernel
//!   degrades optional work on its behalf (prefetch, read-ahead) before
//!   dropping requests.
//!
//! Only jobs spawned through
//! [`Kernel::spawn_request_at`](crate::Kernel::spawn_request_at) pass
//! through admission; plain [`Kernel::spawn_at`](crate::Kernel::spawn_at)
//! jobs start exactly as before, and with `admission_cap == 0` the
//! whole layer is inert — no state changes, no counters interned, and
//! exports stay byte-identical.

use std::collections::VecDeque;

use event_sim::{backoff_delay, SimTime};
use spu_core::{ShedPolicy, SpuId};

use crate::config::{CODEL_INTERVAL, CODEL_TARGET};
use crate::event::Event;
use crate::kernel::Kernel;
use crate::obsv::{RequestReport, SpuRequests};
use crate::process::{Pid, ProcState};

/// One request waiting for admission.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Waiter {
    pub(crate) pid: Pid,
    pub(crate) enqueued: SimTime,
    /// Submission attempt this wait belongs to (0 = first); stale
    /// timeout events carry a smaller value and are ignored.
    pub(crate) attempt: u32,
}

/// The admission state of one SPU.
#[derive(Debug, Default)]
pub(crate) struct AdmissionQueue {
    pub(crate) waiting: VecDeque<Waiter>,
    /// Admitted requests whose root has not exited yet.
    pub(crate) in_service: u32,
    /// CoDel state: when the head's sojourn first exceeded the target
    /// (continuously).
    pub(crate) first_above: Option<SimTime>,
    pub(crate) arrivals: u64,
    pub(crate) admitted: u64,
    pub(crate) shed: u64,
    pub(crate) expired: u64,
    pub(crate) timeouts: u64,
    pub(crate) retries: u64,
    pub(crate) brownout_skips: u64,
    pub(crate) peak_queue: u64,
}

impl AdmissionQueue {
    fn note_depth(&mut self) {
        self.peak_queue = self.peak_queue.max(self.waiting.len() as u64);
    }
}

/// Summed tallies across SPUs, for the `requests.*` counters.
#[derive(Debug, Default)]
pub(crate) struct AdmissionTotals {
    pub(crate) arrivals: u64,
    pub(crate) admitted: u64,
    pub(crate) shed: u64,
    pub(crate) expired: u64,
    pub(crate) timeouts: u64,
    pub(crate) retries: u64,
    pub(crate) brownout_skips: u64,
}

impl AdmissionTotals {
    pub(crate) fn add(&mut self, q: &AdmissionQueue) {
        self.arrivals += q.arrivals;
        self.admitted += q.admitted;
        self.shed += q.shed;
        self.expired += q.expired;
        self.timeouts += q.timeouts;
        self.retries += q.retries;
        self.brownout_skips += q.brownout_skips;
    }
}

impl Kernel {
    /// Handles `Event::Start`: requests go through admission when it is
    /// on; everything else starts exactly as before.
    pub(crate) fn on_start(&mut self, pid: Pid) {
        let job = self.procs.get(pid).job;
        if let (Some(slo), Some(job)) = (&mut self.slo, job) {
            slo.start(&self.jobs, job);
        }
        let is_request = job
            .map(|j| self.jobs[j.0 as usize].deadline.is_some())
            .unwrap_or(false);
        if self.cfg.tuning.admission_cap == 0 || !is_request {
            self.procs.get_mut(pid).state = ProcState::Ready;
            self.make_ready(pid);
            return;
        }
        self.request_arrival(pid, 0, true);
    }

    /// Whether `spu`'s admission queue is backed up — the signal for
    /// brown-out (degrade optional work before dropping requests). On
    /// hierarchical SPU sets brown-out is parent-level: a backed-up
    /// sibling service browns out the whole tenant, so every service
    /// sheds optional work before any service sheds requests.
    pub(crate) fn in_brownout(&self, spu: SpuId) -> bool {
        if self.cfg.tuning.admission_cap == 0 {
            return false;
        }
        if !self.admission[spu.index()].waiting.is_empty() {
            return true;
        }
        match self.spus.tree() {
            Some(tree) => tree
                .siblings(spu)
                .any(|s| !self.admission[s.index()].waiting.is_empty()),
            None => false,
        }
    }

    /// A request arrives at (or is resubmitted to) its SPU's admission
    /// queue.
    pub(crate) fn request_arrival(&mut self, pid: Pid, attempt: u32, new_arrival: bool) {
        let spu = self.procs.get(pid).spu;
        let idx = spu.index();
        if new_arrival {
            self.admission[idx].arrivals += 1;
        }
        let policy = self.cfg.tuning.shed_policy;
        // Deadline-aware: a request already past its deadline can only
        // become dead work — refuse it outright.
        if policy == ShedPolicy::DeadlineAware {
            let dead = self.job_deadline(pid).is_some_and(|d| self.now >= d);
            if dead {
                self.admission[idx].expired += 1;
                self.shed_request(pid);
                return;
            }
        }
        self.drop_queued(idx, policy);
        let t = &self.cfg.tuning;
        let (cap, queue_cap, timeout) = (t.admission_cap, t.queue_cap, t.request_timeout);
        let q = &mut self.admission[idx];
        if q.in_service < cap && q.waiting.is_empty() {
            q.in_service += 1;
            q.admitted += 1;
            self.procs.get_mut(pid).state = ProcState::Ready;
            self.make_ready(pid);
            return;
        }
        if policy.bounds_queue() && q.waiting.len() >= queue_cap as usize {
            // Queue full: tail-drop the arrival.
            q.shed += 1;
            self.mark_shed(pid);
            self.exit_process(pid, true);
            return;
        }
        q.waiting.push_back(Waiter {
            pid,
            enqueued: self.now,
            attempt,
        });
        q.note_depth();
        if !timeout.is_zero() {
            self.events
                .schedule(self.now + timeout, Event::RequestTimeout { pid, attempt });
        }
    }

    /// A queued request waited past its timeout budget: remove it and
    /// either resubmit with backoff or give up and shed it.
    pub(crate) fn on_request_timeout(&mut self, pid: Pid, attempt: u32) {
        if self.cfg.tuning.admission_cap == 0 {
            return;
        }
        let idx = self.procs.get(pid).spu.index();
        let q = &mut self.admission[idx];
        let Some(pos) = q
            .waiting
            .iter()
            .position(|w| w.pid == pid && w.attempt == attempt)
        else {
            return; // admitted or shed in the meantime — stale timeout
        };
        q.waiting.remove(pos);
        q.timeouts += 1;
        let t = &self.cfg.tuning;
        if attempt < t.request_max_retries {
            let delay = backoff_delay(attempt, t.request_retry_base, t.request_retry_cap);
            self.admission[idx].retries += 1;
            self.events.schedule(
                self.now + delay,
                Event::RequestResubmit {
                    pid,
                    attempt: attempt + 1,
                },
            );
        } else {
            self.admission[idx].shed += 1;
            self.shed_request(pid);
        }
        // The head may have changed; a service slot may also have
        // opened while this waiter sat at the front.
        self.admit_from_queue(idx);
    }

    /// A timed-out request is resubmitted by its (simulated) client.
    pub(crate) fn on_request_resubmit(&mut self, pid: Pid, attempt: u32) {
        if self.cfg.tuning.admission_cap == 0 {
            return;
        }
        if matches!(self.procs.get(pid).state, ProcState::Done) {
            return;
        }
        self.request_arrival(pid, attempt, false);
    }

    /// Called when an admitted request's root exits: frees its service
    /// slot and pulls waiters in.
    pub(crate) fn request_exited(&mut self, pid: Pid) {
        if self.cfg.tuning.admission_cap == 0 {
            return;
        }
        let idx = self.procs.get(pid).spu.index();
        let q = &mut self.admission[idx];
        q.in_service = q.in_service.saturating_sub(1);
        self.admit_from_queue(idx);
    }

    /// Admits from the front of the queue while service slots are free,
    /// applying the shed policy's queued-request drops first.
    pub(crate) fn admit_from_queue(&mut self, idx: usize) {
        let policy = self.cfg.tuning.shed_policy;
        let cap = self.cfg.tuning.admission_cap;
        loop {
            self.drop_queued(idx, policy);
            let q = &mut self.admission[idx];
            if q.in_service >= cap {
                return;
            }
            let Some(w) = q.waiting.pop_front() else {
                return;
            };
            q.in_service += 1;
            q.admitted += 1;
            self.procs.get_mut(w.pid).state = ProcState::Ready;
            self.make_ready(w.pid);
        }
    }

    /// Applies the policy's queued-request drops: deadline expiry for
    /// `DeadlineAware`, the sojourn controller for `Codel`.
    fn drop_queued(&mut self, idx: usize, policy: ShedPolicy) {
        match policy {
            ShedPolicy::DeadlineAware => loop {
                let Some(&w) = self.admission[idx].waiting.front() else {
                    return;
                };
                let dead = self.job_deadline(w.pid).is_some_and(|d| self.now >= d);
                if !dead {
                    return;
                }
                self.admission[idx].waiting.pop_front();
                self.admission[idx].expired += 1;
                self.shed_request(w.pid);
            },
            ShedPolicy::Codel => {
                loop {
                    let q = &mut self.admission[idx];
                    let Some(&w) = q.waiting.front() else {
                        q.first_above = None;
                        return;
                    };
                    let sojourn = self.now.saturating_since(w.enqueued);
                    if sojourn < CODEL_TARGET {
                        q.first_above = None;
                        return;
                    }
                    match q.first_above {
                        None => {
                            // Sojourn just crossed the target: arm the
                            // interval clock, don't drop yet.
                            q.first_above = Some(self.now);
                            return;
                        }
                        Some(since) if self.now.saturating_since(since) >= CODEL_INTERVAL => {
                            q.waiting.pop_front();
                            q.first_above = Some(self.now);
                            self.admission[idx].shed += 1;
                            self.shed_request(w.pid);
                        }
                        Some(_) => return,
                    }
                }
            }
            ShedPolicy::None | ShedPolicy::TailDrop => {}
        }
    }

    /// The absolute deadline of a request's job, if any.
    fn job_deadline(&self, pid: Pid) -> Option<SimTime> {
        self.procs
            .get(pid)
            .job
            .and_then(|j| self.jobs[j.0 as usize].deadline)
    }

    fn mark_shed(&mut self, pid: Pid) {
        if let Some(j) = self.procs.get(pid).job {
            let rec = &mut self.jobs[j.0 as usize];
            rec.shed = true;
            if let Some(slo) = &mut self.slo {
                slo.shed(rec);
            }
        }
    }

    /// Sheds a never-admitted request: marks its job shed (excluded
    /// from SLO scoring) and retires the process, which never ran.
    fn shed_request(&mut self, pid: Pid) {
        self.mark_shed(pid);
        self.exit_process(pid, true);
    }

    /// The per-SPU request report (empty when admission was off or no
    /// request ever arrived).
    pub(crate) fn collect_requests(&self) -> RequestReport {
        if self.cfg.tuning.admission_cap == 0 {
            return RequestReport::default();
        }
        let per_spu = self
            .spus
            .all_ids()
            .filter_map(|spu| {
                let q = &self.admission[spu.index()];
                if q.arrivals == 0 {
                    return None;
                }
                Some(SpuRequests {
                    spu,
                    name: self.spus.path(spu),
                    arrivals: q.arrivals,
                    admitted: q.admitted,
                    shed: q.shed,
                    expired: q.expired,
                    timeouts: q.timeouts,
                    retries: q.retries,
                    brownout_skips: q.brownout_skips,
                    peak_queue: q.peak_queue,
                })
            })
            .collect();
        RequestReport { per_spu }
    }
}
