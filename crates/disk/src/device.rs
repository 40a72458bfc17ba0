//! A queueing disk device driven by the simulated kernel.
//!
//! The device owns the request queue, the arm position, the in-flight
//! request and the per-SPU bandwidth tracker. The kernel submits requests
//! with [`DiskDevice::submit`] and, when the returned [`Completion`] time
//! arrives, calls [`DiskDevice::complete`] to retire the request and
//! start the next one. "The fairness criteria is checked after each disk
//! request" (§3.3) — i.e. at every scheduling decision.

use event_sim::{SimDuration, SimTime};
use spu_core::{BandwidthTracker, SpuId};

use crate::model::{DiskModel, ServiceBreakdown};
use crate::request::{DiskRequest, RequestId};
use crate::sched::{DiskQueue, Pending, SchedulerKind};
use crate::stats::DiskStats;

/// Notice that the in-flight request will finish at `at`; the kernel
/// schedules a completion event for that time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// Absolute completion time.
    pub at: SimTime,
    /// Which request completes.
    pub id: RequestId,
}

#[derive(Debug)]
struct InFlight {
    id: RequestId,
    req: DiskRequest,
    breakdown: ServiceBreakdown,
    finish: SimTime,
    wait: SimDuration,
    failed: bool,
}

/// A retired request: the request plus whether the device failed it.
/// Statistics are recorded at completion, so a failed request never
/// pollutes the service-latency histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct CompletedRequest {
    /// The request that finished (or failed).
    pub req: DiskRequest,
    /// `true` when the device reported an I/O error instead of data.
    pub failed: bool,
}

/// A disk with a request queue, scheduler, and bandwidth accounting.
///
/// The queue keeps one FIFO per stream in submission order. Each time
/// the disk frees up, the scheduler picks from it: Pos reads every
/// queued request's start sector; Iso reads each stream's oldest
/// request and its normalized usage; PIso reads each stream's usage
/// once, then the start sectors of the streams that pass the fairness
/// criterion, or, when none passes, each stream's oldest request.
///
/// The paper's defaults: 500 ms bandwidth-count half-life, BW-difference
/// threshold of 64 sectors; both configurable via
/// [`with_bw_threshold`](Self::with_bw_threshold) /
/// [`with_half_life`](Self::with_half_life).
///
/// # Examples
///
/// ```
/// use event_sim::SimTime;
/// use hp_disk::{DiskDevice, DiskModel, DiskRequest, RequestKind, SchedulerKind};
/// use spu_core::SpuId;
///
/// let mut disk = DiskDevice::new(DiskModel::hp97560(), SchedulerKind::Hybrid, 4);
/// let c1 = disk
///     .submit(
///         DiskRequest::new(SpuId::user(0), RequestKind::Read, 0, 8),
///         SimTime::ZERO,
///     )
///     .expect("starts immediately");
/// // A second request queues behind the first.
/// assert!(disk
///     .submit(
///         DiskRequest::new(SpuId::user(1), RequestKind::Read, 5000, 8),
///         SimTime::ZERO,
///     )
///     .is_none());
/// let (done, next) = disk.complete(c1.at);
/// assert_eq!(done.req.stream, SpuId::user(0));
/// assert!(!done.failed);
/// assert!(next.is_some(), "queued request starts");
/// ```
#[derive(Debug)]
pub struct DiskDevice {
    model: DiskModel,
    sched: SchedulerKind,
    queue: DiskQueue,
    in_flight: Option<InFlight>,
    head_cyl: u32,
    bw: BandwidthTracker,
    bw_threshold: f64,
    stats: DiskStats,
    next_seq: u64,
    /// Sector just past the previously serviced request, for the
    /// track-buffer model.
    last_end: Option<u64>,
    /// Fault injection: how many upcoming requests fail with an I/O
    /// error.
    fail_next: u32,
    /// Fault injection: service-time multiplier while degraded.
    degraded: Option<f64>,
    /// When set, queue waits behind another stream's service are
    /// recorded for interference attribution (off by default).
    record_queue_waits: bool,
    /// The stream of the most recently serviced request ("the last
    /// holder" a queued request is blamed on).
    last_stream: Option<SpuId>,
    /// Recorded `(waiter, holder, wait)` tuples awaiting
    /// [`drain_queue_waits`](Self::drain_queue_waits).
    queue_waits: Vec<(SpuId, SpuId, SimDuration)>,
}

impl DiskDevice {
    /// Creates an idle device for `spu_count` SPU streams.
    pub fn new(model: DiskModel, sched: SchedulerKind, spu_count: usize) -> Self {
        DiskDevice {
            model,
            sched,
            queue: DiskQueue::new(spu_count),
            in_flight: None,
            head_cyl: 0,
            bw: BandwidthTracker::new(spu_count, SimDuration::from_millis(500)),
            bw_threshold: 64.0,
            stats: DiskStats::new(spu_count),
            next_seq: 0,
            last_end: None,
            fail_next: 0,
            degraded: None,
            record_queue_waits: false,
            last_stream: None,
            queue_waits: Vec::new(),
        }
    }

    /// Turns queue-wait recording on or off. While on, every request
    /// that waited in the queue and starts service right after a
    /// *different* stream's request is recorded as
    /// `(waiter, holder, wait)` — the raw material of the disk-queue
    /// interference channel. Recording never affects scheduling.
    pub fn record_queue_waits(&mut self, on: bool) {
        self.record_queue_waits = on;
        if !on {
            self.queue_waits.clear();
            self.last_stream = None;
        }
    }

    /// Takes the queue waits recorded since the last drain.
    pub fn drain_queue_waits(&mut self) -> Vec<(SpuId, SpuId, SimDuration)> {
        std::mem::take(&mut self.queue_waits)
    }

    /// Arms fault injection: the next `n` requests to *start service*
    /// fail with an I/O error when they complete. Transient — later
    /// requests succeed again.
    pub fn inject_failures(&mut self, n: u32) {
        self.fail_next += n;
    }

    /// Enters (factor ≥ 1) or leaves (`None`) degraded mode. While
    /// degraded, every service-time component of newly started requests
    /// is stretched by `factor`.
    pub fn set_degraded(&mut self, factor: Option<f64>) {
        self.degraded = factor;
    }

    /// The current degradation factor, if the device is degraded.
    pub fn degraded(&self) -> Option<f64> {
        self.degraded
    }

    /// Sets the BW-difference threshold in sectors (§3.3). Zero
    /// approaches round-robin; very large values approach pure C-SCAN.
    pub fn with_bw_threshold(mut self, threshold: f64) -> Self {
        self.bw_threshold = threshold;
        self
    }

    /// Sets the bandwidth-count decay half-life (the paper uses 500 ms).
    pub fn with_half_life(mut self, half_life: SimDuration) -> Self {
        self.bw = rebuild_tracker(&self.bw, half_life);
        self
    }

    /// The device's disk model.
    pub fn model(&self) -> &DiskModel {
        &self.model
    }

    /// The active scheduling policy.
    pub fn scheduler(&self) -> SchedulerKind {
        self.sched
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Number of queued (not yet serviced) requests.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The stream's decayed bandwidth count (sectors) as of `now`.
    ///
    /// Decay is step-invariant, so observers may call this at any
    /// sampling cadence without perturbing scheduling decisions.
    pub fn sampled_bandwidth(&mut self, spu: SpuId, now: SimTime) -> f64 {
        self.bw.decay_to(now);
        self.bw.count(spu)
    }

    /// Whether a request is currently being serviced.
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Sets the bandwidth share of a stream (default 1).
    pub fn set_share(&mut self, spu: SpuId, share: f64) {
        self.bw.set_share(spu, share);
    }

    /// Submits a request at time `now`. If the device is idle the request
    /// starts service immediately and its [`Completion`] is returned;
    /// otherwise it queues and `None` is returned (a completion for it
    /// will surface from a later [`complete`](Self::complete) call).
    ///
    /// # Panics
    ///
    /// Panics if the request's stream is outside the device's
    /// `spu_count` streams.
    pub fn submit(&mut self, req: DiskRequest, now: SimTime) -> Option<Completion> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Pending {
            seq,
            submitted: now,
            req,
        });
        if self.in_flight.is_none() {
            self.start_next(now)
        } else {
            None
        }
    }

    /// Retires the in-flight request at its completion time `now` and
    /// starts the next queued request, if any. Returns the completed
    /// request and the completion notice for the newly started one.
    ///
    /// Statistics are recorded here, at completion: a successful request
    /// contributes wait/seek/service numbers; a failed one only counts
    /// as an error plus busy time, so errors never skew the
    /// service-latency histogram.
    ///
    /// # Panics
    ///
    /// Panics if nothing is in flight or `now` is not the in-flight
    /// request's completion time.
    pub fn complete(&mut self, now: SimTime) -> (CompletedRequest, Option<Completion>) {
        let fin = self.in_flight.take().expect("no request in flight");
        assert_eq!(fin.finish, now, "completion at the wrong time");
        // Move the arm to the end of the transfer and charge bandwidth —
        // a failed request still consumed real device time.
        self.head_cyl = self
            .model
            .cylinder_of(fin.req.end().min(self.model.total_sectors() - 1));
        self.last_end = Some(fin.req.end());
        for (spu, sectors) in fin.req.charges() {
            self.bw.charge(spu, sectors as u64, now);
        }
        if fin.failed {
            self.stats.record_error(fin.req.stream, &fin.breakdown);
        } else {
            self.stats
                .record(fin.req.stream, fin.wait, &fin.breakdown, fin.req.sectors);
        }
        if self.record_queue_waits {
            self.last_stream = Some(fin.req.stream);
        }
        let next = self.start_next(now);
        (
            CompletedRequest {
                req: fin.req,
                failed: fin.failed,
            },
            next,
        )
    }

    /// Every outstanding request: the queued ones, stream by stream, then
    /// the one in service.
    pub fn outstanding(&self) -> impl Iterator<Item = &DiskRequest> {
        self.queue
            .iter()
            .map(|p| &p.req)
            .chain(self.in_flight.as_ref().map(|f| &f.req))
    }

    /// Asserts the queue's invariants: its request count and user-request
    /// count equal a recount, every queued request sits in its own
    /// stream's FIFO, submission order ascends within each FIFO, and the
    /// request in service is not also queued.
    pub fn check_invariants(&self) {
        self.queue.check_invariants();
        if let Some(fin) = &self.in_flight {
            assert!(
                self.queue.iter().all(|p| p.seq != fin.id.0),
                "request {} is both in service and queued",
                fin.id.0
            );
        }
    }

    /// Starts the scheduler-chosen queued request, if any.
    fn start_next(&mut self, now: SimTime) -> Option<Completion> {
        let pending = self.queue.take_next(
            self.sched,
            &self.model,
            self.head_cyl,
            &mut self.bw,
            self.bw_threshold,
            now,
        )?;
        let mut breakdown =
            self.model
                .service(now, self.head_cyl, pending.req.start, pending.req.sectors);
        // Track-buffer model: the HP 97560's read-ahead cache (present in
        // the Kotz et al. simulator) makes a request contiguous with the
        // previous one skip the rotational wait and most of the command
        // overhead.
        if self.last_end == Some(pending.req.start) {
            breakdown.rotation = SimDuration::ZERO;
            breakdown.overhead = breakdown.overhead.min(SimDuration::from_micros(500));
        }
        if let Some(factor) = self.degraded {
            breakdown.overhead = breakdown.overhead.mul_f64(factor);
            breakdown.seek = breakdown.seek.mul_f64(factor);
            breakdown.rotation = breakdown.rotation.mul_f64(factor);
            breakdown.transfer = breakdown.transfer.mul_f64(factor);
        }
        let failed = self.fail_next > 0;
        if failed {
            self.fail_next -= 1;
        }
        let finish = now + breakdown.total();
        let id = RequestId(pending.seq);
        let wait = now.saturating_since(pending.submitted);
        if self.record_queue_waits && wait > SimDuration::ZERO {
            // Blame the stream serviced immediately before this request
            // started — an approximation (the wait may span several
            // services) but a deterministic and cheap one.
            if let Some(holder) = self.last_stream {
                if holder != pending.req.stream {
                    self.queue_waits.push((pending.req.stream, holder, wait));
                }
            }
        }
        self.in_flight = Some(InFlight {
            id,
            req: pending.req,
            breakdown,
            finish,
            wait,
            failed,
        });
        Some(Completion { at: finish, id })
    }
}

/// Rebuilds a tracker with a new half-life, preserving configured shares.
fn rebuild_tracker(other: &BandwidthTracker, half_life: SimDuration) -> BandwidthTracker {
    let mut t = BandwidthTracker::new(other.stream_count(), half_life);
    for i in 2..other.stream_count() {
        let spu = SpuId::user(i as u32 - 2);
        t.set_share(spu, other.share(spu));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;

    fn read(stream: SpuId, start: u64) -> DiskRequest {
        DiskRequest::new(stream, RequestKind::Read, start, 8)
    }

    #[test]
    fn idle_device_starts_immediately() {
        let mut d = DiskDevice::new(DiskModel::hp97560(), SchedulerKind::HeadPosition, 4);
        let c = d.submit(read(SpuId::user(0), 100), SimTime::ZERO);
        assert!(c.is_some());
        assert!(d.is_busy());
        assert_eq!(d.queue_depth(), 0);
    }

    #[test]
    fn busy_device_queues() {
        let mut d = DiskDevice::new(DiskModel::hp97560(), SchedulerKind::HeadPosition, 4);
        let c1 = d.submit(read(SpuId::user(0), 100), SimTime::ZERO).unwrap();
        assert!(d
            .submit(read(SpuId::user(1), 5000), SimTime::ZERO)
            .is_none());
        assert_eq!(d.queue_depth(), 1);
        let (done, next) = d.complete(c1.at);
        assert_eq!(done.req.start, 100);
        let next = next.expect("second request starts");
        assert!(next.at > c1.at);
        let (done2, none) = d.complete(next.at);
        assert_eq!(done2.req.start, 5000);
        assert!(none.is_none());
        assert!(!d.is_busy());
    }

    #[test]
    fn every_request_is_serviced_exactly_once() {
        let mut d = DiskDevice::new(DiskModel::hp97560(), SchedulerKind::Hybrid, 4);
        let mut submitted = Vec::new();
        let mut now = SimTime::ZERO;
        let mut pending_completion = None;
        for i in 0..50u64 {
            let r = read(SpuId::user((i % 2) as u32), i * 9973 % 2_000_000);
            submitted.push(r.start);
            if let Some(c) = d.submit(r, now) {
                pending_completion = Some(c);
            }
        }
        let mut completed = Vec::new();
        while let Some(c) = pending_completion {
            now = c.at;
            let (done, next) = d.complete(now);
            completed.push(done.req.start);
            pending_completion = next;
        }
        assert_eq!(completed.len(), submitted.len());
        let mut a = submitted.clone();
        let mut b = completed.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn sequential_stream_is_fast_scattered_is_slow() {
        // Mean service for contiguous requests should be well under the
        // mean for random scattered requests (seek + rotation dominate).
        let run = |starts: Vec<u64>| -> f64 {
            let mut d = DiskDevice::new(DiskModel::hp97560(), SchedulerKind::HeadPosition, 4);
            let mut now = SimTime::ZERO;
            let mut completion = None;
            for s in &starts {
                if let Some(c) = d.submit(read(SpuId::user(0), *s), now) {
                    completion = Some(c);
                }
            }
            let mut last = now;
            while let Some(c) = completion {
                now = c.at;
                last = now;
                completion = d.complete(now).1;
            }
            last.as_secs_f64() / starts.len() as f64
        };
        let sequential: Vec<u64> = (0..100).map(|i| i * 8).collect();
        let scattered: Vec<u64> = (0..100u64).map(|i| (i * 1_234_577) % 2_600_000).collect();
        assert!(run(sequential) * 3.0 < run(scattered));
    }

    #[test]
    fn stats_accumulate_wait_and_seek() {
        let mut d = DiskDevice::new(DiskModel::hp97560(), SchedulerKind::HeadPosition, 4);
        let c1 = d.submit(read(SpuId::user(0), 0), SimTime::ZERO).unwrap();
        d.submit(read(SpuId::user(0), 2_000_000), SimTime::ZERO);
        let (_, c2) = d.complete(c1.at);
        d.complete(c2.unwrap().at);
        assert_eq!(d.stats().total_requests(), 2);
        // The second request waited for the first's service.
        assert!(d.stats().stream(SpuId::user(0)).mean_wait_ms() > 0.0);
        assert!(d.stats().mean_seek_ms() > 0.0);
    }

    #[test]
    fn injected_failures_do_not_pollute_stats() {
        let mut d = DiskDevice::new(DiskModel::hp97560(), SchedulerKind::HeadPosition, 4);
        d.inject_failures(1);
        let c1 = d.submit(read(SpuId::user(0), 100), SimTime::ZERO).unwrap();
        d.submit(read(SpuId::user(0), 200), SimTime::ZERO);
        let (done, c2) = d.complete(c1.at);
        assert!(done.failed);
        let (done2, _) = d.complete(c2.unwrap().at);
        assert!(!done2.failed, "failure injection is transient");
        // Only the successful request reached the wait/service stats.
        assert_eq!(d.stats().total_requests(), 1);
        assert_eq!(d.stats().total_errors(), 1);
        assert_eq!(d.stats().stream(SpuId::user(0)).errors, 1);
        assert_eq!(d.stats().service_histogram().count(), 1);
        // Both consumed device time.
        assert!(d.stats().busy_time() > SimDuration::from_millis(1));
    }

    #[test]
    fn degraded_mode_stretches_service() {
        let service = |factor: Option<f64>| -> SimDuration {
            let mut d = DiskDevice::new(DiskModel::hp97560(), SchedulerKind::HeadPosition, 4);
            d.set_degraded(factor);
            let c = d
                .submit(read(SpuId::user(0), 50_000), SimTime::ZERO)
                .unwrap();
            c.at.saturating_since(SimTime::ZERO)
        };
        let clean = service(None);
        let slow = service(Some(4.0));
        assert_eq!(slow, clean.mul_f64(4.0));
    }

    #[test]
    #[should_panic(expected = "no request in flight")]
    fn complete_when_idle_panics() {
        let mut d = DiskDevice::new(DiskModel::hp97560(), SchedulerKind::HeadPosition, 4);
        d.complete(SimTime::ZERO);
    }

    #[test]
    fn hybrid_prevents_lockout() {
        // A long sequential stream (the "copy") plus occasional scattered
        // requests (the "pmake"): under Pos the scattered stream can wait
        // for the whole sequential run; under Hybrid its mean wait must be
        // substantially lower.
        let run = |kind: SchedulerKind| -> (f64, f64) {
            let mut d = DiskDevice::new(DiskModel::hp97560(), kind, 4).with_bw_threshold(64.0);
            let mut completion = None;
            // 200 sequential requests from user0 submitted up front.
            for i in 0..200u64 {
                if let Some(c) = d.submit(read(SpuId::user(0), 1_000_000 + i * 8), SimTime::ZERO) {
                    completion = Some(c);
                }
            }
            // 20 scattered requests from user1, also queued at t=0.
            for i in 0..20u64 {
                if let Some(c) =
                    d.submit(read(SpuId::user(1), (i * 131_071) % 900_000), SimTime::ZERO)
                {
                    completion = Some(c);
                }
            }
            while let Some(c) = completion {
                completion = d.complete(c.at).1;
            }
            (
                d.stats().stream(SpuId::user(1)).mean_wait_ms(),
                d.stats().stream(SpuId::user(0)).mean_wait_ms(),
            )
        };
        let (pos_wait, _) = run(SchedulerKind::HeadPosition);
        let (hybrid_wait, _) = run(SchedulerKind::Hybrid);
        assert!(
            hybrid_wait < pos_wait * 0.5,
            "hybrid {hybrid_wait}ms vs pos {pos_wait}ms"
        );
    }

    #[test]
    fn queue_wait_recording_blames_the_last_stream() {
        let mut d = DiskDevice::new(DiskModel::hp97560(), SchedulerKind::HeadPosition, 4);
        d.record_queue_waits(true);
        let c1 = d.submit(read(SpuId::user(0), 100), SimTime::ZERO).unwrap();
        d.submit(read(SpuId::user(1), 5000), SimTime::ZERO);
        d.submit(read(SpuId::user(0), 9000), SimTime::ZERO);
        let (_, c2) = d.complete(c1.at);
        let (_, c3) = d.complete(c2.unwrap().at);
        d.complete(c3.unwrap().at);
        let waits = d.drain_queue_waits();
        // user1 queued behind user0's service; the third request (user0)
        // queued behind user1. Same-stream waits are never recorded, and
        // the first request never waited.
        assert_eq!(waits.len(), 2);
        assert_eq!((waits[0].0, waits[0].1), (SpuId::user(1), SpuId::user(0)));
        assert_eq!((waits[1].0, waits[1].1), (SpuId::user(0), SpuId::user(1)));
        assert!(waits.iter().all(|w| w.2 > SimDuration::ZERO));
        assert!(d.drain_queue_waits().is_empty(), "drain empties the log");
    }

    #[test]
    fn queue_wait_recording_off_records_nothing() {
        let mut d = DiskDevice::new(DiskModel::hp97560(), SchedulerKind::HeadPosition, 4);
        let c1 = d.submit(read(SpuId::user(0), 100), SimTime::ZERO).unwrap();
        d.submit(read(SpuId::user(1), 5000), SimTime::ZERO);
        let (_, c2) = d.complete(c1.at);
        d.complete(c2.unwrap().at);
        assert!(d.drain_queue_waits().is_empty());
    }
}
