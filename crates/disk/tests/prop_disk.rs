//! Property tests for the disk model and schedulers.

use std::collections::BTreeMap;

use event_sim::{SimDuration, SimTime};
use hp_disk::{Completion, DiskDevice, DiskModel, DiskRequest, RequestKind, SchedulerKind};
use proptest::prelude::*;
use spu_core::SpuId;

/// Drives a device until its queue drains, returning the completed
/// request start sectors in service order. The device's invariants are
/// checked after every completion.
fn drain(device: &mut DiskDevice, mut completion: Option<Completion>) -> Vec<u64> {
    let mut served = Vec::new();
    while let Some(c) = completion {
        let (done, next) = device.complete(c.at);
        device.check_invariants();
        served.push(done.req.start);
        completion = next;
    }
    served
}

/// The stream with dense index `i`: kernel 0, shared 1, then the users.
fn stream(i: u8) -> SpuId {
    match i {
        0 => SpuId::KERNEL,
        1 => SpuId::SHARED,
        n => SpuId::user(n as u32 - 2),
    }
}

fn request_strategy() -> impl Strategy<Value = Vec<(SpuId, u64, u8)>> {
    // (stream: kernel, shared or user 0..3; start block 0..250k;
    // sectors/8 1..16)
    prop::collection::vec((0u8..5, 0u64..250_000, 1u8..16), 1..60).prop_map(|reqs| {
        reqs.into_iter()
            .map(|(s, b, n)| (stream(s), b, n))
            .collect()
    })
}

proptest! {
    /// Every submitted request is serviced exactly once, under every
    /// scheduling policy, for arbitrary request mixes.
    #[test]
    fn no_request_lost_or_duplicated(reqs in request_strategy(), policy_idx in 0usize..3) {
        let policy = SchedulerKind::ALL[policy_idx];
        let mut device = DiskDevice::new(DiskModel::hp97560(), policy, 5);
        let mut completion = None;
        let mut submitted = Vec::new();
        for &(stream, block, sectors8) in &reqs {
            let start = block * 8;
            submitted.push(start);
            let r = DiskRequest::new(
                stream,
                RequestKind::Read,
                start,
                sectors8 as u32 * 8,
            );
            if let Some(c) = device.submit(r, SimTime::ZERO) {
                completion = Some(c);
            }
            device.check_invariants();
        }
        let mut served = drain(&mut device, completion);
        let mut expected = submitted.clone();
        served.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(served, expected);
        prop_assert_eq!(device.stats().total_requests() as usize, reqs.len());
    }

    /// Service components are sane for arbitrary head positions and
    /// targets: rotation below one revolution, seek below the max-stroke
    /// seek, totals positive.
    #[test]
    fn service_components_bounded(
        now_us in 0u64..1_000_000,
        head in 0u32..1962,
        block in 0u64..300_000,
        nsec in 1u32..128,
    ) {
        let m = DiskModel::hp97560();
        let start = (block * 8).min(m.total_sectors() - nsec as u64);
        let b = m.service(SimTime::from_micros(now_us), head, start, nsec);
        prop_assert!(b.rotation < m.rotation_time());
        prop_assert!(b.seek <= m.seek_time(0, m.cylinders() - 1));
        prop_assert!(b.total() > SimDuration::ZERO);
    }

    /// Seek time is symmetric in direction.
    #[test]
    fn seek_symmetry(a in 0u32..1962, b in 0u32..1962) {
        let m = DiskModel::hp97560();
        prop_assert_eq!(m.seek_time(a, b), m.seek_time(b, a));
    }

    /// Under the hybrid policy, the total wait of the minority stream is
    /// never catastrophically above the blind-fair policy's (fairness is
    /// preserved while seeks improve): specifically the minority stream's
    /// mean wait under Hybrid is at most 3x its wait under BlindFair.
    #[test]
    fn hybrid_keeps_fairness(seed in 0u64..500) {
        let run = |policy: SchedulerKind| {
            let mut device = DiskDevice::new(DiskModel::hp97560(), policy, 4);
            let mut completion = None;
            // A sequential hog and a scattered minority stream.
            for i in 0..60u64 {
                let r = DiskRequest::new(SpuId::user(0), RequestKind::Read, 500_000 + i * 64, 64);
                if let Some(c) = device.submit(r, SimTime::ZERO) {
                    completion = Some(c);
                }
            }
            for i in 0..6u64 {
                let pos = (seed * 7919 + i * 131_071) % 400_000;
                let r = DiskRequest::new(SpuId::user(1), RequestKind::Read, pos * 8 % 2_600_000, 8);
                if let Some(c) = device.submit(r, SimTime::ZERO) {
                    completion = Some(c);
                }
            }
            drain(&mut device, completion);
            device.stats().stream(SpuId::user(1)).mean_wait_ms()
        };
        let fair = run(SchedulerKind::BlindFair);
        let hybrid = run(SchedulerKind::Hybrid);
        prop_assert!(
            hybrid <= fair * 3.0 + 20.0,
            "hybrid {hybrid}ms vs fair {fair}ms"
        );
    }

    /// Completion times strictly increase (the device serves one request
    /// at a time).
    #[test]
    fn completions_strictly_ordered(reqs in request_strategy()) {
        let mut device = DiskDevice::new(DiskModel::hp97560(), SchedulerKind::Hybrid, 5);
        let mut completion = None;
        for &(stream, block, sectors8) in &reqs {
            let r = DiskRequest::new(
                stream,
                RequestKind::Write,
                block * 8,
                sectors8 as u32 * 8,
            );
            if let Some(c) = device.submit(r, SimTime::ZERO) {
                completion = Some(c);
            }
        }
        let mut last = SimTime::ZERO;
        while let Some(c) = completion {
            prop_assert!(c.at > last);
            last = c.at;
            completion = device.complete(c.at).1;
        }
    }

    /// Under Hybrid a shared or kernel request never starts service
    /// while a user request is queued (§3.3: shared writes have the
    /// lowest priority). Requests arrive in batches between completions,
    /// so the queue's mix changes while it drains; each start is checked
    /// against the test's own record of the requests submitted and not
    /// yet started, keyed by the submission order `Completion::id`
    /// carries.
    #[test]
    fn hybrid_starts_built_in_requests_only_with_no_user_queued(
        reqs in request_strategy(),
        batch in 1usize..8,
    ) {
        let mut device = DiskDevice::new(DiskModel::hp97560(), SchedulerKind::Hybrid, 5);
        let mut waiting: BTreeMap<u64, SpuId> = BTreeMap::new();
        let check_start = |c: Completion, waiting: &mut BTreeMap<u64, SpuId>| {
            let stream = waiting.remove(&c.id.0).expect("a submitted request starts once");
            prop_assert!(
                stream.is_user() || waiting.values().all(|s| !s.is_user()),
                "{stream} request {} started with a user request queued",
                c.id.0
            );
        };
        let mut batches = reqs.chunks(batch);
        let mut completion: Option<Completion> = None;
        let mut now = SimTime::ZERO;
        let mut seq = 0;
        loop {
            if let Some(b) = batches.next() {
                for &(stream, block, sectors8) in b {
                    waiting.insert(seq, stream);
                    seq += 1;
                    let r = DiskRequest::new(stream, RequestKind::Read, block * 8, sectors8 as u32 * 8);
                    if let Some(c) = device.submit(r, now) {
                        check_start(c, &mut waiting);
                        completion = Some(c);
                    }
                }
            }
            let Some(c) = completion.take() else { break };
            now = c.at;
            completion = device.complete(now).1;
            device.check_invariants();
            if let Some(n) = completion {
                check_start(n, &mut waiting);
            }
        }
        prop_assert!(waiting.is_empty(), "{} requests never started", waiting.len());
    }
}
