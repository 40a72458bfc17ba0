//! Wheel/heap equivalence: the timing-wheel [`EventQueue`] must pop in
//! exactly the order the old `BinaryHeap` implementation did — ascending
//! `(time, sequence)` — for arbitrary interleaved schedule/pop traffic,
//! including same-instant FIFO ties and far-future events that cross the
//! near-wheel horizon (~268 ms).
//!
//! The reference model here *is* the pre-wheel implementation: a
//! `BinaryHeap` of reverse-ordered `(at, seq)` entries.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use event_sim::{EventQueue, SimTime, SplitMix64};
use proptest::prelude::*;

/// The old heap-backed queue, kept as the ordering oracle.
#[derive(Default)]
struct RefQueue {
    heap: BinaryHeap<RefEntry>,
    next_seq: u64,
}

struct RefEntry {
    at: SimTime,
    seq: u64,
    tag: u64,
}

impl PartialEq for RefEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for RefEntry {}
impl PartialOrd for RefEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RefEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl RefQueue {
    fn schedule(&mut self, at: SimTime, tag: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(RefEntry { at, seq, tag });
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|e| (e.at, e.tag))
    }

    /// Pops every event due at the earliest instant, as `pop_run` does.
    fn pop_run(&mut self) -> Option<(SimTime, Vec<u64>)> {
        let at = self.heap.peek()?.at;
        let mut tags = Vec::new();
        while self.heap.peek().is_some_and(|e| e.at == at) {
            tags.push(self.heap.pop().expect("just peeked").tag);
        }
        Some((at, tags))
    }
}

/// Drives the wheel and the reference heap with identical traffic drawn
/// from `seed`, asserting every pop matches.
///
/// Offsets mix three scales so the near wheel, the active (sorted)
/// bucket, and the far lane all see traffic: 0 forces same-instant ties,
/// sub-millisecond lands inside one bucket, and multi-second offsets
/// start in the overflow lane and must be promoted across the horizon.
fn run_equivalence(seed: u64, steps: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut wheel = EventQueue::new();
    let mut heap = RefQueue::default();
    let mut now = SimTime::ZERO;
    let mut tag = 0u64;

    for _ in 0..steps {
        if rng.next_below(3) < 2 || wheel.is_empty() {
            // Schedule 1-4 events at or after `now`.
            for _ in 0..=rng.next_below(3) {
                let offset = match rng.next_below(4) {
                    0 => 0,                             // same-instant tie
                    1 => rng.next_below(1 << 19),       // inside one bucket
                    2 => rng.next_below(200_000_000),   // inside the near horizon
                    _ => 1 << (28 + rng.next_below(5)), // far lane (268 ms .. 4.3 s out)
                };
                let at = SimTime::from_nanos(now.as_nanos() + offset);
                wheel.schedule(at, tag);
                heap.schedule(at, tag);
                tag += 1;
            }
        } else {
            let got = wheel.pop();
            let want = heap.pop();
            assert_eq!(got, want, "wheel diverged from reference heap");
            if let Some((at, _)) = got {
                now = at;
            }
        }
        assert_eq!(wheel.peek_time(), heap.heap.peek().map(|e| e.at));
        assert_eq!(wheel.len(), heap.heap.len());
    }
    // Drain both to the end: the tails must agree too.
    loop {
        let got = wheel.pop();
        let want = heap.pop();
        assert_eq!(got, want, "wheel diverged from reference heap in drain");
        if got.is_none() {
            break;
        }
    }
}

/// Drives bursts of up to 4,096 events at one instant through the wheel
/// and the heap: the first at t = 0 on a fresh queue, each later one at
/// the instant just popped. About one event in eight lands later, inside
/// the active bucket or up to 16 buckets out, so the active bucket holds
/// later times and the same-instant schedules after them are
/// earlier-in-bucket inserts. Single pops and `pop_run`s interleave.
fn run_bursts(seed: u64, rounds: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut wheel = EventQueue::new();
    let mut heap = RefQueue::default();
    let mut now = SimTime::ZERO;
    let mut tag = 0u64;
    let mut buf = Vec::new();
    for _ in 0..rounds {
        for _ in 0..=rng.next_below(4096) {
            let offset = match rng.next_below(16) {
                0 => rng.next_below(1 << 19), // later, mostly in the active bucket
                1 => rng.next_below(1 << 24), // later, up to 16 buckets out
                _ => 0,                       // same instant
            };
            let at = SimTime::from_nanos(now.as_nanos() + offset);
            wheel.schedule(at, tag);
            heap.schedule(at, tag);
            tag += 1;
        }
        for _ in 0..=rng.next_below(8) {
            let popped = if rng.next_below(2) == 0 {
                let got = wheel.pop();
                assert_eq!(got, heap.pop(), "pop diverged after a burst");
                got.map(|(at, _)| at)
            } else {
                let got = wheel.pop_run(&mut buf).map(|at| (at, buf.clone()));
                assert_eq!(got, heap.pop_run(), "pop_run diverged after a burst");
                got.map(|(at, _)| at)
            };
            if let Some(at) = popped {
                now = at;
            }
            assert_eq!(wheel.peek_time(), heap.heap.peek().map(|e| e.at));
            assert_eq!(wheel.len(), heap.heap.len());
        }
    }
    loop {
        let got = wheel.pop_run(&mut buf).map(|at| (at, buf.clone()));
        assert_eq!(got, heap.pop_run(), "pop_run diverged in drain");
        if got.is_none() {
            break;
        }
    }
}

proptest! {
    /// Random interleaved schedule/pop traffic pops identically from the
    /// wheel and the reference heap.
    #[test]
    fn wheel_matches_heap(seed in any::<u64>()) {
        run_equivalence(seed, 400);
    }

    /// Bursts of same-instant events keep FIFO order through the wheel's
    /// sorted-bucket path, matching the heap's seq tie-break.
    #[test]
    fn same_instant_bursts_match(seed in any::<u64>(), burst in 2usize..40) {
        let mut wheel = EventQueue::new();
        let mut heap = RefQueue::default();
        let mut rng = SplitMix64::new(seed);
        let t = SimTime::from_nanos(rng.next_below(1 << 30));
        for tag in 0..burst as u64 {
            wheel.schedule(t, tag);
            heap.schedule(t, tag);
        }
        // Pop half, then schedule more ties into the now-sorted bucket.
        for _ in 0..burst / 2 {
            prop_assert_eq!(wheel.pop(), heap.pop());
        }
        for tag in 0..4u64 {
            wheel.schedule(t, 1000 + tag);
            heap.schedule(t, 1000 + tag);
        }
        loop {
            let (got, want) = (wheel.pop(), heap.pop());
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }

    /// Bursts of thousands of same-instant events, on a fresh queue and
    /// at the instant just popped, mixed with later and
    /// earlier-in-bucket schedules, pop identically through `pop` and
    /// `pop_run`.
    #[test]
    fn large_bursts_match(seed in any::<u64>()) {
        run_bursts(seed, 6);
    }

    /// Events far past the near horizon are promoted in exactly the
    /// order the heap would deliver them.
    #[test]
    fn far_future_promotion_matches(seed in any::<u64>()) {
        let mut wheel = EventQueue::new();
        let mut heap = RefQueue::default();
        let mut rng = SplitMix64::new(seed);
        // All-far schedule: seconds out, spanning many horizon windows.
        for tag in 0..64u64 {
            let at = SimTime::from_nanos(rng.next_below(8_000_000_000));
            wheel.schedule(at, tag);
            heap.schedule(at, tag);
        }
        loop {
            let (got, want) = (wheel.pop(), heap.pop());
            prop_assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }
}
