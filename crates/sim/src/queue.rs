//! A stable-ordered pending-event set.
//!
//! [`EventQueue`] delivers events in time order with a monotonically
//! increasing sequence number as tie-breaker, so events scheduled for the
//! same instant are delivered in the order they were scheduled. That
//! stability is what makes whole-simulation runs bit-for-bit reproducible.
//!
//! Internally it is a two-level timing wheel rather than a binary heap:
//!
//! * a **near wheel** of `NEAR_BUCKETS` (256) slots, each covering
//!   `2^BUCKET_SHIFT` ns (~1.05 ms) of simulated time — sized so the
//!   kernel's densest periodic traffic (10 ms ticks, 30 ms quanta,
//!   100 ms policy passes) lands within the ~268 ms near horizon and is
//!   bucketed with O(1) scheduling instead of a heap sift;
//! * a **far lane** (`BTreeMap` keyed by bucket number) for events past
//!   the horizon (e.g. 1 s sync-daemon wakeups), promoted into the near
//!   wheel as the cursor advances.
//!
//! Other slots take unsorted appends. The bucket currently being drained
//! is sorted ascending once, when the cursor reaches it, and popped from
//! the front. A fresh sequence number sorts after every pending one, so a
//! schedule at or after the active bucket's last time — every
//! same-instant burst — is a `push_back`; only an earlier-time schedule
//! into that bucket binary-searches and inserts. Pop order is exactly the
//! old heap's: ascending `(time, sequence)` — verified side-by-side
//! against a reference heap by `tests/prop_queue.rs`.

use std::collections::{BTreeMap, VecDeque};

use crate::time::SimTime;

/// log2 of a near-wheel bucket's width in nanoseconds (~1.05 ms).
const BUCKET_SHIFT: u32 = 20;
/// Number of near-wheel slots; the near horizon is
/// `NEAR_BUCKETS << BUCKET_SHIFT` ns ≈ 268 ms.
const NEAR_BUCKETS: u64 = 256;
const NEAR_MASK: u64 = NEAR_BUCKETS - 1;
/// Words in the near-wheel occupancy bitmap.
const OCC_WORDS: usize = (NEAR_BUCKETS as usize) / 64;

#[inline]
fn bucket_of(at: SimTime) -> u64 {
    at.as_nanos() >> BUCKET_SHIFT
}

/// A pending simulation event with its due time and insertion sequence.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// One near-wheel slot: the entries of a single absolute bucket.
///
/// `bucket` is only meaningful while `entries` is non-empty; all entries
/// in a slot belong to that one bucket.
#[derive(Debug)]
struct Slot<E> {
    bucket: u64,
    entries: VecDeque<Entry<E>>,
}

impl<E> Default for Slot<E> {
    fn default() -> Self {
        Slot {
            bucket: 0,
            entries: VecDeque::new(),
        }
    }
}

/// A deterministic future-event list.
///
/// Events of type `E` are scheduled at absolute [`SimTime`]s and popped in
/// time order; ties are broken by scheduling order (FIFO).
///
/// # Examples
///
/// ```
/// use event_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), 'b');
/// q.schedule(SimTime::from_millis(1), 'a');
/// q.schedule(SimTime::from_millis(2), 'c');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Near wheel, indexed by `bucket & NEAR_MASK`. Invariant: a
    /// non-empty slot's `bucket` lies in `[cursor, cursor + NEAR_BUCKETS)`.
    near: Vec<Slot<E>>,
    /// Occupancy bitmap over the near wheel: bit `i` is set iff
    /// `near[i].entries` is non-empty. Because every occupied bucket lies
    /// in `[cursor, cursor + NEAR_BUCKETS)`, a circular first-set-bit scan
    /// starting at `cursor & NEAR_MASK` visits slots in ascending bucket
    /// order — so "min non-empty bucket" is O(words), not O(slots).
    occ: [u64; OCC_WORDS],
    /// Far lane: bucket number → entries, for buckets at or beyond
    /// `cursor + NEAR_BUCKETS` (keys are promoted on cursor advance, so
    /// the invariant holds between any two public calls).
    far: BTreeMap<u64, Vec<Entry<E>>>,
    /// The bucket currently being drained. Between public calls its
    /// slot is sorted ascending by `(at, seq)` (next event first, so
    /// draining is `VecDeque::pop_front`).
    cursor: u64,
    /// Total pending entries across both levels.
    len: usize,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            near: (0..NEAR_BUCKETS).map(|_| Slot::default()).collect(),
            occ: [0; OCC_WORDS],
            far: BTreeMap::new(),
            cursor: 0,
            len: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    #[inline]
    fn set_occ(&mut self, idx: usize) {
        self.occ[idx >> 6] |= 1 << (idx & 63);
    }

    #[inline]
    fn clear_occ(&mut self, idx: usize) {
        self.occ[idx >> 6] &= !(1 << (idx & 63));
    }

    /// First occupied slot index at or after `start` in circular order,
    /// if any. Combined with the horizon invariant this is the slot of
    /// the minimum non-empty bucket when `start = cursor & NEAR_MASK`.
    fn next_occupied(&self, start: usize) -> Option<usize> {
        let w0 = start >> 6;
        let masked = self.occ[w0] & (!0u64 << (start & 63));
        if masked != 0 {
            return Some((w0 << 6) + masked.trailing_zeros() as usize);
        }
        for w in w0 + 1..OCC_WORDS {
            if self.occ[w] != 0 {
                return Some((w << 6) + self.occ[w].trailing_zeros() as usize);
            }
        }
        for w in 0..=w0 {
            let word = if w == w0 {
                self.occ[w] & !(!0u64 << (start & 63))
            } else {
                self.occ[w]
            };
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Schedules `event` to fire at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the time of the last popped event:
    /// scheduling into the past is always a simulation bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.last_popped,
            "scheduling into the past: {at} < {}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { at, seq, event };
        let bucket = bucket_of(at);
        debug_assert!(bucket >= self.cursor);
        if bucket >= self.cursor + NEAR_BUCKETS {
            self.far.entry(bucket).or_default().push(entry);
        } else {
            let active = bucket == self.cursor;
            let idx = (bucket & NEAR_MASK) as usize;
            self.set_occ(idx);
            let slot = &mut self.near[idx];
            if slot.entries.is_empty() {
                slot.bucket = bucket;
            } else {
                debug_assert_eq!(slot.bucket, bucket);
            }
            // The fresh seq sorts after every pending entry, so only a
            // time earlier than the back of the ascending active bucket
            // needs a search; anything else is an append.
            if active && slot.entries.back().is_some_and(|e| e.at > at) {
                let key = entry.key();
                let pos = slot.entries.partition_point(|e| e.key() < key);
                slot.entries.insert(pos, entry);
            } else {
                slot.entries.push_back(entry);
            }
        }
        self.len += 1;
    }

    /// Removes and returns the earliest event with its due time, or `None`
    /// if the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        {
            let idx = (self.cursor & NEAR_MASK) as usize;
            let slot = &mut self.near[idx];
            if !slot.entries.is_empty() && slot.bucket == self.cursor {
                let entry = slot.entries.pop_front().expect("checked non-empty");
                self.len -= 1;
                self.last_popped = entry.at;
                if slot.entries.is_empty() {
                    self.clear_occ(idx);
                }
                return Some((entry.at, entry.event));
            }
        }
        self.advance();
        self.pop()
    }

    /// Drains the earliest event **and every other event due at the same
    /// instant** into `out` (cleared first), in FIFO `(time, seq)` order.
    /// Returns the shared due time, or `None` if the queue is empty.
    ///
    /// Equal-time events always share one near bucket and sit contiguous
    /// at the front of the sorted cursor slot, so the drain is a run of
    /// `VecDeque::pop_front`s with no re-scan. Events scheduled *while
    /// the caller handles the batch* at that same instant get larger
    /// sequence numbers and are returned by the next `pop_run` call —
    /// exactly the order a one-at-a-time `pop` loop would deliver.
    pub fn pop_run(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        out.clear();
        if self.len == 0 {
            return None;
        }
        loop {
            let idx = (self.cursor & NEAR_MASK) as usize;
            let slot = &mut self.near[idx];
            if !slot.entries.is_empty() && slot.bucket == self.cursor {
                let at = slot.entries.front().expect("checked non-empty").at;
                while slot.entries.front().is_some_and(|e| e.at == at) {
                    out.push(slot.entries.pop_front().expect("checked non-empty").event);
                }
                self.len -= out.len();
                self.last_popped = at;
                if slot.entries.is_empty() {
                    self.clear_occ(idx);
                }
                return Some(at);
            }
            self.advance();
        }
    }

    /// Jumps the cursor to the next non-empty bucket (near or far),
    /// promotes far buckets that fall inside the new near horizon, and
    /// sorts the new cursor slot ascending.
    ///
    /// Only called with `len > 0` and the cursor slot drained.
    fn advance(&mut self) {
        let next_near = self
            .next_occupied((self.cursor & NEAR_MASK) as usize)
            .map(|i| self.near[i].bucket);
        let next_far = self.far.keys().next().copied();
        let target = match (next_near, next_far) {
            (Some(n), Some(f)) => n.min(f),
            (Some(n), None) => n,
            (None, Some(f)) => f,
            (None, None) => unreachable!("advance called on empty queue"),
        };
        self.cursor = target;
        // Promote far buckets now inside the near horizon. A promoted
        // bucket's slot is necessarily free: any occupant would share its
        // residue mod NEAR_BUCKETS while both lie in the same horizon-wide
        // window, which forces equality — and far keys were strictly
        // beyond every near bucket.
        while let Some(&bucket) = self.far.keys().next() {
            if bucket >= self.cursor + NEAR_BUCKETS {
                break;
            }
            let entries = self.far.remove(&bucket).expect("key just observed");
            let idx = (bucket & NEAR_MASK) as usize;
            self.set_occ(idx);
            let slot = &mut self.near[idx];
            debug_assert!(slot.entries.is_empty());
            slot.bucket = bucket;
            // Extend rather than assign: the drained slot keeps the
            // buffer it grew, so later schedules into it do not regrow
            // one from empty. The slot is empty, so order is unchanged.
            slot.entries.extend(entries);
        }
        // (at, seq) pairs are unique, so unstable is safe.
        let slot = &mut self.near[(self.cursor & NEAR_MASK) as usize];
        slot.entries
            .make_contiguous()
            .sort_unstable_by_key(Entry::key);
    }

    /// The due time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        let slot = &self.near[(self.cursor & NEAR_MASK) as usize];
        if !slot.entries.is_empty() && slot.bucket == self.cursor {
            return slot.entries.front().map(|e| e.at);
        }
        let near_best = self
            .next_occupied((self.cursor & NEAR_MASK) as usize)
            .and_then(|i| self.near[i].entries.iter().map(|e| e.at).min());
        let far_best = self
            .far
            .values()
            .next()
            .and_then(|v| v.iter().map(|e| e.at).min());
        match (near_best, far_best) {
            (Some(n), Some(f)) => Some(n.min(f)),
            (Some(n), None) => Some(n),
            (None, f) => f,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events and resets the queue to its initial
    /// state, **including the scheduling-into-the-past watermark**: a
    /// cleared queue accepts schedules at any time again, exactly like a
    /// fresh one. (Previously the watermark survived `clear`, so a reused
    /// queue spuriously panicked on early schedules.)
    pub fn clear(&mut self) {
        for slot in &mut self.near {
            slot.entries.clear();
        }
        self.occ = [0; OCC_WORDS];
        self.far.clear();
        self.cursor = 0;
        self.len = 0;
        self.next_seq = 0;
        self.last_popped = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 3);
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 'x');
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        q.pop();
        q.schedule(SimTime::from_millis(5), ());
    }

    #[test]
    fn same_time_as_last_pop_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 1);
        q.pop();
        q.schedule(SimTime::from_millis(10), 2);
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), 2)));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), ());
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_resets_past_watermark() {
        // Regression: clear() used to leave last_popped set, so a reused
        // queue panicked on schedules earlier than the stale watermark.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(500), 'a');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.clear();
        q.schedule(SimTime::from_millis(1), 'b');
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 'b')));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(30), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(SimTime::from_millis(20), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        // 1 s and 10 s are far past the ~268 ms near horizon, so both
        // start in the far lane and must be promoted in order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10_000), "far2");
        q.schedule(SimTime::from_millis(1), "near");
        q.schedule(SimTime::from_millis(1_000), "far1");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1_000)));
        assert_eq!(q.pop().unwrap().1, "far1");
        // Scheduling relative to the advanced cursor still works.
        q.schedule(SimTime::from_millis(1_002), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "far2");
        assert!(q.is_empty());
    }

    #[test]
    fn pop_run_drains_same_instant_batch_in_fifo_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.schedule(t, 0);
        q.schedule(SimTime::from_millis(9), 99);
        q.schedule(t, 1);
        q.schedule(t, 2);
        let mut buf = Vec::new();
        assert_eq!(q.pop_run(&mut buf), Some(t));
        assert_eq!(buf, vec![0, 1, 2]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_run(&mut buf), Some(SimTime::from_millis(9)));
        assert_eq!(buf, vec![99]);
        assert_eq!(q.pop_run(&mut buf), None);
        assert!(buf.is_empty());
    }

    #[test]
    fn pop_run_then_same_instant_schedule_comes_next() {
        // An event scheduled at the batch's instant *after* the batch was
        // drained must be delivered by the next pop_run — same order as a
        // one-at-a-time pop loop.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.schedule(t, 'a');
        q.schedule(t, 'b');
        let mut buf = Vec::new();
        assert_eq!(q.pop_run(&mut buf), Some(t));
        assert_eq!(buf, vec!['a', 'b']);
        q.schedule(t, 'c');
        assert_eq!(q.pop_run(&mut buf), Some(t));
        assert_eq!(buf, vec!['c']);
    }

    #[test]
    fn pop_run_crosses_the_far_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1_000), "far");
        let mut buf = Vec::new();
        assert_eq!(q.pop_run(&mut buf), Some(SimTime::from_millis(1_000)));
        assert_eq!(buf, vec!["far"]);
    }

    #[test]
    fn pop_and_pop_run_interleave_consistently() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        for i in 0..5 {
            q.schedule(t, i);
        }
        assert_eq!(q.pop().unwrap().1, 0);
        let mut buf = Vec::new();
        assert_eq!(q.pop_run(&mut buf), Some(t));
        assert_eq!(buf, vec![1, 2, 3, 4]);
    }

    #[test]
    fn fresh_queue_burst_pops_fifo() {
        // A fresh queue's active bucket starts sorted, so a t=0 burst is
        // a run of appends; it must still drain in scheduling order.
        let mut q = EventQueue::new();
        for i in 0..2048 {
            q.schedule(SimTime::ZERO, i);
        }
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        assert_eq!(q.pop(), Some((SimTime::ZERO, 0)));
        let mut buf = Vec::new();
        assert_eq!(q.pop_run(&mut buf), Some(SimTime::ZERO));
        assert_eq!(buf, (1..2048).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_agrees_on_sorted_and_unsorted_buckets() {
        let mut q = EventQueue::new();
        let base = 5u64 << BUCKET_SHIFT;
        // These land, unsorted, in a bucket ahead of the cursor.
        q.schedule(SimTime::from_nanos(base + 900), 'b');
        q.schedule(SimTime::from_nanos(base + 100), 'a');
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(base + 100)));
        q.schedule(SimTime::from_nanos(base), 'z');
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(base)));
        // The pop moves the cursor there and sorts the bucket; the next
        // two schedules insert into it before its back.
        assert_eq!(q.pop(), Some((SimTime::from_nanos(base), 'z')));
        q.schedule(SimTime::from_nanos(base + 500), 'm');
        q.schedule(SimTime::from_nanos(base + 50), 'y');
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(base + 50)));
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['y', 'a', 'm', 'b']);
    }

    #[test]
    fn schedule_into_active_bucket_keeps_fifo() {
        // Pop once to force the cursor bucket sorted, then schedule more
        // same-instant events into that bucket: FIFO must hold.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(10);
        q.schedule(t, 0);
        q.schedule(t, 1);
        assert_eq!(q.pop().unwrap().1, 0);
        q.schedule(t, 2);
        q.schedule(t, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }
}
