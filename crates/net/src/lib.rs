//! Network-bandwidth performance isolation.
//!
//! The paper does not implement network isolation but states exactly how
//! it would work: "Though we do not discuss performance isolation for
//! network bandwidth, the implementation would be similar to that of
//! disk bandwidth, without the complication of head position" (§5, cf.
//! §3.3). This crate is that implementation: a transmit-side NIC model
//! whose packet scheduler either serves FCFS (the unconstrained
//! baseline) or applies the same decayed-byte-count fairness criterion
//! the disk uses — reusing [`spu_core::BandwidthTracker`] verbatim,
//! since without a disk arm there is no position term to trade off.
//!
//! # Examples
//!
//! ```
//! use event_sim::SimTime;
//! use net_bw::{NetDevice, NicModel, Packet, PacketScheduler};
//! use spu_core::SpuId;
//!
//! let mut nic = NetDevice::new(NicModel::fast_ethernet(), PacketScheduler::Fair, 4);
//! let done = nic
//!     .submit(Packet::new(SpuId::user(0), 1500), SimTime::ZERO)
//!     .expect("idle NIC transmits immediately");
//! assert!(done.at > SimTime::ZERO);
//! ```

use event_sim::{OnlineStats, SimDuration, SimTime};
use spu_core::{BandwidthTracker, SpuId};

/// Transmit-side NIC timing model.
#[derive(Clone, Debug, PartialEq)]
pub struct NicModel {
    /// Wire bandwidth in bytes per second.
    pub bytes_per_sec: u64,
    /// Fixed per-packet overhead (framing, interrupt, driver).
    pub per_packet_overhead: SimDuration,
}

impl NicModel {
    /// 100 Mb/s "fast Ethernet" — the class of NIC a 1998 SMP server
    /// shipped with.
    pub fn fast_ethernet() -> Self {
        NicModel {
            bytes_per_sec: 12_500_000,
            per_packet_overhead: SimDuration::from_micros(20),
        }
    }

    /// Transmit time of one packet.
    pub fn transmit_time(&self, bytes: u32) -> SimDuration {
        self.per_packet_overhead
            + SimDuration::from_nanos(bytes as u64 * 1_000_000_000 / self.bytes_per_sec)
    }
}

/// One outbound packet on behalf of an SPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Packet {
    /// The SPU whose process sent it.
    pub stream: SpuId,
    /// Payload plus headers, in bytes.
    pub bytes: u32,
    /// Caller correlation tag.
    pub tag: u64,
}

impl Packet {
    /// Creates a packet.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn new(stream: SpuId, bytes: u32) -> Self {
        assert!(bytes > 0, "empty packet");
        Packet {
            stream,
            bytes,
            tag: 0,
        }
    }

    /// Sets the correlation tag.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }
}

/// How queued packets are picked for transmission.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PacketScheduler {
    /// First come, first served — the unconstrained baseline (a bulk
    /// sender's queue standing in front of everyone else's packets).
    Fcfs,
    /// The §3.3 fairness criterion on decayed per-SPU byte counts: an
    /// SPU whose usage-relative-to-share exceeds the average by the
    /// threshold is passed over while others have packets queued.
    #[default]
    Fair,
}

impl PacketScheduler {
    /// Display label.
    pub const fn label(self) -> &'static str {
        match self {
            PacketScheduler::Fcfs => "FCFS",
            PacketScheduler::Fair => "Fair",
        }
    }
}

/// Notice that the in-flight packet finishes transmitting at `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxDone {
    /// Absolute completion time.
    pub at: SimTime,
}

#[derive(Clone, Debug)]
struct Queued {
    seq: u64,
    submitted: SimTime,
    packet: Packet,
}

/// Per-stream transmit statistics.
#[derive(Clone, Debug, Default)]
pub struct StreamTxStats {
    /// Queue wait per packet, seconds.
    pub wait: OnlineStats,
    /// Bytes transmitted.
    pub bytes: u64,
}

impl StreamTxStats {
    /// Packets transmitted.
    pub fn packets(&self) -> u64 {
        self.wait.count()
    }

    /// Mean queue wait in milliseconds.
    pub fn mean_wait_ms(&self) -> f64 {
        self.wait.mean() * 1e3
    }
}

/// A transmit queue with per-SPU bandwidth accounting.
#[derive(Debug)]
pub struct NetDevice {
    model: NicModel,
    sched: PacketScheduler,
    queue: Vec<Queued>,
    in_flight: Option<(Packet, SimTime)>,
    bw: BandwidthTracker,
    threshold: f64,
    stats: Vec<StreamTxStats>,
    next_seq: u64,
}

impl NetDevice {
    /// Creates an idle NIC for `spu_count` streams, with the paper's
    /// 500 ms decay half-life and a default fairness threshold of 4 KB.
    pub fn new(model: NicModel, sched: PacketScheduler, spu_count: usize) -> Self {
        NetDevice {
            model,
            sched,
            queue: Vec::new(),
            in_flight: None,
            bw: BandwidthTracker::new(spu_count, SimDuration::from_millis(500)),
            threshold: 4096.0,
            stats: vec![StreamTxStats::default(); spu_count],
            next_seq: 0,
        }
    }

    /// Sets the fairness threshold in bytes (the BW-difference threshold
    /// of §3.3, measured in bytes rather than sectors).
    pub fn with_threshold(mut self, bytes: f64) -> Self {
        self.threshold = bytes;
        self
    }

    /// Sets a stream's bandwidth share (default 1).
    pub fn set_share(&mut self, spu: SpuId, share: f64) {
        self.bw.set_share(spu, share);
    }

    /// Per-stream statistics.
    pub fn stats(&self, spu: SpuId) -> &StreamTxStats {
        &self.stats[spu.index()]
    }

    /// Queued (not transmitting) packets.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Whether a packet is on the wire.
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// The stream's decayed bandwidth count (bytes) as of `now`.
    ///
    /// Decay is step-invariant, so observers may call this at any
    /// sampling cadence without perturbing scheduling decisions.
    pub fn sampled_bandwidth(&mut self, spu: SpuId, now: SimTime) -> f64 {
        self.bw.decay_to(now);
        self.bw.count(spu)
    }

    /// Submits a packet; if the NIC is idle it starts transmitting and
    /// the completion notice is returned.
    pub fn submit(&mut self, packet: Packet, now: SimTime) -> Option<TxDone> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Queued {
            seq,
            submitted: now,
            packet,
        });
        if self.in_flight.is_none() {
            self.start_next(now)
        } else {
            None
        }
    }

    /// Completes the in-flight transmission at `now`; returns the packet
    /// and the next completion, if any.
    ///
    /// # Panics
    ///
    /// Panics if nothing is in flight or `now` is not its finish time.
    pub fn complete(&mut self, now: SimTime) -> (Packet, Option<TxDone>) {
        let (packet, finish) = self.in_flight.take().expect("no packet in flight");
        assert_eq!(finish, now, "completion at the wrong time");
        self.bw.charge(packet.stream, packet.bytes as u64, now);
        let next = self.start_next(now);
        (packet, next)
    }

    fn start_next(&mut self, now: SimTime) -> Option<TxDone> {
        if self.queue.is_empty() {
            return None;
        }
        let idx = match self.sched {
            PacketScheduler::Fcfs => self
                .queue
                .iter()
                .enumerate()
                .min_by_key(|(_, q)| q.seq)
                .map(|(i, _)| i)
                .expect("non-empty"),
            PacketScheduler::Fair => {
                // FCFS among the streams that pass the fairness
                // criterion; if every queued stream fails, serve the
                // least-over stream first.
                let pass: Vec<bool> = self
                    .queue
                    .iter()
                    .map(|q| !self.bw.fails_fairness(q.packet.stream, self.threshold, now))
                    .collect();
                if pass.iter().any(|&p| p) {
                    self.queue
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| pass[*i])
                        .min_by_key(|(_, q)| q.seq)
                        .map(|(i, _)| i)
                        .expect("a passing packet exists")
                } else {
                    self.bw.decay_to(now);
                    self.queue
                        .iter()
                        .enumerate()
                        .min_by(|(_, a), (_, b)| {
                            self.bw
                                .normalized_usage(a.packet.stream)
                                .total_cmp(&self.bw.normalized_usage(b.packet.stream))
                                .then(a.seq.cmp(&b.seq))
                        })
                        .map(|(i, _)| i)
                        .expect("non-empty")
                }
            }
        };
        let q = self.queue.swap_remove(idx);
        let finish = now + self.model.transmit_time(q.packet.bytes);
        let s = &mut self.stats[q.packet.stream.index()];
        s.wait.add_duration(now.saturating_since(q.submitted));
        s.bytes += q.packet.bytes as u64;
        self.in_flight = Some((q.packet, finish));
        Some(TxDone { at: finish })
    }
}

/// The NIC is a self-contained bandwidth manager — the fourth resource
/// kind through the same contract as CPU, memory and disk (§5): decayed
/// byte counts are the `used` levels, the fair split of the decayed
/// total by share weight is the entitlement, and `allowed` tops out at
/// actual usage because the fair scheduler throttles rather than
/// reserves.
impl spu_core::ResourceManager for NetDevice {
    type Ctx = ();

    fn kind(&self) -> spu_core::ResourceKind {
        spu_core::ResourceKind::NetBandwidth
    }

    fn sample(
        &mut self,
        _ctx: &mut (),
        users: usize,
        now: SimTime,
    ) -> Vec<spu_core::LevelSnapshot> {
        self.bw.decay_to(now);
        let used: Vec<f64> = (0..users)
            .map(|u| self.bw.count(SpuId::user(u as u32)))
            .collect();
        let total: f64 = used.iter().sum();
        let weight_sum: f64 = (0..users)
            .map(|u| self.bw.share(SpuId::user(u as u32)))
            .sum();
        (0..users)
            .map(|u| {
                let entitled = if weight_sum > 0.0 {
                    total * self.bw.share(SpuId::user(u as u32)) / weight_sum
                } else {
                    0.0
                };
                spu_core::LevelSnapshot {
                    entitled,
                    allowed: entitled.max(used[u]),
                    used: used[u],
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(nic: &mut NetDevice, mut done: Option<TxDone>) -> SimTime {
        let mut last = SimTime::ZERO;
        while let Some(d) = done {
            last = d.at;
            done = nic.complete(d.at).1;
        }
        last
    }

    #[test]
    fn transmit_time_scales_with_bytes() {
        let m = NicModel::fast_ethernet();
        let small = m.transmit_time(100);
        let big = m.transmit_time(64_000);
        assert!(big > small * 10);
        // 64 KB at 12.5 MB/s ≈ 5.1 ms + overhead.
        assert!((big.as_millis_f64() - 5.14).abs() < 0.2, "{big}");
    }

    #[test]
    fn idle_nic_transmits_immediately() {
        let mut nic = NetDevice::new(NicModel::fast_ethernet(), PacketScheduler::Fcfs, 4);
        let done = nic.submit(Packet::new(SpuId::user(0), 1500), SimTime::ZERO);
        assert!(done.is_some());
        assert!(nic.is_busy());
    }

    #[test]
    fn fcfs_lets_bulk_sender_lock_out_interactive() {
        // 40 bulk packets queued first; one small packet behind them.
        let run = |sched: PacketScheduler| {
            let mut nic = NetDevice::new(NicModel::fast_ethernet(), sched, 4);
            let mut done = None;
            for _ in 0..40 {
                if let Some(d) = nic.submit(Packet::new(SpuId::user(0), 64_000), SimTime::ZERO) {
                    done = Some(d);
                }
            }
            nic.submit(Packet::new(SpuId::user(1), 2_000), SimTime::ZERO);
            drain(&mut nic, done);
            nic.stats(SpuId::user(1)).mean_wait_ms()
        };
        let fcfs = run(PacketScheduler::Fcfs);
        let fair = run(PacketScheduler::Fair);
        assert!(fcfs > 100.0, "bulk queue should block interactive: {fcfs}");
        assert!(
            fair < fcfs * 0.2,
            "fairness must rescue the small sender: fair={fair} fcfs={fcfs}"
        );
    }

    #[test]
    fn every_packet_transmits_exactly_once() {
        for sched in [PacketScheduler::Fcfs, PacketScheduler::Fair] {
            let mut nic = NetDevice::new(NicModel::fast_ethernet(), sched, 4);
            let mut done = None;
            for i in 0..100u32 {
                let p = Packet::new(SpuId::user(i % 2), 500 + i * 13);
                if let Some(d) = nic.submit(p, SimTime::ZERO) {
                    done = Some(d);
                }
            }
            drain(&mut nic, done);
            let total = nic.stats(SpuId::user(0)).packets() + nic.stats(SpuId::user(1)).packets();
            assert_eq!(total, 100, "{sched:?}");
            assert_eq!(nic.queue_depth(), 0);
        }
    }

    #[test]
    fn shares_weight_the_fairness_criterion() {
        // user1 owns 4x the bandwidth share; with both flooding, user1
        // should transmit ~4x the bytes in the contended window.
        let mut nic = NetDevice::new(NicModel::fast_ethernet(), PacketScheduler::Fair, 4)
            .with_threshold(2000.0);
        nic.set_share(SpuId::user(1), 4.0);
        let mut done = None;
        for _ in 0..50 {
            for s in 0..2 {
                if let Some(d) = nic.submit(Packet::new(SpuId::user(s), 16_000), SimTime::ZERO) {
                    done = Some(d);
                }
            }
        }
        // Drain only half the transmissions to observe the contended mix.
        let mut served_bytes = [0u64; 2];
        let mut remaining = 50;
        let mut d = done;
        while let Some(td) = d {
            let (p, next) = nic.complete(td.at);
            served_bytes[p.stream.user_index().unwrap()] += p.bytes as u64;
            d = next;
            remaining -= 1;
            if remaining == 0 {
                break;
            }
        }
        let ratio = served_bytes[1] as f64 / served_bytes[0].max(1) as f64;
        assert!(
            (2.5..6.0).contains(&ratio),
            "weighted shares not honoured: {served_bytes:?}"
        );
    }

    #[test]
    fn lone_stream_is_never_throttled() {
        let mut nic = NetDevice::new(NicModel::fast_ethernet(), PacketScheduler::Fair, 3);
        let mut done = None;
        for _ in 0..30 {
            if let Some(d) = nic.submit(Packet::new(SpuId::user(0), 64_000), SimTime::ZERO) {
                done = Some(d);
            }
        }
        let end = drain(&mut nic, done);
        // 30 × 64 KB at wire speed ≈ 154 ms; fairness must not slow a
        // lone sender ("sharing happens naturally").
        assert!(end.as_millis_f64() < 160.0, "{end}");
    }

    #[test]
    #[should_panic(expected = "empty packet")]
    fn zero_byte_packet_panics() {
        Packet::new(SpuId::user(0), 0);
    }

    #[test]
    fn nic_is_a_net_bandwidth_resource_manager() {
        use spu_core::ResourceManager;

        let mut nic = NetDevice::new(NicModel::fast_ethernet(), PacketScheduler::Fair, 4);
        assert_eq!(nic.kind(), spu_core::ResourceKind::NetBandwidth);
        let done = nic.submit(Packet::new(SpuId::user(0), 10_000), SimTime::ZERO);
        let end = drain(&mut nic, done);

        let snaps = nic.sample(&mut (), 2, end);
        assert_eq!(snaps.len(), 2);
        assert!(snaps[0].used > 0.0, "transmitted bytes must show as used");
        assert_eq!(snaps[1].used, 0.0);
        // Equal shares: the decayed total splits evenly into entitlements,
        // and the busy stream's allowed level tops out at its usage.
        assert!((snaps[0].entitled - snaps[1].entitled).abs() < 1e-9);
        assert!((snaps[0].allowed - snaps[0].used).abs() < 1e-9);
        for s in &snaps {
            assert!(s.used <= s.allowed + 1e-9);
        }
    }
}
