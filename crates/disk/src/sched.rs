//! The three disk-request scheduling policies of §4.5.
//!
//! * **Pos** ([`SchedulerKind::HeadPosition`]): "The standard
//!   head-position based scheduling, currently in IRIX" — C-SCAN.
//! * **Iso** ([`SchedulerKind::BlindFair`]): "a blind performance
//!   isolation policy. This policy ignores head position, and only
//!   strives to provide fairness for disk bandwidth to the SPUs."
//! * **PIso** ([`SchedulerKind::Hybrid`]): "gives weight to both
//!   isolation and the head position when scheduling requests" — C-SCAN
//!   order over the SPUs that currently pass the bandwidth-fairness
//!   criterion.

use event_sim::SimTime;
use spu_core::BandwidthTracker;

use crate::model::DiskModel;
use crate::request::DiskRequest;

/// Which scheduling policy a [`crate::DiskDevice`] uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// C-SCAN by sector only (the paper's **Pos**).
    HeadPosition,
    /// Bandwidth fairness only, ignoring head position (the paper's
    /// **Iso**).
    BlindFair,
    /// Both: C-SCAN among SPUs passing the fairness criterion (the
    /// paper's **PIso**).
    #[default]
    Hybrid,
}

impl SchedulerKind {
    /// The label used in the paper's result tables.
    pub const fn label(self) -> &'static str {
        match self {
            SchedulerKind::HeadPosition => "Pos",
            SchedulerKind::BlindFair => "Iso",
            SchedulerKind::Hybrid => "PIso",
        }
    }

    /// All policies in the order Table 3/4 present them.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::HeadPosition,
        SchedulerKind::BlindFair,
        SchedulerKind::Hybrid,
    ];
}

impl event_sim::Fingerprint for SchedulerKind {
    fn fingerprint(&self, h: &mut event_sim::Fnv64) {
        h.write_str(self.label());
    }
}

/// A queued request with its submission order (for FIFO tie-breaks).
#[derive(Clone, Debug)]
pub(crate) struct Pending {
    pub(crate) seq: u64,
    pub(crate) submitted: SimTime,
    pub(crate) req: DiskRequest,
}

/// Picks the index of the next request to service, or `None` if the queue
/// is empty.
///
/// `bw_threshold` is the BW-difference threshold of §3.3 in sectors.
pub(crate) fn pick_next(
    kind: SchedulerKind,
    queue: &[Pending],
    model: &DiskModel,
    head_cyl: u32,
    bw: &mut BandwidthTracker,
    bw_threshold: f64,
    now: SimTime,
) -> Option<usize> {
    if queue.is_empty() {
        return None;
    }
    // Single-request fast path: every policy picks the lone request —
    // eligibility only reorders, never denies service outright. (Eliding
    // fair_pick's decay here is exact: decay advances in whole half-life
    // steps by a power-of-two factor, so deferring it composes to the
    // same counts.)
    if queue.len() == 1 {
        return Some(0);
    }
    match kind {
        SchedulerKind::HeadPosition => cscan_pick(queue, model, head_cyl, |_| true),
        SchedulerKind::BlindFair => fair_pick(queue, bw, now),
        SchedulerKind::Hybrid => {
            // Shared-SPU requests have the lowest priority: they are only
            // eligible when no user request is queued.
            let any_user = queue.iter().any(|p| p.req.stream.is_user());
            // An SPU failing the fairness criterion (§3.3) is denied
            // access while other SPUs have queued requests. One decay and
            // one average serve every verdict: decay advances in whole
            // half-life steps, so calling it again at the same instant
            // would change nothing.
            bw.decay_to(now);
            let limit = bw.average_normalized() + bw_threshold;
            let tracker = &*bw;
            let eligible = |i: usize| -> bool {
                let stream = queue[i].req.stream;
                if !stream.is_user() {
                    return !any_user;
                }
                tracker.normalized_usage(stream) <= limit
            };
            if (0..queue.len()).any(eligible) {
                cscan_pick(queue, model, head_cyl, eligible)
            } else if any_user {
                // Every queued user SPU fails (or only failing SPUs have
                // requests): fall back to fairness order among them so the
                // least-over SPU goes first.
                fair_pick(queue, bw, now)
            } else {
                // Only shared/kernel requests queued.
                cscan_pick(queue, model, head_cyl, |_| true)
            }
        }
    }
}

/// C-SCAN: the request with the smallest starting sector at or after the
/// head's cylinder; wraps to the smallest sector overall when the sweep
/// passes the end. Ties broken by submission order.
fn cscan_pick(
    queue: &[Pending],
    model: &DiskModel,
    head_cyl: u32,
    eligible: impl Fn(usize) -> bool,
) -> Option<usize> {
    let mut ahead: Option<(u64, u64, usize)> = None; // (start, seq, idx)
    let mut wrap: Option<(u64, u64, usize)> = None;
    for (i, p) in queue.iter().enumerate() {
        if !eligible(i) {
            continue;
        }
        let key = (p.req.start, p.seq, i);
        if model.cylinder_of(p.req.start) >= head_cyl {
            if ahead.is_none_or(|best| key < best) {
                ahead = Some(key);
            }
        } else if wrap.is_none_or(|best| key < best) {
            wrap = Some(key);
        }
    }
    ahead.or(wrap).map(|(_, _, i)| i)
}

/// Fairness-only: the request whose stream has the lowest normalized
/// bandwidth usage; shared/kernel streams are served only when no user
/// request is queued. Ties broken FIFO.
fn fair_pick(queue: &[Pending], bw: &mut BandwidthTracker, now: SimTime) -> Option<usize> {
    bw.decay_to(now);
    let any_user = queue.iter().any(|p| p.req.stream.is_user());
    let mut best: Option<(f64, u64, usize)> = None;
    for (i, p) in queue.iter().enumerate() {
        if any_user && !p.req.stream.is_user() {
            continue;
        }
        let usage = bw.normalized_usage(p.req.stream);
        let better = match best {
            None => true,
            Some((bu, bseq, _)) => usage < bu || (usage == bu && p.seq < bseq),
        };
        if better {
            best = Some((usage, p.seq, i));
        }
    }
    best.map(|(_, _, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;
    use event_sim::SimDuration;
    use spu_core::SpuId;

    fn pending(seq: u64, stream: SpuId, start: u64) -> Pending {
        Pending {
            seq,
            submitted: SimTime::ZERO,
            req: DiskRequest::new(stream, RequestKind::Read, start, 8),
        }
    }

    fn tracker() -> BandwidthTracker {
        BandwidthTracker::new(4, SimDuration::from_millis(500))
    }

    fn track_of(_model: &DiskModel, cyl: u32) -> u64 {
        cyl as u64 * 19 * 72
    }

    #[test]
    fn cscan_services_ahead_of_head_first() {
        let model = DiskModel::hp97560();
        let queue = vec![
            pending(0, SpuId::user(0), track_of(&model, 100)),
            pending(1, SpuId::user(0), track_of(&model, 500)),
            pending(2, SpuId::user(0), track_of(&model, 300)),
        ];
        // Head at cylinder 200: next is 300, then 500, then wrap to 100.
        let mut bw = tracker();
        let pick = |q: &[Pending], head: u32, bw: &mut BandwidthTracker| {
            pick_next(
                SchedulerKind::HeadPosition,
                q,
                &model,
                head,
                bw,
                64.0,
                SimTime::ZERO,
            )
            .unwrap()
        };
        assert_eq!(pick(&queue, 200, &mut bw), 2);
        assert_eq!(pick(&queue, 301, &mut bw), 1);
        assert_eq!(pick(&queue, 501, &mut bw), 0); // wrap-around
    }

    #[test]
    fn cscan_ties_are_fifo() {
        let model = DiskModel::hp97560();
        let queue = vec![
            pending(5, SpuId::user(0), 1000),
            pending(3, SpuId::user(1), 1000),
        ];
        let mut bw = tracker();
        let i = pick_next(
            SchedulerKind::HeadPosition,
            &queue,
            &model,
            0,
            &mut bw,
            64.0,
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(i, 1, "earlier submission wins the tie");
    }

    #[test]
    fn blind_fair_picks_least_served_stream() {
        let model = DiskModel::hp97560();
        let mut bw = tracker();
        bw.charge(SpuId::user(0), 1000, SimTime::ZERO);
        let queue = vec![
            pending(0, SpuId::user(0), 0), // closest to head
            pending(1, SpuId::user(1), 2_000_000),
        ];
        let i = pick_next(
            SchedulerKind::BlindFair,
            &queue,
            &model,
            0,
            &mut bw,
            64.0,
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(i, 1, "fairness ignores head position");
    }

    #[test]
    fn hybrid_skips_failing_spu_but_keeps_scan_order() {
        let model = DiskModel::hp97560();
        let mut bw = tracker();
        bw.charge(SpuId::user(0), 100_000, SimTime::ZERO); // hog
        let queue = vec![
            pending(0, SpuId::user(0), 100),
            pending(1, SpuId::user(1), 2_000_000),
            pending(2, SpuId::user(1), 1_000_000),
        ];
        let i = pick_next(
            SchedulerKind::Hybrid,
            &queue,
            &model,
            0,
            &mut bw,
            64.0,
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(i, 2, "hog denied; C-SCAN among the passing SPU's requests");
    }

    #[test]
    fn hybrid_serves_hog_when_alone() {
        let model = DiskModel::hp97560();
        let mut bw = tracker();
        bw.charge(SpuId::user(0), 100_000, SimTime::ZERO);
        let queue = vec![pending(0, SpuId::user(0), 100)];
        // Alone on the disk, the SPU cannot fail the criterion (its usage
        // IS the average) — sharing happens naturally.
        let i = pick_next(
            SchedulerKind::Hybrid,
            &queue,
            &model,
            0,
            &mut bw,
            64.0,
            SimTime::ZERO,
        );
        assert_eq!(i, Some(0));
    }

    #[test]
    fn hybrid_shared_writes_have_lowest_priority() {
        let model = DiskModel::hp97560();
        let mut bw = tracker();
        let queue = vec![
            pending(0, SpuId::SHARED, 0),
            pending(1, SpuId::user(1), 2_000_000),
        ];
        let i = pick_next(
            SchedulerKind::Hybrid,
            &queue,
            &model,
            0,
            &mut bw,
            64.0,
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(
            i, 1,
            "user request beats shared write regardless of position"
        );
        // With only the shared request left, it is served.
        let queue = vec![pending(0, SpuId::SHARED, 0)];
        let i = pick_next(
            SchedulerKind::Hybrid,
            &queue,
            &model,
            0,
            &mut bw,
            64.0,
            SimTime::ZERO,
        );
        assert_eq!(i, Some(0));
    }

    #[test]
    fn empty_queue_returns_none() {
        let model = DiskModel::hp97560();
        let mut bw = tracker();
        for kind in SchedulerKind::ALL {
            assert_eq!(
                pick_next(kind, &[], &model, 0, &mut bw, 64.0, SimTime::ZERO),
                None
            );
        }
    }

    #[test]
    fn labels() {
        assert_eq!(SchedulerKind::HeadPosition.label(), "Pos");
        assert_eq!(SchedulerKind::BlindFair.label(), "Iso");
        assert_eq!(SchedulerKind::Hybrid.label(), "PIso");
    }
}
