//! Property tests for the SPU abstraction and policies.

use event_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use spu_core::{
    BandwidthTracker, CpuAssignment, CpuPartition, PolicyInput, ResourceLedger, ResourceLevels,
    Scheme, SharedCpuRotor, SpuId, SpuSet,
};

proptest! {
    /// Integer splitting conserves the total and is proportional within
    /// one unit per part.
    #[test]
    fn split_integer_conserves(weights in prop::collection::vec(1u32..100, 1..16), total in 0u64..100_000) {
        let spus = SpuSet::with_weights(&weights);
        let parts = spus.split_integer(total);
        prop_assert_eq!(parts.iter().sum::<u64>(), total);
        let w_total: u64 = weights.iter().map(|&w| w as u64).sum();
        for (i, &p) in parts.iter().enumerate() {
            let exact = total as f64 * weights[i] as f64 / w_total as f64;
            prop_assert!((p as f64 - exact).abs() <= weights.len() as f64,
                "part {i} = {p}, exact {exact}");
        }
    }

    /// The CPU partition never assigns more capacity than exists and
    /// never shorts an SPU more than rounding allows.
    #[test]
    fn cpu_partition_conserves(cpus in 1usize..32, weights in prop::collection::vec(1u32..10, 1..12)) {
        let spus = SpuSet::with_weights(&weights);
        let part = CpuPartition::compute(cpus, &spus);
        prop_assert_eq!(part.cpu_count(), cpus);
        let total_milli: u64 = spus.user_ids().map(|id| part.milli_cpus(id)).sum();
        prop_assert!(total_milli <= cpus as u64 * 1000);
        // Every SPU gets within ~1 milli-CPU-per-SPU of its exact share.
        let w_total: u64 = weights.iter().map(|&w| w as u64).sum();
        for (i, id) in spus.user_ids().enumerate() {
            let exact = cpus as f64 * 1000.0 * weights[i] as f64 / w_total as f64;
            let got = part.milli_cpus(id) as f64;
            prop_assert!(got <= exact + 1.0, "spu {i}: got {got}, exact {exact}");
            prop_assert!(got >= exact - weights.len() as f64 - 1.0,
                "spu {i}: got {got}, exact {exact}");
        }
        // Time-shared entries never exceed one CPU's capacity.
        for a in part.assignments() {
            if let CpuAssignment::TimeShared(entries) = a {
                let sum: u32 = entries.iter().map(|(_, w)| *w).sum();
                prop_assert!(sum <= 1000);
            }
        }
    }

    /// The ledger never overcommits for any interleaving of charges,
    /// releases and transfers, and its per-SPU counts track a plain
    /// mirror of what each SPU holds.
    #[test]
    fn ledger_never_overcommits(
        capacity in 1u64..10_000,
        ops in prop::collection::vec((0u8..3, 0u32..4, 0u32..4, 1u64..100), 0..200),
    ) {
        let spus = SpuSet::equal_users(4);
        let mut ledger = ResourceLedger::new(capacity, spus.total_count());
        for (i, id) in spus.user_ids().enumerate() {
            ledger.set_entitled(id, capacity / 4 * (i as u64 % 2 + 1) / 2);
        }
        let mut held = [0u64; 6];
        for (op, spu_n, to_n, n) in ops {
            let spu = SpuId::user(spu_n);
            match op {
                0 => {
                    if ledger.charge(spu, n, true).is_ok() {
                        held[spu.index()] += n;
                    }
                }
                1 => {
                    let take = n.min(held[spu.index()]);
                    if take > 0 {
                        ledger.release(spu, take);
                        held[spu.index()] -= take;
                    }
                }
                _ => {
                    // Drawing the source itself as the destination
                    // re-marks the units as shared (§3.2).
                    let to = if to_n == spu_n { SpuId::SHARED } else { SpuId::user(to_n) };
                    let take = n.min(held[spu.index()]);
                    if take > 0 {
                        ledger.transfer(spu, to, take);
                        held[spu.index()] -= take;
                        held[to.index()] += take;
                    }
                }
            }
            ledger.check_invariants();
            prop_assert!(ledger.total_used() <= capacity);
            for id in spus.all_ids() {
                prop_assert_eq!(ledger.used(id), held[id.index()]);
            }
        }
    }

    /// PIso lending never lowers an SPU below its entitlement and never
    /// lends more than the idle pool minus the Reserve Threshold.
    #[test]
    fn lend_idle_bounds(
        user_pages in 100u64..100_000,
        reserve_frac in 0.0f64..0.5,
        usage in prop::collection::vec((0.0f64..1.5, any::<bool>()), 1..8),
    ) {
        let reserve = (user_pages as f64 * reserve_frac).round() as u64;
        let n = usage.len() as u64;
        let entitled = user_pages / n;
        let inputs: Vec<PolicyInput> = usage
            .iter()
            .enumerate()
            .map(|(i, &(frac, pressured))| PolicyInput {
                spu: SpuId::user(i as u32),
                levels: ResourceLevels {
                    entitled,
                    allowed: entitled,
                    used: (entitled as f64 * frac) as u64,
                },
                pressured,
            })
            .collect();
        let out = Scheme::PIso.lend_idle(user_pages, reserve, &inputs, None);
        let mut borrowed_total = 0u64;
        for ((_, allowed), input) in out.iter().zip(&inputs) {
            prop_assert!(*allowed >= input.levels.entitled, "allowed below entitled");
            borrowed_total += allowed.saturating_sub(input.levels.entitled);
        }
        let idle: u64 = inputs.iter().map(|i| i.levels.idle()).sum::<u64>()
            + user_pages.saturating_sub(entitled * n);
        prop_assert!(
            borrowed_total <= idle.saturating_sub(reserve),
            "lent {borrowed_total} exceeds idle {idle} minus reserve"
        );
    }

    /// Rotor grants converge to weight proportions for any weight set.
    #[test]
    fn rotor_proportions(weights in prop::collection::vec(1u32..50, 2..6)) {
        let entries: Vec<(SpuId, u32)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (SpuId::user(i as u32), w))
            .collect();
        let mut rotor = SharedCpuRotor::new(entries);
        let total: u32 = weights.iter().sum();
        let rounds = 200 * total;
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..rounds {
            let s = rotor.grant(|_| true).unwrap();
            counts[s.user_index().unwrap()] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expected = rounds as f64 * w as f64 / total as f64;
            prop_assert!(
                (counts[i] as f64 - expected).abs() <= expected * 0.05 + 4.0,
                "spu {i}: {} vs {expected}", counts[i]
            );
        }
    }

    /// Bandwidth decay is monotone non-increasing without charges, and
    /// a single active user SPU never fails the fairness criterion.
    #[test]
    fn bw_tracker_properties(charges in prop::collection::vec(1u64..10_000, 1..30)) {
        let mut bw = BandwidthTracker::new(3, SimDuration::from_millis(500));
        let mut t = SimTime::ZERO;
        for c in charges {
            bw.charge(SpuId::user(0), c, t);
            prop_assert!(
                !bw.fails_fairness(SpuId::user(0), 0.0, t),
                "a lone SPU must never fail fairness"
            );
            t += SimDuration::from_millis(40);
        }
        let mut last = bw.count(SpuId::user(0));
        for step in 1..10u64 {
            bw.decay_to(t + SimDuration::from_millis(step * 500));
            let now = bw.count(SpuId::user(0));
            prop_assert!(now <= last);
            last = now;
        }
    }
}
