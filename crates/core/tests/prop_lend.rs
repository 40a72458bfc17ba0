//! Property tests for the sharing contract: arbitrary
//! charge/release/lend/revoke interleavings against a
//! [`ResourceLedger`] driven by [`Scheme::lend_idle`] under every
//! scheme, checking the §2.3 ledger invariants.

use proptest::prelude::*;
use spu_core::{PolicyInput, ResourceLedger, Scheme, SpuId, SpuSet};

const USERS: usize = 4;

/// Builds a ledger for 4 user SPUs with entitlements splitting
/// `capacity`, and replays `ops` against it under `scheme`.
/// Op encoding: `(kind, spu, n)` with kind 0 = charge, 1 = release,
/// 2 = policy evaluation, 3 = revoke.
///
/// Models a well-behaved kernel client: a refused charge marks the SPU
/// pressured for the next evaluation, and when an evaluation or a
/// revocation strands usage above the (lowered) allowed level, the
/// overdraft is released immediately — the paper's reclaim-on-revoke,
/// without which `used <= allowed` only holds up to the audit grace
/// period.
fn replay(
    scheme: Scheme,
    capacity: u64,
    reserve: u64,
    ops: &[(u8, u32, u64)],
    mut check: impl FnMut(&ResourceLedger),
) {
    let spus = SpuSet::equal_users(USERS);
    let mut l = ResourceLedger::new(capacity, spus.total_count());
    let split = spus.split_integer(capacity);
    for (i, id) in spus.user_ids().enumerate() {
        l.set_entitled(id, split[i]);
    }
    let enforce = scheme.enforces_isolation();
    let mut held = [0u64; USERS];
    let mut pressured = [false; USERS];
    let reclaim = |l: &mut ResourceLedger, held: &mut [u64; USERS]| {
        if !enforce {
            return;
        }
        for (u, h) in held.iter_mut().enumerate() {
            let spu = SpuId::user(u as u32);
            let lv = *l.levels(spu);
            let overdraft = lv.used.saturating_sub(lv.allowed);
            if overdraft > 0 {
                l.release(spu, overdraft);
                *h -= overdraft;
            }
        }
    };
    for &(kind, spu_n, n) in ops {
        let u = (spu_n as usize) % USERS;
        let spu = SpuId::user(u as u32);
        match kind % 4 {
            0 => {
                if l.charge(spu, n, enforce).is_ok() {
                    held[u] += n;
                } else {
                    pressured[u] = true;
                }
            }
            1 => {
                let take = n.min(held[u]);
                if take > 0 {
                    l.release(spu, take);
                    held[u] -= take;
                }
            }
            2 => {
                let inputs: Vec<PolicyInput> = (0..USERS)
                    .map(|u| PolicyInput {
                        spu: SpuId::user(u as u32),
                        levels: *l.levels(SpuId::user(u as u32)),
                        pressured: pressured[u],
                    })
                    .collect();
                for (spu, allowed) in scheme.lend_idle(capacity, reserve, &inputs, None) {
                    l.set_allowed(spu, allowed);
                }
                pressured = [false; USERS];
                reclaim(&mut l, &mut held);
            }
            _ => {
                let entitled = l.levels(spu).entitled;
                l.set_allowed(spu, entitled);
                reclaim(&mut l, &mut held);
            }
        }
        check(&l);
    }
}

proptest! {
    /// Under every enforcing scheme, `used <= allowed` holds for every
    /// user SPU after every operation; under every scheme the machine
    /// never overcommits.
    #[test]
    fn used_never_exceeds_allowed(
        capacity in 100u64..10_000,
        reserve in 0u64..50,
        ops in prop::collection::vec((0u8..4, 0u32..4, 1u64..200), 0..150),
    ) {
        for scheme in Scheme::ALL {
            replay(scheme, capacity, reserve, &ops, |l| {
                assert!(l.total_used() <= capacity, "{scheme:?} overcommitted");
                if scheme.enforces_isolation() {
                    for u in 0..USERS {
                        let lv = l.levels(SpuId::user(u as u32));
                        assert!(
                            lv.used <= lv.allowed,
                            "{scheme:?} spu{u}: used {} > allowed {}",
                            lv.used,
                            lv.allowed
                        );
                    }
                }
            });
        }
    }

    /// Quota never lends: every user SPU's allowed level equals its
    /// entitlement after every operation, policy evaluations included.
    #[test]
    fn quota_allowed_equals_entitled(
        capacity in 100u64..10_000,
        reserve in 0u64..50,
        ops in prop::collection::vec((0u8..4, 0u32..4, 1u64..200), 0..150),
    ) {
        replay(Scheme::Quota, capacity, reserve, &ops, |l| {
            for u in 0..USERS {
                let lv = l.levels(SpuId::user(u as u32));
                assert_eq!(lv.allowed, lv.entitled, "Quo lent to spu{u}");
            }
        });
    }

    /// Lending and revocation move only `allowed`: the sum of
    /// entitlements is conserved across arbitrarily many lend/revoke
    /// rounds, and no allowed level ever drops below its entitlement.
    #[test]
    fn entitlement_sum_conserved_across_rounds(
        capacity in 100u64..10_000,
        reserve in 0u64..50,
        ops in prop::collection::vec((0u8..4, 0u32..4, 1u64..200), 0..150),
    ) {
        for scheme in Scheme::ALL {
            let mut expected: Option<u64> = None;
            replay(scheme, capacity, reserve, &ops, |l| {
                let sum: u64 = (0..USERS)
                    .map(|u| l.levels(SpuId::user(u as u32)).entitled)
                    .sum();
                let want = *expected.get_or_insert(sum);
                assert_eq!(sum, want, "{scheme:?} entitlement sum drifted");
                for u in 0..USERS {
                    let lv = l.levels(SpuId::user(u as u32));
                    assert!(lv.allowed >= lv.entitled, "{scheme:?} spu{u} below entitlement");
                }
            });
        }
    }
}
