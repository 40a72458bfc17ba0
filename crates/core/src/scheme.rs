//! The three resource-allocation schemes compared throughout the paper
//! (Table 2), and the one lending decision that tells them apart.
//!
//! The schemes differ in exactly two ways (§3.2): whether a charge past
//! an SPU's `allowed` level is refused
//! ([`Scheme::enforces_isolation`]), and whether idle units are lent by
//! raising `allowed` ([`Scheme::lend_idle`]). Callers apply both
//! directly to a [`ResourceLedger`](crate::ResourceLedger).

use std::fmt;

use crate::hierarchy::SpuTree;
use crate::resource::ResourceLevels;
use crate::spu::SpuId;

/// A machine-wide resource allocation scheme.
///
/// Every experiment in the paper runs each workload under all three
/// schemes; the claim of the paper is that [`Scheme::PIso`] matches
/// [`Scheme::Quota`] on isolation *and* [`Scheme::Smp`] on sharing.
///
/// # Examples
///
/// ```
/// use spu_core::Scheme;
/// assert!(Scheme::Smp.shares_idle_resources());
/// assert!(!Scheme::Smp.enforces_isolation());
/// assert!(Scheme::PIso.enforces_isolation() && Scheme::PIso.shares_idle_resources());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Unconstrained sharing with no isolation — stock IRIX 5.3 behaviour
    /// ("good sharing").
    Smp,
    /// Fixed quota for each SPU with no sharing ("good isolation").
    Quota,
    /// Performance isolation: quota-grade isolation plus careful sharing
    /// of idle resources — the paper's contribution.
    #[default]
    PIso,
}

impl Scheme {
    /// All schemes, in the order the paper's figures present them.
    pub const ALL: [Scheme; 3] = [Scheme::Smp, Scheme::Quota, Scheme::PIso];

    /// Whether per-SPU resource limits are enforced at all.
    pub const fn enforces_isolation(self) -> bool {
        !matches!(self, Scheme::Smp)
    }

    /// Whether idle resources may flow between SPUs.
    pub const fn shares_idle_resources(self) -> bool {
        !matches!(self, Scheme::Quota)
    }

    /// Short label used in the paper's figures.
    pub const fn label(self) -> &'static str {
        match self {
            Scheme::Smp => "SMP",
            Scheme::Quota => "Quo",
            Scheme::PIso => "PIso",
        }
    }

    /// New allowed levels for every user SPU: `(spu, allowed)` pairs in
    /// input order, each at least the SPU's entitlement.
    ///
    /// Only `PIso` lends. `Quota` never does, and `SMP` shares by not
    /// enforcing at all, so under both every allowed level is the
    /// entitlement. `PIso` does the §3.2 redistribution: the idle units
    /// (entitled-but-unused, plus any of the user-divisible `total` not
    /// covered by entitlements) less `reserve` form the lending budget,
    /// divided equally among the pressured SPUs. Recomputing from
    /// entitlements every evaluation makes loans temporary: a lender
    /// that starts using its own units shrinks the budget, and the next
    /// evaluation lowers the borrowers' allowed levels (revocation).
    ///
    /// On a multi-tenant machine (`tree` is `Some`) the same budget is
    /// spent tenant-first. Pass 1 gives each tenant's own idle units to
    /// its pressured services; pass 2 divides what is left (the idle of
    /// tenants with no pressured service, plus rounding slack) among
    /// every pressured SPU, exactly like the flat split. The total lent
    /// is the flat budget either way.
    ///
    /// # Examples
    ///
    /// ```
    /// use spu_core::{PolicyInput, ResourceLevels, Scheme, SpuId};
    ///
    /// let idle = PolicyInput {
    ///     spu: SpuId::user(0),
    ///     levels: ResourceLevels { entitled: 500, allowed: 500, used: 100 },
    ///     pressured: false,
    /// };
    /// let busy = PolicyInput {
    ///     spu: SpuId::user(1),
    ///     levels: ResourceLevels { entitled: 500, allowed: 500, used: 500 },
    ///     pressured: true,
    /// };
    /// // 400 idle units less an 80-unit reserve go to the pressured SPU.
    /// let out = Scheme::PIso.lend_idle(1000, 80, &[idle, busy], None);
    /// assert_eq!(out, vec![(SpuId::user(0), 500), (SpuId::user(1), 820)]);
    /// assert_eq!(Scheme::Quota.lend_idle(1000, 80, &[idle, busy], None)[1].1, 500);
    /// ```
    pub fn lend_idle(
        self,
        total: u64,
        reserve: u64,
        inputs: &[PolicyInput],
        tree: Option<&SpuTree>,
    ) -> Vec<(SpuId, u64)> {
        let mut out: Vec<(SpuId, u64)> =
            inputs.iter().map(|i| (i.spu, i.levels.entitled)).collect();
        if self != Scheme::PIso {
            return out;
        }
        let entitled_total: u64 = inputs.iter().map(|i| i.levels.entitled).sum();
        let slack = total.saturating_sub(entitled_total);
        let idle: u64 = inputs.iter().map(|i| i.levels.idle()).sum::<u64>() + slack;
        let mut budget = idle.saturating_sub(reserve);
        if let Some(tree) = tree {
            // Input position per user index (inputs usually arrive in
            // user order, but nothing requires it).
            let mut pos = vec![None; tree.leaf_count()];
            for (i, inp) in inputs.iter().enumerate() {
                if let Some(slot) = inp.spu.user_index().and_then(|u| pos.get_mut(u)) {
                    *slot = Some(i);
                }
            }
            for tenant in tree.tenants() {
                let members: Vec<usize> = tenant
                    .leaves()
                    .iter()
                    .filter_map(|&l| pos.get(l as usize).copied().flatten())
                    .collect();
                let pressured: Vec<usize> = members
                    .iter()
                    .copied()
                    .filter(|&p| inputs[p].pressured)
                    .collect();
                if pressured.is_empty() {
                    continue;
                }
                let local: u64 = members.iter().map(|&p| inputs[p].levels.idle()).sum();
                let grant = local.min(budget);
                budget -= grant;
                split_equally(&mut out, &pressured, grant);
            }
        }
        let pressured: Vec<usize> = (0..inputs.len()).filter(|&i| inputs[i].pressured).collect();
        split_equally(&mut out, &pressured, budget);
        out
    }

    /// One-line description (Table 2).
    pub const fn description(self) -> &'static str {
        match self {
            Scheme::Smp => "Unconstrained sharing with no isolation. (Good sharing)",
            Scheme::Quota => "Fixed quota for each SPU with no sharing. (Good isolation)",
            Scheme::PIso => "Performance isolation with policies for isolation and sharing.",
        }
    }
}

/// Per-user-SPU input to one [`Scheme::lend_idle`] evaluation.
#[derive(Clone, Copy, Debug)]
pub struct PolicyInput {
    /// Which SPU this row describes.
    pub spu: SpuId,
    /// Its current levels (entitled/allowed/used units).
    pub levels: ResourceLevels,
    /// Whether the SPU showed pressure since the last evaluation
    /// (faults or refused charges while at its allowed level).
    pub pressured: bool,
}

/// Adds `amount` to the allowed levels of `members` (indices into
/// `out`), split equally; the first `amount % n` members get one more.
/// The paper's implementation divides resources equally; weighted
/// shares would slot in here.
fn split_equally(out: &mut [(SpuId, u64)], members: &[usize], amount: u64) {
    if amount == 0 || members.is_empty() {
        return;
    }
    let n = members.len() as u64;
    for (k, &idx) in members.iter().enumerate() {
        out[idx].1 += amount / n + u64::from((k as u64) < amount % n);
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl event_sim::Fingerprint for Scheme {
    fn fingerprint(&self, h: &mut event_sim::Fnv64) {
        h.write_str(self.label());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::ResourceLedger;
    use crate::spu::SpuSet;

    #[test]
    fn properties_match_table_2() {
        assert!(!Scheme::Smp.enforces_isolation());
        assert!(Scheme::Smp.shares_idle_resources());
        assert!(Scheme::Quota.enforces_isolation());
        assert!(!Scheme::Quota.shares_idle_resources());
        assert!(Scheme::PIso.enforces_isolation());
        assert!(Scheme::PIso.shares_idle_resources());
    }

    #[test]
    fn labels() {
        assert_eq!(Scheme::Smp.to_string(), "SMP");
        assert_eq!(Scheme::Quota.to_string(), "Quo");
        assert_eq!(Scheme::PIso.to_string(), "PIso");
    }

    #[test]
    fn all_lists_each_once() {
        assert_eq!(Scheme::ALL.len(), 3);
        assert_eq!(Scheme::ALL[0], Scheme::Smp);
        assert_eq!(Scheme::ALL[2], Scheme::PIso);
    }

    #[test]
    fn default_is_piso() {
        assert_eq!(Scheme::default(), Scheme::PIso);
    }

    fn input(n: u32, entitled: u64, used: u64, pressured: bool) -> PolicyInput {
        PolicyInput {
            spu: SpuId::user(n),
            levels: ResourceLevels {
                entitled,
                allowed: entitled,
                used,
            },
            pressured,
        }
    }

    /// Two user SPUs entitled to 50 of 100 units each.
    fn ledger() -> ResourceLedger {
        let mut l = ResourceLedger::new(100, SpuSet::equal_users(2).total_count());
        l.set_entitled(SpuId::user(0), 50);
        l.set_entitled(SpuId::user(1), 50);
        l
    }

    /// One flat policy evaluation over both user SPUs, applied.
    fn lend(scheme: Scheme, l: &mut ResourceLedger, pressured: [bool; 2], reserve: u64) {
        let inputs: Vec<PolicyInput> = (0..2u32)
            .map(|u| PolicyInput {
                spu: SpuId::user(u),
                levels: *l.levels(SpuId::user(u)),
                pressured: pressured[u as usize],
            })
            .collect();
        for (spu, allowed) in scheme.lend_idle(l.capacity(), reserve, &inputs, None) {
            l.set_allowed(spu, allowed);
        }
    }

    #[test]
    fn quota_refuses_at_entitlement_and_never_lends() {
        let mut l = ledger();
        let spu = SpuId::user(0);
        let enforce = Scheme::Quota.enforces_isolation();
        assert!(l.charge(spu, 50, enforce).is_ok());
        assert!(l.charge(spu, 1, enforce).is_err());
        lend(Scheme::Quota, &mut l, [true, false], 0); // user 1 fully idle
        assert!(l.charge(spu, 1, enforce).is_err());
        assert_eq!(l.levels(spu).allowed, 50);
    }

    #[test]
    fn piso_lends_idle_units_and_revokes() {
        let mut l = ledger();
        let spu = SpuId::user(0);
        assert!(l.charge(spu, 50, true).is_ok());
        assert!(l.charge(spu, 10, true).is_err());
        lend(Scheme::PIso, &mut l, [true, false], 0);
        assert_eq!(l.levels(spu).entitled, 50);
        assert_eq!(
            l.levels(spu).allowed,
            100,
            "all of user 1's idle units lent"
        );
        assert!(l.charge(spu, 10, true).is_ok());
        // Revocation: an evaluation without pressure drops allowed back
        // to the entitlement.
        lend(Scheme::PIso, &mut l, [false, false], 0);
        assert_eq!(l.levels(spu).allowed, 50);
        assert!(l.charge(spu, 1, true).is_err());
    }

    #[test]
    fn piso_reserve_withheld() {
        let mut l = ledger();
        l.charge(SpuId::user(0), 50, true).unwrap();
        lend(Scheme::PIso, &mut l, [true, false], 40);
        // 50 idle minus 40 reserve: only 10 lent.
        assert_eq!(l.levels(SpuId::user(0)).allowed, 60);
    }

    #[test]
    fn no_pressure_means_entitlements() {
        let out = Scheme::PIso.lend_idle(
            1000,
            80,
            &[input(0, 500, 100, false), input(1, 500, 400, false)],
            None,
        );
        assert_eq!(out, vec![(SpuId::user(0), 500), (SpuId::user(1), 500)]);
    }

    #[test]
    fn idle_pages_flow_to_pressured_spu() {
        let inputs = [input(0, 500, 100, false), input(1, 500, 500, true)];
        let out = Scheme::PIso.lend_idle(1000, 80, &inputs, None);
        // idle = 400, reserve = 80, excess = 320.
        assert_eq!(out[0].1, 500);
        assert_eq!(out[1].1, 820);
    }

    #[test]
    fn excess_split_equally_among_pressured() {
        let inputs = [
            input(0, 300, 0, false), // 300 idle
            input(1, 300, 300, true),
            input(2, 300, 300, true),
        ];
        let out = Scheme::PIso.lend_idle(900, 0, &inputs, None);
        assert_eq!(out[1].1, 450);
        assert_eq!(out[2].1, 450);
    }

    #[test]
    fn reserve_withheld_from_lending() {
        let inputs = [input(0, 500, 450, false), input(1, 500, 500, true)];
        // idle = 50 < reserve = 100 -> nothing lent.
        assert_eq!(Scheme::PIso.lend_idle(1000, 100, &inputs, None)[1].1, 500);
    }

    #[test]
    fn allowed_never_below_entitled() {
        // Borrower currently using over its entitlement, no longer
        // pressured: the next evaluation resets allowed to entitled
        // (revocation), never below.
        let over = PolicyInput {
            spu: SpuId::user(0),
            levels: ResourceLevels {
                entitled: 500,
                allowed: 800,
                used: 700,
            },
            pressured: false,
        };
        let out = Scheme::PIso.lend_idle(1000, 80, &[over, input(1, 500, 500, false)], None);
        assert_eq!(out[0].1, 500);
    }

    #[test]
    fn rounding_slack_counts_as_idle() {
        // Entitlements only cover 900 of 1000 user pages; the slack 100
        // is idle and lendable.
        let inputs = [input(0, 450, 450, true), input(1, 450, 450, false)];
        assert_eq!(Scheme::PIso.lend_idle(1000, 0, &inputs, None)[0].1, 550);
    }

    #[test]
    fn lending_bounded_by_idle_minus_reserve() {
        for used0 in [0u64, 100, 250, 499] {
            let inputs = [input(0, 500, used0, false), input(1, 500, 500, true)];
            let out = Scheme::PIso.lend_idle(1000, 80, &inputs, None);
            let borrowed: u64 = out
                .iter()
                .zip(&inputs)
                .map(|((_, a), i)| a.saturating_sub(i.levels.entitled))
                .sum();
            let idle: u64 = inputs.iter().map(|i| i.levels.idle()).sum();
            assert!(
                borrowed <= idle.saturating_sub(80),
                "used0={used0} borrowed={borrowed} idle={idle}"
            );
        }
    }

    #[test]
    fn smp_and_quota_return_entitlements_with_a_tenant_tree() {
        let tree = SpuTree::new(vec![
            ("a".into(), 200, vec![0, 1]),
            ("b".into(), 100, vec![2]),
        ]);
        let inputs = [
            input(0, 100, 0, false),
            input(1, 100, 100, true),
            input(2, 100, 100, true),
        ];
        let entitlements: Vec<(SpuId, u64)> =
            inputs.iter().map(|i| (i.spu, i.levels.entitled)).collect();
        for scheme in [Scheme::Smp, Scheme::Quota] {
            assert_eq!(
                scheme.lend_idle(300, 0, &inputs, Some(&tree)),
                entitlements,
                "{scheme:?} lent under a tenant tree"
            );
        }
        assert_ne!(
            Scheme::PIso.lend_idle(300, 0, &inputs, Some(&tree)),
            entitlements
        );
    }

    #[test]
    fn scoped_lending_prefers_siblings() {
        // Tenant a = {user0 idle, user1 pressured}; tenant b = {user2
        // pressured}. Flat lending would split user0's 100 idle units
        // 50/50 between the two pressured SPUs; sibling-first keeps all
        // of tenant a's idle inside tenant a.
        let tree = SpuTree::new(vec![
            ("a".into(), 200, vec![0, 1]),
            ("b".into(), 100, vec![2]),
        ]);
        let inputs = [
            input(0, 100, 0, false),
            input(1, 100, 100, true),
            input(2, 100, 100, true),
        ];
        let out = Scheme::PIso.lend_idle(300, 0, &inputs, Some(&tree));
        assert_eq!(out[0].1, 100, "lender keeps its entitlement");
        assert_eq!(out[1].1, 200, "sibling gets all of the tenant's idle");
        assert_eq!(out[2].1, 100, "other tenant gets nothing");
        let flat = Scheme::PIso.lend_idle(300, 0, &inputs, None);
        assert_eq!(flat[1].1, 150);
        assert_eq!(flat[2].1, 150);
    }

    #[test]
    fn scoped_lending_escalates_unclaimed_idle() {
        // Tenant a's service is idle and unpressured; tenant b's is
        // pressured with no local headroom. The idle escapes upward.
        let tree = SpuTree::new(vec![("a".into(), 100, vec![0]), ("b".into(), 100, vec![1])]);
        let inputs = [input(0, 100, 20, false), input(1, 100, 100, true)];
        let out = Scheme::PIso.lend_idle(200, 30, &inputs, Some(&tree));
        // 80 idle − 30 reserve = 50 escalated to the pressured tenant.
        assert_eq!(out[1].1, 150);
        assert_eq!(out[0].1, 100);
    }

    #[test]
    fn scoped_lending_spends_the_flat_budget_exactly() {
        let tree = SpuTree::new(vec![
            ("a".into(), 200, vec![0, 1]),
            ("b".into(), 200, vec![2, 3]),
        ]);
        let inputs = [
            input(0, 100, 40, false),
            input(1, 100, 100, true),
            input(2, 100, 10, false),
            input(3, 100, 100, true),
        ];
        let lent = |out: &[(SpuId, u64)]| -> u64 {
            out.iter()
                .zip(&inputs)
                .map(|(&(_, a), i)| a - i.levels.entitled)
                .sum()
        };
        for reserve in [0u64, 25, 100, 1000] {
            let scoped = Scheme::PIso.lend_idle(420, reserve, &inputs, Some(&tree));
            let flat = Scheme::PIso.lend_idle(420, reserve, &inputs, None);
            assert_eq!(
                lent(&scoped),
                lent(&flat),
                "reserve={reserve}: scoped lending must spend the same budget"
            );
            for (s, i) in scoped.iter().zip(&inputs) {
                assert!(s.1 >= i.levels.entitled, "allowed below entitled");
            }
        }
    }
}
