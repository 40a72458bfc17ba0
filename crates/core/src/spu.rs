//! SPU identity and the SPU table.
//!
//! The paper introduces two *default* SPUs beside the user-created ones
//! (§2.2): the **kernel** SPU owns kernel processes and kernel memory and
//! has unrestricted access to all resources; the **shared** SPU accounts
//! for resources used by multiple SPUs at once (shared pages, delayed disk
//! writes). User SPUs divide the remaining resources by entitlement
//! weight.

use std::fmt;

/// Identifies one Software Performance Unit.
///
/// Ids `0` and `1` are reserved for the built-in [`kernel`](SpuId::KERNEL)
/// and [`shared`](SpuId::SHARED) SPUs; user SPUs start at index 2.
///
/// # Examples
///
/// ```
/// use spu_core::SpuId;
/// let u0 = SpuId::user(0);
/// assert!(u0.is_user());
/// assert!(!SpuId::KERNEL.is_user());
/// assert_eq!(u0.user_index(), Some(0));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpuId(u32);

impl SpuId {
    /// The built-in SPU owning kernel processes and kernel memory. It has
    /// unrestricted access to all resources.
    pub const KERNEL: SpuId = SpuId(0);
    /// The built-in SPU charged for resources referenced by multiple user
    /// SPUs (shared pages, batched delayed writes).
    pub const SHARED: SpuId = SpuId(1);

    /// The `n`-th user SPU.
    pub const fn user(n: u32) -> SpuId {
        SpuId(n + 2)
    }

    /// True for user SPUs (neither kernel nor shared).
    pub const fn is_user(self) -> bool {
        self.0 >= 2
    }

    /// The user index (inverse of [`SpuId::user`]), or `None` for the
    /// built-in SPUs.
    pub const fn user_index(self) -> Option<usize> {
        if self.0 >= 2 {
            Some((self.0 - 2) as usize)
        } else {
            None
        }
    }

    /// Dense index usable for table lookups (kernel = 0, shared = 1,
    /// user n = n + 2).
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SpuId::KERNEL => write!(f, "Spu(kernel)"),
            SpuId::SHARED => write!(f, "Spu(shared)"),
            other => write!(f, "Spu(user{})", other.0 - 2),
        }
    }
}

impl fmt::Display for SpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SpuId::KERNEL => write!(f, "kernel"),
            SpuId::SHARED => write!(f, "shared"),
            other => write!(f, "user{}", other.0 - 2),
        }
    }
}

/// What role an SPU plays in the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpuKind {
    /// Kernel processes and memory; unrestricted resource access.
    Kernel,
    /// Resources referenced by multiple user SPUs.
    Shared,
    /// An ordinary user/task grouping subject to isolation.
    User,
}

/// The set of SPUs configured on a machine: the two built-ins plus the
/// user SPUs with their entitlement weights.
///
/// Entitlements are expressed as integer weights; a user SPU with weight
/// `w` is entitled to `w / Σw` of each user-divisible resource. The
/// paper's experiments all use equal weights ("resources divided equally
/// among all active SPUs", §3), but unequal contracts are supported as
/// §2.1 requires.
///
/// # Examples
///
/// ```
/// use spu_core::{SpuId, SpuSet};
/// let spus = SpuSet::with_weights(&[1, 2]); // user1 owns 2/3 of the machine
/// assert_eq!(spus.weight(SpuId::user(1)), 2);
/// assert_eq!(spus.total_weight(), 3);
/// assert!((spus.fraction(SpuId::user(1)) - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpuSet {
    weights: Vec<u32>,
    mem_weights: Option<Vec<u32>>,
    disk_weights: Option<Vec<u32>>,
    names: Vec<String>,
    /// The tenant hierarchy, when the machine is multi-tenant. `None`
    /// (the flat case) behaves — and hashes — exactly like the
    /// pre-hierarchy `SpuSet`.
    tree: Option<crate::hierarchy::SpuTree>,
}

impl SpuSet {
    /// Creates a set of `n` user SPUs with equal entitlements.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn equal_users(n: usize) -> Self {
        assert!(n > 0, "need at least one user SPU");
        Self::with_weights(&vec![1; n])
    }

    /// Creates user SPUs with the given entitlement weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or any weight is zero.
    pub fn with_weights(weights: &[u32]) -> Self {
        assert!(!weights.is_empty(), "need at least one user SPU");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        let names = weights
            .iter()
            .enumerate()
            .map(|(i, _)| format!("user{i}"))
            .collect();
        SpuSet {
            weights: weights.to_vec(),
            mem_weights: None,
            disk_weights: None,
            names,
            tree: None,
        }
    }

    /// Attaches a tenant hierarchy (see [`SpuTree`](crate::SpuTree)).
    /// The leaf SPUs keep their flat weights; the tree adds tenant
    /// scoping for lending, revocation, brown-out and the subtree audit.
    ///
    /// # Panics
    ///
    /// Panics if the tree's leaf count differs from the user SPU count
    /// or the children of any tenant oversubscribe its ceiling (the
    /// config builder reports the same condition as a typed error).
    pub fn with_tree(mut self, tree: crate::hierarchy::SpuTree) -> Self {
        assert_eq!(
            tree.leaf_count(),
            self.weights.len(),
            "one tree leaf per user SPU"
        );
        if let Some((t, ceiling, requested)) = tree.oversubscribed(&self.weights) {
            panic!(
                "tenant {:?} oversubscribed: services request {requested} of ceiling {ceiling}",
                tree.tenant(t).name()
            );
        }
        self.tree = Some(tree);
        self
    }

    /// The tenant hierarchy, if one was attached.
    pub fn tree(&self) -> Option<&crate::hierarchy::SpuTree> {
        self.tree.as_ref()
    }

    /// Whether this machine is multi-tenant (a tree is attached).
    pub fn is_hierarchical(&self) -> bool {
        self.tree.is_some()
    }

    /// The tenant index a user SPU belongs to; `None` on flat machines
    /// and for the built-in SPUs.
    pub fn tenant_of(&self, id: SpuId) -> Option<usize> {
        self.tree.as_ref().and_then(|t| t.tenant_of(id))
    }

    /// Whether two SPUs are services of the same tenant (always false
    /// on flat machines).
    pub fn same_tenant(&self, a: SpuId, b: SpuId) -> bool {
        self.tree.as_ref().is_some_and(|t| t.same_tenant(a, b))
    }

    /// Sum of the leaf weights under one tenant — the tenant's rollup
    /// entitlement (≤ its ceiling by construction).
    pub fn tenant_weight(&self, t: usize) -> u32 {
        match &self.tree {
            Some(tree) => tree
                .tenant(t)
                .leaves()
                .iter()
                .map(|&l| self.weights[l as usize])
                .sum(),
            None => 0,
        }
    }

    /// The hierarchical display path of an SPU: `tenant/service` on
    /// multi-tenant machines, the flat name otherwise.
    pub fn path(&self, id: SpuId) -> String {
        match &self.tree {
            Some(tree) => tree
                .path(id, self.name(id))
                .unwrap_or_else(|| self.name(id).to_string()),
            None => self.name(id).to_string(),
        }
    }

    /// Overrides the *memory* entitlement weights, leaving CPU and disk
    /// on the base weights (§2.1 permits "a specified amount of each
    /// resource" per SPU, not just one machine fraction).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the user SPU count or any
    /// weight is zero.
    pub fn with_memory_weights(mut self, weights: &[u32]) -> Self {
        assert_eq!(weights.len(), self.weights.len(), "one weight per user SPU");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        self.mem_weights = Some(weights.to_vec());
        self
    }

    /// Overrides the *disk-bandwidth* share weights.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the user SPU count or any
    /// weight is zero.
    pub fn with_disk_weights(mut self, weights: &[u32]) -> Self {
        assert_eq!(weights.len(), self.weights.len(), "one weight per user SPU");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        self.disk_weights = Some(weights.to_vec());
        self
    }

    /// Names a user SPU (for reports); returns `self` for chaining.
    pub fn named(mut self, user_index: usize, name: &str) -> Self {
        self.names[user_index] = name.to_string();
        self
    }

    /// Number of user SPUs.
    pub fn user_count(&self) -> usize {
        self.weights.len()
    }

    /// Total number of SPUs including the kernel and shared built-ins.
    pub fn total_count(&self) -> usize {
        self.weights.len() + 2
    }

    /// The memory weight vector, if memory entitlements were set apart
    /// from the CPU weights.
    pub fn memory_weights(&self) -> Option<&[u32]> {
        self.mem_weights.as_deref()
    }

    /// The disk-bandwidth weight vector, if disk entitlements were set
    /// apart from the CPU weights.
    pub fn disk_weights(&self) -> Option<&[u32]> {
        self.disk_weights.as_deref()
    }

    /// Iterator over all user SPU ids in index order.
    pub fn user_ids(&self) -> impl Iterator<Item = SpuId> + '_ {
        (0..self.weights.len() as u32).map(SpuId::user)
    }

    /// Iterator over every SPU id (kernel, shared, then users).
    pub fn all_ids(&self) -> impl Iterator<Item = SpuId> + '_ {
        [SpuId::KERNEL, SpuId::SHARED]
            .into_iter()
            .chain(self.user_ids())
    }

    /// The kind of an SPU id.
    pub fn kind(&self, id: SpuId) -> SpuKind {
        match id {
            SpuId::KERNEL => SpuKind::Kernel,
            SpuId::SHARED => SpuKind::Shared,
            _ => SpuKind::User,
        }
    }

    /// The entitlement weight of an SPU for one resource kind
    /// (built-ins have weight 0). CPU time and network bandwidth use
    /// the base weights; memory and disk bandwidth use their per-kind
    /// overrides when set, falling back to the base weights.
    pub fn weight_of(&self, kind: crate::resource::ResourceKind, id: SpuId) -> u32 {
        use crate::resource::ResourceKind;
        let overrides = match kind {
            ResourceKind::Memory => &self.mem_weights,
            ResourceKind::DiskBandwidth => &self.disk_weights,
            ResourceKind::CpuTime | ResourceKind::NetBandwidth => &None,
        };
        match (overrides, id.user_index()) {
            (Some(w), Some(i)) => w[i],
            (_, Some(i)) => self.weights.get(i).copied().unwrap_or(0),
            (_, None) => 0,
        }
    }

    /// The entitlement weight of a user SPU (built-ins have weight 0).
    pub fn weight(&self, id: SpuId) -> u32 {
        self.weight_of(crate::resource::ResourceKind::CpuTime, id)
    }

    /// The memory entitlement weight (falls back to the base weight).
    pub fn mem_weight(&self, id: SpuId) -> u32 {
        self.weight_of(crate::resource::ResourceKind::Memory, id)
    }

    /// The disk-bandwidth share weight (falls back to the base weight).
    pub fn disk_weight(&self, id: SpuId) -> u32 {
        self.weight_of(crate::resource::ResourceKind::DiskBandwidth, id)
    }

    /// Sum of user entitlement weights.
    pub fn total_weight(&self) -> u32 {
        self.weights.iter().sum()
    }

    /// The fraction of user-divisible resources a user SPU is entitled to.
    pub fn fraction(&self, id: SpuId) -> f64 {
        self.weight(id) as f64 / self.total_weight() as f64
    }

    /// The display name of an SPU.
    pub fn name(&self, id: SpuId) -> &str {
        match id {
            SpuId::KERNEL => "kernel",
            SpuId::SHARED => "shared",
            other => &self.names[other.user_index().unwrap()],
        }
    }

    /// Splits an integer quantity (e.g. page frames) among user SPUs in
    /// proportion to their weights. Remainders go to the lowest-index
    /// SPUs, so the parts always sum to `total`.
    ///
    /// # Examples
    ///
    /// ```
    /// use spu_core::SpuSet;
    /// let spus = SpuSet::equal_users(3);
    /// assert_eq!(spus.split_integer(10), vec![4, 3, 3]);
    /// ```
    pub fn split_integer(&self, total: u64) -> Vec<u64> {
        Self::split_by(&self.weights, total)
    }

    /// Splits an integer quantity by the *memory* weights.
    pub fn split_memory(&self, total: u64) -> Vec<u64> {
        match &self.mem_weights {
            Some(w) => Self::split_by(w, total),
            None => self.split_integer(total),
        }
    }

    fn split_by(weights: &[u32], total: u64) -> Vec<u64> {
        let w_total: u64 = weights.iter().map(|&w| w as u64).sum();
        let mut parts: Vec<u64> = weights
            .iter()
            .map(|&w| total * w as u64 / w_total)
            .collect();
        let mut rem = total - parts.iter().sum::<u64>();
        let n = parts.len();
        let mut i = 0;
        while rem > 0 {
            parts[i % n] += 1;
            rem -= 1;
            i += 1;
        }
        parts
    }
}

impl event_sim::Fingerprint for SpuSet {
    fn fingerprint(&self, h: &mut event_sim::Fnv64) {
        h.write_usize(self.weights.len());
        for &w in &self.weights {
            h.write_u32(w);
        }
        for opt in [&self.mem_weights, &self.disk_weights] {
            match opt {
                Some(ws) => {
                    h.write_bool(true);
                    for &w in ws {
                        h.write_u32(w);
                    }
                }
                None => h.write_bool(false),
            }
        }
        for name in &self.names {
            h.write_str(name);
        }
        // Hashed only when present so flat sets keep their pre-tree
        // digests — the depth-1 bit-compatibility guarantee.
        if let Some(tree) = &self.tree {
            h.write_str("tree");
            tree.fingerprint(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_ids() {
        assert_eq!(SpuId::KERNEL.index(), 0);
        assert_eq!(SpuId::SHARED.index(), 1);
        assert_eq!(SpuId::user(0).index(), 2);
        assert!(!SpuId::KERNEL.is_user());
        assert!(!SpuId::SHARED.is_user());
        assert!(SpuId::user(5).is_user());
        assert_eq!(SpuId::user(5).user_index(), Some(5));
        assert_eq!(SpuId::SHARED.user_index(), None);
    }

    #[test]
    fn display_names() {
        assert_eq!(SpuId::KERNEL.to_string(), "kernel");
        assert_eq!(SpuId::SHARED.to_string(), "shared");
        assert_eq!(SpuId::user(3).to_string(), "user3");
        assert_eq!(format!("{:?}", SpuId::user(0)), "Spu(user0)");
    }

    #[test]
    fn equal_users_have_equal_fractions() {
        let s = SpuSet::equal_users(8);
        assert_eq!(s.user_count(), 8);
        assert_eq!(s.total_count(), 10);
        for id in s.user_ids() {
            assert!((s.fraction(id) - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_set() {
        let s = SpuSet::with_weights(&[1, 3]);
        assert_eq!(s.weight(SpuId::user(0)), 1);
        assert_eq!(s.weight(SpuId::user(1)), 3);
        assert_eq!(s.weight(SpuId::KERNEL), 0);
        assert_eq!(s.total_weight(), 4);
        assert_eq!(s.kind(SpuId::user(0)), SpuKind::User);
        assert_eq!(s.kind(SpuId::KERNEL), SpuKind::Kernel);
        assert_eq!(s.kind(SpuId::SHARED), SpuKind::Shared);
    }

    #[test]
    fn all_ids_starts_with_builtins() {
        let s = SpuSet::equal_users(2);
        let ids: Vec<SpuId> = s.all_ids().collect();
        assert_eq!(
            ids,
            vec![SpuId::KERNEL, SpuId::SHARED, SpuId::user(0), SpuId::user(1)]
        );
    }

    #[test]
    fn split_integer_sums_to_total() {
        let s = SpuSet::with_weights(&[1, 2, 5]);
        for total in [0u64, 1, 7, 100, 4093] {
            let parts = s.split_integer(total);
            assert_eq!(parts.iter().sum::<u64>(), total);
        }
    }

    #[test]
    fn split_integer_respects_weights() {
        let s = SpuSet::with_weights(&[1, 3]);
        let parts = s.split_integer(400);
        assert_eq!(parts, vec![100, 300]);
    }

    #[test]
    fn named_spus() {
        let s = SpuSet::equal_users(2).named(0, "ocean").named(1, "eda");
        assert_eq!(s.name(SpuId::user(0)), "ocean");
        assert_eq!(s.name(SpuId::user(1)), "eda");
        assert_eq!(s.name(SpuId::KERNEL), "kernel");
    }

    #[test]
    #[should_panic(expected = "need at least one user SPU")]
    fn empty_set_panics() {
        SpuSet::with_weights(&[]);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn zero_weight_panics() {
        SpuSet::with_weights(&[1, 0]);
    }

    #[test]
    fn per_resource_weights_fall_back_to_base() {
        let s = SpuSet::with_weights(&[1, 2]);
        assert_eq!(s.mem_weight(SpuId::user(1)), 2);
        assert_eq!(s.disk_weight(SpuId::user(1)), 2);
        let s = s.with_memory_weights(&[3, 1]).with_disk_weights(&[1, 5]);
        assert_eq!(s.weight(SpuId::user(0)), 1);
        assert_eq!(s.mem_weight(SpuId::user(0)), 3);
        assert_eq!(s.disk_weight(SpuId::user(1)), 5);
        assert_eq!(s.mem_weight(SpuId::KERNEL), 0);
    }

    #[test]
    fn weight_of_keys_every_resource_kind() {
        use crate::resource::ResourceKind;
        let s = SpuSet::with_weights(&[1, 2])
            .with_memory_weights(&[3, 1])
            .with_disk_weights(&[1, 5]);
        let u1 = SpuId::user(1);
        assert_eq!(s.weight_of(ResourceKind::CpuTime, u1), 2);
        assert_eq!(s.weight_of(ResourceKind::Memory, u1), 1);
        assert_eq!(s.weight_of(ResourceKind::DiskBandwidth, u1), 5);
        // Net bandwidth has no override array: base weights apply.
        assert_eq!(s.weight_of(ResourceKind::NetBandwidth, u1), 2);
        for kind in ResourceKind::ALL {
            assert_eq!(s.weight_of(kind, SpuId::KERNEL), 0);
            assert_eq!(s.weight_of(kind, SpuId::SHARED), 0);
        }
        // The named accessors are thin wrappers over weight_of.
        assert_eq!(s.weight(u1), s.weight_of(ResourceKind::CpuTime, u1));
        assert_eq!(s.mem_weight(u1), s.weight_of(ResourceKind::Memory, u1));
        assert_eq!(
            s.disk_weight(u1),
            s.weight_of(ResourceKind::DiskBandwidth, u1)
        );
    }

    #[test]
    fn split_memory_uses_memory_weights() {
        let s = SpuSet::with_weights(&[1, 1]).with_memory_weights(&[1, 3]);
        assert_eq!(s.split_memory(400), vec![100, 300]);
        assert_eq!(s.split_integer(400), vec![200, 200]);
    }

    #[test]
    #[should_panic(expected = "one weight per user SPU")]
    fn mismatched_resource_weights_panic() {
        SpuSet::with_weights(&[1, 1]).with_memory_weights(&[1]);
    }

    fn tenanted() -> SpuSet {
        SpuSet::with_weights(&[1, 1, 2])
            .named(0, "web")
            .named(1, "worker")
            .named(2, "db")
            .with_tree(crate::hierarchy::SpuTree::new(vec![
                ("acme".into(), 2, vec![0, 1]),
                ("globex".into(), 2, vec![2]),
            ]))
    }

    #[test]
    fn tree_scopes_tenancy_and_paths() {
        let s = tenanted();
        assert!(s.is_hierarchical());
        assert_eq!(s.tenant_of(SpuId::user(1)), Some(0));
        assert_eq!(s.tenant_of(SpuId::KERNEL), None);
        assert!(s.same_tenant(SpuId::user(0), SpuId::user(1)));
        assert!(!s.same_tenant(SpuId::user(1), SpuId::user(2)));
        assert_eq!(s.tenant_weight(0), 2);
        assert_eq!(s.tenant_weight(1), 2);
        assert_eq!(s.path(SpuId::user(0)), "acme/web");
        assert_eq!(s.path(SpuId::user(2)), "globex/db");
        assert_eq!(s.path(SpuId::KERNEL), "kernel");
    }

    #[test]
    fn flat_sets_report_no_tenancy() {
        let s = SpuSet::equal_users(2);
        assert!(!s.is_hierarchical());
        assert!(s.tree().is_none());
        assert_eq!(s.tenant_of(SpuId::user(0)), None);
        assert!(!s.same_tenant(SpuId::user(0), SpuId::user(1)));
        assert_eq!(s.tenant_weight(0), 0);
        assert_eq!(s.path(SpuId::user(1)), "user1");
    }

    #[test]
    fn tree_attachment_preserves_flat_fingerprint_when_absent() {
        use event_sim::{Fingerprint, Fnv64};
        let hash = |s: &SpuSet| {
            let mut h = Fnv64::new();
            s.fingerprint(&mut h);
            h.finish()
        };
        let flat = SpuSet::with_weights(&[1, 1, 2])
            .named(0, "web")
            .named(1, "worker")
            .named(2, "db");
        // Attaching a tree changes the digest; the flat set's digest is
        // computed from exactly the pre-hierarchy field writes.
        assert_ne!(hash(&flat), hash(&tenanted()));
    }

    #[test]
    #[should_panic(expected = "oversubscribed")]
    fn oversubscribing_tree_panics() {
        SpuSet::with_weights(&[2, 2]).with_tree(crate::hierarchy::SpuTree::new(vec![(
            "a".into(),
            3,
            vec![0, 1],
        )]));
    }

    #[test]
    #[should_panic(expected = "one tree leaf per user SPU")]
    fn wrong_leaf_count_panics() {
        SpuSet::with_weights(&[1, 1]).with_tree(crate::hierarchy::SpuTree::new(vec![(
            "a".into(),
            1,
            vec![0],
        )]));
    }
}
