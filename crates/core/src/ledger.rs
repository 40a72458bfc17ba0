//! Per-SPU accounting for a countable resource (physical memory pages).
//!
//! The kernel's page-allocation path is augmented to record the SPU id of
//! the requester and to keep per-SPU page-use counts (§2.2). The ledger
//! enforces isolation: "a page request from a process will be denied if
//! the SPU that owns the process has used its allocation of pages".

use crate::resource::ResourceLevels;
use crate::spu::SpuId;

/// Why a charge against an SPU was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChargeError {
    /// The SPU has consumed its allowed level; it must release (evict)
    /// resources of its own or wait for the sharing policy to raise its
    /// allowed level.
    OverAllowed {
        /// SPU that was refused.
        spu: SpuId,
        /// Its allowed level at refusal time.
        allowed: u64,
        /// Its usage at refusal time.
        used: u64,
    },
    /// The whole machine is out of the resource (no free capacity),
    /// regardless of per-SPU levels.
    Exhausted,
}

impl std::fmt::Display for ChargeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChargeError::OverAllowed { spu, allowed, used } => {
                write!(f, "spu {spu} over allowed level ({used}/{allowed})")
            }
            ChargeError::Exhausted => write!(f, "resource exhausted machine-wide"),
        }
    }
}

impl std::error::Error for ChargeError {}

/// Tracks entitled/allowed/used levels of one countable resource for every
/// SPU, plus total capacity.
///
/// The **kernel SPU is never refused** (§2.2: "The kernel SPU has
/// unrestricted access to all resources") except when the machine is
/// genuinely exhausted. When `enforce` is false (the `SMP` scheme) user
/// SPUs are treated the same way — only machine-wide exhaustion fails.
///
/// # Examples
///
/// ```
/// use spu_core::{ResourceLedger, SpuId};
/// let mut ledger = ResourceLedger::new(100, 3); // kernel, shared, 1 user
/// ledger.set_entitled(SpuId::user(0), 50);
/// assert!(ledger.charge(SpuId::user(0), 50, true).is_ok());
/// assert!(ledger.charge(SpuId::user(0), 1, true).is_err()); // at limit
/// assert!(ledger.charge(SpuId::user(0), 1, false).is_ok()); // SMP mode
/// ```
#[derive(Clone, Debug)]
pub struct ResourceLedger {
    capacity: u64,
    levels: Vec<ResourceLevels>,
    /// Running sum of `levels[*].used`, so machine-wide exhaustion
    /// checks are O(1) instead of O(SPUs) — with thousands of SPUs the
    /// per-charge sum would dominate the allocation path.
    total: u64,
}

impl ResourceLedger {
    /// Creates a ledger for `spu_count` SPUs (dense [`SpuId::index`]
    /// addressing) over `capacity` total units. All levels start at zero;
    /// call [`set_entitled`](Self::set_entitled) to configure shares.
    pub fn new(capacity: u64, spu_count: usize) -> Self {
        ResourceLedger {
            capacity,
            levels: vec![ResourceLevels::default(); spu_count],
            total: 0,
        }
    }

    /// Total machine capacity.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The levels record of one SPU.
    ///
    /// # Panics
    ///
    /// Panics if `spu` was not sized into this ledger.
    #[inline]
    pub fn levels(&self, spu: SpuId) -> &ResourceLevels {
        &self.levels[spu.index()]
    }

    /// Sets the entitled level of an SPU and aligns its allowed level to
    /// it (the no-sharing baseline).
    pub fn set_entitled(&mut self, spu: SpuId, entitled: u64) {
        let l = &mut self.levels[spu.index()];
        l.entitled = entitled;
        l.allowed = entitled;
    }

    /// Sets only the allowed level (the sharing policy's lever).
    pub fn set_allowed(&mut self, spu: SpuId, allowed: u64) {
        self.levels[spu.index()].allowed = allowed;
    }

    /// Units currently used by `spu`.
    #[inline]
    pub fn used(&self, spu: SpuId) -> u64 {
        self.levels[spu.index()].used
    }

    /// Units used across all SPUs.
    #[inline]
    pub fn total_used(&self) -> u64 {
        self.total
    }

    /// Unused machine capacity.
    pub fn free(&self) -> u64 {
        self.capacity - self.total
    }

    /// Whether a charge of `n` units against `spu` would succeed.
    #[inline]
    pub fn can_charge(&self, spu: SpuId, n: u64, enforce: bool) -> Result<(), ChargeError> {
        if self.free() < n {
            return Err(ChargeError::Exhausted);
        }
        if enforce && spu != SpuId::KERNEL {
            let l = &self.levels[spu.index()];
            if l.used + n > l.allowed {
                return Err(ChargeError::OverAllowed {
                    spu,
                    allowed: l.allowed,
                    used: l.used,
                });
            }
        }
        Ok(())
    }

    /// Charges `n` units to `spu`.
    ///
    /// # Errors
    ///
    /// Fails per [`can_charge`](Self::can_charge); on failure nothing is
    /// charged.
    pub fn charge(&mut self, spu: SpuId, n: u64, enforce: bool) -> Result<(), ChargeError> {
        self.can_charge(spu, n, enforce)?;
        self.levels[spu.index()].used += n;
        self.total += n;
        Ok(())
    }

    /// Releases `n` units previously charged to `spu`.
    ///
    /// # Panics
    ///
    /// Panics if `spu` has fewer than `n` units charged — releasing what
    /// was never charged is an accounting bug.
    pub fn release(&mut self, spu: SpuId, n: u64) {
        let l = &mut self.levels[spu.index()];
        assert!(
            l.used >= n,
            "releasing {n} units but {spu} only has {}",
            l.used
        );
        l.used -= n;
        self.total -= n;
    }

    /// Moves `n` charged units from one SPU to another without changing
    /// totals (used when a page is re-marked as shared, §3.2).
    ///
    /// # Panics
    ///
    /// Panics if `from` has fewer than `n` units charged.
    pub fn transfer(&mut self, from: SpuId, to: SpuId, n: u64) {
        self.release(from, n);
        self.levels[to.index()].used += n;
        self.total += n;
    }

    /// Debug invariant: total usage never exceeds capacity, and the
    /// cached running total matches the per-SPU levels.
    pub fn check_invariants(&self) {
        let summed: u64 = self.levels.iter().map(|l| l.used).sum();
        assert_eq!(
            summed, self.total,
            "cached total diverged from per-SPU levels"
        );
        assert!(
            self.total <= self.capacity,
            "ledger overcommitted: {} used of {}",
            self.total,
            self.capacity
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> ResourceLedger {
        // kernel, shared, two users
        let mut l = ResourceLedger::new(100, 4);
        l.set_entitled(SpuId::user(0), 40);
        l.set_entitled(SpuId::user(1), 40);
        l
    }

    #[test]
    fn charge_within_allowed_succeeds() {
        let mut l = ledger();
        assert!(l.charge(SpuId::user(0), 40, true).is_ok());
        assert_eq!(l.used(SpuId::user(0)), 40);
        assert_eq!(l.free(), 60);
    }

    #[test]
    fn charge_over_allowed_fails_when_enforced() {
        let mut l = ledger();
        l.charge(SpuId::user(0), 40, true).unwrap();
        let err = l.charge(SpuId::user(0), 1, true).unwrap_err();
        assert!(matches!(
            err,
            ChargeError::OverAllowed {
                used: 40,
                allowed: 40,
                ..
            }
        ));
        // Nothing was charged by the failed call.
        assert_eq!(l.used(SpuId::user(0)), 40);
    }

    #[test]
    fn charge_over_allowed_succeeds_unenforced() {
        let mut l = ledger();
        assert!(l.charge(SpuId::user(0), 90, false).is_ok());
    }

    #[test]
    fn kernel_spu_is_unrestricted() {
        let mut l = ledger();
        // Kernel has entitled 0 but may still charge when enforcing.
        assert!(l.charge(SpuId::KERNEL, 70, true).is_ok());
    }

    #[test]
    fn exhaustion_beats_everything() {
        let mut l = ledger();
        l.charge(SpuId::KERNEL, 100, true).unwrap();
        assert_eq!(
            l.charge(SpuId::KERNEL, 1, true),
            Err(ChargeError::Exhausted)
        );
        assert_eq!(
            l.charge(SpuId::user(0), 1, false),
            Err(ChargeError::Exhausted)
        );
    }

    #[test]
    fn raising_allowed_lends_capacity() {
        let mut l = ledger();
        l.charge(SpuId::user(0), 40, true).unwrap();
        l.set_allowed(SpuId::user(0), 60); // lend 20 idle units in
        assert!(l.charge(SpuId::user(0), 20, true).is_ok());
        assert_eq!(l.levels(SpuId::user(0)).borrowed(), 20);
    }

    #[test]
    fn release_and_transfer() {
        let mut l = ledger();
        l.charge(SpuId::user(0), 10, true).unwrap();
        l.release(SpuId::user(0), 4);
        assert_eq!(l.used(SpuId::user(0)), 6);
        l.transfer(SpuId::user(0), SpuId::SHARED, 6);
        assert_eq!(l.used(SpuId::user(0)), 0);
        assert_eq!(l.used(SpuId::SHARED), 6);
        assert_eq!(l.total_used(), 6);
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn over_release_panics() {
        let mut l = ledger();
        l.release(SpuId::user(0), 1);
    }

    #[test]
    fn display_of_errors() {
        let e = ChargeError::OverAllowed {
            spu: SpuId::user(0),
            allowed: 10,
            used: 10,
        };
        assert!(e.to_string().contains("over allowed"));
        assert!(ChargeError::Exhausted.to_string().contains("exhausted"));
    }
}
