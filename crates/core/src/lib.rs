//! The Software Performance Unit (SPU) abstraction — the primary
//! contribution of *"Performance Isolation: Sharing and Isolation in
//! Shared-Memory Multiprocessors"* (Verghese, Gupta, Rosenblum; ASPLOS
//! 1998).
//!
//! An SPU groups processes and owns a share of every machine resource.
//! Per resource the SPU tracks three levels (§2.3 of the paper):
//!
//! * **entitled** — the share the SPU owns under the machine's sharing
//!   contract;
//! * **allowed** — what it may use *right now*, raised above `entitled`
//!   when idle resources are lent to it and lowered again on revocation;
//! * **used** — what it is actually consuming, maintained by kernel
//!   accounting.
//!
//! This crate is pure policy and accounting — no simulation, no kernel.
//! The [`smp-kernel`](../smp_kernel) crate wires these policies into a
//! simulated IRIX-style SMP kernel.
//!
//! # Modules
//!
//! * [`spu`] — SPU identity, the built-in `kernel` and `shared` SPUs (§2.2).
//! * [`hierarchy`] — the tenant/service entitlement tree overlaying the
//!   flat SPU set (multi-tenant consolidation; depth-1 ≡ flat).
//! * [`resource`] — resource kinds and the three-level accounting record.
//! * [`ledger`] — per-SPU countable-resource accounting with isolation
//!   enforcement (memory pages).
//! * [`scheme`] — the three allocation schemes compared throughout the
//!   paper: `SMP`, `Quota`, `PIso` (Table 2). They differ only in
//!   whether a charge past `allowed` is refused
//!   ([`Scheme::enforces_isolation`]) and in whether idle units are lent
//!   ([`Scheme::lend_idle`], the §3.2 redistribution with the Reserve
//!   Threshold, tenant-first on an [`SpuTree`]).
//! * [`shed`] — the load-shedding policy an SPU's admission queue
//!   applies under open-loop overload.
//! * [`audit`] — the ledger invariant auditor.
//! * [`cpu_policy`] — the hybrid space/time CPU partition and the
//!   proportional-share rotor for fractionally-shared CPUs (§3.1).
//! * [`disk_policy`] — decayed sectors-per-second accounting and the
//!   bandwidth-difference fairness criterion (§3.3).
//!
//! # Examples
//!
//! ```
//! use spu_core::{SpuSet, Scheme};
//!
//! // Two users sharing a machine half-and-half, plus the built-in
//! // kernel and shared SPUs.
//! let spus = SpuSet::equal_users(2);
//! assert_eq!(spus.user_ids().count(), 2);
//! assert!(Scheme::PIso.shares_idle_resources());
//! assert!(!Scheme::Quota.shares_idle_resources());
//! ```

pub mod audit;
pub mod cpu_policy;
pub mod disk_policy;
pub mod hierarchy;
pub mod ledger;
pub mod resource;
pub mod scheme;
pub mod shed;
pub mod spu;

pub use audit::{AuditViolation, LedgerAuditor};
pub use cpu_policy::{CpuAssignment, CpuPartition, SharedCpuRotor};
pub use disk_policy::BandwidthTracker;
pub use hierarchy::{SpuTree, Tenant};
pub use ledger::{ChargeError, ResourceLedger};
pub use resource::{ResourceKind, ResourceLevels};
pub use scheme::{PolicyInput, Scheme};
pub use shed::ShedPolicy;
pub use spu::{SpuId, SpuKind, SpuSet};
