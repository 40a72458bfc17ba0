//! Machine and kernel configuration.
//!
//! Defaults follow the paper's experimental environment (§4.1): an SGI
//! CHALLENGE-class bus-based SMP with 300 MHz R4000 CPUs, HP 97560 disks,
//! a 10 ms clock tick, 30 ms CPU time slices, an 8% memory Reserve
//! Threshold, a 500 ms disk-bandwidth decay half-life, and 4 KB pages.
//!
//! The kernel constants no experiment varies, such as [`TICK`] and
//! [`BW_HALF_LIFE`], are `const`s here. [`Tuning`] holds only the knobs
//! some experiment, test or benchmark sets. [`MachineConfig::builder`]
//! is the one way to set up a machine.

use std::fmt;

use event_sim::{FaultPlan, Fingerprint, Fnv64, SimDuration};
use hp_disk::SchedulerKind;
use spu_core::{Scheme, ShedPolicy, SpuSet, SpuTree};

/// Bytes per page (IRIX on R4000 used 4 KB pages).
pub const PAGE_SIZE: u64 = 4096;
/// Disk sectors per page.
pub const SECTORS_PER_PAGE: u32 = (PAGE_SIZE / 512) as u32;

/// Clock tick: scheduling, loan revocation and priority decay happen
/// here (§3.1: 10 ms, the maximum CPU revocation latency).
pub const TICK: SimDuration = SimDuration::from_millis(10);
/// Period of the memory sharing-policy evaluation (§3.2: "checked
/// periodically").
pub const MEM_POLICY_PERIOD: SimDuration = SimDuration::from_millis(100);
/// Fraction of frames charged to the kernel SPU at boot (kernel code,
/// data, and static structures).
pub const KERNEL_MEM_FRAC: f64 = 0.10;
/// Disk bandwidth-count decay half-life (§3.3: 500 ms).
pub const BW_HALF_LIFE: SimDuration = SimDuration::from_millis(500);
/// Write-behind daemon period (classic UNIX update daemon cadence).
pub const SYNC_PERIOD: SimDuration = SimDuration::from_secs(1);
/// Dirty-buffer high watermark as a fraction of total frames; writers
/// block above it until the flusher drains below the low watermark.
pub const DIRTY_HIGH_FRAC: f64 = 0.10;
/// Dirty-buffer low watermark.
pub const DIRTY_LOW_FRAC: f64 = 0.05;
/// Blocks of sequential read-ahead on a buffer-cache miss.
pub const READAHEAD_BLOCKS: u32 = 7;
/// CPU cost of copying one 4 KB block between cache and user space.
pub const COPY_COST: SimDuration = SimDuration::from_micros(25);
/// CPU cost of zero-filling a newly allocated page.
pub const ZERO_FILL_COST: SimDuration = SimDuration::from_micros(15);
/// CPU cost of fork/exec bookkeeping.
pub const FORK_COST: SimDuration = SimDuration::from_millis(2);
/// How often a computing process re-touches its working set.
pub const TOUCH_INTERVAL: SimDuration = SimDuration::from_millis(50);
/// Maximum retries of a failed disk request before the error is
/// surfaced to the process.
pub const IO_MAX_RETRIES: u32 = 3;
/// First retry delay; doubles per attempt (capped exponential
/// backoff).
pub const IO_RETRY_BASE: SimDuration = SimDuration::from_millis(5);
/// Ceiling on the per-retry delay.
pub const IO_RETRY_CAP: SimDuration = SimDuration::from_millis(80);
/// Total retry budget measured from the first failure; once
/// exceeded the request fails up even if retries remain.
pub const IO_TIMEOUT: SimDuration = SimDuration::from_secs(1);
/// CoDel sojourn target: shedding starts once queue delay stays
/// above this for a full interval.
pub const CODEL_TARGET: SimDuration = SimDuration::from_millis(10);
/// CoDel observation interval. CoDel sheds at most one head per
/// interval: at 5 ms it can drop up to 200/s, enough to matter at 2.5×
/// overload.
pub const CODEL_INTERVAL: SimDuration = SimDuration::from_millis(5);

/// Configuration of one disk device.
#[derive(Clone, Debug, PartialEq)]
pub struct DiskSetup {
    /// Seek-time scaling (§4.5 uses 0.5: "half the seek latency").
    pub seek_scale: f64,
    /// Request scheduler; `None` derives it from the machine scheme
    /// (SMP → Pos, Quota → Iso, PIso → Hybrid).
    pub scheduler: Option<SchedulerKind>,
}

impl Default for DiskSetup {
    fn default() -> Self {
        DiskSetup {
            seek_scale: 1.0,
            scheduler: None,
        }
    }
}

/// The kernel tuning knobs that some experiment, test or benchmark
/// varies; the fixed ones are this module's constants. The defaults
/// are the paper's values where the paper states them and small
/// plausible costs elsewhere.
#[derive(Clone, Debug, PartialEq)]
pub struct Tuning {
    /// CPU time slice (§3.1: 30 ms "unless the process blocks before
    /// that").
    pub slice: SimDuration,
    /// Reserve Threshold as a fraction of memory (§3.2: 8%).
    pub reserve_frac: f64,
    /// BW-difference threshold in sectors (§3.3).
    pub bw_threshold: f64,
    /// Read-ahead windows kept in flight for a sequential stream — the
    /// kernel keeps issuing prefetches until this many fills are
    /// outstanding ("multiple outstanding reads because of read-ahead",
    /// §4.5).
    pub prefetch_windows: u32,
    /// CPU cost of a pathname lookup while holding the inode lock.
    pub lookup_cost: SimDuration,
    /// Whether the root inode lock is multi-reader (the §3.4 fix) or a
    /// mutual-exclusion semaphore (stock IRIX 5.3).
    pub rw_inode_lock: bool,
    /// Revoke loaned CPUs immediately via inter-processor interrupt when
    /// a home process wakes, instead of waiting for the next clock tick
    /// (§3.1: "Another possibility would be to send an inter-processor
    /// interrupt (IPI) to get the processor back sooner. This might be
    /// needed to provide response time performance isolation guarantees
    /// to interactive processes.").
    pub ipi_revocation: bool,
    /// Per-SPU admission cap: how many tracked requests an SPU may have
    /// in service at once; arrivals beyond it wait in the SPU's
    /// admission queue. `0` disables admission control entirely — every
    /// request starts immediately, exactly the pre-admission kernel.
    pub admission_cap: u32,
    /// Admission-queue bound for shed policies that bound the queue
    /// (tail-drop, deadline-aware); ignored otherwise.
    pub queue_cap: u32,
    /// How the admission queue sheds load under overload.
    pub shed_policy: ShedPolicy,
    /// How long a request may wait in the admission queue before it is
    /// timed out (and retried, if budget remains). Zero disables
    /// queue-wait timeouts.
    pub request_timeout: SimDuration,
    /// Retries of a timed-out queued request before it is dropped.
    pub request_max_retries: u32,
    /// First re-submission delay after a queue-wait timeout; doubles
    /// per attempt (the same capped exponential backoff as I/O retry).
    pub request_retry_base: SimDuration,
    /// Ceiling on the re-submission delay.
    pub request_retry_cap: SimDuration,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            slice: SimDuration::from_millis(30),
            reserve_frac: 0.08,
            bw_threshold: 64.0,
            prefetch_windows: 4,
            lookup_cost: SimDuration::from_micros(40),
            rw_inode_lock: true,
            ipi_revocation: false,
            admission_cap: 0,
            queue_cap: 64,
            shed_policy: ShedPolicy::None,
            request_timeout: SimDuration::ZERO,
            request_max_retries: 3,
            request_retry_base: SimDuration::from_millis(5),
            request_retry_cap: SimDuration::from_millis(80),
        }
    }
}

/// Full machine configuration for one simulation run, built only
/// through the validating [`MachineConfig::builder`].
///
/// # Examples
///
/// ```
/// use smp_kernel::MachineConfig;
/// use spu_core::Scheme;
///
/// // The Pmake8 machine: 8 CPUs, 44 MB, one fast disk per SPU.
/// let m = MachineConfig::builder()
///     .topology(8, 44, 8)
///     .scheme(Scheme::PIso)
///     .build()
///     .unwrap();
/// assert_eq!(m.cpus, 8);
/// assert_eq!(m.total_frames(), 44 * 256); // 4 KB pages
/// ```
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub struct MachineConfig {
    /// Number of CPUs.
    pub cpus: usize,
    /// Main memory in megabytes.
    pub memory_mb: u64,
    /// Disk devices.
    pub disks: Vec<DiskSetup>,
    /// The allocation scheme under test.
    pub scheme: Scheme,
    /// Kernel tuning knobs.
    pub tuning: Tuning,
    /// Deterministic fault-injection schedule; empty for a fault-free
    /// run.
    pub fault_plan: FaultPlan,
}

impl MachineConfig {
    /// Total page frames.
    pub fn total_frames(&self) -> u64 {
        self.memory_mb * 1024 * 1024 / PAGE_SIZE
    }

    /// The disk scheduler a disk actually uses, deriving from the scheme
    /// where not overridden.
    pub fn disk_scheduler(&self, disk: usize) -> SchedulerKind {
        self.disks[disk].scheduler.unwrap_or(match self.scheme {
            Scheme::Smp => SchedulerKind::HeadPosition,
            Scheme::Quota => SchedulerKind::BlindFair,
            Scheme::PIso => SchedulerKind::Hybrid,
        })
    }

    /// Starts a validating builder (see [`MachineConfigBuilder`]) that
    /// returns typed [`ConfigError`]s instead of panicking.
    pub fn builder() -> MachineConfigBuilder {
        MachineConfigBuilder::default()
    }
}

impl Fingerprint for DiskSetup {
    fn fingerprint(&self, h: &mut Fnv64) {
        h.write_f64(self.seek_scale);
        match self.scheduler {
            Some(kind) => {
                h.write_bool(true);
                kind.fingerprint(h);
            }
            None => h.write_bool(false),
        }
    }
}

impl Fingerprint for Tuning {
    fn fingerprint(&self, h: &mut Fnv64) {
        self.slice.fingerprint(h);
        h.write_f64(self.reserve_frac);
        h.write_f64(self.bw_threshold);
        h.write_u32(self.prefetch_windows);
        self.lookup_cost.fingerprint(h);
        h.write_bool(self.rw_inode_lock);
        h.write_bool(self.ipi_revocation);
        h.write_u32(self.admission_cap);
        h.write_u32(self.queue_cap);
        self.shed_policy.fingerprint(h);
        self.request_timeout.fingerprint(h);
        h.write_u32(self.request_max_retries);
        self.request_retry_base.fingerprint(h);
        self.request_retry_cap.fingerprint(h);
    }
}

impl Fingerprint for MachineConfig {
    fn fingerprint(&self, h: &mut Fnv64) {
        h.write_usize(self.cpus);
        h.write_u64(self.memory_mb);
        h.write_usize(self.disks.len());
        for d in &self.disks {
            d.fingerprint(h);
        }
        self.scheme.fingerprint(h);
        self.tuning.fingerprint(h);
        self.fault_plan.fingerprint(h);
    }
}

/// A validation failure from [`MachineConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// The machine needs at least one CPU.
    NoCpus,
    /// The machine needs a non-zero amount of memory.
    NoMemory,
    /// The machine needs at least one disk.
    NoDisks,
    /// No user SPU was declared: [`spus`](MachineConfigBuilder::spus)
    /// with a count of zero, or
    /// [`build_with_spus`](MachineConfigBuilder::build_with_spus)
    /// without `spus` or [`tenant`](MachineConfigBuilder::tenant).
    EmptyShares,
    /// A user SPU was given a zero weight (an SPU entitled to nothing
    /// can never make progress).
    ZeroShare {
        /// Index of the offending user SPU.
        index: usize,
    },
    /// The disk seek scale must be finite and positive.
    BadSeekScale {
        /// The rejected value.
        value: f64,
    },
    /// A tenant's service shares add up to more than the tenant's
    /// entitlement ceiling — children cannot subdivide more than the
    /// parent is entitled to.
    TenantOversubscribed {
        /// The oversubscribed tenant's name.
        tenant: String,
        /// The tenant's entitlement ceiling.
        ceiling: u32,
        /// The sum of the tenant's service weights.
        requested: u32,
    },
    /// A tenant was declared without any services — an empty subtree
    /// has no leaf SPUs to schedule.
    EmptyTenant {
        /// The offending tenant's name.
        tenant: String,
    },
    /// [`service`](MachineConfigBuilder::service) was called before any
    /// [`tenant`](MachineConfigBuilder::tenant) opened a subtree.
    ServiceOutsideTenant {
        /// The orphaned service's name.
        service: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoCpus => write!(f, "machine needs at least one CPU"),
            ConfigError::NoMemory => write!(f, "machine needs a non-zero amount of memory"),
            ConfigError::NoDisks => write!(f, "machine needs at least one disk"),
            ConfigError::EmptyShares => write!(f, "no user SPUs declared"),
            ConfigError::ZeroShare { index } => {
                write!(f, "user SPU {index} has a zero share")
            }
            ConfigError::BadSeekScale { value } => {
                write!(
                    f,
                    "disk seek scale must be finite and positive, got {value}"
                )
            }
            ConfigError::TenantOversubscribed {
                tenant,
                ceiling,
                requested,
            } => write!(
                f,
                "tenant {tenant:?} oversubscribed: services request {requested} of ceiling {ceiling}"
            ),
            ConfigError::EmptyTenant { tenant } => {
                write!(f, "tenant {tenant:?} declares no services")
            }
            ConfigError::ServiceOutsideTenant { service } => {
                write!(f, "service {service:?} declared before any tenant")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A pending tenant declaration: name, ceiling, and the
/// `(service name, weight)` pairs declared under it so far.
type TenantDecl = (String, u32, Vec<(String, u32)>);

/// Validating builder for [`MachineConfig`] (and optionally the
/// [`SpuSet`] sharing contract), returning typed [`ConfigError`]s where
/// the panicking constructors would abort.
///
/// The machine is described in one call and SPU sets are generated
/// programmatically — the only way to sanely express a 512-CPU /
/// 1024-SPU consolidation host:
///
/// ```
/// use smp_kernel::MachineConfig;
/// use spu_core::Scheme;
///
/// let (cfg, spus) = MachineConfig::builder()
///     .topology(512, 2048, 16)
///     .scheme(Scheme::PIso)
///     .spus(1024, 1) // 1024 tenants, equal shares
///     .build_with_spus()
///     .unwrap();
/// assert_eq!(cfg.cpus, 512);
/// assert_eq!(spus.user_count(), 1024);
/// ```
///
/// Unequal flat weights come from [`SpuSet::with_weights`] directly.
///
/// # Examples
///
/// ```
/// use smp_kernel::{ConfigError, MachineConfig};
/// use spu_core::Scheme;
///
/// let (cfg, spus) = MachineConfig::builder()
///     .topology(8, 44, 8)
///     .scheme(Scheme::PIso)
///     .spus(3, 1)
///     .build_with_spus()
///     .unwrap();
/// assert_eq!(cfg.cpus, 8);
/// assert_eq!(spus.user_count(), 3);
///
/// let err = MachineConfig::builder()
///     .topology(2, 32, 1)
///     .spus(2, 0)
///     .build_with_spus()
///     .unwrap_err();
/// assert_eq!(err, ConfigError::ZeroShare { index: 0 });
/// ```
#[derive(Clone, Debug, Default)]
pub struct MachineConfigBuilder {
    cpus: usize,
    memory_mb: u64,
    disk_count: usize,
    /// The setup every disk gets.
    disk: DiskSetup,
    scheme: Scheme,
    tuning: Tuning,
    fault_plan: FaultPlan,
    spu_count: Option<(usize, u32)>,
    tenants: Vec<TenantDecl>,
    orphan_service: Option<String>,
}

impl MachineConfigBuilder {
    /// Sets the whole machine shape in one call: CPU count, memory in
    /// megabytes, and number of default disks.
    pub fn topology(mut self, cpus: usize, memory_mb: u64, disks: usize) -> Self {
        self.cpus = cpus;
        self.memory_mb = memory_mb;
        self.disk_count = disks;
        self
    }

    /// Declares `count` user SPUs, each with weight `share` for every
    /// resource. Replaces any previous [`tenant`](Self::tenant)
    /// declaration (last surface wins).
    pub fn spus(mut self, count: usize, share: u32) -> Self {
        self.spu_count = Some((count, share));
        self.tenants.clear();
        self
    }

    /// Opens a tenant subtree with an entitlement `ceiling` (in the
    /// same weight units as service shares). Subsequent
    /// [`service`](Self::service) calls add leaf SPUs to this tenant
    /// until the next `tenant` call opens another. Declaring tenants
    /// produces a hierarchical [`SpuSet`] (see [`SpuTree`]); it
    /// replaces any previous [`spus`](Self::spus) declaration, and vice
    /// versa (last surface wins).
    ///
    /// ```
    /// use smp_kernel::MachineConfig;
    /// use spu_core::{Scheme, SpuId};
    ///
    /// let (_, spus) = MachineConfig::builder()
    ///     .topology(4, 64, 2)
    ///     .scheme(Scheme::PIso)
    ///     .tenant("acme", 2)
    ///     .service("web", 1)
    ///     .service("batch", 1)
    ///     .tenant("globex", 2)
    ///     .service("api", 2)
    ///     .build_with_spus()
    ///     .unwrap();
    /// assert!(spus.is_hierarchical());
    /// assert_eq!(spus.user_count(), 3);
    /// assert_eq!(spus.path(SpuId::user(0)), "acme/web");
    /// ```
    pub fn tenant(mut self, name: &str, ceiling: u32) -> Self {
        self.tenants.push((name.to_string(), ceiling, Vec::new()));
        self.spu_count = None;
        self
    }

    /// Adds a service (leaf SPU) with `weight` shares to the most
    /// recently opened [`tenant`](Self::tenant). The weights of a
    /// tenant's services may not add up to more than the tenant's
    /// ceiling ([`ConfigError::TenantOversubscribed`]); undersubscribing
    /// is fine, the slack stays with the tenant.
    pub fn service(mut self, name: &str, weight: u32) -> Self {
        match self.tenants.last_mut() {
            Some((_, _, services)) => services.push((name.to_string(), weight)),
            None => {
                if self.orphan_service.is_none() {
                    self.orphan_service = Some(name.to_string());
                }
            }
        }
        self
    }

    /// Sets the allocation scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Replaces the tuning knobs.
    pub fn tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Installs a fault plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Applies a seek scale to every disk (§4.5 uses 0.5).
    pub fn seek_scale(mut self, scale: f64) -> Self {
        self.disk.seek_scale = scale;
        self
    }

    /// Forces a disk scheduler on every disk (the §4.5 Pos/Iso/PIso
    /// comparison).
    pub fn disk_scheduler(mut self, kind: SchedulerKind) -> Self {
        self.disk.scheduler = Some(kind);
        self
    }

    /// Validates and builds the [`MachineConfig`].
    pub fn build(self) -> Result<MachineConfig, ConfigError> {
        self.build_inner().map(|(cfg, _)| cfg)
    }

    /// Validates and builds the machine *and* the SPU sharing contract;
    /// [`spus`](Self::spus) or [`tenant`](Self::tenant) must have
    /// declared the SPUs.
    pub fn build_with_spus(self) -> Result<(MachineConfig, SpuSet), ConfigError> {
        let (cfg, spus) = self.build_inner()?;
        Ok((cfg, spus.ok_or(ConfigError::EmptyShares)?))
    }

    fn build_inner(self) -> Result<(MachineConfig, Option<SpuSet>), ConfigError> {
        if self.cpus == 0 {
            return Err(ConfigError::NoCpus);
        }
        if self.memory_mb == 0 {
            return Err(ConfigError::NoMemory);
        }
        if self.disk_count == 0 {
            return Err(ConfigError::NoDisks);
        }
        let scale = self.disk.seek_scale;
        if !(scale.is_finite() && scale > 0.0) {
            return Err(ConfigError::BadSeekScale { value: scale });
        }
        let spus = self.spu_set()?;
        let cfg = MachineConfig {
            cpus: self.cpus,
            memory_mb: self.memory_mb,
            disks: vec![self.disk; self.disk_count],
            scheme: self.scheme,
            tuning: self.tuning,
            fault_plan: self.fault_plan,
        };
        Ok((cfg, spus))
    }

    /// The declared SPU set, if any: [`spus`](Self::spus)'s equal
    /// weights or the [`tenant`](Self::tenant)/[`service`](Self::service)
    /// tree. Every `SpuSet` and [`SpuTree`] panic is pre-checked here so
    /// the builder reports typed errors instead.
    fn spu_set(&self) -> Result<Option<SpuSet>, ConfigError> {
        if let Some(service) = &self.orphan_service {
            return Err(ConfigError::ServiceOutsideTenant {
                service: service.clone(),
            });
        }
        if let Some((count, share)) = self.spu_count {
            if count == 0 {
                return Err(ConfigError::EmptyShares);
            }
            if share == 0 {
                return Err(ConfigError::ZeroShare { index: 0 });
            }
            return Ok(Some(SpuSet::with_weights(&vec![share; count])));
        }
        if self.tenants.is_empty() {
            return Ok(None);
        }
        let mut weights: Vec<u32> = Vec::new();
        let mut names: Vec<&str> = Vec::new();
        let mut tree_tenants: Vec<(String, u32, Vec<u32>)> = Vec::new();
        for (name, ceiling, services) in &self.tenants {
            if services.is_empty() {
                return Err(ConfigError::EmptyTenant {
                    tenant: name.clone(),
                });
            }
            let mut leaves = Vec::new();
            let mut requested: u64 = 0;
            for (service, weight) in services {
                if *weight == 0 {
                    return Err(ConfigError::ZeroShare {
                        index: weights.len(),
                    });
                }
                requested += u64::from(*weight);
                leaves.push(weights.len() as u32);
                weights.push(*weight);
                names.push(service);
            }
            if requested > u64::from(*ceiling) {
                return Err(ConfigError::TenantOversubscribed {
                    tenant: name.clone(),
                    ceiling: *ceiling,
                    requested: requested.min(u64::from(u32::MAX)) as u32,
                });
            }
            tree_tenants.push((name.clone(), *ceiling, leaves));
        }
        let mut set = SpuSet::with_weights(&weights);
        for (i, name) in names.into_iter().enumerate() {
            set = set.named(i, name);
        }
        Ok(Some(set.with_tree(SpuTree::new(tree_tenants))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use event_sim::{FaultKind, SimTime};
    use spu_core::SpuId;

    #[test]
    fn frames_from_megabytes() {
        let m = MachineConfig::builder().topology(4, 16, 1).build().unwrap();
        assert_eq!(m.total_frames(), 4096);
    }

    #[test]
    fn paper_defaults() {
        let t = Tuning::default();
        assert_eq!(TICK, SimDuration::from_millis(10));
        assert_eq!(t.slice, SimDuration::from_millis(30));
        assert_eq!(t.reserve_frac, 0.08);
        assert_eq!(BW_HALF_LIFE, SimDuration::from_millis(500));
    }

    #[test]
    fn scheduler_derives_from_scheme() {
        for (scheme, kind) in [
            (Scheme::Smp, SchedulerKind::HeadPosition),
            (Scheme::Quota, SchedulerKind::BlindFair),
            (Scheme::PIso, SchedulerKind::Hybrid),
        ] {
            let m = MachineConfig::builder()
                .topology(2, 44, 1)
                .scheme(scheme)
                .build()
                .unwrap();
            assert_eq!(m.disk_scheduler(0), kind);
        }
    }

    #[test]
    fn scheduler_override_wins() {
        let m = MachineConfig::builder()
            .topology(2, 44, 2)
            .scheme(Scheme::Smp)
            .disk_scheduler(SchedulerKind::Hybrid)
            .build()
            .unwrap();
        assert_eq!(m.disk_scheduler(0), SchedulerKind::Hybrid);
        assert_eq!(m.disk_scheduler(1), SchedulerKind::Hybrid);
    }

    #[test]
    fn seek_scale_applies_to_all_disks() {
        let m = MachineConfig::builder()
            .topology(2, 44, 3)
            .seek_scale(0.5)
            .build()
            .unwrap();
        assert!(m.disks.iter().all(|d| d.seek_scale == 0.5));
    }

    #[test]
    fn builder_validates_machine_quantities() {
        let topology = |cpus, mb, disks| MachineConfig::builder().topology(cpus, mb, disks);
        assert_eq!(topology(0, 1, 1).build(), Err(ConfigError::NoCpus));
        assert_eq!(topology(1, 0, 1).build(), Err(ConfigError::NoMemory));
        assert_eq!(topology(1, 1, 0).build(), Err(ConfigError::NoDisks));
        for scale in [0.0, -0.5, f64::INFINITY, f64::NAN] {
            let err = topology(1, 1, 1).seek_scale(scale).build().unwrap_err();
            // Match on the variant: NaN != NaN rules out assert_eq!.
            match err {
                ConfigError::BadSeekScale { value } => {
                    assert_eq!(value.to_bits(), scale.to_bits())
                }
                other => panic!("seek scale {scale}: {other:?}"),
            }
        }
    }

    #[test]
    fn builder_fills_every_config_field() {
        let built = MachineConfig::builder()
            .topology(2, 44, 1)
            .scheme(Scheme::PIso)
            .seek_scale(0.5)
            .disk_scheduler(SchedulerKind::Hybrid)
            .build()
            .unwrap();
        let by_hand = MachineConfig {
            cpus: 2,
            memory_mb: 44,
            disks: vec![DiskSetup {
                seek_scale: 0.5,
                scheduler: Some(SchedulerKind::Hybrid),
            }],
            scheme: Scheme::PIso,
            tuning: Tuning::default(),
            fault_plan: FaultPlan::new(),
        };
        assert_eq!(built, by_hand);
        assert_eq!(built.fingerprint_digest(), by_hand.fingerprint_digest());
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let base = || MachineConfig::builder().topology(2, 44, 1);
        let digest = base().build().unwrap().fingerprint_digest();
        assert_eq!(base().build().unwrap().fingerprint_digest(), digest);

        // Every input must reach the digest. No `..` in these patterns:
        // a new field breaks them until it gets a case below.
        let MachineConfig {
            cpus: _,
            memory_mb: _,
            disks: _,
            scheme: _,
            tuning: _,
            fault_plan: _,
        } = base().build().unwrap();
        let Tuning {
            slice: _,
            reserve_frac: _,
            bw_threshold: _,
            prefetch_windows: _,
            lookup_cost: _,
            rw_inode_lock: _,
            ipi_revocation: _,
            admission_cap: _,
            queue_cap: _,
            shed_policy: _,
            request_timeout: _,
            request_max_retries: _,
            request_retry_base: _,
            request_retry_cap: _,
        } = Tuning::default();
        let tuned = |set: &dyn Fn(&mut Tuning)| {
            let mut t = Tuning::default();
            set(&mut t);
            base().tuning(t)
        };
        let ms = SimDuration::from_millis;
        let plan = FaultPlan::new().at(SimTime::ZERO, FaultKind::DiskRepair { disk: 0 });
        let cases = [
            ("cpus", MachineConfig::builder().topology(3, 44, 1)),
            ("memory_mb", MachineConfig::builder().topology(2, 45, 1)),
            ("disk count", MachineConfig::builder().topology(2, 44, 2)),
            ("seek scale", base().seek_scale(0.5)),
            ("scheduler", base().disk_scheduler(SchedulerKind::Hybrid)),
            ("scheme", base().scheme(Scheme::Smp)),
            ("fault plan", base().fault_plan(plan)),
            ("slice", tuned(&|t| t.slice = ms(2))),
            ("reserve_frac", tuned(&|t| t.reserve_frac = 0.2)),
            ("bw_threshold", tuned(&|t| t.bw_threshold = 1.0)),
            ("prefetch_windows", tuned(&|t| t.prefetch_windows = 1)),
            ("lookup_cost", tuned(&|t| t.lookup_cost = ms(1))),
            ("rw_inode_lock", tuned(&|t| t.rw_inode_lock = false)),
            ("ipi_revocation", tuned(&|t| t.ipi_revocation = true)),
            ("admission_cap", tuned(&|t| t.admission_cap = 3)),
            ("queue_cap", tuned(&|t| t.queue_cap = 2)),
            ("shed_policy", tuned(&|t| t.shed_policy = ShedPolicy::Codel)),
            ("request_timeout", tuned(&|t| t.request_timeout = ms(100))),
            ("request_max_retries", tuned(&|t| t.request_max_retries = 0)),
            ("retry_base", tuned(&|t| t.request_retry_base = ms(10))),
            ("retry_cap", tuned(&|t| t.request_retry_cap = ms(160))),
        ];
        for (field, changed) in cases {
            let changed = changed.build().unwrap().fingerprint_digest();
            assert_ne!(changed, digest, "{field} is not fingerprinted");
        }
    }

    #[test]
    fn tenants_build_hierarchical_spu_set() {
        let (_, spus) = MachineConfig::builder()
            .topology(4, 64, 2)
            .scheme(Scheme::PIso)
            .tenant("acme", 3)
            .service("web", 1)
            .service("batch", 2)
            .tenant("globex", 2)
            .service("api", 2)
            .build_with_spus()
            .unwrap();
        assert!(spus.is_hierarchical());
        assert_eq!(spus.user_count(), 3);
        assert_eq!(spus.weight(SpuId::user(1)), 2);
        assert_eq!(spus.path(SpuId::user(0)), "acme/web");
        assert_eq!(spus.path(SpuId::user(2)), "globex/api");
        assert_eq!(spus.tenant_of(SpuId::user(1)), Some(0));
        assert_eq!(spus.tenant_of(SpuId::user(2)), Some(1));
    }

    #[test]
    fn tenant_oversubscription_is_rejected_with_exact_message() {
        let err = MachineConfig::builder()
            .topology(4, 64, 2)
            .tenant("acme", 2)
            .service("web", 2)
            .service("batch", 1)
            .build_with_spus()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::TenantOversubscribed {
                tenant: "acme".to_string(),
                ceiling: 2,
                requested: 3,
            }
        );
        assert_eq!(
            err.to_string(),
            "tenant \"acme\" oversubscribed: services request 3 of ceiling 2"
        );
    }

    #[test]
    fn tenant_declaration_is_validated() {
        let err = MachineConfig::builder()
            .topology(4, 64, 2)
            .tenant("acme", 2)
            .build_with_spus()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::EmptyTenant {
                tenant: "acme".to_string()
            }
        );
        let err = MachineConfig::builder()
            .topology(4, 64, 2)
            .service("web", 1)
            .build_with_spus()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ServiceOutsideTenant {
                service: "web".to_string()
            }
        );
        let err = MachineConfig::builder()
            .topology(4, 64, 2)
            .tenant("acme", 2)
            .service("web", 0)
            .build_with_spus()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroShare { index: 0 });
    }

    #[test]
    fn tenants_and_flat_surfaces_last_call_wins() {
        // tenant() after spus() replaces the flat declaration...
        let (_, spus) = MachineConfig::builder()
            .topology(2, 44, 1)
            .spus(2, 9)
            .tenant("acme", 1)
            .service("web", 1)
            .build_with_spus()
            .unwrap();
        assert!(spus.is_hierarchical());
        assert_eq!(spus.user_count(), 1);
        // ...and spus() after tenant() drops the hierarchy again.
        let (_, spus) = MachineConfig::builder()
            .topology(2, 44, 1)
            .tenant("acme", 1)
            .service("web", 1)
            .spus(3, 1)
            .build_with_spus()
            .unwrap();
        assert!(!spus.is_hierarchical());
        assert_eq!(spus, SpuSet::equal_users(3));
    }

    #[test]
    fn spus_validates_through_share_pipeline() {
        let spus = |count, share| {
            MachineConfig::builder()
                .topology(2, 44, 1)
                .spus(count, share)
                .build_with_spus()
        };
        // Equal shares of 1 are exactly `SpuSet::equal_users`, with no
        // separate memory or disk weights.
        assert_eq!(spus(8, 1).unwrap().1, SpuSet::equal_users(8));
        assert_eq!(spus(0, 1).unwrap_err(), ConfigError::EmptyShares);
        assert_eq!(spus(2, 0).unwrap_err(), ConfigError::ZeroShare { index: 0 });
        // Without a declaration there is no SPU set to return.
        let err = MachineConfig::builder()
            .topology(2, 44, 1)
            .build_with_spus()
            .unwrap_err();
        assert_eq!(err, ConfigError::EmptyShares);
    }
}
