//! A simulated IRIX-style SMP kernel with SPU performance isolation.
//!
//! This crate is the substrate of the reproduction: a deterministic
//! discrete-event model of the machine and kernel the paper modified —
//! processes with UNIX decay-usage priority scheduling (30 ms slices,
//! 10 ms ticks), a paged physical memory with per-SPU accounting, a file
//! buffer cache with read-ahead and write-behind, HP 97560 disks, and
//! kernel locks — plus the paper's three resource-management policies
//! (`SMP` / `Quota` / `PIso`) wired through every subsystem:
//!
//! * **CPU** (§3.1): hybrid space/time partition, idle-CPU loans, 10 ms
//!   revocation — [`sched`].
//! * **Memory** (§3.2): entitled/allowed/used page accounting, Reserve
//!   Threshold, shared-page re-marking — [`vm`].
//! * **Disk bandwidth** (§3.3): decayed sector counts and the
//!   BW-difference fairness criterion — wired to
//!   [`hp_disk`]'s schedulers.
//! * **Kernel locks** (§3.4): the inode-lock mutex → multi-reader fix —
//!   [`locks`].
//!
//! Entry point: build a [`MachineConfig`], boot a [`Kernel`], attach
//! [`Program`]s to SPUs, call [`Kernel::run`], read the [`RunMetrics`].
//!
//! # Examples
//!
//! ```
//! use event_sim::{SimDuration, SimTime};
//! use smp_kernel::{Kernel, MachineConfig, Program};
//! use spu_core::{Scheme, SpuId, SpuSet};
//!
//! // Two SPUs on a 2-CPU machine under performance isolation.
//! let cfg = MachineConfig::builder().topology(2, 32, 1).scheme(Scheme::PIso).build().unwrap();
//! let mut kernel = Kernel::new(cfg, SpuSet::equal_users(2));
//! let spin = Program::builder("spin")
//!     .compute(SimDuration::from_millis(100), 0)
//!     .build();
//! kernel.spawn_at(SpuId::user(0), spin.clone(), Some("a"), SimTime::ZERO);
//! kernel.spawn_at(SpuId::user(1), spin, Some("b"), SimTime::ZERO);
//! let m = kernel.run(SimTime::from_secs(5));
//! assert!(m.completed);
//! ```

mod admission;
pub mod bufcache;
pub mod config;
mod cpu;
pub mod error;
mod event;
pub mod export;
mod fastmap;
pub mod fs;
mod io;
pub mod kernel;
pub mod locks;
mod mem;
pub mod metrics;
pub mod obsv;
mod policy;
pub mod process;
pub mod program;
pub mod sched;
pub mod trace;
pub mod vm;

pub use bufcache::{BufferCache, CacheEntry, CacheStats};
pub use config::{
    ConfigError, DiskSetup, MachineConfig, MachineConfigBuilder, Tuning, PAGE_SIZE,
    SECTORS_PER_PAGE,
};
pub use error::KernelError;
pub use export::{chrome_trace_json, interference_matrix_json, metrics_jsonl};
pub use fs::{FileId, FileMeta, FileSystem};
pub use kernel::Kernel;
pub use locks::{LockId, LockTable};
pub use metrics::{JobRecord, RunMetrics};
pub use obsv::interference::{
    Channel, InterferenceMatrix, InterferenceReport, LockClass, SloReport, SloSample, SpuSlo,
};
pub use obsv::{
    CounterId, CounterRegistry, LatencyStats, ObsvReport, RequestReport, ResourceKind,
    ResourceSample, SampleSeries, SpuRequests,
};
pub use process::{BlockReason, JobId, MicroOp, PageState, Pid, ProcState, Process};
pub use program::{BarrierId, Program, ProgramBuilder, ProgramOp};
pub use sched::{CpuState, ProcTable, Scheduler};
pub use trace::{Trace, TraceEvent};
pub use vm::{Acquired, Evicted, Frame, FrameId, FrameOwner, MemoryManager, VmSpuStats};
