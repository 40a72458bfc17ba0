//! `simbench`: the seeded end-to-end benchmark of the SPU simulator.
//!
//! Four workloads each load a different part of the simulator; every
//! run reports the end-to-end metrics a user of the simulator sees and,
//! when traced, a per-layer breakdown. See `README.md` in this package
//! for the workloads, metrics, bounds and how to run, bless, trace and
//! compare.

pub mod compare;
pub mod expected;
pub mod report;
pub mod run;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workload;

pub use workload::{Size, Workload};
