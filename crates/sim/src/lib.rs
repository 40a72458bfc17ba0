//! Deterministic discrete-event simulation engine.
//!
//! This crate provides the substrate every other crate in the workspace is
//! built on: a nanosecond-resolution simulated clock ([`SimTime`],
//! [`SimDuration`]), a stable-ordered event queue ([`EventQueue`]), a
//! deterministic pseudo-random number generator ([`SplitMix64`]) and small
//! statistics accumulators ([`stats`]).
//!
//! Everything here is intentionally free of OS time, threads, and global
//! state: a simulation run is a pure function of its inputs, which the paper
//! reproduction relies on for exact repeatability.
//!
//! # Examples
//!
//! ```
//! use event_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(10), "tick");
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "io");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "io");
//! assert_eq!(t, SimTime::from_millis(5));
//! ```

pub mod arrival;
pub mod fault;
pub mod fingerprint;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use arrival::{ArrivalPlan, ArrivalProcess};
pub use fault::{backoff_delay, FaultDomain, FaultEvent, FaultKind, FaultPlan};
pub use fingerprint::{Fingerprint, Fnv64};
pub use queue::EventQueue;
pub use rng::SplitMix64;
pub use stats::{LogHistogram, OnlineStats};
pub use time::{SimDuration, SimTime};
