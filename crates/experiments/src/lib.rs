//! Experiment harnesses reproducing the paper's evaluation (§4).
//!
//! One module per artefact of the paper:
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`tables`] | Table 1, Table 2, Figures 1/4/6 (configurations) |
//! | [`pmake8`] | Figures 2 and 3 (§4.2) |
//! | [`cpu_iso`] | Figure 5 (§4.3) |
//! | [`mem_iso`] | Figure 7 (§4.4) |
//! | [`disk_bw`] | Tables 3 and 4 (§4.5) |
//! | [`fault_isolation`] | isolation under injected faults (robustness extension) |
//! | [`lock_leakage`] | §3.4 contention quantified via interference attribution |
//! | [`net_bw`] | network-bandwidth isolation (the §3.3/§5 extension) |
//! | [`scaling`] | load-scaling sweep of the isolation guarantee (extension) |
//! | [`ablation`] | §3.2 / §3.3 / §3.4 design-choice sweeps |
//! | [`overload`] | open-loop overload, admission control & shedding (robustness extension) |
//! | [`consolidation`] | hierarchical SPUs: tenant- and service-level isolation (hierarchy extension) |
//!
//! Every experiment has a [`Scale::Full`] variant (the paper's
//! parameters) and a [`Scale::Quick`] variant (same structure, smaller
//! jobs) used by the Criterion benches and tests. Results carry a
//! `format()` method producing the paper-shaped text table.
//!
//! All twelve harnesses implement the [`sweep::Scenario`] trait, so any
//! experiment matrix — or all of them, via [`sweep::all_scenarios`] —
//! can be driven by the deterministic parallel executor in [`sweep`].
//!
//! # Examples
//!
//! ```no_run
//! use experiments::{pmake8, Scale};
//! let result = pmake8::run(Scale::Full);
//! println!("{}", result.format());
//! ```

pub mod ablation;
pub mod cli;
pub mod consolidation;
pub mod cpu_iso;
pub mod disk_bw;
pub mod fault_isolation;
pub mod lock_leakage;
pub mod mem_iso;
pub mod net_bw;
pub mod overload;
pub mod pmake8;
pub mod report;
pub mod scaling;
pub mod sweep;
pub mod tables;

/// Scale of an experiment run: the paper's full configuration or a
/// smaller variant for quick benchmarking.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scale {
    /// The paper's configuration.
    #[default]
    Full,
    /// Reduced job sizes for fast iteration (same structure).
    Quick,
}

impl Scale {
    /// Short stable label ("full" / "quick"), for log lines.
    pub const fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
        }
    }
}
