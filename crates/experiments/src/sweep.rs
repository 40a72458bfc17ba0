//! The unified Scenario API and deterministic parallel sweep engine.
//!
//! Every experiment matrix in this crate — the paper's figures and
//! tables as well as the extensions — is a *sweep*: a set of
//! independent simulation cells (scheme × configuration, policy ×
//! workload, …) whose outcomes are reduced into one report. The
//! [`Scenario`] trait captures that shape once. [`run_scenario`] runs
//! one scenario and [`run_pool`] runs many; both use the same executor:
//!
//! * **Parallel fan-out** — cells are distributed over a scoped
//!   `std::thread` worker pool ([`SweepOptions::threads`]). Each cell is
//!   an isolated deterministic simulation, so cells can run in any
//!   order on any thread.
//! * **Deterministic merge** — outcomes land in a slot indexed by the
//!   cell's position in [`Scenario::cells`]'s declared order, never in
//!   completion order. Reduction and rendering therefore see exactly
//!   the sequence a serial run would produce, making parallel output
//!   *byte-identical* to serial output.
//! * **Per-cell counters** — wall-clock is reported through the
//!   existing `obsv` counter registry and its JSONL exporter
//!   ([`SweepRun::counters_jsonl`]).
//!
//! # Examples
//!
//! ```no_run
//! use experiments::sweep::{all_scenarios, SweepOptions};
//! use experiments::Scale;
//!
//! let opts = SweepOptions::new().threads(4);
//! for s in all_scenarios(Scale::Quick) {
//!     let out = s.run_boxed(&opts);
//!     println!("{}", out.text);
//! }
//! ```

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use smp_kernel::export::{json_escape, json_num};
use smp_kernel::{CounterRegistry, ObsvReport};

use crate::Scale;

// ---------------------------------------------------------------------------
// Outcome values
// ---------------------------------------------------------------------------

/// A structured cell outcome: the closed data model every [`Outcome`]
/// encodes into for the outcome export.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A float.
    F(f64),
    /// An unsigned integer.
    U(u64),
    /// A boolean.
    B(bool),
    /// A string.
    S(String),
    /// An ordered list.
    L(Vec<Value>),
}

impl Value {
    /// Builds a list value.
    pub fn list(items: Vec<Value>) -> Value {
        Value::L(items)
    }

    /// The float inside, if this is a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F(x) => Some(*x),
            _ => None,
        }
    }

    /// The integer inside, if this is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U(x) => Some(*x),
            _ => None,
        }
    }

    /// The items inside, if this is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::L(items) => Some(items),
            _ => None,
        }
    }

    /// JSON rendering, for the sweep's outcome export stream. Floats go
    /// through [`json_num`] (non-finite → `null`); the decimal form
    /// round-trips (Rust's shortest-representation `Display`).
    pub fn to_json(&self) -> String {
        match self {
            Value::F(x) => json_num(*x),
            Value::U(x) => x.to_string(),
            Value::B(x) => x.to_string(),
            Value::S(s) => format!("\"{}\"", json_escape(s)),
            Value::L(items) => {
                let inner: Vec<String> = items.iter().map(Value::to_json).collect();
                format!("[{}]", inner.join(","))
            }
        }
    }
}

/// A cell outcome the sweep can export: each cell's outcome becomes the
/// `outcome` field of its line in [`SweepRun::outcomes_jsonl`].
pub trait Outcome: Send + 'static {
    /// Encodes the outcome as a [`Value`].
    fn encode(&self) -> Value;
}

impl Outcome for f64 {
    fn encode(&self) -> Value {
        Value::F(*self)
    }
}

impl Outcome for String {
    fn encode(&self) -> Value {
        Value::S(self.clone())
    }
}

/// [`Value`] is its own outcome — the escape hatch for scenarios whose
/// cells measure different things (e.g. the ablation matrix).
impl Outcome for Value {
    fn encode(&self) -> Value {
        self.clone()
    }
}

// ---------------------------------------------------------------------------
// The Scenario trait
// ---------------------------------------------------------------------------

/// One experiment matrix: a named set of independent cells and a
/// reduction of their outcomes into a report.
///
/// Implementations must keep two properties the engine builds on:
///
/// 1. **Cell independence** — [`run_cell`](Self::run_cell) reads only
///    `self` and the cell; cells may run concurrently in any order.
/// 2. **Determinism** — equal cells produce equal outcomes (the
///    simulations are pure functions of their inputs).
pub trait Scenario {
    /// One point of the matrix.
    type Cell: Send + Sync + 'static;
    /// The measurement a cell produces.
    type Outcome: Outcome;
    /// The reduced result (usually an existing `*Result` type).
    type Report;

    /// Stable scenario name (the `scenario` field of the outcome export).
    fn name(&self) -> &'static str;

    /// The cells in their canonical (declared) order. The merge order —
    /// and therefore all rendered output — follows this order exactly.
    fn cells(&self) -> Vec<Self::Cell>;

    /// A short key for a cell, unique within the scenario (e.g.
    /// `"piso-unbalanced"`): the `cell` field of the outcome export.
    fn cell_key(&self, cell: &Self::Cell) -> String;

    /// Runs one cell to its outcome.
    fn run_cell(&self, cell: &Self::Cell) -> Self::Outcome;

    /// Reduces the outcomes (in [`cells`](Self::cells) order) to the
    /// report.
    fn reduce(&self, outcomes: Vec<Self::Outcome>) -> Self::Report;
}

/// A report that can be rendered for humans — required for the
/// type-erased [`AnyScenario`] driver.
pub trait Render {
    /// The text tables / figures for this report.
    fn render(&self) -> String;
}

// ---------------------------------------------------------------------------
// Executor options and run products
// ---------------------------------------------------------------------------

/// How to execute a sweep.
#[derive(Clone, Debug, Default)]
pub struct SweepOptions {
    /// Worker threads; 0 or 1 runs serially on the calling thread.
    pub threads: usize,
}

impl SweepOptions {
    /// Serial execution (the default).
    pub fn new() -> Self {
        SweepOptions::default()
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Wall-clock accounting for one executed cell.
#[derive(Clone, Debug)]
pub struct CellStat {
    /// The cell's key.
    pub key: String,
    /// Wall-clock time spent simulating the cell.
    pub wall: Duration,
}

/// The product of [`run_scenario`]: the reduced report plus per-cell
/// accounting and the deterministic outcome export.
#[derive(Clone, Debug)]
pub struct SweepRun<R> {
    /// The scenario's reduced report.
    pub report: R,
    /// Per-cell stats in cell order. Wall-clock values vary run to run;
    /// they never feed the report or the JSONL export.
    pub stats: Vec<CellStat>,
    /// One JSON line per cell (`scenario`, `cell`, `outcome`) in cell
    /// order — deterministic, byte-identical however the sweep ran.
    pub outcomes_jsonl: String,
}

impl<R> SweepRun<R> {
    /// Sweep counters through the existing `obsv` registry: total cells,
    /// total and per-cell wall-clock (µs).
    pub fn counters(&self) -> CounterRegistry {
        stats_counters(&self.stats)
    }

    /// The counters as JSONL via the existing exporter
    /// ([`smp_kernel::counters_jsonl`]).
    pub fn counters_jsonl(&self) -> String {
        stats_counters_jsonl(&self.stats)
    }

    /// Human-readable per-cell timing lines (wall-clock is
    /// run-dependent; for logs and CI, not for result files).
    pub fn timing_summary(&self) -> String {
        stats_timing_summary(&self.stats)
    }
}

fn stats_counters(stats: &[CellStat]) -> CounterRegistry {
    let mut c = CounterRegistry::new();
    c.set("sweep.cells", stats.len() as u64);
    let total: Duration = stats.iter().map(|s| s.wall).sum();
    c.set("sweep.wall_us", total.as_micros() as u64);
    for s in stats {
        c.set(
            &format!("sweep.cell.{}.wall_us", s.key),
            s.wall.as_micros() as u64,
        );
    }
    c
}

fn stats_counters_jsonl(stats: &[CellStat]) -> String {
    let report = ObsvReport {
        counters: stats_counters(stats),
        ..ObsvReport::default()
    };
    smp_kernel::counters_jsonl(&report)
}

fn stats_timing_summary(stats: &[CellStat]) -> String {
    let mut out = String::new();
    let total: Duration = stats.iter().map(|s| s.wall).sum();
    for s in stats {
        out.push_str(&format!(
            "  {:<28} {:>9.1} ms\n",
            s.key,
            s.wall.as_secs_f64() * 1e3
        ));
    }
    out.push_str(&format!(
        "  {:<28} {:>9.1} ms  ({} cells)\n",
        "total",
        total.as_secs_f64() * 1e3,
        stats.len()
    ));
    out
}

// ---------------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------------

/// A cell's outcome on its way through the worker pool, type-erased so
/// cells of scenarios with different [`Scenario::Outcome`] types share
/// one work list. [`AnyScenario::assemble`] downcasts it back.
pub type AnyOutcome = Box<dyn Any + Send>;

/// One ready-to-run cell: simulates the cell and returns its outcome.
/// Produced by [`AnyScenario::erased_jobs`], consumed by [`run_pool`].
pub type ErasedJob<'s> = Box<dyn Fn() -> AnyOutcome + Send + Sync + 's>;

/// The scenario's cell keys, in declared order.
///
/// # Panics
///
/// Panics if two cells share a key.
fn cell_keys<S: Scenario>(scenario: &S, cells: &[S::Cell]) -> Vec<String> {
    let keys: Vec<String> = cells.iter().map(|c| scenario.cell_key(c)).collect();
    for (i, k) in keys.iter().enumerate() {
        assert!(
            !keys[..i].contains(k),
            "scenario {}: duplicate cell key {k:?}",
            scenario.name()
        );
    }
    keys
}

/// The scenario's cells as jobs, in declared order. Checks the keys
/// before any cell runs.
fn cell_jobs<S: Scenario + Sync>(scenario: &S) -> Vec<ErasedJob<'_>> {
    let cells = scenario.cells();
    cell_keys(scenario, &cells);
    cells
        .into_iter()
        .map(|cell| {
            Box::new(move || Box::new(scenario.run_cell(&cell)) as AnyOutcome) as ErasedJob<'_>
        })
        .collect()
}

/// The worker pool: runs every job on up to `threads` workers and
/// returns each outcome with its wall-clock, in job order.
///
/// A panicking job panics the caller with the job's own payload, once
/// every worker has stopped.
fn execute(jobs: &[&ErasedJob<'_>], threads: usize) -> Vec<(AnyOutcome, Duration)> {
    let timed = |job: &ErasedJob<'_>| {
        let start = Instant::now();
        let outcome = job();
        (outcome, start.elapsed())
    };
    let n = jobs.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return jobs.iter().map(|job| timed(job)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<(AnyOutcome, Duration)>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, timed(jobs[i])));
                    }
                })
            })
            .collect();
        for worker in workers {
            let done = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("a worker ran every job"))
        .collect()
}

/// Turns the jobs' results (in declared cell order) into a run: the
/// one writer of the outcome JSONL, and the reduction.
fn assemble_run<S: Scenario>(
    scenario: &S,
    results: Vec<(AnyOutcome, Duration)>,
) -> SweepRun<S::Report> {
    let keys = cell_keys(scenario, &scenario.cells());
    assert_eq!(
        results.len(),
        keys.len(),
        "scenario {}: one result per cell",
        scenario.name()
    );
    let name = json_escape(scenario.name());
    let mut outcomes = Vec::with_capacity(keys.len());
    let mut stats = Vec::with_capacity(keys.len());
    let mut outcomes_jsonl = String::new();
    for ((outcome, wall), key) in results.into_iter().zip(keys) {
        let outcome = *outcome
            .downcast::<S::Outcome>()
            .expect("a scenario's jobs return its Outcome type");
        outcomes_jsonl.push_str(&format!(
            "{{\"scenario\":\"{name}\",\"cell\":\"{}\",\"outcome\":{}}}\n",
            json_escape(&key),
            outcome.encode().to_json()
        ));
        outcomes.push(outcome);
        stats.push(CellStat { key, wall });
    }
    SweepRun {
        report: scenario.reduce(outcomes),
        stats,
        outcomes_jsonl,
    }
}

/// Executes a scenario under `opts` and reduces it to its report: a
/// one-scenario [`run_pool`] that keeps the report typed.
///
/// Output is byte-identical for any thread count: outcomes merge in
/// declared cell order, and wall-clock only ever lands in
/// [`SweepRun::stats`].
///
/// # Panics
///
/// Panics if two cells share a key, or if a cell panics (cell
/// assertion failures propagate with their own message at any thread
/// count).
pub fn run_scenario<S>(scenario: &S, opts: &SweepOptions) -> SweepRun<S::Report>
where
    S: Scenario + Sync,
{
    let jobs = cell_jobs(scenario);
    let results = execute(&jobs.iter().collect::<Vec<_>>(), opts.threads);
    assemble_run(scenario, results)
}

// ---------------------------------------------------------------------------
// Type-erased scenarios for uniform drivers
// ---------------------------------------------------------------------------

/// The type-erased product of a sweep: what a generic driver (the
/// `paper_tables` example, the determinism tests, CI) consumes.
#[derive(Clone, Debug)]
pub struct SweepOutput {
    /// The scenario's name.
    pub name: &'static str,
    /// The rendered report ([`Render::render`]).
    pub text: String,
    /// The deterministic per-cell outcome export
    /// ([`SweepRun::outcomes_jsonl`]).
    pub outcomes_jsonl: String,
    /// Per-cell stats in cell order.
    pub stats: Vec<CellStat>,
}

impl SweepOutput {
    fn rendered<R: Render>(name: &'static str, run: SweepRun<R>) -> SweepOutput {
        SweepOutput {
            name,
            text: run.report.render(),
            outcomes_jsonl: run.outcomes_jsonl,
            stats: run.stats,
        }
    }

    /// Sweep counters through the existing `obsv` registry.
    pub fn counters(&self) -> CounterRegistry {
        stats_counters(&self.stats)
    }

    /// The counters as JSONL via [`smp_kernel::counters_jsonl`].
    pub fn counters_jsonl(&self) -> String {
        stats_counters_jsonl(&self.stats)
    }

    /// Human-readable per-cell timing lines.
    pub fn timing_summary(&self) -> String {
        stats_timing_summary(&self.stats)
    }
}

/// Object-safe face of [`Scenario`], for heterogeneous scenario lists.
/// Blanket-implemented for every `Scenario` whose report is
/// [`Render`]able.
pub trait AnyScenario: Sync {
    /// The scenario's stable name.
    fn scenario_name(&self) -> &'static str;

    /// How many cells the scenario fans out.
    fn cell_count(&self) -> usize;

    /// Runs the sweep and renders the report.
    fn run_boxed(&self, opts: &SweepOptions) -> SweepOutput;

    /// The scenario's cells as self-contained jobs, in declared order.
    ///
    /// # Panics
    ///
    /// Panics if two cells share a key (same contract as
    /// [`run_scenario`]).
    fn erased_jobs(&self) -> Vec<ErasedJob<'_>>;

    /// Rebuilds the full [`SweepOutput`] from the jobs' outcomes and
    /// wall-clock, handed back in the same declared order.
    fn assemble(&self, results: Vec<(AnyOutcome, Duration)>) -> SweepOutput;
}

impl<S> AnyScenario for S
where
    S: Scenario + Sync,
    S::Report: Render,
{
    fn scenario_name(&self) -> &'static str {
        self.name()
    }

    fn cell_count(&self) -> usize {
        self.cells().len()
    }

    fn run_boxed(&self, opts: &SweepOptions) -> SweepOutput {
        SweepOutput::rendered(self.name(), run_scenario(self, opts))
    }

    fn erased_jobs(&self) -> Vec<ErasedJob<'_>> {
        cell_jobs(self)
    }

    fn assemble(&self, results: Vec<(AnyOutcome, Duration)>) -> SweepOutput {
        SweepOutput::rendered(self.name(), assemble_run(self, results))
    }
}

/// Runs many scenarios' cells through **one** worker pool.
///
/// Byte-for-byte equivalent to calling [`AnyScenario::run_boxed`] on
/// each scenario in turn with the same options, but without a barrier
/// between matrices: workers drain a single global work list, so the
/// wall-clock floor is the longest *cell*, not the longest *matrix*.
/// Each scenario reassembles its own outcomes in declared cell order.
///
/// # Panics
///
/// As [`run_scenario`]: on a duplicate cell key in any scenario, or when
/// a cell panics.
pub fn run_pool(scenarios: &[Box<dyn AnyScenario>], opts: &SweepOptions) -> Vec<SweepOutput> {
    let per_scenario: Vec<Vec<ErasedJob>> = scenarios.iter().map(|s| s.erased_jobs()).collect();
    let flat: Vec<&ErasedJob> = per_scenario.iter().flatten().collect();
    let mut results = execute(&flat, opts.threads).into_iter();
    scenarios
        .iter()
        .zip(&per_scenario)
        .map(|(scenario, jobs)| scenario.assemble(results.by_ref().take(jobs.len()).collect()))
        .collect()
}

/// Every harness in this crate as a type-erased scenario, in the order
/// the paper presents its artefacts. This is the matrix the
/// `paper_tables` example and the determinism tests drive.
pub fn all_scenarios(scale: Scale) -> Vec<Box<dyn AnyScenario>> {
    vec![
        Box::new(crate::tables::TablesScenario),
        Box::new(crate::pmake8::Pmake8Scenario { scale }),
        Box::new(crate::cpu_iso::CpuIsoScenario { scale }),
        Box::new(crate::mem_iso::MemIsoScenario { scale }),
        Box::new(crate::disk_bw::DiskBwScenario::both(scale)),
        Box::new(crate::fault_isolation::FaultIsolationScenario { scale }),
        Box::new(crate::lock_leakage::LockLeakageScenario { scale }),
        Box::new(crate::net_bw::NetBwScenario { scale }),
        Box::new(crate::scaling::ScalingScenario::standard(scale)),
        Box::new(crate::ablation::AblationScenario::standard(scale)),
        Box::new(crate::overload::OverloadScenario::seed(scale)),
        Box::new(crate::consolidation::ConsolidationScenario::seed(scale)),
    ]
}

/// The `core` bench's end-to-end matrix: identical to [`all_scenarios`]
/// except the overload matrix runs at its shrunk bench-tier horizon —
/// same scheme × policy × load shape, a quarter of the arrivals. The
/// quick-scale overload cells dominated the tracked sweep's wall clock
/// while contributing no extra coverage to the perf baseline; the
/// `paper_tables` exports keep using [`all_scenarios`] unchanged.
pub fn bench_scenarios(scale: Scale) -> Vec<Box<dyn AnyScenario>> {
    let mut v = all_scenarios(scale);
    let i = v
        .iter()
        .position(|s| s.scenario_name() == "overload")
        .expect("overload scenario present");
    v[i] = Box::new(crate::overload::OverloadScenario::bench(scale));
    v
}

/// Parses `--threads N` from a command line (the examples' shared
/// convention); defaults to 1 (serial).
pub fn threads_from_args(args: &[String]) -> usize {
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == "--threads" {
            if let Some(n) = iter.next().and_then(|v| v.parse().ok()) {
                return n;
            }
        } else if let Some(v) = a.strip_prefix("--threads=") {
            if let Ok(n) = v.parse() {
                return n;
            }
        }
    }
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy scenario: squares each cell value, reduce = sum.
    struct Squares(Vec<u64>);

    struct Sum(u64);

    impl Render for Sum {
        fn render(&self) -> String {
            format!("sum={}\n", self.0)
        }
    }

    impl Scenario for Squares {
        type Cell = u64;
        type Outcome = f64;
        type Report = Sum;

        fn name(&self) -> &'static str {
            "squares"
        }
        fn cells(&self) -> Vec<u64> {
            self.0.clone()
        }
        fn cell_key(&self, cell: &u64) -> String {
            format!("cell{cell}")
        }
        fn run_cell(&self, cell: &u64) -> f64 {
            // A harness assert, as in quickstart's `assert!(metrics.completed)`.
            assert!(*cell != 13, "cell 13 failed its assertion");
            (*cell * *cell) as f64
        }
        fn reduce(&self, outcomes: Vec<f64>) -> Sum {
            Sum(outcomes.iter().map(|&x| x as u64).sum())
        }
    }

    fn squares(inputs: &[u64]) -> Squares {
        Squares(inputs.to_vec())
    }

    #[test]
    fn parallel_matches_serial_byte_for_byte() {
        let s = squares(&[1, 2, 3, 4, 5, 6, 7]);
        let serial = run_scenario(&s, &SweepOptions::new());
        for threads in [2, 4, 8] {
            let par = run_scenario(&s, &SweepOptions::new().threads(threads));
            assert_eq!(par.report.render(), serial.report.render());
            assert_eq!(par.outcomes_jsonl, serial.outcomes_jsonl);
        }
        assert_eq!(serial.report.0, 1 + 4 + 9 + 16 + 25 + 36 + 49);
    }

    #[test]
    fn pooled_execution_matches_per_scenario_runs() {
        let pool: Vec<Box<dyn AnyScenario>> = vec![
            Box::new(squares(&[1, 2, 3])),
            Box::new(squares(&[4, 5, 6, 7])),
        ];
        let serial: Vec<SweepOutput> = pool
            .iter()
            .map(|s| s.run_boxed(&SweepOptions::new()))
            .collect();
        for threads in [1, 2, 8] {
            let pooled = run_pool(&pool, &SweepOptions::new().threads(threads));
            assert_eq!(pooled.len(), serial.len());
            for (a, b) in serial.iter().zip(&pooled) {
                assert_eq!(a.text, b.text, "pooled report text diverged");
                assert_eq!(a.outcomes_jsonl, b.outcomes_jsonl, "pooled export diverged");
                assert_eq!(a.stats.len(), b.stats.len());
            }
        }
    }

    #[test]
    fn a_panicking_cell_panics_both_executors() {
        let message = |payload: Box<dyn Any + Send>| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        };
        for threads in [1, 4] {
            let opts = SweepOptions::new().threads(threads);
            let solo = std::panic::catch_unwind(|| {
                run_scenario(&squares(&[1, 13, 2, 3]), &opts);
            });
            let pooled = std::panic::catch_unwind(|| {
                let pool: Vec<Box<dyn AnyScenario>> =
                    vec![Box::new(squares(&[1, 2])), Box::new(squares(&[3, 13, 4]))];
                run_pool(&pool, &opts);
            });
            for (executor, result) in [("run_scenario", solo), ("run_pool", pooled)] {
                let payload = result.expect_err(executor);
                assert!(
                    message(payload).contains("cell 13 failed its assertion"),
                    "{executor} at {threads} threads lost the cell's panic message"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate cell key")]
    fn duplicate_cell_keys_panic() {
        let s = squares(&[2, 2]);
        run_scenario(&s, &SweepOptions::new());
    }

    #[test]
    fn counters_report_cells_and_wall_clock() {
        let s = squares(&[1, 2, 3]);
        let run = run_scenario(&s, &SweepOptions::new());
        let c = run.counters();
        assert_eq!(c.get("sweep.cells"), 3);
        let jsonl = run.counters_jsonl();
        assert!(jsonl.contains("sweep.cells") && jsonl.contains("sweep.cell.cell2.wall_us"));
        let timing = run.timing_summary();
        assert!(timing.contains("cell1") && timing.contains("total"));
    }

    #[test]
    fn threads_from_args_parses_both_forms() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(threads_from_args(&args(&["--threads", "4"])), 4);
        assert_eq!(threads_from_args(&args(&["--threads=8"])), 8);
        assert_eq!(threads_from_args(&args(&["--quick"])), 1);
        assert_eq!(threads_from_args(&args(&["--threads", "bogus"])), 1);
    }
}
