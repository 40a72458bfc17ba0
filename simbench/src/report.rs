//! Turns a run's [`Outcome`] into named metrics, the printed tables and
//! the one-line JSON result.

use std::fmt::Write;
use std::time::Duration;

use event_sim::LogHistogram;

use crate::run::{CellTimes, Outcome};
use crate::stats::{percentile, tail_percentile};
use crate::trace::layer_times;

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value, `None` where the workload never exercised the layer.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: u64,
}

fn metric(name: &'static str, value: f64, unit: &'static str, n: u64) -> Metric {
    Metric {
        name,
        value: Some(value),
        unit,
        n,
    }
}

/// `num / den`, `None` when `den` is zero.
fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

fn ms(times: &[CellTimes], f: impl Fn(&CellTimes) -> Duration) -> Vec<f64> {
    times.iter().map(|t| f(t).as_secs_f64() * 1e3).collect()
}

/// Each cell's fastest pass.
fn fastest(o: &Outcome) -> Vec<CellTimes> {
    o.times
        .iter()
        .map(|passes| {
            *passes
                .iter()
                .min_by_key(|t| t.cell())
                .expect("at least one pass")
        })
        .collect()
}

/// Host ns in `Kernel::run` over the reference block, fastest pass per cell.
fn block_run_ns(o: &Outcome) -> f64 {
    fastest(o).iter().map(|t| t.run.as_nanos() as f64).sum()
}

/// The end-to-end metrics, from the untraced cells.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let n = o.times.len() as u64;
    // Like cell times, each cell's set-up is its fastest pass.
    let setup_s: Vec<f64> = o
        .times
        .iter()
        .map(|passes| {
            passes
                .iter()
                .map(|t| t.setup())
                .min()
                .expect("at least one pass")
        })
        .map(|d| d.as_secs_f64())
        .collect();
    let best = fastest(o);
    let cell_ms = ms(&best, CellTimes::cell);
    let b = &o.block;
    vec![
        metric(
            "setup_s",
            percentile(&setup_s, 50.0),
            "s",
            setup_s.len() as u64,
        ),
        metric(
            "sim_s_per_host_s",
            b.sim_s / (block_run_ns(o) / 1e9),
            "s/s",
            b.cells,
        ),
        metric("cell_ms_p50", percentile(&cell_ms, 50.0), "ms", n),
        metric("cell_ms_p95", percentile(&cell_ms, 95.0), "ms", n),
        metric("peak_rss_mb", o.peak_rss_mb, "MiB", 1),
        metric(
            "victim_tail_sim_ms",
            percentile(&b.victim_ms, tail_percentile(b.victim_ms.len())),
            "ms",
            b.victim_ms.len() as u64,
        ),
    ]
}

/// The per-layer metrics: rescaled span times from the traced re-run,
/// counts and host time per unit of work from the reference block.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let b = &o.block;
    let c = |name: &str| b.counter(name) as f64;
    let count = |name: &'static str| metric(name, c(name), "count", b.cells);
    let traced = o
        .traced
        .as_ref()
        .expect("per-layer metrics need the traced re-run");
    let n = traced.times.len() as u64;
    // Host times per layer: the spans' phases, rescaled like the cells.
    let total_ms = |f: fn(&CellTimes) -> Duration| ms(&traced.times, f).iter().sum::<f64>();
    let per_cell_ms = |f| total_ms(f) / n as f64;
    let spawn_calls = layer_times(&traced.spans)
        .get("kernel.spawn")
        .map_or(0, |t| t.calls);
    // The same cells untraced, in their first pass: like the traced
    // re-run, one pass in cell order.
    let first: Vec<CellTimes> = o.times[..traced.times.len()]
        .iter()
        .map(|passes| passes[0])
        .collect();
    let untraced = ms(&first, CellTimes::cell);
    let overhead =
        percentile(&ms(&traced.times, CellTimes::cell), 50.0) / percentile(&untraced, 50.0);
    let mut out = vec![
        metric("workloads.build_ms", per_cell_ms(|t| t.build), "ms", n),
        metric("kernel.boot_ms", per_cell_ms(|t| t.boot), "ms", n),
        metric(
            "kernel.spawn_us",
            total_ms(|t| t.spawn) * 1e3 / spawn_calls as f64,
            "us",
            spawn_calls,
        ),
        metric("kernel.run_ms", per_cell_ms(|t| t.run), "ms", n),
        metric("export.render_ms", per_cell_ms(|t| t.render), "ms", n),
        metric("trace.overhead_ratio", overhead, "ratio", n),
    ];
    let per_cell = |v: f64| v / b.cells as f64;
    out.extend([
        metric("kernel.sim_s", per_cell(b.sim_s), "s/cell", b.cells),
        metric(
            "kernel.spawn_calls",
            per_cell(b.spawn_calls as f64),
            "count/cell",
            b.cells,
        ),
        metric(
            "export.kib",
            per_cell(b.export_bytes as f64 / 1024.0),
            "KiB/cell",
            b.cells,
        ),
        count("sched.dispatches"),
        count("sched.preemptions"),
        count("sched.loans"),
        count("sched.ipis"),
        metric(
            "sched.host_ns_per_dispatch",
            block_run_ns(o) / c("sched.dispatches").max(1.0),
            "ns",
            b.cells,
        ),
        count("audit.checks"),
        count("vm.minor_faults"),
        count("vm.major_faults"),
        count("vm.swap_outs"),
        count("cache.hits"),
        count("cache.misses"),
        count("cache.fill_joins"),
        count("cache.flushed_blocks"),
        metric("disk.requests", b.disk_requests as f64, "count", b.cells),
        count("locks.acquires"),
        count("requests.arrivals"),
        count("requests.admitted"),
        count("requests.shed"),
        count("requests.expired"),
        metric(
            "interference.cpu_revoke_ms",
            per_cell(c("interference.cpu_revoke_nanos") / 1e6),
            "ms/cell",
            b.cells,
        ),
    ]);
    out
}

/// p99 of a pooled simulated latency histogram, µs.
fn p99_us(h: &Option<LogHistogram>) -> Option<f64> {
    h.as_ref().and_then(|h| h.percentile(99.0)).map(|s| s * 1e6)
}

/// Statistics printed for reading but not declared in `BENCHMARK.json`:
/// ratios and percentiles that are undefined on a workload that never
/// enters their layer, and counts that read 0 in every passing run.
pub fn undeclared(o: &Outcome) -> Vec<Metric> {
    let b = &o.block;
    let c = |name: &str| b.counter(name) as f64;
    let n = b.cells;
    let run_ns = block_run_ns(o);
    let m = |name, value, unit| Metric {
        name,
        value,
        unit,
        n,
    };
    let count = |name| m(name, Some(c(name)), "count");
    vec![
        m("sched.wake_dispatch_p99_sim_us", p99_us(&b.wake), "us"),
        m("sched.revoke_p99_sim_us", p99_us(&b.revoke), "us"),
        m(
            "vm.major_frac",
            ratio(
                c("vm.major_faults"),
                c("vm.minor_faults") + c("vm.major_faults"),
            ),
            "fraction",
        ),
        m(
            "vm.host_ns_per_fault",
            ratio(run_ns, c("vm.minor_faults") + c("vm.major_faults")),
            "ns",
        ),
        m(
            "cache.hit_frac",
            ratio(c("cache.hits"), c("cache.hits") + c("cache.misses")),
            "fraction",
        ),
        m(
            "disk.host_us_per_request",
            ratio(run_ns / 1e3, b.disk_requests as f64),
            "us",
        ),
        m(
            "disk.mean_seek_sim_ms",
            ratio(b.seek_s * 1e3, b.disk_requests as f64),
            "ms",
        ),
        m(
            "disk.victim_wait_sim_ms",
            ratio(b.victim_wait_s * 1e3, b.victim_requests as f64),
            "ms",
        ),
        m(
            "locks.contended_frac",
            ratio(c("locks.contended"), c("locks.acquires")),
            "fraction",
        ),
        m(
            "requests.admit_frac",
            ratio(c("requests.admitted"), c("requests.arrivals")),
            "fraction",
        ),
        m(
            "admission.host_us_per_arrival",
            ratio(run_ns / 1e3, c("requests.arrivals")),
            "us",
        ),
        count("audit.violations"),
        m("disk.errors", Some(b.disk_errors as f64), "count"),
        count("vm.denials"),
        count("locks.contended"),
        count("requests.retries"),
        m(
            "interference.lock_wait_ms",
            Some(c("interference.lock_wait_nanos") / 1e6 / n as f64),
            "ms/cell",
        ),
    ]
}

/// A printed table of metrics with units and sample counts.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{title}\n  {:<32} {:>16} {:<10} {:>8}\n",
        "metric", "value", "unit", "n"
    );
    for m in metrics {
        let value = m.value.map_or("-".to_string(), |v| format!("{v:.6}"));
        let _ = writeln!(
            out,
            "  {:<32} {:>16} {:<10} {:>8}",
            m.name, value, m.unit, m.n
        );
    }
    out
}

/// The one-line JSON result.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                m.value.expect("declared metrics always have a value"),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}
