//! The tracked performance baseline: hot-path micro-benchmarks plus a
//! full `paper_tables --quick`-equivalent end-to-end sweep, serialized
//! to `BENCH_core.json` at the repository root.
//!
//! Run with:
//!
//! ```text
//! cargo bench --bench core
//! ```
//!
//! Before overwriting the baseline the bench prints the end-to-end
//! speedup of this tree against the committed numbers, so a `cargo
//! bench --bench core` in CI (or before a perf PR) immediately shows
//! the trajectory. Wall-clock numbers are machine-dependent: compare
//! ratios from the same machine, not absolute values across machines.
//!
//! Set `BENCH_CORE_OUT=/path/file.json` to redirect the output (CI
//! uploads the artifact from a scratch path without dirtying the
//! checkout).

use std::time::Instant;

use bench::micro_targets;
use criterion::{take_measurements, Criterion, Measurement};
use experiments::lock_leakage;
use experiments::sweep::{self, SweepOptions, SweepOutput};
use experiments::Scale;

fn main() {
    if !criterion::running_as_bench() {
        eprintln!("benchmarks skipped (run with `cargo bench`)");
        return;
    }

    // The hot-path micro targets.
    let mut c = Criterion::default();
    micro_targets::bench_event_queue(&mut c);
    micro_targets::bench_event_queue_burst(&mut c);
    micro_targets::bench_scheduler_pick(&mut c);
    micro_targets::bench_kernel_boot_512(&mut c);
    micro_targets::bench_kernel_run_512(&mut c);
    micro_targets::bench_scheduler_steal_512(&mut c);
    micro_targets::bench_fault_path(&mut c);
    micro_targets::bench_fault_resident(&mut c);
    micro_targets::bench_swapin_batch(&mut c);
    micro_targets::bench_bufcache_flush(&mut c);
    micro_targets::bench_disk_hybrid_deep_queue(&mut c);
    micro_targets::bench_export(&mut c);
    let micro = take_measurements();

    // End-to-end: every quick-scale scenario, serial — the
    // `paper_tables --quick` cells, except that the overload
    // matrix runs at its shrunk bench-tier horizon (schema v3).
    let start = Instant::now();
    let outputs = sweep::run_pool(&sweep::bench_scenarios(Scale::Quick), &SweepOptions::new());
    let total_s = start.elapsed().as_secs_f64();
    let cells: usize = outputs.iter().map(|o| o.stats.len()).sum();
    eprintln!("end_to_end/quick_sweep: {total_s:.3} s wall ({cells} cells)");

    // Attribution overhead: the same kernel bare vs fully instrumented
    // (interference matrix, SLO tracker, trace, sampling, all three
    // exports rendered). The ratio is what a tracker or exporter
    // regression moves.
    let start = Instant::now();
    let baseline = lock_leakage::run_baseline(Scale::Quick);
    let bare_s = start.elapsed().as_secs_f64();
    assert!(baseline.completed, "attribution baseline run hit its cap");
    let start = Instant::now();
    let inst = lock_leakage::run_instrumented(Scale::Quick);
    let matrix_json = smp_kernel::interference_matrix_json(inst.metrics.interference());
    let instrumented_s = start.elapsed().as_secs_f64();
    assert!(!matrix_json.is_empty());
    eprintln!(
        "attribution/overhead: bare {bare_s:.3} s, instrumented {instrumented_s:.3} s ({:.2}x)",
        instrumented_s / bare_s
    );

    // The committed baseline is always the comparison point, even when
    // the output is redirected (CI writes to a scratch path). Snapshot
    // it before writing: without `BENCH_CORE_OUT` the write below
    // replaces the very file the ratchet compares against.
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_core.json");
    let baseline_text = std::fs::read_to_string(committed).ok();
    let out_path = std::env::var("BENCH_CORE_OUT").unwrap_or_else(|_| committed.into());
    if let Some(baseline_s) = baseline_text.as_deref().and_then(baseline_total) {
        eprintln!(
            "speedup vs committed baseline: {:.2}x (baseline {baseline_s:.3} s)",
            baseline_s / total_s
        );
    }

    let json = render_json(&micro, &outputs, total_s, bare_s, instrumented_s);
    std::fs::write(&out_path, json).expect("write BENCH_core.json");
    eprintln!("wrote {out_path}");

    // Per-micro before/after table against the committed baseline,
    // printed for the log and (with `BENCH_DELTA_OUT` set) written for
    // CI to upload next to the JSON.
    let delta = delta_table(baseline_text.as_deref(), &micro, total_s);
    eprint!("{delta}");
    if let Ok(path) = std::env::var("BENCH_DELTA_OUT") {
        std::fs::write(&path, &delta).expect("write delta table");
        eprintln!("wrote {path}");
    }

    ratchet(baseline_text.as_deref(), &micro, total_s);
}

/// Renders the per-micro before/after table: committed baseline median
/// vs this run, with the ratio. New targets (no committed number yet)
/// and the end-to-end sweep total are included.
fn delta_table(baseline_text: Option<&str>, micro: &[Measurement], total_s: f64) -> String {
    use std::fmt::Write;
    let mut t = String::from("\nbench delta vs committed baseline\n");
    let _ = writeln!(
        t,
        "{:<28} {:>14} {:>14} {:>8}",
        "target", "baseline ns", "current ns", "ratio"
    );
    for m in micro {
        match baseline_text.and_then(|text| baseline_median_ns(text, &m.name)) {
            Some(base) => {
                let _ = writeln!(
                    t,
                    "{:<28} {:>14} {:>14} {:>7.2}x",
                    m.name,
                    base,
                    m.median_ns,
                    m.median_ns as f64 / base as f64
                );
            }
            None => {
                let _ = writeln!(
                    t,
                    "{:<28} {:>14} {:>14} {:>8}",
                    m.name, "(new)", m.median_ns, "-"
                );
            }
        }
    }
    match baseline_text.and_then(baseline_total) {
        Some(base_s) => {
            let _ = writeln!(
                t,
                "{:<28} {:>12.3} s {:>12.3} s {:>7.2}x",
                "end_to_end/quick_sweep",
                base_s,
                total_s,
                total_s / base_s
            );
        }
        None => {
            let _ = writeln!(
                t,
                "{:<28} {:>14} {:>12.3} s {:>8}",
                "end_to_end/quick_sweep", "(new)", total_s, "-"
            );
        }
    }
    t
}

/// Regression tolerance for the micro medians. Wide because shared CI
/// runners are noisy; a real algorithmic regression (O(1) pick turning
/// into a queue scan) lands far outside it.
const MICRO_TOLERANCE: f64 = 2.0;
/// Regression tolerance for the end-to-end quick sweep, which averages
/// over enough cells to be steadier than the micros.
const END_TO_END_TOLERANCE: f64 = 1.5;

/// Compares this run against the committed baseline and reports any
/// number that regressed beyond its tolerance band, and any difference
/// between the micros this bench measures and those the baseline lists
/// (a new micro with no committed number, or a committed one no longer
/// measured, would otherwise escape the ratchet). With
/// `BENCH_CORE_RATCHET` set (CI), either fails the bench; locally they
/// only warn, since absolute wall-clock differs across machines.
fn ratchet(baseline_text: Option<&str>, micro: &[Measurement], total_s: f64) {
    let Some(text) = baseline_text else {
        eprintln!("ratchet: no committed baseline, skipping");
        return;
    };
    let mut failures = Vec::new();
    for m in micro {
        let Some(base) = baseline_median_ns(text, &m.name) else {
            failures.push(format!(
                "{}: measured but not in the committed baseline",
                m.name
            ));
            continue;
        };
        let ratio = m.median_ns as f64 / base as f64;
        if ratio > MICRO_TOLERANCE {
            failures.push(format!(
                "{}: {} ns vs baseline {base} ns ({ratio:.2}x > {MICRO_TOLERANCE}x)",
                m.name, m.median_ns
            ));
        }
    }
    for name in baseline_micro_names(text) {
        if !micro.iter().any(|m| m.name == name) {
            failures.push(format!(
                "{name}: in the committed baseline but no longer measured"
            ));
        }
    }
    if let Some(base_s) = baseline_total(text) {
        let ratio = total_s / base_s;
        if ratio > END_TO_END_TOLERANCE {
            failures.push(format!(
                "end_to_end/quick_sweep: {total_s:.3} s vs baseline {base_s:.3} s \
                 ({ratio:.2}x > {END_TO_END_TOLERANCE}x)"
            ));
        }
    }
    if failures.is_empty() {
        eprintln!("ratchet: all tracked numbers within tolerance");
        return;
    }
    for f in &failures {
        eprintln!("ratchet FAIL: {f}");
    }
    if std::env::var("BENCH_CORE_RATCHET").is_ok() {
        eprintln!("ratchet: failing (BENCH_CORE_RATCHET set)");
        std::process::exit(1);
    }
    eprintln!("ratchet: warning only (set BENCH_CORE_RATCHET to enforce)");
}

/// The micro names the baseline's `micro` section lists, in file order
/// (one `"name": {...}` entry per line, as [`render_json`] writes them).
fn baseline_micro_names(text: &str) -> Vec<String> {
    let Some(section) = text.split("\"micro\": {").nth(1) else {
        return Vec::new();
    };
    section
        .lines()
        .map(str::trim)
        .take_while(|line| !line.starts_with('}'))
        .filter_map(|line| line.strip_prefix('"')?.split('"').next())
        .map(str::to_owned)
        .collect()
}

/// Extracts one micro target's committed `median_ns` from the baseline
/// text (same hand-rolled scan as [`baseline_total`]; no JSON
/// dependency in this workspace — the file is machine-written by this
/// bench, so each key appears exactly once).
fn baseline_median_ns(text: &str, name: &str) -> Option<u64> {
    let tail = text.split(&format!("\"{name}\":")).nth(1)?;
    let tail = tail.split("\"median_ns\":").nth(1)?;
    let num: String = tail
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    num.parse().ok()
}

/// Extracts `end_to_end.total_wall_s` from baseline text.
fn baseline_total(text: &str) -> Option<f64> {
    let tail = text.split("\"total_wall_s\":").nth(1)?;
    let num: String = tail
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
        .collect();
    num.parse().ok()
}

fn render_json(
    micro: &[Measurement],
    outputs: &[SweepOutput],
    total_s: f64,
    bare_s: f64,
    instrumented_s: f64,
) -> String {
    use std::fmt::Write;
    let mut j = String::new();
    // v3: the end-to-end sweep's overload cells moved to the shrunk
    // bench-tier horizon (scenario name `overload-bench`), so v2 wall
    // totals are not comparable; two fault-path micros were added.
    j.push_str("{\n  \"schema\": \"bench-core-v3\",\n  \"scale\": \"quick\",\n");
    let _ = writeln!(
        j,
        "  \"attribution\": {{\"bare_wall_s\": {bare_s:.6}, \"instrumented_wall_s\": {instrumented_s:.6}, \"overhead_ratio\": {:.4}}},",
        instrumented_s / bare_s
    );
    j.push_str("  \"micro\": {\n");
    for (i, m) in micro.iter().enumerate() {
        let _ = writeln!(
            j,
            "    \"{}\": {{\"median_ns\": {}, \"min_ns\": {}, \"samples\": {}}}{}",
            m.name,
            m.median_ns,
            m.min_ns,
            m.samples,
            if i + 1 < micro.len() { "," } else { "" }
        );
    }
    j.push_str("  },\n  \"end_to_end\": {\n");
    let _ = writeln!(j, "    \"total_wall_s\": {total_s:.6},");
    j.push_str("    \"scenarios\": [\n");
    for (si, out) in outputs.iter().enumerate() {
        let wall_us: u128 = out.stats.iter().map(|s| s.wall.as_micros()).sum();
        let _ = write!(
            j,
            "      {{\"scenario\": \"{}\", \"wall_us\": {wall_us}, \"cells\": [",
            out.name
        );
        for (ci, s) in out.stats.iter().enumerate() {
            let _ = write!(
                j,
                "{{\"cell\": \"{}\", \"wall_us\": {}}}{}",
                s.key,
                s.wall.as_micros(),
                if ci + 1 < out.stats.len() { ", " } else { "" }
            );
        }
        let _ = writeln!(j, "]}}{}", if si + 1 < outputs.len() { "," } else { "" });
    }
    j.push_str("    ]\n  }\n}\n");
    j
}
