//! The `simbench` command line.
//!
//! ```text
//! simbench [--workload W|all] [--seed S] [--seconds N] [--trace 0|1|PATH] [--json PATH]
//! simbench --bless [--workload W|all]
//! simbench --compare BASE1.json,... HEAD1.json,...
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics, or with `--trace` the per-layer ones. `--workload all`
//! runs every workload in a fresh child process, one at a time, so that
//! `peak_rss_mb` is each workload's own.

use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};

use event_sim::Fnv64;
use simbench::compare::{self, field, parse_benchmark, Benchmark};
use simbench::expected::{self, committed_digests, expected_path, package_path, BLESSED_SEEDS};
use simbench::report;
use simbench::run::{self, Options, MIN_PASSES};
use simbench::speed::REFERENCE;
use simbench::stats::tail_percentile;
use simbench::trace::{chrome_trace_json, layer_table};
use simbench::Workload;

const USAGE: &str =
    "usage: simbench [--workload W|all] [--seed S] [--seconds N] [--trace 0|1|PATH] [--json PATH]
       simbench --bless [--workload W|all]
       simbench --compare BASE1.json,... HEAD1.json,...";

struct Args {
    workloads: Vec<Workload>,
    all: bool,
    seed: u64,
    /// `--seconds`; else `run_seconds` from `BENCHMARK.json`.
    seconds: Option<f64>,
    /// `--trace` when not `0`: `1`, or the path to write the trace to.
    trace: Option<String>,
    json: Option<PathBuf>,
    bless: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        all: true,
        seed: 1,
        seconds: None,
        trace: None,
        json: None,
        bless: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.all = name == "all";
                if !args.all {
                    let w = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
                    args.workloads = vec![w];
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                args.seconds = Some(seconds);
            }
            "--trace" => args.trace = Some(value()?).filter(|v| v != "0"),
            "--json" => args.json = Some(PathBuf::from(value()?)),
            "--bless" => args.bless = true,
            "--compare" => {
                let base = value()?;
                args.compare = Some((base, value()?));
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Fixes glibc's malloc thresholds for the whole run. By default glibc
/// raises its mmap threshold as large blocks are freed and returns heap
/// memory to the system in between, so whether a cell's set-up re-faults
/// its pages varies from process to process: `setup_s` on
/// `service_overload` read either about 2.2 ms or about 2.8 ms, run to
/// run, on the same seed. With fixed thresholds every run reads the same
/// mode. Only this runner pins them: the examples, experiments and tests
/// run under glibc's defaults, so the benchmark's host times do not show
/// a change whose effect depends on the adaptive thresholds.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_thresholds() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    for (param, value) in [(M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 256 << 20)] {
        // SAFETY: the declaration matches glibc's
        // `int mallopt(int param, int value)`, which has no precondition
        // beyond its signature and only changes malloc's tuning.
        if unsafe { mallopt(param, value) } != 1 {
            eprintln!("simbench: mallopt({param}, {value}) failed");
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_thresholds() {}

fn main() {
    pin_malloc_thresholds();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("simbench: {e}\n{USAGE}");
        exit(2);
    });
    let ok = if let Some((base, head)) = &args.compare {
        compare_files(base, head)
    } else if args.bless {
        args.workloads.iter().all(|&w| bless(w))
    } else if args.all {
        run_children(&args)
    } else {
        run_one(&args, args.workloads[0])
    };
    exit(if ok { 0 } else { 1 });
}

/// Where a traced run of `w` writes its Chrome trace: `out/trace-<w>.json`
/// in this package for `--trace 1`, else the given path with `-<w>`
/// inserted before its extension when several workloads run.
fn trace_path(arg: &str, w: Workload, several: bool) -> PathBuf {
    if arg == "1" {
        return package_path(&format!("out/trace-{}.json", w.name()));
    }
    let path = PathBuf::from(arg);
    if !several {
        return path;
    }
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    path.with_file_name(format!("{stem}-{}.json", w.name()))
}

fn block_digest(digests: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for &d in digests {
        h.write_u64(d);
    }
    h.finish()
}

/// The parts of `BENCHMARK.json` the runner reads, from the repository
/// root.
fn benchmark() -> Option<Benchmark> {
    let path = package_path("../BENCHMARK.json");
    let bench = std::fs::read_to_string(&path)
        .ok()
        .as_deref()
        .and_then(parse_benchmark);
    if bench.is_none() {
        eprintln!("simbench: cannot read {}", path.display());
    }
    bench
}

fn run_one(args: &Args, w: Workload) -> bool {
    let Some(seconds) = args
        .seconds
        .or_else(|| benchmark().map(|b| b.run_seconds as f64))
    else {
        return false;
    };
    let opts = Options {
        workload: w,
        seed: args.seed,
        passes: run::passes(w, seconds),
        trace: args.trace.is_some(),
        expected: BLESSED_SEEDS
            .contains(&args.seed)
            .then(|| committed_digests(w, args.seed)),
    };
    let o = run::run(&opts);
    let attempted = o.times.len() as u64;
    let failed = o.failures.len() as u64;
    println!(
        "simbench {} seed={} cells={attempted} passes={} (first {:.2} s) \
         probe={:.3} ms (reference {:.3} ms) failed={failed} block_digest={:016x} ({})",
        w.name(),
        args.seed,
        opts.passes,
        o.first_pass.as_secs_f64(),
        o.probe.as_secs_f64() * 1e3,
        REFERENCE.as_secs_f64() * 1e3,
        block_digest(&o.digests),
        if opts.expected.is_some() {
            "checked against committed digests"
        } else {
            "no committed digests for this seed"
        }
    );
    for (cell, reason) in &o.failures {
        println!("FAILED cell {cell}: {reason}");
    }
    let e2e = report::end_to_end(&o);
    print!("{}", report::table("end-to-end (untraced)", &e2e));
    let victims = o.block.victim_ms.len();
    println!(
        "  victim_tail_sim_ms is the p{} of {victims} victim responses",
        tail_percentile(victims)
    );
    let declared = if let Some(arg) = &args.trace {
        let path = &trace_path(arg, w, false);
        let traced = o.traced.as_ref().expect("traced run");
        let layers = report::per_layer(&o);
        print!("{}", report::table("per-layer", &layers));
        print!(
            "{}",
            report::table(
                "not in BENCHMARK.json: undefined where a workload skips the layer, or 0 on all",
                &report::undeclared(&o)
            )
        );
        println!("layer self time over {} traced cells", traced.times.len());
        print!("{}", layer_table(&traced.spans));
        if let Err(e) = write(path, &chrome_trace_json(&traced.spans, w.name())) {
            eprintln!("simbench: writing {}: {e}", path.display());
            return false;
        }
        println!("wrote {}", path.display());
        layers
    } else {
        e2e
    };
    let line = report::json_line(failed == 0, attempted, failed, &declared);
    if let Some(path) = &args.json {
        if let Err(e) = write(path, &tagged(w, args.seed, &line)) {
            eprintln!("simbench: writing {}: {e}", path.display());
            return false;
        }
    }
    println!("{line}");
    failed == 0
}

/// A result line labelled with its workload and seed, as `--json`
/// writes it and `--compare` reads it.
fn tagged(w: Workload, seed: u64, line: &str) -> String {
    let fields = line.strip_prefix('{').unwrap_or(line);
    format!("{{\"workload\":\"{}\",\"seed\":{seed},{fields}\n", w.name())
}

fn write(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Runs every workload in a fresh child process, one at a time.
fn run_children(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    let mut lines = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for &w in &args.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .stderr(Stdio::inherit());
        if let Some(seconds) = args.seconds {
            cmd.args(["--seconds", &seconds.to_string()]);
        }
        if let Some(arg) = &args.trace {
            cmd.arg("--trace").arg(trace_path(arg, w, true));
        }
        let out = cmd.output().expect("start a workload child process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut child_lines: Vec<&str> = stdout.lines().collect();
        let last = child_lines.pop().unwrap_or_default().to_string();
        for l in child_lines {
            println!("{l}");
        }
        ok &= out.status.success();
        if !last.starts_with('{') {
            eprintln!("simbench: {} printed no result", w.name());
            ok = false;
            continue;
        }
        attempted += compare::number(&last, "attempted").unwrap_or(0.0) as u64;
        failed += compare::number(&last, "failed").unwrap_or(1.0) as u64;
        lines.push((w, last));
    }
    if let Some(path) = &args.json {
        let text: String = lines
            .iter()
            .map(|(w, l)| tagged(*w, args.seed, l))
            .collect();
        if let Err(e) = write(path, &text) {
            eprintln!("simbench: writing {}: {e}", path.display());
            ok = false;
        }
    }
    let nested: Vec<String> = lines
        .iter()
        .map(|(w, l)| format!("\"{}\":{l}", w.name()))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"workloads\":{{{}}}}}",
        ok && failed == 0,
        nested.join(",")
    );
    ok && failed == 0
}

/// Regenerates `expected/<workload>.txt` from the reference block of
/// every blessed seed. Refuses when a cell fails any other check.
fn bless(w: Workload) -> bool {
    let mut blocks = Vec::new();
    for seed in BLESSED_SEEDS {
        let o = run::run(&Options {
            workload: w,
            seed,
            passes: MIN_PASSES,
            trace: false,
            expected: None,
        });
        if let Some((cell, reason)) = o.failures.first_key_value() {
            eprintln!(
                "simbench: not blessing {} seed {seed}: cell {cell} {reason}",
                w.name()
            );
            return false;
        }
        blocks.push((seed, o.digests));
    }
    let path = expected_path(w);
    match write(&path, &expected::render(w, &blocks)) {
        Ok(()) => {
            println!("blessed {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("simbench: writing {}: {e}", path.display());
            false
        }
    }
}

fn read_lines(files: &str) -> Vec<String> {
    files
        .split(',')
        .flat_map(|f| match std::fs::read_to_string(f) {
            Ok(text) => text.lines().map(str::to_string).collect::<Vec<_>>(),
            Err(e) => {
                eprintln!("simbench: reading {f}: {e}");
                exit(2);
            }
        })
        .filter(|l| field(l, "workload").is_some())
        .collect()
}

fn compare_files(base: &str, head: &str) -> bool {
    let Some(bench) = benchmark() else {
        return false;
    };
    let rows = compare::compare(&bench, &read_lines(base), &read_lines(head));
    print!("{}", compare::table(&rows));
    rows.iter().all(|r| r.verdict != "worse")
}
