//! Determinism of the fault-injection layer: faults are scheduled on the
//! simulated clock from a seeded plan, so an empty plan must be
//! indistinguishable from no plan at all, and a seeded random plan must
//! reproduce the exact same run every time, byte for byte the committed
//! export digests.

use perf_isolation::core::{Scheme, SpuId, SpuSet};
use perf_isolation::experiments::report::check_export_digest;
use perf_isolation::experiments::{fault_isolation, Scale};
use perf_isolation::kernel::{Kernel, MachineConfig, Program};
use perf_isolation::sim::{FaultKind, FaultPlan, SimDuration, SimTime};
use std::sync::Arc;

/// A small two-SPU instrumented run: reads, compute, and enough work for
/// the sampler and trace buffer to carry real content.
fn instrumented(cfg: MachineConfig) -> (String, String) {
    let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
    k.enable_trace(1 << 18);
    k.enable_sampling(SimDuration::from_millis(50));
    let f = k.create_file(0, 512 * 1024, 0);
    for u in 0..2 {
        let prog: Arc<Program> = Program::builder("job")
            .read(f, 0, 256 * 1024)
            .compute(SimDuration::from_millis(20), 8)
            .build();
        k.spawn_at(SpuId::user(u), prog, Some(&format!("u{u}")), SimTime::ZERO);
    }
    let m = k.run(SimTime::from_secs(60));
    assert!(m.completed);
    let jsonl = perf_isolation::kernel::metrics_jsonl(&m);
    let trace = perf_isolation::kernel::chrome_trace_json(k.trace(), k.spus(), &m.obsv);
    (jsonl, trace)
}

#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    let base = || {
        MachineConfig::builder()
            .topology(2, 32, 1)
            .scheme(Scheme::PIso)
    };
    let (jsonl_none, trace_none) = instrumented(base().build().unwrap());
    let (jsonl_empty, trace_empty) =
        instrumented(base().fault_plan(FaultPlan::new()).build().unwrap());
    assert_eq!(
        jsonl_none, jsonl_empty,
        "an empty fault plan must leave the metrics export untouched"
    );
    assert_eq!(
        trace_none, trace_empty,
        "an empty fault plan must leave the trace export untouched"
    );
    // The fault counters are present (and zero) even without a plan, so
    // the exports above cannot differ merely by key presence.
    assert!(jsonl_none.contains("\"name\":\"fault.injected\""));
    assert!(jsonl_none.contains("\"name\":\"audit.checks\""));
}

#[test]
fn same_fault_seed_reproduces_the_run() {
    let run = |seed: u64| {
        let plan = FaultPlan::new()
            .at(
                SimTime::from_millis(5),
                FaultKind::DiskTransientErrors { disk: 0, count: 4 },
            )
            .at(
                SimTime::from_millis(20),
                FaultKind::ForkBomb {
                    user_spu: (seed % 2) as u32,
                    width: 2,
                    depth: 2,
                    burn: SimDuration::from_millis(5),
                    pages: 4,
                },
            );
        let cfg = MachineConfig::builder()
            .topology(2, 32, 1)
            .scheme(Scheme::PIso)
            .fault_plan(plan)
            .build()
            .unwrap();
        instrumented(cfg)
    };
    let (a_jsonl, a_trace) = run(1);
    let (b_jsonl, b_trace) = run(1);
    assert_eq!(a_jsonl, b_jsonl, "same plan, different metrics export");
    assert_eq!(a_trace, b_trace, "same plan, different trace export");
    // Faults really fired: injections are counted and marked in the trace.
    assert!(a_jsonl.contains("\"name\":\"fault.injected\",\"value\":2"));
    assert!(a_trace.contains("fault:"));
    // A different plan produces a different run.
    let (c_jsonl, _) = run(2);
    assert_ne!(a_jsonl, c_jsonl, "different plans must be distinguishable");
}

#[test]
fn seeded_random_matrix_run_is_reproducible() {
    let a = fault_isolation::run_instrumented(1234, Scale::Quick);
    let b = fault_isolation::run_instrumented(1234, Scale::Quick);
    assert_eq!(
        a.metrics_jsonl, b.metrics_jsonl,
        "seeded random-plan run is not deterministic (metrics)"
    );
    assert_eq!(
        a.chrome_trace, b.chrome_trace,
        "seeded random-plan run is not deterministic (trace)"
    );
    assert!(!a.metrics_jsonl.is_empty() && !a.chrome_trace.is_empty());
    check_export_digest("fault_isolation_seed1234_metrics.jsonl", &a.metrics_jsonl);
    check_export_digest("fault_isolation_seed1234_trace.json", &a.chrome_trace);
}
