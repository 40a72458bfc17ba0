//! Determinism of the observability exports: the simulation is keyed by
//! simulated time only (no wall clock, no unordered maps), so two
//! identical instrumented runs must serialize to byte-identical strings,
//! and those strings match the committed export digests.

use perf_isolation::experiments::lock_leakage;
use perf_isolation::experiments::pmake8;
use perf_isolation::experiments::report::check_export_digest;
use perf_isolation::experiments::Scale;
use perf_isolation::kernel::interference_matrix_json;

#[test]
fn instrumented_runs_export_identically() {
    let a = pmake8::run_instrumented(Scale::Quick);
    let b = pmake8::run_instrumented(Scale::Quick);

    assert!(!a.metrics_jsonl.is_empty());
    assert!(!a.chrome_trace.is_empty());
    assert_eq!(
        a.metrics_jsonl, b.metrics_jsonl,
        "JSONL metrics export is not deterministic"
    );
    assert_eq!(
        a.chrome_trace, b.chrome_trace,
        "Chrome trace export is not deterministic"
    );
    check_export_digest("pmake8_metrics.jsonl", &a.metrics_jsonl);
    check_export_digest("pmake8_trace.json", &a.chrome_trace);

    // The export carries real content: per-SPU series for all three
    // resources, counters, histograms.
    for needle in [
        "\"type\":\"sample\"",
        "\"resource\":\"cpu\"",
        "\"resource\":\"memory\"",
        "\"resource\":\"disk\"",
        "\"type\":\"counter\"",
        "\"type\":\"histogram\"",
        "\"name\":\"response\"",
    ] {
        assert!(
            a.metrics_jsonl.contains(needle),
            "metrics export misses {needle}"
        );
    }
    assert!(a.chrome_trace.contains("\"traceEvents\""));
    assert!(a.chrome_trace.contains("\"ph\":\"X\""));
}

#[test]
fn attribution_exports_are_deterministic() {
    // Same property with the interference attribution, SLO tracker and
    // lock-wait spans enabled: two runs, byte-identical exports.
    let a = lock_leakage::run_instrumented(Scale::Quick);
    let b = lock_leakage::run_instrumented(Scale::Quick);

    assert_eq!(
        a.metrics_jsonl, b.metrics_jsonl,
        "JSONL export with attribution enabled is not deterministic"
    );
    assert_eq!(
        a.chrome_trace, b.chrome_trace,
        "Chrome trace with lock-wait spans is not deterministic"
    );
    let matrix_json = interference_matrix_json(a.metrics.interference());
    assert_eq!(
        matrix_json,
        interference_matrix_json(b.metrics.interference()),
        "interference-matrix export is not deterministic"
    );
    check_export_digest("lock_leakage_metrics.jsonl", &a.metrics_jsonl);
    check_export_digest("lock_leakage_trace.json", &a.chrome_trace);
    check_export_digest("lock_leakage_matrix.json", &matrix_json);

    for needle in [
        "\"type\":\"interference\"",
        "\"type\":\"lock_hold\"",
        "\"type\":\"slo\"",
        "\"type\":\"slo_sample\"",
        "\"channel\":\"lock.root\"",
    ] {
        assert!(
            a.metrics_jsonl.contains(needle),
            "metrics export misses {needle}"
        );
    }
    assert!(a.chrome_trace.contains("lock-wait:root"));
    assert!(matrix_json.contains("\"cells\""));
}
