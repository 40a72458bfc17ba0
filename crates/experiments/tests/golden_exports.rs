//! Golden byte-identity tests for experiment exports.
//!
//! The fault/paging fast path is a pure mechanical optimisation: same
//! seed must produce byte-identical exports. These tests pin the
//! `mem_iso` instrumented JSONL series and the `ablation` reserve-*
//! sweep outputs against goldens captured before the refactor.
//!
//! Regenerate with `GOLDEN_REGEN=1 cargo test -p experiments --test
//! golden_exports` — only do this for an intentional semantic change,
//! never to paper over a determinism break.

use experiments::{ablation, mem_iso, Scale};

fn check_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/goldens/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(format!("{}/tests/goldens", env!("CARGO_MANIFEST_DIR"))).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e} (run with GOLDEN_REGEN=1)"));
    assert!(
        expected == actual,
        "{name} diverged from golden — the paging refactor changed \
         simulated behavior. First differing line: {:?}",
        expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a)
            .map(|(i, (e, a))| format!("line {}: golden={e:?} actual={a:?}", i + 1))
    );
}

/// The §4.4 instrumented run: per-SPU (entitled, allowed, used) series
/// JSONL plus the headline metrics must be byte-stable.
#[test]
fn mem_iso_instrumented_export_is_byte_identical() {
    let (m, jsonl) = mem_iso::run_instrumented(Scale::Quick);
    check_golden("mem_iso_series.jsonl", &jsonl);
    let digest = format!(
        "end_time={:?}\nspu1_mean={:?}\nspu2_mean={:?}\nmajor_faults={:?}\nminor_faults={:?}\nswap_outs={:?}\n",
        m.end_time,
        m.mean_response_of_spu(spu_core::SpuId::user(0)),
        m.mean_response_of_spu(spu_core::SpuId::user(1)),
        m.vm.iter().map(|v| v.major_faults).collect::<Vec<_>>(),
        m.vm.iter().map(|v| v.minor_faults).collect::<Vec<_>>(),
        m.vm.iter().map(|v| v.swap_outs).collect::<Vec<_>>(),
    );
    check_golden("mem_iso_metrics.txt", &digest);
}

/// The §3.2 reserve-threshold sweep: every point (responses and
/// swap-out counts) must be byte-stable across the paging refactor.
#[test]
fn ablation_reserve_sweep_is_byte_identical() {
    let pts = ablation::reserve_threshold_sweep(&[0.0, 0.08, 0.16], Scale::Quick);
    let mut out = String::new();
    for p in &pts {
        out.push_str(&format!(
            "reserve={:?} lender_burst={:?} borrower={:?} swap_outs={:?}\n",
            p.reserve_frac, p.lender_burst_response, p.borrower_response, p.lender_swap_outs
        ));
    }
    check_golden("ablation_reserve.txt", &out);
}
