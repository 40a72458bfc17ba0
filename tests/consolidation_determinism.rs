//! Determinism and bit-compatibility of the SPU hierarchy: the
//! consolidation matrix's exports are byte-identical however many
//! worker threads produce them (sibling-first lending makes the same
//! decisions in any interleaving) and match the committed export
//! digests, and a depth-1 tree — every service its own singleton
//! tenant — replays the flat machine exactly.

use perf_isolation::core::{Scheme, SpuId, SpuSet, SpuTree};
use perf_isolation::experiments::consolidation::{
    consolidation_matrix_json, ConsolidationScenario,
};
use perf_isolation::experiments::report::check_export_digest;
use perf_isolation::experiments::sweep::{run_scenario, Render, SweepOptions};
use perf_isolation::kernel::{metrics_jsonl, Kernel, MachineConfig, Program};
use perf_isolation::sim::{SimDuration, SimTime};
use perf_isolation::Scale;

#[test]
fn consolidation_matrix_is_byte_identical_at_1_vs_4_threads() {
    let scenario = ConsolidationScenario::seed(Scale::Quick);
    let serial = run_scenario(&scenario, &SweepOptions::new());
    let parallel = run_scenario(&scenario, &SweepOptions::new().threads(4));
    assert_eq!(
        serial.outcomes_jsonl, parallel.outcomes_jsonl,
        "consolidation outcome export diverged at 4 threads"
    );
    assert_eq!(
        serial.report.render(),
        parallel.report.render(),
        "consolidation rendered report diverged at 4 threads"
    );
    let matrix = consolidation_matrix_json(&serial.report);
    assert_eq!(
        matrix,
        consolidation_matrix_json(&parallel.report),
        "consolidation matrix JSON diverged at 4 threads"
    );
    check_export_digest("consolidation_matrix.json", &matrix);
}

/// Boots an uneven PIso machine: odd SPUs oversubscribed so idle
/// even-SPU CPUs keep lending to (and revoking from) their overloaded
/// neighbours, exercising every lending decision the hierarchy touches.
fn boot_uneven(weights: &[u32], tree: Option<SpuTree>) -> Kernel {
    let cfg = MachineConfig::builder()
        .topology(8, 96, 1)
        .scheme(Scheme::PIso)
        .build()
        .expect("valid machine");
    let mut set = SpuSet::with_weights(weights);
    if let Some(tree) = tree {
        set = set.with_tree(tree);
    }
    let mut k = Kernel::new(cfg, set);
    let prog = Program::builder("job")
        .compute(SimDuration::from_millis(120), 8)
        .build();
    for s in 0..weights.len() as u32 {
        let jobs = if s % 2 == 0 { 1 } else { 6 };
        for j in 0..jobs {
            k.spawn_at(
                SpuId::user(s),
                prog.clone(),
                Some(&format!("j{s}-{j}")),
                SimTime::ZERO,
            );
        }
    }
    k
}

/// Drops the tree-gated counter lines — the only export surface a tree
/// is *allowed* to add to an otherwise identical run.
fn strip_tree_lines(jsonl: &str) -> String {
    jsonl
        .lines()
        .filter(|l| !l.contains("\"spu.tree."))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn depth1_singleton_tenants_replay_the_flat_machine_byte_identically() {
    for weights in [vec![1u32, 1], vec![1, 2, 1], vec![3, 1, 2, 1]] {
        let run = |tree: Option<SpuTree>| {
            let mut k = boot_uneven(&weights, tree);
            let m = k.run(SimTime::from_secs(60));
            assert!(m.completed, "weights {weights:?} hit the cap");
            (m.end_time, metrics_jsonl(&m))
        };
        let (flat_end, flat_jsonl) = run(None);
        let depth1 = SpuTree::new(
            weights
                .iter()
                .enumerate()
                .map(|(i, &w)| (format!("t{i}"), w, vec![i as u32]))
                .collect(),
        );
        let (hier_end, hier_jsonl) = run(Some(depth1));
        // Singleton tenants have no siblings: every steal, loan,
        // revocation and page-lending decision must replay the flat
        // machine exactly — same end time, same jobs, same counters.
        assert_eq!(flat_end, hier_end, "weights {weights:?}: end time moved");
        assert_eq!(
            strip_tree_lines(&flat_jsonl),
            strip_tree_lines(&hier_jsonl),
            "weights {weights:?}: depth-1 tree diverged from flat exports"
        );
        // The flat export had no tree lines to strip; the depth-1 run
        // gained only the gated tree counters.
        assert_eq!(flat_jsonl, strip_tree_lines(&flat_jsonl));
        assert!(hier_jsonl.contains("\"spu.tree.tenants\""));
    }
}
