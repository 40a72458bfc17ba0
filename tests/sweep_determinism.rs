//! Workspace-level guarantees of the sweep engine (the contract DESIGN.md
//! documents): for every scenario in the registry, parallel and pooled
//! execution are invisible in the output — byte for byte — and the
//! serial output matches a committed golden.

use perf_isolation::experiments::sweep::{all_scenarios, run_pool, SweepOptions};
use perf_isolation::Scale;

/// Compares `actual` with the committed golden `tests/goldens/{name}`.
/// Regenerate with `GOLDEN_REGEN=1 cargo test --test sweep_determinism`,
/// only for an intentional change to what a scenario simulates or
/// exports.
fn check_golden(name: &str, actual: &str) {
    let dir = format!("{}/tests/goldens", env!("CARGO_MANIFEST_DIR"));
    let path = format!("{dir}/{name}");
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e} (run with GOLDEN_REGEN=1)"));
    if expected != actual {
        let first = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a)
            .map(|(i, (e, a))| format!("line {}:\n  golden: {e}\n  actual: {a}", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "the end: golden has {} lines, actual {}",
                    expected.lines().count(),
                    actual.lines().count()
                )
            });
        panic!("{name} diverged from golden at {first}");
    }
}

#[test]
fn every_scenario_is_byte_identical_across_thread_counts() {
    let mut serial_exports = String::new();
    for scenario in all_scenarios(Scale::Quick) {
        let serial = scenario.run_boxed(&SweepOptions::new());
        serial_exports.push_str(&serial.outcomes_jsonl);
        assert_eq!(
            serial.stats.len(),
            scenario.cell_count(),
            "[{}] one stat per cell",
            serial.name
        );
        for threads in [2usize, 4, 8] {
            let parallel = scenario.run_boxed(&SweepOptions::new().threads(threads));
            assert_eq!(
                serial.text, parallel.text,
                "[{}] rendered report diverged at {threads} threads",
                serial.name
            );
            assert_eq!(
                serial.outcomes_jsonl, parallel.outcomes_jsonl,
                "[{}] outcome export diverged at {threads} threads",
                serial.name
            );
        }
    }
    // Thread-count agreement alone would not notice a change that moves
    // every run alike; the golden pins the values across commits.
    check_golden("sweep_outcomes_quick.jsonl", &serial_exports);
}

#[test]
fn pooled_execution_is_byte_identical_to_per_scenario_runs() {
    let scenarios = all_scenarios(Scale::Quick);
    let separate: Vec<_> = scenarios
        .iter()
        .map(|s| s.run_boxed(&SweepOptions::new()))
        .collect();
    for threads in [1usize, 4] {
        let pooled = run_pool(&scenarios, &SweepOptions::new().threads(threads));
        assert_eq!(pooled.len(), separate.len());
        for (a, b) in separate.iter().zip(&pooled) {
            assert_eq!(a.name, b.name);
            assert_eq!(
                a.text, b.text,
                "[{}] pooled report diverged at {threads} threads",
                a.name
            );
            assert_eq!(
                a.outcomes_jsonl, b.outcomes_jsonl,
                "[{}] pooled outcome export diverged at {threads} threads",
                a.name
            );
        }
    }
}
