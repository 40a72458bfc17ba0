//! Seeded determinism of the overload stack: the arrival generator is a
//! pure function of its seed, and the overload matrix's exports are
//! byte-identical however many sweep threads produce them, and match the
//! committed export digests.

use event_sim::{ArrivalProcess, SimTime};
use perf_isolation::experiments::overload::{self, OverloadScenario};
use perf_isolation::experiments::report::check_export_digest;
use perf_isolation::experiments::sweep::{run_scenario, SweepOptions};
use perf_isolation::Scale;

fn processes() -> Vec<ArrivalProcess> {
    vec![
        ArrivalProcess::Poisson { rate_per_sec: 80.0 },
        ArrivalProcess::Mmpp {
            quiet_rate: 20.0,
            burst_rate: 400.0,
            quiet_dwell: event_sim::SimDuration::from_millis(200),
            burst_dwell: event_sim::SimDuration::from_millis(50),
        },
        ArrivalProcess::DiurnalRamp {
            start_rate: 10.0,
            end_rate: 300.0,
        },
    ]
}

#[test]
fn arrival_schedules_are_byte_identical_per_seed() {
    let horizon = SimTime::from_secs(3);
    for proc_ in processes() {
        for seed in [0u64, 7, 0xdead_beef] {
            let a = proc_.generate(seed, horizon).render();
            let b = proc_.generate(seed, horizon).render();
            assert_eq!(a, b, "{} schedule diverged for seed {seed}", proc_.name());
        }
        // And different seeds genuinely move the schedule.
        let a = proc_.generate(1, horizon).render();
        let b = proc_.generate(2, horizon).render();
        assert_ne!(a, b, "{} ignored its seed", proc_.name());
    }
}

#[test]
fn overload_exports_are_byte_identical_across_thread_counts() {
    let scenario = OverloadScenario::seed(Scale::Quick);
    let serial = run_scenario(&scenario, &SweepOptions::new());
    let parallel = run_scenario(&scenario, &SweepOptions::new().threads(4));
    assert_eq!(
        serial.outcomes_jsonl, parallel.outcomes_jsonl,
        "outcome export diverged at 4 threads"
    );
    assert_eq!(
        serial.report.format(),
        parallel.report.format(),
        "rendered report diverged at 4 threads"
    );
    let matrix = overload::overload_matrix_json(&serial.report);
    assert_eq!(
        matrix,
        overload::overload_matrix_json(&parallel.report),
        "matrix JSON diverged at 4 threads"
    );
    check_export_digest("overload_matrix.json", &matrix);
}
