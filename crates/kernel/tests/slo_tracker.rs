//! Property test: the SLO tracker's running per-SPU counts equal a
//! rescan of every job, across runs that take a job through every
//! transition the tracker follows: start, finish under and over the
//! target, tail-drop, deadline-aware and CoDel shedding, queue-wait
//! timeouts with resubmission, a crashed root that stays open for good,
//! a fork-bomb job spawned mid-run, and spawns dated in the future (some
//! beyond the run's end, so they never start).
//!
//! In debug builds the kernel compares every SLO sample with the rescan
//! as it records it; `Kernel::check_invariants` compares the counts at
//! the run's last instant in every build.

use event_sim::{FaultKind, FaultPlan, SimDuration, SimTime};
use proptest::prelude::*;
use smp_kernel::{Kernel, MachineConfig, Program, RunMetrics, Tuning};
use spu_core::{Scheme, ShedPolicy, SpuId, SpuSet};

/// The SLO target every run judges against.
const TARGET: SimDuration = SimDuration::from_millis(8);
/// The sampling interval.
const SAMPLE_EVERY: SimDuration = SimDuration::from_millis(3);
/// Where every run stops.
const CAP: SimTime = SimTime::from_millis(400);

/// One generated run.
#[derive(Clone, Copy, Debug)]
struct Scenario {
    policy: ShedPolicy,
    admission_cap: u32,
    queue_cap: u32,
    timeout_ms: u64,
    retries: u32,
    requests: u32,
    /// Mean gap between request arrivals, in 100 µs units.
    gap: u64,
    /// Request deadline budget in ms.
    deadline_ms: u64,
    crash_ms: u64,
    bomb_ms: u64,
    /// `enable_slo` before the spawns rather than after them.
    slo_first: bool,
    seed: u64,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        (0u32..4, 1u32..=3, 1u32..=4, 0u64..30, 0u32..3),
        (4u32..40, 5u64..40, 2u64..40),
        (0u64..300, 0u64..300, any::<bool>(), any::<u64>()),
    )
        .prop_map(
            |(
                (policy, admission_cap, queue_cap, timeout_ms, retries),
                (requests, gap, deadline_ms),
                (crash_ms, bomb_ms, slo_first, seed),
            )| Scenario {
                policy: [
                    ShedPolicy::None,
                    ShedPolicy::TailDrop,
                    ShedPolicy::DeadlineAware,
                    ShedPolicy::Codel,
                ][policy as usize],
                admission_cap,
                queue_cap,
                // Below 5 ms, no timeouts at all.
                timeout_ms: if timeout_ms < 5 { 0 } else { timeout_ms },
                retries,
                requests,
                gap,
                deadline_ms,
                crash_ms,
                bomb_ms,
                slo_first,
                seed,
            },
        )
}

/// SplitMix64, so the arrival pattern follows the scenario's seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs one scenario on 2 CPUs and 2 user SPUs, checks the tracker
/// against the rescan at the run's end, and returns the metrics.
fn run(sc: &Scenario) -> RunMetrics {
    let tuning = Tuning {
        admission_cap: sc.admission_cap,
        queue_cap: sc.queue_cap,
        shed_policy: sc.policy,
        request_timeout: SimDuration::from_millis(sc.timeout_ms),
        request_max_retries: sc.retries,
        request_retry_base: SimDuration::from_millis(2),
        request_retry_cap: SimDuration::from_millis(20),
        ..Tuning::default()
    };
    let plan = FaultPlan::new()
        .at(
            SimTime::from_millis(sc.crash_ms),
            FaultKind::ProcessCrash { user_spu: 0 },
        )
        .at(
            SimTime::from_millis(sc.bomb_ms),
            FaultKind::ForkBomb {
                user_spu: 1,
                width: 2,
                depth: 2,
                burn: SimDuration::from_millis(4),
                pages: 0,
            },
        );
    let cfg = MachineConfig::builder()
        .topology(2, 32, 1)
        .scheme(Scheme::PIso)
        .tuning(tuning)
        .fault_plan(plan)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
    k.enable_sampling(SAMPLE_EVERY);
    if sc.slo_first {
        k.enable_slo(TARGET);
    }
    let mut rng = sc.seed;
    let mut at = SimTime::ZERO;
    for i in 0..sc.requests {
        at += SimDuration::from_micros(100 * (next(&mut rng) % (2 * sc.gap) + 1));
        let burn = SimDuration::from_micros(500 + next(&mut rng) % 12_000);
        let prog = Program::builder("req").compute(burn, 0).build();
        let spu = SpuId::user(i % 2);
        if i % 5 == 4 {
            // A tracked job outside admission control.
            k.spawn_at(spu, prog, Some(&format!("job{i}")), at);
        } else {
            let deadline = SimDuration::from_millis(sc.deadline_ms);
            k.spawn_request_at(spu, prog, &format!("req{i}"), at, deadline);
        }
    }
    // Dated past the run's end: never starts, never counted.
    let late = Program::builder("late")
        .compute(SimDuration::from_millis(1), 0)
        .build();
    k.spawn_at(SpuId::user(0), late, Some("late"), CAP + TARGET);
    if !sc.slo_first {
        k.enable_slo(TARGET);
    }
    let m = k.run(CAP);
    k.check_invariants();
    m
}

/// What one run exercised.
#[derive(Debug, Default)]
struct Coverage {
    shed: u64,
    timeouts: u64,
    crashes: u64,
    /// Jobs still unfinished at a sample instant more than the target
    /// after they started.
    late: u64,
}

fn coverage(m: &RunMetrics) -> Coverage {
    let requests = m.requests();
    let per_spu = || requests.per_spu.iter();
    let samples: Vec<SimTime> = m
        .slo()
        .per_spu
        .first()
        .map(|s| s.samples.iter().map(|x| x.at).collect())
        .unwrap_or_default();
    let late = m
        .jobs
        .iter()
        .filter(|j| !j.shed)
        .filter(|j| {
            samples.iter().any(|&at| {
                at.saturating_since(j.started) > TARGET && j.finished.is_none_or(|f| f > at)
            })
        })
        .count() as u64;
    Coverage {
        shed: per_spu().map(|r| r.shed + r.expired).sum(),
        timeouts: per_spu().map(|r| r.timeouts).sum(),
        crashes: m.obsv.counters.get("fault.crashes"),
        late,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The running counts equal the rescan at every sample (debug
    /// builds) and at the end of every run.
    #[test]
    fn running_slo_counts_match_a_rescan(sc in scenario_strategy()) {
        let m = run(&sc);
        // Every SPU that ran tracked jobs has a row with one sample per
        // sampling instant.
        let instants = m.slo().per_spu.first().map_or(0, |row| row.samples.len());
        for row in &m.slo().per_spu {
            prop_assert!(!row.samples.is_empty(), "{} has no samples", row.name);
            prop_assert_eq!(row.samples.len(), instants);
        }
    }
}

/// Guards the generator: across the generated runs, shedding, timeouts,
/// crashes and late jobs must each happen, or the property above would
/// pass without following those transitions.
#[test]
fn generated_runs_shed_time_out_crash_and_run_late() {
    use proptest::test_runner::TestRng;
    let mut rng = TestRng::deterministic("slo_tracker::coverage");
    let mut total = Coverage::default();
    let mut policies = [0u64; 4];
    for _ in 0..32 {
        let sc = scenario_strategy().generate(&mut rng);
        let cov = coverage(&run(&sc));
        if cov.shed > 0 {
            policies[sc.policy as usize] += 1;
        }
        total.shed += cov.shed;
        total.timeouts += cov.timeouts;
        total.crashes += cov.crashes;
        total.late += cov.late;
    }
    assert!(total.shed > 0, "shedding: {total:?}");
    assert!(
        policies[1..].iter().all(|&n| n > 0),
        "runs shedding under tail-drop, deadline-aware, CoDel: {policies:?}"
    );
    assert!(total.timeouts > 0, "timeouts: {total:?}");
    assert!(total.crashes > 0, "crashes: {total:?}");
    assert!(total.late > 0, "late jobs: {total:?}");
}
