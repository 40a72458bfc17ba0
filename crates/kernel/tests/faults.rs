//! Fault-injection scenarios: transient disk errors, degraded devices,
//! CPU hotplug, process crashes and fork bombs, and the recovery
//! policies that keep runs completing through all of them.

use event_sim::{FaultKind, FaultPlan, SimDuration, SimTime};
use proptest::prelude::*;
use smp_kernel::{Kernel, MachineConfig, Program, RunMetrics};
use spu_core::{Scheme, SpuId, SpuSet};
use std::sync::Arc;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// A program that reads `kb` KiB from `file`, computing briefly after.
fn reader(file: smp_kernel::FileId, kb: u64) -> Arc<Program> {
    Program::builder("reader")
        .read(file, 0, kb * 1024)
        .compute(ms(5), 0)
        .build()
}

fn spinner(total_ms: u64) -> Arc<Program> {
    Program::builder("spin").compute(ms(total_ms), 0).build()
}

/// Boots a 1-SPU machine with one file and a reader job under `plan`.
fn run_reader_with_plan(plan: FaultPlan) -> RunMetrics {
    let cfg = MachineConfig::builder()
        .topology(1, 32, 1)
        .scheme(Scheme::PIso)
        .fault_plan(plan)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(1));
    let f = k.create_file(0, 512 * 1024, 0);
    k.spawn_at(SpuId::user(0), reader(f, 512), Some("r"), SimTime::ZERO);
    let m = k.run(secs(120));
    assert_eq!(k.auditor().violation_count(), 0, "ledger audit violations");
    m
}

#[test]
fn transient_errors_are_retried_and_recovered() {
    let plan = FaultPlan::new().at(
        SimTime::ZERO,
        FaultKind::DiskTransientErrors { disk: 0, count: 3 },
    );
    let m = run_reader_with_plan(plan);
    assert!(m.completed, "run must complete through transient errors");
    assert!(m.job("r").unwrap().response().is_some());
    let c = &m.obsv.counters;
    assert!(c.get("fault.io_retries") >= 3, "errors must be retried");
    assert_eq!(c.get("fault.io_failures"), 0, "retries must absorb them");
    assert_eq!(
        c.get("fault.disk_errors"),
        c.get("fault.io_retries") + c.get("fault.io_failures")
    );
    assert_eq!(c.get("kernel.errors"), 0);
}

#[test]
fn retries_are_bounded_and_failures_surface_to_process() {
    // Far more consecutive errors than the retry budget: some requests
    // must fail up to the process, yet the run still completes.
    let plan = FaultPlan::new().at(
        SimTime::ZERO,
        FaultKind::DiskTransientErrors {
            disk: 0,
            count: 500,
        },
    );
    let m = run_reader_with_plan(plan);
    assert!(m.completed, "run must complete even when I/O fails");
    let c = &m.obsv.counters;
    assert!(c.get("fault.io_failures") >= 1, "budget must be exhausted");
    assert_eq!(
        c.get("fault.disk_errors"),
        c.get("fault.io_retries") + c.get("fault.io_failures"),
        "every error is either retried or failed"
    );
}

/// Gives up requests of every kind on a machine under memory pressure,
/// on 2 CPUs, 4 MB and 2 disks. One SPU runs a toucher that sweeps more
/// pages than its share, so its faults write pages back and swap them
/// in; the other runs a writer, whose dirty blocks the flusher writes
/// and whose metadata writes it waits on, and a reader, whose misses and
/// read-ahead fill the cache. Both disks fail far more requests than the
/// retry budget absorbs. Every given-up request must retire like a
/// completed one: the run completes, no frame is left pinned that no
/// outstanding request holds, nor the other way round, and no request
/// purpose outlives its request (`Kernel::check_invariants`).
///
/// Skipping the unpin of a flushed frame fails this test. Skipping a
/// swap-in's unpin does not: the toucher's exit frees its frames, pins
/// included, before the run ends.
#[test]
fn given_up_requests_of_every_kind_release_their_frames() {
    let plan = (0..2).fold(FaultPlan::new(), |plan, disk| {
        plan.at(
            SimTime::ZERO,
            FaultKind::DiskTransientErrors { disk, count: 5_000 },
        )
    });
    let cfg = MachineConfig::builder()
        .topology(2, 4, 2)
        .scheme(Scheme::PIso)
        .fault_plan(plan)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
    // 4 MB is 1,024 frames; each SPU is entitled to under half.
    let toucher = Program::builder("toucher")
        .alloc(700)
        .compute(ms(400), 700)
        .build();
    let out = k.create_file(1, 256 * 1024, 0);
    let writer = Program::builder("writer")
        .write(out, 0, 256 * 1024)
        .meta_write(out)
        .build();
    let input = k.create_file(0, 512 * 1024, 0);
    k.spawn_at(SpuId::user(0), toucher, Some("toucher"), SimTime::ZERO);
    k.spawn_at(SpuId::user(1), writer, Some("writer"), SimTime::ZERO);
    k.spawn_at(
        SpuId::user(1),
        reader(input, 512),
        Some("reader"),
        SimTime::ZERO,
    );
    let m = k.run(secs(600));
    assert!(m.completed, "run must complete when requests are given up");
    let c = &m.obsv.counters;
    assert!(c.get("fault.io_failures") > 0, "budget must be exhausted");
    assert_eq!(
        c.get("fault.disk_errors"),
        c.get("fault.io_retries") + c.get("fault.io_failures"),
        "every error is either retried or failed"
    );
    assert_eq!(k.auditor().violation_count(), 0, "ledger audit violations");
    k.check_invariants();
}

#[test]
fn errored_requests_stay_out_of_service_histogram() {
    let faulty = run_reader_with_plan(FaultPlan::new().at(
        SimTime::ZERO,
        FaultKind::DiskTransientErrors { disk: 0, count: 4 },
    ));
    let errors = faulty.obsv.counters.get("disk.0.errors");
    assert!(errors >= 4);
    // The service-latency histogram holds exactly the successfully
    // serviced requests; errored passes are counted separately.
    assert_eq!(
        faulty.obsv.latency.disk_service.count(),
        faulty.disks[0].total_requests(),
        "errored requests must not enter the service-latency histogram"
    );
    assert_eq!(faulty.disks[0].total_errors(), errors);
}

#[test]
fn degraded_disk_slows_io_until_repair() {
    let run = |plan: FaultPlan| {
        run_reader_with_plan(plan)
            .job("r")
            .unwrap()
            .response()
            .unwrap()
    };
    let clean = run(FaultPlan::new());
    let degraded = run(FaultPlan::new().at(
        SimTime::ZERO,
        FaultKind::DiskDegrade {
            disk: 0,
            factor: 8.0,
        },
    ));
    assert!(
        degraded > clean.mul_f64(2.0),
        "8x-degraded disk must visibly slow the reader: clean={clean} degraded={degraded}"
    );
}

#[test]
fn cpu_offline_rebalances_and_online_restores() {
    // 4 CPUs, 2 SPUs, compute load on both. One CPU dies mid-run and
    // returns later; everything still completes with clean audits.
    let plan = FaultPlan::new()
        .at(SimTime::from_millis(100), FaultKind::CpuOffline { cpu: 3 })
        .at(SimTime::from_millis(250), FaultKind::CpuOnline { cpu: 3 });
    let cfg = MachineConfig::builder()
        .topology(4, 32, 1)
        .scheme(Scheme::PIso)
        .fault_plan(plan)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
    for u in 0..2 {
        for j in 0..2 {
            k.spawn_at(
                SpuId::user(u),
                spinner(400),
                Some(&format!("u{u}j{j}")),
                SimTime::ZERO,
            );
        }
    }
    let m = k.run(secs(60));
    assert!(m.completed);
    assert_eq!(k.auditor().violation_count(), 0);
    assert!(k.errors().is_empty(), "recovered errors: {:?}", k.errors());
    let c = &m.obsv.counters;
    assert_eq!(c.get("fault.cpu_offline"), 1);
    assert_eq!(c.get("fault.cpu_online"), 1);
    assert_eq!(c.get("kernel.errors"), 0);
    assert_eq!(c.get("audit.violations"), 0);
}

#[test]
fn hotplug_storm_at_128_cpus_conserves_ledger() {
    // 128 CPUs, 16 SPUs with live memory traffic, and a hotplug storm:
    // three waves take 48 CPUs away mid-run and bring them all back.
    // Every offline/online rebalances the CPU partition and the
    // scheduler's CPU sets while memory keeps changing hands, and the
    // auditor must find the conservation invariant intact at every
    // audit point.
    let mut plan = FaultPlan::new();
    for (wave, base) in [(0u64, 64usize), (1, 80), (2, 96)] {
        for i in 0..16 {
            let cpu = base + i;
            plan = plan
                .at(
                    SimTime::from_millis(40 + wave * 30 + i as u64),
                    FaultKind::CpuOffline { cpu },
                )
                .at(
                    SimTime::from_millis(200 + wave * 30 + i as u64),
                    FaultKind::CpuOnline { cpu },
                );
        }
    }
    let cfg = MachineConfig::builder()
        .topology(128, 512, 1)
        .scheme(Scheme::PIso)
        .fault_plan(plan)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(16));
    for u in 0..16 {
        for j in 0..4 {
            let p = Program::builder("hot").compute(ms(300), 64).build();
            k.spawn_at(SpuId::user(u), p, Some(&format!("u{u}j{j}")), SimTime::ZERO);
        }
    }
    let m = k.run(secs(60));
    assert!(m.completed);
    k.check_invariants();
    assert_eq!(k.auditor().violation_count(), 0, "conservation violated");
    assert!(k.auditor().checks() > 0, "auditor never ran");
    assert!(k.errors().is_empty(), "recovered errors: {:?}", k.errors());
    let c = &m.obsv.counters;
    assert_eq!(c.get("fault.cpu_offline"), 48);
    assert_eq!(c.get("fault.cpu_online"), 48);
    assert_eq!(c.get("audit.violations"), 0);
    assert_eq!(c.get("kernel.errors"), 0);
}

#[test]
fn last_online_cpu_cannot_be_offlined() {
    let plan = FaultPlan::new().at(SimTime::from_millis(50), FaultKind::CpuOffline { cpu: 0 });
    let cfg = MachineConfig::builder()
        .topology(1, 16, 1)
        .scheme(Scheme::PIso)
        .fault_plan(plan)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(1));
    k.spawn_at(SpuId::user(0), spinner(300), Some("j"), SimTime::ZERO);
    let m = k.run(secs(30));
    assert!(m.completed, "refusing the fault keeps the machine alive");
    assert_eq!(m.obsv.counters.get("fault.skipped"), 1);
}

#[test]
fn process_crash_leaves_other_jobs_healthy() {
    let plan = FaultPlan::new().at(
        SimTime::from_millis(50),
        FaultKind::ProcessCrash { user_spu: 1 },
    );
    let cfg = MachineConfig::builder()
        .topology(2, 32, 1)
        .scheme(Scheme::PIso)
        .fault_plan(plan)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
    k.spawn_at(SpuId::user(0), spinner(300), Some("ok"), SimTime::ZERO);
    k.spawn_at(SpuId::user(1), spinner(300), Some("victim"), SimTime::ZERO);
    let m = k.run(secs(30));
    assert!(m.completed);
    assert_eq!(m.obsv.counters.get("fault.crashes"), 1);
    assert!(
        m.job("victim").unwrap().response().is_none(),
        "crashed job must be left unfinished"
    );
    let ok = m.job("ok").unwrap().response().unwrap();
    assert!(ok <= ms(340), "survivor unaffected: {ok}");
    assert_eq!(k.auditor().violation_count(), 0);
}

#[test]
fn fork_bomb_is_contained_by_isolation() {
    let run = |scheme: Scheme| {
        let plan = FaultPlan::new().at(
            SimTime::from_millis(10),
            FaultKind::ForkBomb {
                user_spu: 1,
                width: 3,
                depth: 3,
                burn: ms(20),
                pages: 8,
            },
        );
        let cfg = MachineConfig::builder()
            .topology(2, 32, 1)
            .scheme(scheme)
            .fault_plan(plan)
            .build()
            .unwrap();
        let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
        k.spawn_at(SpuId::user(0), spinner(300), Some("fg"), SimTime::ZERO);
        let m = k.run(secs(120));
        assert!(m.completed, "{scheme}");
        m.job("fg").unwrap().response().unwrap()
    };
    let smp = run(Scheme::Smp);
    let piso = run(Scheme::PIso);
    assert!(piso <= ms(340), "piso foreground shielded: {piso}");
    assert!(
        smp > piso,
        "smp foreground must suffer from the bomb: smp={smp} piso={piso}"
    );
}

#[test]
fn empty_plan_equals_no_plan() {
    let run = |cfg: MachineConfig| {
        let mut k = Kernel::new(cfg, SpuSet::equal_users(1));
        let f = k.create_file(0, 256 * 1024, 0);
        k.spawn_at(SpuId::user(0), reader(f, 256), Some("r"), SimTime::ZERO);
        let m = k.run(secs(60));
        smp_kernel::metrics_jsonl(&m)
    };
    let base = || {
        MachineConfig::builder()
            .topology(2, 32, 1)
            .scheme(Scheme::PIso)
    };
    let without = run(base().build().unwrap());
    let with = run(base().fault_plan(FaultPlan::new()).build().unwrap());
    assert_eq!(without, with, "an empty fault plan must change nothing");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever burst of transient errors hits, the run completes and
    /// the error-accounting invariant holds.
    #[test]
    fn random_error_bursts_always_recover(count in 1u32..200, at_ms in 0u64..200) {
        let plan = FaultPlan::new().at(
            SimTime::from_millis(at_ms),
            FaultKind::DiskTransientErrors { disk: 0, count },
        );
        let m = run_reader_with_plan(plan);
        prop_assert!(m.completed);
        let c = &m.obsv.counters;
        prop_assert_eq!(
            c.get("fault.disk_errors"),
            c.get("fault.io_retries") + c.get("fault.io_failures")
        );
    }
}
