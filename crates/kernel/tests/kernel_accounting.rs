//! Accounting-focused end-to-end kernel tests: the paper's mechanisms
//! are only as good as the bookkeeping underneath them — per-SPU CPU
//! time, page ledgers, shared-page re-marking, time-shared CPU
//! proportions, and invariants after every kind of run.

use event_sim::{SimDuration, SimTime};
use smp_kernel::config::KERNEL_MEM_FRAC;
use smp_kernel::{Kernel, MachineConfig, Program, Tuning};
use spu_core::{Scheme, SpuId, SpuSet};
use std::sync::Arc;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn spinner(total_ms: u64) -> Arc<Program> {
    Program::builder("spin").compute(ms(total_ms), 0).build()
}

#[test]
fn spu_cpu_time_accounts_all_compute() {
    let cfg = MachineConfig::builder()
        .topology(2, 16, 1)
        .scheme(Scheme::PIso)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
    k.spawn_at(SpuId::user(0), spinner(400), Some("a"), SimTime::ZERO);
    k.spawn_at(SpuId::user(1), spinner(700), Some("b"), SimTime::ZERO);
    let m = k.run(SimTime::from_secs(30));
    assert!(m.completed);
    let a = m.spu_cpu_time[SpuId::user(0).index()];
    let b = m.spu_cpu_time[SpuId::user(1).index()];
    // Each SPU's CPU time equals its job's compute demand (small slack
    // for zero-fill and bookkeeping micro-ops).
    assert!(a >= ms(400) && a <= ms(420), "{a}");
    assert!(b >= ms(700) && b <= ms(730), "{b}");
}

#[test]
fn cpu_busy_plus_idle_covers_the_run() {
    let cfg = MachineConfig::builder()
        .topology(2, 16, 1)
        .scheme(Scheme::Smp)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(1));
    k.spawn_at(SpuId::user(0), spinner(250), Some("j"), SimTime::ZERO);
    let m = k.run(SimTime::from_secs(30));
    assert!(m.completed);
    for cpu in 0..2 {
        let covered = m.cpu_busy[cpu] + m.cpu_idle[cpu];
        let gap = m
            .end_time
            .saturating_since(SimTime::ZERO)
            .saturating_sub(covered);
        assert!(
            gap < ms(1),
            "cpu {cpu}: busy {} + idle {} != {}",
            m.cpu_busy[cpu],
            m.cpu_idle[cpu],
            m.end_time
        );
    }
}

#[test]
fn vm_invariants_hold_after_heavy_runs() {
    for scheme in Scheme::ALL {
        let cfg = MachineConfig::builder()
            .topology(2, 8, 2)
            .scheme(scheme)
            .build()
            .unwrap();
        let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
        for s in 0..2u32 {
            let p = Program::builder("mix")
                .alloc(1500)
                .compute(ms(150), 1500)
                .build();
            k.spawn_at(SpuId::user(s), p, Some(&format!("m{s}")), SimTime::ZERO);
        }
        let m = k.run(SimTime::from_secs(600));
        assert!(m.completed, "{scheme}");
        k.check_invariants();
    }
}

#[test]
fn exited_process_memory_is_released() {
    let cfg = MachineConfig::builder()
        .topology(1, 16, 1)
        .scheme(Scheme::PIso)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(1));
    let p = Program::builder("blob")
        .alloc(500)
        .compute(ms(100), 500)
        .build();
    k.spawn_at(SpuId::user(0), p, Some("blob"), SimTime::ZERO);
    let m = k.run(SimTime::from_secs(30));
    assert!(m.completed);
    // Anonymous pages are gone; only buffer-cache remnants may linger.
    let levels = &m.mem_levels[SpuId::user(0).index()];
    assert!(levels.used < 20, "leaked {} pages", levels.used);
    k.check_invariants();
}

#[test]
fn shared_file_shifts_charge_to_shared_spu() {
    let cfg = MachineConfig::builder()
        .topology(2, 32, 1)
        .scheme(Scheme::PIso)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
    let f = k.create_file(0, 128 * 1024, 0); // 32 blocks
    let reader = Program::builder("r").read(f, 0, 128 * 1024).build();
    k.spawn_at(SpuId::user(0), reader.clone(), Some("r0"), SimTime::ZERO);
    k.spawn_at(
        SpuId::user(1),
        reader,
        Some("r1"),
        SimTime::from_millis(400),
    );
    let m = k.run(SimTime::from_secs(30));
    assert!(m.completed);
    // §3.2: the second SPU's accesses re-mark the cached pages shared.
    let shared = &m.mem_levels[SpuId::SHARED.index()];
    assert!(shared.used >= 32, "shared pages: {}", shared.used);
    assert_eq!(m.mem_levels[SpuId::user(0).index()].used, 0);
}

#[test]
fn time_shared_cpu_gives_proportional_service() {
    // 3 SPUs on 2 CPUs under Quota: each SPU is entitled to 2/3 of a
    // CPU, realized by time-sharing. Each SPU runs TWO processes so it
    // can actually occupy both CPUs its fractional share spans (a single
    // process is indivisible and would forfeit overlapping grants).
    let cfg = MachineConfig::builder()
        .topology(2, 16, 1)
        .scheme(Scheme::Quota)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(3));
    for s in 0..3u32 {
        for j in 0..2 {
            k.spawn_at(
                SpuId::user(s),
                spinner(10_000),
                Some(&format!("s{s}j{j}")),
                SimTime::ZERO,
            );
        }
    }
    // Cap the run: nobody finishes; we only inspect the shares.
    let m = k.run(SimTime::from_secs(3));
    let times: Vec<f64> = (0..3)
        .map(|s| m.spu_cpu_time[SpuId::user(s).index()].as_secs_f64())
        .collect();
    let total: f64 = times.iter().sum();
    assert!(total > 5.0, "machine mostly busy: {total}");
    for (s, t) in times.iter().enumerate() {
        let share = t / total;
        assert!(
            (share - 1.0 / 3.0).abs() < 0.07,
            "spu {s} got {share:.3} of the CPU: {times:?}"
        );
    }
}

#[test]
fn weighted_time_sharing_follows_the_contract() {
    // Two SPUs with a 1:3 contract on a single CPU.
    let cfg = MachineConfig::builder()
        .topology(1, 16, 1)
        .scheme(Scheme::Quota)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::with_weights(&[1, 3]));
    for s in 0..2u32 {
        k.spawn_at(
            SpuId::user(s),
            spinner(10_000),
            Some(&format!("s{s}")),
            SimTime::ZERO,
        );
    }
    let m = k.run(SimTime::from_secs(4));
    let t0 = m.spu_cpu_time[SpuId::user(0).index()].as_secs_f64();
    let t1 = m.spu_cpu_time[SpuId::user(1).index()].as_secs_f64();
    let ratio = t1 / t0;
    assert!(
        (2.5..3.5).contains(&ratio),
        "expected ~3x, got {ratio} ({t0} vs {t1})"
    );
}

#[test]
fn prefetch_keeps_multiple_reads_outstanding() {
    // Pipelined read-ahead exists to keep the disk queue occupied
    // ("multiple outstanding reads", §4.5). A single stream cannot go
    // faster than the disk either way, but WITH prefetch its requests
    // queue behind each other (non-zero per-request wait); WITHOUT it
    // each request is issued into an idle disk (wait ≈ 0).
    let run = |windows: u32| {
        let tuning = Tuning {
            prefetch_windows: windows,
            ..Tuning::default()
        };
        let cfg = MachineConfig::builder()
            .topology(1, 44, 1)
            .scheme(Scheme::PIso)
            .tuning(tuning)
            .build()
            .unwrap();
        let mut k = Kernel::new(cfg, SpuSet::equal_users(1));
        let f = k.create_file(0, 4 * 1024 * 1024, 0);
        let prog = Program::builder("seq").read(f, 0, 4 * 1024 * 1024).build();
        k.spawn_at(SpuId::user(0), prog, Some("seq"), SimTime::ZERO);
        let m = k.run(SimTime::from_secs(120));
        assert!(m.completed);
        (
            m.disks[0].stream(SpuId::user(0)).mean_wait_ms(),
            m.job("seq").unwrap().response().unwrap(),
        )
    };
    let (wait_with, resp_with) = run(4);
    let (wait_without, resp_without) = run(0);
    assert!(
        wait_with > wait_without + 0.3,
        "prefetch must keep requests queued: with={wait_with}ms without={wait_without}ms"
    );
    // And it must never make the stream slower.
    assert!(resp_with.as_secs_f64() <= resp_without.as_secs_f64() * 1.02);
}

#[test]
fn kernel_spu_memory_reduces_user_entitlements() {
    let cfg = MachineConfig::builder()
        .topology(1, 16, 1)
        .scheme(Scheme::PIso)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
    k.spawn_at(SpuId::user(0), spinner(10), Some("j"), SimTime::ZERO);
    let m = k.run(SimTime::from_secs(10));
    assert!(m.completed);
    let total = 16 * 256; // frames
    let kernel_used = m.mem_levels[SpuId::KERNEL.index()].used;
    assert_eq!(kernel_used, (total as f64 * KERNEL_MEM_FRAC).round() as u64);
    // Users split what the kernel does not hold.
    let e0 = m.mem_levels[SpuId::user(0).index()].entitled;
    let e1 = m.mem_levels[SpuId::user(1).index()].entitled;
    assert!(e0 + e1 <= total - kernel_used);
    assert!(e0 + e1 >= total - kernel_used - 2);
}

#[test]
fn per_resource_weights_split_memory_independently() {
    // Equal CPU shares but a 1:3 memory contract.
    let spus = SpuSet::equal_users(2).with_memory_weights(&[1, 3]);
    let cfg = MachineConfig::builder()
        .topology(2, 16, 1)
        .scheme(Scheme::PIso)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, spus);
    k.spawn_at(SpuId::user(0), spinner(10), Some("j"), SimTime::ZERO);
    let m = k.run(SimTime::from_secs(10));
    assert!(m.completed);
    let e0 = m.mem_levels[SpuId::user(0).index()].entitled as f64;
    let e1 = m.mem_levels[SpuId::user(1).index()].entitled as f64;
    assert!(
        (e1 / e0 - 3.0).abs() < 0.05,
        "memory contract: {e0} vs {e1}"
    );
}

#[test]
fn trace_records_loans_and_revocations_under_piso() {
    let cfg = MachineConfig::builder()
        .topology(2, 16, 2)
        .scheme(Scheme::PIso)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
    // user0: interactive (blocks often, freeing its CPU for loans).
    let f = k.create_file(0, 4096, 0);
    let mut b = Program::builder("interactive");
    for _ in 0..20 {
        b = b.compute(ms(1), 0).meta_write(f);
    }
    k.spawn_at(SpuId::user(0), b.build(), Some("i"), SimTime::ZERO);
    // user1: two hogs, eager to borrow.
    for i in 0..2 {
        k.spawn_at(
            SpuId::user(1),
            spinner(2000),
            Some(&format!("h{i}")),
            SimTime::ZERO,
        );
    }
    k.enable_trace(100_000);
    let m = k.run(SimTime::from_secs(60));
    assert!(m.completed);
    let trace = k.trace();
    assert!(trace.loan_count() > 0, "loans must occur under PIso");
    assert!(
        trace.preempt_count() > 0,
        "revocation preemptions must occur"
    );
    // Direct measurement of the §3.1 claim: the maximum wake→dispatch
    // latency for the home SPU is bounded by the clock tick (10 ms) plus
    // scheduling slack.
    let lats = trace.wake_to_dispatch_latencies(SpuId::user(0));
    assert!(!lats.is_empty());
    let max = lats.iter().max().unwrap();
    assert!(*max <= ms(11), "revocation latency exceeded a tick: {max}");
}

#[test]
fn trace_shows_no_loans_under_quota() {
    let cfg = MachineConfig::builder()
        .topology(2, 16, 1)
        .scheme(Scheme::Quota)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
    k.spawn_at(SpuId::user(0), spinner(200), Some("a"), SimTime::ZERO);
    for i in 0..3 {
        k.spawn_at(
            SpuId::user(1),
            spinner(500),
            Some(&format!("b{i}")),
            SimTime::ZERO,
        );
    }
    k.enable_trace(100_000);
    let m = k.run(SimTime::from_secs(60));
    assert!(m.completed);
    assert_eq!(k.trace().loan_count(), 0, "Quota never loans CPUs");
}

#[test]
fn trace_disabled_by_default() {
    let cfg = MachineConfig::builder().topology(1, 16, 1).build().unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(1));
    k.spawn_at(SpuId::user(0), spinner(50), Some("j"), SimTime::ZERO);
    let m = k.run(SimTime::from_secs(10));
    assert!(m.completed);
    assert!(k.trace().events().is_empty());
}
