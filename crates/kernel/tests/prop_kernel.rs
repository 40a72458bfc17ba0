//! Property tests for the kernel: arbitrary small workloads must run to
//! completion (no deadlock/livelock), deterministically, under every
//! scheme, with the memory ledger's books intact.

use event_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use smp_kernel::{Kernel, MachineConfig, Program};
use spu_core::{Scheme, SpuId, SpuSet};

/// A tiny generated program description.
#[derive(Clone, Debug)]
struct MiniProgram {
    compute_ms: u64,
    ws_pages: u32,
    read_kb: u64,
    write_kb: u64,
    meta_writes: u8,
    children: u8,
}

fn mini_program_strategy() -> impl Strategy<Value = MiniProgram> {
    (1u64..200, 0u32..600, 0u64..128, 0u64..128, 0u8..3, 0u8..3).prop_map(
        |(compute_ms, ws_pages, read_kb, write_kb, meta_writes, children)| MiniProgram {
            compute_ms,
            ws_pages,
            read_kb,
            write_kb,
            meta_writes,
            children,
        },
    )
}

fn build(k: &mut Kernel, disk: usize, mp: &MiniProgram) -> std::sync::Arc<Program> {
    let mut b = Program::builder("mini");
    if mp.read_kb > 0 {
        let f = k.create_file(disk, mp.read_kb * 1024, 8);
        b = b.read(f, 0, mp.read_kb * 1024);
    }
    b = b
        .alloc(mp.ws_pages.max(1))
        .compute(SimDuration::from_millis(mp.compute_ms), mp.ws_pages);
    if mp.write_kb > 0 {
        let f = k.create_file(disk, mp.write_kb * 1024, 8);
        b = b.write(f, 0, mp.write_kb * 1024);
        for _ in 0..mp.meta_writes {
            b = b.meta_write(f);
        }
    }
    if mp.children > 0 {
        let child = Program::builder("mini-child")
            .compute(SimDuration::from_millis(mp.compute_ms / 2 + 1), 0)
            .build();
        for _ in 0..mp.children {
            b = b.fork(child.clone());
        }
        b = b.wait_children();
    }
    b.build()
}

fn run_workload(
    scheme: Scheme,
    programs: &[MiniProgram],
    cpus: usize,
    mem_mb: u64,
) -> (SimTime, bool) {
    let cfg = MachineConfig::builder()
        .topology(cpus, mem_mb, 2)
        .scheme(scheme)
        .build()
        .unwrap();
    let spus = SpuSet::equal_users(2);
    let mut k = Kernel::new(cfg, spus);
    for (i, mp) in programs.iter().enumerate() {
        let spu = SpuId::user((i % 2) as u32);
        let disk = i % 2;
        let p = build(&mut k, disk, mp);
        k.spawn_at(
            spu,
            p,
            Some(&format!("j{i}")),
            SimTime::from_millis(i as u64 * 3),
        );
    }
    let m = k.run(SimTime::from_secs(600));
    // The ledger agrees with frame ownership, and the per-tick auditor
    // ran and found every invariant intact.
    k.check_invariants();
    assert_eq!(
        k.auditor().violation_count(),
        0,
        "audit violations under {scheme}"
    );
    assert!(k.auditor().checks() > 0, "auditor never ran");
    (m.end_time, m.completed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any small workload completes under every scheme — no deadlocks,
    /// no livelocks, no lost wakeups.
    #[test]
    fn workloads_always_complete(
        programs in prop::collection::vec(mini_program_strategy(), 1..6),
        scheme_idx in 0usize..3,
        cpus in 1usize..5,
    ) {
        let scheme = Scheme::ALL[scheme_idx];
        let (_, completed) = run_workload(scheme, &programs, cpus, 16);
        prop_assert!(completed, "workload deadlocked under {scheme}");
    }

    /// Identical workloads replay identically (full determinism).
    #[test]
    fn runs_are_deterministic(
        programs in prop::collection::vec(mini_program_strategy(), 1..5),
        scheme_idx in 0usize..3,
    ) {
        let scheme = Scheme::ALL[scheme_idx];
        let a = run_workload(scheme, &programs, 2, 16);
        let b = run_workload(scheme, &programs, 2, 16);
        prop_assert_eq!(a, b);
    }

    /// A job can never finish faster than its own serial CPU demand.
    #[test]
    fn response_respects_compute_floor(compute_ms in 10u64..500, ws in 0u32..200) {
        let cfg = MachineConfig::builder().topology(4, 32, 1).scheme(Scheme::PIso).build().unwrap();
        let mut k = Kernel::new(cfg, SpuSet::equal_users(1));
        let p = Program::builder("floor")
            .alloc(ws.max(1))
            .compute(SimDuration::from_millis(compute_ms), ws)
            .build();
        k.spawn_at(SpuId::user(0), p, Some("floor"), SimTime::ZERO);
        let m = k.run(SimTime::from_secs(120));
        prop_assert!(m.completed);
        let r = m.job("floor").unwrap().response().unwrap();
        prop_assert!(r >= SimDuration::from_millis(compute_ms));
    }

    /// Memory pressure never deadlocks: a working set far beyond the
    /// SPU's share still completes (thrashing, not hanging).
    #[test]
    fn thrash_completes(ws in 1500u32..2500) {
        let cfg = MachineConfig::builder().topology(2, 8, 2).scheme(Scheme::Quota).build().unwrap();
        let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
        let p = Program::builder("thrash")
            .alloc(ws)
            .compute(SimDuration::from_millis(100), ws)
            .build();
        k.spawn_at(SpuId::user(0), p, Some("t"), SimTime::ZERO);
        let m = k.run(SimTime::from_secs(600));
        prop_assert!(m.completed, "thrash workload hung");
        prop_assert!(m.vm[SpuId::user(0).index()].major_faults > 0);
    }
}
