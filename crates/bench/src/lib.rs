//! Criterion benchmark harness for the performance-isolation
//! reproduction. One bench target, `core`, owns the tracked perf
//! baseline: the hot-path micros below, the quick-scale sweep of every
//! experiment matrix end to end, and the attribution overhead ratio,
//! written to `BENCH_core.json` and ratcheted in CI.
//!
//! The paper's figures and tables come from the examples
//! (`cargo run --release --example paper_tables`), not from the benches.

/// Re-exported experiment scale for bench configuration.
pub use experiments::Scale;

/// Micro-benchmark targets the `core` bench times into the tracked
/// `BENCH_core.json` baseline: the kernel hot paths this repo
/// optimises — event-queue churn, scheduler picks and steals, a whole
/// 512-CPU run, the page-fault path and the buffer cache's
/// write-behind cycle.
pub mod micro_targets {
    use criterion::{black_box, Criterion};
    use event_sim::{EventQueue, SimDuration, SimTime};
    use smp_kernel::{
        BufferCache, FileId, FrameId, Kernel, MachineConfig, ProcTable, Process, Program, Scheduler,
    };
    use spu_core::{Scheme, SpuId, SpuSet};

    /// Timing-wheel churn: 1k schedules followed by a full drain.
    pub fn bench_event_queue(c: &mut Criterion) {
        c.bench_function("event_queue/push_pop_1k", |b| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for i in 0..1000u64 {
                    q.schedule(SimTime::from_nanos((i * 7919) % 100_000), i);
                }
                let mut sum = 0u64;
                while let Some((_, v)) = q.pop() {
                    sum += v;
                }
                black_box(sum)
            })
        });
    }

    /// Scheduler pick-next under load: 16 CPU-bound processes time-slice
    /// on 2 CPUs, so the run is dominated by dispatch/preempt decisions.
    pub fn bench_scheduler_pick(c: &mut Criterion) {
        c.bench_function("sched/pick_under_load", |b| {
            b.iter(|| {
                let cfg = MachineConfig::builder()
                    .topology(2, 32, 1)
                    .scheme(Scheme::PIso)
                    .build()
                    .unwrap();
                let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
                let spin = Program::builder("spin")
                    .compute(SimDuration::from_millis(40), 0)
                    .build();
                for i in 0..16u32 {
                    k.spawn_at(SpuId::user(i % 2), spin.clone(), None, SimTime::ZERO);
                }
                black_box(k.run(SimTime::from_secs(10)).end_time)
            })
        });
    }

    /// A whole 30 s kernel run at machine scale: 512 CPUs and 1024 SPUs
    /// time-sharing two to a CPU, with 1,536 spawned CPU hogs. It times
    /// every layer the run touches — dispatch, steals, loan revocation,
    /// priority decay and the per-tick ledger audit — not one pick;
    /// `sched/steal_at_512_cpus` times the steal alone.
    pub fn bench_kernel_run_512(c: &mut Criterion) {
        c.bench_function("kernel/run_512_cpus", |b| {
            b.iter(|| {
                let (cfg, set) = MachineConfig::builder()
                    .topology(512, 3072, 1)
                    .scheme(Scheme::PIso)
                    .spus(1024, 1)
                    .build_with_spus()
                    .unwrap();
                let mut k = Kernel::new(cfg, set);
                let spin = Program::builder("spin")
                    .compute(SimDuration::from_millis(40), 0)
                    .build();
                for s in 0..1024u32 {
                    for _ in 0..(s % 2 + 1) {
                        k.spawn_at(SpuId::user(s), spin.clone(), None, SimTime::ZERO);
                    }
                }
                black_box(k.run(SimTime::from_secs(30)).end_time)
            })
        });
    }

    /// [`Scheduler::pick`] as the PIso idle-CPU steal at machine scale:
    /// 512 CPUs and 1024 SPUs, with three ready processes in every SPU
    /// homed only on CPUs 256–511. CPUs 0–255 have empty homes, so each
    /// of their picks loans the CPU to the machine-wide best process.
    /// Each iteration times 256 such steals, re-enqueuing every pick so
    /// the ready set stays the same size.
    pub fn bench_scheduler_steal_512(c: &mut Criterion) {
        // CPU `i` time-shares users `2i` and `2i + 1`, so users 512–1023
        // are homed on CPUs 256–511.
        let spus = SpuSet::equal_users(1024);
        let mut s = Scheduler::new(Scheme::PIso, 512, &spus);
        let prog = Program::builder("ready").build();
        let mut procs = ProcTable::new();
        for user in 512..1024 {
            for _ in 0..3 {
                let pid = procs.next_pid();
                let spu = SpuId::user(user);
                procs.insert(Process::new(
                    pid,
                    spu,
                    None,
                    prog.clone(),
                    None,
                    SimTime::ZERO,
                ));
                s.enqueue(&mut procs, pid);
            }
        }
        c.bench_function("sched/steal_at_512_cpus", |b| {
            b.iter(|| {
                for cpu in 0..256 {
                    let (pid, loaned) = s.pick(&mut procs, cpu).expect("ready work");
                    assert!(loaned, "CPU {cpu} picked from its own home");
                    s.enqueue(&mut procs, pid);
                }
                black_box(s.ready_count())
            })
        });
    }

    /// The page-fault path under thrash: a working-set sweep larger than
    /// memory on a 1-CPU machine, so the run is dominated by
    /// `acquire_frame`/victim selection/swap traffic.
    pub fn bench_fault_path(c: &mut Criterion) {
        c.bench_function("vm/fault_thrash", |b| {
            b.iter(|| {
                let cfg = MachineConfig::builder()
                    .topology(1, 8, 1)
                    .scheme(Scheme::Smp)
                    .build()
                    .unwrap();
                let mut k = Kernel::new(cfg, SpuSet::equal_users(1));
                // 8 MB is 2048 frames; a 2500-page sweep (repeated)
                // evicts continuously.
                let sweep = Program::builder("sweep")
                    .alloc(2500)
                    .compute(SimDuration::from_millis(5), 2500)
                    .compute(SimDuration::from_millis(5), 2500)
                    .build();
                k.spawn_at(SpuId::user(0), sweep, Some("sweep"), SimTime::ZERO);
                black_box(k.run(SimTime::from_secs(60)).end_time)
            })
        });
    }

    /// The resident hit path: a working set that *fits* in memory swept
    /// repeatedly. After the first zero-fill pass every round is pure
    /// resident touches — the slab-slice walk plus frame-stamp updates,
    /// with no eviction, no I/O, and no map lookups. Guards the arena
    /// page-table fast path in isolation from swap traffic.
    pub fn bench_fault_resident(c: &mut Criterion) {
        c.bench_function("vm/fault_resident", |b| {
            b.iter(|| {
                let cfg = MachineConfig::builder()
                    .topology(1, 8, 1)
                    .scheme(Scheme::Smp)
                    .build()
                    .unwrap();
                let mut k = Kernel::new(cfg, SpuSet::equal_users(1));
                // 1500 pages of 2048 frames: never evicts.
                let sweep = Program::builder("resident")
                    .alloc(1500)
                    .compute(SimDuration::from_millis(2), 1500)
                    .compute(SimDuration::from_millis(2), 1500)
                    .compute(SimDuration::from_millis(2), 1500)
                    .compute(SimDuration::from_millis(2), 1500)
                    .build();
                k.spawn_at(SpuId::user(0), sweep, Some("resident"), SimTime::ZERO);
                black_box(k.run(SimTime::from_secs(60)).end_time)
            })
        });
    }

    /// The coalesced swap-in drain: one oversized sweep pushes the tail
    /// of the working set to swap, and the second sweep faults it back
    /// in ascending page order — contiguous swap slots coalesce into
    /// multi-page reads whose completions land on the same tick and
    /// drain through the event queue's batched `pop_run` path.
    pub fn bench_swapin_batch(c: &mut Criterion) {
        c.bench_function("vm/swapin_batch", |b| {
            b.iter(|| {
                let cfg = MachineConfig::builder()
                    .topology(1, 8, 1)
                    .scheme(Scheme::Smp)
                    .build()
                    .unwrap();
                let mut k = Kernel::new(cfg, SpuSet::equal_users(1));
                // 3000 pages of 2048 frames: the first sweep swaps out
                // ~1000 pages, the second swaps them back in.
                let sweep = Program::builder("swapin")
                    .alloc(3000)
                    .compute(SimDuration::from_millis(2), 3000)
                    .compute(SimDuration::from_millis(2), 3000)
                    .build();
                k.spawn_at(SpuId::user(0), sweep, Some("swapin"), SimTime::ZERO);
                black_box(k.run(SimTime::from_secs(60)).end_time)
            })
        });
    }

    /// The buffer cache's write-behind cycle on its own: 16,384 cached
    /// blocks over four files, each in turn evicted, refilled (fill,
    /// then completion) and dirtied, with every dirty block taken for
    /// flushing after each 64 writes. Every eighth write also evicts and
    /// re-caches the block dirtied four writes earlier, leaving a stale
    /// key on the dirty list. Each iteration ends with every block valid
    /// and clean, the state it started from.
    pub fn bench_bufcache_flush(c: &mut Criterion) {
        const FILES: u64 = 4;
        const BLOCKS: u64 = 16_384;
        const TAKE_EVERY: u64 = 64;
        let key = |i: u64| (FileId((i % FILES) as u32), i / FILES);
        let mut cache = BufferCache::new();
        for i in 0..BLOCKS {
            let (file, block) = key(i);
            cache.insert_valid(file, block, FrameId(i as u32), false);
        }
        c.bench_function("bufcache/write_flush_cycle", |b| {
            b.iter(|| {
                let mut flushed = 0;
                for i in 0..BLOCKS {
                    let (file, block) = key(i);
                    let frame = cache.remove(file, block).expect("cached").frame();
                    cache.insert_filling(file, block, frame, i);
                    cache.complete_fill(file, block);
                    cache.mark_dirty(file, block);
                    if i % 8 == 7 {
                        let (file, block) = key(i - 4);
                        let frame = cache.remove(file, block).expect("cached").frame();
                        cache.insert_valid(file, block, frame, false);
                    }
                    if (i + 1) % TAKE_EVERY == 0 {
                        let n = cache.take_dirty().len() as u64;
                        cache.flush_completed(n);
                        flushed += n;
                    }
                }
                black_box(flushed)
            })
        });
    }
}
