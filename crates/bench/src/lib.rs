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
/// optimises — event-queue churn and same-instant bursts, scheduler
/// picks and steals, booting and running a 512-CPU machine, the
/// page-fault path, the buffer cache's write-behind cycle, the disk
/// pick and the export renderers.
pub mod micro_targets {
    use criterion::{black_box, Criterion};
    use event_sim::{EventQueue, SimDuration, SimTime};
    use hp_disk::{DiskDevice, DiskModel, DiskRequest, RequestKind, SchedulerKind};
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

    /// A same-instant burst, the shape of a t = 0 spawn burst: 2,048
    /// schedules at one instant on a fresh queue, then one `pop_run`
    /// drain. The queue and the drain buffer are built untimed.
    pub fn bench_event_queue_burst(c: &mut Criterion) {
        c.bench_function("event_queue/burst_same_instant", |b| {
            b.iter_batched(
                || (EventQueue::new(), Vec::with_capacity(2048)),
                |(mut q, mut out)| {
                    for i in 0..2048u64 {
                        q.schedule(SimTime::ZERO, i);
                    }
                    q.pop_run(&mut out);
                    // Returned, so dropping them is not timed.
                    (q, out)
                },
            )
        });
    }

    /// [`Scheduler::pick`] from one long ready list: 512 processes queued
    /// on one SPU across priority bands 0–5, driven without a kernel.
    /// Each iteration times 1,024 cycles of pick, a 30 ms
    /// [`ProcTable::charge_p_cpu`] and re-enqueue on the SPU's one CPU,
    /// with a [`Scheduler::decay_priorities`] every 64 picks, so decay
    /// moves bands inside the list as it does in a run.
    pub fn bench_scheduler_pick(c: &mut Criterion) {
        const QUEUED: u32 = 512;
        const PICKS: u32 = 1024;
        const DECAY_EVERY: u32 = 64;
        let spus = SpuSet::equal_users(1);
        let mut s = Scheduler::new(Scheme::PIso, 1, &spus);
        let prog = Program::builder("ready").build();
        let mut procs = ProcTable::new();
        for i in 0..QUEUED {
            let pid = procs.next_pid();
            procs.insert(Process::new(
                pid,
                SpuId::user(0),
                None,
                prog.clone(),
                None,
                SimTime::ZERO,
            ));
            // Mid-band charges: band `i % 6`.
            procs.charge_p_cpu(pid, f64::from(i % 6) * 120.0 + 60.0);
            s.enqueue(&mut procs, pid);
        }
        c.bench_function("sched/pick_long_ready_list", |b| {
            b.iter(|| {
                for i in 1..=PICKS {
                    let (pid, loaned) = s.pick(&mut procs, 0).expect("ready work");
                    assert!(!loaned, "the lone CPU picked outside its home");
                    procs.charge_p_cpu(pid, 30.0);
                    s.enqueue(&mut procs, pid);
                    if i % DECAY_EVERY == 0 {
                        s.decay_priorities(&mut procs);
                    }
                }
                black_box(s.ready_count())
            })
        });
    }

    /// The machine the `kernel/*_512_cpus` micros use: 512 CPUs and
    /// 3,072 MB, with 1024 SPUs time-sharing two to a CPU.
    fn machine_512() -> (MachineConfig, SpuSet) {
        MachineConfig::builder()
            .topology(512, 3072, 1)
            .scheme(Scheme::PIso)
            .spus(1024, 1)
            .build_with_spus()
            .expect("valid 512-CPU machine")
    }

    /// Boots [`machine_512`] and spawns its 1,536 CPU hogs at t = 0: one
    /// in every even SPU, two in every odd one.
    fn boot_512((cfg, set): (MachineConfig, SpuSet)) -> Kernel {
        let mut k = Kernel::new(cfg, set);
        let spin = Program::builder("spin")
            .compute(SimDuration::from_millis(40), 0)
            .build();
        for s in 0..1024u32 {
            for _ in 0..(s % 2 + 1) {
                k.spawn_at(SpuId::user(s), spin.clone(), None, SimTime::ZERO);
            }
        }
        k
    }

    /// Booting the 512-CPU machine: [`Kernel::new`] plus the 1,536
    /// spawns at t = 0. The machine config is built untimed.
    pub fn bench_kernel_boot_512(c: &mut Criterion) {
        c.bench_function("kernel/boot_512_cpus", |b| {
            b.iter_batched(machine_512, boot_512)
        });
    }

    /// A whole 30 s kernel run at machine scale, on a kernel booted with
    /// its 1,536 hogs in untimed set-up. It times every layer the run
    /// touches — dispatch, steals, loan revocation, priority decay and
    /// the per-tick ledger audit — not one pick;
    /// `sched/steal_at_512_cpus` times the steal alone.
    pub fn bench_kernel_run_512(c: &mut Criterion) {
        c.bench_function("kernel/run_512_cpus", |b| {
            b.iter_batched(
                || boot_512(machine_512()),
                // The kernel is returned, so dropping it is not timed.
                |mut k| (k.run(SimTime::from_secs(30)).end_time, k),
            )
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

    /// The Hybrid disk pick on a deep queue, driven without a kernel: a
    /// [`DiskDevice`] with 18 streams (kernel, shared and 16 users) and
    /// 96 queued 64-sector reads from 4 busy users. The 12 idle users
    /// pull the average usage down, so every queued stream fails the
    /// fairness criterion and each pick takes the fairness fallback, as
    /// most picks on simbench's `mem_pressure` do. Each iteration times
    /// 4,000 completions; each submits a new request on the completed
    /// request's stream at a pseudo-random sector, so 96 stay queued.
    pub fn bench_disk_hybrid_deep_queue(c: &mut Criterion) {
        const USERS: usize = 16;
        const BUSY: u32 = 4;
        const QUEUED: u32 = 96;
        const COMPLETIONS: u32 = 4_000;
        const SECTORS: u32 = 64;
        let model = DiskModel::hp97560();
        let span = model.total_sectors() - u64::from(SECTORS);
        let mut disk = DiskDevice::new(model, SchedulerKind::Hybrid, USERS + 2);
        // xorshift64: a fixed pseudo-random sequence of start sectors.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut sector = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % span
        };
        let read = |stream, start| DiskRequest::new(stream, RequestKind::Read, start, SECTORS);
        // The first request starts at once; the other 96 queue.
        let mut next = None;
        for i in 0..=QUEUED {
            if let Some(c) = disk.submit(read(SpuId::user(i % BUSY), sector()), SimTime::ZERO) {
                next = Some(c);
            }
        }
        let mut next = next.expect("the idle disk starts the first request");
        c.bench_function("disk/hybrid_deep_queue", |b| {
            b.iter(|| {
                let mut sum = 0u64;
                for _ in 0..COMPLETIONS {
                    let (done, started) = disk.complete(next.at);
                    let queued = disk.submit(read(done.req.stream, sector()), next.at);
                    assert!(queued.is_none(), "the disk is busy");
                    next = started.expect("the queue never drains");
                    sum += done.req.start;
                }
                black_box(sum)
            })
        });
    }

    /// The export layer: [`smp_kernel::metrics_jsonl`] plus
    /// [`smp_kernel::interference_matrix_json`], the two renderers
    /// simbench's `export.render` times, on the metrics of the quick
    /// instrumented lock-leakage run (attribution, SLO tracker and 10 ms
    /// sampling on: 133 KiB of JSONL). The run is simulated once,
    /// untimed.
    pub fn bench_export(c: &mut Criterion) {
        let metrics = experiments::lock_leakage::run_instrumented(crate::Scale::Quick).metrics;
        c.bench_function("export/metrics_jsonl", |b| {
            b.iter(|| {
                let mut out = smp_kernel::metrics_jsonl(black_box(&metrics));
                out.push_str(&smp_kernel::interference_matrix_json(
                    metrics.interference(),
                ));
                out
            })
        });
    }
}
