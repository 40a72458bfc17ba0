//! Property test: the arena/struct-of-arrays VM (lazily grown,
//! direct-indexed frame columns, intrusive per-class residency lists,
//! occupancy counters) is behavior-identical to the straightforward model
//! it replaced — an eagerly filled table of dense `Frame` structs with a
//! free stack of every frame, and one merged arrival-order residency
//! queue per SPU, scanned linearly for victims.
//!
//! The reference model below reimplements that old semantics verbatim.
//! Both models are driven through identical random fault / evict / swap
//! / pin / share / exit sequences and must agree on *everything*
//! observable: every returned frame id, every eviction (owner, SPU,
//! dirty) in order, the per-SPU charge counts, every frame's state
//! (never-used ones included), and the swap-out/denial statistics.

use proptest::prelude::*;
use smp_kernel::{Acquired, Evicted, FileId, FrameId, FrameOwner, MemoryManager, Pid};
use spu_core::{Scheme, SpuId, SpuSet};

/// Frames in the small machine, where memory fills within a few dozen
/// steps and most of a sequence runs at capacity.
const TOTAL_FRAMES: u64 = 32;
/// Frames in the large machine, where the lazy table's high-water mark
/// stays below capacity for a good part of a long sequence.
const LARGE_FRAMES: u64 = 160;
const USERS: usize = 3;

/// SpuId for ledger index `i`: kernel, shared, then the users.
fn spu_at(i: usize) -> SpuId {
    match i {
        0 => SpuId::KERNEL,
        1 => SpuId::SHARED,
        n => SpuId::user(n as u32 - 2),
    }
}

/// One frame of the reference model: the old dense struct, complete
/// with the stamp/arrival epochs that order victim selection.
#[derive(Clone, Copy, Debug)]
struct RefFrame {
    owner: FrameOwner,
    spu: SpuId,
    dirty: bool,
    pinned: bool,
    stamp: u64,
    arrival: u64,
}

/// The pre-refactor memory manager: one merged arrival-order residency
/// queue per SPU, linear victim scans, plain per-SPU counters.
struct RefVm {
    frames: Vec<RefFrame>,
    free: Vec<u32>,
    /// Per-SPU resident frames in arrival order (kernel frames never
    /// enter a queue).
    queues: Vec<Vec<u32>>,
    used: Vec<u64>,
    allowed: Vec<u64>,
    total_used: u64,
    capacity: u64,
    enforce: bool,
    seq: u64,
    swap_outs: Vec<u64>,
    denials: Vec<u64>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RefChargeError {
    Exhausted,
    OverAllowed,
}

impl RefVm {
    /// Builds the reference alongside a freshly booted real manager of
    /// `total` frames, copying its boot-time kernel charge and allowed
    /// levels (the policy pass never runs during the op sequence, so they
    /// stay frozen in both models). Boot took the kernel's frames off
    /// the top of the full free stack: ids `0..kernel`.
    fn mirroring(vm: &MemoryManager, spus: &SpuSet, scheme: Scheme, total: u64) -> Self {
        let n_spus = spus.total_count();
        let kernel = vm.levels(SpuId::KERNEL).used;
        let mut frames = vec![
            RefFrame {
                owner: FrameOwner::Free,
                spu: SpuId::KERNEL,
                dirty: false,
                pinned: false,
                stamp: 0,
                arrival: 0,
            };
            total as usize
        ];
        let mut free: Vec<u32> = (0..total as u32).rev().collect();
        for _ in 0..kernel {
            let f = &mut frames[free.pop().expect("kernel frames fit") as usize];
            f.owner = FrameOwner::Kernel;
            f.pinned = true;
        }
        RefVm {
            frames,
            free,
            queues: vec![Vec::new(); n_spus],
            used: (0..n_spus).map(|i| vm.levels(spu_at(i)).used).collect(),
            allowed: (0..n_spus).map(|i| vm.levels(spu_at(i)).allowed).collect(),
            total_used: kernel,
            capacity: total,
            enforce: scheme.enforces_isolation(),
            seq: 0,
            swap_outs: vec![0; n_spus],
            denials: vec![0; n_spus],
        }
    }

    fn can_charge(&self, spu: SpuId) -> Result<(), RefChargeError> {
        if self.capacity - self.total_used < 1 {
            return Err(RefChargeError::Exhausted);
        }
        if self.enforce
            && spu != SpuId::KERNEL
            && self.used[spu.index()] + 1 > self.allowed[spu.index()]
        {
            return Err(RefChargeError::OverAllowed);
        }
        Ok(())
    }

    /// Old victim rule: the first unpinned *cache* frame anywhere in
    /// the SPU's arrival-order queue, else the first unpinned anonymous
    /// frame.
    fn pop_victim(&mut self, spu: SpuId) -> Option<Evicted> {
        let q = &self.queues[spu.index()];
        let cache_pos = q.iter().position(|&f| {
            !self.frames[f as usize].pinned
                && matches!(self.frames[f as usize].owner, FrameOwner::Cache { .. })
        });
        let pos = cache_pos.or_else(|| q.iter().position(|&f| !self.frames[f as usize].pinned))?;
        let fid = self.queues[spu.index()].remove(pos);
        let fr = self.frames[fid as usize];
        let ev = Evicted {
            owner: fr.owner,
            spu: fr.spu,
            dirty: fr.dirty,
        };
        if ev.dirty && matches!(fr.owner, FrameOwner::Anon { .. }) {
            self.swap_outs[spu.index()] += 1;
        }
        self.used[spu.index()] -= 1;
        self.total_used -= 1;
        let f = &mut self.frames[fid as usize];
        f.owner = FrameOwner::Free;
        f.spu = spu;
        f.dirty = false;
        f.pinned = false;
        self.free.push(fid);
        Some(ev)
    }

    fn first_unpinned_stamp(&self, spu: SpuId) -> Option<u64> {
        self.queues[spu.index()]
            .iter()
            .find(|&&f| !self.frames[f as usize].pinned)
            .map(|&f| self.frames[f as usize].stamp)
    }

    fn global_victim_spu(&self) -> Option<SpuId> {
        let candidates = (0..USERS as u32)
            .map(SpuId::user)
            .chain(std::iter::once(SpuId::SHARED));
        if self.enforce {
            let mut best: Option<(i64, u64, SpuId)> = None;
            for id in candidates {
                let used = self.used[id.index()];
                if used == 0 {
                    continue;
                }
                let over = used as i64 - self.allowed[id.index()] as i64;
                if best.is_none_or(|b| (over, used) > (b.0, b.1)) {
                    best = Some((over, used, id));
                }
            }
            best.map(|(_, _, id)| id)
        } else {
            let mut best: Option<(u64, SpuId)> = None;
            for id in candidates {
                if let Some(stamp) = self.first_unpinned_stamp(id) {
                    if best.is_none_or(|(bs, _)| stamp < bs) {
                        best = Some((stamp, id));
                    }
                }
            }
            best.map(|(_, id)| id)
        }
    }

    fn acquire(&mut self, spu: SpuId, owner: FrameOwner) -> Acquired {
        let evicted = match self.can_charge(spu) {
            Ok(()) => None,
            Err(RefChargeError::OverAllowed) => match self.pop_victim(spu) {
                Some(v) => Some(v),
                None => {
                    self.denials[spu.index()] += 1;
                    return Acquired::Denied;
                }
            },
            Err(RefChargeError::Exhausted) => {
                match self.global_victim_spu().and_then(|vs| self.pop_victim(vs)) {
                    Some(v) => Some(v),
                    None => {
                        self.denials[spu.index()] += 1;
                        return Acquired::Denied;
                    }
                }
            }
        };
        let fid = if evicted.is_some() {
            self.free.pop().expect("victim frame must be free")
        } else {
            match self.free.pop() {
                Some(f) => f,
                None => match self.global_victim_spu().and_then(|vs| self.pop_victim(vs)) {
                    Some(_v) => self.free.pop().expect("victim frame must be free"),
                    None => {
                        self.denials[spu.index()] += 1;
                        return Acquired::Denied;
                    }
                },
            }
        };
        self.used[spu.index()] += 1;
        self.total_used += 1;
        self.seq += 1;
        let stamp = self.seq;
        self.seq += 1;
        let arrival = self.seq;
        self.frames[fid as usize] = RefFrame {
            owner,
            spu,
            dirty: false,
            pinned: false,
            stamp,
            arrival,
        };
        self.queues[spu.index()].push(fid);
        Acquired::Frame {
            frame: FrameId(fid),
            evicted,
        }
    }

    fn touch(&mut self, fid: FrameId) {
        self.seq += 1;
        self.frames[fid.0 as usize].stamp = self.seq;
    }

    fn release(&mut self, fid: FrameId) {
        let fr = self.frames[fid.0 as usize];
        assert!(!matches!(fr.owner, FrameOwner::Free));
        if !matches!(fr.owner, FrameOwner::Kernel) {
            let q = &mut self.queues[fr.spu.index()];
            let pos = q.iter().position(|&f| f == fid.0).expect("queued");
            q.remove(pos);
        }
        self.used[fr.spu.index()] -= 1;
        self.total_used -= 1;
        let f = &mut self.frames[fid.0 as usize];
        f.owner = FrameOwner::Free;
        f.dirty = false;
        f.pinned = false;
        self.free.push(fid.0);
    }

    fn mark_shared(&mut self, fid: FrameId) {
        let fr = self.frames[fid.0 as usize];
        if !fr.spu.is_user() {
            return;
        }
        let q = &mut self.queues[fr.spu.index()];
        let pos = q.iter().position(|&f| f == fid.0).expect("queued");
        q.remove(pos);
        self.used[fr.spu.index()] -= 1;
        self.used[SpuId::SHARED.index()] += 1;
        self.frames[fid.0 as usize].spu = SpuId::SHARED;
        self.seq += 1;
        self.frames[fid.0 as usize].arrival = self.seq;
        self.queues[SpuId::SHARED.index()].push(fid.0);
    }

    fn free_process_frames(&mut self, pid: Pid) {
        for i in 0..self.frames.len() {
            if let FrameOwner::Anon { pid: p, .. } = self.frames[i].owner {
                if p == pid {
                    self.release(FrameId(i as u32));
                }
            }
        }
    }
}

/// One generated step; raw indices are interpreted against the current
/// resident set so every op is valid by construction.
#[derive(Clone, Copy, Debug)]
enum Op {
    AcquireAnon { spu: u32, pid: u32 },
    AcquireCache { spu: u32, file: u32, block: u32 },
    Touch { pick: u32 },
    Pin { pick: u32, on: bool },
    Dirty { pick: u32, on: bool },
    Release { pick: u32 },
    Share { pick: u32 },
    Exit { pid: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted op mix (faults dominate, like a real run) decoded from a
    // selector draw — the proptest shim has no `prop_oneof!`. Acquires
    // outweigh the drains enough that residency reaches the per-SPU
    // allowance and full-memory pressure, so the own-victim, global-
    // victim, and denial paths all run, not just the free-list path.
    (
        0u32..21,
        0u32..USERS as u32,
        0u32..1024,
        any::<bool>(),
        0u32..64,
    )
        .prop_map(|(sel, spu, pick, on, block)| match sel {
            0..=7 => Op::AcquireAnon { spu, pid: pick % 4 },
            8..=11 => Op::AcquireCache {
                spu,
                file: pick % 3,
                block,
            },
            12..=14 => Op::Touch { pick },
            15 => Op::Pin { pick, on },
            16..=17 => Op::Dirty { pick, on },
            18 => Op::Release { pick },
            19 => Op::Share { pick },
            _ => Op::Exit { pid: pick % 4 },
        })
}

/// Picks the `pick`-th resident (non-free, non-kernel) frame of the
/// reference model, if any — identical state in both models, so the
/// same frame is addressed in each.
fn pick_resident(r: &RefVm, pick: u32) -> Option<FrameId> {
    let resident: Vec<u32> = (0..r.frames.len() as u32)
        .filter(|&i| {
            !matches!(
                r.frames[i as usize].owner,
                FrameOwner::Free | FrameOwner::Kernel
            )
        })
        .collect();
    if resident.is_empty() {
        None
    } else {
        Some(FrameId(resident[pick as usize % resident.len()]))
    }
}

/// Compares every frame, free and never-used ones included, so a lazy
/// table's frames above its mark must read as the eager table's.
fn assert_same_state(vm: &MemoryManager, r: &RefVm, step: usize) {
    for (i, rf) in r.frames.iter().enumerate() {
        let f = vm.frame(FrameId(i as u32));
        assert_eq!(f.owner, rf.owner, "frame {i} owner diverged at step {step}");
        assert_eq!(f.spu, rf.spu, "frame {i} spu diverged at step {step}");
        assert_eq!(f.dirty, rf.dirty, "frame {i} dirty diverged at step {step}");
        assert_eq!(f.pinned, rf.pinned, "frame {i} pin diverged at step {step}");
        assert_eq!(f.stamp, rf.stamp, "frame {i} stamp diverged at step {step}");
    }
    for s in 0..USERS + 2 {
        let id = spu_at(s);
        assert_eq!(
            vm.levels(id).used,
            r.used[id.index()],
            "{id} charge count diverged at step {step}"
        );
        assert_eq!(
            vm.stats(id).swap_outs,
            r.swap_outs[id.index()],
            "{id} swap_outs diverged at step {step}"
        );
        assert_eq!(
            vm.stats(id).denials,
            r.denials[id.index()],
            "{id} denials diverged at step {step}"
        );
    }
    assert_eq!(vm.free_frames(), r.capacity - r.total_used);
}

/// Paths exercised by one sequence, so a dedicated test can prove the
/// generator actually reaches the interesting branches.
#[derive(Default)]
struct Coverage {
    evictions: u64,
    cache_evictions: u64,
    denials: u64,
    swap_outs: u64,
    /// Eviction-free acquires that got a never-used frame (the lazy
    /// table bumps its mark).
    fresh_frames: u64,
    /// Eviction-free acquires that got a recycled frame while never-used
    /// ones remained (the lazy table pops its recycled stack first).
    recycled_frames: u64,
}

/// Drives both models through `ops` on a machine of `frames` frames with
/// `kernel_frac` of them charged to the kernel at boot.
fn run_equivalence(scheme: Scheme, frames: u64, kernel_frac: f64, ops: &[Op]) -> Coverage {
    let spus = SpuSet::equal_users(USERS);
    let mut vm = MemoryManager::new(frames, &spus, scheme, kernel_frac, 0.10);
    let mut r = RefVm::mirroring(&vm, &spus, scheme, frames);
    // Per-pid page cursors keep Anon owners unique, mimicking a growing
    // region; evicted pages are simply re-faulted under a fresh index.
    let mut next_page = [0u32; 4];
    // Frames handed out so far: the kernel's, then each acquire's.
    let mut handed_out: Vec<bool> = r
        .frames
        .iter()
        .map(|f| f.owner == FrameOwner::Kernel)
        .collect();
    let mut cov = Coverage::default();
    let mut note = |want: &Acquired| match want {
        Acquired::Frame {
            evicted: Some(ev), ..
        } => {
            cov.evictions += 1;
            if matches!(ev.owner, FrameOwner::Cache { .. }) {
                cov.cache_evictions += 1;
            }
            if ev.dirty && matches!(ev.owner, FrameOwner::Anon { .. }) {
                cov.swap_outs += 1;
            }
        }
        Acquired::Frame {
            frame,
            evicted: None,
        } => {
            let i = frame.0 as usize;
            if !handed_out[i] {
                handed_out[i] = true;
                cov.fresh_frames += 1;
            } else if handed_out.contains(&false) {
                cov.recycled_frames += 1;
            }
        }
        Acquired::Denied => cov.denials += 1,
    };
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::AcquireAnon { spu, pid } => {
                let page = next_page[pid as usize];
                next_page[pid as usize] += 1;
                let owner = FrameOwner::Anon {
                    pid: Pid(pid + 1),
                    page,
                };
                let got = vm.acquire_frame(SpuId::user(spu), owner);
                let want = r.acquire(SpuId::user(spu), owner);
                note(&want);
                assert_eq!(got, want, "acquire(anon) diverged at step {step}");
            }
            Op::AcquireCache { spu, file, block } => {
                let owner = FrameOwner::Cache {
                    file: FileId(file),
                    block: block as u64,
                };
                let got = vm.acquire_frame(SpuId::user(spu), owner);
                let want = r.acquire(SpuId::user(spu), owner);
                note(&want);
                assert_eq!(got, want, "acquire(cache) diverged at step {step}");
            }
            Op::Touch { pick } => {
                if let Some(f) = pick_resident(&r, pick) {
                    vm.touch_frame(f);
                    r.touch(f);
                }
            }
            Op::Pin { pick, on } => {
                if let Some(f) = pick_resident(&r, pick) {
                    vm.set_pinned(f, on);
                    r.frames[f.0 as usize].pinned = on;
                }
            }
            Op::Dirty { pick, on } => {
                if let Some(f) = pick_resident(&r, pick) {
                    vm.set_dirty(f, on);
                    r.frames[f.0 as usize].dirty = on;
                }
            }
            Op::Release { pick } => {
                if let Some(f) = pick_resident(&r, pick) {
                    vm.release_frame(f);
                    r.release(f);
                }
            }
            Op::Share { pick } => {
                if let Some(f) = pick_resident(&r, pick) {
                    vm.mark_shared(f);
                    r.mark_shared(f);
                }
            }
            Op::Exit { pid } => {
                // Release the pid's frames in ascending frame order, the
                // order the reference model's scan frees them.
                let pid = Pid(pid + 1);
                for f in (0..frames as u32).map(FrameId) {
                    if matches!(vm.frame(f).owner, FrameOwner::Anon { pid: p, .. } if p == pid) {
                        vm.release_frame(f);
                    }
                }
                r.free_process_frames(pid);
            }
        }
        assert_same_state(&vm, &r, step);
        vm.check_invariants();
    }
    cov
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Isolation scheme: per-SPU limits enforced, own-page stealing,
    /// over-allowance global victims. No kernel fraction: every frame is
    /// in play for the op sequence.
    #[test]
    fn soa_vm_matches_reference_under_piso(ops in prop::collection::vec(op_strategy(), 1..400)) {
        run_equivalence(Scheme::PIso, TOTAL_FRAMES, 0.0, &ops);
    }

    /// SMP scheme: no limits, global-FIFO victimization by oldest
    /// unpinned stamp — the arrival/stamp bookkeeping must agree too.
    #[test]
    fn soa_vm_matches_reference_under_smp(ops in prop::collection::vec(op_strategy(), 1..400)) {
        run_equivalence(Scheme::Smp, TOTAL_FRAMES, 0.0, &ops);
    }

    /// With a tenth of memory booted to the kernel, the lazy table's
    /// frames match the eager table's on both machines under both
    /// schemes: on the large one the mark stays below capacity for part
    /// of a long sequence, so recycled pops interleave with mark bumps.
    #[test]
    fn lazy_table_matches_eager_reference_with_kernel_frames(
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        for frames in [TOTAL_FRAMES, LARGE_FRAMES] {
            for scheme in [Scheme::PIso, Scheme::Smp] {
                run_equivalence(scheme, frames, 0.10, &ops);
            }
        }
    }
}

/// Guards the generator itself: long sequences must actually drive the
/// victim-selection machinery (evictions, cache-first preference,
/// dirty-anon swap-outs), or the equivalence properties above would
/// vacuously pass on the free-list fast path alone.
#[test]
fn generated_sequences_exercise_eviction_paths() {
    use proptest::test_runner::TestRng;
    let mut rng = TestRng::deterministic("vm_equivalence::coverage");
    let strat = prop::collection::vec(op_strategy(), 300..400);
    let mut total = Coverage::default();
    for _ in 0..16 {
        let ops = strat.generate(&mut rng);
        for scheme in [Scheme::PIso, Scheme::Smp] {
            let cov = run_equivalence(scheme, TOTAL_FRAMES, 0.0, &ops);
            total.evictions += cov.evictions;
            total.cache_evictions += cov.cache_evictions;
            total.denials += cov.denials;
            total.swap_outs += cov.swap_outs;
        }
    }
    assert!(total.evictions > 50, "evictions: {}", total.evictions);
    assert!(
        total.cache_evictions > 10,
        "cache evictions: {}",
        total.cache_evictions
    );
    assert!(total.swap_outs > 10, "swap-outs: {}", total.swap_outs);
}

/// Guards the lazy table's two free-frame sources: on every machine and
/// kernel fraction the properties above run, long sequences must both
/// bump the mark and pop a recycled frame while never-used ones remain,
/// or the order between the two would go unchecked.
#[test]
fn generated_sequences_pop_recycled_frames_and_bump_the_mark() {
    use proptest::test_runner::TestRng;
    let mut rng = TestRng::deterministic("vm_equivalence::free_sources");
    let strat = prop::collection::vec(op_strategy(), 300..400);
    for (frames, kernel_frac) in [
        (TOTAL_FRAMES, 0.0),
        (TOTAL_FRAMES, 0.10),
        (LARGE_FRAMES, 0.10),
    ] {
        let (mut fresh, mut recycled) = (0, 0);
        for _ in 0..16 {
            let ops = strat.generate(&mut rng);
            for scheme in [Scheme::PIso, Scheme::Smp] {
                let cov = run_equivalence(scheme, frames, kernel_frac, &ops);
                fresh += cov.fresh_frames;
                recycled += cov.recycled_frames;
            }
        }
        assert!(fresh > 0, "{frames} frames: no mark bumps");
        assert!(
            recycled > 0,
            "{frames} frames: no recycled pops below capacity"
        );
    }
}
