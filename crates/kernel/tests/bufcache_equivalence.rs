//! Property test: the dense-table buffer cache (per-file block tables, a
//! list of dirtied keys that `take_dirty` drains, per-file fill counts)
//! is behavior-identical to the hash-map cache it replaced.
//!
//! The reference model below is that old cache: one hash map keyed by
//! `(file, block)`, and a flush that scans the whole map for dirty
//! entries, sorts them by `(file, block)` and takes them all, plus the
//! per-file in-flight fill counts the kernel kept in a map of its own.
//! Both are driven through identical random insert / fill / lookup /
//! dirty / evict / flush sequences and must agree on every return value,
//! the counters, the dirty and flushing loads, the block count, every
//! block's entry and, once sorted, every flush batch. The real cache
//! sits on a memory manager that owns each entry's frame as that block,
//! so `BufferCache::check_invariants` runs after every step, along with
//! the converse check it leaves out.

use std::collections::HashMap;

use proptest::prelude::*;
use smp_kernel::{
    Acquired, BufferCache, CacheEntry, CacheStats, FileId, FrameId, FrameOwner, MemoryManager,
};
use spu_core::{Scheme, SpuId, SpuSet};

const FILES: u32 = 2;
const BLOCKS: u64 = 8;

/// The pre-refactor cache: a hash map, and a flush that scans, sorts
/// and takes every dirty block.
#[derive(Default)]
struct RefCache {
    map: HashMap<(FileId, u64), CacheEntry>,
    dirty: u64,
    flushing: u64,
    stats: CacheStats,
    /// Outstanding fill requests per file, as the kernel counted them.
    filling: HashMap<FileId, u32>,
}

impl RefCache {
    fn get(&self, file: FileId, block: u64) -> Option<CacheEntry> {
        self.map.get(&(file, block)).copied()
    }

    fn lookup(&mut self, file: FileId, block: u64) -> Option<CacheEntry> {
        let e = self.get(file, block);
        match e {
            Some(CacheEntry::Valid { .. }) => self.stats.hits += 1,
            Some(CacheEntry::Filling { .. }) => self.stats.fill_joins += 1,
            None => self.stats.misses += 1,
        }
        e
    }

    fn insert_valid(&mut self, file: FileId, block: u64, frame: FrameId, dirty: bool) {
        let prev = self
            .map
            .insert((file, block), CacheEntry::Valid { frame, dirty });
        assert!(prev.is_none(), "block already cached");
        if dirty {
            self.dirty += 1;
        }
    }

    fn insert_filling(&mut self, file: FileId, block: u64, frame: FrameId, tag: u64) {
        let prev = self
            .map
            .insert((file, block), CacheEntry::Filling { tag, frame });
        assert!(prev.is_none(), "block already cached");
    }

    fn complete_fill(&mut self, file: FileId, block: u64) -> Option<FrameId> {
        match self.map.get_mut(&(file, block)) {
            Some(e @ CacheEntry::Filling { .. }) => {
                let frame = e.frame();
                *e = CacheEntry::Valid {
                    frame,
                    dirty: false,
                };
                Some(frame)
            }
            _ => None,
        }
    }

    fn mark_dirty(&mut self, file: FileId, block: u64) -> bool {
        match self.map.get_mut(&(file, block)) {
            Some(CacheEntry::Valid { dirty, .. }) => {
                if *dirty {
                    false
                } else {
                    *dirty = true;
                    self.dirty += 1;
                    true
                }
            }
            other => panic!("mark_dirty on non-valid entry {other:?}"),
        }
    }

    fn remove(&mut self, file: FileId, block: u64) -> Option<CacheEntry> {
        let e = self.map.remove(&(file, block));
        if let Some(CacheEntry::Valid { dirty: true, .. }) = e {
            self.dirty -= 1;
        }
        e
    }

    /// The old flush: scan everything, sort by key, take all.
    fn take_dirty(&mut self) -> Vec<(FileId, u64, FrameId)> {
        let mut batch: Vec<(FileId, u64, FrameId)> = self
            .map
            .iter()
            .filter_map(|(&(f, b), e)| match e {
                CacheEntry::Valid { frame, dirty: true } => Some((f, b, *frame)),
                _ => None,
            })
            .collect();
        batch.sort_unstable_by_key(|&(f, b, _)| (f, b));
        for &(f, b, _) in &batch {
            if let Some(CacheEntry::Valid { dirty, .. }) = self.map.get_mut(&(f, b)) {
                *dirty = false;
            }
        }
        self.dirty -= batch.len() as u64;
        self.flushing += batch.len() as u64;
        self.stats.flushed_blocks += batch.len() as u64;
        batch
    }

    fn flush_completed(&mut self, n: u64) {
        assert!(self.flushing >= n, "flush completion underflow");
        self.flushing -= n;
    }

    fn fill_issued(&mut self, file: FileId) {
        *self.filling.entry(file).or_default() += 1;
    }

    fn fill_retired(&mut self, file: FileId) {
        if let Some(n) = self.filling.get_mut(&file) {
            *n = n.saturating_sub(1);
        }
    }

    fn fills_in_flight(&self, file: FileId) -> u32 {
        self.filling.get(&file).copied().unwrap_or(0)
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    InsertValid { file: u32, block: u64, dirty: bool },
    InsertFilling { file: u32, block: u64 },
    CompleteFill { file: u32, block: u64 },
    Lookup { file: u32, block: u64 },
    Get { file: u32, block: u64 },
    MarkDirty { file: u32, block: u64 },
    Remove { file: u32, block: u64 },
    TakeDirty,
    FlushCompleted { n: u64 },
    FillIssued { file: u32 },
    FillRetired { file: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Few files and blocks, so most operations land on cached blocks
    // and evicted dirty blocks come back and are dirtied again. Inserts
    // of cached blocks and dirtying of uncached ones, which both caches
    // reject, are skipped by the driver.
    (0u32..27, 0u32..FILES, 0u64..BLOCKS, any::<bool>(), 0u64..8).prop_map(
        |(sel, file, block, dirty, n)| match sel {
            0..=5 => Op::InsertValid { file, block, dirty },
            6..=7 => Op::InsertFilling { file, block },
            8..=9 => Op::CompleteFill { file, block },
            10..=11 => Op::Lookup { file, block },
            12 => Op::Get { file, block },
            13..=17 => Op::MarkDirty { file, block },
            18..=22 => Op::Remove { file, block },
            23 => Op::TakeDirty,
            24 => Op::FlushCompleted { n },
            25 => Op::FillIssued { file },
            _ => Op::FillRetired { file },
        },
    )
}

/// A frame the memory manager owns as `file`'s `block`, the way the
/// kernel allocates one before inserting the block.
fn cache_frame(vm: &mut MemoryManager, file: FileId, block: u64) -> FrameId {
    match vm.acquire_frame(SpuId::user(0), FrameOwner::Cache { file, block }) {
        Acquired::Frame {
            frame,
            evicted: None,
        } => frame,
        other => panic!("memory holds every block, got {other:?}"),
    }
}

fn assert_same_state(c: &BufferCache, r: &RefCache, vm: &MemoryManager, step: usize) {
    assert_eq!(c.stats(), r.stats, "stats diverged at step {step}");
    assert_eq!(c.dirty_load(), r.dirty + r.flushing, "dirty_load at {step}");
    assert_eq!(c.dirty_blocks(), r.dirty, "dirty_blocks at step {step}");
    assert_eq!(c.len(), r.map.len(), "len diverged at step {step}");
    assert_eq!(c.is_empty(), r.map.is_empty(), "is_empty at step {step}");
    for file in (0..FILES).map(FileId) {
        assert_eq!(
            c.fills_in_flight(file),
            r.fills_in_flight(file),
            "{file:?} fill count diverged at step {step}"
        );
        for block in 0..BLOCKS {
            let e = c.get(file, block);
            assert_eq!(e, r.get(file, block), "{file:?}/{block} at step {step}");
            if let Some(e) = e {
                assert_eq!(
                    vm.frame(e.frame()).owner,
                    FrameOwner::Cache { file, block },
                    "{file:?}/{block} frame owner at step {step}"
                );
            }
        }
    }
}

/// Paths exercised by one sequence, so a dedicated test can prove the
/// generator reaches the interesting branches.
#[derive(Default)]
struct Coverage {
    taken_blocks: u64,
    nonempty_takes: u64,
    dirty_removes: u64,
    redirtied_after_remove: u64,
    fills_completed: u64,
}

fn run_equivalence(ops: &[Op]) -> Coverage {
    let frames = u64::from(FILES) * BLOCKS;
    let mut vm = MemoryManager::new(frames, &SpuSet::equal_users(1), Scheme::Smp, 0.0, 0.0);
    let mut c = BufferCache::new();
    let mut r = RefCache::default();
    let mut cov = Coverage::default();
    // Keys whose dirty block was evicted since the last take: dirtying
    // one again lists it a second time in the real cache.
    let mut evicted_dirty = std::collections::HashSet::new();
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::InsertValid { file, block, dirty } => {
                let file = FileId(file);
                if r.get(file, block).is_none() {
                    let frame = cache_frame(&mut vm, file, block);
                    c.insert_valid(file, block, frame, dirty);
                    r.insert_valid(file, block, frame, dirty);
                    if dirty && evicted_dirty.remove(&(file, block)) {
                        cov.redirtied_after_remove += 1;
                    }
                }
            }
            Op::InsertFilling { file, block } => {
                let file = FileId(file);
                if r.get(file, block).is_none() {
                    let frame = cache_frame(&mut vm, file, block);
                    vm.set_pinned(frame, true);
                    c.insert_filling(file, block, frame, step as u64);
                    r.insert_filling(file, block, frame, step as u64);
                }
            }
            Op::CompleteFill { file, block } => {
                let file = FileId(file);
                let got = c.complete_fill(file, block);
                assert_eq!(got, r.complete_fill(file, block), "fill at {step}");
                if let Some(frame) = got {
                    vm.set_pinned(frame, false);
                    cov.fills_completed += 1;
                }
            }
            Op::Lookup { file, block } => {
                let file = FileId(file);
                assert_eq!(c.lookup(file, block), r.lookup(file, block), "at {step}");
            }
            Op::Get { file, block } => {
                let file = FileId(file);
                assert_eq!(c.get(file, block), r.get(file, block), "at {step}");
            }
            Op::MarkDirty { file, block } => {
                let file = FileId(file);
                if let Some(CacheEntry::Valid { .. }) = r.get(file, block) {
                    let newly = c.mark_dirty(file, block);
                    assert_eq!(newly, r.mark_dirty(file, block), "mark at {step}");
                    if newly && evicted_dirty.remove(&(file, block)) {
                        cov.redirtied_after_remove += 1;
                    }
                }
            }
            Op::Remove { file, block } => {
                let file = FileId(file);
                let got = c.remove(file, block);
                assert_eq!(got, r.remove(file, block), "remove at {step}");
                if let Some(e) = got {
                    vm.release_frame(e.frame());
                    if let CacheEntry::Valid { dirty: true, .. } = e {
                        cov.dirty_removes += 1;
                        evicted_dirty.insert((file, block));
                    }
                }
            }
            Op::TakeDirty => {
                // The take drains the dirty list, stale keys and all.
                evicted_dirty.clear();
                let mut got = c.take_dirty();
                got.sort_unstable_by_key(|&(f, b, _)| (f, b));
                assert_eq!(got, r.take_dirty(), "take diverged at step {step}");
                cov.taken_blocks += got.len() as u64;
                cov.nonempty_takes += u64::from(!got.is_empty());
            }
            Op::FlushCompleted { n } => {
                let n = n % (r.flushing + 1);
                c.flush_completed(n);
                r.flush_completed(n);
            }
            Op::FillIssued { file } => {
                c.fill_issued(FileId(file));
                r.fill_issued(FileId(file));
            }
            Op::FillRetired { file } => {
                c.fill_retired(FileId(file));
                r.fill_retired(FileId(file));
            }
        }
        assert_same_state(&c, &r, &vm, step);
        c.check_invariants(&vm);
    }
    cov
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every operation returns what the hash-map cache returned, and
    /// every flush takes the same blocks.
    #[test]
    fn dense_cache_matches_hash_map_reference(ops in prop::collection::vec(op_strategy(), 1..400)) {
        run_equivalence(&ops);
    }
}

/// Guards the generator itself: long sequences must flush real batches,
/// evict dirty blocks (stale dirty-list keys) and dirty evicted blocks
/// again (repeated keys), or the property above would pass without
/// touching the dirty list's hard cases.
#[test]
fn generated_sequences_exercise_the_dirty_list() {
    use proptest::test_runner::TestRng;
    let mut rng = TestRng::deterministic("bufcache_equivalence::coverage");
    let strat = prop::collection::vec(op_strategy(), 300..400);
    let mut total = Coverage::default();
    for _ in 0..16 {
        let cov = run_equivalence(&strat.generate(&mut rng));
        total.taken_blocks += cov.taken_blocks;
        total.nonempty_takes += cov.nonempty_takes;
        total.dirty_removes += cov.dirty_removes;
        total.redirtied_after_remove += cov.redirtied_after_remove;
        total.fills_completed += cov.fills_completed;
    }
    assert!(total.taken_blocks > 200, "taken: {}", total.taken_blocks);
    assert!(total.nonempty_takes > 80, "takes: {}", total.nonempty_takes);
    assert!(
        total.dirty_removes > 60,
        "dirty removes: {}",
        total.dirty_removes
    );
    assert!(
        total.redirtied_after_remove > 10,
        "re-dirtied after remove: {}",
        total.redirtied_after_remove
    );
    assert!(
        total.fills_completed > 20,
        "fills: {}",
        total.fills_completed
    );
}
