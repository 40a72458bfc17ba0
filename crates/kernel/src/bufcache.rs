//! The file buffer cache with write-behind.
//!
//! Cache pages are ordinary frames charged to the SPU that faulted them
//! in (§3.2); a hit from a different SPU re-marks the frame shared.
//! Writes dirty cache blocks; a periodic daemon flushes them as batched
//! requests scheduled in the shared SPU (§3.3), and writers throttle on a
//! dirty high watermark ("The buffer cache fills up causing writes to the
//! disk", §4.5).
//!
//! The index never hashes and never scans. File ids and block numbers
//! are dense (the [`FileSystem`](crate::fs::FileSystem) numbers files in
//! creation order and blocks from zero), so the cache keeps one table per
//! file, indexed by block number, that grows on first insert: every
//! lookup is two bounds-checked indexes. Dirtying a block appends its key
//! to a dirty list, and [`BufferCache::take_dirty`] drains that list
//! instead of walking the cache. The list needs no order: the flusher
//! sorts each batch by `(disk, sector)`, which is unique per block, so
//! the order blocks were dirtied in never reaches a disk request.

use crate::fs::FileId;
use crate::vm::{FrameId, FrameOwner, MemoryManager};

/// Key of a cached block.
pub type BlockKey = (FileId, u64);

/// State of one cached block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheEntry {
    /// Present in memory.
    Valid {
        /// Backing frame.
        frame: FrameId,
        /// Modified since last written.
        dirty: bool,
    },
    /// A disk read is in flight; waiters queue on the fill tag.
    Filling {
        /// The I/O tag whose completion validates this entry.
        tag: u64,
        /// Backing frame (pinned during the fill).
        frame: FrameId,
    },
}

impl CacheEntry {
    /// The frame backing the block, in either state.
    pub fn frame(self) -> FrameId {
        match self {
            CacheEntry::Valid { frame, .. } | CacheEntry::Filling { frame, .. } => frame,
        }
    }
}

/// Cache-wide counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a valid block.
    pub hits: u64,
    /// Lookups that missed entirely.
    pub misses: u64,
    /// Lookups that joined an in-flight fill.
    pub fill_joins: u64,
    /// Blocks written back by the flusher.
    pub flushed_blocks: u64,
}

/// One file's part of the cache.
#[derive(Debug, Default)]
struct FileBlocks {
    /// Entry per block number, `None` where the block is not cached.
    /// Grows to the highest block ever inserted and never shrinks.
    blocks: Vec<Option<CacheEntry>>,
    /// Fill requests in flight for the file (bounds prefetch depth).
    fills: u32,
}

/// The buffer cache index (frames themselves live in the
/// [`MemoryManager`]).
///
/// Blocks live in dense per-file tables indexed by `FileId` and block
/// number. Every block dirtied since the last
/// [`take_dirty`](Self::take_dirty) has its key on a dirty list; a key
/// stays listed after its block is evicted, and a block evicted and
/// dirtied again is listed twice. `take_dirty` takes only the blocks
/// still dirty, and clearing each one's flag as it goes drops the
/// repeats, so the list may hold stale keys but never misses a dirty
/// block ([`check_invariants`](Self::check_invariants) asserts this).
///
/// # Examples
///
/// ```
/// use smp_kernel::{BufferCache, FileId, FrameId};
///
/// let mut cache = BufferCache::new();
/// cache.insert_valid(FileId(0), 3, FrameId(7), false);
/// assert!(cache.get(FileId(0), 3).is_some());
/// cache.mark_dirty(FileId(0), 3);
/// assert_eq!(cache.dirty_load(), 1);
/// assert_eq!(cache.take_dirty(), vec![(FileId(0), 3, FrameId(7))]);
/// assert_eq!(cache.dirty_blocks(), 0);
/// ```
#[derive(Debug, Default)]
pub struct BufferCache {
    /// Per-file block tables, indexed by `FileId`.
    files: Vec<FileBlocks>,
    /// Keys dirtied since the last `take_dirty`, in dirtying order.
    dirty_keys: Vec<BlockKey>,
    /// Cached blocks, valid or filling.
    len: usize,
    dirty: u64,
    flushing: u64,
    stats: CacheStats,
}

impl BufferCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        BufferCache::default()
    }

    /// Looks up a block without statistics side effects.
    pub fn get(&self, file: FileId, block: u64) -> Option<CacheEntry> {
        *self
            .files
            .get(file.0 as usize)?
            .blocks
            .get(usize::try_from(block).ok()?)?
    }

    /// Looks up a block, counting a hit / miss / fill-join.
    pub fn lookup(&mut self, file: FileId, block: u64) -> Option<CacheEntry> {
        let e = self.get(file, block);
        match e {
            Some(CacheEntry::Valid { .. }) => self.stats.hits += 1,
            Some(CacheEntry::Filling { .. }) => self.stats.fill_joins += 1,
            None => self.stats.misses += 1,
        }
        e
    }

    /// The cached entry of a block, for update in place.
    fn entry_mut(&mut self, file: FileId, block: u64) -> Option<&mut CacheEntry> {
        self.files
            .get_mut(file.0 as usize)?
            .blocks
            .get_mut(usize::try_from(block).ok()?)?
            .as_mut()
    }

    /// A file's record, growing the file table to hold it.
    fn file_mut(&mut self, file: FileId) -> &mut FileBlocks {
        let f = file.0 as usize;
        if f >= self.files.len() {
            self.files.resize_with(f + 1, FileBlocks::default);
        }
        &mut self.files[f]
    }

    fn insert(&mut self, file: FileId, block: u64, entry: CacheEntry) {
        let b = usize::try_from(block).expect("block number fits in usize");
        let blocks = &mut self.file_mut(file).blocks;
        if b >= blocks.len() {
            blocks.resize(b + 1, None);
        }
        assert!(blocks[b].is_none(), "block already cached");
        blocks[b] = Some(entry);
        self.len += 1;
    }

    /// Inserts a valid block.
    ///
    /// # Panics
    ///
    /// Panics if the block is already cached.
    pub fn insert_valid(&mut self, file: FileId, block: u64, frame: FrameId, dirty: bool) {
        self.insert(file, block, CacheEntry::Valid { frame, dirty });
        if dirty {
            self.dirty += 1;
            self.dirty_keys.push((file, block));
        }
    }

    /// Inserts an in-flight fill entry.
    ///
    /// # Panics
    ///
    /// Panics if the block is already cached.
    pub fn insert_filling(&mut self, file: FileId, block: u64, frame: FrameId, tag: u64) {
        self.insert(file, block, CacheEntry::Filling { tag, frame });
    }

    /// Converts a filling entry to valid when its read completes. Returns
    /// the frame so the caller can unpin it. No-op (returns `None`) if
    /// the entry was evicted while the read was in flight.
    pub fn complete_fill(&mut self, file: FileId, block: u64) -> Option<FrameId> {
        let e = self.entry_mut(file, block)?;
        let CacheEntry::Filling { frame, .. } = *e else {
            return None;
        };
        *e = CacheEntry::Valid {
            frame,
            dirty: false,
        };
        Some(frame)
    }

    /// Marks a valid block dirty. Returns `true` if it was newly dirtied.
    ///
    /// # Panics
    ///
    /// Panics if the block is not valid in the cache.
    pub fn mark_dirty(&mut self, file: FileId, block: u64) -> bool {
        let newly = match self.entry_mut(file, block) {
            Some(CacheEntry::Valid { dirty, .. }) => !std::mem::replace(dirty, true),
            other => panic!("mark_dirty on non-valid entry {other:?}"),
        };
        if newly {
            self.dirty += 1;
            self.dirty_keys.push((file, block));
        }
        newly
    }

    /// Removes a block (frame eviction). Returns its entry. A dirty
    /// block's key stays on the dirty list; `take_dirty` skips it.
    pub fn remove(&mut self, file: FileId, block: u64) -> Option<CacheEntry> {
        let e = self
            .files
            .get_mut(file.0 as usize)?
            .blocks
            .get_mut(usize::try_from(block).ok()?)?
            .take()?;
        self.len -= 1;
        if let CacheEntry::Valid { dirty: true, .. } = e {
            self.dirty -= 1;
        }
        Some(e)
    }

    /// Takes every dirty block for flushing, transitioning them to clean
    /// and counting them as in-flight flush writes. Returns `(file,
    /// block, frame)` triples in the order the blocks were dirtied; the
    /// caller orders the writes.
    ///
    /// # Panics
    ///
    /// Panics if the dirty list missed a dirty block.
    pub fn take_dirty(&mut self) -> Vec<(FileId, u64, FrameId)> {
        let mut batch = Vec::with_capacity(self.dirty as usize);
        for (file, block) in self.dirty_keys.drain(..) {
            // Listed keys were inserted once, and tables never shrink.
            let slot = &mut self.files[file.0 as usize].blocks[block as usize];
            if let Some(CacheEntry::Valid { frame, dirty }) = slot {
                if std::mem::replace(dirty, false) {
                    batch.push((file, block, *frame));
                }
            }
        }
        let n = batch.len() as u64;
        assert_eq!(n, self.dirty, "dirty list missed dirty blocks");
        self.dirty = 0;
        self.flushing += n;
        self.stats.flushed_blocks += n;
        batch
    }

    /// Records that `n` flush writes completed.
    ///
    /// # Panics
    ///
    /// Panics if more flushes complete than were started.
    pub fn flush_completed(&mut self, n: u64) {
        assert!(self.flushing >= n, "flush completion underflow");
        self.flushing -= n;
    }

    /// Fill requests in flight for `file`.
    pub fn fills_in_flight(&self, file: FileId) -> u32 {
        self.files.get(file.0 as usize).map_or(0, |f| f.fills)
    }

    /// Records a fill request issued for `file`.
    pub fn fill_issued(&mut self, file: FileId) {
        self.file_mut(file).fills += 1;
    }

    /// Records that a fill request for `file` completed or failed.
    pub fn fill_retired(&mut self, file: FileId) {
        if let Some(f) = self.files.get_mut(file.0 as usize) {
            f.fills = f.fills.saturating_sub(1);
        }
    }

    /// Dirty plus in-flight-flush blocks — the quantity throttled against
    /// the high watermark.
    pub fn dirty_load(&self) -> u64 {
        self.dirty + self.flushing
    }

    /// Number of dirty (not yet flushing) blocks.
    pub fn dirty_blocks(&self) -> u64 {
        self.dirty
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Debug invariants: the block and dirty counts equal a recount of
    /// the tables, every dirty block is on the dirty list, every filling
    /// block's frame is pinned, and every frame `vm` owns as a cache
    /// block backs that block's entry.
    ///
    /// The converse, that each entry's frame is owned as that entry's
    /// block, is not checked: the kernel breaks it. A read-ahead run
    /// takes its frames unpinned, so at an SPU's allowed limit the run's
    /// next acquire can evict the frame it took last, and the run's
    /// blocks end up on one frame (see the `io` test
    /// `readahead_at_the_memory_limit_aliases_blocks_to_one_frame`).
    ///
    /// # Panics
    ///
    /// Panics at the first broken invariant.
    pub fn check_invariants(&self, vm: &MemoryManager) {
        let mut listed = self.dirty_keys.clone();
        listed.sort_unstable();
        let (mut len, mut dirty) = (0usize, 0u64);
        for (f, table) in self.files.iter().enumerate() {
            let file = FileId(f as u32);
            for (b, e) in table.blocks.iter().enumerate() {
                let Some(e) = *e else { continue };
                let block = b as u64;
                len += 1;
                match e {
                    CacheEntry::Valid { dirty: true, .. } => {
                        dirty += 1;
                        assert!(
                            listed.binary_search(&(file, block)).is_ok(),
                            "dirty block {file:?}/{block} is not on the dirty list"
                        );
                    }
                    CacheEntry::Valid { .. } => {}
                    CacheEntry::Filling { frame, .. } => assert!(
                        vm.frame(frame).pinned,
                        "filling block {file:?}/{block} is on unpinned {frame:?}"
                    ),
                }
            }
        }
        assert_eq!(len, self.len, "cached block count mismatch");
        assert_eq!(dirty, self.dirty, "dirty block count mismatch");
        for id in (0..vm.frame_count() as u32).map(FrameId) {
            if let FrameOwner::Cache { file, block } = vm.frame(id).owner {
                assert_eq!(
                    self.get(file, block).map(CacheEntry::frame),
                    Some(id),
                    "cache-owned {id:?} backs no entry for {file:?}/{block}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut c = BufferCache::new();
        assert!(c.lookup(FileId(0), 0).is_none());
        c.insert_valid(FileId(0), 0, FrameId(1), false);
        assert!(matches!(
            c.lookup(FileId(0), 0),
            Some(CacheEntry::Valid { .. })
        ));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn fill_lifecycle() {
        let mut c = BufferCache::new();
        c.insert_filling(FileId(0), 5, FrameId(3), 42);
        assert!(matches!(
            c.lookup(FileId(0), 5),
            Some(CacheEntry::Filling { tag: 42, .. })
        ));
        assert_eq!(c.stats().fill_joins, 1);
        assert_eq!(c.complete_fill(FileId(0), 5), Some(FrameId(3)));
        assert!(matches!(
            c.get(FileId(0), 5),
            Some(CacheEntry::Valid { dirty: false, .. })
        ));
        // Completing again is a no-op.
        assert_eq!(c.complete_fill(FileId(0), 5), None);
    }

    #[test]
    fn dirty_accounting() {
        let mut c = BufferCache::new();
        c.insert_valid(FileId(0), 0, FrameId(1), false);
        c.insert_valid(FileId(0), 1, FrameId(2), true);
        assert_eq!(c.dirty_load(), 1);
        assert!(c.mark_dirty(FileId(0), 0));
        assert!(!c.mark_dirty(FileId(0), 0), "already dirty");
        assert_eq!(c.dirty_load(), 2);
    }

    #[test]
    fn flush_batch_transitions_dirty_to_flushing() {
        let mut c = BufferCache::new();
        for b in 0..5 {
            c.insert_valid(FileId(0), b, FrameId(b as u32), true);
        }
        let batch = c.take_dirty();
        assert_eq!(batch.len(), 5);
        assert_eq!(c.dirty_blocks(), 0);
        assert_eq!(
            c.dirty_load(),
            5,
            "flushing still counts against the watermark"
        );
        c.flush_completed(3);
        assert_eq!(c.dirty_load(), 2);
        assert!(c.take_dirty().is_empty(), "the batch cleaned every block");
    }

    #[test]
    fn take_skips_evicted_and_repeated_keys() {
        let mut c = BufferCache::new();
        c.insert_valid(FileId(2), 7, FrameId(1), true);
        c.insert_valid(FileId(0), 1, FrameId(2), true);
        // Evict, re-insert clean and dirty again: listed twice, taken once.
        assert!(c.remove(FileId(2), 7).is_some());
        c.insert_valid(FileId(2), 7, FrameId(3), false);
        assert!(c.mark_dirty(FileId(2), 7));
        // Evicted for good: listed, never taken.
        assert!(c.remove(FileId(0), 1).is_some());
        assert_eq!(c.dirty_blocks(), 1);
        assert_eq!(c.take_dirty(), vec![(FileId(2), 7, FrameId(3))]);
        assert_eq!(c.stats().flushed_blocks, 1);
    }

    #[test]
    fn fill_counts_are_per_file() {
        let mut c = BufferCache::new();
        assert_eq!(c.fills_in_flight(FileId(3)), 0);
        c.fill_issued(FileId(3));
        c.fill_issued(FileId(3));
        c.fill_retired(FileId(1));
        assert_eq!(c.fills_in_flight(FileId(3)), 2);
        assert_eq!(c.fills_in_flight(FileId(1)), 0);
        c.fill_retired(FileId(3));
        assert_eq!(c.fills_in_flight(FileId(3)), 1);
    }

    #[test]
    fn remove_dirty_fixes_counts() {
        let mut c = BufferCache::new();
        c.insert_valid(FileId(1), 0, FrameId(0), true);
        assert_eq!(c.dirty_load(), 1);
        assert!(c.remove(FileId(1), 0).is_some());
        assert_eq!(c.dirty_load(), 0);
        assert!(c.is_empty());
        assert!(c.remove(FileId(1), 0).is_none());
        assert!(c.remove(FileId(9), 0).is_none(), "unknown file");
    }

    /// A frame the VM owns as `file`'s `block`.
    fn cache_frame(vm: &mut MemoryManager, file: FileId, block: u64) -> FrameId {
        match vm.acquire_frame(spu_core::SpuId::user(0), FrameOwner::Cache { file, block }) {
            crate::vm::Acquired::Frame { frame, .. } => frame,
            crate::vm::Acquired::Denied => unreachable!("the tests never fill memory"),
        }
    }

    /// A cache whose blocks sit on VM frames owned as `Cache` blocks,
    /// the state the kernel keeps.
    #[test]
    fn invariants_hold_through_dirty_take_and_evict() {
        use spu_core::{Scheme, SpuSet};
        let mut vm = MemoryManager::new(64, &SpuSet::equal_users(1), Scheme::Smp, 0.0, 0.0);
        let mut c = BufferCache::new();
        for b in 0..4 {
            let f = cache_frame(&mut vm, FileId(1), b);
            c.insert_valid(FileId(1), b, f, false);
        }
        let f = cache_frame(&mut vm, FileId(0), 9);
        vm.set_pinned(f, true);
        c.insert_filling(FileId(0), 9, f, 5);
        c.check_invariants(&vm);
        c.mark_dirty(FileId(1), 2);
        c.mark_dirty(FileId(1), 0);
        c.check_invariants(&vm);
        assert_eq!(c.take_dirty().len(), 2);
        c.mark_dirty(FileId(1), 3);
        let gone = c.remove(FileId(1), 1).unwrap();
        vm.release_frame(gone.frame());
        c.check_invariants(&vm);
    }

    #[test]
    #[should_panic(expected = "not on the dirty list")]
    fn invariants_catch_a_dirty_block_off_the_list() {
        use spu_core::{Scheme, SpuSet};
        let mut vm = MemoryManager::new(8, &SpuSet::equal_users(1), Scheme::Smp, 0.0, 0.0);
        let mut c = BufferCache::new();
        let f = cache_frame(&mut vm, FileId(0), 0);
        c.insert_valid(FileId(0), 0, f, true);
        c.dirty_keys.clear();
        c.check_invariants(&vm);
    }

    #[test]
    #[should_panic(expected = "backs no entry")]
    fn invariants_catch_a_cache_frame_without_an_entry() {
        use spu_core::{Scheme, SpuSet};
        let mut vm = MemoryManager::new(8, &SpuSet::equal_users(1), Scheme::Smp, 0.0, 0.0);
        cache_frame(&mut vm, FileId(0), 4);
        BufferCache::new().check_invariants(&vm);
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn double_insert_panics() {
        let mut c = BufferCache::new();
        c.insert_valid(FileId(0), 0, FrameId(1), false);
        c.insert_valid(FileId(0), 0, FrameId(2), false);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn flush_underflow_panics() {
        let mut c = BufferCache::new();
        c.flush_completed(1);
    }
}
