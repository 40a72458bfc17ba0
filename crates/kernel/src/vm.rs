//! Physical memory management with per-SPU accounting (§3.2).
//!
//! "The page allocation function in the kernel is augmented to record the
//! SPU ID of the process requesting the page, and to keep a count of the
//! pages used by each SPU. In addition to regular code and data pages,
//! SPU memory usage also includes pages used indirectly in the kernel on
//! behalf of an SPU, such as the file buffer cache ..."
//!
//! Isolation: an SPU at its allowed level must evict one of its *own*
//! pages to get a new one (dirty pages pay a swap write — the revocation
//! cost the Reserve Threshold exists to hide). Under the `SMP` scheme no
//! limits are enforced and the victim is chosen globally, reproducing the
//! unconstrained behaviour of stock IRIX.
//!
//! Shared pages: "When a page is first accessed, it is marked with the
//! SPU ID of the accessing process. On a subsequent access by a different
//! SPU before the page is freed, the page will be marked as a shared
//! page."

use spu_core::{ChargeError, PolicyInput, ResourceLedger, ResourceLevels, Scheme, SpuId, SpuSet};

use crate::config::SECTORS_PER_PAGE;
use crate::fs::FileId;
use crate::process::Pid;

/// Identifies a physical page frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub u32);

/// What currently lives in a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameOwner {
    /// On the free list.
    Free,
    /// Kernel code/data (charged to the kernel SPU at boot).
    Kernel,
    /// A page of a process's anonymous region.
    Anon {
        /// Owning process.
        pid: Pid,
        /// Page index within its region.
        page: u32,
    },
    /// A buffer-cache block.
    Cache {
        /// Cached file.
        file: FileId,
        /// Block index within the file.
        block: u64,
    },
}

/// One physical page frame.
#[derive(Clone, Copy, Debug)]
pub struct Frame {
    /// Contents.
    pub owner: FrameOwner,
    /// The SPU charged for this frame.
    pub spu: SpuId,
    /// Whether the contents differ from their backing store.
    pub dirty: bool,
    /// Pinned frames (in-flight I/O) are skipped by victim selection.
    pub pinned: bool,
    /// Global allocation-age stamp (drives global-FIFO victimization
    /// under the `SMP` scheme, approximating IRIX's global paging).
    pub stamp: u64,
}

/// What was evicted to satisfy an allocation; the kernel must update the
/// corresponding page table or cache map and issue the writeback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted contents.
    pub owner: FrameOwner,
    /// The SPU that was paying for the frame.
    pub spu: SpuId,
    /// Whether a writeback is required.
    pub dirty: bool,
}

/// Result of a frame acquisition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Acquired {
    /// A frame was obtained; `evicted` reports what was displaced (if
    /// anything).
    Frame {
        /// The newly owned frame.
        frame: FrameId,
        /// The displaced contents, if the frame was stolen.
        evicted: Option<Evicted>,
    },
    /// No frame could be obtained (every candidate pinned); the caller
    /// must block the process and retry after I/O completes.
    Denied,
}

/// Per-SPU VM event counters.
#[derive(Clone, Debug, Default)]
pub struct VmSpuStats {
    /// Zero-fill (first touch) faults.
    pub minor_faults: u64,
    /// Swap-in faults.
    pub major_faults: u64,
    /// Pages written to swap on eviction.
    pub swap_outs: u64,
    /// Frame acquisitions refused outright.
    pub denials: u64,
}

/// The physical memory manager.
///
/// # Examples
///
/// ```
/// use smp_kernel::{FrameOwner, MemoryManager, Pid};
/// use spu_core::{Scheme, SpuId, SpuSet};
///
/// let spus = SpuSet::equal_users(2);
/// let mut vm = MemoryManager::new(1024, &spus, Scheme::PIso, 0.10, 0.08);
/// let got = vm.acquire_frame(
///     SpuId::user(0),
///     FrameOwner::Anon { pid: Pid(1), page: 0 },
/// );
/// assert!(matches!(got, smp_kernel::Acquired::Frame { evicted: None, .. }));
/// ```
#[derive(Debug)]
pub struct MemoryManager {
    // Frame metadata as a dense struct-of-arrays, directly indexed by
    // `FrameId`: the fault path touches only the columns it needs
    // (owner+flags on the victim walk, stamps on touch) instead of
    // dragging whole `Frame` structs through the cache.
    owners: Vec<FrameOwner>,
    frame_spu: Vec<SpuId>,
    /// Per-frame flag bits ([`DIRTY`] | [`PINNED`]).
    flags: Vec<u8>,
    /// Reference-epoch stamps (refreshed on touch; drive SMP global LRU).
    stamps: Vec<u64>,
    /// Residency-arrival epochs (set on enqueue; order victim selection).
    arrivals: Vec<u64>,
    /// Intrusive doubly-linked residency-list links, `NIL`-terminated.
    next: Vec<u32>,
    prev: Vec<u32>,
    free: Vec<FrameId>,
    /// Per-SPU page accounting (§3.2): one count per SPU, charged and
    /// released as frames change hands.
    ledger: ResourceLedger,
    /// Per-SPU residency lists in arrival order, one per victim class
    /// (`[CACHE_CLASS]`, `[ANON_CLASS]`), threaded through `next`/`prev`.
    /// Frames are unlinked eagerly on eviction/release/share transfer, so
    /// the lists never hold stale entries and the "first eligible victim"
    /// walk skips at most the pinned prefix — O(1) amortized instead of
    /// the old scan past stale and pinned entries.
    lists: Vec<[ResidentList; 2]>,
    /// Number of buffer-cache frames each SPU currently owns — the cache
    /// class's occupancy counter, letting the victim selector skip the
    /// cache walk entirely when an SPU has none.
    cache_frames: Vec<u64>,
    /// The Reserve Threshold (§3.2) as a fraction of user memory.
    reserve_frac: f64,
    scheme: Scheme,
    spus: SpuSet,
    pressure: Vec<bool>,
    stats: Vec<VmSpuStats>,
    swap_cursor: u64,
    charge_seq: u64,
}

/// `flags` bit: contents differ from backing store.
const DIRTY: u8 = 1 << 0;
/// `flags` bit: in-flight I/O; skipped by victim selection.
const PINNED: u8 = 1 << 1;

/// Victim-class index: buffer-cache frames (preferred victims).
const CACHE_CLASS: usize = 0;
/// Victim-class index: anonymous frames.
const ANON_CLASS: usize = 1;

/// Null link in the intrusive residency lists.
const NIL: u32 = u32::MAX;

/// Head/tail of one per-SPU, per-class residency list.
#[derive(Clone, Copy, Debug)]
struct ResidentList {
    head: u32,
    tail: u32,
}

impl Default for ResidentList {
    fn default() -> Self {
        ResidentList {
            head: NIL,
            tail: NIL,
        }
    }
}

impl MemoryManager {
    /// Creates a manager over `total_frames` frames.
    ///
    /// `kernel_frac` of memory is charged to the kernel SPU at boot;
    /// `reserve_frac` is the Reserve Threshold (§3.2): the fraction of
    /// user memory kept free rather than lent (the paper uses 0.08).
    ///
    /// # Panics
    ///
    /// Panics if `reserve_frac` is not in `[0, 1)`.
    pub fn new(
        total_frames: u64,
        spus: &SpuSet,
        scheme: Scheme,
        kernel_frac: f64,
        reserve_frac: f64,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&reserve_frac),
            "reserve fraction must be in [0, 1)"
        );
        let n_spus = spus.total_count();
        let n = total_frames as usize;
        let mut vm = MemoryManager {
            owners: vec![FrameOwner::Free; n],
            frame_spu: vec![SpuId::KERNEL; n],
            flags: vec![0; n],
            stamps: vec![0; n],
            arrivals: vec![0; n],
            next: vec![NIL; n],
            prev: vec![NIL; n],
            free: (0..total_frames as u32).rev().map(FrameId).collect(),
            ledger: ResourceLedger::new(total_frames, n_spus),
            lists: vec![[ResidentList::default(); 2]; n_spus],
            cache_frames: vec![0; n_spus],
            reserve_frac,
            scheme,
            spus: spus.clone(),
            pressure: vec![false; n_spus],
            stats: vec![VmSpuStats::default(); n_spus],
            swap_cursor: 0,
            charge_seq: 0,
        };
        // Boot-time kernel memory (code, data, static tables). Kernel
        // frames never enter a residency list (never paged).
        let kernel_frames = (total_frames as f64 * kernel_frac).round() as u64;
        for _ in 0..kernel_frames {
            let f = vm.free.pop().expect("kernel fraction must fit");
            vm.ledger.charge(SpuId::KERNEL, 1, false).unwrap();
            let i = f.0 as usize;
            vm.owners[i] = FrameOwner::Kernel;
            vm.frame_spu[i] = SpuId::KERNEL;
            vm.flags[i] = PINNED;
        }
        vm.run_policy();
        vm
    }

    /// The victim class a resident owner files under.
    #[inline]
    fn class_of(owner: FrameOwner) -> usize {
        match owner {
            FrameOwner::Cache { .. } => CACHE_CLASS,
            _ => ANON_CLASS,
        }
    }

    /// Appends a frame to the tail of an SPU's class list.
    #[inline]
    fn push_resident(&mut self, spu: SpuId, class: usize, id: FrameId) {
        let i = id.0 as usize;
        let list = &mut self.lists[spu.index()][class];
        self.prev[i] = list.tail;
        self.next[i] = NIL;
        if list.tail == NIL {
            list.head = id.0;
        } else {
            self.next[list.tail as usize] = id.0;
        }
        list.tail = id.0;
        self.charge_seq += 1;
        self.arrivals[i] = self.charge_seq;
    }

    /// Unlinks a frame from an SPU's class list.
    #[inline]
    fn unlink_resident(&mut self, spu: SpuId, class: usize, id: FrameId) {
        let i = id.0 as usize;
        let (p, n) = (self.prev[i], self.next[i]);
        let list = &mut self.lists[spu.index()][class];
        if p == NIL {
            list.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            list.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.prev[i] = NIL;
        self.next[i] = NIL;
    }

    /// The first unpinned frame of an SPU's class list, in arrival order.
    #[inline]
    fn first_unpinned(&self, spu: SpuId, class: usize) -> Option<FrameId> {
        let mut cur = self.lists[spu.index()][class].head;
        while cur != NIL {
            if self.flags[cur as usize] & PINNED == 0 {
                return Some(FrameId(cur));
            }
            cur = self.next[cur as usize];
        }
        None
    }

    /// Whether per-SPU limits are enforced (everything but `SMP`).
    fn enforce(&self) -> bool {
        self.scheme.enforces_isolation()
    }

    /// A frame's metadata, assembled from the struct-of-arrays columns.
    pub fn frame(&self, id: FrameId) -> Frame {
        let i = id.0 as usize;
        Frame {
            owner: self.owners[i],
            spu: self.frame_spu[i],
            dirty: self.flags[i] & DIRTY != 0,
            pinned: self.flags[i] & PINNED != 0,
            stamp: self.stamps[i],
        }
    }

    /// Number of frames, free or not; [`FrameId`]s run `0..frame_count()`.
    pub(crate) fn frame_count(&self) -> usize {
        self.owners.len()
    }

    /// Sets a frame's dirty flag.
    pub fn set_dirty(&mut self, id: FrameId, dirty: bool) {
        if dirty {
            self.flags[id.0 as usize] |= DIRTY;
        } else {
            self.flags[id.0 as usize] &= !DIRTY;
        }
    }

    /// Pins or unpins a frame (pinned frames are not eviction victims).
    /// The frame keeps its residency-list position, so unpinning restores
    /// its original victim priority.
    pub fn set_pinned(&mut self, id: FrameId, pinned: bool) {
        if pinned {
            self.flags[id.0 as usize] |= PINNED;
        } else {
            self.flags[id.0 as usize] &= !PINNED;
        }
    }

    /// Records a reference to a resident frame, refreshing its age stamp
    /// so global victimization (SMP mode) approximates LRU rather than
    /// punishing long-resident hot pages.
    #[inline]
    pub fn touch_frame(&mut self, id: FrameId) {
        self.charge_seq += 1;
        self.stamps[id.0 as usize] = self.charge_seq;
    }

    /// The levels record of an SPU.
    pub fn levels(&self, spu: SpuId) -> ResourceLevels {
        *self.ledger.levels(spu)
    }

    /// Read access to the page-frame ledger (for invariant auditing).
    pub fn ledger(&self) -> &ResourceLedger {
        &self.ledger
    }

    /// Free frame count.
    pub fn free_frames(&self) -> u64 {
        self.ledger.free()
    }

    /// Per-SPU statistics.
    pub fn stats(&self, spu: SpuId) -> &VmSpuStats {
        &self.stats[spu.index()]
    }

    /// Records a fault for statistics (`major` = swap-in).
    pub fn count_fault(&mut self, spu: SpuId, major: bool) {
        if major {
            self.stats[spu.index()].major_faults += 1;
        } else {
            self.stats[spu.index()].minor_faults += 1;
        }
    }

    /// Acquires one frame charged to `spu` with the given contents.
    ///
    /// Free frames are used when the SPU has headroom; otherwise a victim
    /// is evicted — from the SPU's own pages when it is at its allowed
    /// level (isolation), from the globally most-over-budget SPU when the
    /// machine is simply out of free frames.
    pub fn acquire_frame(&mut self, spu: SpuId, owner: FrameOwner) -> Acquired {
        let evicted = match self.ledger.can_charge(spu, 1, self.enforce()) {
            Ok(()) => None,
            Err(ChargeError::OverAllowed { .. }) => {
                // At the allowed level: steal one of this SPU's own pages.
                self.pressure[spu.index()] = true;
                match self.pop_victim(spu) {
                    Some(v) => Some(v),
                    None => {
                        self.stats[spu.index()].denials += 1;
                        return Acquired::Denied;
                    }
                }
            }
            Err(ChargeError::Exhausted) => {
                self.pressure[spu.index()] = true;
                match self.global_victim_spu().and_then(|vs| self.pop_victim(vs)) {
                    Some(v) => Some(v),
                    None => {
                        self.stats[spu.index()].denials += 1;
                        return Acquired::Denied;
                    }
                }
            }
        };
        let frame = if let Some(ev) = evicted {
            // The frame was released by pop_victim; take it off the free
            // list (it is the most recently pushed).
            let f = self.free.pop().expect("victim frame must be free");
            if ev.owner == FrameOwner::Free {
                unreachable!("victims are never free frames");
            }
            f
        } else {
            match self.free.pop() {
                Some(f) => f,
                None => {
                    // Ledger says there is capacity but all free frames
                    // are spoken for — evict globally.
                    match self.global_victim_spu().and_then(|vs| self.pop_victim(vs)) {
                        Some(_v) => self.free.pop().expect("victim frame must be free"),
                        None => {
                            self.stats[spu.index()].denials += 1;
                            return Acquired::Denied;
                        }
                    }
                }
            }
        };
        self.ledger
            .charge(spu, 1, false)
            .expect("capacity was verified");
        self.charge_seq += 1;
        let i = frame.0 as usize;
        self.owners[i] = owner;
        self.frame_spu[i] = spu;
        self.flags[i] = 0;
        self.stamps[i] = self.charge_seq;
        let class = Self::class_of(owner);
        if class == CACHE_CLASS {
            self.cache_frames[spu.index()] += 1;
        }
        self.push_resident(spu, class, frame);
        Acquired::Frame { frame, evicted }
    }

    /// Pops the next unpinned victim frame of `spu`, preferring cache
    /// pages over anonymous pages, releases its charge and frees it.
    /// Returns what was evicted.
    ///
    /// Because the class lists are arrival-ordered and hold no stale
    /// entries, this is a head pop past (at most) a pinned prefix —
    /// O(1) amortized. The cache-occupancy counter skips the cache walk
    /// entirely for SPUs holding no cache frames.
    fn pop_victim(&mut self, spu: SpuId) -> Option<Evicted> {
        let chosen = if self.cache_frames[spu.index()] > 0 {
            self.first_unpinned(spu, CACHE_CLASS)
                .or_else(|| self.first_unpinned(spu, ANON_CLASS))
        } else {
            self.first_unpinned(spu, ANON_CLASS)
        };
        let fid = chosen?;
        let i = fid.0 as usize;
        let owner = self.owners[i];
        let ev = Evicted {
            owner,
            spu: self.frame_spu[i],
            dirty: self.flags[i] & DIRTY != 0,
        };
        let class = Self::class_of(owner);
        self.unlink_resident(spu, class, fid);
        if ev.dirty && matches!(owner, FrameOwner::Anon { .. }) {
            self.stats[spu.index()].swap_outs += 1;
        }
        if class == CACHE_CLASS {
            self.cache_frames[spu.index()] -= 1;
        }
        self.ledger.release(spu, 1);
        self.owners[i] = FrameOwner::Free;
        self.frame_spu[i] = spu;
        self.flags[i] = 0;
        self.free.push(fid);
        Some(ev)
    }

    /// The SPU to steal a frame from when the machine is out of free
    /// frames. Under isolation schemes: the most over-allowance SPU.
    /// Under `SMP`: the SPU holding the globally oldest resident frame —
    /// global FIFO, approximating IRIX's global paging, which steals from
    /// every process regardless of owner. Never steals from the kernel or
    /// an empty SPU.
    fn global_victim_spu(&self) -> Option<SpuId> {
        // Candidate ids are generated index-by-index rather than collected
        // into a Vec: this runs on every frame steal under memory pressure.
        let users = self.spus.user_count() as u32;
        let candidates = (0..users)
            .map(SpuId::user)
            .chain(std::iter::once(SpuId::SHARED));
        if self.enforce() {
            let mut best: Option<(i64, u64, SpuId)> = None;
            for id in candidates {
                let l = self.ledger.levels(id);
                if l.used == 0 {
                    continue;
                }
                let over = l.used as i64 - l.allowed as i64;
                let key = (over, l.used, id);
                if best.is_none_or(|b| (key.0, key.1) > (b.0, b.1)) {
                    best = Some(key);
                }
            }
            best.map(|(_, _, id)| id)
        } else {
            let mut best: Option<(u64, SpuId)> = None;
            for id in candidates {
                if let Some(stamp) = self.oldest_resident_stamp(id) {
                    if best.is_none_or(|(bs, _)| stamp < bs) {
                        best = Some((stamp, id));
                    }
                }
            }
            best.map(|(_, id)| id)
        }
    }

    /// The stamp of the oldest evictable resident frame of an SPU — the
    /// first unpinned frame in arrival order across both class lists
    /// (the class split preserves relative arrival order within each
    /// class, so the earlier of the two heads is the merged-order first).
    fn oldest_resident_stamp(&self, spu: SpuId) -> Option<u64> {
        let cache = self.first_unpinned(spu, CACHE_CLASS);
        let anon = self.first_unpinned(spu, ANON_CLASS);
        let fid = match (cache, anon) {
            (Some(c), Some(a)) => {
                if self.arrivals[c.0 as usize] < self.arrivals[a.0 as usize] {
                    c
                } else {
                    a
                }
            }
            (Some(c), None) => c,
            (None, Some(a)) => a,
            (None, None) => return None,
        };
        Some(self.stamps[fid.0 as usize])
    }

    /// Releases a frame entirely (process exit, cache drop).
    ///
    /// # Panics
    ///
    /// Panics if the frame is already free.
    pub fn release_frame(&mut self, id: FrameId) {
        let i = id.0 as usize;
        let owner = self.owners[i];
        assert!(!matches!(owner, FrameOwner::Free), "double free of {id:?}");
        let spu = self.frame_spu[i];
        let class = Self::class_of(owner);
        if !matches!(owner, FrameOwner::Kernel) {
            self.unlink_resident(spu, class, id);
        }
        self.owners[i] = FrameOwner::Free;
        self.flags[i] = 0;
        if matches!(owner, FrameOwner::Cache { .. }) {
            self.cache_frames[spu.index()] -= 1;
        }
        self.ledger.release(spu, 1);
        self.free.push(id);
    }

    /// Re-marks a frame as shared (§3.2): transfers its charge from its
    /// current user SPU to the shared SPU. No-op if it is already
    /// kernel/shared-owned.
    pub fn mark_shared(&mut self, id: FrameId) {
        let i = id.0 as usize;
        if !self.frame_spu[i].is_user() {
            return;
        }
        let from = self.frame_spu[i];
        let class = Self::class_of(self.owners[i]);
        // Re-file under the shared SPU at the tail of its class list —
        // the same position the old lazy-pruned queue gave it.
        self.unlink_resident(from, class, id);
        self.frame_spu[i] = SpuId::SHARED;
        if class == CACHE_CLASS {
            self.cache_frames[from.index()] -= 1;
            self.cache_frames[SpuId::SHARED.index()] += 1;
        }
        self.ledger.transfer(from, SpuId::SHARED, 1);
        self.push_resident(SpuId::SHARED, class, id);
    }

    /// Allocates `pages` contiguous swap slots and returns the starting
    /// sector (swap slots are bump-allocated; the swap area is assumed
    /// large).
    pub fn alloc_swap_run(&mut self, pages: u32) -> u64 {
        let start = self.swap_cursor;
        self.swap_cursor += pages as u64 * SECTORS_PER_PAGE as u64;
        start
    }

    /// Runs the periodic sharing policy (§3.2): recomputes entitlements
    /// net of kernel/shared usage, then asks the scheme's
    /// [`lend_idle`](Scheme::lend_idle) for new allowed levels — idle
    /// pages flow to pressured SPUs under `PIso`, allowed snaps back to
    /// entitled under `Quota`/`SMP` — and clears the pressure flags.
    pub fn run_policy(&mut self) {
        let capacity = self.ledger.capacity();
        let kernel_used = self.ledger.used(SpuId::KERNEL);
        let shared_used = self.ledger.used(SpuId::SHARED);
        let user_pages = capacity.saturating_sub(kernel_used + shared_used);
        let entitled = self.spus.split_memory(user_pages);
        for (i, id) in self.spus.user_ids().enumerate() {
            self.ledger.set_entitled(id, entitled[i]);
        }
        let inputs: Vec<PolicyInput> = self
            .spus
            .user_ids()
            .map(|id| PolicyInput {
                spu: id,
                levels: *self.ledger.levels(id),
                pressured: self.pressure[id.index()],
            })
            .collect();
        // "Excess pages are calculated as the total idle pages in the
        // system less a small number of pages that are kept free (the
        // Reserve Threshold)", so a lender reclaiming its pages is not
        // denied one while the revocation completes.
        let reserve = (user_pages as f64 * self.reserve_frac).round() as u64;
        // On hierarchical SPU sets idle pages flow to pressured siblings
        // inside a tenant before escaping to other tenants; on flat sets
        // (tree = None) the lend is machine-wide.
        for (spu, allowed) in self
            .scheme
            .lend_idle(user_pages, reserve, &inputs, self.spus.tree())
        {
            self.ledger.set_allowed(spu, allowed);
        }
        self.pressure.fill(false);
    }

    /// Debug invariants: ledger consistent with frame ownership.
    pub fn check_invariants(&self) {
        self.ledger.check_invariants();
        let mut counted = vec![0u64; self.spus.total_count()];
        let mut free = 0u64;
        for (i, owner) in self.owners.iter().enumerate() {
            match owner {
                FrameOwner::Free => free += 1,
                _ => counted[self.frame_spu[i].index()] += 1,
            }
        }
        assert_eq!(free, self.ledger.free(), "free count mismatch");
        for id in self.spus.all_ids() {
            assert_eq!(
                counted[id.index()],
                self.ledger.used(id),
                "ledger mismatch for {id}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm(frames: u64, scheme: Scheme) -> MemoryManager {
        MemoryManager::new(frames, &SpuSet::equal_users(2), scheme, 0.10, 0.08)
    }

    fn anon(pid: u32, page: u32) -> FrameOwner {
        FrameOwner::Anon {
            pid: Pid(pid),
            page,
        }
    }

    #[test]
    fn boot_charges_kernel_memory() {
        let vm = vm(1000, Scheme::PIso);
        assert_eq!(vm.levels(SpuId::KERNEL).used, 100);
        assert_eq!(vm.free_frames(), 900);
        // User entitlements split the rest.
        assert_eq!(vm.levels(SpuId::user(0)).entitled, 450);
        assert_eq!(vm.levels(SpuId::user(1)).entitled, 450);
    }

    #[test]
    #[should_panic(expected = "reserve fraction")]
    fn bad_reserve_fraction_panics() {
        MemoryManager::new(1000, &SpuSet::equal_users(2), Scheme::PIso, 0.10, 1.5);
    }

    #[test]
    fn acquire_until_limit_then_self_evict() {
        let mut vm = vm(1000, Scheme::PIso);
        let allowed = vm.levels(SpuId::user(0)).allowed;
        for i in 0..allowed {
            match vm.acquire_frame(SpuId::user(0), anon(1, i as u32)) {
                Acquired::Frame { evicted: None, .. } => {}
                other => panic!("unexpected at {i}: {other:?}"),
            }
        }
        // Next acquisition must evict one of the SPU's own pages.
        match vm.acquire_frame(SpuId::user(0), anon(1, allowed as u32)) {
            Acquired::Frame {
                evicted: Some(ev), ..
            } => {
                assert_eq!(ev.spu, SpuId::user(0));
                assert!(matches!(ev.owner, FrameOwner::Anon { .. }));
            }
            other => panic!("expected eviction: {other:?}"),
        }
        assert_eq!(vm.levels(SpuId::user(0)).used, allowed);
        vm.check_invariants();
    }

    #[test]
    fn smp_mode_steals_globally() {
        let mut vm = vm(1000, Scheme::Smp);
        // user0 fills all 900 free frames (no limits under SMP).
        for i in 0..900 {
            assert!(matches!(
                vm.acquire_frame(SpuId::user(0), anon(1, i)),
                Acquired::Frame { evicted: None, .. }
            ));
        }
        // user1's first page steals from user0.
        match vm.acquire_frame(SpuId::user(1), anon(2, 0)) {
            Acquired::Frame {
                evicted: Some(ev), ..
            } => assert_eq!(ev.spu, SpuId::user(0)),
            other => panic!("{other:?}"),
        }
        vm.check_invariants();
    }

    #[test]
    fn piso_policy_lends_idle_pages() {
        let mut vm = vm(1000, Scheme::PIso);
        let entitled = vm.levels(SpuId::user(0)).entitled;
        // user0 hits its limit (sets the pressure flag)...
        for i in 0..entitled {
            vm.acquire_frame(SpuId::user(0), anon(1, i as u32));
        }
        assert!(matches!(
            vm.acquire_frame(SpuId::user(0), anon(1, entitled as u32)),
            Acquired::Frame {
                evicted: Some(_),
                ..
            }
        ));
        // ...while user1 is idle. The policy raises user0's allowed level.
        vm.run_policy();
        let l = vm.levels(SpuId::user(0));
        // All 450 of user1's idle pages, less the Reserve Threshold:
        // round(900 user pages × 0.08) = 72.
        assert_eq!(l.allowed, l.entitled + 450 - 72, "{l:?}");
        // And user0 can now grow without evicting.
        assert!(matches!(
            vm.acquire_frame(SpuId::user(0), anon(1, entitled as u32 + 1)),
            Acquired::Frame { evicted: None, .. }
        ));
    }

    #[test]
    fn hierarchical_lending_prefers_sibling_pages() {
        use spu_core::SpuTree;
        // acme = {user0, user1}, globex = {user2}. user1 is idle; both
        // user0 (sibling) and user2 (stranger) are pressured.
        let spus = SpuSet::with_weights(&[1, 1, 1]).with_tree(SpuTree::new(vec![
            ("acme".into(), 2, vec![0, 1]),
            ("globex".into(), 1, vec![2]),
        ]));
        let mut vm = MemoryManager::new(1000, &spus, Scheme::PIso, 0.10, 0.08);
        for (user, pid) in [(0, 1), (2, 3)] {
            let entitled = vm.levels(SpuId::user(user)).entitled;
            for i in 0..=entitled {
                vm.acquire_frame(SpuId::user(user), anon(pid, i as u32));
            }
        }
        vm.run_policy();
        let loan = |u: u32| {
            let l = vm.levels(SpuId::user(u));
            l.allowed - l.entitled
        };
        // The sibling claims acme's idle pages before anything escapes
        // to globex.
        assert!(loan(0) > 0, "sibling got nothing");
        assert!(
            loan(0) > loan(2),
            "sibling must be preferred: {} vs {}",
            loan(0),
            loan(2)
        );
        vm.check_invariants();
    }

    #[test]
    fn quota_policy_never_lends() {
        let mut vm = vm(1000, Scheme::Quota);
        let entitled = vm.levels(SpuId::user(0)).entitled;
        for i in 0..entitled {
            vm.acquire_frame(SpuId::user(0), anon(1, i as u32));
        }
        vm.acquire_frame(SpuId::user(0), anon(1, entitled as u32)); // pressure
        vm.run_policy();
        let l = vm.levels(SpuId::user(0));
        assert_eq!(l.allowed, l.entitled);
    }

    #[test]
    fn lender_gets_pages_back() {
        let mut vm = vm(1000, Scheme::PIso);
        let entitled = vm.levels(SpuId::user(0)).entitled;
        // user0 borrows beyond its entitlement.
        for i in 0..entitled + 100 {
            vm.acquire_frame(SpuId::user(0), anon(1, i as u32));
        }
        vm.run_policy(); // pressure -> lend
        for i in 0..100 {
            vm.acquire_frame(SpuId::user(0), anon(1, (entitled + 100 + i) as u32));
        }
        // Now user1 wants its memory: policy next period stops lending
        // (user1 pressure, user0 beyond entitlement).
        for i in 0..50 {
            vm.acquire_frame(SpuId::user(1), anon(2, i));
        }
        vm.run_policy();
        let l0 = vm.levels(SpuId::user(0));
        // user0's allowed is back at entitled: it must self-evict now.
        assert_eq!(l0.allowed, l0.entitled);
        match vm.acquire_frame(SpuId::user(0), anon(1, 9999)) {
            Acquired::Frame {
                evicted: Some(ev), ..
            } => assert_eq!(ev.spu, SpuId::user(0)),
            other => panic!("{other:?}"),
        }
        vm.check_invariants();
    }

    #[test]
    fn cache_pages_are_preferred_victims() {
        let mut vm = vm(1000, Scheme::PIso);
        let allowed = vm.levels(SpuId::user(0)).allowed;
        // Fill with anon, then one cache page in the middle of the queue.
        for i in 0..allowed - 1 {
            vm.acquire_frame(SpuId::user(0), anon(1, i as u32));
        }
        vm.acquire_frame(
            SpuId::user(0),
            FrameOwner::Cache {
                file: FileId(0),
                block: 0,
            },
        );
        match vm.acquire_frame(SpuId::user(0), anon(1, 9999)) {
            Acquired::Frame {
                evicted: Some(ev), ..
            } => {
                assert!(
                    matches!(ev.owner, FrameOwner::Cache { .. }),
                    "should prefer cache victim: {ev:?}"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pinned_frames_are_skipped() {
        let mut vm = vm(1000, Scheme::PIso);
        let allowed = vm.levels(SpuId::user(0)).allowed;
        let mut first = None;
        for i in 0..allowed {
            if let Acquired::Frame { frame, .. } =
                vm.acquire_frame(SpuId::user(0), anon(1, i as u32))
            {
                if first.is_none() {
                    first = Some(frame);
                }
            }
        }
        vm.set_pinned(first.unwrap(), true);
        match vm.acquire_frame(SpuId::user(0), anon(1, 9999)) {
            Acquired::Frame {
                evicted: Some(ev), ..
            } => {
                // The first (pinned) page survived; the second was taken.
                assert!(
                    matches!(ev.owner, FrameOwner::Anon { page: 1, .. }),
                    "{ev:?}"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn denied_when_everything_pinned() {
        let mut vm = MemoryManager::new(20, &SpuSet::equal_users(1), Scheme::PIso, 0.0, 0.0);
        let allowed = vm.levels(SpuId::user(0)).allowed;
        let mut frames = Vec::new();
        for i in 0..allowed {
            if let Acquired::Frame { frame, .. } =
                vm.acquire_frame(SpuId::user(0), anon(1, i as u32))
            {
                frames.push(frame);
            }
        }
        for f in &frames {
            vm.set_pinned(*f, true);
        }
        assert_eq!(
            vm.acquire_frame(SpuId::user(0), anon(1, 999)),
            Acquired::Denied
        );
        assert_eq!(vm.stats(SpuId::user(0)).denials, 1);
    }

    #[test]
    fn mark_shared_transfers_charge() {
        let mut vm = vm(1000, Scheme::PIso);
        let frame = match vm.acquire_frame(
            SpuId::user(0),
            FrameOwner::Cache {
                file: FileId(0),
                block: 0,
            },
        ) {
            Acquired::Frame { frame, .. } => frame,
            other => panic!("{other:?}"),
        };
        let before = vm.levels(SpuId::user(0)).used;
        vm.mark_shared(frame);
        assert_eq!(vm.levels(SpuId::user(0)).used, before - 1);
        assert_eq!(vm.levels(SpuId::SHARED).used, 1);
        assert_eq!(vm.frame(frame).spu, SpuId::SHARED);
        // Idempotent for non-user frames.
        vm.mark_shared(frame);
        assert_eq!(vm.levels(SpuId::SHARED).used, 1);
        vm.check_invariants();
    }

    #[test]
    fn release_and_reuse() {
        let mut vm = vm(1000, Scheme::PIso);
        let frame = match vm.acquire_frame(SpuId::user(0), anon(1, 0)) {
            Acquired::Frame { frame, .. } => frame,
            other => panic!("{other:?}"),
        };
        let free_before = vm.free_frames();
        vm.release_frame(frame);
        assert_eq!(vm.free_frames(), free_before + 1);
        vm.check_invariants();
    }

    #[test]
    fn swap_runs_are_contiguous_and_disjoint() {
        let mut vm = vm(100, Scheme::PIso);
        let a = vm.alloc_swap_run(4);
        let b = vm.alloc_swap_run(2);
        assert_eq!(b, a + 4 * SECTORS_PER_PAGE as u64);
    }

    #[test]
    fn entitlements_track_shared_usage() {
        let mut vm = vm(1000, Scheme::PIso);
        let before = vm.levels(SpuId::user(0)).entitled;
        // Grow the shared SPU by 100 pages.
        for i in 0..100 {
            let f = match vm.acquire_frame(
                SpuId::user(0),
                FrameOwner::Cache {
                    file: FileId(0),
                    block: i,
                },
            ) {
                Acquired::Frame { frame, .. } => frame,
                other => panic!("{other:?}"),
            };
            vm.mark_shared(f);
        }
        vm.run_policy();
        let after = vm.levels(SpuId::user(0)).entitled;
        assert_eq!(before - after, 50, "shared cost split across user SPUs");
    }
}
