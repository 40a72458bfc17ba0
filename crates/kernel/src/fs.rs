//! A minimal extent-based file system layout.
//!
//! Files are laid out contiguously on a disk ("the sectors of a single
//! file are often laid out contiguously on the disk", §3.3), preceded by
//! a metadata sector. An optional allocation gap scatters consecutive
//! files across the disk, modelling the many small scattered files of a
//! pmake tree versus the long contiguous extents of a large copy.

use crate::config::{PAGE_SIZE, SECTORS_PER_PAGE};

/// Identifies a file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

/// Where a file lives on disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileMeta {
    /// Which disk.
    pub disk: usize,
    /// Sector of the file's metadata block.
    pub meta_sector: u64,
    /// First data sector.
    pub start_sector: u64,
    /// Length in 4 KB blocks.
    pub blocks: u64,
}

/// The file-system layout: file → (disk, sectors) mapping.
///
/// # Examples
///
/// ```
/// use smp_kernel::FileSystem;
///
/// let mut fs = FileSystem::new(2, 2_000_000);
/// let small = fs.create(0, 500 * 1024, 0); // 500 KB, contiguous
/// let big = fs.create(0, 5 * 1024 * 1024, 0);
/// assert_eq!(fs.meta(small).blocks, 125);
/// // Files are laid out one after another on the same disk.
/// assert!(fs.meta(big).start_sector > fs.meta(small).start_sector);
/// ```
#[derive(Clone, Debug)]
pub struct FileSystem {
    files: Vec<FileMeta>,
    cursors: Vec<u64>,
    sectors_per_disk: u64,
}

impl FileSystem {
    /// Creates an empty layout over `disk_count` disks of
    /// `sectors_per_disk` sectors each.
    ///
    /// # Panics
    ///
    /// Panics if `disk_count` is zero.
    pub fn new(disk_count: usize, sectors_per_disk: u64) -> Self {
        assert!(disk_count > 0, "need at least one disk");
        FileSystem {
            files: Vec::new(),
            // Leave the first cylinder for "superblock" traffic.
            cursors: vec![72 * 19; disk_count],
            sectors_per_disk,
        }
    }

    /// Creates a file of `bytes` bytes on `disk`, leaving `gap_blocks`
    /// unallocated blocks before it (0 = pack files back to back;
    /// larger values scatter files across the disk).
    ///
    /// # Panics
    ///
    /// Panics if the disk is full.
    pub fn create(&mut self, disk: usize, bytes: u64, gap_blocks: u64) -> FileId {
        let blocks = bytes.div_ceil(PAGE_SIZE).max(1);
        let cursor = &mut self.cursors[disk];
        *cursor += gap_blocks * SECTORS_PER_PAGE as u64;
        let meta_sector = *cursor;
        let start_sector = meta_sector + SECTORS_PER_PAGE as u64;
        let end = start_sector + blocks * SECTORS_PER_PAGE as u64;
        assert!(
            end <= self.sectors_per_disk,
            "disk {disk} full: need up to sector {end} of {}",
            self.sectors_per_disk
        );
        *cursor = end;
        let id = FileId(self.files.len() as u32);
        self.files.push(FileMeta {
            disk,
            meta_sector,
            start_sector,
            blocks,
        });
        id
    }

    /// The layout record of a file.
    ///
    /// # Panics
    ///
    /// Panics if the file does not exist.
    pub fn meta(&self, file: FileId) -> &FileMeta {
        &self.files[file.0 as usize]
    }

    /// Absolute first sector of one block of a file.
    ///
    /// # Panics
    ///
    /// Panics if `block` is past the end of the file.
    pub fn sector_of_block(&self, file: FileId, block: u64) -> u64 {
        let m = self.meta(file);
        assert!(block < m.blocks, "block {block} past end of {file:?}");
        m.start_sector + block * SECTORS_PER_PAGE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup() {
        let mut fs = FileSystem::new(1, 1_000_000);
        let f = fs.create(0, 20 * 1024 * 1024, 0);
        let m = fs.meta(f);
        assert_eq!(m.blocks, 5120);
        assert_eq!(m.start_sector, m.meta_sector + 8);
        assert_eq!(fs.sector_of_block(f, 0), m.start_sector);
        assert_eq!(fs.sector_of_block(f, 1), m.start_sector + 8);
    }

    #[test]
    fn consecutive_files_are_contiguous_without_gap() {
        let mut fs = FileSystem::new(1, 1_000_000);
        let a = fs.create(0, 4096, 0);
        let b = fs.create(0, 4096, 0);
        let ma = fs.meta(a).clone();
        let mb = fs.meta(b).clone();
        assert_eq!(mb.meta_sector, ma.start_sector + 8);
    }

    #[test]
    fn gap_scatters_files() {
        let mut fs = FileSystem::new(1, 10_000_000);
        let a = fs.create(0, 4096, 100);
        let b = fs.create(0, 4096, 100);
        let dist = fs.meta(b).start_sector - fs.meta(a).start_sector;
        assert!(dist >= 100 * 8, "files not scattered: {dist}");
    }

    #[test]
    fn separate_disks_have_separate_cursors() {
        let mut fs = FileSystem::new(2, 1_000_000);
        let a = fs.create(0, 4096, 0);
        let b = fs.create(1, 4096, 0);
        assert_eq!(fs.meta(a).meta_sector, fs.meta(b).meta_sector);
        assert_eq!(fs.meta(a).disk, 0);
        assert_eq!(fs.meta(b).disk, 1);
    }

    #[test]
    fn zero_byte_file_still_gets_a_block() {
        let mut fs = FileSystem::new(1, 1_000_000);
        let f = fs.create(0, 0, 0);
        assert_eq!(fs.meta(f).blocks, 1);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn overfull_disk_panics() {
        let mut fs = FileSystem::new(1, 1000);
        fs.create(0, 10 * 1024 * 1024, 0);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn out_of_range_block_panics() {
        let mut fs = FileSystem::new(1, 1_000_000);
        let f = fs.create(0, 4096, 0);
        fs.sector_of_block(f, 1);
    }
}
