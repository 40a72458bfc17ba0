//! The committed output check: the FNV-64 of every reference-block
//! cell's rendered export, for the blessed seeds, in
//! `expected/<workload>.txt` as lines of `seed cell digest`.

use std::path::{Path, PathBuf};

use crate::Workload;

/// Seeds whose digests are committed: 1 is the reference seed, 2 the
/// holdout never used while tuning a change.
pub const BLESSED_SEEDS: [u64; 2] = [1, 2];

/// A path inside this package.
pub fn package_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Where `w`'s digests are committed.
pub fn expected_path(w: Workload) -> PathBuf {
    package_path(&format!("expected/{}.txt", w.name()))
}

/// The committed digests of `seed`'s reference block, in cell order;
/// empty when none are committed.
pub fn committed_digests(w: Workload, seed: u64) -> Vec<u64> {
    let text = std::fs::read_to_string(expected_path(w)).unwrap_or_default();
    text.lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let s: u64 = f.next()?.parse().ok()?;
            let _cell = f.next()?;
            let digest = u64::from_str_radix(f.next()?, 16).ok()?;
            (s == seed).then_some(digest)
        })
        .collect()
}

/// The file `--bless` writes: `(seed, digests)` per blessed seed.
pub fn render(w: Workload, blocks: &[(u64, Vec<u64>)]) -> String {
    let mut text = format!(
        "# {}: FNV-64 of each reference-block cell's rendered export, as `seed cell digest`.\n\
         # Regenerate with `simbench --bless --workload {}`.\n",
        w.name(),
        w.name()
    );
    for (seed, digests) in blocks {
        for (cell, d) in digests.iter().enumerate() {
            text.push_str(&format!("{seed} {cell} {d:016x}\n"));
        }
    }
    text
}
