//! A multiply-mix hasher for the kernel's keyed-access-only maps.
//!
//! The default SipHash showed up at ~6% of the fault-path profile just
//! keying `u64` IO tags and small newtype ids. These keys are either
//! sequential counters or dense ids, so a single 64-bit multiply with a
//! high-entropy odd constant (the classic Fx/fxhash mix) spreads them
//! fine, and none of these maps needs DoS resistance — the simulation
//! generates its own keys.
//!
//! **Determinism rule:** only maps whose iteration order never reaches an
//! observable result may use this. The kernel's `io_purpose`, `retries`
//! and `wake_pending` maps are keyed-access-only, so all qualify.
//! Anything iterated into exports stays `BTreeMap`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `pi * 2^62`, rounded to odd — the multiplier fxhash uses.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One multiply-rotate per written word; not DoS-resistant by design.
#[derive(Default)]
pub(crate) struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// A `HashMap` keyed through [`FastHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_distinctly_enough() {
        // Sequential u64 tags (the dominant key shape) must not collide
        // in bulk: insert 10k, read all back.
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..10_000u64 {
            m.insert(i, i * 3);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(&i), Some(&(i * 3)));
        }
    }

    #[test]
    fn tuple_keys_work() {
        let mut m: FastMap<(u32, u64), u8> = FastMap::default();
        m.insert((3, 9), 1);
        m.insert((9, 3), 2);
        assert_eq!(m.get(&(3, 9)), Some(&1));
        assert_eq!(m.get(&(9, 3)), Some(&2));
    }
}
