//! A fast non-cryptographic hasher for hot integer keys.
//!
//! The standard library's SipHash is a poor fit for the integer-keyed maps
//! of the dendrogram, flat-extraction and DBSCAN\* passes (see the
//! performance notes in the Rust Performance Book on alternative
//! hashers). This is the classic Fx multiply-rotate hash, implemented
//! locally to avoid an external dependency.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher (FxHash algorithm).
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the fast hasher.
pub type FastMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// Drop-in `HashSet` with the fast hasher.
pub type FastSet<K> = HashSet<K, FxBuildHasher>;

/// Convenience constructor with capacity.
pub fn fast_map_with_capacity<K, V>(cap: usize) -> FastMap<K, V> {
    FastMap::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..10_000u64 {
            m.insert(i * 31, i);
        }
        for i in 0..10_000u64 {
            assert_eq!(m.get(&(i * 31)), Some(&i));
        }
        assert_eq!(m.len(), 10_000);
    }

    #[test]
    fn hash_distributes() {
        // Smoke test: sequential keys should not all collide mod small tables.
        let mut buckets = [0usize; 64];
        for i in 0..64_000u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            buckets[(h.finish() % 64) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        let min = *buckets.iter().min().unwrap();
        assert!(max < min * 3, "poor distribution: min={min} max={max}");
    }

    #[test]
    fn set_basics() {
        let mut s: FastSet<u32> = FastSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(&7));
    }
}
