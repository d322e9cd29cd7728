//! A fast, deterministic, non-cryptographic hasher for hot-path maps.
//!
//! The enumeration loops of the approximation stack (quotient
//! fingerprints, hom-verdict memos) hash millions of small keys; the
//! standard library's DDoS-resistant SipHash dominates those loops. This
//! is the classic `FxHash` multiply-rotate mix (the rustc hasher): hash
//! *quality* only affects bucket spread — lookups stay exact through
//! `Eq` — so a fast deterministic hasher is always sound here. Not for
//! untrusted keys.

use std::hash::{BuildHasherDefault, Hasher};

/// The rustc `FxHash` mixer.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
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

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed by [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed by [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_usable() {
        let mut m: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
        m.insert(vec![1, 2, 3], 7);
        assert_eq!(m.get([1u32, 2, 3].as_slice()), Some(&7));
        let h = |v: &[u32]| {
            let mut hasher = FxHasher::default();
            use std::hash::Hash;
            v.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(&[1, 2]), h(&[1, 2]));
        assert_ne!(h(&[1, 2]), h(&[2, 1]));
    }
}
