//! A fast, deterministic hasher for the ideal predictors' state maps.
//!
//! The ideal PATH and CTTB sweeps intern millions of (id, task) pairs per
//! walk, one `u64` key per depth and event
//! ([`PathInterner`](crate::ideal::PathInterner)); the hash-map oracles
//! key their automata by small `Copy` keys (`(u32, u64)`,
//! `(u32, PathKey)`). SipHash — the std default — is overkill: these maps
//! are never exposed to untrusted keys, their iteration order is never
//! observed (only `get`/`entry`/`len`), and the simulation is single-keyed
//! per run. The multiply-rotate scheme below (the well-known "Fx"
//! construction from rustc) is several times cheaper per lookup and fully
//! deterministic across platforms and runs.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher (rustc's `FxHasher` construction).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic_and_spreads() {
        let hash_of = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(hash_of(42), hash_of(42));
        let distinct: std::collections::BTreeSet<u64> = (0..1000).map(hash_of).collect();
        assert_eq!(distinct.len(), 1000, "no collisions on sequential keys");
    }

    #[test]
    fn map_behaves_like_default_hashmap() {
        let mut m: FxHashMap<(u32, u64), u32> = FxHashMap::default();
        for i in 0..500u32 {
            m.insert((i, u64::from(i) << 3), i * 2);
        }
        assert_eq!(m.len(), 500);
        for i in 0..500u32 {
            assert_eq!(m.get(&(i, u64::from(i) << 3)), Some(&(i * 2)));
        }
    }
}
