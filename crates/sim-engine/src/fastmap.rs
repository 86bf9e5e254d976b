//! [`FastMap`]: the integer-keyed hash map every simulator uses on its
//! per-event path (command tables, mapping caches, per-sector owners,
//! in-flight request tables).
//!
//! std's default SipHash is built to resist hash flooding from untrusted
//! keys and costs tens of nanoseconds per lookup. The simulators key their
//! maps by request ids, logical page numbers, sectors and flow/node ids,
//! so [`FoldHasher`] replaces it with one 64×64→128-bit multiply by an odd
//! constant whose two halves are XOR-folded together. The fold matters:
//! hashbrown picks a bucket from the hash's *low* bits, and the low bits
//! of a plain product depend only on the low bits of the key, so page
//! numbers that are multiples of 2^k would pile into 1/2^k of the buckets.
//! Folding the high half down lets every key bit reach the bucket index.
//!
//! The hasher has no random state: the same keys hash to the same values
//! in every map, process and run. Simulation results never depend on it
//! either way — no simulator iterates a map into a result (std already
//! re-keys SipHash per map, and results were deterministic under it). A
//! crafted replay trace could choose keys that collide; that makes the
//! run slower, never different.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier: 2^64 / φ, the Fibonacci-hashing constant.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Deterministic multiply-then-fold hasher for integer keys. See the
/// module docs for why the fold is there.
#[derive(Clone, Copy, Debug, Default)]
pub struct FoldHasher {
    hash: u64,
}

impl FoldHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.hash ^ word) * u128::from(MULTIPLIER);
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    /// Keys that are not plain integers arrive as bytes: folded eight
    /// at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// A `HashMap` hashed by [`FoldHasher`]; build one with
/// `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: T) -> u64 {
        BuildHasherDefault::<FoldHasher>::default().hash_one(key)
    }

    /// Largest number of keys that land in one of `2^bits` buckets
    /// chosen by the hash's low bits (hashbrown's bucket index).
    fn max_bucket_load(keys: impl Iterator<Item = u64>, bits: u32) -> usize {
        let mut load = vec![0usize; 1 << bits];
        for k in keys {
            load[(hash_of(k) & ((1 << bits) - 1)) as usize] += 1;
        }
        load.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn same_keys_hash_the_same_in_every_instance() {
        let a = BuildHasherDefault::<FoldHasher>::default();
        let b = BuildHasherDefault::<FoldHasher>::default();
        for k in [0u64, 1, 42, 1 << 40, u64::MAX] {
            assert_eq!(a.hash_one(k), b.hash_one(k));
        }
        // No random state: the values are fixed across processes.
        assert_eq!(hash_of(1u64), MULTIPLIER);
        assert_eq!(hash_of(0u64), 0);
        // usize / u64 keys of the same value agree (ids are stored both ways).
        assert_eq!(hash_of(7usize), hash_of(7u64));
    }

    #[test]
    fn sequential_ids_spread_over_low_bit_buckets() {
        // 4096 keys into 256 buckets: 16 per bucket if perfectly even.
        let load = max_bucket_load(0..4096, 8);
        assert!(load <= 32, "sequential ids: max bucket load {load}");
    }

    #[test]
    fn power_of_two_strided_lpns_spread_over_low_bit_buckets() {
        // Page numbers that are multiples of 2^k: without the fold every
        // key would share its low k bits and crowd into 1/2^k of the
        // buckets.
        for k in [4u32, 8, 12, 16, 20] {
            let load = max_bucket_load((0..4096u64).map(|i| i << k), 8);
            assert!(load <= 32, "stride 2^{k}: max bucket load {load}");
        }
    }

    #[test]
    fn byte_slices_hash_by_content() {
        let mut a = FoldHasher::default();
        a.write(b"abcdefghij");
        let mut b = FoldHasher::default();
        b.write(b"abcdefghij");
        let mut c = FoldHasher::default();
        c.write(b"abcdefghik");
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn map_round_trip() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..10_000u64 {
            m.insert(i << 12, i);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u64).all(|i| m.get(&(i << 12)) == Some(&i)));
        assert_eq!(m.remove(&(5 << 12)), Some(5));
        assert!(!m.contains_key(&(5 << 12)));
    }
}
