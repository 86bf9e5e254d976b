//! Epoch-keyed TPM prediction cache: an exact-key memo over
//! `(WorkloadFeatures, w)` queries.
//!
//! SRC re-queries the same weight grid on every control epoch
//! (`predict_weight_ratio` sweeps `w = 1..` against one feature
//! vector), and between epochs the monitor's sliding window often
//! hasn't changed — so identical inputs recur. The cache keys on the
//! **bit patterns** of the full input vector (the eleven features plus
//! the weight slot), so a hit returns exactly the value the forest
//! would have computed: results are unchanged by construction, no
//! tolerance argument needed.
//!
//! The store is a bounded two-way set-associative table with per-set
//! LRU, not a hash map: lookup cost is two key compares, eviction is
//! deterministic, and iteration order never influences results.

use crate::tpm::{ThroughputPredictionModel, TPM_INPUT_LEN};

/// Default number of sets (× 2 ways = 1024 bounded entries, ~13 KB).
pub const DEFAULT_SETS: usize = 512;

#[derive(Clone, Copy)]
struct CacheEntry {
    key: [u64; TPM_INPUT_LEN],
    value: (f64, f64),
    occupied: bool,
}

impl CacheEntry {
    const EMPTY: CacheEntry = CacheEntry {
        key: [0; TPM_INPUT_LEN],
        value: (0.0, 0.0),
        occupied: false,
    };
}

#[derive(Clone, Copy)]
struct CacheSet {
    ways: [CacheEntry; 2],
    /// The way to evict next (the least recently used of the two).
    lru: u8,
}

/// Bounded exact-key memo over TPM predictions (see module docs).
pub struct PredictionCache {
    sets: Vec<CacheSet>,
    mask: u64,
    hits: u64,
    misses: u64,
}

impl Default for PredictionCache {
    fn default() -> Self {
        Self::new(DEFAULT_SETS)
    }
}

impl PredictionCache {
    /// Build with `n_sets` two-way sets (must be a power of two).
    pub fn new(n_sets: usize) -> Self {
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        PredictionCache {
            sets: vec![
                CacheSet {
                    ways: [CacheEntry::EMPTY; 2],
                    lru: 0,
                };
                n_sets
            ],
            mask: (n_sets - 1) as u64,
            hits: 0,
            misses: 0,
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (each one ran the forest) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Predict through the cache: `x` is the caller-held input buffer
    /// with features already written (as in
    /// [`ThroughputPredictionModel::predict_at`]). On a key match the
    /// stored value — exactly what the forest returned when it was
    /// inserted — comes back without traversal.
    pub fn predict(
        &mut self,
        tpm: &ThroughputPredictionModel,
        x: &mut [f64; TPM_INPUT_LEN],
        w: u32,
    ) -> (f64, f64) {
        x[TPM_INPUT_LEN - 1] = w as f64;
        let mut key = [0u64; TPM_INPUT_LEN];
        for (k, v) in key.iter_mut().zip(x.iter()) {
            *k = v.to_bits();
        }
        let set = &mut self.sets[(fnv1a(&key) & self.mask) as usize];
        for i in 0..2 {
            if set.ways[i].occupied && set.ways[i].key == key {
                self.hits += 1;
                set.lru = 1 - i as u8;
                return set.ways[i].value;
            }
        }
        self.misses += 1;
        let value = tpm.predict_at(x, w);
        let victim = if !set.ways[0].occupied {
            0
        } else if !set.ways[1].occupied {
            1
        } else {
            set.lru as usize
        };
        set.ways[victim] = CacheEntry {
            key,
            value,
            occupied: true,
        };
        set.lru = 1 - victim as u8;
        value
    }
}

/// FNV-1a over the key words — deterministic, no RNG, no `std` hasher.
fn fnv1a(key: &[u64; TPM_INPUT_LEN]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &word in key {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpm::samples_to_dataset;
    use crate::tpm::{ThroughputPredictionModel, TrainingConfig};
    use ssd_sim::SsdConfig;
    use workload::WorkloadFeatures;

    fn tpm() -> ThroughputPredictionModel {
        let samples =
            crate::tpm::generate_training_samples(&SsdConfig::ssd_a(), &TrainingConfig::quick(), 5);
        ThroughputPredictionModel::train(&samples_to_dataset(&samples), 10, 5)
    }

    #[test]
    fn hit_returns_bitwise_identical_value() {
        let tpm = tpm();
        let mut cache = PredictionCache::new(64);
        let ch = WorkloadFeatures {
            read_ratio: 0.5,
            read_iat_mean_us: 12.0,
            write_iat_mean_us: 14.0,
            read_size_mean: 20_000.0,
            write_size_mean: 24_000.0,
            ..Default::default()
        };
        let mut x = [0.0f64; TPM_INPUT_LEN];
        ch.write_into(&mut x);
        for w in 1..=8 {
            let direct = tpm.predict(&ch, w);
            let miss = cache.predict(&tpm, &mut x, w);
            let hit = cache.predict(&tpm, &mut x, w);
            assert_eq!(direct.0.to_bits(), miss.0.to_bits());
            assert_eq!(direct.1.to_bits(), miss.1.to_bits());
            assert_eq!(miss.0.to_bits(), hit.0.to_bits());
            assert_eq!(miss.1.to_bits(), hit.1.to_bits());
        }
        assert_eq!(cache.misses(), 8);
        assert_eq!(cache.hits(), 8);
    }

    #[test]
    fn distinct_keys_do_not_collide_on_value() {
        let tpm = tpm();
        // A tiny 1-set cache forces evictions; correctness must hold
        // because keys are compared exactly, never assumed from the
        // hash.
        let mut cache = PredictionCache::new(1);
        let ch = WorkloadFeatures {
            read_ratio: 0.4,
            read_iat_mean_us: 30.0,
            write_iat_mean_us: 30.0,
            read_size_mean: 16_000.0,
            write_size_mean: 16_000.0,
            ..Default::default()
        };
        let mut x = [0.0f64; TPM_INPUT_LEN];
        ch.write_into(&mut x);
        for round in 0..3 {
            for w in 1..=6 {
                let got = cache.predict(&tpm, &mut x, w);
                let want = tpm.predict(&ch, w);
                assert_eq!(got.0.to_bits(), want.0.to_bits(), "round {round} w {w}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "round {round} w {w}");
            }
        }
        assert!(cache.misses() >= 6, "evictions force re-computation");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = PredictionCache::new(7);
    }
}
