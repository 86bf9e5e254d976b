//! Cached mapping table: an LRU cache of logical-to-physical page
//! translations. A miss costs an extra mapping-page read on the target
//! chip (the dominant CMT effect MQSim models).

use sim_engine::FastMap;

/// LRU translation cache keyed by logical page number.
///
/// Implemented as a hash map to a monotone "last use" stamp plus lazy
/// eviction of the oldest entry when over capacity. Capacity 0 disables
/// the cache (every access misses).
#[derive(Debug)]
pub struct CachedMappingTable {
    capacity: usize,
    stamp: u64,
    entries: FastMap<u64, u64>,
    hits: u64,
    misses: u64,
}

impl CachedMappingTable {
    /// Create with an entry capacity.
    pub fn new(capacity: usize) -> Self {
        CachedMappingTable {
            capacity,
            stamp: 0,
            entries: FastMap::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// Touch `lpn`; returns `true` on a hit, `false` on a miss (the miss
    /// is then cached, evicting the least recently used entry if full).
    pub fn access(&mut self, lpn: u64) -> bool {
        self.stamp += 1;
        if self.capacity == 0 {
            self.misses += 1;
            return false;
        }
        if let Some(s) = self.entries.get_mut(&lpn) {
            *s = self.stamp;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.entries.len() >= self.capacity {
            // Evict the LRU entry. O(n) scan, but only on insertion after
            // the table is full; tables here have >= 256 K entries and the
            // working sets of the experiments rarely evict. A heap would
            // complicate invariants for no measured gain.
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, &s)| s) {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(lpn, self.stamp);
        false
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }
    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
    /// Current number of cached translations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
    /// True when no translations are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_miss() {
        let mut c = CachedMappingTable::new(4);
        assert!(!c.access(1));
        assert!(c.access(1));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = CachedMappingTable::new(2);
        c.access(1);
        c.access(2);
        c.access(1); // 1 is now more recent than 2
        c.access(3); // evicts 2
        assert!(c.access(1), "1 should still be cached");
        assert!(!c.access(2), "2 was evicted");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_zero_always_misses() {
        let mut c = CachedMappingTable::new(0);
        assert!(!c.access(7));
        assert!(!c.access(7));
        assert_eq!(c.misses(), 2);
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = CachedMappingTable::new(8);
        for i in 0..100 {
            c.access(i);
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn sequential_scan_thrashes_small_cache() {
        let mut c = CachedMappingTable::new(4);
        for round in 0..3 {
            for i in 0..8 {
                let hit = c.access(i);
                if round == 0 {
                    assert!(!hit);
                }
            }
        }
        // Classic LRU + sequential cyclic access larger than capacity:
        // zero hits.
        assert_eq!(c.hits(), 0);
    }
}
