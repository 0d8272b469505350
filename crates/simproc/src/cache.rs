//! Set-associative LRU caches.

use crate::config::CacheGeometry;

/// Per-cache access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups.
    pub accesses: u64,
    /// Number of lookups that hit.
    pub hits: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when no accesses occurred.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Only tags are stored (the simulator never needs data). Fills are
/// inclusive: the caller looks up each level in order and calls
/// [`Cache::access`] on every level, which both probes and updates LRU /
/// allocates on miss.
///
/// # Examples
///
/// ```
/// use simproc::{cache::Cache, config::CacheGeometry};
///
/// let geo = CacheGeometry { size_bytes: 4096, ways: 4, line_bytes: 64, latency: 3 };
/// let mut cache = Cache::new(&geo);
/// assert!(!cache.access(0));  // cold miss
/// assert!(cache.access(0));   // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// `sets x ways` tag store; `u64::MAX` marks an empty way.
    /// Within a set, index 0 is the MRU position.
    tags: Vec<u64>,
    ways: usize,
    set_mask: u64,
    line_shift: u32,
    /// Set-index bits above the line offset: `set_mask.count_ones()`.
    set_bits: u32,
    latency: u64,
    stats: CacheStats,
}

const EMPTY: u64 = u64::MAX;

impl Cache {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`CacheGeometry::validate`].
    pub fn new(geometry: &CacheGeometry) -> Self {
        geometry
            .validate()
            .unwrap_or_else(|e| panic!("invalid cache geometry: {e}"));
        let sets = geometry.sets() as usize;
        Cache {
            tags: vec![EMPTY; sets * geometry.ways as usize],
            ways: geometry.ways as usize,
            set_mask: geometry.sets() - 1,
            line_shift: geometry.line_bytes.trailing_zeros(),
            set_bits: geometry.sets().trailing_zeros(),
            latency: geometry.latency,
            stats: CacheStats::default(),
        }
    }

    /// Hit latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (e.g. at the end of warm-up) without disturbing
    /// cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Probes `addr`; on hit, promotes the line to MRU; on miss, allocates
    /// it (evicting the LRU way). Returns whether the access hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_bits;
        let base = set * self.ways;
        let set_tags = &mut self.tags[base..base + self.ways];
        self.stats.accesses += 1;
        // One pass moves each way down one LRU position until the tag is
        // found: a hit at `pos` promotes it to MRU over `[0..=pos]`; a miss
        // shifts the whole set, dropping the LRU way, and inserts at MRU.
        let mut carry = tag;
        for way in set_tags.iter_mut() {
            let seen = std::mem::replace(way, carry);
            if seen == tag {
                self.stats.hits += 1;
                return true;
            }
            carry = seen;
        }
        false
    }

    /// Probes without updating LRU state or statistics (for tests/inspection).
    pub fn contains(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_bits;
        let base = set * self.ways;
        self.tags[base..base + self.ways].contains(&tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(ways: u32, sets_times_ways_lines: u64) -> Cache {
        let geo = CacheGeometry {
            size_bytes: sets_times_ways_lines * 64,
            ways,
            line_bytes: 64,
            latency: 3,
        };
        Cache::new(&geo)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_cache(4, 64);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = small_cache(4, 64);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1004)); // same 64B line
        assert!(c.access(0x103F));
    }

    #[test]
    fn lru_eviction_order() {
        // 1 set of 2 ways: addresses mapping to set 0 with distinct tags.
        let geo = CacheGeometry {
            size_bytes: 2 * 64,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        };
        let mut c = Cache::new(&geo);
        let a = 0u64;
        let b = 64; // sets = 1 so every line maps to set 0
        let d = 128;
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // promote a to MRU; b is now LRU
        assert!(!c.access(d)); // evicts b
        assert!(c.access(a), "a must survive");
        assert!(!c.access(b), "b must have been evicted");
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = small_cache(1, 64); // direct mapped, 64 sets
        for set in 0..64u64 {
            assert!(!c.access(set * 64));
        }
        for set in 0..64u64 {
            assert!(c.access(set * 64), "set {set} must still be resident");
        }
    }

    #[test]
    fn conflict_misses_in_direct_mapped() {
        let mut c = small_cache(1, 64);
        let a = 0u64;
        let b = 64 * 64; // same set (64 sets), different tag
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(!c.access(a), "direct-mapped conflict must evict");
    }

    #[test]
    fn hit_rate_reflects_locality() {
        let mut c = small_cache(8, 512);
        // Touch 16 lines repeatedly: all fit, hit rate approaches 1.
        for round in 0..100 {
            for line in 0..16u64 {
                let hit = c.access(line * 64);
                if round > 0 {
                    assert!(hit);
                }
            }
        }
        assert!(c.stats().hit_rate() > 0.98);
    }

    #[test]
    fn capacity_thrash_produces_misses() {
        let mut c = small_cache(8, 512); // 512 lines
                                         // Cyclic walk over 1024 lines with LRU: everything misses after warmup.
        let mut last_round_hits = 0;
        for round in 0..3 {
            c.reset_stats();
            for line in 0..1024u64 {
                c.access(line * 64);
            }
            if round == 2 {
                last_round_hits = c.stats().hits;
            }
        }
        assert_eq!(last_round_hits, 0, "cyclic overflow thrash must miss");
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small_cache(4, 64);
        c.access(0x40);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.contains(0x40));
        assert!(c.access(0x40));
    }

    #[test]
    fn contains_does_not_mutate() {
        let mut c = small_cache(2, 8);
        c.access(0);
        let before = c.stats();
        assert!(c.contains(0));
        assert!(!c.contains(0x4000));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn hit_rate_zero_when_unused() {
        let c = small_cache(2, 8);
        assert_eq!(c.stats().hit_rate(), 0.0);
    }
}
