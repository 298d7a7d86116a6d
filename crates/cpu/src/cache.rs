//! The shared last-level cache with a write-allocate, write-back policy.
//!
//! Only the LLC is modelled explicitly: the Mess experiments are about main-memory behaviour,
//! and the private L1/L2 levels are folded into the configurable on-chip latency. What matters
//! — and what this model implements — is the *traffic transformation* the LLC performs:
//!
//! * a load miss produces one memory read;
//! * a store miss produces one memory read (the write-allocate fill) and marks the line dirty;
//! * evicting a dirty line produces one memory write.
//!
//! This is why a 100 %-store kernel generates 50 %-read/50 %-write memory traffic (paper
//! §II-A) and why Mess bandwidth exceeds STREAM's application-level estimate (§III).
//!
//! Replacement is exact LRU. Each way carries one byte of recency state — its rank among
//! the set's valid ways — so a line costs 9 bytes of model state (an 8-byte tag word plus
//! the rank), and associativity is bounded at [`MAX_WAYS`].

use mess_types::CACHE_LINE_BYTES;
use serde::{Deserialize, Serialize};

/// The largest associativity the model supports: a way's LRU rank is one byte.
pub const MAX_WAYS: u32 = 256;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// `true` if the line was present.
    pub hit: bool,
    /// Address of a dirty line that was evicted to make room (must be written back).
    pub writeback: Option<u64>,
}

/// Configuration of the last-level cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// If `false` the cache is disabled and every access misses without allocating
    /// (used to model GPUs' streaming behaviour and for targeted unit tests).
    pub enabled: bool,
}

impl CacheConfig {
    /// Creates a cache configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways or capacity smaller than one way of
    /// cache lines) or has more than [`MAX_WAYS`] ways.
    pub fn new(capacity_bytes: u64, ways: u32) -> Self {
        assert!(ways > 0, "cache must have at least one way");
        assert_ways_in_range(ways);
        assert!(
            capacity_bytes >= ways as u64 * CACHE_LINE_BYTES,
            "cache must hold at least one line per way"
        );
        CacheConfig {
            capacity_bytes,
            ways,
            enabled: true,
        }
    }

    /// A disabled cache: every access is a miss and nothing is allocated.
    pub fn disabled() -> Self {
        CacheConfig {
            capacity_bytes: CACHE_LINE_BYTES,
            ways: 1,
            enabled: false,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        let lines = (self.capacity_bytes / CACHE_LINE_BYTES).max(1);
        let sets = (lines / self.ways as u64).max(1);
        // Round down to a power of two for cheap indexing.
        let mut p = 1u64;
        while p * 2 <= sets {
            p *= 2;
        }
        p as usize
    }
}

/// Hit/miss/writeback counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Load hits.
    pub load_hits: u64,
    /// Load misses.
    pub load_misses: u64,
    /// Store hits.
    pub store_hits: u64,
    /// Store misses (each causes a write-allocate fill).
    pub store_misses: u64,
    /// Dirty evictions (each causes a memory write).
    pub writebacks: u64,
}

impl CacheStats {
    /// Overall miss ratio across loads and stores.
    pub fn miss_ratio(&self) -> f64 {
        let misses = self.load_misses + self.store_misses;
        let total = misses + self.load_hits + self.store_hits;
        if total == 0 {
            0.0
        } else {
            misses as f64 / total as f64
        }
    }
}

/// Valid marker folded into a stored tag word (bit 62).
///
/// A tag value is `line / sets` with `line = addr / 64`, so it never exceeds 58 bits and the
/// two top bits are free for metadata. Invalid ways store `0` (no valid bit), which can
/// never collide with a real line.
const TAG_VALID: u64 = 1 << 62;
/// Dirty marker folded into a stored tag word (bit 63).
const TAG_DIRTY: u64 = 1 << 63;
/// Mask of the tag value itself.
const TAG_VALUE: u64 = TAG_VALID - 1;

/// Rank of an invalid way: above every valid way's rank in a set with room, so a fill takes
/// the first invalid way.
const RANK_INVALID: u8 = u8::MAX;

/// Panics if `ways` exceeds [`MAX_WAYS`].
fn assert_ways_in_range(ways: u32) {
    assert!(
        ways <= MAX_WAYS,
        "cache has {ways} ways, more than the {MAX_WAYS} a one-byte LRU rank can order"
    );
}

/// A set-associative, write-allocate, write-back last-level cache model.
///
/// State is stored structure-of-arrays, set-major and contiguous: one `u64` word per way
/// (tag value + valid/dirty bits) and one `u8` LRU rank per way. The hit scan — the hottest
/// loop in the whole engine, run once per memory instruction — therefore touches `ways * 8`
/// contiguous bytes of tag words, and the recency update and the victim scan touch `ways`
/// bytes of ranks.
///
/// A valid way's rank is the number of valid ways in its set that were used more recently,
/// so the valid ranks of a set are always exactly `0..valid`; an invalid way holds
/// `u8::MAX`. An access to a way (a hit, or the fill of a victim) adds one to every rank
/// below the way's old rank and sets its rank to 0. The victim is the first way with the
/// largest rank: the first invalid way if the set has room, else the least recently used
/// line. At [`MAX_WAYS`] ways a full set's LRU line ranks `u8::MAX` too, which is still the
/// largest rank, so 256 ways is the bound.
#[derive(Debug, Clone)]
pub struct LastLevelCache {
    config: CacheConfig,
    sets: usize,
    /// Stored tag words, `tags[set * ways..(set + 1) * ways]`: `TAG_VALID | dirty | value`,
    /// or `0` for an invalid way.
    tags: Vec<u64>,
    /// LRU ranks parallel to `tags`; `RANK_INVALID` for an invalid way.
    ranks: Vec<u8>,
    stats: CacheStats,
}

impl LastLevelCache {
    /// Builds the cache described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` has more than [`MAX_WAYS`] ways.
    pub fn new(config: CacheConfig) -> Self {
        assert_ways_in_range(config.ways);
        let sets = config.sets();
        let lines = sets * config.ways as usize;
        LastLevelCache {
            config,
            sets,
            tags: vec![0; lines],
            ranks: vec![RANK_INVALID; lines],
            stats: CacheStats::default(),
        }
    }

    /// The configuration of this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr / CACHE_LINE_BYTES;
        let set = (line as usize) & (self.sets - 1);
        let tag = line / self.sets as u64;
        (set, tag)
    }

    /// Makes `way` its set's most recently used way: every way used more recently than it
    /// ages by one rank. Invalid ways are never below the old rank, so they stay invalid,
    /// and no rank can pass `u8::MAX`.
    #[inline]
    fn touch(ranks: &mut [u8], way: usize) {
        let old = ranks[way];
        for rank in ranks.iter_mut() {
            *rank += u8::from(*rank < old);
        }
        ranks[way] = 0;
    }

    /// Performs a load or store access.
    ///
    /// On a miss the line is allocated immediately (the fill request is issued by the caller);
    /// if the victim was dirty its address is returned so the caller can issue the writeback.
    pub fn access(&mut self, addr: u64, is_store: bool) -> AccessResult {
        if !self.config.enabled {
            if is_store {
                self.stats.store_misses += 1;
            } else {
                self.stats.load_misses += 1;
            }
            return AccessResult {
                hit: false,
                writeback: None,
            };
        }
        let (set, tag) = self.index(addr);
        let sets = self.sets;
        let ways = self.config.ways as usize;
        let base = set * ways;
        let tags = &mut self.tags[base..base + ways];
        let ranks = &mut self.ranks[base..base + ways];

        // Hit path: one masked compare per way over a contiguous word array.
        let stored = TAG_VALID | tag;
        if let Some(way) = tags.iter().position(|w| *w & !TAG_DIRTY == stored) {
            if is_store {
                tags[way] |= TAG_DIRTY;
                self.stats.store_hits += 1;
            } else {
                self.stats.load_hits += 1;
            }
            Self::touch(ranks, way);
            return AccessResult {
                hit: true,
                writeback: None,
            };
        }

        // Miss: the victim is the first way with the largest rank — the first invalid way,
        // else the least recently used one.
        let mut victim = 0;
        for (way, &rank) in ranks.iter().enumerate().skip(1) {
            if rank > ranks[victim] {
                victim = way;
            }
        }
        let old = tags[victim];
        let writeback = if old & TAG_DIRTY != 0 {
            // Reconstruct the victim's address from its tag value and this set index.
            Some(((old & TAG_VALUE) * sets as u64 + set as u64) * CACHE_LINE_BYTES)
        } else {
            None
        };
        tags[victim] = stored | if is_store { TAG_DIRTY } else { 0 };
        Self::touch(ranks, victim);

        if is_store {
            self.stats.store_misses += 1;
        } else {
            self.stats.load_misses += 1;
        }
        if writeback.is_some() {
            self.stats.writebacks += 1;
        }
        AccessResult {
            hit: false,
            writeback,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_cache() -> LastLevelCache {
        // 64 KiB, 4-way: 256 sets.
        LastLevelCache::new(CacheConfig::new(64 * 1024, 4))
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::new(64 * 1024, 4);
        assert_eq!(c.sets(), 256);
        let odd = CacheConfig::new(33 * 1024 * 1024, 11);
        assert!(odd.sets().is_power_of_two());
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _ = CacheConfig::new(1024, 0);
    }

    #[test]
    #[should_panic(expected = "257 ways")]
    fn more_ways_than_a_rank_byte_orders_panics() {
        let _ = CacheConfig::new(257 * CACHE_LINE_BYTES, 257);
    }

    #[test]
    #[should_panic(expected = "257 ways")]
    fn building_a_cache_past_the_way_bound_panics() {
        let config = CacheConfig {
            capacity_bytes: 257 * CACHE_LINE_BYTES,
            ways: 257,
            enabled: true,
        };
        let _ = LastLevelCache::new(config);
    }

    #[test]
    fn skylake_llc_keeps_at_most_nine_bytes_of_state_per_line() {
        // Skylake's 33 MiB, 11-way LLC: 32,768 sets of 11 ways.
        let c = LastLevelCache::new(CacheConfig::new(33 * 1024 * 1024, 11));
        let lines = c.sets * 11;
        assert_eq!(lines, 360_448);
        let bytes =
            std::mem::size_of_val(c.tags.as_slice()) + std::mem::size_of_val(c.ranks.as_slice());
        assert!(
            bytes <= 9 * lines,
            "{bytes} bytes of tag and LRU state for {lines} lines"
        );
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small_cache();
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x1020, false).hit, "same line, different offset");
        assert_eq!(c.stats().load_hits, 2);
        assert_eq!(c.stats().load_misses, 1);
    }

    #[test]
    fn store_miss_allocates_and_dirty_eviction_writes_back() {
        let mut c = small_cache();
        // Store to a line: write-allocate marks it dirty.
        assert!(!c.access(0x2000, true).hit);
        // Fill the same set with clean loads until the dirty line is evicted.
        // Set index of 0x2000: line = 0x80, set = 0x80 & 255 = 128. Conflicting addresses are
        // 0x2000 + k * sets * 64 = 0x2000 + k * 0x4000.
        let mut writebacks = Vec::new();
        for k in 1..=4u64 {
            let r = c.access(0x2000 + k * 0x4000, false);
            if let Some(wb) = r.writeback {
                writebacks.push(wb);
            }
        }
        assert_eq!(writebacks, vec![0x2000]);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_evictions_do_not_write_back() {
        let mut c = small_cache();
        for k in 0..16u64 {
            let r = c.access(0x1000 + k * 0x4000, false);
            assert_eq!(r.writeback, None);
        }
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn lru_keeps_the_recently_used_line() {
        let mut c = small_cache();
        c.access(0x0000, false); // way A
        c.access(0x4000, false); // way B (same set)
        c.access(0x8000, false); // way C
        c.access(0xC000, false); // way D — set now full
                                 // Touch A again so B becomes LRU.
        c.access(0x0000, false);
        // New conflicting line evicts B, not A.
        c.access(0x1_0000, false);
        assert!(c.access(0x0000, false).hit, "A must survive");
        assert!(!c.access(0x4000, false).hit, "B must have been evicted");
    }

    #[test]
    fn disabled_cache_always_misses_without_writebacks() {
        let mut c = LastLevelCache::new(CacheConfig::disabled());
        for _ in 0..10 {
            let r = c.access(0x40, true);
            assert!(!r.hit);
            assert_eq!(r.writeback, None);
        }
        assert_eq!(c.stats().store_misses, 10);
        assert_eq!(c.stats().miss_ratio(), 1.0);
    }

    #[test]
    fn streaming_store_traffic_becomes_half_reads_half_writes() {
        // A working set much larger than the cache, written sequentially twice: in steady
        // state every store misses (1 read fill) and evicts a dirty line (1 write).
        let mut c = LastLevelCache::new(CacheConfig::new(16 * 1024, 4));
        let lines = 4 * 1024; // 256 KiB worth of lines, 16x the cache
        for _pass in 0..2u64 {
            for i in 0..lines {
                c.access(i * 64, true);
            }
        }
        let s = c.stats();
        let fills = s.store_misses;
        let writes = s.writebacks;
        let ratio = writes as f64 / fills as f64;
        assert!(
            ratio > 0.9,
            "steady-state writeback/fill ratio {ratio} should approach 1"
        );
    }

    /// The timestamp LRU the rank scheme replaced, kept as the reference it must match: one
    /// `u64` timestamp per way (0 for invalid ways, a global access clock from 1 for valid
    /// ones); the victim is the way with the smallest timestamp, first index on a tie.
    struct TimestampLru {
        sets: usize,
        ways: usize,
        tags: Vec<u64>,
        last_used: Vec<u64>,
        clock: u64,
        stats: CacheStats,
    }

    impl TimestampLru {
        fn new(config: CacheConfig) -> Self {
            let sets = config.sets();
            let ways = config.ways as usize;
            TimestampLru {
                sets,
                ways,
                tags: vec![0; sets * ways],
                last_used: vec![0; sets * ways],
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, addr: u64, is_store: bool) -> AccessResult {
            self.clock += 1;
            let line = addr / CACHE_LINE_BYTES;
            let set = (line as usize) & (self.sets - 1);
            let stored = TAG_VALID | (line / self.sets as u64);
            let base = set * self.ways;
            let tags = &mut self.tags[base..base + self.ways];
            if let Some(way) = tags.iter().position(|w| *w & !TAG_DIRTY == stored) {
                if is_store {
                    tags[way] |= TAG_DIRTY;
                    self.stats.store_hits += 1;
                } else {
                    self.stats.load_hits += 1;
                }
                self.last_used[base + way] = self.clock;
                return AccessResult {
                    hit: true,
                    writeback: None,
                };
            }
            let stamps = &self.last_used[base..base + self.ways];
            let mut victim = 0;
            for (way, &stamp) in stamps.iter().enumerate().skip(1) {
                if stamp < stamps[victim] {
                    victim = way;
                }
            }
            let old = tags[victim];
            let writeback = (old & TAG_DIRTY != 0)
                .then(|| ((old & TAG_VALUE) * self.sets as u64 + set as u64) * CACHE_LINE_BYTES);
            tags[victim] = stored | if is_store { TAG_DIRTY } else { 0 };
            self.last_used[base + victim] = self.clock;
            if is_store {
                self.stats.store_misses += 1;
            } else {
                self.stats.load_misses += 1;
            }
            if writeback.is_some() {
                self.stats.writebacks += 1;
            }
            AccessResult {
                hit: false,
                writeback,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn rank_lru_matches_the_timestamp_reference(
            way_choice in 0usize..5,
            set_bits in 0u32..3,
            words in proptest::collection::vec(0u64..u64::MAX, 3_000..6_000),
        ) {
            let ways = [1u32, 2, 11, 16, 256][way_choice];
            let sets = 1u64 << set_bits;
            let config = CacheConfig::new(sets * ways as u64 * CACHE_LINE_BYTES, ways);
            prop_assert_eq!(config.sets() as u64, sets);
            let mut cache = LastLevelCache::new(config);
            let mut reference = TimestampLru::new(config);
            // Lines are drawn from twice the capacity, so sets fill up, then mix hits with
            // evictions; even the largest geometry (1,024 lines) sees 3,000+ accesses.
            let pool = 2 * sets * ways as u64;
            for (i, &word) in words.iter().enumerate() {
                let addr = (word % pool) * CACHE_LINE_BYTES + (word >> 58);
                let is_store = (word >> 57) & 1 == 1;
                let got = cache.access(addr, is_store);
                let want = reference.access(addr, is_store);
                prop_assert!(
                    got == want,
                    "access {i} to {addr:#x} ({ways} ways, {sets} sets): {got:?}, reference {want:?}"
                );
            }
            prop_assert_eq!(*cache.stats(), reference.stats);
        }
    }

    proptest! {
        #[test]
        fn prop_hits_plus_misses_equals_accesses(addrs in proptest::collection::vec(0u64..1u64 << 24, 1..500)) {
            let mut c = small_cache();
            for (i, &a) in addrs.iter().enumerate() {
                c.access(a, i % 3 == 0);
            }
            let s = c.stats();
            prop_assert_eq!(
                s.load_hits + s.load_misses + s.store_hits + s.store_misses,
                addrs.len() as u64
            );
            prop_assert!(s.writebacks <= s.store_hits + s.store_misses);
        }

        #[test]
        fn prop_miss_ratio_in_unit_interval(addrs in proptest::collection::vec(0u64..1u64 << 20, 1..200)) {
            let mut c = small_cache();
            for &a in &addrs {
                c.access(a, false);
            }
            let r = c.stats().miss_ratio();
            prop_assert!((0.0..=1.0).contains(&r));
        }
    }
}
