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
//! Replacement is exact LRU, kept as order rather than as per-way state: each set stores its
//! lines most recently used first, one packed field per line (the tag value plus a valid and
//! a dirty bit). The field is as wide as the largest tag stored so far needs, so a line costs
//! 2 or 3 bytes on Skylake's geometry for the repository's workloads and never more than 8.
//! Associativity is bounded at [`MAX_WAYS`].

use mess_types::CACHE_LINE_BYTES;
use serde::{Deserialize, Serialize};

/// The largest associativity the model supports: every access moves up to `ways − 1` packed
/// fields to keep its set in recency order, so the cost of an access grows with the ways.
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

/// Valid bit of a packed field. An invalid field is all zeros, which no line can match.
const FIELD_VALID: u64 = 1;
/// Dirty bit of a packed field.
const FIELD_DIRTY: u64 = 1 << 1;
/// The tag value sits above the two flag bits.
const FIELD_TAG_SHIFT: u32 = 2;
/// Bytes past the last field, so that every field's 8-byte window stays in bounds.
const WINDOW_PAD: usize = 7;

/// Panics if `ways` exceeds [`MAX_WAYS`].
fn assert_ways_in_range(ways: u32) {
    assert!(
        ways <= MAX_WAYS,
        "cache has {ways} ways, more than the {MAX_WAYS} the recency shift is bounded to"
    );
}

/// The 8-byte little-endian window starting at `at`; a field is its low bytes.
#[inline]
fn read_window(bytes: &[u8], at: usize) -> u64 {
    let mut window = [0; 8];
    window.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(window)
}

/// A set-associative, write-allocate, write-back last-level cache model.
///
/// Each line is one packed field of `width` bytes, set-major and contiguous: the tag value
/// shifted above a valid and a dirty bit, or all zeros for an empty slot. The width follows
/// the largest tag stored so far, as its bits plus two: a new cache holds no line state, the
/// first access allocates it, and a tag too wide for the fields re-packs every field wider.
/// The width never shrinks. On Skylake's 32,768 sets it is 2 bytes for addresses below
/// 32 GiB (the STREAM arrays), 3 below 8 TiB (the sweep's traffic) and 6 for any address.
/// A field is read through the 8-byte little-endian window at its offset, so the array
/// carries 7 bytes past the last field.
///
/// The order of a set's fields is its LRU state: most recently used first. The hit scan —
/// the hottest loop in the whole engine, run once per memory instruction — walks
/// `ways × width` contiguous bytes. A hit at slot `k` moves slots `0..k` down by one and
/// writes the line at the front. A miss evicts the last slot, which is empty while the set
/// has room and the least recently used line once it is full, and inserts the new line at
/// the front after the same one-slot shift. Only the slot a line sits in differs from a
/// per-way LRU; the writeback address comes from the tag, so nothing observes it.
#[derive(Debug, Clone)]
pub struct LastLevelCache {
    config: CacheConfig,
    /// `log2` of the set count ([`CacheConfig::sets`] is a power of two).
    set_bits: u32,
    /// Bytes per packed field, 0 until the first access.
    width: usize,
    /// The bits of a field within its window.
    field_mask: u64,
    /// The smallest tag a field of `width` bytes cannot hold.
    tag_bound: u64,
    /// The fields of set `s` at `fields[s * ways * width..(s + 1) * ways * width]`, most
    /// recently used first, followed by [`WINDOW_PAD`] bytes.
    fields: Vec<u8>,
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
        LastLevelCache {
            config,
            set_bits: config.sets().trailing_zeros(),
            width: 0,
            field_mask: 0,
            tag_bound: 0,
            fields: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Re-packs every field at the width `tag` needs: its bits plus the two flag bits,
    /// rounded up to whole bytes and capped at 8. Each line keeps its slot, tag and flags;
    /// on an empty cache this only allocates.
    #[cold]
    #[inline(never)]
    fn widen(&mut self, tag: u64) {
        let bits = u64::BITS - tag.leading_zeros() + FIELD_TAG_SHIFT;
        let width = (bits.div_ceil(8) as usize).min(8);
        let lines = self.config.sets() * self.config.ways as usize;
        let mut fields = vec![0; lines * width + WINDOW_PAD];
        if self.width > 0 {
            for (line, to) in fields.chunks_exact_mut(width).take(lines).enumerate() {
                let field = read_window(&self.fields, line * self.width) & self.field_mask;
                to.copy_from_slice(&field.to_le_bytes()[..width]);
            }
        }
        self.width = width;
        self.field_mask = u64::MAX >> (64 - 8 * width);
        self.tag_bound = 1 << (8 * width as u32 - FIELD_TAG_SHIFT);
        self.fields = fields;
    }

    /// The configuration of this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
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
        let line = addr / CACHE_LINE_BYTES;
        let tag = line >> self.set_bits;
        if tag >= self.tag_bound {
            self.widen(tag);
        }
        let set = line & ((1 << self.set_bits) - 1);
        let ways = self.config.ways as usize;
        let width = self.width;
        let mask = self.field_mask;
        let start = set as usize * ways * width;
        let fields = &mut self.fields[start..start + ways * width + WINDOW_PAD];
        let wanted = tag << FIELD_TAG_SHIFT | FIELD_VALID;
        let dirty = if is_store { FIELD_DIRTY } else { 0 };

        // Hit path: one masked compare per slot over contiguous fields.
        let found = (0..ways).find_map(|slot| {
            let field = read_window(fields, slot * width) & mask;
            (field & !FIELD_DIRTY == wanted).then_some((slot, field))
        });
        let (slot, front, writeback) = match found {
            Some((slot, field)) => (slot, field | dirty, None),
            None => {
                // Miss: the last slot goes — empty while the set has room, else the LRU line.
                let slot = ways - 1;
                let victim = read_window(fields, slot * width) & mask;
                let writeback = (victim & FIELD_DIRTY != 0).then(|| {
                    let victim_line = (victim >> FIELD_TAG_SHIFT) << self.set_bits | set;
                    victim_line * CACHE_LINE_BYTES
                });
                (slot, wanted | dirty, writeback)
            }
        };
        // Keep recency order: the slots in front of `slot` move down one, the line goes first.
        fields.copy_within(..slot * width, width);
        fields[..width].copy_from_slice(&front.to_le_bytes()[..width]);

        let hit = found.is_some();
        match (hit, is_store) {
            (true, true) => self.stats.store_hits += 1,
            (true, false) => self.stats.load_hits += 1,
            (false, true) => self.stats.store_misses += 1,
            (false, false) => self.stats.load_misses += 1,
        }
        if writeback.is_some() {
            self.stats.writebacks += 1;
        }
        AccessResult { hit, writeback }
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

    /// Skylake's 33 MiB, 11-way LLC: 32,768 sets of 11 ways, 360,448 lines.
    fn skylake_llc() -> LastLevelCache {
        let c = LastLevelCache::new(CacheConfig::new(33 * 1024 * 1024, 11));
        assert_eq!(c.config().sets() * 11, 360_448);
        c
    }

    /// The bytes of line state `c` keeps, per line, with the window padding left out.
    fn bytes_per_line(c: &LastLevelCache) -> usize {
        let lines = c.config().sets() * c.config().ways as usize;
        let bytes = std::mem::size_of_val(c.fields.as_slice());
        assert_eq!(bytes, lines * c.width + WINDOW_PAD, "{lines} lines");
        c.width
    }

    #[test]
    fn skylake_llc_keeps_at_most_nine_bytes_of_state_per_line() {
        // The largest address has the largest tag, so it takes the widest field.
        let mut c = skylake_llc();
        c.access(u64::MAX, true);
        let lines = c.config().sets() * 11;
        let bytes = std::mem::size_of_val(c.fields.as_slice());
        assert!(
            bytes <= 9 * lines,
            "{bytes} bytes of tag and LRU state for {lines} lines"
        );
    }

    #[test]
    fn a_fresh_cache_holds_no_line_state() {
        let c = skylake_llc();
        assert_eq!(c.width, 0);
        assert_eq!(c.fields.capacity(), 0);
    }

    #[test]
    fn field_width_grows_with_the_largest_stored_tag() {
        // Skylake's 15 set bits leave a 13-bit tag for a STREAM array address, 19 bits for
        // the sweep's traffic region and 41 bits just below 2^62, plus the two flag bits.
        for (addr, width) in [
            (0x3_0000_0000, 2),
            (0x80_0000_0000, 3),
            ((1 << 62) - CACHE_LINE_BYTES, 6),
        ] {
            let mut c = skylake_llc();
            c.access(addr, false);
            assert_eq!(bytes_per_line(&c), width, "after {addr:#x}");
        }
        // The width never shrinks.
        let mut c = skylake_llc();
        for addr in [0x80_0000_0000, 0x3_0000_0000, 0x40] {
            c.access(addr, false);
            assert_eq!(bytes_per_line(&c), 3, "after {addr:#x}");
        }
    }

    /// Every packed field of `c`, set-major and most recently used first.
    fn field_values(c: &LastLevelCache) -> Vec<u64> {
        (0..c.fields.len() - WINDOW_PAD)
            .step_by(c.width)
            .map(|at| read_window(&c.fields, at) & c.field_mask)
            .collect()
    }

    #[test]
    fn widening_keeps_every_line_its_recency_and_its_dirty_bit() {
        // 256 sets of 4 ways: tags below 64 fit in one byte, 2^40 needs six.
        let config = CacheConfig::new(64 * 1024, 4);
        let (sets, ways) = (config.sets() as u64, config.ways as u64);
        let mut cache = LastLevelCache::new(config);
        let mut reference = TimestampLru::new(config);
        let mut access = |cache: &mut LastLevelCache, tag: u64, set: u64, is_store: bool| {
            let addr = (tag * sets + set) * CACHE_LINE_BYTES;
            let got = cache.access(addr, is_store);
            assert_eq!(got, reference.access(addr, is_store), "{addr:#x}");
        };
        // Fill every set, dirtying every other line, then touch one line per set again so
        // that recency differs from insertion order.
        for set in 0..sets {
            for tag in 0..ways {
                access(&mut cache, tag, set, (tag + set) % 2 == 0);
            }
            access(&mut cache, set % ways, set, false);
        }
        assert_eq!(cache.width, 1);
        let before = field_values(&cache);

        let (wide, widened_set) = (1 << 40, 7);
        access(&mut cache, wide, widened_set, false);
        assert_eq!(cache.width, 6);
        let after = field_values(&cache);
        for set in 0..sets as usize {
            let slots = set * ways as usize..(set + 1) * ways as usize;
            let want = if set == widened_set as usize {
                let mut want = vec![wide << FIELD_TAG_SHIFT | FIELD_VALID];
                want.extend_from_slice(&before[slots.start..slots.end - 1]);
                want
            } else {
                before[slots.clone()].to_vec()
            };
            assert_eq!(after[slots], want, "set {set}");
        }

        // Fresh wide tags evict the old lines least recently used first, writing back
        // exactly the dirty ones, as the reference does.
        for set in 0..sets {
            for tag in wide + 1..=wide + ways {
                access(&mut cache, tag, set, false);
            }
        }
        assert_eq!(*cache.stats(), reference.stats);
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

    /// Valid marker of the reference's tag word (bit 62). A tag value is `line / sets`, at
    /// most 58 bits, so the two top bits are free; invalid ways store `0`.
    const TAG_VALID: u64 = 1 << 62;
    /// Dirty marker of the reference's tag word (bit 63).
    const TAG_DIRTY: u64 = 1 << 63;
    /// Mask of the tag value itself.
    const TAG_VALUE: u64 = TAG_VALID - 1;

    /// A per-way timestamp LRU, kept as the reference the packed recency order must match:
    /// one `u64` tag word and one `u64` timestamp per way (0 for invalid ways, a global
    /// access clock from 1 for valid ones); the victim is the way with the smallest
    /// timestamp, first index on a tie.
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

    /// splitmix64's output function: spreads `x` over all 64 bits.
    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]
        #[test]
        fn rank_lru_matches_the_timestamp_reference(
            way_choice in 0usize..5,
            set_choice in 0usize..5,
            seed in 0u64..u64::MAX,
            words in proptest::collection::vec(0u64..u64::MAX, 2_000..4_000),
        ) {
            let ways = [1u32, 2, 11, 16, 256][way_choice];
            // The fields widen as larger tags arrive, up to 8 bytes at 1, 2 and 4 sets,
            // 7 bytes at 256 and 6 bytes at 32,768.
            let sets = [1u64, 2, 4, 256, 32_768][set_choice];
            let config = CacheConfig::new(sets * ways as u64 * CACHE_LINE_BYTES, ways);
            prop_assert_eq!(config.sets() as u64, sets);
            let mut cache = LastLevelCache::new(config);
            let mut reference = TimestampLru::new(config);
            // Twice as many tags as ways, drawn from the whole tag range with both ends
            // pinned, over up to four sets with the last one pinned: every set overflows,
            // so accesses mix hits with evictions, and tags use every bit of the field.
            let largest_tag = (u64::MAX / CACHE_LINE_BYTES) / sets;
            let tags: Vec<u64> = (0..2 * ways as u64)
                .map(|k| match k {
                    0 => largest_tag,
                    1 => 0,
                    _ => mix(seed ^ k) % (largest_tag + 1),
                })
                .collect();
            let set_pool = [sets - 1, mix(!seed) % sets, mix(seed + 1) % sets, 0];
            for (i, &word) in words.iter().enumerate() {
                let tag = tags[(word % tags.len() as u64) as usize];
                let set = set_pool[((word >> 32) % 4) as usize];
                let addr = (tag * sets + set) * CACHE_LINE_BYTES + (word >> 58);
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
