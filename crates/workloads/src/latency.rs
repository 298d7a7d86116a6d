//! Latency-bound benchmarks: LMbench `lat_mem_rd` and Google multichase.
//!
//! Both benchmarks measure the unloaded load-to-use latency with a chain of dependent loads;
//! they differ in how they defeat the prefetcher. LMbench strides through memory with a fixed
//! stride, multichase follows a randomly permuted pointer chain. The paper uses them to
//! validate the Mess unloaded-latency measurements (§II-B) and as low-bandwidth workloads in
//! the IPC-error comparison (Figs. 11 and 13).

use mess_cpu::{Op, OpProgram, OpStream, PackedOp, ProgramStream};
use mess_types::CACHE_LINE_BYTES;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Base address of the latency benchmarks' working set.
pub(crate) const CHASE_BASE: u64 = 0x7_0000_0000;

/// Configuration of an LMbench-style strided dependent-load chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatMemRdConfig {
    /// Working-set size in bytes; must exceed the LLC for a main-memory measurement.
    pub array_bytes: u64,
    /// Stride between consecutive accesses in bytes (LMbench's default main-memory stride).
    pub stride_bytes: u64,
    /// Number of dependent loads to execute.
    pub loads: u64,
}

impl LatMemRdConfig {
    /// The op stream of the benchmark (a single-core workload): a one-op program body (a
    /// dependent load at the working set's base) whose per-trip stride wraps modulo the
    /// working-set size.
    pub fn stream(&self) -> Box<dyn OpStream> {
        let body = vec![PackedOp::pack(Op::dependent_load(CHASE_BASE))];
        Box::new(
            OpProgram::new(body, 1)
                .with_stride(self.stride_bytes)
                .with_wrap(self.array_bytes)
                .with_total_ops(self.loads)
                .stream("lmbench:lat_mem_rd"),
        )
    }
}

/// Configuration of a Google-multichase-style random pointer chase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultichaseConfig {
    /// Working-set size in bytes.
    pub array_bytes: u64,
    /// Number of dependent loads to execute.
    pub loads: u64,
    /// Seed of the permutation.
    pub seed: u64,
}

impl MultichaseConfig {
    /// Cache lines in the working set (at least two, so the chase has somewhere to go).
    pub fn lines(&self) -> u64 {
        (self.array_bytes / CACHE_LINE_BYTES).max(2)
    }

    /// The op stream of the benchmark (a single-core workload); see [`sattolo_chase`].
    ///
    /// # Panics
    ///
    /// Panics if the working set has more than `u32::MAX` lines.
    pub fn stream(&self) -> Box<dyn OpStream> {
        Box::new(sattolo_chase(
            CHASE_BASE,
            self.lines(),
            self.loads,
            self.seed,
            "multichase:pointer-chase",
        ))
    }
}

/// A chase of `loads` dependent loads over the `lines` cache lines from `base`, following a
/// single random cycle through every line — the shape of the real multichase's and the Mess
/// pointer-chase's array. Every line is visited once per lap, and the next address is only
/// known once the current load returns.
///
/// The cycle is a Fisher–Yates order (`SliceRandom::shuffle` of `0..lines` on a `StdRng`
/// seeded with `seed`) read as a ring, and the walk starts where line 0 landed; the name is
/// historical, as Sattolo's algorithm is never run. The program body is that walk cut at
/// `min(lines, loads)`: a partial lap for a short run, or one full lap repeated until the
/// load count is reached.
///
/// The order is never materialized when `lines` is large against `loads`: the walk is
/// resolved from the shuffle's swap draws instead, at O(lines) arithmetic draws and
/// O(min(lines, loads)) memory. Only a dense walk, at most 64 lines per load, runs the
/// shuffle itself, so its `lines`-long order is at most 64 times the body's length.
///
/// # Panics
///
/// Panics if `lines` is zero or above `u32::MAX` (line indices are `u32`).
/// [`crate::WorkloadSpec::compile`] rejects such specs with an error instead.
pub fn sattolo_chase(base: u64, lines: u64, loads: u64, seed: u64, label: &str) -> ProgramStream {
    let n = u32::try_from(lines)
        .ok()
        .filter(|&n| n > 0)
        .expect("a pointer chase needs between 1 and u32::MAX lines");
    let len = lines.min(loads) as usize;
    let load = |line: u32| PackedOp::dependent_load(base + line as u64 * CACHE_LINE_BYTES);
    let body = if resolves_from_draws(lines, loads) {
        walk_from_draws(n, len, seed)
            .into_iter()
            .map(load)
            .collect()
    } else {
        walk_from_shuffle(n, len, seed).map(load).collect()
    };
    OpProgram::new(body, 1).with_total_ops(loads).stream(label)
}

/// Above this many lines per load, [`sattolo_chase`] resolves the walk from the swap draws
/// instead of shuffling the whole order.
///
/// Both builders pay about one draw per line, so the resolution wins only where the
/// shuffle's random swaps miss the caches, and only while few queries need re-targeting.
/// Measured on a Sapphire Rapids host (2 MiB L2 per core), the resolution took 0.34–0.72×
/// the shuffle's time from 1 M to 4 M lines at 64 or more lines per load, and up to 1.7×
/// it at 16. Below about a million lines the order array is cache-resident and the shuffle
/// stays up to 1.4× ahead even for sparse walks, but those builds take under 2 ms, and every
/// platform's chase array is larger (4 × a 22 MiB LLC is 1.4 M lines).
const SPARSE_LINES_PER_LOAD: u64 = 64;

/// `true` if [`sattolo_chase`] resolves a walk of `loads` over `lines` from the swap draws.
fn resolves_from_draws(lines: u64, loads: u64) -> bool {
    loads.saturating_mul(SPARSE_LINES_PER_LOAD) < lines
}

/// The most bytes [`sattolo_chase`] holds at once for a walk of `loads` over `lines` (at
/// most `u32::MAX`). The shuffle's `lines`-long `u32` order lives on while the body's
/// `min(lines, loads)` packed ops are collected. The draw resolution's `u32` walk lives
/// first beside its watch list, then, once the list is dropped, beside the packed ops.
pub(crate) fn chase_build_bytes(lines: u64, loads: u64) -> u64 {
    let len = lines.min(loads);
    if resolves_from_draws(lines, loads) {
        4 * len + Watchers::bytes(len).max(8 * len)
    } else {
        4 * lines + 8 * len
    }
}

/// The first `len` lines of the walk from line 0, by shuffling the whole order.
fn walk_from_shuffle(lines: u32, len: usize, seed: u64) -> impl Iterator<Item = u32> {
    let mut order: Vec<u32> = (0..lines).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let start = order
        .iter()
        .position(|&line| line == 0)
        .expect("line 0 is on the cycle");
    let tail = order.len() - start;
    (0..len).map(move |k| order[if k < tail { start + k } else { k - tail }])
}

/// Per-draw increment of the `StdRng` state (splitmix64's golden-ratio gamma).
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The swap partner `j` of step `i` of a shuffle of `lines` elements on
/// `StdRng::seed_from_u64(seed)`.
///
/// `SliceRandom::shuffle` runs its steps from `i = lines − 1` down to 1, and step `i` swaps
/// position `i` with `gen_range(0..i + 1)`, one draw each, so step `i` uses draw number
/// `lines − 1 − i`. `StdRng` is counter-based (splitmix64), so that draw is the first draw of
/// a generator seeded `lines − 1 − i` gammas further on.
fn swap_partner(lines: u64, seed: u64, i: u64) -> u64 {
    let draw = lines - 1 - i;
    StdRng::seed_from_u64(seed.wrapping_add(draw.wrapping_mul(SPLITMIX_GAMMA))).gen_range(0..i + 1)
}

/// The first `len` lines of the walk from line 0, resolved from the shuffle's swap draws
/// without the `lines`-long order.
///
/// After step `i` of the shuffle, position `i` is final, and it holds what position `j_i`
/// held just before step `i`. So:
///
/// - line 0 ends at `start`, the largest `i` with `j_i == 0` (0 if there is none), which
///   one descending scan finds;
/// - each walk position `p` (`start`, `start + 1`, … wrapping) is a query for "the value at
///   `j_p` before step `p`" (position 0's query, if the walk wraps onto it, asks for the
///   value at 0 after every step). That value is the position's own index, unless a step
///   `i > p`, which ran before step `p`, drew `j_i` equal to it. The smallest such `i`
///   swapped last, moving position `i`'s value there, so the query re-targets to "the value
///   at `i` before step `i`".
///
/// One ascending pass over the steps, from the first query on, resolves every query. A
/// position is watched by at most one query at a time (two would name one value twice), so
/// the watch list is a map from position to walk index, and what a query watches when the
/// pass ends is its line.
///
/// The cost depends on where line 0 lands: both passes cover the steps from `start` up
/// (the ascending one from 1 when the walk wraps), about `2 × (lines − start)` draws. That
/// is `lines` on average over seeds, and up to twice that when line 0 lands near the front.
fn walk_from_draws(lines: u32, len: usize, seed: u64) -> Vec<u32> {
    let n = u64::from(lines);
    if len == 0 {
        return Vec::new();
    }
    let start = (1..n)
        .rev()
        .find(|&i| swap_partner(n, seed, i) == 0)
        .unwrap_or(0);
    let walk_index = |p: u64| if p >= start { p - start } else { p + n - start };
    let mut watch = Watchers::with_capacity(len);
    let wraps_onto_zero = walk_index(0) < len as u64;
    if wraps_onto_zero {
        watch.insert(0, walk_index(0) as u32);
    }
    for i in if wraps_onto_zero { 1 } else { start }..n {
        let j = swap_partner(n, seed, i) as u32;
        if watch.may_watch(j) {
            watch.retarget(j, i as u32);
        }
        let k = walk_index(i);
        if k < len as u64 {
            watch.insert(j, k as u32);
        }
    }
    watch.into_walk(len)
}

/// The watch list of [`walk_from_draws`]: an exact map from a watched position to the walk
/// index watching it, behind a one-hash bit filter.
///
/// Nearly every draw misses the list, so the filter answers most probes: at about 64 bits
/// per watched position it stays cache-resident and sends only a few percent of misses on
/// to the map. Checking the map's home slot instead sends up to half of them, and made the
/// walks over 2,162,688 lines 2.5× slower. A removed position's bit is left set (another
/// position may share it); once stale bits outnumber the map's slots, the filter is
/// rebuilt from the map.
struct Watchers {
    /// Open-addressed (linear probing, load at most 1/2) `(position, walk index)` slots; a
    /// vacant slot holds [`Watchers::VACANT`].
    slots: Vec<(u32, u32)>,
    /// A set bit may be watched; a clear bit is not.
    filter: Vec<u64>,
    /// `64 − log2(slots.len())`: the shift of a position's home slot.
    slot_shift: u32,
    /// `64 − log2(filter bits)`: the shift of a position's filter bit.
    filter_shift: u32,
    /// Filter bits left set by removed positions since the last rebuild.
    stale: usize,
}

impl Watchers {
    /// Marks a vacant slot; no position equals it, since positions are below `u32::MAX`.
    const VACANT: u32 = u32::MAX;

    /// Map slots and filter bits for `entries` watched positions.
    fn sizes(entries: u64) -> (u64, u64) {
        let slots = (entries * 2).next_power_of_two().max(2);
        let filter_bits = (entries * 64).next_power_of_two().max(64);
        (slots, filter_bits)
    }

    /// Bytes of a watch list for `entries` positions.
    fn bytes(entries: u64) -> u64 {
        let (slots, filter_bits) = Self::sizes(entries);
        slots * std::mem::size_of::<(u32, u32)>() as u64 + filter_bits / 8
    }

    fn with_capacity(entries: usize) -> Self {
        let (slots, filter_bits) = Self::sizes(entries as u64);
        let (slots, filter_bits) = (slots as usize, filter_bits as usize);
        Watchers {
            slots: vec![(Self::VACANT, 0); slots],
            filter: vec![0; filter_bits / 64],
            slot_shift: 64 - slots.trailing_zeros(),
            filter_shift: 64 - filter_bits.trailing_zeros(),
            stale: 0,
        }
    }

    fn hash(position: u32) -> u64 {
        u64::from(position).wrapping_mul(SPLITMIX_GAMMA)
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn home(&self, position: u32) -> usize {
        (Self::hash(position) >> self.slot_shift) as usize
    }

    /// The filter word and bit of `position`.
    fn filter_bit(&self, position: u32) -> (usize, u64) {
        let bit = Self::hash(position) >> self.filter_shift;
        ((bit / 64) as usize, 1 << (bit % 64))
    }

    fn insert(&mut self, position: u32, index: u32) {
        let (word, bit) = self.filter_bit(position);
        self.filter[word] |= bit;
        let mut slot = self.home(position);
        while self.slots[slot].0 != Self::VACANT {
            slot = (slot + 1) & self.mask();
        }
        self.slots[slot] = (position, index);
    }

    /// `false` if `position` is certainly not watched; the one check most draws pay.
    #[inline]
    fn may_watch(&self, position: u32) -> bool {
        let (word, bit) = self.filter_bit(position);
        self.filter[word] & bit != 0
    }

    /// Moves the query watching `from`, if any, to watch `to`. Out of line and cold: it runs
    /// only for the few draws that pass the filter, and inlined it slows every draw.
    #[cold]
    #[inline(never)]
    fn retarget(&mut self, from: u32, to: u32) {
        let mask = self.mask();
        let mut hole = self.home(from);
        loop {
            match self.slots[hole].0 {
                Self::VACANT => return,
                p if p == from => break,
                _ => hole = (hole + 1) & mask,
            }
        }
        let index = self.slots[hole].1;
        // Close the gap by shifting later entries of the probe run back (no tombstones, so
        // probe runs stay short): the entry at `next` may fill the hole if its home is not
        // after the hole.
        let mut next = (hole + 1) & mask;
        while self.slots[next].0 != Self::VACANT {
            let home = self.home(self.slots[next].0);
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.slots[hole] = (Self::VACANT, 0);
        self.stale += 1;
        if self.stale > self.slots.len() {
            self.rebuild_filter();
        }
        self.insert(to, index);
    }

    fn rebuild_filter(&mut self) {
        self.filter.fill(0);
        for slot in 0..self.slots.len() {
            let position = self.slots[slot].0;
            if position != Self::VACANT {
                let (word, bit) = self.filter_bit(position);
                self.filter[word] |= bit;
            }
        }
        self.stale = 0;
    }

    /// The walk: entry `(position, k)` puts line `position` at walk index `k`.
    fn into_walk(self, len: usize) -> Vec<u32> {
        let mut walk = vec![0; len];
        for (position, index) in self.slots {
            if position != Self::VACANT {
                walk[index as usize] = position;
            }
        }
        walk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn lat_mem_rd_issues_only_dependent_loads() {
        let config = LatMemRdConfig {
            array_bytes: 1 << 20,
            stride_bytes: 128,
            loads: 1_000,
        };
        let mut stream = config.stream();
        let mut count = 0;
        while let Some(op) = stream.next_op() {
            assert!(matches!(
                op,
                Op::Load {
                    dependent: true,
                    ..
                }
            ));
            count += 1;
        }
        assert_eq!(count, 1_000);
    }

    #[test]
    fn lat_mem_rd_wraps_around_its_working_set() {
        let config = LatMemRdConfig {
            array_bytes: 1024,
            stride_bytes: 256,
            loads: 8,
        };
        let mut stream = config.stream();
        let mut addrs = Vec::new();
        while let Some(Op::Load { addr, .. }) = stream.next_op() {
            addrs.push(addr - CHASE_BASE);
        }
        assert_eq!(addrs, vec![0, 256, 512, 768, 0, 256, 512, 768]);
    }

    #[test]
    #[should_panic(expected = "62-bit packed-op range")]
    fn lat_mem_rd_past_the_packed_range_panics_when_the_stream_is_built() {
        // Without the check at build time this stream emitted stores in place of its
        // dependent loads in release builds, once the stride pushed an address into the tag.
        let _ = LatMemRdConfig {
            array_bytes: 1 << 63,
            stride_bytes: 1 << 61,
            loads: 8,
        }
        .stream();
    }

    /// The line indices of the first `loads` hops of a chase over `n` lines.
    fn chase_lines(n: u32, loads: u64, seed: u64) -> Vec<u64> {
        let mut stream = sattolo_chase(0, n as u64, loads, seed, "t");
        std::iter::from_fn(|| stream.next_op())
            .map(|op| match op {
                Op::Load {
                    addr,
                    dependent: true,
                } => addr / CACHE_LINE_BYTES,
                other => panic!("a chase emits only dependent loads, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn sattolo_permutation_is_a_single_cycle() {
        let n = 257;
        let walk = chase_lines(n, 2 * n as u64, 42);
        let lap: HashSet<u64> = walk[..n as usize].iter().copied().collect();
        assert_eq!(lap.len(), n as usize, "one lap visits every line once");
        assert_eq!(walk[0], 0, "the chase starts at line 0");
        assert_eq!(
            walk[..n as usize],
            walk[n as usize..],
            "every lap repeats the cycle"
        );
    }

    #[test]
    fn multichase_visits_distinct_lines_within_one_lap() {
        let config = MultichaseConfig {
            array_bytes: 64 * 256,
            loads: 256,
            seed: 7,
        };
        let mut stream = config.stream();
        let mut seen = HashSet::new();
        while let Some(Op::Load { addr, .. }) = stream.next_op() {
            assert!(
                seen.insert(addr),
                "address repeated within one lap: {addr:#x}"
            );
        }
        assert_eq!(seen.len(), 256);
    }

    proptest::proptest! {
        #[test]
        fn sattolo_cycle_is_a_single_full_cycle_for_any_size_and_seed(
            n in 1u32..700,
            seed in 0u64..1_000_000_000,
        ) {
            // From line 0 the chase must visit every line exactly once and land back on 0
            // after exactly `n` hops — the property the multichase stream (and the real
            // multichase's initialization) relies on.
            let walk = chase_lines(n, n as u64 + 1, seed);
            let mut seen = vec![false; n as usize];
            for &line in &walk[..n as usize] {
                proptest::prop_assert!(
                    !seen[line as usize],
                    "revisited line {} before the cycle closed (n={}, seed={})",
                    line,
                    n,
                    seed
                );
                seen[line as usize] = true;
            }
            proptest::prop_assert_eq!(walk[0], 0);
            proptest::prop_assert_eq!(walk[n as usize], 0);
        }

    }

    #[test]
    fn swap_partner_replays_the_shuffle_draws() {
        // The draw resolution assumes `shuffle`'s step order and `StdRng`'s counter-based
        // stream; a change to either in the vendored `rand` must fail here, by name, rather
        // than silently make the two walk builders disagree.
        for (lines, seed) in [
            (2u32, 0u64),
            (3, 1),
            (17, 42),
            (1_000, 0x6d65_7373),
            (4_097, 9),
        ] {
            let mut shuffled: Vec<u32> = (0..lines).collect();
            shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
            let mut replayed: Vec<u32> = (0..lines).collect();
            for i in (1..lines as u64).rev() {
                replayed.swap(i as usize, swap_partner(lines as u64, seed, i) as usize);
            }
            assert_eq!(replayed, shuffled, "lines={lines} seed={seed}");
        }
    }

    /// A seed whose line 0 lands within `len` of the order's end, so the walk wraps.
    fn wrapping_seed(lines: u32, len: usize) -> u64 {
        (0..)
            .find(|&seed| {
                let mut order: Vec<u32> = (0..lines).collect();
                order.shuffle(&mut StdRng::seed_from_u64(seed));
                let start = order.iter().position(|&line| line == 0).unwrap();
                start + len > lines as usize && start > 0
            })
            .unwrap()
    }

    #[test]
    fn both_walk_builders_agree_at_the_edges() {
        for lines in [1u32, 2, 3] {
            for len in 0..=lines as usize {
                for seed in 0..20 {
                    assert_eq!(
                        walk_from_draws(lines, len, seed),
                        walk_from_shuffle(lines, len, seed).collect::<Vec<_>>(),
                        "lines={lines} len={len} seed={seed}"
                    );
                }
            }
        }
        for (lines, len) in [(1_000u32, 40usize), (5_000, 300), (16_384, 1_024)] {
            let seed = wrapping_seed(lines, len);
            assert_eq!(
                walk_from_draws(lines, len, seed),
                walk_from_shuffle(lines, len, seed).collect::<Vec<_>>(),
                "wrapping walk: lines={lines} len={len} seed={seed}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn both_walk_builders_agree_for_any_size_and_seed(
            lines in 1u32..5_000,
            len_per_mille in 0u64..=1_000,
            seed in 0u64..u64::MAX,
        ) {
            // Every density, from an empty walk to a full lap: the resolution from draws
            // must equal the shuffled order rotated to line 0, whichever one
            // `sattolo_chase` picks for the size.
            let len = (lines as u64 * len_per_mille / 1_000) as usize;
            proptest::prop_assert_eq!(
                walk_from_draws(lines, len, seed),
                walk_from_shuffle(lines, len, seed).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn multichase_is_deterministic_for_a_seed() {
        let config = MultichaseConfig {
            array_bytes: 1 << 16,
            loads: 100,
            seed: 3,
        };
        let collect = |mut s: Box<dyn OpStream>| {
            let mut v = Vec::new();
            while let Some(Op::Load { addr, .. }) = s.next_op() {
                v.push(addr);
            }
            v
        };
        assert_eq!(collect(config.stream()), collect(config.stream()));
    }

    #[test]
    fn a_sparse_chase_build_counts_its_peak_not_every_allocation() {
        // 2^25 loads over u32::MAX lines: the 128 MiB walk lives beside the 768 MiB watch
        // list, then beside 256 MiB of packed ops once the list is dropped.
        assert_eq!(Watchers::bytes(1 << 25), 768 << 20);
        assert_eq!(chase_build_bytes(u64::from(u32::MAX), 1 << 25), 896 << 20);
        // A dense walk holds the whole shuffled order while its ops are collected.
        assert_eq!(chase_build_bytes(1_000, 100), 4 * 1_000 + 8 * 100);
    }
}
