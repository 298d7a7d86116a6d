//! The Mess memory traffic generator (paper Appendix A.2).
//!
//! Every traffic lane (one per CPU core) traverses two private arrays, one with loads and one
//! with stores, interleaving them according to the requested instruction mix. The issue rate
//! — and therefore the generated bandwidth — is throttled by a configurable block of dummy
//! compute cycles between memory operations, the op-stream equivalent of the benchmark's
//! `nop` loop (`nopCount`).

use mess_cpu::{Op, OpBlock, OpStream, PackedOp};
use mess_types::CACHE_LINE_BYTES;
use serde::{Deserialize, Serialize};

/// Base address of the traffic generator's arrays; each lane owns a disjoint block above this,
/// with its load array in the lower half of the block and its store array in the upper half.
const TRAFFIC_BASE: u64 = 0x80_0000_0000;
/// Size of one lane's address block.
const LANE_BLOCK_BYTES: u64 = 1 << 33;

/// Configuration of one traffic-generator lane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Fraction of memory instructions that are stores, in `[0, 1]`.
    ///
    /// Note that this is the *instruction* mix; with a write-allocate cache a store mix of
    /// `s` produces a memory read/write ratio of `1 : s / (1 + s)` (paper §II-A).
    pub store_mix: f64,
    /// Dummy compute cycles inserted after every memory instruction (the `nopCount` knob).
    /// Zero generates the maximum pressure.
    pub pause_cycles: u32,
    /// Size of each lane's two arrays in bytes; large enough that the lane never hits in the
    /// LLC once warmed up.
    pub array_bytes: u64,
}

impl TrafficConfig {
    /// A lane configuration with per-lane arrays of four times the LLC.
    pub fn new(store_mix: f64, pause_cycles: u32, llc_bytes: u64) -> Self {
        TrafficConfig {
            store_mix: store_mix.clamp(0.0, 1.0),
            pause_cycles,
            array_bytes: llc_bytes * 4,
        }
    }

    /// The op streams of `lanes` traffic-generator lanes (one per background core).
    pub fn lanes(&self, lanes: u32) -> Vec<Box<dyn OpStream>> {
        (0..lanes)
            .map(|lane| Box::new(TrafficStream::new(*self, lane)) as Box<dyn OpStream>)
            .collect()
    }
}

/// An infinite op stream generating the configured load/store mix at the configured rate.
#[derive(Debug, Clone)]
pub struct TrafficStream {
    config: TrafficConfig,
    lane: u32,
    load_line: u64,
    store_line: u64,
    lines: u64,
    /// Fractional accumulator deciding when the next memory instruction is a store.
    store_accum: f64,
    /// `true` when the next op must be the pacing compute block.
    pause_pending: bool,
    label: String,
}

impl TrafficStream {
    /// Creates the stream for `lane`.
    pub fn new(config: TrafficConfig, lane: u32) -> Self {
        TrafficStream {
            lane,
            load_line: 0,
            store_line: 0,
            lines: (config.array_bytes / CACHE_LINE_BYTES).max(1),
            store_accum: 0.0,
            pause_pending: false,
            label: format!("mess:traffic[lane {lane}]"),
            config,
        }
    }

    fn load_base(&self) -> u64 {
        TRAFFIC_BASE + self.lane as u64 * LANE_BLOCK_BYTES
    }

    fn store_base(&self) -> u64 {
        self.load_base() + LANE_BLOCK_BYTES / 2
    }

    /// The lane's one step: the pacing compute block if one is due, else the next load or
    /// store. The lane is not a periodic program: `store_accum` is a float accumulator, and
    /// fractional store mixes (e.g. 0.3) drift in binary floating point rather than
    /// repeating exactly, so the generator runs per op instead of replaying a fixed body.
    #[inline]
    fn next_packed(&mut self) -> PackedOp {
        if self.pause_pending {
            self.pause_pending = false;
            return PackedOp::compute(self.config.pause_cycles);
        }
        if self.config.pause_cycles > 0 {
            self.pause_pending = true;
        }
        self.store_accum += self.config.store_mix;
        if self.store_accum >= 1.0 {
            self.store_accum -= 1.0;
            let addr = self.store_base() + self.store_line * CACHE_LINE_BYTES;
            self.store_line = (self.store_line + 1) % self.lines;
            PackedOp::store(addr)
        } else {
            let addr = self.load_base() + self.load_line * CACHE_LINE_BYTES;
            self.load_line = (self.load_line + 1) % self.lines;
            PackedOp::load(addr)
        }
    }
}

impl OpStream for TrafficStream {
    fn next_op(&mut self) -> Option<Op> {
        Some(self.next_packed().unpack())
    }

    fn fill_block(&mut self, out: &mut OpBlock) -> usize {
        out.fill_with(|| Some(self.next_packed()))
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mix_of(config: TrafficConfig, ops: usize) -> (u64, u64, u64) {
        let mut s = TrafficStream::new(config, 0);
        let (mut loads, mut stores, mut computes) = (0, 0, 0);
        for _ in 0..ops {
            match s.next_op().expect("traffic streams are infinite") {
                Op::Load { .. } => loads += 1,
                Op::Store { .. } => stores += 1,
                Op::Compute { .. } => computes += 1,
            }
        }
        (loads, stores, computes)
    }

    #[test]
    fn pure_load_lane_never_stores() {
        let (loads, stores, _) = mix_of(TrafficConfig::new(0.0, 0, 1 << 20), 10_000);
        assert_eq!(stores, 0);
        assert_eq!(loads, 10_000);
    }

    #[test]
    fn pure_store_lane_never_loads() {
        let (loads, stores, _) = mix_of(TrafficConfig::new(1.0, 0, 1 << 20), 10_000);
        assert_eq!(loads, 0);
        assert_eq!(stores, 10_000);
    }

    #[test]
    fn pause_cycles_interleave_compute_blocks() {
        let (loads, stores, computes) = mix_of(TrafficConfig::new(0.5, 80, 1 << 20), 10_000);
        assert_eq!(computes, 5_000, "one pause after every memory instruction");
        assert_eq!(loads + stores, 5_000);
    }

    #[test]
    fn lanes_use_disjoint_address_ranges() {
        let config = TrafficConfig::new(0.5, 0, 1 << 20);
        let addr_range = |lane: u32| {
            let mut s = TrafficStream::new(config, lane);
            let mut min = u64::MAX;
            let mut max = 0;
            for _ in 0..1_000 {
                if let Some(Op::Load { addr, .. } | Op::Store { addr }) = s.next_op() {
                    min = min.min(addr);
                    max = max.max(addr);
                }
            }
            (min, max)
        };
        let (_, max0) = addr_range(0);
        let (min1, _) = addr_range(1);
        assert!(max0 < min1, "lane 0 and lane 1 arrays must not overlap");
    }

    proptest! {
        #[test]
        fn block_refill_matches_next_op_for_any_mix_and_pause(
            mix in 0.0f64..=1.0,
            pause in 0u32..100,
            lane in 0u32..4,
        ) {
            // The block refill and the per-op path share one step function and must track
            // each other exactly, including across block boundaries.
            let config = TrafficConfig { store_mix: mix, pause_cycles: pause, array_bytes: 1 << 16 };
            let mut by_op = TrafficStream::new(config, lane);
            let mut by_block = TrafficStream::new(config, lane);
            let mut block = mess_cpu::OpBlock::new();
            let mut drained = Vec::new();
            for _ in 0..5 {
                prop_assert!(by_block.fill_block(&mut block) > 0, "traffic lanes are infinite");
                drained.extend(block.as_slice().iter().map(|p| p.unpack()));
            }
            for got in drained {
                prop_assert_eq!(Some(got), by_op.next_op());
            }
        }

        #[test]
        fn store_mix_is_respected_within_one_percent(mix in 0.0f64..=1.0) {
            let (loads, stores, _) = mix_of(TrafficConfig::new(mix, 0, 1 << 20), 20_000);
            let measured = stores as f64 / (loads + stores) as f64;
            prop_assert!((measured - mix).abs() < 0.01, "mix {mix} measured {measured}");
        }

        #[test]
        fn streams_are_infinite_and_memory_ops_wrap_in_bounds(
            mix in 0.0f64..=1.0,
            pause in 0u32..200,
        ) {
            let config = TrafficConfig { store_mix: mix, pause_cycles: pause, array_bytes: 1 << 16 };
            let mut s = TrafficStream::new(config, 3);
            let lane_base = TRAFFIC_BASE + 3 * LANE_BLOCK_BYTES;
            for _ in 0..5_000 {
                let op = s.next_op();
                prop_assert!(op.is_some());
                if let Some(Op::Load { addr, .. } | Op::Store { addr }) = op {
                    prop_assert!(addr >= lane_base);
                    prop_assert!(addr < lane_base + LANE_BLOCK_BYTES);
                    let offset = addr % (LANE_BLOCK_BYTES / 2);
                    prop_assert!(offset < (1 << 16));
                }
            }
        }
    }
}
