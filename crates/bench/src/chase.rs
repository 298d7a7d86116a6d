//! The Mess pointer-chase: the latency probe of the benchmark (paper Appendix A.1).
//!
//! A chain of dependent loads over a randomly permuted array that exceeds the last-level
//! cache. Because each load's address comes from the previous load's data, the loads execute
//! serially and the average load-to-use latency is simply `elapsed / loads` — which is exactly
//! how [`mess_cpu::RunReport::dependent_load_latency`] computes it for the probe core.
//!
//! The walk is the same single-cycle Sattolo chase as multichase's
//! ([`mess_workloads::latency::sattolo_chase`]), over its own array.

use mess_cpu::ProgramStream;
use mess_types::CACHE_LINE_BYTES;
use mess_workloads::latency::sattolo_chase;
use serde::{Deserialize, Serialize};

/// Base address of the pointer-chase array; kept away from the traffic generator's arrays.
const CHASE_BASE: u64 = 0x40_0000_0000;

/// Configuration of the pointer-chase probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PointerChaseConfig {
    /// Size of the chased array in bytes; must exceed the LLC so every hop misses.
    pub array_bytes: u64,
    /// Number of dependent loads the probe executes before finishing.
    pub loads: u64,
    /// Seed of the permutation.
    pub seed: u64,
}

impl PointerChaseConfig {
    /// The benchmark default: an array of four times the LLC, traversed with `loads` hops.
    pub fn sized_against_llc(llc_bytes: u64, loads: u64) -> Self {
        PointerChaseConfig {
            array_bytes: llc_bytes * 4,
            loads,
            seed: 0x6d65_7373,
        }
    }

    /// Builds the probe's op stream: a program over one (possibly partial) lap of the
    /// single-cycle permutation, repeated until `loads` hops.
    ///
    /// # Panics
    ///
    /// Panics if the array has more than `u32::MAX` cache lines.
    pub fn stream(&self) -> ProgramStream {
        let lines = (self.array_bytes / CACHE_LINE_BYTES).max(2);
        sattolo_chase(
            CHASE_BASE,
            lines,
            self.loads,
            self.seed,
            "mess:pointer-chase",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mess_cpu::{Op, OpStream, PackedOp};
    use std::collections::HashSet;

    #[test]
    fn chase_emits_only_dependent_loads_and_stops() {
        let mut s = PointerChaseConfig {
            array_bytes: 1 << 16,
            loads: 333,
            seed: 1,
        }
        .stream();
        let mut n = 0;
        while let Some(op) = s.next_op() {
            assert!(matches!(
                op,
                Op::Load {
                    dependent: true,
                    ..
                }
            ));
            n += 1;
        }
        assert_eq!(n, 333);
    }

    #[test]
    fn one_lap_visits_every_line_once() {
        let lines = 512u64;
        let config = PointerChaseConfig {
            array_bytes: lines * CACHE_LINE_BYTES,
            loads: lines,
            seed: 99,
        };
        let mut s = config.stream();
        let mut seen = HashSet::new();
        while let Some(Op::Load { addr, .. }) = s.next_op() {
            assert!(seen.insert(addr));
        }
        assert_eq!(seen.len(), lines as usize);
    }

    proptest::proptest! {
        #[test]
        fn block_refill_matches_next_op_for_any_seed_and_size(
            lines in 2u64..600,
            loads in 0u64..1500,
            seed in 0u64..1_000_000,
        ) {
            // The block refill must be op-for-op identical to the per-op walk, including
            // exhaustion at the load cap and block-boundary crossings.
            let config = PointerChaseConfig {
                array_bytes: lines * CACHE_LINE_BYTES,
                loads,
                seed,
            };
            let mut by_op = config.stream();
            let mut by_block = config.stream();
            let mut expected = Vec::new();
            while let Some(op) = by_op.next_op() {
                expected.push(op);
            }
            let mut got = Vec::new();
            let mut block = mess_cpu::OpBlock::new();
            while by_block.fill_block(&mut block) > 0 {
                got.extend(block.as_slice().iter().map(|p| p.unpack()));
            }
            proptest::prop_assert_eq!(got, expected);
            proptest::prop_assert_eq!(by_block.fill_block(&mut block), 0);
        }
    }

    #[test]
    fn same_seed_gives_the_same_walk() {
        let config = PointerChaseConfig {
            array_bytes: 1 << 15,
            loads: 64,
            seed: 5,
        };
        let walk = |mut s: ProgramStream| {
            let mut v = Vec::new();
            while let Some(Op::Load { addr, .. }) = s.next_op() {
                v.push(addr);
            }
            v
        };
        assert_eq!(walk(config.stream()), walk(config.stream()));
    }

    #[test]
    fn the_walk_is_pinned_by_its_digest() {
        // FNV-1a of the label and packed ops, recorded from the table-walk implementation
        // this program replaced: a 400-load probe over 4 × 256 KiB, and a run of 2.5 laps.
        let digest = |mut s: ProgramStream| {
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            let mut fold = |bytes: &[u8]| {
                for &b in bytes {
                    hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
                }
            };
            fold(s.label().as_bytes());
            while let Some(op) = s.next_op() {
                fold(&PackedOp::pack(op).raw().to_le_bytes());
            }
            hash
        };
        let quick = PointerChaseConfig::sized_against_llc(256 * 1024, 400);
        assert_eq!(digest(quick.stream()), 0xaba1_4ef2_c6ae_e941);
        let laps = PointerChaseConfig {
            array_bytes: 64 * 1000,
            loads: 2_500,
            seed: 3,
        };
        assert_eq!(digest(laps.stream()), 0xa2fe_b187_29ab_555f);
    }
}
