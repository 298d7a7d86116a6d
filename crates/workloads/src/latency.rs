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
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Base address of the latency benchmarks' working set.
const CHASE_BASE: u64 = 0x7_0000_0000;

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
    /// LMbench's main-memory configuration: a working set of `4 × llc_bytes` with a 128-byte
    /// stride.
    pub fn main_memory(llc_bytes: u64) -> Self {
        LatMemRdConfig {
            array_bytes: llc_bytes * 4,
            stride_bytes: 128,
            loads: 200_000,
        }
    }

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
    /// Multichase's pointer-chase configuration over a working set of `4 × llc_bytes`.
    pub fn main_memory(llc_bytes: u64) -> Self {
        MultichaseConfig {
            array_bytes: llc_bytes * 4,
            loads: 200_000,
            seed: 0x6d75_6c74,
        }
    }

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
/// single random cycle built with Sattolo's algorithm — the initialization of the real
/// multichase and of the Mess pointer-chase. Every line is visited once per lap, and the
/// next address is only known once the current load returns.
///
/// The walk from line 0 along the cycle is the shuffled order rotated to start at line 0,
/// so the program body is that rotation cut at `min(lines, loads)`: a partial lap for a
/// short run, or one full lap repeated until the load count is reached.
///
/// # Panics
///
/// Panics if `lines` is zero or above `u32::MAX` (the shuffle works on `u32` line
/// indices). [`crate::WorkloadSpec::compile`] rejects such specs with an error instead.
pub fn sattolo_chase(base: u64, lines: u64, loads: u64, seed: u64, label: &str) -> ProgramStream {
    let n = u32::try_from(lines)
        .ok()
        .filter(|&n| n > 0)
        .expect("a pointer chase needs between 1 and u32::MAX lines");
    let mut order: Vec<u32> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let start = order
        .iter()
        .position(|&line| line == 0)
        .expect("line 0 is on the cycle");
    let body = order[start..]
        .iter()
        .chain(&order[..start])
        .take(lines.min(loads) as usize)
        .map(|&line| PackedOp::dependent_load(base + line as u64 * CACHE_LINE_BYTES))
        .collect();
    OpProgram::new(body, 1).with_total_ops(loads).stream(label)
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
}
