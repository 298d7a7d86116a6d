//! The STREAM kernels (McCalpin) expressed as op streams.
//!
//! STREAM is the de-facto standard for application-level sustained memory bandwidth. The
//! paper uses its four kernels both as a reference line on the bandwidth–latency curves
//! (Fig. 2/3) and as validation workloads for the simulator comparison (Figs. 11 and 13).
//! Each kernel is a streaming pass over large arrays; per 64-byte cache line the op stream
//! issues one load per source array, one store to the destination array and a small compute
//! block, which is the memory behaviour the paper's analysis relies on (with write-allocate,
//! every store line also produces a fill read).

use crate::partition_lines;
use mess_cpu::{Op, OpProgram, OpStream, PackedOp};
use mess_types::CACHE_LINE_BYTES;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The four STREAM kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StreamKernel {
    /// `c[i] = a[i]` — one load, one store per element.
    Copy,
    /// `b[i] = s * c[i]` — one load, one store, one multiply.
    Scale,
    /// `c[i] = a[i] + b[i]` — two loads, one store, one add.
    Add,
    /// `a[i] = b[i] + s * c[i]` — two loads, one store, two FLOPs.
    Triad,
}

impl StreamKernel {
    /// The four kernels in the order STREAM reports them.
    pub const ALL: [StreamKernel; 4] = [
        StreamKernel::Copy,
        StreamKernel::Scale,
        StreamKernel::Add,
        StreamKernel::Triad,
    ];

    /// Number of source arrays the kernel reads per iteration.
    pub fn source_arrays(self) -> u64 {
        match self {
            StreamKernel::Copy | StreamKernel::Scale => 1,
            StreamKernel::Add | StreamKernel::Triad => 2,
        }
    }

    /// Bytes of application-level traffic per element that STREAM's own bandwidth formula
    /// assumes (loads + stores of 8-byte doubles, no write-allocate fill).
    pub fn stream_bytes_per_element(self) -> u64 {
        match self {
            StreamKernel::Copy | StreamKernel::Scale => 16,
            StreamKernel::Add | StreamKernel::Triad => 24,
        }
    }

    /// Compute cycles charged per cache line processed (cheap arithmetic on 8 doubles).
    fn compute_cycles(self) -> u32 {
        match self {
            StreamKernel::Copy => 2,
            StreamKernel::Scale => 4,
            StreamKernel::Add => 6,
            StreamKernel::Triad => 8,
        }
    }

    /// Kernel name as STREAM prints it.
    pub fn label(self) -> &'static str {
        match self {
            StreamKernel::Copy => "copy",
            StreamKernel::Scale => "scale",
            StreamKernel::Add => "add",
            StreamKernel::Triad => "triad",
        }
    }
}

impl fmt::Display for StreamKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration of a STREAM run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Which kernel to run.
    pub kernel: StreamKernel,
    /// Total size of **one** array in bytes (STREAM uses three arrays of this size). Must be
    /// large enough to defeat the LLC — STREAM's rule is four times the aggregate cache.
    pub array_bytes: u64,
    /// Number of passes over the arrays.
    pub iterations: u32,
    /// Number of cores the arrays are partitioned across.
    pub cores: u32,
}

impl StreamConfig {
    /// A STREAM configuration sized relative to an LLC: arrays of `4 × llc_bytes`, one pass.
    pub fn sized_against_llc(kernel: StreamKernel, llc_bytes: u64, cores: u32) -> Self {
        StreamConfig {
            kernel,
            array_bytes: llc_bytes * 4,
            iterations: 1,
            cores: cores.max(1),
        }
    }

    /// Per-core op streams for this configuration (one stream per core, static partitioning
    /// like OpenMP's `schedule(static)`). Each core gets a flat [`OpProgram`]: the kernel's
    /// per-line micro-sequence as a literal packed body, a 64-byte per-trip stride, one trip
    /// per array line and one pass per iteration.
    pub fn streams(&self) -> Vec<Box<dyn OpStream>> {
        let lines = self.array_bytes / CACHE_LINE_BYTES;
        (0..self.cores)
            .map(|core| {
                let (start, end) = partition_lines(lines, self.cores, core);
                let body = line_ops(self.kernel, start).map(PackedOp::pack).collect();
                let program = OpProgram::new(body, end.saturating_sub(start))
                    .with_stride(CACHE_LINE_BYTES)
                    .with_passes(self.iterations as u64)
                    .stream(format!("stream-{}[core {}]", self.kernel, core));
                Box::new(program) as Box<dyn OpStream>
            })
            .collect()
    }

    /// Application-level bytes moved by the whole run, using STREAM's own accounting
    /// (no write-allocate fills).
    pub fn stream_bytes(&self) -> u64 {
        let elements = self.array_bytes / 8;
        elements * self.kernel.stream_bytes_per_element() * self.iterations as u64
    }
}

/// Base addresses of the three STREAM arrays, spaced far apart so they never alias in the LLC
/// index bits and map across all DRAM channels.
const ARRAY_A_BASE: u64 = 0x1_0000_0000;
const ARRAY_B_BASE: u64 = 0x2_0000_0000;
/// Array C has the highest base, and every kernel touches it.
pub(crate) const ARRAY_C_BASE: u64 = 0x3_0000_0000;

/// The operations of `kernel`'s micro-sequence for cache line `line`: one load per source
/// array, one store to the destination array, then the kernel's compute block.
fn line_ops(kernel: StreamKernel, line: u64) -> impl Iterator<Item = Op> {
    let at = move |base: u64| base + line * CACHE_LINE_BYTES;
    let (sources, destination): (&[u64], u64) = match kernel {
        StreamKernel::Copy => (&[ARRAY_A_BASE], ARRAY_C_BASE),
        StreamKernel::Scale => (&[ARRAY_C_BASE], ARRAY_B_BASE),
        StreamKernel::Add => (&[ARRAY_A_BASE, ARRAY_B_BASE], ARRAY_C_BASE),
        StreamKernel::Triad => (&[ARRAY_B_BASE, ARRAY_C_BASE], ARRAY_A_BASE),
    };
    sources.iter().map(move |&base| Op::load(at(base))).chain([
        Op::store(at(destination)),
        Op::compute(kernel.compute_cycles()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_ops(config: StreamConfig) -> (u64, u64, u64) {
        let mut loads = 0;
        let mut stores = 0;
        let mut computes = 0;
        for mut s in config.streams() {
            while let Some(op) = s.next_op() {
                match op {
                    Op::Load { .. } => loads += 1,
                    Op::Store { .. } => stores += 1,
                    Op::Compute { .. } => computes += 1,
                }
            }
        }
        (loads, stores, computes)
    }

    #[test]
    fn copy_issues_one_load_and_one_store_per_line() {
        let config = StreamConfig {
            kernel: StreamKernel::Copy,
            array_bytes: 64 * 1024,
            iterations: 1,
            cores: 1,
        };
        let lines = config.array_bytes / CACHE_LINE_BYTES;
        let (loads, stores, _) = count_ops(config);
        assert_eq!(loads, lines);
        assert_eq!(stores, lines);
    }

    #[test]
    fn add_and_triad_issue_two_loads_per_line() {
        for kernel in [StreamKernel::Add, StreamKernel::Triad] {
            let config = StreamConfig {
                kernel,
                array_bytes: 32 * 1024,
                iterations: 2,
                cores: 1,
            };
            let lines = config.array_bytes / CACHE_LINE_BYTES * 2;
            let (loads, stores, _) = count_ops(config);
            assert_eq!(loads, 2 * lines, "{kernel}");
            assert_eq!(stores, lines, "{kernel}");
        }
    }

    #[test]
    fn partitioning_covers_every_line_exactly_once() {
        let config = StreamConfig {
            kernel: StreamKernel::Copy,
            array_bytes: 257 * CACHE_LINE_BYTES,
            iterations: 1,
            cores: 7,
        };
        let mut covered = std::collections::HashSet::new();
        for mut s in config.streams() {
            while let Some(op) = s.next_op() {
                if let Op::Load { addr, .. } = op {
                    assert!(covered.insert(addr), "line loaded twice: {addr:#x}");
                }
            }
        }
        assert_eq!(covered.len(), 257);
    }

    #[test]
    fn stream_bytes_accounting_matches_the_kernel_shape() {
        let copy = StreamConfig {
            kernel: StreamKernel::Copy,
            array_bytes: 1024 * 1024,
            iterations: 1,
            cores: 4,
        };
        let triad = StreamConfig {
            kernel: StreamKernel::Triad,
            ..copy
        };
        assert_eq!(copy.stream_bytes(), 2 * copy.array_bytes);
        assert_eq!(triad.stream_bytes(), 3 * copy.array_bytes);
    }

    #[test]
    fn labels_identify_the_kernel_and_core() {
        let config = StreamConfig {
            kernel: StreamKernel::Triad,
            array_bytes: 64 * 1024,
            iterations: 1,
            cores: 2,
        };
        let streams = config.streams();
        assert!(streams[1].label().contains("triad"));
        assert!(streams[1].label().contains("core 1"));
    }
}
