//! Random-access workloads: HPC Challenge GUPS (RandomAccess) and an HPCG proxy.
//!
//! The paper mentions GUPS as the canonical random-access pattern the Mess traffic generator
//! can be extended towards (§IV-D) and profiles HPCG — a bandwidth-bound sparse
//! matrix-vector kernel — in the application-profiling section (§VI-B). Both are provided
//! here as op-stream workloads so the profiling and IPC experiments can run them on any
//! platform model.

use mess_cpu::{Op, OpBlock, OpStream, PackedOp};
use mess_types::CACHE_LINE_BYTES;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Base address of the GUPS table.
const GUPS_BASE: u64 = 0x9_0000_0000;
/// Base address of the HPCG matrix stripe.
const HPCG_MATRIX_BASE: u64 = 0xa_0000_0000;
/// Base address of the HPCG input/output vectors.
const HPCG_VECTOR_BASE: u64 = 0xb_0000_0000;

/// Configuration of a GUPS (Giga Updates Per Second) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GupsConfig {
    /// Size of the update table in bytes (power of two, much larger than the LLC).
    pub table_bytes: u64,
    /// Number of read-modify-write updates per core.
    pub updates_per_core: u64,
    /// Number of cores.
    pub cores: u32,
    /// RNG seed.
    pub seed: u64,
}

impl GupsConfig {
    /// A GUPS table of `8 × llc_bytes`, one update stream per core.
    pub fn sized_against_llc(llc_bytes: u64, cores: u32, updates_per_core: u64) -> Self {
        GupsConfig {
            table_bytes: (llc_bytes * 8).next_power_of_two(),
            updates_per_core,
            cores: cores.max(1),
            seed: 0x4755_5053,
        }
    }

    /// Per-core op streams.
    pub fn streams(&self) -> Vec<Box<dyn OpStream>> {
        (0..self.cores)
            .map(|core| Box::new(GupsStream::new(*self, core)) as Box<dyn OpStream>)
            .collect()
    }
}

/// Table addresses [`GupsStream`] draws per chunk: one RNG pass every 4096 updates instead
/// of one RNG dispatch per update.
const GUPS_CHUNK: usize = 4096;

/// One core's random read-modify-write stream: each update is a dependent load of a random
/// table entry followed by a store to the same line (`table[x] ^= value`).
#[derive(Debug, Clone)]
pub struct GupsStream {
    rng: StdRng,
    mask: u64,
    remaining: u64,
    pending_store: Option<u64>,
    /// Pre-generated table addresses, consumed front to back.
    chunk: Vec<u64>,
    chunk_pos: usize,
    label: String,
}

impl GupsStream {
    /// Creates the stream for `core`.
    pub fn new(config: GupsConfig, core: u32) -> Self {
        let lines = (config.table_bytes / CACHE_LINE_BYTES)
            .next_power_of_two()
            .max(2);
        GupsStream {
            rng: StdRng::seed_from_u64(config.seed ^ (core as u64).wrapping_mul(0x9e37_79b9)),
            mask: lines - 1,
            remaining: config.updates_per_core,
            pending_store: None,
            chunk: Vec::new(),
            chunk_pos: 0,
            label: format!("gups[core {core}]"),
        }
    }

    /// The next pre-generated table address, refilling the chunk when it runs dry. Never
    /// draws more RNG words than there are updates left, so the draw sequence is one word
    /// per update whatever the chunking.
    #[inline]
    fn next_addr(&mut self) -> u64 {
        if self.chunk_pos == self.chunk.len() {
            let n = self.remaining.min(GUPS_CHUNK as u64) as usize;
            self.chunk.clear();
            for _ in 0..n {
                let line = self.rng.gen::<u64>() & self.mask;
                self.chunk.push(GUPS_BASE + line * CACHE_LINE_BYTES);
            }
            self.chunk_pos = 0;
        }
        let addr = self.chunk[self.chunk_pos];
        self.chunk_pos += 1;
        addr
    }

    /// The stream's one step: the pending store of the last update, else the next update's
    /// load.
    #[inline]
    fn next_packed(&mut self) -> Option<PackedOp> {
        if let Some(addr) = self.pending_store.take() {
            return Some(PackedOp::store(addr));
        }
        if self.remaining == 0 {
            return None;
        }
        let addr = self.next_addr();
        self.remaining -= 1;
        self.pending_store = Some(addr);
        Some(PackedOp::dependent_load(addr))
    }
}

impl OpStream for GupsStream {
    fn next_op(&mut self) -> Option<Op> {
        self.next_packed().map(PackedOp::unpack)
    }

    fn fill_block(&mut self, out: &mut OpBlock) -> usize {
        out.fill_with(|| self.next_packed())
    }

    fn label(&self) -> &str {
        &self.label
    }
}

/// Configuration of the HPCG-proxy workload (sparse matrix-vector product plus dot products).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HpcgConfig {
    /// Number of matrix rows processed per core.
    pub rows_per_core: u64,
    /// Non-zeros per row (HPCG's 27-point stencil).
    pub nonzeros_per_row: u32,
    /// Bytes of the vector the column indices gather from.
    pub vector_bytes: u64,
    /// Number of cores (the paper runs one HPCG copy per core).
    pub cores: u32,
    /// RNG seed for the gather pattern.
    pub seed: u64,
}

impl HpcgConfig {
    /// The paper's §VI configuration scaled to the platform: one benchmark copy per core,
    /// matrix stripes streaming from memory, gathers over a vector that exceeds the LLC.
    pub fn sized_against_llc(llc_bytes: u64, cores: u32, rows_per_core: u64) -> Self {
        HpcgConfig {
            rows_per_core,
            nonzeros_per_row: 27,
            vector_bytes: llc_bytes * 4,
            cores: cores.max(1),
            seed: 0x4850_4347,
        }
    }

    /// Per-core op streams.
    pub fn streams(&self) -> Vec<Box<dyn OpStream>> {
        (0..self.cores)
            .map(|core| Box::new(HpcgStream::new(*self, core)) as Box<dyn OpStream>)
            .collect()
    }
}

/// One core's HPCG-proxy stream: for each row, stream the matrix stripe (values + column
/// indices), gather from the vector, and store the result element.
#[derive(Debug, Clone)]
pub struct HpcgStream {
    config: HpcgConfig,
    rng: StdRng,
    row: u64,
    /// Byte offset of this core's matrix stripe.
    matrix_offset: u64,
    vector_lines: u64,
    /// The current row's ops in emission order, consumed via `pos`.
    pending: Vec<PackedOp>,
    pos: usize,
    /// Scratch for the row's gather lines (drawn in RNG order, emitted in reverse).
    gather_buf: Vec<u64>,
    label: String,
}

impl HpcgStream {
    /// Creates the stream for `core`.
    pub fn new(config: HpcgConfig, core: u32) -> Self {
        let stripe_bytes = config.rows_per_core * config.nonzeros_per_row as u64 * 12; // 8B value + 4B index
        HpcgStream {
            rng: StdRng::seed_from_u64(config.seed ^ core as u64),
            row: 0,
            matrix_offset: core as u64 * stripe_bytes.next_multiple_of(CACHE_LINE_BYTES),
            vector_lines: (config.vector_bytes / CACHE_LINE_BYTES).max(1),
            pending: Vec::new(),
            pos: 0,
            gather_buf: Vec::new(),
            label: format!("hpcg[core {core}]"),
            config,
        }
    }

    /// Materializes the next row into `pending` (left empty once the rows run out).
    fn refill(&mut self) {
        self.pending.clear();
        self.pos = 0;
        if self.row >= self.config.rows_per_core {
            return;
        }
        let row = self.row;
        self.row += 1;
        // Matrix stripe of this row: values and indices stream sequentially.
        let row_bytes = self.config.nonzeros_per_row as u64 * 12;
        let row_base = HPCG_MATRIX_BASE + self.matrix_offset + row * row_bytes;
        let matrix_lines = row_bytes.div_ceil(CACHE_LINE_BYTES).max(1);
        for l in 0..matrix_lines {
            self.pending
                .push(PackedOp::load(row_base + l * CACHE_LINE_BYTES));
        }
        // Gather loads from the vector (about one distinct cache line every four non-zeros —
        // the stencil has strong reuse within a row).
        let gathers = (self.config.nonzeros_per_row / 4).max(1);
        self.gather_buf.clear();
        for _ in 0..gathers {
            self.gather_buf
                .push(self.rng.gen_range(0..self.vector_lines));
        }
        for &line in self.gather_buf.iter().rev() {
            self.pending.push(PackedOp::load(
                HPCG_VECTOR_BASE + 0x1000_0000 + line * CACHE_LINE_BYTES,
            ));
        }
        self.pending
            .push(PackedOp::compute(2 * self.config.nonzeros_per_row));
        self.pending.push(PackedOp::store(
            HPCG_VECTOR_BASE + (row * 8) / CACHE_LINE_BYTES * CACHE_LINE_BYTES,
        ));
    }

    /// The stream's one step: the next op of the current row, materializing the next row
    /// when the current one is used up.
    #[inline]
    fn next_packed(&mut self) -> Option<PackedOp> {
        if self.pos == self.pending.len() {
            self.refill();
        }
        let op = *self.pending.get(self.pos)?;
        self.pos += 1;
        Some(op)
    }
}

impl OpStream for HpcgStream {
    fn next_op(&mut self) -> Option<Op> {
        self.next_packed().map(PackedOp::unpack)
    }

    fn fill_block(&mut self, out: &mut OpBlock) -> usize {
        out.fill_with(|| self.next_packed())
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gups_alternates_dependent_loads_and_stores_to_the_same_line() {
        let config = GupsConfig {
            table_bytes: 1 << 20,
            updates_per_core: 50,
            cores: 1,
            seed: 1,
        };
        let mut s = config.streams().remove(0);
        let mut ops = Vec::new();
        while let Some(op) = s.next_op() {
            ops.push(op);
        }
        assert_eq!(ops.len(), 100);
        for pair in ops.chunks(2) {
            match (pair[0], pair[1]) {
                (
                    Op::Load {
                        addr: a,
                        dependent: true,
                    },
                    Op::Store { addr: b },
                ) => {
                    assert_eq!(a, b)
                }
                other => panic!("unexpected op pair {other:?}"),
            }
        }
    }

    #[test]
    fn gups_streams_differ_across_cores_but_are_deterministic() {
        let config = GupsConfig {
            table_bytes: 1 << 20,
            updates_per_core: 20,
            cores: 2,
            seed: 9,
        };
        let collect = |mut s: Box<dyn OpStream>| {
            let mut v = Vec::new();
            while let Some(op) = s.next_op() {
                v.push(op);
            }
            v
        };
        let a0 = collect(config.streams().remove(0));
        let a1 = collect(config.streams().remove(1));
        let b0 = collect(config.streams().remove(0));
        assert_eq!(a0, b0, "same core and seed must replay identically");
        assert_ne!(a0, a1, "different cores must take different random walks");
    }

    #[test]
    fn hpcg_mixes_streaming_loads_gathers_and_stores() {
        let config = HpcgConfig {
            rows_per_core: 40,
            nonzeros_per_row: 27,
            vector_bytes: 1 << 20,
            cores: 1,
            seed: 4,
        };
        let mut s = config.streams().remove(0);
        let (mut loads, mut stores, mut computes) = (0u64, 0u64, 0u64);
        while let Some(op) = s.next_op() {
            match op {
                Op::Load { .. } => loads += 1,
                Op::Store { .. } => stores += 1,
                Op::Compute { .. } => computes += 1,
            }
        }
        assert_eq!(stores, 40, "one result store per row");
        assert_eq!(computes, 40, "one FLOP block per row");
        assert!(
            loads > stores * 5,
            "HPCG is read-dominated, got {loads} loads"
        );
    }

    #[test]
    fn hpcg_row_count_bounds_the_stream_length() {
        let config = HpcgConfig {
            rows_per_core: 5,
            nonzeros_per_row: 27,
            vector_bytes: 1 << 18,
            cores: 3,
            seed: 4,
        };
        for mut s in config.streams() {
            let mut n = 0;
            while s.next_op().is_some() {
                n += 1;
            }
            assert!(
                n > 5 && n < 5 * 40,
                "per-row op count should be bounded, got {n}"
            );
        }
    }
}
