//! Workload streams against a frozen reference and golden digests.
//!
//! Every workload family used to ship twice: a per-op interpreted state machine and its
//! compiled program form. The compiled form is now the only production generator. The
//! interpreted generators survive here, frozen, as the reference each family's proptest
//! compares against: same ops, same order, same exhaustion point, across seeds, sizes,
//! core counts and block-boundary crossings. Golden FNV-1a digests of every spec kind's op
//! sequence, recorded from the interpreted generators, pin the spec-level sizing too, so
//! every report, CurveSet artifact and spec digest stays byte-identical.

use mess_cpu::{Op, OpBlock, OpStream, PackedOp};
use mess_workloads::spec::WorkloadSpec;
use mess_workloads::stream::StreamKernel;
use mess_workloads::{
    spec2006_suite, GupsConfig, HpcgConfig, LatMemRdConfig, MultichaseConfig, StreamConfig,
};
use proptest::prelude::*;

/// The interpreted generators as they last ran in production, kept only as a reference.
/// Do not "fix" them: a change here unpins the streams they check.
mod reference {
    use mess_cpu::{Op, OpStream};
    use mess_types::CACHE_LINE_BYTES;
    use mess_workloads::{
        partition_lines, GupsConfig, HpcgConfig, LatMemRdConfig, MultichaseConfig, StreamConfig,
        StreamKernel,
    };
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    const ARRAY_A_BASE: u64 = 0x1_0000_0000;
    const ARRAY_B_BASE: u64 = 0x2_0000_0000;
    const ARRAY_C_BASE: u64 = 0x3_0000_0000;
    const CHASE_BASE: u64 = 0x7_0000_0000;
    const GUPS_BASE: u64 = 0x9_0000_0000;
    const HPCG_MATRIX_BASE: u64 = 0xa_0000_0000;
    const HPCG_VECTOR_BASE: u64 = 0xb_0000_0000;

    /// One core's share of a STREAM kernel: a line/micro-op state machine.
    pub struct StreamStream {
        kernel: StreamKernel,
        iterations: u32,
        label: String,
        line: u64,
        start: u64,
        end: u64,
        iteration: u32,
        micro: u8,
    }

    pub fn stream_streams(config: &StreamConfig) -> Vec<Box<dyn OpStream>> {
        let lines = config.array_bytes / CACHE_LINE_BYTES;
        (0..config.cores)
            .map(|core| {
                let (start, end) = partition_lines(lines, config.cores, core);
                Box::new(StreamStream {
                    kernel: config.kernel,
                    iterations: config.iterations,
                    label: format!("stream-{}[core {}]", config.kernel, core),
                    line: start,
                    start,
                    end,
                    iteration: 0,
                    micro: 0,
                }) as Box<dyn OpStream>
            })
            .collect()
    }

    fn compute_cycles(kernel: StreamKernel) -> u32 {
        match kernel {
            StreamKernel::Copy => 2,
            StreamKernel::Scale => 4,
            StreamKernel::Add => 6,
            StreamKernel::Triad => 8,
        }
    }

    fn line_ops(kernel: StreamKernel, line: u64, micro: u8) -> Option<Op> {
        let addr = |base: u64, line: u64| base + line * CACHE_LINE_BYTES;
        let ops: [Option<Op>; 4] = match kernel {
            StreamKernel::Copy => [
                Some(Op::load(addr(ARRAY_A_BASE, line))),
                Some(Op::store(addr(ARRAY_C_BASE, line))),
                Some(Op::compute(compute_cycles(kernel))),
                None,
            ],
            StreamKernel::Scale => [
                Some(Op::load(addr(ARRAY_C_BASE, line))),
                Some(Op::store(addr(ARRAY_B_BASE, line))),
                Some(Op::compute(compute_cycles(kernel))),
                None,
            ],
            StreamKernel::Add => [
                Some(Op::load(addr(ARRAY_A_BASE, line))),
                Some(Op::load(addr(ARRAY_B_BASE, line))),
                Some(Op::store(addr(ARRAY_C_BASE, line))),
                Some(Op::compute(compute_cycles(kernel))),
            ],
            StreamKernel::Triad => [
                Some(Op::load(addr(ARRAY_B_BASE, line))),
                Some(Op::load(addr(ARRAY_C_BASE, line))),
                Some(Op::store(addr(ARRAY_A_BASE, line))),
                Some(Op::compute(compute_cycles(kernel))),
            ],
        };
        ops.get(micro as usize).copied().flatten()
    }

    impl OpStream for StreamStream {
        fn next_op(&mut self) -> Option<Op> {
            loop {
                if self.iteration >= self.iterations || self.start >= self.end {
                    return None;
                }
                if let Some(op) = line_ops(self.kernel, self.line, self.micro) {
                    self.micro += 1;
                    return Some(op);
                }
                self.micro = 0;
                self.line += 1;
                if self.line >= self.end {
                    self.line = self.start;
                    self.iteration += 1;
                }
            }
        }

        fn label(&self) -> &str {
            &self.label
        }
    }

    /// Strided dependent-load stream.
    pub struct LatMemRdStream {
        config: LatMemRdConfig,
        issued: u64,
        offset: u64,
    }

    pub fn lat_mem_rd(config: LatMemRdConfig) -> Box<dyn OpStream> {
        Box::new(LatMemRdStream {
            config,
            issued: 0,
            offset: 0,
        })
    }

    impl OpStream for LatMemRdStream {
        fn next_op(&mut self) -> Option<Op> {
            if self.issued >= self.config.loads {
                return None;
            }
            self.issued += 1;
            let addr = CHASE_BASE + self.offset;
            self.offset = (self.offset + self.config.stride_bytes) % self.config.array_bytes.max(1);
            Some(Op::dependent_load(addr))
        }

        fn label(&self) -> &str {
            "lmbench:lat_mem_rd"
        }
    }

    /// Builds the chase's `next` table: a Fisher–Yates shuffle of the `n` lines read as a
    /// ring, which is one cycle through every line (Sattolo's algorithm is not involved).
    fn sattolo_cycle(n: u32, seed: u64) -> Vec<u32> {
        let mut order: Vec<u32> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        let mut next = vec![0u32; n as usize];
        for i in 0..n as usize {
            next[order[i] as usize] = order[(i + 1) % n as usize];
        }
        next
    }

    /// Random-permutation dependent-load stream walking the `next` table.
    pub struct MultichaseStream {
        next_line: Vec<u32>,
        current: u32,
        issued: u64,
        loads: u64,
    }

    pub fn multichase(config: MultichaseConfig) -> Box<dyn OpStream> {
        let lines = (config.array_bytes / CACHE_LINE_BYTES).max(2) as u32;
        Box::new(MultichaseStream {
            next_line: sattolo_cycle(lines, config.seed),
            current: 0,
            issued: 0,
            loads: config.loads,
        })
    }

    impl OpStream for MultichaseStream {
        fn next_op(&mut self) -> Option<Op> {
            if self.issued >= self.loads {
                return None;
            }
            self.issued += 1;
            let addr = CHASE_BASE + self.current as u64 * CACHE_LINE_BYTES;
            self.current = self.next_line[self.current as usize];
            Some(Op::dependent_load(addr))
        }

        fn label(&self) -> &str {
            "multichase:pointer-chase"
        }
    }

    /// One core's random read-modify-write stream, one RNG draw per update.
    pub struct GupsStream {
        rng: StdRng,
        mask: u64,
        remaining: u64,
        pending_store: Option<u64>,
        label: String,
    }

    pub fn gups_streams(config: &GupsConfig) -> Vec<Box<dyn OpStream>> {
        (0..config.cores)
            .map(|core| {
                let lines = (config.table_bytes / CACHE_LINE_BYTES)
                    .next_power_of_two()
                    .max(2);
                Box::new(GupsStream {
                    rng: StdRng::seed_from_u64(
                        config.seed ^ (core as u64).wrapping_mul(0x9e37_79b9),
                    ),
                    mask: lines - 1,
                    remaining: config.updates_per_core,
                    pending_store: None,
                    label: format!("gups[core {core}]"),
                }) as Box<dyn OpStream>
            })
            .collect()
    }

    impl OpStream for GupsStream {
        fn next_op(&mut self) -> Option<Op> {
            if let Some(addr) = self.pending_store.take() {
                return Some(Op::store(addr));
            }
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            let line = self.rng.gen::<u64>() & self.mask;
            let addr = GUPS_BASE + line * CACHE_LINE_BYTES;
            self.pending_store = Some(addr);
            Some(Op::dependent_load(addr))
        }

        fn label(&self) -> &str {
            &self.label
        }
    }

    /// One core's HPCG-proxy stream, each row queued back to front.
    pub struct HpcgStream {
        config: HpcgConfig,
        rng: StdRng,
        row: u64,
        matrix_offset: u64,
        vector_lines: u64,
        label: String,
        queue: Vec<Op>,
    }

    pub fn hpcg_streams(config: &HpcgConfig) -> Vec<Box<dyn OpStream>> {
        (0..config.cores)
            .map(|core| {
                let stripe_bytes = config.rows_per_core * config.nonzeros_per_row as u64 * 12;
                Box::new(HpcgStream {
                    rng: StdRng::seed_from_u64(config.seed ^ core as u64),
                    row: 0,
                    matrix_offset: core as u64 * stripe_bytes.next_multiple_of(CACHE_LINE_BYTES),
                    vector_lines: (config.vector_bytes / CACHE_LINE_BYTES).max(1),
                    label: format!("hpcg[core {core}]"),
                    queue: Vec::new(),
                    config: *config,
                }) as Box<dyn OpStream>
            })
            .collect()
    }

    impl HpcgStream {
        fn refill(&mut self) {
            if self.row >= self.config.rows_per_core {
                return;
            }
            let row = self.row;
            self.row += 1;
            let row_bytes = self.config.nonzeros_per_row as u64 * 12;
            let row_base = HPCG_MATRIX_BASE + self.matrix_offset + row * row_bytes;
            let matrix_lines = row_bytes.div_ceil(CACHE_LINE_BYTES).max(1);
            self.queue.push(Op::store(
                HPCG_VECTOR_BASE + (row * 8) / CACHE_LINE_BYTES * CACHE_LINE_BYTES,
            ));
            self.queue
                .push(Op::compute(2 * self.config.nonzeros_per_row));
            let gathers = (self.config.nonzeros_per_row / 4).max(1);
            for _ in 0..gathers {
                let line = self.rng.gen_range(0..self.vector_lines);
                self.queue.push(Op::load(
                    HPCG_VECTOR_BASE + 0x1000_0000 + line * CACHE_LINE_BYTES,
                ));
            }
            for l in (0..matrix_lines).rev() {
                self.queue.push(Op::load(row_base + l * CACHE_LINE_BYTES));
            }
        }
    }

    impl OpStream for HpcgStream {
        fn next_op(&mut self) -> Option<Op> {
            if self.queue.is_empty() {
                self.refill();
            }
            self.queue.pop()
        }

        fn label(&self) -> &str {
            &self.label
        }
    }
}

/// Drains `stream` through `next_op`, up to `cap` ops.
fn drain_ops(stream: &mut dyn OpStream, cap: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    while ops.len() < cap {
        match stream.next_op() {
            Some(op) => ops.push(op),
            None => break,
        }
    }
    ops
}

/// Drains `stream` through `fill_block`, up to `cap` ops (block granularity), asserting the
/// refill contract (`len()` returned, zero only at exhaustion).
fn drain_blocks(stream: &mut dyn OpStream, cap: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut block = OpBlock::new();
    while ops.len() < cap {
        let n = stream.fill_block(&mut block);
        assert_eq!(n, block.len(), "fill_block must return the refilled length");
        if n == 0 {
            break;
        }
        ops.extend(block.as_slice().iter().map(|p| p.unpack()));
    }
    ops
}

/// Asserts that `expected` (pulled per op) and `got` (pulled per block) are the same finite
/// stream, including the exhaustion point.
fn assert_equivalent_finite(
    mut expected: Box<dyn OpStream>,
    mut got: Box<dyn OpStream>,
    context: &str,
) {
    const CAP: usize = 2_000_000;
    assert_eq!(
        expected.label(),
        got.label(),
        "{context}: labels must match"
    );
    let want = drain_ops(expected.as_mut(), CAP);
    assert!(want.len() < CAP, "{context}: stream is not finite");
    assert_eq!(
        drain_blocks(got.as_mut(), CAP),
        want,
        "{context}: block path diverges"
    );
    let mut block = OpBlock::new();
    assert_eq!(
        got.fill_block(&mut block),
        0,
        "{context}: exhausted stream must keep returning empty blocks"
    );
    assert_eq!(
        got.next_op(),
        None,
        "{context}: exhausted stream must keep returning None"
    );
}

/// Asserts that per-op and per-block drains of two fresh resolutions of `spec` agree.
fn assert_op_and_block_drains_agree(spec: &WorkloadSpec, cores: u32, context: &str) {
    let by_op = spec.streams(LLC, cores).unwrap();
    let by_block = spec.streams(LLC, cores).unwrap();
    assert_eq!(by_op.len(), cores as usize, "{context}");
    for (a, b) in by_op.into_iter().zip(by_block) {
        assert_equivalent_finite(a, b, context);
    }
}

const LLC: u64 = 256 * 1024;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stream_kernels_compile_to_identical_sequences(
        kernel_idx in 0usize..4,
        lines in 0u64..300,
        iterations in 0u32..4,
        cores in 1u32..5,
    ) {
        let config = StreamConfig {
            kernel: StreamKernel::ALL[kernel_idx],
            array_bytes: lines * 64,
            iterations,
            cores,
        };
        for (r, c) in reference::stream_streams(&config).into_iter().zip(config.streams()) {
            assert_equivalent_finite(r, c, &format!("{config:?}"));
        }
    }

    #[test]
    fn lat_mem_rd_compiles_to_identical_sequences(
        array_bytes in 1u64..200_000,
        stride_bytes in 1u64..5_000,
        loads in 0u64..2_000,
    ) {
        let config = LatMemRdConfig { array_bytes, stride_bytes, loads };
        assert_equivalent_finite(reference::lat_mem_rd(config), config.stream(), &format!("{config:?}"));
    }

    #[test]
    fn multichase_compiles_to_identical_sequences(
        lines in 2u64..600,
        loads in 0u64..2_000,
        seed in 0u64..1_000_000,
    ) {
        // `loads` both below one lap and across several laps of the chase's cycle.
        let config = MultichaseConfig { array_bytes: lines * 64, loads, seed };
        assert_equivalent_finite(reference::multichase(config), config.stream(), &format!("{config:?}"));
    }

    #[test]
    fn sparse_multichase_compiles_to_identical_sequences(
        lines in 2u64..16_384,
        loads_per_64k_lines in 0u64..=4_096,
        seed in 0u64..u64::MAX,
    ) {
        // Short walks over large arrays, up to one load per 16 lines and down to none:
        // the walk is then resolved from the shuffle's draws rather than the shuffled order
        // the reference walks.
        let loads = lines * loads_per_64k_lines / 65_536;
        let config = MultichaseConfig { array_bytes: lines * 64, loads, seed };
        assert_equivalent_finite(reference::multichase(config), config.stream(), &format!("{config:?}"));
    }

    #[test]
    fn gups_compiles_to_identical_sequences(
        table_bytes in (1u64 << 12)..(1u64 << 21),
        updates_per_core in 0u64..2_000,
        cores in 1u32..3,
        seed in 0u64..1_000_000,
    ) {
        let config = GupsConfig { table_bytes, updates_per_core, cores, seed };
        for (r, c) in reference::gups_streams(&config).into_iter().zip(config.streams()) {
            assert_equivalent_finite(r, c, &format!("{config:?}"));
        }
    }

    #[test]
    fn hpcg_compiles_to_identical_sequences(
        rows_per_core in 0u64..120,
        nonzeros_per_row in 1u32..40,
        vector_bytes in 64u64..(1u64 << 20),
        cores in 1u32..3,
        seed in 0u64..1_000_000,
    ) {
        let config = HpcgConfig { rows_per_core, nonzeros_per_row, vector_bytes, cores, seed };
        for (r, c) in reference::hpcg_streams(&config).into_iter().zip(config.streams()) {
            assert_equivalent_finite(r, c, &format!("{config:?}"));
        }
    }
}

#[test]
fn multichase_walks_that_wrap_past_the_order_end_are_identical() {
    // Line 0 lands within `loads` of the shuffled order's end, so the walk runs off the end
    // of the order and continues from its start: find such seeds for short and long walks.
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    for (lines, loads) in [
        (1_000u64, 10u64),
        (4_096, 60),
        (16_384, 200),
        (9_999, 9_000),
    ] {
        let wraps = (0..)
            .filter(|&seed| {
                let mut order: Vec<u64> = (0..lines).collect();
                order.shuffle(&mut StdRng::seed_from_u64(seed));
                let start = order.iter().position(|&line| line == 0).unwrap() as u64;
                start > 0 && start + loads > lines
            })
            .take(3);
        for seed in wraps {
            let config = MultichaseConfig {
                array_bytes: lines * 64,
                loads,
                seed,
            };
            assert_equivalent_finite(
                reference::multichase(config),
                config.stream(),
                &format!("{config:?}"),
            );
        }
    }
}

#[test]
fn every_spec_suite_workload_is_block_identical() {
    // The SPEC-like generators run through the default `fill_block`; it must produce the
    // `next_op` sequence (701 ops per core straddles the 256-op block boundary twice, plus
    // a final partial block).
    for workload in spec2006_suite() {
        let spec = WorkloadSpec::spec_cpu2006(workload.name, 701);
        assert_op_and_block_drains_agree(&spec, 2, workload.name);
    }
}

#[test]
fn every_spec_kind_is_equivalent_at_block_boundaries() {
    // Op counts straddling exact OpBlock capacity multiples (256) — the refill edge the
    // engine's cursor exercises hardest — for every spec kind through the public API.
    for ops in [255u64, 256, 257, 511, 512, 513] {
        let specs = [
            WorkloadSpec::stream(StreamKernel::Triad, 1),
            WorkloadSpec::lat_mem_rd(ops),
            WorkloadSpec::multichase(ops),
            WorkloadSpec::gups(ops),
            WorkloadSpec::hpcg(ops / 8 + 1),
            WorkloadSpec::spec_cpu2006("lbm", ops),
        ];
        for spec in specs {
            assert_op_and_block_drains_agree(&spec, 3, &format!("{} ops={ops}", spec.label()));
        }
    }
}

/// FNV-1a (64-bit) over each stream's label and the raw words of its packed ops.
fn digest(streams: Vec<Box<dyn OpStream>>) -> (u64, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut ops = 0;
    for mut stream in streams {
        fold(stream.label().as_bytes());
        for op in drain_blocks(stream.as_mut(), usize::MAX) {
            fold(&PackedOp::pack(op).raw().to_le_bytes());
            ops += 1;
        }
    }
    (hash, ops)
}

#[test]
fn every_spec_kind_matches_its_golden_digest() {
    // Recorded from the interpreted generators on three cores of a 256 KiB LLC: floored and
    // unfloored STREAM arrays with several passes, wrapping strides, partial and multi-lap
    // chases, and GUPS tables rounded up to a power of two.
    let golden = [
        (
            WorkloadSpec::Stream {
                kernel: StreamKernel::Copy,
                llc_multiple: 1,
                iterations: 1,
            },
            196608,
            0xfed3_aabf_679d_0393,
        ),
        (
            WorkloadSpec::Stream {
                kernel: StreamKernel::Scale,
                llc_multiple: 1,
                iterations: 1,
            },
            196608,
            0x32ae_700f_bb29_ca58,
        ),
        (
            WorkloadSpec::Stream {
                kernel: StreamKernel::Add,
                llc_multiple: 20,
                iterations: 1,
            },
            327680,
            0x3648_4266_70cd_a6ed,
        ),
        (
            WorkloadSpec::Stream {
                kernel: StreamKernel::Triad,
                llc_multiple: 1,
                iterations: 2,
            },
            524288,
            0xb851_35b4_9572_746e,
        ),
        (
            WorkloadSpec::LatMemRd {
                llc_multiple: 4,
                stride_bytes: 128,
                loads: 3000,
            },
            3000,
            0x4298_ba56_aa95_ccec,
        ),
        (
            WorkloadSpec::LatMemRd {
                llc_multiple: 1,
                stride_bytes: 192,
                loads: 10000,
            },
            10000,
            0x5fb9_9db4_1185_5892,
        ),
        (
            WorkloadSpec::Multichase {
                llc_multiple: 4,
                loads: 3000,
                seed: 0x6d75_6c74,
            },
            3000,
            0x25c2_0b40_5d70_ed78,
        ),
        (
            WorkloadSpec::Multichase {
                llc_multiple: 1,
                loads: 10000,
                seed: 0x7,
            },
            10000,
            0xc21b_da8b_8748_fdbf,
        ),
        (
            WorkloadSpec::Gups {
                llc_multiple: 8,
                updates_per_core: 2000,
                seed: 0x4755_5053,
            },
            12000,
            0x3cb5_273b_5edd_4d5e,
        ),
        (
            WorkloadSpec::Gups {
                llc_multiple: 3,
                updates_per_core: 5000,
                seed: 0xb,
            },
            30000,
            0xffb2_a0c9_e929_f84e,
        ),
        (
            WorkloadSpec::Hpcg {
                rows_per_core: 200,
                nonzeros_per_row: 27,
                vector_llc_multiple: 4,
                seed: 0x4850_4347,
            },
            8400,
            0xf3bc_8e7f_44b4_c935,
        ),
        (
            WorkloadSpec::Hpcg {
                rows_per_core: 300,
                nonzeros_per_row: 13,
                vector_llc_multiple: 2,
                seed: 0x5,
            },
            7200,
            0x0ba5_08f7_396d_ee25,
        ),
    ];
    for (spec, ops, hash) in golden {
        let got = digest(spec.streams(LLC, 3).unwrap());
        assert_eq!(got, (hash, ops), "{spec:?}");
    }
    let suite = [
        ("namd", 0x6a0a_c2f3_5a6d_f829),
        ("gamess", 0x9534_0b68_aaae_c322),
        ("tonto", 0x9373_43e3_9dca_e2a2),
        ("gromacs", 0x10b9_0282_d98b_76af),
        ("perlbench", 0xe56b_2bf6_8df5_b59c),
        ("povray", 0x277b_cd2e_8a36_f1e1),
        ("calculix", 0x35bf_ba74_499a_6776),
        ("gobmk", 0xf6c0_d55f_df51_1821),
        ("astar", 0x6c19_07d3_d418_42d6),
        ("wrf", 0x81d8_2a4b_21fb_cef3),
        ("dealII", 0x6b8c_89cf_e727_4978),
        ("h264ref", 0x21be_c1ca_23ae_5fed),
        ("bzip2", 0x5f94_0aca_575e_8835),
        ("sphinx3", 0x17d8_e97b_4e3c_2233),
        ("xalancbmk", 0x29a8_9f2e_a95c_a9b3),
        ("hmmer", 0xae45_78e2_b657_f3f6),
        ("cactusADM", 0xaddf_917d_2e4e_637b),
        ("zeusmp", 0x4e82_0b99_fc80_0ad2),
        ("gcc", 0x1067_b671_42d8_4038),
        ("soplex", 0xb456_9095_d3f1_5b6a),
        ("milc", 0x82a0_488b_135a_cc2c),
        ("libquantum", 0x3878_37ee_94d5_eb8c),
        ("leslie3d", 0x978c_006c_3b34_6a9b),
        ("GemsFDTD", 0xcf43_fd81_78df_9f34),
        ("lbm", 0xc081_83da_799e_7d37),
    ];
    assert_eq!(suite.len(), spec2006_suite().len());
    for (name, hash) in suite {
        let spec = WorkloadSpec::spec_cpu2006(name, 2_000);
        assert_eq!(
            digest(spec.streams(LLC, 3).unwrap()),
            (hash, 12_000),
            "{name}"
        );
    }
}

#[test]
fn compiled_workload_reports_materialization() {
    let compiled = WorkloadSpec::multichase(1_000).compile(LLC, 4).unwrap();
    assert_eq!(compiled.num_streams(), 4);
    // The lap body is cut at `min(lines, loads)`: 1,000 of the 4×LLC working set's lines.
    assert_eq!(compiled.materialized_ops(), 1_000);
    let laps = WorkloadSpec::Multichase {
        llc_multiple: 1,
        loads: 10_000,
        seed: 7,
    };
    // Longer than one lap: every line of the 1×LLC working set, once.
    assert_eq!(laps.compile(LLC, 1).unwrap().materialized_ops(), LLC / 64);
    let gups = WorkloadSpec::gups(1_000).compile(LLC, 4).unwrap();
    assert_eq!(
        gups.materialized_ops(),
        0,
        "GUPS generates per refill, nothing is materialized at compile time"
    );
}
