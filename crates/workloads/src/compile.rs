//! The workload → compiled-program pass: [`WorkloadSpec`] in, [`CompiledWorkload`] out.
//!
//! Mirroring simlin's compiler/VM split, workload resolution is split into two stages:
//! a **compile** stage that sizes the spec against the platform and pre-resolves
//! everything expensive — STREAM kernels become literal per-line [`mess_cpu::OpProgram`]
//! bodies with trip counts, `lat_mem_rd` becomes a one-op body with a wrapping stride,
//! multichase materializes the walk along its shuffled cycle once (cut at
//! `min(lines, loads)`; a short walk over a large array never builds the `lines`-long
//! order), and
//! GUPS hoists its RNG out of the per-op path by pre-generating address chunks — and an
//! **execution** stage where the engine consumes packed [`mess_cpu::OpBlock`]s with no
//! per-op virtual dispatch.
//!
//! This is the only path from a spec to op streams: [`WorkloadSpec::streams`] is
//! `compile(..)?.into_streams()`, so the sizing rules live in the one `match` below. The
//! sizing arithmetic is checked, because specs arrive from clients: a working set that
//! overflows `u64`, a GUPS table whose power-of-two rounding overflows, a STREAM array,
//! `lat_mem_rd` working set, GUPS table, HPCG matrix or HPCG gather vector that ends past
//! the 62-bit packed-op address range, a multichase working set above `u32::MAX` lines, or
//! a multichase walk whose build would hold more than a 1 GiB budget
//! is an [`MessError::InvalidConfig`], not a wrapped or truncated size, a mid-run panic or
//! an address spilling into the op tag.
//! The SPEC CPU2006-like suite stays on its generator (its RNG draw sequence is
//! data-dependent, so there is nothing to hoist) and runs through the default
//! [`mess_cpu::OpStream::fill_block`], which monomorphizes its `next_op` per stream type.
//!
//! The op sequences are pinned by golden digests and by a frozen reference implementation
//! of every family in the `compiled_equivalence` suite, so every report, CurveSet artifact
//! and spec digest stays byte-identical.

use crate::latency::{chase_build_bytes, CHASE_BASE};
use crate::random::{GUPS_BASE, HPCG_GATHER_BASE, HPCG_MATRIX_BASE};
use crate::spec::{WorkloadSpec, MIN_STREAM_BYTES};
use crate::spec_suite;
use crate::stream::ARRAY_C_BASE;
use crate::{GupsConfig, HpcgConfig, LatMemRdConfig, MultichaseConfig, StreamConfig};
use mess_cpu::{OpStream, PackedOp, VecStream};
use mess_types::MessError;

/// The most memory a multichase walk may take to build (see
/// [`crate::latency::sattolo_chase`]); no builtin comes near it.
const CHASE_BUILD_BUDGET: u64 = 1 << 30;

/// The result of compiling one [`WorkloadSpec`] for a concrete platform: per-core streams
/// whose hot path is block-based, plus the compile-stage materialization tally.
pub struct CompiledWorkload {
    streams: Vec<Box<dyn OpStream>>,
    materialized_ops: u64,
}

impl CompiledWorkload {
    /// Number of per-core streams (one per platform core).
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Number of packed ops materialized at compile time (program bodies; streams that
    /// generate on refill, like GUPS, materialize nothing up front). This is the
    /// compile-stage cost messbench reports as `workloads.materialized_ops`.
    pub fn materialized_ops(&self) -> u64 {
        self.materialized_ops
    }

    /// Consumes the compiled workload, yielding the per-core streams for an engine.
    pub fn into_streams(self) -> Vec<Box<dyn OpStream>> {
        self.streams
    }
}

impl std::fmt::Debug for CompiledWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledWorkload")
            .field("streams", &self.streams.len())
            .field("materialized_ops", &self.materialized_ops)
            .finish()
    }
}

/// Compiles `spec` for a platform with `llc_bytes` of LLC and `cores` cores. Single-core
/// workloads (the latency benchmarks) are padded with idle streams so an engine still
/// models every core.
///
/// # Errors
///
/// Propagates [`WorkloadSpec::validate`], and returns [`MessError::InvalidConfig`] when the
/// spec's working set does not fit the sizes the generators can address.
pub fn compile(
    spec: &WorkloadSpec,
    llc_bytes: u64,
    cores: u32,
) -> Result<CompiledWorkload, MessError> {
    spec.validate()?;
    let working_set = |multiple: u64| {
        llc_bytes.checked_mul(multiple).ok_or_else(|| {
            MessError::InvalidConfig(format!(
                "{}: {multiple} × {llc_bytes} LLC bytes overflows u64",
                spec.label()
            ))
        })
    };
    let (streams, materialized_ops) = match spec {
        WorkloadSpec::Stream {
            kernel,
            llc_multiple,
            iterations,
        } => {
            let config = StreamConfig {
                kernel: *kernel,
                array_bytes: working_set(*llc_multiple)?.max(MIN_STREAM_BYTES),
                iterations: *iterations,
                cores,
            };
            within_address_range(spec, "array", ARRAY_C_BASE, Some(config.array_bytes))?;
            // Per core: the kernel's per-line micro-sequence (a load per source array, a
            // store and a compute block).
            let body = (2 + kernel.source_arrays()) * cores.max(1) as u64;
            (config.streams(), body)
        }
        WorkloadSpec::LatMemRd {
            llc_multiple,
            stride_bytes,
            loads,
        } => {
            let config = LatMemRdConfig {
                array_bytes: working_set(*llc_multiple)?,
                stride_bytes: *stride_bytes,
                loads: *loads,
            };
            within_address_range(spec, "working set", CHASE_BASE, Some(config.array_bytes))?;
            (pad_single_core(config.stream(), cores), 1)
        }
        WorkloadSpec::Multichase {
            llc_multiple,
            loads,
            seed,
        } => {
            let config = MultichaseConfig {
                array_bytes: working_set(*llc_multiple)?,
                loads: *loads,
                seed: *seed,
            };
            if config.lines() > u32::MAX as u64 {
                return Err(MessError::InvalidConfig(format!(
                    "multichase: {} lines exceed the chase's u32::MAX line limit",
                    config.lines()
                )));
            }
            let bytes = chase_build_bytes(config.lines(), *loads);
            if bytes > CHASE_BUILD_BUDGET {
                return Err(MessError::InvalidConfig(format!(
                    "multichase: building the walk takes {bytes} bytes, above the \
                     {CHASE_BUILD_BUDGET}-byte (1 GiB) compile budget"
                )));
            }
            let lap = config.lines().min(*loads);
            (pad_single_core(config.stream(), cores), lap)
        }
        WorkloadSpec::Gups {
            llc_multiple,
            updates_per_core,
            seed,
        } => {
            let table_bytes = working_set(*llc_multiple)?
                .checked_next_power_of_two()
                .ok_or_else(|| {
                    MessError::InvalidConfig("GUPS: the table size rounds past u64::MAX".into())
                })?;
            let config = GupsConfig {
                table_bytes,
                updates_per_core: *updates_per_core,
                cores: cores.max(1),
                seed: *seed,
            };
            within_address_range(spec, "table", GUPS_BASE, Some(table_bytes))?;
            (config.streams(), 0)
        }
        WorkloadSpec::Hpcg {
            rows_per_core,
            nonzeros_per_row,
            vector_llc_multiple,
            seed,
        } => {
            let config = HpcgConfig {
                rows_per_core: *rows_per_core,
                nonzeros_per_row: *nonzeros_per_row,
                vector_bytes: working_set(*vector_llc_multiple)?,
                cores: cores.max(1),
                seed: *seed,
            };
            within_address_range(spec, "matrix", HPCG_MATRIX_BASE, config.matrix_bytes())?;
            let vector = Some(config.vector_bytes);
            within_address_range(spec, "gather vector", HPCG_GATHER_BASE, vector)?;
            (config.streams(), 0)
        }
        WorkloadSpec::SpecCpu2006 {
            benchmark,
            ops_per_core,
        } => {
            let workload = spec_suite::find(benchmark).expect("validated above");
            (workload.multiprogrammed(cores, *ops_per_core), 0)
        }
    };
    Ok(CompiledWorkload {
        streams,
        materialized_ops,
    })
}

/// Rejects `spec`'s `region` of `extent` bytes from `base` (`None`: the extent overflowed
/// `u64`) when it ends past the packed-op address range.
fn within_address_range(
    spec: &WorkloadSpec,
    region: &str,
    base: u64,
    extent: Option<u64>,
) -> Result<(), MessError> {
    match extent.and_then(|bytes| base.checked_add(bytes)) {
        Some(end) if end <= PackedOp::ADDRESS_LIMIT => Ok(()),
        _ => Err(MessError::InvalidConfig(format!(
            "{}: the {region}{} ends past the 62-bit packed-op address range",
            spec.label(),
            extent.map_or(String::new(), |bytes| format!(" of {bytes} bytes")),
        ))),
    }
}

/// Pads a single-core workload with idle streams so the engine still models every core.
fn pad_single_core(active: Box<dyn OpStream>, cores: u32) -> Vec<Box<dyn OpStream>> {
    let mut streams = vec![active];
    for _ in 1..cores {
        streams.push(Box::new(VecStream::with_label(Vec::new(), "idle")) as Box<dyn OpStream>);
    }
    streams
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamKernel;
    use mess_cpu::Op;
    use mess_types::CACHE_LINE_BYTES;

    const LLC: u64 = 1 << 20;

    fn rejected(spec: WorkloadSpec) -> String {
        rejected_at(spec, LLC)
    }

    fn rejected_at(spec: WorkloadSpec, llc_bytes: u64) -> String {
        match compile(&spec, llc_bytes, 2) {
            Err(MessError::InvalidConfig(message)) => message,
            other => panic!("{spec:?} must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn a_working_set_overflowing_u64_is_rejected() {
        let message = rejected(WorkloadSpec::stream(StreamKernel::Copy, u64::MAX));
        assert!(message.contains("overflows"), "{message}");
    }

    #[test]
    fn an_hpcg_vector_overflowing_u64_is_rejected() {
        let spec = WorkloadSpec::Hpcg {
            rows_per_core: 1,
            nonzeros_per_row: 27,
            vector_llc_multiple: u64::MAX / 2,
            seed: 1,
        };
        let message = rejected(spec);
        assert!(message.contains("overflows"), "{message}");
    }

    #[test]
    fn an_hpcg_matrix_past_the_packed_op_range_is_rejected() {
        let hpcg = |rows_per_core| WorkloadSpec::Hpcg {
            rows_per_core,
            nonzeros_per_row: 27,
            vector_llc_multiple: 4,
            seed: 1,
        };
        // The stripe's rows × non-zeros × 12 bytes overflows u64...
        let message = rejected(hpcg(u64::MAX / 12));
        assert!(message.contains("62-bit"), "{message}");
        // ...while two stripes of 2^53 × 324 bytes fit u64 but end past 2^62.
        let message = rejected(hpcg(1 << 53));
        assert!(message.contains("62-bit"), "{message}");
    }

    /// An LLC multiple whose 2^63-byte working set fits `u64` but, from any base, ends
    /// past the 62-bit packed-op address range.
    const PAST_THE_RANGE: u64 = 1 << 43;

    #[test]
    fn a_stream_array_past_the_packed_op_range_is_rejected() {
        let message = rejected(WorkloadSpec::stream(StreamKernel::Copy, PAST_THE_RANGE));
        assert!(
            message.contains("STREAM") && message.contains("62-bit"),
            "{message}"
        );
    }

    #[test]
    fn a_lat_mem_rd_working_set_past_the_packed_op_range_is_rejected() {
        let lat_mem_rd = |llc_multiple| WorkloadSpec::LatMemRd {
            llc_multiple,
            stride_bytes: 128,
            loads: 1,
        };
        let message = rejected(lat_mem_rd(PAST_THE_RANGE));
        assert!(message.contains("62-bit"), "{message}");
        // A working set ending exactly at 2^62 still compiles; one LLC more does not.
        let at_limit = (PackedOp::ADDRESS_LIMIT - CHASE_BASE) / LLC;
        assert!(compile(&lat_mem_rd(at_limit), LLC, 2).is_ok());
        let message = rejected(lat_mem_rd(at_limit + 1));
        assert!(message.contains("62-bit"), "{message}");
    }

    #[test]
    fn a_lat_mem_rd_stride_near_u64_max_wraps_without_overflow() {
        let spec = WorkloadSpec::LatMemRd {
            llc_multiple: 1,
            stride_bytes: u64::MAX,
            loads: 3,
        };
        // u64::MAX mod 1,000,000 = 551,615; the third offset is 2 × 551,615 mod 1,000,000.
        let mut streams = compile(&spec, 1_000_000, 1).unwrap().into_streams();
        let ops: Vec<Op> = std::iter::from_fn(|| streams[0].next_op()).collect();
        let chase = |offset| Op::dependent_load(CHASE_BASE + offset);
        assert_eq!(ops, [chase(0), chase(551_615), chase(103_230)]);
    }

    #[test]
    fn a_gups_table_past_the_packed_op_range_is_rejected() {
        let spec = WorkloadSpec::Gups {
            llc_multiple: PAST_THE_RANGE,
            updates_per_core: 1,
            seed: 1,
        };
        let message = rejected(spec);
        assert!(
            message.contains("GUPS") && message.contains("62-bit"),
            "{message}"
        );
    }

    #[test]
    fn an_hpcg_gather_vector_past_the_packed_op_range_is_rejected() {
        let spec = WorkloadSpec::Hpcg {
            rows_per_core: 1,
            nonzeros_per_row: 27,
            vector_llc_multiple: PAST_THE_RANGE,
            seed: 1,
        };
        let message = rejected(spec);
        assert!(
            message.contains("vector") && message.contains("62-bit"),
            "{message}"
        );
    }

    #[test]
    fn a_gups_table_rounding_past_u64_is_rejected() {
        // 2^63 + 2^20 bytes fits u64, but its next power of two does not.
        let spec = WorkloadSpec::Gups {
            llc_multiple: (1 << 43) + 1,
            updates_per_core: 1,
            seed: 1,
        };
        let message = rejected(spec);
        assert!(message.contains("GUPS"), "{message}");
    }

    #[test]
    fn a_multichase_above_u32_max_lines_is_rejected() {
        // 2^40 bytes is 2^34 lines, which a `u32` line index would truncate to 0.
        let spec = WorkloadSpec::Multichase {
            llc_multiple: 1 << 20,
            loads: 1,
            seed: 1,
        };
        let message = rejected(spec);
        assert!(message.contains("u32::MAX"), "{message}");
    }

    #[test]
    fn a_multichase_one_line_past_the_build_budget_is_rejected() {
        // A full lap takes 8 bytes of packed op and 4 bytes of shuffled order per line.
        let lines = CHASE_BUILD_BUDGET / 12;
        assert!(chase_build_bytes(lines, lines) <= CHASE_BUILD_BUDGET);
        let spec = WorkloadSpec::Multichase {
            llc_multiple: 1,
            loads: lines + 1,
            seed: 1,
        };
        let message = rejected_at(spec, (lines + 1) * CACHE_LINE_BYTES);
        assert!(message.contains("1 GiB"), "{message}");
    }

    #[test]
    fn a_sparse_multichase_counts_the_watch_list_against_the_budget() {
        // 2^26 − 1 loads over 2^32 − 1 lines resolve from the draws: 512 MiB of packed ops
        // alone, but the 1.5 GiB watch list and the 256 MiB walk take the build past the
        // budget.
        let (lines, loads) = (u64::from(u32::MAX), (1 << 26) - 1);
        assert!(8 * loads < CHASE_BUILD_BUDGET);
        assert!(chase_build_bytes(lines, loads) > CHASE_BUILD_BUDGET);
        let spec = WorkloadSpec::Multichase {
            llc_multiple: 1,
            loads,
            seed: 1,
        };
        let message = rejected_at(spec, lines * CACHE_LINE_BYTES);
        assert!(message.contains("compile budget"), "{message}");
    }
}
