//! The workload → compiled-program pass: [`WorkloadSpec`] in, [`CompiledWorkload`] out.
//!
//! Mirroring simlin's compiler/VM split, workload resolution is split into two stages:
//! a **compile** stage that sizes the spec against the platform and pre-resolves
//! everything expensive — STREAM kernels become literal per-line [`mess_cpu::OpProgram`]
//! bodies with trip counts, `lat_mem_rd` becomes a one-op body with a wrapping stride,
//! multichase materializes its Sattolo-cycle walk once (cut at `min(lines, loads)`), and
//! GUPS hoists its RNG out of the per-op path by pre-generating address chunks — and an
//! **execution** stage where the engine consumes packed [`mess_cpu::OpBlock`]s with no
//! per-op virtual dispatch.
//!
//! This is the only path from a spec to op streams: [`WorkloadSpec::streams`] is
//! `compile(..)?.into_streams()`, so the sizing rules live in the one `match` below. The
//! sizing arithmetic is checked, because specs arrive from clients: a working set that
//! overflows `u64`, a GUPS table whose power-of-two rounding overflows, or a multichase
//! working set above `u32::MAX` lines is an [`MessError::InvalidConfig`], not a wrapped
//! or truncated size. The SPEC CPU2006-like suite stays on its generator (its RNG draw
//! sequence is data-dependent, so there is nothing to hoist) and runs through the default
//! [`mess_cpu::OpStream::fill_block`], which monomorphizes its `next_op` per stream type.
//!
//! The op sequences are pinned by golden digests and by a frozen reference implementation
//! of every family in the `compiled_equivalence` suite, so every report, CurveSet artifact
//! and spec digest stays byte-identical.

use crate::spec::{WorkloadSpec, MIN_STREAM_BYTES};
use crate::spec_suite;
use crate::{GupsConfig, HpcgConfig, LatMemRdConfig, MultichaseConfig, StreamConfig};
use mess_cpu::{OpStream, VecStream};
use mess_types::MessError;

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
    /// compile-stage cost the per-stage bench reports.
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

    const LLC: u64 = 1 << 20;

    fn rejected(spec: WorkloadSpec) -> String {
        match compile(&spec, LLC, 2) {
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
}
