//! Declarative workload specifications: one serializable type that can build any workload.
//!
//! Historically every workload family had its own `*Config` convention (`StreamConfig`,
//! `LatMemRdConfig`, `MultichaseConfig`, `GupsConfig`, `HpcgConfig`, `SpecWorkload`) and every
//! experiment driver hand-assembled the one it needed. [`WorkloadSpec`] replaces those N
//! parallel conventions with a single spec-based constructor: a plain serializable value
//! (JSON via the workspace serde stand-ins) that resolves into per-core op streams for any
//! platform, sized relative to that platform's LLC.
//!
//! Sizing is declarative: working sets are expressed as LLC multiples (`llc_multiple`), so the
//! same spec adapts to any platform while still defeating its cache, and fidelity knobs
//! (loads, iterations, rows) are explicit fields a scenario file can edit. Resolution goes
//! through one path, the compile pass ([`crate::compile`]), which sizes the spec with
//! checked arithmetic and lowers it to block-based op streams.
//!
//! ```
//! use mess_workloads::spec::WorkloadSpec;
//!
//! let spec = WorkloadSpec::multichase(1_000);
//! let streams = spec.streams(8 * 1024 * 1024, 4).unwrap();
//! assert_eq!(streams.len(), 4, "core 0 chases, the other cores idle");
//! assert_eq!(spec.label(), "multichase");
//! ```

use crate::spec_suite;
use crate::stream::StreamKernel;
use mess_cpu::OpStream;
use mess_types::MessError;
use serde::{Deserialize, Serialize};

/// Floor on resolved working-set sizes for the streaming workloads (4 MiB), so a spec never
/// degenerates into an in-cache run on a platform with a tiny LLC.
pub const MIN_STREAM_BYTES: u64 = 1 << 22;

/// A declarative, serializable description of one workload.
///
/// Resolution ([`WorkloadSpec::streams`]) needs only the target's LLC capacity and core
/// count, so a spec can be built on any thread and resolved against any platform — including
/// inside a `mess-exec` worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// One STREAM kernel, partitioned across every core.
    Stream {
        /// Which of the four kernels to run.
        kernel: StreamKernel,
        /// Array size as a multiple of the LLC capacity (floored at [`MIN_STREAM_BYTES`]).
        llc_multiple: u64,
        /// Number of passes over the arrays.
        iterations: u32,
    },
    /// LMbench `lat_mem_rd` (strided dependent loads) on core 0; the other cores idle.
    LatMemRd {
        /// Working-set size as a multiple of the LLC capacity.
        llc_multiple: u64,
        /// Stride between consecutive accesses in bytes.
        stride_bytes: u64,
        /// Number of dependent loads to execute.
        loads: u64,
    },
    /// Google multichase (random pointer chase) on core 0; the other cores idle.
    Multichase {
        /// Working-set size as a multiple of the LLC capacity.
        llc_multiple: u64,
        /// Number of dependent loads to execute.
        loads: u64,
        /// Seed of the chase permutation.
        seed: u64,
    },
    /// HPC Challenge GUPS: random read-modify-write updates on every core.
    Gups {
        /// Update-table size as a multiple of the LLC capacity (rounded up to a power of
        /// two).
        llc_multiple: u64,
        /// Updates per core.
        updates_per_core: u64,
        /// RNG seed.
        seed: u64,
    },
    /// The HPCG proxy (sparse matrix-vector product), one benchmark copy per core.
    Hpcg {
        /// Matrix rows processed per core.
        rows_per_core: u64,
        /// Non-zeros per row (HPCG's stencil uses 27).
        nonzeros_per_row: u32,
        /// Gather-vector size as a multiple of the LLC capacity.
        vector_llc_multiple: u64,
        /// RNG seed for the gather pattern.
        seed: u64,
    },
    /// One benchmark of the SPEC CPU2006-like suite, one copy per core.
    SpecCpu2006 {
        /// Benchmark name as it appears in [`spec_suite::spec2006_suite`] (e.g. `"lbm"`).
        benchmark: String,
        /// Memory operations issued per core.
        ops_per_core: u64,
    },
}

impl WorkloadSpec {
    /// A STREAM spec with the given kernel and LLC multiple, one pass.
    pub fn stream(kernel: StreamKernel, llc_multiple: u64) -> Self {
        WorkloadSpec::Stream {
            kernel,
            llc_multiple,
            iterations: 1,
        }
    }

    /// LMbench's main-memory configuration (4 × LLC working set, 128-byte stride) with the
    /// given load count.
    pub fn lat_mem_rd(loads: u64) -> Self {
        WorkloadSpec::LatMemRd {
            llc_multiple: 4,
            stride_bytes: 128,
            loads,
        }
    }

    /// Multichase's main-memory configuration (4 × LLC working set, canonical seed) with the
    /// given load count.
    pub fn multichase(loads: u64) -> Self {
        WorkloadSpec::Multichase {
            llc_multiple: 4,
            loads,
            seed: 0x6d75_6c74,
        }
    }

    /// GUPS over an 8 × LLC table with the canonical seed.
    pub fn gups(updates_per_core: u64) -> Self {
        WorkloadSpec::Gups {
            llc_multiple: 8,
            updates_per_core,
            seed: 0x4755_5053,
        }
    }

    /// The paper's HPCG configuration (27-point stencil, 4 × LLC gather vector).
    pub fn hpcg(rows_per_core: u64) -> Self {
        WorkloadSpec::Hpcg {
            rows_per_core,
            nonzeros_per_row: 27,
            vector_llc_multiple: 4,
            seed: 0x4850_4347,
        }
    }

    /// One SPEC CPU2006-like benchmark by name.
    pub fn spec_cpu2006(benchmark: impl Into<String>, ops_per_core: u64) -> Self {
        WorkloadSpec::SpecCpu2006 {
            benchmark: benchmark.into(),
            ops_per_core,
        }
    }

    /// Display label, matching the strings the paper's figures use for these workloads.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Stream { kernel, .. } => format!("STREAM:{kernel}"),
            WorkloadSpec::LatMemRd { .. } => "LMbench".to_string(),
            WorkloadSpec::Multichase { .. } => "multichase".to_string(),
            WorkloadSpec::Gups { .. } => "GUPS".to_string(),
            WorkloadSpec::Hpcg { .. } => "HPCG".to_string(),
            WorkloadSpec::SpecCpu2006 { benchmark, .. } => format!("spec:{benchmark}"),
        }
    }

    /// Validates the spec without building streams.
    ///
    /// # Errors
    ///
    /// Returns [`MessError::InvalidConfig`] for zero-length runs, zero-sized working sets,
    /// or an unknown SPEC benchmark name.
    pub fn validate(&self) -> Result<(), MessError> {
        let invalid = |msg: String| Err(MessError::InvalidConfig(msg));
        match self {
            WorkloadSpec::Stream {
                llc_multiple,
                iterations,
                ..
            } => {
                if *llc_multiple == 0 || *iterations == 0 {
                    return invalid("STREAM needs a nonzero llc_multiple and iterations".into());
                }
            }
            WorkloadSpec::LatMemRd {
                llc_multiple,
                stride_bytes,
                loads,
            } => {
                if *llc_multiple == 0 || *stride_bytes == 0 || *loads == 0 {
                    return invalid(
                        "lat_mem_rd needs a nonzero llc_multiple, stride and load count".into(),
                    );
                }
            }
            WorkloadSpec::Multichase {
                llc_multiple,
                loads,
                ..
            } => {
                if *llc_multiple == 0 || *loads == 0 {
                    return invalid(
                        "multichase needs a nonzero llc_multiple and load count".into(),
                    );
                }
            }
            WorkloadSpec::Gups {
                llc_multiple,
                updates_per_core,
                ..
            } => {
                if *llc_multiple == 0 || *updates_per_core == 0 {
                    return invalid("GUPS needs a nonzero llc_multiple and update count".into());
                }
            }
            WorkloadSpec::Hpcg {
                rows_per_core,
                nonzeros_per_row,
                vector_llc_multiple,
                ..
            } => {
                if *rows_per_core == 0 || *nonzeros_per_row == 0 || *vector_llc_multiple == 0 {
                    return invalid("HPCG needs nonzero rows, non-zeros and vector size".into());
                }
            }
            WorkloadSpec::SpecCpu2006 {
                benchmark,
                ops_per_core,
            } => {
                if *ops_per_core == 0 {
                    return invalid(format!("spec:{benchmark} needs a nonzero op count"));
                }
                if spec_suite::find(benchmark).is_none() {
                    return invalid(format!(
                        "unknown SPEC CPU2006 benchmark `{benchmark}` (see spec2006_suite)"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Resolves the spec into per-core op streams for a platform with `llc_bytes` of LLC and
    /// `cores` cores: [`WorkloadSpec::compile`] without the materialization tally.
    ///
    /// # Errors
    ///
    /// As [`WorkloadSpec::compile`].
    pub fn streams(&self, llc_bytes: u64, cores: u32) -> Result<Vec<Box<dyn OpStream>>, MessError> {
        Ok(self.compile(llc_bytes, cores)?.into_streams())
    }

    /// Compiles the spec into a [`crate::compile::CompiledWorkload`] for a platform with
    /// `llc_bytes` of LLC and `cores` cores (see [`crate::compile::compile`], which holds
    /// the sizing rules). Single-core workloads (the latency benchmarks) are padded with
    /// idle streams so an engine still models every core.
    ///
    /// # Errors
    ///
    /// Propagates [`WorkloadSpec::validate`], and returns [`MessError::InvalidConfig`] when
    /// the sized working set overflows what the generators can address.
    pub fn compile(
        &self,
        llc_bytes: u64,
        cores: u32,
    ) -> Result<crate::compile::CompiledWorkload, MessError> {
        crate::compile::compile(self, llc_bytes, cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamConfig;
    use serde_json::{from_str, to_string};

    const LLC: u64 = 8 * 1024 * 1024;

    #[test]
    fn every_spec_kind_resolves_to_one_stream_per_core() {
        let specs = [
            WorkloadSpec::stream(StreamKernel::Triad, 4),
            WorkloadSpec::lat_mem_rd(500),
            WorkloadSpec::multichase(500),
            WorkloadSpec::gups(200),
            WorkloadSpec::hpcg(50),
            WorkloadSpec::spec_cpu2006("lbm", 300),
        ];
        for spec in specs {
            let streams = spec.streams(LLC, 6).unwrap();
            assert_eq!(streams.len(), 6, "{}", spec.label());
        }
    }

    #[test]
    fn latency_specs_pad_with_idle_streams() {
        let streams = WorkloadSpec::lat_mem_rd(100).streams(LLC, 4).unwrap();
        assert!(streams[0].label().contains("lat_mem_rd"));
        assert!(streams[1..].iter().all(|s| s.label() == "idle"));
    }

    #[test]
    fn stream_resolution_matches_the_legacy_config_construction() {
        // The spec path must build exactly what the hand-assembled StreamConfig used to, so
        // refactored drivers keep bit-identical output.
        let spec = WorkloadSpec::stream(StreamKernel::Copy, 2);
        let legacy = StreamConfig {
            kernel: StreamKernel::Copy,
            array_bytes: (LLC * 2).max(MIN_STREAM_BYTES),
            iterations: 1,
            cores: 3,
        };
        let mut from_spec = spec.streams(LLC, 3).unwrap();
        let mut from_config = legacy.streams();
        for (a, b) in from_spec.iter_mut().zip(from_config.iter_mut()) {
            assert_eq!(a.label(), b.label());
            loop {
                let (x, y) = (a.next_op(), b.next_op());
                assert_eq!(x, y);
                if x.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn unknown_spec_benchmark_is_rejected() {
        let spec = WorkloadSpec::spec_cpu2006("not-a-benchmark", 100);
        assert!(spec.validate().is_err());
        assert!(spec.streams(LLC, 2).is_err());
    }

    #[test]
    fn zero_sized_specs_are_rejected() {
        assert!(WorkloadSpec::multichase(0).validate().is_err());
        assert!(WorkloadSpec::stream(StreamKernel::Add, 0)
            .validate()
            .is_err());
        assert!(WorkloadSpec::gups(0).validate().is_err());
    }

    #[test]
    fn specs_round_trip_through_json() {
        let specs = [
            WorkloadSpec::stream(StreamKernel::Scale, 4),
            WorkloadSpec::lat_mem_rd(3_000),
            WorkloadSpec::multichase(3_000),
            WorkloadSpec::gups(1_000),
            WorkloadSpec::hpcg(120),
            WorkloadSpec::spec_cpu2006("perlbench", 600),
        ];
        for spec in specs {
            let json = to_string(&spec).unwrap();
            let back: WorkloadSpec = from_str(&json).unwrap();
            assert_eq!(back, spec, "{json}");
            // Serialization is bit-stable across a round trip.
            assert_eq!(to_string(&back).unwrap(), json);
        }
    }

    #[test]
    fn labels_match_the_paper_figures() {
        assert_eq!(
            WorkloadSpec::stream(StreamKernel::Triad, 4).label(),
            "STREAM:triad"
        );
        assert_eq!(WorkloadSpec::lat_mem_rd(1).label(), "LMbench");
        assert_eq!(WorkloadSpec::multichase(1).label(), "multichase");
        assert_eq!(WorkloadSpec::spec_cpu2006("lbm", 1).label(), "spec:lbm");
    }
}
