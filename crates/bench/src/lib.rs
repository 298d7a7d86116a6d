//! The Mess benchmark: pointer-chase, traffic generator and bandwidth–latency curve sweeps.
//!
//! The benchmark characterizes a memory system as a *family of bandwidth–latency curves*
//! (paper §II). One curve corresponds to one read/write instruction mix; each point on a
//! curve is measured by running a dependent-load pointer-chase on one core while the
//! remaining cores generate memory traffic at a configurable rate:
//!
//! * [`chase`] — the latency probe (random cyclic pointer-chase);
//! * [`traffic`] — the bandwidth generator (paced load/store mix over per-lane arrays);
//! * [`sweep`] — the driver that turns a (store-mix × pause) grid into a
//!   [`mess_core::CurveFamily`];
//! * [`trace`] — memory-trace capture and trace-driven replay (paper §IV-D).
//!
//! Sweep points are independent simulations, so [`characterize`] runs them on a
//! `mess-exec` worker pool: the caller passes a `Send + Sync` *factory* and every worker
//! builds its own backend. Results are reassembled in sweep order, so the output is
//! byte-identical at any thread count.
//!
//! ```
//! use mess_bench::sweep::{characterize, SweepConfig};
//! use mess_cpu::CpuConfig;
//! use mess_memmodels::FixedLatencyModel;
//! use mess_types::{Frequency, Latency};
//!
//! let cpu = CpuConfig::server_class(4, Frequency::from_ghz(2.0));
//! let memory = || FixedLatencyModel::new(Latency::from_ns(60.0), cpu.frequency);
//! let result = characterize("example", &cpu, memory, &SweepConfig::quick())?;
//! assert!(!result.family.is_empty());
//! # Ok::<(), mess_types::MessError>(())
//! ```

#![warn(missing_docs)]

pub mod chase;
pub mod sweep;
pub mod trace;
pub mod traffic;

pub use chase::PointerChaseConfig;
pub use sweep::{
    characterize, characterize_spec, characterize_with, measure_point, Characterization,
    MeasuredPoint, SweepConfig, SweepPreset, SweepSpec,
};
pub use trace::{replay, RecordingBackend, ReplayResult, Trace, TraceRecord};
pub use traffic::{TrafficConfig, TrafficStream};
