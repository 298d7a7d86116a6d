//! Bandwidth–latency curves, memory-system metrics and the Mess analytical memory simulator.
//!
//! This crate is the primary contribution of the Mess paper expressed as a library:
//!
//! * [`curve`] — a single bandwidth–latency curve for one read/write ratio, built from
//!   measurement points, with interpolation, extrapolation and per-curve metrics.
//! * [`family`] — a [`CurveFamily`]: the full Mess characterization, tens of curves indexed
//!   by read/write ratio, with bilinear interpolation across ratio and bandwidth.
//! * [`metrics`] — the quantitative memory-system metrics of paper Table I: unloaded latency,
//!   maximum latency range, saturated bandwidth range and "wave" (bandwidth-decline)
//!   detection.
//! * [`synthetic`] — analytic curve-family generators used for tests and for devices whose
//!   curves are supplied by a manufacturer model rather than measured.
//! * [`simulator`] — the [`MessSimulator`]: the curve-driven analytical memory model with the
//!   proportional feedback-control loop of paper §V, implementing the standard
//!   [`mess_types::MemoryBackend`] interface.
//! * [`curveset`] — the [`CurveSet`]: a versioned, provenance-carrying on-disk curve
//!   artifact. Curve families are the *interface* between the three pillars of the Mess
//!   methodology (the benchmark produces them, the simulator consumes them, the profiler
//!   positions traces on them); the `CurveSet` makes that interface a durable file, so a
//!   memory system is characterized once and reused everywhere — see the module docs for
//!   the characterize → save → re-simulate lifecycle and the strict-loading rules.
//!
//! # Quickstart
//!
//! ```
//! use mess_core::synthetic::{SyntheticFamilySpec, generate_family};
//! use mess_core::metrics::FamilyMetrics;
//! use mess_types::{Bandwidth, RwRatio};
//!
//! // A DDR4-2666 x6 -like memory system.
//! let spec = SyntheticFamilySpec::ddr_like(Bandwidth::from_gbs(128.0), 90.0);
//! let family = generate_family(&spec);
//! let metrics = FamilyMetrics::compute(&family, Bandwidth::from_gbs(128.0));
//! assert!(metrics.unloaded_latency.as_ns() > 0.0);
//! let lat = family.latency_at(RwRatio::ALL_READS, Bandwidth::from_gbs(60.0));
//! assert!(lat.as_ns() >= metrics.unloaded_latency.as_ns());
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod curve;
pub mod curveset;
pub mod family;
pub mod metrics;
pub mod simulator;
pub mod synthetic;

pub use curve::{Curve, CurvePoint};
pub use curveset::{CurveSet, CurveSetProvenance, CURVESET_FORMAT_VERSION};
pub use family::CurveFamily;
pub use metrics::{CurveMetrics, FamilyMetrics};
pub use simulator::{MessSimulator, MessSimulatorConfig};
