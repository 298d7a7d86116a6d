//! `mess-obs`: the observability subsystem — metrics and tracing that cost (almost)
//! nothing when nobody is looking.
//!
//! The Mess methodology is measurement: bandwidth–latency curves as the ground truth of a
//! memory system. This crate applies the same discipline to the framework itself. It
//! provides two independent channels:
//!
//! * **Metrics** ([`metrics`]): monotonic [`Counter`]s, up/down [`Gauge`]s and bucketed
//!   [`Histogram`]s behind one process-global [`Registry`], rendered in the Prometheus
//!   text exposition format (`messd` serves it at `GET /v1/metrics`, followed by its own
//!   per-daemon registry; the harness prints it under `--metrics`).
//! * **Tracing** ([`trace`]): hierarchical timed [`Span`]s collected into an in-memory
//!   buffer and written as NDJSON (`mess-harness --trace-out <file>`).
//!
//! # The zero-cost contract
//!
//! Both channels are **off by default** and gated on one relaxed atomic load each
//! ([`enabled`] for metrics, [`trace::active`] for spans). Every instrumentation site in
//! the workspace checks the gate first (except messd's per-daemon counters, which are the
//! source of its `/v1/stats` and always count), so a disabled build path costs one
//! predictable branch — no allocation, no atomic read-modify-write, no lock. Hot loops
//! (the CPU engine's cycle loop) go further: they accumulate plain local integers
//! unconditionally and flush them to the registry once per run, so even the *enabled*
//! path adds nothing per simulated cycle.
//!
//! # The determinism contract
//!
//! Observability is write-only with respect to experiment results: no simulation,
//! scenario, report or cache-key code path ever *reads* a metric, a span or a clock
//! owned by this crate. Reports, CurveSet artifacts and `spec_digest()` cache keys are
//! byte-identical with observability on or off, at any worker count — pinned by
//! `crates/harness/tests/observability.rs`.
//!
//! # Naming scheme
//!
//! Metric names are snake_case, prefixed by the owning layer (`mess_exec_*`,
//! `mess_engine_*`, `mess_scenario_*`, `mess_serve_*`), with Prometheus conventions for
//! units and kinds: counters end in `_total`, durations are `_seconds`, gauges name the
//! instantaneous quantity (`mess_serve_queue_depth`). The registry *enforces* the
//! snake_case rule and rejects duplicate registrations — see [`Registry`].

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    Counter, CounterVec, Gauge, GaugeVec, Histogram, HistogramVec, MetricError, Registry,
    DEFAULT_LATENCY_BUCKETS,
};
pub use trace::{Span, SpanId, TraceRecord};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// `true` once [`set_enabled`]`(true)` was called: instrumentation sites update the
/// global registry. One relaxed load — this is the whole cost of a disabled metric.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns metric collection on or off process-wide. `messd` enables it at startup; the
/// harness enables it for `--metrics`. Flipping the switch never changes any experiment
/// output — that is the determinism contract this crate is built around.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}
