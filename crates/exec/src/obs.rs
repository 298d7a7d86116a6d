//! `mess-exec`'s metric handles, registered once into the global `mess-obs` registry.
//!
//! Everything here is gated by the caller on [`mess_obs::enabled`] — the pool takes one
//! relaxed-load branch when observability is off and never touches these handles. The
//! gauge discipline is add/sub (never `set`), so concurrent pools in one process compose
//! into a meaningful process-wide backlog figure.

use std::sync::OnceLock;

use mess_obs::{Counter, Gauge, Histogram, Registry, DEFAULT_LATENCY_BUCKETS};
use std::sync::Arc;

pub(crate) struct ExecMetrics {
    /// `mess_exec_pool_items_total`: items executed by `par_map` pools (parallel path) —
    /// sweep points, legs and campaign members alike.
    pub items: Arc<Counter>,
    /// `mess_exec_queue_depth`: items currently sitting in pull queues, not yet picked up.
    pub queue_depth: Arc<Gauge>,
    /// `mess_exec_job_wait_seconds`: time from map start to an item's pickup.
    pub wait: Arc<Histogram>,
    /// `mess_exec_job_run_seconds`: closure execution time per item.
    pub run: Arc<Histogram>,
    /// `mess_exec_cancels_total`: cancel tokens fired (first `cancel()` per token).
    pub cancels: Arc<Counter>,
}

impl ExecMetrics {
    /// The process-wide handles; registration happens exactly once.
    pub(crate) fn get() -> &'static ExecMetrics {
        static METRICS: OnceLock<ExecMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let registry = Registry::global();
            let expect = "mess_exec metric names are registered once";
            ExecMetrics {
                items: registry
                    .counter(
                        "mess_exec_pool_items_total",
                        "Items executed by parallel par_map pools",
                    )
                    .expect(expect),
                queue_depth: registry
                    .gauge(
                        "mess_exec_queue_depth",
                        "Items waiting in pull queues, not yet picked up by a worker",
                    )
                    .expect(expect),
                wait: registry
                    .histogram(
                        "mess_exec_job_wait_seconds",
                        "Time from map start to item pickup",
                        DEFAULT_LATENCY_BUCKETS,
                    )
                    .expect(expect),
                run: registry
                    .histogram(
                        "mess_exec_job_run_seconds",
                        "Per-item closure execution time",
                        DEFAULT_LATENCY_BUCKETS,
                    )
                    .expect(expect),
                cancels: registry
                    .counter(
                        "mess_exec_cancels_total",
                        "Cancel tokens fired (first cancel() per token)",
                    )
                    .expect(expect),
            }
        })
    }

    /// The handles when observability is enabled, `None` (one relaxed load) otherwise.
    pub(crate) fn if_enabled() -> Option<&'static ExecMetrics> {
        mess_obs::enabled().then(ExecMetrics::get)
    }
}
