//! Service-layer metric handles, one set per daemon.
//!
//! Each [`Daemon`](crate::queue::Daemon) registers these in a registry of its own, and
//! they are the only record of what it did: `/v1/stats` (JSON) reads its lifetime
//! counters from them and `/v1/metrics` (Prometheus text) renders them after the
//! process-global families, so the two endpoints can never disagree. Being per daemon,
//! the counts stay exact when one process runs several daemons.

use std::sync::Arc;

use mess_obs::{Counter, Gauge, Histogram, Registry, DEFAULT_LATENCY_BUCKETS};

#[derive(Debug)]
pub(crate) struct ServeMetrics {
    /// The daemon's own registry, holding every handle below.
    pub registry: Registry,
    /// `mess_serve_requests_total`: HTTP requests answered (any status).
    pub requests: Arc<Counter>,
    /// `mess_serve_request_latency_seconds`: wall time from parsed request to response
    /// written, across all endpoints.
    pub request_latency: Arc<Histogram>,
    /// `mess_serve_runs_executed_total`: runs that actually executed the engine.
    pub runs_executed: Arc<Counter>,
    /// `mess_serve_runs_panicked_total`: runs whose engine panicked (reported as
    /// [`mess_types::MessError::Panicked`]).
    pub runs_panicked: Arc<Counter>,
    /// `mess_serve_cache_hits_total`: submissions answered straight from the cache.
    pub cache_hits: Arc<Counter>,
    /// `mess_serve_cache_misses_total`: `cache=use` submissions that missed and ran.
    pub cache_misses: Arc<Counter>,
    /// `mess_serve_cache_refresh_total`: `cache=refresh` runs that re-ran and
    /// overwrote their cache entry.
    pub cache_refresh: Arc<Counter>,
    /// `mess_serve_deduplicated_total`: submissions coalesced onto an in-flight run.
    pub deduplicated: Arc<Counter>,
    /// `mess_serve_queue_depth`: runs waiting in the admission queue right now.
    pub queue_depth: Arc<Gauge>,
    /// `mess_serve_running_runs`: runs executing on a worker right now.
    pub running_runs: Arc<Gauge>,
}

impl ServeMetrics {
    /// Registers every handle in a fresh registry.
    pub(crate) fn new() -> ServeMetrics {
        let registry = Registry::new();
        let expect = "mess_serve metric names are registered once per registry";
        let counter = |name: &str, help: &str| registry.counter(name, help).expect(expect);
        let gauge = |name: &str, help: &str| registry.gauge(name, help).expect(expect);
        ServeMetrics {
            requests: counter("mess_serve_requests_total", "HTTP requests answered"),
            request_latency: registry
                .histogram(
                    "mess_serve_request_latency_seconds",
                    "Request handling latency in seconds",
                    DEFAULT_LATENCY_BUCKETS,
                )
                .expect(expect),
            runs_executed: counter(
                "mess_serve_runs_executed_total",
                "Runs that executed the engine",
            ),
            runs_panicked: counter(
                "mess_serve_runs_panicked_total",
                "Runs whose engine panicked",
            ),
            cache_hits: counter(
                "mess_serve_cache_hits_total",
                "Submissions answered from the result cache",
            ),
            cache_misses: counter(
                "mess_serve_cache_misses_total",
                "Cache-consulting submissions that missed",
            ),
            cache_refresh: counter(
                "mess_serve_cache_refresh_total",
                "Refresh runs that overwrote their cache entry",
            ),
            deduplicated: counter(
                "mess_serve_deduplicated_total",
                "Submissions coalesced onto an in-flight run",
            ),
            queue_depth: gauge("mess_serve_queue_depth", "Runs in the admission queue"),
            running_runs: gauge("mess_serve_running_runs", "Runs executing right now"),
            registry,
        }
    }
}
