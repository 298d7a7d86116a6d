//! Service-layer metric handles, registered once.
//!
//! Everything here is a mirror of state the daemon already tracks for `/v1/stats` —
//! the counters are bumped at the same sites, so `/v1/metrics` (Prometheus text) and
//! `/v1/stats` (JSON) can never disagree about what happened. Gauges follow the
//! add/sub discipline so several daemons in one process compose.

use std::sync::{Arc, OnceLock};

use mess_obs::{Counter, Gauge, Histogram, Registry, DEFAULT_LATENCY_BUCKETS};

pub(crate) struct ServeMetrics {
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
    pub(crate) fn get() -> &'static ServeMetrics {
        static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let registry = Registry::global();
            let expect = "mess_serve metric names are registered once";
            ServeMetrics {
                requests: registry
                    .counter("mess_serve_requests_total", "HTTP requests answered")
                    .expect(expect),
                request_latency: registry
                    .histogram(
                        "mess_serve_request_latency_seconds",
                        "Request handling latency in seconds",
                        DEFAULT_LATENCY_BUCKETS,
                    )
                    .expect(expect),
                runs_executed: registry
                    .counter(
                        "mess_serve_runs_executed_total",
                        "Runs that executed the engine",
                    )
                    .expect(expect),
                runs_panicked: registry
                    .counter(
                        "mess_serve_runs_panicked_total",
                        "Runs whose engine panicked",
                    )
                    .expect(expect),
                cache_hits: registry
                    .counter(
                        "mess_serve_cache_hits_total",
                        "Submissions answered from the result cache",
                    )
                    .expect(expect),
                cache_misses: registry
                    .counter(
                        "mess_serve_cache_misses_total",
                        "Cache-consulting submissions that missed",
                    )
                    .expect(expect),
                cache_refresh: registry
                    .counter(
                        "mess_serve_cache_refresh_total",
                        "Refresh runs that overwrote their cache entry",
                    )
                    .expect(expect),
                deduplicated: registry
                    .counter(
                        "mess_serve_deduplicated_total",
                        "Submissions coalesced onto an in-flight run",
                    )
                    .expect(expect),
                queue_depth: registry
                    .gauge("mess_serve_queue_depth", "Runs in the admission queue")
                    .expect(expect),
                running_runs: registry
                    .gauge("mess_serve_running_runs", "Runs executing right now")
                    .expect(expect),
            }
        })
    }

    /// The handles when observability is enabled, `None` (one relaxed load) otherwise.
    pub(crate) fn if_enabled() -> Option<&'static ServeMetrics> {
        mess_obs::enabled().then(ServeMetrics::get)
    }
}
