//! Engine metric handles, labeled by backend kind and registered once.
//!
//! The engine's cycle loop never touches these: [`crate::engine::Engine::run`] tallies
//! plain local integers unconditionally (a handful of `u64` adds per simulated *event*,
//! not per cycle) and flushes them here once per run, only when `mess_obs::enabled()`.
//! That keeps the enabled and disabled hot paths literally identical.

use std::sync::OnceLock;

use mess_obs::{CounterVec, Registry};

pub(crate) struct EngineMetrics {
    /// `mess_engine_runs_total{backend=}`: engine runs completed.
    pub runs: CounterVec,
    /// `mess_engine_ticks_total{backend=}`: cycles actually ticked (loop iterations).
    pub ticks: CounterVec,
    /// `mess_engine_cycles_total{backend=}`: simulated cycles elapsed.
    pub cycles: CounterVec,
    /// `mess_engine_cycles_skipped_total{backend=}`: cycles jumped over by event skipping.
    pub cycles_skipped: CounterVec,
    /// `mess_engine_sim_ops_total{backend=}`: memory operations completed.
    pub sim_ops: CounterVec,
    /// `mess_engine_issued_requests_total{backend=}`: requests accepted by the backend.
    pub issued: CounterVec,
    /// `mess_engine_drain_batches_total{backend=}`: non-empty completion drains (mean
    /// batch size = `sim_ops / drain_batches`).
    pub drain_batches: CounterVec,
    /// `mess_engine_llc_hits_total{backend=}`: LLC load and store hits.
    pub llc_hits: CounterVec,
    /// `mess_engine_llc_misses_total{backend=}`: LLC load and store misses (each a fill).
    pub llc_misses: CounterVec,
    /// `mess_engine_llc_writebacks_total{backend=}`: dirty LLC evictions (each a write).
    pub llc_writebacks: CounterVec,
}

impl EngineMetrics {
    pub(crate) fn get() -> &'static EngineMetrics {
        static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let registry = Registry::global();
            let expect = "mess_engine metric names are registered once";
            EngineMetrics {
                runs: registry
                    .counter_vec("mess_engine_runs_total", "Engine runs completed")
                    .expect(expect),
                ticks: registry
                    .counter_vec(
                        "mess_engine_ticks_total",
                        "Cycles actually ticked by the main loop",
                    )
                    .expect(expect),
                cycles: registry
                    .counter_vec("mess_engine_cycles_total", "Simulated cycles elapsed")
                    .expect(expect),
                cycles_skipped: registry
                    .counter_vec(
                        "mess_engine_cycles_skipped_total",
                        "Cycles jumped over by event skipping (cycles - ticks)",
                    )
                    .expect(expect),
                sim_ops: registry
                    .counter_vec(
                        "mess_engine_sim_ops_total",
                        "Memory operations completed (drained)",
                    )
                    .expect(expect),
                issued: registry
                    .counter_vec(
                        "mess_engine_issued_requests_total",
                        "Memory requests accepted by the backend",
                    )
                    .expect(expect),
                drain_batches: registry
                    .counter_vec(
                        "mess_engine_drain_batches_total",
                        "Non-empty completion drains; mean batch = sim_ops / drain_batches",
                    )
                    .expect(expect),
                llc_hits: registry
                    .counter_vec("mess_engine_llc_hits_total", "LLC load and store hits")
                    .expect(expect),
                llc_misses: registry
                    .counter_vec(
                        "mess_engine_llc_misses_total",
                        "LLC load and store misses, each a memory fill",
                    )
                    .expect(expect),
                llc_writebacks: registry
                    .counter_vec(
                        "mess_engine_llc_writebacks_total",
                        "Dirty LLC evictions, each a memory write",
                    )
                    .expect(expect),
            }
        })
    }

    /// The handles when observability is enabled, `None` (one relaxed load) otherwise.
    pub(crate) fn if_enabled() -> Option<&'static EngineMetrics> {
        mess_obs::enabled().then(EngineMetrics::get)
    }
}
