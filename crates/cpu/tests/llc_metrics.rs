//! The engine flushes each run's LLC counters to the metric registry. This binary runs
//! nothing else, so no other test races the process-global enable flag or the counters.

use mess_cpu::{CacheConfig, CpuConfig, Engine, Op, StopCondition, VecStream};
use mess_memmodels::FixedLatencyModel;
use mess_types::{Frequency, Latency, MemoryBackend, CACHE_LINE_BYTES};

/// The value of the `name{backend="<backend>"}` series in the global registry, 0 if absent.
fn counter(name: &str, backend: &str) -> u64 {
    let series = format!("{name}{{backend=\"{backend}\"}} ");
    mess_obs::Registry::global()
        .render_prometheus()
        .lines()
        .find_map(|line| line.strip_prefix(&series))
        .map_or(0, |value| value.parse().expect("a counter value"))
}

#[test]
fn an_llc_resident_run_reports_its_hits_misses_and_writebacks() {
    // 64 sets of one way: 64 lines fit, the next 64 evict them.
    let config = CpuConfig {
        llc: CacheConfig::new(64 * CACHE_LINE_BYTES, 1),
        ..CpuConfig::server_class(1, Frequency::from_ghz(2.0))
    };
    let mut backend = FixedLatencyModel::new(Latency::from_ns(50.0), config.frequency);
    let line = |i: u64| i * CACHE_LINE_BYTES;
    // Dirty 64 lines, hit all of them, then evict them with 64 other lines.
    let ops: Vec<Op> = (0..64)
        .map(|i| Op::store(line(i)))
        .chain((0..64).map(|i| Op::load(line(i))))
        .chain((64..128).map(|i| Op::load(line(i))))
        .collect();
    let mut engine = Engine::new(config, vec![VecStream::new(ops)]);

    mess_obs::set_enabled(true);
    let report = engine.run(&mut backend, StopCondition::AllStreamsDone, 10_000_000);
    // A second run has nothing left to execute: it must add nothing, although the cache's
    // own counters still hold the first run's.
    engine.run(&mut backend, StopCondition::AllStreamsDone, 10_000_000);
    mess_obs::set_enabled(false);

    let llc = report.llc;
    assert_eq!(
        (
            llc.load_hits,
            llc.store_misses + llc.load_misses,
            llc.writebacks
        ),
        (64, 128, 64)
    );
    let backend = backend.name();
    assert_eq!(counter("mess_engine_runs_total", backend), 2);
    assert_eq!(counter("mess_engine_llc_hits_total", backend), 64);
    assert_eq!(counter("mess_engine_llc_misses_total", backend), 128);
    assert_eq!(counter("mess_engine_llc_writebacks_total", backend), 64);
}
