//! Criterion benchmark: the parallel characterization sweep versus the sequential one.
//!
//! The Mess characterization is embarrassingly parallel at the point level: every
//! (store-mix, pause) pair is an independent simulation. This bench runs the same
//! quick-platform sweep through `characterize_with` at 1 and 4 workers and prints the
//! wall-clock speedup. The acceptance bar is ≥2× at 4 workers **on a host with ≥4 hardware
//! threads**; on fewer cores the pool degrades gracefully towards 1× (the determinism suite
//! separately guarantees the *output* is identical either way).

use criterion::{criterion_group, criterion_main, Criterion};
use mess_bench::sweep::{characterize_with, SweepConfig};
use mess_exec::ExecConfig;
use mess_platforms::PlatformId;
use mess_scenario::engine::scaled_platform;
use mess_scenario::Fidelity;
use std::time::Instant;

/// Enough points (2 mixes × 8 pauses) that a 4-worker pool stays busy and load-imbalance
/// between cheap (high-pause) and expensive (zero-pause) points washes out.
fn sweep() -> SweepConfig {
    SweepConfig {
        store_mixes: vec![0.0, 1.0],
        pause_levels: vec![400, 200, 120, 56, 28, 12, 4, 0],
        chase_loads: 150,
        max_cycles_per_point: 800_000,
    }
}

fn run_sweep(threads: usize) -> usize {
    let platform = scaled_platform(&PlatformId::IntelSkylake.spec(), Fidelity::Quick);
    let c = characterize_with(
        "parallel-sweep",
        &platform.cpu_config(),
        || platform.build_dram(),
        &sweep(),
        &ExecConfig::with_threads(threads),
    )
    .expect("sweep configuration is valid");
    c.points.len()
}

fn parallel_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel-sweep");
    group.sample_size(10);
    group.bench_function("characterize/1-thread", |b| b.iter(|| run_sweep(1)));
    group.bench_function("characterize/4-threads", |b| b.iter(|| run_sweep(4)));
    group.finish();
}

/// Headline number: wall-clock speedup of the 4-worker sweep over the sequential one.
fn speedup(_c: &mut Criterion) {
    let time = |threads: usize| {
        let start = Instant::now();
        let points = run_sweep(threads);
        (start.elapsed().as_secs_f64(), points)
    };
    // Warm up once per configuration, then measure.
    let _ = (run_sweep(1), run_sweep(4));
    let (sequential, points) = time(1);
    let (parallel, _) = time(4);
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "parallel-sweep/speedup  {points} points: {sequential:.2}s @ 1 worker, {parallel:.2}s \
         @ 4 workers -> {:.2}x (host has {available} hardware threads; acceptance bar: >=2x \
         at 4 workers on a >=4-thread host)",
        sequential / parallel
    );
}

criterion_group!(benches, parallel_sweep, speedup);
criterion_main!(benches);
