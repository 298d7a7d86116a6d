//! Criterion benchmark: memory-model simulation speed (paper §V-B).
//!
//! The paper reports that ZSim+Mess adds only ~26 % simulation time over the fixed-latency
//! model while being 13–15× faster than the cycle-accurate external simulators. This bench
//! runs three traffic shapes through every memory model and lets Criterion report the
//! relative cost, which is the reproduction of that comparison:
//!
//! * `stream/<model>` — STREAM-triad-like bandwidth traffic (every core issuing every
//!   cycle, so the issuer cannot skip cycles regardless of the backend);
//! * `pointer-chase/<model>` — a single dependent-load chain, the Mess benchmark's latency
//!   probe (one request in flight, queues almost always empty);
//! * `random-mlp/<model>` — one core issuing independent random loads up to its MSHR
//!   limit, then stalling: the low-occupancy regime in which the backend's queues stay
//!   *non-empty* while every core is blocked. This is the shape on which an exact
//!   `next_event` pays off — a backend that answers `now + 1` whenever work is queued
//!   (the detailed DRAM model before its event engine) drags the whole simulation into
//!   per-cycle lockstep here.
//!
//! A fourth group, `workload-compile/<spec>`, times the *compile stage* on its own — the
//! `WorkloadSpec` → `CompiledWorkload` lowering that runs once per scenario leg, before
//! any engine cycle (simlin's `bytecode_compile`-vs-VM split). Keeping the two stages in
//! one bench file keeps their ratio honest: a compile-pass regression cannot hide inside
//! an execution win or vice versa.
//!
//! # Machine-readable output
//!
//! Besides the Criterion timings, the bench prints one plain line per (shape, model) and
//! one per compile case:
//!
//! ```text
//! sim_ops_per_sec shape=pointer-chase model=detailed-dram value=123456.7
//! compiles_per_sec workload=multichase value=123.4
//! ```
//!
//! and writes `BENCH_simspeed.json` into the working directory (`crates/benches/` under
//! `cargo bench`). The JSON schema is documented in `crates/benches/README.md`; it is the
//! accumulation point for the simulation-throughput trajectory across PRs.
//!
//! # Quick mode
//!
//! `cargo bench --bench simulation_speed -- --quick` (used by CI as a smoke test) shrinks
//! the per-run operation budget and the sample count so the whole bench finishes in
//! seconds while still exercising every model's event-driven path end to end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mess_bench::{PointerChaseConfig, TrafficConfig};
use mess_cpu::{Engine, OpStream, StopCondition};
use mess_platforms::{build_memory_model, MemoryModelKind, PlatformId};
use mess_scenario::engine::scaled_platform;
use mess_scenario::Fidelity;
use mess_workloads::{StreamKernel, WorkloadSpec};
use std::fmt::Write as _;
use std::time::Instant;

/// The models compared, in the paper's presentation order.
const MODELS: [MemoryModelKind; 7] = [
    MemoryModelKind::FixedLatency,
    MemoryModelKind::Md1Queue,
    MemoryModelKind::InternalDdr,
    MemoryModelKind::Dramsim3Like,
    MemoryModelKind::RamulatorLike,
    MemoryModelKind::DetailedDram,
    MemoryModelKind::Mess,
];

/// The traffic shapes, with the memory-operation budget per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Stream,
    PointerChase,
    RandomMlp,
}

impl Shape {
    fn label(self) -> &'static str {
        match self {
            Shape::Stream => "stream",
            Shape::PointerChase => "pointer-chase",
            Shape::RandomMlp => "random-mlp",
        }
    }
}

/// Splitmix-style address hash for the `random-mlp` shape.
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Per-process workload fixture. The heavyweight inputs — the platform spec, the
/// pointer-chase program and the Mess model's reference curve family — are built once,
/// outside the timed region; per-run backend/engine construction stays inside it (standing
/// up a model is part of a simulation run, and it is microseconds next to the run itself).
struct Fixture {
    platform: mess_platforms::PlatformSpec,
    chase: mess_cpu::ProgramStream,
    curves: mess_core::CurveFamily,
}

impl Fixture {
    fn new(chase_ops: u64) -> Self {
        let platform = scaled_platform(&PlatformId::IntelSkylake.spec(), Fidelity::Quick);
        let cpu = platform.cpu_config();
        // One probe core chasing dependent loads: the lowest-occupancy traffic the Mess
        // benchmark generates (its latency probe). Budget 2× the stop condition so the
        // chain never runs dry.
        let chase =
            PointerChaseConfig::sized_against_llc(cpu.llc.capacity_bytes, chase_ops * 2).stream();
        let curves = platform.reference_family();
        Fixture {
            platform,
            chase,
            curves,
        }
    }

    /// Runs `ops` memory operations of `shape` through `kind`; returns the ops completed.
    fn run_traffic(&self, kind: MemoryModelKind, shape: Shape, ops: u64) -> u64 {
        let curves = kind.needs_curves().then(|| self.curves.clone());
        let mut backend = build_memory_model(kind, &self.platform, curves).expect("model builds");
        let cpu = self.platform.cpu_config();
        let streams: Vec<Box<dyn OpStream>> = match shape {
            Shape::Stream => TrafficConfig::new(0.3, 0, cpu.llc.capacity_bytes).lanes(cpu.cores),
            Shape::PointerChase => {
                let mut streams: Vec<Box<dyn OpStream>> = vec![Box::new(self.chase.clone())];
                for _ in 1..cpu.cores {
                    streams.push(Box::new(mess_cpu::VecStream::new(Vec::new())));
                }
                streams
            }
            Shape::RandomMlp => {
                // One core of independent random loads over a far-larger-than-LLC window:
                // it runs ahead until its (generous, GPU-lane-like) MSHR budget fills,
                // then blocks until a completion frees one. A single core cannot saturate
                // the memory system, so core occupancy stays low while the controller
                // queues stay non-empty — the regime that used to degrade to lockstep.
                let lines = (cpu.llc.capacity_bytes / 64).max(1) * 64;
                let ops_budget = ops * 2;
                let loads: Vec<mess_cpu::Op> = (0..ops_budget)
                    .map(|i| mess_cpu::Op::load((mix(i) % lines) * 64))
                    .collect();
                let mut streams: Vec<Box<dyn OpStream>> =
                    vec![Box::new(mess_cpu::VecStream::new(loads))];
                for _ in 1..cpu.cores {
                    streams.push(Box::new(mess_cpu::VecStream::new(Vec::new())));
                }
                streams
            }
        };
        let cpu = match shape {
            Shape::RandomMlp => mess_cpu::CpuConfig {
                mshrs_per_core: 24,
                ..cpu
            },
            _ => cpu,
        };
        let mut engine = Engine::from_boxed(cpu, streams);
        let report = engine.run(backend.as_mut(), StopCondition::MemoryOps(ops), 500_000_000);
        let completed = report.memory.total_completed();
        assert!(completed >= ops, "run must complete its operation budget");
        completed
    }

    /// One timed throughput measurement (outside Criterion, for machine-readable output).
    fn measure_ops_per_sec(&self, kind: MemoryModelKind, shape: Shape, ops: u64) -> f64 {
        // Warm-up run, then a timed run.
        self.run_traffic(kind, shape, ops);
        let start = Instant::now();
        let completed = self.run_traffic(kind, shape, ops);
        let elapsed = start.elapsed().as_secs_f64();
        completed as f64 / elapsed.max(1e-9)
    }
}

/// The workload-compile stage cases: specs spanning the compile pass's cost range, from
/// header-only lowering (STREAM: a four-op body plus trip counts) to materializing a
/// Sattolo lap (multichase: a shuffle of the working set's lines, then one packed op per
/// hop, cut at `min(lines, loads)`).
fn compile_cases() -> Vec<(&'static str, WorkloadSpec)> {
    vec![
        ("stream-triad", WorkloadSpec::stream(StreamKernel::Triad, 4)),
        ("lat-mem-rd", WorkloadSpec::lat_mem_rd(4_000)),
        ("multichase", WorkloadSpec::multichase(4_000)),
        ("gups", WorkloadSpec::gups(4_000)),
    ]
}

/// One timed compile-rate measurement (outside Criterion, for machine-readable output).
fn measure_compiles_per_sec(spec: &WorkloadSpec, llc_bytes: u64, cores: u32, iters: u32) -> f64 {
    // Warm-up compile, then a timed loop.
    let _ = spec.compile(llc_bytes, cores).expect("workload compiles");
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(spec.compile(llc_bytes, cores).expect("workload compiles"));
    }
    let elapsed = start.elapsed().as_secs_f64();
    iters as f64 / elapsed.max(1e-9)
}

fn simulation_speed(c: &mut Criterion) {
    let quick = quick_mode();
    let (stream_ops, chase_ops) = if quick { (2_000, 500) } else { (20_000, 4_000) };
    let fixture = Fixture::new(chase_ops);
    let shapes = [
        (Shape::Stream, stream_ops),
        (Shape::PointerChase, chase_ops),
        (Shape::RandomMlp, chase_ops),
    ];

    for (shape, ops) in shapes {
        let mut group = c.benchmark_group(format!("simulation-speed/{}", shape.label()));
        group.sample_size(if quick { 2 } else { 10 });
        for kind in MODELS {
            group.bench_with_input(
                BenchmarkId::from_parameter(kind.label()),
                &kind,
                |b, &kind| {
                    b.iter(|| fixture.run_traffic(kind, shape, ops));
                },
            );
        }
        group.finish();
    }

    // The per-stage split (simlin's bytecode_compile vs VM benches): the workload-compile
    // pass timed apart from engine execution, so a compile-cost regression is visible
    // separately from a hot-loop one.
    let cpu = fixture.platform.cpu_config();
    let compile_iters = if quick { 20 } else { 200 };
    let mut group = c.benchmark_group("workload-compile");
    group.sample_size(if quick { 2 } else { 10 });
    for (name, spec) in compile_cases() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &spec, |b, spec| {
            b.iter(|| {
                spec.compile(cpu.llc.capacity_bytes, cpu.cores)
                    .expect("workload compiles")
            });
        });
    }
    group.finish();

    // Plain per-model throughput lines + BENCH_simspeed.json, the perf trajectory record.
    let mut json = String::from("{\n  \"benchmark\": \"simulation_speed\",\n  \"unit\": \"sim_ops_per_sec\",\n  \"shapes\": {\n");
    for (i, (shape, ops)) in shapes.into_iter().enumerate() {
        let _ = writeln!(json, "    \"{}\": {{", shape.label());
        for (j, kind) in MODELS.into_iter().enumerate() {
            let rate = fixture.measure_ops_per_sec(kind, shape, ops);
            println!(
                "sim_ops_per_sec shape={} model={} value={rate:.1}",
                shape.label(),
                kind.label()
            );
            let comma = if j + 1 < MODELS.len() { "," } else { "" };
            let _ = writeln!(json, "      \"{}\": {rate:.1}{comma}", kind.label());
        }
        let comma = if i + 1 < shapes.len() { "," } else { "" };
        let _ = writeln!(json, "    }}{comma}");
    }
    json.push_str(
        "  },\n  \"compile\": {\n    \"unit\": \"compiles_per_sec\",\n    \"workloads\": {\n",
    );
    let cases = compile_cases();
    for (j, (name, spec)) in cases.iter().enumerate() {
        let rate = measure_compiles_per_sec(spec, cpu.llc.capacity_bytes, cpu.cores, compile_iters);
        println!("compiles_per_sec workload={name} value={rate:.1}");
        let comma = if j + 1 < cases.len() { "," } else { "" };
        let _ = writeln!(json, "      \"{name}\": {rate:.1}{comma}");
    }
    json.push_str("    }\n  }\n}\n");
    if let Err(err) = std::fs::write("BENCH_simspeed.json", &json) {
        eprintln!("warning: could not write BENCH_simspeed.json: {err}");
    }
}

criterion_group!(benches, simulation_speed);
criterion_main!(benches);
