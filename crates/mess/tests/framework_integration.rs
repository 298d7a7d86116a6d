//! Cross-crate integration tests: the full pipeline from benchmark to simulator to profiler.

use mess::bench::sweep::{characterize, SweepConfig};
use mess::core::metrics::FamilyMetrics;
use mess::core::{MessSimulator, MessSimulatorConfig};
use mess::cpu::{Engine, OpStream, StopCondition};
use mess::platforms::{build_memory_model, MemoryModelKind, PlatformId};
use mess::profiler::{BandwidthSample, Profiler};
use mess::scenario::{builtin_spec, run_scenario_with, Fidelity, PlatformRef, ScenarioOptions};
use mess::types::{Bandwidth, MemoryBackend, RwRatio};
use mess::workloads::stream::{StreamConfig, StreamKernel};

fn quick_sweep() -> SweepConfig {
    SweepConfig {
        store_mixes: vec![0.0, 1.0],
        pause_levels: vec![120, 20, 0],
        chase_loads: 120,
        max_cycles_per_point: 600_000,
    }
}

/// A small Skylake-like platform used by the integration tests (full core counts are exercised
/// by the harness binary and benches).
fn small_platform() -> mess::platforms::PlatformSpec {
    PlatformRef::quick(PlatformId::IntelSkylake).resolve()
}

#[test]
fn benchmark_to_simulator_pipeline_preserves_the_memory_behaviour() {
    let platform = small_platform();

    // 1. Characterize the detailed DRAM reference with the Mess benchmark (each sweep point
    //    builds a private DRAM system on its worker).
    let characterization = characterize(
        platform.name,
        &platform.cpu_config(),
        || platform.build_dram(),
        &quick_sweep(),
    )
    .expect("sweep is valid");
    let reference_metrics =
        FamilyMetrics::compute(&characterization.family, platform.theoretical_bandwidth());
    assert!(reference_metrics.unloaded_latency.as_ns() > 40.0);
    assert!(
        reference_metrics.saturated_bandwidth_range.high.as_gbs()
            <= platform.theoretical_bandwidth().as_gbs()
    );

    // 2. Feed the measured curves to the Mess analytical simulator and characterize *it*.
    let config = MessSimulatorConfig::new(
        characterization.family.clone(),
        platform.frequency,
        platform.cpu.on_chip_latency,
    );
    let mess_factory = || MessSimulator::new(config.clone()).expect("measured curves are valid");
    let simulated = characterize("mess", &platform.cpu_config(), mess_factory, &quick_sweep())
        .expect("sweep is valid");
    let simulated_metrics =
        FamilyMetrics::compute(&simulated.family, platform.theoretical_bandwidth());

    // 3. The simulator must track the curves it was fed much more closely than a naive model:
    //    compare unloaded latencies and peak bandwidth.
    let unloaded_err = (simulated_metrics.unloaded_latency.as_ns()
        - reference_metrics.unloaded_latency.as_ns())
    .abs()
        / reference_metrics.unloaded_latency.as_ns();
    assert!(
        unloaded_err < 0.5,
        "unloaded latency error {unloaded_err:.2}"
    );
    let bw_err = (simulated_metrics.saturated_bandwidth_range.high.as_gbs()
        - reference_metrics.saturated_bandwidth_range.high.as_gbs())
    .abs()
        / reference_metrics.saturated_bandwidth_range.high.as_gbs();
    assert!(bw_err < 0.6, "peak bandwidth error {bw_err:.2}");
}

#[test]
fn stream_triad_ipc_ranks_memory_models_like_the_paper() {
    let platform = small_platform();
    let triad = StreamConfig {
        kernel: StreamKernel::Triad,
        array_bytes: platform.cpu.llc.capacity_bytes * 4,
        iterations: 1,
        cores: platform.cores,
    };
    let run_ipc = |backend: &mut dyn MemoryBackend| {
        let streams: Vec<Box<dyn OpStream>> = triad.streams();
        let mut engine = Engine::from_boxed(platform.cpu_config(), streams);
        engine
            .run(backend, StopCondition::AllStreamsDone, 20_000_000)
            .ipc()
    };

    let mut dram = platform.build_dram();
    let reference = run_ipc(&mut dram);

    let mut fixed = build_memory_model(MemoryModelKind::FixedLatency, &platform, None).unwrap();
    let fixed_ipc = run_ipc(fixed.as_mut());

    let mut mess = build_memory_model(
        MemoryModelKind::Mess,
        &platform,
        Some(platform.reference_family()),
    )
    .unwrap();
    let mess_ipc = run_ipc(mess.as_mut());

    // The fixed-latency model has no bandwidth limit, so it overestimates the IPC of a
    // bandwidth-bound kernel; the Mess simulator must stay closer to the reference.
    assert!(
        fixed_ipc > reference,
        "fixed {fixed_ipc} vs reference {reference}"
    );
    let fixed_err = (fixed_ipc - reference).abs() / reference;
    let mess_err = (mess_ipc - reference).abs() / reference;
    assert!(
        mess_err < fixed_err,
        "Mess ({mess_err:.2}) must be more accurate than fixed latency ({fixed_err:.2})"
    );
}

#[test]
fn profiler_places_benchmark_measurements_consistently() {
    let platform = small_platform();
    let characterization = characterize(
        platform.name,
        &platform.cpu_config(),
        || platform.build_dram(),
        &quick_sweep(),
    )
    .expect("sweep is valid");

    let profiler = Profiler::new(characterization.family.clone());
    // The most intense measured point must score higher than the least intense one.
    let least = characterization
        .points
        .iter()
        .min_by(|a, b| a.bandwidth.as_gbs().total_cmp(&b.bandwidth.as_gbs()))
        .unwrap();
    let most = characterization
        .points
        .iter()
        .max_by(|a, b| a.bandwidth.as_gbs().total_cmp(&b.bandwidth.as_gbs()))
        .unwrap();
    let low = profiler.place(&BandwidthSample::new(0.0, least.bandwidth, least.ratio));
    let high = profiler.place(&BandwidthSample::new(1.0, most.bandwidth, most.ratio));
    assert!(high.stress_score >= low.stress_score);
    assert!(high.latency >= low.latency);
}

#[test]
fn every_experiment_driver_runs_at_quick_fidelity() {
    // fig2/table1/fig5/fig6/fig7/fig10/fig11/fig14/fig15/fig18 are exercised by the scenario
    // crate's per-section tests; here we run the remaining builtin specs end-to-end through
    // the public entry point.
    for id in ["fig4", "fig12", "fig13"] {
        let spec = builtin_spec(id, Fidelity::Quick).expect("known experiment");
        let report = run_scenario_with(&spec, &ScenarioOptions::default())
            .expect("builtin specs run")
            .report;
        assert!(!report.rows.is_empty(), "{id} produced no rows");
        assert_eq!(report.id, id);
    }
    assert!(builtin_spec("fig99", Fidelity::Quick).is_none());
}

#[test]
fn cxl_curves_differ_from_ddr_curves_in_the_documented_way() {
    // DDR: best bandwidth for pure reads. CXL: best bandwidth for balanced traffic.
    let ddr = PlatformId::IntelSkylake.spec().reference_family();
    let cxl = mess::cxl::manufacturer_curves();
    assert!(
        ddr.max_bandwidth_at(RwRatio::ALL_READS).as_gbs()
            > ddr.max_bandwidth_at(RwRatio::HALF).as_gbs()
    );
    assert!(
        cxl.max_bandwidth_at(RwRatio::HALF).as_gbs()
            > cxl.max_bandwidth_at(RwRatio::ALL_READS).as_gbs()
    );
    assert!(cxl.max_bandwidth().as_gbs() < Bandwidth::from_gbs(50.0).as_gbs());
}
