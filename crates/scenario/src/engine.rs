//! The scenario engine: one `characterize → simulate → report` pipeline for every spec.
//!
//! [`run_scenario_observed`] resolves a [`ScenarioSpec`] through the lower-layer
//! registries (platforms, models, workloads, sweeps) and executes it, narrating its legs to
//! a [`ProgressSink`]; [`run_campaign_observed`] fans a [`CampaignSpec`] out, one
//! `par_map` item per scenario. Campaign members and parallel legs alike use the
//! order-preserving `par_map`, so reports are byte-identical at any worker count.
//!
//! The free functions in this module (trace capture, trace folding, STREAM reference
//! bandwidths, the quick-fidelity platform scaling) are the plumbing the scenario kinds
//! share.

use crate::progress::{NoProgress, ProgressEvent, ProgressSink};
use crate::report::{ExperimentReport, Fidelity};
use crate::spec::{CampaignSpec, ScenarioKind, ScenarioSpec};
use mess_bench::sweep::characterize_spec;
use mess_bench::trace::{replay, RecordingBackend, Trace};
use mess_bench::{SweepSpec, TrafficConfig};
use mess_core::curveset::{CurveSet, CurveSetProvenance};
use mess_core::metrics::FamilyMetrics;
use mess_core::{CurveFamily, MessSimulator, MessSimulatorConfig};
use mess_cpu::{Engine, OpStream, RunReport, StopCondition};
use mess_exec::ExecConfig;
use mess_platforms::{
    CurveSourceSpec, MemoryModelKind, ModelFactory, ModelSpec, PlatformRef, PlatformSpec,
};
use mess_profiler::{BandwidthSample, Profiler, Timeline};
use mess_types::{
    AccessKind, Bandwidth, Cycle, MemoryBackend, MessError, RwRatio, CACHE_LINE_BYTES,
};
use mess_workloads::spec::WorkloadSpec;
use mess_workloads::spec_suite::{classify_utilisation, IntensityClass};
use mess_workloads::stream::{StreamConfig, StreamKernel};

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Shrinks a platform's core count for quick runs so unit tests stay fast while the full runs
/// keep the paper's configuration.
///
/// The same scaling is available declaratively as [`PlatformRef::quick`]; this function
/// exists for callers that already hold a (possibly modified) [`PlatformSpec`].
pub fn scaled_platform(platform: &PlatformSpec, fidelity: Fidelity) -> PlatformSpec {
    match fidelity {
        Fidelity::Full => platform.clone(),
        Fidelity::Quick => {
            let mut p = platform.clone();
            p.cores = p.cores.min(8);
            p.cpu = p.cpu_config_with_cores(p.cores);
            p.channels = p.channels.clamp(1, 4);
            p
        }
    }
}

/// Runs `streams` on `platform`'s CPU configuration against `backend` and returns the report.
pub fn run_streams(
    platform: &PlatformSpec,
    streams: Vec<Box<dyn OpStream>>,
    backend: &mut dyn MemoryBackend,
    max_cycles: u64,
) -> RunReport {
    let mut engine = Engine::from_boxed(platform.cpu_config(), streams);
    engine.run(backend, StopCondition::AllStreamsDone, max_cycles)
}

/// Resolves `workload` for `platform` and returns the run's IPC.
pub fn spec_workload_ipc(
    workload: &WorkloadSpec,
    platform: &PlatformSpec,
    backend: &mut dyn MemoryBackend,
    max_cycles: u64,
) -> f64 {
    let streams = workload
        .streams(platform.cpu.llc.capacity_bytes, platform.cpu.cores)
        .expect("workload specs are validated before execution");
    run_streams(platform, streams, backend, max_cycles).ipc()
}

/// Absolute relative error of `simulated` IPC with respect to `reference` IPC, in percent.
pub fn ipc_error_percent(simulated: f64, reference: f64) -> f64 {
    if reference.abs() < 1e-12 {
        return 0.0;
    }
    ((simulated - reference) / reference).abs() * 100.0
}

/// The six validation workloads of the IPC-error comparisons (Figs. 11 and 13).
///
/// Each one is now a thin name over a [`WorkloadSpec`]: [`ValidationWorkload::spec`] builds
/// the declarative spec and [`ValidationWorkload::streams`] resolves it, so the validation
/// set and any scenario file construct their workloads through the same pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValidationWorkload {
    /// STREAM Copy.
    StreamCopy,
    /// STREAM Scale.
    StreamScale,
    /// STREAM Add.
    StreamAdd,
    /// STREAM Triad.
    StreamTriad,
    /// LMbench `lat_mem_rd`.
    Lmbench,
    /// Google multichase.
    Multichase,
}

impl ValidationWorkload {
    /// The workloads in the order the paper's bar charts list them.
    pub const ALL: [ValidationWorkload; 6] = [
        ValidationWorkload::StreamCopy,
        ValidationWorkload::StreamScale,
        ValidationWorkload::StreamAdd,
        ValidationWorkload::StreamTriad,
        ValidationWorkload::Lmbench,
        ValidationWorkload::Multichase,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ValidationWorkload::StreamCopy => "STREAM:copy",
            ValidationWorkload::StreamScale => "STREAM:scale",
            ValidationWorkload::StreamAdd => "STREAM:add",
            ValidationWorkload::StreamTriad => "STREAM:triad",
            ValidationWorkload::Lmbench => "LMbench",
            ValidationWorkload::Multichase => "multichase",
        }
    }

    /// The workload's declarative spec, scaled by `fidelity`.
    pub fn spec(self, fidelity: Fidelity) -> WorkloadSpec {
        let scale = match fidelity {
            Fidelity::Quick => 1,
            Fidelity::Full => 4,
        };
        match self {
            ValidationWorkload::StreamCopy => WorkloadSpec::stream(StreamKernel::Copy, scale),
            ValidationWorkload::StreamScale => WorkloadSpec::stream(StreamKernel::Scale, scale),
            ValidationWorkload::StreamAdd => WorkloadSpec::stream(StreamKernel::Add, scale),
            ValidationWorkload::StreamTriad => WorkloadSpec::stream(StreamKernel::Triad, scale),
            ValidationWorkload::Lmbench => WorkloadSpec::lat_mem_rd(3_000 * scale),
            ValidationWorkload::Multichase => WorkloadSpec::multichase(3_000 * scale),
        }
    }

    /// Builds the workload's per-core op streams for `platform`, scaled by `fidelity`.
    pub fn streams(self, platform: &PlatformSpec, fidelity: Fidelity) -> Vec<Box<dyn OpStream>> {
        let cpu = platform.cpu_config();
        self.spec(fidelity)
            .streams(cpu.llc.capacity_bytes, cpu.cores)
            .expect("validation workload specs are always valid")
    }
}

/// Measures the STREAM kernels' sustained bandwidth on the platform's reference memory (the
/// dashed reference lines of Figs. 2 and 3), using STREAM's own application-level
/// accounting. The four kernels run in parallel, each against a private DRAM system; arrays
/// are `llc_multiple` times the LLC.
pub fn stream_bandwidths(
    platform: &PlatformSpec,
    llc_multiple: u64,
    exec: &ExecConfig,
) -> Vec<(StreamKernel, f64)> {
    let cpu = platform.cpu_config();
    mess_exec::par_map_with(exec, StreamKernel::ALL.to_vec(), |_, kernel| {
        let config = StreamConfig {
            kernel,
            array_bytes: (cpu.llc.capacity_bytes * llc_multiple).max(1 << 22),
            iterations: 1,
            cores: cpu.cores,
        };
        let mut dram = platform.build_dram();
        let report = run_streams(platform, config.streams(), &mut dram, 80_000_000);
        let gbs = config.stream_bytes() as f64 / report.elapsed().as_ns();
        (kernel, gbs)
    })
}

/// Captures a Mess-style memory trace from the platform's reference memory at a given
/// traffic level.
pub fn capture_trace(platform: &PlatformSpec, pause: u32, memory_ops: u64) -> Trace {
    let cpu = platform.cpu_config();
    let traffic = TrafficConfig::new(0.3, pause, cpu.llc.capacity_bytes);
    let streams: Vec<Box<dyn OpStream>> = traffic.lanes(cpu.cores);
    let mut recorder = RecordingBackend::new(platform.build_dram());
    let mut engine = Engine::from_boxed(cpu, streams);
    let _ = engine.run(
        &mut recorder,
        StopCondition::MemoryOps(memory_ops),
        20_000_000,
    );
    let (_, trace) = recorder.into_parts();
    trace
}

/// Folds a memory trace into bandwidth samples of `window_us` microseconds each.
pub fn trace_to_samples(
    trace: &Trace,
    frequency: mess_types::Frequency,
    window_us: f64,
) -> Vec<BandwidthSample> {
    if trace.is_empty() {
        return Vec::new();
    }
    let window_cycles = (window_us * 1_000.0 * frequency.as_ghz()).max(1.0) as u64;
    let mut samples = Vec::new();
    let mut window_start = trace.records[0].cycle;
    let (mut reads, mut writes) = (0u64, 0u64);
    let flush = |start: u64, reads: u64, writes: u64, samples: &mut Vec<BandwidthSample>| {
        let bytes = (reads + writes) * CACHE_LINE_BYTES;
        let elapsed = Cycle::new(window_cycles).to_latency(frequency);
        samples.push(BandwidthSample::new(
            Cycle::new(start).to_latency(frequency).as_us(),
            Bandwidth::from_bytes_over(mess_types::Bytes::new(bytes), elapsed),
            RwRatio::from_counts(reads, writes),
        ));
    };
    for r in &trace.records {
        while r.cycle >= window_start + window_cycles {
            flush(window_start, reads, writes, &mut samples);
            window_start += window_cycles;
            reads = 0;
            writes = 0;
        }
        match r.kind {
            AccessKind::Read => reads += 1,
            AccessKind::Write => writes += 1,
        }
    }
    flush(window_start, reads, writes, &mut samples);
    samples
}

/// Profiles one workload on `platform`: record its memory trace against a model built by
/// `factory`, fold it into bandwidth windows, and place every window on `curves` (the
/// platform's reference family, a loaded `CurveSet` artifact, or a freshly characterized
/// family — whatever the caller resolved).
pub fn profile_workload(
    platform: &PlatformSpec,
    workload: &WorkloadSpec,
    factory: &ModelFactory,
    curves: CurveFamily,
    window_us: f64,
    max_cycles: u64,
) -> Result<Timeline, MessError> {
    let cpu = platform.cpu_config();
    let streams = workload.streams(cpu.llc.capacity_bytes, cpu.cores)?;
    let mut recorder = RecordingBackend::new(factory.build()?);
    let mut engine = Engine::from_boxed(cpu, streams);
    let _ = engine.run(&mut recorder, StopCondition::AllStreamsDone, max_cycles);
    let (_, trace) = recorder.into_parts();

    let samples = trace_to_samples(&trace, platform.frequency, window_us);
    let profiler = Profiler::new(curves);
    Ok(profiler.profile(&samples))
}

/// Runs the HPCG proxy on `platform`'s reference memory and returns the profiled timeline
/// (the §VI study behind Figs. 15 and 16), placed on the platform's reference curves.
pub fn profile_hpcg(platform: &PlatformSpec, fidelity: Fidelity) -> Timeline {
    let rows = match fidelity {
        Fidelity::Quick => 120,
        Fidelity::Full => 2_000,
    };
    let factory = ModelSpec::of(MemoryModelKind::DetailedDram)
        .factory(platform)
        .expect("the detailed DRAM model needs no curves");
    profile_workload(
        platform,
        &WorkloadSpec::hpcg(rows),
        &factory,
        platform.reference_family(),
        2.0,
        60_000_000,
    )
    .expect("the HPCG profiling spec is always valid")
}

// ---------------------------------------------------------------------------
// Curve-source resolution (the characterize → save → reuse loop)
// ---------------------------------------------------------------------------

/// Per-run knobs that are *not* part of the scenario spec: operator-level overrides the
/// harness threads through from its CLI flags.
#[derive(Debug, Clone, Default)]
pub struct ScenarioOptions {
    /// When set, **every** curve-source resolution in the scenario yields this artifact's
    /// family instead of its declared source (the harness `--curves <file>` override) —
    /// the way to re-run a mess-sim or profiling scenario from a saved characterization
    /// without editing the spec.
    pub curves: Option<CurveSet>,
    /// Cooperative cancellation: a fired token makes [`run_scenario_observed`] return
    /// [`MessError::Cancelled`] before executing, and makes [`run_campaign_observed`]
    /// skip every member scenario not yet picked up. Work already executing always runs
    /// to completion — partial results are never observable.
    pub cancel: Option<mess_exec::CancelToken>,
}

/// What a scenario run produces: the report plus every curve family it measured, wrapped
/// as provenance-carrying [`CurveSet`] artifacts ready for `--curves-out` persistence.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The experiment's tabular report.
    pub report: ExperimentReport,
    /// Curve artifacts in deterministic (spec) order: one per family the scenario
    /// characterized — the measured family of a `CurveFamily`/`PlatformTable`/
    /// `ModelComparison` leg, or the simulated family of a `MessCurves`/`CxlHosts` leg.
    pub curve_sets: Vec<CurveSet>,
}

/// Resolves a curve source into a concrete family for `platform`.
///
/// This is the one place all five [`CurveSourceSpec`] variants resolve: the three
/// in-process providers delegate to [`CurveSourceSpec::family`], `File` loads (and
/// strictly validates) a saved [`CurveSet`], and `Characterized` runs the Mess benchmark
/// against the named model on `platform` — which is what closes the paper's
/// self-characterization loop entirely from spec data. An [`ScenarioOptions::curves`]
/// override short-circuits everything.
///
/// # Errors
///
/// Propagates artifact-load and validation errors; the characterization itself cannot
/// fail once its sweep validates.
pub fn resolve_curves(
    source: &CurveSourceSpec,
    platform: &PlatformSpec,
    options: &ScenarioOptions,
) -> Result<CurveFamily, MessError> {
    if let Some(set) = &options.curves {
        return Ok(set.family().clone());
    }
    match source {
        CurveSourceSpec::Characterized { model, sweep } => {
            // The characterize phase is the classic hot spot of a curve-driven run, so it
            // gets its own span (nesting under the leg span when one is entered on this
            // thread) and its own counter.
            let _span = mess_obs::Span::start("characterize")
                .arg("platform", platform.name)
                .arg("model", model.kind.label());
            if let Some(metrics) = crate::obs::ScenarioMetrics::if_enabled() {
                metrics.characterizations.inc();
            }
            let factory = resolve_factory(model, platform, options)?;
            let c = characterize_spec(
                platform.name,
                &platform.cpu_config(),
                || factory.build().expect("factory construction checked above"),
                sweep,
                &ExecConfig::default(),
            )?;
            Ok(c.family)
        }
        other => other.family(platform),
    }
}

/// Builds `model`'s factory for `platform`, resolving its curve source (including the
/// `File` and `Characterized` variants) through [`resolve_curves`], and proves one
/// instance constructs, so spec errors surface as `Err` before any parallel leg would
/// `expect` on them.
///
/// # Errors
///
/// Propagates curve-resolution errors and the model's own construction errors.
pub fn resolve_factory(
    model: &ModelSpec,
    platform: &PlatformSpec,
    options: &ScenarioOptions,
) -> Result<ModelFactory, MessError> {
    let factory = if model.kind.needs_curves() {
        ModelFactory::with_curves(
            model.kind,
            platform,
            resolve_curves(&model.curves, platform, options)?,
        )
    } else {
        ModelFactory::new(model.kind, platform)
    };
    factory.build()?;
    Ok(factory)
}

/// A curve source prepared for use inside parallel legs: either resolved once up front
/// (fallible and platform-independent variants) or re-resolved per platform (the
/// infallible-by-then variants), so leg closures never have an error path.
enum CurveInput<'a> {
    /// Resolve for each leg's platform (validated before the legs run).
    PerPlatform(&'a CurveSourceSpec, &'a ScenarioOptions),
    /// One family shared by every leg.
    Fixed(CurveFamily),
}

impl CurveInput<'_> {
    fn for_platform(&self, platform: &PlatformSpec) -> CurveFamily {
        match self {
            CurveInput::Fixed(family) => family.clone(),
            CurveInput::PerPlatform(source, options) => resolve_curves(source, platform, options)
                .expect("curve sources are validated before the parallel legs"),
        }
    }
}

/// Prepares `source` for per-leg use: platform-independent variants resolve (and can
/// fail) here, once; platform-dependent variants are pre-flighted so the per-leg
/// resolution cannot fail.
fn prepare_curve_input<'a>(
    source: &'a CurveSourceSpec,
    default_platform: &PlatformSpec,
    options: &'a ScenarioOptions,
) -> Result<CurveInput<'a>, MessError> {
    if options.curves.is_some() {
        return Ok(CurveInput::Fixed(resolve_curves(
            source,
            default_platform,
            options,
        )?));
    }
    match source {
        CurveSourceSpec::PlatformReference => Ok(CurveInput::PerPlatform(source, options)),
        CurveSourceSpec::Characterized { model, sweep } => {
            sweep.validate()?;
            resolve_factory(model, default_platform, options)?;
            Ok(CurveInput::PerPlatform(source, options))
        }
        other => Ok(CurveInput::Fixed(other.family(default_platform)?)),
    }
}

/// One-line human-readable summary of a sweep, for artifact provenance.
fn sweep_summary(sweep: &SweepSpec) -> String {
    let config = sweep.config();
    format!(
        "{:?} preset: {} mixes x {} pauses, {} chase loads, {} cycles/point",
        sweep.preset,
        config.store_mixes.len(),
        config.pause_levels.len(),
        config.chase_loads,
        config.max_cycles_per_point
    )
}

/// Wraps a measured family as a provenance-carrying artifact.
///
/// Returns `None` when the family cannot satisfy the artifact invariants (e.g. a
/// degenerate sweep measured every point of a curve at one bandwidth, so the set would
/// fail its own strict loader). Artifact collection is a side product — a run whose
/// *report* succeeded must not fail, and must not change, because one measured family is
/// not worth persisting; the family is still fully visible in the report itself.
fn artifact(
    scenario_id: &str,
    platform: &PlatformSpec,
    model_label: &str,
    sweep: &SweepSpec,
    family: CurveFamily,
) -> Option<CurveSet> {
    CurveSet::new(
        family,
        CurveSetProvenance::new(
            platform.id.key(),
            model_label,
            sweep_summary(sweep),
            scenario_id,
        ),
    )
    .ok()
}

// ---------------------------------------------------------------------------
// The scenario engine
// ---------------------------------------------------------------------------

/// [`run_scenario_observed`] with no progress sink: resolves and executes one scenario
/// with operator options, returning the report *and* every curve family the run measured
/// as [`CurveSet`] artifacts.
///
/// # Errors
///
/// Returns the spec's validation error, a model/workload/curve resolution error (e.g. an
/// unreadable `--curves` artifact), without running anything; the simulation itself
/// cannot fail.
pub fn run_scenario_with(
    spec: &ScenarioSpec,
    options: &ScenarioOptions,
) -> Result<ScenarioOutcome, MessError> {
    run_scenario_observed(spec, options, &NoProgress)
}

/// Emits a leg's start/finish events around its body — the one place every parallel
/// fan-out narrates itself, so event pairing is uniform across scenario kinds.
fn observed_leg<R>(
    sink: &dyn ProgressSink,
    scenario: &str,
    leg: String,
    index: usize,
    total: usize,
    body: impl FnOnce() -> R,
) -> R {
    sink.emit(ProgressEvent::LegStarted {
        scenario: scenario.to_string(),
        leg: leg.clone(),
        index,
        total,
    });
    if let Some(metrics) = crate::obs::ScenarioMetrics::if_enabled() {
        metrics.legs.inc();
    }
    let result = body();
    sink.emit(ProgressEvent::LegFinished {
        scenario: scenario.to_string(),
        leg,
        index,
        total,
    });
    result
}

/// [`run_scenario_with`] narrating its execution through `sink`: one
/// [`ProgressEvent::ScenarioStarted`] after validation, a started/finished pair per
/// parallel leg, and one [`ProgressEvent::ScenarioFinished`] with the final row and
/// artifact counts. The sink receives events from the engine's worker threads; it
/// observes scheduling, never influences results.
///
/// # Errors
///
/// As [`run_scenario_with`]; additionally returns [`MessError::Cancelled`] when
/// [`ScenarioOptions::cancel`] fired before execution started.
pub fn run_scenario_observed(
    spec: &ScenarioSpec,
    options: &ScenarioOptions,
    sink: &dyn ProgressSink,
) -> Result<ScenarioOutcome, MessError> {
    spec.validate()?;
    if options.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
        return Err(MessError::Cancelled);
    }
    sink.emit(ProgressEvent::ScenarioStarted {
        scenario: spec.id.clone(),
    });
    if let Some(metrics) = crate::obs::ScenarioMetrics::if_enabled() {
        metrics.runs.inc();
    }
    let mut curve_sets = Vec::new();
    let sets = &mut curve_sets;
    let mut report = match &spec.kind {
        ScenarioKind::CurveFamily {
            model,
            sweep,
            stream_llc_multiple,
            paper_reference,
        } => run_curve_family(
            spec,
            model,
            sweep,
            *stream_llc_multiple,
            *paper_reference,
            options,
            sets,
            sink,
        )?,
        ScenarioKind::PlatformTable {
            platforms,
            model,
            sweep,
            stream_llc_multiple,
        } => run_platform_table(
            spec,
            platforms,
            model,
            sweep,
            *stream_llc_multiple,
            options,
            sets,
            sink,
        )?,
        ScenarioKind::ModelComparison { models, sweep } => {
            run_model_comparison(spec, models, sweep, options, sets, sink)?
        }
        ScenarioKind::TraceReplay {
            models,
            trace_ops,
            trace_pause,
            speeds,
        } => run_trace_replay(
            spec,
            models,
            *trace_ops,
            *trace_pause,
            speeds,
            options,
            sink,
        )?,
        ScenarioKind::RowBuffer {
            models,
            store_mixes,
            pauses,
            max_cycles,
        } => run_row_buffer(
            spec,
            models,
            store_mixes,
            pauses,
            *max_cycles,
            options,
            sink,
        )?,
        ScenarioKind::MessCurves {
            platforms,
            curves,
            sweep,
        } => run_mess_curves(spec, platforms, curves, sweep, options, sets, sink)?,
        ScenarioKind::IpcError {
            models,
            workloads,
            max_cycles,
        } => run_ipc_error(spec, models, workloads, *max_cycles, options, sink)?,
        ScenarioKind::CxlHosts {
            hosts,
            curves,
            device_peak_gbs,
            sweep,
        } => run_cxl_hosts(
            spec,
            hosts,
            curves,
            *device_peak_gbs,
            sweep,
            options,
            sets,
            sink,
        )?,
        ScenarioKind::CxlVsRemote {
            benchmarks,
            ops_per_core,
            max_cycles,
            expander,
            emulation,
            device_peak_gbs,
        } => run_cxl_vs_remote(
            spec,
            benchmarks,
            *ops_per_core,
            *max_cycles,
            expander,
            emulation,
            *device_peak_gbs,
            options,
            sink,
        )?,
        ScenarioKind::Profile {
            workload,
            model,
            curves,
            window_us,
            phase_threshold,
            max_cycles,
        } => run_profile(
            spec,
            workload,
            model,
            curves,
            *window_us,
            *phase_threshold,
            *max_cycles,
            options,
            sink,
        )?,
        ScenarioKind::Run {
            workload,
            model,
            max_cycles,
        } => run_single(spec, workload, model, *max_cycles, options, sink)?,
    };
    for note in &spec.notes {
        report.note(note.clone());
    }
    sink.emit(ProgressEvent::ScenarioFinished {
        scenario: spec.id.clone(),
        rows: report.rows.len(),
        artifacts: curve_sets.len(),
    });
    Ok(ScenarioOutcome { report, curve_sets })
}

/// Runs a campaign on the order-preserving [`mess_exec::par_map`]: one item per scenario,
/// executed concurrently, every member narrating itself through `sink` (see
/// [`run_scenario_observed`]). Outcomes come back in campaign order. Honours
/// [`ScenarioOptions::cancel`]: once the token fires, members not yet picked up never run
/// and surface as [`MessError::Cancelled`].
///
/// # Errors
///
/// Returns the first validation error before anything runs, then the first member error
/// in campaign order — which, after a cancellation, is the first skipped member's
/// [`MessError::Cancelled`].
pub fn run_campaign_observed(
    campaign: &CampaignSpec,
    options: &ScenarioOptions,
    sink: &dyn ProgressSink,
) -> Result<Vec<ScenarioOutcome>, MessError> {
    campaign.validate()?;
    mess_exec::par_map(campaign.scenarios.iter().collect(), |_, scenario| {
        run_scenario_observed(scenario, options, sink)
    })
    .into_iter()
    .collect()
}

// ---------------------------------------------------------------------------
// Per-kind execution
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn run_curve_family(
    spec: &ScenarioSpec,
    model: &ModelSpec,
    sweep: &SweepSpec,
    stream_llc_multiple: Option<u64>,
    paper_reference: bool,
    options: &ScenarioOptions,
    sets: &mut Vec<CurveSet>,
    sink: &dyn ProgressSink,
) -> Result<ExperimentReport, MessError> {
    let platform = spec.platform.resolve();
    let factory = resolve_factory(model, &platform, options)?;
    let c = observed_leg(sink, &spec.id, model.kind.label().to_string(), 0, 1, || {
        characterize_spec(
            platform.name,
            &platform.cpu_config(),
            || factory.build().expect("checked above"),
            sweep,
            &ExecConfig::default(),
        )
    })?;
    let metrics = FamilyMetrics::compute(&c.family, platform.theoretical_bandwidth());
    sets.extend(artifact(
        &spec.id,
        &platform,
        model.kind.label(),
        sweep,
        c.family.clone(),
    ));

    let mut report = ExperimentReport::new(
        &spec.id,
        &spec.title,
        &["read_percent", "bandwidth_gbs", "latency_ns"],
    );
    for (pct, bw, lat) in c.family.to_rows() {
        report.push_row(vec![
            pct.to_string(),
            format!("{bw:.2}"),
            format!("{lat:.1}"),
        ]);
    }
    report.note(metrics.table_row());
    if let Some(llc_multiple) = stream_llc_multiple {
        for (kernel, gbs) in stream_bandwidths(&platform, llc_multiple, &ExecConfig::default()) {
            report.note(format!(
                "STREAM {kernel}: {gbs:.1} GB/s (application-level)"
            ));
        }
    }
    if paper_reference {
        if let Some(r) = &platform.reference {
            report.note(format!(
                "paper reference: unloaded {} ns, saturated {}-{}% of theoretical, max latency {}-{} ns",
                r.unloaded_latency_ns,
                r.saturated_bw_low_pct,
                r.saturated_bw_high_pct,
                r.max_latency_low_ns,
                r.max_latency_high_ns
            ));
        }
    }
    Ok(report)
}

#[allow(clippy::too_many_arguments)]
fn run_platform_table(
    spec: &ScenarioSpec,
    platforms: &[PlatformRef],
    model: &ModelSpec,
    sweep: &SweepSpec,
    stream_llc_multiple: u64,
    options: &ScenarioOptions,
    sets: &mut Vec<CurveSet>,
    sink: &dyn ProgressSink,
) -> Result<ExperimentReport, MessError> {
    // Resolve one factory per platform leg up front (sequentially): File/Characterized
    // curve sources fail here with an Err instead of panicking a worker leg, nothing is
    // resolved twice, and the legs receive ready factories. Characterized sources
    // characterize once per platform here — the same work the legs would otherwise do.
    let factories: Vec<ModelFactory> = platforms
        .iter()
        .map(|leg| resolve_factory(model, &leg.resolve(), options))
        .collect::<Result<_, _>>()?;
    let mut report = ExperimentReport::new(
        &spec.id,
        &spec.title,
        &[
            "platform",
            "theoretical_gbs",
            "unloaded_ns",
            "unloaded_ns_paper",
            "sat_bw_low_pct",
            "sat_bw_high_pct",
            "sat_bw_paper",
            "max_lat_range_ns",
            "max_lat_paper",
            "stream_pct",
            "stream_paper",
        ],
    );
    // One leg per platform; rows come back in platform order. With fewer platforms than
    // pool workers the legs run sequentially and the parallelism moves into each leg's
    // sweep instead (for_fanout) — nested calls on a pool worker never fan out, so the two
    // schedules produce identical rows.
    let legs: Vec<(PlatformRef, &ModelFactory)> =
        platforms.iter().copied().zip(factories.iter()).collect();
    let total = legs.len();
    let results: Vec<(Vec<String>, CurveFamily)> = mess_exec::par_map_with(
        &ExecConfig::for_fanout(legs.len()),
        legs,
        |i, (leg, factory)| {
            observed_leg(sink, &spec.id, leg.id.key().to_string(), i, total, || {
                let platform = leg.resolve();
                let theoretical = platform.theoretical_bandwidth();
                let c = characterize_spec(
                    platform.name,
                    &platform.cpu_config(),
                    || factory.build().expect("model construction is valid here"),
                    sweep,
                    &ExecConfig::default(),
                )
                .expect("sweep specs are validated before execution");
                let m = FamilyMetrics::compute(&c.family, theoretical);
                let streams =
                    stream_bandwidths(&platform, stream_llc_multiple, &ExecConfig::default());
                let stream_low = streams.iter().map(|(_, b)| *b).fold(f64::MAX, f64::min);
                let stream_high = streams.iter().map(|(_, b)| *b).fold(0.0, f64::max);
                let r = platform.reference;
                let row = vec![
                    leg.id.key().to_string(),
                    format!("{:.0}", theoretical.as_gbs()),
                    format!("{:.0}", m.unloaded_latency.as_ns()),
                    r.map(|r| format!("{:.0}", r.unloaded_latency_ns))
                        .unwrap_or_default(),
                    format!("{:.0}", m.saturated_bandwidth_range.low_fraction * 100.0),
                    format!("{:.0}", m.saturated_bandwidth_range.high_fraction * 100.0),
                    r.map(|r| {
                        format!(
                            "{:.0}-{:.0}",
                            r.saturated_bw_low_pct, r.saturated_bw_high_pct
                        )
                    })
                    .unwrap_or_default(),
                    format!(
                        "{:.0}-{:.0}",
                        m.max_latency_range.low.as_ns(),
                        m.max_latency_range.high.as_ns()
                    ),
                    r.map(|r| format!("{:.0}-{:.0}", r.max_latency_low_ns, r.max_latency_high_ns))
                        .unwrap_or_default(),
                    format!(
                        "{:.0}-{:.0}",
                        stream_low / theoretical.as_gbs() * 100.0,
                        stream_high / theoretical.as_gbs() * 100.0
                    ),
                    r.map(|r| format!("{:.0}-{:.0}", r.stream_low_pct, r.stream_high_pct))
                        .unwrap_or_default(),
                ];
                (row, c.family)
            })
        },
    );
    for (leg, (row, family)) in platforms.iter().zip(results) {
        report.push_row(row);
        sets.extend(artifact(
            &spec.id,
            &leg.resolve(),
            model.kind.label(),
            sweep,
            family,
        ));
    }
    Ok(report)
}

/// Characterizes one memory model for `platform` and returns its summary row plus the
/// measured family. The shared factory builds a private model instance *inside* every
/// sweep-point worker.
fn model_row(
    platform: &PlatformSpec,
    factory: &ModelFactory,
    sweep: &SweepSpec,
) -> (Vec<String>, CurveFamily) {
    let c = characterize_spec(
        factory.kind().label(),
        &platform.cpu_config(),
        || factory.build().expect("model construction is valid here"),
        sweep,
        // Runs inline when the per-model legs are parallel (nested pools never fan out);
        // parallelizes the sweep itself if this row is computed on the caller's thread.
        &ExecConfig::default(),
    )
    .expect("sweep configuration is valid");
    let m = FamilyMetrics::compute(&c.family, platform.theoretical_bandwidth());
    let row = vec![
        factory.kind().label().to_string(),
        format!("{:.0}", m.unloaded_latency.as_ns()),
        format!("{:.0}", m.max_latency_range.high.as_ns()),
        format!("{:.0}", m.saturated_bandwidth_range.high.as_gbs()),
        format!("{:.0}", m.saturated_bandwidth_range.high_fraction * 100.0),
    ];
    (row, c.family)
}

fn run_model_comparison(
    spec: &ScenarioSpec,
    models: &[ModelSpec],
    sweep: &SweepSpec,
    options: &ScenarioOptions,
    sets: &mut Vec<CurveSet>,
    sink: &dyn ProgressSink,
) -> Result<ExperimentReport, MessError> {
    let platform = spec.platform.resolve();
    let factories: Vec<ModelFactory> = models
        .iter()
        .map(|model| resolve_factory(model, &platform, options))
        .collect::<Result<_, _>>()?;
    let mut report = ExperimentReport::new(
        &spec.id,
        &spec.title,
        &[
            "memory_model",
            "unloaded_ns",
            "max_latency_ns",
            "max_bandwidth_gbs",
            "max_bw_pct_of_theoretical",
        ],
    );
    // One leg per memory model; row order (reference first, then the paper's model order)
    // is preserved. With fewer models than pool workers the legs run sequentially and each
    // leg's characterization sweep takes the pool instead (for_fanout).
    let legs: Vec<usize> = (0..factories.len()).collect();
    let total = legs.len();
    let results = mess_exec::par_map_with(&ExecConfig::for_fanout(legs.len()), legs, |_, i| {
        let label = factories[i].kind().label().to_string();
        observed_leg(sink, &spec.id, label, i, total, || {
            model_row(&platform, &factories[i], sweep)
        })
    });
    for (factory, (row, family)) in factories.iter().zip(results) {
        report.push_row(row);
        sets.extend(artifact(
            &spec.id,
            &platform,
            factory.kind().label(),
            sweep,
            family,
        ));
    }
    report.note(format!(
        "reference platform: {} ({:.0} GB/s theoretical); the detailed-dram row plays the role \
         of the actual hardware",
        platform.name,
        platform.theoretical_bandwidth().as_gbs()
    ));
    Ok(report)
}

#[allow(clippy::too_many_arguments)]
fn run_trace_replay(
    spec: &ScenarioSpec,
    models: &[ModelSpec],
    trace_ops: u64,
    trace_pause: u32,
    speeds: &[f64],
    options: &ScenarioOptions,
    sink: &dyn ProgressSink,
) -> Result<ExperimentReport, MessError> {
    let platform = spec.platform.resolve();
    let factories: Vec<ModelFactory> = models
        .iter()
        .map(|model| resolve_factory(model, &platform, options))
        .collect::<Result<_, _>>()?;
    let trace = capture_trace(&platform, trace_pause, trace_ops);
    let mut report = ExperimentReport::new(
        &spec.id,
        &spec.title,
        &[
            "memory_model",
            "replay_speed",
            "bandwidth_gbs",
            "avg_read_latency_ns",
        ],
    );
    report.note(format!(
        "trace: {} requests, {} of them reads",
        trace.len(),
        trace.rw_ratio()
    ));
    // One replay leg per (model, speed): the trace and the per-model factories are shared
    // read-only, each leg builds its own model instance.
    let mut legs: Vec<(usize, f64)> = Vec::new();
    for i in 0..factories.len() {
        legs.extend(speeds.iter().map(|&speed| (i, speed)));
    }
    let total = legs.len();
    let rows = mess_exec::par_map(legs, |leg_index, (i, speed)| {
        let label = format!("{}@{speed:.1}x", factories[i].kind().label());
        observed_leg(sink, &spec.id, label, leg_index, total, || {
            let mut backend = factories[i]
                .build()
                .expect("model construction is valid here");
            let r = replay(&trace, backend.as_mut(), platform.frequency, speed);
            vec![
                factories[i].kind().label().to_string(),
                format!("{speed:.1}"),
                format!("{:.2}", r.bandwidth.as_gbs()),
                format!("{:.1}", r.latency.as_ns()),
            ]
        })
    });
    report.push_rows(rows);
    Ok(report)
}

/// Drives a backend with the Mess traffic generator at full intensity and returns the
/// row-buffer statistics (hit/empty/miss percentages).
fn row_buffer_stats(
    platform: &PlatformSpec,
    backend: &mut dyn MemoryBackend,
    store_mix: f64,
    pause: u32,
    max_cycles: u64,
) -> (f64, mess_types::RowBufferStats) {
    let cpu = platform.cpu_config();
    let traffic = TrafficConfig::new(store_mix, pause, cpu.llc.capacity_bytes);
    let streams: Vec<Box<dyn OpStream>> = traffic.lanes(cpu.cores);
    let mut engine = Engine::from_boxed(cpu, streams);
    let report = engine.run(backend, StopCondition::AllStreamsDone, max_cycles);
    (report.bandwidth.as_gbs(), report.memory.row_buffer)
}

#[allow(clippy::too_many_arguments)]
fn run_row_buffer(
    spec: &ScenarioSpec,
    models: &[ModelSpec],
    store_mixes: &[f64],
    pauses: &[u32],
    max_cycles: u64,
    options: &ScenarioOptions,
    sink: &dyn ProgressSink,
) -> Result<ExperimentReport, MessError> {
    let platform = spec.platform.resolve();
    let factories: Vec<ModelFactory> = models
        .iter()
        .map(|model| resolve_factory(model, &platform, options))
        .collect::<Result<_, _>>()?;
    let mut report = ExperimentReport::new(
        &spec.id,
        &spec.title,
        &[
            "memory_model",
            "traffic",
            "pause",
            "bandwidth_gbs",
            "hit_pct",
            "empty_pct",
            "miss_pct",
        ],
    );
    // The full (model, traffic, pause) grid runs in parallel; the per-model factories are
    // shared and each leg builds its own backend instance.
    let mut legs: Vec<(usize, f64, u32)> = Vec::new();
    for i in 0..factories.len() {
        for &mix in store_mixes {
            legs.extend(pauses.iter().map(|&pause| (i, mix, pause)));
        }
    }
    let total = legs.len();
    let rows = mess_exec::par_map(legs, |leg_index, (i, mix, pause)| {
        let traffic_label = if mix == 0.0 {
            "100%-read".to_string()
        } else {
            format!("{:.0}%-store", mix * 100.0)
        };
        let label = format!(
            "{} {traffic_label} pause {pause}",
            factories[i].kind().label()
        );
        observed_leg(sink, &spec.id, label, leg_index, total, || {
            let mut backend = factories[i]
                .build()
                .expect("model construction is valid here");
            let (bw, rb) = row_buffer_stats(&platform, backend.as_mut(), mix, pause, max_cycles);
            vec![
                factories[i].kind().label().to_string(),
                traffic_label.clone(),
                pause.to_string(),
                format!("{bw:.1}"),
                format!("{:.0}", rb.hit_rate() * 100.0),
                format!("{:.0}", rb.empty_rate() * 100.0),
                format!("{:.0}", rb.miss_rate() * 100.0),
            ]
        })
    });
    report.push_rows(rows);
    Ok(report)
}

#[allow(clippy::too_many_arguments)]
fn run_mess_curves(
    spec: &ScenarioSpec,
    platforms: &[PlatformRef],
    curves: &CurveSourceSpec,
    sweep: &SweepSpec,
    options: &ScenarioOptions,
    sets: &mut Vec<CurveSet>,
    sink: &dyn ProgressSink,
) -> Result<ExperimentReport, MessError> {
    // The simulator's input curves: resolved once here for file/manufacturer sources (so
    // errors surface as Err), per platform inside the legs for the platform-dependent
    // sources (the reference family, or a fresh characterization of the leg's own
    // backend — the paper's self-characterization loop).
    let input_source = prepare_curve_input(curves, &spec.platform.resolve(), options)?;
    let mut report = ExperimentReport::new(
        &spec.id,
        &spec.title,
        &[
            "platform",
            "input_unloaded_ns",
            "simulated_unloaded_ns",
            "input_max_bw_gbs",
            "simulated_max_bw_gbs",
            "max_bw_error_pct",
        ],
    );
    // One leg per platform; each leg characterizes its own private Mess simulator, built
    // inside the worker from the resolved input curves. With fewer platforms than pool
    // workers the legs run sequentially and each sweep takes the pool (for_fanout).
    let legs = platforms.to_vec();
    let total = legs.len();
    let results: Vec<(Vec<String>, CurveFamily)> = mess_exec::par_map_with(
        &ExecConfig::for_fanout(legs.len()),
        legs.clone(),
        |i, leg| {
            observed_leg(sink, &spec.id, leg.id.key().to_string(), i, total, || {
                let platform = leg.resolve();
                let input = input_source.for_platform(&platform);
                let factory =
                    ModelFactory::with_curves(MemoryModelKind::Mess, &platform, input.clone());
                let c = characterize_spec(
                    "mess",
                    &platform.cpu_config(),
                    || factory.build().expect("resolved curve families are valid"),
                    sweep,
                    // Inline under a parallel platform fan-out; parallel across sweep points
                    // when there is only one platform leg.
                    &ExecConfig::default(),
                )
                .expect("sweep configuration is valid");
                let simulated = FamilyMetrics::compute(&c.family, platform.theoretical_bandwidth());
                let input_metrics =
                    FamilyMetrics::compute(&input, platform.theoretical_bandwidth());
                let bw_err = ipc_error_percent(
                    simulated.saturated_bandwidth_range.high.as_gbs(),
                    input_metrics.saturated_bandwidth_range.high.as_gbs(),
                );
                let row = vec![
                    leg.id.key().to_string(),
                    format!("{:.0}", input_metrics.unloaded_latency.as_ns()),
                    format!("{:.0}", simulated.unloaded_latency.as_ns()),
                    format!(
                        "{:.0}",
                        input_metrics.saturated_bandwidth_range.high.as_gbs()
                    ),
                    format!("{:.0}", simulated.saturated_bandwidth_range.high.as_gbs()),
                    format!("{bw_err:.1}"),
                ];
                (row, c.family)
            })
        },
    );
    for (leg, (row, family)) in legs.iter().zip(results) {
        report.push_row(row);
        sets.extend(artifact(&spec.id, &leg.resolve(), "mess", sweep, family));
    }
    Ok(report)
}

fn run_ipc_error(
    spec: &ScenarioSpec,
    models: &[ModelSpec],
    workloads: &[WorkloadSpec],
    max_cycles: u64,
    options: &ScenarioOptions,
    sink: &dyn ProgressSink,
) -> Result<ExperimentReport, MessError> {
    let platform = spec.platform.resolve();
    let factories: Vec<ModelFactory> = models
        .iter()
        .map(|model| resolve_factory(model, &platform, options))
        .collect::<Result<_, _>>()?;

    let mut headers: Vec<String> = vec!["memory_model".to_string()];
    headers.extend(workloads.iter().map(|w| w.label()));
    headers.push("average".to_string());
    let mut report = ExperimentReport::new(&spec.id, &spec.title, &[]);
    report.headers = headers;

    // Reference IPCs from the detailed DRAM model, one private DRAM system per workload leg.
    let indices: Vec<usize> = (0..workloads.len()).collect();
    let reference_total = indices.len();
    let reference: Vec<f64> = mess_exec::par_map(indices, |_, i| {
        let label = format!("reference:{}", workloads[i].label());
        observed_leg(sink, &spec.id, label, i, reference_total, || {
            let mut dram = platform.build_dram();
            spec_workload_ipc(&workloads[i], &platform, &mut dram, max_cycles)
        })
    });

    // The full (model × workload) grid runs in parallel; every leg builds a private model
    // instance, but the factories (which carry a platform clone and, for curve-driven
    // models, the generated reference family) are created once per model and shared.
    // Results come back in grid order, so the rows (and the per-model averages computed
    // from them) are identical to the sequential loop's.
    let mut grid: Vec<(usize, usize, f64)> = Vec::new();
    for model_idx in 0..models.len() {
        for (i, _) in workloads.iter().enumerate() {
            grid.push((model_idx, i, reference[i]));
        }
    }
    let grid_total = grid.len();
    let errors = mess_exec::par_map(
        grid,
        |leg_index, (model_idx, workload_idx, reference_ipc)| {
            let label = format!(
                "{}:{}",
                models[model_idx].kind.label(),
                workloads[workload_idx].label()
            );
            observed_leg(sink, &spec.id, label, leg_index, grid_total, || {
                let mut backend = factories[model_idx]
                    .build()
                    .expect("model construction is valid here");
                let ipc = spec_workload_ipc(
                    &workloads[workload_idx],
                    &platform,
                    backend.as_mut(),
                    max_cycles,
                );
                ipc_error_percent(ipc, reference_ipc)
            })
        },
    );
    for (model, model_errors) in models.iter().zip(errors.chunks(workloads.len())) {
        let mut cells = vec![model.kind.label().to_string()];
        cells.extend(model_errors.iter().map(|err| format!("{err:.1}")));
        let avg = model_errors.iter().sum::<f64>() / model_errors.len() as f64;
        cells.push(format!("{avg:.1}"));
        report.push_row(cells);
    }
    report.note(format!(
        "absolute IPC error in percent against the detailed-DRAM reference on {}",
        platform.name
    ));
    Ok(report)
}

#[allow(clippy::too_many_arguments)]
fn run_cxl_hosts(
    spec: &ScenarioSpec,
    hosts: &[PlatformRef],
    curves: &CurveSourceSpec,
    device_peak_gbs: f64,
    sweep: &SweepSpec,
    options: &ScenarioOptions,
    sets: &mut Vec<CurveSet>,
    sink: &dyn ProgressSink,
) -> Result<ExperimentReport, MessError> {
    let device_source = prepare_curve_input(curves, &spec.platform.resolve(), options)?;
    let manufacturer = device_source.for_platform(&spec.platform.resolve());
    let reference = FamilyMetrics::compute(&manufacturer, Bandwidth::from_gbs(device_peak_gbs));

    let mut report = ExperimentReport::new(
        &spec.id,
        &spec.title,
        &[
            "host",
            "unloaded_ns",
            "max_bandwidth_gbs",
            "max_bw_pct_of_cxl_peak",
        ],
    );
    report.push_row(vec![
        "manufacturer-model".to_string(),
        format!("{:.0}", reference.unloaded_latency.as_ns()),
        format!("{:.1}", reference.saturated_bandwidth_range.high.as_gbs()),
        format!(
            "{:.0}",
            reference.saturated_bandwidth_range.high_fraction * 100.0
        ),
    ]);
    // One leg per simulated host, each characterizing a private curve-driven Mess
    // simulator. With fewer hosts than pool workers the legs run sequentially and each
    // sweep takes the pool instead (for_fanout).
    let legs = hosts.to_vec();
    let total = legs.len();
    let results: Vec<(Vec<String>, CurveFamily)> = mess_exec::par_map_with(
        &ExecConfig::for_fanout(legs.len()),
        legs.clone(),
        |i, leg| {
            observed_leg(sink, &spec.id, leg.id.key().to_string(), i, total, || {
                let platform = leg.resolve();
                let factory = ModelFactory::with_curves(
                    MemoryModelKind::Mess,
                    &platform,
                    device_source.for_platform(&platform),
                );
                let c = characterize_spec(
                    "cxl",
                    &platform.cpu_config(),
                    || factory.build().expect("manufacturer curves are valid"),
                    sweep,
                    // Inline under the parallel host fan-out; parallel across sweep points if
                    // the host list ever degenerates to one entry.
                    &ExecConfig::default(),
                )
                .expect("sweep configuration is valid");
                let m = FamilyMetrics::compute(&c.family, Bandwidth::from_gbs(device_peak_gbs));
                let row = vec![
                    leg.id.key().to_string(),
                    format!("{:.0}", m.unloaded_latency.as_ns()),
                    format!("{:.1}", m.saturated_bandwidth_range.high.as_gbs()),
                    format!("{:.0}", m.saturated_bandwidth_range.high_fraction * 100.0),
                ];
                (row, c.family)
            })
        },
    );
    for (leg, (row, family)) in legs.iter().zip(results) {
        report.push_row(row);
        sets.extend(artifact(&spec.id, &leg.resolve(), "mess", sweep, family));
    }
    Ok(report)
}

/// Runs one SPEC-like workload on a host whose memory is modelled by `curves`, returning
/// (IPC, bandwidth utilisation of the device peak).
fn run_spec_on(
    platform: &PlatformSpec,
    workload: &mess_workloads::SpecWorkload,
    curves: CurveFamily,
    ops_per_core: u64,
    max_cycles: u64,
    device_peak_gbs: f64,
) -> (f64, f64) {
    let config = MessSimulatorConfig::new(curves, platform.frequency, platform.cpu.on_chip_latency);
    let mut backend = MessSimulator::new(config).expect("curve families are valid");
    let streams: Vec<Box<dyn OpStream>> =
        workload.multiprogrammed(platform.cpu.cores, ops_per_core);
    let mut engine = Engine::from_boxed(platform.cpu_config(), streams);
    let report = engine.run(&mut backend, StopCondition::AllStreamsDone, max_cycles);
    let utilisation = report.bandwidth.as_gbs() / device_peak_gbs;
    (report.ipc(), utilisation)
}

#[allow(clippy::too_many_arguments)]
fn run_cxl_vs_remote(
    spec: &ScenarioSpec,
    benchmarks: &[String],
    ops_per_core: u64,
    max_cycles: u64,
    expander: &CurveSourceSpec,
    emulation: &CurveSourceSpec,
    device_peak_gbs: f64,
    options: &ScenarioOptions,
    sink: &dyn ProgressSink,
) -> Result<ExperimentReport, MessError> {
    let platform = spec.platform.resolve();
    let suite: Vec<mess_workloads::SpecWorkload> = benchmarks
        .iter()
        .map(|name| {
            mess_workloads::spec_suite::find(name).ok_or_else(|| {
                MessError::InvalidConfig(format!("unknown SPEC CPU2006 benchmark `{name}`"))
            })
        })
        .collect::<Result<_, _>>()?;
    let cxl_curves = resolve_curves(expander, &platform, options)?;
    let remote_curves = resolve_curves(emulation, &platform, options)?;

    let mut report = ExperimentReport::new(
        &spec.id,
        &spec.title,
        &[
            "benchmark",
            "cxl_bw_utilisation_pct",
            "class",
            "ipc_cxl",
            "ipc_remote_socket",
            "perf_difference_pct",
        ],
    );
    // One leg per benchmark: both the CXL and the remote-socket runs of a benchmark happen
    // on the same worker (they feed one row), different benchmarks run concurrently.
    let suite_total = suite.len();
    let rows = mess_exec::par_map(suite, |i, w| {
        observed_leg(sink, &spec.id, w.name.to_string(), i, suite_total, || {
            let (ipc_cxl, utilisation) = run_spec_on(
                &platform,
                &w,
                cxl_curves.clone(),
                ops_per_core,
                max_cycles,
                device_peak_gbs,
            );
            let (ipc_remote, _) = run_spec_on(
                &platform,
                &w,
                remote_curves.clone(),
                ops_per_core,
                max_cycles,
                device_peak_gbs,
            );
            let diff = (ipc_remote - ipc_cxl) / ipc_cxl.max(1e-12) * 100.0;
            let class = match classify_utilisation(utilisation) {
                IntensityClass::Low => "low",
                IntensityClass::Medium => "medium",
                IntensityClass::High => "high",
            };
            vec![
                w.name.to_string(),
                format!("{:.0}", utilisation * 100.0),
                class.to_string(),
                format!("{ipc_cxl:.3}"),
                format!("{ipc_remote:.3}"),
                format!("{diff:+.1}"),
            ]
        })
    });
    report.push_rows(rows);
    Ok(report)
}

#[allow(clippy::too_many_arguments)]
fn run_profile(
    spec: &ScenarioSpec,
    workload: &WorkloadSpec,
    model: &ModelSpec,
    curves: &CurveSourceSpec,
    window_us: f64,
    phase_threshold: f64,
    max_cycles: u64,
    options: &ScenarioOptions,
    sink: &dyn ProgressSink,
) -> Result<ExperimentReport, MessError> {
    let platform = spec.platform.resolve();
    let factory = resolve_factory(model, &platform, options)?;
    let family = resolve_curves(curves, &platform, options)?;
    let timeline = observed_leg(sink, &spec.id, workload.label(), 0, 1, || {
        profile_workload(&platform, workload, &factory, family, window_us, max_cycles)
    })?;

    let mut report = ExperimentReport::new(
        &spec.id,
        &spec.title,
        &[
            "time_us",
            "bandwidth_gbs",
            "read_percent",
            "latency_ns",
            "stress_score",
        ],
    );
    for s in &timeline.samples {
        report.push_row(vec![
            format!("{:.1}", s.sample.time_us),
            format!("{:.2}", s.sample.bandwidth.as_gbs()),
            s.sample.ratio.read_percent().to_string(),
            format!("{:.1}", s.latency.as_ns()),
            format!("{:.3}", s.stress_score),
        ]);
    }
    report.note(format!(
        "mean stress {:.2}, {:.0}% of the samples above 0.5, peak bandwidth {:.1} GB/s, peak latency {:.0} ns",
        timeline.mean_stress(),
        timeline.fraction_above(0.5) * 100.0,
        timeline.peak_bandwidth().as_gbs(),
        timeline.peak_latency().as_ns()
    ));
    for phase in timeline.phases(phase_threshold) {
        report.note(format!("phase: {phase}"));
    }
    Ok(report)
}

fn run_single(
    spec: &ScenarioSpec,
    workload: &WorkloadSpec,
    model: &ModelSpec,
    max_cycles: u64,
    options: &ScenarioOptions,
    sink: &dyn ProgressSink,
) -> Result<ExperimentReport, MessError> {
    let platform = spec.platform.resolve();
    let cpu = platform.cpu_config();
    let streams = workload.streams(cpu.llc.capacity_bytes, cpu.cores)?;
    let mut backend = resolve_factory(model, &platform, options)?.build()?;
    let run = observed_leg(sink, &spec.id, workload.label(), 0, 1, || {
        run_streams(&platform, streams, backend.as_mut(), max_cycles)
    });

    let mut report = ExperimentReport::new(
        &spec.id,
        &spec.title,
        &[
            "workload",
            "memory_model",
            "platform",
            "ipc",
            "bandwidth_gbs",
            "instructions",
            "cycles",
        ],
    );
    report.push_row(vec![
        workload.label(),
        model.kind.label().to_string(),
        platform.id.key().to_string(),
        format!("{:.3}", run.ipc()),
        format!("{:.2}", run.bandwidth.as_gbs()),
        run.total_instructions.to_string(),
        run.cycles.to_string(),
    ]);
    if run.hit_cycle_limit {
        report.note("the run hit its cycle budget before the workload finished");
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mess_bench::SweepPreset;
    use mess_platforms::PlatformId;

    #[test]
    fn validation_workload_specs_resolve_for_every_core() {
        let platform = PlatformRef::quick(PlatformId::IntelSkylake).resolve();
        for w in ValidationWorkload::ALL {
            let streams = w.streams(&platform, Fidelity::Quick);
            assert_eq!(streams.len(), platform.cores as usize, "{}", w.label());
            assert_eq!(w.spec(Fidelity::Quick).label(), w.label());
        }
    }

    #[test]
    fn ipc_error_is_symmetric_in_sign_and_zero_for_exact_match() {
        assert_eq!(ipc_error_percent(1.0, 1.0), 0.0);
        assert!((ipc_error_percent(0.5, 1.0) - 50.0).abs() < 1e-9);
        assert!((ipc_error_percent(1.5, 1.0) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_platform_matches_the_quick_platform_ref() {
        for id in PlatformId::ALL {
            let via_fn = scaled_platform(&id.spec(), Fidelity::Quick);
            let via_ref = PlatformRef::quick(id).resolve();
            assert_eq!(via_fn.cores, via_ref.cores, "{id}");
            assert_eq!(via_fn.channels, via_ref.channels, "{id}");
            assert_eq!(via_fn.cpu.cores, via_ref.cpu.cores, "{id}");
        }
        // And the function keeps honouring pre-modified specs.
        let mut zero = PlatformId::IntelSkylake.spec();
        zero.channels = 0;
        assert_eq!(scaled_platform(&zero, Fidelity::Quick).channels, 1);
        assert_eq!(
            scaled_platform(&PlatformId::AmdZen2.spec(), Fidelity::Full).cores,
            64
        );
    }

    #[test]
    fn run_scenario_rejects_invalid_specs_before_running() {
        let spec = ScenarioSpec {
            id: "bad".into(),
            title: "bad".into(),
            platform: PlatformRef::quick(PlatformId::IntelSkylake),
            kind: ScenarioKind::Run {
                workload: WorkloadSpec::spec_cpu2006("nope", 10),
                model: ModelSpec::of(MemoryModelKind::Md1Queue),
                max_cycles: 1_000,
            },
            notes: vec![],
        };
        assert!(run_scenario_with(&spec, &ScenarioOptions::default()).is_err());
    }

    #[test]
    fn run_kind_reports_one_row_and_appends_spec_notes() {
        let spec = ScenarioSpec {
            id: "gups-md1".into(),
            title: "GUPS on M/D/1".into(),
            platform: PlatformRef::quick(PlatformId::IntelSkylake),
            kind: ScenarioKind::Run {
                workload: WorkloadSpec::gups(200),
                model: ModelSpec::of(MemoryModelKind::Md1Queue),
                max_cycles: 4_000_000,
            },
            notes: vec!["a fixed note".into()],
        };
        let report = run_scenario_with(&spec, &ScenarioOptions::default())
            .unwrap()
            .report;
        assert_eq!(report.id, "gups-md1");
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0][0], "GUPS");
        assert_eq!(report.rows[0][1], "md1-queue");
        let ipc: f64 = report.rows[0][3].parse().unwrap();
        assert!(ipc > 0.0, "the run must retire instructions");
        assert_eq!(report.notes.last().unwrap(), "a fixed note");
    }

    #[test]
    fn campaigns_run_through_the_job_runner_in_order() {
        let scenario = |id: &str, updates: u64| ScenarioSpec {
            id: id.into(),
            title: id.into(),
            platform: PlatformRef::quick(PlatformId::IntelSkylake),
            kind: ScenarioKind::Run {
                workload: WorkloadSpec::gups(updates),
                model: ModelSpec::of(MemoryModelKind::FixedLatency),
                max_cycles: 2_000_000,
            },
            notes: vec![],
        };
        let campaign = CampaignSpec {
            name: "two-runs".into(),
            scenarios: vec![scenario("first", 100), scenario("second", 150)],
        };
        let finished = std::sync::Mutex::new(Vec::new());
        let sink = |event: ProgressEvent| {
            if let ProgressEvent::ScenarioFinished { scenario, .. } = event {
                finished.lock().unwrap().push(scenario);
            }
        };
        let outcomes =
            run_campaign_observed(&campaign, &ScenarioOptions::default(), &sink).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].report.id, "first");
        assert_eq!(outcomes[1].report.id, "second");
        let mut finished = finished.into_inner().unwrap();
        finished.sort();
        assert_eq!(finished, vec!["first".to_string(), "second".to_string()]);
    }

    #[test]
    fn characterization_scenarios_emit_curve_artifacts() {
        let spec = ScenarioSpec {
            id: "artifact-demo".into(),
            title: "artifacts".into(),
            platform: PlatformRef::quick(PlatformId::IntelSkylake),
            kind: ScenarioKind::ModelComparison {
                models: vec![
                    ModelSpec::of(MemoryModelKind::FixedLatency),
                    ModelSpec::of(MemoryModelKind::Md1Queue),
                ],
                sweep: SweepSpec::preset(SweepPreset::Reduced),
            },
            notes: vec![],
        };
        let outcome = run_scenario_with(&spec, &ScenarioOptions::default()).unwrap();
        assert_eq!(outcome.curve_sets.len(), 2, "one artifact per model");
        let labels: Vec<&str> = outcome
            .curve_sets
            .iter()
            .map(|s| s.provenance().model.as_str())
            .collect();
        assert_eq!(labels, vec!["fixed-latency", "md1-queue"]);
        for set in &outcome.curve_sets {
            assert_eq!(set.provenance().platform, "skylake");
            assert_eq!(set.provenance().scenario, "artifact-demo");
            assert!(set.provenance().sweep.contains("Reduced"), "sweep summary");
            // Artifacts survive a JSON round trip byte-identically.
            let json = set.to_json();
            assert_eq!(CurveSet::from_json(&json).unwrap().to_json(), json);
        }
    }

    #[test]
    fn characterized_curve_sources_resolve_through_the_engine() {
        // The self-characterization loop in miniature: the Mess simulator fed the measured
        // curves of the M/D/1 model, resolved entirely from spec data.
        let platform = PlatformRef::quick(PlatformId::IntelSkylake).resolve();
        let options = ScenarioOptions::default();
        let source = CurveSourceSpec::Characterized {
            model: Box::new(ModelSpec::of(MemoryModelKind::Md1Queue)),
            sweep: SweepSpec::preset(SweepPreset::Reduced),
        };
        let family = resolve_curves(&source, &platform, &options).unwrap();
        assert!(family.len() >= 2, "one curve per store mix");
        // Resolution is deterministic: a second run yields the bit-identical family.
        let again = resolve_curves(&source, &platform, &options).unwrap();
        assert_eq!(again, family);
        // And the resolved family drives a working Mess model through resolve_factory.
        let model = ModelSpec::with_curves(MemoryModelKind::Mess, source);
        let factory = resolve_factory(&model, &platform, &options).unwrap();
        assert_eq!(factory.kind(), MemoryModelKind::Mess);
    }

    #[test]
    fn the_curves_override_hijacks_every_source() {
        use mess_core::CurveSetProvenance;
        let platform = PlatformRef::quick(PlatformId::IntelSkylake).resolve();
        let override_family = PlatformRef::quick(PlatformId::FujitsuA64fx)
            .resolve()
            .reference_family();
        let options = ScenarioOptions {
            curves: Some(
                CurveSet::new(
                    override_family.clone(),
                    CurveSetProvenance::new("a64fx", "reference", "synthetic", "test"),
                )
                .unwrap(),
            ),
            ..Default::default()
        };
        let resolved =
            resolve_curves(&CurveSourceSpec::PlatformReference, &platform, &options).unwrap();
        assert_eq!(resolved, override_family);
        assert_ne!(resolved, platform.reference_family());
    }

    #[test]
    fn observed_runs_narrate_legs_without_changing_results() {
        use std::sync::Mutex;
        let spec = ScenarioSpec {
            id: "observed".into(),
            title: "observed".into(),
            platform: PlatformRef::quick(PlatformId::IntelSkylake),
            kind: ScenarioKind::ModelComparison {
                models: vec![
                    ModelSpec::of(MemoryModelKind::FixedLatency),
                    ModelSpec::of(MemoryModelKind::Md1Queue),
                ],
                sweep: SweepSpec::preset(SweepPreset::Reduced),
            },
            notes: vec![],
        };
        let events: Mutex<Vec<ProgressEvent>> = Mutex::new(Vec::new());
        let sink = |event: ProgressEvent| events.lock().unwrap().push(event);
        let observed = run_scenario_observed(&spec, &ScenarioOptions::default(), &sink).unwrap();
        let silent = run_scenario_with(&spec, &ScenarioOptions::default()).unwrap();
        assert_eq!(
            observed.report, silent.report,
            "the sink must not perturb results"
        );
        assert_eq!(observed.curve_sets, silent.curve_sets);

        let events = events.into_inner().unwrap();
        assert!(matches!(
            events.first(),
            Some(ProgressEvent::ScenarioStarted { .. })
        ));
        assert!(
            matches!(events.last(), Some(ProgressEvent::ScenarioFinished { rows, .. }) if *rows == 2)
        );
        let started = events
            .iter()
            .filter(|e| matches!(e, ProgressEvent::LegStarted { .. }))
            .count();
        let finished = events
            .iter()
            .filter(|e| matches!(e, ProgressEvent::LegFinished { .. }))
            .count();
        assert_eq!(started, 2, "one leg per model");
        assert_eq!(finished, 2);
        assert!(events.iter().all(|e| e.scenario() == "observed"));
    }

    #[test]
    fn cancelled_scenarios_and_campaign_members_never_run() {
        let scenario = |id: &str| ScenarioSpec {
            id: id.into(),
            title: id.into(),
            platform: PlatformRef::quick(PlatformId::IntelSkylake),
            kind: ScenarioKind::Run {
                workload: WorkloadSpec::gups(100),
                model: ModelSpec::of(MemoryModelKind::FixedLatency),
                max_cycles: 1_000_000,
            },
            notes: vec![],
        };
        let token = mess_exec::CancelToken::new();
        token.cancel();
        let options = ScenarioOptions {
            cancel: Some(token),
            ..Default::default()
        };
        assert_eq!(
            run_scenario_observed(&scenario("solo"), &options, &NoProgress).unwrap_err(),
            MessError::Cancelled
        );
        let campaign = CampaignSpec {
            name: "cancelled".into(),
            scenarios: vec![scenario("a"), scenario("b")],
        };
        assert_eq!(
            run_campaign_observed(&campaign, &options, &NoProgress).unwrap_err(),
            MessError::Cancelled
        );
        // An unfired token runs everything.
        let live = ScenarioOptions {
            cancel: Some(mess_exec::CancelToken::new()),
            ..Default::default()
        };
        let outcomes = run_campaign_observed(&campaign, &live, &NoProgress).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].report.id, "a");
    }

    #[test]
    fn campaign_runs_are_deterministic_across_worker_counts() {
        let spec = ScenarioSpec {
            id: "det".into(),
            title: "determinism".into(),
            platform: PlatformRef::quick(PlatformId::IntelSkylake),
            kind: ScenarioKind::ModelComparison {
                models: vec![
                    ModelSpec::of(MemoryModelKind::FixedLatency),
                    ModelSpec::of(MemoryModelKind::Md1Queue),
                ],
                sweep: SweepSpec::preset(SweepPreset::Reduced),
            },
            notes: vec![],
        };
        let run = || {
            run_scenario_with(&spec, &ScenarioOptions::default())
                .unwrap()
                .report
        };
        let sequential = mess_exec::with_default_threads(1, run);
        let parallel = mess_exec::with_default_threads(4, run);
        assert_eq!(sequential, parallel);
        assert_eq!(sequential.to_csv(), parallel.to_csv());

        // The same holds one level up: campaign members fan out on the pool too.
        let campaign = CampaignSpec {
            name: "det-campaign".into(),
            scenarios: vec![
                spec.clone(),
                ScenarioSpec {
                    id: "det-run".into(),
                    title: "determinism run".into(),
                    platform: PlatformRef::quick(PlatformId::IntelSkylake),
                    kind: ScenarioKind::Run {
                        workload: WorkloadSpec::gups(100),
                        model: ModelSpec::of(MemoryModelKind::FixedLatency),
                        max_cycles: 1_000_000,
                    },
                    notes: vec![],
                },
            ],
        };
        let run_campaign =
            || run_campaign_observed(&campaign, &ScenarioOptions::default(), &NoProgress).unwrap();
        let sequential = mess_exec::with_default_threads(1, run_campaign);
        let parallel = mess_exec::with_default_threads(4, run_campaign);
        assert_eq!(sequential.len(), 2);
        assert_eq!(sequential, parallel);
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(a.report.to_csv(), b.report.to_csv());
            let json = |o: &ScenarioOutcome| -> Vec<String> {
                o.curve_sets.iter().map(CurveSet::to_json).collect()
            };
            assert_eq!(json(a), json(b));
        }
        assert_eq!(sequential[0].curve_sets.len(), 2, "one artifact per model");
    }

    #[test]
    fn cancel_mid_campaign_skips_members_not_yet_picked_up() {
        // One worker: the first member's finish fires the token, so the other two are
        // picked up after the cancel and return before narrating a start.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let scenario = |id: &str| ScenarioSpec {
            id: id.into(),
            title: id.into(),
            platform: PlatformRef::quick(PlatformId::IntelSkylake),
            kind: ScenarioKind::Run {
                workload: WorkloadSpec::gups(100),
                model: ModelSpec::of(MemoryModelKind::FixedLatency),
                max_cycles: 1_000_000,
            },
            notes: vec![],
        };
        let campaign = CampaignSpec {
            name: "cancel-mid-run".into(),
            scenarios: vec![scenario("a"), scenario("b"), scenario("c")],
        };
        let token = mess_exec::CancelToken::new();
        let options = ScenarioOptions {
            cancel: Some(token.clone()),
            ..Default::default()
        };
        let started = AtomicUsize::new(0);
        let sink = |event: ProgressEvent| match event {
            ProgressEvent::ScenarioStarted { .. } => {
                started.fetch_add(1, Ordering::SeqCst);
            }
            ProgressEvent::ScenarioFinished { .. } => token.cancel(),
            _ => {}
        };
        let result = mess_exec::with_default_threads(1, || {
            run_campaign_observed(&campaign, &options, &sink)
        });
        assert_eq!(result.unwrap_err(), MessError::Cancelled);
        assert_eq!(started.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn skylake_characterization_produces_rising_write_sensitive_curves() {
        use mess_bench::sweep::{characterize_with, SweepConfig};
        let platform = scaled_platform(&PlatformId::IntelSkylake.spec(), Fidelity::Quick);
        // The same sweep the fig2 builtin scenario uses at quick fidelity.
        let sweep = SweepConfig {
            store_mixes: vec![0.0, 1.0],
            pause_levels: vec![200, 40, 8, 0],
            chase_loads: 150,
            max_cycles_per_point: 800_000,
        };
        let c = characterize_with(
            platform.name,
            &platform.cpu_config(),
            || platform.build_dram(),
            &sweep,
            &ExecConfig::default(),
        )
        .expect("sweep is valid");
        assert_eq!(c.family.len(), 2);
        let reads = c.family.closest_curve(RwRatio::ALL_READS);
        assert!(reads.max_latency() > reads.unloaded_latency());
        // Write-heavy traffic must achieve less bandwidth than pure reads (paper §II-C).
        let writes = c.family.closest_curve(RwRatio::HALF);
        assert!(writes.max_bandwidth() < reads.max_bandwidth());
        // And the whole family stays below the theoretical peak.
        assert!(c.family.max_bandwidth().as_gbs() <= platform.theoretical_bandwidth().as_gbs());
    }

    #[test]
    fn trace_folding_counts_every_request_once() {
        use mess_bench::trace::TraceRecord;
        use mess_types::Frequency;
        let records: Vec<TraceRecord> = (0..1_000)
            .map(|i| TraceRecord {
                cycle: i * 10,
                addr: i * 64,
                kind: if i % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            })
            .collect();
        let trace = Trace { records };
        let samples = trace_to_samples(&trace, Frequency::from_ghz(2.0), 1.0);
        assert!(!samples.is_empty());
        let freq = Frequency::from_ghz(2.0);
        let window = Cycle::new((1.0 * 1_000.0 * freq.as_ghz()) as u64).to_latency(freq);
        let total_bytes: f64 = samples
            .iter()
            .map(|s| s.bandwidth.as_gbs() * window.as_ns())
            .sum();
        assert!(
            (total_bytes - 1_000.0 * 64.0).abs() < 1.0,
            "bytes accounted {total_bytes}"
        );
    }

    #[test]
    fn hpcg_profile_is_memory_intensive_on_a_small_platform() {
        let platform = scaled_platform(&PlatformId::IntelCascadeLake.spec(), Fidelity::Quick);
        let timeline = profile_hpcg(&platform, Fidelity::Quick);
        assert!(!timeline.is_empty());
        assert!(timeline.peak_bandwidth().as_gbs() > 1.0);
        assert!(timeline.mean_stress() >= 0.0 && timeline.mean_stress() <= 1.0);
    }
}
