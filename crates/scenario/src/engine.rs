//! The scenario engine: one `characterize → simulate → report` pipeline for every spec.
//!
//! [`run_scenario_observed`] resolves a [`ScenarioSpec`] through the lower-layer
//! registries (platforms, models, workloads, sweeps) and executes it, narrating its legs to
//! a [`ProgressSink`]; [`run_campaign_observed`] fans a [`CampaignSpec`] out, one
//! `par_map` item per scenario. Campaign members and the legs of a scenario alike use the
//! order-preserving `par_map`, so reports are byte-identical at any worker count.
//!
//! Every [`ScenarioKind`] lowers to legs, each a progress label plus its work, and one
//! private leg runner executes them: it is the only place a leg is narrated, counted and
//! fanned out. The per-kind code resolves models and curve sources before the fan-out, so
//! spec errors surface before any leg runs, and afterwards only folds the leg results into
//! rows. The five curve-measuring kinds (`CurveFamily`, `PlatformTable`,
//! `ModelComparison`, `MessCurves`, `CxlHosts`) share one characterization plan on top of
//! it: every leg characterizes, builds its row and files one [`CurveSet`] artifact the
//! same way.
//!
//! The public free functions in this module (stream runs and IPC error, STREAM reference
//! bandwidths, trace capture and folding, workload profiling, curve-source resolution) are
//! the plumbing the scenario kinds share.

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
/// Each one names a [`WorkloadSpec`]: [`ValidationWorkload::spec`] builds the declarative
/// spec and [`ValidationWorkload::streams`] resolves it, so the validation set and any
/// scenario file construct their workloads through the same pipeline.
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
            let factory = resolve_factory(model, platform, options)?;
            characterize(platform.name, platform, &factory, sweep)
        }
        other => other.family(platform),
    }
}

/// Builds `model`'s factory for `platform`, resolving its curve source (including the
/// `File` and `Characterized` variants) through [`resolve_curves`], and proves one
/// instance constructs, so spec errors surface as `Err` before any leg would
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

/// Runs the Mess benchmark against `factory`'s model on `platform` and returns the measured
/// family, named `name`.
///
/// This is the one place the scenario layer characterizes, so every characterization opens
/// a `characterize` span (under the leg span when one is entered on this thread) and counts
/// in `mess_scenario_characterizations_total`.
fn characterize(
    name: &str,
    platform: &PlatformSpec,
    factory: &ModelFactory,
    sweep: &SweepSpec,
) -> Result<CurveFamily, MessError> {
    let _span = mess_obs::Span::start("characterize")
        .arg("platform", platform.name)
        .arg("model", factory.kind().label());
    if let Some(metrics) = crate::obs::ScenarioMetrics::if_enabled() {
        metrics.characterizations.inc();
    }
    let c = characterize_spec(
        name,
        &platform.cpu_config(),
        || factory.build().expect("the factory was proven to build"),
        sweep,
        &ExecConfig::default(),
    )?;
    Ok(c.family)
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
/// unreadable `--curves` artifact), without running anything. Once running, only a
/// characterization leg can fail, when its measured points do not form a valid curve
/// family; the first such error in leg order is returned.
pub fn run_scenario_with(
    spec: &ScenarioSpec,
    options: &ScenarioOptions,
) -> Result<ScenarioOutcome, MessError> {
    run_scenario_observed(spec, options, &NoProgress)
}

/// [`run_scenario_with`] narrating its execution through `sink`: one
/// [`ProgressEvent::ScenarioStarted`] after validation, a started/finished pair per leg,
/// and one [`ProgressEvent::ScenarioFinished`] with the final row and artifact counts. The
/// sink receives events from the engine's worker threads; it observes scheduling, never
/// influences results.
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
    let mut ctx = Context {
        spec,
        options,
        sink,
        platform: spec.platform.resolve(),
        curve_sets: Vec::new(),
    };
    let cx = &mut ctx;
    let mut report = match &spec.kind {
        ScenarioKind::CurveFamily {
            model,
            sweep,
            stream_llc_multiple,
            paper_reference,
        } => curve_family(cx, model, sweep, *stream_llc_multiple, *paper_reference)?,
        ScenarioKind::PlatformTable {
            platforms,
            model,
            sweep,
            stream_llc_multiple,
        } => platform_table(cx, platforms, model, sweep, *stream_llc_multiple)?,
        ScenarioKind::ModelComparison { models, sweep } => model_comparison(cx, models, sweep)?,
        ScenarioKind::TraceReplay {
            models,
            trace_ops,
            trace_pause,
            speeds,
        } => trace_replay(cx, models, *trace_ops, *trace_pause, speeds)?,
        ScenarioKind::RowBuffer {
            models,
            store_mixes,
            pauses,
            max_cycles,
        } => row_buffer(cx, models, store_mixes, pauses, *max_cycles)?,
        ScenarioKind::MessCurves {
            platforms,
            curves,
            sweep,
        } => mess_curves(cx, platforms, curves, sweep)?,
        ScenarioKind::IpcError {
            models,
            workloads,
            max_cycles,
        } => ipc_error(cx, models, workloads, *max_cycles)?,
        ScenarioKind::CxlHosts {
            hosts,
            curves,
            device_peak_gbs,
            sweep,
        } => cxl_hosts(cx, hosts, curves, *device_peak_gbs, sweep)?,
        ScenarioKind::CxlVsRemote {
            benchmarks,
            ops_per_core,
            max_cycles,
            expander,
            emulation,
            device_peak_gbs,
        } => cxl_vs_remote(
            cx,
            benchmarks,
            *ops_per_core,
            *max_cycles,
            expander,
            emulation,
            *device_peak_gbs,
        )?,
        ScenarioKind::Profile {
            workload,
            model,
            curves,
            window_us,
            phase_threshold,
            max_cycles,
        } => profile(
            cx,
            workload,
            model,
            curves,
            *window_us,
            *phase_threshold,
            *max_cycles,
        )?,
        ScenarioKind::Run {
            workload,
            model,
            max_cycles,
        } => single_run(cx, workload, model, *max_cycles)?,
    };
    for note in &spec.notes {
        report.note(note.clone());
    }
    sink.emit(ProgressEvent::ScenarioFinished {
        scenario: spec.id.clone(),
        rows: report.rows.len(),
        artifacts: ctx.curve_sets.len(),
    });
    Ok(ScenarioOutcome {
        report,
        curve_sets: ctx.curve_sets,
    })
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
// Legs and the one leg runner
// ---------------------------------------------------------------------------

/// What every per-kind runner works with: the spec, the operator options, the progress
/// sink, the spec's platform (resolved once) and the curve artifacts filed so far.
struct Context<'a> {
    spec: &'a ScenarioSpec,
    options: &'a ScenarioOptions,
    sink: &'a dyn ProgressSink,
    platform: PlatformSpec,
    curve_sets: Vec<CurveSet>,
}

/// One unit of a scenario's fan-out: its progress label and the work computing its result.
struct Leg<'a, R> {
    label: String,
    work: Box<dyn FnOnce() -> R + Send + 'a>,
}

impl<'a, R> Leg<'a, R> {
    fn new(label: impl Into<String>, work: impl FnOnce() -> R + Send + 'a) -> Self {
        Leg {
            label: label.into(),
            work: Box::new(work),
        }
    }
}

impl Context<'_> {
    /// An empty report with the spec's id and title.
    fn report(&self, headers: &[&str]) -> ExperimentReport {
        ExperimentReport::new(&self.spec.id, &self.spec.title, headers)
    }

    /// [`resolve_curves`] on the spec's platform.
    fn curves(&self, source: &CurveSourceSpec) -> Result<CurveFamily, MessError> {
        resolve_curves(source, &self.platform, self.options)
    }

    /// [`resolve_factory`] for each of `models` on the spec's platform, in model order.
    fn factories(&self, models: &[ModelSpec]) -> Result<Vec<ModelFactory>, MessError> {
        models
            .iter()
            .map(|model| resolve_factory(model, &self.platform, self.options))
            .collect()
    }

    /// Runs `legs` as one fan-out on `exec` and returns their results in leg order.
    ///
    /// This is the one place a leg executes: each is narrated as a
    /// [`ProgressEvent::LegStarted`]/[`ProgressEvent::LegFinished`] pair (its index in this
    /// fan-out, the fan-out's size as `total`) and counted in `mess_scenario_legs_total`.
    /// Plans whose legs nest parallel work (a sweep, STREAM) pass
    /// [`ExecConfig::for_fanout`]; flat plans pass the default.
    fn run_legs<R: Send>(&self, exec: &ExecConfig, legs: Vec<Leg<'_, R>>) -> Vec<R> {
        let total = legs.len();
        mess_exec::par_map_with(exec, legs, |index, leg| {
            self.sink.emit(ProgressEvent::LegStarted {
                scenario: self.spec.id.clone(),
                leg: leg.label.clone(),
                index,
                total,
            });
            if let Some(metrics) = crate::obs::ScenarioMetrics::if_enabled() {
                metrics.legs.inc();
            }
            let result = (leg.work)();
            self.sink.emit(ProgressEvent::LegFinished {
                scenario: self.spec.id.clone(),
                leg: leg.label,
                index,
                total,
            });
            result
        })
    }

    /// Runs one leg. A lone leg runs inline on the caller's thread, so parallel work inside
    /// it keeps the whole pool.
    fn run_leg<R: Send>(&self, label: impl Into<String>, work: impl FnOnce() -> R + Send) -> R {
        let legs = vec![Leg::new(label, work)];
        let mut results = self.run_legs(&ExecConfig::default(), legs);
        results.pop().expect("one leg yields one result")
    }

    /// Characterizes every leg's model with `sweep` and returns each leg's `row` in leg
    /// order, filing one [`CurveSet`] artifact per leg.
    ///
    /// This is the one place a curve-measuring kind runs the Mess benchmark. With fewer legs
    /// than pool workers the legs run sequentially and each leg's sweep takes the pool
    /// instead (`for_fanout`); nested maps on a pool worker never fan out, so both
    /// schedules produce identical rows.
    fn characterize_legs<R: Send>(
        &mut self,
        sweep: &SweepSpec,
        legs: &[CurveLeg],
        row: impl Fn(&CurveLeg, &CurveFamily) -> R + Sync,
    ) -> Result<Vec<R>, MessError> {
        let row = &row;
        let plan = legs
            .iter()
            .map(|leg| {
                Leg::new(leg.label.clone(), move || {
                    let family = characterize(leg.family, &leg.platform, &leg.factory, sweep)?;
                    Ok((row(leg, &family), family))
                })
            })
            .collect();
        let results = self.run_legs(&ExecConfig::for_fanout(legs.len()), plan);
        let mut rows = Vec::with_capacity(legs.len());
        for (leg, result) in legs.iter().zip(results) {
            let (r, family) = result?;
            let set = artifact(&self.spec.id, &leg.platform, leg.model, sweep, family);
            self.curve_sets.extend(set);
            rows.push(r);
        }
        Ok(rows)
    }
}

/// One characterization leg: the Mess benchmark run against one resolved memory model on
/// one platform.
struct CurveLeg {
    /// The leg's progress label.
    label: String,
    /// The platform the benchmark runs on.
    platform: PlatformSpec,
    /// The model under test, resolved (and proven to build) before the fan-out.
    factory: ModelFactory,
    /// The measured family's name, which is part of the artifact bytes.
    family: &'static str,
    /// The model label of the leg's artifact provenance.
    model: &'static str,
}

impl CurveLeg {
    /// A leg characterizing `model` on `platform`, labelled `label`; the family takes the
    /// platform's name.
    fn model(
        label: String,
        platform: PlatformSpec,
        model: &ModelSpec,
        options: &ScenarioOptions,
    ) -> Result<CurveLeg, MessError> {
        Ok(CurveLeg {
            label,
            factory: resolve_factory(model, &platform, options)?,
            family: platform.name,
            model: model.kind.label(),
            platform,
        })
    }

    /// A leg characterizing a curve-driven Mess simulator on `platform`, fed `curves` as
    /// resolved for that platform. Returns the leg and its input family.
    fn mess(
        platform: &PlatformRef,
        curves: &CurveSourceSpec,
        family: &'static str,
        options: &ScenarioOptions,
    ) -> Result<(CurveLeg, CurveFamily), MessError> {
        let platform = platform.resolve();
        let input = resolve_curves(curves, &platform, options)?;
        let factory = ModelFactory::with_curves(MemoryModelKind::Mess, &platform, input.clone());
        factory.build()?;
        let leg = CurveLeg {
            label: platform.id.key().to_string(),
            platform,
            factory,
            family,
            model: "mess",
        };
        Ok((leg, input))
    }
}

// ---------------------------------------------------------------------------
// Per-kind lowering
// ---------------------------------------------------------------------------

fn curve_family(
    cx: &mut Context,
    model: &ModelSpec,
    sweep: &SweepSpec,
    stream_llc_multiple: Option<u64>,
    paper_reference: bool,
) -> Result<ExperimentReport, MessError> {
    let label = model.kind.label().to_string();
    let leg = CurveLeg::model(label, cx.platform.clone(), model, cx.options)?;
    let mut report = cx.report(&["read_percent", "bandwidth_gbs", "latency_ns"]);
    let measured = cx.characterize_legs(sweep, &[leg], |leg, family| {
        let metrics = FamilyMetrics::compute(family, leg.platform.theoretical_bandwidth());
        (family.to_rows(), metrics.table_row())
    })?;
    for (rows, metrics) in measured {
        for (pct, bw, lat) in rows {
            report.push_row(vec![
                pct.to_string(),
                format!("{bw:.2}"),
                format!("{lat:.1}"),
            ]);
        }
        report.note(metrics);
    }
    let platform = &cx.platform;
    if let Some(llc_multiple) = stream_llc_multiple {
        let streams = cx.run_leg("stream", || {
            stream_bandwidths(platform, llc_multiple, &ExecConfig::default())
        });
        for (kernel, gbs) in streams {
            report.note(format!(
                "STREAM {kernel}: {gbs:.1} GB/s (application-level)"
            ));
        }
    }
    if let Some(r) = platform.reference.filter(|_| paper_reference) {
        report.note(format!(
            "paper reference: unloaded {} ns, saturated {}-{}% of theoretical, max latency {}-{} ns",
            r.unloaded_latency_ns,
            r.saturated_bw_low_pct,
            r.saturated_bw_high_pct,
            r.max_latency_low_ns,
            r.max_latency_high_ns
        ));
    }
    Ok(report)
}

fn platform_table(
    cx: &mut Context,
    platforms: &[PlatformRef],
    model: &ModelSpec,
    sweep: &SweepSpec,
    stream_llc_multiple: u64,
) -> Result<ExperimentReport, MessError> {
    let legs: Vec<CurveLeg> = platforms
        .iter()
        .map(|p| CurveLeg::model(p.id.key().to_string(), p.resolve(), model, cx.options))
        .collect::<Result<_, MessError>>()?;
    let mut report = cx.report(&[
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
    ]);
    let rows = cx.characterize_legs(sweep, &legs, |leg, family| {
        let platform = &leg.platform;
        let theoretical = platform.theoretical_bandwidth();
        let m = FamilyMetrics::compute(family, theoretical);
        let streams = stream_bandwidths(platform, stream_llc_multiple, &ExecConfig::default());
        let stream_low = streams.iter().map(|(_, b)| *b).fold(f64::MAX, f64::min);
        let stream_high = streams.iter().map(|(_, b)| *b).fold(0.0, f64::max);
        let r = platform.reference;
        vec![
            platform.id.key().to_string(),
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
        ]
    })?;
    report.push_rows(rows);
    Ok(report)
}

fn model_comparison(
    cx: &mut Context,
    models: &[ModelSpec],
    sweep: &SweepSpec,
) -> Result<ExperimentReport, MessError> {
    let legs: Vec<CurveLeg> = cx
        .factories(models)?
        .into_iter()
        .map(|factory| CurveLeg {
            label: factory.kind().label().to_string(),
            platform: cx.platform.clone(),
            family: factory.kind().label(),
            model: factory.kind().label(),
            factory,
        })
        .collect();
    let mut report = cx.report(&[
        "memory_model",
        "unloaded_ns",
        "max_latency_ns",
        "max_bandwidth_gbs",
        "max_bw_pct_of_theoretical",
    ]);
    let rows = cx.characterize_legs(sweep, &legs, |leg, family| {
        let m = FamilyMetrics::compute(family, leg.platform.theoretical_bandwidth());
        vec![
            leg.model.to_string(),
            format!("{:.0}", m.unloaded_latency.as_ns()),
            format!("{:.0}", m.max_latency_range.high.as_ns()),
            format!("{:.0}", m.saturated_bandwidth_range.high.as_gbs()),
            format!("{:.0}", m.saturated_bandwidth_range.high_fraction * 100.0),
        ]
    })?;
    report.push_rows(rows);
    report.note(format!(
        "reference platform: {} ({:.0} GB/s theoretical); the detailed-dram row plays the role \
         of the actual hardware",
        cx.platform.name,
        cx.platform.theoretical_bandwidth().as_gbs()
    ));
    Ok(report)
}

fn trace_replay(
    cx: &mut Context,
    models: &[ModelSpec],
    trace_ops: u64,
    trace_pause: u32,
    speeds: &[f64],
) -> Result<ExperimentReport, MessError> {
    let factories = cx.factories(models)?;
    let platform = &cx.platform;
    let trace = cx.run_leg("capture", || {
        capture_trace(platform, trace_pause, trace_ops)
    });
    let mut report = cx.report(&[
        "memory_model",
        "replay_speed",
        "bandwidth_gbs",
        "avg_read_latency_ns",
    ]);
    report.note(format!(
        "trace: {} requests, {} of them reads",
        trace.len(),
        trace.rw_ratio()
    ));
    // One replay leg per (model, speed): the trace and the per-model factories are shared
    // read-only, each leg builds its own model instance.
    let trace = &trace;
    let mut legs = Vec::new();
    for factory in &factories {
        let model = factory.kind().label();
        legs.extend(speeds.iter().map(|&speed| {
            Leg::new(format!("{model}@{speed:.1}x"), move || {
                let mut backend = factory.build().expect("model construction is valid here");
                let r = replay(trace, backend.as_mut(), platform.frequency, speed);
                vec![
                    model.to_string(),
                    format!("{speed:.1}"),
                    format!("{:.2}", r.bandwidth.as_gbs()),
                    format!("{:.1}", r.latency.as_ns()),
                ]
            })
        }));
    }
    report.push_rows(cx.run_legs(&ExecConfig::default(), legs));
    Ok(report)
}

fn row_buffer(
    cx: &mut Context,
    models: &[ModelSpec],
    store_mixes: &[f64],
    pauses: &[u32],
    max_cycles: u64,
) -> Result<ExperimentReport, MessError> {
    let factories = cx.factories(models)?;
    let mut report = cx.report(&[
        "memory_model",
        "traffic",
        "pause",
        "bandwidth_gbs",
        "hit_pct",
        "empty_pct",
        "miss_pct",
    ]);
    // The full (model, traffic, pause) grid runs in parallel; the per-model factories are
    // shared and each leg builds its own backend instance.
    let platform = &cx.platform;
    let mut legs = Vec::new();
    for factory in &factories {
        let model = factory.kind().label();
        for &mix in store_mixes {
            let traffic = if mix == 0.0 {
                "100%-read".to_string()
            } else {
                format!("{:.0}%-store", mix * 100.0)
            };
            for &pause in pauses {
                let traffic = traffic.clone();
                let label = format!("{model} {traffic} pause {pause}");
                legs.push(Leg::new(label, move || {
                    let mut backend = factory.build().expect("model construction is valid here");
                    let cpu = platform.cpu_config();
                    let lanes =
                        TrafficConfig::new(mix, pause, cpu.llc.capacity_bytes).lanes(cpu.cores);
                    let run = run_streams(platform, lanes, backend.as_mut(), max_cycles);
                    let (bw, rb) = (run.bandwidth.as_gbs(), run.memory.row_buffer);
                    vec![
                        model.to_string(),
                        traffic,
                        pause.to_string(),
                        format!("{bw:.1}"),
                        format!("{:.0}", rb.hit_rate() * 100.0),
                        format!("{:.0}", rb.empty_rate() * 100.0),
                        format!("{:.0}", rb.miss_rate() * 100.0),
                    ]
                }));
            }
        }
    }
    report.push_rows(cx.run_legs(&ExecConfig::default(), legs));
    Ok(report)
}

fn mess_curves(
    cx: &mut Context,
    platforms: &[PlatformRef],
    curves: &CurveSourceSpec,
    sweep: &SweepSpec,
) -> Result<ExperimentReport, MessError> {
    // The simulator's input curves resolve per platform: the reference family, a loaded
    // artifact, or a fresh characterization of the leg's own backend (the paper's
    // self-characterization loop).
    let (legs, inputs): (Vec<CurveLeg>, Vec<CurveFamily>) = platforms
        .iter()
        .map(|p| CurveLeg::mess(p, curves, "mess", cx.options))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    let mut report = cx.report(&[
        "platform",
        "input_unloaded_ns",
        "simulated_unloaded_ns",
        "input_max_bw_gbs",
        "simulated_max_bw_gbs",
        "max_bw_error_pct",
    ]);
    let simulated = cx.characterize_legs(sweep, &legs, |leg, family| {
        FamilyMetrics::compute(family, leg.platform.theoretical_bandwidth())
    })?;
    for ((leg, input), simulated) in legs.iter().zip(&inputs).zip(simulated) {
        let input = FamilyMetrics::compute(input, leg.platform.theoretical_bandwidth());
        let bw_err = ipc_error_percent(
            simulated.saturated_bandwidth_range.high.as_gbs(),
            input.saturated_bandwidth_range.high.as_gbs(),
        );
        report.push_row(vec![
            leg.platform.id.key().to_string(),
            format!("{:.0}", input.unloaded_latency.as_ns()),
            format!("{:.0}", simulated.unloaded_latency.as_ns()),
            format!("{:.0}", input.saturated_bandwidth_range.high.as_gbs()),
            format!("{:.0}", simulated.saturated_bandwidth_range.high.as_gbs()),
            format!("{bw_err:.1}"),
        ]);
    }
    Ok(report)
}

fn ipc_error(
    cx: &mut Context,
    models: &[ModelSpec],
    workloads: &[WorkloadSpec],
    max_cycles: u64,
) -> Result<ExperimentReport, MessError> {
    let factories = cx.factories(models)?;
    let platform = &cx.platform;
    // One plan: a reference leg per workload on a private detailed DRAM system, then the
    // (model × workload) grid, each leg building a private model instance from its shared
    // factory. Every leg yields an IPC; the errors are computed once all have run.
    let reference = workloads.iter().map(|w| {
        Leg::new(format!("reference:{}", w.label()), move || {
            let mut dram = platform.build_dram();
            spec_workload_ipc(w, platform, &mut dram, max_cycles)
        })
    });
    let grid = factories.iter().flat_map(|factory| {
        workloads.iter().map(move |w| {
            let label = format!("{}:{}", factory.kind().label(), w.label());
            Leg::new(label, move || {
                let mut backend = factory.build().expect("model construction is valid here");
                spec_workload_ipc(w, platform, backend.as_mut(), max_cycles)
            })
        })
    });
    let ipcs = cx.run_legs(&ExecConfig::default(), reference.chain(grid).collect());
    let (reference, simulated) = ipcs.split_at(workloads.len());

    let mut report = cx.report(&[]);
    report.headers = std::iter::once("memory_model".to_string())
        .chain(workloads.iter().map(|w| w.label()))
        .chain(["average".to_string()])
        .collect();
    for (model, ipcs) in models.iter().zip(simulated.chunks(workloads.len())) {
        let errors: Vec<f64> = ipcs
            .iter()
            .zip(reference)
            .map(|(&ipc, &r)| ipc_error_percent(ipc, r))
            .collect();
        let mut cells = vec![model.kind.label().to_string()];
        cells.extend(errors.iter().map(|err| format!("{err:.1}")));
        let avg = errors.iter().sum::<f64>() / errors.len() as f64;
        cells.push(format!("{avg:.1}"));
        report.push_row(cells);
    }
    report.note(format!(
        "absolute IPC error in percent against the detailed-DRAM reference on {}",
        platform.name
    ));
    Ok(report)
}

fn cxl_hosts(
    cx: &mut Context,
    hosts: &[PlatformRef],
    curves: &CurveSourceSpec,
    device_peak_gbs: f64,
    sweep: &SweepSpec,
) -> Result<ExperimentReport, MessError> {
    let device_peak = Bandwidth::from_gbs(device_peak_gbs);
    let reference = FamilyMetrics::compute(&cx.curves(curves)?, device_peak);
    // One leg per simulated host, each characterizing a curve-driven Mess simulator.
    let legs: Vec<CurveLeg> = hosts
        .iter()
        .map(|host| Ok(CurveLeg::mess(host, curves, "cxl", cx.options)?.0))
        .collect::<Result<_, MessError>>()?;
    let mut report = cx.report(&[
        "host",
        "unloaded_ns",
        "max_bandwidth_gbs",
        "max_bw_pct_of_cxl_peak",
    ]);
    report.push_row(vec![
        "manufacturer-model".to_string(),
        format!("{:.0}", reference.unloaded_latency.as_ns()),
        format!("{:.1}", reference.saturated_bandwidth_range.high.as_gbs()),
        format!(
            "{:.0}",
            reference.saturated_bandwidth_range.high_fraction * 100.0
        ),
    ]);
    let rows = cx.characterize_legs(sweep, &legs, |leg, family| {
        let m = FamilyMetrics::compute(family, device_peak);
        vec![
            leg.platform.id.key().to_string(),
            format!("{:.0}", m.unloaded_latency.as_ns()),
            format!("{:.1}", m.saturated_bandwidth_range.high.as_gbs()),
            format!("{:.0}", m.saturated_bandwidth_range.high_fraction * 100.0),
        ]
    })?;
    report.push_rows(rows);
    Ok(report)
}

fn cxl_vs_remote(
    cx: &mut Context,
    benchmarks: &[String],
    ops_per_core: u64,
    max_cycles: u64,
    expander: &CurveSourceSpec,
    emulation: &CurveSourceSpec,
    device_peak_gbs: f64,
) -> Result<ExperimentReport, MessError> {
    let suite: Vec<mess_workloads::SpecWorkload> = benchmarks
        .iter()
        .map(|name| {
            mess_workloads::spec_suite::find(name).ok_or_else(|| {
                MessError::InvalidConfig(format!("unknown SPEC CPU2006 benchmark `{name}`"))
            })
        })
        .collect::<Result<_, _>>()?;
    let cxl_curves = &cx.curves(expander)?;
    let remote_curves = &cx.curves(emulation)?;
    let mut report = cx.report(&[
        "benchmark",
        "cxl_bw_utilisation_pct",
        "class",
        "ipc_cxl",
        "ipc_remote_socket",
        "perf_difference_pct",
    ]);
    // One leg per benchmark: both the CXL and the remote-socket runs of a benchmark happen
    // on the same worker (they feed one row), different benchmarks run concurrently.
    let platform = &cx.platform;
    // Runs benchmark `w` against a Mess simulator fed `curves`, returning the IPC and the
    // bandwidth utilisation of the device peak.
    let run = move |w: &mess_workloads::SpecWorkload, curves: &CurveFamily| {
        let (frequency, on_chip) = (platform.frequency, platform.cpu.on_chip_latency);
        let config = MessSimulatorConfig::new(curves.clone(), frequency, on_chip);
        let mut backend = MessSimulator::new(config).expect("curve families are valid");
        let streams = w.multiprogrammed(platform.cpu.cores, ops_per_core);
        let report = run_streams(platform, streams, &mut backend, max_cycles);
        (report.ipc(), report.bandwidth.as_gbs() / device_peak_gbs)
    };
    let legs = suite
        .iter()
        .map(|w| {
            Leg::new(w.name, move || {
                let (ipc_cxl, utilisation) = run(w, cxl_curves);
                let (ipc_remote, _) = run(w, remote_curves);
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
        })
        .collect();
    report.push_rows(cx.run_legs(&ExecConfig::default(), legs));
    Ok(report)
}

fn profile(
    cx: &mut Context,
    workload: &WorkloadSpec,
    model: &ModelSpec,
    curves: &CurveSourceSpec,
    window_us: f64,
    phase_threshold: f64,
    max_cycles: u64,
) -> Result<ExperimentReport, MessError> {
    let factory = resolve_factory(model, &cx.platform, cx.options)?;
    let family = cx.curves(curves)?;
    let platform = &cx.platform;
    let timeline = cx.run_leg(workload.label(), || {
        profile_workload(platform, workload, &factory, family, window_us, max_cycles)
    })?;
    let mut report = cx.report(&[
        "time_us",
        "bandwidth_gbs",
        "read_percent",
        "latency_ns",
        "stress_score",
    ]);
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

fn single_run(
    cx: &mut Context,
    workload: &WorkloadSpec,
    model: &ModelSpec,
    max_cycles: u64,
) -> Result<ExperimentReport, MessError> {
    let factory = resolve_factory(model, &cx.platform, cx.options)?;
    let platform = &cx.platform;
    let run = cx.run_leg(workload.label(), || {
        let cpu = platform.cpu_config();
        let streams = workload.streams(cpu.llc.capacity_bytes, cpu.cores)?;
        let mut backend = factory.build()?;
        Ok::<_, MessError>(run_streams(platform, streams, backend.as_mut(), max_cycles))
    })?;
    let mut report = cx.report(&[
        "workload",
        "memory_model",
        "platform",
        "ipc",
        "bandwidth_gbs",
        "instructions",
        "cycles",
    ]);
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
    fn zero_core_or_channel_overrides_fail_validation_instead_of_panicking() {
        let skylake = PlatformRef::quick(PlatformId::IntelSkylake);
        let zero_cores = PlatformRef {
            cores: Some(0),
            ..skylake
        };
        let zero_channels = PlatformRef {
            channels: Some(0),
            ..skylake
        };
        for bad in [zero_cores, zero_channels] {
            let mut fig2 = crate::builtin_spec("fig2", Fidelity::Quick).unwrap();
            fig2.platform = bad;
            let mut fig10 = crate::builtin_spec("fig10", Fidelity::Quick).unwrap();
            if let ScenarioKind::MessCurves { platforms, .. } = &mut fig10.kind {
                platforms[0] = bad;
            }
            let mut fig14 = crate::builtin_spec("fig14", Fidelity::Quick).unwrap();
            if let ScenarioKind::CxlHosts { hosts, .. } = &mut fig14.kind {
                hosts[1] = bad;
            }
            for spec in [fig2, fig10, fig14] {
                let result = run_scenario_with(&spec, &ScenarioOptions::default());
                let invalid = matches!(result, Err(MessError::InvalidConfig(_)));
                assert!(invalid, "{}: {result:?}", spec.id);
            }
        }
    }

    #[test]
    fn a_sweep_with_one_pause_level_is_rejected_before_running() {
        let mut spec = crate::builtin_spec("fig10", Fidelity::Quick).unwrap();
        if let ScenarioKind::MessCurves { sweep, .. } = &mut spec.kind {
            sweep.pause_levels = Some(vec![0]);
        }
        let result = run_scenario_with(&spec, &ScenarioOptions::default());
        assert!(
            matches!(result, Err(MessError::InvalidConfig(_))),
            "{result:?}"
        );
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
        let skylake = PlatformRef::quick(PlatformId::IntelSkylake);
        let sweep = || SweepSpec::preset(SweepPreset::Reduced);
        let fixed = || ModelSpec::of(MemoryModelKind::FixedLatency);
        let cxl = || CurveSourceSpec::CxlManufacturer {
            host_link_ns: 180.0,
        };
        // One small spec per kind, with the number of legs its plan runs.
        let kinds = [
            (
                "curve-family",
                2,
                ScenarioKind::CurveFamily {
                    model: fixed(),
                    sweep: sweep(),
                    stream_llc_multiple: Some(0),
                    paper_reference: true,
                },
            ),
            (
                "platform-table",
                1,
                ScenarioKind::PlatformTable {
                    platforms: vec![skylake],
                    model: fixed(),
                    sweep: sweep(),
                    stream_llc_multiple: 0,
                },
            ),
            (
                "model-comparison",
                2,
                ScenarioKind::ModelComparison {
                    models: vec![fixed(), ModelSpec::of(MemoryModelKind::Md1Queue)],
                    sweep: sweep(),
                },
            ),
            (
                "trace-replay",
                3,
                ScenarioKind::TraceReplay {
                    models: vec![ModelSpec::of(MemoryModelKind::Md1Queue)],
                    trace_ops: 300,
                    trace_pause: 20,
                    speeds: vec![1.0, 2.0],
                },
            ),
            (
                "row-buffer",
                2,
                ScenarioKind::RowBuffer {
                    models: vec![ModelSpec::of(MemoryModelKind::DetailedDram)],
                    store_mixes: vec![0.0, 1.0],
                    pauses: vec![0],
                    max_cycles: 20_000,
                },
            ),
            (
                "mess-curves",
                1,
                ScenarioKind::MessCurves {
                    platforms: vec![skylake],
                    curves: CurveSourceSpec::PlatformReference,
                    sweep: sweep(),
                },
            ),
            (
                "ipc-error",
                4,
                ScenarioKind::IpcError {
                    models: vec![fixed()],
                    workloads: vec![WorkloadSpec::gups(300), WorkloadSpec::multichase(300)],
                    max_cycles: 400_000,
                },
            ),
            (
                "cxl-hosts",
                1,
                ScenarioKind::CxlHosts {
                    hosts: vec![skylake],
                    curves: cxl(),
                    device_peak_gbs: 43.6,
                    sweep: sweep(),
                },
            ),
            (
                "cxl-vs-remote",
                1,
                ScenarioKind::CxlVsRemote {
                    benchmarks: vec!["lbm".into()],
                    ops_per_core: 300,
                    max_cycles: 400_000,
                    expander: cxl(),
                    emulation: CurveSourceSpec::RemoteSocket,
                    device_peak_gbs: 43.6,
                },
            ),
            (
                "profile",
                1,
                ScenarioKind::Profile {
                    workload: WorkloadSpec::gups(300),
                    model: fixed(),
                    curves: CurveSourceSpec::PlatformReference,
                    window_us: 1.0,
                    phase_threshold: 0.5,
                    max_cycles: 400_000,
                },
            ),
            (
                "run",
                1,
                ScenarioKind::Run {
                    workload: WorkloadSpec::gups(300),
                    model: fixed(),
                    max_cycles: 400_000,
                },
            ),
        ];
        for (id, legs, kind) in kinds {
            let spec = ScenarioSpec {
                id: id.into(),
                title: id.into(),
                platform: skylake,
                kind,
                notes: vec![],
            };
            let events: Mutex<Vec<ProgressEvent>> = Mutex::new(Vec::new());
            let sink = |event: ProgressEvent| events.lock().unwrap().push(event);
            let observed =
                run_scenario_observed(&spec, &ScenarioOptions::default(), &sink).unwrap();
            let silent = run_scenario_with(&spec, &ScenarioOptions::default()).unwrap();
            assert_eq!(
                observed.report, silent.report,
                "{id}: the sink must not perturb results"
            );
            assert_eq!(observed.curve_sets, silent.curve_sets, "{id}");

            let events = events.into_inner().unwrap();
            assert!(events.iter().all(|e| e.scenario() == id), "{id}");
            assert!(matches!(
                events.first(),
                Some(ProgressEvent::ScenarioStarted { .. })
            ));
            assert!(
                matches!(events.last(), Some(ProgressEvent::ScenarioFinished { rows, artifacts, .. })
                    if *rows == observed.report.rows.len() && *artifacts == observed.curve_sets.len()),
                "{id}: {:?}",
                events.last()
            );
            // Fan-outs run one after another, so a fan-out is complete once as many of its
            // legs finished as its `total`; the next start opens the next fan-out.
            let mut fanouts: Vec<(usize, Vec<usize>, Vec<usize>)> = Vec::new();
            for event in &events[1..events.len() - 1] {
                match event {
                    ProgressEvent::LegStarted { index, total, .. } => {
                        if fanouts.last().is_none_or(|(t, _, done)| done.len() == *t) {
                            fanouts.push((*total, Vec::new(), Vec::new()));
                        }
                        let (t, started, _) = fanouts.last_mut().unwrap();
                        assert_eq!(t, total, "{id}: one total per fan-out");
                        started.push(*index);
                    }
                    ProgressEvent::LegFinished { index, total, .. } => {
                        let (t, started, done) = fanouts.last_mut().expect("a leg started");
                        assert_eq!(t, total, "{id}: one total per fan-out");
                        assert!(
                            started.contains(index),
                            "{id}: leg {index} finished unstarted"
                        );
                        done.push(*index);
                    }
                    other => panic!("{id}: unexpected {other:?}"),
                }
            }
            assert!(
                !fanouts.is_empty(),
                "{id}: every kind runs at least one leg"
            );
            let run: usize = fanouts.iter().map(|(total, ..)| total).sum();
            assert_eq!(run, legs, "{id}: legs run");
            for (total, mut started, mut done) in fanouts {
                started.sort_unstable();
                done.sort_unstable();
                let every: Vec<usize> = (0..total).collect();
                assert_eq!(started, every, "{id}: each index below total starts once");
                assert_eq!(done, every, "{id}: each index below total finishes once");
            }
        }
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
        let platform = PlatformRef::quick(PlatformId::IntelSkylake).resolve();
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
        let platform = PlatformRef::quick(PlatformId::IntelCascadeLake).resolve();
        let timeline = profile_hpcg(&platform, Fidelity::Quick);
        assert!(!timeline.is_empty());
        assert!(timeline.peak_bandwidth().as_gbs() > 1.0);
        assert!(timeline.mean_stress() >= 0.0 && timeline.mean_stress() <= 1.0);
    }
}
