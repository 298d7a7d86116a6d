//! The Mess benchmark driver: sweeping traffic mix and intensity into a curve family.
//!
//! One measurement point runs the pointer-chase probe on core 0 and the traffic generator on
//! every remaining core, exactly like the real benchmark runs one latency-measuring thread
//! and `N − 1` bandwidth-generating threads. The memory bandwidth is read from the memory
//! model's counters (the simulator stand-in for uncore PMU counters) and the latency from the
//! probe's dependent loads. Sweeping the store mix selects the curve; sweeping the pause
//! (`nopCount`) moves along the curve from unloaded to fully saturated.
//!
//! # Parallel sweeps
//!
//! Measurement points are independent simulations, so [`characterize`] fans them out across
//! a [`mess_exec`] worker pool: each worker builds a *private* backend through the caller's
//! `Send + Sync` factory, runs a private [`Engine`], and the results are reassembled **in
//! sweep order** — the curve family and [`Characterization::to_csv`] output are
//! byte-identical at any worker count. Pass [`mess_exec::ExecConfig::sequential`] to
//! [`characterize_with`] to force the single-threaded path (it runs the same code inline).
//!
//! The pointer-chase probe is sweep-invariant: every point chases the same walk. It is built
//! once per sweep, before the fan-out, and shared read-only; each point runs its own clone of
//! the untouched cursor, so the walk is resolved once rather than once per point.

use crate::chase::PointerChaseConfig;
use crate::traffic::TrafficConfig;
use mess_core::{Curve, CurveFamily, CurvePoint};
use mess_cpu::{CpuConfig, Engine, OpStream, ProgramStream, StopCondition};
use mess_exec::ExecConfig;
use mess_types::{Bandwidth, Latency, MemoryBackend, MessError, RwRatio};
use serde::{Deserialize, Serialize};

/// One measured bandwidth–latency point together with the sweep coordinates that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredPoint {
    /// Store share of the traffic-generator instruction mix that produced the point.
    pub store_mix: f64,
    /// Pause (dummy compute cycles per memory instruction) of the traffic generator.
    pub pause_cycles: u32,
    /// Memory read/write composition observed at the memory interface.
    pub ratio: RwRatio,
    /// Memory bandwidth observed at the memory interface.
    pub bandwidth: Bandwidth,
    /// Load-to-use latency measured by the pointer-chase probe.
    pub latency: Latency,
    /// `true` when the engine hit the point's cycle budget before the pointer-chase probe
    /// finished its configured loads. The bandwidth and latency are then measured over a
    /// truncated window and must not be treated as a converged measurement — raise
    /// [`SweepConfig::max_cycles_per_point`] (or lower `chase_loads`) until the flag clears.
    pub saturated_early: bool,
}

/// The result of a full characterization sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Characterization {
    /// The bandwidth–latency curve family (one curve per store mix).
    pub family: CurveFamily,
    /// Every raw measurement, in sweep order (the artifact's `results.csv`).
    pub points: Vec<MeasuredPoint>,
}

impl Characterization {
    /// Formats the raw measurements as CSV
    /// (`store_mix,pause_cycles,read_percent,bandwidth_gbs,latency_ns,saturated_early`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "store_mix,pause_cycles,read_percent,bandwidth_gbs,latency_ns,saturated_early\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:.2},{},{},{:.3},{:.2},{}\n",
                p.store_mix,
                p.pause_cycles,
                p.ratio.read_percent(),
                p.bandwidth.as_gbs(),
                p.latency.as_ns(),
                u8::from(p.saturated_early)
            ));
        }
        out
    }

    /// The points whose cycle budget truncated the probe (see
    /// [`MeasuredPoint::saturated_early`]); an empty result means the sweep converged.
    pub fn truncated_points(&self) -> Vec<&MeasuredPoint> {
        self.points.iter().filter(|p| p.saturated_early).collect()
    }
}

/// Configuration of a characterization sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Store shares of the traffic-generator instruction mix, one curve each.
    /// `0.0` is the 100 %-load kernel; `1.0` the 100 %-store kernel (which produces 50/50
    /// memory traffic under write-allocate).
    pub store_mixes: Vec<f64>,
    /// Pause levels (dummy compute cycles per memory instruction), highest first. More levels
    /// give more points per curve.
    pub pause_levels: Vec<u32>,
    /// Dependent loads executed by the pointer-chase probe per measurement point.
    pub chase_loads: u64,
    /// Simulated-cycle budget per measurement point.
    pub max_cycles_per_point: u64,
}

impl SweepConfig {
    /// A full-fidelity sweep: six store mixes (the 50–100 %-read family of the paper's
    /// simulator studies) and twelve intensity levels.
    pub fn full() -> Self {
        SweepConfig {
            store_mixes: vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
            pause_levels: vec![400, 200, 120, 80, 56, 40, 28, 20, 12, 8, 4, 0],
            chase_loads: 400,
            max_cycles_per_point: 3_000_000,
        }
    }

    /// A reduced sweep for unit tests and smoke runs.
    pub fn quick() -> Self {
        SweepConfig {
            store_mixes: vec![0.0, 1.0],
            pause_levels: vec![200, 40, 0],
            chase_loads: 120,
            max_cycles_per_point: 600_000,
        }
    }

    /// The smallest meaningful sweep: two mixes, three intensities, a short probe. Used by
    /// the determinism regression tests, which characterize the same platform at several
    /// worker counts and require bit-identical output quickly.
    pub fn reduced() -> Self {
        SweepConfig {
            store_mixes: vec![0.0, 1.0],
            pause_levels: vec![120, 20, 0],
            chase_loads: 80,
            max_cycles_per_point: 400_000,
        }
    }

    /// Validates the sweep parameters.
    ///
    /// # Errors
    ///
    /// Returns [`MessError::InvalidConfig`] when there are no store mixes, fewer than two
    /// pause levels (every curve needs at least two points), a store mix is outside
    /// `[0, 1]` or the probe has no loads.
    pub fn validate(&self) -> Result<(), MessError> {
        if self.store_mixes.is_empty() {
            return Err(MessError::InvalidConfig(
                "sweep lists must not be empty".into(),
            ));
        }
        if self.pause_levels.len() < 2 {
            return Err(MessError::InvalidConfig(
                "a sweep needs at least two pause levels: every curve needs two points".into(),
            ));
        }
        if self.store_mixes.iter().any(|m| !(0.0..=1.0).contains(m)) {
            return Err(MessError::InvalidConfig(
                "store mixes must lie in [0, 1]".into(),
            ));
        }
        if self.chase_loads == 0 {
            return Err(MessError::InvalidConfig(
                "the probe needs at least one load".into(),
            ));
        }
        Ok(())
    }
}

/// A named base sweep that a [`SweepSpec`] starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepPreset {
    /// [`SweepConfig::quick`].
    Quick,
    /// [`SweepConfig::full`].
    Full,
    /// [`SweepConfig::reduced`].
    Reduced,
}

impl SweepPreset {
    /// The preset's base configuration.
    pub fn config(self) -> SweepConfig {
        match self {
            SweepPreset::Quick => SweepConfig::quick(),
            SweepPreset::Full => SweepConfig::full(),
            SweepPreset::Reduced => SweepConfig::reduced(),
        }
    }
}

/// A declarative, serializable sweep description: a named preset plus optional overrides.
///
/// This is the spec-driven face of [`SweepConfig`]: scenario files (and the `mess-scenario`
/// builtin experiments) describe their sweeps as data — `{"preset": "Full",
/// "chase_loads": 300}` — and [`SweepSpec::config`] resolves them into the concrete sweep
/// [`characterize_spec`] runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// The base configuration the overrides below are applied to.
    pub preset: SweepPreset,
    /// Overrides [`SweepConfig::store_mixes`] when set.
    pub store_mixes: Option<Vec<f64>>,
    /// Overrides [`SweepConfig::pause_levels`] when set.
    pub pause_levels: Option<Vec<u32>>,
    /// Overrides [`SweepConfig::chase_loads`] when set.
    pub chase_loads: Option<u64>,
    /// Overrides [`SweepConfig::max_cycles_per_point`] when set.
    pub max_cycles_per_point: Option<u64>,
}

impl SweepSpec {
    /// A spec running `preset` unmodified.
    pub fn preset(preset: SweepPreset) -> Self {
        SweepSpec {
            preset,
            store_mixes: None,
            pause_levels: None,
            chase_loads: None,
            max_cycles_per_point: None,
        }
    }

    /// Resolves the spec into a concrete [`SweepConfig`].
    pub fn config(&self) -> SweepConfig {
        let mut config = self.preset.config();
        if let Some(mixes) = &self.store_mixes {
            config.store_mixes = mixes.clone();
        }
        if let Some(pauses) = &self.pause_levels {
            config.pause_levels = pauses.clone();
        }
        if let Some(loads) = self.chase_loads {
            config.chase_loads = loads;
        }
        if let Some(cycles) = self.max_cycles_per_point {
            config.max_cycles_per_point = cycles;
        }
        config
    }

    /// Validates the resolved configuration (see [`SweepConfig::validate`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SweepConfig::validate`].
    pub fn validate(&self) -> Result<(), MessError> {
        self.config().validate()
    }
}

/// The spec-driven entry point of the characterization sweep: resolves `spec` and runs
/// [`characterize_with`].
///
/// # Errors
///
/// Propagates [`characterize_with`]'s validation errors.
pub fn characterize_spec<B, F>(
    name: impl Into<String>,
    cpu: &CpuConfig,
    factory: F,
    spec: &SweepSpec,
    exec: &ExecConfig,
) -> Result<Characterization, MessError>
where
    B: MemoryBackend,
    F: Fn() -> B + Send + Sync,
{
    characterize_with(name, cpu, factory, &spec.config(), exec)
}

/// The LLC size the probe and the traffic lanes are sized against: the modelled LLC, but
/// at least 1 MiB so a tiny or disabled cache still gets arrays that miss.
fn sized_llc_bytes(cpu: &CpuConfig) -> u64 {
    cpu.llc.capacity_bytes.max(1 << 20)
}

/// Runs one measurement point: pointer-chase on core 0, traffic lanes on the other cores.
///
/// `probe` is the sweep's pointer-chase cursor, built once per sweep (see
/// [`characterize_with`]) and shared read-only: the point runs its own clone of it, so the
/// caller's copy stays at its first op and serves every other point. Pass an untouched
/// [`PointerChaseConfig::stream`] to measure the full walk.
///
/// The point owns its backend for the duration of the run (the parallel sweep gives every
/// worker a private instance); the bandwidth is computed from the statistics delta of this
/// run only, and the backend's internal clock must not be ahead of cycle zero.
pub fn measure_point<B: MemoryBackend + ?Sized>(
    cpu: &CpuConfig,
    backend: &mut B,
    probe: &ProgramStream,
    store_mix: f64,
    pause_cycles: u32,
    max_cycles: u64,
) -> MeasuredPoint {
    let traffic = TrafficConfig::new(store_mix, pause_cycles, sized_llc_bytes(cpu));

    let mut streams: Vec<Box<dyn OpStream>> = Vec::with_capacity(cpu.cores as usize);
    streams.push(Box::new(probe.clone()));
    streams.extend(traffic.lanes(cpu.cores.saturating_sub(1)));

    let mut engine = Engine::from_boxed(*cpu, streams);
    let report = engine.run(backend, StopCondition::CoreDone(0), max_cycles);

    let latency = report
        .dependent_load_latency(0)
        .unwrap_or(cpu.on_chip_latency);
    MeasuredPoint {
        store_mix,
        pause_cycles,
        ratio: report.rw_ratio(),
        bandwidth: report.bandwidth,
        latency,
        saturated_early: report.hit_cycle_limit,
    }
}

/// Runs a full characterization sweep with the process-default worker count.
///
/// Every (store-mix, pause) point is an independent simulation: a worker builds a private
/// backend via `factory`, runs a private [`Engine`] on it, and the points are reassembled in
/// sweep order. See [`characterize_with`] for an explicit [`ExecConfig`].
///
/// # Errors
///
/// Returns an error if the sweep configuration is invalid or the measured points cannot form
/// a curve family (which cannot happen for a valid sweep).
pub fn characterize<B, F>(
    name: impl Into<String>,
    cpu: &CpuConfig,
    factory: F,
    sweep: &SweepConfig,
) -> Result<Characterization, MessError>
where
    B: MemoryBackend,
    F: Fn() -> B + Send + Sync,
{
    characterize_with(name, cpu, factory, sweep, &ExecConfig::default())
}

/// Runs a full characterization sweep of the memory system built by `factory` under the CPU
/// described by `cpu`, on `exec.resolved_threads()` workers.
///
/// The pointer-chase probe is sweep-invariant, so it is built once here, on the caller's
/// thread before the fan-out, and shared read-only with every point; each point runs its
/// own cursor (a clone of the untouched probe) through [`measure_point`].
///
/// The output is deterministic in the worker count: points are computed by pure per-point
/// simulations (fresh backend, fresh engine, fresh probe cursor, fixed seeds) and collected
/// in sweep order, so the [`Characterization`] — family, points and CSV — is byte-identical
/// whether the sweep ran on one thread or many.
///
/// # Errors
///
/// Returns an error if the sweep configuration is invalid, the probe's array (four times
/// the LLC) has more cache lines than the walk can index (checked before anything is
/// allocated), or the measured points cannot form a curve family (which cannot happen for
/// a valid sweep).
pub fn characterize_with<B, F>(
    name: impl Into<String>,
    cpu: &CpuConfig,
    factory: F,
    sweep: &SweepConfig,
    exec: &ExecConfig,
) -> Result<Characterization, MessError>
where
    B: MemoryBackend,
    F: Fn() -> B + Send + Sync,
{
    sweep.validate()?;
    let chase = PointerChaseConfig::sized_against_llc(sized_llc_bytes(cpu), sweep.chase_loads);
    chase.validate()?;
    let probe = chase.stream();
    let grid: Vec<(f64, u32)> = sweep
        .store_mixes
        .iter()
        .flat_map(|&mix| sweep.pause_levels.iter().map(move |&pause| (mix, pause)))
        .collect();
    let points = mess_exec::par_map_with(exec, grid, |_, (store_mix, pause)| {
        let mut backend = factory();
        measure_point(
            cpu,
            &mut backend,
            &probe,
            store_mix,
            pause,
            sweep.max_cycles_per_point,
        )
    });

    let mut curves: Vec<Curve> = Vec::new();
    for mix_points in points.chunks(sweep.pause_levels.len()) {
        let curve_points: Vec<CurvePoint> = mix_points
            .iter()
            .map(|p| CurvePoint::new(p.bandwidth, p.latency))
            .collect();
        let mean_ratio = mix_points
            .iter()
            .map(|p| p.ratio.read_fraction())
            .sum::<f64>()
            / mix_points.len() as f64;
        let mut fraction = mean_ratio.clamp(0.0, 1.0);
        // Two sweeps can measure the same mean composition (e.g. both fully read-dominated);
        // nudge the later one so every curve in the family keeps a distinct ratio key.
        while curves
            .iter()
            .any(|c| (c.ratio().read_fraction() - fraction).abs() < 1e-9)
        {
            fraction = (fraction - 1e-4).max(0.0);
        }
        let ratio = RwRatio::from_read_fraction(fraction).expect("fraction stays in [0, 1]");
        curves.push(Curve::new(ratio, curve_points)?);
    }
    let family = CurveFamily::new(name, curves)?;
    Ok(Characterization { family, points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mess_cpu::CacheConfig;
    use mess_memmodels::{FixedLatencyModel, Md1QueueModel};
    use mess_types::Frequency;

    fn small_cpu(cores: u32) -> CpuConfig {
        CpuConfig {
            llc: CacheConfig::new(512 * 1024, 8),
            ..CpuConfig::server_class(cores, Frequency::from_ghz(2.0))
        }
    }

    #[test]
    fn sweep_config_validation_rejects_bad_input() {
        let mut bad = SweepConfig::quick();
        bad.store_mixes.clear();
        assert!(bad.validate().is_err());
        let mut bad = SweepConfig::quick();
        bad.store_mixes = vec![1.5];
        assert!(bad.validate().is_err());
        let mut bad = SweepConfig::quick();
        bad.chase_loads = 0;
        assert!(bad.validate().is_err());
        // Every curve needs two points, so a sweep needs two pause levels.
        let mut bad = SweepConfig::quick();
        bad.pause_levels = vec![0];
        assert!(bad.validate().is_err());
        assert!(SweepConfig::full().validate().is_ok());
    }

    #[test]
    fn fixed_latency_backend_yields_flat_curves() {
        let cpu = small_cpu(4);
        let backend = || FixedLatencyModel::new(Latency::from_ns(60.0), cpu.frequency);
        let c = characterize("fixed", &cpu, backend, &SweepConfig::quick()).unwrap();
        assert_eq!(c.family.len(), 2);
        for curve in c.family.curves() {
            let spread = curve.max_latency().as_ns() - curve.unloaded_latency().as_ns();
            assert!(
                spread < 30.0,
                "fixed-latency curves must stay flat, spread {spread} ns"
            );
        }
        // The load-to-use latency must include the memory and on-chip components.
        assert!(c.family.unloaded_latency().as_ns() > 60.0);
    }

    #[test]
    fn queueing_backend_shows_rising_latency_and_lower_pause_gives_more_bandwidth() {
        let cpu = small_cpu(6);
        let backend = || {
            Md1QueueModel::new(
                Latency::from_ns(60.0),
                Bandwidth::from_gbs(20.0),
                cpu.frequency,
            )
        };
        let c = characterize("md1", &cpu, backend, &SweepConfig::quick()).unwrap();
        for mix_points in c.points.chunks(SweepConfig::quick().pause_levels.len()) {
            let first = mix_points.first().unwrap();
            let last = mix_points.last().unwrap();
            assert!(
                last.bandwidth.as_gbs() > first.bandwidth.as_gbs(),
                "removing the pause must increase bandwidth: {first:?} vs {last:?}"
            );
        }
        let curve = c.family.closest_curve(RwRatio::ALL_READS);
        assert!(curve.max_latency() > curve.unloaded_latency());
    }

    #[test]
    fn store_mix_shifts_the_measured_ratio() {
        // A small LLC so the store traffic reaches its dirty-eviction steady state quickly.
        let cpu = CpuConfig {
            llc: CacheConfig::new(64 * 1024, 8),
            ..CpuConfig::server_class(4, Frequency::from_ghz(2.0))
        };
        let backend = || FixedLatencyModel::new(Latency::from_ns(60.0), cpu.frequency);
        let c = characterize("ratios", &cpu, backend, &SweepConfig::quick()).unwrap();
        // The all-load sweep stays read-only; the all-store sweep approaches 50/50 at full
        // intensity because every store turns into a fill read plus an eventual writeback.
        assert!(c
            .points
            .iter()
            .any(|p| p.store_mix == 0.0 && p.ratio.read_percent() >= 95));
        assert!(c
            .points
            .iter()
            .any(|p| p.store_mix == 1.0 && p.ratio.read_percent() <= 75));
    }

    #[test]
    fn csv_has_one_row_per_point_plus_header() {
        let cpu = small_cpu(2);
        let backend = || FixedLatencyModel::new(Latency::from_ns(50.0), cpu.frequency);
        let sweep = SweepConfig::quick();
        let c = characterize("csv", &cpu, backend, &sweep).unwrap();
        let csv = c.to_csv();
        let rows: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(
            rows.len(),
            1 + sweep.store_mixes.len() * sweep.pause_levels.len()
        );
        assert!(rows[0].starts_with("store_mix"));
        assert!(rows[0].ends_with("saturated_early"));
        // A converged sweep flags nothing.
        assert!(c.truncated_points().is_empty());
        assert!(rows[1..].iter().all(|row| row.ends_with(",0")));
    }

    #[test]
    fn starved_cycle_budget_flags_points_as_saturated_early() {
        let cpu = small_cpu(4);
        let backend = || FixedLatencyModel::new(Latency::from_ns(60.0), cpu.frequency);
        // A 400-load probe cannot finish inside 2000 cycles against a 60 ns memory: every
        // point must be flagged instead of being recorded as a valid measurement.
        let sweep = SweepConfig {
            max_cycles_per_point: 2_000,
            chase_loads: 400,
            ..SweepConfig::quick()
        };
        let c = characterize("starved", &cpu, backend, &sweep).unwrap();
        assert_eq!(c.truncated_points().len(), c.points.len());
        assert!(c.points.iter().all(|p| p.saturated_early));
        assert!(c.to_csv().trim().lines().skip(1).all(|r| r.ends_with(",1")));
        // And a generous budget clears the flag for the same probe.
        let relaxed = characterize("relaxed", &cpu, backend, &SweepConfig::quick()).unwrap();
        assert!(relaxed.truncated_points().is_empty());
    }

    #[test]
    fn one_probe_serves_every_point() {
        let cpu = small_cpu(4);
        let sweep = SweepConfig::reduced();
        let build_probe = || {
            PointerChaseConfig::sized_against_llc(sized_llc_bytes(&cpu), sweep.chase_loads).stream()
        };
        let measure = |probe: &ProgramStream| {
            let mut backend = Md1QueueModel::new(
                Latency::from_ns(60.0),
                Bandwidth::from_gbs(20.0),
                cpu.frequency,
            );
            measure_point(
                &cpu,
                &mut backend,
                probe,
                1.0,
                20,
                sweep.max_cycles_per_point,
            )
        };
        let shared = build_probe();
        let first = measure(&shared);
        let second = measure(&shared);
        let fresh = measure(&build_probe());
        assert_eq!(
            first, second,
            "a point must leave the shared probe untouched"
        );
        assert_eq!(first, fresh);
        assert!(!first.saturated_early);
    }

    #[test]
    fn an_oversized_probe_is_an_error_not_a_panic() {
        // A 128 GiB LLC asks for a 512 GiB probe array: 2^33 lines, past the walk's u32
        // line indices (and `u64::MAX` must not overflow the 4× sizing). The sweep must
        // refuse both before building a backend or the walk.
        for llc_bytes in [1 << 37, u64::MAX] {
            let mut cpu = small_cpu(2);
            cpu.llc.capacity_bytes = llc_bytes;
            let backend = || -> FixedLatencyModel { panic!("no point may run") };
            let err = characterize_with(
                "huge",
                &cpu,
                backend,
                &SweepConfig::reduced(),
                &mess_exec::ExecConfig::sequential(),
            )
            .unwrap_err();
            assert!(matches!(err, MessError::InvalidConfig(_)), "{err}");
            assert!(err.to_string().contains("u32::MAX"), "{err}");
        }
    }

    #[test]
    fn sweep_spec_resolves_presets_and_overrides() {
        assert_eq!(
            SweepSpec::preset(SweepPreset::Full).config(),
            SweepConfig::full()
        );
        let spec = SweepSpec {
            preset: SweepPreset::Quick,
            store_mixes: Some(vec![0.0, 1.0]),
            pause_levels: Some(vec![120, 20, 0]),
            chase_loads: Some(80),
            max_cycles_per_point: None,
        };
        let config = spec.config();
        assert_eq!(config.store_mixes, vec![0.0, 1.0]);
        assert_eq!(config.pause_levels, vec![120, 20, 0]);
        assert_eq!(config.chase_loads, 80);
        assert_eq!(
            config.max_cycles_per_point,
            SweepConfig::quick().max_cycles_per_point
        );
        assert!(spec.validate().is_ok());
        let mut bad = spec.clone();
        bad.store_mixes = Some(vec![2.0]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn characterize_spec_matches_the_explicit_config_path() {
        let cpu = small_cpu(2);
        let backend = || FixedLatencyModel::new(Latency::from_ns(50.0), cpu.frequency);
        let spec = SweepSpec::preset(SweepPreset::Reduced);
        let via_spec = characterize_spec(
            "spec",
            &cpu,
            backend,
            &spec,
            &mess_exec::ExecConfig::sequential(),
        )
        .unwrap();
        let via_config = characterize_with(
            "spec",
            &cpu,
            backend,
            &SweepConfig::reduced(),
            &mess_exec::ExecConfig::sequential(),
        )
        .unwrap();
        assert_eq!(via_spec.points, via_config.points);
        assert_eq!(via_spec.to_csv(), via_config.to_csv());
    }

    #[test]
    fn explicit_exec_config_matches_the_default_path() {
        let cpu = small_cpu(2);
        let backend = || FixedLatencyModel::new(Latency::from_ns(50.0), cpu.frequency);
        let sweep = SweepConfig::reduced();
        let sequential = characterize_with(
            "seq",
            &cpu,
            backend,
            &sweep,
            &mess_exec::ExecConfig::sequential(),
        )
        .unwrap();
        let parallel = characterize_with(
            "seq",
            &cpu,
            backend,
            &sweep,
            &mess_exec::ExecConfig::with_threads(4),
        )
        .unwrap();
        assert_eq!(sequential.points, parallel.points);
        assert_eq!(sequential.to_csv(), parallel.to_csv());
    }
}
