//! The declarative scenario vocabulary: [`ScenarioSpec`] and [`CampaignSpec`].
//!
//! A scenario is *data*: a platform reference, an experiment shape ([`ScenarioKind`]) with
//! its parameters — workloads, memory models, sweeps, cycle budgets — and optional fixed
//! notes. The engine ([`crate::engine::run_scenario_observed`]) resolves the spec through the
//! lower-layer registries ([`mess_workloads::spec::WorkloadSpec`] → op streams,
//! [`mess_platforms::ModelSpec`] → backend factories, [`mess_platforms::PlatformRef`] →
//! platform specs, [`mess_bench::SweepSpec`] → sweep configs) and executes it.
//!
//! Everything here serializes to JSON through the workspace serde stand-ins, so a scenario
//! can live in a file, be dumped from a builtin experiment (`mess-harness --dump-spec`),
//! edited, and re-run — adding a new experiment no longer requires new driver code.

use mess_bench::SweepSpec;
use mess_platforms::{CurveSourceSpec, ModelSpec, PlatformRef};
use mess_types::MessError;
use mess_workloads::spec::WorkloadSpec;
use serde::{Deserialize, Serialize};

/// The shape of one experiment, with every knob as serializable data.
///
/// Each variant generalizes one family of the paper's figures; the `Run` variant is the
/// open-ended combination (any workload × any model × any platform) that no builtin figure
/// covers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// Characterize one memory model on the scenario platform and report the raw
    /// bandwidth–latency curve family (paper Fig. 2).
    CurveFamily {
        /// The model to characterize (the detailed DRAM reference for Fig. 2).
        model: ModelSpec,
        /// The characterization sweep.
        sweep: SweepSpec,
        /// When set, also measure the four STREAM kernels' application-level bandwidth
        /// (arrays of this LLC multiple) and report them as notes.
        stream_llc_multiple: Option<u64>,
        /// Whether to append the platform's paper reference values as a note.
        paper_reference: bool,
    },
    /// Characterize several platforms' reference memories and report one metrics row per
    /// platform, with the paper's measured values side by side (paper Table I / Fig. 3).
    PlatformTable {
        /// The platforms to characterize.
        platforms: Vec<PlatformRef>,
        /// The model standing in for each platform's actual memory.
        model: ModelSpec,
        /// The characterization sweep.
        sweep: SweepSpec,
        /// STREAM array size (LLC multiple) for the reference bandwidth columns.
        stream_llc_multiple: u64,
    },
    /// Characterize several memory models on the scenario platform and report one summary
    /// row per model (paper Figs. 4 and 5). List the reference model first.
    ModelComparison {
        /// The models to characterize, in row order.
        models: Vec<ModelSpec>,
        /// The characterization sweep.
        sweep: SweepSpec,
    },
    /// Capture a memory trace on the scenario platform's reference memory and replay it
    /// through several models at several speeds (paper Fig. 6).
    TraceReplay {
        /// The models to replay through, in row-group order.
        models: Vec<ModelSpec>,
        /// Memory operations to capture into the trace.
        trace_ops: u64,
        /// Traffic-generator pause level while capturing.
        trace_pause: u32,
        /// Replay speed factors (1.0 = captured speed).
        speeds: Vec<f64>,
    },
    /// Drive several models with read-only and store-heavy traffic and report row-buffer
    /// hit/empty/miss statistics (paper Fig. 7).
    RowBuffer {
        /// The models to measure, in row-group order.
        models: Vec<ModelSpec>,
        /// Traffic store mixes (0.0 = all loads, 1.0 = all stores).
        store_mixes: Vec<f64>,
        /// Traffic pause levels, highest first.
        pauses: Vec<u32>,
        /// Simulated-cycle budget per measurement.
        max_cycles: u64,
    },
    /// Characterize the Mess analytical simulator on several platforms and compare the
    /// measured curves with the curves it was fed (paper Figs. 10 and 12).
    MessCurves {
        /// The host platforms to simulate.
        platforms: Vec<PlatformRef>,
        /// Where the simulator's input curves come from: the platform's reference family
        /// (the builtin figures), a saved `CurveSet` artifact (`File`), or a fresh
        /// characterization of any backend (`Characterized` — the paper's
        /// self-characterization loop).
        curves: CurveSourceSpec,
        /// The characterization sweep measuring the simulator.
        sweep: SweepSpec,
    },
    /// Run several workloads on several memory models and report each model's IPC error
    /// against the detailed-DRAM reference (paper Figs. 11 and 13).
    IpcError {
        /// The models under test, one row each.
        models: Vec<ModelSpec>,
        /// The validation workloads, one column each.
        workloads: Vec<WorkloadSpec>,
        /// Simulated-cycle budget per run.
        max_cycles: u64,
    },
    /// Characterize a curve-driven CXL device inside several simulated hosts and compare
    /// with the manufacturer's curves (paper Fig. 14).
    CxlHosts {
        /// The host platforms.
        hosts: Vec<PlatformRef>,
        /// The device's curve source (the manufacturer curves for Fig. 14).
        curves: CurveSourceSpec,
        /// The device's theoretical peak bandwidth in GB/s (for utilisation columns).
        device_peak_gbs: f64,
        /// The characterization sweep.
        sweep: SweepSpec,
    },
    /// Run a SPEC-like suite against two curve-driven memories — the real expander and its
    /// emulation — and report the per-benchmark performance difference (paper Figs. 17-18).
    CxlVsRemote {
        /// Benchmark names from the SPEC CPU2006-like suite, in row order.
        benchmarks: Vec<String>,
        /// Memory operations per core and benchmark.
        ops_per_core: u64,
        /// Simulated-cycle budget per run.
        max_cycles: u64,
        /// Curve source of the CXL expander.
        expander: CurveSourceSpec,
        /// Curve source of the remote-socket emulation.
        emulation: CurveSourceSpec,
        /// The expander's theoretical peak bandwidth in GB/s (for utilisation classes).
        device_peak_gbs: f64,
    },
    /// Profile one workload's memory-stress timeline on the scenario platform (paper
    /// Figs. 15-16): the workload's bandwidth trajectory is placed on a bandwidth–latency
    /// family — the platform's reference curves, a loaded `CurveSet` artifact, or a
    /// freshly characterized backend.
    Profile {
        /// The workload to profile.
        workload: WorkloadSpec,
        /// The memory model the workload runs against (and whose trace is profiled).
        model: ModelSpec,
        /// The family the profiler positions the trajectory on.
        curves: CurveSourceSpec,
        /// Width of the bandwidth-sampling windows in microseconds.
        window_us: f64,
        /// Stress-score threshold for the phase segmentation notes.
        phase_threshold: f64,
        /// Simulated-cycle budget for the run.
        max_cycles: u64,
    },
    /// The open combination: run any workload against any memory model on the scenario
    /// platform and report the run's headline numbers. No builtin figure uses this shape —
    /// it exists so new scenarios are a JSON file, not a driver.
    Run {
        /// The workload to run.
        workload: WorkloadSpec,
        /// The memory model to run it against.
        model: ModelSpec,
        /// Simulated-cycle budget for the run.
        max_cycles: u64,
    },
}

/// One complete, self-contained experiment description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Identifier used in output (`fig4`, `my-experiment`, ...).
    pub id: String,
    /// Human-readable title for the report.
    pub title: String,
    /// The platform the experiment runs on (multi-platform kinds carry their own list and
    /// use this only as a default/reference).
    pub platform: PlatformRef,
    /// The experiment shape and its parameters.
    pub kind: ScenarioKind,
    /// Fixed notes appended to the report after the engine's computed notes.
    pub notes: Vec<String>,
}

impl ScenarioSpec {
    /// Validates the spec without running it: every workload, model, sweep and list must
    /// resolve.
    ///
    /// # Errors
    ///
    /// Returns [`MessError::InvalidConfig`] (or a propagated validation error) describing
    /// the first problem found.
    pub fn validate(&self) -> Result<(), MessError> {
        let invalid = |msg: String| {
            Err(MessError::InvalidConfig(format!(
                "scenario `{}`: {msg}",
                self.id
            )))
        };
        let nonempty = |what: &str, len: usize| {
            if len == 0 {
                invalid(format!("{what} must not be empty"))
            } else {
                Ok(())
            }
        };
        // `--out` writes `<id>.csv`, so the id must be a plain file-name-safe token.
        if self.id.is_empty() {
            return Err(MessError::InvalidConfig(
                "scenario id must not be empty".into(),
            ));
        }
        if self.id.contains(['/', '\\']) || self.id == "." || self.id == ".." {
            return invalid(
                "the id is used as a file name and must not contain path separators".into(),
            );
        }
        let cycles = |what: &str, n: u64| {
            if n == 0 {
                invalid(format!("{what} must be nonzero"))
            } else {
                Ok(())
            }
        };
        let peak = |gbs: f64| {
            if !gbs.is_finite() || gbs <= 0.0 {
                invalid("device_peak_gbs must be positive".into())
            } else {
                Ok(())
            }
        };
        // Curve sources and the models that embed them validate recursively
        // (`CurveSourceSpec::validate` follows `File` paths' presence and `Characterized`
        // nesting without touching the filesystem); wrap their errors in scenario context.
        let curve_source = |curves: &CurveSourceSpec| {
            curves
                .validate()
                .map_err(|e| MessError::InvalidConfig(format!("scenario `{}`: {e}", self.id)))
        };
        let model_specs = |models: &[ModelSpec]| {
            models
                .iter()
                .try_for_each(|m| m.validate())
                .map_err(|e| MessError::InvalidConfig(format!("scenario `{}`: {e}", self.id)))
        };
        match &self.kind {
            ScenarioKind::CurveFamily { model, sweep, .. } => {
                model_specs(std::slice::from_ref(model))?;
                sweep.validate()
            }
            ScenarioKind::PlatformTable {
                platforms,
                model,
                sweep,
                ..
            } => {
                nonempty("platforms", platforms.len())?;
                model_specs(std::slice::from_ref(model))?;
                sweep.validate()
            }
            ScenarioKind::ModelComparison { models, sweep } => {
                nonempty("models", models.len())?;
                model_specs(models)?;
                sweep.validate()
            }
            ScenarioKind::TraceReplay {
                models,
                trace_ops,
                speeds,
                ..
            } => {
                nonempty("models", models.len())?;
                nonempty("speeds", speeds.len())?;
                if speeds.iter().any(|s| !s.is_finite() || *s <= 0.0) {
                    return invalid("replay speeds must be positive".into());
                }
                model_specs(models)?;
                cycles("trace_ops", *trace_ops)
            }
            ScenarioKind::RowBuffer {
                models,
                store_mixes,
                pauses,
                max_cycles,
            } => {
                nonempty("models", models.len())?;
                nonempty("store_mixes", store_mixes.len())?;
                nonempty("pauses", pauses.len())?;
                model_specs(models)?;
                cycles("max_cycles", *max_cycles)
            }
            ScenarioKind::MessCurves {
                platforms,
                curves,
                sweep,
            } => {
                nonempty("platforms", platforms.len())?;
                curve_source(curves)?;
                sweep.validate()
            }
            ScenarioKind::IpcError {
                models,
                workloads,
                max_cycles,
            } => {
                nonempty("models", models.len())?;
                nonempty("workloads", workloads.len())?;
                model_specs(models)?;
                cycles("max_cycles", *max_cycles)?;
                workloads.iter().try_for_each(|w| w.validate())
            }
            ScenarioKind::CxlHosts {
                hosts,
                curves,
                device_peak_gbs,
                sweep,
            } => {
                nonempty("hosts", hosts.len())?;
                curve_source(curves)?;
                peak(*device_peak_gbs)?;
                sweep.validate()
            }
            ScenarioKind::CxlVsRemote {
                benchmarks,
                ops_per_core,
                max_cycles,
                expander,
                emulation,
                device_peak_gbs,
            } => {
                nonempty("benchmarks", benchmarks.len())?;
                cycles("ops_per_core", *ops_per_core)?;
                cycles("max_cycles", *max_cycles)?;
                curve_source(expander)?;
                curve_source(emulation)?;
                peak(*device_peak_gbs)?;
                benchmarks
                    .iter()
                    .try_for_each(|name| WorkloadSpec::spec_cpu2006(name.clone(), 1).validate())
            }
            ScenarioKind::Profile {
                workload,
                model,
                curves,
                window_us,
                max_cycles,
                ..
            } => {
                if !window_us.is_finite() || *window_us <= 0.0 {
                    return invalid("window_us must be positive".into());
                }
                model_specs(std::slice::from_ref(model))?;
                curve_source(curves)?;
                cycles("max_cycles", *max_cycles)?;
                workload.validate()
            }
            ScenarioKind::Run {
                workload,
                model,
                max_cycles,
            } => {
                model_specs(std::slice::from_ref(model))?;
                cycles("max_cycles", *max_cycles)?;
                workload.validate()
            }
        }
    }

    /// Serializes the spec as pretty-printed JSON (the `--dump-spec` format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("specs contain no non-finite floats")
    }

    /// Parses a spec from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`MessError::Parse`] on malformed JSON or a shape mismatch.
    pub fn from_json(text: &str) -> Result<Self, MessError> {
        serde_json::from_str(text).map_err(|e| MessError::Parse(format!("scenario JSON: {e}")))
    }
}

/// A batch of scenarios, fanned out one `mess_exec::par_map` item per scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name (used for the summary file).
    pub name: String,
    /// The scenarios to run; reports come back in this order.
    pub scenarios: Vec<ScenarioSpec>,
}

impl CampaignSpec {
    /// Validates every scenario in the campaign and requires unique scenario ids (each id
    /// becomes `<id>.csv` under `--out`, so a duplicate would silently overwrite a result).
    ///
    /// # Errors
    ///
    /// Propagates the first scenario validation error; an empty campaign or a duplicate
    /// scenario id is invalid.
    pub fn validate(&self) -> Result<(), MessError> {
        if self.scenarios.is_empty() {
            return Err(MessError::InvalidConfig(format!(
                "campaign `{}` has no scenarios",
                self.name
            )));
        }
        let mut ids: Vec<&str> = self.scenarios.iter().map(|s| s.id.as_str()).collect();
        ids.sort_unstable();
        if let Some(dup) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(MessError::InvalidConfig(format!(
                "campaign `{}`: duplicate scenario id `{}` (ids become output file names)",
                self.name, dup[0]
            )));
        }
        self.scenarios.iter().try_for_each(ScenarioSpec::validate)
    }

    /// Serializes the campaign as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("specs contain no non-finite floats")
    }

    /// Parses a campaign from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`MessError::Parse`] on malformed JSON or a shape mismatch.
    pub fn from_json(text: &str) -> Result<Self, MessError> {
        serde_json::from_str(text).map_err(|e| MessError::Parse(format!("campaign JSON: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mess_bench::{SweepPreset, SweepSpec};
    use mess_platforms::{MemoryModelKind, PlatformId};
    use mess_workloads::StreamKernel;

    fn run_spec(id: &str) -> ScenarioSpec {
        ScenarioSpec {
            id: id.to_string(),
            title: "demo".to_string(),
            platform: PlatformRef::quick(PlatformId::IntelSkylake),
            kind: ScenarioKind::Run {
                workload: WorkloadSpec::stream(StreamKernel::Triad, 2),
                model: ModelSpec::of(MemoryModelKind::Md1Queue),
                max_cycles: 100_000,
            },
            notes: vec![],
        }
    }

    #[test]
    fn valid_specs_validate_and_round_trip() {
        let spec = run_spec("demo");
        assert!(spec.validate().is_ok());
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        // Serialization is bit-stable across a parse/serialize round trip.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn invalid_specs_are_rejected_with_context() {
        let mut spec = run_spec("broken");
        spec.kind = ScenarioKind::IpcError {
            models: vec![],
            workloads: vec![WorkloadSpec::multichase(100)],
            max_cycles: 1_000,
        };
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("models"), "{err}");

        spec.kind = ScenarioKind::CxlVsRemote {
            benchmarks: vec!["not-a-benchmark".into()],
            ops_per_core: 10,
            max_cycles: 1_000,
            expander: CurveSourceSpec::CxlManufacturer {
                host_link_ns: 180.0,
            },
            emulation: CurveSourceSpec::RemoteSocket,
            device_peak_gbs: 43.6,
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn numeric_knobs_are_validated() {
        // Zero cycle budgets would divide by zero (NaN IPC); zero/negative peaks would
        // print inf utilisation; negative link latencies would shift curves below zero.
        let mut spec = run_spec("zero-cycles");
        spec.kind = ScenarioKind::Run {
            workload: WorkloadSpec::gups(10),
            model: ModelSpec::of(MemoryModelKind::Md1Queue),
            max_cycles: 0,
        };
        assert!(spec.validate().is_err());

        spec.kind = ScenarioKind::CxlHosts {
            hosts: vec![PlatformRef::quick(PlatformId::IntelSkylake)],
            curves: CurveSourceSpec::CxlManufacturer { host_link_ns: -1.0 },
            device_peak_gbs: 43.6,
            sweep: SweepSpec::preset(SweepPreset::Reduced),
        };
        assert!(spec.validate().is_err(), "negative link latency");

        spec.kind = ScenarioKind::CxlHosts {
            hosts: vec![PlatformRef::quick(PlatformId::IntelSkylake)],
            curves: CurveSourceSpec::CxlManufacturer {
                host_link_ns: 180.0,
            },
            device_peak_gbs: 0.0,
            sweep: SweepSpec::preset(SweepPreset::Reduced),
        };
        assert!(spec.validate().is_err(), "zero device peak");

        spec.kind = ScenarioKind::TraceReplay {
            models: vec![ModelSpec::of(MemoryModelKind::Dramsim3Like)],
            trace_ops: 100,
            trace_pause: 20,
            speeds: vec![1.0, 0.0],
        };
        assert!(spec.validate().is_err(), "zero replay speed");
    }

    #[test]
    fn curve_sources_are_validated_recursively() {
        // An empty artifact path is caught at validation time, before any run...
        let mut spec = run_spec("bad-curves");
        spec.kind = ScenarioKind::MessCurves {
            platforms: vec![PlatformRef::quick(PlatformId::IntelSkylake)],
            curves: CurveSourceSpec::File {
                path: String::new(),
            },
            sweep: SweepSpec::preset(SweepPreset::Reduced),
        };
        assert!(spec.validate().is_err());
        // ...including one buried two levels deep in a Characterized model spec.
        spec.kind = ScenarioKind::Run {
            workload: WorkloadSpec::gups(10),
            model: ModelSpec::with_curves(
                MemoryModelKind::Mess,
                CurveSourceSpec::Characterized {
                    model: Box::new(ModelSpec::with_curves(
                        MemoryModelKind::Mess,
                        CurveSourceSpec::File {
                            path: String::new(),
                        },
                    )),
                    sweep: SweepSpec::preset(SweepPreset::Reduced),
                },
            ),
            max_cycles: 1_000,
        };
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("bad-curves"), "{err}");
    }

    #[test]
    fn ids_must_be_file_name_safe() {
        // `--out` writes `<id>.csv`, so a path separator would escape the output dir.
        let mut spec = run_spec("ok");
        spec.id = "../escape".into();
        assert!(spec.validate().is_err());
        spec.id = String::new();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn campaigns_reject_duplicate_scenario_ids() {
        // Two scenarios with one id would silently overwrite each other's CSV.
        let campaign = CampaignSpec {
            name: "dup".into(),
            scenarios: vec![run_spec("same"), run_spec("same")],
        };
        let err = campaign.validate().unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn campaigns_validate_every_member() {
        let campaign = CampaignSpec {
            name: "demo".into(),
            scenarios: vec![run_spec("a"), run_spec("b")],
        };
        assert!(campaign.validate().is_ok());
        let json = campaign.to_json();
        assert_eq!(CampaignSpec::from_json(&json).unwrap(), campaign);

        let empty = CampaignSpec {
            name: "empty".into(),
            scenarios: vec![],
        };
        assert!(empty.validate().is_err());
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        assert!(matches!(
            ScenarioSpec::from_json("{"),
            Err(MessError::Parse(_))
        ));
        assert!(matches!(
            CampaignSpec::from_json("[]"),
            Err(MessError::Parse(_))
        ));
    }

    #[test]
    fn every_kind_serializes_and_round_trips() {
        let sweep = SweepSpec::preset(SweepPreset::Reduced);
        let platform = PlatformRef::quick(PlatformId::IntelSkylake);
        let kinds = vec![
            ScenarioKind::CurveFamily {
                model: ModelSpec::of(MemoryModelKind::DetailedDram),
                sweep: sweep.clone(),
                stream_llc_multiple: Some(2),
                paper_reference: true,
            },
            ScenarioKind::PlatformTable {
                platforms: vec![platform],
                model: ModelSpec::of(MemoryModelKind::DetailedDram),
                sweep: sweep.clone(),
                stream_llc_multiple: 2,
            },
            ScenarioKind::ModelComparison {
                models: vec![ModelSpec::of(MemoryModelKind::FixedLatency)],
                sweep: sweep.clone(),
            },
            ScenarioKind::TraceReplay {
                models: vec![ModelSpec::of(MemoryModelKind::Dramsim3Like)],
                trace_ops: 1_000,
                trace_pause: 20,
                speeds: vec![1.0, 4.0],
            },
            ScenarioKind::RowBuffer {
                models: vec![ModelSpec::of(MemoryModelKind::DetailedDram)],
                store_mixes: vec![0.0, 1.0],
                pauses: vec![80, 0],
                max_cycles: 100_000,
            },
            ScenarioKind::MessCurves {
                platforms: vec![platform],
                curves: CurveSourceSpec::PlatformReference,
                sweep: sweep.clone(),
            },
            // The closed-loop sources: a saved artifact and an inline characterization.
            ScenarioKind::MessCurves {
                platforms: vec![platform],
                curves: CurveSourceSpec::File {
                    path: "curves/skylake.json".into(),
                },
                sweep: sweep.clone(),
            },
            ScenarioKind::MessCurves {
                platforms: vec![platform],
                curves: CurveSourceSpec::Characterized {
                    model: Box::new(ModelSpec::of(MemoryModelKind::DetailedDram)),
                    sweep: sweep.clone(),
                },
                sweep: sweep.clone(),
            },
            ScenarioKind::IpcError {
                models: vec![ModelSpec::of(MemoryModelKind::Mess)],
                workloads: vec![WorkloadSpec::multichase(100)],
                max_cycles: 100_000,
            },
            ScenarioKind::CxlHosts {
                hosts: vec![platform],
                curves: CurveSourceSpec::CxlManufacturer {
                    host_link_ns: 180.0,
                },
                device_peak_gbs: 43.6,
                sweep,
            },
            ScenarioKind::CxlVsRemote {
                benchmarks: vec!["lbm".into()],
                ops_per_core: 100,
                max_cycles: 100_000,
                expander: CurveSourceSpec::CxlManufacturer {
                    host_link_ns: 180.0,
                },
                emulation: CurveSourceSpec::RemoteSocket,
                device_peak_gbs: 43.6,
            },
            ScenarioKind::Profile {
                workload: WorkloadSpec::hpcg(50),
                model: ModelSpec::of(MemoryModelKind::DetailedDram),
                curves: CurveSourceSpec::PlatformReference,
                window_us: 2.0,
                phase_threshold: 0.5,
                max_cycles: 1_000_000,
            },
            ScenarioKind::Profile {
                workload: WorkloadSpec::hpcg(50),
                model: ModelSpec::of(MemoryModelKind::DetailedDram),
                curves: CurveSourceSpec::File {
                    path: "curves/skylake.json".into(),
                },
                window_us: 2.0,
                phase_threshold: 0.5,
                max_cycles: 1_000_000,
            },
            ScenarioKind::Run {
                workload: WorkloadSpec::gups(100),
                model: ModelSpec::of(MemoryModelKind::CxlExpander),
                max_cycles: 1_000_000,
            },
        ];
        for kind in kinds {
            let mut spec = run_spec("kinds");
            spec.kind = kind;
            assert!(spec.validate().is_ok(), "{spec:?}");
            let json = spec.to_json();
            assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec, "{json}");
        }
    }
}
