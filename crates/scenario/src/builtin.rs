//! The builtin experiment registry: every table and figure of the paper as a spec builder.
//!
//! Each entry pairs an experiment id with a one-line description, its paper anchor, and a
//! builder that bakes the chosen [`Fidelity`] into a fully declarative [`ScenarioSpec`].
//! `mess-harness --dump-spec <id>` prints the built spec as JSON; editing that file and
//! re-running it with `--scenario` is exactly equivalent to running the builtin.

use crate::report::Fidelity;
use crate::spec::{ScenarioKind, ScenarioSpec};
use mess_bench::{SweepPreset, SweepSpec};
use mess_platforms::{CurveSourceSpec, MemoryModelKind, ModelSpec, PlatformId, PlatformRef};
use mess_workloads::spec::WorkloadSpec;
use mess_workloads::spec_suite::spec2006_suite;

/// One builtin experiment: identity, documentation, and its spec builder.
pub struct BuiltinScenario {
    /// Canonical experiment id (`fig2`, `table1`, ...).
    pub id: &'static str,
    /// One-line description for `--list`.
    pub description: &'static str,
    /// Which part of the paper the experiment regenerates.
    pub anchor: &'static str,
    build: fn(Fidelity) -> ScenarioSpec,
}

impl BuiltinScenario {
    /// Builds the experiment's scenario spec at `fidelity`.
    pub fn spec(&self, fidelity: Fidelity) -> ScenarioSpec {
        (self.build)(fidelity)
    }
}

/// Every builtin experiment, in paper order.
pub const BUILTINS: [BuiltinScenario; 13] = [
    BuiltinScenario {
        id: "fig2",
        description: "Skylake bandwidth-latency curve family with headline metrics",
        anchor: "paper Fig. 2",
        build: fig2,
    },
    BuiltinScenario {
        id: "table1",
        description: "Quantitative comparison of the eight Table I platforms",
        anchor: "paper Table I / Fig. 3",
        build: table1,
    },
    BuiltinScenario {
        id: "fig4",
        description: "Graviton 3 reference vs gem5-style memory models",
        anchor: "paper Fig. 4",
        build: fig4,
    },
    BuiltinScenario {
        id: "fig5",
        description: "Skylake reference vs ZSim-style memory models",
        anchor: "paper Fig. 5",
        build: fig5,
    },
    BuiltinScenario {
        id: "fig6",
        description: "Trace-driven DRAMsim3/Ramulator/Ramulator2 stand-ins",
        anchor: "paper Fig. 6",
        build: fig6,
    },
    BuiltinScenario {
        id: "fig7",
        description: "Row-buffer statistics, actual vs approximate models",
        anchor: "paper Fig. 7",
        build: fig7,
    },
    BuiltinScenario {
        id: "fig10",
        description: "Mess simulator curves in a ZSim-style host (DDR4/DDR5/HBM2)",
        anchor: "paper Fig. 10",
        build: fig10,
    },
    BuiltinScenario {
        id: "fig11",
        description: "IPC error of ZSim-style memory models on Skylake",
        anchor: "paper Fig. 11",
        build: fig11,
    },
    BuiltinScenario {
        id: "fig12",
        description: "Mess simulator curves in a gem5-style host",
        anchor: "paper Fig. 12",
        build: fig12,
    },
    BuiltinScenario {
        id: "fig13",
        description: "IPC error of gem5-style memory models on Graviton 3",
        anchor: "paper Fig. 13",
        build: fig13,
    },
    BuiltinScenario {
        id: "fig14",
        description: "CXL expander curves across simulated hosts",
        anchor: "paper Fig. 14",
        build: fig14,
    },
    BuiltinScenario {
        id: "fig15",
        description: "HPCG application profiling on the Cascade Lake platform",
        anchor: "paper Figs. 15-16",
        build: fig15,
    },
    BuiltinScenario {
        id: "fig18",
        description: "CXL expansion vs remote-socket emulation over the SPEC-like suite",
        anchor: "paper Figs. 17-18",
        build: fig18,
    },
];

/// Looks up a builtin experiment by id. This is the one alias table: the paper figures
/// that share an experiment resolve to it (`fig3` = `table1`, `fig16` = `fig15`,
/// `fig17` = `fig18`). Returns `None` for unknown ids.
pub fn builtin(id: &str) -> Option<&'static BuiltinScenario> {
    let canonical = match id {
        "fig3" => "table1",
        "fig16" => "fig15",
        "fig17" => "fig18",
        other => other,
    };
    BUILTINS.iter().find(|b| b.id == canonical)
}

/// Builds the scenario spec of the builtin experiment `id` (or one of its aliases, see
/// [`builtin`]) at `fidelity`.
pub fn builtin_spec(id: &str, fidelity: Fidelity) -> Option<ScenarioSpec> {
    builtin(id).map(|b| b.spec(fidelity))
}

// ---------------------------------------------------------------------------
// Shared builder plumbing
// ---------------------------------------------------------------------------

/// The platform reference for `id` at `fidelity` (quick scaling as explicit overrides).
fn platform_ref(id: PlatformId, fidelity: Fidelity) -> PlatformRef {
    match fidelity {
        Fidelity::Quick => PlatformRef::quick(id),
        Fidelity::Full => PlatformRef::full(id),
    }
}

fn sweep(
    store_mixes: &[f64],
    pause_levels: &[u32],
    chase_loads: u64,
    max_cycles_per_point: u64,
) -> SweepSpec {
    SweepSpec {
        preset: SweepPreset::Full,
        store_mixes: Some(store_mixes.to_vec()),
        pause_levels: Some(pause_levels.to_vec()),
        chase_loads: Some(chase_loads),
        max_cycles_per_point: Some(max_cycles_per_point),
    }
}

/// The sweep of the §III platform-characterization experiments (fig2, table1).
fn characterization_sweep(fidelity: Fidelity) -> SweepSpec {
    match fidelity {
        Fidelity::Quick => sweep(&[0.0, 1.0], &[200, 40, 8, 0], 150, 800_000),
        Fidelity::Full => SweepSpec::preset(SweepPreset::Full),
    }
}

/// The sweep of the §IV/§V simulator experiments (fig4-fig13).
fn simulator_sweep(fidelity: Fidelity) -> SweepSpec {
    match fidelity {
        Fidelity::Quick => sweep(&[0.0, 1.0], &[120, 20, 0], 120, 600_000),
        Fidelity::Full => SweepSpec::preset(SweepPreset::Full),
    }
}

/// The sweep of the §V-C CXL experiments (fig14).
fn cxl_sweep(fidelity: Fidelity) -> SweepSpec {
    match fidelity {
        Fidelity::Quick => sweep(&[0.0, 1.0], &[120, 20, 0], 100, 500_000),
        Fidelity::Full => sweep(
            &[0.0, 0.5, 1.0],
            &[400, 200, 120, 80, 40, 20, 8, 0],
            300,
            2_000_000,
        ),
    }
}

fn models(kinds: &[MemoryModelKind]) -> Vec<ModelSpec> {
    kinds.iter().map(|&k| ModelSpec::of(k)).collect()
}

/// Reference model first, then the paper's model order — the row layout of Figs. 4 and 5.
fn comparison_models(kinds: &[MemoryModelKind]) -> Vec<ModelSpec> {
    let mut all = vec![ModelSpec::of(MemoryModelKind::DetailedDram)];
    all.extend(models(kinds));
    all
}

/// The manufacturer's CXL load-to-use curves behind the paper's CXL studies.
fn cxl_manufacturer_curves() -> CurveSourceSpec {
    CurveSourceSpec::CxlManufacturer {
        host_link_ns: mess_cxl::manufacturer::HOST_TO_CXL_LATENCY_NS,
    }
}

// ---------------------------------------------------------------------------
// The thirteen builders
// ---------------------------------------------------------------------------

fn fig2(fidelity: Fidelity) -> ScenarioSpec {
    ScenarioSpec {
        id: "fig2".into(),
        title: "Mess bandwidth-latency curves of the Skylake reference platform".into(),
        platform: platform_ref(PlatformId::IntelSkylake, fidelity),
        kind: ScenarioKind::CurveFamily {
            model: ModelSpec::of(MemoryModelKind::DetailedDram),
            sweep: characterization_sweep(fidelity),
            stream_llc_multiple: Some(match fidelity {
                Fidelity::Quick => 2,
                Fidelity::Full => 6,
            }),
            paper_reference: true,
        },
        notes: vec![],
    }
}

fn table1(fidelity: Fidelity) -> ScenarioSpec {
    let platforms: Vec<PlatformRef> = match fidelity {
        Fidelity::Quick => vec![
            platform_ref(PlatformId::IntelSkylake, fidelity),
            platform_ref(PlatformId::AmazonGraviton3, fidelity),
        ],
        Fidelity::Full => PlatformId::TABLE_ONE
            .iter()
            .map(|&id| platform_ref(id, fidelity))
            .collect(),
    };
    ScenarioSpec {
        id: "table1".into(),
        title: "Quantitative memory performance comparison (paper Table I / Fig. 3)".into(),
        platform: platform_ref(PlatformId::IntelSkylake, fidelity),
        kind: ScenarioKind::PlatformTable {
            platforms,
            model: ModelSpec::of(MemoryModelKind::DetailedDram),
            sweep: characterization_sweep(fidelity),
            stream_llc_multiple: match fidelity {
                Fidelity::Quick => 2,
                Fidelity::Full => 6,
            },
        },
        notes: vec![
            "Quick fidelity characterizes a scaled-down platform (fewer cores/channels); \
             full fidelity runs the paper configuration."
                .into(),
        ],
    }
}

fn fig4(fidelity: Fidelity) -> ScenarioSpec {
    let kinds = match fidelity {
        Fidelity::Quick => vec![
            MemoryModelKind::FixedLatency,
            MemoryModelKind::Ramulator2Like,
        ],
        Fidelity::Full => MemoryModelKind::GEM5_SET.to_vec(),
    };
    ScenarioSpec {
        id: "fig4".into(),
        title: "Graviton 3 reference vs gem5-style memory models".into(),
        platform: platform_ref(PlatformId::AmazonGraviton3, fidelity),
        kind: ScenarioKind::ModelComparison {
            models: comparison_models(&kinds),
            sweep: simulator_sweep(fidelity),
        },
        notes: vec![],
    }
}

fn fig5(fidelity: Fidelity) -> ScenarioSpec {
    let kinds = match fidelity {
        Fidelity::Quick => vec![MemoryModelKind::FixedLatency, MemoryModelKind::Dramsim3Like],
        Fidelity::Full => MemoryModelKind::ZSIM_SET.to_vec(),
    };
    ScenarioSpec {
        id: "fig5".into(),
        title: "Skylake reference vs ZSim-style memory models".into(),
        platform: platform_ref(PlatformId::IntelSkylake, fidelity),
        kind: ScenarioKind::ModelComparison {
            models: comparison_models(&kinds),
            sweep: simulator_sweep(fidelity),
        },
        notes: vec![],
    }
}

fn fig6(fidelity: Fidelity) -> ScenarioSpec {
    let (trace_ops, speeds): (u64, Vec<f64>) = match fidelity {
        Fidelity::Quick => (4_000, vec![1.0, 4.0]),
        Fidelity::Full => (40_000, vec![0.5, 1.0, 2.0, 4.0, 8.0]),
    };
    ScenarioSpec {
        id: "fig6".into(),
        title: "Trace-driven external memory simulators (paper Fig. 6)".into(),
        platform: platform_ref(PlatformId::IntelSkylake, fidelity),
        kind: ScenarioKind::TraceReplay {
            models: models(&[
                MemoryModelKind::Dramsim3Like,
                MemoryModelKind::RamulatorLike,
                MemoryModelKind::Ramulator2Like,
                MemoryModelKind::DetailedDram,
            ]),
            trace_ops,
            trace_pause: 20,
            speeds,
        },
        notes: vec![],
    }
}

fn fig7(fidelity: Fidelity) -> ScenarioSpec {
    let max_cycles = match fidelity {
        Fidelity::Quick => 400_000,
        Fidelity::Full => 4_000_000,
    };
    let pauses: Vec<u32> = match fidelity {
        Fidelity::Quick => vec![80, 0],
        Fidelity::Full => vec![200, 80, 40, 20, 8, 0],
    };
    ScenarioSpec {
        id: "fig7".into(),
        title: "Row-buffer statistics: actual vs DRAMsim3-like vs Ramulator-like (paper Fig. 7)"
            .into(),
        platform: platform_ref(PlatformId::IntelCascadeLake, fidelity),
        kind: ScenarioKind::RowBuffer {
            models: models(&[
                MemoryModelKind::DetailedDram,
                MemoryModelKind::Dramsim3Like,
                MemoryModelKind::RamulatorLike,
            ]),
            store_mixes: vec![0.0, 1.0],
            pauses,
            max_cycles,
        },
        notes: vec![
            "paper: the actual platform starts at 84/13/3% hit/empty/miss for unloaded reads \
                 and degrades with load and with the write share"
                .into(),
        ],
    }
}

fn fig10(fidelity: Fidelity) -> ScenarioSpec {
    let platforms: Vec<PlatformRef> = match fidelity {
        Fidelity::Quick => vec![platform_ref(PlatformId::IntelSkylake, fidelity)],
        Fidelity::Full => vec![
            platform_ref(PlatformId::IntelSkylake, fidelity),
            platform_ref(PlatformId::AmazonGraviton3, fidelity),
            platform_ref(PlatformId::FujitsuA64fx, fidelity),
        ],
    };
    ScenarioSpec {
        id: "fig10".into(),
        title: "Mess simulator curves vs the curves it was fed (DDR4/DDR5/HBM2, paper Fig. 10)"
            .into(),
        platform: platform_ref(PlatformId::IntelSkylake, fidelity),
        kind: ScenarioKind::MessCurves {
            platforms,
            curves: CurveSourceSpec::PlatformReference,
            sweep: simulator_sweep(fidelity),
        },
        notes: vec![
            "the simulated curves are measured by running the Mess benchmark against the Mess \
             simulator, exactly like the ZSim+Mess / gem5+Mess runs of the paper"
                .into(),
        ],
    }
}

fn fig11(fidelity: Fidelity) -> ScenarioSpec {
    let kinds = match fidelity {
        Fidelity::Quick => vec![MemoryModelKind::FixedLatency, MemoryModelKind::Mess],
        Fidelity::Full => MemoryModelKind::ZSIM_IPC_SET.to_vec(),
    };
    ScenarioSpec {
        id: "fig11".into(),
        title: "IPC error of ZSim-style memory models (paper Fig. 11)".into(),
        platform: platform_ref(PlatformId::IntelSkylake, fidelity),
        kind: ipc_error_kind(&kinds, fidelity),
        notes: vec![],
    }
}

fn fig12(fidelity: Fidelity) -> ScenarioSpec {
    let platforms: Vec<PlatformRef> = match fidelity {
        Fidelity::Quick => vec![platform_ref(PlatformId::AmazonGraviton3, fidelity)],
        Fidelity::Full => vec![
            platform_ref(PlatformId::AmazonGraviton3, fidelity),
            platform_ref(PlatformId::FujitsuA64fx, fidelity),
        ],
    };
    ScenarioSpec {
        id: "fig12".into(),
        title: "Mess simulator in a gem5-style host (paper Fig. 12)".into(),
        platform: platform_ref(PlatformId::AmazonGraviton3, fidelity),
        kind: ScenarioKind::MessCurves {
            platforms,
            curves: CurveSourceSpec::PlatformReference,
            sweep: simulator_sweep(fidelity),
        },
        notes: vec![
            "the simulated curves are measured by running the Mess benchmark against the Mess \
             simulator, exactly like the ZSim+Mess / gem5+Mess runs of the paper"
                .into(),
        ],
    }
}

fn fig13(fidelity: Fidelity) -> ScenarioSpec {
    let kinds = match fidelity {
        Fidelity::Quick => vec![MemoryModelKind::Ramulator2Like, MemoryModelKind::Mess],
        Fidelity::Full => MemoryModelKind::GEM5_IPC_SET.to_vec(),
    };
    ScenarioSpec {
        id: "fig13".into(),
        title: "IPC error of gem5-style memory models (paper Fig. 13)".into(),
        platform: platform_ref(PlatformId::AmazonGraviton3, fidelity),
        kind: ipc_error_kind(&kinds, fidelity),
        notes: vec![],
    }
}

/// The IPC-error shape shared by fig11 and fig13: the fidelity picks the validation
/// workloads and the per-run cycle budget.
fn ipc_error_kind(kinds: &[MemoryModelKind], fidelity: Fidelity) -> ScenarioKind {
    use crate::engine::ValidationWorkload;
    let validation: Vec<ValidationWorkload> = match fidelity {
        Fidelity::Quick => vec![
            ValidationWorkload::StreamTriad,
            ValidationWorkload::Multichase,
        ],
        Fidelity::Full => ValidationWorkload::ALL.to_vec(),
    };
    ScenarioKind::IpcError {
        models: models(kinds),
        workloads: validation.iter().map(|w| w.spec(fidelity)).collect(),
        max_cycles: match fidelity {
            Fidelity::Quick => 3_000_000,
            Fidelity::Full => 60_000_000,
        },
    }
}

fn fig14(fidelity: Fidelity) -> ScenarioSpec {
    let hosts: Vec<PlatformRef> = match fidelity {
        Fidelity::Quick => vec![
            platform_ref(PlatformId::IntelSkylake, fidelity),
            platform_ref(PlatformId::OpenPitonAriane, fidelity),
        ],
        Fidelity::Full => vec![
            platform_ref(PlatformId::IntelSkylake, fidelity),
            platform_ref(PlatformId::AmazonGraviton3, fidelity),
            platform_ref(PlatformId::OpenPitonAriane, fidelity),
        ],
    };
    ScenarioSpec {
        id: "fig14".into(),
        title: "CXL expander: manufacturer curves vs Mess simulation in different hosts (paper Fig. 14)"
            .into(),
        platform: platform_ref(PlatformId::IntelSkylake, fidelity),
        kind: ScenarioKind::CxlHosts {
            hosts,
            curves: cxl_manufacturer_curves(),
            device_peak_gbs: mess_cxl::manufacturer::CXL_THEORETICAL_BANDWIDTH_GBS,
            sweep: cxl_sweep(fidelity),
        },
        notes: vec![
            "the in-order Ariane host cannot saturate the device (2-entry MSHRs), exactly as the \
             paper observes for OpenPiton Metro-MPI"
                .into(),
        ],
    }
}

fn fig15(fidelity: Fidelity) -> ScenarioSpec {
    let rows = match fidelity {
        Fidelity::Quick => 120,
        Fidelity::Full => 2_000,
    };
    ScenarioSpec {
        id: "fig15".into(),
        title:
            "Mess application profiling of HPCG on the Cascade Lake platform (paper Figs. 15-16)"
                .into(),
        platform: platform_ref(PlatformId::IntelCascadeLake, fidelity),
        kind: ScenarioKind::Profile {
            workload: WorkloadSpec::hpcg(rows),
            model: ModelSpec::of(MemoryModelKind::DetailedDram),
            curves: CurveSourceSpec::PlatformReference,
            window_us: 2.0,
            phase_threshold: 0.5,
            max_cycles: 60_000_000,
        },
        notes: vec![
            "paper: most of the HPCG execution sits in the saturated bandwidth area with stress \
             scores around 0.64-0.71"
                .into(),
        ],
    }
}

fn fig18(fidelity: Fidelity) -> ScenarioSpec {
    let (ops_per_core, max_cycles, benchmarks): (u64, u64, Vec<String>) = match fidelity {
        Fidelity::Quick => {
            // perlbench and lbm: Fig. 17's low- and high-bandwidth pair.
            (600, 2_000_000, vec!["perlbench".into(), "lbm".into()])
        }
        Fidelity::Full => (
            5_000,
            40_000_000,
            spec2006_suite()
                .iter()
                .map(|w| w.name.to_string())
                .collect(),
        ),
    };
    ScenarioSpec {
        id: "fig18".into(),
        title: "Remote-socket emulation of CXL: per-benchmark performance difference (paper Figs. 17-18)"
            .into(),
        platform: platform_ref(PlatformId::IntelSkylake, fidelity),
        kind: ScenarioKind::CxlVsRemote {
            benchmarks,
            ops_per_core,
            max_cycles,
            expander: cxl_manufacturer_curves(),
            emulation: CurveSourceSpec::RemoteSocket,
            device_peak_gbs: mess_cxl::manufacturer::CXL_THEORETICAL_BANDWIDTH_GBS,
        },
        notes: vec![
            "paper: low-bandwidth benchmarks lose up to ~12% on the remote socket (higher unloaded \
             latency); high-bandwidth benchmarks gain 11-22% (higher saturated bandwidth)"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_ids_are_unique_and_documented() {
        let mut ids: Vec<&str> = BUILTINS.iter().map(|b| b.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), BUILTINS.len());
        for b in &BUILTINS {
            assert!(!b.description.is_empty(), "{}", b.id);
            assert!(b.anchor.starts_with("paper"), "{}", b.id);
        }
        assert!(builtin("fig2").is_some());
        assert!(builtin("fig99").is_none());
    }

    #[test]
    fn aliases_resolve_to_their_canonical_builtins() {
        for (alias, canonical) in [("fig3", "table1"), ("fig16", "fig15"), ("fig17", "fig18")] {
            assert_eq!(builtin(alias).unwrap().id, canonical, "{alias}");
            assert_eq!(
                builtin_spec(alias, Fidelity::Quick),
                builtin_spec(canonical, Fidelity::Quick),
                "{alias}"
            );
        }
        // Every canonical id resolves to itself.
        for b in &BUILTINS {
            assert_eq!(builtin(b.id).unwrap().id, b.id);
        }
        assert!(builtin("fig99").is_none());
        assert!(builtin_spec("fig99", Fidelity::Quick).is_none());
    }

    #[test]
    fn every_builtin_spec_validates_at_both_fidelities() {
        for b in &BUILTINS {
            for fidelity in [Fidelity::Quick, Fidelity::Full] {
                let spec = b.spec(fidelity);
                assert_eq!(spec.id, b.id);
                spec.validate()
                    .unwrap_or_else(|e| panic!("{} at {fidelity:?}: {e}", b.id));
            }
        }
    }

    #[test]
    fn every_builtin_spec_round_trips_through_json_bit_stably() {
        // The satellite contract behind `--dump-spec`: dumped JSON re-parses to an equal
        // scenario, and a parse → serialize cycle is bit-stable.
        for b in &BUILTINS {
            for fidelity in [Fidelity::Quick, Fidelity::Full] {
                let spec = b.spec(fidelity);
                let json = spec.to_json();
                let back = ScenarioSpec::from_json(&json)
                    .unwrap_or_else(|e| panic!("{} at {fidelity:?}: {e}", b.id));
                assert_eq!(back, spec, "{} at {fidelity:?}", b.id);
                assert_eq!(back.to_json(), json, "{} at {fidelity:?}", b.id);
            }
        }
    }
}
