//! End-to-end tests of the CurveSet artifact layer: the characterize → save →
//! re-simulate/profile loop that crosses core → platforms → bench → scenario → harness.
//!
//! * **Closed-loop determinism** (the acceptance criterion): characterizing a backend
//!   in-process (`Characterized` source) and running the same mess-sim scenario from the
//!   saved `CurveSet` file (`File` source, or the `--curves` override) yields bit-identical
//!   reports;
//! * saved artifacts re-serialize byte-identically after a load;
//! * the checked-in example artifact and the characterize/mess-sim/profile scenario files
//!   parse, validate, and (for the profile scenario) run end to end.

use mess_platforms::{MemoryModelKind, PlatformId};
use mess_scenario::{
    run_scenario_with, write_curve_sets, CurveSet, CurveSetProvenance, CurveSourceSpec,
    ExperimentReport, ModelSpec, PlatformRef, ScenarioKind, ScenarioOptions, ScenarioSpec,
    SweepPreset, SweepSpec,
};
use std::path::PathBuf;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mess-curve-artifacts-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `spec` with default options and returns its report.
fn report_of(spec: &ScenarioSpec) -> ExperimentReport {
    run_scenario_with(spec, &ScenarioOptions::default())
        .unwrap()
        .report
}

/// A mess-sim scenario whose input curves come from `curves`.
fn mess_sim_spec(curves: CurveSourceSpec) -> ScenarioSpec {
    let platform = PlatformRef::quick(PlatformId::IntelSkylake);
    ScenarioSpec {
        id: "closed-loop".into(),
        title: "Mess simulator fed a characterized family".into(),
        platform,
        kind: ScenarioKind::MessCurves {
            platforms: vec![platform],
            curves,
            sweep: SweepSpec::preset(SweepPreset::Reduced),
        },
        notes: vec![],
    }
}

#[test]
fn closed_loop_in_process_and_file_loaded_curves_are_bit_identical() {
    // The paper's self-characterization experiment, entirely from spec data: measure the
    // M/D/1 backend with the Mess benchmark, feed the family to the Mess simulator, and
    // characterize the simulator.
    let characterized = CurveSourceSpec::Characterized {
        model: Box::new(ModelSpec::of(MemoryModelKind::Md1Queue)),
        sweep: SweepSpec::preset(SweepPreset::Reduced),
    };
    let in_process = report_of(&mess_sim_spec(characterized.clone()));

    // Persist the same characterization as a CurveSet artifact...
    let platform = PlatformRef::quick(PlatformId::IntelSkylake).resolve();
    let family =
        mess_scenario::resolve_curves(&characterized, &platform, &ScenarioOptions::default())
            .unwrap();
    let set = CurveSet::new(
        family,
        CurveSetProvenance::new("skylake", "md1-queue", "Reduced preset", "closed-loop"),
    )
    .unwrap();
    let dir = temp_dir("closed-loop");
    let path = dir.join("md1.json");
    set.save(&path).unwrap();

    // ...and run the identical scenario from the file: the report must not differ by a bit.
    let file_source = CurveSourceSpec::File {
        path: path.to_string_lossy().into_owned(),
    };
    let from_file = report_of(&mess_sim_spec(file_source));
    assert_eq!(from_file, in_process, "file-loaded curves diverged");
    assert_eq!(from_file.to_csv(), in_process.to_csv());

    // The harness-level `--curves` override reaches the same fixed point.
    let options = ScenarioOptions {
        curves: Some(CurveSet::load(&path).unwrap()),
        ..Default::default()
    };
    let overridden =
        run_scenario_with(&mess_sim_spec(CurveSourceSpec::PlatformReference), &options).unwrap();
    assert_eq!(overridden.report, in_process, "--curves override diverged");

    // And the artifact itself is a serialization fixed point.
    let bytes = std::fs::read_to_string(&path).unwrap();
    assert_eq!(CurveSet::load(&path).unwrap().to_json() + "\n", bytes);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn characterization_scenario_persists_artifacts_that_feed_the_simulator() {
    // The CI smoke path in miniature: run the checked-in characterization scenario,
    // persist its artifact with the harness writer, and drive the checked-in mess-sim
    // scenario from the file.
    let text = std::fs::read_to_string(scenarios_dir().join("characterize-skylake.json")).unwrap();
    let spec = ScenarioSpec::from_json(&text).expect("characterize scenario parses");
    spec.validate().expect("characterize scenario validates");
    let outcome = run_scenario_with(&spec, &ScenarioOptions::default()).unwrap();
    assert_eq!(outcome.curve_sets.len(), 1, "one family characterized");

    let dir = temp_dir("smoke");
    let written = write_curve_sets(&dir, &outcome.curve_sets).unwrap();
    assert_eq!(
        written[0].file_name().unwrap().to_string_lossy(),
        "characterize-skylake-skylake-detailed-dram.json",
        "CI names this file in advance, so the naming scheme is pinned"
    );

    let text = std::fs::read_to_string(scenarios_dir().join("mess-sim-skylake.json")).unwrap();
    let sim = ScenarioSpec::from_json(&text).expect("mess-sim scenario parses");
    sim.validate().expect("mess-sim scenario validates");
    let options = ScenarioOptions {
        curves: Some(CurveSet::load(&written[0]).unwrap()),
        ..Default::default()
    };
    let outcome = run_scenario_with(&sim, &options).unwrap();
    assert!(!outcome.report.rows.is_empty());
    // The simulator was fed the measured DRAM curves, so its input unloaded latency in
    // the report matches the artifact's family, not the synthetic reference.
    let input_unloaded: f64 = outcome.report.rows[0][1].parse().unwrap();
    let artifact_unloaded = options
        .curves
        .as_ref()
        .unwrap()
        .family()
        .unloaded_latency()
        .as_ns();
    assert!(
        (input_unloaded - artifact_unloaded.round()).abs() <= 1.0,
        "report input {input_unloaded} ns vs artifact {artifact_unloaded} ns"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checked_in_example_curveset_loads_and_is_byte_stable() {
    let path = scenarios_dir().join("skylake-reference.curveset.json");
    let set = CurveSet::load(&path)
        .unwrap_or_else(|e| panic!("checked-in curve artifact must load: {e}"));
    assert_eq!(set.version(), mess_core::CURVESET_FORMAT_VERSION);
    assert_eq!(set.provenance().platform, "skylake");
    assert!(set.family().len() >= 2, "at least two ratio curves");
    // The checked-in bytes are exactly what the serializer produces (a regenerated file
    // never shows a spurious diff).
    let bytes = std::fs::read_to_string(&path).unwrap();
    assert_eq!(set.to_json() + "\n", bytes);
}

#[test]
fn checked_in_profile_scenario_runs_on_the_checked_in_artifact() {
    let path = scenarios_dir().join("profile-gups-curves.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut spec = ScenarioSpec::from_json(&text).expect("profile scenario parses");
    spec.validate().expect("profile scenario validates");
    // The file's path is repo-root relative (for CLI runs from the repo root); the test
    // runs from the crate dir, so rewrite it to the absolute location.
    if let ScenarioKind::Profile {
        curves: CurveSourceSpec::File { path },
        ..
    } = &mut spec.kind
    {
        assert!(
            path.ends_with("skylake-reference.curveset.json"),
            "the scenario references the checked-in artifact"
        );
        *path = scenarios_dir()
            .join("skylake-reference.curveset.json")
            .to_string_lossy()
            .into_owned();
    } else {
        panic!("profile-gups-curves.json must be a Profile kind with a File curve source");
    }
    let report = report_of(&spec);
    assert!(!report.rows.is_empty(), "the timeline has samples");
    assert!(
        report.notes.iter().any(|n| n.contains("mean stress")),
        "headline stress note present"
    );
}
