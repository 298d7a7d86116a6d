//! Regression tests for the declarative scenario pipeline.
//!
//! * every builtin experiment runs through the spec pipeline and produces bit-identical
//!   reports at 1 and 8 workers (the output must not depend on scheduling);
//! * a builtin's `--dump-spec` JSON re-runs to the identical report (export → edit → re-run
//!   is lossless);
//! * the checked-in example campaign — a workload/platform/model pairing no builtin driver
//!   covers — runs end to end from its JSON file and emits CSV rows.

use mess_scenario::{
    run_campaign_observed, run_scenario_with, CampaignSpec, ExperimentReport, Fidelity, NoProgress,
    ScenarioOptions, ScenarioSpec, BUILTINS,
};
use std::path::PathBuf;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

#[test]
fn every_experiment_is_bit_identical_at_1_and_8_workers() {
    // The whole quick campaign, twice: once fully sequential, once on an 8-worker pool.
    // Every report — rows, notes, CSV — must match bit for bit; every parallel leg of the
    // engine is an order-preserving `par_map`, so scheduling must never leak into the
    // output.
    let run_all = |threads: usize| -> Vec<ExperimentReport> {
        mess_exec::set_default_threads(threads);
        let reports = BUILTINS
            .iter()
            .map(|b| {
                run_scenario_with(&b.spec(Fidelity::Quick), &ScenarioOptions::default())
                    .unwrap_or_else(|e| panic!("{} failed: {e}", b.id))
                    .report
            })
            .collect();
        mess_exec::set_default_threads(0);
        reports
    };
    let sequential = run_all(1);
    let parallel = run_all(8);
    assert_eq!(sequential.len(), BUILTINS.len());
    for ((b, seq), par) in BUILTINS.iter().zip(&sequential).zip(&parallel) {
        assert_eq!(seq, par, "{} differs between 1 and 8 workers", seq.id);
        assert_eq!(seq.to_csv(), par.to_csv(), "{} CSV differs", seq.id);
        assert_eq!(seq.id, b.id);
        assert!(!seq.rows.is_empty(), "{} produced no rows", seq.id);
    }
}

#[test]
fn dumped_builtin_spec_reruns_to_the_identical_report() {
    // `--dump-spec fig7 > f.json && --scenario f.json` must equal `-e fig7`: the JSON
    // round trip may not change a single byte of the report.
    let spec = mess_scenario::builtin_spec("fig7", Fidelity::Quick).expect("fig7 is builtin");
    let reparsed = ScenarioSpec::from_json(&spec.to_json()).expect("dumped JSON parses");
    assert_eq!(reparsed, spec);
    let run = |spec: &ScenarioSpec| {
        run_scenario_with(spec, &ScenarioOptions::default())
            .expect("spec runs")
            .report
    };
    let (from_file, from_builtin) = (run(&reparsed), run(&spec));
    assert_eq!(from_file, from_builtin);
    assert_eq!(from_file.to_csv(), from_builtin.to_csv());
}

#[test]
fn checked_in_example_campaign_runs_end_to_end() {
    // The acceptance scenario: a campaign JSON pairing GUPS with the CXL-expander and
    // M/D/1 models — a combination no builtin experiment covers — loads, validates, runs
    // through the campaign fan-out, and emits CSV rows.
    let path = scenarios_dir().join("custom-campaign.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let campaign = CampaignSpec::from_json(&text).expect("checked-in campaign parses");
    campaign.validate().expect("checked-in campaign validates");
    let reports: Vec<ExperimentReport> =
        run_campaign_observed(&campaign, &ScenarioOptions::default(), &NoProgress)
            .expect("campaign runs")
            .into_iter()
            .map(|outcome| outcome.report)
            .collect();
    assert_eq!(reports.len(), campaign.scenarios.len());
    for report in &reports {
        assert!(!report.rows.is_empty(), "{} produced no rows", report.id);
        let csv = report.to_csv();
        assert!(
            csv.lines().count() >= 2,
            "{} CSV has no data rows",
            report.id
        );
    }
    // Both scenarios run the same GUPS workload; the two models must disagree on IPC
    // (different queueing behaviour), which is exactly why the pairing is interesting.
    let ipc: Vec<f64> = reports
        .iter()
        .map(|r| r.rows[0][3].parse().expect("ipc column"))
        .collect();
    assert!(ipc[0] > 0.0 && ipc[1] > 0.0);
    assert_ne!(ipc[0], ipc[1]);
}

#[test]
fn checked_in_example_scenario_parses_and_validates() {
    // The single-scenario file used by the CI smoke run.
    let path = scenarios_dir().join("gups-cxl-expander.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let spec = ScenarioSpec::from_json(&text).expect("checked-in scenario parses");
    spec.validate().expect("checked-in scenario validates");
    assert_eq!(spec.id, "gups-cxl-expander");
}
