//! Regression tests for the declarative scenario pipeline.
//!
//! * every builtin experiment runs through the spec pipeline and produces bit-identical
//!   reports at 1 and 8 workers (the output must not depend on scheduling), matching the
//!   checked-in golden digests of its report CSV and curve artifacts;
//! * a builtin's `--dump-spec` JSON re-runs to the identical report (export → edit → re-run
//!   is lossless);
//! * the checked-in example campaign — a workload/platform/model pairing no builtin driver
//!   covers — runs end to end from its JSON file and emits CSV rows.

use mess_scenario::{
    digest_text, run_campaign_observed, run_scenario_with, CampaignSpec, CurveSet,
    ExperimentReport, Fidelity, NoProgress, ScenarioOptions, ScenarioOutcome, ScenarioSpec,
    BUILTINS,
};
use std::path::PathBuf;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

/// `(builtin id, digest of its report CSV, digest of its curve artifacts)` at Quick
/// fidelity: FNV-1a-128 ([`digest_text`]) of `report.to_csv()` and of every `CurveSet`'s
/// JSON joined by newlines (the digest of the empty string when it has none). A change
/// that alters a builtin's output on purpose updates its entry here, so the change shows
/// as a diff of named entries.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, &str)] = &[
    ("fig2", "a618bacc723d6ddfccb7c3dff6ea5a87", "2df08e8ed972731c3e415619c9ec5b60"),
    ("table1", "2637e887814382c16402c50d66d58ee5", "6019042e1295cd800295c645b8de8b05"),
    ("fig4", "0c6daa53ed389efd48f4cc550ab366f6", "0d435efd16d01c943b1965502ce22df6"),
    ("fig5", "c6398c74bc4044603fe7e4b6e83fd34c", "134b4fc01514e534cc8f9a846d2d1a8d"),
    ("fig6", "23f0d7d9c215a1b1e40201b1f152b0e0", "6c62272e07bb014262b821756295c58d"),
    ("fig7", "d5cf4f6d838abd4ca394a87066954c24", "6c62272e07bb014262b821756295c58d"),
    ("fig10", "d0e5b3bcd9c3cb5e198befe88f1e560e", "e10d04ff5a7b0ded916234ba7b48fb73"),
    ("fig11", "6a404f74757cd104bf70dcd76d4ce23c", "6c62272e07bb014262b821756295c58d"),
    ("fig12", "814aef0081ae371dc228619027a4a3da", "3269e6f6dd98da51f1501509e15d7194"),
    ("fig13", "81de165f8843bc3b508d2b83e03c627f", "6c62272e07bb014262b821756295c58d"),
    ("fig14", "830855388fff98b810556eccb277851a", "82c4eba8fa4378b14399f8911456a87f"),
    ("fig15", "6ed5aad2e49859c46acb79806c454cb4", "6c62272e07bb014262b821756295c58d"),
    ("fig18", "f3e3e8eaa26e07ec69a33cd85d1c9155", "6c62272e07bb014262b821756295c58d"),
];

/// Fails naming every builtin whose digests differ from [`GOLDEN`], with the whole
/// expected and actual tables.
fn assert_golden(outcomes: &[ScenarioOutcome]) {
    let actual: Vec<(String, String, String)> = outcomes
        .iter()
        .map(|outcome| {
            let curves: Vec<String> = outcome.curve_sets.iter().map(CurveSet::to_json).collect();
            (
                outcome.report.id.clone(),
                digest_text(&outcome.report.to_csv()).to_string(),
                digest_text(&curves.join("\n")).to_string(),
            )
        })
        .collect();
    let expected: Vec<(String, String, String)> = GOLDEN
        .iter()
        .map(|&(id, csv, curves)| (id.into(), csv.into(), curves.into()))
        .collect();
    let table = |rows: &[(String, String, String)]| -> String {
        rows.iter()
            .map(|(id, csv, curves)| format!("    (\"{id}\", \"{csv}\", \"{curves}\"),\n"))
            .collect()
    };
    let differs: Vec<&str> = expected
        .iter()
        .zip(&actual)
        .filter(|(e, a)| e != a)
        .map(|(e, _)| e.0.as_str())
        .collect();
    assert!(
        differs.is_empty() && expected.len() == actual.len(),
        "quick builtins differ from their golden digests: {differs:?}\nexpected:\n{}actual:\n{}",
        table(&expected),
        table(&actual)
    );
}

#[test]
fn every_experiment_is_bit_identical_at_1_and_8_workers() {
    // The whole quick campaign, twice: once fully sequential, once on an 8-worker pool.
    // Every report — rows, notes, CSV — must match bit for bit; every parallel leg of the
    // engine is an order-preserving `par_map`, so scheduling must never leak into the
    // output.
    let run_all = |threads: usize| -> Vec<ScenarioOutcome> {
        mess_exec::set_default_threads(threads);
        let outcomes = BUILTINS
            .iter()
            .map(|b| {
                run_scenario_with(&b.spec(Fidelity::Quick), &ScenarioOptions::default())
                    .unwrap_or_else(|e| panic!("{} failed: {e}", b.id))
            })
            .collect();
        mess_exec::set_default_threads(0);
        outcomes
    };
    let sequential = run_all(1);
    let parallel = run_all(8);
    assert_eq!(sequential.len(), BUILTINS.len());
    for ((b, seq), par) in BUILTINS.iter().zip(&sequential).zip(&parallel) {
        let (seq_sets, par_sets) = (&seq.curve_sets, &par.curve_sets);
        let (seq, par) = (&seq.report, &par.report);
        assert_eq!(seq, par, "{} differs between 1 and 8 workers", seq.id);
        assert_eq!(seq.to_csv(), par.to_csv(), "{} CSV differs", seq.id);
        assert_eq!(seq.id, b.id);
        assert!(!seq.rows.is_empty(), "{} produced no rows", seq.id);
        assert_eq!(seq_sets, par_sets, "{} curve artifacts differ", seq.id);
    }
    assert_golden(&sequential);
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
