//! The observability layer's hard contract: it is *write-only* with respect to results.
//!
//! Reports, `CurveSet` artifact bytes, and `spec_digest()` cache keys must be
//! byte-identical whether metrics/tracing are disabled or enabled, at any worker count.
//! One test (this binary runs nothing else, so the process-global enable flag and trace
//! collector are raced by nobody) runs a builtin suite three ways — disabled @ 1 worker,
//! enabled+tracing @ 1 worker, enabled+tracing @ 8 workers — and compares everything.

use mess_obs::trace::TraceRecord;
use mess_scenario::{Fidelity, ScenarioKind, ScenarioOptions, TraceProgress, BUILTINS};

/// Everything a run produces that downstream consumers may hash, cache, or diff.
#[derive(Debug, PartialEq)]
struct SuiteOutput {
    /// Per scenario: (id, spec digest, report CSV).
    reports: Vec<(String, String, String)>,
    /// Per curve artifact: serialized `CurveSet` bytes, in production order.
    artifacts: Vec<String>,
}

fn run_suite(ids: &[&str], threads: usize, observed: bool) -> SuiteOutput {
    mess_exec::set_default_threads(threads);
    let sink = TraceProgress::new();
    let options = ScenarioOptions::default();
    let mut reports = Vec::new();
    let mut artifacts = Vec::new();
    for id in ids {
        let spec = mess_scenario::builtin_spec(id, Fidelity::Quick).expect("builtin id");
        let outcome = if observed {
            mess_scenario::run_scenario_observed(&spec, &options, &sink)
        } else {
            mess_scenario::run_scenario_with(&spec, &options)
        }
        .unwrap_or_else(|e| panic!("{id} failed: {e}"));
        reports.push((
            spec.id.clone(),
            spec.spec_digest().to_string(),
            outcome.report.to_csv(),
        ));
        artifacts.extend(outcome.curve_sets.iter().map(|set| set.to_json()));
    }
    mess_exec::set_default_threads(0);
    SuiteOutput { reports, artifacts }
}

#[test]
fn observability_never_changes_outputs_at_any_worker_count() {
    // Every builtin experiment: simulation, characterization, profiling, and artifact
    // production all pass under the comparison.
    let ids: Vec<&str> = BUILTINS.iter().map(|b| b.id).collect();

    // Baseline: observability fully disabled, sequential.
    mess_obs::set_enabled(false);
    let baseline = run_suite(&ids, 1, false);
    assert!(
        baseline.reports.iter().all(|(_, _, csv)| !csv.is_empty()),
        "the baseline produced real reports"
    );

    // Metrics + tracing on, sequential: every instrumentation site live.
    mess_obs::set_enabled(true);
    mess_obs::trace::start();
    let traced_sequential = run_suite(&ids, 1, true);

    // Same, on an 8-worker pool: instrumentation live on concurrent legs.
    let traced_parallel = run_suite(&ids, 8, true);
    let records = mess_obs::trace::finish();
    mess_obs::set_enabled(false);

    // Tracing actually happened — this test must not pass vacuously.
    assert!(
        records.iter().any(|r| r.name.starts_with("scenario:")),
        "expected scenario spans in {records:?}"
    );
    assert!(
        records.iter().any(|r| r.name.starts_with("leg:")),
        "expected leg spans"
    );

    // Every characterization is traced under its leg: each leg span of a curve-measuring
    // builtin has a `characterize` child, except fig2's STREAM phase, which is a leg of
    // its own.
    let children = |parent: &TraceRecord| {
        let id = parent.id;
        records.iter().filter(move |r| r.parent == id)
    };
    let curve_measuring: Vec<String> = BUILTINS
        .iter()
        .filter(|b| {
            matches!(
                b.spec(Fidelity::Quick).kind,
                ScenarioKind::CurveFamily { .. }
                    | ScenarioKind::PlatformTable { .. }
                    | ScenarioKind::ModelComparison { .. }
                    | ScenarioKind::MessCurves { .. }
                    | ScenarioKind::CxlHosts { .. }
            )
        })
        .map(|b| format!("scenario:{}", b.id))
        .collect();
    let mut characterized_legs = 0;
    for scenario in records.iter().filter(|r| curve_measuring.contains(&r.name)) {
        for leg in children(scenario).filter(|r| r.name.starts_with("leg:")) {
            if scenario.name == "scenario:fig2" && leg.name == "leg:stream" {
                continue;
            }
            assert!(
                children(leg).any(|r| r.name == "characterize"),
                "{} of {} has no characterize child",
                leg.name,
                scenario.name
            );
            characterized_legs += 1;
        }
    }
    assert!(characterized_legs > 0, "expected characterization legs");
    let fig2: Vec<&TraceRecord> = records
        .iter()
        .filter(|r| r.name == "scenario:fig2")
        .collect();
    assert_eq!(fig2.len(), 2, "fig2 ran traced at 1 and 8 workers");
    for fig2 in fig2 {
        assert!(
            children(fig2).any(|r| r.name == "leg:stream"),
            "fig2's STREAM phase runs in a leg"
        );
    }

    assert_eq!(
        baseline, traced_sequential,
        "enabling observability changed an output"
    );
    assert_eq!(
        baseline, traced_parallel,
        "observability + 8 workers changed an output"
    );
}
