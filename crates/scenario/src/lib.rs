//! The declarative scenario layer: experiments as data, from CLI to report.
//!
//! The paper's methodology is one recipe — characterize a memory system with the Mess
//! benchmark, simulate workloads against memory models, compare — applied to *any*
//! platform × workload × memory-model combination. This crate makes that recipe
//! declarative:
//!
//! * [`spec`] — the serializable vocabulary: [`ScenarioSpec`] / [`CampaignSpec`] on top of
//!   the lower-layer specs ([`WorkloadSpec`], [`ModelSpec`], [`PlatformRef`],
//!   [`SweepSpec`]), all JSON-serializable through the workspace serde stand-ins;
//! * [`engine`] — [`run_scenario_observed`] / [`run_campaign_observed`]: the single
//!   `characterize → simulate → report` pipeline every spec executes through, with
//!   campaign fan-out over the order-preserving `mess_exec::par_map`
//!   ([`run_scenario_with`] is the same run without a progress sink);
//! * [`mod@builtin`] — every table and figure of the paper as a registered spec builder
//!   ([`builtin()`] also resolves the paper's figure aliases). A builtin id is just a spec:
//!   `mess-harness -e fig11` runs `builtin_spec("fig11", ..)` through the same engine call
//!   as `--scenario`, so `mess-harness --dump-spec fig11 > my.json`, edit,
//!   `--scenario my.json` is a complete workflow;
//! * [`report`] — the [`ExperimentReport`] tables the engine produces and the
//!   [`CampaignSummary`] index written next to per-experiment CSV files.
//!
//! Adding a new experiment is a JSON file, not new code: pick a [`spec::ScenarioKind`]
//! (including the open `Run` combination no paper figure covers), name a platform, a
//! workload, and a model, and hand the file to the harness.

#![warn(missing_docs)]

pub mod builtin;
pub mod digest;
pub mod engine;
mod obs;
pub mod output;
pub mod progress;
pub mod report;
pub mod spec;

pub use builtin::{builtin, builtin_spec, BuiltinScenario, BUILTINS};
pub use digest::{digest_text, SpecDigest};
pub use engine::{
    resolve_curves, resolve_factory, run_campaign_observed, run_scenario_observed,
    run_scenario_with, ScenarioOptions, ScenarioOutcome, ValidationWorkload,
};
pub use output::{write_curve_sets, write_reports};
pub use progress::{NoProgress, ProgressEvent, ProgressSink, TraceProgress};
pub use report::{CampaignSummary, ExperimentReport, ExperimentSummary, Fidelity};
pub use spec::{CampaignSpec, ScenarioKind, ScenarioSpec};

// One-stop re-exports of the lower-layer spec vocabulary (and the curve artifact the
// engine produces and consumes).
pub use mess_bench::{SweepPreset, SweepSpec};
pub use mess_core::{CurveSet, CurveSetProvenance};
pub use mess_platforms::{CurveSourceSpec, ModelSpec, PlatformRef};
pub use mess_workloads::spec::WorkloadSpec;

// The paper's per-figure claims, checked on the quick builtin reports with one test module
// per paper section (`runner` checks the quick-fidelity plumbing those reports run on).
#[cfg(test)]
mod characterization;
#[cfg(test)]
mod cxl;
#[cfg(test)]
mod mess_sim;
#[cfg(test)]
mod profiling;
#[cfg(test)]
mod runner;
#[cfg(test)]
mod simulators;

/// Runs the builtin experiment `id` at quick fidelity and returns its report.
#[cfg(test)]
fn quick_report(id: &str) -> ExperimentReport {
    let spec = builtin_spec(id, Fidelity::Quick).unwrap_or_else(|| panic!("{id} is not builtin"));
    run_scenario_with(&spec, &ScenarioOptions::default())
        .unwrap_or_else(|e| panic!("{id} failed: {e}"))
        .report
}

/// The cell in `column` of the row whose first cell is `name`, as a number.
#[cfg(test)]
fn cell(report: &ExperimentReport, name: &str, column: usize) -> f64 {
    let row = report
        .rows
        .iter()
        .find(|row| row[0] == name)
        .unwrap_or_else(|| panic!("{}: {name} row missing", report.id));
    row[column]
        .parse()
        .unwrap_or_else(|e| panic!("{}: {name}[{column}] = {}: {e}", report.id, row[column]))
}
