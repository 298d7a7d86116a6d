//! Scenario-layer metric handles, registered once.
//!
//! Spans are *not* opened here: the per-scenario and per-leg span timeline is built by
//! [`crate::progress::TraceProgress`] on the `ProgressSink` seam, and the characterize
//! phase opens its span inline in the engine's one characterization helper, where the
//! timing is exact.

use std::sync::OnceLock;

use mess_obs::{Counter, Registry};
use std::sync::Arc;

pub(crate) struct ScenarioMetrics {
    /// `mess_scenario_runs_total`: scenarios executed (validation passed).
    pub runs: Arc<Counter>,
    /// `mess_scenario_legs_total`: legs executed across all scenarios, counted by the
    /// engine's one leg runner.
    pub legs: Arc<Counter>,
    /// `mess_scenario_characterizations_total`: curve characterizations performed, one per
    /// characterization leg of a curve-measuring kind and one per `Characterized` curve
    /// source resolved.
    pub characterizations: Arc<Counter>,
}

impl ScenarioMetrics {
    pub(crate) fn get() -> &'static ScenarioMetrics {
        static METRICS: OnceLock<ScenarioMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let registry = Registry::global();
            let expect = "mess_scenario metric names are registered once";
            ScenarioMetrics {
                runs: registry
                    .counter("mess_scenario_runs_total", "Scenarios executed")
                    .expect(expect),
                legs: registry
                    .counter("mess_scenario_legs_total", "Scenario legs executed")
                    .expect(expect),
                characterizations: registry
                    .counter(
                        "mess_scenario_characterizations_total",
                        "Curve characterizations performed",
                    )
                    .expect(expect),
            }
        })
    }

    /// The handles when observability is enabled, `None` (one relaxed load) otherwise.
    pub(crate) fn if_enabled() -> Option<&'static ScenarioMetrics> {
        mess_obs::enabled().then(ScenarioMetrics::get)
    }
}
