//! Reusable progress reporting for scenario runs.
//!
//! The engine used to narrate nothing (the harness printed job lines around whole
//! scenarios); a resident service needs finer grain — which *leg* of a run is executing —
//! delivered through a pluggable sink instead of stderr. [`ProgressSink`] is that hook:
//! the harness keeps its quiet default ([`NoProgress`]), `mess-serve` forwards every
//! event to the run's newline-delimited JSON event stream, and tests collect events into
//! a `Vec` through the blanket closure impl.
//!
//! Events carry owned strings (not borrows into the spec) so sinks can queue them beyond
//! the run's lifetime. Emission order is deterministic *per leg* — a leg's `LegStarted`
//! always precedes its `LegFinished` — but the legs of one fan-out run concurrently, so
//! events of different legs interleave according to the actual schedule. A scenario may run
//! several fan-outs, one after another. That interleaving is reporting-only: the run's
//! outputs stay byte-identical at any worker count.
//!
//! This module also owns the event's two canonical renderings, so no consumer invents its
//! own: the serde derive is the JSON wire shape (`mess-serve` embeds the event verbatim
//! in its run event stream) and [`ProgressEvent`]'s `Display` is the one-line human
//! narration (`mess-harness --progress` prints it to stderr).

use serde::{Deserialize, Serialize};

/// One step of a scenario run, as reported to a [`ProgressSink`].
///
/// The serde derive *is* the canonical JSON form — externally tagged, e.g.
/// `{"LegStarted":{"scenario":"mess-sim-skylake","leg":"skylake","index":0,"total":3}}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProgressEvent {
    /// The scenario validated and is about to execute.
    ScenarioStarted {
        /// The scenario's id.
        scenario: String,
    },
    /// A leg (one platform, model, workload, ... of a fan-out) was picked up.
    LegStarted {
        /// The scenario's id.
        scenario: String,
        /// Human-readable leg label (platform key, model label, workload name, ...).
        leg: String,
        /// The leg's index in its fan-out, in spec order.
        index: usize,
        /// Legs in this fan-out. A scenario may run more than one fan-out in sequence
        /// (fig2 characterizes, then runs STREAM), each with its own `total` and indices
        /// counted from 0.
        total: usize,
    },
    /// A leg finished computing its result.
    LegFinished {
        /// The scenario's id.
        scenario: String,
        /// Human-readable leg label (platform key, model label, workload name, ...).
        leg: String,
        /// The leg's index in its fan-out, in spec order.
        index: usize,
        /// Legs in this fan-out (see [`ProgressEvent::LegStarted`]).
        total: usize,
    },
    /// The scenario's report (and artifacts) are complete.
    ScenarioFinished {
        /// The scenario's id.
        scenario: String,
        /// Rows in the final report.
        rows: usize,
        /// Curve artifacts the run produced.
        artifacts: usize,
    },
}

impl ProgressEvent {
    /// The scenario id the event belongs to.
    pub fn scenario(&self) -> &str {
        match self {
            ProgressEvent::ScenarioStarted { scenario }
            | ProgressEvent::LegStarted { scenario, .. }
            | ProgressEvent::LegFinished { scenario, .. }
            | ProgressEvent::ScenarioFinished { scenario, .. } => scenario,
        }
    }
}

/// The canonical one-line narration, shared by every consumer that talks to a human
/// (the harness `--progress` flag). Indices print 1-based.
impl std::fmt::Display for ProgressEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgressEvent::ScenarioStarted { scenario } => {
                write!(f, "scenario {scenario}: started")
            }
            ProgressEvent::LegStarted {
                scenario,
                leg,
                index,
                total,
            } => write!(
                f,
                "scenario {scenario}: leg {}/{total} {leg} ...",
                index + 1
            ),
            ProgressEvent::LegFinished {
                scenario,
                leg,
                index,
                total,
            } => write!(
                f,
                "scenario {scenario}: leg {}/{total} {leg} done",
                index + 1
            ),
            ProgressEvent::ScenarioFinished {
                scenario,
                rows,
                artifacts,
            } => write!(
                f,
                "scenario {scenario}: finished ({rows} rows, {artifacts} artifacts)"
            ),
        }
    }
}

/// Receives [`ProgressEvent`]s from a running scenario. `Sync` because the engine emits
/// from its leg workers.
pub trait ProgressSink: Sync {
    /// Delivers one event. Implementations must be cheap (or buffer internally): they run
    /// on the engine's worker threads.
    fn emit(&self, event: ProgressEvent);
}

/// The silent sink: the default for CLI runs and everything that predates the service.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProgress;

impl ProgressSink for NoProgress {
    fn emit(&self, _event: ProgressEvent) {}
}

/// Any `Sync` closure is a sink, e.g. `|e| tx.send(e).unwrap()` over a mutex-guarded
/// queue.
impl<F: Fn(ProgressEvent) + Sync> ProgressSink for F {
    fn emit(&self, event: ProgressEvent) {
        self(event)
    }
}

/// A [`ProgressSink`] that turns the event stream into a `mess-obs` span timeline:
/// one span per scenario, one child span per leg.
///
/// The recorder exploits the seam's threading guarantees: `ScenarioStarted` /
/// `ScenarioFinished` bracket the run on the *calling* thread and `LegStarted` /
/// `LegFinished` bracket the leg body on its *worker* thread, so the recorder can enter
/// each span on the thread that will execute its contents — phase spans the engine opens
/// inside a leg (`characterize`) nest under the leg span with no extra plumbing. Leg
/// spans cross threads, so their parent is pinned explicitly to the scenario span.
///
/// Inert (no allocation) while tracing is inactive. Purely additive: it never touches
/// the events, so wrapping a run with it cannot change any output.
#[derive(Debug, Default)]
pub struct TraceProgress {
    /// Open scenario spans by scenario id.
    scenarios: std::sync::Mutex<std::collections::HashMap<String, mess_obs::Span>>,
    /// Open leg spans by (scenario id, leg index).
    legs: std::sync::Mutex<std::collections::HashMap<(String, usize), mess_obs::Span>>,
}

impl TraceProgress {
    /// A fresh recorder with no open spans.
    pub fn new() -> TraceProgress {
        TraceProgress::default()
    }
}

impl ProgressSink for TraceProgress {
    fn emit(&self, event: ProgressEvent) {
        if !mess_obs::trace::active() {
            return;
        }
        match event {
            ProgressEvent::ScenarioStarted { scenario } => {
                let span = mess_obs::Span::start(&format!("scenario:{scenario}"));
                mess_obs::trace::push_thread_span(span.id());
                self.scenarios
                    .lock()
                    .expect("trace recorder poisoned")
                    .insert(scenario, span);
            }
            ProgressEvent::ScenarioFinished { scenario, .. } => {
                let span = self
                    .scenarios
                    .lock()
                    .expect("trace recorder poisoned")
                    .remove(&scenario);
                if let Some(span) = span {
                    mess_obs::trace::pop_thread_span(span.id());
                    span.finish();
                }
            }
            ProgressEvent::LegStarted {
                scenario,
                leg,
                index,
                total: _,
            } => {
                let parent = self
                    .scenarios
                    .lock()
                    .expect("trace recorder poisoned")
                    .get(&scenario)
                    .map_or(mess_obs::SpanId::NONE, |s| s.id());
                let span = mess_obs::Span::child_of(&format!("leg:{leg}"), parent)
                    .arg("index", &index.to_string());
                mess_obs::trace::push_thread_span(span.id());
                self.legs
                    .lock()
                    .expect("trace recorder poisoned")
                    .insert((scenario, index), span);
            }
            ProgressEvent::LegFinished {
                scenario, index, ..
            } => {
                let span = self
                    .legs
                    .lock()
                    .expect("trace recorder poisoned")
                    .remove(&(scenario, index));
                if let Some(span) = span {
                    mess_obs::trace::pop_thread_span(span.id());
                    span.finish();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn closures_and_no_progress_are_sinks() {
        let seen: Mutex<Vec<ProgressEvent>> = Mutex::new(Vec::new());
        let sink = |event: ProgressEvent| seen.lock().unwrap().push(event);
        let as_dyn: &dyn ProgressSink = &sink;
        as_dyn.emit(ProgressEvent::ScenarioStarted {
            scenario: "s".into(),
        });
        NoProgress.emit(ProgressEvent::ScenarioFinished {
            scenario: "s".into(),
            rows: 0,
            artifacts: 0,
        });
        let events = seen.into_inner().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].scenario(), "s");
    }

    #[test]
    fn events_have_one_canonical_json_shape() {
        let event = ProgressEvent::LegStarted {
            scenario: "mess-sim-skylake".into(),
            leg: "skylake".into(),
            index: 0,
            total: 3,
        };
        let json = serde_json::to_string(&event).unwrap();
        assert_eq!(
            json,
            "{\"LegStarted\":{\"scenario\":\"mess-sim-skylake\",\"leg\":\"skylake\",\"index\":0,\"total\":3}}"
        );
        let back: ProgressEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn narration_is_one_line_per_event() {
        let started = ProgressEvent::LegStarted {
            scenario: "fig2".into(),
            leg: "skylake".into(),
            index: 0,
            total: 4,
        };
        assert_eq!(started.to_string(), "scenario fig2: leg 1/4 skylake ...");
        let finished = ProgressEvent::ScenarioFinished {
            scenario: "fig2".into(),
            rows: 12,
            artifacts: 2,
        };
        assert_eq!(
            finished.to_string(),
            "scenario fig2: finished (12 rows, 2 artifacts)"
        );
        assert!(!format!("{started}").contains('\n'));
    }

    #[test]
    fn trace_progress_builds_the_span_hierarchy() {
        mess_obs::trace::start();
        let recorder = TraceProgress::new();
        recorder.emit(ProgressEvent::ScenarioStarted {
            scenario: "s".into(),
        });
        // Legs emit from worker threads; the scenario parent link must survive that.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                recorder.emit(ProgressEvent::LegStarted {
                    scenario: "s".into(),
                    leg: "skylake".into(),
                    index: 0,
                    total: 1,
                });
                // A phase span opened on the leg's thread nests under the leg.
                mess_obs::Span::start("characterize").finish();
                recorder.emit(ProgressEvent::LegFinished {
                    scenario: "s".into(),
                    leg: "skylake".into(),
                    index: 0,
                    total: 1,
                });
            });
        });
        recorder.emit(ProgressEvent::ScenarioFinished {
            scenario: "s".into(),
            rows: 1,
            artifacts: 0,
        });
        let records = mess_obs::trace::finish();
        let scenario = records.iter().find(|r| r.name == "scenario:s").unwrap();
        let leg = records.iter().find(|r| r.name == "leg:skylake").unwrap();
        let phase = records.iter().find(|r| r.name == "characterize").unwrap();
        assert_eq!(scenario.parent, 0);
        assert_eq!(leg.parent, scenario.id);
        assert_eq!(phase.parent, leg.id);
    }
}
