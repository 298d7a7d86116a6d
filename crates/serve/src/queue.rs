//! The daemon's run machinery: admission-limited worker pool, run registry, in-flight
//! coalescing, and the execution path that ties the scenario engine to the result cache.
//!
//! Every accepted submission becomes a [`Run`]: an identified record holding the
//! validated canonical spec, a growing event log (the source of the NDJSON streams), a
//! [`CancelToken`], and — once terminal — the reports and artifact bytes it produced.
//! Runs flow through a bounded worker pool (`admission` threads); everything beyond the
//! limit waits queued, in submission order.
//!
//! Cache interaction happens at both ends: a `cache=use` submission whose digest is
//! already stored never enters the queue (the run is born `done` with the cached bytes),
//! and a finished execution stores its result before reporting `done` — so a second
//! client asking for the same platform characterization gets byte-identical artifacts
//! without a re-run. Submissions for a digest already queued or running coalesce onto the
//! in-flight run instead of executing twice.
//!
//! Failure isolation is a hard requirement: a run that fails — bad curve file, engine
//! error, even a panic inside the engine — marks *that run* `failed` and the worker moves
//! on. Nothing poisons the queue or the daemon.

use crate::cache::ResultCache;
use crate::metrics::ServeMetrics;
use crate::protocol::{
    CacheMode, EventRecord, RunEvent, RunKind, RunStatus, SpanSummary, StatsBody, SubmitReceipt,
};
use mess_exec::{with_default_threads, CancelToken};
use mess_scenario::{
    CampaignSpec, CurveSet, ExperimentReport, ProgressEvent, ScenarioOptions, ScenarioSpec,
    SpecDigest,
};
use mess_types::MessError;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How a daemon is set up: where the cache lives and how much it may run at once.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Root of the content-addressed result cache (created if missing).
    pub cache_dir: PathBuf,
    /// Worker threads — runs admitted to execute concurrently; the rest queue.
    pub admission: usize,
    /// Default engine worker count per run (0 = inherit the process default); a
    /// submission's `?threads=` overrides it per run.
    pub default_threads: usize,
    /// Result-cache entry cap (oldest entries are evicted beyond it).
    pub max_cache_entries: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            cache_dir: PathBuf::from("target/messd-cache"),
            admission: 2,
            default_threads: 0,
            max_cache_entries: 64,
        }
    }
}

/// A run's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPhase {
    /// Accepted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished successfully (possibly straight from the cache).
    Done,
    /// Finished with an error (recorded on the run; the daemon is unaffected).
    Failed,
    /// Cancelled before execution.
    Cancelled,
}

impl RunPhase {
    /// The wire name of the phase.
    pub fn label(&self) -> &'static str {
        match self {
            RunPhase::Queued => "queued",
            RunPhase::Running => "running",
            RunPhase::Done => "done",
            RunPhase::Failed => "failed",
            RunPhase::Cancelled => "cancelled",
        }
    }

    /// `true` once the run can never change state again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            RunPhase::Done | RunPhase::Failed | RunPhase::Cancelled
        )
    }
}

/// The mutable half of a run, guarded by one mutex (its condvar signals both new events
/// and phase changes).
#[derive(Debug)]
struct RunInner {
    phase: RunPhase,
    cached: bool,
    refresh_identical: Option<bool>,
    error: Option<String>,
    reports: Vec<ExperimentReport>,
    /// `(file name, file bytes)` of every artifact, in production order — served directly
    /// from memory so `cache=bypass` runs have artifacts too.
    artifacts: Vec<(String, String)>,
    /// Serialized [`EventRecord`] lines, in emission order.
    events: Vec<String>,
    /// Scenario/leg intervals still open (name, start in the run's `elapsed_ms` clock).
    open_spans: Vec<(String, u64)>,
    /// Completed scenario/leg intervals, in completion order.
    spans: Vec<SpanSummary>,
}

/// One accepted submission and everything it produces.
#[derive(Debug)]
pub struct Run {
    /// The run handle (`run-<n>`).
    pub id: String,
    /// The spec's content digest (the cache key).
    pub digest: SpecDigest,
    /// Scenario or campaign.
    pub kind: RunKind,
    /// The canonical spec JSON (re-serialized from the validated submission).
    pub spec_json: String,
    /// Engine worker count for this run (0 = daemon default).
    pub threads: usize,
    /// The submission's cache mode.
    pub cache_mode: CacheMode,
    /// Cooperative cancellation handle (stops queued work; running legs complete).
    pub cancel: CancelToken,
    /// When the run record was created — the zero of its `elapsed_ms` event clock.
    started: Instant,
    inner: Mutex<RunInner>,
    cond: Condvar,
}

impl Run {
    fn new(
        id: String,
        digest: SpecDigest,
        kind: RunKind,
        spec_json: String,
        threads: usize,
        cache_mode: CacheMode,
    ) -> Arc<Run> {
        Arc::new(Run {
            id,
            digest,
            kind,
            spec_json,
            threads,
            cache_mode,
            cancel: CancelToken::new(),
            started: Instant::now(),
            inner: Mutex::new(RunInner {
                phase: RunPhase::Queued,
                cached: false,
                refresh_identical: None,
                error: None,
                reports: Vec::new(),
                artifacts: Vec::new(),
                events: Vec::new(),
                open_spans: Vec::new(),
                spans: Vec::new(),
            }),
            cond: Condvar::new(),
        })
    }

    /// Serializes `event` into the log with its `seq` and `elapsed_ms` stamps — the one
    /// place an [`EventRecord`] is built, so the timeline is monotone by construction:
    /// `Instant` never goes backwards and appends are serialized by the run's lock.
    fn record_event(&self, inner: &mut RunInner, event: RunEvent) {
        let elapsed_ms = self.started.elapsed().as_millis() as u64;
        if let RunEvent::Progress(progress) = &event {
            Run::update_spans(inner, progress, elapsed_ms);
        }
        let record = EventRecord {
            seq: inner.events.len(),
            elapsed_ms,
            event,
        };
        inner.events.push(
            serde_json::to_string(&record).expect("wire events contain no non-finite floats"),
        );
    }

    /// Folds a progress event into the run's span summaries: starts open an interval,
    /// finishes close the innermost one of the same name.
    fn update_spans(inner: &mut RunInner, event: &ProgressEvent, now_ms: u64) {
        match event {
            ProgressEvent::ScenarioStarted { scenario } => {
                inner.open_spans.push((scenario.clone(), now_ms));
            }
            ProgressEvent::LegStarted { scenario, leg, .. } => {
                inner.open_spans.push((format!("{scenario}/{leg}"), now_ms));
            }
            ProgressEvent::LegFinished { scenario, leg, .. } => {
                Run::close_span(inner, &format!("{scenario}/{leg}"), now_ms);
            }
            ProgressEvent::ScenarioFinished { scenario, .. } => {
                Run::close_span(inner, scenario, now_ms);
            }
        }
    }

    fn close_span(inner: &mut RunInner, name: &str, now_ms: u64) {
        if let Some(pos) = inner.open_spans.iter().rposition(|(n, _)| n == name) {
            let (name, start_ms) = inner.open_spans.remove(pos);
            inner.spans.push(SpanSummary {
                name,
                start_ms,
                end_ms: now_ms,
            });
        }
    }

    /// Appends `event` to the run's log and wakes every stream waiting on it.
    pub fn push_event(&self, event: RunEvent) {
        let mut inner = self.inner.lock().unwrap();
        self.record_event(&mut inner, event);
        self.cond.notify_all();
    }

    /// The run's current status snapshot.
    pub fn status(&self) -> RunStatus {
        let inner = self.inner.lock().unwrap();
        RunStatus {
            run: self.id.clone(),
            digest: self.digest.to_string(),
            kind: self.kind.label().to_string(),
            state: inner.phase.label().to_string(),
            cached: inner.cached,
            error: inner.error.clone(),
            reports: inner.reports.len(),
            artifacts: inner.artifacts.len(),
            refresh_identical: inner.refresh_identical,
            spans: inner.spans.clone(),
        }
    }

    /// The run's current phase.
    pub fn phase(&self) -> RunPhase {
        self.inner.lock().unwrap().phase
    }

    /// The concatenated CSV of every report the run produced (reports separated by one
    /// blank line), or `None` while the run is not `done`.
    pub fn report_csv(&self) -> Option<String> {
        let inner = self.inner.lock().unwrap();
        if inner.phase != RunPhase::Done {
            return None;
        }
        Some(
            inner
                .reports
                .iter()
                .map(ExperimentReport::to_csv)
                .collect::<Vec<_>>()
                .join("\n"),
        )
    }

    /// Artifact file names in production order (empty until the run is `done`).
    pub fn artifact_names(&self) -> Vec<String> {
        let inner = self.inner.lock().unwrap();
        inner
            .artifacts
            .iter()
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// The bytes of artifact `index`, if the run is `done` and has one.
    pub fn artifact_bytes(&self, index: usize) -> Option<String> {
        let inner = self.inner.lock().unwrap();
        inner.artifacts.get(index).map(|(_, bytes)| bytes.clone())
    }

    /// Returns the event lines after `from` (by sequence number), blocking until at least
    /// one is available, the run reaches a terminal phase, or `timeout` elapses. The
    /// `bool` reports whether the run is terminal — once it is and the backlog is
    /// drained, the stream is complete.
    pub fn events_after(&self, from: usize, timeout: Duration) -> (Vec<String>, bool) {
        let mut inner = self.inner.lock().unwrap();
        loop {
            let terminal = inner.phase.is_terminal();
            if inner.events.len() > from || terminal {
                let start = from.min(inner.events.len());
                return (inner.events[start..].to_vec(), terminal);
            }
            let (guard, wait) = self.cond.wait_timeout(inner, timeout).unwrap();
            inner = guard;
            if wait.timed_out() {
                return (Vec::new(), inner.phase.is_terminal());
            }
        }
    }

    /// Blocks until the run reaches a terminal phase and returns it.
    pub fn wait_terminal(&self) -> RunPhase {
        let mut inner = self.inner.lock().unwrap();
        while !inner.phase.is_terminal() {
            inner = self.cond.wait(inner).unwrap();
        }
        inner.phase
    }
}

/// A rejected submission: the HTTP status to answer with, plus the reason.
#[derive(Debug)]
pub struct SubmitError {
    /// 400 for malformed specs, 422 for specs that parse but fail validation.
    pub status: u16,
    /// Human-readable reason.
    pub message: String,
}

#[derive(Debug, Default)]
struct RunTable {
    runs: HashMap<String, Arc<Run>>,
    /// digest (hex) → id of the queued/running run executing it, for coalescing.
    inflight: HashMap<String, String>,
    next_id: u64,
}

/// The resident service: registry, queue, workers, cache and counters. Protocol-agnostic —
/// the HTTP layer in [`crate::server`] is a thin adapter over these methods.
#[derive(Debug)]
pub struct Daemon {
    /// The content-addressed result cache.
    pub cache: ResultCache,
    config: DaemonConfig,
    table: Mutex<RunTable>,
    queue: Mutex<VecDeque<Arc<Run>>>,
    queue_cond: Condvar,
    shutdown: AtomicBool,
    /// Every counter and gauge of the daemon; `/v1/stats` reads its counters from here.
    pub(crate) metrics: ServeMetrics,
}

impl Daemon {
    /// Opens the cache and builds the daemon state (workers are spawned separately with
    /// [`Daemon::spawn_workers`]).
    ///
    /// # Errors
    ///
    /// Fails when the cache directory cannot be created.
    pub fn new(config: DaemonConfig) -> io::Result<Arc<Daemon>> {
        // A resident service is always observable: its whole point is to be asked how
        // it is doing. Results stay byte-identical either way (pinned by tests).
        mess_obs::set_enabled(true);
        let cache = ResultCache::open(&config.cache_dir, config.max_cache_entries)?;
        Ok(Arc::new(Daemon {
            cache,
            config,
            table: Mutex::new(RunTable::default()),
            queue: Mutex::new(VecDeque::new()),
            queue_cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics: ServeMetrics::new(),
        }))
    }

    /// Spawns the admission-limited worker pool. Call once.
    pub fn spawn_workers(self: &Arc<Daemon>) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.config.admission.max(1))
            .map(|i| {
                let daemon = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("messd-worker-{i}"))
                    .spawn(move || daemon.worker_loop())
                    .expect("spawning a worker thread")
            })
            .collect()
    }

    /// Stops the worker pool: queued runs stay queued (and can still be inspected), no
    /// new work starts.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cond.notify_all();
    }

    /// Looks up a run by id.
    pub fn run(&self, id: &str) -> Option<Arc<Run>> {
        self.table.lock().unwrap().runs.get(id).cloned()
    }

    /// The daemon's lifetime counters and current gauges.
    pub fn stats(&self) -> StatsBody {
        let (mut queued, mut running) = (0u64, 0u64);
        {
            let table = self.table.lock().unwrap();
            for run in table.runs.values() {
                match run.phase() {
                    RunPhase::Queued => queued += 1,
                    RunPhase::Running => running += 1,
                    _ => {}
                }
            }
        }
        StatsBody {
            runs_executed: self.metrics.runs_executed.get(),
            cache_hits: self.metrics.cache_hits.get(),
            cache_misses: self.metrics.cache_misses.get(),
            deduplicated: self.metrics.deduplicated.get(),
            evicted: self.cache.evicted(),
            cache_entries: self.cache.entries(),
            active_runs: queued + running,
            queued_runs: queued,
            running_runs: running,
        }
    }

    /// Validates and admits one submission: parse → validate → digest → cache lookup /
    /// coalesce / enqueue. Never blocks on execution.
    ///
    /// # Errors
    ///
    /// `400` for bodies that don't parse as the declared spec kind, `422` for specs that
    /// parse but fail `validate()`.
    pub fn submit(
        self: &Arc<Daemon>,
        kind: RunKind,
        body: &str,
        threads: usize,
        cache_mode: CacheMode,
    ) -> Result<SubmitReceipt, SubmitError> {
        let (canonical, digest) = match kind {
            RunKind::Scenario => {
                let spec = ScenarioSpec::from_json(body).map_err(|e| SubmitError {
                    status: 400,
                    message: format!("invalid scenario spec: {e}"),
                })?;
                spec.validate().map_err(|e| SubmitError {
                    status: 422,
                    message: format!("scenario failed validation: {e}"),
                })?;
                (spec.to_json(), spec.spec_digest())
            }
            RunKind::Campaign => {
                let campaign = CampaignSpec::from_json(body).map_err(|e| SubmitError {
                    status: 400,
                    message: format!("invalid campaign spec: {e}"),
                })?;
                campaign.validate().map_err(|e| SubmitError {
                    status: 422,
                    message: format!("campaign failed validation: {e}"),
                })?;
                (campaign.to_json(), campaign.spec_digest())
            }
        };

        // Submit-time cache hit: the run is born `done`, serving the stored bytes.
        if cache_mode == CacheMode::Use {
            if let Some(hit) = self.try_cache_hit(kind, &canonical, &digest) {
                return Ok(hit);
            }
        }

        let mut table = self.table.lock().unwrap();
        // Coalesce onto an identical in-flight run instead of executing the same spec
        // twice (only for `use` submissions: `refresh`/`bypass` explicitly ask to run).
        if cache_mode == CacheMode::Use {
            if let Some(existing_id) = table.inflight.get(&digest.to_string()).cloned() {
                if let Some(existing) = table.runs.get(&existing_id) {
                    let phase = existing.phase();
                    if !phase.is_terminal() {
                        self.metrics.deduplicated.inc();
                        return Ok(SubmitReceipt {
                            run: existing_id,
                            digest: digest.to_string(),
                            cached: false,
                            deduplicated: true,
                            state: phase.label().to_string(),
                        });
                    }
                }
            }
        }

        table.next_id += 1;
        let id = format!("run-{}", table.next_id);
        let run = Run::new(id.clone(), digest, kind, canonical, threads, cache_mode);
        run.push_event(RunEvent::Accepted {
            run: id.clone(),
            digest: digest.to_string(),
            cached: false,
        });
        table.runs.insert(id.clone(), Arc::clone(&run));
        table.inflight.insert(digest.to_string(), id.clone());
        drop(table);

        if cache_mode == CacheMode::Use {
            self.metrics.cache_misses.inc();
        }
        self.queue.lock().unwrap().push_back(run);
        self.metrics.queue_depth.inc();
        self.queue_cond.notify_one();
        Ok(SubmitReceipt {
            run: id,
            digest: digest.to_string(),
            cached: false,
            deduplicated: false,
            state: RunPhase::Queued.label().to_string(),
        })
    }

    /// Materializes a cache hit as an already-`done` run. Returns `None` (a miss) when
    /// the entry or any of its artifacts cannot be read back.
    fn try_cache_hit(
        self: &Arc<Daemon>,
        kind: RunKind,
        canonical: &str,
        digest: &SpecDigest,
    ) -> Option<SubmitReceipt> {
        let meta = self.cache.lookup(digest)?;
        let artifacts: Vec<(String, String)> = meta
            .artifacts
            .iter()
            .map(|name| {
                fs::read_to_string(self.cache.artifact_path(digest, name))
                    .ok()
                    .map(|bytes| (name.clone(), bytes))
            })
            .collect::<Option<_>>()?;

        let mut table = self.table.lock().unwrap();
        table.next_id += 1;
        let id = format!("run-{}", table.next_id);
        let run = Run::new(
            id.clone(),
            *digest,
            kind,
            canonical.to_string(),
            0,
            CacheMode::Use,
        );
        {
            let mut inner = run.inner.lock().unwrap();
            inner.phase = RunPhase::Done;
            inner.cached = true;
            inner.reports = meta.reports.clone();
            inner.artifacts = artifacts;
            run.record_event(
                &mut inner,
                RunEvent::Accepted {
                    run: id.clone(),
                    digest: digest.to_string(),
                    cached: true,
                },
            );
            run.record_event(
                &mut inner,
                RunEvent::Done {
                    state: RunPhase::Done.label().to_string(),
                    cached: true,
                    refresh_identical: None,
                },
            );
        }
        table.runs.insert(id.clone(), Arc::clone(&run));
        drop(table);
        self.metrics.cache_hits.inc();
        Some(SubmitReceipt {
            run: id,
            digest: digest.to_string(),
            cached: true,
            deduplicated: false,
            state: RunPhase::Done.label().to_string(),
        })
    }

    /// Requests cancellation of a run. Queued runs leave the queue, become `cancelled`
    /// immediately and never execute; a running run's token stops any not-yet-dispatched
    /// legs, but in-flight legs complete (the run then finishes normally — partial
    /// results are never published). Returns the post-cancel status, or `None` for
    /// unknown ids.
    pub fn cancel_run(&self, id: &str) -> Option<RunStatus> {
        let run = self.run(id)?;
        run.cancel.cancel();
        {
            let mut queue = self.queue.lock().unwrap();
            if let Some(pos) = queue.iter().position(|queued| Arc::ptr_eq(queued, &run)) {
                queue.remove(pos);
                self.metrics.queue_depth.dec();
            }
        }
        {
            let mut inner = run.inner.lock().unwrap();
            if inner.phase == RunPhase::Queued {
                inner.phase = RunPhase::Cancelled;
                run.record_event(
                    &mut inner,
                    RunEvent::Done {
                        state: RunPhase::Cancelled.label().to_string(),
                        cached: false,
                        refresh_identical: None,
                    },
                );
                run.cond.notify_all();
            }
        }
        self.clear_inflight(&run);
        Some(run.status())
    }

    fn clear_inflight(&self, run: &Run) {
        let mut table = self.table.lock().unwrap();
        let key = run.digest.to_string();
        if table.inflight.get(&key) == Some(&run.id) {
            table.inflight.remove(&key);
        }
    }

    fn worker_loop(self: Arc<Daemon>) {
        loop {
            let run = {
                let mut queue = self.queue.lock().unwrap();
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(run) = queue.pop_front() {
                        self.metrics.queue_depth.dec();
                        break run;
                    }
                    queue = self.queue_cond.wait(queue).unwrap();
                }
            };
            self.execute(&run);
        }
    }

    /// Runs one queued submission to a terminal state. Never panics outward.
    fn execute(self: &Arc<Daemon>, run: &Arc<Run>) {
        {
            let mut inner = run.inner.lock().unwrap();
            if inner.phase != RunPhase::Queued {
                return; // cancelled between the pop and here
            }
            inner.phase = RunPhase::Running;
            run.cond.notify_all();
        }
        self.metrics.running_runs.inc();

        let result = catch_unwind(AssertUnwindSafe(|| self.run_engine(run)));
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(payload) => {
                self.metrics.runs_panicked.inc();
                Err(panic_error(payload))
            }
        };

        match outcome {
            Ok((reports, curve_sets)) => {
                self.metrics.runs_executed.inc();
                match self.publish(run, &reports, &curve_sets) {
                    Ok((artifacts, refresh_identical)) => {
                        let mut inner = run.inner.lock().unwrap();
                        inner.phase = RunPhase::Done;
                        inner.reports = reports;
                        inner.artifacts = artifacts;
                        inner.refresh_identical = refresh_identical;
                        run.record_event(
                            &mut inner,
                            RunEvent::Done {
                                state: RunPhase::Done.label().to_string(),
                                cached: false,
                                refresh_identical,
                            },
                        );
                        run.cond.notify_all();
                    }
                    Err(e) => self.fail(run, &format!("storing results: {e}"), RunPhase::Failed),
                }
            }
            Err(MessError::Cancelled) => self.fail(run, "", RunPhase::Cancelled),
            Err(e) => self.fail(run, &e.to_string(), RunPhase::Failed),
        }
        self.metrics.running_runs.dec();
        self.clear_inflight(run);
    }

    fn fail(&self, run: &Run, message: &str, phase: RunPhase) {
        let mut inner = run.inner.lock().unwrap();
        inner.phase = phase;
        if !message.is_empty() {
            inner.error = Some(message.to_string());
        }
        run.record_event(
            &mut inner,
            RunEvent::Done {
                state: phase.label().to_string(),
                cached: false,
                refresh_identical: None,
            },
        );
        run.cond.notify_all();
    }

    /// Executes the run's spec through the engine, forwarding progress into the run's
    /// event log and honouring the run's thread override.
    fn run_engine(
        self: &Arc<Daemon>,
        run: &Arc<Run>,
    ) -> Result<(Vec<ExperimentReport>, Vec<CurveSet>), MessError> {
        let options = ScenarioOptions {
            curves: None,
            cancel: Some(run.cancel.clone()),
        };
        let sink_run = Arc::clone(run);
        let sink = move |event: ProgressEvent| sink_run.push_event(event.into());
        let threads = if run.threads > 0 {
            run.threads
        } else {
            self.config.default_threads
        };
        let call = || match run.kind {
            RunKind::Scenario => {
                let spec = ScenarioSpec::from_json(&run.spec_json)
                    .expect("the canonical spec was validated at submission");
                mess_scenario::run_scenario_observed(&spec, &options, &sink)
                    .map(|outcome| (vec![outcome.report], outcome.curve_sets))
            }
            RunKind::Campaign => {
                let campaign = CampaignSpec::from_json(&run.spec_json)
                    .expect("the canonical spec was validated at submission");
                mess_scenario::run_campaign_observed(&campaign, &options, &sink).map(|outcomes| {
                    let mut reports = Vec::with_capacity(outcomes.len());
                    let mut sets = Vec::new();
                    for outcome in outcomes {
                        reports.push(outcome.report);
                        sets.extend(outcome.curve_sets);
                    }
                    (reports, sets)
                })
            }
        };
        if threads > 0 {
            with_default_threads(threads, call)
        } else {
            call()
        }
    }

    /// Persists a finished execution according to its cache mode and returns the
    /// in-memory artifact bytes to serve (plus, for `refresh`, whether the re-run
    /// reproduced the previously stored result byte-for-byte).
    #[allow(clippy::type_complexity)]
    fn publish(
        &self,
        run: &Run,
        reports: &[ExperimentReport],
        curve_sets: &[CurveSet],
    ) -> io::Result<(Vec<(String, String)>, Option<bool>)> {
        match run.cache_mode {
            CacheMode::Bypass => {
                // Same namer as the cache/CLI path, but into scratch space that is
                // removed once the bytes are in memory.
                let scratch = self.cache.root().join(format!(".scratch-{}", run.id));
                let _ = fs::remove_dir_all(&scratch);
                let written = mess_scenario::write_curve_sets(&scratch, curve_sets)?;
                let artifacts = written
                    .iter()
                    .map(|path| {
                        Ok((
                            path.file_name().unwrap().to_string_lossy().into_owned(),
                            fs::read_to_string(path)?,
                        ))
                    })
                    .collect::<io::Result<Vec<_>>>();
                let _ = fs::remove_dir_all(&scratch);
                Ok((artifacts?, None))
            }
            CacheMode::Use | CacheMode::Refresh => {
                let refresh = run.cache_mode == CacheMode::Refresh;
                let previous = if refresh {
                    self.cache.lookup(&run.digest).map(|meta| {
                        let bytes: Option<Vec<String>> = meta
                            .artifacts
                            .iter()
                            .map(|name| {
                                fs::read_to_string(self.cache.artifact_path(&run.digest, name)).ok()
                            })
                            .collect();
                        (meta, bytes)
                    })
                } else {
                    None
                };
                let meta = self.cache.store(
                    &run.digest,
                    run.kind,
                    &run.spec_json,
                    reports,
                    curve_sets,
                    refresh,
                )?;
                if refresh {
                    self.metrics.cache_refresh.inc();
                }
                let artifacts = meta
                    .artifacts
                    .iter()
                    .map(|name| {
                        Ok((
                            name.clone(),
                            fs::read_to_string(self.cache.artifact_path(&run.digest, name))?,
                        ))
                    })
                    .collect::<io::Result<Vec<(String, String)>>>()?;
                let refresh_identical = previous.map(|(old_meta, old_bytes)| {
                    old_meta.reports == reports
                        && old_meta.artifacts == meta.artifacts
                        && old_bytes.is_some_and(|old| {
                            old.iter()
                                .zip(artifacts.iter())
                                .all(|(old, (_, new))| old == new)
                        })
                });
                Ok((artifacts, refresh_identical))
            }
        }
    }
}

/// The error a panicking run reports: [`MessError::Panicked`] with the panic message when
/// the payload is a string (what `panic!` produces), a placeholder otherwise.
fn panic_error(payload: Box<dyn Any + Send>) -> MessError {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    MessError::Panicked(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mess_platforms::{MemoryModelKind, ModelSpec, PlatformId, PlatformRef};
    use mess_scenario::ScenarioKind;
    use mess_workloads::spec::WorkloadSpec;

    fn tiny_spec(id: &str) -> String {
        ScenarioSpec {
            id: id.into(),
            title: "tiny".into(),
            platform: PlatformRef::quick(PlatformId::IntelSkylake),
            kind: ScenarioKind::Run {
                workload: WorkloadSpec::gups(2_000),
                model: ModelSpec::of(MemoryModelKind::FixedLatency),
                max_cycles: 200_000,
            },
            notes: vec![],
        }
        .to_json()
    }

    fn test_daemon(tag: &str) -> (Arc<Daemon>, Vec<std::thread::JoinHandle<()>>, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("mess-serve-queue-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let daemon = Daemon::new(DaemonConfig {
            cache_dir: dir.clone(),
            admission: 2,
            default_threads: 0,
            max_cache_entries: 16,
        })
        .unwrap();
        let workers = daemon.spawn_workers();
        (daemon, workers, dir)
    }

    #[test]
    fn panic_payloads_become_panicked_errors() {
        assert_eq!(
            panic_error(Box::new("index out of bounds")),
            MessError::Panicked("index out of bounds".into())
        );
        assert_eq!(
            panic_error(Box::new(format!("bad row {}", 7))),
            MessError::Panicked("bad row 7".into())
        );
        assert_eq!(
            panic_error(Box::new(42u32)),
            MessError::Panicked("non-string panic payload".into())
        );
    }

    #[test]
    fn rejects_garbage_and_invalid_specs_without_queueing() {
        let (daemon, _workers, dir) = test_daemon("reject");
        let garbage = daemon
            .submit(RunKind::Scenario, "{ not json", 0, CacheMode::Use)
            .unwrap_err();
        assert_eq!(garbage.status, 400);
        // Parses but fails validate(): the id is used as a file name.
        let invalid = tiny_spec("bad/id");
        let err = daemon
            .submit(RunKind::Scenario, &invalid, 0, CacheMode::Use)
            .unwrap_err();
        assert_eq!(err.status, 422);
        assert!(err.message.contains("path separators"), "{}", err.message);
        assert_eq!(daemon.stats().active_runs, 0);
        daemon.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn executes_then_serves_the_second_submission_from_the_cache() {
        let (daemon, _workers, dir) = test_daemon("cache");
        let spec = tiny_spec("tiny-cache");
        let first = daemon
            .submit(RunKind::Scenario, &spec, 0, CacheMode::Use)
            .unwrap();
        assert!(!first.cached);
        let run = daemon.run(&first.run).unwrap();
        assert_eq!(run.wait_terminal(), RunPhase::Done);
        assert_eq!(daemon.stats().runs_executed, 1);

        let second = daemon
            .submit(RunKind::Scenario, &spec, 0, CacheMode::Use)
            .unwrap();
        assert!(second.cached, "identical spec must be a cache hit");
        assert_eq!(second.state, "done");
        assert_ne!(second.run, first.run, "hits still get their own run handle");
        let stats = daemon.stats();
        assert_eq!(stats.runs_executed, 1, "a hit must not re-run");
        assert_eq!(stats.cache_hits, 1);
        // Both runs expose identical reports through the status/report surface.
        let hit = daemon.run(&second.run).unwrap();
        assert_eq!(hit.report_csv(), run.report_csv());
        daemon.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_runs_record_their_error_and_leave_the_daemon_healthy() {
        let (daemon, _workers, dir) = test_daemon("fail");
        // Parses and validates, but the curve file does not exist: the run fails at
        // execution time.
        let spec = ScenarioSpec {
            id: "doomed".into(),
            title: "doomed".into(),
            platform: PlatformRef::quick(PlatformId::IntelSkylake),
            kind: ScenarioKind::MessCurves {
                platforms: vec![PlatformRef::quick(PlatformId::IntelSkylake)],
                curves: mess_scenario::CurveSourceSpec::File {
                    path: "/nonexistent/curves.json".into(),
                },
                sweep: mess_scenario::SweepSpec::preset(mess_scenario::SweepPreset::Reduced),
            },
            notes: vec![],
        }
        .to_json();
        let receipt = daemon
            .submit(RunKind::Scenario, &spec, 0, CacheMode::Use)
            .unwrap();
        let run = daemon.run(&receipt.run).unwrap();
        assert_eq!(run.wait_terminal(), RunPhase::Failed);
        let status = run.status();
        assert!(status.error.is_some());
        assert!(run.report_csv().is_none());

        // The failure poisoned nothing: the next run executes normally.
        let ok = daemon
            .submit(
                RunKind::Scenario,
                &tiny_spec("after-failure"),
                0,
                CacheMode::Use,
            )
            .unwrap();
        assert_eq!(daemon.run(&ok.run).unwrap().wait_terminal(), RunPhase::Done);
        daemon.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }
}
