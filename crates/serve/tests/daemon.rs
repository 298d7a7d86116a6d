//! End-to-end tests of the resident service over a real loopback socket: submit →
//! progress events → report/artifacts, the content-addressed cache hit, coalescing of
//! concurrent identical submissions, malformed-request handling, queued-run cancellation,
//! and thread-count bit-identity through the service path.

use mess_platforms::{MemoryModelKind, ModelSpec, PlatformId, PlatformRef};
use mess_scenario::{ProgressEvent, ScenarioKind, ScenarioSpec, SweepPreset, SweepSpec};
use mess_serve::{CacheMode, DaemonConfig, RunEvent, RunKind, ServeClient, Server};
use mess_workloads::spec::WorkloadSpec;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

fn start_server(tag: &str, admission: usize) -> (Server, ServeClient, PathBuf) {
    let cache_dir =
        std::env::temp_dir().join(format!("mess-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let server = Server::start(
        "127.0.0.1:0",
        DaemonConfig {
            cache_dir: cache_dir.clone(),
            admission,
            default_threads: 0,
            max_cache_entries: 16,
        },
    )
    .expect("bind an ephemeral loopback port");
    let client = ServeClient::new(server.addr().to_string());
    (server, client, cache_dir)
}

/// The value of the unlabelled series `name` in a Prometheus text page.
fn sample(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .unwrap_or_else(|| panic!("metric `{name}` missing from:\n{metrics}"))
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap()
}

fn characterize_spec_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../harness/scenarios/characterize-skylake.json");
    std::fs::read_to_string(path).expect("the checked-in characterize scenario exists")
}

/// A cheap scenario that produces one curve artifact (an M/D/1 characterization).
fn md1_characterization(id: &str) -> String {
    ScenarioSpec {
        id: id.into(),
        title: "characterize the M/D/1 backend".into(),
        platform: PlatformRef::quick(PlatformId::IntelSkylake),
        kind: ScenarioKind::CurveFamily {
            model: ModelSpec::of(MemoryModelKind::Md1Queue),
            sweep: SweepSpec::preset(SweepPreset::Reduced),
            stream_llc_multiple: None,
            paper_reference: false,
        },
        notes: vec![],
    }
    .to_json()
}

/// A scenario sized to keep a worker busy long enough to observe queueing (hundreds of
/// milliseconds), without producing artifacts.
fn slow_spec(id: &str) -> String {
    ScenarioSpec {
        id: id.into(),
        title: "slow blocker".into(),
        platform: PlatformRef::quick(PlatformId::IntelSkylake),
        kind: ScenarioKind::Run {
            workload: WorkloadSpec::gups(400_000),
            model: ModelSpec::of(MemoryModelKind::FixedLatency),
            max_cycles: 100_000_000,
        },
        notes: vec![],
    }
    .to_json()
}

#[test]
fn submit_stream_fetch_and_cache_hit_round_trip() {
    let (server, client, cache_dir) = start_server("roundtrip", 2);
    client.healthz().expect("daemon answers health checks");
    let spec = characterize_spec_json();

    // First submission: accepted, queued, executed.
    let first = client
        .submit(RunKind::Scenario, &spec, 0, CacheMode::Use)
        .expect("valid spec is accepted");
    assert!(!first.cached);
    assert!(!first.deduplicated);
    assert_eq!(first.state, "queued");
    assert_eq!(first.digest.len(), 32, "digest is 32 hex chars");

    // The event stream narrates the whole run: Accepted first, at least one progress
    // event from the engine, Done last.
    let mut events = Vec::new();
    client
        .stream_events(&first.run, 0, |record| events.push(record))
        .expect("event stream completes");
    assert!(events.len() >= 3, "expected >= 3 events, got {events:?}");
    assert!(
        events.iter().enumerate().all(|(i, r)| r.seq == i),
        "seqs are dense"
    );
    // The per-run timeline is monotone alongside seq — one wall-clock-free clock,
    // anchored at the run record's creation.
    assert!(
        events
            .windows(2)
            .all(|pair| pair[0].elapsed_ms <= pair[1].elapsed_ms),
        "elapsed_ms must be non-decreasing with seq: {events:?}"
    );
    assert!(matches!(
        events[0].event,
        RunEvent::Accepted { cached: false, .. }
    ));
    assert!(
        events.iter().any(|r| matches!(
            r.event,
            RunEvent::Progress(ProgressEvent::LegStarted { .. })
        )),
        "at least one progress event while running: {events:?}"
    );
    assert!(matches!(
        events.last().unwrap().event,
        RunEvent::Done { .. }
    ));

    // Resuming the stream from an offset replays only the tail.
    let mut tail = Vec::new();
    client
        .stream_events(&first.run, events.len() - 1, |record| tail.push(record))
        .unwrap();
    assert_eq!(tail.len(), 1);

    let status = client.status(&first.run).expect("status after completion");
    assert_eq!(status.state, "done");
    assert_eq!(status.reports, 1);
    assert_eq!(status.artifacts, 1);

    // The run distilled its event log into span summaries: one per leg
    // (`scenario/leg`), one for the whole scenario, each a closed interval on the
    // run's elapsed_ms clock.
    assert!(
        status
            .spans
            .iter()
            .any(|s| s.name == "characterize-skylake"),
        "scenario span present: {:?}",
        status.spans
    );
    assert!(
        status.spans.iter().any(|s| s.name.contains('/')),
        "leg span present: {:?}",
        status.spans
    );
    assert!(
        status.spans.iter().all(|s| s.start_ms <= s.end_ms),
        "spans are well-formed intervals: {:?}",
        status.spans
    );

    let csv = client.report_csv(&first.run).expect("report is served");
    assert!(csv.lines().count() >= 2, "header plus rows: {csv}");
    let listing = client.artifacts(&first.run).unwrap();
    assert_eq!(
        listing.artifacts,
        vec!["characterize-skylake-skylake-detailed-dram.json".to_string()],
        "artifact naming matches the CLI/CI scheme"
    );
    let artifact_first = client.artifact(&first.run, 0).unwrap();
    assert!(artifact_first.contains("\"provenance\""));

    let stats = client.stats().unwrap();
    assert_eq!(stats.runs_executed, 1);
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_entries, 1);

    // Second submission of the identical spec: a cache hit — no re-run, the run is born
    // done, and the artifact bytes are identical to the first run's.
    let second = client
        .submit(RunKind::Scenario, &spec, 0, CacheMode::Use)
        .expect("resubmission is accepted");
    assert!(second.cached, "second submission must hit the cache");
    assert_eq!(second.state, "done");
    assert_eq!(second.digest, first.digest);
    assert_ne!(second.run, first.run);

    let stats = client.stats().unwrap();
    assert_eq!(stats.runs_executed, 1, "the hit must not execute anything");
    assert_eq!(stats.cache_hits, 1);

    let artifact_second = client.artifact(&second.run, 0).unwrap();
    assert_eq!(
        artifact_second, artifact_first,
        "cached artifact bytes are identical"
    );
    assert_eq!(
        client.report_csv(&second.run).unwrap(),
        csv,
        "cached report is identical"
    );

    // The hit's event stream is the two-record cached epilogue.
    let mut hit_events = Vec::new();
    client
        .stream_events(&second.run, 0, |r| hit_events.push(r))
        .unwrap();
    assert_eq!(hit_events.len(), 2);
    assert!(matches!(
        hit_events[0].event,
        RunEvent::Accepted { cached: true, .. }
    ));
    assert!(matches!(
        hit_events[1].event,
        RunEvent::Done { cached: true, .. }
    ));

    // The cache is addressable directly by digest too.
    let entry = client.cache_entry(&first.digest).unwrap();
    assert_eq!(entry.artifacts, listing.artifacts);
    assert_eq!(
        client.cache_artifact(&first.digest, 0).unwrap(),
        artifact_first
    );

    // `/v1/metrics` speaks Prometheus text and covers the service families. Each daemon
    // counts in a registry of its own, so its `mess_serve_*` values are exact even though
    // other tests in this binary run daemons at the same time.
    let metrics = client.metrics_text().expect("metrics endpoint answers");
    let sample = |name: &str| sample(&metrics, name);
    assert!(metrics.contains("# TYPE mess_serve_cache_hits_total counter"));
    assert_eq!(sample("mess_serve_cache_hits_total"), 1.0);
    assert_eq!(sample("mess_serve_cache_misses_total"), 1.0);
    assert_eq!(sample("mess_serve_runs_executed_total"), 1.0);
    assert!(
        sample("mess_serve_request_latency_seconds_count") >= 1.0,
        "every request lands in the latency histogram"
    );
    assert_eq!(sample("mess_serve_queue_depth"), 0.0);
    assert_eq!(sample("mess_serve_running_runs"), 0.0);
    // The daemon's families follow the process-wide ones: one sorted page, each family
    // once.
    let families: Vec<&str> = metrics
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|l| l.split(' ').next().unwrap())
        .collect();
    assert!(
        families.windows(2).all(|pair| pair[0] < pair[1]),
        "families out of order: {families:?}"
    );
    // The instrumented layers below the service report through the same registry,
    // labeled per backend.
    assert!(
        metrics
            .lines()
            .any(|l| l.starts_with("mess_engine_runs_total{backend=")),
        "engine metrics flow through the shared registry:\n{metrics}"
    );
    assert!(sample("mess_scenario_runs_total") >= 1.0);

    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn stats_expose_live_gauges_while_a_run_executes() {
    let (server, client, cache_dir) = start_server("gauges", 1);

    // One worker: the slow blocker runs, the characterization queues behind it.
    let blocker = client
        .submit(
            RunKind::Scenario,
            &slow_spec("gauge-blocker"),
            0,
            CacheMode::Use,
        )
        .unwrap();
    let queued = client
        .submit(
            RunKind::Scenario,
            &md1_characterization("gauge-queued"),
            0,
            CacheMode::Use,
        )
        .unwrap();
    assert_eq!(queued.state, "queued");

    // Poll until the blocker is actually on the worker (the submit itself races the
    // pickup), then observe both gauges mid-run.
    let mut observed = None;
    for _ in 0..200 {
        let stats = client.stats().unwrap();
        if stats.running_runs == 1 && stats.queued_runs == 1 {
            observed = Some(stats);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let stats = observed.expect("saw one running and one queued run mid-flight");
    assert_eq!(stats.active_runs, 2, "active = queued + running");
    assert_eq!(stats.cache_entries, 0, "nothing published yet");

    client.wait(&blocker.run).unwrap();
    client.wait(&queued.run).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.running_runs, 0);
    assert_eq!(stats.queued_runs, 0);
    assert_eq!(stats.active_runs, 0);
    assert_eq!(stats.runs_executed, 2);

    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn malformed_requests_get_structured_errors_and_the_daemon_survives() {
    let (server, client, cache_dir) = start_server("malformed", 1);
    let addr = server.addr();

    // Truncated body: Content-Length promises more bytes than the client sends.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST /v1/scenarios HTTP/1.1\r\nHost: x\r\nContent-Length: 500\r\n\r\n{{\"id\""
    )
    .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("truncated"), "{response}");

    // Declared body over the size cap: rejected before any body bytes are read.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST /v1/scenarios HTTP/1.1\r\nHost: x\r\nContent-Length: 100000000\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 413"), "{response}");

    // Valid JSON, unknown ScenarioKind variant: the strict loader names the problem.
    let unknown_kind = characterize_spec_json().replace("\"CurveFamily\"", "\"Frobnicate\"");
    let err = client
        .submit(RunKind::Scenario, &unknown_kind, 0, CacheMode::Use)
        .unwrap_err();
    let mess_serve::ClientError::Api { status, message } = err else {
        panic!("expected an API error")
    };
    assert_eq!(status, 400);
    assert!(message.contains("Frobnicate"), "{message}");

    // Not JSON at all.
    let err = client
        .submit(RunKind::Scenario, "{ not json", 0, CacheMode::Use)
        .unwrap_err();
    assert!(matches!(
        err,
        mess_serve::ClientError::Api { status: 400, .. }
    ));

    // Parses, but fails validate(): 422, and the message explains why.
    let err = client
        .submit(
            RunKind::Scenario,
            &md1_characterization("bad/id"),
            0,
            CacheMode::Use,
        )
        .unwrap_err();
    let mess_serve::ClientError::Api { status, message } = err else {
        panic!("expected an API error")
    };
    assert_eq!(status, 422);
    assert!(message.contains("path separators"), "{message}");

    // Bad query parameters are rejected up front.
    let response = client
        .request("POST", "/v1/scenarios?cache=sometimes", Some("{}"))
        .unwrap();
    assert_eq!(response.status, 400);
    let response = client
        .request("POST", "/v1/scenarios?threads=lots", Some("{}"))
        .unwrap();
    assert_eq!(response.status, 400);

    // Unknown endpoints and wrong methods are structured errors too.
    let response = client.request("GET", "/v1/nope", None).unwrap();
    assert_eq!(response.status, 404);
    let response = client.request("PUT", "/v1/scenarios", Some("{}")).unwrap();
    assert_eq!(response.status, 405);
    let response = client.request("GET", "/v1/runs/run-999", None).unwrap();
    assert_eq!(response.status, 404);
    let response = client
        .request("GET", "/v1/cache/not-a-digest", None)
        .unwrap();
    assert_eq!(response.status, 400);

    // None of the garbage harmed the daemon or its queue: a real run still works.
    let receipt = client
        .submit(
            RunKind::Scenario,
            &slow_spec("after-garbage"),
            0,
            CacheMode::Use,
        )
        .expect("daemon still accepts work");
    let status = client.wait(&receipt.run).unwrap();
    assert_eq!(status.state, "done");
    let stats = client.stats().unwrap();
    assert_eq!(stats.runs_executed, 1, "only the real run executed");

    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn concurrent_identical_submissions_coalesce_onto_one_run() {
    let (server, client, cache_dir) = start_server("coalesce", 1);

    // Occupy the single worker so later submissions demonstrably queue.
    let blocker = client
        .submit(RunKind::Scenario, &slow_spec("blocker"), 0, CacheMode::Use)
        .unwrap();

    // Two clients ask for the same characterization while nothing of it has run yet: the
    // second coalesces onto the first's run instead of executing twice.
    let spec = md1_characterization("coalesced");
    let first = client
        .submit(RunKind::Scenario, &spec, 0, CacheMode::Use)
        .unwrap();
    assert_eq!(first.state, "queued");
    let second = client
        .submit(RunKind::Scenario, &spec, 0, CacheMode::Use)
        .unwrap();
    assert!(
        second.deduplicated,
        "identical in-flight spec must coalesce"
    );
    assert_eq!(second.run, first.run, "same run handle");
    assert!(!second.cached);

    let done = client.wait(&first.run).unwrap();
    assert_eq!(done.state, "done");
    client.wait(&blocker.run).unwrap();

    let stats = client.stats().unwrap();
    assert_eq!(stats.deduplicated, 1);
    assert_eq!(stats.runs_executed, 2, "blocker + one coalesced run");

    // Once finished the result is cached, so the same spec now hits.
    let third = client
        .submit(RunKind::Scenario, &spec, 0, CacheMode::Use)
        .unwrap();
    assert!(third.cached);

    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn queued_runs_cancel_cleanly_without_executing() {
    let (server, client, cache_dir) = start_server("cancel", 1);

    let blocker = client
        .submit(
            RunKind::Scenario,
            &slow_spec("cancel-blocker"),
            0,
            CacheMode::Use,
        )
        .unwrap();
    let queued = client
        .submit(
            RunKind::Scenario,
            &md1_characterization("to-cancel"),
            0,
            CacheMode::Use,
        )
        .unwrap();
    assert_eq!(queued.state, "queued");

    let cancelled = client
        .cancel(&queued.run)
        .expect("cancellation is acknowledged");
    assert_eq!(cancelled.state, "cancelled");
    // The cancelled run left the queue at once: the gauge drops while the blocker still
    // runs, in agreement with `/v1/stats`.
    let metrics = client.metrics_text().unwrap();
    assert_eq!(
        sample(&metrics, "mess_serve_running_runs"),
        1.0,
        "{metrics}"
    );
    assert_eq!(sample(&metrics, "mess_serve_queue_depth"), 0.0, "{metrics}");
    assert_eq!(client.stats().unwrap().queued_runs, 0);

    // The cancelled run's stream terminates with a cancelled Done event...
    let mut events = Vec::new();
    client
        .stream_events(&queued.run, 0, |r| events.push(r))
        .unwrap();
    assert!(matches!(
        &events.last().unwrap().event,
        RunEvent::Done { state, .. } if state == "cancelled"
    ));
    // ...its report is unavailable...
    let err = client.report_csv(&queued.run).unwrap_err();
    assert!(matches!(
        err,
        mess_serve::ClientError::Api { status: 409, .. }
    ));

    // ...and it never executed: only the blocker did.
    client.wait(&blocker.run).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.runs_executed, 1, "cancelled run must not execute");

    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn thread_count_is_invisible_in_cached_results() {
    let (server, client, cache_dir) = start_server("threads", 2);
    let spec = md1_characterization("thread-identity");

    // Run once with a single engine worker.
    let single = client
        .submit(RunKind::Scenario, &spec, 1, CacheMode::Use)
        .unwrap();
    let status = client.wait(&single.run).unwrap();
    assert_eq!(status.state, "done");
    let artifact_single = client.artifact(&single.run, 0).unwrap();
    let csv_single = client.report_csv(&single.run).unwrap();

    // Re-run the identical spec with eight workers, forcing execution past the cache:
    // the daemon re-runs, compares against the stored entry, and reports bit-identity.
    let wide = client
        .submit(RunKind::Scenario, &spec, 8, CacheMode::Refresh)
        .unwrap();
    assert!(!wide.cached, "refresh must execute");
    let status = client.wait(&wide.run).unwrap();
    assert_eq!(status.state, "done");
    assert_eq!(
        status.refresh_identical,
        Some(true),
        "8-worker re-run must reproduce the 1-worker result byte-for-byte"
    );
    assert_eq!(client.artifact(&wide.run, 0).unwrap(), artifact_single);
    assert_eq!(client.report_csv(&wide.run).unwrap(), csv_single);

    let stats = client.stats().unwrap();
    assert_eq!(stats.runs_executed, 2, "both thread counts executed");

    // The digest — the cache key — is identical for both submissions: worker counts
    // never enter the canonical serialization.
    assert_eq!(single.digest, wide.digest);

    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}
