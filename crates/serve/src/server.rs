//! The HTTP face of the daemon: a `TcpListener` accept loop routing localhost requests
//! onto [`Daemon`] methods.
//!
//! ## Endpoints
//!
//! | method + path | body / response |
//! |---|---|
//! | `GET /v1/healthz` | liveness probe |
//! | `GET /v1/stats` | lifetime counters and current gauges ([`StatsBody`](crate::protocol::StatsBody)) |
//! | `GET /v1/metrics` | the process-wide metrics, then this daemon's `mess_serve_*` ones: Prometheus text exposition v0.0.4 |
//! | `POST /v1/scenarios` | `ScenarioSpec` JSON → [`SubmitReceipt`](crate::protocol::SubmitReceipt) |
//! | `POST /v1/campaigns` | `CampaignSpec` JSON → [`SubmitReceipt`](crate::protocol::SubmitReceipt) |
//! | `GET /v1/runs/<id>` | [`RunStatus`](crate::protocol::RunStatus) |
//! | `GET /v1/runs/<id>/events[?from=N]` | NDJSON stream of [`EventRecord`](crate::protocol::EventRecord) lines |
//! | `GET /v1/runs/<id>/report` | the run's report(s) as CSV |
//! | `GET /v1/runs/<id>/artifacts` | [`ArtifactList`] |
//! | `GET /v1/runs/<id>/artifacts/<idx>` | one `CurveSet` artifact (JSON bytes) |
//! | `DELETE /v1/runs/<id>` | cancel; responds with the post-cancel [`RunStatus`](crate::protocol::RunStatus) |
//! | `GET /v1/cache/<digest>` | [`ArtifactList`] of a cache entry |
//! | `GET /v1/cache/<digest>/artifacts/<idx>` | one cached artifact (JSON bytes) |
//!
//! `POST` accepts `?threads=N` (engine worker override for the run) and
//! `?cache=use|refresh|bypass`. Submissions answer `200` when served from the cache and
//! `202` when queued. Every non-2xx response is a structured [`ErrorBody`].
//!
//! One thread per connection: request handling is short except event streams, and the
//! expensive work happens on the daemon's own worker pool either way. Sockets carry a
//! read timeout so a stalled client cannot pin a handler thread forever.

use crate::http::{self, Request};
use crate::protocol::{ArtifactList, CacheMode, ErrorBody, HealthBody, RunKind};
use crate::queue::{Daemon, DaemonConfig, Run};
use mess_scenario::SpecDigest;
use serde::Serialize;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a handler waits on a socket read before giving up on the client.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// How often an idle event stream emits a keep-alive blank line (also bounds how long a
/// stream thread outlives a disconnected client).
const STREAM_KEEPALIVE: Duration = Duration::from_secs(2);

/// A running service instance: the bound address, the daemon state, and the accept/worker
/// threads. Dropping the handle does *not* stop the service; call [`Server::stop`].
pub struct Server {
    addr: SocketAddr,
    daemon: Arc<Daemon>,
    stopping: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), spawns the daemon workers and the
    /// accept loop, and returns immediately.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound or the cache directory cannot be created.
    pub fn start(addr: &str, config: DaemonConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let daemon = Daemon::new(config)?;
        let worker_threads = daemon.spawn_workers();
        let stopping = Arc::new(AtomicBool::new(false));

        let accept_daemon = Arc::clone(&daemon);
        let accept_stopping = Arc::clone(&stopping);
        let accept_thread = std::thread::Builder::new()
            .name("messd-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let daemon = Arc::clone(&accept_daemon);
                    let _ = std::thread::Builder::new()
                        .name("messd-conn".into())
                        .spawn(move || handle_connection(&daemon, stream));
                }
            })?;

        Ok(Server {
            addr: local,
            daemon,
            stopping,
            accept_thread: Some(accept_thread),
            worker_threads,
        })
    }

    /// The actually bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon behind the listener (for in-process inspection in tests and `messd`).
    pub fn daemon(&self) -> &Arc<Daemon> {
        &self.daemon
    }

    /// Stops accepting connections and shuts the worker pool down, then joins both.
    /// Queued runs are left `queued`; event streams terminate as their connections drop.
    pub fn stop(mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.daemon.shutdown();
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        for worker in self.worker_threads.drain(..) {
            let _ = worker.join();
        }
    }
}

fn json_of(value: &impl Serialize) -> String {
    serde_json::to_string_pretty(value).expect("wire bodies contain no non-finite floats")
}

fn send_json(stream: &mut TcpStream, status: u16, value: &impl Serialize) {
    let _ = http::respond_json(stream, status, &json_of(value));
}

fn send_error(stream: &mut TcpStream, status: u16, message: impl Into<String>) {
    send_json(
        stream,
        status,
        &ErrorBody {
            error: message.into(),
        },
    );
}

fn handle_connection(daemon: &Arc<Daemon>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let request = match http::read_request(&mut BufReader::new(read_half)) {
        Ok(request) => request,
        Err(e) => {
            send_error(&mut stream, e.status, e.message);
            return;
        }
    };
    // Request accounting brackets the whole route (event streams included), so the
    // latency histogram measures what a client actually waited.
    daemon.metrics.requests.inc();
    let start = std::time::Instant::now();
    route(daemon, &mut stream, &request);
    daemon
        .metrics
        .request_latency
        .observe(start.elapsed().as_secs_f64());
}

fn route(daemon: &Arc<Daemon>, stream: &mut TcpStream, request: &Request) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["v1", "healthz"]) => send_json(
            stream,
            200,
            &HealthBody {
                status: "ok".into(),
            },
        ),
        ("GET", ["v1", "stats"]) => send_json(stream, 200, &daemon.stats()),
        ("GET", ["v1", "metrics"]) => {
            // Every process-wide family name sorts before `mess_serve_`, so the page
            // stays in one sorted order.
            let body = mess_obs::Registry::global().render_prometheus()
                + &daemon.metrics.registry.render_prometheus();
            let _ = http::respond(
                stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                body.as_bytes(),
            );
        }
        ("POST", ["v1", "scenarios"]) => submit(daemon, stream, request, RunKind::Scenario),
        ("POST", ["v1", "campaigns"]) => submit(daemon, stream, request, RunKind::Campaign),
        ("GET", ["v1", "runs", id]) => match daemon.run(id) {
            Some(run) => send_json(stream, 200, &run.status()),
            None => send_error(stream, 404, format!("unknown run `{id}`")),
        },
        ("DELETE", ["v1", "runs", id]) => match daemon.cancel_run(id) {
            Some(status) => send_json(stream, 200, &status),
            None => send_error(stream, 404, format!("unknown run `{id}`")),
        },
        ("GET", ["v1", "runs", id, "events"]) => match daemon.run(id) {
            Some(run) => stream_events(stream, &run, request),
            None => send_error(stream, 404, format!("unknown run `{id}`")),
        },
        ("GET", ["v1", "runs", id, "report"]) => match daemon.run(id) {
            Some(run) => match run.report_csv() {
                Some(csv) => {
                    let _ = http::respond(stream, 200, "text/csv", csv.as_bytes());
                }
                None => send_error(
                    stream,
                    409,
                    format!("run `{id}` is `{}`, not done", run.status().state),
                ),
            },
            None => send_error(stream, 404, format!("unknown run `{id}`")),
        },
        ("GET", ["v1", "runs", id, "artifacts"]) => match daemon.run(id) {
            Some(run) => send_json(
                stream,
                200,
                &ArtifactList {
                    run: run.id.clone(),
                    digest: run.digest.to_string(),
                    artifacts: run.artifact_names(),
                },
            ),
            None => send_error(stream, 404, format!("unknown run `{id}`")),
        },
        ("GET", ["v1", "runs", id, "artifacts", index]) => match daemon.run(id) {
            Some(run) => match index
                .parse::<usize>()
                .ok()
                .and_then(|i| run.artifact_bytes(i))
            {
                Some(bytes) => {
                    let _ = http::respond(stream, 200, "application/json", bytes.as_bytes());
                }
                None => send_error(stream, 404, format!("run `{id}` has no artifact {index}")),
            },
            None => send_error(stream, 404, format!("unknown run `{id}`")),
        },
        ("GET", ["v1", "cache", digest]) => match lookup_cache(daemon, digest) {
            Ok((digest, meta)) => send_json(
                stream,
                200,
                &ArtifactList {
                    run: String::new(),
                    digest: digest.to_string(),
                    artifacts: meta.artifacts,
                },
            ),
            Err((status, message)) => send_error(stream, status, message),
        },
        ("GET", ["v1", "cache", digest, "artifacts", index]) => {
            match lookup_cache(daemon, digest) {
                Ok((digest, meta)) => {
                    let bytes = index
                        .parse::<usize>()
                        .ok()
                        .and_then(|i| meta.artifacts.get(i))
                        .and_then(|name| {
                            std::fs::read_to_string(daemon.cache.artifact_path(&digest, name)).ok()
                        });
                    match bytes {
                        Some(bytes) => {
                            let _ =
                                http::respond(stream, 200, "application/json", bytes.as_bytes());
                        }
                        None => send_error(
                            stream,
                            404,
                            format!("cache entry `{digest}` has no artifact {index}"),
                        ),
                    }
                }
                Err((status, message)) => send_error(stream, status, message),
            }
        }
        (
            _,
            ["v1", "healthz" | "stats" | "metrics" | "scenarios" | "campaigns" | "runs" | "cache", ..],
        ) => send_error(
            stream,
            405,
            format!("method {} not allowed on {}", request.method, request.path),
        ),
        _ => send_error(stream, 404, format!("no such endpoint `{}`", request.path)),
    }
}

fn lookup_cache(
    daemon: &Arc<Daemon>,
    digest: &str,
) -> Result<(SpecDigest, crate::cache::CacheEntryMeta), (u16, String)> {
    let digest: SpecDigest = digest
        .parse()
        .map_err(|e| (400u16, format!("bad digest: {e}")))?;
    match daemon.cache.lookup(&digest) {
        Some(meta) => Ok((digest, meta)),
        None => Err((404, format!("no cache entry for `{digest}`"))),
    }
}

fn submit(daemon: &Arc<Daemon>, stream: &mut TcpStream, request: &Request, kind: RunKind) {
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => return send_error(stream, 400, "request body is not UTF-8"),
    };
    let threads = match request.query_param("threads") {
        None => 0,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return send_error(stream, 400, format!("bad threads value `{raw}`")),
        },
    };
    let cache_mode = match request.query_param("cache") {
        None => CacheMode::Use,
        Some(raw) => match CacheMode::parse(raw) {
            Some(mode) => mode,
            None => {
                return send_error(
                    stream,
                    400,
                    format!("bad cache mode `{raw}` (use | refresh | bypass)"),
                )
            }
        },
    };
    match daemon.submit(kind, body, threads, cache_mode) {
        Ok(receipt) => {
            let status = if receipt.cached { 200 } else { 202 };
            send_json(stream, status, &receipt);
        }
        Err(e) => send_error(stream, e.status, e.message),
    }
}

/// Streams the run's event log as NDJSON from `?from=<seq>` (default 0) until the run is
/// terminal and the backlog is drained. Idle periods emit blank keep-alive lines, which
/// also detect disconnected clients.
fn stream_events(stream: &mut TcpStream, run: &Arc<Run>, request: &Request) {
    let mut from = match request.query_param("from") {
        None => 0,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return send_error(stream, 400, format!("bad from value `{raw}`")),
        },
    };
    if http::begin_event_stream(stream).is_err() {
        return;
    }
    loop {
        let (lines, terminal) = run.events_after(from, STREAM_KEEPALIVE);
        from += lines.len();
        let payload = if lines.is_empty() {
            "\n".to_string()
        } else {
            lines.join("\n") + "\n"
        };
        if stream.write_all(payload.as_bytes()).is_err() || stream.flush().is_err() {
            return; // client went away
        }
        if terminal && lines.is_empty() {
            return;
        }
    }
}
