//! HTTP/1.1 gateway in front of the daemon: clip in, report out.
//!
//! The paper closes by imagining a service where users "upload a video
//! sequence of a standing long jump" and get their analysis back. The
//! daemon already speaks `slj-wire/1` for that; this crate puts a plain
//! HTTP face on it so anything that can speak `curl` can submit a clip:
//!
//! - `POST /v1/jobs` — body is one line of open-request JSON followed
//!   by the clip as concatenated binary PPM frames (the on-disk clip
//!   format's `frame_*.ppm` bytes laid end to end). The body is read
//!   once, into one buffer of its declared length (after a
//!   `100 Continue` when the client sent `Expect: 100-continue`), and
//!   its clip is forwarded from that buffer as one `OPEN_CLIP`, head
//!   and clip in one vectored write, never copied. The daemon decodes
//!   the frames as they arrive and feeds them itself. Replies `202`
//!   with a job id.
//! - `GET /v1/jobs/{id}` — `202` while running, `200` with the report
//!   JSON (byte-identical to `slj analyze --stream --report`), `502`
//!   when the session failed.
//! - `GET /v1/jobs/{id}/events` — the session's health-event JSONL.
//! - `GET /healthz`, `GET /metrics` — liveness and counters.
//! - `POST /v1/drain` — drains gateway and daemon.
//!
//! The robustness posture mirrors the daemon's: every limit is a typed
//! status, not a hang. Admission shed by the daemon maps to `429` with
//! `Retry-After`; draining maps to `503`; malformed or oversized bodies
//! are refused with a `4xx` *before* any wire session is opened; and
//! every connection lives under read/write deadlines so slow or stalled
//! peers are reaped, never accumulated.

#![forbid(unsafe_code)]

pub mod http;

use std::collections::BTreeMap;
use std::io;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use slj_daemon::server::{reap_finished, serve_until, wake_acceptor};
use slj_daemon::{Addr, Client, ClientError, ClientOptions, Listener, OpenRequest, Stream};
use slj_obs::MetricsRegistry;

use http::{read_request, write_response, HttpError, Limits, Request};

/// Gateway knobs: the ones `slj gateway`'s flags set. The defaults are
/// sized for the daemon's own default wire-frame cap: a body that passes
/// the gateway always fits the one `OPEN_CLIP` frame it becomes. The
/// header cap and the finished-job retention are constants, and the
/// wire connections the gateway dials use the default client options.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Maximum request body (open-request line + PPM bytes). Must stay
    /// under the daemon's `max_frame` minus the envelope overhead.
    pub max_body: usize,
    /// In-flight (running) job cap; admissions beyond it get `429`.
    pub max_jobs: usize,
    /// Concurrent HTTP connections; accepts beyond it get `503`.
    pub max_conns: usize,
    /// Per-connection socket read deadline (slowloris bound).
    pub read_timeout: Duration,
    /// Per-connection socket write deadline (stalled-reader bound).
    pub write_timeout: Duration,
    /// The `Retry-After` seconds sent with every `429`.
    pub retry_after: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            // 4 KiB of slack covers the JSON line + wire envelope.
            max_body: slj_daemon::DEFAULT_MAX_FRAME - 4096,
            max_jobs: 16,
            max_conns: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            retry_after: 1,
        }
    }
}

/// A submitted job's lifecycle.
enum JobState {
    /// The daemon admitted the clip; a worker is waiting on the result.
    Running,
    /// Terminal: the report arrived.
    Done(slj_daemon::RemoteAnalysis),
    /// Terminal: the session failed server-side.
    Failed(String),
}

struct Shared {
    daemon: Addr,
    config: GatewayConfig,
    /// Gateway-initiated or operator-initiated drain: new jobs get 503.
    draining: AtomicBool,
    /// Acceptor stop flag (set by [`GatewayHandle::shutdown`]).
    stop: AtomicBool,
    jobs: Mutex<BTreeMap<u64, JobState>>,
    running: AtomicUsize,
    next_job: AtomicU64,
    conns: AtomicUsize,
    metrics: Mutex<MetricsRegistry>,
    /// Job workers not yet seen to exit; finished ones are reaped at
    /// each admission, so at most about `max_jobs` are tracked.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn inc(&self, name: &'static str) {
        self.metrics.lock().unwrap().inc(name, 1);
    }
}

/// The gateway entry point.
pub struct Gateway;

/// A running gateway. Call [`shutdown`](GatewayHandle::shutdown) to
/// stop accepting and join every thread.
pub struct GatewayHandle {
    /// The address actually bound (OS-assigned ports resolved).
    pub addr: Addr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
}

impl GatewayHandle {
    /// Stops admitting new jobs (they get `503`); existing jobs finish
    /// and their reports stay fetchable.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested (by this handle or an HTTP
    /// `POST /v1/drain`).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Jobs currently running (admitted, terminal not yet recorded).
    pub fn jobs_running(&self) -> usize {
        self.shared.running.load(Ordering::SeqCst)
    }

    /// Stops the acceptor, joins every job worker, and returns the
    /// final metrics. In-flight HTTP connections get up to one
    /// read+write deadline to finish.
    pub fn shutdown(self) -> MetricsRegistry {
        self.shared.stop.store(true, Ordering::SeqCst);
        wake_acceptor(&self.addr);
        let _ = self.acceptor.join();
        let workers = std::mem::take(&mut *self.shared.workers.lock().unwrap());
        for worker in workers {
            let _ = worker.join();
        }
        let deadline = std::time::Instant::now()
            + self.shared.config.read_timeout
            + self.shared.config.write_timeout;
        while self.shared.conns.load(Ordering::SeqCst) > 0 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        self.shared.metrics.lock().unwrap().clone()
    }
}

impl Gateway {
    /// Binds `listen` and serves HTTP against the daemon at `daemon`.
    /// The daemon is dialed per job, not at startup — a gateway may
    /// outlive daemon restarts.
    ///
    /// # Errors
    ///
    /// Any bind failure.
    pub fn start(listen: &Addr, daemon: Addr, config: GatewayConfig) -> io::Result<GatewayHandle> {
        let (listener, addr) = Listener::bind(listen)?;
        let shared = Arc::new(Shared {
            daemon,
            config,
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            jobs: Mutex::new(BTreeMap::new()),
            running: AtomicUsize::new(0),
            next_job: AtomicU64::new(1),
            conns: AtomicUsize::new(0),
            metrics: Mutex::new(MetricsRegistry::default()),
            workers: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("slj-gateway-accept".to_owned())
                .spawn(move || accept_loop(&shared, listener))
                .expect("spawn gateway acceptor")
        };
        Ok(GatewayHandle {
            addr,
            shared,
            acceptor,
        })
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: Listener) {
    serve_until(listener, &shared.stop, |stream| {
        let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
        let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
        if shared.conns.fetch_add(1, Ordering::SeqCst) >= shared.config.max_conns {
            // Over the connection cap: answer 503 inline (the
            // acceptor can afford one bounded write) and close.
            shared.inc("gateway_conns_shed");
            let mut stream = stream;
            let _ = respond_text(&mut stream, 503, "gateway connection limit reached\n");
            shared.conns.fetch_sub(1, Ordering::SeqCst);
            return ControlFlow::Continue(());
        }
        shared.inc("gateway_conns");
        let shared = Arc::clone(shared);
        thread::Builder::new()
            .name("slj-gateway-conn".to_owned())
            .spawn(move || {
                handle_connection(&shared, stream);
                shared.conns.fetch_sub(1, Ordering::SeqCst);
            })
            .expect("spawn gateway connection thread");
        ControlFlow::Continue(())
    });
}

fn respond_text(stream: &mut Stream, status: u16, body: &str) -> io::Result<()> {
    write_response(stream, status, "text/plain", &[], body.as_bytes())
}

fn respond_json(stream: &mut Stream, status: u16, body: &str) -> io::Result<()> {
    write_response(stream, status, "application/json", &[], body.as_bytes())
}

/// Maximum request line + header bytes.
const MAX_HEADER: usize = 16 * 1024;

/// One request, one response, close. Every path out of here writes a
/// typed status unless the peer is already gone.
fn handle_connection(shared: &Arc<Shared>, mut stream: Stream) {
    let limits = Limits {
        max_header: MAX_HEADER,
        max_body: shared.config.max_body,
    };
    let request = match read_request(&mut stream, &limits) {
        Ok(request) => request,
        Err(err) => {
            shared.inc(match err {
                HttpError::Timeout => "gateway_reqs_timeout",
                HttpError::Disconnected => "gateway_reqs_disconnected",
                _ => "gateway_reqs_malformed",
            });
            if let Some((status, why)) = err.status() {
                let _ = respond_text(&mut stream, status, &format!("{why}\n"));
            }
            stream.shutdown();
            return;
        }
    };
    shared.inc("gateway_reqs");
    route(shared, &mut stream, &request);
    stream.shutdown();
}

fn route(shared: &Arc<Shared>, stream: &mut Stream, request: &Request) {
    let path = request.path.split('?').next().unwrap_or("");
    let outcome = match (request.method.as_str(), path) {
        ("GET", "/healthz") => handle_healthz(shared, stream),
        ("GET", "/metrics") => handle_metrics(shared, stream),
        ("POST", "/v1/jobs") => handle_submit(shared, stream, request),
        ("POST", "/v1/drain") => handle_drain(shared, stream),
        (_, "/healthz" | "/metrics") => method_not_allowed(stream, "GET"),
        (_, "/v1/jobs") => method_not_allowed(stream, "POST"),
        (_, "/v1/drain") => method_not_allowed(stream, "POST"),
        (method, path) => match parse_job_path(path) {
            Some((id, events)) if method == "GET" => handle_job_get(shared, stream, id, events),
            Some(_) => method_not_allowed(stream, "GET"),
            None => respond_text(stream, 404, "no such resource\n"),
        },
    };
    let _ = outcome;
}

/// `/v1/jobs/{id}` and `/v1/jobs/{id}/events` → `(id, wants_events)`.
fn parse_job_path(path: &str) -> Option<(u64, bool)> {
    let rest = path.strip_prefix("/v1/jobs/")?;
    match rest.strip_suffix("/events") {
        Some(id) => id.parse().ok().map(|id| (id, true)),
        None => rest.parse().ok().map(|id| (id, false)),
    }
}

fn method_not_allowed(stream: &mut Stream, allow: &str) -> io::Result<()> {
    write_response(
        stream,
        405,
        "text/plain",
        &[("Allow", allow.to_owned())],
        b"method not allowed\n",
    )
}

fn handle_healthz(shared: &Arc<Shared>, stream: &mut Stream) -> io::Result<()> {
    if shared.draining.load(Ordering::SeqCst) {
        respond_text(stream, 503, "draining\n")
    } else {
        respond_text(stream, 200, "ok\n")
    }
}

fn handle_metrics(shared: &Arc<Shared>, stream: &mut Stream) -> io::Result<()> {
    let rendered = shared.metrics.lock().unwrap().render();
    respond_text(stream, 200, &rendered)
}

/// Finished jobs retained for `GET` before the oldest are evicted.
const MAX_DONE: usize = 256;

/// The ingestion path. Refusal order is deliberate: everything the
/// gateway can decide locally (shape, JSON and its field ranges, drain,
/// job cap) is decided *before* a wire connection is dialed, so bad
/// requests never cost the daemon anything.
fn handle_submit(shared: &Arc<Shared>, stream: &mut Stream, request: &Request) -> io::Result<()> {
    // Body shape: one open-request JSON line, then raw PPM bytes.
    let Some(newline) = request.body.iter().position(|&b| b == b'\n') else {
        shared.inc("gateway_jobs_malformed");
        return respond_text(
            stream,
            400,
            "body must be one open-request JSON line followed by PPM frames\n",
        );
    };
    let (json_line, ppm) = request.body.split_at(newline);
    let ppm = &ppm[1..];
    let open: OpenRequest = match std::str::from_utf8(json_line)
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str(s).map_err(|e| e.to_string()))
    {
        Ok(open) => open,
        Err(e) => {
            shared.inc("gateway_jobs_malformed");
            return respond_text(stream, 400, &format!("open request does not parse: {e}\n"));
        }
    };
    if let Err(e) = open.validate() {
        shared.inc("gateway_jobs_malformed");
        return respond_text(stream, 400, &format!("{e}\n"));
    }
    if ppm.is_empty() {
        shared.inc("gateway_jobs_malformed");
        return respond_text(stream, 400, "no clip bytes after the open-request line\n");
    }
    if shared.draining.load(Ordering::SeqCst) {
        shared.inc("gateway_jobs_drained");
        return respond_text(stream, 503, "gateway is draining\n");
    }
    // Reserve a job slot before dialing; release on any refusal.
    if shared.running.fetch_add(1, Ordering::SeqCst) >= shared.config.max_jobs {
        shared.running.fetch_sub(1, Ordering::SeqCst);
        shared.inc("gateway_jobs_shed");
        return write_response(
            stream,
            429,
            "text/plain",
            &[("Retry-After", shared.config.retry_after.to_string())],
            b"job table is full; retry shortly\n",
        );
    }
    let admitted = Client::connect(&shared.daemon, ClientOptions::default())
        .map_err(|e| {
            (
                502u16,
                format!("daemon unreachable: {e}\n"),
                "gateway_jobs_bad_upstream",
            )
        })
        .and_then(|mut client| {
            client
                .open_clip(&open, ppm)
                .map(|session| (client, session))
                .map_err(refusal)
        });
    let (client, session) = match admitted {
        Ok(pair) => pair,
        Err((status, body, counter)) => {
            shared.running.fetch_sub(1, Ordering::SeqCst);
            shared.inc(counter);
            if status == 429 {
                return write_response(
                    stream,
                    429,
                    "text/plain",
                    &[("Retry-After", shared.config.retry_after.to_string())],
                    body.as_bytes(),
                );
            }
            return respond_text(stream, status, &body);
        }
    };
    let id = shared.next_job.fetch_add(1, Ordering::SeqCst);
    {
        let mut jobs = shared.jobs.lock().unwrap();
        // Evict the oldest finished jobs past the retention cap.
        while jobs.len() >= shared.config.max_jobs + MAX_DONE {
            let evict = jobs
                .iter()
                .find(|(_, s)| !matches!(s, JobState::Running))
                .map(|(&id, _)| id);
            match evict {
                Some(old) => {
                    jobs.remove(&old);
                }
                None => break, // everything is running; the cap bounds this
            }
        }
        jobs.insert(id, JobState::Running);
    }
    shared.inc("gateway_jobs_admitted");
    let worker = {
        let shared = Arc::clone(shared);
        thread::Builder::new()
            .name(format!("slj-gateway-job-{id}"))
            .spawn(move || job_worker(&shared, id, client, session))
            .expect("spawn gateway job worker")
    };
    {
        let mut workers = shared.workers.lock().unwrap();
        reap_finished(&mut workers);
        workers.push(worker);
    }
    respond_json(
        stream,
        202,
        &format!("{{\"job\":{id},\"state\":\"running\"}}\n"),
    )
}

/// Maps a wire-level refusal onto `(status, body, counter)`. The
/// daemon's admission answers become the HTTP backpressure contract:
/// capacity → `429` (with `Retry-After` added by the caller), draining
/// → `503`, an undecodable clip or unparseable request → `400`.
fn refusal(err: ClientError) -> (u16, String, &'static str) {
    match err {
        ClientError::Rejected { reason } => {
            if reason.contains("at capacity") {
                (
                    429,
                    format!("daemon {reason}; retry shortly\n"),
                    "gateway_jobs_shed",
                )
            } else if reason.contains("draining") {
                (503, format!("daemon is {reason}\n"), "gateway_jobs_drained")
            } else {
                // "clip does not decode", "open request does not parse"
                (
                    400,
                    format!("daemon refused the clip: {reason}\n"),
                    "gateway_jobs_malformed",
                )
            }
        }
        other => (
            502,
            format!("daemon error: {other}\n"),
            "gateway_jobs_bad_upstream",
        ),
    }
}

/// Owns the wire connection for one admitted job until its terminal.
fn job_worker(shared: &Arc<Shared>, id: u64, mut client: Client, session: u64) {
    let outcome = client.await_result(session);
    let mut jobs = shared.jobs.lock().unwrap();
    match outcome {
        Ok(analysis) => {
            shared.metrics.lock().unwrap().inc("gateway_jobs_done", 1);
            jobs.insert(id, JobState::Done(analysis));
        }
        Err(e) => {
            shared.metrics.lock().unwrap().inc("gateway_jobs_failed", 1);
            jobs.insert(id, JobState::Failed(e.to_string()));
        }
    }
    drop(jobs);
    shared.running.fetch_sub(1, Ordering::SeqCst);
}

fn handle_job_get(
    shared: &Arc<Shared>,
    stream: &mut Stream,
    id: u64,
    events: bool,
) -> io::Result<()> {
    let jobs = shared.jobs.lock().unwrap();
    match jobs.get(&id) {
        None => respond_text(stream, 404, &format!("no job {id}\n")),
        Some(JobState::Running) => respond_json(
            stream,
            202,
            &format!("{{\"job\":{id},\"state\":\"running\"}}\n"),
        ),
        Some(JobState::Failed(error)) => {
            // The vendored serde_json has no json! macro; escape the
            // error by serialising it as a lone string.
            let quoted = serde_json::to_string(error).unwrap_or_else(|_| "\"?\"".to_owned());
            respond_json(
                stream,
                502,
                &format!("{{\"job\":{id},\"state\":\"failed\",\"error\":{quoted}}}\n"),
            )
        }
        Some(JobState::Done(analysis)) => {
            if events {
                let mut body = analysis.events.join("\n");
                body.push('\n');
                drop(jobs);
                write_response(stream, 200, "application/x-ndjson", &[], body.as_bytes())
            } else {
                // The report bytes verbatim: byte-identical to the
                // daemon's ANALYSIS and to `slj analyze --stream`.
                let body = analysis.summary_json.clone();
                drop(jobs);
                respond_json(stream, 200, &body)
            }
        }
    }
}

/// Drains gateway and daemon: local admissions stop first, then the
/// wire `DRAIN` is forwarded so the daemon refuses everyone else too.
fn handle_drain(shared: &Arc<Shared>, stream: &mut Stream) -> io::Result<()> {
    shared.draining.store(true, Ordering::SeqCst);
    shared.inc("gateway_drains");
    match Client::connect(&shared.daemon, ClientOptions::default())
        .and_then(|mut client| client.drain())
    {
        Ok(in_flight) => respond_json(
            stream,
            200,
            &format!("{{\"state\":\"draining\",\"daemon_in_flight\":{in_flight}}}\n"),
        ),
        Err(e) => respond_text(
            stream,
            502,
            &format!("gateway draining, but the daemon could not be reached: {e}\n"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slj::prelude::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    #[test]
    fn job_paths_parse() {
        assert_eq!(parse_job_path("/v1/jobs/7"), Some((7, false)));
        assert_eq!(parse_job_path("/v1/jobs/7/events"), Some((7, true)));
        assert_eq!(parse_job_path("/v1/jobs/"), None);
        assert_eq!(parse_job_path("/v1/jobs/x"), None);
        assert_eq!(parse_job_path("/v1/jobs/7/other"), None);
        assert_eq!(parse_job_path("/v2/jobs/7"), None);
    }

    /// One HTTP exchange on a fresh connection; returns the status.
    fn exchange(hostport: &str, request: &[u8]) -> u16 {
        let mut sock = TcpStream::connect(hostport).unwrap();
        sock.write_all(request).unwrap();
        let mut raw = Vec::new();
        sock.read_to_end(&mut raw).unwrap();
        let head = String::from_utf8_lossy(&raw);
        head.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    #[test]
    fn finished_job_workers_are_reaped_not_accumulated() {
        // A short clip keeps each of the hundred jobs cheap.
        let scene = SceneConfig {
            camera: Camera::compact(),
            ..SceneConfig::clean()
        };
        let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 97);
        let frames = 4;
        let ppm = slj_video::io::ppm_stream(&jump.video);
        let ppm = &ppm[..frames * ppm.len() / jump.video.len()];
        let open = OpenRequest {
            camera: scene.camera,
            dims: BodyDims::default(),
            first_pose: jump.poses.poses()[0],
            fps: jump.video.fps(),
            warmup: 2,
            fast: true,
            max_degraded: Some(frames),
            want_trace: false,
        };
        let mut body = serde_json::to_string(&open).unwrap().into_bytes();
        body.push(b'\n');
        body.extend_from_slice(ppm);
        let mut request = format!(
            "POST /v1/jobs HTTP/1.1\r\nHost: gw\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(&body);

        let daemon = slj_daemon::Daemon::start(
            &[Addr::Tcp("127.0.0.1:0".to_owned())],
            slj_daemon::DaemonConfig::default(),
        )
        .unwrap();
        let config = GatewayConfig::default();
        let max_jobs = config.max_jobs;
        let gateway = Gateway::start(
            &Addr::Tcp("127.0.0.1:0".to_owned()),
            daemon.addrs[0].clone(),
            config,
        )
        .unwrap();
        let Addr::Tcp(hostport) = gateway.addr.clone() else {
            unreachable!("bound on TCP")
        };
        let jobs = 100;
        for _ in 0..jobs {
            assert_eq!(exchange(&hostport, &request), 202);
            while gateway.jobs_running() > 0 {
                thread::sleep(Duration::from_millis(1));
            }
        }
        let tracked = gateway.shared.workers.lock().unwrap().len();
        assert!(
            tracked <= max_jobs,
            "{tracked} job workers tracked after {jobs} sequential jobs"
        );
        let metrics = gateway.shutdown();
        daemon.drain();
        daemon.join();
        assert_eq!(metrics.counter("gateway_jobs_done"), jobs as u64);
    }
}
