//! Chaos suite for the HTTP gateway.
//!
//! The contract under test extends the daemon's: **HTTP adds a
//! protocol, not drift, and no client's misbehaviour may change
//! another job's bytes.** Every scenario runs a real daemon (UDS) and a
//! real gateway (loopback TCP), drives them with raw `TcpStream` HTTP
//! clients mixed with raw wire clients, and asserts that healthy
//! submissions get reports **byte-identical** to an in-process
//! [`StreamingAnalyzer`] run — while malformed bodies, mid-upload
//! disconnects, slowloris readers and overload-shed admissions are
//! answered (or reaped) with typed statuses.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::Deserialize;
use slj::prelude::*;
use slj_daemon::{Addr, Client, ClientOptions, Daemon, DaemonConfig, OpenRequest};
use slj_gateway::{Gateway, GatewayConfig, GatewayHandle};

fn scene() -> SceneConfig {
    SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::clean()
    }
}

fn open_request(jump: &SyntheticJump, scene: &SceneConfig, want_trace: bool) -> OpenRequest {
    OpenRequest {
        camera: scene.camera,
        dims: BodyDims::default(),
        first_pose: jump.poses.poses()[0],
        fps: jump.video.fps(),
        warmup: 14,
        fast: true,
        max_degraded: Some(10),
        want_trace,
    }
}

/// The in-process ground truth, rendered exactly as the daemon renders
/// it: pretty summary JSON (the gateway serves these bytes verbatim).
fn reference(jump: &SyntheticJump, request: &OpenRequest) -> String {
    let config = request.to_session_config();
    let mut stream = StreamingAnalyzer::new(
        config.analyzer,
        &config.camera,
        config.first_pose,
        config.fps,
    )
    .unwrap();
    for frame in jump.video.iter() {
        stream.push_frame(frame).unwrap();
    }
    let analysis = stream.finish().unwrap();
    serde_json::to_string_pretty(&analysis.summary()).unwrap()
}

fn daemon_config() -> DaemonConfig {
    let mut config = DaemonConfig::default();
    config.serve.escalate_after = 30;
    config.serve.trip_after = 40;
    config
}

fn uds_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("slj-gateway-{tag}-{}.sock", std::process::id()))
}

/// A POST /v1/jobs body: one open-request JSON line, then the clip.
fn job_body(request: &OpenRequest, video: &slj_video::Video) -> Vec<u8> {
    let mut body = serde_json::to_string(request).unwrap().into_bytes();
    body.push(b'\n');
    body.extend_from_slice(&slj_video::io::ppm_stream(video));
    body
}

/// One parsed HTTP response.
struct Response {
    status: u16,
    headers: HashMap<String, String>,
    body: Vec<u8>,
}

/// Sends one raw request and reads to EOF (the gateway always closes).
fn http(hostport: &str, request: &[u8]) -> Response {
    let mut sock = TcpStream::connect(hostport).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    sock.write_all(request).unwrap();
    let mut raw = Vec::new();
    sock.read_to_end(&mut raw).unwrap();
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> Response {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header block");
    let head = std::str::from_utf8(&raw[..split]).unwrap();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let mut headers = HashMap::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_owned());
        }
    }
    Response {
        status,
        headers,
        body: raw[split + 4..].to_vec(),
    }
}

fn get(hostport: &str, path: &str) -> Response {
    http(
        hostport,
        format!("GET {path} HTTP/1.1\r\nHost: gw\r\n\r\n").as_bytes(),
    )
}

fn post(hostport: &str, path: &str, body: &[u8]) -> Response {
    let mut request = format!(
        "POST {path} HTTP/1.1\r\nHost: gw\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    http(hostport, &request)
}

#[derive(Deserialize)]
struct JobReply {
    job: u64,
    state: String,
}

/// Submits a clip and returns the job id (asserting the 202 shape).
fn submit(hostport: &str, body: &[u8]) -> u64 {
    let response = post(hostport, "/v1/jobs", body);
    assert_eq!(
        response.status,
        202,
        "submit failed: {}",
        String::from_utf8_lossy(&response.body)
    );
    let reply: JobReply =
        serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
    assert_eq!(reply.state, "running");
    reply.job
}

/// Polls a job until its report is ready and returns the bytes.
fn fetch_report(hostport: &str, job: u64) -> Vec<u8> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let response = get(hostport, &format!("/v1/jobs/{job}"));
        match response.status {
            200 => return response.body,
            202 => {
                assert!(Instant::now() < deadline, "job {job} never finished");
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!(
                "job {job} failed with {other}: {}",
                String::from_utf8_lossy(&response.body)
            ),
        }
    }
}

fn start_pair(
    tag: &str,
    gateway_config: GatewayConfig,
) -> (slj_daemon::DaemonHandle, GatewayHandle, String) {
    let handle = Daemon::start(&[Addr::Unix(uds_path(tag))], daemon_config()).unwrap();
    let gateway = Gateway::start(
        &Addr::Tcp("127.0.0.1:0".to_owned()),
        handle.addrs[0].clone(),
        gateway_config,
    )
    .unwrap();
    let Addr::Tcp(hostport) = gateway.addr.clone() else {
        unreachable!()
    };
    (handle, gateway, hostport)
}

#[test]
fn concurrent_http_and_wire_clients_get_identical_reports_through_chaos() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 71);
    let request = open_request(&jump, &scene, false);
    let ref_summary = reference(&jump, &request);
    let (handle, gateway, hostport) = start_pair("chaos", GatewayConfig::default());
    let daemon_addr = handle.addrs[0].clone();

    // Chaos crew, concurrent with everything below.
    let chaos: Vec<std::thread::JoinHandle<()>> = vec![
        // 1. Malformed body: no JSON line at all.
        {
            let hostport = hostport.clone();
            std::thread::spawn(move || {
                let response = post(&hostport, "/v1/jobs", b"not json, no newline");
                assert_eq!(response.status, 400);
            })
        },
        // 2. Unparseable open request with a well-shaped body.
        {
            let hostport = hostport.clone();
            std::thread::spawn(move || {
                let response = post(&hostport, "/v1/jobs", b"{\"nope\":1}\nP6...");
                assert_eq!(response.status, 400);
                assert!(String::from_utf8_lossy(&response.body).contains("does not parse"));
            })
        },
        // 3. A clip the daemon cannot decode: refused 400 *after* the
        //    wire round-trip, typed, with no session opened.
        {
            let hostport = hostport.clone();
            let request = request.clone();
            std::thread::spawn(move || {
                let mut body = serde_json::to_string(&request).unwrap().into_bytes();
                body.extend_from_slice(b"\nP6\n9999 9999\n255\nxy");
                let response = post(&hostport, "/v1/jobs", &body);
                assert_eq!(response.status, 400);
                assert!(String::from_utf8_lossy(&response.body).contains("does not decode"));
            })
        },
        // 4. Mid-upload disconnect: declares a body, sends half, dies.
        {
            let hostport = hostport.clone();
            let request = request.clone();
            let jump_body = job_body(&request, &jump.video);
            std::thread::spawn(move || {
                let mut sock = TcpStream::connect(hostport.as_str()).unwrap();
                let head = format!(
                    "POST /v1/jobs HTTP/1.1\r\nHost: gw\r\nContent-Length: {}\r\n\r\n",
                    jump_body.len()
                );
                sock.write_all(head.as_bytes()).unwrap();
                sock.write_all(&jump_body[..jump_body.len() / 2]).unwrap();
                // Dropping the socket tears the upload mid-body.
            })
        },
        // 5. Oversized declaration: refused at the header, body unsent.
        {
            let hostport = hostport.clone();
            std::thread::spawn(move || {
                let response = http(
                    &hostport,
                    format!(
                        "POST /v1/jobs HTTP/1.1\r\nHost: gw\r\nContent-Length: {}\r\n\r\n",
                        usize::MAX / 2
                    )
                    .as_bytes(),
                );
                assert_eq!(response.status, 413);
            })
        },
        // 6. POST without Content-Length.
        {
            let hostport = hostport.clone();
            std::thread::spawn(move || {
                let response = http(&hostport, b"POST /v1/jobs HTTP/1.1\r\nHost: gw\r\n\r\n");
                assert_eq!(response.status, 411);
            })
        },
    ];

    // Four healthy HTTP clients and two raw wire clients, all at once.
    let http_workers: Vec<_> = (0..4)
        .map(|_| {
            let hostport = hostport.clone();
            let body = job_body(&request, &jump.video);
            std::thread::spawn(move || {
                let job = submit(&hostport, &body);
                fetch_report(&hostport, job)
            })
        })
        .collect();
    let wire_workers: Vec<_> = (0..2)
        .map(|_| {
            let addr = daemon_addr.clone();
            let frames: Vec<_> = jump.video.iter().cloned().collect();
            let request = request.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr, ClientOptions::default()).unwrap();
                client.analyze_clip(&request, &frames).unwrap()
            })
        })
        .collect();

    for worker in chaos {
        worker.join().unwrap();
    }
    let mut jobs_checked = 0;
    for worker in http_workers {
        let report = worker.join().unwrap();
        assert_eq!(
            String::from_utf8_lossy(&report),
            ref_summary,
            "HTTP report drifted"
        );
        jobs_checked += 1;
    }
    for worker in wire_workers {
        let analysis = worker.join().unwrap();
        assert_eq!(analysis.summary_json, ref_summary, "wire report drifted");
    }
    assert_eq!(jobs_checked, 4);

    // The event stream surfaces the session's health timeline.
    let body = job_body(&request, &jump.video);
    let job = submit(&hostport, &body);
    fetch_report(&hostport, job);
    let events = get(&hostport, &format!("/v1/jobs/{job}/events"));
    assert_eq!(events.status, 200);
    assert!(String::from_utf8_lossy(&events.body).contains("\"event\":\"finished\""));

    // Resource-level errors are typed.
    assert_eq!(get(&hostport, "/v1/jobs/999999").status, 404);
    assert_eq!(get(&hostport, "/nope").status, 404);
    assert_eq!(get(&hostport, "/v1/jobs").status, 405);
    assert_eq!(
        http(&hostport, b"DELETE /healthz HTTP/1.1\r\nHost: gw\r\n\r\n").status,
        405
    );
    assert_eq!(get(&hostport, "/healthz").status, 200);

    // Metrics counted the traffic: 5 admitted jobs, typed refusals.
    let metrics = get(&hostport, "/metrics");
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8_lossy(&metrics.body).into_owned();
    assert!(text.contains("gateway_jobs_admitted = 5"), "{text}");
    assert!(text.contains("gateway_jobs_done = 5"), "{text}");
    assert!(text.contains("gateway_jobs_malformed = 3"), "{text}");

    let metrics = gateway.shutdown();
    assert_eq!(metrics.counter("gateway_jobs_admitted"), 5);
    handle.drain();
    let stats = handle.join();
    assert_eq!(stats.sessions_finished, 7, "5 HTTP + 2 wire sessions");
    assert_eq!(stats.clip_sessions, 5);
    assert_eq!(stats.sessions_failed, 0);
}

#[test]
fn daemon_capacity_shed_maps_to_429_with_retry_after() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 73);
    let request = open_request(&jump, &scene, false);
    let ref_summary = reference(&jump, &request);

    // One daemon slot, held by a raw wire client: the gateway's POST
    // must come back 429 + Retry-After, not hang and not 500.
    let mut config = daemon_config();
    config.serve.max_sessions = 1;
    let handle = Daemon::start(&[Addr::Unix(uds_path("shed"))], config).unwrap();
    let gateway = Gateway::start(
        &Addr::Tcp("127.0.0.1:0".to_owned()),
        handle.addrs[0].clone(),
        GatewayConfig::default(),
    )
    .unwrap();
    let Addr::Tcp(hostport) = gateway.addr.clone() else {
        unreachable!()
    };

    let mut holder = Client::connect(&handle.addrs[0], ClientOptions::default()).unwrap();
    let held = holder.open(&request).unwrap();

    let body = job_body(&request, &jump.video);
    let response = post(&hostport, "/v1/jobs", &body);
    assert_eq!(
        response.status,
        429,
        "{}",
        String::from_utf8_lossy(&response.body)
    );
    assert!(response.headers.contains_key("retry-after"));
    assert!(String::from_utf8_lossy(&response.body).contains("at capacity"));

    // Releasing the slot makes the retry land and finish identically —
    // the shed was an answer, not a wound.
    holder.retire(held).unwrap();
    let job = loop {
        let response = post(&hostport, "/v1/jobs", &body);
        match response.status {
            202 => {
                let reply: JobReply =
                    serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
                break reply.job;
            }
            429 => std::thread::sleep(Duration::from_millis(10)), // RETIRE is async
            other => panic!("unexpected {other}"),
        }
    };
    let report = fetch_report(&hostport, job);
    assert_eq!(String::from_utf8_lossy(&report), ref_summary);

    gateway.shutdown();
    handle.drain();
    let stats = handle.join();
    assert_eq!(stats.clip_sessions, 1);
    assert_eq!(stats.sessions_finished, 1);
}

#[test]
fn gateway_job_table_cap_sheds_locally_without_dialing_the_daemon() {
    // max_jobs 0: every submission is shed at the gateway; the daemon
    // never sees a connection for them.
    let (handle, gateway, hostport) = start_pair(
        "localshed",
        GatewayConfig {
            max_jobs: 0,
            ..GatewayConfig::default()
        },
    );
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 79);
    let request = open_request(&jump, &scene, false);
    let body = job_body(&request, &jump.video);
    let response = post(&hostport, "/v1/jobs", &body);
    assert_eq!(response.status, 429);
    assert!(response.headers.contains_key("retry-after"));

    gateway.shutdown();
    handle.drain();
    let stats = handle.join();
    assert_eq!(stats.connections, 0, "local shed never dialed the daemon");
}

/// Reads from `sock` until the first blank line; returns the bytes.
fn read_head(sock: &mut TcpStream) -> Vec<u8> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        match sock.read(&mut byte).unwrap() {
            0 => break,
            _ => head.push(byte[0]),
        }
    }
    head
}

#[test]
fn expect_continue_is_answered_before_the_body_and_never_over_the_limit() {
    let (handle, gateway, hostport) = start_pair("continue", GatewayConfig::default());
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 83);
    let request = open_request(&jump, &scene, false);
    let body = job_body(&request, &jump.video);

    // The client sends the head alone and waits, as curl does for a
    // large upload, until the interim response tells it to go on.
    let mut sock = TcpStream::connect(&hostport).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: gw\r\nExpect: 100-continue\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    sock.write_all(head.as_bytes()).unwrap();
    assert_eq!(read_head(&mut sock), b"HTTP/1.1 100 Continue\r\n\r\n");
    sock.write_all(&body).unwrap();
    let mut raw = Vec::new();
    sock.read_to_end(&mut raw).unwrap();
    let response = parse_response(&raw);
    assert_eq!(
        response.status,
        202,
        "{}",
        String::from_utf8_lossy(&response.body)
    );

    // Over the limit: the final 413 comes first, with no interim
    // response before it and no body ever sent.
    let mut sock = TcpStream::connect(&hostport).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: gw\r\nExpect: 100-continue\r\n\
         Content-Length: {}\r\n\r\n",
        GatewayConfig::default().max_body + 1
    );
    sock.write_all(head.as_bytes()).unwrap();
    let mut raw = Vec::new();
    sock.read_to_end(&mut raw).unwrap();
    assert!(
        raw.starts_with(b"HTTP/1.1 413 "),
        "{}",
        String::from_utf8_lossy(&raw)
    );
    let raw = String::from_utf8_lossy(&raw);
    assert!(!raw.contains("100 Continue"), "an interim response: {raw}");

    gateway.shutdown();
    handle.drain();
    let stats = handle.join();
    assert_eq!(stats.sessions_opened, 1, "only the continued upload ran");
}

/// One open request per field class [`OpenRequest::validate`] guards,
/// as JSON text with that field replaced by an out-of-range number.
/// The number is written raw, so `1e999` arrives as infinity, which no
/// serialised `OpenRequest` can carry. Returns `(field, json)`.
fn broken_open_requests(good: &OpenRequest) -> Vec<(&'static str, String)> {
    const CASES: [(&str, &str); 12] = [
        ("camera.width", "0"),
        ("camera.pixels_per_meter", "0"),
        ("camera.ground_row", "1e999"),
        ("fps", "0"),
        ("fps", "-1e999"),
        ("dims.height", "-1.3"),
        ("dims.lengths[3]", "0"),
        ("dims.thicknesses[0]", "1e999"),
        ("first_pose.center.x", "1e999"),
        ("first_pose.angles[2]", "-1e999"),
        ("warmup", "1"),
        // One past `MAX_WARMUP`: a session buffers its warm-up window.
        ("warmup", "65"),
    ];
    CASES
        .iter()
        .map(|&(field, raw)| {
            let mut value = serde::Serialize::to_value(good);
            let slot = field
                .split(['.', '[', ']'])
                .filter(|key| !key.is_empty())
                .fold(&mut value, |node, key| match node {
                    serde::Value::Object(entries) => {
                        &mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1
                    }
                    serde::Value::Array(items) => &mut items[key.parse::<usize>().unwrap()],
                    other => panic!("{field}: no `{key}` in {other:?}"),
                });
            *slot = serde::Value::Str("RAW".to_owned());
            let json = serde_json::to_string(&value).unwrap();
            (field, json.replace("\"RAW\"", raw))
        })
        .collect()
}

#[test]
fn out_of_range_open_requests_get_400_without_dialing_the_daemon() {
    let (handle, gateway, hostport) = start_pair("badopen", GatewayConfig::default());
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 83);
    let request = open_request(&jump, &scene, false);
    let ppm = slj_video::io::ppm_stream(&jump.video);
    let cases = broken_open_requests(&request);
    for (field, json) in &cases {
        let mut body = json.clone().into_bytes();
        body.push(b'\n');
        body.extend_from_slice(&ppm);
        let response = post(&hostport, "/v1/jobs", &body);
        let text = String::from_utf8_lossy(&response.body);
        assert_eq!(response.status, 400, "bad {field}: {text}");
        assert!(text.contains(&format!("`{field}`")), "bad {field}: {text}");
    }
    let metrics = get(&hostport, "/metrics");
    let metrics = String::from_utf8_lossy(&metrics.body);
    assert!(
        metrics.contains(&format!("gateway_jobs_malformed = {}", cases.len())),
        "{metrics}"
    );

    gateway.shutdown();
    handle.drain();
    let stats = handle.join();
    assert_eq!(
        stats.connections, 0,
        "refused requests never dialed the daemon"
    );
    assert_eq!(stats.sessions_opened, 0);
    assert_eq!(stats.sessions_failed, 0);
}

#[test]
fn slowloris_readers_are_reaped_typed_while_neighbours_finish() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 83);
    let request = open_request(&jump, &scene, false);
    let ref_summary = reference(&jump, &request);
    let (handle, gateway, hostport) = start_pair(
        "slowloris",
        GatewayConfig {
            read_timeout: Duration::from_millis(200),
            ..GatewayConfig::default()
        },
    );

    // Three slowloris connections: a half request line, half headers,
    // and a stalled body. Each must be answered 408 (or just closed)
    // within the deadline, not held forever.
    let slow: Vec<_> = [
        b"GET /hea".to_vec(),
        b"GET /healthz HTTP/1.1\r\nHost: gw\r\nX-Drip".to_vec(),
        b"POST /v1/jobs HTTP/1.1\r\nHost: gw\r\nContent-Length: 100\r\n\r\nshort".to_vec(),
    ]
    .into_iter()
    .map(|prefix| {
        let hostport = hostport.clone();
        std::thread::spawn(move || {
            let mut sock = TcpStream::connect(hostport.as_str()).unwrap();
            sock.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            sock.write_all(&prefix).unwrap();
            // ...and never send the rest.
            let mut raw = Vec::new();
            sock.read_to_end(&mut raw).unwrap();
            if raw.is_empty() {
                return; // reaped with a plain close: acceptable for a dead read
            }
            let response = parse_response(&raw);
            assert_eq!(response.status, 408, "slowloris gets a typed timeout");
        })
    })
    .collect();

    // A healthy job runs to its byte-identical end through the reaping.
    let body = job_body(&request, &jump.video);
    let job = submit(&hostport, &body);
    let report = fetch_report(&hostport, job);
    assert_eq!(String::from_utf8_lossy(&report), ref_summary);

    for worker in slow {
        worker.join().unwrap();
    }
    let metrics = gateway.shutdown();
    assert_eq!(metrics.counter("gateway_reqs_timeout"), 3);
    handle.drain();
    let stats = handle.join();
    assert_eq!(stats.sessions_finished, 1);
}

#[test]
fn drain_stops_admissions_but_reports_stay_fetchable() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 89);
    let request = open_request(&jump, &scene, false);
    let ref_summary = reference(&jump, &request);
    let (handle, gateway, hostport) = start_pair("drain", GatewayConfig::default());

    // A completed job from before the drain...
    let body = job_body(&request, &jump.video);
    let job = submit(&hostport, &body);
    let report = fetch_report(&hostport, job);
    assert_eq!(String::from_utf8_lossy(&report), ref_summary);

    // ...survives the drain: admissions 503, fetches still 200.
    let response = post(&hostport, "/v1/drain", b"");
    assert_eq!(
        response.status,
        200,
        "{}",
        String::from_utf8_lossy(&response.body)
    );
    assert!(String::from_utf8_lossy(&response.body).contains("\"daemon_in_flight\":0"));
    assert_eq!(get(&hostport, "/healthz").status, 503);
    assert_eq!(post(&hostport, "/v1/jobs", &body).status, 503);
    // The drain propagated: a late wire client is refused — or, with
    // nothing in flight, the daemon has already finished draining and
    // is gone altogether.
    match Client::connect(&handle.addrs[0], ClientOptions::default()) {
        Ok(mut late) => assert!(matches!(
            late.open(&request),
            Err(slj_daemon::ClientError::Rejected { .. })
        )),
        Err(slj_daemon::ClientError::Io(_)) => {}
        Err(other) => panic!("unexpected late-connect failure: {other}"),
    }
    let report = get(&hostport, &format!("/v1/jobs/{job}"));
    assert_eq!(report.status, 200);
    assert_eq!(String::from_utf8_lossy(&report.body), ref_summary);

    gateway.shutdown();
    let stats = handle.join();
    assert_eq!(stats.sessions_finished, 1);
}
