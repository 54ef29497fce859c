//! Clip ingestion allocation regression test: a clip job crosses the
//! gateway, the wire and the daemon without a clip-sized copy.
//!
//! An in-process daemon and gateway serve compact 160x120x20 clips
//! (1.15 MB each). After warm-up jobs on both paths have filled the
//! daemon's session slot pool, one job on each path is watched for
//! allocations at least as large as one HSV plane of the prepared
//! background, `w * h * size_of::<Hsv>()` = 460 800 B:
//!
//! * an `OPEN_CLIP` sent from a slice makes none. The client writes the
//!   clip where it lies, the daemon decodes it straight off the socket
//!   into frame-sized buffers, and the session reuses its slot's
//!   prepared background;
//! * an HTTP job makes exactly one, the request body, which the gateway
//!   forwards in place.
//!
//! The tally is process-wide (`tests/support/counting_alloc.rs`), so
//! this file is its own test binary with a single `#[test]`.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use counting_alloc::{watch, watched};
use slj::prelude::*;
use slj_daemon::{Addr, Client, ClientOptions, Daemon, DaemonConfig, OpenRequest};
use slj_gateway::{Gateway, GatewayConfig};
use slj_imgproc::Hsv;

/// Warm-up jobs per path before the watched ones.
const WARM: usize = 2;

/// One HTTP exchange on a fresh connection: `(status, body)`.
fn exchange(hostport: &str, request: &[u8]) -> (u16, Vec<u8>) {
    let mut sock = TcpStream::connect(hostport).unwrap();
    sock.write_all(request).unwrap();
    let mut raw = Vec::new();
    sock.read_to_end(&mut raw).unwrap();
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("a complete response head");
    let status = String::from_utf8_lossy(&raw[..head_end])
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("a status code");
    (status, raw[head_end + 4..].to_vec())
}

/// Submits `request` to the gateway and polls until the report is
/// ready; returns the report.
fn http_job(hostport: &str, request: &[u8]) -> String {
    let (status, admitted) = exchange(hostport, request);
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&admitted));
    let admitted = String::from_utf8(admitted).unwrap();
    let id: u64 = admitted
        .trim()
        .strip_prefix("{\"job\":")
        .and_then(|rest| rest.split(',').next())
        .and_then(|id| id.parse().ok())
        .unwrap_or_else(|| panic!("no job id in {admitted}"));
    let poll = format!("GET /v1/jobs/{id} HTTP/1.1\r\nHost: gw\r\n\r\n");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = exchange(hostport, poll.as_bytes());
        match status {
            200 => return String::from_utf8(body).unwrap(),
            202 => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("job {id}: {other} {}", String::from_utf8_lossy(&body)),
        }
    }
}

#[test]
fn a_clip_job_allocates_no_clip_sized_copy() {
    let scene = SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::clean()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 33);
    let (width, height) = jump.video.frames()[0].dims();
    let hsv_plane = width * height * std::mem::size_of::<Hsv>();
    assert_eq!(hsv_plane, 460_800, "the compact camera is 160x120");

    let open = OpenRequest {
        camera: scene.camera,
        dims: BodyDims::default(),
        first_pose: jump.poses.poses()[0],
        fps: jump.video.fps(),
        warmup: 8,
        fast: true,
        max_degraded: Some(10),
        want_trace: false,
    };
    let ppm = slj_video::io::ppm_stream(&jump.video);
    let mut body = serde_json::to_string(&open).unwrap().into_bytes();
    body.push(b'\n');
    body.extend_from_slice(&ppm);
    let mut request = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: gw\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(&body);

    let daemon = Daemon::start(
        &[Addr::Tcp("127.0.0.1:0".to_owned())],
        DaemonConfig::default(),
    )
    .unwrap();
    let gateway = Gateway::start(
        &Addr::Tcp("127.0.0.1:0".to_owned()),
        daemon.addrs[0].clone(),
        GatewayConfig::default(),
    )
    .unwrap();
    let Addr::Tcp(hostport) = gateway.addr.clone() else {
        unreachable!("bound on TCP")
    };
    let wire_job = || {
        Client::connect(&daemon.addrs[0], ClientOptions::default())
            .unwrap()
            .analyze_clip_ppm(&open, &ppm[..])
            .unwrap()
            .summary_json
    };

    for _ in 0..WARM {
        wire_job();
        http_job(&hostport, &request);
    }

    watch(hsv_plane);
    let wire_report = wire_job();
    let seen = watched();
    assert_eq!(
        seen.count, 0,
        "an OPEN_CLIP job made {} allocations of at least {hsv_plane} B: {:?} (largest {})",
        seen.count, seen.sizes, seen.largest
    );

    watch(hsv_plane);
    let http_report = http_job(&hostport, &request);
    let seen = watched();
    assert_eq!(
        seen.sizes,
        vec![body.len()],
        "an HTTP job must allocate exactly one buffer of at least {hsv_plane} B, \
         its {}-byte request body",
        body.len()
    );
    assert_eq!(seen.count, 1);
    assert_eq!(wire_report, http_report, "both paths serve the same report");

    gateway.shutdown();
    daemon.drain();
    daemon.join();
}
