//! Deterministic loopback chaos suite for the daemon.
//!
//! The transport contract under test: **the daemon adds transport, not
//! drift, and no client's misbehaviour may change another session's
//! bytes.** Every scenario runs a real daemon on loopback sockets (TCP
//! and Unix-domain) and asserts that healthy clients receive summary
//! JSON and `slj-trace/1` JSONL **byte-identical** to an in-process
//! [`StreamingAnalyzer`] run of the same clip and configuration, while
//! chaos — mid-frame disconnects, torn length prefixes, oversized
//! frames, unread-reply stalls — plays out on neighbouring
//! connections.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use slj::prelude::*;
use slj_daemon::{
    AckStatus, Addr, Client, ClientError, ClientOptions, Daemon, DaemonConfig, Decoder,
    OpenRequest, WireMsg, DEFAULT_MAX_FRAME, MAX_WARMUP, WIRE_SCHEMA,
};

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
/// it: pretty summary JSON + trace JSONL.
fn reference(jump: &SyntheticJump, request: &OpenRequest) -> (String, String) {
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
    (
        serde_json::to_string_pretty(&analysis.summary()).unwrap(),
        analysis.obs.render_trace(),
    )
}

/// Daemon knobs for chaos runs: supervisor budgets generous enough
/// that healthy clips never escalate, everything else default.
fn daemon_config() -> DaemonConfig {
    let mut config = DaemonConfig::default();
    config.serve.escalate_after = 30;
    config.serve.trip_after = 40;
    config
}

fn uds_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("slj-daemon-{tag}-{}.sock", std::process::id()))
}

#[test]
fn concurrent_tcp_and_unix_clients_match_the_inprocess_run() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 41);
    let request = open_request(&jump, &scene, true);
    let (ref_summary, ref_trace) = reference(&jump, &request);

    let socket = uds_path("concurrent");
    let handle = Daemon::start(
        &[
            Addr::Tcp("127.0.0.1:0".to_owned()),
            Addr::Unix(socket.clone()),
        ],
        daemon_config(),
    )
    .unwrap();
    let tcp = handle.addrs[0].clone();
    let unix = handle.addrs[1].clone();

    // Five concurrent clients, alternating transports. Each streams
    // the full clip and must get the reference bytes back.
    let workers: Vec<_> = (0..5)
        .map(|k| {
            let addr = if k % 2 == 0 {
                tcp.clone()
            } else {
                unix.clone()
            };
            let frames: Vec<_> = jump.video.iter().cloned().collect();
            let request = request.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr, ClientOptions::default()).unwrap();
                assert_eq!(client.proto(), WIRE_SCHEMA);
                client.analyze_clip(&request, &frames).unwrap()
            })
        })
        .collect();
    for worker in workers {
        let analysis = worker.join().unwrap();
        assert_eq!(analysis.summary_json, ref_summary, "summary drifted");
        assert_eq!(analysis.trace_jsonl, ref_trace, "trace drifted");
        // The terminal event streamed too (finished), and nothing else
        // for a healthy clip.
        assert!(analysis
            .events
            .iter()
            .any(|line| line.contains("\"event\":\"finished\"")));
    }

    handle.drain();
    let stats = handle.join();
    assert_eq!(stats.sessions_opened, 5);
    assert_eq!(stats.sessions_finished, 5);
    assert_eq!(stats.sessions_failed, 0);
    assert!(!socket.exists(), "drain removed the socket file");
}

#[test]
fn chaos_neighbours_do_not_stall_or_corrupt_healthy_sessions() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 43);
    let request = open_request(&jump, &scene, true);
    let (ref_summary, ref_trace) = reference(&jump, &request);

    let handle = Daemon::start(&[Addr::Tcp("127.0.0.1:0".to_owned())], daemon_config()).unwrap();
    let addr = handle.addrs[0].clone();
    let Addr::Tcp(hostport) = addr.clone() else {
        unreachable!()
    };

    // Chaos crew, all concurrent with the healthy clients below.
    let chaos: Vec<std::thread::JoinHandle<()>> = vec![
        // 1. Mid-frame disconnect: hello, open, a few frames, then the
        //    socket dies halfway through an encoded FRAME.
        {
            let addr = addr.clone();
            let frames: Vec<_> = jump.video.iter().cloned().collect();
            let request = request.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr, ClientOptions::default()).unwrap();
                let session = client.open(&request).unwrap();
                for frame in &frames[..3] {
                    client.send_frame(session, frame).unwrap();
                }
                // Half an encoded frame, then hang up.
                let encoded = slj_daemon::wire::encode_to_vec(&WireMsg::Frame {
                    session,
                    width: 4,
                    height: 4,
                    rgb: vec![0; 48],
                });
                client.send_raw(&encoded[..encoded.len() / 2]).unwrap();
                // Dropping the client closes the socket mid-frame.
            })
        },
        // 2. Torn/absurd length prefix: the decoder must reject it at
        //    the prefix with a typed OVERSIZED error, then close.
        {
            let hostport = hostport.clone();
            std::thread::spawn(move || {
                let mut raw = TcpStream::connect(hostport.as_str()).unwrap();
                raw.write_all(&slj_daemon::wire::encode_to_vec(&WireMsg::Hello {
                    proto: WIRE_SCHEMA.to_owned(),
                }))
                .unwrap();
                raw.write_all(&[0xFF, 0xFF, 0xFF, 0xFF, 0x06]).unwrap();
                let mut decoder = Decoder::new(DEFAULT_MAX_FRAME);
                let mut buf = [0u8; 4096];
                let mut saw_oversized = false;
                loop {
                    match raw.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            decoder.push(&buf[..n]);
                            while let Ok(Some(msg)) = decoder.next_msg() {
                                if let WireMsg::Error { code, .. } = msg {
                                    assert_eq!(code, slj_daemon::wire::codes::OVERSIZED);
                                    saw_oversized = true;
                                }
                            }
                        }
                    }
                }
                assert!(saw_oversized, "expected a typed OVERSIZED disconnect");
            })
        },
        // 3. Malformed body: correct prefix, unknown tag.
        {
            let hostport = hostport.clone();
            std::thread::spawn(move || {
                let mut raw = TcpStream::connect(hostport.as_str()).unwrap();
                raw.write_all(&slj_daemon::wire::encode_to_vec(&WireMsg::Hello {
                    proto: WIRE_SCHEMA.to_owned(),
                }))
                .unwrap();
                raw.write_all(&[0, 0, 0, 1, 0xEE]).unwrap();
                let mut decoder = Decoder::new(DEFAULT_MAX_FRAME);
                let mut buf = [0u8; 4096];
                let mut saw_malformed = false;
                loop {
                    match raw.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            decoder.push(&buf[..n]);
                            while let Ok(Some(msg)) = decoder.next_msg() {
                                if let WireMsg::Error { code, .. } = msg {
                                    assert_eq!(code, slj_daemon::wire::codes::MALFORMED);
                                    saw_malformed = true;
                                }
                            }
                        }
                    }
                }
                assert!(saw_malformed, "expected a typed MALFORMED disconnect");
            })
        },
        // 4. Version skew: wrong HELLO tag gets a typed refusal.
        {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let err = {
                    let mut raw = match addr {
                        Addr::Tcp(ref hp) => TcpStream::connect(hp.as_str()).unwrap(),
                        Addr::Unix(_) => unreachable!(),
                    };
                    raw.write_all(&slj_daemon::wire::encode_to_vec(&WireMsg::Hello {
                        proto: "slj-wire/99".to_owned(),
                    }))
                    .unwrap();
                    let mut decoder = Decoder::new(DEFAULT_MAX_FRAME);
                    let mut buf = [0u8; 4096];
                    let mut code = None;
                    loop {
                        match raw.read(&mut buf) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => {
                                decoder.push(&buf[..n]);
                                while let Ok(Some(msg)) = decoder.next_msg() {
                                    if let WireMsg::Error { code: c, .. } = msg {
                                        code = Some(c);
                                    }
                                }
                            }
                        }
                    }
                    code
                };
                assert_eq!(err, Some(slj_daemon::wire::codes::VERSION_MISMATCH));
            })
        },
    ];

    // Four healthy clients run *through* the chaos.
    let healthy: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
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
    for worker in healthy {
        let analysis = worker.join().unwrap();
        assert_eq!(analysis.summary_json, ref_summary, "summary corrupted");
        assert_eq!(analysis.trace_jsonl, ref_trace, "trace corrupted");
    }

    handle.drain();
    let stats = handle.join();
    assert_eq!(stats.sessions_finished, 4, "all healthy sessions finish");
    assert_eq!(
        stats.sessions_aborted, 1,
        "the mid-frame disconnect's session was aborted"
    );
    assert!(
        stats.conns_torn_down >= 3,
        "oversized, malformed and version-skew connections were torn down"
    );
}

#[test]
fn unread_replies_do_not_stall_the_daemon_and_arrive_intact() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 47);
    let request = open_request(&jump, &scene, false);
    let (ref_summary, _) = reference(&jump, &request);

    // Queue deep enough that a full-clip blast cannot hit Overloaded:
    // this test is about the reply path, not admission control.
    let mut config = daemon_config();
    config.serve.queue_depth = 64;
    let handle = Daemon::start(&[Addr::Tcp("127.0.0.1:0".to_owned())], config).unwrap();
    let addr = handle.addrs[0].clone();

    // The slow reader: opens in lockstep, then writes the entire clip
    // plus FLUSH without reading a single reply, and sleeps while the
    // daemon finishes the session into buffers nobody is draining.
    let slow = {
        let addr = addr.clone();
        let frames: Vec<_> = jump.video.iter().cloned().collect();
        let request = request.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr, ClientOptions::default()).unwrap();
            let session = client.open(&request).unwrap();
            let mut blast = Vec::new();
            for frame in &frames {
                let (w, h) = frame.dims();
                let mut rgb = Vec::with_capacity(w * h * 3);
                for px in frame.as_slice() {
                    rgb.extend_from_slice(&[px.r, px.g, px.b]);
                }
                blast.extend_from_slice(&slj_daemon::wire::encode_to_vec(&WireMsg::Frame {
                    session,
                    width: w as u32,
                    height: h as u32,
                    rgb,
                }));
            }
            blast.extend_from_slice(&slj_daemon::wire::encode_to_vec(&WireMsg::Flush {
                session,
            }));
            client.send_raw(&blast).unwrap();
            std::thread::sleep(Duration::from_millis(800));
            // Now read everything back: every ack, then the analysis —
            // unread replies were parked, not dropped and not unbounded.
            let mut acks = 0;
            loop {
                match client.recv_raw().unwrap() {
                    WireMsg::FrameAck {
                        status: AckStatus::Accepted,
                        ..
                    } => acks += 1,
                    WireMsg::FrameAck { status, .. } => panic!("unexpected ack {status:?}"),
                    WireMsg::Event { .. } => {}
                    WireMsg::Analysis { summary_json, .. } => break (acks, summary_json),
                    other => panic!("unexpected reply {}", other.name()),
                }
            }
        })
    };

    // A healthy lockstep neighbour completes *while* the slow reader is
    // asleep: nothing about the unread connection stalls the engine.
    let mut client = Client::connect(&addr, ClientOptions::default()).unwrap();
    let frames: Vec<_> = jump.video.iter().cloned().collect();
    let analysis = client.analyze_clip(&request, &frames).unwrap();
    assert_eq!(analysis.summary_json, ref_summary, "neighbour corrupted");

    let (acks, slow_summary) = slow.join().unwrap();
    assert_eq!(acks, jump.video.iter().count(), "every frame was acked");
    assert_eq!(slow_summary, ref_summary, "slow reader's bytes drifted");

    handle.drain();
    let stats = handle.join();
    assert_eq!(stats.sessions_finished, 2);
    assert_eq!(stats.conns_torn_down, 0, "nobody misbehaved enough to doom");
}

#[test]
fn stalled_connection_is_idle_reaped_with_a_typed_error() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 61);
    let request = open_request(&jump, &scene, false);
    let (ref_summary, _) = reference(&jump, &request);

    // Reap after 2 s of silence: far longer than a lockstep client's
    // inter-frame gap even with the whole test binary's scenarios
    // running in parallel, far shorter than forever.
    let mut config = daemon_config();
    config.idle_timeout_ms = 2000;
    let handle = Daemon::start(&[Addr::Tcp("127.0.0.1:0".to_owned())], config).unwrap();
    let addr = handle.addrs[0].clone();

    // The stalled client: opens, streams two frames, then goes silent
    // mid-session and just waits for the daemon's verdict.
    let stalled = {
        let addr = addr.clone();
        let frames: Vec<_> = jump.video.iter().cloned().collect();
        let request = request.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr, ClientOptions::default()).unwrap();
            let session = client.open(&request).unwrap();
            for frame in &frames[..2] {
                client.send_frame(session, frame).unwrap();
            }
            // No more writes: the reap must come to us, typed, and then
            // the socket must actually close.
            let verdict = client.recv_raw().unwrap();
            let WireMsg::Error { code, .. } = verdict else {
                panic!("expected a typed idle error, got {}", verdict.name());
            };
            assert_eq!(code, slj_daemon::wire::codes::IDLE);
            assert!(
                matches!(client.recv_raw(), Err(ClientError::Io(_))),
                "the reaped connection must be closed after the error"
            );
        })
    };

    // A healthy neighbour streams straight through the reaping.
    let mut client = Client::connect(&addr, ClientOptions::default()).unwrap();
    let frames: Vec<_> = jump.video.iter().cloned().collect();
    let analysis = client.analyze_clip(&request, &frames).unwrap();
    assert_eq!(analysis.summary_json, ref_summary, "neighbour corrupted");
    // Hang up cleanly before the reaping deadline: only the stalled
    // connection should be torn down.
    drop(client);

    stalled.join().unwrap();
    handle.drain();
    let stats = handle.join();
    assert_eq!(stats.sessions_opened, 2);
    assert_eq!(
        stats.sessions_finished, 1,
        "only the healthy session finishes"
    );
    assert_eq!(stats.sessions_aborted, 1, "the stalled session was aborted");
    assert_eq!(stats.conns_torn_down, 1, "exactly the idle connection");
}

#[test]
fn drain_refuses_new_opens_and_finishes_in_flight() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 53);
    let request = open_request(&jump, &scene, false);
    let (ref_summary, _) = reference(&jump, &request);

    let handle = Daemon::start(&[Addr::Tcp("127.0.0.1:0".to_owned())], daemon_config()).unwrap();
    let addr = handle.addrs[0].clone();

    // An in-flight session...
    let mut streaming = Client::connect(&addr, ClientOptions::default()).unwrap();
    let session = streaming.open(&request).unwrap();
    let frames: Vec<_> = jump.video.iter().cloned().collect();
    for frame in &frames[..4] {
        streaming.send_frame(session, frame).unwrap();
    }

    // ...survives a drain issued over the wire by an operator client,
    let mut admin = Client::connect(&addr, ClientOptions::default()).unwrap();
    let in_flight = admin.drain().unwrap();
    assert_eq!(in_flight, 1);
    // ...which also refuses that operator's own late open,
    match admin.open(&request) {
        Err(ClientError::Rejected { reason }) => {
            assert!(
                reason.contains("draining"),
                "typed drain rejection: {reason}"
            )
        }
        other => panic!("open during drain must be Rejected, got {other:?}"),
    }

    // ...while the in-flight session runs to its byte-identical end.
    for frame in &frames[4..] {
        streaming.send_frame(session, frame).unwrap();
    }
    let analysis = streaming.flush(session).unwrap();
    assert_eq!(analysis.summary_json, ref_summary);

    let stats = handle.join();
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.sessions_finished, 1);
}

#[test]
fn clip_ingestion_matches_streamed_and_inprocess_runs() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 67);
    let request = open_request(&jump, &scene, true);
    let (ref_summary, ref_trace) = reference(&jump, &request);

    let socket = uds_path("clip");
    let handle = Daemon::start(
        &[
            Addr::Tcp("127.0.0.1:0".to_owned()),
            Addr::Unix(socket.clone()),
        ],
        daemon_config(),
    )
    .unwrap();
    let tcp = handle.addrs[0].clone();
    let unix = handle.addrs[1].clone();

    // Clip-ingest clients (daemon-side decode) run concurrently with a
    // lockstep frame-streaming client: all three transports of the same
    // clip must land on identical bytes.
    let workers: Vec<_> = (0..3)
        .map(|k| {
            let addr = if k % 2 == 0 {
                tcp.clone()
            } else {
                unix.clone()
            };
            let request = request.clone();
            let ppm = slj_video::io::ppm_stream(&jump.video);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr, ClientOptions::default()).unwrap();
                client.analyze_clip_ppm(&request, ppm).unwrap()
            })
        })
        .collect();
    let mut lockstep = Client::connect(&tcp, ClientOptions::default()).unwrap();
    let frames: Vec<_> = jump.video.iter().cloned().collect();
    let streamed = lockstep.analyze_clip(&request, &frames).unwrap();
    assert_eq!(streamed.summary_json, ref_summary);

    for worker in workers {
        let analysis = worker.join().unwrap();
        assert_eq!(analysis.summary_json, ref_summary, "clip summary drifted");
        assert_eq!(analysis.trace_jsonl, ref_trace, "clip trace drifted");
        assert!(analysis
            .events
            .iter()
            .any(|line| line.contains("\"event\":\"finished\"")));
    }

    // A clip that does not decode is Rejected before any session is
    // opened: no slot is consumed and the connection stays usable.
    let mut client = Client::connect(&tcp, ClientOptions::default()).unwrap();
    match client.open_clip(&request, b"P6\n9999 9999\n255\nxy") {
        Err(ClientError::Rejected { reason }) => {
            assert!(
                reason.contains("clip does not decode"),
                "typed decode rejection: {reason}"
            );
        }
        other => panic!("malformed clip must be Rejected, got {other:?}"),
    }
    // Same connection immediately ingests a good clip: the rejection
    // was a reply, not a teardown.
    let retry = client
        .analyze_clip_ppm(&request, slj_video::io::ppm_stream(&jump.video))
        .unwrap();
    assert_eq!(retry.summary_json, ref_summary);

    handle.drain();
    let stats = handle.join();
    assert_eq!(
        stats.sessions_opened, 5,
        "the malformed clip never opened a session"
    );
    assert_eq!(stats.clip_sessions, 4);
    assert_eq!(stats.sessions_finished, 5);
    assert_eq!(stats.sessions_failed, 0);
    assert_eq!(stats.conns_torn_down, 0);
}

#[test]
fn retire_mid_stream_recycles_into_an_identical_fresh_session() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 59);
    let request = open_request(&jump, &scene, true);
    let (ref_summary, ref_trace) = reference(&jump, &request);

    // max_sessions 1: the second open can only land in the slot the
    // retired session vacated (recycled via the serve-layer slot pool).
    let mut config = daemon_config();
    config.serve.max_sessions = 1;
    let handle = Daemon::start(&[Addr::Tcp("127.0.0.1:0".to_owned())], config).unwrap();
    let addr = handle.addrs[0].clone();

    let mut client = Client::connect(&addr, ClientOptions::default()).unwrap();
    let frames: Vec<_> = jump.video.iter().cloned().collect();
    let abandoned = client.open(&request).unwrap();
    for frame in &frames[..7] {
        client.send_frame(abandoned, frame).unwrap();
    }
    client.retire(abandoned).unwrap();

    // The replacement session must produce the reference bytes — the
    // recycled slot is invisible. (The open retries briefly: RETIRE is
    // asynchronous, so the slot frees on the engine's next pass.)
    let analysis = loop {
        match client.open(&request) {
            Ok(session) => {
                for frame in &frames {
                    client.send_frame(session, frame).unwrap();
                }
                break client.flush(session).unwrap();
            }
            Err(ClientError::Rejected { .. }) => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(other) => panic!("unexpected open failure: {other}"),
        }
    };
    assert_eq!(analysis.summary_json, ref_summary, "recycled slot drifted");
    assert_eq!(analysis.trace_jsonl, ref_trace, "recycled trace drifted");

    handle.drain();
    let stats = handle.join();
    assert_eq!(stats.sessions_opened, 2);
    assert_eq!(stats.sessions_aborted, 1, "the retired session was aborted");
    assert_eq!(stats.sessions_finished, 1);
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
fn out_of_range_open_requests_are_rejected_before_admission() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 71);
    let request = open_request(&jump, &scene, false);
    // The warm-up cap is inclusive; the table below sends one past it.
    let at_cap = OpenRequest {
        warmup: MAX_WARMUP,
        ..request.clone()
    };
    assert_eq!(at_cap.validate(), Ok(()));
    let handle = Daemon::start(&[Addr::Tcp("127.0.0.1:0".to_owned())], daemon_config()).unwrap();
    let mut client = Client::connect(&handle.addrs[0], ClientOptions::default()).unwrap();
    let ppm = slj_video::io::ppm_stream(&jump.video);

    // Each broken field, as a streamed OPEN and as an OPEN_CLIP, gets a
    // typed rejection naming it on the same connection.
    for (field, config_json) in broken_open_requests(&request) {
        for msg in [
            WireMsg::Open {
                config_json: config_json.clone(),
            },
            WireMsg::OpenClip {
                config_json,
                ppm: ppm.clone(),
            },
        ] {
            let kind = msg.name();
            client
                .send_raw(&slj_daemon::wire::encode_to_vec(&msg))
                .unwrap();
            match client.recv_raw().unwrap() {
                WireMsg::Rejected { reason } => assert!(
                    reason.contains(&format!("`{field}`")),
                    "{kind} with bad {field}: {reason}"
                ),
                other => panic!("{kind} with bad {field} must be Rejected, got {other:?}"),
            }
        }
    }

    handle.drain();
    let stats = handle.join();
    // No session ever opened, so none could step, fail or panic under
    // the supervisor.
    assert_eq!(stats.sessions_opened, 0);
    assert_eq!(stats.sessions_failed, 0);
    assert_eq!(stats.sessions_aborted, 0);
    assert_eq!(stats.conns_torn_down, 0);
}

#[test]
fn work_never_waits_for_the_heartbeat() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 71);
    let request = open_request(&jump, &scene, true);
    let (ref_summary, ref_trace) = reference(&jump, &request);

    // A minute-long heartbeat: any pass that waited for it with work
    // queued would stall the test by a minute. A clip session always
    // has its next frame queued, and a lockstep FRAME wakes the engine
    // itself, so neither job ever needs the heartbeat.
    let mut config = daemon_config();
    config.tick_wait_ms = 60_000;
    let started = std::time::Instant::now();
    let handle = Daemon::start(&[Addr::Tcp("127.0.0.1:0".to_owned())], config).unwrap();
    let addr = handle.addrs[0].clone();

    let clip = {
        let addr = addr.clone();
        let request = request.clone();
        let ppm = slj_video::io::ppm_stream(&jump.video);
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr, ClientOptions::default()).unwrap();
            client.analyze_clip_ppm(&request, ppm).unwrap()
        })
    };
    let mut lockstep = Client::connect(&addr, ClientOptions::default()).unwrap();
    let frames: Vec<_> = jump.video.iter().cloned().collect();
    let streamed = lockstep.analyze_clip(&request, &frames).unwrap();
    let clipped = clip.join().unwrap();
    for (what, analysis) in [("lockstep", &streamed), ("clip", &clipped)] {
        assert_eq!(analysis.summary_json, ref_summary, "{what} summary drifted");
        assert_eq!(analysis.trace_jsonl, ref_trace, "{what} trace drifted");
    }

    // Once the clients hang up and the acceptor is released, the
    // request channel disconnects and the engine drains at once.
    drop(lockstep);
    handle.drain();
    let stats = handle.join();
    assert_eq!(stats.sessions_finished, 2);
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "a pass waited for the 60 s heartbeat with work queued"
    );
}

#[test]
fn an_idle_session_ticks_at_the_heartbeat_not_faster() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 73);
    let request = open_request(&jump, &scene, false);

    let config = daemon_config();
    let heartbeat_ms = config.tick_wait_ms;
    let started = std::time::Instant::now();
    let handle = Daemon::start(&[Addr::Tcp("127.0.0.1:0".to_owned())], config).unwrap();
    let mut client = Client::connect(&handle.addrs[0], ClientOptions::default()).unwrap();
    client.open(&request).unwrap();
    // One open session whose producer sends nothing.
    std::thread::sleep(Duration::from_millis(500));
    drop(client);
    handle.drain();
    let stats = handle.join();
    let elapsed_ms = started.elapsed().as_millis() as u64;

    // A tick that progressed nothing is followed by a wait of at least
    // one heartbeat unless a request arrives, and this client sends
    // four (connect, HELLO, OPEN, hang-up). A spinning engine would
    // tick hundreds of thousands of times here.
    assert!(stats.ticks >= 1, "the quiet session was ticked");
    assert!(
        stats.ticks <= elapsed_ms / heartbeat_ms + 8,
        "{} ticks in {elapsed_ms} ms at a {heartbeat_ms} ms heartbeat",
        stats.ticks
    );
    assert_eq!(stats.sessions_aborted, 1, "the hang-up aborted the session");
}

#[test]
fn a_wire_drain_reply_is_written_before_join_returns() {
    use std::os::unix::net::UnixStream;

    // An operator sends DRAIN but reads nothing until the daemon has
    // fully stopped. The unparseable opens ahead of it queue a backlog
    // of REJECTED replies (fewer than the reply channel holds), so the
    // writer can still be busy when the engine exits; the cycles give a
    // join that does not wait for it every chance to show.
    let rejected = 48;
    let mut burst = slj_daemon::wire::encode_to_vec(&WireMsg::Hello {
        proto: WIRE_SCHEMA.to_owned(),
    });
    for _ in 0..rejected {
        burst.extend(slj_daemon::wire::encode_to_vec(&WireMsg::Open {
            config_json: "{}".to_owned(),
        }));
    }
    burst.extend(slj_daemon::wire::encode_to_vec(&WireMsg::Drain));
    let mut expected = vec!["HELLO_OK"];
    expected.extend(std::iter::repeat_n("REJECTED", rejected));
    expected.extend(["DRAINING", "BYE"]);

    let socket = uds_path("drain-reply");
    for cycle in 0..500 {
        let handle = Daemon::start(&[Addr::Unix(socket.clone())], daemon_config()).unwrap();
        let mut raw = UnixStream::connect(&socket).unwrap();
        raw.write_all(&burst).unwrap();
        handle.join();

        // Every reply is already in the socket, followed by the close:
        // a nonblocking read never has to wait.
        raw.set_nonblocking(true).unwrap();
        let mut decoder = Decoder::new(DEFAULT_MAX_FRAME);
        let mut replies = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match raw.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    decoder.push(&buf[..n]);
                    while let Some(msg) = decoder.next_msg().unwrap() {
                        replies.push(msg);
                    }
                }
                Err(e) => panic!("cycle {cycle}: read after join() returned {e}"),
            }
        }
        let names: Vec<&str> = replies.iter().map(WireMsg::name).collect();
        assert_eq!(names, expected, "cycle {cycle}");
        assert_eq!(replies[rejected + 1], WireMsg::Draining { in_flight: 0 });
        assert!(!socket.exists(), "drain removed the socket file");
    }
}

/// Reads replies off a raw connection until it closes and returns the
/// code of the typed `ERROR` it ended with.
fn closing_error_code(raw: &mut TcpStream) -> Option<u16> {
    let mut decoder = Decoder::new(DEFAULT_MAX_FRAME);
    let mut buf = [0u8; 4096];
    let mut code = None;
    loop {
        match raw.read(&mut buf) {
            Ok(0) | Err(_) => return code,
            Ok(n) => {
                decoder.push(&buf[..n]);
                while let Ok(Some(msg)) = decoder.next_msg() {
                    if let WireMsg::Error { code: c, .. } = msg {
                        code = Some(c);
                    }
                }
            }
        }
    }
}

#[test]
fn a_streamed_clip_keeps_every_edge_check() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 89);
    let request = open_request(&jump, &scene, false);
    let (ref_summary, _) = reference(&jump, &request);
    let config_json = serde_json::to_string(&request).unwrap();
    let ppm = slj_video::io::ppm_stream(&jump.video);
    let open_clip = slj_daemon::wire::encode_to_vec(&WireMsg::OpenClip {
        config_json: config_json.clone(),
        ppm: ppm.clone(),
    });
    let hello = slj_daemon::wire::encode_to_vec(&WireMsg::Hello {
        proto: WIRE_SCHEMA.to_owned(),
    });

    let mut config = daemon_config();
    config.idle_timeout_ms = 2000;
    let handle = Daemon::start(&[Addr::Tcp("127.0.0.1:0".to_owned())], config).unwrap();
    let addr = handle.addrs[0].clone();
    let Addr::Tcp(hostport) = addr.clone() else {
        unreachable!()
    };

    // A clip torn into pieces that split the open request, a PPM header
    // and a pixel, with pauses between them, decodes as one.
    let mut client = Client::connect(&addr, ClientOptions::default()).unwrap();
    let frame_bytes = ppm.len() / jump.video.len();
    let head = open_clip.len() - ppm.len();
    for cut in [
        (0, head / 2),
        (head / 2, head + 5),
        (head + 5, head + frame_bytes + 17),
        (head + frame_bytes + 17, open_clip.len()),
    ] {
        client.send_raw(&open_clip[cut.0..cut.1]).unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    let WireMsg::Opened { session } = client.recv_raw().unwrap() else {
        panic!("a torn clip must still be admitted")
    };
    assert_eq!(
        client.await_result(session).unwrap().summary_json,
        ref_summary
    );

    // A clip broken at frame 5 is refused by name, and the connection
    // keeps its framing: the same client then runs a good clip.
    let mut broken = ppm.clone();
    broken[5 * frame_bytes] = b'Q';
    match client.open_clip(&request, &broken) {
        Err(ClientError::Rejected { reason }) => assert!(
            reason.contains("clip does not decode") && reason.contains("clip frame 5"),
            "{reason}"
        ),
        other => panic!("a broken clip must be Rejected, got {other:?}"),
    }
    let retry = client.analyze_clip_ppm(&request, &ppm).unwrap();
    assert_eq!(retry.summary_json, ref_summary);
    drop(client);

    // OPEN_CLIP before HELLO is a state error, clip and all.
    let mut raw = TcpStream::connect(hostport.as_str()).unwrap();
    raw.write_all(&open_clip).unwrap();
    assert_eq!(
        closing_error_code(&mut raw),
        Some(slj_daemon::wire::codes::BAD_STATE)
    );

    // A length prefix over the bound is refused at the prefix, before
    // any of the clip exists.
    let mut raw = TcpStream::connect(hostport.as_str()).unwrap();
    raw.write_all(&hello).unwrap();
    raw.write_all(&((DEFAULT_MAX_FRAME + 1) as u32).to_be_bytes())
        .unwrap();
    raw.write_all(&open_clip[4..5]).unwrap();
    assert_eq!(
        closing_error_code(&mut raw),
        Some(slj_daemon::wire::codes::OVERSIZED)
    );

    // An upload that stalls inside its clip is reaped by the idle rule.
    let mut raw = TcpStream::connect(hostport.as_str()).unwrap();
    raw.write_all(&hello).unwrap();
    raw.write_all(&open_clip[..head + frame_bytes / 2]).unwrap();
    assert_eq!(
        closing_error_code(&mut raw),
        Some(slj_daemon::wire::codes::IDLE)
    );

    handle.drain();
    let stats = handle.join();
    assert_eq!(stats.sessions_opened, 2, "refused clips opened nothing");
    assert_eq!(stats.clip_sessions, 2);
    assert_eq!(stats.sessions_finished, 2);
    assert_eq!(stats.conns_torn_down, 3);
}
