//! End-to-end tests of the CLI workflow: synth → score → analyze, all
//! through the public `run` entry point (as the binary would call it).

use slj_cli::{run, CliError};
use std::path::PathBuf;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_owned).collect()
}

fn invoke(cmd: &str) -> Result<String, CliError> {
    let mut out = Vec::new();
    run(&argv(cmd), &mut out)?;
    Ok(String::from_utf8(out).expect("utf-8 output"))
}

fn temp_clip(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slj_cli_test_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn help_prints_usage() {
    let text = invoke("help").unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("synth"));
    assert!(text.contains("analyze"));
    // No args behaves like help.
    let mut out = Vec::new();
    run(&[], &mut out).unwrap();
    assert!(!out.is_empty());
}

#[test]
fn unknown_command_is_usage_error() {
    let err = invoke("frobnicate").unwrap_err();
    assert!(matches!(err, CliError::Usage(_)));
    assert!(err.to_string().contains("frobnicate"));
}

#[test]
fn flaws_lists_all_seven() {
    let text = invoke("flaws").unwrap();
    for name in [
        "shallow-crouch",
        "no-neck-bend",
        "no-arm-swing-back",
        "straight-arms",
        "stiff-landing",
        "upright-trunk",
        "arms-stay-back",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn synth_then_score_reports_the_injected_fault() {
    let dir = temp_clip("synth_score");
    let synth_out = invoke(&format!(
        "synth --out {} --seed 5 --compact --clean --flaws shallow-crouch",
        dir.display()
    ))
    .unwrap();
    assert!(synth_out.contains("20 frames"));
    assert!(synth_out.contains("shallow-crouch"));
    assert!(dir.join("clip.json").exists());
    assert!(dir.join("truth.json").exists());
    assert!(dir.join("frame_0000.ppm").exists());

    let score_out = invoke(&format!("score --clip {}", dir.display())).unwrap();
    assert!(score_out.contains("Score: 6/7"), "{score_out}");
    assert!(score_out.contains("R1"), "{score_out}");
    assert!(score_out.contains("Bend your knees"), "{score_out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_runs_the_full_pipeline_and_writes_report() {
    let dir = temp_clip("analyze");
    invoke(&format!("synth --out {} --seed 6 --compact", dir.display())).unwrap();
    let report_path = dir.join("report.json");
    let md_path = dir.join("report.md");
    let text = invoke(&format!(
        "analyze --clip {} --fast --report {} --report-md {}",
        dir.display(),
        report_path.display(),
        md_path.display()
    ))
    .unwrap();
    assert!(text.contains("Score:"), "{text}");
    assert!(text.contains("phase timeline:"), "{text}");
    assert!(text.contains("rule traces:"), "{text}");
    assert!(
        text.contains('F'),
        "timeline should contain flight frames: {text}"
    );
    assert!(text.contains("measured jump:"), "{text}");
    assert!(text.contains("vs ground truth"), "{text}");
    let json = std::fs::read_to_string(&report_path).unwrap();
    let summary: slj::AnalysisSummary = serde_json::from_str(&json).unwrap();
    assert_eq!(summary.frames, 20);
    let md = std::fs::read_to_string(&md_path).unwrap();
    assert!(md.contains("# Standing long jump"), "{md}");
    assert!(md.contains("## Measurement"), "{md}");
    assert!(summary.score >= 5, "pipeline scored only {}", summary.score);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_half_res_works() {
    let dir = temp_clip("half_res");
    invoke(&format!("synth --out {} --seed 8", dir.display())).unwrap();
    let text = invoke(&format!(
        "analyze --clip {} --fast --half-res",
        dir.display()
    ))
    .unwrap();
    assert!(text.contains("half resolution (160x120)"), "{text}");
    assert!(text.contains("Score:"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_injects_faults_and_recovers_in_best_effort_mode() {
    let dir = temp_clip("faults");
    invoke(&format!(
        "synth --out {} --seed 9 --compact --clean",
        dir.display()
    ))
    .unwrap();
    let text = invoke(&format!(
        "analyze --clip {} --fast --inject-faults bars=6,seed=3 --best-effort --max-degraded 12",
        dir.display()
    ))
    .unwrap();
    assert!(text.contains("injected faults into"), "{text}");
    assert!(text.contains("frame health:"), "{text}");
    assert!(text.contains("Score:"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_fault_flags_are_validated() {
    let err = invoke("analyze --clip nowhere --inject-faults nonsense=1").unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");
    let err = invoke("analyze --clip nowhere --max-degraded 3").unwrap_err();
    assert!(
        err.to_string().contains("--best-effort"),
        "--max-degraded without --best-effort should explain itself: {err}"
    );
}

#[test]
fn synth_validates_inputs() {
    let dir = temp_clip("validate");
    for bad in [
        format!("synth --out {} --frames 1", dir.display()),
        format!("synth --out {} --height 9", dir.display()),
        format!("synth --out {} --flaws backflip", dir.display()),
        "synth".to_owned(),
        format!("synth --out {} --bogus 1", dir.display()),
    ] {
        let err = invoke(&bad).unwrap_err();
        assert!(
            matches!(err, CliError::Usage(_)),
            "{bad} should be usage error"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_threads_flag_is_a_usage_error() {
    // One analysis runs on one thread; `--threads` belongs to the
    // commands that run many sessions or eval cells at once. The flag
    // is refused before the clip directory is read.
    for spec in ["2", "auto", "serial"] {
        let err = invoke(&format!("analyze --clip nowhere --fast --threads {spec}")).unwrap_err();
        assert!(
            matches!(err, CliError::Usage(_)) && err.to_string().contains("unknown flag --threads"),
            "--threads {spec} should be an unknown flag: {err}"
        );
    }
}

#[test]
fn analyze_stream_reports_warmup_and_scores() {
    let dir = temp_clip("stream");
    invoke(&format!(
        "synth --out {} --seed 14 --compact --clean",
        dir.display()
    ))
    .unwrap();
    // The warmup background ghosts the jumper's standing spot, so a
    // flight frame or two trips the calibrated quality gate; a small
    // best-effort budget keeps the strict failure path out of the way.
    let text = invoke(&format!(
        "analyze --clip {} --fast --stream --best-effort --max-degraded 3",
        dir.display()
    ))
    .unwrap();
    assert!(text.contains("background locked after 14 frames"), "{text}");
    assert!(text.contains("Score:"), "{text}");
    assert!(text.contains("frame health:"), "{text}");
    // A custom warmup window moves the lock point. A window this short
    // degrades some early frames (the jumper is still part of the
    // background estimate), so tolerate them.
    let text = invoke(&format!(
        "analyze --clip {} --fast --stream --warmup 6 --best-effort --max-degraded 20",
        dir.display()
    ))
    .unwrap();
    assert!(text.contains("background locked after 6 frames"), "{text}");
    // The JSON summary works in streaming mode too.
    let report_path = dir.join("stream_report.json");
    invoke(&format!(
        "analyze --clip {} --fast --stream --best-effort --max-degraded 3 --report {}",
        dir.display(),
        report_path.display()
    ))
    .unwrap();
    let json = std::fs::read_to_string(&report_path).unwrap();
    let summary: slj::AnalysisSummary = serde_json::from_str(&json).unwrap();
    assert_eq!(summary.frames, 20);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_stream_flags_are_validated() {
    let err = invoke("analyze --clip nowhere --warmup 10").unwrap_err();
    assert!(
        err.to_string().contains("--stream"),
        "--warmup without --stream should explain itself: {err}"
    );
    let err = invoke("analyze --clip nowhere --stream --report-md out.md").unwrap_err();
    assert!(
        matches!(err, CliError::Usage(_)) && err.to_string().contains("stage masks"),
        "--stream with --report-md should explain itself: {err}"
    );
}

#[test]
fn analyze_rejects_conflicting_modes_and_missing_clip() {
    let err = invoke("analyze --clip nowhere --fast --paper").unwrap_err();
    assert!(matches!(err, CliError::Usage(_)));
    let err = invoke("analyze --clip definitely_missing_dir_12345").unwrap_err();
    assert!(!matches!(err, CliError::Usage(_)));
}

#[test]
fn eval_flags_are_validated() {
    // Exactly one of the two modes is required.
    let err = invoke("eval").unwrap_err();
    assert!(
        matches!(err, CliError::Usage(_)) && err.to_string().contains("--matrix"),
        "modeless eval should name both modes: {err}"
    );
    let err = invoke("eval --sweep --matrix small").unwrap_err();
    assert!(
        matches!(err, CliError::Usage(_)) && err.to_string().contains("exclusive"),
        "--sweep with --matrix should explain itself: {err}"
    );
    let err = invoke("eval --matrix medium").unwrap_err();
    assert!(
        matches!(err, CliError::Usage(_)) && err.to_string().contains("'medium'"),
        "a bad matrix size should be echoed back: {err}"
    );
    let err = invoke("eval --sweep --summary-md out.md").unwrap_err();
    assert!(
        matches!(err, CliError::Usage(_)) && err.to_string().contains("--summary-md"),
        "--summary-md without --matrix should explain itself: {err}"
    );
    let err = invoke("eval --matrix small --threads lots").unwrap_err();
    assert!(
        matches!(err, CliError::Usage(_)) && err.to_string().contains("--threads"),
        "a bad thread count should be a usage error: {err}"
    );
}

#[test]
fn eval_matrix_small_writes_schema_tagged_report() {
    let dir = temp_clip("eval_matrix");
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("EVAL_accuracy.json");
    let md_path = dir.join("EVAL_accuracy.md");
    let text = invoke(&format!(
        "eval --matrix small --out {} --summary-md {}",
        json_path.display(),
        md_path.display()
    ))
    .unwrap();
    assert!(text.contains("Interpolation A/B"), "summary in:\n{text}");
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"slj-eval/1\""), "schema tag in report");
    let md = std::fs::read_to_string(&md_path).unwrap();
    assert!(md.contains("occlusion-dropout"), "profiles in summary");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_streams_sessions_and_writes_health_events() {
    let dir = temp_clip("serve");
    invoke(&format!(
        "synth --out {} --seed 21 --compact --clean",
        dir.display()
    ))
    .unwrap();
    let events_path = dir.join("events.jsonl");
    let text = invoke(&format!(
        "serve --clip {} --sessions 4 --fast --best-effort --threads serial \
         --inject-faults bars=1,seed=9 --events {}",
        dir.display(),
        events_path.display()
    ))
    .unwrap();
    // Session 0 streams the clip as stored; 1..3 get seeded faults.
    assert!(text.contains("session 1: faults injected into"), "{text}");
    assert!(text.contains("session 3: faults injected into"), "{text}");
    assert!(text.contains("service: 4 sessions"), "{text}");
    assert!(text.contains("session 0: finished — 20 frames"), "{text}");
    let jsonl = std::fs::read_to_string(&events_path).unwrap();
    let header = jsonl.lines().next().unwrap();
    assert!(header.contains("\"schema\":\"slj-serve/1\""), "{header}");
    assert!(jsonl.contains("\"event\":\"finished\""), "{jsonl}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_is_byte_identical_across_thread_counts() {
    let dir = temp_clip("serve_threads");
    invoke(&format!(
        "synth --out {} --seed 22 --compact --clean",
        dir.display()
    ))
    .unwrap();
    let run = |tag: &str, spec: &str| {
        let events = dir.join(format!("events_{tag}.jsonl"));
        let text = invoke(&format!(
            "serve --clip {} --sessions 3 --fast --best-effort --threads {spec} \
             --inject-faults bars=1,seed=5 --events {}",
            dir.display(),
            events.display()
        ))
        .unwrap();
        (text, std::fs::read_to_string(&events).unwrap())
    };
    let serial = run("serial", "serial");
    for (tag, spec) in [("2", "2"), ("auto", "auto")] {
        let other = run(tag, spec);
        // The event files differ only in the path echoed on stdout, so
        // compare the JSONL byte-for-byte and stdout minus that line.
        assert_eq!(serial.1, other.1, "--threads {spec} changed the events");
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("health events"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip(&serial.0),
            strip(&other.0),
            "--threads {spec} changed the summary"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_flags_are_validated() {
    let err = invoke("serve --clip nowhere --sessions 0").unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");
    let err = invoke("serve --clip nowhere --sessions 4 --max-sessions 2").unwrap_err();
    assert!(
        matches!(err, CliError::Usage(_)) && err.to_string().contains("--max-sessions"),
        "an under-sized session cap should explain itself: {err}"
    );
    let err = invoke("serve --clip nowhere --queue-depth 0").unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");
    let err = invoke("serve --clip nowhere --max-degraded 3").unwrap_err();
    assert!(
        err.to_string().contains("--best-effort"),
        "--max-degraded without --best-effort should explain itself: {err}"
    );
    let err = invoke("serve --clip nowhere --inject-faults nonsense=1").unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");
    // The manager's executor and slot recycling are not configurable.
    for (flag, value) in [("--worker-mode", "spawn"), ("--slot-pool", "off")] {
        let err = invoke(&format!("serve --clip nowhere {flag} {value}")).unwrap_err();
        assert!(
            matches!(err, CliError::Usage(_))
                && err.to_string().contains(&format!("unknown flag {flag}")),
            "{flag} should be an unknown flag: {err}"
        );
    }
}

#[test]
fn gateway_serves_a_clip_over_http_byte_identical_to_analyze() {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let dir = temp_clip("gateway");
    let clip = dir.to_string_lossy().into_owned();
    invoke(&format!("synth --out {clip} --seed 31 --compact --clean")).unwrap();
    let report_path = dir.join("report.json");
    // A small best-effort budget tolerates the warmup background
    // ghosting a flight frame or two (see the stream analyze test).
    invoke(&format!(
        "analyze --clip {clip} --stream --fast --best-effort --max-degraded 10 --report {}",
        report_path.display()
    ))
    .unwrap();
    let reference = std::fs::read_to_string(&report_path).unwrap();

    let daemon_sock = std::env::temp_dir().join(format!("slj-cli-gwd-{}.sock", std::process::id()));
    let gateway_sock =
        std::env::temp_dir().join(format!("slj-cli-gwg-{}.sock", std::process::id()));
    std::fs::remove_file(&gateway_sock).ok();
    let daemon = slj_daemon::Daemon::start(
        &[slj_daemon::Addr::Unix(daemon_sock.clone())],
        slj_daemon::DaemonConfig::default(),
    )
    .unwrap();

    // The gateway command blocks until drained; run it as the binary
    // would, on its own thread, and wait for its socket to appear.
    let command = {
        let cmd = format!(
            "gateway --listen unix:{} --connect unix:{}",
            gateway_sock.display(),
            daemon_sock.display()
        );
        std::thread::spawn(move || invoke(&cmd).unwrap())
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !gateway_sock.exists() {
        assert!(std::time::Instant::now() < deadline, "gateway never bound");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // One HTTP exchange per connection, like any plain HTTP client.
    let exchange = |request: &[u8]| -> (u16, Vec<u8>) {
        let mut sock = UnixStream::connect(&gateway_sock).unwrap();
        sock.write_all(request).unwrap();
        let mut raw = Vec::new();
        sock.read_to_end(&mut raw).unwrap();
        let split = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        let head = std::str::from_utf8(&raw[..split]).unwrap();
        let status = head
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse::<u16>()
            .unwrap();
        (status, raw[split + 4..].to_vec())
    };

    // Submit the clip exactly as the analyze run was configured.
    let video = slj_video::io::load_video(&dir).unwrap();
    let truth = slj_video::truth::ClipTruth::load(&dir).unwrap();
    let open = slj_daemon::OpenRequest {
        camera: truth.camera,
        dims: truth.dims.clone(),
        first_pose: truth.first_pose,
        fps: video.fps(),
        warmup: slj::DEFAULT_WARMUP_FRAMES,
        fast: true,
        max_degraded: Some(10),
        want_trace: false,
    };
    let mut body = serde_json::to_string(&open).unwrap().into_bytes();
    body.push(b'\n');
    body.extend_from_slice(&slj_video::io::ppm_stream(&video));
    let mut request = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: gw\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(&body);
    let (status, reply) = exchange(&request);
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&reply));
    let reply = String::from_utf8(reply).unwrap();
    let job: u64 = reply
        .split("\"job\":")
        .nth(1)
        .and_then(|rest| rest.split(&[',', '}'][..]).next())
        .unwrap()
        .trim()
        .parse()
        .unwrap();

    let report = loop {
        let (status, body) =
            exchange(format!("GET /v1/jobs/{job} HTTP/1.1\r\nHost: gw\r\n\r\n").as_bytes());
        match status {
            200 => break String::from_utf8(body).unwrap(),
            202 => std::thread::sleep(std::time::Duration::from_millis(10)),
            other => panic!("job failed: {other}"),
        }
        assert!(std::time::Instant::now() < deadline, "job never finished");
    };
    assert_eq!(
        report, reference,
        "HTTP report must be byte-identical to `slj analyze --stream --report`"
    );

    let (status, _) = exchange(b"POST /v1/drain HTTP/1.1\r\nHost: gw\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status, 200);
    let output = command.join().unwrap();
    assert!(output.contains("gateway listening on"), "{output}");
    assert!(output.contains("gateway drained"), "{output}");
    assert!(output.contains("gateway_jobs_admitted = 1"), "{output}");
    let stats = daemon.join();
    assert_eq!(stats.clip_sessions, 1);
    assert_eq!(stats.sessions_finished, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_daemon_process_always_answers_its_wire_drain() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::{Command, Stdio};

    // `slj daemon` exits as soon as `join` returns; the drain's reply
    // must already be on the wire by then. Repeat start → DRAIN to give
    // a lost reply every chance to show.
    for cycle in 0..100 {
        let mut child = Command::new(env!("CARGO_BIN_EXE_slj"))
            .args(["daemon", "--listen", "tcp:127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut banner = String::new();
        stdout.read_line(&mut banner).unwrap();
        // "listening on tcp:127.0.0.1:PORT (slj-wire/1)"
        let addr = banner
            .split_whitespace()
            .nth(2)
            .and_then(|raw| slj_daemon::Addr::parse(raw).ok())
            .unwrap_or_else(|| panic!("cycle {cycle}: unexpected banner {banner:?}"));
        let drained = slj_daemon::client::drain_daemon(&addr);
        let status = child.wait().unwrap();
        let mut rest = String::new();
        stdout.read_to_string(&mut rest).unwrap();
        assert_eq!(
            drained.ok(),
            Some(0),
            "cycle {cycle}: DRAIN got no DRAINING reply"
        );
        assert!(status.success(), "cycle {cycle}: {status}");
        assert!(rest.starts_with("daemon drained:"), "cycle {cycle}: {rest}");
    }
}
