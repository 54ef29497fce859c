//! The CLI subcommands.

use crate::args::Flags;
use crate::error::CliError;
use crate::truth::ClipTruth;
use slj::prelude::*;
use slj_video::io::{load_video, save_video};
use std::io::Write;
use std::str::FromStr;

/// Writes a CLI output file (`--report`, `--events`, `--trace`, …),
/// creating missing parent directories first. Failures become a typed
/// [`CliError::Output`] naming the path, instead of a bare I/O error
/// that loses it.
fn write_output(path: &str, contents: &str) -> Result<(), CliError> {
    let target = std::path::Path::new(path);
    let attempt = (|| {
        if let Some(parent) = target.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(target, contents)
    })();
    attempt.map_err(|error| CliError::Output {
        path: path.to_owned(),
        error,
    })
}

/// `slj synth` — render a synthetic clip with ground truth.
pub fn synth<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &["out", "seed", "frames", "flaws", "distance", "height"],
        &["compact", "clean"],
    )?;
    let out_dir = flags.required("out")?.to_owned();
    let seed: u64 = flags.get_or("seed", 1)?;
    let frames: usize = flags.get_or("frames", 20)?;
    if frames < 2 {
        return Err(CliError::Usage("--frames must be at least 2".into()));
    }
    let distance: f64 = flags.get_or("distance", 1.1)?;
    let height: f64 = flags.get_or("height", 1.30)?;
    if !(0.5..=2.5).contains(&height) {
        return Err(CliError::Usage(
            "--height must be in 0.5..=2.5 metres".into(),
        ));
    }
    let flaws: Vec<JumpFlaw> = match flags.value("flaws") {
        None => Vec::new(),
        Some(list) => list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|name| JumpFlaw::from_str(name).map_err(|e| CliError::Usage(e.to_string())))
            .collect::<Result<_, _>>()?,
    };

    let mut scene = if flags.switch("clean") {
        SceneConfig::clean()
    } else {
        SceneConfig::default()
    };
    if flags.switch("compact") {
        scene.camera = Camera::compact();
    }
    let dims = BodyDims::for_height(height);
    let jump_cfg = JumpConfig {
        frames,
        dims: dims.clone(),
        jump_distance: distance,
        flaws: flaws.clone(),
        ..JumpConfig::default()
    };
    let jump = SyntheticJump::generate(&scene, &jump_cfg, seed);

    save_video(&jump.video, &out_dir)?;
    ClipTruth {
        camera: scene.camera,
        dims,
        first_pose: jump.poses.poses()[0],
        poses: jump.poses.clone(),
        flaws: flaws.iter().map(|f| f.name().to_owned()).collect(),
        seed,
    }
    .save(&out_dir)?;

    writeln!(
        out,
        "wrote {} frames ({}x{} px) + truth.json to {}",
        jump.video.len(),
        jump.video.dims().0,
        jump.video.dims().1,
        out_dir
    )?;
    if flaws.is_empty() {
        writeln!(out, "jump quality: textbook-good")?;
    } else {
        let names: Vec<&str> = flaws.iter().map(|f| f.name()).collect();
        writeln!(out, "injected faults: {}", names.join(", "))?;
    }
    Ok(())
}

/// `slj analyze` — the full pipeline on a saved clip.
pub fn analyze<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &[
            "clip",
            "report",
            "report-md",
            "inject-faults",
            "max-degraded",
            "threads",
            "warmup",
            "trace",
        ],
        &[
            "fast",
            "paper",
            "half-res",
            "best-effort",
            "stream",
            "metrics",
        ],
    )?;
    let clip_dir = flags.required("clip")?.to_owned();
    // Worker threads for GA fitness evaluation. Defaults to one per
    // core; results are bit-identical at any setting, so this is safe
    // to leave on auto.
    let parallelism = match flags.value("threads") {
        None => Parallelism::Auto,
        Some(raw) => raw
            .parse::<Parallelism>()
            .map_err(|e| CliError::Usage(format!("--threads: {e}")))?,
    };
    if flags.switch("fast") && flags.switch("paper") {
        return Err(CliError::Usage("--fast and --paper are exclusive".into()));
    }
    if flags.value("max-degraded").is_some() && !flags.switch("best-effort") {
        return Err(CliError::Usage(
            "--max-degraded only makes sense with --best-effort".into(),
        ));
    }
    if flags.value("warmup").is_some() && !flags.switch("stream") {
        return Err(CliError::Usage(
            "--warmup only makes sense with --stream".into(),
        ));
    }
    if flags.switch("stream") && flags.value("report-md").is_some() {
        return Err(CliError::Usage(
            "--report-md needs the retained stage masks, which a streaming \
             run never holds; drop --stream or --report-md"
                .into(),
        ));
    }
    // Validate the fault spec before touching the disk so a typo fails
    // as a usage error, not mid-load.
    let fault_cfg = flags
        .value("inject-faults")
        .map(FaultConfig::parse)
        .transpose()
        .map_err(|e| CliError::Usage(format!("--inject-faults: {e}")))?;
    let mut video = load_video(&clip_dir)?;
    let truth = ClipTruth::load(&clip_dir)?;
    let mut camera = truth.camera;

    if let Some(fault_cfg) = fault_cfg {
        let (faulty, injection) = FaultInjector::new(fault_cfg).inject(&video);
        writeln!(
            out,
            "injected faults into {}/{} frames ({} inputs dropped, {} truncated)",
            injection.faulty_frames(),
            faulty.len(),
            injection.dropped_inputs.len(),
            injection.truncated_inputs.len()
        )?;
        video = faulty;
    }
    if flags.switch("half-res") {
        video = Video::new(
            video.iter().map(slj_imgproc::filter::resize_half).collect(),
            video.fps(),
        );
        camera = camera.halved();
        writeln!(
            out,
            "analysing at half resolution ({}x{})",
            camera.width, camera.height
        )?;
    }

    let mut config = if flags.switch("fast") {
        AnalyzerConfig::fast()
    } else if flags.switch("paper") {
        AnalyzerConfig::paper()
    } else {
        AnalyzerConfig::default()
    };
    config.dims = truth.dims.clone();
    config.parallelism = parallelism;
    if flags.switch("best-effort") {
        // Default budget: a quarter of the clip may degrade before the
        // analysis gives up entirely.
        let max_degraded: usize = flags.get_or("max-degraded", video.len().div_ceil(4))?;
        config.robustness = RobustnessPolicy::BestEffort {
            max_degraded_frames: max_degraded,
        };
    }

    // `--stream` analyses frame by frame through the O(1)-memory
    // streaming front end; results are byte-identical to a batch run of
    // the same (streamable) configuration. Batch keeps the full report
    // around for the markdown renderer, which needs the stage masks a
    // streaming run never retains.
    let mut full_report = None;
    let analysis = if flags.switch("stream") {
        let warmup: usize = flags.get_or("warmup", slj::DEFAULT_WARMUP_FRAMES)?;
        let mut stream = StreamingAnalyzer::new(
            config.into_streaming(warmup),
            &camera,
            truth.first_pose,
            video.fps(),
        )?;
        let mut live_at = None;
        for frame in video.iter() {
            let update = stream.push_frame(frame)?;
            if live_at.is_none() && !update.completed.is_empty() {
                live_at = Some(update.frame);
                writeln!(
                    out,
                    "streaming: background locked after {} frames; {} buffered frames analysed",
                    update.frame + 1,
                    update.completed.len()
                )?;
            }
        }
        if live_at.is_none() {
            writeln!(
                out,
                "streaming: clip ended inside the {warmup}-frame warmup window; \
                 analysing the {} buffered frames now",
                stream.frames_pushed()
            )?;
        }
        stream.finish()?
    } else {
        let report = JumpAnalyzer::new(config).analyze(&video, &camera, truth.first_pose)?;
        let analysis = report.to_analysis();
        full_report = Some(report);
        analysis
    };

    writeln!(out, "{}", analysis.score)?;
    for (standard, advice) in analysis.score.advice() {
        writeln!(out, "{standard}\n  -> {advice}")?;
    }
    // Per-frame rule traces as sparklines (window frames solid, others
    // dimmed).
    if let Ok(traces) = slj_score::RuleTrace::all(&analysis.poses) {
        writeln!(out, "\nrule traces:")?;
        for t in traces {
            writeln!(out, "  {t}")?;
        }
    }
    // Phase timeline: one letter per frame.
    let phases = slj_motion::classify_phases(&analysis.poses, &truth.dims);
    let timeline: String = phases
        .iter()
        .map(|p| match p {
            slj_motion::JumpPhase::Standing => 'S',
            slj_motion::JumpPhase::Crouch => 'C',
            slj_motion::JumpPhase::Takeoff => 'T',
            slj_motion::JumpPhase::Flight => 'F',
            slj_motion::JumpPhase::Landing => 'L',
            slj_motion::JumpPhase::Recovery => 'R',
        })
        .collect();
    writeln!(out, "phase timeline: {timeline}")?;

    // Frame health: confidence timeline plus per-frame detail for
    // anything below the degraded floor.
    let summary = analysis.summary();
    writeln!(
        out,
        "frame health:   {} (# clean, + minor, ~ shaky, ! degraded; mean confidence {:.2})",
        slj::health_timeline(&analysis.health),
        summary.mean_confidence
    )?;
    if !summary.degraded_frames.is_empty() {
        writeln!(
            out,
            "degraded frames excluded from scoring: {:?}",
            summary.degraded_frames
        )?;
    }

    // The measurement carried by the analysis itself — the same one the
    // JSON summary, serve results and daemon ANALYSIS payload surface.
    match analysis.measurement {
        Some(m) => {
            let dir = match m.direction {
                slj::JumpDirection::LeftToRight => "left-to-right",
                slj::JumpDirection::RightToLeft => "right-to-left",
            };
            let partial = if m.is_complete() {
                ""
            } else if !m.takeoff_observed {
                " [partial: clip starts airborne]"
            } else {
                " [partial: clip ends airborne]"
            };
            writeln!(
                out,
                "measured jump: {:.2} m {dir} (takeoff frame {}, landing frame {}, {} airborne frames){partial}",
                m.distance_m, m.takeoff_frame, m.landing_frame, m.flight_frames
            )?;
        }
        None => {
            if let Err(e) = slj::measure_jump(&analysis.poses, &truth.dims) {
                writeln!(out, "measurement unavailable: {e}")?;
            }
        }
    }

    // Accuracy against ground truth (available for synthetic clips).
    let mut angle_err = 0.0;
    for (est, gt) in analysis.poses.poses().iter().zip(truth.poses.poses()) {
        angle_err += est.error_against(gt).mean_angle_error();
    }
    writeln!(
        out,
        "vs ground truth: mean joint-angle error {:.1} deg",
        angle_err / analysis.poses.len().max(1) as f64
    )?;

    // Observability: the deterministic metrics block and the JSONL
    // trace are derived from the same span data and are byte-identical
    // at every --threads setting.
    if flags.switch("metrics") {
        write!(out, "{}", analysis.obs.metrics().render())?;
    }
    if let Some(path) = flags.value("trace") {
        write_output(path, &analysis.obs.render_trace())?;
        writeln!(out, "trace ({}) written to {path}", slj::TRACE_SCHEMA)?;
    }
    if let Some(path) = flags.value("report") {
        let json = serde_json::to_string_pretty(&summary)?;
        write_output(path, &json)?;
        writeln!(out, "summary written to {path}")?;
    }
    if let Some(path) = flags.value("report-md") {
        let report = full_report
            .as_ref()
            .expect("--report-md with --stream is rejected at flag validation");
        write_output(path, &slj::markdown_report(report, &truth.dims))?;
        writeln!(out, "markdown report written to {path}")?;
    }
    Ok(())
}

/// `slj serve` — run clips through the supervised multi-session
/// service core.
///
/// Session 0 analyses the clip exactly as stored; with
/// `--inject-faults` every further session streams an independently
/// seeded perturbation of it (seed, seed+1, …), so one command
/// exercises the service against a small fleet of degraded producers.
/// Every session is one [`StreamingAnalyzer`] behind a bounded frame
/// queue; panics, deadline overruns, stalls and mid-stream shape
/// changes are contained per session by the supervisor.
pub fn serve<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &[
            "clip",
            "sessions",
            "max-sessions",
            "queue-depth",
            "frame-deadline-ms",
            "inject-faults",
            "events",
            "threads",
            "max-degraded",
            "warmup",
        ],
        &["fast", "best-effort"],
    )?;
    let clip_dir = flags.required("clip")?.to_owned();
    let sessions: usize = flags.get_or("sessions", 4)?;
    if sessions == 0 {
        return Err(CliError::Usage("--sessions must be at least 1".into()));
    }
    let max_sessions: usize = flags.get_or("max-sessions", sessions.max(8))?;
    if max_sessions < sessions {
        return Err(CliError::Usage(format!(
            "--max-sessions {max_sessions} cannot admit --sessions {sessions}"
        )));
    }
    let queue_depth: usize = flags.get_or("queue-depth", 16)?;
    if queue_depth == 0 {
        return Err(CliError::Usage("--queue-depth must be at least 1".into()));
    }
    let frame_deadline: u64 = flags.get_or("frame-deadline-ms", 0)?;
    let parallelism = match flags.value("threads") {
        None => Parallelism::Auto,
        Some(raw) => raw
            .parse::<Parallelism>()
            .map_err(|e| CliError::Usage(format!("--threads: {e}")))?,
    };
    if flags.value("max-degraded").is_some() && !flags.switch("best-effort") {
        return Err(CliError::Usage(
            "--max-degraded only makes sense with --best-effort".into(),
        ));
    }
    let fault_cfg = flags
        .value("inject-faults")
        .map(FaultConfig::parse)
        .transpose()
        .map_err(|e| CliError::Usage(format!("--inject-faults: {e}")))?;

    let video = load_video(&clip_dir)?;
    let truth = ClipTruth::load(&clip_dir)?;
    let warmup: usize = flags.get_or("warmup", slj::DEFAULT_WARMUP_FRAMES)?;
    let mut config = if flags.switch("fast") {
        AnalyzerConfig::fast()
    } else {
        AnalyzerConfig::default()
    };
    config.dims = truth.dims.clone();
    // Concurrency lives at the manager (whole sessions step in
    // parallel); each session's analyzer stays serial inside its step.
    config.parallelism = Parallelism::Serial;
    if flags.switch("best-effort") {
        let max_degraded: usize = flags.get_or("max-degraded", video.len().div_ceil(4))?;
        config.robustness = RobustnessPolicy::BestEffort {
            max_degraded_frames: max_degraded,
        };
    }
    let config = config.into_streaming(warmup);

    // One clip per session: the original, then seeded perturbations.
    let mut clips = Vec::with_capacity(sessions);
    for k in 0..sessions {
        match (&fault_cfg, k) {
            (Some(cfg), k) if k > 0 => {
                let per_session = FaultConfig {
                    seed: cfg.seed.wrapping_add(k as u64),
                    ..*cfg
                };
                let (faulty, report) = FaultInjector::new(per_session).inject(&video);
                writeln!(
                    out,
                    "session {k}: faults injected into {}/{} frames (seed {})",
                    report.faulty_frames(),
                    faulty.len(),
                    per_session.seed
                )?;
                clips.push(faulty);
            }
            _ => clips.push(video.clone()),
        }
    }

    let mut manager = slj_serve::SessionManager::new(slj_serve::ServeConfig {
        max_sessions,
        queue_depth,
        frame_deadline,
        parallelism,
        ..slj_serve::ServeConfig::default()
    });
    for clip in &clips {
        manager.open(slj_serve::SessionConfig {
            analyzer: config.clone(),
            camera: truth.camera,
            first_pose: truth.first_pose,
            fps: clip.fps(),
        })?;
    }

    // Interleaved producers: one frame per session per tick. A shed
    // offer is retried after ticking the queue down; a session the
    // supervisor has already removed from service just stops being fed.
    let mut shed_retries = 0u64;
    for i in 0..video.len() {
        for (id, clip) in clips.iter().enumerate() {
            loop {
                match manager.offer(id, &clip.frames()[i]) {
                    Ok(slj_serve::OfferReply::Accepted { .. }) => break,
                    Ok(slj_serve::OfferReply::Overloaded { .. }) => {
                        shed_retries += 1;
                        manager.tick();
                    }
                    Err(slj_serve::ServeError::SessionTerminal { .. }) => break,
                    Err(e) => return Err(e.into()),
                }
            }
        }
        manager.tick();
    }
    // End of input: close every clip, then drain — the manager stops
    // admitting and ticks until every in-flight session is terminal,
    // so no scripted tick count is needed.
    for id in 0..sessions {
        match manager.close(id) {
            Ok(()) | Err(slj_serve::ServeError::SessionTerminal { .. }) => {}
            Err(e) => return Err(e.into()),
        }
    }
    manager.run_until_drained();
    debug_assert!(manager.is_drained());

    let events = manager.drain_events();
    writeln!(
        out,
        "service: {sessions} sessions, {} ticks, {} health events, {shed_retries} backpressure retries",
        manager.ticks(),
        events.len()
    )?;
    for id in 0..sessions {
        let metrics = manager.metrics(id).expect("session was opened");
        let restarts = metrics.counter(slj_obs::serve_keys::RESTARTS);
        let degraded = manager.degraded(id).expect("session was opened");
        match manager.state(id).expect("session was opened").clone() {
            slj_serve::SessionState::Finished => {
                let analysis = manager
                    .take_result(id)
                    .expect("finished session has a result")
                    .expect("finished session result is Ok");
                writeln!(
                    out,
                    "session {id}: finished — {} frames, score {}/7, {degraded} degraded, {restarts} restarts",
                    analysis.health.len(),
                    analysis.score.score()
                )?;
            }
            slj_serve::SessionState::Failed => {
                let error = manager
                    .take_result(id)
                    .expect("failed session has a result")
                    .expect_err("failed session result is Err");
                writeln!(out, "session {id}: failed — {error}")?;
            }
            slj_serve::SessionState::Quarantined { reason } => {
                writeln!(out, "session {id}: quarantined — {reason}")?;
            }
            slj_serve::SessionState::Live => {
                writeln!(out, "session {id}: still live (producer never closed)")?;
            }
        }
    }
    if let Some(path) = flags.value("events") {
        write_output(path, &slj_serve::render_events(&events))?;
        writeln!(
            out,
            "health events ({}) written to {path}",
            slj_serve::SERVE_SCHEMA
        )?;
    }
    Ok(())
}

/// `slj daemon` — run the long-lived socket service in front of the
/// session manager.
///
/// Listens on one or more `tcp:HOST:PORT` / `unix:PATH` addresses
/// (comma-separated) speaking `slj-wire/1`, and blocks until a client
/// sends `DRAIN` (`slj submit --connect ADDR --drain`): in-flight
/// sessions finish, new opens are refused with a typed rejection, then
/// the daemon exits and prints its lifetime counters.
pub fn daemon<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &[
            "listen",
            "max-sessions",
            "queue-depth",
            "frame-deadline-ms",
            "threads",
            "trace-dir",
            "max-frame-mb",
            "idle-timeout-ms",
        ],
        &[],
    )?;
    let mut addrs = Vec::new();
    for raw in flags.required("listen")?.split(',') {
        addrs.push(
            slj_daemon::Addr::parse(raw).map_err(|e| CliError::Usage(format!("--listen: {e}")))?,
        );
    }
    let mut config = slj_daemon::DaemonConfig::default();
    config.serve.max_sessions = flags.get_or("max-sessions", config.serve.max_sessions)?;
    config.serve.queue_depth = flags.get_or("queue-depth", config.serve.queue_depth)?;
    config.serve.frame_deadline = flags.get_or("frame-deadline-ms", config.serve.frame_deadline)?;
    if config.serve.queue_depth == 0 {
        return Err(CliError::Usage("--queue-depth must be at least 1".into()));
    }
    config.serve.parallelism = match flags.value("threads") {
        None => Parallelism::Auto,
        Some(raw) => raw
            .parse::<Parallelism>()
            .map_err(|e| CliError::Usage(format!("--threads: {e}")))?,
    };
    let max_frame_mb: usize = flags.get_or("max-frame-mb", 0)?;
    if max_frame_mb > 0 {
        config.max_frame = max_frame_mb * 1024 * 1024;
    }
    let idle_timeout_ms: u64 = flags.get_or("idle-timeout-ms", 0)?;
    if idle_timeout_ms > 0 {
        // The reaper counts consecutive quiet read polls.
        config.idle_timeouts = idle_timeout_ms.div_ceil(config.read_timeout_ms).max(1) as u32;
    }
    config.trace_dir = flags.value("trace-dir").map(std::path::PathBuf::from);

    let handle = slj_daemon::Daemon::start(&addrs, config)?;
    for addr in &handle.addrs {
        writeln!(out, "listening on {addr} ({})", slj_daemon::WIRE_SCHEMA)?;
    }
    out.flush()?;
    let stats = handle.join();
    writeln!(
        out,
        "daemon drained: {} connections, {} sessions ({} finished, {} failed, {} aborted, \
         {} clip-ingested), {} events dropped, {} connections torn down, {} ticks",
        stats.connections,
        stats.sessions_opened,
        stats.sessions_finished,
        stats.sessions_failed,
        stats.sessions_aborted,
        stats.clip_sessions,
        stats.events_dropped,
        stats.conns_torn_down,
        stats.ticks
    )?;
    Ok(())
}

/// `slj gateway` — run the HTTP front end against a running daemon.
///
/// Listens on one `tcp:HOST:PORT` / `unix:PATH` address and serves the
/// `/v1` job API: `POST /v1/jobs` ingests a clip (one open-request JSON
/// line followed by concatenated PPM frames) through the daemon's
/// `OPEN_CLIP` path, `GET /v1/jobs/{id}` returns the report JSON
/// byte-identical to `slj analyze --stream --report`, and
/// `POST /v1/drain` drains gateway and daemon both. Blocks until a
/// drain is requested, then finishes in-flight jobs and prints the
/// final metrics.
pub fn gateway<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &[
            "listen",
            "connect",
            "max-jobs",
            "max-body-mb",
            "max-conns",
            "read-timeout-ms",
            "write-timeout-ms",
            "retry-after",
        ],
        &[],
    )?;
    let listen = slj_daemon::Addr::parse(flags.required("listen")?)
        .map_err(|e| CliError::Usage(format!("--listen: {e}")))?;
    let daemon = slj_daemon::Addr::parse(flags.required("connect")?)
        .map_err(|e| CliError::Usage(format!("--connect: {e}")))?;
    let mut config = slj_gateway::GatewayConfig::default();
    config.max_jobs = flags.get_or("max-jobs", config.max_jobs)?;
    config.max_conns = flags.get_or("max-conns", config.max_conns)?;
    let max_body_mb: usize = flags.get_or("max-body-mb", 0)?;
    if max_body_mb > 0 {
        config.max_body = max_body_mb * 1024 * 1024;
    }
    let read_timeout_ms: u64 = flags.get_or("read-timeout-ms", 0)?;
    if read_timeout_ms > 0 {
        config.read_timeout = std::time::Duration::from_millis(read_timeout_ms);
    }
    let write_timeout_ms: u64 = flags.get_or("write-timeout-ms", 0)?;
    if write_timeout_ms > 0 {
        config.write_timeout = std::time::Duration::from_millis(write_timeout_ms);
    }
    config.retry_after = flags.get_or("retry-after", config.retry_after)?;

    let handle = slj_gateway::Gateway::start(&listen, daemon.clone(), config)?;
    writeln!(
        out,
        "gateway listening on {} -> daemon {daemon}",
        handle.addr
    )?;
    out.flush()?;
    while !handle.is_draining() {
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    // Finish in-flight jobs before tearing the acceptor down.
    while handle.jobs_running() > 0 {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let metrics = handle.shutdown();
    writeln!(out, "gateway drained")?;
    write!(out, "{}", metrics.render())?;
    Ok(())
}

/// `slj submit` — stream a saved clip to a running daemon and collect
/// the analysis.
///
/// The returned summary JSON is byte-identical to what
/// `slj analyze --stream --report` writes for the same clip and
/// configuration, and `--trace` captures the identical `slj-trace/1`
/// JSONL — the daemon adds transport, not drift. With `--drain` the
/// command instead asks the daemon to shut down gracefully.
pub fn submit<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &[
            "connect",
            "clip",
            "warmup",
            "max-degraded",
            "report",
            "trace",
            "events",
        ],
        &["fast", "best-effort", "drain"],
    )?;
    let addr = slj_daemon::Addr::parse(flags.required("connect")?)
        .map_err(|e| CliError::Usage(format!("--connect: {e}")))?;
    if flags.switch("drain") {
        let in_flight = slj_daemon::client::drain_daemon(&addr)?;
        writeln!(out, "daemon draining ({in_flight} sessions in flight)")?;
        return Ok(());
    }
    let clip_dir = flags.required("clip")?.to_owned();
    if flags.value("max-degraded").is_some() && !flags.switch("best-effort") {
        return Err(CliError::Usage(
            "--max-degraded only makes sense with --best-effort".into(),
        ));
    }
    let video = load_video(&clip_dir)?;
    let truth = ClipTruth::load(&clip_dir)?;
    let warmup: usize = flags.get_or("warmup", slj::DEFAULT_WARMUP_FRAMES)?;
    let max_degraded = if flags.switch("best-effort") {
        Some(flags.get_or("max-degraded", video.len().div_ceil(4))?)
    } else {
        None
    };
    let request = slj_daemon::OpenRequest {
        camera: truth.camera,
        dims: truth.dims.clone(),
        first_pose: truth.first_pose,
        fps: video.fps(),
        warmup,
        fast: flags.switch("fast"),
        max_degraded,
        want_trace: flags.value("trace").is_some(),
    };

    let mut client = slj_daemon::Client::connect(&addr, slj_daemon::ClientOptions::default())?;
    writeln!(out, "connected: {} at {addr}", client.proto())?;
    let analysis = client.analyze_clip(&request, video.frames())?;
    writeln!(
        out,
        "session {}: analysis received ({} frames sent, {} health events)",
        analysis.session,
        video.len(),
        analysis.events.len()
    )?;
    if let Some(path) = flags.value("events") {
        let mut lines = analysis.events.join("\n");
        lines.push('\n');
        write_output(path, &lines)?;
        writeln!(out, "health events written to {path}")?;
    }
    if let Some(path) = flags.value("trace") {
        write_output(path, &analysis.trace_jsonl)?;
        writeln!(out, "trace written to {path}")?;
    }
    match flags.value("report") {
        Some(path) => {
            write_output(path, &analysis.summary_json)?;
            writeln!(out, "summary written to {path}")?;
        }
        None => writeln!(out, "{}", analysis.summary_json)?,
    }
    Ok(())
}

/// `slj eval` — ground-truth accuracy evaluation over the synthetic
/// fault matrix, or the threshold-calibration sweep.
///
/// Exactly one mode must be selected: `--matrix small|full` runs the
/// seeded clip × fault-profile × gap-policy grid and writes the
/// `slj-eval/1` accuracy report; `--sweep` ROC-scores the quality-gate
/// thresholds and fits per-rung confidence factors against the same
/// ground truth.
pub fn eval<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &["matrix", "out", "summary-md", "threads"],
        &["sweep"],
    )?;
    let matrix_size = flags.value("matrix");
    if flags.switch("sweep") && matrix_size.is_some() {
        return Err(CliError::Usage(
            "--sweep and --matrix are exclusive; pick one mode".into(),
        ));
    }
    if !flags.switch("sweep") && matrix_size.is_none() {
        return Err(CliError::Usage(
            "one of --matrix small|full or --sweep is required".into(),
        ));
    }
    let parallelism = match flags.value("threads") {
        None => Parallelism::Auto,
        Some(raw) => raw
            .parse::<Parallelism>()
            .map_err(|e| CliError::Usage(format!("--threads: {e}")))?,
    };

    if flags.switch("sweep") {
        if flags.value("summary-md").is_some() {
            return Err(CliError::Usage(
                "--summary-md only makes sense with --matrix".into(),
            ));
        }
        let config = slj_eval::MatrixConfig {
            parallelism,
            ..slj_eval::MatrixConfig::small()
        };
        let report = slj_eval::calibrate(&config, &slj_eval::SweepConfig::default());
        write!(out, "{}", slj_eval::calibrate::markdown_summary(&report))?;
        let path = flags.value("out").unwrap_or("EVAL_calibration.json");
        write_output(path, &report.to_json())?;
        writeln!(out, "calibration report written to {path}")?;
    } else {
        let config = match matrix_size.unwrap_or_default() {
            "small" => slj_eval::MatrixConfig::small(),
            "full" => slj_eval::MatrixConfig::full(),
            other => {
                return Err(CliError::Usage(format!(
                    "--matrix must be 'small' or 'full', got '{other}'"
                )))
            }
        };
        let config = slj_eval::MatrixConfig {
            parallelism,
            ..config
        };
        let report = slj_eval::run_matrix(&config);
        let summary = slj_eval::markdown_summary(&report);
        write!(out, "{summary}")?;
        let path = flags.value("out").unwrap_or("EVAL_accuracy.json");
        write_output(path, &report.to_json())?;
        writeln!(out, "accuracy report written to {path}")?;
        if let Some(md_path) = flags.value("summary-md") {
            write_output(md_path, &summary)?;
            writeln!(out, "markdown summary written to {md_path}")?;
        }
    }
    Ok(())
}

/// `slj score` — score a clip's ground-truth poses (no vision).
pub fn score<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["clip"], &[])?;
    let clip_dir = flags.required("clip")?.to_owned();
    let truth = ClipTruth::load(&clip_dir)?;
    let card =
        score_jump(&truth.poses).map_err(|e| CliError::Usage(format!("cannot score: {e}")))?;
    writeln!(out, "{card}")?;
    for (standard, advice) in card.advice() {
        writeln!(out, "{standard}\n  -> {advice}")?;
    }
    Ok(())
}

/// `slj flaws` — list the injectable faults.
pub fn flaws<W: Write>(out: &mut W) -> Result<(), CliError> {
    writeln!(
        out,
        "injectable technique faults (E1-E7 of the paper's Table 1):"
    )?;
    for f in JumpFlaw::ALL {
        writeln!(
            out,
            "  {:<18} violates R{} ({})",
            f.name(),
            f.rule_number(),
            Standard::for_rule(slj_score::RuleId::ALL[f.rule_number() - 1]).description()
        )?;
    }
    Ok(())
}
