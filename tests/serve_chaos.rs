//! Service-level chaos suite for the `slj-serve` supervisor.
//!
//! The containment contract under test: **no session's fault may ever
//! corrupt another session's output.** Each scenario injects one kind
//! of service fault — poisoned frames that panic the analysis step,
//! stalled producers, mid-stream shape changes, deadline overruns —
//! into a manager holding healthy sessions alongside, and asserts
//!
//! * healthy sessions produce analyses **byte-identical** to a direct
//!   unsupervised [`StreamingAnalyzer`] run of the same clip, at
//!   `Serial`, `Fixed(3)`, `Fixed(4)` and `Auto` manager parallelism
//!   alike (and the whole event stream and per-session metrics are
//!   identical across those settings too; `Fixed(3)` splits the soak's
//!   ten sessions unevenly between workers);
//! * every crashed session either resumes from its checkpoint (frame
//!   updates strictly increasing — no replayed duplicates reach the
//!   client) or terminates with a typed health event;
//! * the scripted deadline clock keeps every run wall-clock-free, so
//!   failures reproduce exactly.
//!
//! The bounded-queue / allocation-free-reject half of the contract
//! lives in `serve_overload.rs` (its counting allocator needs a binary
//! to itself).

use slj::prelude::*;
use slj::JumpAnalysis;
use slj_runtime::BackoffConfig;
use slj_serve::{
    DeadlineClock, EventKind, HealthEvent, OfferReply, RestartMode, ServeConfig, ServeError,
    ServiceFaultPlan, SessionConfig, SessionManager, SessionState,
};

fn streamable_fast() -> AnalyzerConfig {
    AnalyzerConfig {
        robustness: RobustnessPolicy::BestEffort {
            max_degraded_frames: 10,
        },
        ..AnalyzerConfig::fast().into_streaming(14)
    }
}

fn scene() -> SceneConfig {
    SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::clean()
    }
}

/// The unsupervised ground truth: the same clip pushed through a bare
/// `StreamingAnalyzer`.
fn reference_run(config: &AnalyzerConfig, jump: &SyntheticJump, camera: &Camera) -> JumpAnalysis {
    let first = jump.poses.poses()[0];
    let mut stream =
        StreamingAnalyzer::new(config.clone(), camera, first, jump.video.fps()).unwrap();
    for frame in jump.video.iter() {
        stream.push_frame(frame).unwrap();
    }
    stream.finish().unwrap()
}

/// Chaos-friendly service knobs: deterministic clock, jitter-free
/// ladder, budgets generous enough that healthy clips never escalate.
fn serve_config() -> ServeConfig {
    ServeConfig {
        max_sessions: 16,
        queue_depth: 32,
        frame_deadline: 0,
        clock: DeadlineClock::Scripted,
        checkpoint_interval: 4,
        escalate_after: 30,
        trip_after: 40,
        stall_ticks: 4,
        stall_strikes: 3,
        clean_frames_to_reset: 6,
        restart: BackoffConfig {
            base: 1,
            factor: 2,
            max: 4,
            jitter: 0,
            seed: 0,
        },
        parallelism: Parallelism::Serial,
    }
}

fn session_config(
    analyzer: AnalyzerConfig,
    jump: &SyntheticJump,
    camera: &Camera,
) -> SessionConfig {
    SessionConfig {
        analyzer,
        camera: *camera,
        first_pose: jump.poses.poses()[0],
        fps: jump.video.fps(),
    }
}

/// Event kinds for one session, frame events excluded — the supervisor
/// decision trail.
fn decision_trail(events: &[HealthEvent], session: usize) -> Vec<&'static str> {
    events
        .iter()
        .filter(|e| e.session == session && !matches!(e.kind, EventKind::Frame { .. }))
        .map(|e| e.kind.name())
        .collect()
}

/// Frame indices a session's client saw, in stream order.
fn frame_updates(events: &[HealthEvent], session: usize) -> Vec<usize> {
    events
        .iter()
        .filter(|e| e.session == session)
        .filter_map(|e| match &e.kind {
            EventKind::Frame { update } => Some(update.frame),
            _ => None,
        })
        .collect()
}

/// One full soak run at the given manager parallelism. Returns the
/// event stream, every session's analysis result (None for sessions
/// that never finished) and the per-session metrics renderings.
#[allow(clippy::type_complexity)]
fn soak_run(
    parallelism: Parallelism,
    jump: &SyntheticJump,
    camera: &Camera,
) -> (Vec<HealthEvent>, Vec<Option<JumpAnalysis>>, Vec<String>) {
    const SESSIONS: usize = 10;
    const POISONED: usize = 3;
    const STALLED: usize = 7;
    const STALL_POINT: usize = 5;

    let mut manager = SessionManager::new(ServeConfig {
        parallelism,
        ..serve_config()
    })
    // Frame 16 of the poisoned session panics the tracker mid-live.
    .with_chaos(ServiceFaultPlan::none().poison(POISONED, 16));
    let ids: Vec<usize> = (0..SESSIONS)
        .map(|_| {
            manager
                .open(session_config(streamable_fast(), jump, camera))
                .unwrap()
        })
        .collect();

    // Interleaved producers: one frame per session per tick. The
    // stalled producer wedges after frame 5 and never closes.
    for (round, frame) in jump.video.iter().enumerate() {
        for &id in &ids {
            if id == STALLED && round >= STALL_POINT {
                continue;
            }
            let reply = manager.offer(id, frame).unwrap();
            assert!(
                matches!(reply, OfferReply::Accepted { .. }),
                "queue_depth 32 never sheds in this schedule"
            );
        }
        manager.tick();
    }
    for &id in &ids {
        if id != STALLED {
            manager.close(id).unwrap();
        }
    }
    manager.run_until_idle();
    // Keep the service ticking until the stalled producer strikes out.
    let mut guard = 0;
    while !manager.state(STALLED).unwrap().is_terminal() {
        manager.tick();
        guard += 1;
        assert!(
            guard < 100,
            "stall detection must quarantine in bounded ticks"
        );
    }

    let events = manager.drain_events();
    let results: Vec<Option<JumpAnalysis>> = ids
        .iter()
        .map(|&id| manager.take_result(id).and_then(Result::ok))
        .collect();
    let metrics: Vec<String> = ids
        .iter()
        .map(|&id| manager.metrics(id).unwrap().render())
        .collect();
    (events, results, metrics)
}

#[test]
fn soak_poisoned_and_stalled_sessions_never_corrupt_healthy_ones() {
    const POISONED: usize = 3;
    const STALLED: usize = 7;
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 90);
    let reference = reference_run(&streamable_fast(), &jump, &scene.camera);

    let serial = soak_run(Parallelism::Serial, &jump, &scene.camera);
    for parallelism in [
        Parallelism::Fixed(3),
        Parallelism::Fixed(4),
        Parallelism::Auto,
    ] {
        let run = soak_run(parallelism, &jump, &scene.camera);
        assert_eq!(
            serial.0, run.0,
            "{parallelism}: event stream differs from serial"
        );
        assert_eq!(
            serial.1, run.1,
            "{parallelism}: session analyses differ from serial"
        );
        assert_eq!(
            serial.2, run.2,
            "{parallelism}: session metrics differ from serial"
        );
    }

    let (events, results, metrics) = serial;
    for (id, result) in results.iter().enumerate() {
        if id == POISONED || id == STALLED {
            continue;
        }
        assert_eq!(
            result.as_ref(),
            Some(&reference),
            "healthy session {id} must be byte-identical to the unsupervised run"
        );
        assert_eq!(
            decision_trail(&events, id),
            vec!["finished"],
            "healthy session {id} must see no supervisor intervention"
        );
        assert_eq!(frame_updates(&events, id), (0..20).collect::<Vec<_>>());
        assert!(metrics[id].contains("serve.panics = 0"), "{}", metrics[id]);
    }

    // The poisoned session resumed from its checkpoint: the panic and
    // restart are on the record, the dropped frame never reached the
    // client twice, and the clip still finished and scored.
    assert_eq!(
        decision_trail(&events, POISONED),
        vec!["panicked", "restarted", "finished"]
    );
    let restart = events
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::Restarted { mode, .. } if e.session == POISONED => Some(*mode),
            _ => None,
        })
        .unwrap();
    assert_eq!(restart, RestartMode::Checkpoint { replayed: 0 });
    let poisoned_frames = frame_updates(&events, POISONED);
    assert!(
        poisoned_frames.windows(2).all(|w| w[0] < w[1]),
        "replayed updates must be suppressed: {poisoned_frames:?}"
    );
    assert_eq!(
        poisoned_frames.len(),
        19,
        "exactly the poisoned frame is missing"
    );
    let poisoned_analysis = results[POISONED].as_ref().expect("poisoned clip finishes");
    assert_eq!(poisoned_analysis.health.len(), 19);
    assert!(metrics[POISONED].contains("serve.panics = 1"));
    assert!(metrics[POISONED].contains("serve.restarts = 1"));

    // The stalled producer struck out to a typed terminal event after
    // three full stall windows — it never finished, and said so.
    assert_eq!(
        decision_trail(&events, STALLED),
        vec!["stalled", "stalled", "stalled", "quarantined"]
    );
    assert!(results[STALLED].is_none());
    assert!(metrics[STALLED].contains("serve.stalls = 3"));
}

#[test]
fn mid_stream_shape_change_is_rejected_and_contained() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 91);
    let reference = reference_run(&streamable_fast(), &jump, &scene.camera);
    let (w, h) = jump.video.dims();
    let alien = slj_video::Frame::filled(w + 2, h, slj_imgproc::pixel::Rgb::splat(90));

    let mut manager = SessionManager::new(serve_config());
    let clean = manager
        .open(session_config(streamable_fast(), &jump, &scene.camera))
        .unwrap();
    let poked = manager
        .open(session_config(streamable_fast(), &jump, &scene.camera))
        .unwrap();
    for (round, frame) in jump.video.iter().enumerate() {
        manager.offer(clean, frame).unwrap();
        manager.offer(poked, frame).unwrap();
        if round == 10 {
            // A camera renegotiating resolution mid-clip.
            manager.offer(poked, &alien).unwrap();
        }
        manager.tick();
    }
    manager.close(clean).unwrap();
    manager.close(poked).unwrap();
    manager.run_until_idle();

    let events = manager.drain_events();
    assert_eq!(
        decision_trail(&events, poked),
        vec!["frame_rejected", "finished"]
    );
    let rejected = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::FrameRejected { .. }))
        .unwrap();
    assert!(matches!(
        rejected.kind,
        EventKind::FrameRejected {
            ordinal: 11,
            expected,
            got,
        } if expected == (w, h) && got == (w + 2, h)
    ));
    // The typed reject leaves the analyzer untouched, so *both*
    // sessions — including the poked one — match the unsupervised run.
    assert_eq!(manager.take_result(clean).unwrap().unwrap(), reference);
    assert_eq!(manager.take_result(poked).unwrap().unwrap(), reference);
    // The reject charged exactly one unit against the degraded budget
    // on top of whatever the clip itself degrades.
    let baseline = manager.degraded(clean).unwrap();
    assert_eq!(manager.degraded(poked), Some(baseline + 1));
}

#[test]
fn panic_ladder_walks_checkpoint_cold_then_quarantine() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 92);
    let mut manager = SessionManager::new(ServeConfig {
        // Three consecutive crashes: no clean window long enough to
        // reset the ladder between them.
        clean_frames_to_reset: 100,
        ..serve_config()
    })
    .with_chaos(
        ServiceFaultPlan::none()
            .poison(0, 15)
            .poison(0, 16)
            .poison(0, 17),
    );
    let id = manager
        .open(session_config(streamable_fast(), &jump, &scene.camera))
        .unwrap();
    for frame in jump.video.iter() {
        manager.offer(id, frame).unwrap();
    }
    manager.close(id).unwrap();
    manager.run_until_idle();

    let events = manager.drain_events();
    assert_eq!(
        decision_trail(&events, id),
        vec![
            "panicked",
            "restarted",
            "panicked",
            "restarted",
            "panicked",
            "quarantined",
        ]
    );
    let modes: Vec<RestartMode> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Restarted { mode, .. } => Some(*mode),
            _ => None,
        })
        .collect();
    assert_eq!(
        modes,
        vec![RestartMode::Checkpoint { replayed: 3 }, RestartMode::Cold],
        "ladder rungs in order: checkpoint replay, then cold"
    );
    assert!(matches!(
        manager.state(id),
        Some(SessionState::Quarantined { reason }) if reason == "panic ladder exhausted"
    ));
    assert!(manager.take_result(id).is_none());
    let metrics = manager.metrics(id).unwrap();
    assert_eq!(metrics.counter(slj_obs::serve_keys::PANICS), 3);
    assert_eq!(metrics.counter(slj_obs::serve_keys::RESTARTS), 2);
}

#[test]
fn clean_frames_reset_the_restart_ladder() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 93);
    let mut manager = SessionManager::new(ServeConfig {
        clean_frames_to_reset: 6,
        ..serve_config()
    })
    // Two crashes far apart: the clean stretch between them resets the
    // ladder, so the second crash restarts from checkpoint again
    // instead of escalating to cold.
    .with_chaos(ServiceFaultPlan::none().poison(0, 2).poison(0, 16));
    let id = manager
        .open(session_config(streamable_fast(), &jump, &scene.camera))
        .unwrap();
    for frame in jump.video.iter() {
        manager.offer(id, frame).unwrap();
    }
    manager.close(id).unwrap();
    manager.run_until_idle();

    let events = manager.drain_events();
    let modes: Vec<RestartMode> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Restarted { mode, .. } => Some(*mode),
            _ => None,
        })
        .collect();
    assert_eq!(modes.len(), 2);
    assert!(
        modes
            .iter()
            .all(|m| matches!(m, RestartMode::Checkpoint { .. })),
        "a recovered ladder starts over at the checkpoint rung: {modes:?}"
    );
    assert_eq!(manager.state(id), Some(&SessionState::Finished));
    // Both poisoned frames are gone; everything else was analysed.
    assert_eq!(
        manager.take_result(id).unwrap().unwrap().health.len(),
        jump.video.len() - 2
    );
}

#[test]
fn deadline_overruns_escalate_policy_then_trip_the_breaker() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 94);
    // The clip's own degraded frames charge the same budget as the
    // misses, so size the thresholds above the intrinsic count: with 5
    // scripted misses and thresholds at intrinsic+2 / intrinsic+5,
    // escalation *requires* at least two misses and the breaker trips
    // exactly on the last one — miss-driven by construction.
    let reference = reference_run(&streamable_fast(), &jump, &scene.camera);
    let intrinsic = reference.health.iter().filter(|h| h.is_degraded()).count();
    let mut manager = SessionManager::new(ServeConfig {
        frame_deadline: 4,
        escalate_after: intrinsic + 2,
        trip_after: intrinsic + 5,
        ..serve_config()
    })
    .with_chaos(
        ServiceFaultPlan::none()
            .overrun(0, 14, 10)
            .overrun(0, 15, 10)
            .overrun(0, 16, 10)
            .overrun(0, 17, 10)
            .overrun(0, 18, 10),
    );
    let id = manager
        .open(session_config(streamable_fast(), &jump, &scene.camera))
        .unwrap();
    for frame in jump.video.iter() {
        manager.offer(id, frame).unwrap();
    }
    manager.close(id).unwrap();
    manager.run_until_idle();

    let events = manager.drain_events();
    let trail = decision_trail(&events, id);
    let position = |name: &str| {
        trail
            .iter()
            .position(|&k| k == name)
            .unwrap_or_else(|| panic!("missing {name} in {trail:?}"))
    };
    // The budget ladder fires in order and ends the session before it
    // can emit garbage.
    assert!(position("deadline_miss") < position("policy_escalated"));
    assert!(position("policy_escalated") < position("circuit_breaker_tripped"));
    assert!(position("circuit_breaker_tripped") < position("quarantined"));
    assert!(matches!(
        manager.state(id),
        Some(SessionState::Quarantined { reason }) if reason == "circuit breaker"
    ));
    let metrics = manager.metrics(id).unwrap();
    assert!(metrics.counter(slj_obs::serve_keys::DEADLINE_MISSES) >= 2);
    assert!(metrics.counter(slj_obs::serve_keys::DEGRADED) >= 4);
}

/// One churn soak: `WAVES` waves of sessions through a
/// `max_sessions`-bounded manager. Every wave closes, has its results
/// taken and is retired before the next opens, so waves after the
/// first run entirely in recycled slots. One session per wave is
/// poisoned, so the checkpoint-restart ladder also executes inside a
/// recycled slot. Returns the event stream, every
/// session's result, every session's metrics rendering and the
/// manager's aggregate-metrics rendering.
#[allow(clippy::type_complexity)]
fn churn_run(
    parallelism: Parallelism,
    jump: &SyntheticJump,
    camera: &Camera,
) -> (
    Vec<HealthEvent>,
    Vec<Option<JumpAnalysis>>,
    Vec<String>,
    String,
) {
    const WAVES: usize = 3;
    const PER_WAVE: usize = 3;

    let mut chaos = ServiceFaultPlan::none();
    for wave in 0..WAVES {
        // Session ids are monotonic across retires, so wave w's middle
        // session is id w*PER_WAVE + 1.
        chaos = chaos.poison(wave * PER_WAVE + 1, 16);
    }
    let mut manager = SessionManager::new(ServeConfig {
        max_sessions: PER_WAVE,
        parallelism,
        ..serve_config()
    })
    .with_chaos(chaos);

    let mut events = Vec::new();
    let mut results = Vec::new();
    let mut metrics = Vec::new();
    for wave in 0..WAVES {
        let ids: Vec<usize> = (0..PER_WAVE)
            .map(|_| {
                manager
                    .open(session_config(streamable_fast(), jump, camera))
                    .unwrap()
            })
            .collect();
        assert_eq!(ids[0], wave * PER_WAVE, "ids stay monotonic across waves");
        for frame in jump.video.iter() {
            for &id in &ids {
                let reply = manager.offer(id, frame).unwrap();
                assert!(matches!(reply, OfferReply::Accepted { .. }));
            }
            manager.tick();
        }
        for &id in &ids {
            manager.close(id).unwrap();
        }
        manager.run_until_idle();
        manager.drain_events_into(&mut events);
        for &id in &ids {
            results.push(manager.take_result(id).and_then(Result::ok));
            metrics.push(manager.metrics(id).unwrap().render());
            manager.retire(id).unwrap();
            assert!(manager.metrics(id).is_none(), "retired id {id} is gone");
        }
    }
    assert_eq!(manager.sessions_in_service(), 0);
    assert_eq!(manager.session_ids().count(), 0);
    assert_eq!(
        manager.pooled_slots(),
        PER_WAVE,
        "slot pool holds at most one slot per capacity unit"
    );
    (
        events,
        results,
        metrics,
        manager.aggregate_metrics().render(),
    )
}

#[test]
fn session_churn_reuses_slots_byte_identically_and_bounds_metrics() {
    const WAVES: usize = 3;
    const PER_WAVE: usize = 3;
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 97);
    let reference = reference_run(&streamable_fast(), &jump, &scene.camera);

    let serial = churn_run(Parallelism::Serial, &jump, &scene.camera);
    // Churn must stay deterministic across the fan-out settings.
    for parallelism in [
        Parallelism::Fixed(3),
        Parallelism::Fixed(4),
        Parallelism::Auto,
    ] {
        let run = churn_run(parallelism, &jump, &scene.camera);
        assert_eq!(serial.0, run.0, "{parallelism}: events differ");
        assert_eq!(serial.1, run.1, "{parallelism}: analyses differ");
        assert_eq!(serial.2, run.2, "{parallelism}: metrics differ");
        assert_eq!(serial.3, run.3, "{parallelism}: aggregate differs");
    }

    let (events, results, metrics, aggregate) = serial;
    // Recycled slots must be invisible to results: wave 0 builds fresh
    // state, waves 1 and 2 run in slots the wave before retired, and
    // every recycled session repeats its fresh counterpart's analysis,
    // metrics and decision trail byte for byte.
    for wave in 1..WAVES {
        for lane in 0..PER_WAVE {
            let (fresh, recycled) = (lane, wave * PER_WAVE + lane);
            assert_eq!(
                results[recycled], results[fresh],
                "recycled slot changed session {recycled}'s analysis"
            );
            assert_eq!(
                metrics[recycled], metrics[fresh],
                "recycled slot changed session {recycled}'s metrics"
            );
            assert_eq!(
                decision_trail(&events, recycled),
                decision_trail(&events, fresh),
                "recycled slot changed session {recycled}'s decisions"
            );
        }
    }
    for wave in 0..WAVES {
        for lane in 0..PER_WAVE {
            let id = wave * PER_WAVE + lane;
            if lane == 1 {
                // The poisoned lane crashed, resumed from its
                // checkpoint inside a recycled slot, and finished.
                assert_eq!(
                    decision_trail(&events, id),
                    vec!["panicked", "restarted", "finished"],
                    "session {id}"
                );
                assert!(results[id].is_some(), "poisoned session {id} finishes");
            } else {
                assert_eq!(
                    results[id].as_ref(),
                    Some(&reference),
                    "healthy churned session {id} must match the unsupervised run"
                );
                assert_eq!(decision_trail(&events, id), vec!["finished"]);
            }
        }
    }
    // Satellite contract: retirement folds per-session metrics into
    // one bounded aggregate instead of leaking a registry per session.
    assert!(
        aggregate.contains("serve.panics = 3"),
        "one panic per wave on the aggregate record:\n{aggregate}"
    );
    assert!(aggregate.contains("serve.restarts = 3"), "{aggregate}");
}

#[test]
fn retire_is_terminal_only_and_frees_capacity() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 98);
    let mut manager = SessionManager::new(ServeConfig {
        max_sessions: 1,
        ..serve_config()
    });
    let id = manager
        .open(session_config(streamable_fast(), &jump, &scene.camera))
        .unwrap();
    // Live sessions cannot be retired out from under their producer.
    assert!(matches!(
        manager.retire(id),
        Err(ServeError::SessionActive { id: 0 })
    ));
    // An empty close fails the session — terminal, hence retirable.
    manager.close(id).unwrap();
    manager.run_until_idle();
    assert!(manager.state(id).unwrap().is_terminal());
    let rendered = manager.metrics(id).unwrap().render();
    manager.retire(id).unwrap();
    assert_eq!(manager.aggregate_metrics().render(), rendered);
    assert!(matches!(
        manager.retire(id),
        Err(ServeError::UnknownSession { id: 0 })
    ));
    // Retirement freed the capacity slot; the next open gets a fresh
    // id, never the retired one.
    let next = manager.open(session_config(streamable_fast(), &jump, &scene.camera));
    assert_eq!(next.unwrap(), 1);
}

#[test]
fn client_disconnect_mid_stream_recycles_the_slot_byte_identically() {
    // The daemon scenario: a remote client vanishes mid-stream, so the
    // transport aborts the session and retires it, recycling its slot.
    // The abandoned session must terminalise with a typed event, and
    // the recycled slot must be invisible to the next tenant — its
    // analysis byte-identical to an unsupervised run.
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 99);
    let reference = reference_run(&streamable_fast(), &jump, &scene.camera);

    let mut manager = SessionManager::new(ServeConfig {
        max_sessions: 1,
        ..serve_config()
    });
    let id = manager
        .open(session_config(streamable_fast(), &jump, &scene.camera))
        .unwrap();
    for frame in jump.video.iter().take(9) {
        assert!(matches!(
            manager.offer(id, frame).unwrap(),
            OfferReply::Accepted { .. }
        ));
        manager.tick();
    }
    // Mid-stream disconnect: abort is exactly what the daemon calls.
    manager.abort(id, "client disconnected").unwrap();
    assert!(manager.state(id).unwrap().is_terminal());
    assert!(
        manager.take_result(id).is_none(),
        "an aborted session has no analysis to hand out"
    );
    let events = manager.drain_events();
    assert!(
        events.iter().any(|e| e.session == id
            && matches!(&e.kind, EventKind::Quarantined { reason } if reason == "client disconnected")),
        "abort must surface as a typed terminal event"
    );
    manager.retire(id).unwrap();
    assert_eq!(manager.pooled_slots(), 1, "the slot went back to the pool");

    // The next tenant lands in the recycled slot (max_sessions = 1, so
    // there is nowhere else) and must match the unsupervised run.
    let id2 = manager
        .open(session_config(streamable_fast(), &jump, &scene.camera))
        .unwrap();
    assert_eq!(id2, 1, "ids stay monotonic across the recycle");
    for frame in jump.video.iter() {
        assert!(matches!(
            manager.offer(id2, frame).unwrap(),
            OfferReply::Accepted { .. }
        ));
        manager.tick();
    }
    manager.close(id2).unwrap();
    manager.run_until_idle();
    assert_eq!(
        manager.take_result(id2).unwrap().unwrap(),
        reference,
        "recycled slot changed the analysis"
    );
}

#[test]
fn acquisition_faults_ride_through_the_service_unsupervised() {
    // The existing pixel-level FaultInjector composes with the service
    // layer: a fault-injected clip analysed through a session is
    // byte-identical to the same degraded clip run unsupervised — the
    // supervisor only intervenes on *service* faults.
    let scene = SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::default()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 95);
    let (faulty, report) = FaultInjector::new(FaultConfig {
        seed: 11,
        occlusion_bars: 2,
        ..FaultConfig::default()
    })
    .inject(&jump.video);
    assert!(report.faulty_frames() > 0);

    let config = streamable_fast();
    let first = jump.poses.poses()[0];
    let mut stream =
        StreamingAnalyzer::new(config.clone(), &scene.camera, first, faulty.fps()).unwrap();
    for frame in faulty.iter() {
        stream.push_frame(frame).unwrap();
    }
    let reference = stream.finish().unwrap();

    let mut manager = SessionManager::new(serve_config());
    let id = manager
        .open(SessionConfig {
            analyzer: config,
            camera: scene.camera,
            first_pose: first,
            fps: faulty.fps(),
        })
        .unwrap();
    for frame in faulty.iter() {
        manager.offer(id, frame).unwrap();
    }
    manager.close(id).unwrap();
    manager.run_until_idle();
    assert_eq!(manager.take_result(id).unwrap().unwrap(), reference);
}
