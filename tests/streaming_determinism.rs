//! Streaming-vs-batch identity suite: feeding a clip frame by frame
//! through [`StreamingAnalyzer`] must produce byte-identical results to
//! handing the whole clip to [`JumpAnalyzer::analyze`] with the same
//! (streamable) configuration — poses, score card, tracking
//! diagnostics, health timeline and silhouette quality — on a clean
//! clip and on a fault-injected one.

use slj::prelude::*;
use slj::JumpAnalysis;
use slj_segment::ghosts::GhostConfig;
use slj_segment::pipeline::Presmooth;

fn streamable_fast() -> AnalyzerConfig {
    // The 14-frame warmup background ghosts the subject's standing
    // spot, so one flight-apex frame comes out small and fragmented;
    // the calibrated quality gate rightly flags it, and a small
    // best-effort budget keeps the run alive. Degraded accounting is
    // part of the streaming-vs-batch identity under test.
    AnalyzerConfig {
        robustness: RobustnessPolicy::BestEffort {
            max_degraded_frames: 2,
        },
        ..AnalyzerConfig::fast().into_streaming(14)
    }
}

fn batch_analysis(
    config: &AnalyzerConfig,
    video: &Video,
    camera: &Camera,
    first: slj_motion::Pose,
) -> JumpAnalysis {
    JumpAnalyzer::new(config.clone())
        .analyze(video, camera, first)
        .expect("batch analysis should succeed")
        .to_analysis()
}

fn stream_analysis(
    config: &AnalyzerConfig,
    video: &Video,
    camera: &Camera,
    first: slj_motion::Pose,
) -> JumpAnalysis {
    let mut stream = StreamingAnalyzer::new(config.clone(), camera, first, video.fps())
        .expect("config is streamable");
    let mut completed = 0usize;
    for (k, frame) in video.iter().enumerate() {
        let update = stream.push_frame(frame).expect("push should succeed");
        assert_eq!(update.frame, k);
        completed += update.completed.len();
        // Incremental health arrives in frame order with no gaps.
        assert_eq!(update.buffered, update.completed.is_empty());
    }
    assert_eq!(
        completed,
        video.len().min(stream.frames_pushed()),
        "every pushed frame's health must be delivered before finish"
    );
    stream.finish().expect("finish should succeed")
}

#[test]
fn clean_clip_streaming_matches_batch() {
    let scene = SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::clean()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 81);
    let first = jump.poses.poses()[0];
    let config = streamable_fast();
    let batch = batch_analysis(&config, &jump.video, &scene.camera, first);
    let streamed = stream_analysis(&config, &jump.video, &scene.camera, first);
    assert_eq!(batch, streamed, "clean clip: streaming != batch");

    // Presmoothing: batch smooths the whole clip before estimating the
    // background, streaming smooths each frame as it arrives. On the
    // noisy scene, with ghost suppression off and on.
    let scene = SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::default()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 84);
    let first = jump.poses.poses()[0];
    for presmooth in [Presmooth::Box { radius: 1 }, Presmooth::Median] {
        for ghosts in [None, Some(GhostConfig::default())] {
            let mut config = streamable_fast();
            config.segmentation.presmooth = presmooth;
            config.segmentation.ghosts = ghosts;
            let batch = batch_analysis(&config, &jump.video, &scene.camera, first);
            let streamed = stream_analysis(&config, &jump.video, &scene.camera, first);
            assert_eq!(
                batch, streamed,
                "{presmooth:?}, ghosts {ghosts:?}: streaming != batch"
            );
        }
    }
}

#[test]
fn fault_injected_clip_streaming_matches_batch() {
    // Faults exercise the recovery ladder, degraded accounting and
    // best-effort scoring — the stateful paths where a streaming
    // reimplementation would first drift from batch.
    let scene = SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::default()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 82);
    let (faulty, _) = FaultInjector::new(FaultConfig {
        seed: 7,
        occlusion_bars: 2,
        ..FaultConfig::default()
    })
    .inject(&jump.video);
    let config = AnalyzerConfig {
        robustness: RobustnessPolicy::BestEffort {
            max_degraded_frames: 10,
        },
        ..streamable_fast()
    };
    let first = jump.poses.poses()[0];
    let batch = batch_analysis(&config, &faulty, &scene.camera, first);
    let streamed = stream_analysis(&config, &faulty, &scene.camera, first);
    assert_eq!(batch, streamed, "fault-injected clip: streaming != batch");
}

#[test]
fn streaming_matches_batch_at_every_parallelism() {
    // A streaming session runs on the caller's thread whatever
    // `AnalyzerConfig.parallelism` says, so one run with the field set
    // stands for every value.
    let scene = SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::clean()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 83);
    let first = jump.poses.poses()[0];
    let serial = batch_analysis(&streamable_fast(), &jump.video, &scene.camera, first);
    let config = AnalyzerConfig {
        parallelism: Parallelism::Fixed(4),
        ..streamable_fast()
    };
    let streamed = stream_analysis(&config, &jump.video, &scene.camera, first);
    assert_eq!(serial, streamed, "streaming != serial batch");
}

#[test]
fn clip_shorter_than_warmup_still_matches_batch() {
    // finish() on a short clip estimates the background from whatever
    // arrived — exactly what batch does when the clip is shorter than
    // the warmup window.
    let scene = SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::clean()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 84);
    let short = Video::new(jump.video.frames()[..8].to_vec(), jump.video.fps());
    let config = AnalyzerConfig {
        // 8 frames cannot satisfy every scoring window strictly; use a
        // generous best-effort budget so both paths reach scoring.
        robustness: RobustnessPolicy::BestEffort {
            max_degraded_frames: 8,
        },
        ..streamable_fast()
    };
    let first = jump.poses.poses()[0];
    let batch = JumpAnalyzer::new(config.clone()).analyze(&short, &scene.camera, first);
    let mut stream = StreamingAnalyzer::new(config, &scene.camera, first, short.fps()).unwrap();
    for frame in short.iter() {
        let update = stream.push_frame(frame).unwrap();
        assert!(update.buffered, "8 < warmup 14: everything stays buffered");
    }
    let streamed = stream.finish();
    match (batch, streamed) {
        (Ok(b), Ok(s)) => assert_eq!(b.to_analysis(), s),
        (Err(b), Err(s)) => assert_eq!(b.to_string(), s.to_string()),
        (b, s) => panic!(
            "batch and streaming disagree on whether the short clip analyses: \
             batch ok = {}, streaming ok = {}",
            b.is_ok(),
            s.is_ok()
        ),
    }
}

#[test]
fn non_streamable_configs_are_rejected_up_front() {
    let camera = Camera::compact();
    let pose = slj_motion::Pose::standing(&slj_motion::BodyDims::default());
    // Default config: whole-clip background.
    let err = StreamingAnalyzer::new(AnalyzerConfig::fast(), &camera, pose, 10.0).unwrap_err();
    assert!(
        err.to_string().contains("cannot stream"),
        "unexpected error: {err}"
    );
    // Warmup set but quality still clip-median.
    let mut config = AnalyzerConfig::fast();
    config.segmentation.background.warmup = Some(12);
    let err = StreamingAnalyzer::new(config, &camera, pose, 10.0).unwrap_err();
    assert!(
        err.to_string().contains("Causal"),
        "unexpected error: {err}"
    );
    // A 1-frame warmup cannot estimate a background.
    let config = AnalyzerConfig::fast().into_streaming(1);
    let err = StreamingAnalyzer::new(config, &camera, pose, 10.0).unwrap_err();
    assert!(
        err.to_string().contains("at least 2"),
        "unexpected error: {err}"
    );
    // The blessed presets pass validation.
    assert!(StreamingAnalyzer::new(AnalyzerConfig::streaming(), &camera, pose, 10.0).is_ok());
}

#[test]
fn finish_before_two_frames_reports_insufficient_warmup() {
    // Regression: finish() used to funnel a 0- or 1-frame backlog into
    // background estimation and surface its "segmentation failed: too
    // few frames" — misattributed for a streaming caller that simply
    // closed the clip too early.
    let camera = Camera::compact();
    let pose = slj_motion::Pose::standing(&slj_motion::BodyDims::default());

    let stream = StreamingAnalyzer::new(AnalyzerConfig::streaming(), &camera, pose, 10.0).unwrap();
    let err = stream.finish().unwrap_err();
    assert!(
        matches!(
            err,
            AnalyzeError::InsufficientWarmup {
                pushed: 0,
                warmup: 14
            }
        ),
        "unexpected error: {err}"
    );
    assert!(err.to_string().contains("at least 2"), "{err}");

    let scene = SceneConfig {
        camera,
        ..SceneConfig::clean()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 85);
    let mut stream = StreamingAnalyzer::new(
        AnalyzerConfig::streaming(),
        &camera,
        jump.poses.poses()[0],
        10.0,
    )
    .unwrap();
    stream.push_frame(&jump.video.frames()[0]).unwrap();
    let err = stream.finish().unwrap_err();
    assert!(
        matches!(
            err,
            AnalyzeError::InsufficientWarmup {
                pushed: 1,
                warmup: 14
            }
        ),
        "unexpected error: {err}"
    );
}

#[test]
fn mismatched_frame_dims_are_rejected_without_state_damage() {
    // Regression: a frame whose dimensions differ from the warm-up
    // background used to reach the segmenter's pixel loops and trip its
    // dims assertion (a panic). It must instead come back as a typed
    // `FrameShapeMismatch` that leaves the analyzer fully usable.
    let scene = SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::clean()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 87);
    let first = jump.poses.poses()[0];
    let (w, h) = jump.video.dims();
    let alien = slj_video::Frame::filled(w + 3, h, slj_imgproc::pixel::Rgb::splat(120));

    let config = streamable_fast();
    let mut clean =
        StreamingAnalyzer::new(config.clone(), &scene.camera, first, jump.video.fps()).unwrap();
    let mut poked = StreamingAnalyzer::new(config, &scene.camera, first, jump.video.fps()).unwrap();
    for (k, frame) in jump.video.iter().enumerate() {
        clean.push_frame(frame).unwrap();
        poked.push_frame(frame).unwrap();
        // Mid-warmup (k = 3) and live (k = 17): both paths must reject.
        if k == 3 || k == 17 {
            let err = poked.push_frame(&alien).unwrap_err();
            assert!(
                matches!(
                    err,
                    AnalyzeError::FrameShapeMismatch { frame, expected, got }
                        if frame == k + 1 && expected == (w, h) && got == (w + 3, h)
                ),
                "unexpected error at frame {k}: {err}"
            );
            assert_eq!(
                poked.frames_pushed(),
                k + 1,
                "a rejected frame must not advance the stream"
            );
        }
    }
    // The rejected pushes left no trace: both runs finish identically.
    assert_eq!(
        clean.finish().unwrap(),
        poked.finish().unwrap(),
        "rejected frames must not perturb the analysis"
    );
}

#[test]
fn checkpoint_resume_is_byte_identical() {
    // The supervisor's crash-recovery contract: restore the last
    // checkpoint, replay the frames pushed since, and the session is
    // byte-identical to one that never crashed — per-frame updates and
    // final analysis alike. Checkpoints are exercised both during
    // warm-up (frame 5) and live (frame 16).
    let scene = SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::default()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 88);
    let first = jump.poses.poses()[0];
    let config = AnalyzerConfig {
        robustness: RobustnessPolicy::BestEffort {
            max_degraded_frames: 10,
        },
        ..streamable_fast()
    };
    for checkpoint_at in [5usize, 16] {
        let mut baseline =
            StreamingAnalyzer::new(config.clone(), &scene.camera, first, jump.video.fps()).unwrap();
        let mut snapshot = None;
        let mut tail_updates = Vec::new();
        for (k, frame) in jump.video.iter().enumerate() {
            let update = baseline.push_frame(frame).unwrap();
            if k >= checkpoint_at {
                tail_updates.push(update);
            }
            if k + 1 == checkpoint_at {
                snapshot = Some(baseline.checkpoint());
            }
        }
        let snapshot = snapshot.expect("checkpoint taken mid-clip");
        assert_eq!(snapshot.frames_pushed(), checkpoint_at);

        let mut resumed = snapshot.resume();
        for (update, frame) in tail_updates
            .iter()
            .zip(&jump.video.frames()[checkpoint_at..])
        {
            assert_eq!(
                &resumed.push_frame(frame).unwrap(),
                update,
                "checkpoint@{checkpoint_at}: replayed update diverged"
            );
        }
        assert_eq!(
            baseline.finish().unwrap(),
            resumed.finish().unwrap(),
            "checkpoint@{checkpoint_at}: resumed analysis diverged"
        );
    }
}

#[test]
fn finish_with_warmup_minus_one_frames_degrades_to_backlog_background() {
    // One frame short of the warmup window: nothing has gone live yet,
    // and finish() must estimate the background from the 13-frame
    // backlog and still agree with batch on the same truncated clip.
    let scene = SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::clean()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 86);
    let config = AnalyzerConfig {
        robustness: RobustnessPolicy::BestEffort {
            max_degraded_frames: 13,
        },
        ..streamable_fast()
    };
    let warmup = config.segmentation.background.warmup.unwrap();
    let short = Video::new(jump.video.frames()[..warmup - 1].to_vec(), jump.video.fps());
    let first = jump.poses.poses()[0];
    let mut stream =
        StreamingAnalyzer::new(config.clone(), &scene.camera, first, short.fps()).unwrap();
    for frame in short.iter() {
        let update = stream.push_frame(frame).unwrap();
        assert!(update.buffered, "warmup-1 frames must all stay buffered");
        assert!(update.observed.is_empty());
    }
    let streamed = stream.finish().expect("finish should degrade, not fail");
    assert_eq!(streamed.poses.len(), warmup - 1);
    let batch = JumpAnalyzer::new(config)
        .analyze(&short, &scene.camera, first)
        .expect("batch on the truncated clip should succeed")
        .to_analysis();
    assert_eq!(batch, streamed, "warmup-1 backlog: streaming != batch");
}

#[test]
fn next_push_completes_predicts_every_push() {
    // Before every push, the analyzer says how many frames that push
    // will complete: 0 while buffering, the whole backlog on the push
    // that fills the warm-up window, 1 once live. A clip shorter than
    // the window only ever buffers.
    let scene = SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::clean()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 85);
    let first = jump.poses.poses()[0];
    for warmup in 2..=14 {
        let config = AnalyzerConfig::fast().into_streaming(warmup);
        // Two live pushes past the window, and one push short of it.
        for frames in [warmup + 2, warmup - 1] {
            let mut stream = StreamingAnalyzer::new(config.clone(), &scene.camera, first, 10.0)
                .expect("config is streamable");
            for (k, frame) in jump.video.iter().take(frames).enumerate() {
                let predicted = stream.next_push_completes();
                let update = stream.push_frame(frame).expect("push should succeed");
                assert_eq!(
                    predicted,
                    update.completed.len(),
                    "warm-up {warmup}, {frames}-frame clip, push {k}"
                );
                let expected = match k + 1 {
                    pushed if pushed < warmup => 0,
                    pushed if pushed == warmup => warmup,
                    _ => 1,
                };
                assert_eq!(predicted, expected, "warm-up {warmup}, push {k}");
            }
        }
    }
}
