//! Failure-injection and robustness integration tests: conditions the
//! nominal experiments do not cover — occluders crossing the jumper,
//! unusual athletes, degraded sensors, longer clips.

use slj::prelude::*;
use slj_ga::tracker::RecoveryAction;
use slj_video::scene::NoiseConfig;

fn compact_scene() -> SceneConfig {
    SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::default()
    }
}

#[test]
fn heavy_sensor_noise_still_segments_and_scores() {
    let scene = SceneConfig {
        noise: NoiseConfig {
            pixel_jitter: 9,
            flicker: 0.02,
            spot_count: 6,
            spot_max_radius: 4.0,
            camo_patches: 4,
            camo_radius: 2.0,
        },
        ..compact_scene()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 41);
    let report = JumpAnalyzer::new(AnalyzerConfig::fast())
        .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
        .unwrap();
    // Degraded but functional: tracks most frames, scores plausibly.
    let carried = report
        .tracking
        .iter()
        .filter(|t| t.recovery == RecoveryAction::CarriedOver)
        .count();
    assert!(
        carried <= 4,
        "{carried} frames untrackable under heavy noise"
    );
    assert!(
        report.score.score() >= 4,
        "heavy noise wrecked the score:\n{}",
        report.score
    );
}

#[test]
fn different_athlete_heights_track() {
    let scene = compact_scene();
    for (i, height) in [1.10f64, 1.30, 1.55].iter().enumerate() {
        let dims = BodyDims::for_height(*height);
        let jump_cfg = JumpConfig {
            dims: dims.clone(),
            ..JumpConfig::default()
        };
        let jump = SyntheticJump::generate(&scene, &jump_cfg, 50 + i as u64);
        let config = AnalyzerConfig {
            dims,
            ..AnalyzerConfig::fast()
        };
        let report = JumpAnalyzer::new(config)
            .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
            .unwrap();
        let mut worst = 0.0f64;
        for (est, gt) in report.poses.poses().iter().zip(jump.poses.poses()) {
            worst = worst.max(est.error_against(gt).center_distance);
        }
        assert!(worst < 0.3, "height {height}: worst centre error {worst} m");
    }
}

#[test]
fn longer_clip_tracks_to_the_end() {
    let scene = compact_scene();
    let jump_cfg = JumpConfig {
        frames: 40,
        fps: 20.0,
        ..JumpConfig::default()
    };
    let jump = SyntheticJump::generate(&scene, &jump_cfg, 61);
    let report = JumpAnalyzer::new(AnalyzerConfig::fast())
        .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
        .unwrap();
    assert_eq!(report.poses.len(), 40);
    let last_err = report.poses.poses()[39].error_against(&jump.poses.poses()[39]);
    assert!(
        last_err.center_distance < 0.25,
        "lost the jumper by frame 39: {last_err}"
    );
    // At 2x the frame rate the inter-frame motion halves, so scoring
    // still works on the same stage-split windows.
    assert!(report.score.score() >= 5, "{}", report.score);
}

#[test]
fn measurement_tracks_configured_distance_ordering() {
    // The foot sticks are ~11 px at the compact resolution, so the
    // toe/heel endpoints carry ~±0.15 m of estimation noise; test the
    // ordering across a gap that the resolution can actually resolve.
    let scene = compact_scene();
    let mut measured = Vec::new();
    for (i, d) in [0.7f64, 1.4].iter().enumerate() {
        let cfg = JumpConfig {
            jump_distance: *d,
            ..JumpConfig::default()
        };
        let jump = SyntheticJump::generate(&scene, &cfg, 70 + i as u64);
        let report = JumpAnalyzer::new(AnalyzerConfig::fast())
            .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
            .unwrap();
        measured.push(
            slj::measure_jump(&report.poses, &cfg.dims)
                .unwrap()
                .distance_m,
        );
    }
    assert!(
        measured[1] > measured[0] + 0.15,
        "tracked measurement did not preserve ordering: {measured:?}"
    );
}

#[test]
fn robust_pipeline_handles_paper_background_mode() {
    // The robust configuration (ghost suppression) keeps last-stable
    // background usable end to end.
    use slj_segment::background::{BackgroundConfig, UpdateMode};
    use slj_segment::ghosts::GhostConfig;
    let scene = compact_scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 81);
    let config = AnalyzerConfig {
        segmentation: PipelineConfig {
            background: BackgroundConfig {
                mode: UpdateMode::LastStable,
                ..BackgroundConfig::default()
            },
            ghosts: Some(GhostConfig {
                motion_threshold: 40,
                min_moving_fraction: 0.04,
            }),
            ..PipelineConfig::default()
        },
        // Last-stable background still fragments a few tail frames;
        // best-effort keeps the run alive while masking them out. The
        // calibrated confidence model counts every ladder-recovered
        // frame as degraded too (their measured pose error is ~4-5×
        // the tracked baseline), so the budget covers both.
        robustness: RobustnessPolicy::BestEffort {
            max_degraded_frames: 13,
        },
        ..AnalyzerConfig::fast()
    };
    let report = JumpAnalyzer::new(config)
        .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
        .unwrap();
    let tracked = report
        .tracking
        .iter()
        .filter(|t| t.recovery != RecoveryAction::CarriedOver)
        .count();
    assert!(tracked >= 16, "only {tracked}/20 frames tracked");
    assert!(report.score.score() >= 4, "{}", report.score);
}

#[test]
fn occluder_crossing_the_jumper_does_not_derail_tracking() {
    // A large clutter spot parked ON the jumper's path: it is drawn
    // behind the jumper (occluded) but pollutes the background region
    // around the crossing.
    use rand::SeedableRng;
    use slj_imgproc::noise::Spot;
    use slj_imgproc::pixel::Rgb;
    use slj_video::render::{render_frame, render_silhouette};

    let scene = compact_scene();
    let jump_cfg = JumpConfig::default();
    let poses = synthesize_jump(&jump_cfg);
    // Build the video manually with a fixed large spot mid-path.
    let spot = Spot {
        x: 80.0,
        y: 60.0,
        vx: 0.4,
        vy: 0.0,
        radius: 5.0,
        color: Rgb::new(90, 140, 90),
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let frames: Vec<Frame> = poses
        .poses()
        .iter()
        .enumerate()
        .map(|(k, p)| render_frame(&scene, &jump_cfg.dims, p, &[spot], k, &mut rng, 1234))
        .collect();
    let video = Video::new(frames, 10.0);
    let report = JumpAnalyzer::new(AnalyzerConfig::fast())
        .analyze(&video, &scene.camera, poses.poses()[0])
        .unwrap();
    // Compare against true silhouettes rendered independently.
    let mut worst = 0.0f64;
    for (k, (est, gt)) in report.poses.poses().iter().zip(poses.poses()).enumerate() {
        let err = est.error_against(gt).center_distance;
        if err > worst {
            worst = err;
        }
        let _ = k;
    }
    let _ = render_silhouette; // silence unused import path if optimised out
    assert!(worst < 0.3, "occluder derailed tracking: worst {worst} m");
}
