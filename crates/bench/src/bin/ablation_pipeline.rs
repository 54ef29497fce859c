//! Ablation D — segmentation pipeline configurations.
//!
//! Compares, end to end on the same clips, the paper's exact pipeline
//! against this reproduction's hardened variants:
//!
//! * **paper**: last-stable background, local pinhole rule, shadows on;
//! * **paper + ghosts**: same, plus motion-based ghost suppression
//!   (the cure for the last-stable rule's burn-in of the landed jumper);
//! * **default**: median background, flood-fill holes, shadows on;
//! * **robust**: default + ghost suppression.
//!
//! Reported per configuration: micro-averaged final-mask IoU/precision,
//! frames the tracker could not use (carried over), and the final score
//! of the (good) jump.

use slj::prelude::*;
use slj_bench::{banner, f3, print_table};
use slj_ga::tracker::RecoveryAction;
use slj_segment::background::{BackgroundConfig, UpdateMode};
use slj_segment::ghosts::GhostConfig;
use slj_segment::metrics::evaluate_clip;
use slj_segment::pipeline::SegmentPipeline;

const SEEDS: [u64; 2] = [31, 32];

fn main() {
    banner(
        "Ablation D",
        "pipeline configurations end-to-end (good jump, default scene)",
        SEEDS[0],
    );
    let scene = SceneConfig::default();

    let ghost_cfg = GhostConfig {
        motion_threshold: 40,
        min_moving_fraction: 0.04,
    };
    let configs: Vec<(&str, PipelineConfig)> = vec![
        ("paper", PipelineConfig::paper()),
        (
            "paper + ghosts",
            PipelineConfig {
                ghosts: Some(ghost_cfg),
                background: BackgroundConfig {
                    mode: UpdateMode::LastStable,
                    ..BackgroundConfig::default()
                },
                ..PipelineConfig::paper()
            },
        ),
        ("default (median bg)", PipelineConfig::default()),
        ("robust (median + ghosts)", PipelineConfig::robust()),
    ];

    let mut rows = Vec::new();
    for (label, pipe_cfg) in &configs {
        let mut iou = 0.0;
        let mut precision = 0.0;
        let mut carried = 0usize;
        let mut score = 0usize;
        for &seed in &SEEDS {
            let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), seed);
            // Segmentation quality.
            let result = SegmentPipeline::new(pipe_cfg.clone())
                .run(&jump.video)
                .expect("pipeline");
            let clip = evaluate_clip(&result, &jump.silhouettes, 2).expect("metrics");
            iou += clip.stages.final_mask.iou();
            precision += clip.stages.final_mask.precision();
            // End-to-end behaviour.
            let analyzer_cfg = AnalyzerConfig {
                segmentation: pipe_cfg.clone(),
                ..AnalyzerConfig::default()
            };
            let report = JumpAnalyzer::new(analyzer_cfg)
                .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
                .expect("analysis");
            carried += report
                .tracking
                .iter()
                .filter(|t| t.recovery == RecoveryAction::CarriedOver)
                .count();
            score += report.score.score();
        }
        let n = SEEDS.len() as f64;
        rows.push(vec![
            (*label).to_owned(),
            f3(iou / n),
            f3(precision / n),
            format!("{:.1}", carried as f64 / n),
            format!("{:.1}/7", score as f64 / n),
        ]);
    }
    print_table(
        &[
            "pipeline",
            "final IoU",
            "final precision",
            "carried frames",
            "score (good jump)",
        ],
        &rows,
    );
    println!(
        "\nReading: the paper's exact pipeline suffers from the last-stable\n\
         rule's ghost (burnt-in landed jumper) — precision collapses and the\n\
         clip tail becomes untrackable. Either fix works: ghost suppression\n\
         rescues the paper pipeline, and the median background avoids the\n\
         ghost altogether; combining both is the most robust."
    );
}
