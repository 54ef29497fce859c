//! Oracle for the fused segmentation engine: every stage plane that
//! [`FrameSegmenter::segment_into`] writes must equal what the
//! library's own unfused stage modules produce when composed in the
//! paper's order — `ForegroundExtractor` → `NoiseFilter` →
//! `SpotRemover` → `GhostDetector` → `HoleFiller` →
//! `ShadowDetector::remove_shadows`.
//!
//! The engine fuses subtraction with the Eq. 1 shadow predicate,
//! evaluates the predicate lazily on hole-filled pixels, and reuses
//! arena-backed labelling for spot removal and ghosting; each of those
//! shortcuts is checked here against the plain per-stage operator. The
//! configurations cover both hole-fill modes, ghost suppression off and
//! on, and a `LastStable` background with ghosts on, where the
//! burnt-in landing blob makes ghost verdicts fire.

use slj_imgproc::mask::Mask;
use slj_motion::JumpConfig;
use slj_segment::background::BackgroundEstimator;
use slj_segment::cleanup::{HoleFiller, NoiseFilter, SpotRemover};
use slj_segment::foreground::ForegroundExtractor;
use slj_segment::ghosts::{GhostConfig, GhostDetector};
use slj_segment::pipeline::{FrameStages, PipelineConfig};
use slj_segment::shadow::ShadowDetector;
use slj_segment::{FrameSegmenter, PreparedBackground};
use slj_video::{Frame, SceneConfig, SyntheticJump};
use std::sync::Arc;

/// One frame through the unfused stage modules, in pipeline order.
fn composed(
    config: &PipelineConfig,
    background: &Frame,
    frame: &Frame,
    previous: Option<&Frame>,
) -> FrameStages {
    let raw = ForegroundExtractor::new(config.foreground).extract(frame, background);
    let denoised = NoiseFilter::new(config.noise).apply(&raw);
    let despotted = SpotRemover::new(config.spots).apply(&denoised);
    let (deghosted, ghost_verdicts) = match config.ghosts {
        Some(ghosts) => GhostDetector::new(ghosts)
            .suppress(&despotted, frame, previous)
            .expect("frame, previous frame and mask share dimensions"),
        None => (despotted.clone(), Vec::new()),
    };
    let filled = HoleFiller::new(config.holes).apply(&deghosted);
    let (final_mask, shadow) = match config.shadow {
        Some(params) => ShadowDetector::new(params).remove_shadows(frame, background, &filled),
        None => (filled.clone(), Mask::new(frame.width(), frame.height())),
    };
    FrameStages {
        raw,
        denoised,
        despotted,
        deghosted,
        ghost_verdicts,
        filled,
        shadow,
        final_mask,
    }
}

#[test]
fn fused_engine_matches_composed_stage_modules() {
    let configs = [
        ("default", PipelineConfig::default()),
        ("robust", PipelineConfig::robust()),
        ("paper", PipelineConfig::paper()),
        (
            "paper+ghosts",
            PipelineConfig {
                ghosts: Some(GhostConfig::default()),
                ..PipelineConfig::paper()
            },
        ),
    ];
    for seed in [5, 11, 41] {
        let jump = SyntheticJump::generate(&SceneConfig::default(), &JumpConfig::default(), seed);
        let frames = jump.video.frames();
        for (name, config) in &configs {
            let background = BackgroundEstimator::new(config.background)
                .estimate(&jump.video)
                .expect("a 20-frame clip has a background")
                .image;
            let mut segmenter =
                FrameSegmenter::new(config, Arc::new(PreparedBackground::new(&background)));
            let mut fused = FrameStages::empty();
            let mut ghosts_removed = 0;
            for (k, frame) in frames.iter().enumerate() {
                let previous = k.checked_sub(1).map(|p| &frames[p]);
                segmenter
                    .segment_into(frame, previous, &mut fused)
                    .expect("frames share dimensions");
                let oracle = composed(config, &background, frame, previous);
                let at = format!("{name}, seed {seed}, frame {k}");
                assert_eq!(fused.raw, oracle.raw, "raw: {at}");
                assert_eq!(fused.denoised, oracle.denoised, "denoised: {at}");
                assert_eq!(fused.despotted, oracle.despotted, "despotted: {at}");
                assert_eq!(fused.deghosted, oracle.deghosted, "deghosted: {at}");
                assert_eq!(
                    fused.ghost_verdicts, oracle.ghost_verdicts,
                    "ghost verdicts: {at}"
                );
                assert_eq!(fused.filled, oracle.filled, "filled: {at}");
                assert_eq!(fused.shadow, oracle.shadow, "shadow: {at}");
                assert_eq!(fused.final_mask, oracle.final_mask, "final: {at}");
                ghosts_removed += fused.ghost_verdicts.iter().filter(|v| v.is_ghost).count();
            }
            if *name == "paper+ghosts" {
                assert!(
                    ghosts_removed > 0,
                    "seed {seed}: no ghost verdict fired, so the ghost stage went unchecked"
                );
            }
        }
    }
}
