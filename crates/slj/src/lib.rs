//! # slj — Motion Analysis for the Standing Long Jump
//!
//! A production-quality Rust reproduction of Hsu, Hsieh, Chen, Chen &
//! Yang, *"Motion Analysis for the Standing Long Jump"* (ICDCSW 2006).
//!
//! The paper builds a system that watches a side-view video of a child's
//! standing long jump and (1) segments the jumper from the background,
//! (2) fits an articulated 8-stick model to every frame with a
//! temporally-seeded genetic algorithm, and (3) scores the jump against
//! physical-education standards. This crate is the façade over the whole
//! workspace:
//!
//! | Crate | Role |
//! |---|---|
//! | `slj-imgproc` | image-processing substrate |
//! | `slj-motion`  | stick model, kinematics, jump synthesis |
//! | `slj-video`   | synthetic side-view camera with ground truth |
//! | `slj-segment` | the five-step segmentation pipeline (Section 2) |
//! | `slj-ga`      | the GA pose estimator and temporal tracker (Section 3) |
//! | `slj-score`   | rules R1–R7 and coaching advice (Section 4) |
//!
//! [`JumpAnalyzer`] wires them into the end-to-end flow:
//! video → background → silhouettes → tracked poses → score card.
//!
//! # Quick start
//!
//! ```
//! use slj::prelude::*;
//!
//! // Film a jump (synthetic camera; the paper used a real one).
//! let scene = SceneConfig { camera: Camera::compact(), ..SceneConfig::clean() };
//! let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 42);
//!
//! // Analyse it: the first-frame pose plays the role of the paper's
//! // hand-drawn stick figure.
//! let analyzer = JumpAnalyzer::new(AnalyzerConfig::fast());
//! let report = analyzer
//!     .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
//!     .unwrap();
//! println!("{}", report.score);
//! assert!(report.score.score() >= 6);
//! ```

#![forbid(unsafe_code)]

pub mod analyzer;
pub mod error;
pub mod measure;
pub mod obs;
pub mod report;
pub mod stream;
pub mod viz;

pub use analyzer::{
    AnalysisReport, AnalysisSummary, AnalyzerConfig, ConfidenceModel, FrameHealth, JumpAnalyzer,
    RobustnessPolicy, DEFAULT_WARMUP_FRAMES,
};
pub use error::AnalyzeError;
pub use measure::{measure_jump, JumpDirection, JumpMeasurement, MeasureError};
pub use report::{health_timeline, markdown_report, suspect_frames};
pub use slj_obs::{
    ClipObs, FrameObs, MetricsRegistry, Profiler, RuleObs, SegmentObs, TrackObs, TRACE_SCHEMA,
};
pub use slj_runtime::Parallelism;
pub use stream::{
    AnalyzerScratch, FrameUpdate, JumpAnalysis, StreamingAnalyzer, StreamingCheckpoint,
};

/// Convenience re-exports of the workspace's primary types.
pub mod prelude {
    pub use crate::analyzer::{
        AnalysisReport, AnalyzerConfig, ConfidenceModel, FrameHealth, JumpAnalyzer,
        RobustnessPolicy, DEFAULT_WARMUP_FRAMES,
    };
    pub use crate::error::AnalyzeError;
    pub use crate::measure::{measure_jump, JumpMeasurement};
    pub use crate::stream::{FrameUpdate, JumpAnalysis, StreamingAnalyzer, StreamingCheckpoint};
    pub use slj_ga::tracker::{TemporalTracker, TrackerConfig};
    pub use slj_motion::{
        synthesize_jump, Angle, BodyDims, JumpConfig, JumpFlaw, Pose, PoseSeq, StickKind,
    };
    pub use slj_obs::{ClipObs, MetricsRegistry, TRACE_SCHEMA};
    pub use slj_runtime::Parallelism;
    pub use slj_score::{score_jump, RuleId, ScoreCard, Standard};
    pub use slj_segment::pipeline::{PipelineConfig, SegmentPipeline};
    pub use slj_video::{
        Camera, FaultConfig, FaultInjector, Frame, SceneConfig, SyntheticJump, Video,
    };
}
