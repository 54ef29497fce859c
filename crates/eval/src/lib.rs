//! `slj-eval` — the ground-truth evaluation harness.
//!
//! The paper validates its tracker by eye; the synthetic scenes in
//! `slj-video` know the exact pose and silhouette behind every frame,
//! so this crate turns validation into numbers and the numbers into
//! shipped defaults:
//!
//! * [`metrics`] — per-frame pose accuracy (endpoint RMSE, per-stick
//!   angle error) and segmentation IoU against truth re-rendered from
//!   [`slj_video::ClipTruth`] poses.
//! * [`matrix`] — the fault-matrix runner: a seeded grid of
//!   (clip × fault profile × gap policy) cells producing the
//!   deterministic `EVAL_accuracy.json` report, including the
//!   kinematic-interpolation vs carry-over A/B on gap frames.
//! * [`calibrate`](mod@calibrate) — the ROC sweep over segmentation quality
//!   thresholds and the confidence-model fit that back the defaults
//!   committed into `slj-segment` and `slj`.
//!
//! Everything here is seeded and deterministic: two runs of the same
//! matrix emit byte-identical JSON, which is what lets CI diff the
//! accuracy report like source code.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod matrix;
pub mod metrics;

pub use calibrate::{
    calibrate, collect_corpus, fit_confidence, sweep_quality_thresholds, CalibrationReport,
    ConfidenceFit, CorpusFrame, SweepConfig, ThresholdSweep,
};
pub use matrix::{
    markdown_summary, run_matrix, standard_profiles, CellResult, EvalReport, FaultProfile,
    GapPolicy, InterpolationAb, MatrixConfig, SCHEMA,
};
pub use metrics::{
    frame_pose_error, pose_seq_errors, segmentation_iou, FramePoseError, PoseAccuracy,
};
