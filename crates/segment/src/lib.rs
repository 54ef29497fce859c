//! The paper's five-step human segmentation pipeline (Section 2).
//!
//! > (1) Generate the background image for a video sequence;
//! > (2) Subtract the background image from each frame;
//! > (3) Remove noises and small spots caused by the light change;
//! > (4) Fill up small holes in the objects;
//! > (5) Remove shadows.
//!
//! Each step is its own module with its own configuration, and
//! [`pipeline::SegmentPipeline`] chains them while exposing every
//! intermediate mask (the paper's Figure 2 shows exactly those
//! intermediates, and the Fig. 2 experiment measures them against ground
//! truth).
//!
//! * [`background`] — Step 1: temporal change detection.
//! * [`foreground`] — Step 2: background subtraction.
//! * [`cleanup`] — Steps 3–4: 8-neighbour noise filter, small-spot
//!   removal, hole filling.
//! * [`ghosts`] — extension: motion-based ghost suppression (after the
//!   same Cucchiara et al. paper the shadow mask comes from).
//! * [`shadow`] — Step 5: the HSV shadow mask of Eqs. 1–2
//!   (after Cucchiara et al.).
//! * [`segmenter`] — the per-frame engine: fused subtraction + shadow
//!   predicate over a cached background-HSV plane, arena-backed scratch
//!   buffers, zero allocations per frame in steady state.
//! * [`pipeline`] — the composed pipeline.
//! * [`metrics`] — per-stage accuracy against ground truth.
//! * [`quality`] — per-frame silhouette health metrics (area ratio,
//!   fragmentation, border clipping) for graceful degradation
//!   downstream.
//!
//! # Example
//!
//! ```
//! use slj_segment::pipeline::{PipelineConfig, SegmentPipeline};
//! use slj_video::{SceneConfig, SyntheticJump};
//! use slj_motion::JumpConfig;
//!
//! let jump = SyntheticJump::generate(&SceneConfig::default(), &JumpConfig::default(), 1);
//! let pipeline = SegmentPipeline::new(PipelineConfig::default());
//! let result = pipeline.run(&jump.video).unwrap();
//! let iou = result.frames[10].final_mask.iou(&jump.silhouettes[10]).unwrap();
//! assert!(iou > 0.5);
//! ```

#![forbid(unsafe_code)]

pub mod background;
pub mod cleanup;
pub mod error;
pub mod foreground;
pub mod ghosts;
pub mod metrics;
pub mod pipeline;
pub mod quality;
pub mod segmenter;
pub mod shadow;

pub use error::SegmentError;
pub use pipeline::{FrameStages, PipelineConfig, Presmooth, SegmentPipeline, SegmentationResult};
pub use quality::{FrameQuality, QualityConfig, QualityIssue, ReferenceMode};
pub use segmenter::{FrameArena, FrameSegmenter, PreparedBackground};
pub use slj_obs::{spans, Profiler, SegmentObs};
