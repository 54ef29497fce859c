//! The end-to-end jump analyzer.
//!
//! [`JumpAnalyzer::analyze`] reproduces the complete system of the paper:
//!
//! 1. **Segment** the video (Section 2): estimate the background,
//!    subtract, repair, remove shadows → one silhouette per frame.
//! 2. **Track** the pose (Section 3): the caller supplies the
//!    first-frame stick model (the paper's "trained person" step); every
//!    later frame is fitted by the temporally-seeded GA.
//! 3. **Score** (Section 4): evaluate rules R1–R7 over the estimated
//!    pose sequence and attach coaching advice.

use crate::error::AnalyzeError;
use crate::measure::{measure_jump, JumpMeasurement};
use serde::{Deserialize, Serialize};
use slj_ga::tracker::{RecoveryAction, TemporalTracker, TrackResult, TrackerConfig};
use slj_imgproc::mask::Mask;
use slj_motion::{BodyDims, Pose, PoseSeq};
use slj_runtime::Parallelism;
use slj_score::{score_jump, score_jump_masked, ScoreCard};
use slj_segment::background::UpdateMode;
use slj_segment::pipeline::{PipelineConfig, SegmentPipeline, SegmentationResult};
use slj_segment::quality::{FrameQuality, ReferenceMode};
use slj_video::{Camera, Video};

/// Configuration of the end-to-end analyzer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyzerConfig {
    /// Segmentation pipeline parameters (Section 2).
    pub segmentation: PipelineConfig,
    /// GA tracker parameters (Section 3).
    pub tracker: TrackerConfig,
    /// Athlete dimensions (the paper calibrates these from the
    /// hand-drawn first-frame model; here they are explicit).
    pub dims: BodyDims,
    /// Odd window size of the temporal median filter applied to the
    /// estimated pose sequence before scoring (1 disables). Scoring
    /// aggregates window extrema, so single-frame estimation outliers
    /// can flip verdicts; a 3-frame median removes them.
    pub smoothing_window: usize,
    /// What to do when frames come back degraded (unhealthy silhouette,
    /// escalated or failed tracking).
    pub robustness: RobustnessPolicy,
    /// How per-frame evidence (silhouette issues, recovery rungs) is
    /// condensed into the [`FrameHealth`] confidence score.
    pub confidence: ConfidenceModel,
    /// Ignored: an analysis runs on the caller's thread. Kept only
    /// because perf_stack's layer replay
    /// (`stackbench/src/layers.rs:202`) still reads it.
    pub parallelism: Parallelism,
}

/// How the analyzer treats degraded frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RobustnessPolicy {
    /// Any degraded frame aborts the analysis with
    /// [`AnalyzeError::DegradedClip`] naming the first unhealthy frame.
    /// The default: garbage in, *error* out — never a silently wrong
    /// score.
    #[default]
    Strict,
    /// Complete the analysis as long as no more than
    /// `max_degraded_frames` frames are degraded, excluding them from
    /// the R1–R7 window extrema; the per-frame health timeline and
    /// confidence land in the report.
    BestEffort {
        /// Degraded-frame budget before the analysis aborts anyway.
        max_degraded_frames: usize,
    },
}

/// Confidence below which a frame is considered degraded and (under
/// [`RobustnessPolicy::BestEffort`]) excluded from scoring.
pub const DEGRADED_CONFIDENCE: f64 = 0.5;

/// The confidence model: how silhouette issues and recovery rungs map
/// to a per-frame confidence in `[0, 1]`.
///
/// `confidence = seg_factor × rung_factor`, where `seg_factor` is
/// `max(0, 1 − issue_penalty × #issues)` (1 for a healthy silhouette)
/// and `rung_factor` is the per-rung factor below.
///
/// The defaults are *fitted*, not guessed: `slj eval --sweep` groups
/// frames of the calibration corpus by rung and by silhouette issue
/// count, measures each group's mean ground-truth pose error relative
/// to clean frames, and solves for the factors (least squares for the
/// per-issue penalty). See DESIGN.md §11 and EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceModel {
    /// Confidence lost per failed silhouette-quality check.
    pub issue_penalty: f64,
    /// Rung factor for [`RecoveryAction::WidenedSearch`].
    pub widened_factor: f64,
    /// Rung factor for [`RecoveryAction::ColdRestart`].
    pub cold_restart_factor: f64,
    /// Rung factor for [`RecoveryAction::Interpolated`]. Kept below
    /// [`DEGRADED_CONFIDENCE`]: an interpolated pose is a prediction,
    /// never verified against the frame, so it must stay excluded from
    /// best-effort scoring no matter how clean the (blank) silhouette
    /// metrics look.
    pub interpolated_factor: f64,
    /// Rung factor for [`RecoveryAction::CarriedOver`].
    pub carried_factor: f64,
}

impl Default for ConfidenceModel {
    fn default() -> Self {
        // Factors fitted by the slj-eval calibration sweep: each rung's
        // factor is the ratio of the clean tracked baseline RMSE to
        // that rung's measured RMSE over the full fault matrix (see
        // EXPERIMENTS.md), so confidence is a calibrated estimate of
        // relative pose accuracy rather than a hand-tuned guess.
        ConfidenceModel {
            issue_penalty: 0.5,
            widened_factor: 0.27,
            cold_restart_factor: 0.22,
            interpolated_factor: 0.27,
            carried_factor: 0.0,
        }
    }
}

impl ConfidenceModel {
    /// The rung factor for one recovery action.
    pub fn rung_factor(&self, recovery: RecoveryAction) -> f64 {
        match recovery {
            RecoveryAction::None => 1.0,
            RecoveryAction::WidenedSearch => self.widened_factor,
            RecoveryAction::ColdRestart => self.cold_restart_factor,
            RecoveryAction::Interpolated => self.interpolated_factor,
            RecoveryAction::CarriedOver => self.carried_factor,
        }
    }

    /// The segmentation factor for a frame with `issues` failed
    /// quality checks.
    pub fn seg_factor(&self, issues: usize) -> f64 {
        (1.0 - self.issue_penalty * issues as f64).max(0.0)
    }
}

/// Health of one analysed frame: what segmentation and tracking had to
/// do to produce its pose estimate, condensed into a confidence score.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameHealth {
    /// Frame index.
    pub frame: usize,
    /// Silhouette health from the segmentation pipeline.
    pub quality: FrameQuality,
    /// Which recovery rung produced the pose estimate.
    pub recovery: RecoveryAction,
    /// The frame's Eq. 3 fitness (infinite when carried over).
    pub fitness: f64,
    /// Combined confidence in `[0, 1]`: 1 = clean silhouette, plain
    /// temporal tracking; 0 = carried over.
    pub confidence: f64,
}

impl FrameHealth {
    /// Condenses one frame's evidence into a confidence score under the
    /// given model.
    pub fn with_model(
        frame: usize,
        quality: FrameQuality,
        track: &TrackResult,
        model: &ConfidenceModel,
    ) -> FrameHealth {
        // Segmentation factor: each failed check costs `issue_penalty`.
        let seg = if quality.is_healthy() {
            1.0
        } else {
            model.seg_factor(quality.issues.len())
        };
        // Tracking factor: deeper recovery rungs mean the temporal
        // assumption broke harder.
        let track_factor = model.rung_factor(track.recovery);
        FrameHealth {
            frame,
            quality,
            recovery: track.recovery,
            fitness: track.fitness,
            confidence: seg * track_factor,
        }
    }

    /// Whether this frame should not be trusted for scoring.
    pub fn is_degraded(&self) -> bool {
        self.confidence < DEGRADED_CONFIDENCE
    }
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            segmentation: PipelineConfig::default(),
            tracker: TrackerConfig::default(),
            dims: BodyDims::default(),
            smoothing_window: 3,
            robustness: RobustnessPolicy::default(),
            confidence: ConfidenceModel::default(),
            parallelism: Parallelism::Serial,
        }
    }
}

impl AnalyzerConfig {
    /// A reduced-budget configuration for demos and debug-build tests.
    pub fn fast() -> Self {
        AnalyzerConfig {
            tracker: TrackerConfig::fast(),
            ..AnalyzerConfig::default()
        }
    }

    /// The system exactly as the paper describes it (paper segmentation
    /// settings, default tracker).
    pub fn paper() -> Self {
        AnalyzerConfig {
            segmentation: PipelineConfig::paper(),
            ..AnalyzerConfig::default()
        }
    }

    /// The default streamable configuration:
    /// [`AnalyzerConfig::default`] made causal via
    /// [`into_streaming`](AnalyzerConfig::into_streaming) with a
    /// [`DEFAULT_WARMUP_FRAMES`]-frame background window.
    pub fn streaming() -> Self {
        AnalyzerConfig::default().into_streaming(DEFAULT_WARMUP_FRAMES)
    }

    /// Makes any configuration streamable by removing its whole-clip
    /// dependencies: the background estimate is windowed to the first
    /// `warmup` frames, frame-quality references switch to the causal
    /// prefix median, and the background combination rule switches to
    /// [`UpdateMode::LastStable`]. The last is not a causality
    /// requirement but a correctness one: inside a *leading* window the
    /// jumper occupies the launch area for most frames, so a per-pixel
    /// median burns them into the estimate, whereas the last stable
    /// observation is the post-takeoff (true background) one — and
    /// `LastStable`'s usual weakness, the landed jumper resting at the
    /// *end* of the clip, cannot occur inside a window that ends before
    /// landing. Batch [`JumpAnalyzer::analyze`] honours all three
    /// options identically, so a batch run of the returned
    /// configuration is byte-identical to the streaming run — at the
    /// price that frames after the warmup window no longer inform the
    /// background estimate.
    pub fn into_streaming(mut self, warmup: usize) -> Self {
        self.segmentation.background.warmup = Some(warmup);
        self.segmentation.background.mode = UpdateMode::LastStable;
        self.segmentation.quality.reference = ReferenceMode::Causal;
        self
    }
}

/// Background warmup window (frames) used by
/// [`AnalyzerConfig::streaming`]: long enough that the jumper has left
/// the launch area and the last-stable rule has re-observed it as true
/// background (shorter windows leave takeoff-frame silhouettes
/// shredded), short enough that a streaming run goes live well before a
/// default 20-frame clip ends.
pub const DEFAULT_WARMUP_FRAMES: usize = 14;

/// Everything the end-to-end analysis produced.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// The full segmentation output (background estimate + per-frame
    /// stage masks — the paper's Figs. 1–3 intermediates).
    pub segmentation: SegmentationResult,
    /// Per-frame GA tracking diagnostics.
    pub tracking: Vec<TrackResult>,
    /// The estimated pose sequence (the paper's Figs. 6–7 stick models).
    pub poses: PoseSeq,
    /// The rule verdicts and score (the paper's Section 4).
    pub score: ScoreCard,
    /// Per-frame health timeline: silhouette quality × tracking
    /// recovery, condensed to a confidence score.
    pub health: Vec<FrameHealth>,
    /// The observability spans: per-frame segmentation/tracking data
    /// and per-rule scoring windows, ready to render as a `slj-trace/1`
    /// JSONL trace or aggregate into a metrics registry. Deterministic:
    /// a pure function of the analysis results.
    pub obs: slj_obs::ClipObs,
    /// Jump-performance measurement (takeoff → landing distance, flight
    /// apex) from the final pose sequence; `None` when the clip holds no
    /// measurable jump (e.g. too short, or no airborne phase).
    pub measurement: Option<JumpMeasurement>,
}

impl AnalysisReport {
    /// The final silhouette of each frame.
    pub fn silhouettes(&self) -> Vec<&Mask> {
        self.segmentation
            .frames
            .iter()
            .map(|s| &s.final_mask)
            .collect()
    }

    /// A compact serialisable summary (no pixel data).
    pub fn summary(&self) -> AnalysisSummary {
        summarize(
            &self.poses,
            &self.score,
            &self.tracking,
            &self.health,
            self.measurement,
        )
    }
}

/// Builds the serialisable summary from the pieces every finished
/// analysis carries — shared by the batch report and the streaming
/// [`JumpAnalysis`](crate::JumpAnalysis) so both summarise identically.
pub(crate) fn summarize(
    poses: &PoseSeq,
    score: &ScoreCard,
    tracking: &[TrackResult],
    health: &[FrameHealth],
    measurement: Option<JumpMeasurement>,
) -> AnalysisSummary {
    AnalysisSummary {
        frames: poses.len(),
        score: score.score(),
        violations: score.violations().iter().map(|r| r.number()).collect(),
        advice: score
            .advice()
            .iter()
            .map(|(s, a)| (s.number(), (*a).to_owned()))
            .collect(),
        forward_travel_m: poses.forward_travel(),
        mean_fitness: mean(tracking.iter().map(|t| t.fitness).filter(|f| f.is_finite())),
        mean_generations_to_near_best: mean(
            tracking
                .iter()
                .skip(1)
                .filter(|t| t.ga_estimated())
                .map(|t| t.generations_to_near_best as f64),
        ),
        total_evaluations: tracking.iter().map(|t| t.evaluations).sum(),
        degraded_frames: health
            .iter()
            .filter(|h| h.is_degraded())
            .map(|h| h.frame)
            .collect(),
        mean_confidence: mean(health.iter().map(|h| h.confidence)).unwrap_or(0.0),
        measurement,
    }
}

/// `None` when the iterator is empty — a serialisable stand-in for the
/// NaN that a 0/0 mean would produce (NaN does not survive a JSON
/// round-trip: it serialises as `null`, which fails to deserialise into
/// a bare `f64`).
fn mean(iter: impl Iterator<Item = f64>) -> Option<f64> {
    let v: Vec<f64> = iter.collect();
    if v.is_empty() {
        None
    } else {
        Some(v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// Compact, JSON-friendly digest of an [`AnalysisReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisSummary {
    /// Number of analysed frames.
    pub frames: usize,
    /// Rules satisfied, 0–7.
    pub score: usize,
    /// Violated rule numbers (1-based).
    pub violations: Vec<usize>,
    /// `(standard number, advice)` per violation.
    pub advice: Vec<(usize, String)>,
    /// Horizontal travel of the trunk centre, metres.
    pub forward_travel_m: f64,
    /// Mean Eq. 3 fitness over tracked frames; `None` when every frame
    /// was carried over (no finite fitness to average).
    pub mean_fitness: Option<f64>,
    /// Mean generations until the GA was within 10% of each frame's
    /// final best; `None` when no frame was GA-tracked.
    pub mean_generations_to_near_best: Option<f64>,
    /// Total GA fitness evaluations.
    pub total_evaluations: usize,
    /// Indices of frames below the confidence floor.
    pub degraded_frames: Vec<usize>,
    /// Mean per-frame confidence, 0–1.
    pub mean_confidence: f64,
    /// Jump-performance measurement; `None` (JSON `null`) when the clip
    /// holds no measurable jump.
    pub measurement: Option<JumpMeasurement>,
}

/// The end-to-end analyzer.
#[derive(Debug, Clone, Default)]
pub struct JumpAnalyzer {
    config: AnalyzerConfig,
}

impl JumpAnalyzer {
    /// Creates an analyzer with the given configuration.
    pub fn new(config: AnalyzerConfig) -> Self {
        JumpAnalyzer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Runs segmentation, tracking and scoring over a clip.
    ///
    /// `first_pose` is the stick model of frame 0 — the paper's
    /// hand-drawn initialisation.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError`] when any of the three phases fails (too
    /// few frames, untrackable silhouettes, or stage windows too short
    /// to score).
    pub fn analyze(
        &self,
        video: &Video,
        camera: &Camera,
        first_pose: Pose,
    ) -> Result<AnalysisReport, AnalyzeError> {
        let segmentation = SegmentPipeline::new(self.config.segmentation.clone()).run(video)?;
        let silhouettes: Vec<Mask> = segmentation
            .frames
            .iter()
            .map(|s| s.final_mask.clone())
            .collect();
        let tracking = TemporalTracker::new(self.config.tracker).track(
            &silhouettes,
            first_pose,
            &self.config.dims,
            camera,
        )?;
        let health: Vec<FrameHealth> = segmentation
            .quality
            .iter()
            .zip(&tracking.frames)
            .enumerate()
            .map(|(k, (q, t))| FrameHealth::with_model(k, q.clone(), t, &self.config.confidence))
            .collect();
        let obs_frames = segmentation
            .frames
            .iter()
            .zip(&tracking.frames)
            .enumerate()
            .map(|(k, (stages, track))| crate::obs::frame_obs(k, stages, track))
            .collect();
        let tail = analysis_tail(
            &self.config,
            tracking.to_pose_seq(video.fps()),
            &health,
            obs_frames,
        )?;
        Ok(AnalysisReport {
            segmentation,
            tracking: tracking.frames,
            poses: tail.poses,
            score: tail.score,
            health,
            obs: tail.obs,
            measurement: tail.measurement,
        })
    }
}

/// The smoothed poses and what [`analysis_tail`] derives from them.
pub(crate) struct AnalysisTail {
    pub poses: PoseSeq,
    pub score: ScoreCard,
    pub obs: slj_obs::ClipObs,
    pub measurement: Option<JumpMeasurement>,
}

/// The end of every analysis, shared by [`JumpAnalyzer::analyze`] and
/// [`crate::stream::StreamingAnalyzer::finish`] so both reject, score
/// and measure a clip identically: temporal smoothing, the
/// degraded-frame budget, R1–R7 scoring (best-effort runs exclude the
/// degraded frames from the window extrema), the per-rule spans, and
/// the jump measurement.
pub(crate) fn analysis_tail(
    config: &AnalyzerConfig,
    mut poses: PoseSeq,
    health: &[FrameHealth],
    obs_frames: Vec<slj_obs::FrameObs>,
) -> Result<AnalysisTail, AnalyzeError> {
    if config.smoothing_window > 1 {
        poses = poses.median_smoothed(config.smoothing_window);
    }
    enforce_robustness(health, config.robustness)?;
    let excluded = crate::obs::excluded_frames(health, config.robustness);
    let score = match config.robustness {
        RobustnessPolicy::Strict => score_jump(&poses)?,
        RobustnessPolicy::BestEffort { .. } => score_jump_masked(&poses, &excluded)?,
    };
    let obs = slj_obs::ClipObs {
        frames: obs_frames,
        rules: crate::obs::rule_obs(&poses, &excluded, &score),
    };
    let measurement = measure_jump(&poses, &config.dims).ok();
    Ok(AnalysisTail {
        poses,
        score,
        obs,
        measurement,
    })
}

/// Applies the degraded-frame budget of `robustness` to a finished
/// health timeline.
fn enforce_robustness(
    health: &[FrameHealth],
    robustness: RobustnessPolicy,
) -> Result<(), AnalyzeError> {
    let allowed = match robustness {
        RobustnessPolicy::Strict => 0,
        RobustnessPolicy::BestEffort {
            max_degraded_frames,
        } => max_degraded_frames,
    };
    let degraded: Vec<&FrameHealth> = health.iter().filter(|h| h.is_degraded()).collect();
    if degraded.len() > allowed {
        let first = degraded[0];
        return Err(AnalyzeError::DegradedClip {
            first_frame: first.frame,
            detail: degraded_detail(first),
            degraded: degraded.len(),
            allowed,
            frames: health.len(),
        });
    }
    Ok(())
}

/// Human-readable account of why a frame is degraded, for error
/// messages: "confidence 0.00: silhouette fragmented, area too small;
/// tracking carried over".
fn degraded_detail(h: &FrameHealth) -> String {
    let mut parts = Vec::new();
    if !h.quality.issues.is_empty() {
        let issues: Vec<String> = h.quality.issues.iter().map(|i| i.to_string()).collect();
        parts.push(format!("silhouette {}", issues.join(", ")));
    }
    if h.recovery != RecoveryAction::None {
        parts.push(format!("tracking {}", h.recovery));
    }
    if parts.is_empty() {
        parts.push("low combined confidence".to_owned());
    }
    format!("confidence {:.2}: {}", h.confidence, parts.join("; "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use slj_motion::JumpConfig;
    use slj_video::{SceneConfig, SyntheticJump};

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
    fn analyzes_clean_good_jump() {
        let scene = compact_scene(true);
        let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 1);
        let analyzer = JumpAnalyzer::new(AnalyzerConfig::fast());
        let report = analyzer
            .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
            .unwrap();
        assert_eq!(report.poses.len(), 20);
        assert_eq!(report.tracking.len(), 20);
        assert!(
            report.score.score() >= 6,
            "good jump scored {}:\n{}",
            report.score.score(),
            report.score
        );
        let summary = report.summary();
        assert_eq!(summary.frames, 20);
        assert!(summary.forward_travel_m > 0.6);
        assert!(summary.total_evaluations > 0);
    }

    #[test]
    fn summary_serialises() {
        let scene = compact_scene(true);
        let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 2);
        let analyzer = JumpAnalyzer::new(AnalyzerConfig::fast());
        let report = analyzer
            .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
            .unwrap();
        let json = serde_json::to_string_pretty(&report.summary()).unwrap();
        assert!(json.contains("score"));
        let back: AnalysisSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.frames, 20);
    }

    #[test]
    fn clean_run_has_full_confidence_and_no_degraded_frames() {
        let scene = compact_scene(true);
        let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 4);
        let report = JumpAnalyzer::new(AnalyzerConfig::fast())
            .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
            .unwrap();
        assert_eq!(report.health.len(), report.poses.len());
        let summary = report.summary();
        assert!(summary.degraded_frames.is_empty());
        assert!(
            summary.mean_confidence > 0.9,
            "mean confidence {}",
            summary.mean_confidence
        );
        assert!(summary.mean_fitness.is_some());
        assert!(summary.mean_generations_to_near_best.is_some());
    }

    #[test]
    fn strict_rejects_heavily_occluded_clip_naming_first_bad_frame() {
        use slj_video::{FaultConfig, FaultInjector};
        let scene = compact_scene(true);
        let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 5);
        let (faulty, _) = FaultInjector::new(FaultConfig {
            occlusion_bars: 6,
            ..FaultConfig::default()
        })
        .inject(&jump.video);
        let err = JumpAnalyzer::new(AnalyzerConfig::fast())
            .analyze(&faulty, &scene.camera, jump.poses.poses()[0])
            .unwrap_err();
        match err {
            AnalyzeError::DegradedClip {
                first_frame,
                degraded,
                allowed,
                frames,
                ref detail,
            } => {
                assert_eq!(allowed, 0);
                assert_eq!(frames, jump.video.len());
                assert!(degraded > 0);
                assert!(first_frame < frames);
                assert!(detail.contains("confidence"), "detail: {detail}");
            }
            other => panic!("expected DegradedClip, got {other}"),
        }
    }

    #[test]
    fn best_effort_completes_where_strict_refuses() {
        use slj_video::{FaultConfig, FaultInjector};
        let scene = compact_scene(true);
        let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 5);
        let (faulty, _) = FaultInjector::new(FaultConfig {
            occlusion_bars: 6,
            ..FaultConfig::default()
        })
        .inject(&jump.video);
        let cfg = AnalyzerConfig {
            robustness: RobustnessPolicy::BestEffort {
                max_degraded_frames: 10,
            },
            ..AnalyzerConfig::fast()
        };
        let report = JumpAnalyzer::new(cfg)
            .analyze(&faulty, &scene.camera, jump.poses.poses()[0])
            .unwrap();
        let summary = report.summary();
        assert!(summary.mean_confidence < 1.0);
        // The clean run of the same jump scores >= 6; best-effort on the
        // occluded copy must stay in the same neighbourhood.
        assert!(
            report.score.score() >= 4,
            "best-effort score {}\n{}",
            report.score.score(),
            report.score
        );
    }

    #[test]
    fn best_effort_budget_still_bounds_damage() {
        use slj_video::{FaultConfig, FaultInjector};
        let scene = compact_scene(true);
        let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 5);
        let (faulty, _) = FaultInjector::new(FaultConfig {
            occlusion_bars: 6,
            ..FaultConfig::default()
        })
        .inject(&jump.video);
        let cfg = AnalyzerConfig {
            robustness: RobustnessPolicy::BestEffort {
                max_degraded_frames: 0,
            },
            ..AnalyzerConfig::fast()
        };
        let err = JumpAnalyzer::new(cfg)
            .analyze(&faulty, &scene.camera, jump.poses.poses()[0])
            .unwrap_err();
        assert!(matches!(err, AnalyzeError::DegradedClip { .. }));
    }

    #[test]
    fn summary_mean_fields_survive_json_round_trip_when_absent() {
        // Regression: a summary whose every frame was carried over used
        // to hold `mean_fitness: f64::NAN`, which serialises as `null`
        // and then fails to deserialise into a bare f64.
        let summary = AnalysisSummary {
            frames: 0,
            score: 0,
            violations: Vec::new(),
            advice: Vec::new(),
            forward_travel_m: 0.0,
            mean_fitness: None,
            mean_generations_to_near_best: None,
            total_evaluations: 0,
            degraded_frames: Vec::new(),
            mean_confidence: 0.0,
            measurement: None,
        };
        let json = serde_json::to_string(&summary).unwrap();
        let back: AnalysisSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.mean_fitness, None);
        assert_eq!(back.mean_generations_to_near_best, None);
    }

    #[test]
    fn too_short_video_errors() {
        let scene = compact_scene(true);
        let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 3);
        let one = Video::new(vec![jump.video.frames()[0].clone()], 10.0);
        let analyzer = JumpAnalyzer::new(AnalyzerConfig::fast());
        let err = analyzer
            .analyze(&one, &scene.camera, jump.poses.poses()[0])
            .unwrap_err();
        assert!(matches!(err, AnalyzeError::Segment(_)));
    }
}
