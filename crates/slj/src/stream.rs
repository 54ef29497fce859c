//! Frame-at-a-time analysis with O(1)-in-frames memory.
//!
//! [`StreamingAnalyzer`] is [`JumpAnalyzer`](crate::JumpAnalyzer)
//! restructured around arrival order: frames go in one at a time via
//! [`push_frame`](StreamingAnalyzer::push_frame), per-frame
//! [`FrameHealth`] comes back incrementally, and
//! [`finish`](StreamingAnalyzer::finish) closes the clip with the same
//! degraded-frame policy and R1–R7 scoring as the batch path.
//!
//! The streaming state is O(1) in clip length: one reusable
//! [`FrameStages`], one scratch arena inside the frame segmenter, the
//! previous input frame (ghost suppression's reference), the tracker's
//! previous pose, and small per-frame scalars (areas, poses, health) —
//! never the frames or masks themselves. Before the background warmup
//! window fills, pushed frames are buffered (bounded by the warmup
//! length, not the clip length).
//!
//! **Byte-identity with batch:** a streamable configuration
//! ([`AnalyzerConfig::into_streaming`]) confines the whole-clip
//! dependencies — background estimation and quality references — to
//! causal windows that [`JumpAnalyzer::analyze`](crate::JumpAnalyzer)
//! honours identically, the segmentation engine is the same
//! [`FrameSegmenter`] the batch pipeline runs, tracking goes through
//! the very functions the batch path calls
//! ([`TrackerStream`] is the loop body
//! of `track`), and `finish` ends in the same smoothing, robustness,
//! scoring and measurement function as batch. The
//! `streaming_determinism` integration test asserts
//! equality field-by-field on clean and fault-injected clips.

use crate::analyzer::{analysis_tail, AnalyzerConfig, FrameHealth};
use crate::error::AnalyzeError;
use slj_ga::tracker::{TemporalTracker, TrackResult, TrackScratch, TrackerStream};
use slj_imgproc::components::Labeling;
use slj_imgproc::image::ImageBuffer;
use slj_motion::{Pose, PoseSeq};
use slj_score::ScoreCard;
use slj_segment::background::{BackgroundEstimator, BackgroundScratch, EstimatedBackground};
use slj_segment::pipeline::FrameStages;
use slj_segment::quality::{causal_reference_area, FrameQuality, ReferenceMode};
use slj_segment::segmenter::{FrameArena, FrameSegmenter, PreparedBackground};
use slj_video::{Camera, Frame, Video};
use std::sync::Arc;

/// What one [`StreamingAnalyzer::push_frame`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameUpdate {
    /// Index of the frame just pushed.
    pub frame: usize,
    /// Whether that frame is still buffered awaiting the background
    /// warmup window (its health will arrive with a later update).
    pub buffered: bool,
    /// Health of frames completed by this push, in frame order. Empty
    /// while warming up; the whole backlog when the warmup window
    /// fills; exactly one entry per push thereafter.
    pub completed: Vec<FrameHealth>,
    /// Observability spans of the same completed frames (index-aligned
    /// with `completed`): segmentation stage populations and GA
    /// tracking accounting, identical to what the batch report's
    /// [`ClipObs`](slj_obs::ClipObs) holds for those frames.
    pub observed: Vec<slj_obs::FrameObs>,
}

/// A finished streaming analysis: everything
/// [`AnalysisReport`](crate::AnalysisReport) holds except the per-frame
/// pixel data (stage masks), which a streaming run never retains.
#[derive(Debug, Clone, PartialEq)]
pub struct JumpAnalysis {
    /// The estimated (smoothed) pose sequence.
    pub poses: PoseSeq,
    /// The rule verdicts and score.
    pub score: ScoreCard,
    /// Per-frame GA tracking diagnostics.
    pub tracking: Vec<TrackResult>,
    /// Per-frame health timeline.
    pub health: Vec<FrameHealth>,
    /// Per-frame silhouette quality.
    pub quality: Vec<FrameQuality>,
    /// The observability spans — bit-identical to the batch report's
    /// [`obs`](crate::AnalysisReport::obs) over the same clip and
    /// configuration.
    pub obs: slj_obs::ClipObs,
    /// Jump-performance measurement from the final pose sequence —
    /// identical to the batch report's
    /// [`measurement`](crate::AnalysisReport::measurement); `None` when
    /// the clip holds no measurable jump.
    pub measurement: Option<crate::JumpMeasurement>,
}

impl JumpAnalysis {
    /// A compact serialisable summary (no pixel data) — the same
    /// [`AnalysisSummary`](crate::AnalysisSummary) a batch
    /// [`AnalysisReport`](crate::AnalysisReport) over the same clip and
    /// configuration produces.
    pub fn summary(&self) -> crate::AnalysisSummary {
        crate::analyzer::summarize(
            &self.poses,
            &self.score,
            &self.tracking,
            &self.health,
            self.measurement,
        )
    }
}

impl crate::AnalysisReport {
    /// The streaming-comparable subset of this report: everything but
    /// the retained pixel data. Equal (`==`) to the [`JumpAnalysis`]
    /// of a streaming run over the same clip and configuration.
    pub fn to_analysis(&self) -> JumpAnalysis {
        JumpAnalysis {
            poses: self.poses.clone(),
            score: self.score.clone(),
            tracking: self.tracking.clone(),
            health: self.health.clone(),
            quality: self.segmentation.quality.clone(),
            obs: self.obs.clone(),
            measurement: self.measurement,
        }
    }
}

/// Cap on the spare input-frame pool a scratch carries: enough to cover
/// any realistic warmup backlog plus the in-flight frame, small enough
/// that a retired session never pins more than a few dozen frames.
const MAX_SPARE_FRAMES: usize = 32;

/// The recyclable heavy state of a retired [`StreamingAnalyzer`]:
/// every buffer whose size scales with the frame area or the GA
/// configuration, reclaimed by [`finish_reclaimed`] and re-installed
/// into a successor with [`with_scratch`]. Purely an allocation cache —
/// analyses are byte-identical with or without it — which is what lets
/// `slj-serve` recycle session slots with zero steady-state large
/// allocations.
///
/// Cloning yields an *empty* scratch: checkpoints deep-copy analysis
/// state, never allocation caches.
///
/// [`finish_reclaimed`]: StreamingAnalyzer::finish_reclaimed
/// [`with_scratch`]: StreamingAnalyzer::with_scratch
#[derive(Debug)]
pub struct AnalyzerScratch {
    /// Background estimate planes (image + support), re-estimated in
    /// place per clip.
    background: Option<EstimatedBackground>,
    /// Median-stack scratch for background estimation.
    estimator: BackgroundScratch,
    /// Channel-split background planes, refreshed in place on reuse.
    /// Kept shared: a supervisor's checkpoint of the retired analyzer
    /// may still hold it, and it is unwrapped only when the next clip
    /// goes live, after that checkpoint is gone.
    prepared: Option<Arc<PreparedBackground>>,
    /// The frame segmenter's per-frame scratch arena.
    arena: FrameArena,
    /// The reusable segmentation stage buffer.
    stages: FrameStages,
    /// The tracker's recyclable state (Eq. 3 evaluator + rung memos).
    track: TrackScratch,
    /// The quality assessor's connected-component label map.
    labeling: Labeling,
    /// Spare input-frame buffers, capped at [`MAX_SPARE_FRAMES`].
    frames: Vec<Frame>,
}

impl Default for AnalyzerScratch {
    fn default() -> Self {
        AnalyzerScratch {
            background: None,
            estimator: BackgroundScratch::default(),
            prepared: None,
            arena: FrameArena::default(),
            stages: FrameStages::empty(),
            track: TrackScratch::default(),
            labeling: Labeling::empty(),
            frames: Vec::new(),
        }
    }
}

impl Clone for AnalyzerScratch {
    fn clone(&self) -> Self {
        AnalyzerScratch::default()
    }
}

impl AnalyzerScratch {
    /// A spare frame buffer (empty when the pool is dry).
    pub fn take_frame(&mut self) -> Frame {
        self.frames.pop().unwrap_or_else(|| Frame::new(0, 0))
    }

    /// Returns a frame buffer to the pool (e.g. a queued frame a
    /// supervisor is discarding), dropping it when the pool is full.
    pub fn recycle_frame(&mut self, frame: Frame) {
        if self.frames.len() < MAX_SPARE_FRAMES {
            self.frames.push(frame);
        }
    }

    /// Reabsorbs a retired live state's heavy buffers.
    fn absorb_live(
        &mut self,
        background: EstimatedBackground,
        segmenter: FrameSegmenter,
        stages: FrameStages,
        tracker: TrackerStream,
        labeling: Labeling,
        previous_input: Option<Frame>,
    ) {
        self.background = Some(background);
        let (prepared, arena) = segmenter.into_parts();
        self.arena = arena;
        self.prepared = Some(prepared);
        self.stages = stages;
        self.track = tracker.reclaim_scratch();
        self.labeling = labeling;
        if let Some(frame) = previous_input {
            self.recycle_frame(frame);
        }
    }
}

/// Everything live segmentation + tracking needs once the background
/// warmup window has filled.
#[derive(Debug, Clone)]
struct LiveState {
    background: EstimatedBackground,
    segmenter: FrameSegmenter,
    /// The one reusable stage buffer — masks never accumulate.
    stages: FrameStages,
    tracker: TrackerStream,
    /// The quality assessor's reusable component label map.
    labeling: Labeling,
    /// Previous *input* frame: ghost suppression's motion reference.
    previous_input: Option<Frame>,
    /// Per-frame final-mask areas, for the causal quality reference.
    areas: Vec<usize>,
    poses: Vec<Pose>,
    tracking: Vec<TrackResult>,
    quality: Vec<FrameQuality>,
    health: Vec<FrameHealth>,
    /// Per-frame observability spans, collected as each frame
    /// completes (the stage masks are reused, so `SegmentObs` must be
    /// taken before the next frame overwrites them).
    obs_frames: Vec<slj_obs::FrameObs>,
}

/// The frame-at-a-time analyzer. See the module docs for the contract;
/// see [`AnalyzerConfig::into_streaming`] for what makes a
/// configuration streamable.
#[derive(Debug, Clone)]
pub struct StreamingAnalyzer {
    config: AnalyzerConfig,
    camera: Camera,
    first_pose: Pose,
    fps: f64,
    warmup: usize,
    /// Presmoothed frames awaiting the warmup window (≤ `warmup`).
    pending: Vec<Frame>,
    live: Option<LiveState>,
    frames_pushed: usize,
    /// Recyclable heavy state (see [`AnalyzerScratch`]); cloned (i.e.
    /// checkpointed) analyzers start with an empty one.
    scratch: AnalyzerScratch,
}

impl StreamingAnalyzer {
    /// Creates a streaming analyzer for one clip.
    ///
    /// `first_pose` and `camera` play the same roles as in
    /// [`JumpAnalyzer::analyze`](crate::JumpAnalyzer::analyze); `fps`
    /// is the clip frame rate (batch reads it off the `Video`).
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError::NotStreamable`] unless the configuration
    /// is causal: a background warmup window of at least 2 frames and
    /// [`ReferenceMode::Causal`] quality references (use
    /// [`AnalyzerConfig::into_streaming`]).
    pub fn new(
        config: AnalyzerConfig,
        camera: &Camera,
        first_pose: Pose,
        fps: f64,
    ) -> Result<Self, AnalyzeError> {
        let warmup = match config.segmentation.background.warmup {
            Some(w) if w >= 2 => w,
            Some(w) => {
                return Err(AnalyzeError::NotStreamable {
                    reason: format!(
                        "background warmup window is {w}, but estimation needs at \
                         least 2 frames"
                    ),
                })
            }
            None => {
                return Err(AnalyzeError::NotStreamable {
                    reason: "background estimation reads the whole clip; set \
                             `segmentation.background.warmup` (see \
                             AnalyzerConfig::into_streaming)"
                        .to_owned(),
                })
            }
        };
        if config.segmentation.quality.reference != ReferenceMode::Causal {
            return Err(AnalyzeError::NotStreamable {
                reason: "quality references use the whole-clip median; set \
                         `segmentation.quality.reference = ReferenceMode::Causal` \
                         (see AnalyzerConfig::into_streaming)"
                    .to_owned(),
            });
        }
        Ok(StreamingAnalyzer {
            camera: *camera,
            first_pose,
            fps,
            warmup,
            pending: Vec::new(),
            live: None,
            frames_pushed: 0,
            config,
            scratch: AnalyzerScratch::default(),
        })
    }

    /// Installs heavy state reclaimed from a finished analyzer
    /// ([`finish_reclaimed`](StreamingAnalyzer::finish_reclaimed)).
    /// With warmed buffers the whole steady-state analysis loop —
    /// presmoothing, background estimation, segmentation, Eq. 3
    /// tracking — performs no large allocations; results are
    /// byte-identical either way.
    pub fn with_scratch(mut self, scratch: AnalyzerScratch) -> Self {
        self.scratch = scratch;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Frames pushed so far.
    pub fn frames_pushed(&self) -> usize {
        self.frames_pushed
    }

    /// How many entries the next successful
    /// [`push_frame`](StreamingAnalyzer::push_frame) will put in
    /// [`FrameUpdate::completed`]: 0 while it only buffers, the whole
    /// warm-up backlog (the frame it pushes included) when it fills the
    /// warm-up window, and 1 once live. A scheduler's measure of how
    /// much analysis the next push costs.
    pub fn next_push_completes(&self) -> usize {
        if self.live.is_some() {
            1
        } else if self.pending.len() + 1 >= self.warmup {
            self.pending.len() + 1
        } else {
            0
        }
    }

    /// Replaces the robustness policy applied at
    /// [`finish`](StreamingAnalyzer::finish). Robustness is only read
    /// when the clip closes, so a supervisor may relax the policy
    /// mid-stream (e.g. escalating `Strict` to `BestEffort` once a
    /// degraded-frame budget is spent) without perturbing any per-frame
    /// output.
    pub fn set_robustness(&mut self, policy: crate::RobustnessPolicy) {
        self.config.robustness = policy;
    }

    /// Captures the complete analysis state as a resumable
    /// [`StreamingCheckpoint`].
    ///
    /// The checkpoint is a deep copy: segmenter scratch arenas are
    /// reset rather than copied (they are per-frame scratch and carry
    /// no cross-frame state), so resuming and replaying the frames
    /// pushed after the checkpoint yields output byte-identical to the
    /// uninterrupted run — the supervisor's crash-recovery contract.
    pub fn checkpoint(&self) -> StreamingCheckpoint {
        StreamingCheckpoint {
            state: self.clone(),
        }
    }

    /// Feeds the next frame, in arrival order.
    ///
    /// Until the background warmup window fills, frames are buffered
    /// and the update carries no health entries. The push that fills
    /// the window estimates the background, drains the backlog and
    /// returns every buffered frame's health at once; every later push
    /// segments, tracks and assesses its frame immediately and returns
    /// exactly one entry.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError::FrameShapeMismatch`] — with the analyzer
    /// state untouched, so the caller may drop the frame and continue —
    /// when the frame's dimensions differ from the clip's established
    /// shape, and [`AnalyzeError::Segment`] / [`AnalyzeError::Tracking`]
    /// exactly where the batch path would.
    pub fn push_frame(&mut self, frame: &Frame) -> Result<FrameUpdate, AnalyzeError> {
        let index = self.frames_pushed;
        let expected = self
            .live
            .as_ref()
            .map(|l| l.background.image.dims())
            .or_else(|| self.pending.first().map(Frame::dims));
        if let Some(expected) = expected {
            if frame.dims() != expected {
                return Err(AnalyzeError::FrameShapeMismatch {
                    frame: index,
                    expected,
                    got: frame.dims(),
                });
            }
        }
        let observed_from = self.live.as_ref().map_or(0, |l| l.obs_frames.len());
        let mut smoothed = self.scratch.take_frame();
        self.config
            .segmentation
            .presmooth
            .apply_into(frame, &mut smoothed);
        let completed = if self.live.is_some() {
            vec![self.process(smoothed)?]
        } else {
            self.pending.push(smoothed);
            if self.pending.len() >= self.warmup {
                self.go_live()?
            } else {
                Vec::new()
            }
        };
        self.frames_pushed = index + 1;
        let observed = self
            .live
            .as_ref()
            .map(|l| l.obs_frames[observed_from..].to_vec())
            .unwrap_or_default();
        Ok(FrameUpdate {
            frame: index,
            buffered: completed.is_empty(),
            completed,
            observed,
        })
    }

    /// Closes the clip: flushes any still-buffered frames (a clip
    /// shorter than the warmup window goes live here, estimating the
    /// background from what arrived — exactly what batch does when the
    /// clip is shorter than the window), applies the robustness policy
    /// and scores.
    ///
    /// # Errors
    ///
    /// The same errors as [`JumpAnalyzer::analyze`](crate::JumpAnalyzer::analyze):
    /// too few frames, a degraded clip under the policy's budget, or a
    /// sequence too short to score.
    pub fn finish(self) -> Result<JumpAnalysis, AnalyzeError> {
        self.finish_reclaimed().0
    }

    /// [`finish`](StreamingAnalyzer::finish), additionally handing back
    /// the analyzer's recyclable heavy state — returned on the error
    /// paths too, so a supervisor recycles the buffers of failed
    /// sessions just like clean ones. Feed it to the next clip's
    /// analyzer with [`with_scratch`](StreamingAnalyzer::with_scratch).
    pub fn finish_reclaimed(mut self) -> (Result<JumpAnalysis, AnalyzeError>, AnalyzerScratch) {
        let result = self.close();
        let pending = std::mem::take(&mut self.pending);
        for frame in pending {
            self.scratch.recycle_frame(frame);
        }
        (result, std::mem::take(&mut self.scratch))
    }

    /// `finish` by mutation, so `finish_reclaimed` can salvage scratch
    /// state afterwards whatever the outcome.
    fn close(&mut self) -> Result<JumpAnalysis, AnalyzeError> {
        if self.live.is_none() {
            // Degrading to a whole-backlog background estimate still
            // needs the estimator's two-frame minimum; fail the 0/1
            // frame case cleanly instead of surfacing a confusing
            // segmentation error from deep inside `go_live`.
            if self.frames_pushed < 2 {
                return Err(AnalyzeError::InsufficientWarmup {
                    pushed: self.frames_pushed,
                    warmup: self.warmup,
                });
            }
            self.go_live()?;
        }
        let LiveState {
            background,
            segmenter,
            stages,
            tracker,
            labeling,
            previous_input,
            areas: _,
            poses,
            tracking,
            quality,
            health,
            obs_frames,
        } = self.live.take().expect("go_live sets live state");
        // Salvage the heavy state before scoring, so even a robustness
        // rejection leaves the buffers reclaimed.
        self.scratch.absorb_live(
            background,
            segmenter,
            stages,
            tracker,
            labeling,
            previous_input,
        );
        let tail = analysis_tail(
            &self.config,
            PoseSeq::new(poses, self.fps),
            &health,
            obs_frames,
        )?;
        Ok(JumpAnalysis {
            poses: tail.poses,
            score: tail.score,
            tracking,
            health,
            quality,
            obs: tail.obs,
            measurement: tail.measurement,
        })
    }

    /// Discards the analysis mid-clip, salvaging the recyclable heavy
    /// state — the supervisor's path for sessions torn down before
    /// `finish` (quarantine, hard failure).
    pub fn into_scratch(mut self) -> AnalyzerScratch {
        if let Some(live) = self.live.take() {
            let LiveState {
                background,
                segmenter,
                stages,
                tracker,
                labeling,
                previous_input,
                ..
            } = live;
            self.scratch.absorb_live(
                background,
                segmenter,
                stages,
                tracker,
                labeling,
                previous_input,
            );
        }
        for frame in std::mem::take(&mut self.pending) {
            self.scratch.recycle_frame(frame);
        }
        std::mem::take(&mut self.scratch)
    }

    /// Estimates the background from the buffered warmup frames, builds
    /// the live state and drains the backlog through it.
    fn go_live(&mut self) -> Result<Vec<FrameHealth>, AnalyzeError> {
        let backlog = std::mem::take(&mut self.pending);
        // `estimate` windows itself to `min(warmup, len)` frames; the
        // buffer never exceeds the warmup, so this reads all of it —
        // identical to batch on both full-length and short clips.
        let video = Video::new(backlog, self.fps);
        let mut background = self
            .scratch
            .background
            .take()
            .unwrap_or(EstimatedBackground {
                image: Frame::new(0, 0),
                support: ImageBuffer::new(0, 0),
            });
        BackgroundEstimator::new(self.config.segmentation.background).estimate_into(
            &video,
            &mut background,
            &mut self.scratch.estimator,
        )?;
        // The reclaimed planes are reused once nothing else shares them.
        let prepared = match self.scratch.prepared.take().map(Arc::try_unwrap) {
            Some(Ok(mut p)) => {
                p.update(&background.image);
                Arc::new(p)
            }
            _ => Arc::new(PreparedBackground::new(&background.image)),
        };
        let segmenter = FrameSegmenter::new_with_arena(
            &self.config.segmentation,
            prepared,
            std::mem::take(&mut self.scratch.arena),
        );
        let tracker = TemporalTracker::new(self.config.tracker)
            .stream(self.first_pose, &self.config.dims, &self.camera)
            .with_scratch(std::mem::take(&mut self.scratch.track));
        self.live = Some(LiveState {
            background,
            segmenter,
            stages: std::mem::replace(&mut self.scratch.stages, FrameStages::empty()),
            tracker,
            labeling: std::mem::take(&mut self.scratch.labeling),
            previous_input: None,
            areas: Vec::new(),
            poses: Vec::new(),
            tracking: Vec::new(),
            quality: Vec::new(),
            health: Vec::new(),
            obs_frames: Vec::new(),
        });
        let mut completed = Vec::with_capacity(video.len());
        for frame in video.into_frames() {
            completed.push(self.process(frame)?);
        }
        Ok(completed)
    }

    /// Segments, quality-assesses, tracks and health-scores one frame,
    /// taking ownership of it as the next ghost-suppression reference.
    fn process(&mut self, frame: Frame) -> Result<FrameHealth, AnalyzeError> {
        let live = self.live.as_mut().expect("process requires live state");
        let k = live.health.len();
        live.segmenter
            .segment_into(&frame, live.previous_input.as_ref(), &mut live.stages)?;
        let final_mask = &live.stages.final_mask;
        live.areas.push(final_mask.count());
        let reference = causal_reference_area(&live.areas, k);
        let quality = FrameQuality::measure_with(
            final_mask,
            reference,
            &self.config.segmentation.quality,
            &mut live.labeling,
        );
        let track = live.tracker.push(final_mask)?;
        let health = FrameHealth::with_model(k, quality.clone(), &track, &self.config.confidence);
        // The stage buffer is reused by the next frame: take its span
        // data now, while the masks are still this frame's.
        live.obs_frames
            .push(crate::obs::frame_obs(k, &live.stages, &track));
        live.poses.push(track.pose);
        live.tracking.push(track);
        live.quality.push(quality);
        live.health.push(health.clone());
        if let Some(old) = live.previous_input.replace(frame) {
            self.scratch.recycle_frame(old);
        }
        Ok(health)
    }
}

/// A frozen copy of a [`StreamingAnalyzer`] mid-clip, taken with
/// [`checkpoint`](StreamingAnalyzer::checkpoint).
///
/// Resuming yields an analyzer byte-identical to the original at the
/// moment of capture: replaying the same subsequent frames produces the
/// same [`FrameUpdate`]s and the same final [`JumpAnalysis`] as the
/// uninterrupted run. `slj-serve` uses this as the first rung of its
/// restart ladder — restore the last checkpoint, replay the retained
/// frames minus the poisoned one, and the session continues as if the
/// panic never happened.
#[derive(Debug, Clone)]
pub struct StreamingCheckpoint {
    state: StreamingAnalyzer,
}

impl StreamingCheckpoint {
    /// Frames the captured analyzer had ingested — the index the next
    /// pushed frame will get after [`resume`](StreamingCheckpoint::resume).
    pub fn frames_pushed(&self) -> usize {
        self.state.frames_pushed
    }

    /// Reconstructs a live analyzer from this checkpoint. The
    /// checkpoint is reusable: cloning before resuming lets a
    /// supervisor restore the same point more than once.
    pub fn resume(self) -> StreamingAnalyzer {
        self.state
    }
}
