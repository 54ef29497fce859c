//! The per-frame segmentation engine behind [`SegmentPipeline`]
//! (steady-state zero-allocation).
//!
//! [`SegmentPipeline::run`](crate::pipeline::SegmentPipeline::run) used
//! to rebuild every intermediate from scratch per frame: a fresh HSV
//! conversion of the *same* background pixel for every frame, a fresh
//! union-find, fresh scratch masks. This module splits the frame loop
//! into three reusable pieces:
//!
//! * [`PreparedBackground`] — the background estimate plus its HSV
//!   plane, converted **once** and recomputed only when the background
//!   image actually changes (the Eq. 1 shadow test needs the
//!   background's HSV for every foreground pixel of every frame).
//!   Held behind an [`Arc`] so a streaming checkpoint, which clones
//!   the segmenter, shares the planes instead of copying them.
//! * [`FrameArena`] — every scratch buffer a frame needs (union-find
//!   labelling, flood-fill planes, predicate masks, per-component
//!   counters), pre-reserved to worst case and reused frame after
//!   frame.
//! * [`FrameSegmenter`] — one clip's segmentation state. After the
//!   first frame has warmed the arena,
//!   [`segment_into`](FrameSegmenter::segment_into) into a reused
//!   [`FrameStages`] performs **zero heap allocations** (asserted by a
//!   counting-allocator regression test).
//!
//! Background subtraction and the shadow predicate are fused into one
//! pass over the frame: a pixel crossing the subtraction threshold has
//! its HSV computed immediately and Eq. 1 evaluated against the cached
//! background HSV, so the shadow stage later reduces to word-parallel
//! set algebra plus a sparse lazy pass over hole-filled pixels. Every
//! stage's output is bit-identical to the unfused stage operators
//! composed in order (`tests/composed_stages.rs`).

use crate::cleanup::HoleFillMode;
use crate::error::SegmentError;
use crate::ghosts::GhostVerdict;
use crate::pipeline::{FrameStages, PipelineConfig};
use crate::shadow::ShadowDetector;
use slj_imgproc::bitmask::BitMask;
use slj_imgproc::components::Labeling;
use slj_imgproc::mask::Mask;
use slj_imgproc::morph::Connectivity;
use slj_imgproc::pixel::Hsv;
use slj_obs::{spans, Profiler};
use slj_video::Frame;
use std::sync::Arc;
use std::time::Instant;

/// Accumulates the time since the last stamp into one profiler span;
/// no-ops (and never reads the clock) when profiling is off. The
/// background estimate and presmoothing are clip-level costs outside
/// the per-frame engine and are never stamped here.
fn stamp(clock: &mut Option<Instant>, profiler: Option<&mut Profiler>, span: &'static str) {
    if let (Some(clock), Some(profiler)) = (clock.as_mut(), profiler) {
        let now = Instant::now();
        profiler.record(span, now - *clock);
        *clock = now;
    }
}

/// The background estimate with its HSV plane cached.
///
/// Eq. 1 compares frame pixels against background pixels in HSV space;
/// the background is the same image for every frame, so its per-pixel
/// `to_hsv()` is hoisted here and recomputed **only when the background
/// image itself changes** ([`PreparedBackground::update`] compares the
/// pixel buffer and is a no-op on a match).
#[derive(Debug, Clone)]
pub struct PreparedBackground {
    frame: Frame,
    hsv: Vec<Hsv>,
}

impl PreparedBackground {
    /// Prepares the given background image.
    pub fn new(background: &Frame) -> Self {
        PreparedBackground {
            frame: background.clone(),
            hsv: background.as_slice().iter().map(|p| p.to_hsv()).collect(),
        }
    }

    /// Re-prepares for `background`, returning whether the HSV plane
    /// was recomputed. The invalidation rule is exact image equality:
    /// an unchanged estimate (the steady state of a streaming run)
    /// costs one memcmp, nothing else.
    pub fn update(&mut self, background: &Frame) -> bool {
        if self.frame.dims() == background.dims() && self.frame.as_slice() == background.as_slice()
        {
            return false;
        }
        self.frame.copy_from(background);
        self.hsv.clear();
        self.hsv
            .extend(background.as_slice().iter().map(|p| p.to_hsv()));
        true
    }

    /// The background image.
    pub fn frame(&self) -> &Frame {
        &self.frame
    }

    /// The cached HSV plane, row-major, index `y * width + x`.
    pub fn hsv(&self) -> &[Hsv] {
        &self.hsv
    }
}

/// Reusable per-segmenter scratch buffers.
///
/// Everything a frame's stages need beyond the output [`FrameStages`]:
/// reused across frames so the steady state allocates nothing. Sized by
/// [`FrameArena::reserve_for`] to the worst case (a `w*h` label plane;
/// at most `w*h/4 + 1` connected components, because a fresh union-find
/// label requires all four previously-scanned neighbours background).
#[derive(Debug)]
pub struct FrameArena {
    /// Union-find labelling, reused by spot removal and ghosting.
    labeling: Labeling,
    /// Border-flood background plane for `HoleFillMode::FloodFill`.
    flood: Vec<u64>,
    /// Ping-pong plane for the iterated paper rule.
    tmp: BitMask,
    /// Eq. 1 shadow predicate over raw-foreground pixels.
    pred: Mask,
    /// Hole-filled pixels missing from `raw` (lazy shadow evaluation).
    extra: Mask,
    /// Per-label moving-pixel counts (ghost stage).
    moving: Vec<usize>,
    /// Per-label total-pixel counts (ghost stage).
    total: Vec<usize>,
    /// Per-label ghost verdict (ghost stage).
    is_ghost: Vec<bool>,
}

impl Default for FrameArena {
    fn default() -> Self {
        FrameArena {
            labeling: Labeling::empty(),
            flood: Vec::new(),
            tmp: BitMask::new(0, 0),
            pred: Mask::new(0, 0),
            extra: Mask::new(0, 0),
            moving: Vec::new(),
            total: Vec::new(),
            is_ghost: Vec::new(),
        }
    }
}

impl FrameArena {
    /// Pre-reserves every buffer for `width x height` frames so later
    /// frames never grow them.
    pub fn reserve_for(&mut self, width: usize, height: usize) {
        self.labeling.reserve_for(width, height);
        let words = width.div_ceil(64) * height;
        if self.flood.capacity() < words {
            self.flood.reserve(words - self.flood.len());
        }
        self.tmp.reset(width, height);
        self.pred.reset(width, height);
        self.extra.reset(width, height);
        let comp_cap = width * height / 4 + 2;
        for counts in [&mut self.moving, &mut self.total] {
            if counts.capacity() < comp_cap {
                counts.reserve(comp_cap - counts.len());
            }
        }
        if self.is_ghost.capacity() < comp_cap {
            self.is_ghost.reserve(comp_cap - self.is_ghost.len());
        }
    }
}

/// One clip's segmentation state: the stage parameters, the shared
/// prepared background, and a private scratch arena.
///
/// [`segment_into`](FrameSegmenter::segment_into) runs subtraction →
/// noise filter → spot removal → ghost suppression → hole fill → shadow
/// removal for one frame, writing every intermediate into the caller's
/// [`FrameStages`]. Reusing both the segmenter and the output struct
/// across frames makes the steady state allocation-free.
#[derive(Debug, Clone)]
pub struct FrameSegmenter {
    config: PipelineConfig,
    shadow_detector: Option<ShadowDetector>,
    background: Arc<PreparedBackground>,
    arena: FrameArena,
}

impl Clone for FrameArena {
    /// Cloning a segmenter (a streaming checkpoint does) starts the
    /// clone with a fresh arena: scratch state carries no information
    /// between frames, so a checkpoint need not copy it.
    fn clone(&self) -> Self {
        FrameArena::default()
    }
}

impl FrameSegmenter {
    /// Creates a segmenter for the given stage parameters and prepared
    /// background. The arena is pre-reserved for the background's
    /// dimensions.
    pub fn new(config: &PipelineConfig, background: Arc<PreparedBackground>) -> Self {
        Self::new_with_arena(config, background, FrameArena::default())
    }

    /// As [`FrameSegmenter::new`], but adopting an existing (typically
    /// already-warmed) arena instead of allocating a fresh one — the
    /// reuse half of [`FrameSegmenter::into_parts`]. Scratch contents
    /// never influence results, so this is a pure allocation saving.
    pub fn new_with_arena(
        config: &PipelineConfig,
        background: Arc<PreparedBackground>,
        mut arena: FrameArena,
    ) -> Self {
        let (w, h) = background.frame().dims();
        arena.reserve_for(w, h);
        FrameSegmenter {
            shadow_detector: config.shadow.map(ShadowDetector::new),
            config: config.clone(),
            background,
            arena,
        }
    }

    /// Dismantles the segmenter into its heavy reusable parts: the
    /// shared prepared background and the scratch arena. A session pool
    /// reclaims both when a stream ends so the next stream in the slot
    /// starts with warmed buffers.
    pub fn into_parts(self) -> (Arc<PreparedBackground>, FrameArena) {
        (self.background, self.arena)
    }

    /// The prepared background in use.
    pub fn background(&self) -> &PreparedBackground {
        &self.background
    }

    /// Segments one frame into a fresh [`FrameStages`].
    ///
    /// # Errors
    ///
    /// See [`FrameSegmenter::segment_into`].
    pub fn segment(
        &mut self,
        frame: &Frame,
        previous: Option<&Frame>,
    ) -> Result<FrameStages, SegmentError> {
        let mut out = FrameStages::empty();
        self.segment_into(frame, previous, &mut out)?;
        Ok(out)
    }

    /// Segments one frame, writing every intermediate into `out`.
    ///
    /// `previous` is the previous *input* frame (ghost suppression
    /// compares motion against it); pass `None` on the first frame.
    /// With a warmed arena and a reused `out`, performs no heap
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if the frame and background dimensions differ (they come
    /// from the same pipeline, so a mismatch is a programming error).
    ///
    /// # Errors
    ///
    /// Returns [`SegmentError::Image`] when `previous` has different
    /// dimensions from `frame`.
    pub fn segment_into(
        &mut self,
        frame: &Frame,
        previous: Option<&Frame>,
        out: &mut FrameStages,
    ) -> Result<(), SegmentError> {
        self.segment_inner(frame, previous, out, None)
    }

    /// [`segment_into`](FrameSegmenter::segment_into) with per-stage
    /// wall-clock accounting recorded into `profiler` against the
    /// [`spans::SEGMENT_STAGES`] span names (the perf bench uses this to
    /// attribute time to individual kernels). The untimed path never
    /// reads the clock.
    ///
    /// # Panics / Errors
    ///
    /// As [`segment_into`](FrameSegmenter::segment_into).
    pub fn segment_into_profiled(
        &mut self,
        frame: &Frame,
        previous: Option<&Frame>,
        out: &mut FrameStages,
        profiler: &mut Profiler,
    ) -> Result<(), SegmentError> {
        self.segment_inner(frame, previous, out, Some(profiler))
    }

    fn segment_inner(
        &mut self,
        frame: &Frame,
        previous: Option<&Frame>,
        out: &mut FrameStages,
        mut profiler: Option<&mut Profiler>,
    ) -> Result<(), SegmentError> {
        assert_eq!(
            frame.dims(),
            self.background.frame().dims(),
            "frame and background must share dimensions"
        );
        let mut clock = profiler.as_ref().map(|_| Instant::now());
        let FrameSegmenter {
            config,
            shadow_detector,
            background,
            arena,
        } = self;

        // Steps 2 + 5a fused: raw subtraction and, for raw pixels, the
        // Eq. 1 shadow predicate against the cached background HSV.
        extract_fused(
            frame,
            background,
            config.foreground.threshold,
            shadow_detector.as_ref(),
            &mut out.raw,
            &mut arena.pred,
        );
        stamp(&mut clock, profiler.as_deref_mut(), spans::SEGMENT_EXTRACT);

        // Step 3a: word-parallel 8-neighbour vote.
        out.raw
            .bits()
            .neighbor_filter_into(config.noise.neighbor_threshold, out.denoised.bits_mut());
        stamp(&mut clock, profiler.as_deref_mut(), spans::SEGMENT_DENOISE);

        // Step 3b: small-spot removal via the reusable labelling.
        arena.labeling.relabel(&out.denoised, Connectivity::Eight);
        arena.labeling.filter_by_area_into(
            &out.denoised,
            config.spots.min_area,
            &mut out.despotted,
        );
        stamp(&mut clock, profiler.as_deref_mut(), spans::SEGMENT_DESPOT);

        // Step 3c (extension): motion-based ghost suppression.
        suppress_ghosts(config, arena, frame, previous, out)?;
        stamp(&mut clock, profiler.as_deref_mut(), spans::SEGMENT_DEGHOST);

        // Step 4: hole filling.
        match config.holes {
            HoleFillMode::PaperRule { max_iters } => {
                out.deghosted.bits().fill_paper_rule_iterated_into(
                    max_iters,
                    out.filled.bits_mut(),
                    &mut arena.tmp,
                );
            }
            HoleFillMode::FloodFill => {
                out.deghosted
                    .bits()
                    .fill_enclosed_holes_into(out.filled.bits_mut(), &mut arena.flood);
            }
        }
        stamp(&mut clock, profiler.as_deref_mut(), spans::SEGMENT_FILL);

        // Step 5b: assemble the shadow mask. `pred` already covers
        // every raw pixel, so `filled ∩ pred` is the shadow verdict for
        // raw foreground; the only pixels of `filled` it can miss are
        // the hole-filled ones (`filled \ raw`), evaluated lazily —
        // holes are sparse, so this stays cheap.
        if let Some(det) = shadow_detector.as_ref() {
            out.filled
                .bits()
                .intersect_into(arena.pred.bits(), out.shadow.bits_mut());
            out.filled
                .bits()
                .difference_into(out.raw.bits(), arena.extra.bits_mut());
            let (w, _) = frame.dims();
            let pixels = frame.as_slice();
            let bg_hsv = background.hsv();
            for (x, y) in arena.extra.foreground_pixels() {
                let idx = y * w + x;
                if det.is_shadow_pixel(pixels[idx].to_hsv(), bg_hsv[idx]) {
                    out.shadow.set(x, y, true);
                }
            }
            out.filled
                .bits()
                .difference_into(out.shadow.bits(), out.final_mask.bits_mut());
        } else {
            let (w, h) = frame.dims();
            out.shadow.reset(w, h);
            out.final_mask.clone_from(&out.filled);
        }
        stamp(&mut clock, profiler, spans::SEGMENT_SHADOW);
        Ok(())
    }
}

/// One pass over the frame: the raw subtraction mask and, for each raw
/// pixel, the Eq. 1 shadow predicate against the cached background HSV.
/// Only pixels that cross the subtraction threshold pay the frame-side
/// `to_hsv()`; the background side is free.
fn extract_fused(
    frame: &Frame,
    background: &PreparedBackground,
    threshold: u32,
    shadow: Option<&ShadowDetector>,
    raw: &mut Mask,
    pred: &mut Mask,
) {
    let (w, h) = frame.dims();
    raw.reset(w, h);
    pred.reset(w, h);
    let pixels = frame.as_slice();
    let bg_pixels = background.frame().as_slice();
    let bg_hsv = background.hsv();
    let words_per_row = raw.bits().words_per_row();
    for y in 0..h {
        for j in 0..words_per_row {
            let x0 = j * 64;
            let x1 = (x0 + 64).min(w);
            let mut raw_word = 0u64;
            let mut pred_word = 0u64;
            for x in x0..x1 {
                let idx = y * w + x;
                let px = pixels[idx];
                if px.l1_distance(bg_pixels[idx]) > threshold {
                    let bit = 1u64 << (x - x0);
                    raw_word |= bit;
                    if let Some(det) = shadow {
                        if det.is_shadow_pixel(px.to_hsv(), bg_hsv[idx]) {
                            pred_word |= bit;
                        }
                    }
                }
            }
            raw.bits_mut().row_mut(y)[j] = raw_word;
            pred.bits_mut().row_mut(y)[j] = pred_word;
        }
    }
}

/// Step 3c with arena-backed counters: per-component moving fractions
/// against the previous input frame, bit-identical to
/// [`GhostDetector::suppress`](crate::ghosts::GhostDetector::suppress).
fn suppress_ghosts(
    config: &PipelineConfig,
    arena: &mut FrameArena,
    frame: &Frame,
    previous: Option<&Frame>,
    out: &mut FrameStages,
) -> Result<(), SegmentError> {
    out.ghost_verdicts.clear();
    let (Some(ghost_config), Some(prev)) = (&config.ghosts, previous) else {
        // Stage disabled, or the clip's first frame: pass through.
        out.deghosted.clone_from(&out.despotted);
        return Ok(());
    };
    if prev.dims() != frame.dims() {
        return Err(SegmentError::Image(
            slj_imgproc::ImgError::DimensionMismatch {
                left: prev.dims(),
                right: frame.dims(),
            },
        ));
    }

    arena.labeling.relabel(&out.despotted, Connectivity::Eight);
    let n = arena.labeling.len();
    arena.moving.clear();
    arena.moving.resize(n + 1, 0);
    arena.total.clear();
    arena.total.resize(n + 1, 0);
    for (x, y) in out.despotted.foreground_pixels() {
        let label = arena.labeling.label_at(x, y) as usize;
        arena.total[label] += 1;
        if frame.get(x, y).l1_distance(prev.get(x, y)) > ghost_config.motion_threshold {
            arena.moving[label] += 1;
        }
    }

    arena.is_ghost.clear();
    arena.is_ghost.resize(n + 1, false);
    for component in arena.labeling.components() {
        let label = component.label as usize;
        let fraction = if arena.total[label] == 0 {
            0.0
        } else {
            arena.moving[label] as f64 / arena.total[label] as f64
        };
        let ghost = fraction < ghost_config.min_moving_fraction;
        arena.is_ghost[label] = ghost;
        out.ghost_verdicts.push(GhostVerdict {
            label: component.label,
            area: component.area,
            moving_fraction: fraction,
            is_ghost: ghost,
        });
    }

    out.deghosted.clone_from(&out.despotted);
    for (x, y) in out.despotted.foreground_pixels() {
        if arena.is_ghost[arena.labeling.label_at(x, y) as usize] {
            out.deghosted.set(x, y, false);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::background::BackgroundEstimator;
    use crate::ghosts::GhostConfig;
    use crate::pipeline::SegmentPipeline;
    use slj_imgproc::image::ImageBuffer;
    use slj_imgproc::pixel::Rgb;
    use slj_motion::JumpConfig;
    use slj_video::{SceneConfig, SyntheticJump};

    fn short_jump(seed: u64) -> SyntheticJump {
        let jump = JumpConfig {
            frames: 10,
            ..JumpConfig::default()
        };
        SyntheticJump::generate(&SceneConfig::default(), &jump, seed)
    }

    #[test]
    fn prepared_background_caches_until_image_changes() {
        let a: Frame = ImageBuffer::filled(8, 4, Rgb::splat(100));
        let mut prepared = PreparedBackground::new(&a);
        assert_eq!(prepared.hsv().len(), 32);
        let before = prepared.hsv()[0];
        // Same image: no recompute.
        assert!(!prepared.update(&a.clone()));
        assert_eq!(prepared.hsv()[0], before);
        // One pixel changed: full recompute.
        let mut b = a.clone();
        b.set(3, 1, Rgb::splat(200));
        assert!(prepared.update(&b));
        assert_eq!(prepared.frame().get(3, 1), Rgb::splat(200));
        assert_eq!(prepared.hsv()[8 + 3], Rgb::splat(200).to_hsv());
        // Different dimensions always recompute.
        let c: Frame = ImageBuffer::filled(2, 2, Rgb::splat(100));
        assert!(prepared.update(&c));
        assert_eq!(prepared.hsv().len(), 4);
    }

    #[test]
    fn hsv_plane_matches_per_pixel_conversion() {
        let frame: Frame =
            ImageBuffer::from_fn(70, 5, |x, y| Rgb::new(x as u8, (y * 40) as u8, 200));
        let prepared = PreparedBackground::new(&frame);
        for y in 0..5 {
            for x in 0..70 {
                assert_eq!(prepared.hsv()[y * 70 + x], frame.get(x, y).to_hsv());
            }
        }
    }

    #[test]
    fn segmenter_matches_pipeline_per_frame() {
        // The segmenter is the pipeline's engine; driving it by hand
        // must reproduce SegmentPipeline::run exactly, ghosts included.
        let j = short_jump(3);
        let config = PipelineConfig {
            ghosts: Some(GhostConfig::default()),
            ..PipelineConfig::default()
        };
        let result = SegmentPipeline::new(config.clone()).run(&j.video).unwrap();
        let background = BackgroundEstimator::new(config.background)
            .estimate(&j.video)
            .unwrap();
        let prepared = Arc::new(PreparedBackground::new(&background.image));
        let mut segmenter = FrameSegmenter::new(&config, prepared);
        let frames = j.video.frames();
        let mut reused = FrameStages::empty();
        for (k, frame) in frames.iter().enumerate() {
            let previous = k.checked_sub(1).map(|p| &frames[p]);
            segmenter
                .segment_into(frame, previous, &mut reused)
                .unwrap();
            assert_eq!(reused, result.frames[k], "frame {k}");
        }
    }

    #[test]
    fn paper_rule_holes_also_match() {
        let j = short_jump(5);
        let config = PipelineConfig::paper();
        let result = SegmentPipeline::new(config.clone()).run(&j.video).unwrap();
        let background = BackgroundEstimator::new(config.background)
            .estimate(&j.video)
            .unwrap();
        let mut segmenter = FrameSegmenter::new(
            &config,
            Arc::new(PreparedBackground::new(&background.image)),
        );
        let frames = j.video.frames();
        for (k, frame) in frames.iter().enumerate() {
            let previous = k.checked_sub(1).map(|p| &frames[p]);
            let stages = segmenter.segment(frame, previous).unwrap();
            assert_eq!(stages, result.frames[k], "frame {k}");
        }
    }

    #[test]
    fn timed_segmentation_matches_untimed_and_accounts_time() {
        let j = short_jump(9);
        let config = PipelineConfig {
            ghosts: Some(GhostConfig::default()),
            ..PipelineConfig::default()
        };
        let background = BackgroundEstimator::new(config.background)
            .estimate(&j.video)
            .unwrap();
        let prepared = Arc::new(PreparedBackground::new(&background.image));
        let mut plain = FrameSegmenter::new(&config, Arc::clone(&prepared));
        let mut timed = FrameSegmenter::new(&config, prepared);
        let mut profiler = Profiler::default();
        let frames = j.video.frames();
        for (k, frame) in frames.iter().enumerate() {
            let previous = k.checked_sub(1).map(|p| &frames[p]);
            let expected = plain.segment(frame, previous).unwrap();
            let mut out = FrameStages::empty();
            timed
                .segment_into_profiled(frame, previous, &mut out, &mut profiler)
                .unwrap();
            assert_eq!(out, expected, "frame {k}");
        }
        // Every stage ran at least once, only the six stage spans were
        // recorded, and the accumulator adds up.
        assert!(profiler.total() > std::time::Duration::ZERO);
        assert!(profiler.get(spans::SEGMENT_EXTRACT) > std::time::Duration::ZERO);
        assert_eq!(profiler.iter().count(), spans::SEGMENT_STAGES.len());
        assert_eq!(
            profiler.total(),
            spans::SEGMENT_STAGES.iter().map(|s| profiler.get(s)).sum()
        );
    }

    #[test]
    fn shadow_disabled_yields_blank_shadow_mask() {
        let j = short_jump(7);
        let config = PipelineConfig {
            shadow: None,
            ..PipelineConfig::default()
        };
        let background = BackgroundEstimator::new(config.background)
            .estimate(&j.video)
            .unwrap();
        let mut segmenter = FrameSegmenter::new(
            &config,
            Arc::new(PreparedBackground::new(&background.image)),
        );
        let stages = segmenter.segment(&j.video.frames()[4], None).unwrap();
        assert!(stages.shadow.is_blank());
        assert_eq!(stages.final_mask, stages.filled);
    }

    #[test]
    #[should_panic(expected = "share dimensions")]
    fn mismatched_frame_panics() {
        let bg: Frame = ImageBuffer::filled(8, 8, Rgb::BLACK);
        let mut segmenter = FrameSegmenter::new(
            &PipelineConfig::default(),
            Arc::new(PreparedBackground::new(&bg)),
        );
        let wrong: Frame = ImageBuffer::filled(4, 4, Rgb::BLACK);
        let _ = segmenter.segment(&wrong, None);
    }

    #[test]
    fn mismatched_previous_frame_is_an_error() {
        let bg: Frame = ImageBuffer::filled(8, 8, Rgb::BLACK);
        let config = PipelineConfig {
            ghosts: Some(GhostConfig::default()),
            ..PipelineConfig::default()
        };
        let mut segmenter = FrameSegmenter::new(&config, Arc::new(PreparedBackground::new(&bg)));
        let frame: Frame = ImageBuffer::filled(8, 8, Rgb::splat(200));
        let small: Frame = ImageBuffer::filled(4, 4, Rgb::BLACK);
        assert!(segmenter.segment(&frame, Some(&small)).is_err());
    }
}
