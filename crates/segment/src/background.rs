//! Step 1 — background estimation by temporal change detection.
//!
//! The paper: *"the background can be estimated by change detection. The
//! pixels with a very small change in two consecutive frames are saved as
//! part of the background. This process goes from the first two frames to
//! the final two frames."*
//!
//! That is [`UpdateMode::LastStable`]: scan consecutive frame pairs and,
//! wherever the pair agrees within a threshold, overwrite the background
//! estimate with the current value. Where the jumper stood at the start
//! the estimate is later corrected (he moves away); the known weakness is
//! the *end* of the clip, where the recovered jumper is nearly still and
//! can burn into the estimate. [`UpdateMode::MedianOfStable`] is this
//! reproduction's extension that fixes exactly that by taking a per-pixel
//! median over all stable observations; the Fig. 1 experiment compares
//! the two.

use crate::error::SegmentError;
use serde::{Deserialize, Serialize};
use slj_imgproc::image::ImageBuffer;
use slj_imgproc::pixel::Rgb;
use slj_video::{Frame, Video};

/// How stable observations are combined into the background estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateMode {
    /// The paper's method: the latest stable observation wins.
    LastStable,
    /// Extension: per-pixel, per-channel median over all stable
    /// observations (robust to the jumper resting at either end of the
    /// clip).
    MedianOfStable,
}

/// Configuration of the background estimator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackgroundConfig {
    /// Maximum L1 colour change between consecutive frames for a pixel
    /// to count as "no change" (the paper's "very small change").
    /// Must exceed sensor noise; default 24 covers ±5/channel jitter.
    pub diff_threshold: u32,
    /// Combination rule for stable observations.
    pub mode: UpdateMode,
    /// `None` (the paper): estimate from the whole clip. `Some(w)`:
    /// estimate from the first `w` frames only — a *causal* estimate
    /// that a streaming analyzer can compute after buffering `w` frames
    /// and that a batch run reproduces exactly. Clips shorter than `w`
    /// use every frame they have.
    pub warmup: Option<usize>,
}

impl Default for BackgroundConfig {
    fn default() -> Self {
        BackgroundConfig {
            diff_threshold: 24,
            mode: UpdateMode::MedianOfStable,
            warmup: None,
        }
    }
}

impl BackgroundConfig {
    /// The configuration the paper describes (last stable observation
    /// wins).
    pub fn paper() -> Self {
        BackgroundConfig {
            diff_threshold: 24,
            mode: UpdateMode::LastStable,
            warmup: None,
        }
    }
}

/// The outcome of background estimation.
#[derive(Debug, Clone)]
pub struct EstimatedBackground {
    /// The estimated background image.
    pub image: Frame,
    /// Per-pixel count of stable frame pairs that contributed; 0 means
    /// the pixel never stabilised and fell back to the first frame.
    pub support: ImageBuffer<u16>,
}

impl EstimatedBackground {
    /// Fraction of pixels with at least one stable observation.
    pub fn coverage(&self) -> f64 {
        if self.support.is_empty() {
            return 0.0;
        }
        let covered = self.support.as_slice().iter().filter(|&&c| c > 0).count();
        covered as f64 / self.support.len() as f64
    }

    /// Mean absolute per-channel error against a reference background.
    ///
    /// # Errors
    ///
    /// Returns [`SegmentError::Image`] on dimension mismatch.
    pub fn mae_against(&self, reference: &Frame) -> Result<f64, SegmentError> {
        let diff = self
            .image
            .zip_map(reference, |a, b| a.l1_distance(b))
            .map_err(SegmentError::from)?;
        let total: u64 = diff.as_slice().iter().map(|&d| d as u64).sum();
        Ok(total as f64 / (diff.len() as f64 * 3.0))
    }
}

/// Pixels per tile of the median pass.
const TILE: usize = 64;

/// The tile buffer's stand-in for an unstable pair's sample. The median
/// rounds count samples strictly below a candidate, and no candidate
/// exceeds 255, so a stand-in is never counted.
const UNSTABLE: u8 = 255;

/// Reusable scratch for [`BackgroundEstimator::estimate_into`]: the
/// median mode's tile buffer, one byte per channel, frame pair and pixel
/// of one 64-pixel tile (`3 × pairs × 64` bytes, 3.6 KB for a 20-frame
/// clip whatever its resolution). A warmed buffer makes repeat
/// estimation allocation-free (`tests/zero_alloc.rs`).
#[derive(Debug, Clone, Default)]
pub struct BackgroundScratch {
    /// One entry per frame pair: the r, g and b samples of the tile's
    /// pixels, each a stable pair's first-frame value, or 255 where the
    /// pair is unstable.
    samples: Vec<[[u8; TILE]; 3]>,
}

/// Estimates the static background of a fixed-camera clip.
#[derive(Debug, Clone, Default)]
pub struct BackgroundEstimator {
    config: BackgroundConfig,
}

impl BackgroundEstimator {
    /// Creates an estimator with the given configuration.
    pub fn new(config: BackgroundConfig) -> Self {
        BackgroundEstimator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BackgroundConfig {
        &self.config
    }

    /// Runs change detection over the clip (or, with
    /// [`BackgroundConfig::warmup`] set, over its leading window).
    ///
    /// # Errors
    ///
    /// Returns [`SegmentError::TooFewFrames`] for clips (or warmup
    /// windows) with fewer than two frames.
    pub fn estimate(&self, video: &Video) -> Result<EstimatedBackground, SegmentError> {
        let mut out = EstimatedBackground {
            image: ImageBuffer::new(0, 0),
            support: ImageBuffer::new(0, 0),
        };
        self.estimate_into(video, &mut out, &mut BackgroundScratch::default())?;
        Ok(out)
    }

    /// As [`BackgroundEstimator::estimate`], but reusing the output and
    /// scratch buffers: with warmed buffers of matching dimensions the
    /// call performs no heap allocation. Results are byte-identical to
    /// `estimate`.
    ///
    /// `LastStable` is one fused compare-and-overwrite sweep over the
    /// flat pixel slices per frame pair. `MedianOfStable` makes one pass
    /// per 64-pixel tile. It counts each pixel's stable pairs (its
    /// support) while storing every pair's sample per channel in the
    /// tile buffer, 255 where the pair is unstable. Each channel's upper
    /// median, the `support / 2`-th smallest stable sample, is then
    /// found bit by bit from bit 7: the candidate `m | 1 << bit` is kept
    /// while at most `support / 2` samples lie strictly below it. That
    /// is the largest value with that property, which is exactly the
    /// upper median, and an unstable pair's 255 is never below a
    /// candidate, so it never counts. The counts run in bytes flushed
    /// into `u32`s every 255 pairs, so they stay exact for any clip
    /// length. A pixel with no stable pair keeps frame 0's value, and
    /// its support is 0; support is capped at `u16::MAX`.
    ///
    /// # Errors
    ///
    /// Returns [`SegmentError::TooFewFrames`] for clips (or warmup
    /// windows) with fewer than two frames.
    pub fn estimate_into(
        &self,
        video: &Video,
        out: &mut EstimatedBackground,
        scratch: &mut BackgroundScratch,
    ) -> Result<(), SegmentError> {
        if video.len() < 2 {
            return Err(SegmentError::TooFewFrames {
                got: video.len(),
                need: 2,
            });
        }
        let limit = self
            .config
            .warmup
            .map_or(video.len(), |w| w.min(video.len()));
        if limit < 2 {
            return Err(SegmentError::TooFewFrames {
                got: limit,
                need: 2,
            });
        }
        let (w, h) = video.dims();
        let frames = &video.frames()[..limit];
        let n = w * h;
        if out.image.dims() != (w, h) {
            out.image = ImageBuffer::new(w, h);
            out.support = ImageBuffer::new(w, h);
        }
        out.support.fill(0);
        let threshold = self.config.diff_threshold;

        match self.config.mode {
            UpdateMode::LastStable => {
                // Initialise from the first frame (pixels that never
                // stabilise keep it), then overwrite with stable pairs.
                out.image
                    .as_mut_slice()
                    .copy_from_slice(frames[0].as_slice());
                for k in 0..frames.len() - 1 {
                    let a = frames[k].as_slice();
                    let b = frames[k + 1].as_slice();
                    let image = out.image.as_mut_slice();
                    let support = out.support.as_mut_slice();
                    for (((pa, pb), bg), sup) in a
                        .iter()
                        .zip(b)
                        .zip(image.iter_mut())
                        .zip(support.iter_mut())
                    {
                        if pa.l1_distance(*pb) <= threshold {
                            *bg = *pa;
                            *sup = sup.saturating_add(1);
                        }
                    }
                }
            }
            UpdateMode::MedianOfStable => {
                scratch.samples.clear();
                scratch
                    .samples
                    .resize(frames.len() - 1, [[UNSTABLE; TILE]; 3]);
                let image = out.image.as_mut_slice();
                let support = out.support.as_mut_slice();
                for start in (0..n).step_by(TILE) {
                    let tile = start..n.min(start + TILE);
                    // Each pixel's support, and every pair's sample per
                    // channel: the first frame's value, or the stand-in.
                    let mut count = [0u32; TILE];
                    for (pair, [r, g, b]) in frames.windows(2).zip(&mut scratch.samples) {
                        let a = &pair[0].as_slice()[tile.clone()];
                        let next = &pair[1].as_slice()[tile.clone()];
                        for (j, (pa, pb)) in a.iter().zip(next).enumerate() {
                            let stable = pa.l1_distance(*pb) <= threshold;
                            count[j] += u32::from(stable);
                            let keep = |v: u8| if stable { v } else { UNSTABLE };
                            r[j] = keep(pa.r);
                            g[j] = keep(pa.g);
                            b[j] = keep(pa.b);
                        }
                    }
                    let half = count.map(|c| c / 2);
                    let [r, g, b] = [0, 1, 2].map(|c| tile_median(&scratch.samples, c, &half));
                    let first = &frames[0].as_slice()[tile.clone()];
                    for (j, ((bg, sup), &fallback)) in image[tile.clone()]
                        .iter_mut()
                        .zip(&mut support[tile])
                        .zip(first)
                        .enumerate()
                    {
                        *bg = if count[j] == 0 {
                            fallback
                        } else {
                            Rgb::new(r[j], g[j], b[j])
                        };
                        *sup = count[j].min(u32::from(u16::MAX)) as u16;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Every lane's upper median of one channel of the tile buffer: the
/// largest `m` with at most `half[j]` samples strictly below it, set bit
/// by bit from bit 7. The counts run in bytes over blocks of 255 pairs,
/// so they cannot wrap, and are flushed into `u32`s after each block.
fn tile_median(samples: &[[[u8; TILE]; 3]], channel: usize, half: &[u32; TILE]) -> [u8; TILE] {
    let mut median = [0u8; TILE];
    for bit in (0..8).rev() {
        let candidate = median.map(|m| m | 1 << bit);
        let mut below = [0u32; TILE];
        for block in samples.chunks(255) {
            let mut counts = [0u8; TILE];
            for pair in block {
                for ((c, &s), &cand) in counts.iter_mut().zip(&pair[channel]).zip(&candidate) {
                    *c += u8::from(s < cand);
                }
            }
            for (b, c) in below.iter_mut().zip(counts) {
                *b += u32::from(c);
            }
        }
        for ((m, b), h) in median.iter_mut().zip(below).zip(half) {
            *m |= u8::from(b <= *h) << bit;
        }
    }
    median
}

#[cfg(test)]
mod tests {
    use super::*;
    use slj_imgproc::image::ImageBuffer;

    /// A tiny clip: static background value 100 everywhere, except a
    /// "walker" column that carries value 200 and moves one column per
    /// frame.
    fn walker_video(frames: usize, w: usize) -> Video {
        let make = |k: usize| -> Frame {
            ImageBuffer::from_fn(w, 4, |x, _| {
                if x == k {
                    Rgb::splat(200)
                } else {
                    Rgb::splat(100)
                }
            })
        };
        Video::new((0..frames).map(make).collect(), 10.0)
    }

    #[test]
    fn recovers_static_background_behind_walker() {
        for mode in [UpdateMode::LastStable, UpdateMode::MedianOfStable] {
            let est = BackgroundEstimator::new(BackgroundConfig {
                diff_threshold: 10,
                mode,
                warmup: None,
            });
            let bg = est.estimate(&walker_video(6, 6)).unwrap();
            // Columns 1..=4 were occluded once but recovered.
            for x in 0..6 {
                for y in 0..4 {
                    if x == 5 {
                        continue; // walker parked here at the end
                    }
                    assert_eq!(bg.image.get(x, y), Rgb::splat(100), "mode {mode:?} x={x}");
                }
            }
        }
    }

    #[test]
    fn last_stable_burns_in_parked_object_median_does_not() {
        // Walker moves to column 2 and then parks there for the rest of
        // the clip: LastStable adopts it, MedianOfStable rejects it
        // because the majority of stable observations are background.
        let make = |k: usize| -> Frame {
            let col = if k < 2 { k } else { 2 };
            ImageBuffer::from_fn(8, 2, |x, _| {
                if x == col {
                    Rgb::splat(200)
                } else {
                    Rgb::splat(100)
                }
            })
        };
        let video = Video::new((0..9).map(make).collect(), 10.0);

        let last = BackgroundEstimator::new(BackgroundConfig {
            diff_threshold: 10,
            mode: UpdateMode::LastStable,
            warmup: None,
        })
        .estimate(&video)
        .unwrap();
        assert_eq!(
            last.image.get(2, 0),
            Rgb::splat(200),
            "parked object burnt in"
        );

        let median = BackgroundEstimator::new(BackgroundConfig {
            diff_threshold: 10,
            mode: UpdateMode::MedianOfStable,
            warmup: None,
        })
        .estimate(&video)
        .unwrap();
        // Column 2 was background-stable for pairs (0,1) -> 1 obs of 100
        // ... then object-stable for pairs (2,3)..(7,8) -> 6 obs of 200.
        // Median picks the majority: still the object. This documents
        // that median helps only when background observations dominate —
        // so use a longer tail.
        let make_long = |k: usize| -> Frame {
            let col = if k < 6 { k.min(5) } else { usize::MAX };
            ImageBuffer::from_fn(8, 2, |x, _| {
                if x == col {
                    Rgb::splat(200)
                } else {
                    Rgb::splat(100)
                }
            })
        };
        let video2 = Video::new((0..14).map(make_long).collect(), 10.0);
        let median2 = BackgroundEstimator::new(BackgroundConfig {
            diff_threshold: 10,
            mode: UpdateMode::MedianOfStable,
            warmup: None,
        })
        .estimate(&video2)
        .unwrap();
        for x in 0..8 {
            assert_eq!(median2.image.get(x, 0), Rgb::splat(100));
        }
        let _ = median;
    }

    #[test]
    fn support_counts_stable_pairs() {
        let est = BackgroundEstimator::new(BackgroundConfig {
            diff_threshold: 10,
            mode: UpdateMode::LastStable,
            warmup: None,
        });
        let bg = est.estimate(&walker_video(6, 6)).unwrap();
        // A column occluded at exactly one frame k is unstable for the
        // two pairs (k-1,k) and (k,k+1): support = 5 pairs - 2.
        assert_eq!(bg.support.get(2, 0), 3);
        // Column 0 is occluded only at frame 0 -> unstable only for pair
        // (0,1).
        assert_eq!(bg.support.get(0, 0), 4);
        assert!(bg.coverage() > 0.99);
    }

    #[test]
    fn noisy_static_scene_fully_covered() {
        // Change below the threshold everywhere: every pixel stable.
        let make = |k: usize| -> Frame {
            ImageBuffer::from_fn(4, 4, |x, y| Rgb::splat(100 + ((x + y + k) % 3) as u8))
        };
        let video = Video::new((0..5).map(make).collect(), 10.0);
        let est = BackgroundEstimator::new(BackgroundConfig {
            diff_threshold: 24,
            mode: UpdateMode::MedianOfStable,
            warmup: None,
        });
        let bg = est.estimate(&video).unwrap();
        assert_eq!(bg.coverage(), 1.0);
        // Estimate within noise of the true value.
        for &p in bg.image.as_slice() {
            assert!(p.l1_distance(Rgb::splat(101)) <= 6);
        }
    }

    #[test]
    fn single_frame_clip_rejected() {
        let video = Video::new(vec![ImageBuffer::filled(2, 2, Rgb::BLACK)], 10.0);
        let err = BackgroundEstimator::default().estimate(&video).unwrap_err();
        assert!(matches!(
            err,
            SegmentError::TooFewFrames { got: 1, need: 2 }
        ));
    }

    #[test]
    fn mae_against_reference() {
        let est = BackgroundEstimator::new(BackgroundConfig {
            diff_threshold: 10,
            mode: UpdateMode::LastStable,
            warmup: None,
        });
        let bg = est.estimate(&walker_video(6, 6)).unwrap();
        let truth: Frame = ImageBuffer::filled(6, 4, Rgb::splat(100));
        // The walker reaches column 5 only in the final frame, so it is
        // never stable anywhere: the estimate is perfect.
        assert_eq!(bg.mae_against(&truth).unwrap(), 0.0);
        // Park the walker at column 2 for the last frames: LastStable
        // burns it in, producing a non-zero MAE of 100 * 4px / 24px.
        let make = |k: usize| -> Frame {
            let col = k.min(2);
            ImageBuffer::from_fn(6, 4, |x, _| {
                if x == col {
                    Rgb::splat(200)
                } else {
                    Rgb::splat(100)
                }
            })
        };
        let parked = Video::new((0..6).map(make).collect(), 10.0);
        let bg2 = est.estimate(&parked).unwrap();
        let mae = bg2.mae_against(&truth).unwrap();
        assert!((mae - 100.0 * 4.0 / 24.0).abs() < 1e-9, "mae {mae}");
        // Dimension mismatch is an error.
        let small: Frame = ImageBuffer::filled(2, 2, Rgb::BLACK);
        assert!(bg.mae_against(&small).is_err());
    }

    #[test]
    fn channel_median_is_per_channel() {
        let obs = [
            Rgb::new(10, 200, 5),
            Rgb::new(20, 100, 6),
            Rgb::new(30, 0, 7),
        ];
        // A one-pixel clip whose every pair is stable: each frame but the
        // last is one observation.
        let frames: Vec<Frame> = obs
            .iter()
            .chain(&obs[2..])
            .map(|&p| ImageBuffer::filled(1, 1, p))
            .collect();
        let bg = BackgroundEstimator::new(BackgroundConfig {
            diff_threshold: 3 * 255,
            mode: UpdateMode::MedianOfStable,
            warmup: None,
        })
        .estimate(&Video::new(frames, 10.0))
        .unwrap();
        assert_eq!(bg.support.get(0, 0), 3);
        assert_eq!(bg.image.get(0, 0), Rgb::new(20, 100, 6));
    }

    #[test]
    fn estimate_into_reuse_matches_estimate() {
        // A warmed output + scratch re-fed different clips must produce
        // exactly what a fresh `estimate` produces — this equality (plus
        // the zero-alloc integration test) is what makes buffer reuse a
        // pure throughput setting.
        let mut out = EstimatedBackground {
            image: ImageBuffer::new(0, 0),
            support: ImageBuffer::new(0, 0),
        };
        let mut scratch = BackgroundScratch::default();
        for mode in [UpdateMode::LastStable, UpdateMode::MedianOfStable] {
            let est = BackgroundEstimator::new(BackgroundConfig {
                diff_threshold: 10,
                mode,
                warmup: None,
            });
            for frames in [6usize, 8, 4] {
                let video = walker_video(frames, 6);
                est.estimate_into(&video, &mut out, &mut scratch).unwrap();
                let fresh = est.estimate(&video).unwrap();
                assert_eq!(out.image.as_slice(), fresh.image.as_slice(), "{mode:?}");
                assert_eq!(out.support.as_slice(), fresh.support.as_slice());
            }
        }
    }

    #[test]
    fn median_path_matches_naive_per_pixel_reference() {
        // The tile pass's bit-serial median must equal the obvious
        // formulation: per pixel, collect every stable observation into
        // a Vec, sort, take v[len/2].
        let mut state = 0x5EED_u32;
        let mut rng = move || {
            state = state.wrapping_mul(747_796_405).wrapping_add(2_891_336_453);
            (state >> 24) as u8
        };
        let (w, h, frames_n) = (13, 9, 7);
        let frames: Vec<Frame> = (0..frames_n)
            .map(|_| {
                ImageBuffer::from_fn(w, h, |_, _| Rgb::new(rng() % 40, rng() % 40, rng() % 40))
            })
            .collect();
        let video = Video::new(frames, 10.0);
        let threshold = 30u32;
        let est = BackgroundEstimator::new(BackgroundConfig {
            diff_threshold: threshold,
            mode: UpdateMode::MedianOfStable,
            warmup: None,
        });
        let bg = est.estimate(&video).unwrap();
        for y in 0..h {
            for x in 0..w {
                let mut obs: Vec<Rgb> = Vec::new();
                for k in 0..frames_n - 1 {
                    let pa = video.frames()[k].get(x, y);
                    let pb = video.frames()[k + 1].get(x, y);
                    if pa.l1_distance(pb) <= threshold {
                        obs.push(pa);
                    }
                }
                let expected = if obs.is_empty() {
                    video.frames()[0].get(x, y)
                } else {
                    let channel = |f: fn(&Rgb) -> u8| {
                        let mut v: Vec<u8> = obs.iter().map(&f).collect();
                        v.sort_unstable();
                        v[v.len() / 2]
                    };
                    Rgb::new(channel(|p| p.r), channel(|p| p.g), channel(|p| p.b))
                };
                assert_eq!(bg.image.get(x, y), expected, "pixel ({x}, {y})");
                assert_eq!(bg.support.get(x, y) as usize, obs.len());
            }
        }
    }

    #[test]
    fn nothing_stable_falls_back_to_first_frame() {
        // Every consecutive pair differs by more than the threshold: the
        // naive fallback holds everywhere (first frame, zero support).
        let frames: Vec<Frame> = (0..5)
            .map(|k| ImageBuffer::filled(6, 4, Rgb::splat(40 * k as u8)))
            .collect();
        let video = Video::new(frames, 10.0);
        let est = BackgroundEstimator::new(BackgroundConfig {
            diff_threshold: 10,
            mode: UpdateMode::MedianOfStable,
            warmup: None,
        });
        let bg = est.estimate(&video).unwrap();
        assert_eq!(bg.image.as_slice(), video.frames()[0].as_slice());
        assert!(bg.support.as_slice().iter().all(|&s| s == 0));
        assert_eq!(bg.coverage(), 0.0);
    }

    #[test]
    fn default_config_is_median() {
        assert_eq!(BackgroundConfig::default().mode, UpdateMode::MedianOfStable);
        assert_eq!(BackgroundConfig::paper().mode, UpdateMode::LastStable);
        assert_eq!(BackgroundConfig::default().warmup, None);
    }

    #[test]
    fn warmup_window_matches_truncated_clip() {
        // `warmup: Some(w)` must equal running the estimator on the
        // first `w` frames — that equality is what lets a streaming
        // analyzer reproduce the batch background bit for bit.
        let video = walker_video(8, 8);
        for mode in [UpdateMode::LastStable, UpdateMode::MedianOfStable] {
            let windowed = BackgroundEstimator::new(BackgroundConfig {
                diff_threshold: 10,
                mode,
                warmup: Some(5),
            })
            .estimate(&video)
            .unwrap();
            let truncated_video = Video::new(video.frames()[..5].to_vec(), video.fps());
            let truncated = BackgroundEstimator::new(BackgroundConfig {
                diff_threshold: 10,
                mode,
                warmup: None,
            })
            .estimate(&truncated_video)
            .unwrap();
            assert_eq!(
                windowed.image.as_slice(),
                truncated.image.as_slice(),
                "mode {mode:?}"
            );
            assert_eq!(windowed.support.as_slice(), truncated.support.as_slice());
        }
        // A warmup longer than the clip falls back to the whole clip.
        let over = BackgroundEstimator::new(BackgroundConfig {
            diff_threshold: 10,
            mode: UpdateMode::MedianOfStable,
            warmup: Some(100),
        })
        .estimate(&video)
        .unwrap();
        let full = BackgroundEstimator::default().estimate(&video);
        assert!(full.is_ok());
        assert_eq!(over.image.dims(), video.dims());
        // A warmup window below two frames is rejected.
        let err = BackgroundEstimator::new(BackgroundConfig {
            diff_threshold: 10,
            mode: UpdateMode::LastStable,
            warmup: Some(1),
        })
        .estimate(&video)
        .unwrap_err();
        assert!(matches!(
            err,
            SegmentError::TooFewFrames { got: 1, need: 2 }
        ));
    }
}
