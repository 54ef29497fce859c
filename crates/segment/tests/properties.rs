//! Property-based tests for the segmentation pipeline: stage ordering
//! invariants on arbitrary inputs, background-estimator guarantees, and
//! shadow-detector envelope properties.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slj_imgproc::image::ImageBuffer;
use slj_imgproc::mask::Mask;
use slj_imgproc::pixel::{Hsv, Rgb};
use slj_segment::background::{BackgroundConfig, BackgroundEstimator, UpdateMode};
use slj_segment::cleanup::{HoleFiller, NoiseFilter, SpotRemover};
use slj_segment::foreground::{ForegroundConfig, ForegroundExtractor};
use slj_segment::shadow::{ShadowDetector, ShadowParams};
use slj_video::{Frame, Video};

fn frame_strategy(w: usize, h: usize) -> impl Strategy<Value = Frame> {
    proptest::collection::vec(any::<(u8, u8, u8)>(), w * h).prop_map(move |px| {
        ImageBuffer::from_vec(
            w,
            h,
            px.into_iter().map(|(r, g, b)| Rgb::new(r, g, b)).collect(),
        )
        .unwrap()
    })
}

fn video_strategy() -> impl Strategy<Value = Video> {
    proptest::collection::vec(frame_strategy(8, 6), 2..6)
        .prop_map(|frames| Video::new(frames, 10.0))
}

fn mask_strategy() -> impl Strategy<Value = Mask> {
    proptest::collection::vec(any::<bool>(), 12 * 10).prop_map(|bits| {
        let mut m = Mask::new(12, 10);
        for (i, b) in bits.into_iter().enumerate() {
            if b {
                m.set(i % 12, i / 12, true);
            }
        }
        m
    })
}

fn subset(a: &Mask, b: &Mask) -> bool {
    a.difference(b).unwrap().is_blank()
}

/// A `w × h × frames` clip whose stable pairs (under the default
/// threshold of 24) are chosen per pixel by its index mod 5: none, one,
/// two, every pair, or a random number of them at random positions. A
/// stable pair is a random-walk step of at most 8 per channel (L1 ≤
/// 24), an unstable one flips the red channel's top bit (L1 ≥ 128).
/// Each walk starts at 0, 255 or a random value per channel, so stable
/// samples of 255, the median pass's own stand-in value, are common.
fn clip_with_known_stability(w: usize, h: usize, frames: usize, seed: u64) -> Video {
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs = frames - 1;
    let mut pixels = vec![Vec::with_capacity(w * h); frames];
    for i in 0..w * h {
        let stable_pairs = match i % 5 {
            0 => 0,
            1 => pairs.min(1),
            2 => pairs.min(2),
            3 => pairs,
            _ => rng.gen_range(0..=pairs),
        };
        // A random subset of that size, by a partial Fisher–Yates shuffle.
        let mut order: Vec<usize> = (0..pairs).collect();
        for j in 0..stable_pairs {
            order.swap(j, rng.gen_range(j..pairs));
        }
        let mut stable = vec![false; pairs];
        for &k in &order[..stable_pairs] {
            stable[k] = true;
        }
        let mut start = || match rng.gen_range(0..3) {
            0 => 0,
            1 => 255,
            _ => rng.gen::<u8>(),
        };
        let mut p = Rgb::new(start(), start(), start());
        for (k, frame) in pixels.iter_mut().enumerate() {
            frame.push(p);
            if k == pairs {
                break;
            }
            let mut step = |v: u8| (i32::from(v) + rng.gen_range(-8i32..=8)).clamp(0, 255) as u8;
            p = if stable[k] {
                Rgb::new(step(p.r), step(p.g), step(p.b))
            } else {
                Rgb::new(p.r ^ 0x80, step(p.g), step(p.b))
            };
        }
    }
    let frames = pixels
        .into_iter()
        .map(|px| ImageBuffer::from_vec(w, h, px).unwrap())
        .collect();
    Video::new(frames, 10.0)
}

proptest! {
    // ---------- background estimation ----------

    #[test]
    fn background_estimate_has_frame_dims_and_valid_support(video in video_strategy()) {
        for mode in [UpdateMode::LastStable, UpdateMode::MedianOfStable] {
            let est = BackgroundEstimator::new(BackgroundConfig { mode, ..BackgroundConfig::default() })
                .estimate(&video)
                .unwrap();
            prop_assert_eq!(est.image.dims(), video.dims());
            // Support never exceeds the number of frame pairs.
            let max_support = (video.len() - 1) as u16;
            prop_assert!(est.support.as_slice().iter().all(|&s| s <= max_support));
            prop_assert!((0.0..=1.0).contains(&est.coverage()));
        }
    }

    #[test]
    fn median_matches_sort_and_index_oracle(
        (w, h) in (1usize..14, 1usize..8),
        long in 0u8..4,
        seed in any::<u64>(),
    ) {
        // One case in four runs 257–300 frames, so a still pixel has more
        // than 255 stable pairs and the byte counters must be flushed;
        // the others run 2–24 frames under a random warm-up window.
        let mut rng = StdRng::seed_from_u64(seed);
        let (frames, warmup) = if long == 0 {
            (rng.gen_range(257..=300), None)
        } else {
            let frames = rng.gen_range(2..=24);
            (frames, rng.gen_bool(0.5).then(|| rng.gen_range(2..=frames + 2)))
        };
        let video = clip_with_known_stability(w, h, frames, rng.gen());
        let config = BackgroundConfig { warmup, ..BackgroundConfig::default() };
        let est = BackgroundEstimator::new(config).estimate(&video).unwrap();
        let window = &video.frames()[..warmup.map_or(frames, |w| w.min(frames))];
        for y in 0..h {
            for x in 0..w {
                let stable: Vec<Rgb> = window
                    .windows(2)
                    .map(|pair| (pair[0].get(x, y), pair[1].get(x, y)))
                    .filter(|(a, b)| a.l1_distance(*b) <= config.diff_threshold)
                    .map(|(a, _)| a)
                    .collect();
                let expected = if stable.is_empty() {
                    window[0].get(x, y)
                } else {
                    let median = |channel: fn(&Rgb) -> u8| {
                        let mut v: Vec<u8> = stable.iter().map(channel).collect();
                        v.sort_unstable();
                        v[v.len() / 2]
                    };
                    Rgb::new(median(|p| p.r), median(|p| p.g), median(|p| p.b))
                };
                prop_assert_eq!(est.image.get(x, y), expected, "pixel ({}, {}) of {} frames", x, y, frames);
                prop_assert_eq!(usize::from(est.support.get(x, y)), stable.len());
                if warmup.is_none() && (y * w + x) % 5 == 3 {
                    prop_assert_eq!(stable.len(), frames - 1, "a still pixel is stable throughout");
                }
            }
        }
    }

    #[test]
    fn identical_frames_estimate_exactly(frame in frame_strategy(8, 6), n in 2usize..6) {
        let video = Video::new(vec![frame.clone(); n], 10.0);
        let est = BackgroundEstimator::new(BackgroundConfig::default())
            .estimate(&video)
            .unwrap();
        prop_assert_eq!(est.coverage(), 1.0);
        prop_assert_eq!(est.image, frame);
    }

    // ---------- foreground ----------

    #[test]
    fn foreground_monotone_in_threshold(frame in frame_strategy(8, 6), bg in frame_strategy(8, 6)) {
        let loose = ForegroundExtractor::new(ForegroundConfig { threshold: 20 }).extract(&frame, &bg);
        let strict = ForegroundExtractor::new(ForegroundConfig { threshold: 80 }).extract(&frame, &bg);
        prop_assert!(subset(&strict, &loose));
        // Subtracting a frame from itself yields nothing.
        let zero = ForegroundExtractor::default().extract(&frame, &frame);
        prop_assert!(zero.is_blank());
    }

    // ---------- cleanup stage ordering ----------

    #[test]
    fn cleanup_stage_ordering(raw in mask_strategy()) {
        let denoised = NoiseFilter::default().apply(&raw);
        let despotted = SpotRemover::default().apply(&denoised);
        let filled = HoleFiller::default().apply(&despotted);
        prop_assert!(subset(&denoised, &raw), "noise filter must not add pixels");
        prop_assert!(subset(&despotted, &denoised), "spot removal must not add pixels");
        prop_assert!(subset(&despotted, &filled), "hole fill must not remove pixels");
    }

    // ---------- shadow detector ----------

    #[test]
    fn shadow_mask_is_subset_of_foreground(frame in frame_strategy(8, 6), bg in frame_strategy(8, 6), fg in mask_strategy()) {
        // Resize fg to the frame dims.
        let fg = Mask::from_fn(8, 6, |x, y| fg.get(x, y));
        let det = ShadowDetector::default();
        let shadow = det.shadow_mask(&frame, &bg, &fg);
        prop_assert!(subset(&shadow, &fg));
        let (cleaned, shadow2) = det.remove_shadows(&frame, &bg, &fg);
        prop_assert_eq!(&shadow2, &shadow);
        prop_assert_eq!(cleaned.union(&shadow).unwrap(), fg);
        prop_assert!(cleaned.intersect(&shadow).unwrap().is_blank());
    }

    #[test]
    fn widening_every_parameter_can_only_add_shadow_pixels(
        h in 0.0f64..360.0, s in 0.0f64..1.0, v in 0.01f64..1.0,
        hb in 0.0f64..360.0, sb in 0.0f64..1.0, vb in 0.01f64..1.0,
    ) {
        let fpx = Hsv::new(h, s, v);
        let bpx = Hsv::new(hb, sb, vb);
        let narrow = ShadowDetector::new(ShadowParams { alpha: 0.5, beta: 0.8, tau_s: 0.1, tau_h: 30.0 });
        let wide = ShadowDetector::new(ShadowParams { alpha: 0.2, beta: 0.95, tau_s: 0.5, tau_h: 120.0 });
        if narrow.is_shadow_pixel(fpx, bpx) {
            prop_assert!(wide.is_shadow_pixel(fpx, bpx));
        }
    }
}
