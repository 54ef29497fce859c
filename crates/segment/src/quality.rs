//! Per-frame segmentation health metrics.
//!
//! The paper assumes Section 2 always hands Section 3 a usable
//! silhouette. Under acquisition faults (occlusions, sensor bursts,
//! dropped frames) that assumption fails silently: the GA happily fits
//! a pose to a shredded or clipped mask and the score card inherits the
//! garbage. This module measures, per frame, whether the silhouette
//! *looks like* one standing-long-jumper before anything downstream
//! trusts it:
//!
//! * **Area ratio** — foreground area relative to a clip-level
//!   reference (the median frame area, a robust stand-in for the
//!   expected body area). Sensor bursts balloon the area; occlusions
//!   and drops shrink it.
//! * **Fragmentation** — how much of the foreground lies *outside* the
//!   largest connected component. Occlusion bars cut the body into
//!   pieces; heavy noise scatters confetti.
//! * **Border clip** — the fraction of foreground pixels hugging the
//!   image border. Camera jitter pushes the jumper off-frame, and a
//!   body cut by the frame edge loses limbs the stick model needs.
//!
//! [`assess_masks`] scores a clip's final masks and flags each frame
//! healthy or not against a [`QualityConfig`].

use serde::{Deserialize, Serialize};
use slj_imgproc::components::Labeling;
use slj_imgproc::mask::Mask;
use slj_imgproc::morph::Connectivity;

/// How the per-frame reference area is derived from the clip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ReferenceMode {
    /// The median area over the *whole* clip — the most robust
    /// reference, but non-causal: frame k's verdict depends on frames
    /// after k, so it cannot be produced incrementally.
    #[default]
    ClipMedian,
    /// The median area over frames `0..=k` — causal, so a streaming
    /// analyzer can emit frame k's health the moment frame k is
    /// segmented, and a batch run reproduces it exactly.
    Causal,
}

/// Health thresholds for one frame's silhouette.
///
/// The defaults are deliberately lenient: they pass every frame the
/// synthetic scenes produce under the paper's own noise model, and trip
/// only on the grosser acquisition faults the injector simulates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualityConfig {
    /// Minimum foreground area as a fraction of the clip's reference
    /// (median) area. Below this the body is mostly missing.
    pub min_area_ratio: f64,
    /// Maximum foreground area as a fraction of the reference area.
    /// Above this the mask has absorbed noise or background.
    pub max_area_ratio: f64,
    /// Maximum fraction of foreground outside the largest connected
    /// component.
    pub max_fragmentation: f64,
    /// Maximum fraction of foreground within [`Self::border_margin`]
    /// pixels of the image border.
    pub max_border_clip: f64,
    /// Width of the border band, pixels.
    pub border_margin: usize,
    /// How the reference area is derived.
    pub reference: ReferenceMode,
}

impl Default for QualityConfig {
    fn default() -> Self {
        // Thresholds chosen by the slj-eval ROC sweep against synthetic
        // ground truth (Youden's J over the full fault matrix; see
        // EXPERIMENTS.md): a frame whose area drops below 0.65× the
        // reference or fragments beyond 0.2 is usually one whose pose
        // estimate has gone materially wrong, while looser values let
        // bad frames through without catching more good ones.
        QualityConfig {
            min_area_ratio: 0.65,
            max_area_ratio: 2.2,
            max_fragmentation: 0.2,
            max_border_clip: 0.25,
            border_margin: 2,
            reference: ReferenceMode::ClipMedian,
        }
    }
}

/// Which health check a frame failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QualityIssue {
    /// Foreground area below `min_area_ratio` × reference.
    AreaTooSmall,
    /// Foreground area above `max_area_ratio` × reference.
    AreaTooLarge,
    /// Foreground split across components beyond `max_fragmentation`.
    Fragmented,
    /// Too much foreground pressed against the image border.
    BorderClipped,
}

impl std::fmt::Display for QualityIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            QualityIssue::AreaTooSmall => "area too small",
            QualityIssue::AreaTooLarge => "area too large",
            QualityIssue::Fragmented => "fragmented",
            QualityIssue::BorderClipped => "border-clipped",
        };
        f.write_str(s)
    }
}

/// Health metrics of one frame's final silhouette.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameQuality {
    /// Foreground pixel count.
    pub area_px: usize,
    /// `area_px` over the clip's reference (median) area; 0 for a blank
    /// reference.
    pub area_ratio: f64,
    /// Fraction of foreground outside the largest connected component
    /// (0 = one solid body, → 1 = confetti).
    pub fragmentation: f64,
    /// Fraction of foreground within the border band.
    pub border_clip: f64,
    /// Centroid of the foreground, `(x, y)` pixels, if any.
    pub centroid: Option<(f64, f64)>,
    /// Checks this frame failed (empty = healthy).
    pub issues: Vec<QualityIssue>,
}

impl FrameQuality {
    /// Whether the frame passed every check.
    pub fn is_healthy(&self) -> bool {
        self.issues.is_empty()
    }

    /// Measures one mask against a reference area and thresholds.
    ///
    /// Allocating wrapper over [`FrameQuality::measure_with`].
    pub fn measure(mask: &Mask, reference_area: usize, config: &QualityConfig) -> FrameQuality {
        Self::measure_with(mask, reference_area, config, &mut Labeling::empty())
    }

    /// Like [`FrameQuality::measure`], but labels connected components
    /// into the caller's [`Labeling`] so a per-frame caller (the
    /// streaming analyzer) does no full-frame allocation.
    pub fn measure_with(
        mask: &Mask,
        reference_area: usize,
        config: &QualityConfig,
        labeling: &mut Labeling,
    ) -> FrameQuality {
        let area_px = mask.count();
        let (w, h) = mask.dims();

        labeling.relabel(mask, Connectivity::Eight);
        let largest = labeling.largest().map_or(0, |c| c.area);
        let fragmentation = if area_px == 0 {
            1.0
        } else {
            1.0 - largest as f64 / area_px as f64
        };

        let margin = config.border_margin;
        let mut border = 0usize;
        let mut sx = 0.0f64;
        let mut sy = 0.0f64;
        for (x, y) in mask.foreground_pixels() {
            sx += x as f64;
            sy += y as f64;
            let near_border = x < margin
                || y < margin
                || x + margin >= w.max(margin)
                || y + margin >= h.max(margin);
            if near_border {
                border += 1;
            }
        }
        let border_clip = if area_px == 0 {
            1.0
        } else {
            border as f64 / area_px as f64
        };
        let centroid = if area_px == 0 {
            None
        } else {
            Some((sx / area_px as f64, sy / area_px as f64))
        };

        let area_ratio = if reference_area == 0 {
            0.0
        } else {
            area_px as f64 / reference_area as f64
        };

        let mut issues = Vec::new();
        if area_ratio < config.min_area_ratio {
            issues.push(QualityIssue::AreaTooSmall);
        } else if area_ratio > config.max_area_ratio {
            issues.push(QualityIssue::AreaTooLarge);
        }
        if fragmentation > config.max_fragmentation {
            issues.push(QualityIssue::Fragmented);
        }
        if border_clip > config.max_border_clip {
            issues.push(QualityIssue::BorderClipped);
        }

        FrameQuality {
            area_px,
            area_ratio,
            fragmentation,
            border_clip,
            centroid,
            issues,
        }
    }
}

/// The clip-level reference area: the median per-frame foreground
/// count. Robust to a minority of faulty frames — a few ballooned or
/// vanished masks do not move the median the way they would a mean.
pub fn reference_area(masks: &[&Mask]) -> usize {
    median_area(masks.iter().map(|m| m.count()).collect())
}

/// The causal reference area at frame `k`: the median of
/// `areas[0..=k]`. This is what [`ReferenceMode::Causal`] evaluates and
/// what a streaming analyzer computes incrementally.
pub fn causal_reference_area(areas: &[usize], k: usize) -> usize {
    if areas.is_empty() {
        return 0;
    }
    median_area(areas[..=k.min(areas.len() - 1)].to_vec())
}

fn median_area(mut areas: Vec<usize>) -> usize {
    if areas.is_empty() {
        return 0;
    }
    areas.sort_unstable();
    areas[areas.len() / 2]
}

/// Assesses every final mask of a clip against the thresholds. Returns
/// one [`FrameQuality`] per frame, in frame order.
pub fn assess_masks(masks: &[&Mask], config: &QualityConfig) -> Vec<FrameQuality> {
    let mut labeling = Labeling::empty();
    match config.reference {
        ReferenceMode::ClipMedian => {
            let reference = reference_area(masks);
            masks
                .iter()
                .map(|m| FrameQuality::measure_with(m, reference, config, &mut labeling))
                .collect()
        }
        ReferenceMode::Causal => {
            let areas: Vec<usize> = masks.iter().map(|m| m.count()).collect();
            masks
                .iter()
                .enumerate()
                .map(|(k, m)| {
                    FrameQuality::measure_with(
                        m,
                        causal_reference_area(&areas, k),
                        config,
                        &mut labeling,
                    )
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(w: usize, h: usize, x0: usize, y0: usize, bw: usize, bh: usize) -> Mask {
        Mask::from_fn(w, h, |x, y| {
            x >= x0 && x < x0 + bw && y >= y0 && y < y0 + bh
        })
    }

    #[test]
    fn solid_centered_blob_is_healthy() {
        let m = blob(40, 30, 14, 8, 10, 14);
        let q = FrameQuality::measure(&m, m.count(), &QualityConfig::default());
        assert!(q.is_healthy(), "{:?}", q.issues);
        assert_eq!(q.area_ratio, 1.0);
        assert_eq!(q.fragmentation, 0.0);
        assert_eq!(q.border_clip, 0.0);
        let (cx, cy) = q.centroid.unwrap();
        assert!((cx - 18.5).abs() < 1e-9 && (cy - 14.5).abs() < 1e-9);
    }

    #[test]
    fn vanished_foreground_is_too_small() {
        let m = Mask::new(40, 30);
        let q = FrameQuality::measure(&m, 140, &QualityConfig::default());
        assert!(!q.is_healthy());
        assert!(q.issues.contains(&QualityIssue::AreaTooSmall));
        assert!(q.centroid.is_none());
    }

    #[test]
    fn ballooned_foreground_is_too_large() {
        let m = blob(40, 30, 5, 5, 30, 20);
        let q = FrameQuality::measure(&m, 100, &QualityConfig::default());
        assert!(q.issues.contains(&QualityIssue::AreaTooLarge));
    }

    #[test]
    fn split_body_is_fragmented() {
        // Two equal halves: fragmentation 0.5 > 0.35.
        let m = Mask::from_fn(40, 30, |x, y| {
            (5..15).contains(&y) && ((5..12).contains(&x) || (25..32).contains(&x))
        });
        let q = FrameQuality::measure(&m, m.count(), &QualityConfig::default());
        assert!(q.issues.contains(&QualityIssue::Fragmented));
    }

    #[test]
    fn edge_hugging_body_is_border_clipped() {
        let m = blob(40, 30, 0, 8, 4, 14);
        let q = FrameQuality::measure(&m, m.count(), &QualityConfig::default());
        assert!(
            q.issues.contains(&QualityIssue::BorderClipped),
            "border_clip {}",
            q.border_clip
        );
    }

    #[test]
    fn reference_area_is_the_median() {
        let big = blob(40, 30, 5, 5, 20, 20);
        let mid = blob(40, 30, 10, 10, 10, 14);
        let tiny = blob(40, 30, 10, 10, 2, 2);
        assert_eq!(reference_area(&[&big, &mid, &tiny]), mid.count());
        assert_eq!(reference_area(&[]), 0);
    }

    #[test]
    fn assess_masks_flags_the_odd_one_out() {
        let good = blob(40, 30, 14, 8, 10, 14);
        let bad = Mask::new(40, 30);
        let masks = vec![&good, &good, &bad, &good, &good];
        let quality = assess_masks(&masks, &QualityConfig::default());
        assert_eq!(quality.len(), 5);
        assert!(quality[0].is_healthy());
        assert!(!quality[2].is_healthy());
    }

    #[test]
    fn causal_reference_is_the_prefix_median() {
        let areas = [100, 40, 120, 90, 10];
        assert_eq!(causal_reference_area(&areas, 0), 100);
        assert_eq!(causal_reference_area(&areas, 1), 100); // of [40,100]
        assert_eq!(causal_reference_area(&areas, 2), 100); // of [40,100,120]
        assert_eq!(causal_reference_area(&areas, 3), 100); // of [40,90,100,120]
        assert_eq!(causal_reference_area(&areas, 4), 90);
        assert_eq!(causal_reference_area(&[], 0), 0);
    }

    #[test]
    fn causal_mode_matches_per_prefix_measurement() {
        let big = blob(40, 30, 5, 5, 20, 20);
        let mid = blob(40, 30, 10, 10, 10, 14);
        let tiny = blob(40, 30, 10, 10, 2, 2);
        let masks = vec![&mid, &big, &tiny, &mid];
        let config = QualityConfig {
            reference: ReferenceMode::Causal,
            ..QualityConfig::default()
        };
        let causal = assess_masks(&masks, &config);
        let areas: Vec<usize> = masks.iter().map(|m| m.count()).collect();
        for (k, q) in causal.iter().enumerate() {
            let reference = causal_reference_area(&areas, k);
            assert_eq!(*q, FrameQuality::measure(masks[k], reference, &config));
        }
        // Frame 0 is always its own reference: ratio exactly 1.
        assert_eq!(causal[0].area_ratio, 1.0);
    }
}
