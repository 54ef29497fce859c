//! Property-based tests for the image-processing substrate.
//!
//! These check the algebraic laws the pipeline silently relies on:
//! mask set algebra, morphology ordering (erosion ⊆ identity ⊆
//! dilation), opening/closing idempotence, component-area conservation,
//! hole-fill monotonicity, the metric property of the distance
//! transform, colour-conversion round trips, and I/O round trips.

use proptest::prelude::*;
use slj_imgproc::components::{label_components, remove_small_components};
use slj_imgproc::distance::DistanceField;
use slj_imgproc::geometry::{Point2, Segment};
use slj_imgproc::holes::{fill_enclosed_holes, fill_holes_iterated, fill_holes_paper_rule};
use slj_imgproc::image::ImageBuffer;
use slj_imgproc::io;
use slj_imgproc::mask::Mask;
use slj_imgproc::morph::{close, dilate, erode, neighbor_filter, open, Connectivity};
use slj_imgproc::pixel::{pack_rgb, unpack_rgb, Gray, Hsv, Rgb};

/// Strategy: a small mask with arbitrary contents.
fn mask_strategy() -> impl Strategy<Value = Mask> {
    (1usize..20, 1usize..20).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<bool>(), w * h).prop_map(move |bits| {
            let mut m = Mask::new(w, h);
            for (i, b) in bits.into_iter().enumerate() {
                if b {
                    m.set(i % w, i / w, true);
                }
            }
            m
        })
    })
}

/// Strategy: a small RGB image.
fn image_strategy() -> impl Strategy<Value = ImageBuffer<Rgb>> {
    (1usize..12, 1usize..12).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<(u8, u8, u8)>(), w * h).prop_map(move |px| {
            ImageBuffer::from_vec(
                w,
                h,
                px.into_iter().map(|(r, g, b)| Rgb::new(r, g, b)).collect(),
            )
            .unwrap()
        })
    })
}

fn subset(a: &Mask, b: &Mask) -> bool {
    a.difference(b).unwrap().is_blank()
}

proptest! {
    // ---------- mask set algebra ----------

    #[test]
    fn union_is_commutative_and_bounding(a in mask_strategy()) {
        // Build b with the same dims by shifting a.
        let b = Mask::from_fn(a.width(), a.height(), |x, y| a.get(y % a.width().max(1), x % a.height().max(1)));
        let ab = a.union(&b).unwrap();
        let ba = b.union(&a).unwrap();
        prop_assert_eq!(&ab, &ba);
        prop_assert!(subset(&a, &ab));
        prop_assert!(subset(&b, &ab));
    }

    #[test]
    fn intersection_subset_union(a in mask_strategy()) {
        let b = a.invert();
        let i = a.intersect(&b).unwrap();
        let u = a.union(&b).unwrap();
        prop_assert!(i.is_blank()); // a ∩ ¬a = ∅
        prop_assert_eq!(u.count(), a.width() * a.height()); // a ∪ ¬a = everything
    }

    #[test]
    fn de_morgan(a in mask_strategy()) {
        let b = Mask::from_fn(a.width(), a.height(), |x, y| (x + y) % 3 == 0);
        let left = a.union(&b).unwrap().invert();
        let right = a.invert().intersect(&b.invert()).unwrap();
        prop_assert_eq!(left, right);
    }

    #[test]
    fn metrics_counts_conserve_pixels(a in mask_strategy()) {
        let truth = Mask::from_fn(a.width(), a.height(), |x, _| x % 2 == 0);
        let m = a.metrics_against(&truth).unwrap();
        prop_assert_eq!(m.tp + m.fp + m.fn_ + m.tn, a.width() * a.height());
        prop_assert!(m.iou() >= 0.0 && m.iou() <= 1.0);
        prop_assert!(m.f1() >= 0.0 && m.f1() <= 1.0);
    }

    #[test]
    fn iou_with_self_is_one(a in mask_strategy()) {
        prop_assert_eq!(a.iou(&a).unwrap(), 1.0);
    }

    // ---------- morphology ----------

    #[test]
    fn erosion_shrinks_dilation_grows(a in mask_strategy()) {
        for conn in [Connectivity::Four, Connectivity::Eight] {
            let e = erode(&a, conn);
            let d = dilate(&a, conn);
            prop_assert!(subset(&e, &a));
            prop_assert!(subset(&a, &d));
        }
    }

    #[test]
    fn opening_and_closing_are_idempotent(inner in mask_strategy()) {
        // Out-of-bounds reads as background, which makes closing
        // non-extensive *at the border* (the dilated halo is clipped, so
        // border pixels can be eroded away). The classical laws hold for
        // content away from the border, so embed the random mask in a
        // 2-pixel frame of background.
        let a = Mask::from_fn(inner.width() + 4, inner.height() + 4, |x, y| {
            x >= 2 && y >= 2 && inner.get(x - 2, y - 2)
        });
        let conn = Connectivity::Eight;
        let o = open(&a, conn);
        prop_assert_eq!(&open(&o, conn), &o);
        let cl = close(&a, conn);
        prop_assert_eq!(&close(&cl, conn), &cl);
        // Opening is anti-extensive, closing extensive.
        prop_assert!(subset(&o, &a));
        prop_assert!(subset(&a, &cl));
    }

    #[test]
    fn neighbor_filter_is_anti_extensive_and_monotone_in_threshold(a in mask_strategy()) {
        let f2 = neighbor_filter(&a, 2);
        let f4 = neighbor_filter(&a, 4);
        prop_assert!(subset(&f2, &a));
        prop_assert!(subset(&f4, &f2)); // stricter threshold keeps fewer
    }

    // ---------- connected components ----------

    #[test]
    fn component_areas_sum_to_mask_count(a in mask_strategy()) {
        for conn in [Connectivity::Four, Connectivity::Eight] {
            let labeling = label_components(&a, conn);
            let total: usize = labeling.components().iter().map(|c| c.area).sum();
            prop_assert_eq!(total, a.count());
        }
    }

    #[test]
    fn spot_removal_is_anti_extensive_and_monotone(a in mask_strategy()) {
        let r2 = remove_small_components(&a, 2);
        let r5 = remove_small_components(&a, 5);
        prop_assert!(subset(&r2, &a));
        prop_assert!(subset(&r5, &r2));
        prop_assert_eq!(remove_small_components(&a, 1), a);
    }

    // ---------- hole filling ----------

    #[test]
    fn hole_filling_is_extensive_and_idempotent(a in mask_strategy()) {
        let (paper, _) = fill_holes_iterated(&a, 8);
        prop_assert!(subset(&a, &paper));
        let flood = fill_enclosed_holes(&a);
        prop_assert!(subset(&a, &flood));
        prop_assert_eq!(&fill_enclosed_holes(&flood), &flood);
        // The flood fill dominates the local rule.
        prop_assert!(subset(&paper, &flood));
    }

    // ---------- distance transform ----------

    #[test]
    fn distance_field_metric_properties(a in mask_strategy()) {
        prop_assume!(!a.is_blank());
        let df = DistanceField::new(&a);
        for (x, y) in a.foreground_pixels() {
            prop_assert_eq!(df.distance(x, y), 0.0);
        }
        // 1-Lipschitz between 4-neighbours (in chamfer units the step is
        // exactly 1 px).
        for y in 0..a.height() {
            for x in 1..a.width() {
                let d = (df.distance(x, y) - df.distance(x - 1, y)).abs();
                prop_assert!(d <= 1.0 + 1e-9);
            }
        }
    }

    /// `DistanceField::pixel_at` finds the pixel that rounding each
    /// coordinate with `f64::round` finds, or none when that is off the
    /// field: at ±0.5, ±0.49999999999999994 (where `floor(v + 0.5)`
    /// goes wrong), `n − 0.5` and the value just below it, ±0, NaN,
    /// ±inf, ±1e300, half-integers and their neighbours, and anywhere
    /// within two pixels of the field, on fields down to 0×0.
    #[test]
    fn pixel_at_rounds_like_f64_round(
        (w, h) in (0usize..12, 0usize..12),
        picks in (0usize..19, 0usize..19),
        units in (-1.0f64..1.0, -1.0f64..1.0),
    ) {
        let df = DistanceField::new(&Mask::new(w, h));
        let coord = |pick: usize, unit: f64, n: usize| {
            let n = n as f64;
            let half = (unit * (n + 2.0)).floor() + 0.5;
            [
                0.5,
                -0.5,
                0.49999999999999994,
                -0.49999999999999994,
                n - 0.5,
                (n - 0.5).next_down(),
                -0.0,
                0.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1e300,
                -1e300,
                half,
                half.next_down(),
                half.next_up(),
                unit * (n + 2.0),
                n + unit,
            ]
            .get(pick)
            .copied()
            .unwrap_or(unit * 0.75)
        };
        let p = Point2::new(coord(picks.0, units.0, w), coord(picks.1, units.1, h));
        let (x, y) = (p.x.round(), p.y.round());
        let expected = (x >= 0.0 && y >= 0.0 && (x as usize) < w && (y as usize) < h)
            .then_some((x as usize, y as usize));
        prop_assert_eq!(df.pixel_at(p), expected, "{:?} on {}x{}", p, w, h);
    }

    // ---------- geometry ----------

    #[test]
    fn closest_point_is_on_segment_and_optimal(
        ax in -50.0f64..50.0, ay in -50.0f64..50.0,
        bx in -50.0f64..50.0, by in -50.0f64..50.0,
        px in -50.0f64..50.0, py in -50.0f64..50.0,
    ) {
        let s = Segment::new(Point2::new(ax, ay), Point2::new(bx, by));
        let p = Point2::new(px, py);
        let t = s.closest_t(p);
        prop_assert!((0.0..=1.0).contains(&t));
        let c = s.closest_point(p);
        let d = s.distance_to(p);
        // No sampled point on the segment is closer.
        for q in s.sample(11) {
            prop_assert!(p.distance(q) + 1e-9 >= d);
        }
        prop_assert!((p.distance(c) - d).abs() < 1e-9);
        // Distance to segment is bounded by distance to either endpoint.
        prop_assert!(d <= p.distance(s.a) + 1e-9);
        prop_assert!(d <= p.distance(s.b) + 1e-9);
    }

    // ---------- colour ----------

    #[test]
    fn rgb_hsv_roundtrip_within_one_level(r in any::<u8>(), g in any::<u8>(), b in any::<u8>()) {
        let c = Rgb::new(r, g, b);
        let back = c.to_hsv().to_rgb();
        prop_assert!(c.linf_distance(back) <= 1, "{c} -> {back}");
    }

    #[test]
    fn hue_distance_is_a_metric_on_the_circle(h1 in 0.0f64..360.0, h2 in 0.0f64..360.0, h3 in 0.0f64..360.0) {
        let a = Hsv::new(h1, 1.0, 1.0);
        let b = Hsv::new(h2, 1.0, 1.0);
        let c = Hsv::new(h3, 1.0, 1.0);
        prop_assert!((a.hue_distance(b) - b.hue_distance(a)).abs() < 1e-9);
        prop_assert!(a.hue_distance(b) <= 180.0 + 1e-9);
        prop_assert!(a.hue_distance(c) <= a.hue_distance(b) + b.hue_distance(c) + 1e-9);
    }

    #[test]
    fn brightness_scaling_is_monotone(r in any::<u8>(), g in any::<u8>(), b in any::<u8>(), f in 0.0f64..1.0) {
        let c = Rgb::new(r, g, b);
        let dark = c.scale_brightness(f);
        prop_assert!(dark.r <= c.r && dark.g <= c.g && dark.b <= c.b);
        prop_assert!(dark.luma() <= c.luma() + 1.0);
    }

    // ---------- I/O ----------

    #[test]
    fn ppm_roundtrip(img in image_strategy()) {
        let mut buf = Vec::new();
        io::write_ppm(&img, &mut buf).unwrap();
        let back = io::read_ppm(&buf[..]).unwrap();
        prop_assert_eq!(back, img);
    }

    #[test]
    fn packed_rgb_helpers_match_per_pixel_conversion(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        // A trailing partial pixel is not a pixel.
        let whole = &bytes[..bytes.len() / 3 * 3];
        let naive: Vec<Rgb> = whole
            .chunks(3)
            .map(|c| Rgb::new(c[0], c[1], c[2]))
            .collect();
        let unpacked: Vec<Rgb> = unpack_rgb(&bytes).collect();
        prop_assert_eq!(&unpacked, &naive);
        prop_assert_eq!(pack_rgb(&unpacked), whole);
    }

    #[test]
    fn pgm_roundtrip(img in image_strategy()) {
        let gray = img.map(Gray::from);
        let mut buf = Vec::new();
        io::write_pgm(&gray, &mut buf).unwrap();
        let back = io::read_pgm(&buf[..]).unwrap();
        prop_assert_eq!(back, gray);
    }

    // ---------- image buffer ----------

    #[test]
    fn crop_contents_match_source(img in image_strategy(), x0 in 0usize..12, y0 in 0usize..12, w in 1usize..12, h in 1usize..12) {
        let c = img.crop(x0, y0, w, h);
        for y in 0..c.height() {
            for x in 0..c.width() {
                prop_assert_eq!(c.get(x, y), img.get(x0 + x, y0 + y));
            }
        }
    }

    #[test]
    fn map_preserves_structure(img in image_strategy()) {
        let luma = img.map(Gray::from);
        prop_assert_eq!(luma.dims(), img.dims());
        for (x, y, p) in img.enumerate_pixels() {
            prop_assert_eq!(luma.get(x, y), Gray::from(p));
        }
    }
}

// ---------- bit-packed kernels vs naive Vec<bool> reference ----------
//
// The `Mask` API is backed by the word-parallel `BitMask` kernels; these
// properties pin every kernel bitwise-equal to a naive per-pixel
// `Vec<bool>` implementation on random masks whose widths straddle the
// 64-bit word boundary.

/// A naive row-major `Vec<bool>` mask, the pre-bit-packing storage.
#[derive(Clone, Debug, PartialEq)]
struct NaiveMask {
    w: usize,
    h: usize,
    data: Vec<bool>,
}

impl NaiveMask {
    fn get(&self, x: isize, y: isize) -> bool {
        x >= 0
            && y >= 0
            && (x as usize) < self.w
            && (y as usize) < self.h
            && self.data[y as usize * self.w + x as usize]
    }

    fn count_neighbors(&self, x: usize, y: usize, conn: Connectivity) -> usize {
        conn.offsets()
            .iter()
            .filter(|&&(dx, dy)| self.get(x as isize + dx, y as isize + dy))
            .count()
    }

    fn map(&self, mut f: impl FnMut(usize, usize) -> bool) -> NaiveMask {
        let mut data = Vec::with_capacity(self.w * self.h);
        for y in 0..self.h {
            for x in 0..self.w {
                data.push(f(x, y));
            }
        }
        NaiveMask {
            w: self.w,
            h: self.h,
            data,
        }
    }

    /// The original stack-based border flood fill.
    fn fill_enclosed(&self) -> NaiveMask {
        let (w, h) = (self.w, self.h);
        let mut outside = vec![false; w * h];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        let push =
            |x: usize, y: usize, outside: &mut Vec<bool>, stack: &mut Vec<(usize, usize)>| {
                if !self.data[y * w + x] && !outside[y * w + x] {
                    outside[y * w + x] = true;
                    stack.push((x, y));
                }
            };
        for x in 0..w {
            push(x, 0, &mut outside, &mut stack);
            push(x, h - 1, &mut outside, &mut stack);
        }
        for y in 0..h {
            push(0, y, &mut outside, &mut stack);
            push(w - 1, y, &mut outside, &mut stack);
        }
        while let Some((x, y)) = stack.pop() {
            for &(dx, dy) in Connectivity::Four.offsets() {
                let (nx, ny) = (x as isize + dx, y as isize + dy);
                if nx >= 0 && ny >= 0 && (nx as usize) < w && (ny as usize) < h {
                    let (nx, ny) = (nx as usize, ny as usize);
                    if !self.data[ny * w + nx] && !outside[ny * w + nx] {
                        outside[ny * w + nx] = true;
                        stack.push((nx, ny));
                    }
                }
            }
        }
        self.map(|x, y| self.data[y * w + x] || !outside[y * w + x])
    }
}

fn to_mask(n: &NaiveMask) -> Mask {
    Mask::from_fn(n.w, n.h, |x, y| n.data[y * n.w + x])
}

fn masks_equal(packed: &Mask, naive: &NaiveMask) -> bool {
    packed.dims() == (naive.w, naive.h)
        && (0..naive.h)
            .all(|y| (0..naive.w).all(|x| packed.get(x, y) == naive.data[y * naive.w + x]))
}

/// Strategy: a naive mask whose width crosses the u64 word boundary often.
fn naive_strategy() -> impl Strategy<Value = NaiveMask> {
    (1usize..140, 1usize..16).prop_flat_map(|(w, h)| {
        proptest::collection::vec(any::<bool>(), w * h).prop_map(move |data| NaiveMask {
            w,
            h,
            data,
        })
    })
}

proptest! {
    #[test]
    fn packed_set_algebra_matches_naive(a in naive_strategy(), seed in any::<u64>()) {
        // Derive a second mask of the same dims from the seed.
        let b = a.map(|x, y| {
            let v = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(((y * a.w + x) as u64).wrapping_mul(1442695040888963407));
            (v >> 32) & 1 == 1
        });
        let (pa, pb) = (to_mask(&a), to_mask(&b));
        let union = a.map(|x, y| a.data[y * a.w + x] | b.data[y * b.w + x]);
        let inter = a.map(|x, y| a.data[y * a.w + x] & b.data[y * b.w + x]);
        let diff = a.map(|x, y| a.data[y * a.w + x] & !b.data[y * b.w + x]);
        let inv = a.map(|x, y| !a.data[y * a.w + x]);
        prop_assert!(masks_equal(&pa.union(&pb).unwrap(), &union));
        prop_assert!(masks_equal(&pa.intersect(&pb).unwrap(), &inter));
        prop_assert!(masks_equal(&pa.difference(&pb).unwrap(), &diff));
        prop_assert!(masks_equal(&pa.invert(), &inv));
        prop_assert_eq!(pa.count(), a.data.iter().filter(|&&v| v).count());
    }

    #[test]
    fn packed_neighbor_vote_matches_naive(a in naive_strategy(), threshold in 0usize..9) {
        let packed = neighbor_filter(&to_mask(&a), threshold);
        let reference = a.map(|x, y| {
            a.data[y * a.w + x] && a.count_neighbors(x, y, Connectivity::Eight) > threshold
        });
        prop_assert!(masks_equal(&packed, &reference));
    }

    #[test]
    fn packed_morphology_matches_naive(a in naive_strategy()) {
        let pa = to_mask(&a);
        for conn in [Connectivity::Four, Connectivity::Eight] {
            let er = a.map(|x, y| {
                a.data[y * a.w + x] && a.count_neighbors(x, y, conn) == conn.offsets().len()
            });
            let di = a.map(|x, y| {
                a.data[y * a.w + x] || a.count_neighbors(x, y, conn) > 0
            });
            prop_assert!(masks_equal(&erode(&pa, conn), &er));
            prop_assert!(masks_equal(&dilate(&pa, conn), &di));
        }
    }

    #[test]
    fn packed_paper_rule_matches_naive(a in naive_strategy()) {
        let packed = fill_holes_paper_rule(&to_mask(&a));
        let reference = a.map(|x, y| {
            a.data[y * a.w + x]
                || Connectivity::Four
                    .offsets()
                    .iter()
                    .all(|&(dx, dy)| a.get(x as isize + dx, y as isize + dy))
        });
        prop_assert!(masks_equal(&packed, &reference));
    }

    #[test]
    fn packed_flood_fill_matches_naive(a in naive_strategy()) {
        let packed = fill_enclosed_holes(&to_mask(&a));
        let reference = a.fill_enclosed();
        prop_assert!(masks_equal(&packed, &reference));
    }

    #[test]
    fn packed_foreground_iteration_matches_naive(a in naive_strategy()) {
        let packed: Vec<(usize, usize)> = to_mask(&a).foreground_pixels().collect();
        let mut reference = Vec::new();
        for y in 0..a.h {
            for x in 0..a.w {
                if a.data[y * a.w + x] {
                    reference.push((x, y));
                }
            }
        }
        prop_assert_eq!(packed, reference);
    }
}

// ---------- Eq. 3 walk layout ----------

/// Candidate pixels of one layout shape in a `w × h` frame, in raster
/// order: anywhere, one row, one column, or the frame's edges.
fn shape_pixels(shape: u8, w: usize, h: usize, line: usize) -> Vec<(usize, usize)> {
    (0..h)
        .flat_map(|y| (0..w).map(move |x| (x, y)))
        .filter(|&(x, y)| match shape {
            0 => true,
            1 => y == line % h,
            2 => x == line % w,
            _ => x == 0 || y == 0 || x == w - 1 || y == h - 1,
        })
        .collect()
}

proptest! {
    /// The Morton cluster layout of 0 to 70 points (the cluster
    /// boundaries 1, 15, 16 and 17 drawn often), as a scattered set, a
    /// single row, a single column or the frame's edges: the slots are a
    /// permutation of `0..n` that holds each raster point, each cluster
    /// box covers its lanes, padding repeats a real point of its own
    /// cluster, and `iter()` still yields raster order.
    #[test]
    fn walk_layout_is_a_permutation_in_covering_clusters(
        shape in 0u8..4,
        size in (1usize..72, 1usize..72),
        line in 0usize..72,
        count in (0u8..3, 0usize..=70, 0usize..4),
        seed in any::<u64>(),
    ) {
        use slj_imgproc::lanes::{PreparedFrame, CLUSTER};

        let (w, h) = size;
        let mut candidates = shape_pixels(shape, w, h, line);
        let want = match count.0 {
            0 => [1, 15, 16, 17][count.2],
            _ => count.1,
        };
        // A seeded shuffle: sort by a multiply-xor hash of the pixel.
        candidates.sort_by_key(|&(x, y)| {
            (((x as u64) << 32) | (y as u64 ^ seed)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7
        });
        candidates.truncate(want);
        let mask = Mask::from_fn(w, h, |x, y| candidates.contains(&(x, y)));
        let frame = PreparedFrame::from_mask(&mask, 1);
        let raster: Vec<(usize, usize)> = mask.foreground_pixels().collect();
        let n = raster.len();
        prop_assert_eq!(frame.len(), n);

        // Raster order through `iter()` and `point()`.
        let got: Vec<(f64, f64)> = frame.iter().map(|p| (p.x, p.y)).collect();
        let expected: Vec<(f64, f64)> = raster.iter().map(|&(x, y)| (x as f64, y as f64)).collect();
        prop_assert_eq!(&got, &expected);

        // Whole clusters, padding only in the last.
        prop_assert_eq!(frame.walk_len(), n.next_multiple_of(CLUSTER));
        prop_assert_eq!(frame.num_clusters() * CLUSTER, frame.walk_len());
        let walk = |s: usize| {
            let (xs, ys) = frame.cluster(s / CLUSTER);
            (xs[s % CLUSTER], ys[s % CLUSTER])
        };

        // The slots: a permutation of 0..n holding each raster point.
        let mut seen = vec![false; n];
        prop_assert_eq!(frame.slots().len(), n);
        for (i, &slot) in frame.slots().iter().enumerate() {
            let slot = slot as usize;
            prop_assert!(slot < n, "slot {} of {} points", slot, n);
            prop_assert!(!seen[slot], "slot {} twice", slot);
            seen[slot] = true;
            prop_assert_eq!(walk(slot), expected[i]);
        }

        for c in 0..frame.num_clusters() {
            let b = frame.cluster_bounds(c);
            let (xs, ys) = frame.cluster(c);
            for l in 0..CLUSTER {
                prop_assert!(xs[l] >= b.min_x && xs[l] <= b.max_x);
                prop_assert!(ys[l] >= b.min_y && ys[l] <= b.max_y);
            }
            // Padding lanes repeat a real lane of the same cluster.
            let real = n.saturating_sub(c * CLUSTER).min(CLUSTER);
            prop_assert!(real > 0);
            for l in real..CLUSTER {
                prop_assert!(
                    (0..real).any(|r| (xs[r], ys[r]) == (xs[l], ys[l])),
                    "padding lane {} of cluster {}", l, c
                );
            }
        }
    }
}
