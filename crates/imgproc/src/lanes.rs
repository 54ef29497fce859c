//! Point lanes for data-parallel kernels.
//!
//! [`PreparedFrame`] holds a sampled point set (typically every
//! `stride`-th silhouette pixel) in two orders:
//!
//! * **Raster order**, the order the source iterator yielded.
//!   [`PreparedFrame::iter`] and [`PreparedFrame::point`] read it, and
//!   a sum over the points is defined in it.
//! * **Walk order**: the same points sorted by the Morton (Z-order) key
//!   of their coordinates and cut into [`CLUSTER`]-point clusters, laid
//!   out as structure-of-arrays `x[]`/`y[]` planes with one bounding box
//!   per cluster ([`PreparedFrame::cluster`],
//!   [`PreparedFrame::cluster_bounds`]). A kernel processes one whole
//!   cluster per iteration, with one branch-and-bound test per cluster
//!   instead of one per point.
//!
//! Why Morton order: consecutive raster points run along one scanline,
//! so a run of raster points spans a whole body row and its box is long
//! and thin. A Z-order cluster covers a compact patch, whose box admits
//! fewer sticks (DESIGN.md §9 gives the measured counts).
//!
//! The last cluster is padded to full width by repeating its last real
//! point, so every lane holds valid coordinates, padding never widens a
//! box, and kernels need no masking. Real points fill the walk slots
//! `0..len` and padding the slots at and above `len`.
//! [`PreparedFrame::slots`] maps each raster index to its walk slot: a
//! kernel writes one result per walk slot, then reads the results back
//! in raster order through that map.

use crate::geometry::Point2;
use crate::mask::Mask;

/// Points per walk-order cluster: two AVX-512 vectors of f64, or four
/// AVX2 vectors.
pub const CLUSTER: usize = 16;

/// Axis-aligned bounding box of one cluster's points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterBounds {
    /// Smallest x coordinate in the cluster.
    pub min_x: f64,
    /// Smallest y coordinate in the cluster.
    pub min_y: f64,
    /// Largest x coordinate in the cluster.
    pub max_x: f64,
    /// Largest y coordinate in the cluster.
    pub max_y: f64,
}

/// A point set in raster order plus its Morton-ordered cluster layout.
///
/// Built once per frame, read many times (every genome of every GA
/// generation walks it). See the module docs for the layout invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedFrame {
    /// Raster-order x coordinates, one per real point.
    xs: Vec<f64>,
    /// Raster-order y coordinates, one per real point.
    ys: Vec<f64>,
    /// Walk-order x coordinates, padded to a multiple of [`CLUSTER`].
    walk_xs: Vec<f64>,
    /// Walk-order y coordinates, padded to a multiple of [`CLUSTER`].
    walk_ys: Vec<f64>,
    /// Per-cluster bounding boxes.
    bounds: Vec<ClusterBounds>,
    /// `slots[i]`: the walk slot of raster point `i`.
    slots: Vec<u32>,
    /// Build scratch: Morton key in the high half, raster index in the
    /// low half, sorted into walk order.
    keys: Vec<u64>,
}

/// Spreads the 16 bits of `v` to the even bit positions of a `u32`.
fn spread_bits(v: u16) -> u32 {
    let mut v = u32::from(v);
    v = (v | (v << 8)) & 0x00ff_00ff;
    v = (v | (v << 4)) & 0x0f0f_0f0f;
    v = (v | (v << 2)) & 0x3333_3333;
    (v | (v << 1)) & 0x5555_5555
}

/// The Z-order key of a point: the bits of its x and y pixel indices
/// interleaved. The casts saturate (negative and NaN coordinates map to
/// 0), which can only make the order less compact, never invalid.
fn morton(x: f64, y: f64) -> u32 {
    spread_bits(x as u16) | (spread_bits(y as u16) << 1)
}

impl PreparedFrame {
    /// Prepares every `stride`-th foreground pixel of `mask`, in
    /// scanline order. `stride` must be positive; an empty mask yields
    /// an empty frame.
    pub fn from_mask(mask: &Mask, stride: usize) -> PreparedFrame {
        Self::from_points(
            mask.foreground_pixels()
                .step_by(stride)
                .map(|(x, y)| Point2::new(x as f64, y as f64)),
        )
    }

    /// Prepares an explicit point sequence (kept in iteration order).
    pub fn from_points(points: impl IntoIterator<Item = Point2>) -> PreparedFrame {
        let mut frame = PreparedFrame {
            xs: Vec::new(),
            ys: Vec::new(),
            walk_xs: Vec::new(),
            walk_ys: Vec::new(),
            bounds: Vec::new(),
            slots: Vec::new(),
            keys: Vec::new(),
        };
        frame.rebuild_from_points(points);
        frame
    }

    /// Rebuilds this frame in place from `mask`, reusing the existing
    /// storage. Value-identical to replacing it with
    /// [`PreparedFrame::from_mask`]; with warmed buffers of sufficient
    /// capacity the rebuild performs no heap allocation.
    pub fn rebuild_from_mask(&mut self, mask: &Mask, stride: usize) {
        self.rebuild_from_points(
            mask.foreground_pixels()
                .step_by(stride)
                .map(|(x, y)| Point2::new(x as f64, y as f64)),
        );
    }

    /// In-place twin of [`PreparedFrame::from_points`].
    ///
    /// # Panics
    ///
    /// Panics when the sequence holds `u32::MAX` points or more.
    pub fn rebuild_from_points(&mut self, points: impl IntoIterator<Item = Point2>) {
        self.xs.clear();
        self.ys.clear();
        for p in points {
            self.xs.push(p.x);
            self.ys.push(p.y);
        }
        let len = self.xs.len();
        assert!(len < u32::MAX as usize, "{len} points overflow a u32 slot");
        let PreparedFrame {
            xs,
            ys,
            walk_xs,
            walk_ys,
            bounds,
            slots,
            keys,
        } = self;
        keys.clear();
        keys.extend(
            xs.iter()
                .zip(ys.iter())
                .enumerate()
                .map(|(i, (&x, &y))| (u64::from(morton(x, y)) << 32) | i as u64),
        );
        // The raster index in the low half makes every key distinct, so
        // the unstable sort is deterministic.
        keys.sort_unstable();
        walk_xs.clear();
        walk_ys.clear();
        slots.clear();
        slots.resize(len, 0);
        for (slot, &key) in keys.iter().enumerate() {
            let i = key as u32 as usize;
            walk_xs.push(xs[i]);
            walk_ys.push(ys[i]);
            slots[i] = slot as u32;
        }
        if len > 0 {
            let padded = len.next_multiple_of(CLUSTER);
            let (last_x, last_y) = (walk_xs[len - 1], walk_ys[len - 1]);
            walk_xs.resize(padded, last_x);
            walk_ys.resize(padded, last_y);
        }
        bounds.clear();
        bounds.extend(
            walk_xs
                .chunks_exact(CLUSTER)
                .zip(walk_ys.chunks_exact(CLUSTER))
                .map(|(cx, cy)| {
                    let mut b = ClusterBounds {
                        min_x: cx[0],
                        min_y: cy[0],
                        max_x: cx[0],
                        max_y: cy[0],
                    };
                    for l in 1..CLUSTER {
                        b.min_x = b.min_x.min(cx[l]);
                        b.min_y = b.min_y.min(cy[l]);
                        b.max_x = b.max_x.max(cx[l]);
                        b.max_y = b.max_y.max(cy[l]);
                    }
                    b
                }),
        );
    }

    /// Number of real points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// `true` when the frame holds no points.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The `i`-th real point in raster order (the value the source
    /// iterator yielded).
    pub fn point(&self, i: usize) -> Point2 {
        Point2::new(self.xs[i], self.ys[i])
    }

    /// Iterates the real points in raster order.
    pub fn iter(&self) -> impl Iterator<Item = Point2> + '_ {
        self.xs
            .iter()
            .zip(&self.ys)
            .map(|(&x, &y)| Point2::new(x, y))
    }

    /// Number of walk-order clusters, the padded last one included.
    pub fn num_clusters(&self) -> usize {
        self.bounds.len()
    }

    /// Number of walk slots: [`PreparedFrame::num_clusters`] times
    /// [`CLUSTER`], padding included.
    pub fn walk_len(&self) -> usize {
        self.walk_xs.len()
    }

    /// Cluster `c`'s coordinate lanes, walk slots `c * CLUSTER` onward.
    pub fn cluster(&self, c: usize) -> (&[f64; CLUSTER], &[f64; CLUSTER]) {
        let s = c * CLUSTER;
        (
            self.walk_xs[s..s + CLUSTER]
                .try_into()
                .expect("cluster width"),
            self.walk_ys[s..s + CLUSTER]
                .try_into()
                .expect("cluster width"),
        )
    }

    /// Bounding box of cluster `c`'s lanes.
    pub fn cluster_bounds(&self, c: usize) -> ClusterBounds {
        self.bounds[c]
    }

    /// The walk slot of every raster point: `slots()[i]` holds raster
    /// point `i`. A permutation of `0..len`.
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_with(points: &[(usize, usize)]) -> Mask {
        let mut m = Mask::new(16, 16);
        for &(x, y) in points {
            m.set(x, y, true);
        }
        m
    }

    /// Walk slot `s`'s coordinates.
    fn walk_point(f: &PreparedFrame, s: usize) -> (f64, f64) {
        let (xs, ys) = f.cluster(s / CLUSTER);
        (xs[s % CLUSTER], ys[s % CLUSTER])
    }

    #[test]
    fn empty_mask_yields_empty_frame() {
        let f = PreparedFrame::from_mask(&Mask::new(8, 8), 1);
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert_eq!(f.num_clusters(), 0);
        assert_eq!(f.walk_len(), 0);
        assert!(f.slots().is_empty());
        assert_eq!(f.iter().count(), 0);
    }

    #[test]
    fn points_survive_in_scanline_order() {
        let m = mask_with(&[(3, 0), (1, 2), (5, 2), (0, 7)]);
        let f = PreparedFrame::from_mask(&m, 1);
        let got: Vec<(f64, f64)> = f.iter().map(|p| (p.x, p.y)).collect();
        assert_eq!(got, vec![(3.0, 0.0), (1.0, 2.0), (5.0, 2.0), (0.0, 7.0)]);
        for (i, &(x, y)) in got.iter().enumerate() {
            assert_eq!(f.point(i), Point2::new(x, y));
            assert_eq!(walk_point(&f, f.slots()[i] as usize), (x, y));
        }
    }

    #[test]
    fn padding_duplicates_last_point() {
        let m = mask_with(&[(3, 0), (1, 2), (5, 2)]);
        let f = PreparedFrame::from_mask(&m, 1);
        assert_eq!(f.len(), 3);
        assert_eq!(f.num_clusters(), 1);
        assert_eq!(f.walk_len(), CLUSTER);
        let last = walk_point(&f, 2);
        for s in 3..CLUSTER {
            assert_eq!(walk_point(&f, s), last);
        }
    }

    #[test]
    fn walk_order_follows_the_morton_key() {
        // A 4×4 block in raster order walks as four 2×2 quads.
        let pixels: Vec<(usize, usize)> = (0..16).map(|i| (i % 4, i / 4)).collect();
        let f = PreparedFrame::from_mask(&mask_with(&pixels), 1);
        let walk: Vec<(f64, f64)> = (0..16).map(|s| walk_point(&f, s)).collect();
        let quads = [(0, 0), (2, 0), (0, 2), (2, 2)];
        let expected: Vec<(f64, f64)> = quads
            .iter()
            .flat_map(|&(qx, qy)| {
                [(0, 0), (1, 0), (0, 1), (1, 1)]
                    .map(|(dx, dy)| ((qx + dx) as f64, (qy + dy) as f64))
            })
            .collect();
        assert_eq!(walk, expected);
    }

    #[test]
    fn rebuild_matches_fresh_build_across_reuse() {
        // One frame rebuilt for a sequence of differently-shaped masks
        // must equal a fresh build every time (the cross-frame reuse
        // pattern), including the shrink-to-empty and regrow cases.
        let mut reused = PreparedFrame::from_mask(&Mask::new(4, 4), 1);
        for (pixels, stride) in [
            (vec![(3usize, 0usize), (1, 2), (5, 2), (0, 7), (7, 7)], 1),
            (vec![(0, 0)], 1),
            (vec![], 1),
            ((0..30).map(|i| (i % 9, i / 9)).collect::<Vec<_>>(), 2),
        ] {
            let m = mask_with(&pixels);
            reused.rebuild_from_mask(&m, stride);
            assert_eq!(reused, PreparedFrame::from_mask(&m, stride));
        }
    }

    #[test]
    fn cluster_bounds_cover_their_points() {
        let pts: Vec<Point2> = (0..19)
            .map(|i| Point2::new((i * 3 % 11) as f64, (i * 7 % 5) as f64))
            .collect();
        let f = PreparedFrame::from_points(pts.clone());
        assert_eq!(f.len(), 19);
        assert_eq!(f.num_clusters(), 2);
        for c in 0..f.num_clusters() {
            let b = f.cluster_bounds(c);
            // Padding must not widen the box: every lane, dead ones
            // included, stays inside.
            let (xs, ys) = f.cluster(c);
            for l in 0..CLUSTER {
                assert!(xs[l] >= b.min_x && xs[l] <= b.max_x);
                assert!(ys[l] >= b.min_y && ys[l] <= b.max_y);
            }
        }
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(walk_point(&f, f.slots()[i] as usize), (p.x, p.y));
        }
    }

    #[test]
    fn stride_subsamples_like_step_by() {
        let m = mask_with(&[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]);
        let f = PreparedFrame::from_mask(&m, 2);
        let got: Vec<f64> = f.iter().map(|p| p.x).collect();
        assert_eq!(got, vec![0.0, 2.0, 4.0]);
    }
}
