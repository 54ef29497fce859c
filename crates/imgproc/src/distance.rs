//! Chamfer distance transform.
//!
//! A [`DistanceField`] maps every pixel to its approximate distance from
//! the nearest foreground pixel of a mask. The GA builds one per
//! silhouette and reads it in two places: the pose problem's validity
//! test (do a candidate's stick axes lie within a stick thickness of the
//! silhouette?) and the fitness's coverage penalty (how far outside the
//! silhouette do its sticks run?). Eq. 3 itself measures pixel-to-stick
//! distances directly and does not use it. The 3-4 chamfer metric
//! approximates Euclidean distance to within ~8% and is computed in two
//! raster passes over the image.

use crate::geometry::Point2;
use crate::mask::Mask;

/// A per-pixel map of approximate distances (in pixels) to the nearest
/// foreground pixel of the source mask.
#[derive(Debug, Clone)]
pub struct DistanceField {
    width: usize,
    height: usize,
    /// Scaled chamfer distances; divide by [`CHAMFER_SCALE`] for pixels.
    data: Vec<u32>,
}

/// The 3-4 chamfer weights: 3 per axial step, 4 per diagonal step. All
/// stored distances are in units of `1/CHAMFER_SCALE` pixels.
pub const CHAMFER_SCALE: u32 = 3;

/// Sentinel for "no foreground anywhere" (blank source mask).
const INF: u32 = u32::MAX / 2;

/// Reusable backing storage for [`DistanceField::build_into`].
///
/// The transform allocates one `u32` per pixel; rebuilding a field for
/// every frame of every session makes that a steady-state allocation.
/// A scratch handed back via [`DistanceField::recycle`] (or threaded
/// through `build_into` directly) keeps one buffer alive across frames
/// — and across pooled serve sessions — so steady-state rebuilds are
/// allocation-free once the capacity has been reached.
#[derive(Debug, Clone, Default)]
pub struct DistanceScratch {
    data: Vec<u32>,
}

impl DistanceField {
    /// Computes the chamfer distance transform of `mask`: distance from
    /// each pixel to the nearest **foreground** pixel.
    ///
    /// A blank mask yields a field that reports [`f64::INFINITY`]
    /// everywhere.
    pub fn new(mask: &Mask) -> Self {
        Self::build_into(mask, &mut DistanceScratch::default())
    }

    /// Computes the transform reusing the scratch's backing buffer.
    ///
    /// Value-identical to [`DistanceField::new`] (property-tested): the
    /// scratch only donates capacity, every element is rewritten before
    /// it is read. Return the field's storage with
    /// [`DistanceField::recycle`] to complete the reuse cycle.
    pub fn build_into(mask: &Mask, scratch: &mut DistanceScratch) -> Self {
        let (w, h) = mask.dims();
        let mut d = std::mem::take(&mut scratch.data);
        d.clear();
        d.resize(w * h, INF);
        for (x, y) in mask.foreground_pixels() {
            d[y * w + x] = 0;
        }
        if w == 0 || h == 0 {
            return DistanceField {
                width: w,
                height: h,
                data: d,
            };
        }

        // Forward pass: top-left to bottom-right. Each row first takes
        // the finished row above, then carries left to right.
        carry_right(&mut d[..w]);
        for y in 1..h {
            let (done, rest) = d.split_at_mut(y * w);
            let row = &mut rest[..w];
            fold_neighbour_row(row, &done[(y - 1) * w..]);
            carry_right(row);
        }
        // Backward pass: bottom-right to top-left, mirrored.
        carry_left(&mut d[(h - 1) * w..]);
        for y in (0..h - 1).rev() {
            let (rest, done) = d.split_at_mut((y + 1) * w);
            let row = &mut rest[y * w..];
            fold_neighbour_row(row, &done[..w]);
            carry_left(row);
        }

        DistanceField {
            width: w,
            height: h,
            data: d,
        }
    }

    /// Rebuilds this field in place for a new mask, reusing the
    /// existing storage. Equivalent to `*self = DistanceField::new(mask)`
    /// without the allocation.
    pub fn rebuild(&mut self, mask: &Mask) {
        let mut scratch = DistanceScratch {
            data: std::mem::take(&mut self.data),
        };
        *self = DistanceField::build_into(mask, &mut scratch);
    }

    /// Returns the field's backing buffer to a scratch for reuse by a
    /// later [`DistanceField::build_into`].
    pub fn recycle(self, scratch: &mut DistanceScratch) {
        scratch.data = self.data;
    }

    /// Field width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Field height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Approximate distance in pixels from `(x, y)` to the nearest
    /// foreground pixel. Infinity when the source mask was blank.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn distance(&self, x: usize, y: usize) -> f64 {
        assert!(
            x < self.width && y < self.height,
            "({x}, {y}) out of bounds for {}x{} field",
            self.width,
            self.height
        );
        let raw = self.data[y * self.width + x];
        if raw >= INF {
            f64::INFINITY
        } else {
            raw as f64 / CHAMFER_SCALE as f64
        }
    }

    /// The pixel `(x, y)` that `p` rounds to, each coordinate rounded
    /// half away from zero as [`f64::round`] rounds it, or `None` when
    /// that pixel is off the field (NaN included). Exact, without the
    /// two libm calls: a coordinate rounds into `0..n` exactly when it
    /// lies in `(−0.5, n − 0.5)`, and there it rounds to its truncation,
    /// plus one when the fraction is at least ½.
    #[inline]
    pub fn pixel_at(&self, p: Point2) -> Option<(usize, usize)> {
        Some((
            round_index(p.x, self.width)?,
            round_index(p.y, self.height)?,
        ))
    }

    /// Largest finite distance in the field, or `None` when the source was
    /// blank.
    pub fn max_distance(&self) -> Option<f64> {
        let m = *self.data.iter().max()?;
        if m >= INF {
            None
        } else {
            Some(m as f64 / CHAMFER_SCALE as f64)
        }
    }

    /// The stored values, row-major with [`DistanceField::width`]
    /// values per row. Compare one against a
    /// [`DistanceField::raw_limit`] to test a distance bound without
    /// converting it to `f64`.
    pub fn raw_values(&self) -> &[u32] {
        &self.data
    }

    /// The exclusive bound on stored values that lie within
    /// `max_distance`: `self.distance(x, y) <= max_distance` holds
    /// exactly when the raw value at `(x, y)` is below it. `0` for a
    /// negative or NaN distance, which nothing lies within.
    pub fn raw_limit(max_distance: f64) -> u32 {
        if max_distance == f64::INFINITY {
            // Even the blank-mask sentinel reports `INFINITY <= INFINITY`.
            return INF + 1;
        }
        if max_distance.is_nan() || max_distance < 0.0 {
            return 0;
        }
        let within = |raw: u32| raw as f64 / CHAMFER_SCALE as f64 <= max_distance;
        // Estimate, then settle the boundary under the same f64 division
        // `distance` performs; finite distances are stored below `INF`.
        let estimate = (max_distance * CHAMFER_SCALE as f64).floor();
        let mut limit = estimate.min((INF - 1) as f64) as u32 + 1;
        while limit < INF && within(limit) {
            limit += 1;
        }
        while limit > 0 && !within(limit - 1) {
            limit -= 1;
        }
        limit
    }
}

/// `v.round()` as an index into `0..n`, or `None` when it falls
/// outside. `n − 0.5` is exact for any image-sized `n` (below 2⁵²).
#[inline]
fn round_index(v: f64, n: usize) -> Option<usize> {
    // Written so that NaN, which fails every comparison, falls outside.
    if !(v > -0.5 && v < n as f64 - 0.5) {
        return None;
    }
    // The cast truncates, and takes `(−0.5, 0)` to 0, where `round`
    // takes it too (as −0.0). `v − whole` is exact: Sterbenz for
    // `v ≥ 1`, and `whole = 0` below that.
    let whole = v as usize;
    Some(whole + usize::from(v - whole as f64 >= 0.5))
}

/// Folds the finished neighbouring row `near` (the row above on the
/// forward pass, below on the backward one) into `row`: 3 per straight
/// step, 4 per diagonal. Every pixel reads only `near`, so the loop
/// carries no dependency along the row.
fn fold_neighbour_row(row: &mut [u32], near: &[u32]) {
    let w = row.len();
    let near = &near[..w];
    row[0] = row[0].min(near[0] + 3);
    if w == 1 {
        return;
    }
    row[0] = row[0].min(near[1] + 4);
    row[w - 1] = row[w - 1].min(near[w - 1] + 3).min(near[w - 2] + 4);
    let diagonals = near[..w - 2].iter().zip(&near[2..]);
    for ((v, &straight), (&before, &after)) in
        row[1..w - 1].iter_mut().zip(&near[1..w - 1]).zip(diagonals)
    {
        *v = (*v).min(straight + 3).min(before.min(after) + 4);
    }
}

/// The forward pass's in-row step: each pixel takes its left
/// neighbour's final value plus 3.
fn carry_right(row: &mut [u32]) {
    let mut carry = row[0];
    for v in &mut row[1..] {
        carry = (*v).min(carry + 3);
        *v = carry;
    }
}

/// The backward pass's in-row step: each pixel takes its right
/// neighbour's final value plus 3.
fn carry_left(row: &mut [u32]) {
    let last = row.len() - 1;
    let mut carry = row[last];
    for v in row[..last].iter_mut().rev() {
        carry = (*v).min(carry + 3);
        *v = carry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two 3-4 raster passes written per pixel with bounds tests,
    /// as `build_into` computed them before the row-slice form: the
    /// oracle `build_into` is property-tested against.
    fn reference_transform(mask: &Mask) -> Vec<u32> {
        let (w, h) = mask.dims();
        let mut d = vec![INF; w * h];
        for (x, y) in mask.foreground_pixels() {
            d[y * w + x] = 0;
        }
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                let mut best = d[i];
                if x > 0 {
                    best = best.min(d[i - 1] + 3);
                }
                if y > 0 {
                    best = best.min(d[i - w] + 3);
                    if x > 0 {
                        best = best.min(d[i - w - 1] + 4);
                    }
                    if x + 1 < w {
                        best = best.min(d[i - w + 1] + 4);
                    }
                }
                d[i] = best;
            }
        }
        for y in (0..h).rev() {
            for x in (0..w).rev() {
                let i = y * w + x;
                let mut best = d[i];
                if x + 1 < w {
                    best = best.min(d[i + 1] + 3);
                }
                if y + 1 < h {
                    best = best.min(d[i + w] + 3);
                    if x + 1 < w {
                        best = best.min(d[i + w + 1] + 4);
                    }
                    if x > 0 {
                        best = best.min(d[i + w - 1] + 4);
                    }
                }
                d[i] = best;
            }
        }
        d
    }

    #[test]
    fn zero_on_foreground() {
        let mut m = Mask::new(9, 9);
        m.set(4, 4, true);
        let df = DistanceField::new(&m);
        assert_eq!(df.distance(4, 4), 0.0);
    }

    #[test]
    fn axial_distances_exact() {
        let mut m = Mask::new(11, 11);
        m.set(5, 5, true);
        let df = DistanceField::new(&m);
        assert_eq!(df.distance(8, 5), 3.0);
        assert_eq!(df.distance(5, 1), 4.0);
        assert_eq!(df.distance(0, 5), 5.0);
    }

    #[test]
    fn diagonal_distance_chamfer_approximation() {
        let mut m = Mask::new(11, 11);
        m.set(5, 5, true);
        let df = DistanceField::new(&m);
        // True distance to (8,8) is 3*sqrt(2) = 4.243; chamfer 3-4 gives
        // 3 diagonal steps * 4/3 = 4.0 (within ~8%).
        let d = df.distance(8, 8);
        let true_d = 3.0 * std::f64::consts::SQRT_2;
        assert!(
            (d - true_d).abs() / true_d < 0.09,
            "chamfer {d} vs {true_d}"
        );
    }

    #[test]
    fn chamfer_error_bound_over_grid() {
        // Single seed; every pixel's chamfer distance must be within 8.1%
        // of Euclidean.
        let mut m = Mask::new(41, 41);
        m.set(20, 20, true);
        let df = DistanceField::new(&m);
        for y in 0..41 {
            for x in 0..41 {
                let true_d = (((x as f64 - 20.0).powi(2)) + ((y as f64 - 20.0).powi(2))).sqrt();
                let d = df.distance(x, y);
                if true_d > 0.0 {
                    let rel = (d - true_d).abs() / true_d;
                    assert!(rel < 0.081, "({x},{y}): chamfer {d} vs true {true_d}");
                }
            }
        }
    }

    #[test]
    fn nearest_of_two_seeds_wins() {
        let mut m = Mask::new(20, 5);
        m.set(0, 2, true);
        m.set(19, 2, true);
        let df = DistanceField::new(&m);
        assert_eq!(df.distance(3, 2), 3.0);
        assert_eq!(df.distance(16, 2), 3.0);
        // Midpoint is equidistant.
        assert!((df.distance(9, 2) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn blank_mask_is_infinite() {
        let df = DistanceField::new(&Mask::new(5, 5));
        assert!(df.distance(2, 2).is_infinite());
        assert!(df.max_distance().is_none());
    }

    #[test]
    fn full_mask_is_zero_everywhere() {
        let df = DistanceField::new(&Mask::filled(6, 6, true));
        for y in 0..6 {
            for x in 0..6 {
                assert_eq!(df.distance(x, y), 0.0);
            }
        }
        assert_eq!(df.max_distance(), Some(0.0));
    }

    #[test]
    fn max_distance_corner_case() {
        let mut m = Mask::new(10, 1);
        m.set(0, 0, true);
        let df = DistanceField::new(&m);
        assert_eq!(df.max_distance(), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn distance_out_of_bounds_panics() {
        let mut m = Mask::new(3, 3);
        m.set(1, 1, true);
        DistanceField::new(&m).distance(3, 0);
    }

    #[test]
    fn build_into_reuses_capacity_and_recycle_round_trips() {
        let mut m = Mask::new(16, 12);
        m.set(5, 5, true);
        let mut scratch = DistanceScratch::default();
        let first = DistanceField::build_into(&m, &mut scratch);
        first.recycle(&mut scratch);
        let ptr = scratch.data.as_ptr();
        // Same-or-smaller rebuilds reuse the exact buffer.
        let second = DistanceField::build_into(&m, &mut scratch);
        assert_eq!(second.data.as_ptr(), ptr);
        let reference = DistanceField::new(&m);
        assert_eq!(second.data, reference.data);
        // In-place rebuild for a different mask matches a fresh build.
        let mut third = second;
        let mut m2 = Mask::new(16, 12);
        m2.set(1, 9, true);
        m2.set(14, 2, true);
        third.rebuild(&m2);
        assert_eq!(third.data, DistanceField::new(&m2).data);
    }

    proptest::proptest! {
        /// The scratch-reusing path is value-identical to the allocating
        /// one, across a sequence of differently-sized masks rebuilt
        /// into one shared scratch (the cross-frame / cross-session
        /// reuse pattern).
        #[test]
        fn build_into_matches_new_for_any_mask_sequence(
            clips in proptest::collection::vec(
                (1usize..20, 1usize..20, proptest::collection::vec(proptest::prelude::any::<bool>(), 0..400)),
                1..8,
            )
        ) {
            let mut scratch = DistanceScratch::default();
            for (w, h, bits) in clips {
                let mut m = Mask::new(w, h);
                for (k, set) in bits.iter().enumerate().take(w * h) {
                    if *set {
                        m.set(k % w, k / w, true);
                    }
                }
                let reused = DistanceField::build_into(&m, &mut scratch);
                let fresh = DistanceField::new(&m);
                proptest::prop_assert_eq!(&reused.data, &fresh.data);
                proptest::prop_assert_eq!((reused.width, reused.height), (fresh.width, fresh.height));
                reused.recycle(&mut scratch);
            }
        }
    }

    proptest::proptest! {
        /// The row-slice passes store exactly the per-pixel oracle's
        /// values, on single rows, single columns and rectangles, from
        /// blank through sparse to full masks.
        #[test]
        fn row_slice_passes_match_per_pixel_oracle(
            shape in (0u8..3, 1usize..64, 1usize..64),
            density in 0u32..=100,
            draws in proptest::collection::vec(0u32..100, 64 * 64),
        ) {
            let (w, h) = match shape {
                (0, n, _) => (1, n),
                (1, n, _) => (n, 1),
                (_, a, b) => (a % 40 + 1, b % 40 + 1),
            };
            let mut m = Mask::new(w, h);
            for (k, &draw) in draws.iter().enumerate().take(w * h) {
                if draw < density {
                    m.set(k % w, k / w, true);
                }
            }
            proptest::prop_assert_eq!(DistanceField::new(&m).data, reference_transform(&m));
        }

        /// `raw_limit` agrees with `distance` on every stored value near
        /// the bound, for bounds on and off the 1/3-pixel grid.
        #[test]
        fn raw_limit_matches_distance_comparison(
            thirds in 0u32..2000,
            offset in -1.0f64..1.0,
        ) {
            let bound = thirds as f64 / 3.0 + offset * 1e-9;
            let limit = DistanceField::raw_limit(bound);
            for raw in thirds.saturating_sub(3)..thirds + 3 {
                let field = DistanceField { width: 1, height: 1, data: vec![raw] };
                proptest::prop_assert_eq!(field.distance(0, 0) <= bound, raw < limit);
            }
        }
    }

    #[test]
    fn raw_limit_edge_cases() {
        for bound in [-1.0, f64::NAN, f64::NEG_INFINITY] {
            assert_eq!(DistanceField::raw_limit(bound), 0);
        }
        assert_eq!(DistanceField::raw_limit(0.0), 1);
        assert_eq!(DistanceField::raw_limit(1.0), 4);
        // Finite bounds never admit the blank-mask sentinel; an infinite
        // one admits it, as `INFINITY <= INFINITY` does.
        assert_eq!(DistanceField::raw_limit(f64::MAX), INF);
        assert_eq!(DistanceField::raw_limit(f64::INFINITY), INF + 1);
    }

    #[test]
    fn distance_is_one_lipschitz_along_rows() {
        // The transform must not jump by more than the step cost between
        // adjacent pixels (metric property).
        let mut m = Mask::new(30, 30);
        m.set(3, 7, true);
        m.set(22, 19, true);
        let df = DistanceField::new(&m);
        for y in 0..30 {
            for x in 1..30 {
                let delta = (df.distance(x, y) - df.distance(x - 1, y)).abs();
                assert!(delta <= 1.0 + 1e-9);
            }
        }
    }
}
