//! Eq. 3 — the silhouette-fit cost.
//!
//! ```text
//! F_S = ( Σ_{(x_i, y_j) ∈ silhouette}  min_{l = 0..7}  d((x_i, y_j), S_l) / t_l ) / N
//! ```
//!
//! where `d` is the distance from a silhouette pixel to stick `S_l`,
//! `t_l` is "the average thickness of the area surrounding stick S_l"
//! (known exactly here: the renderer's capsule radius), and `N` is the
//! silhouette's pixel count. A model that threads every stick through
//! the middle of its body part scores ≲ 1; the smaller, the better.
//!
//! The cost of one evaluation is `O(points × 8)`. [`SilhouetteFitness`]
//! optionally subsamples the silhouette with a stride — the estimator is
//! unbiased for ranking purposes and the Fig. 7 ablation/benches measure
//! the speed/accuracy trade-off.
//!
//! Two scalar scans define the value.
//! [`SilhouetteFitness::evaluate_unpruned`] scores every stick at every
//! pixel. [`SilhouetteFitness::evaluate`] is a branch-and-bound over the
//! 8 sticks: each candidate pose's sticks are prepared once per genome
//! (direction, squared length and axis-aligned bounding box hoisted out
//! of the per-pixel loop). Silhouette pixels arrive in scanline order,
//! so the stick nearest one pixel is almost always nearest the next —
//! each pixel scores the previous pixel's winner exactly first, then
//! skips any other stick whose AABB lower bound cannot beat that. The
//! pruned result is **exact** — bit-identical to the exhaustive scan,
//! property-tested in `tests/properties.rs` — because the AABB distance
//! never exceeds the true stick distance and the skip test carries a
//! slack factor that dominates the rounding error of both computations.
//!
//! The GA evaluates through the **lane kernel**
//! ([`SilhouetteFitness::evaluate_lanes`] /
//! [`SilhouetteFitness::evaluate_batch`]); the scalar scans are the
//! oracles it is tested against. The sampled points live in a
//! [`PreparedFrame`] — structure-of-arrays x[]/y[] planes chunked
//! [`LANES`] wide — and the per-pixel min-over-sticks runs across a
//! whole chunk at a time, with the branch-and-bound test lifted to
//! chunk granularity (skip a stick for all 8 lanes when the distance
//! between the chunk's bounding box and the stick's AABB already
//! exceeds the worst lane's current best). Every lane performs exactly
//! the scalar arithmetic on exactly the same values and the final sum
//! is accumulated in original pixel order, so the result is
//! bit-identical to both scalar paths — that equivalence is what the
//! `lanes_*` property tests pin down.

use crate::error::GaError;
use slj_imgproc::geometry::{Point2, Vec2};
use slj_imgproc::lanes::{ChunkBounds, PreparedFrame, LANES};
use slj_imgproc::mask::Mask;
use slj_motion::model::ALL_STICKS;
use slj_motion::{BodyDims, Pose};
use slj_video::Camera;

/// Number of axis samples per stick for the model→silhouette coverage
/// term.
const MODEL_SAMPLES_PER_STICK: usize = 7;

/// Slack on the branch-and-bound skip test: a stick is skipped only
/// when its AABB lower bound exceeds the current best *times this
/// factor* — i.e. the test under-prunes, never over-prunes. The exact
/// and the lower-bound distances are each a handful of f64 operations
/// (relative error ≪ 1e-14), so a 1e-12 margin guarantees a skipped
/// stick could never have won — pruning stays bit-exact.
const PRUNE_SLACK: f64 = 1.0 + 1e-12;

/// Branch-and-bound accounting for one pruned Eq. 3 scoring pass
/// ([`SilhouetteFitness::prune_stats`]): how many stick distances were
/// computed exactly and how many the AABB lower bound skipped.
/// `candidates + pruned == 8 × sample pixels` always. Deterministic by
/// construction — the scan is sequential over scanline-ordered pixels —
/// so it is safe to expose through the observability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneStats {
    /// Sticks scored exactly.
    pub candidates: u64,
    /// Sticks skipped by the lower-bound test.
    pub pruned: u64,
}

/// One stick of a candidate pose, prepared once per genome for the
/// per-pixel distance loop: endpoints, direction and squared length
/// (hoisted out of `Segment::distance_to`), the normalising inverse
/// squared thickness, and the stick's axis-aligned bounding box for the
/// branch-and-bound lower bound.
#[derive(Debug, Clone, Copy)]
struct PreparedStick {
    a: Point2,
    b: Point2,
    /// `b - a`.
    d: Vec2,
    /// `|b - a|²`.
    len_sq: f64,
    /// `1 / t_l²`.
    inv_t_sq: f64,
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

impl PreparedStick {
    fn new(a: Point2, b: Point2, thickness: f64) -> PreparedStick {
        let d = b - a;
        PreparedStick {
            a,
            b,
            d,
            len_sq: d.norm_sq(),
            inv_t_sq: 1.0 / (thickness * thickness),
            min_x: a.x.min(b.x),
            min_y: a.y.min(b.y),
            max_x: a.x.max(b.x),
            max_y: a.y.max(b.y),
        }
    }

    /// Squared distance from `p` to the stick's axis, over t_l² —
    /// the same arithmetic as `Segment::distance_sq_to` with the
    /// direction and squared length precomputed.
    #[inline]
    fn scaled_distance_sq(&self, p: Point2) -> f64 {
        let t = if self.len_sq <= f64::EPSILON {
            0.0
        } else {
            ((p - self.a).dot(self.d) / self.len_sq).clamp(0.0, 1.0)
        };
        let closest = self.a + self.d * t;
        p.distance_sq(closest) * self.inv_t_sq
    }

    /// Lower bound of [`PreparedStick::scaled_distance_sq`]: squared
    /// distance from `p` to the stick's AABB, over t_l². The stick lies
    /// inside its AABB, so this never exceeds the exact value.
    #[inline]
    fn scaled_lower_bound_sq(&self, p: Point2) -> f64 {
        let dx = (self.min_x - p.x).max(p.x - self.max_x).max(0.0);
        let dy = (self.min_y - p.y).max(p.y - self.max_y).max(0.0);
        (dx * dx + dy * dy) * self.inv_t_sq
    }
}

/// A prepared Eq. 3 evaluator for one silhouette.
///
/// Eq. 3 is one-directional — it asks how well the *silhouette* is
/// explained by the model, so a stick poking into empty space costs
/// nothing. The paper compensates with a hard constraint (chromosomes
/// "not in the boundary of the silhouette" are removed outright); real
/// pipeline silhouettes make that constraint too brittle to enforce
/// exactly, so this evaluator adds the soft complement: a penalty for
/// model axis samples that lie outside the silhouette, weighted by
/// `outside_weight` (0 recovers the paper's pure Eq. 3).
#[derive(Debug, Clone)]
pub struct SilhouetteFitness {
    /// Silhouette pixel centres in image space, laid out as
    /// lane-chunked structure-of-arrays planes. The scalar paths read
    /// the same coordinates through [`PreparedFrame::iter`].
    frame: PreparedFrame,
    /// Total silhouette pixel count N (before subsampling).
    total_points: usize,
    /// Per-stick thickness t_l in pixels, paper order.
    thickness_px: [f64; 8],
    /// The camera used to project candidate poses.
    camera: Camera,
    /// Chamfer distance field of the silhouette (for the coverage term).
    distance_field: slj_imgproc::distance::DistanceField,
    /// Weight of the model-outside-silhouette penalty.
    outside_weight: f64,
}

impl SilhouetteFitness {
    /// Prepares an evaluator over every `stride`-th silhouette pixel
    /// (`stride = 1` uses all pixels), with the default coverage-term
    /// weight of 1.
    ///
    /// # Errors
    ///
    /// Returns [`GaError::EmptySilhouette`] when the mask has no
    /// foreground and [`GaError::BadConfig`] when `stride == 0`.
    pub fn new(
        silhouette: &Mask,
        dims: &BodyDims,
        camera: &Camera,
        stride: usize,
    ) -> Result<Self, GaError> {
        Self::with_outside_weight(silhouette, dims, camera, stride, 1.0)
    }

    /// As [`SilhouetteFitness::new`] with an explicit coverage-term
    /// weight (`0.0` = the paper's pure Eq. 3).
    ///
    /// # Errors
    ///
    /// Returns [`GaError::EmptySilhouette`] when the mask has no
    /// foreground and [`GaError::BadConfig`] when `stride == 0` or the
    /// weight is negative/non-finite.
    pub fn with_outside_weight(
        silhouette: &Mask,
        dims: &BodyDims,
        camera: &Camera,
        stride: usize,
        outside_weight: f64,
    ) -> Result<Self, GaError> {
        if stride == 0 {
            return Err(GaError::BadConfig {
                what: "stride must be positive",
            });
        }
        if !outside_weight.is_finite() || outside_weight < 0.0 {
            return Err(GaError::BadConfig {
                what: "outside_weight must be finite and non-negative",
            });
        }
        let total_points = silhouette.count();
        if total_points == 0 {
            return Err(GaError::EmptySilhouette);
        }
        let frame = PreparedFrame::from_mask(silhouette, stride);
        let mut thickness_px = [0.0; 8];
        for s in ALL_STICKS {
            thickness_px[s.index()] = camera.length_to_pixels(dims.thickness(s)).max(1e-6);
        }
        Ok(SilhouetteFitness {
            frame,
            total_points,
            thickness_px,
            camera: *camera,
            distance_field: slj_imgproc::distance::DistanceField::new(silhouette),
            outside_weight,
        })
    }

    /// Rebuilds this evaluator in place for a new silhouette, reusing
    /// the prepared-frame planes and the distance-field storage.
    /// Value-identical to replacing it with a fresh
    /// [`SilhouetteFitness::with_outside_weight`] at the current
    /// `outside_weight` (which is configuration, not per-frame state,
    /// and is kept). On error the evaluator is left unusable for the
    /// rejected silhouette and must not be evaluated until a successful
    /// rebuild.
    ///
    /// # Errors
    ///
    /// Returns [`GaError::EmptySilhouette`] when the mask has no
    /// foreground and [`GaError::BadConfig`] when `stride == 0`.
    pub fn rebuild(
        &mut self,
        silhouette: &Mask,
        dims: &BodyDims,
        camera: &Camera,
        stride: usize,
    ) -> Result<(), GaError> {
        if stride == 0 {
            return Err(GaError::BadConfig {
                what: "stride must be positive",
            });
        }
        let total_points = silhouette.count();
        if total_points == 0 {
            return Err(GaError::EmptySilhouette);
        }
        self.frame.rebuild_from_mask(silhouette, stride);
        for s in ALL_STICKS {
            self.thickness_px[s.index()] = camera.length_to_pixels(dims.thickness(s)).max(1e-6);
        }
        self.total_points = total_points;
        self.camera = *camera;
        self.distance_field.rebuild(silhouette);
        Ok(())
    }

    /// Number of points actually evaluated per call.
    pub fn sample_count(&self) -> usize {
        self.frame.len()
    }

    /// Total silhouette pixel count N.
    pub fn total_points(&self) -> usize {
        self.total_points
    }

    /// The silhouette's chamfer distance field (shared with callers
    /// that need their own silhouette-distance queries, e.g. the pose
    /// problem's validity test — building it twice per frame was
    /// measurable).
    pub fn distance_field(&self) -> &slj_imgproc::distance::DistanceField {
        &self.distance_field
    }

    /// Evaluates the full cost: Eq. 3 plus `outside_weight` times the
    /// coverage penalty. Lower is better.
    ///
    /// Uses the exact branch-and-bound stick pruning (see the module
    /// docs); [`SilhouetteFitness::evaluate_unpruned`] is the
    /// reference scan it is tested against.
    pub fn evaluate(&self, pose: &Pose, dims: &BodyDims) -> f64 {
        self.evaluate_impl(pose, dims, true)
    }

    /// As [`SilhouetteFitness::evaluate`] but scanning all 8 sticks per
    /// pixel without pruning — the reference every faster path is
    /// tested against.
    pub fn evaluate_unpruned(&self, pose: &Pose, dims: &BodyDims) -> f64 {
        self.evaluate_impl(pose, dims, false)
    }

    fn evaluate_impl(&self, pose: &Pose, dims: &BodyDims, prune: bool) -> f64 {
        let sticks = self.project(pose, dims);
        let eq3 = self.eq3_from_sticks(&sticks, prune);
        if self.outside_weight == 0.0 {
            eq3
        } else {
            eq3 + self.outside_weight * self.outside_penalty_from_sticks(&sticks)
        }
    }

    /// Evaluates the full cost via the lane kernel: chunked
    /// structure-of-arrays Eq. 3 with chunk-granular branch-and-bound.
    /// Bit-identical to [`SilhouetteFitness::evaluate`] and
    /// [`SilhouetteFitness::evaluate_unpruned`] (property-tested).
    pub fn evaluate_lanes(&self, pose: &Pose, dims: &BodyDims) -> f64 {
        let sticks = self.project(pose, dims);
        let eq3 = lanes_eq3_sum(&self.frame, &sticks) / self.frame.len() as f64;
        if self.outside_weight == 0.0 {
            eq3
        } else {
            eq3 + self.outside_weight * self.outside_penalty_from_sticks(&sticks)
        }
    }

    /// Evaluates a whole batch of poses against the prepared frame in
    /// one pass: every pose is projected up front, then the frame is
    /// walked chunk-outer / genome-inner so each chunk's coordinates
    /// stay hot across the population, and the per-chunk prune hints in
    /// `scratch` are shared across genomes (and across calls — hints
    /// only steer which redundant sticks get bound-tested first, never
    /// the returned values). `out[i]` receives exactly what
    /// [`SilhouetteFitness::evaluate`] returns for `poses[i]`.
    ///
    /// With a warmed `scratch`, the call performs no heap allocation
    /// (asserted by `tests/zero_alloc.rs`).
    ///
    /// # Panics
    ///
    /// Panics when `poses` and `out` differ in length.
    pub fn evaluate_batch(
        &self,
        poses: &[Pose],
        dims: &BodyDims,
        out: &mut [f64],
        scratch: &mut BatchScratch,
    ) {
        assert_eq!(poses.len(), out.len(), "evaluate_batch length mismatch");
        scratch.sticks.clear();
        scratch.sticks.reserve(poses.len());
        for pose in poses {
            scratch.sticks.push(self.project(pose, dims));
        }
        if scratch.hints.len() != self.frame.num_chunks() {
            scratch.hints.clear();
            scratch.hints.resize(self.frame.num_chunks(), 0);
        }
        out.fill(0.0);
        lanes_eq3_batch(&self.frame, &scratch.sticks, &mut scratch.hints, out);
        let n = self.frame.len() as f64;
        for (slot, sticks) in out.iter_mut().zip(&scratch.sticks) {
            *slot /= n;
            if self.outside_weight != 0.0 {
                *slot += self.outside_weight * self.outside_penalty_from_sticks(sticks);
            }
        }
    }

    /// Evaluates the paper's pure Eq. 3 term only.
    pub fn evaluate_eq3(&self, pose: &Pose, dims: &BodyDims) -> f64 {
        let sticks = self.project(pose, dims);
        self.eq3_from_sticks(&sticks, true)
    }

    /// The pure Eq. 3 term via the unpruned reference scan.
    pub fn evaluate_eq3_unpruned(&self, pose: &Pose, dims: &BodyDims) -> f64 {
        let sticks = self.project(pose, dims);
        self.eq3_from_sticks(&sticks, false)
    }

    /// Evaluates the coverage penalty only: the mean, over evenly-spaced
    /// model axis samples, of how far each sample lies outside the
    /// silhouette, in units of its stick's thickness.
    pub fn outside_penalty(&self, pose: &Pose, dims: &BodyDims) -> f64 {
        let sticks = self.project(pose, dims);
        self.outside_penalty_from_sticks(&sticks)
    }

    /// Projects the pose's sticks to image space and prepares them for
    /// the per-pixel loop — once per genome, not once per pixel.
    fn project(&self, pose: &Pose, dims: &BodyDims) -> [PreparedStick; 8] {
        let segs = pose.segments(dims);
        let mut sticks = [PreparedStick::new(Point2::origin(), Point2::origin(), 1.0); 8];
        for (stick, seg) in segs.iter() {
            let s = self.camera.segment_to_image(seg);
            sticks[stick.index()] = PreparedStick::new(s.a, s.b, self.thickness_px[stick.index()]);
        }
        sticks
    }

    fn eq3_from_sticks(&self, sticks: &[PreparedStick; 8], prune: bool) -> f64 {
        let mut total = 0.0;
        // Warm start: silhouette pixels come in scanline order, so the
        // winning stick rarely changes between neighbours. Seeding each
        // pixel with the previous winner only changes *which redundant
        // sticks get evaluated*, never the minimum itself, so the sum
        // stays bit-identical to the exhaustive scan.
        let mut hint = 0usize;
        for p in self.frame.iter() {
            let best_sq = if prune {
                let (b, argmin) = Self::best_scaled_sq_pruned(sticks, p, hint);
                hint = argmin;
                b
            } else {
                Self::best_scaled_sq_exhaustive(sticks, p)
            };
            total += best_sq.sqrt();
        }
        total / self.frame.len() as f64
    }

    /// `min_l d²(p, S_l) / t_l²` by scanning every stick.
    #[inline]
    fn best_scaled_sq_exhaustive(sticks: &[PreparedStick; 8], p: Point2) -> f64 {
        let mut best = f64::INFINITY;
        for s in sticks {
            let v = s.scaled_distance_sq(p);
            if v < best {
                best = v;
            }
        }
        best
    }

    /// The same minimum via branch-and-bound: the `hint` stick (the
    /// previous pixel's winner) is scored exactly first, then every
    /// other stick is skipped when its AABB lower bound cannot beat the
    /// current best. Returns the minimum and its stick index (the next
    /// pixel's hint). Bounds are computed lazily, one stick at a time —
    /// with a good hint the common case is seven cheap bound tests and
    /// zero further exact evaluations.
    #[inline]
    fn best_scaled_sq_pruned(sticks: &[PreparedStick; 8], p: Point2, hint: usize) -> (f64, usize) {
        let mut best = sticks[hint].scaled_distance_sq(p);
        let mut argmin = hint;
        for (i, s) in sticks.iter().enumerate() {
            if i == hint || s.scaled_lower_bound_sq(p) >= best * PRUNE_SLACK {
                continue;
            }
            let v = s.scaled_distance_sq(p);
            if v < best {
                best = v;
                argmin = i;
            }
        }
        (best, argmin)
    }

    /// Branch-and-bound accounting for one scoring pass over the
    /// silhouette with the given pose (see [`PruneStats`]). Runs the
    /// same pruned scan as [`SilhouetteFitness::evaluate`] but with
    /// counters, off the hot path: the observability layer calls this
    /// once per frame on the winning pose, never inside the GA loop.
    pub fn prune_stats(&self, pose: &Pose, dims: &BodyDims) -> PruneStats {
        let sticks = self.project(pose, dims);
        let mut stats = PruneStats::default();
        let mut hint = 0usize;
        for p in self.frame.iter() {
            let mut best = sticks[hint].scaled_distance_sq(p);
            let mut argmin = hint;
            stats.candidates += 1;
            for (i, s) in sticks.iter().enumerate() {
                if i == hint {
                    continue;
                }
                if s.scaled_lower_bound_sq(p) >= best * PRUNE_SLACK {
                    stats.pruned += 1;
                    continue;
                }
                stats.candidates += 1;
                let v = s.scaled_distance_sq(p);
                if v < best {
                    best = v;
                    argmin = i;
                }
            }
            hint = argmin;
        }
        stats
    }

    fn outside_penalty_from_sticks(&self, sticks: &[PreparedStick; 8]) -> f64 {
        let df = &self.distance_field;
        let (w, h) = (df.width(), df.height());
        let mut total = 0.0;
        let mut count = 0usize;
        for (stick, &t) in sticks.iter().zip(&self.thickness_px) {
            let seg = slj_imgproc::geometry::Segment::new(stick.a, stick.b);
            for p in seg.sample_iter(MODEL_SAMPLES_PER_STICK) {
                count += 1;
                let (x, y) = (p.x.round(), p.y.round());
                let d = if x >= 0.0 && y >= 0.0 && (x as usize) < w && (y as usize) < h {
                    df.distance(x as usize, y as usize)
                } else {
                    // Off-image samples are maximally outside.
                    (w + h) as f64
                };
                total += ((d - t).max(0.0) / t).min(20.0);
            }
        }
        total / count.max(1) as f64
    }
}

/// Reusable scratch for [`SilhouetteFitness::evaluate_batch`]: the
/// batch's prepared stick sets plus the per-chunk prune hints shared
/// across genomes. Hints persist across calls on purpose — a hint only
/// decides which stick seeds a chunk's lane minima (work saving), never
/// the returned values, so carrying them between generations is free
/// warm-up.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    sticks: Vec<[PreparedStick; 8]>,
    hints: Vec<u32>,
}

// --- lane kernel -----------------------------------------------------
//
// The kernel processes one LANES-wide chunk of silhouette points per
// iteration. Bit-exactness with the scalar paths rests on three facts:
//
// 1. Each lane performs the exact scalar `scaled_distance_sq` f64
//    sequence on the same coordinates, and a minimum over the same
//    positive values is order-independent — so per-lane minima match
//    the scalar per-pixel minima bit-for-bit.
// 2. The chunk-level skip test only ever under-prunes: the stick-AABB
//    to chunk-bounds distance lower-bounds every lane's point-to-AABB
//    bound, and the test compares it against the *worst* lane's current
//    best (times the same `PRUNE_SLACK` the scalar test uses), so a
//    skipped stick could not have won in any lane.
// 3. f64 addition is order-sensitive, so the final sum is accumulated
//    lane by lane in original pixel order — per-chunk partial sums
//    would round differently.
//
// `#[target_feature]` wrappers recompile the same `#[inline(always)]`
// body for wider ISAs, selected once per walk via
// `is_x86_feature_detected!` (the baseline build targets SSE2, so
// without the runtime dispatch the 8-wide lanes would lower to 2-wide
// vectors). Every tier executes identical IEEE-754 operations —
// vectorised min/max/sqrt are exact — so the dispatch, too, is a pure
// throughput setting.

/// One lane of [`PreparedStick::scaled_distance_sq`]: identical f64
/// operations in identical order, with the degenerate-stick test
/// hoisted (it is uniform across lanes) so the lane loop stays
/// branch-free and vectorises.
#[inline(always)]
fn lane_scaled_distance_sq(s: &PreparedStick, degenerate: bool, px: f64, py: f64) -> f64 {
    let qx = px - s.a.x;
    let qy = py - s.a.y;
    let raw = (qx * s.d.x + qy * s.d.y) / s.len_sq;
    let t = if degenerate { 0.0 } else { raw.clamp(0.0, 1.0) };
    let cx = s.a.x + s.d.x * t;
    let cy = s.a.y + s.d.y * t;
    let dx = px - cx;
    let dy = py - cy;
    (dx * dx + dy * dy) * s.inv_t_sq
}

/// Scores one chunk for one genome: exact min-over-sticks per lane with
/// the branch-and-bound lifted to chunk granularity, square roots taken
/// per lane, and the results accumulated into `total` in original pixel
/// order. Returns the last live lane's winning stick — the next hint.
#[inline(always)]
fn eq3_chunk(
    xs: &[f64; LANES],
    ys: &[f64; LANES],
    bounds: ChunkBounds,
    live: usize,
    sticks: &[PreparedStick; 8],
    hint: u32,
    total: &mut f64,
) -> u32 {
    let mut best = [0.0f64; LANES];
    let mut arg = [hint; LANES];
    {
        // The hint stick seeds every lane's current best exactly,
        // mirroring the scalar warm start.
        let s = &sticks[hint as usize];
        let degenerate = s.len_sq <= f64::EPSILON;
        for l in 0..LANES {
            best[l] = lane_scaled_distance_sq(s, degenerate, xs[l], ys[l]);
        }
    }
    // The worst lane's current best bounds the whole chunk: a stick
    // whose box-to-box lower bound cannot beat it cannot win anywhere.
    let mut chunk_ub = best[0];
    for &b in &best[1..] {
        if b > chunk_ub {
            chunk_ub = b;
        }
    }
    for (i, s) in sticks.iter().enumerate() {
        if i as u32 == hint {
            continue;
        }
        let dx = (s.min_x - bounds.max_x)
            .max(bounds.min_x - s.max_x)
            .max(0.0);
        let dy = (s.min_y - bounds.max_y)
            .max(bounds.min_y - s.max_y)
            .max(0.0);
        if (dx * dx + dy * dy) * s.inv_t_sq >= chunk_ub * PRUNE_SLACK {
            continue;
        }
        let degenerate = s.len_sq <= f64::EPSILON;
        for l in 0..LANES {
            let v = lane_scaled_distance_sq(s, degenerate, xs[l], ys[l]);
            if v < best[l] {
                best[l] = v;
                arg[l] = i as u32;
            }
        }
        chunk_ub = best[0];
        for &b in &best[1..] {
            if b > chunk_ub {
                chunk_ub = b;
            }
        }
    }
    let mut roots = [0.0f64; LANES];
    for l in 0..LANES {
        roots[l] = best[l].sqrt();
    }
    // In-order accumulation over the live lanes only — dead tail lanes
    // duplicate a real point and must not be counted.
    for &r in &roots[..live] {
        *total += r;
    }
    arg[live - 1]
}

/// Raw Eq. 3 sum (before `/ N`) for one genome over the whole frame,
/// carrying the chunk hint forward like the scalar scanline warm start.
#[inline(always)]
fn lanes_eq3_sum_impl(frame: &PreparedFrame, sticks: &[PreparedStick; 8]) -> f64 {
    let mut total = 0.0;
    let mut hint = 0u32;
    for c in 0..frame.num_chunks() {
        let (xs, ys) = frame.chunk(c);
        hint = eq3_chunk(
            xs,
            ys,
            frame.chunk_bounds(c),
            frame.chunk_live(c),
            sticks,
            hint,
            &mut total,
        );
    }
    total
}

/// Raw Eq. 3 sums for a whole batch, genome-outer with a persistent
/// per-chunk hint table: `hints[c]` — the previous genome's winner at
/// chunk `c` — warm-starts the next genome there (converged
/// populations are full of near-identical genomes, so the carried hint
/// is usually right). Genome-outer keeps the tiny frame SoA and the
/// hint table hot in L1 and loads each genome's stick set exactly
/// once; the walk order cannot affect the returned sums because the
/// hint only picks which stick seeds the (exact, conservative)
/// branch-and-bound — the per-lane minimum is the same whatever seeds
/// it.
#[allow(clippy::needless_range_loop)] // `c` indexes the frame's chunk tables and `hints` in lockstep
#[inline(always)]
fn lanes_eq3_batch_impl(
    frame: &PreparedFrame,
    sticks: &[[PreparedStick; 8]],
    hints: &mut [u32],
    totals: &mut [f64],
) {
    for (genome, total) in sticks.iter().zip(totals.iter_mut()) {
        for c in 0..frame.num_chunks() {
            let (xs, ys) = frame.chunk(c);
            hints[c] = eq3_chunk(
                xs,
                ys,
                frame.chunk_bounds(c),
                frame.chunk_live(c),
                genome,
                hints[c],
                total,
            );
        }
    }
}

/// Hand-vectorised x86-64 tiers. The autovectoriser reliably refuses
/// the generic chunk kernel (the conditional best/arg update compiles
/// to per-lane compare-and-branch), so the AVX-512 and AVX2 tiers spell
/// the same computation out in intrinsics: identical IEEE-754
/// operations per lane — sub/mul/add/div/min/max/sqrt are all
/// correctly rounded, the compare-and-blend reproduces the scalar
/// strict-less update, and no FMA contraction is introduced — so every
/// lane matches the scalar kernel bitwise (asserted by a unit test that
/// calls every tier the host supports, and by the property tests, which
/// run on whatever tier the host dispatches to).
// The range loops index several chunk tables in lockstep, and the chunk
// kernels take the full per-genome argument spread on purpose — hot-path
// shape over style lints.
#[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// A genome's stick AABBs transposed stick-per-lane, built once per
    /// frame walk: eight sticks fill one 8-wide register, so a chunk's
    /// seven scalar (and branchy) box-to-box bound tests collapse into
    /// a single vector evaluation.
    struct StickBounds {
        min_x: [f64; 8],
        max_x: [f64; 8],
        min_y: [f64; 8],
        max_y: [f64; 8],
        inv_t_sq: [f64; 8],
    }

    impl StickBounds {
        fn new(sticks: &[PreparedStick; 8]) -> Self {
            let mut b = StickBounds {
                min_x: [0.0; 8],
                max_x: [0.0; 8],
                min_y: [0.0; 8],
                max_y: [0.0; 8],
                inv_t_sq: [0.0; 8],
            };
            for (i, s) in sticks.iter().enumerate() {
                b.min_x[i] = s.min_x;
                b.max_x[i] = s.max_x;
                b.min_y[i] = s.min_y;
                b.max_y[i] = s.max_y;
                b.inv_t_sq[i] = s.inv_t_sq;
            }
            b
        }
    }

    /// All eight sticks' box-to-box lower bounds against one chunk in a
    /// single 8-lane pass, returned with the survivor bitmask of lanes
    /// beating `threshold` — the same per-stick arithmetic and the same
    /// `>= chunk_ub * PRUNE_SLACK → skip` predicate as the scalar prune
    /// test, evaluated for all sticks at once. In the common case the
    /// hint stick already prunes everything and the mask comes back
    /// empty, so the per-stick loop never runs. Bounds only steer the
    /// conservative prune, so they cannot affect the returned sums.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn stick_survivors_avx512(
        sb: &StickBounds,
        bounds: ChunkBounds,
        threshold: f64,
        lbs: &mut [f64; 8],
    ) -> u32 {
        let zero = _mm512_setzero_pd();
        let bdx = _mm512_max_pd(
            _mm512_max_pd(
                _mm512_sub_pd(
                    _mm512_loadu_pd(sb.min_x.as_ptr()),
                    _mm512_set1_pd(bounds.max_x),
                ),
                _mm512_sub_pd(
                    _mm512_set1_pd(bounds.min_x),
                    _mm512_loadu_pd(sb.max_x.as_ptr()),
                ),
            ),
            zero,
        );
        let bdy = _mm512_max_pd(
            _mm512_max_pd(
                _mm512_sub_pd(
                    _mm512_loadu_pd(sb.min_y.as_ptr()),
                    _mm512_set1_pd(bounds.max_y),
                ),
                _mm512_sub_pd(
                    _mm512_set1_pd(bounds.min_y),
                    _mm512_loadu_pd(sb.max_y.as_ptr()),
                ),
            ),
            zero,
        );
        let lb = _mm512_mul_pd(
            _mm512_add_pd(_mm512_mul_pd(bdx, bdx), _mm512_mul_pd(bdy, bdy)),
            _mm512_loadu_pd(sb.inv_t_sq.as_ptr()),
        );
        let mask = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(lb, _mm512_set1_pd(threshold));
        if mask != 0 {
            _mm512_storeu_pd(lbs.as_mut_ptr(), lb);
        }
        u32::from(mask)
    }

    /// [`stick_survivors_avx512`] on the AVX2 tier: two 4-wide halves,
    /// survivor bits via `movmsk` on the compare result.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn stick_survivors_avx2(
        sb: &StickBounds,
        bounds: ChunkBounds,
        threshold: f64,
        lbs: &mut [f64; 8],
    ) -> u32 {
        let mut mask = 0u32;
        for half in 0..2 {
            let o = half * 4;
            let zero = _mm256_setzero_pd();
            let bdx = _mm256_max_pd(
                _mm256_max_pd(
                    _mm256_sub_pd(
                        _mm256_loadu_pd(sb.min_x.as_ptr().add(o)),
                        _mm256_set1_pd(bounds.max_x),
                    ),
                    _mm256_sub_pd(
                        _mm256_set1_pd(bounds.min_x),
                        _mm256_loadu_pd(sb.max_x.as_ptr().add(o)),
                    ),
                ),
                zero,
            );
            let bdy = _mm256_max_pd(
                _mm256_max_pd(
                    _mm256_sub_pd(
                        _mm256_loadu_pd(sb.min_y.as_ptr().add(o)),
                        _mm256_set1_pd(bounds.max_y),
                    ),
                    _mm256_sub_pd(
                        _mm256_set1_pd(bounds.min_y),
                        _mm256_loadu_pd(sb.max_y.as_ptr().add(o)),
                    ),
                ),
                zero,
            );
            let lb = _mm256_mul_pd(
                _mm256_add_pd(_mm256_mul_pd(bdx, bdx), _mm256_mul_pd(bdy, bdy)),
                _mm256_loadu_pd(sb.inv_t_sq.as_ptr().add(o)),
            );
            let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(lb, _mm256_set1_pd(threshold));
            let half_mask = _mm256_movemask_pd(lt) as u32;
            if half_mask != 0 {
                _mm256_storeu_pd(lbs.as_mut_ptr().add(o), lb);
            }
            mask |= half_mask << o;
        }
        mask
    }

    /// [`lane_scaled_distance_sq`] over one 8-wide register.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn dist_avx512(s: &PreparedStick, px: __m512d, py: __m512d) -> __m512d {
        let ax = _mm512_set1_pd(s.a.x);
        let ay = _mm512_set1_pd(s.a.y);
        let dx = _mm512_set1_pd(s.d.x);
        let dy = _mm512_set1_pd(s.d.y);
        let qx = _mm512_sub_pd(px, ax);
        let qy = _mm512_sub_pd(py, ay);
        let num = _mm512_add_pd(_mm512_mul_pd(qx, dx), _mm512_mul_pd(qy, dy));
        let raw = _mm512_div_pd(num, _mm512_set1_pd(s.len_sq));
        // `clamp(0.0, 1.0)` on a guaranteed-finite value: max then min.
        let clamped = _mm512_min_pd(_mm512_max_pd(raw, _mm512_setzero_pd()), _mm512_set1_pd(1.0));
        let t = if s.len_sq <= f64::EPSILON {
            _mm512_setzero_pd()
        } else {
            clamped
        };
        let cx = _mm512_add_pd(ax, _mm512_mul_pd(dx, t));
        let cy = _mm512_add_pd(ay, _mm512_mul_pd(dy, t));
        let ddx = _mm512_sub_pd(px, cx);
        let ddy = _mm512_sub_pd(py, cy);
        let dsq = _mm512_add_pd(_mm512_mul_pd(ddx, ddx), _mm512_mul_pd(ddy, ddy));
        _mm512_mul_pd(dsq, _mm512_set1_pd(s.inv_t_sq))
    }

    /// [`eq3_chunk`] on the AVX-512 tier: best/arg kept in registers,
    /// the strict-less update as mask + blend.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn eq3_chunk_avx512(
        xs: &[f64; LANES],
        ys: &[f64; LANES],
        bounds: ChunkBounds,
        live: usize,
        sticks: &[PreparedStick; 8],
        sb: &StickBounds,
        hint: u32,
        total: &mut f64,
    ) -> u32 {
        let px = _mm512_loadu_pd(xs.as_ptr());
        let py = _mm512_loadu_pd(ys.as_ptr());
        let mut best = dist_avx512(&sticks[hint as usize], px, py);
        let mut arg = _mm512_set1_pd(hint as f64);
        // Distances are non-negative, so the lane maximum is
        // order-independent and matches the generic reduction exactly.
        let mut chunk_ub = _mm512_reduce_max_pd(best);
        let mut lbs = [0.0f64; 8];
        let mut pending =
            stick_survivors_avx512(sb, bounds, chunk_ub * PRUNE_SLACK, &mut lbs) & !(1u32 << hint);
        while pending != 0 {
            let i = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            // Re-test against the refreshed upper bound — an earlier
            // survivor's exact score may have pruned this one since.
            if lbs[i] >= chunk_ub * PRUNE_SLACK {
                continue;
            }
            let v = dist_avx512(&sticks[i], px, py);
            let smaller = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(v, best);
            best = _mm512_mask_blend_pd(smaller, best, v);
            arg = _mm512_mask_blend_pd(smaller, arg, _mm512_set1_pd(i as f64));
            chunk_ub = _mm512_reduce_max_pd(best);
        }
        let mut roots = [0.0f64; LANES];
        _mm512_storeu_pd(roots.as_mut_ptr(), _mm512_sqrt_pd(best));
        for &r in &roots[..live] {
            *total += r;
        }
        // Stick indices 0..7 are exact in f64, so blending the arg
        // lanes as doubles loses nothing.
        let mut args = [0.0f64; LANES];
        _mm512_storeu_pd(args.as_mut_ptr(), arg);
        args[live - 1] as u32
    }

    /// [`lane_scaled_distance_sq`] over one 4-wide register.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn dist_avx2(s: &PreparedStick, px: __m256d, py: __m256d) -> __m256d {
        let ax = _mm256_set1_pd(s.a.x);
        let ay = _mm256_set1_pd(s.a.y);
        let dx = _mm256_set1_pd(s.d.x);
        let dy = _mm256_set1_pd(s.d.y);
        let qx = _mm256_sub_pd(px, ax);
        let qy = _mm256_sub_pd(py, ay);
        let num = _mm256_add_pd(_mm256_mul_pd(qx, dx), _mm256_mul_pd(qy, dy));
        let raw = _mm256_div_pd(num, _mm256_set1_pd(s.len_sq));
        let clamped = _mm256_min_pd(_mm256_max_pd(raw, _mm256_setzero_pd()), _mm256_set1_pd(1.0));
        let t = if s.len_sq <= f64::EPSILON {
            _mm256_setzero_pd()
        } else {
            clamped
        };
        let cx = _mm256_add_pd(ax, _mm256_mul_pd(dx, t));
        let cy = _mm256_add_pd(ay, _mm256_mul_pd(dy, t));
        let ddx = _mm256_sub_pd(px, cx);
        let ddy = _mm256_sub_pd(py, cy);
        let dsq = _mm256_add_pd(_mm256_mul_pd(ddx, ddx), _mm256_mul_pd(ddy, ddy));
        _mm256_mul_pd(dsq, _mm256_set1_pd(s.inv_t_sq))
    }

    /// Lane maximum across an 8-wide pair of 4-wide registers.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn hmax_avx2(a: __m256d, b: __m256d) -> f64 {
        let m = _mm256_max_pd(a, b);
        let lo = _mm256_castpd256_pd128(m);
        let hi = _mm256_extractf128_pd::<1>(m);
        let m2 = _mm_max_pd(lo, hi);
        let s = _mm_max_sd(m2, _mm_unpackhi_pd(m2, m2));
        _mm_cvtsd_f64(s)
    }

    /// [`eq3_chunk`] on the AVX2 tier: the 8 lanes as two 4-wide
    /// halves, strict-less update as compare + blendv (the compare's
    /// all-ones lanes drive the blend sign bit).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn eq3_chunk_avx2(
        xs: &[f64; LANES],
        ys: &[f64; LANES],
        bounds: ChunkBounds,
        live: usize,
        sticks: &[PreparedStick; 8],
        sb: &StickBounds,
        hint: u32,
        total: &mut f64,
    ) -> u32 {
        let px0 = _mm256_loadu_pd(xs.as_ptr());
        let px1 = _mm256_loadu_pd(xs.as_ptr().add(4));
        let py0 = _mm256_loadu_pd(ys.as_ptr());
        let py1 = _mm256_loadu_pd(ys.as_ptr().add(4));
        let h = &sticks[hint as usize];
        let mut best0 = dist_avx2(h, px0, py0);
        let mut best1 = dist_avx2(h, px1, py1);
        let mut arg0 = _mm256_set1_pd(hint as f64);
        let mut arg1 = arg0;
        let mut chunk_ub = hmax_avx2(best0, best1);
        let mut lbs = [0.0f64; 8];
        let mut pending =
            stick_survivors_avx2(sb, bounds, chunk_ub * PRUNE_SLACK, &mut lbs) & !(1u32 << hint);
        while pending != 0 {
            let i = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            if lbs[i] >= chunk_ub * PRUNE_SLACK {
                continue;
            }
            let s = &sticks[i];
            let v0 = dist_avx2(s, px0, py0);
            let v1 = dist_avx2(s, px1, py1);
            let idx = _mm256_set1_pd(i as f64);
            let lt0 = _mm256_cmp_pd::<_CMP_LT_OQ>(v0, best0);
            let lt1 = _mm256_cmp_pd::<_CMP_LT_OQ>(v1, best1);
            best0 = _mm256_blendv_pd(best0, v0, lt0);
            best1 = _mm256_blendv_pd(best1, v1, lt1);
            arg0 = _mm256_blendv_pd(arg0, idx, lt0);
            arg1 = _mm256_blendv_pd(arg1, idx, lt1);
            chunk_ub = hmax_avx2(best0, best1);
        }
        let mut roots = [0.0f64; LANES];
        _mm256_storeu_pd(roots.as_mut_ptr(), _mm256_sqrt_pd(best0));
        _mm256_storeu_pd(roots.as_mut_ptr().add(4), _mm256_sqrt_pd(best1));
        for &r in &roots[..live] {
            *total += r;
        }
        let mut args = [0.0f64; LANES];
        _mm256_storeu_pd(args.as_mut_ptr(), arg0);
        _mm256_storeu_pd(args.as_mut_ptr().add(4), arg1);
        args[live - 1] as u32
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn eq3_sum_avx512(frame: &PreparedFrame, sticks: &[PreparedStick; 8]) -> f64 {
        let sb = StickBounds::new(sticks);
        let mut total = 0.0;
        let mut hint = 0u32;
        for c in 0..frame.num_chunks() {
            let (xs, ys) = frame.chunk(c);
            hint = eq3_chunk_avx512(
                xs,
                ys,
                frame.chunk_bounds(c),
                frame.chunk_live(c),
                sticks,
                &sb,
                hint,
                &mut total,
            );
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn eq3_sum_avx2(frame: &PreparedFrame, sticks: &[PreparedStick; 8]) -> f64 {
        let sb = StickBounds::new(sticks);
        let mut total = 0.0;
        let mut hint = 0u32;
        for c in 0..frame.num_chunks() {
            let (xs, ys) = frame.chunk(c);
            hint = eq3_chunk_avx2(
                xs,
                ys,
                frame.chunk_bounds(c),
                frame.chunk_live(c),
                sticks,
                &sb,
                hint,
                &mut total,
            );
        }
        total
    }

    /// One chunk for a *pair* of genomes: the in-order accumulation
    /// that bit-exactness demands is a serial `f64` add chain (~4
    /// cycles per point), so a single genome's walk is latency-bound on
    /// its own running total. Two genomes give the out-of-order core
    /// two independent chains to overlap — nearly doubling throughput —
    /// while each genome's arithmetic stays the exact per-genome
    /// sequence (the pair shares only the chunk's coordinate loads and
    /// the incoming hint, neither of which can affect the sums).
    #[target_feature(enable = "avx512f")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn eq3_chunk_avx512_x2(
        xs: &[f64; LANES],
        ys: &[f64; LANES],
        bounds: ChunkBounds,
        live: usize,
        a: (&[PreparedStick; 8], &StickBounds, &mut f64),
        b: (&[PreparedStick; 8], &StickBounds, &mut f64),
        hint: u32,
    ) -> u32 {
        let px = _mm512_loadu_pd(xs.as_ptr());
        let py = _mm512_loadu_pd(ys.as_ptr());
        let (sticks_a, sb_a, total_a) = a;
        let (sticks_b, sb_b, total_b) = b;
        let mut best_a = dist_avx512(&sticks_a[hint as usize], px, py);
        let mut best_b = dist_avx512(&sticks_b[hint as usize], px, py);
        let mut arg_b = _mm512_set1_pd(hint as f64);
        let mut ub_a = _mm512_reduce_max_pd(best_a);
        let mut ub_b = _mm512_reduce_max_pd(best_b);
        let mut lbs_a = [0.0f64; 8];
        let mut lbs_b = [0.0f64; 8];
        let mut pend_a =
            stick_survivors_avx512(sb_a, bounds, ub_a * PRUNE_SLACK, &mut lbs_a) & !(1u32 << hint);
        let mut pend_b =
            stick_survivors_avx512(sb_b, bounds, ub_b * PRUNE_SLACK, &mut lbs_b) & !(1u32 << hint);
        while pend_a != 0 {
            let i = pend_a.trailing_zeros() as usize;
            pend_a &= pend_a - 1;
            if lbs_a[i] >= ub_a * PRUNE_SLACK {
                continue;
            }
            let v = dist_avx512(&sticks_a[i], px, py);
            let smaller = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(v, best_a);
            best_a = _mm512_mask_blend_pd(smaller, best_a, v);
            ub_a = _mm512_reduce_max_pd(best_a);
        }
        while pend_b != 0 {
            let i = pend_b.trailing_zeros() as usize;
            pend_b &= pend_b - 1;
            if lbs_b[i] >= ub_b * PRUNE_SLACK {
                continue;
            }
            let v = dist_avx512(&sticks_b[i], px, py);
            let smaller = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(v, best_b);
            best_b = _mm512_mask_blend_pd(smaller, best_b, v);
            arg_b = _mm512_mask_blend_pd(smaller, arg_b, _mm512_set1_pd(i as f64));
            ub_b = _mm512_reduce_max_pd(best_b);
        }
        let mut roots_a = [0.0f64; LANES];
        let mut roots_b = [0.0f64; LANES];
        _mm512_storeu_pd(roots_a.as_mut_ptr(), _mm512_sqrt_pd(best_a));
        _mm512_storeu_pd(roots_b.as_mut_ptr(), _mm512_sqrt_pd(best_b));
        // Two independent in-order chains; the hardware interleaves
        // them, each one identical to the scalar scan's order.
        for l in 0..live {
            *total_a += roots_a[l];
            *total_b += roots_b[l];
        }
        let mut args = [0.0f64; LANES];
        _mm512_storeu_pd(args.as_mut_ptr(), arg_b);
        args[live - 1] as u32
    }

    /// [`eq3_chunk_avx512_x2`] generalised to `N` interleaved genomes:
    /// `N` independent accumulation chains for the out-of-order core to
    /// overlap (two f64 add ports at 4-cycle latency saturate around
    /// 4–8 chains), each chain still the exact scalar-order sum.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn eq3_chunk_avx512_xn<const N: usize>(
        xs: &[f64; LANES],
        ys: &[f64; LANES],
        bounds: ChunkBounds,
        live: usize,
        sticks: &[[PreparedStick; 8]],
        sbs: &[StickBounds; N],
        totals: &mut [f64],
        hint: u32,
    ) -> u32 {
        let px = _mm512_loadu_pd(xs.as_ptr());
        let py = _mm512_loadu_pd(ys.as_ptr());
        let mut best = [_mm512_setzero_pd(); N];
        let mut ub = [0.0f64; N];
        for g in 0..N {
            best[g] = dist_avx512(&sticks[g][hint as usize], px, py);
            ub[g] = _mm512_reduce_max_pd(best[g]);
        }
        let mut arg_last = _mm512_set1_pd(hint as f64);
        for g in 0..N {
            let mut lbs = [0.0f64; 8];
            let mut pending =
                stick_survivors_avx512(&sbs[g], bounds, ub[g] * PRUNE_SLACK, &mut lbs)
                    & !(1u32 << hint);
            while pending != 0 {
                let i = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                if lbs[i] >= ub[g] * PRUNE_SLACK {
                    continue;
                }
                let v = dist_avx512(&sticks[g][i], px, py);
                let smaller = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(v, best[g]);
                best[g] = _mm512_mask_blend_pd(smaller, best[g], v);
                if g == N - 1 {
                    arg_last = _mm512_mask_blend_pd(smaller, arg_last, _mm512_set1_pd(i as f64));
                }
                ub[g] = _mm512_reduce_max_pd(best[g]);
            }
        }
        let mut roots = [[0.0f64; LANES]; N];
        for g in 0..N {
            _mm512_storeu_pd(roots[g].as_mut_ptr(), _mm512_sqrt_pd(best[g]));
        }
        // N independent in-order chains; the hardware interleaves them,
        // each one identical to the scalar scan's order.
        for l in 0..live {
            for g in 0..N {
                totals[g] += roots[g][l];
            }
        }
        let mut args = [0.0f64; LANES];
        _mm512_storeu_pd(args.as_mut_ptr(), arg_last);
        args[live - 1] as u32
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn eq3_batch_avx512(
        frame: &PreparedFrame,
        sticks: &[[PreparedStick; 8]],
        hints: &mut [u32],
        totals: &mut [f64],
    ) {
        let mut done = 0usize;
        while sticks.len() - done >= 8 {
            let group = &sticks[done..done + 8];
            let sbs = std::array::from_fn::<_, 8, _>(|g| StickBounds::new(&group[g]));
            for c in 0..frame.num_chunks() {
                let (xs, ys) = frame.chunk(c);
                hints[c] = eq3_chunk_avx512_xn::<8>(
                    xs,
                    ys,
                    frame.chunk_bounds(c),
                    frame.chunk_live(c),
                    group,
                    &sbs,
                    &mut totals[done..done + 8],
                    hints[c],
                );
            }
            done += 8;
        }
        while sticks.len() - done >= 4 {
            let quad = &sticks[done..done + 4];
            let sbs = std::array::from_fn::<_, 4, _>(|g| StickBounds::new(&quad[g]));
            for c in 0..frame.num_chunks() {
                let (xs, ys) = frame.chunk(c);
                hints[c] = eq3_chunk_avx512_xn::<4>(
                    xs,
                    ys,
                    frame.chunk_bounds(c),
                    frame.chunk_live(c),
                    quad,
                    &sbs,
                    &mut totals[done..done + 4],
                    hints[c],
                );
            }
            done += 4;
        }
        if sticks.len() - done >= 2 {
            let pair = &sticks[done..done + 2];
            let sbs = [StickBounds::new(&pair[0]), StickBounds::new(&pair[1])];
            let (t0, t1) = totals[done..done + 2].split_at_mut(1);
            for c in 0..frame.num_chunks() {
                let (xs, ys) = frame.chunk(c);
                hints[c] = eq3_chunk_avx512_x2(
                    xs,
                    ys,
                    frame.chunk_bounds(c),
                    frame.chunk_live(c),
                    (&pair[0], &sbs[0], &mut t0[0]),
                    (&pair[1], &sbs[1], &mut t1[0]),
                    hints[c],
                );
            }
            done += 2;
        }
        // Odd tail: the single-genome walk.
        for (genome, total) in sticks[done..].iter().zip(totals[done..].iter_mut()) {
            let sb = StickBounds::new(genome);
            for c in 0..frame.num_chunks() {
                let (xs, ys) = frame.chunk(c);
                hints[c] = eq3_chunk_avx512(
                    xs,
                    ys,
                    frame.chunk_bounds(c),
                    frame.chunk_live(c),
                    genome,
                    &sb,
                    hints[c],
                    total,
                );
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn eq3_batch_avx2(
        frame: &PreparedFrame,
        sticks: &[[PreparedStick; 8]],
        hints: &mut [u32],
        totals: &mut [f64],
    ) {
        for (genome, total) in sticks.iter().zip(totals.iter_mut()) {
            let sb = StickBounds::new(genome);
            for c in 0..frame.num_chunks() {
                let (xs, ys) = frame.chunk(c);
                hints[c] = eq3_chunk_avx2(
                    xs,
                    ys,
                    frame.chunk_bounds(c),
                    frame.chunk_live(c),
                    genome,
                    &sb,
                    hints[c],
                    total,
                );
            }
        }
    }
}

fn lanes_eq3_sum(frame: &PreparedFrame, sticks: &[PreparedStick; 8]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature was detected at runtime.
            return unsafe { x86::eq3_sum_avx512(frame, sticks) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the feature was detected at runtime.
            return unsafe { x86::eq3_sum_avx2(frame, sticks) };
        }
    }
    lanes_eq3_sum_impl(frame, sticks)
}

fn lanes_eq3_batch(
    frame: &PreparedFrame,
    sticks: &[[PreparedStick; 8]],
    hints: &mut [u32],
    totals: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature was detected at runtime.
            return unsafe { x86::eq3_batch_avx512(frame, sticks, hints, totals) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the feature was detected at runtime.
            return unsafe { x86::eq3_batch_avx2(frame, sticks, hints, totals) };
        }
    }
    lanes_eq3_batch_impl(frame, sticks, hints, totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slj_motion::{Angle, StickKind};
    use slj_video::render::render_silhouette;

    fn setup() -> (BodyDims, Camera, Pose) {
        let dims = BodyDims::default();
        let camera = Camera::default();
        let mut pose = Pose::standing(&dims);
        pose.center.x = 0.6;
        (dims, camera, pose)
    }

    /// `pose` plus displaced and trunk-rotated variants of it.
    fn displaced_candidates(pose: Pose) -> Vec<Pose> {
        let mut candidates = vec![pose];
        for step in 1..=4 {
            let mut p = pose;
            p.center.x += step as f64 * 0.12;
            p.center.y -= step as f64 * 0.03;
            candidates.push(p);
            candidates
                .push(p.with_angle(StickKind::Trunk, Angle::from_degrees(35.0 * step as f64)));
        }
        candidates
    }

    /// A batch of `pose` variants that repeats `pose` at the end:
    /// duplicates in a batch share hint state but must still get the
    /// exact per-pose value.
    fn batch_with_duplicate(pose: Pose) -> Vec<Pose> {
        let mut poses = vec![pose];
        for step in 1..=6 {
            let mut p = pose;
            p.center.x += step as f64 * 0.07;
            poses.push(p);
            poses.push(p.with_angle(StickKind::Thigh, Angle::from_degrees(10.0 * step as f64)));
        }
        poses.push(pose);
        poses
    }

    #[test]
    fn true_pose_scores_below_one() {
        let (dims, camera, pose) = setup();
        let sil = render_silhouette(&pose, &dims, &camera);
        let fit = SilhouetteFitness::new(&sil, &dims, &camera, 1).unwrap();
        let f = fit.evaluate(&pose, &dims);
        // Every silhouette pixel is within its capsule radius of the
        // generating stick, so each term is <= ~1.
        assert!(f < 0.8, "true-pose fitness {f}");
    }

    #[test]
    fn displaced_pose_scores_worse() {
        let (dims, camera, pose) = setup();
        let sil = render_silhouette(&pose, &dims, &camera);
        let fit = SilhouetteFitness::new(&sil, &dims, &camera, 1).unwrap();
        let base = fit.evaluate(&pose, &dims);
        let mut shifted = pose;
        shifted.center.x += 0.25;
        assert!(fit.evaluate(&shifted, &dims) > base * 2.0);
        let mut rotated = pose;
        rotated = rotated.with_angle(StickKind::Trunk, Angle::from_degrees(90.0));
        assert!(fit.evaluate(&rotated, &dims) > base * 1.5);
    }

    #[test]
    fn fitness_is_monotone_in_displacement() {
        let (dims, camera, pose) = setup();
        let sil = render_silhouette(&pose, &dims, &camera);
        let fit = SilhouetteFitness::new(&sil, &dims, &camera, 1).unwrap();
        let mut prev = fit.evaluate(&pose, &dims);
        for step in 1..=5 {
            let mut p = pose;
            p.center.x += step as f64 * 0.1;
            let f = fit.evaluate(&p, &dims);
            assert!(f > prev, "step {step}: {f} <= {prev}");
            prev = f;
        }
    }

    #[test]
    fn stride_approximates_full_evaluation() {
        let (dims, camera, pose) = setup();
        let sil = render_silhouette(&pose, &dims, &camera);
        let full = SilhouetteFitness::new(&sil, &dims, &camera, 1).unwrap();
        let strided = SilhouetteFitness::new(&sil, &dims, &camera, 4).unwrap();
        assert!(strided.sample_count() * 3 < full.sample_count());
        let a = full.evaluate(&pose, &dims);
        let b = strided.evaluate(&pose, &dims);
        assert!((a - b).abs() < 0.1 * a.max(0.05), "full {a} vs strided {b}");
        // Ranking is preserved for a clearly-worse pose.
        let mut bad = pose;
        bad.center.x += 0.3;
        assert!(strided.evaluate(&bad, &dims) > b);
    }

    #[test]
    fn prune_stats_account_for_every_stick() {
        let (dims, camera, pose) = setup();
        let sil = render_silhouette(&pose, &dims, &camera);
        let fit = SilhouetteFitness::new(&sil, &dims, &camera, 1).unwrap();
        let stats = fit.prune_stats(&pose, &dims);
        // Every pixel tests all 8 sticks: each is either scored exactly
        // or pruned, and the hint warm-start makes pruning the common
        // case on a well-fitting pose.
        assert_eq!(
            stats.candidates + stats.pruned,
            8 * fit.sample_count() as u64
        );
        assert!(stats.pruned > stats.candidates, "{stats:?}");
        assert_eq!(fit.prune_stats(&pose, &dims), stats);
    }

    #[test]
    fn empty_silhouette_rejected() {
        let (dims, camera, _) = setup();
        let blank = Mask::new(camera.width, camera.height);
        assert!(matches!(
            SilhouetteFitness::new(&blank, &dims, &camera, 1),
            Err(GaError::EmptySilhouette)
        ));
    }

    #[test]
    fn zero_stride_rejected() {
        let (dims, camera, pose) = setup();
        let sil = render_silhouette(&pose, &dims, &camera);
        assert!(matches!(
            SilhouetteFitness::new(&sil, &dims, &camera, 0),
            Err(GaError::BadConfig { .. })
        ));
    }

    #[test]
    fn counts_are_reported() {
        let (dims, camera, pose) = setup();
        let sil = render_silhouette(&pose, &dims, &camera);
        let fit = SilhouetteFitness::new(&sil, &dims, &camera, 2).unwrap();
        assert_eq!(fit.total_points(), sil.count());
        assert_eq!(fit.sample_count(), sil.count().div_ceil(2));
    }

    #[test]
    fn true_pose_has_negligible_outside_penalty() {
        let (dims, camera, pose) = setup();
        let sil = render_silhouette(&pose, &dims, &camera);
        let fit = SilhouetteFitness::new(&sil, &dims, &camera, 1).unwrap();
        assert!(fit.outside_penalty(&pose, &dims) < 0.05);
        // Total = Eq.3 + penalty ~= Eq.3 for the true pose.
        let total = fit.evaluate(&pose, &dims);
        let eq3 = fit.evaluate_eq3(&pose, &dims);
        assert!((total - eq3).abs() < 0.05, "total {total} vs eq3 {eq3}");
    }

    #[test]
    fn stick_poking_out_is_penalised() {
        // Arm raised horizontally forward, far outside the standing
        // silhouette: Eq. 3 barely notices, the coverage term does —
        // this is what disambiguates a hidden arm.
        let (dims, camera, pose) = setup();
        let sil = render_silhouette(&pose, &dims, &camera);
        let fit = SilhouetteFitness::new(&sil, &dims, &camera, 1).unwrap();
        let raised = pose.with_angle(StickKind::UpperArm, Angle::FORWARD);
        let eq3_delta = fit.evaluate_eq3(&raised, &dims) - fit.evaluate_eq3(&pose, &dims);
        let penalty = fit.outside_penalty(&raised, &dims);
        assert!(penalty > 0.5, "penalty {penalty}");
        assert!(
            penalty > eq3_delta.abs() * 2.0,
            "penalty {penalty} should dominate the Eq.3 change {eq3_delta}"
        );
        assert!(fit.evaluate(&raised, &dims) > fit.evaluate(&pose, &dims) + 0.3);
    }

    #[test]
    fn zero_weight_recovers_pure_eq3() {
        let (dims, camera, pose) = setup();
        let sil = render_silhouette(&pose, &dims, &camera);
        let pure = SilhouetteFitness::with_outside_weight(&sil, &dims, &camera, 1, 0.0).unwrap();
        let raised = pose.with_angle(StickKind::UpperArm, Angle::FORWARD);
        assert_eq!(
            pure.evaluate(&raised, &dims),
            pure.evaluate_eq3(&raised, &dims)
        );
    }

    #[test]
    fn negative_weight_rejected() {
        let (dims, camera, pose) = setup();
        let sil = render_silhouette(&pose, &dims, &camera);
        assert!(matches!(
            SilhouetteFitness::with_outside_weight(&sil, &dims, &camera, 1, -1.0),
            Err(GaError::BadConfig { .. })
        ));
    }

    #[test]
    fn pruned_evaluation_is_bit_identical_to_unpruned() {
        let (dims, camera, pose) = setup();
        let sil = render_silhouette(&pose, &dims, &camera);
        let fit = SilhouetteFitness::new(&sil, &dims, &camera, 1).unwrap();
        for (k, p) in displaced_candidates(pose).iter().enumerate() {
            assert_eq!(
                fit.evaluate(p, &dims),
                fit.evaluate_unpruned(p, &dims),
                "candidate {k}: pruned and unpruned full cost diverge"
            );
            assert_eq!(
                fit.evaluate_eq3(p, &dims),
                fit.evaluate_eq3_unpruned(p, &dims),
                "candidate {k}: pruned and unpruned Eq. 3 diverge"
            );
        }
    }

    #[test]
    fn lanes_evaluation_is_bit_identical_to_scalar() {
        let (dims, camera, pose) = setup();
        let sil = render_silhouette(&pose, &dims, &camera);
        // Strides 1/3/5 exercise full, ragged-tail and short frames.
        for stride in [1usize, 3, 5] {
            let fit = SilhouetteFitness::new(&sil, &dims, &camera, stride).unwrap();
            for (k, p) in displaced_candidates(pose).iter().enumerate() {
                let lanes = fit.evaluate_lanes(p, &dims);
                assert_eq!(
                    lanes.to_bits(),
                    fit.evaluate(p, &dims).to_bits(),
                    "stride {stride} candidate {k}: lanes vs pruned scalar"
                );
                assert_eq!(
                    lanes.to_bits(),
                    fit.evaluate_unpruned(p, &dims).to_bits(),
                    "stride {stride} candidate {k}: lanes vs unpruned scalar"
                );
            }
        }
    }

    #[test]
    fn batch_evaluation_matches_single_calls() {
        let (dims, camera, pose) = setup();
        let sil = render_silhouette(&pose, &dims, &camera);
        let fit = SilhouetteFitness::new(&sil, &dims, &camera, 2).unwrap();
        let poses = batch_with_duplicate(pose);
        let mut out = vec![0.0; poses.len()];
        let mut scratch = BatchScratch::default();
        fit.evaluate_batch(&poses, &dims, &mut out, &mut scratch);
        for (p, &got) in poses.iter().zip(&out) {
            assert_eq!(got.to_bits(), fit.evaluate(p, &dims).to_bits());
        }
        // A second pass with warmed (carried) hints returns the same
        // bits — hints never change values.
        let mut again = vec![0.0; poses.len()];
        fit.evaluate_batch(&poses, &dims, &mut again, &mut scratch);
        assert_eq!(out, again);
    }

    /// Every Eq. 3 lane tier, called directly instead of through the
    /// runtime dispatch, so the tiers this host would never pick run
    /// too: the chunked scalar tier always, AVX-512F and AVX2 when the
    /// CPU has them. Each must match the unpruned scalar scan bit for
    /// bit, single-genome and batched. The outside penalty is off, so
    /// `evaluate_unpruned` is exactly the Eq. 3 sum over N the tiers
    /// compute.
    #[test]
    fn every_lane_tier_is_bit_identical_to_unpruned() {
        type Sum = fn(&PreparedFrame, &[PreparedStick; 8]) -> f64;
        type Batch = fn(&PreparedFrame, &[[PreparedStick; 8]], &mut [u32], &mut [f64]);
        #[allow(unused_mut)] // no SIMD tiers off x86-64
        let mut tiers: Vec<(&str, Sum, Batch)> =
            vec![("chunked scalar", lanes_eq3_sum_impl, lanes_eq3_batch_impl)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                // SAFETY (both closures): the feature was detected at
                // runtime.
                tiers.push((
                    "avx512f",
                    |f, s| unsafe { x86::eq3_sum_avx512(f, s) },
                    |f, s, h, t| unsafe { x86::eq3_batch_avx512(f, s, h, t) },
                ));
            }
            if is_x86_feature_detected!("avx2") {
                // SAFETY (both closures): the feature was detected at
                // runtime.
                tiers.push((
                    "avx2",
                    |f, s| unsafe { x86::eq3_sum_avx2(f, s) },
                    |f, s, h, t| unsafe { x86::eq3_batch_avx2(f, s, h, t) },
                ));
            }
        }
        let (dims, camera, pose) = setup();
        let sil = render_silhouette(&pose, &dims, &camera);
        let eq3_only =
            |stride| SilhouetteFitness::with_outside_weight(&sil, &dims, &camera, stride, 0.0);

        // Single genomes, at strides 1/3/5: full, ragged-tail and
        // short frames.
        for stride in [1usize, 3, 5] {
            let fit = eq3_only(stride).unwrap();
            let n = fit.frame.len() as f64;
            for (k, p) in displaced_candidates(pose).iter().enumerate() {
                let reference = fit.evaluate_unpruned(p, &dims).to_bits();
                let sticks = fit.project(p, &dims);
                for &(tier, sum, _) in &tiers {
                    assert_eq!(
                        (sum(&fit.frame, &sticks) / n).to_bits(),
                        reference,
                        "{tier}: stride {stride} candidate {k}"
                    );
                }
            }
        }

        // Batches, at every prefix length so each genome grouping (8,
        // 4, 2 and 1 wide) runs.
        let fit = eq3_only(2).unwrap();
        let n = fit.frame.len() as f64;
        let poses = batch_with_duplicate(pose);
        let sticks: Vec<[PreparedStick; 8]> = poses.iter().map(|p| fit.project(p, &dims)).collect();
        let reference: Vec<u64> = poses
            .iter()
            .map(|p| fit.evaluate_unpruned(p, &dims).to_bits())
            .collect();
        for &(tier, _, batch) in &tiers {
            let mut hints = vec![0u32; fit.frame.num_chunks()];
            for len in 1..=sticks.len() {
                // Hints carry over from the previous prefix on purpose:
                // they steer work, never values.
                let mut totals = vec![0.0f64; len];
                batch(&fit.frame, &sticks[..len], &mut hints, &mut totals);
                let got: Vec<u64> = totals.iter().map(|t| (t / n).to_bits()).collect();
                assert_eq!(got, reference[..len], "{tier}: batch of {len}");
            }
        }
    }

    #[test]
    fn distance_field_accessor_matches_mask() {
        let (dims, camera, pose) = setup();
        let sil = render_silhouette(&pose, &dims, &camera);
        let fit = SilhouetteFitness::new(&sil, &dims, &camera, 1).unwrap();
        assert_eq!(fit.distance_field().width(), sil.width());
        assert_eq!(fit.distance_field().height(), sil.height());
    }

    #[test]
    fn thickness_normalisation_favors_thin_stick_fit() {
        // A point at equal pixel distance from two sticks is "closer"
        // (per Eq. 3) to the thicker one.
        let (dims, camera, pose) = setup();
        let sil = render_silhouette(&pose, &dims, &camera);
        let fit = SilhouetteFitness::new(&sil, &dims, &camera, 1).unwrap();
        let trunk_t = fit.thickness_px[StickKind::Trunk.index()];
        let neck_t = fit.thickness_px[StickKind::Neck.index()];
        assert!(trunk_t > neck_t);
    }
}
