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
//! The GA evaluates through the **cluster walk**
//! ([`SilhouetteFitness::evaluate_batch`]); the scalar scans are the
//! oracles it is tested against. The sampled points live in a
//! [`PreparedFrame`], which keeps them in raster order and also sorts
//! them by Morton key into [`CLUSTER`]-point clusters, each with its
//! bounding box. Per cluster and genome, the walk scores the hint stick
//! on all 16 points, tests every other stick's box against the
//! cluster's box once (a stick is skipped for all lanes when that
//! distance already exceeds the worst lane's best), scores the
//! survivors, and stores each point's square root at its walk slot.
//! Each genome's roots are then summed in raster order through the
//! frame's slot map. The walk is one portable source, written
//! branch-free over fixed-width arrays; each [`LaneTier`] is that
//! source compiled for one instruction set (AVX-512F, AVX2, or the
//! baseline target), so no tier carries intrinsics of its own. Every
//! lane performs exactly the scalar arithmetic on the same values —
//! Rust contracts no FMA, and vector division, square root and the
//! compare-and-select `min`/`max` round and pick as their scalar forms
//! do — and the sum adds the same values in the same order as the
//! scalar scan, so the result is bit-identical to both scalar paths:
//! the equivalence the lane tests here and in `tests/properties.rs`
//! pin down for every tier the host supports.

use crate::error::GaError;
use slj_imgproc::geometry::{Point2, Vec2};
use slj_imgproc::lanes::{ClusterBounds, PreparedFrame, CLUSTER};
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
    /// Upper end of the projection parameter's clamp: 1, or 0 for a
    /// degenerate stick, whose closest point is always `a`.
    t_max: f64,
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

impl PreparedStick {
    fn new(a: Point2, b: Point2, thickness: f64) -> PreparedStick {
        let d = b - a;
        let len_sq = d.norm_sq();
        PreparedStick {
            a,
            b,
            d,
            len_sq,
            inv_t_sq: 1.0 / (thickness * thickness),
            t_max: if len_sq <= f64::EPSILON { 0.0 } else { 1.0 },
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
    /// Silhouette pixel centres in image space, in raster order and as
    /// Morton-ordered clusters. The scalar paths read the raster order
    /// through [`PreparedFrame::iter`], the cluster walk the clusters.
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

    /// Evaluates a whole batch of poses against the prepared frame in
    /// one cluster walk on the fastest [`LaneTier`] the host supports:
    /// every pose is projected up front, then the frame is walked
    /// cluster-outer / genome-inner in groups of up to 8 genomes, so
    /// each cluster's coordinates stay hot across a group. The
    /// per-cluster prune hints in `scratch` are shared across genomes
    /// and across calls — hints only steer which redundant sticks get
    /// scored, never the returned values. `out[i]` receives exactly
    /// what [`SilhouetteFitness::evaluate`] returns for `poses[i]`.
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
        self.evaluate_batch_on(LaneTier::fastest(), poses, dims, out, scratch);
    }

    /// [`SilhouetteFitness::evaluate_batch`] on an explicit tier, so
    /// tests can run every tier the host supports. Every tier returns
    /// the same bits.
    ///
    /// # Panics
    ///
    /// Panics when `poses` and `out` differ in length, or when the host
    /// cannot run `tier`.
    pub fn evaluate_batch_on(
        &self,
        tier: LaneTier,
        poses: &[Pose],
        dims: &BodyDims,
        out: &mut [f64],
        scratch: &mut BatchScratch,
    ) {
        assert_eq!(poses.len(), out.len(), "evaluate_batch length mismatch");
        assert!(
            tier.is_supported(),
            "{tier:?} is not supported on this host"
        );
        scratch.sticks.clear();
        scratch.sticks.reserve(poses.len());
        for pose in poses {
            scratch.sticks.push(self.project(pose, dims));
        }
        let clusters = self.frame.num_clusters();
        if scratch.hints.len() != clusters {
            scratch.hints.clear();
            scratch.hints.resize(clusters, 0);
        }
        // Sized for the widest group whatever the batch, so the first
        // call on a frame sizes it for every later one.
        let roots = GROUP * self.frame.walk_len();
        if scratch.roots.len() < roots {
            scratch.roots.resize(roots, 0.0);
        }
        // SAFETY: the host supports `tier`, asserted above.
        unsafe { tier.walk(&self.frame, scratch, out) };
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
                let d = match df.pixel_at(p) {
                    Some((x, y)) => df.distance(x, y),
                    // Off-image samples are maximally outside.
                    None => (w + h) as f64,
                };
                total += ((d - t).max(0.0) / t).min(20.0);
            }
        }
        total / count.max(1) as f64
    }
}

/// Reusable scratch for [`SilhouetteFitness::evaluate_batch`]: the
/// batch's prepared stick sets, the per-cluster prune hints shared
/// across genomes, and one walk group's per-genome roots buffers and
/// transposed stick boxes. Hints persist across calls on purpose — a
/// hint only decides which stick seeds a cluster's lane minima (work
/// saving), never the returned values, so carrying them between
/// generations is free warm-up.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    sticks: Vec<[PreparedStick; 8]>,
    hints: Vec<u32>,
    /// Up to [`GROUP`] genomes' square roots, genome-major, each
    /// `walk_len` long and indexed by walk slot.
    roots: Vec<f64>,
    /// One walk group's transposed stick boxes.
    boxes: [StickBoxes; GROUP],
}

// --- cluster walk ----------------------------------------------------
//
// The walk scores the frame one CLUSTER-point, Morton-ordered cluster
// at a time (see `slj_imgproc::lanes`) and stores each point's square
// root at its walk slot; each genome's roots are then summed in raster
// order through the frame's slot map. One source serves every tier:
// `walk_groups` and its helpers are `#[inline(always)]`, their lane
// loops branch-free over fixed-width arrays, and each `LaneTier` is
// that source compiled for one instruction set. Bit-exactness with
// the scalar scans rests on three facts:
//
// 1. Each lane performs the exact scalar `scaled_distance_sq` f64
//    sequence on the same coordinates, and a minimum over the same
//    non-negative values does not depend on the order they are visited
//    in — so per-lane minima match the scalar per-pixel minima
//    bit-for-bit, whichever stick seeds them. Rust's float semantics
//    carry this to every tier: no FMA contraction, correctly rounded
//    vector division and square root, and `min`/`max` written as
//    compare-and-select, whose vector forms pick the same operand.
// 2. The cluster-level skip test only ever under-prunes: the stick-AABB
//    to cluster-box distance lower-bounds every lane's point-to-AABB
//    bound, and the test compares it against the *worst* lane's best
//    after the hint stick (times the same `PRUNE_SLACK` the scalar test
//    uses), so a skipped stick could not have won in any lane. Every
//    survivor is scored; one that a tighter bound would have skipped is
//    strictly smaller in no lane, so the strict-less select keeps the
//    lane's value.
// 3. f64 addition is order-sensitive, so the sum reads the roots back
//    in raster order — `roots[slot[i]]` for `i` in `0..n` — and adds
//    the very values the scalar scan adds, in its order. Padding lanes
//    write the slots at and above `n`, which the sum never reads.

/// Genomes per walk group: the widest group the batch walk uses.
/// Groups of 8, then at most one each of 4, 2 and 1, share each
/// cluster's coordinate loads and hint, and give the raster-order sum
/// `N` independent add chains to overlap.
const GROUP: usize = 8;

/// An instruction-set tier of the Eq. 3 cluster walk: one source
/// compiled for each. Every tier returns the same bits; they differ
/// only in speed. [`SilhouetteFitness::evaluate_batch`] runs
/// [`LaneTier::fastest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneTier {
    /// The walk compiled for the build's baseline target (SSE2 on
    /// x86-64).
    Scalar,
    /// The walk compiled with x86-64 AVX2 enabled.
    Avx2,
    /// The walk compiled with x86-64 AVX-512F enabled.
    Avx512,
}

impl LaneTier {
    /// Whether this host can run the tier.
    pub fn is_supported(self) -> bool {
        match self {
            LaneTier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            LaneTier::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            LaneTier::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The tiers this host can run, fastest first; always ends with
    /// [`LaneTier::Scalar`].
    pub fn supported() -> impl Iterator<Item = LaneTier> {
        [LaneTier::Avx512, LaneTier::Avx2, LaneTier::Scalar]
            .into_iter()
            .filter(|tier| tier.is_supported())
    }

    /// The fastest tier this host can run.
    pub fn fastest() -> LaneTier {
        Self::supported().next().unwrap_or(LaneTier::Scalar)
    }

    /// [`walk_groups`] compiled for this tier.
    ///
    /// # Safety
    ///
    /// The host must support the tier ([`LaneTier::is_supported`]).
    unsafe fn walk(self, frame: &PreparedFrame, scratch: &mut BatchScratch, totals: &mut [f64]) {
        match self {
            LaneTier::Scalar => walk_groups(frame, scratch, totals),
            // SAFETY: the caller guarantees the tier's features.
            #[cfg(target_arch = "x86_64")]
            LaneTier::Avx2 => unsafe { walk_avx2(frame, scratch, totals) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            LaneTier::Avx512 => unsafe { walk_avx512(frame, scratch, totals) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("{self:?} exists only on x86-64"),
        }
    }
}

/// [`walk_groups`] compiled with AVX2; callable only where the host
/// has it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn walk_avx2(frame: &PreparedFrame, scratch: &mut BatchScratch, totals: &mut [f64]) {
    walk_groups(frame, scratch, totals);
}

/// [`walk_groups`] compiled with AVX-512F; callable only where the
/// host has it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn walk_avx512(frame: &PreparedFrame, scratch: &mut BatchScratch, totals: &mut [f64]) {
    walk_groups(frame, scratch, totals);
}

/// Raw Eq. 3 sums (before `/ N`) of every genome in `scratch.sticks`,
/// into `totals`, in groups of [`GROUP`], then at most one group each
/// of 4, 2 and 1. `scratch.roots` holds at least
/// `GROUP * frame.walk_len()` values and `scratch.hints` one per
/// cluster. Inlined into each tier's entry point, so every call below
/// it compiles for that tier's instruction set.
#[inline(always)]
fn walk_groups(frame: &PreparedFrame, scratch: &mut BatchScratch, totals: &mut [f64]) {
    let BatchScratch {
        sticks,
        hints,
        roots,
        boxes,
    } = scratch;
    let mut done = 0;
    while sticks.len() - done >= GROUP {
        let (group, sums) = (&sticks[done..done + GROUP], &mut totals[done..done + GROUP]);
        group_walk::<GROUP>(frame, group, hints, roots, boxes, sums);
        done += GROUP;
    }
    let rest = sticks.len() - done;
    if rest & 4 != 0 {
        let (group, sums) = (&sticks[done..done + 4], &mut totals[done..done + 4]);
        group_walk::<4>(frame, group, hints, roots, boxes, sums);
        done += 4;
    }
    if rest & 2 != 0 {
        let (group, sums) = (&sticks[done..done + 2], &mut totals[done..done + 2]);
        group_walk::<2>(frame, group, hints, roots, boxes, sums);
        done += 2;
    }
    if rest & 1 != 0 {
        group_walk::<1>(
            frame,
            &sticks[done..],
            hints,
            roots,
            boxes,
            &mut totals[done..],
        );
    }
}

/// `a` when it is greater, else `b`: the operand order of a vector
/// `max`, so every tier picks the same value.
#[inline(always)]
fn max(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// `a` when it is smaller, else `b`: the operand order of a vector
/// `min`.
#[inline(always)]
fn min(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// [`PreparedStick::scaled_distance_sq`] at every lane of one cluster:
/// identical f64 operations in identical order, branch-free. The clamp
/// is `max` then `min` against the stick's `t_max`, whose 0 for a
/// degenerate stick pins `t` to the scalar path's 0 whatever the
/// division gave; it differs from `f64::clamp` only in the sign of a
/// zero `t`, which the squares below erase.
#[inline(always)]
fn lane_distances(s: &PreparedStick, xs: &[f64; CLUSTER], ys: &[f64; CLUSTER]) -> [f64; CLUSTER] {
    let mut out = [0.0; CLUSTER];
    for l in 0..CLUSTER {
        let qx = xs[l] - s.a.x;
        let qy = ys[l] - s.a.y;
        let t = min(max((qx * s.d.x + qy * s.d.y) / s.len_sq, 0.0), s.t_max);
        let dx = xs[l] - (s.a.x + s.d.x * t);
        let dy = ys[l] - (s.a.y + s.d.y * t);
        out[l] = (dx * dx + dy * dy) * s.inv_t_sq;
    }
    out
}

/// The largest of a cluster's lane values, as a pairwise tree. The
/// values are non-negative distances, so any order gives the same
/// maximum.
#[inline(always)]
fn lane_max(v: &[f64; CLUSTER]) -> f64 {
    let mut m = *v;
    let mut width = CLUSTER / 2;
    while width > 0 {
        for l in 0..width {
            m[l] = max(m[l], m[l + width]);
        }
        width /= 2;
    }
    m[0]
}

/// A genome's eight stick boxes transposed stick-per-lane, built once
/// per group walk, so a cluster's seven box-to-box bound tests are one
/// eight-lane pass.
#[derive(Debug, Clone, Copy, Default)]
struct StickBoxes {
    min_x: [f64; 8],
    max_x: [f64; 8],
    min_y: [f64; 8],
    max_y: [f64; 8],
    inv_t_sq: [f64; 8],
    /// The last bound test's verdicts, one byte per stick. They pass
    /// through memory (the batch scratch) because eight byte stores
    /// are a pattern the compiler turns into one vector compare and
    /// store, where a bitmask OR-ed together in registers stays a
    /// scalar reduction.
    below: [u8; 8],
}

impl StickBoxes {
    #[inline(always)]
    fn new(sticks: &[PreparedStick; 8]) -> StickBoxes {
        let mut boxes = StickBoxes::default();
        for (i, s) in sticks.iter().enumerate() {
            boxes.min_x[i] = s.min_x;
            boxes.max_x[i] = s.max_x;
            boxes.min_y[i] = s.min_y;
            boxes.max_y[i] = s.max_y;
            boxes.inv_t_sq[i] = s.inv_t_sq;
        }
        boxes
    }

    /// The sticks whose scaled squared distance to the cluster box `b`
    /// — a lower bound of the stick's distance to every point of the
    /// cluster — is below `threshold`, the sticks that could win in
    /// some lane: byte `i` of the result (bit `8 * i`) is 1 for stick
    /// `i`, else 0.
    #[inline(always)]
    fn survivors(&mut self, b: ClusterBounds, threshold: f64) -> u64 {
        for i in 0..8 {
            let dx = max(max(self.min_x[i] - b.max_x, b.min_x - self.max_x[i]), 0.0);
            let dy = max(max(self.min_y[i] - b.max_y, b.min_y - self.max_y[i]), 0.0);
            self.below[i] = u8::from((dx * dx + dy * dy) * self.inv_t_sq[i] < threshold);
        }
        u64::from_le_bytes(self.below)
    }
}

/// Scores one cluster for one genome: the hint stick on every lane, one
/// bound test of every stick's box against the cluster's box at the
/// worst lane's value, every survivor on every lane with the
/// strict-less update as a select, and the square roots into `roots`.
/// Returns the winning stick at the last lane, the cluster's next hint.
#[inline(always)]
fn eq3_cluster(
    xs: &[f64; CLUSTER],
    ys: &[f64; CLUSTER],
    bounds: ClusterBounds,
    sticks: &[PreparedStick; 8],
    boxes: &mut StickBoxes,
    hint: u32,
    roots: &mut [f64],
) -> u32 {
    let mut best = lane_distances(&sticks[hint as usize], xs, ys);
    let threshold = lane_max(&best) * PRUNE_SLACK;
    let mut pending = boxes.survivors(bounds, threshold) & !(1 << (8 * hint));
    let mut last = hint;
    while pending != 0 {
        let i = pending.trailing_zeros() / 8;
        pending &= pending - 1;
        let v = lane_distances(&sticks[i as usize], xs, ys);
        if v[CLUSTER - 1] < best[CLUSTER - 1] {
            last = i;
        }
        for l in 0..CLUSTER {
            best[l] = min(v[l], best[l]);
        }
    }
    for (root, b) in roots.iter_mut().zip(best) {
        *root = b.sqrt();
    }
    last
}

/// One group of `N` genomes' walk of the whole frame: clusters outer,
/// genomes inner, all `N` starting each cluster from its shared hint
/// (the last genome's winner becomes the next hint); then each genome's
/// roots summed in raster order into `totals`. `roots` is genome-major,
/// `walk_len` values per genome, indexed by walk slot.
#[inline(always)]
fn group_walk<const N: usize>(
    frame: &PreparedFrame,
    group: &[[PreparedStick; 8]],
    hints: &mut [u32],
    roots: &mut [f64],
    boxes: &mut [StickBoxes; GROUP],
    totals: &mut [f64],
) {
    for (b, sticks) in boxes.iter_mut().zip(group) {
        *b = StickBoxes::new(sticks);
    }
    let stride = frame.walk_len();
    let roots = &mut roots[..N * stride];
    for (c, hint) in hints.iter_mut().enumerate() {
        let (xs, ys) = frame.cluster(c);
        let bounds = frame.cluster_bounds(c);
        let mut next = *hint;
        for g in 0..N {
            let at = g * stride + c * CLUSTER;
            next = eq3_cluster(
                xs,
                ys,
                bounds,
                &group[g],
                &mut boxes[g],
                *hint,
                &mut roots[at..at + CLUSTER],
            );
        }
        *hint = next;
    }
    // Equal-length views, so one bounds check covers a slot's `N`
    // reads; the `N` add chains are independent, so the core overlaps
    // them.
    let mut bufs: [&[f64]; N] = [&[]; N];
    for (g, buf) in bufs.iter_mut().enumerate() {
        *buf = &roots[g * stride..][..stride];
    }
    let mut acc = [0.0f64; N];
    for &slot in frame.slots() {
        let slot = slot as usize;
        for g in 0..N {
            acc[g] += bufs[g][slot];
        }
    }
    totals.copy_from_slice(&acc);
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
                // A batch of one, on a fresh scratch: the walk a single
                // `PoseProblem::fitness` call takes.
                let mut lanes = [0.0];
                fit.evaluate_batch(
                    std::slice::from_ref(p),
                    &dims,
                    &mut lanes,
                    &mut BatchScratch::default(),
                );
                assert_eq!(
                    lanes[0].to_bits(),
                    fit.evaluate(p, &dims).to_bits(),
                    "stride {stride} candidate {k}: lanes vs pruned scalar"
                );
                assert_eq!(
                    lanes[0].to_bits(),
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
    /// too: the portable tier always, AVX-512F and AVX2 when the CPU
    /// has them. Each must match the unpruned scalar scan bit for bit,
    /// single-genome and batched. The outside penalty is off, so
    /// `evaluate_unpruned` is exactly the Eq. 3 sum over N the tiers
    /// compute.
    #[test]
    fn every_lane_tier_is_bit_identical_to_unpruned() {
        let (dims, camera, pose) = setup();
        let sil = render_silhouette(&pose, &dims, &camera);
        let eq3_only =
            |stride| SilhouetteFitness::with_outside_weight(&sil, &dims, &camera, stride, 0.0);

        // Single genomes, at strides 1/3/5: full, ragged-tail and
        // short frames.
        for stride in [1usize, 3, 5] {
            let fit = eq3_only(stride).unwrap();
            for (k, p) in displaced_candidates(pose).iter().enumerate() {
                let reference = fit.evaluate_unpruned(p, &dims).to_bits();
                for tier in LaneTier::supported() {
                    let mut got = [0.0];
                    fit.evaluate_batch_on(
                        tier,
                        std::slice::from_ref(p),
                        &dims,
                        &mut got,
                        &mut BatchScratch::default(),
                    );
                    assert_eq!(
                        got[0].to_bits(),
                        reference,
                        "{tier:?}: stride {stride} candidate {k}"
                    );
                }
            }
        }

        // Batches, at every prefix length so each genome grouping (8,
        // 4, 2 and 1 wide) runs.
        let fit = eq3_only(2).unwrap();
        let poses = batch_with_duplicate(pose);
        let reference: Vec<u64> = poses
            .iter()
            .map(|p| fit.evaluate_unpruned(p, &dims).to_bits())
            .collect();
        for tier in LaneTier::supported() {
            // Hints carry over from the previous prefix on purpose:
            // they steer work, never values.
            let mut scratch = BatchScratch::default();
            for len in 1..=poses.len() {
                let mut out = vec![0.0f64; len];
                fit.evaluate_batch_on(tier, &poses[..len], &dims, &mut out, &mut scratch);
                let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, reference[..len], "{tier:?}: batch of {len}");
            }
        }
    }

    /// Sticks other than the hint that survive a cluster's bound test.
    fn first_test_survivors(
        frame: &PreparedFrame,
        c: usize,
        sticks: &[PreparedStick; 8],
        hint: usize,
    ) -> usize {
        let (xs, ys) = frame.cluster(c);
        let upper = lane_max(&lane_distances(&sticks[hint], xs, ys));
        let survivors =
            StickBoxes::new(sticks).survivors(frame.cluster_bounds(c), upper * PRUNE_SLACK);
        (survivors & !(1 << (8 * hint))).count_ones() as usize
    }

    /// Forwards to a [`PoseProblem`] and records every genome the GA
    /// scores, in the order it scores them.
    struct Recorder<'a> {
        problem: &'a crate::pose_problem::PoseProblem,
        scored: std::cell::RefCell<Vec<Pose>>,
    }

    impl crate::engine::Problem for Recorder<'_> {
        type Genome = Pose;
        fn fitness(&self, genome: &Pose) -> f64 {
            self.scored.borrow_mut().push(*genome);
            self.problem.fitness(genome)
        }
        fn fitness_batch(&self, genomes: &[Pose], out: &mut [f64]) {
            self.scored.borrow_mut().extend_from_slice(genomes);
            self.problem.fitness_batch(genomes, out);
        }
        fn random_genome(&self, rng: &mut rand::rngs::StdRng) -> Pose {
            self.problem.random_genome(rng)
        }
        fn crossover(&self, a: &Pose, b: &Pose, rng: &mut rand::rngs::StdRng) -> (Pose, Pose) {
            self.problem.crossover(a, b, rng)
        }
        fn mutate(&self, genome: &mut Pose, rng: &mut rand::rngs::StdRng) {
            self.problem.mutate(genome, rng)
        }
        fn is_valid(&self, genome: &Pose) -> bool {
            self.problem.is_valid(genome)
        }
        fn seeds(&self) -> Vec<Pose> {
            self.problem.seeds()
        }
    }

    /// Lane exactness where the first bound test is loose. A served
    /// job's segmentation (default scene, the causal 8-frame warm-up
    /// background) leaves dozens of debris specks late in the clip. A
    /// cluster that spans specks, or specks and body pixels, has a box
    /// no stick's bound can clear: there the hint stick prunes almost
    /// nothing and the tiers score nearly every stick. Batches of every
    /// length from 1 to 17 are drawn from the genomes a served-preset
    /// GA run scores on such a frame, and every tier the host supports
    /// must return `evaluate_unpruned`'s bits for each genome.
    #[test]
    fn every_lane_tier_is_exact_where_the_first_bound_is_loose() {
        use crate::engine::evolve;
        use crate::pose_problem::{InitStrategy, PoseProblem};
        use crate::tracker::TrackerConfig;
        use rand::SeedableRng;
        use slj_segment::background::UpdateMode;
        use slj_segment::{PipelineConfig, SegmentPipeline};
        use slj_video::{SceneConfig, SyntheticJump};

        let jump = SyntheticJump::generate(
            &SceneConfig::default(),
            &slj_motion::JumpConfig::default(),
            5,
        );
        let mut segmentation = PipelineConfig::default();
        segmentation.background.warmup = Some(8);
        segmentation.background.mode = UpdateMode::LastStable;
        let segmented = SegmentPipeline::new(segmentation).run(&jump.video).unwrap();
        let k = 16;
        let sil = &segmented.frames[k].final_mask;
        let (dims, camera) = (&jump.jump.dims, &jump.scene.camera);

        // The genomes a served-preset GA run scores on frame k, seeded
        // from the true pose of frame k − 1.
        let served = TrackerConfig::fast();
        let problem = PoseProblem::new(
            sil,
            dims,
            camera,
            InitStrategy::Temporal {
                previous: jump.poses.poses()[k - 1],
                delta_center: served.delta_center,
                delta_angles: served.delta_angles,
            },
            served.problem,
        )
        .unwrap();
        let recorder = Recorder {
            problem: &problem,
            scored: std::cell::RefCell::new(Vec::new()),
        };
        evolve(
            &recorder,
            &served.ga,
            &mut rand::rngs::StdRng::seed_from_u64(served.seed),
        )
        .unwrap();
        let genomes = recorder.scored.into_inner();
        assert!(genomes.len() >= 200, "{} genomes scored", genomes.len());

        let fit =
            SilhouetteFitness::with_outside_weight(sil, dims, camera, served.problem.stride, 0.0)
                .unwrap();
        let sticks: Vec<[PreparedStick; 8]> =
            genomes.iter().map(|p| fit.project(p, dims)).collect();

        // The frame is as loose as described: thousands of (genome,
        // cluster) pairs keep at least six of the seven sticks besides
        // the hint after the first test (2494 of 66600 at the time of
        // writing; 8-point raster runs kept about a fifth of theirs).
        let pairs = sticks.len() * fit.frame.num_clusters();
        let loose = sticks
            .iter()
            .flat_map(|g| (0..fit.frame.num_clusters()).map(move |c| (g, c)))
            .filter(|&(g, c)| first_test_survivors(&fit.frame, c, g, 0) >= 6)
            .count();
        assert!(loose >= 2000, "{loose} of {pairs} pairs loose");

        // Every recorded genome, in consecutive batches of lengths 1,
        // 2, …, 17, 1, 2, …, so each loose pair is walked and every
        // group width runs.
        let reference: Vec<u64> = genomes
            .iter()
            .map(|p| fit.evaluate_unpruned(p, dims).to_bits())
            .collect();
        for tier in LaneTier::supported() {
            let mut scratch = BatchScratch::default();
            let (mut start, mut len) = (0, 1);
            while start < genomes.len() {
                let end = (start + len).min(genomes.len());
                let mut out = vec![0.0f64; end - start];
                fit.evaluate_batch_on(tier, &genomes[start..end], dims, &mut out, &mut scratch);
                let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, reference[start..end], "{tier:?}: batch at {start}");
                start = end;
                len = len % 17 + 1;
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
