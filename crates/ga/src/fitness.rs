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
//! frame's slot map. Every lane performs exactly the scalar arithmetic
//! on the same values, and the sum adds the same values in the same
//! order as the scalar scan, so the result is bit-identical to both
//! scalar paths — the equivalence the lane tests here and in
//! `tests/properties.rs` pin down for every
//! [`LaneTier`] the host supports.

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
        unsafe {
            tier.walk(
                &self.frame,
                &scratch.sticks,
                &mut scratch.hints,
                &mut scratch.roots,
                out,
            )
        };
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
/// across genomes, and one walk group's per-genome roots buffers. Hints
/// persist across calls on purpose — a hint only decides which stick
/// seeds a cluster's lane minima (work saving), never the returned
/// values, so carrying them between generations is free warm-up.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    sticks: Vec<[PreparedStick; 8]>,
    hints: Vec<u32>,
    /// Up to [`GROUP`] genomes' square roots, genome-major, each
    /// `walk_len` long and indexed by walk slot.
    roots: Vec<f64>,
}

// --- cluster walk ----------------------------------------------------
//
// The walk scores the frame one CLUSTER-point, Morton-ordered cluster
// at a time (see `slj_imgproc::lanes`) and stores each point's square
// root at its walk slot; each genome's roots are then summed in raster
// order through the frame's slot map. Bit-exactness with the scalar
// scans rests on three facts:
//
// 1. Each lane performs the exact scalar `scaled_distance_sq` f64
//    sequence on the same coordinates, and a minimum over the same
//    non-negative values does not depend on the order they are visited
//    in — so per-lane minima match the scalar per-pixel minima
//    bit-for-bit, whichever stick seeds them.
// 2. The cluster-level skip test only ever under-prunes: the stick-AABB
//    to cluster-box distance lower-bounds every lane's point-to-AABB
//    bound, and the test compares it against the *worst* lane's best
//    after the hint stick (times the same `PRUNE_SLACK` the scalar test
//    uses), so a skipped stick could not have won in any lane. Every
//    survivor is scored; one that a tighter bound would have skipped is
//    strictly smaller in no lane, so the strict-less blend keeps the
//    lane's value.
// 3. f64 addition is order-sensitive, so the sum reads the roots back
//    in raster order — `roots[slot[i]]` for `i` in `0..n` — and adds
//    the very values the scalar scan adds, in its order. Padding lanes
//    write the slots at and above `n`, which the sum never reads.
//
// `#[target_feature]` functions recompile the same walk for wider ISAs,
// picked once per batch by `LaneTier::fastest` (the baseline build
// targets SSE2). Every tier executes identical IEEE-754 operations —
// vectorised min/max/sqrt are exact, and no FMA contraction is
// introduced — so the tier is a pure throughput setting.

/// Genomes per walk group: the widest group the batch walk uses.
/// Groups of 8, then at most one each of 4, 2 and 1, share each
/// cluster's coordinate loads and hint, and give the raster-order sum
/// `N` independent add chains to overlap.
const GROUP: usize = 8;

/// An instruction-set tier of the Eq. 3 cluster walk. Every tier
/// returns the same bits; they differ only in speed.
/// [`SilhouetteFitness::evaluate_batch`] runs
/// [`LaneTier::fastest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneTier {
    /// Portable Rust, one cluster's lanes per loop.
    Scalar,
    /// x86-64 AVX2: each cluster as four 4-lane quarters.
    Avx2,
    /// x86-64 AVX-512F: each cluster as two 8-lane halves.
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

    /// Raw Eq. 3 sums (before `/ N`) of every genome in `sticks`, into
    /// `totals`, in groups of [`GROUP`], then at most one group each of
    /// 4, 2 and 1. `roots` holds at least `GROUP * frame.walk_len()`
    /// values and `hints` one per cluster.
    ///
    /// # Safety
    ///
    /// The host must support the tier ([`LaneTier::is_supported`]).
    unsafe fn walk(
        self,
        frame: &PreparedFrame,
        sticks: &[[PreparedStick; 8]],
        hints: &mut [u32],
        roots: &mut [f64],
        totals: &mut [f64],
    ) {
        let groups: [GroupWalk; 4] = match self {
            LaneTier::Scalar => [
                group_scalar::<GROUP>,
                group_scalar::<4>,
                group_scalar::<2>,
                group_scalar::<1>,
            ],
            #[cfg(target_arch = "x86_64")]
            LaneTier::Avx2 => [
                x86::group_avx2::<GROUP>,
                x86::group_avx2::<4>,
                x86::group_avx2::<2>,
                x86::group_avx2::<1>,
            ],
            #[cfg(target_arch = "x86_64")]
            LaneTier::Avx512 => [
                x86::group_avx512::<GROUP>,
                x86::group_avx512::<4>,
                x86::group_avx512::<2>,
                x86::group_avx512::<1>,
            ],
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("{self:?} exists only on x86-64"),
        };
        let mut done = 0;
        for (width, group) in [GROUP, 4, 2, 1].into_iter().zip(groups) {
            while sticks.len() - done >= width {
                // SAFETY: the caller guarantees the tier's features.
                unsafe {
                    group(
                        frame,
                        &sticks[done..done + width],
                        hints,
                        roots,
                        &mut totals[done..done + width],
                    )
                };
                done += width;
            }
        }
    }
}

/// One tier's walk of the whole frame for a group of genomes, writing
/// their raw sums. `unsafe` because the SIMD tiers need their CPU
/// features.
type GroupWalk =
    unsafe fn(&PreparedFrame, &[[PreparedStick; 8]], &mut [u32], &mut [f64], &mut [f64]);

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

/// Scaled squared distance between a stick's AABB and a cluster's box:
/// a lower bound of the stick's distance to every point of the cluster.
#[inline(always)]
fn box_lower_bound_sq(s: &PreparedStick, b: ClusterBounds) -> f64 {
    let dx = (s.min_x - b.max_x).max(b.min_x - s.max_x).max(0.0);
    let dy = (s.min_y - b.max_y).max(b.min_y - s.max_y).max(0.0);
    (dx * dx + dy * dy) * s.inv_t_sq
}

/// Scores one cluster for one genome on the portable tier: the hint
/// stick on every lane, one bound test of every other stick against
/// the cluster's box, every survivor on every lane, and the square
/// roots into `roots`. Returns the winning stick at the last lane, the
/// cluster's next hint.
#[inline(always)]
fn eq3_cluster(
    xs: &[f64; CLUSTER],
    ys: &[f64; CLUSTER],
    bounds: ClusterBounds,
    sticks: &[PreparedStick; 8],
    hint: u32,
    roots: &mut [f64; CLUSTER],
) -> u32 {
    let mut best = [0.0f64; CLUSTER];
    let seed = &sticks[hint as usize];
    let degenerate = seed.len_sq <= f64::EPSILON;
    for l in 0..CLUSTER {
        best[l] = lane_scaled_distance_sq(seed, degenerate, xs[l], ys[l]);
    }
    // The worst lane's best bounds the whole cluster: a stick whose
    // box-to-box lower bound cannot beat it cannot win anywhere.
    let mut upper = best[0];
    for &b in &best[1..] {
        if b > upper {
            upper = b;
        }
    }
    let threshold = upper * PRUNE_SLACK;
    let mut last = hint;
    for (i, s) in sticks.iter().enumerate() {
        if i as u32 == hint || box_lower_bound_sq(s, bounds) >= threshold {
            continue;
        }
        let degenerate = s.len_sq <= f64::EPSILON;
        let before = best[CLUSTER - 1];
        for l in 0..CLUSTER {
            let v = lane_scaled_distance_sq(s, degenerate, xs[l], ys[l]);
            if v < best[l] {
                best[l] = v;
            }
        }
        if best[CLUSTER - 1] < before {
            last = i as u32;
        }
    }
    for l in 0..CLUSTER {
        roots[l] = best[l].sqrt();
    }
    last
}

/// Sums each of `N` genomes' roots in raster order: `totals[g]` is the
/// sum of `roots[g * stride + slot]` over `slots`, added in the scalar
/// scan's order. The `N` chains are independent, so the core overlaps
/// them.
#[inline(always)]
fn sum_in_raster_order<const N: usize>(
    slots: &[u32],
    roots: &[f64],
    stride: usize,
    totals: &mut [f64],
) {
    let bufs: [&[f64]; N] = std::array::from_fn(|g| &roots[g * stride..(g + 1) * stride]);
    let mut acc = [0.0f64; N];
    for &slot in slots {
        let slot = slot as usize;
        for g in 0..N {
            acc[g] += bufs[g][slot];
        }
    }
    totals.copy_from_slice(&acc);
}

/// Genome `g`'s roots for cluster `c`, in a group's roots buffers.
#[inline(always)]
fn cluster_roots(roots: &mut [f64], stride: usize, g: usize, c: usize) -> &mut [f64; CLUSTER] {
    let at = g * stride + c * CLUSTER;
    (&mut roots[at..at + CLUSTER])
        .try_into()
        .expect("cluster width")
}

/// The portable tier's walk for a group of `N` genomes: clusters outer,
/// genomes inner, all `N` starting each cluster from its shared hint;
/// the last genome's winner becomes the next hint.
fn group_scalar<const N: usize>(
    frame: &PreparedFrame,
    group: &[[PreparedStick; 8]],
    hints: &mut [u32],
    roots: &mut [f64],
    totals: &mut [f64],
) {
    let stride = frame.walk_len();
    for (c, hint) in hints.iter_mut().enumerate() {
        let (xs, ys) = frame.cluster(c);
        let bounds = frame.cluster_bounds(c);
        let mut next = *hint;
        for (g, sticks) in group.iter().enumerate() {
            next = eq3_cluster(
                xs,
                ys,
                bounds,
                sticks,
                *hint,
                cluster_roots(roots, stride, g, c),
            );
        }
        *hint = next;
    }
    sum_in_raster_order::<N>(frame.slots(), roots, stride, totals);
}

/// Hand-vectorised x86-64 tiers. The autovectoriser reliably refuses
/// the generic cluster kernel (the conditional best update compiles to
/// per-lane compare-and-branch), so the AVX-512 and AVX2 tiers spell
/// the same computation out in intrinsics: identical IEEE-754
/// operations per lane — sub/mul/add/div/min/max/sqrt are all
/// correctly rounded, the compare-and-blend reproduces the scalar
/// strict-less update, and no FMA contraction is introduced — so every
/// lane matches the scalar kernel bitwise (asserted by tests that call
/// every tier the host supports).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// A genome's stick AABBs transposed stick-per-lane, built once per
    /// group walk: eight sticks fill one 8-wide register, so a
    /// cluster's seven scalar (and branchy) box-to-box bound tests
    /// collapse into a single vector evaluation.
    pub(super) struct StickBounds {
        min_x: [f64; 8],
        max_x: [f64; 8],
        min_y: [f64; 8],
        max_y: [f64; 8],
        inv_t_sq: [f64; 8],
    }

    impl StickBounds {
        pub(super) fn new(sticks: &[PreparedStick; 8]) -> Self {
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

    /// All eight sticks' box-to-box lower bounds against one cluster in
    /// a single 8-lane pass, returned as the bitmask of sticks whose
    /// bound beats `threshold` — the same per-stick arithmetic and the
    /// same `>= threshold → skip` predicate as [`box_lower_bound_sq`],
    /// evaluated for all sticks at once.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn stick_survivors_avx512(
        sb: &StickBounds,
        bounds: ClusterBounds,
        threshold: f64,
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
        u32::from(_mm512_cmp_pd_mask::<_CMP_LT_OQ>(
            lb,
            _mm512_set1_pd(threshold),
        ))
    }

    /// [`stick_survivors_avx512`] on the AVX2 tier: two 4-wide halves,
    /// survivor bits via `movmsk` on the compare result.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn stick_survivors_avx2(sb: &StickBounds, bounds: ClusterBounds, threshold: f64) -> u32 {
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
            mask |= (_mm256_movemask_pd(lt) as u32) << o;
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

    /// [`eq3_cluster`] on the AVX-512 tier: the 16 lanes as two 8-wide
    /// halves, the strict-less update as mask + blend.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn eq3_cluster_avx512(
        px: [__m512d; 2],
        py: [__m512d; 2],
        bounds: ClusterBounds,
        sticks: &[PreparedStick; 8],
        sb: &StickBounds,
        hint: u32,
        roots: &mut [f64; CLUSTER],
    ) -> u32 {
        let seed = &sticks[hint as usize];
        let mut best = [
            dist_avx512(seed, px[0], py[0]),
            dist_avx512(seed, px[1], py[1]),
        ];
        // Distances are non-negative, so the lane maximum is
        // order-independent and matches the portable reduction exactly.
        let upper = _mm512_reduce_max_pd(_mm512_max_pd(best[0], best[1]));
        let mut pending = stick_survivors_avx512(sb, bounds, upper * PRUNE_SLACK) & !(1u32 << hint);
        let mut last = hint;
        while pending != 0 {
            let i = pending.trailing_zeros();
            pending &= pending - 1;
            let s = &sticks[i as usize];
            let lo = dist_avx512(s, px[0], py[0]);
            let hi = dist_avx512(s, px[1], py[1]);
            let lo_smaller = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(lo, best[0]);
            let hi_smaller = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(hi, best[1]);
            best[0] = _mm512_mask_blend_pd(lo_smaller, best[0], lo);
            best[1] = _mm512_mask_blend_pd(hi_smaller, best[1], hi);
            if hi_smaller & 0x80 != 0 {
                last = i;
            }
        }
        _mm512_storeu_pd(roots.as_mut_ptr(), _mm512_sqrt_pd(best[0]));
        _mm512_storeu_pd(roots.as_mut_ptr().add(8), _mm512_sqrt_pd(best[1]));
        last
    }

    /// [`group_scalar`] on the AVX-512 tier: each cluster's coordinates
    /// are loaded once for the whole group.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn group_avx512<const N: usize>(
        frame: &PreparedFrame,
        group: &[[PreparedStick; 8]],
        hints: &mut [u32],
        roots: &mut [f64],
        totals: &mut [f64],
    ) {
        let sbs: [StickBounds; N] = std::array::from_fn(|g| StickBounds::new(&group[g]));
        let stride = frame.walk_len();
        for (c, hint) in hints.iter_mut().enumerate() {
            let (xs, ys) = frame.cluster(c);
            let px = [
                _mm512_loadu_pd(xs.as_ptr()),
                _mm512_loadu_pd(xs.as_ptr().add(8)),
            ];
            let py = [
                _mm512_loadu_pd(ys.as_ptr()),
                _mm512_loadu_pd(ys.as_ptr().add(8)),
            ];
            let bounds = frame.cluster_bounds(c);
            let mut next = *hint;
            for (g, (sticks, sb)) in group.iter().zip(&sbs).enumerate() {
                next = eq3_cluster_avx512(
                    px,
                    py,
                    bounds,
                    sticks,
                    sb,
                    *hint,
                    cluster_roots(roots, stride, g, c),
                );
            }
            *hint = next;
        }
        sum_in_raster_order::<N>(frame.slots(), roots, stride, totals);
    }

    /// [`eq3_cluster`] on the AVX2 tier: the 16 lanes as four 4-wide
    /// quarters, the strict-less update as compare + blendv (the
    /// compare's all-ones lanes drive the blend sign bit).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn eq3_cluster_avx2(
        px: [__m256d; 4],
        py: [__m256d; 4],
        bounds: ClusterBounds,
        sticks: &[PreparedStick; 8],
        sb: &StickBounds,
        hint: u32,
        roots: &mut [f64; CLUSTER],
    ) -> u32 {
        let seed = &sticks[hint as usize];
        let mut best = [
            dist_avx2(seed, px[0], py[0]),
            dist_avx2(seed, px[1], py[1]),
            dist_avx2(seed, px[2], py[2]),
            dist_avx2(seed, px[3], py[3]),
        ];
        let m = _mm256_max_pd(
            _mm256_max_pd(best[0], best[1]),
            _mm256_max_pd(best[2], best[3]),
        );
        let m2 = _mm_max_pd(_mm256_castpd256_pd128(m), _mm256_extractf128_pd::<1>(m));
        let upper = _mm_cvtsd_f64(_mm_max_sd(m2, _mm_unpackhi_pd(m2, m2)));
        let mut pending = stick_survivors_avx2(sb, bounds, upper * PRUNE_SLACK) & !(1u32 << hint);
        let mut last = hint;
        while pending != 0 {
            let i = pending.trailing_zeros();
            pending &= pending - 1;
            let s = &sticks[i as usize];
            let mut last_smaller = 0;
            for q in 0..4 {
                let v = dist_avx2(s, px[q], py[q]);
                let smaller = _mm256_cmp_pd::<_CMP_LT_OQ>(v, best[q]);
                best[q] = _mm256_blendv_pd(best[q], v, smaller);
                last_smaller = _mm256_movemask_pd(smaller);
            }
            if last_smaller & 0b1000 != 0 {
                last = i;
            }
        }
        for (q, b) in best.into_iter().enumerate() {
            _mm256_storeu_pd(roots.as_mut_ptr().add(4 * q), _mm256_sqrt_pd(b));
        }
        last
    }

    /// [`group_scalar`] on the AVX2 tier.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn group_avx2<const N: usize>(
        frame: &PreparedFrame,
        group: &[[PreparedStick; 8]],
        hints: &mut [u32],
        roots: &mut [f64],
        totals: &mut [f64],
    ) {
        let sbs: [StickBounds; N] = std::array::from_fn(|g| StickBounds::new(&group[g]));
        let stride = frame.walk_len();
        for (c, hint) in hints.iter_mut().enumerate() {
            let (xs, ys) = frame.cluster(c);
            let mut px = [_mm256_setzero_pd(); 4];
            let mut py = [_mm256_setzero_pd(); 4];
            for q in 0..4 {
                px[q] = _mm256_loadu_pd(xs.as_ptr().add(4 * q));
                py[q] = _mm256_loadu_pd(ys.as_ptr().add(4 * q));
            }
            let bounds = frame.cluster_bounds(c);
            let mut next = *hint;
            for (g, (sticks, sb)) in group.iter().zip(&sbs).enumerate() {
                next = eq3_cluster_avx2(
                    px,
                    py,
                    bounds,
                    sticks,
                    sb,
                    *hint,
                    cluster_roots(roots, stride, g, c),
                );
            }
            *hint = next;
        }
        sum_in_raster_order::<N>(frame.slots(), roots, stride, totals);
    }
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

    /// Sticks that survive a cluster's bound test: the portable form of
    /// the SIMD tiers' survivor mask, seeded by the hint stick.
    fn first_test_survivors(
        frame: &PreparedFrame,
        c: usize,
        sticks: &[PreparedStick; 8],
        hint: usize,
    ) -> usize {
        let (xs, ys) = frame.cluster(c);
        let seed = &sticks[hint];
        let degenerate = seed.len_sq <= f64::EPSILON;
        let upper = (0..CLUSTER)
            .map(|l| lane_scaled_distance_sq(seed, degenerate, xs[l], ys[l]))
            .fold(0.0, f64::max);
        let b = frame.cluster_bounds(c);
        sticks
            .iter()
            .enumerate()
            .filter(|&(i, s)| i != hint && box_lower_bound_sq(s, b) < upper * PRUNE_SLACK)
            .count()
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
