//! The pose-estimation GA problem: chromosome, crossover groups,
//! mutation, validity and initial-population strategies.
//!
//! The chromosome is the paper's `(x0, y0, ρ0, …, ρ7)` — represented
//! directly as a [`Pose`]. The two initialisation strategies are the
//! crux of the reproduction:
//!
//! * [`InitStrategy::FullRange`] — Shoji et al. \[5\]: the centre anywhere
//!   over the silhouette, every angle uniform in `[0°, 360°)`. Needs
//!   ~200 generations.
//! * [`InitStrategy::Temporal`] — the paper's contribution: the centre
//!   near the silhouette's geometric centre (`(x_c ± Δx, y_c ± Δy)`),
//!   each angle within `ρ_{l,k−1} ± Δρ_l` of the previous frame, with
//!   `Δρ_l` "determined by the nature of connected joints" (here: from
//!   the measured per-stick angular velocity of a real jump).

use crate::engine::Problem;
use crate::error::GaError;
use crate::fitness::{BatchScratch, SilhouetteFitness};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use slj_imgproc::distance::DistanceField;
use slj_imgproc::geometry::{Point2, Segment};
use slj_imgproc::mask::Mask;
use slj_imgproc::moments;
use slj_motion::model::{StickKind, GENE_COUNT, GENE_GROUPS, STICK_COUNT};
use slj_motion::{Angle, BodyDims, Pose};
use slj_video::Camera;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-stick half-range Δρ (degrees) for temporal initialisation,
/// paper order ρ0..ρ7. Derived from the maximum frame-to-frame angular
/// velocity of the synthesised jump at 10 fps (trunk ~20°/frame, arms up
/// to ~80°/frame during the swing), with ~25% headroom.
pub const DEFAULT_DELTA_ANGLES: [f64; STICK_COUNT] =
    [30.0, 20.0, 100.0, 45.0, 20.0, 85.0, 75.0, 35.0];

/// How the initial population is drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitStrategy {
    /// Uniform over the silhouette bounding box and all angles — the
    /// non-temporal baseline of \[5\].
    FullRange,
    /// Seeded from the previous frame's pose (the paper's method).
    ///
    /// A constant-velocity extrapolation seed was evaluated during
    /// development and *rejected*: at ~10 fps jump speeds the velocity
    /// estimate is noisy enough that motion-predicted seeds compound
    /// drift (see EXPERIMENTS.md, Fig. 7 notes).
    Temporal {
        /// The previous frame's estimated pose.
        previous: Pose,
        /// Half-width Δx = Δy of the centre rectangle around the
        /// silhouette centroid, metres.
        delta_center: f64,
        /// Per-stick half-range Δρ_l, degrees.
        delta_angles: [f64; STICK_COUNT],
    },
}

/// Genetic-operator parameters (the paper's Section 3 values as
/// defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoseProblemConfig {
    /// Per-group crossover probability ("we can set the crossover rate
    /// to 0.2").
    pub crossover_rate: f64,
    /// Per-group mutation probability ("mutation can be applied to each
    /// group with a probability 0.01").
    pub mutation_rate: f64,
    /// Mutation jitter half-range for angle genes, degrees.
    pub mutation_angle_step: f64,
    /// Mutation jitter half-range for centre genes, metres.
    pub mutation_center_step: f64,
    /// Eq. 3 subsampling stride (1 = every silhouette pixel).
    pub stride: usize,
    /// Fraction of per-stick axis samples that must fall inside the
    /// silhouette for a chromosome to be valid.
    pub validity_fraction: f64,
    /// Number of axis samples per stick for the validity test.
    pub validity_samples: usize,
}

impl Default for PoseProblemConfig {
    fn default() -> Self {
        PoseProblemConfig {
            crossover_rate: 0.2,
            mutation_rate: 0.01,
            mutation_angle_step: 20.0,
            mutation_center_step: 0.06,
            stride: 2,
            validity_fraction: 0.65,
            validity_samples: 5,
        }
    }
}

/// A fitness memo keyed on the exact bit pattern of the chromosome's
/// genes. The elitist GA re-scores every surviving elite each
/// generation, and low crossover/mutation rates mean many offspring are
/// verbatim copies of a parent — the memo returns their cached cost
/// instead of re-walking the silhouette. Purely an evaluation cache:
/// since Eq. 3 is a pure function of the genes, a hit returns exactly
/// what recomputation would, so memoisation preserves bit-identical GA
/// trajectories. A plain map behind a `RefCell`: the GA evaluates on
/// one thread.
#[derive(Clone, Default)]
pub struct FitnessMemo(RefCell<HashMap<[u64; GENE_COUNT], f64, BuildChromoHasher>>);

/// Multiply-xor hasher for chromosome keys (12 `u64` gene-bit words).
/// The default SipHash is keyed against adversarial collisions, which a
/// memo over trusted keys does not need; this folds each word in a few
/// cycles instead. Deterministic, and the map is only ever probed
/// (`get`/`insert`/`len`), so the table order can never leak into
/// results.
#[derive(Clone, Copy, Default)]
struct ChromoHasher(u64);

impl std::hash::Hasher for ChromoHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        // fxhash-style fold: rotate, mix, multiply by an odd constant
        // derived from pi. Good avalanche for full-width float bits.
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type BuildChromoHasher = std::hash::BuildHasherDefault<ChromoHasher>;

impl FitnessMemo {
    fn key(genome: &Pose) -> [u64; GENE_COUNT] {
        genome.to_genes().map(f64::to_bits)
    }

    fn get(&self, key: &[u64; GENE_COUNT]) -> Option<f64> {
        self.0.borrow().get(key).copied()
    }

    fn insert(&self, key: [u64; GENE_COUNT], fitness: f64) {
        self.0.borrow_mut().insert(key, fitness);
    }

    /// Number of distinct chromosomes cached.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// Empties the memo table, keeping its (large) hash-table storage.
    /// Called when a memo is recycled for a different silhouette: stale
    /// values can never leak because every key is gone.
    pub fn clear(&self) {
        self.0.borrow_mut().clear();
    }

    /// Whether the memo has cached anything yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for FitnessMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FitnessMemo")
            .field("entries", &self.len())
            .finish()
    }
}

/// Per-call scratch for the batched evaluation path: the memo-miss
/// work list, the deduplicated poses, their values, and the evaluator's
/// own [`BatchScratch`]. Kept on the problem so steady-state batch
/// evaluation performs no heap allocation (`tests/zero_alloc.rs`).
#[derive(Debug, Clone, Default)]
struct EvalScratch {
    /// `(chromosome bits, genome index)` for every genome the memo did
    /// not already answer. Sorted to group exact duplicates.
    pending: Vec<([u64; GENE_COUNT], u32)>,
    /// First occurrence of each distinct pending chromosome.
    poses: Vec<Pose>,
    /// One fitness value per entry of `poses`.
    values: Vec<f64>,
    /// Stick-set, prune-hint and roots storage for the cluster walk.
    fit: BatchScratch,
}

/// A problem's recyclable heavy state: the fitness memo map (a hash
/// table that grows to thousands of entries over a GA run) and
/// the batched-evaluation scratch. Reclaim it from a finished
/// problem with [`PoseProblem::reclaim`] and thread it into the next
/// frame's problem with [`PoseProblem::with_fitness_scratch`]; the memo
/// is cleared (not dropped) on adoption, so steady-state tracking
/// re-uses the table storage without any cross-silhouette leakage.
#[derive(Debug, Default)]
pub struct ProblemScratch {
    memo: FitnessMemo,
    eval: EvalScratch,
}

/// The validity test's constants, derived once per problem from the
/// config and the body dimensions (see `PoseProblem::is_valid`).
#[derive(Debug, Clone)]
struct ValidityRule {
    /// Where along each stick the samples lie, as
    /// [`Segment::sample_fractions`] of `validity_samples`.
    fractions: Vec<f64>,
    /// Per stick, the [`DistanceField::raw_limit`] of its thickness in
    /// pixels: a sample is inside when its stored chamfer value is
    /// below this.
    raw_limits: [u32; STICK_COUNT],
    /// Inside samples that make a genome valid: the smallest `k` with
    /// `k / total >= validity_fraction`.
    needed: usize,
    /// Outside samples a genome can have and still be valid:
    /// `total - needed`.
    spare: usize,
    /// Whether `is_valid` counts the samples in vector registers: the
    /// host has AVX-512F and AVX-512VL, and every pixel index of the
    /// distance field fits an `i32` gather offset.
    vector_count: bool,
}

impl ValidityRule {
    fn new(
        config: &PoseProblemConfig,
        dims: &BodyDims,
        camera: &Camera,
        field: &DistanceField,
    ) -> Result<Self, GaError> {
        let total = STICK_COUNT
            .checked_mul(config.validity_samples)
            .ok_or(GaError::BadConfig {
                what: "validity_samples is too large",
            })?;
        // The same f64 expression the fraction test evaluates; `k / total`
        // rises with `k`, and `k = total` gives 1.0, which every
        // `validity_fraction` in [0, 1] admits.
        let needed = (0..=total)
            .find(|&k| k as f64 / total as f64 >= config.validity_fraction)
            .expect("validity_fraction <= 1 is admitted at k = total");
        let mut raw_limits = [0; STICK_COUNT];
        for s in slj_motion::model::ALL_STICKS {
            raw_limits[s.index()] = DistanceField::raw_limit(stick_tolerance_px(dims, camera, s));
        }
        #[cfg(target_arch = "x86_64")]
        let vector_count = is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512vl")
            && field.width().saturating_mul(field.height()) <= i32::MAX as usize;
        #[cfg(not(target_arch = "x86_64"))]
        let vector_count = {
            let _ = field;
            false
        };
        Ok(ValidityRule {
            fractions: Segment::sample_fractions(config.validity_samples).collect(),
            raw_limits,
            needed,
            spare: total - needed,
            vector_count,
        })
    }
}

/// How close to the silhouette a stick's axis samples must lie to
/// count as inside: the stick's own thickness in pixels, at least one.
fn stick_tolerance_px(dims: &BodyDims, camera: &Camera, stick: StickKind) -> f64 {
    camera.length_to_pixels(dims.thickness(stick)).max(1.0)
}

/// The pose-estimation problem for one silhouette.
#[derive(Debug, Clone)]
pub struct PoseProblem {
    /// Shared Eq. 3 evaluator. `Arc` so the tracker's recovery ladder
    /// can rebuild the problem with a different init strategy without
    /// re-deriving the silhouette's point list and distance field.
    fitness: Arc<SilhouetteFitness>,
    validity: ValidityRule,
    dims: BodyDims,
    camera: Camera,
    init: InitStrategy,
    config: PoseProblemConfig,
    memo: FitnessMemo,
    /// Scratch for batched lane evaluation — a pure cache.
    scratch: RefCell<EvalScratch>,
    /// Silhouette centroid in world coordinates.
    centroid_world: Point2,
    /// Silhouette bounding box in world coordinates
    /// `(x_min, y_min, x_max, y_max)`.
    bbox_world: (f64, f64, f64, f64),
}

impl PoseProblem {
    /// Prepares the problem for a silhouette.
    ///
    /// # Errors
    ///
    /// Returns [`GaError::EmptySilhouette`] for a blank mask and
    /// [`GaError::BadConfig`] for out-of-range operator parameters.
    pub fn new(
        silhouette: &Mask,
        dims: &BodyDims,
        camera: &Camera,
        init: InitStrategy,
        config: PoseProblemConfig,
    ) -> Result<Self, GaError> {
        let fitness = Arc::new(SilhouetteFitness::new(
            silhouette,
            dims,
            camera,
            config.stride,
        )?);
        PoseProblem::with_fitness(silhouette, fitness, dims, camera, init, config)
    }

    /// Like [`PoseProblem::new`] but reusing an already-prepared
    /// evaluator for the same silhouette. This is the amortised path:
    /// the tracker's recovery ladder tries up to three init strategies
    /// per frame, and the Eq. 3 point list / distance field are
    /// identical across all of them.
    ///
    /// # Errors
    ///
    /// Returns [`GaError::EmptySilhouette`] for a blank mask and
    /// [`GaError::BadConfig`] for out-of-range operator parameters.
    pub fn with_fitness(
        silhouette: &Mask,
        fitness: Arc<SilhouetteFitness>,
        dims: &BodyDims,
        camera: &Camera,
        init: InitStrategy,
        config: PoseProblemConfig,
    ) -> Result<Self, GaError> {
        Self::with_fitness_scratch(
            silhouette,
            fitness,
            dims,
            camera,
            init,
            config,
            ProblemScratch::default(),
        )
    }

    /// Like [`PoseProblem::with_fitness`] but adopting recycled memo
    /// tables and scratch buffers from a previous problem (see
    /// [`ProblemScratch`]). The memo is cleared on entry, so results
    /// are identical to a fresh problem; only allocations differ.
    ///
    /// # Errors
    ///
    /// Returns [`GaError::EmptySilhouette`] for a blank mask and
    /// [`GaError::BadConfig`] for out-of-range operator parameters.
    pub fn with_fitness_scratch(
        silhouette: &Mask,
        fitness: Arc<SilhouetteFitness>,
        dims: &BodyDims,
        camera: &Camera,
        init: InitStrategy,
        config: PoseProblemConfig,
        scratch: ProblemScratch,
    ) -> Result<Self, GaError> {
        if !(0.0..=1.0).contains(&config.crossover_rate) {
            return Err(GaError::BadConfig {
                what: "crossover_rate must be in [0, 1]",
            });
        }
        if !(0.0..=1.0).contains(&config.mutation_rate) {
            return Err(GaError::BadConfig {
                what: "mutation_rate must be in [0, 1]",
            });
        }
        if !(0.0..=1.0).contains(&config.validity_fraction) {
            return Err(GaError::BadConfig {
                what: "validity_fraction must be in [0, 1]",
            });
        }
        if config.validity_samples == 0 {
            return Err(GaError::BadConfig {
                what: "validity_samples must be positive",
            });
        }
        let centroid_px = moments::centroid(silhouette).ok_or(GaError::EmptySilhouette)?;
        let bb = moments::bounding_box(silhouette).ok_or(GaError::EmptySilhouette)?;
        let tl = camera.image_to_world(Point2::new(bb.x_min as f64, bb.y_max as f64));
        let br = camera.image_to_world(Point2::new(bb.x_max as f64, bb.y_min as f64));
        let validity = ValidityRule::new(&config, dims, camera, fitness.distance_field())?;
        scratch.memo.clear();
        Ok(PoseProblem {
            fitness,
            validity,
            dims: dims.clone(),
            camera: *camera,
            init,
            config,
            memo: scratch.memo,
            scratch: RefCell::new(scratch.eval),
            centroid_world: camera.image_to_world(centroid_px),
            bbox_world: (tl.x, tl.y, br.x, br.y),
        })
    }

    /// Dismantles the problem into its recyclable heavy state for the
    /// next frame's [`PoseProblem::with_fitness_scratch`]. Read any
    /// memo statistics you need (e.g. `memo().len()`) *before* calling
    /// this.
    pub fn reclaim(self) -> ProblemScratch {
        ProblemScratch {
            memo: self.memo,
            eval: self.scratch.into_inner(),
        }
    }

    /// The silhouette centroid, world metres.
    pub fn centroid(&self) -> Point2 {
        self.centroid_world
    }

    /// The prepared Eq. 3 evaluator.
    pub fn fitness_fn(&self) -> &SilhouetteFitness {
        &self.fitness
    }

    /// A shareable handle to the Eq. 3 evaluator, for building further
    /// problems over the same silhouette without re-preparation.
    pub fn shared_fitness(&self) -> Arc<SilhouetteFitness> {
        Arc::clone(&self.fitness)
    }

    /// The fitness memo; its size is the problem's distinct-genome
    /// count.
    pub fn memo(&self) -> &FitnessMemo {
        &self.memo
    }

    /// The operator configuration.
    pub fn config(&self) -> &PoseProblemConfig {
        &self.config
    }

    /// Fraction of axis samples of `pose`'s sticks that lie inside (or
    /// within one stick-thickness of) the silhouette: the whole count
    /// in `f64` distances, kept as the oracle `is_valid` is tested
    /// against.
    #[cfg(test)]
    fn inside_fraction(&self, pose: &Pose) -> f64 {
        let segs = pose.segments(&self.dims);
        let n = self.config.validity_samples;
        let df = self.fitness.distance_field();
        let mut inside = 0usize;
        let mut total = 0usize;
        for (stick, seg) in segs.iter() {
            let s_px = self.camera.segment_to_image(seg);
            let tol = stick_tolerance_px(&self.dims, &self.camera, stick);
            for p in s_px.sample_iter(n) {
                total += 1;
                let (x, y) = (p.x.round(), p.y.round());
                if x >= 0.0
                    && y >= 0.0
                    && (x as usize) < df.width()
                    && (y as usize) < df.height()
                    && df.distance(x as usize, y as usize) <= tol
                {
                    inside += 1;
                }
            }
        }
        inside as f64 / total.max(1) as f64
    }

    /// The portable validity test: the sticks come from the lazy
    /// forward-kinematics walk, so only the sticks reached pay for
    /// their sine and cosine. A stick's samples are counted without
    /// branching, and the verdict is decided at stick boundaries:
    /// `inside >= needed` and `outside > spare` cannot both hold, since
    /// `needed + spare` is the sample count, and whichever holds first
    /// holds for the full count too.
    fn valid_by_walk(&self, genome: &Pose) -> bool {
        let rule = &self.validity;
        let df = self.fitness.distance_field();
        let (w, raw) = (df.width(), df.raw_values());
        let (mut inside, mut outside) = (0, 0);
        for (stick, seg) in genome.segment_iter(&self.dims) {
            let limit = rule.raw_limits[stick.index()];
            let s_px = self.camera.segment_to_image(seg);
            let mut stick_inside = 0;
            for &t in &rule.fractions {
                let pixel = df.pixel_at(s_px.a.lerp(s_px.b, t));
                stick_inside += usize::from(pixel.is_some_and(|(x, y)| raw[y * w + x] < limit));
            }
            inside += stick_inside;
            outside += rule.fractions.len() - stick_inside;
            if inside >= rule.needed {
                return true;
            }
            if outside > rule.spare {
                return false;
            }
        }
        // Not reached: after the last stick `inside + outside` is the
        // sample count, so one of the returns above has fired.
        inside >= rule.needed
    }

    /// The vector validity test: all eight sticks placed, then every
    /// sample counted without a data-dependent exit. Per-stick exits
    /// mispredict more than they save, so counting all samples is the
    /// faster test.
    ///
    /// # Safety
    ///
    /// The host must have AVX-512F and AVX-512VL, and every pixel index
    /// of the distance field must fit an `i32` (`ValidityRule::vector_count`).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vl")]
    unsafe fn valid_by_count(&self, genome: &Pose) -> bool {
        let mut ends = x86::StickEnds::default();
        for (stick, seg) in genome.segment_iter(&self.dims) {
            let s_px = self.camera.segment_to_image(seg);
            let i = stick.index();
            ends.ax[i] = s_px.a.x;
            ends.ay[i] = s_px.a.y;
            ends.bx[i] = s_px.b.x;
            ends.by[i] = s_px.b.y;
        }
        let rule = &self.validity;
        let inside = x86::inside_count(
            &ends,
            &rule.fractions,
            &rule.raw_limits,
            self.fitness.distance_field(),
        );
        inside as usize >= rule.needed
    }
}

/// The vector validity count. Each register holds one value per stick
/// (eight sticks, eight f64 lanes), and each loop step handles one
/// sample fraction for all sticks at once.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// Image-space stick endpoints, one stick per lane by paper index.
    #[derive(Default)]
    pub(super) struct StickEnds {
        pub(super) ax: [f64; STICK_COUNT],
        pub(super) ay: [f64; STICK_COUNT],
        pub(super) bx: [f64; STICK_COUNT],
        pub(super) by: [f64; STICK_COUNT],
    }

    /// The pixel index [`DistanceField::pixel_at`] gives each lane of
    /// `v`, for lanes inside `(−0.5, n − 0.5)`: the truncation, plus 1
    /// where the exact remainder `v − trunc(v)` is at least 0.5. Lanes
    /// outside that range hold garbage, and the caller masks them.
    #[target_feature(enable = "avx512f,avx512vl")]
    #[inline]
    unsafe fn round_lanes(v: __m512d) -> __m256i {
        let whole = _mm512_cvttpd_epi32(v);
        let rest = _mm512_sub_pd(v, _mm512_cvtepi32_pd(whole));
        let up = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(rest, _mm512_set1_pd(0.5));
        _mm256_mask_add_epi32(whole, up, whole, _mm256_set1_epi32(1))
    }

    /// Counts the samples inside the silhouette over all eight sticks:
    /// per fraction `f`, each stick's sample `a + (b − a)·f` (the
    /// separate multiply and add of `Point2::lerp`, no FMA), the
    /// in-frame mask `−0.5 < x < w − 0.5` and likewise for `y` (the
    /// range [`DistanceField::pixel_at`] accepts), a masked gather of
    /// the raw chamfer values, an unsigned compare with each stick's
    /// limit, and a popcount. The same samples, pixels and comparison
    /// as the lazy walk, so the same count.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) unsafe fn inside_count(
        ends: &StickEnds,
        fractions: &[f64],
        raw_limits: &[u32; STICK_COUNT],
        field: &DistanceField,
    ) -> u32 {
        let ax = _mm512_loadu_pd(ends.ax.as_ptr());
        let ay = _mm512_loadu_pd(ends.ay.as_ptr());
        let dx = _mm512_sub_pd(_mm512_loadu_pd(ends.bx.as_ptr()), ax);
        let dy = _mm512_sub_pd(_mm512_loadu_pd(ends.by.as_ptr()), ay);
        let low = _mm512_set1_pd(-0.5);
        let high_x = _mm512_set1_pd(field.width() as f64 - 0.5);
        let high_y = _mm512_set1_pd(field.height() as f64 - 0.5);
        let width = _mm256_set1_epi32(field.width() as i32);
        let limits = _mm256_loadu_si256(raw_limits.as_ptr().cast());
        let raw = field.raw_values().as_ptr().cast::<i32>();
        let mut inside = 0;
        for &f in fractions {
            let t = _mm512_set1_pd(f);
            let x = _mm512_add_pd(ax, _mm512_mul_pd(dx, t));
            let y = _mm512_add_pd(ay, _mm512_mul_pd(dy, t));
            // Ordered compares: a NaN lane is out of frame, as in
            // `pixel_at`.
            let in_frame = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(x, low)
                & _mm512_cmp_pd_mask::<_CMP_LT_OQ>(x, high_x)
                & _mm512_cmp_pd_mask::<_CMP_GT_OQ>(y, low)
                & _mm512_cmp_pd_mask::<_CMP_LT_OQ>(y, high_y);
            let index = _mm256_add_epi32(_mm256_mullo_epi32(round_lanes(y), width), round_lanes(x));
            let values =
                _mm256_mmask_i32gather_epi32::<4>(_mm256_setzero_si256(), in_frame, index, raw);
            inside += _mm256_mask_cmplt_epu32_mask(in_frame, values, limits).count_ones();
        }
        inside
    }
}

impl Problem for PoseProblem {
    type Genome = Pose;

    /// Eq. 3 plus the outside-silhouette penalty, as a batch of one:
    /// a single genome takes the same memo and the same cluster walk as
    /// a generation.
    fn fitness(&self, genome: &Pose) -> f64 {
        let mut out = [0.0];
        self.fitness_batch(std::slice::from_ref(genome), &mut out);
        out[0]
    }

    /// Batched evaluation: memo lookups first, then the distinct
    /// missing chromosomes are projected and walked against the
    /// prepared frame in one batched cluster walk. Each distinct
    /// chromosome is evaluated and memoised exactly once however often
    /// it repeats in the batch, so `memo.len()` — the observability
    /// layer's `unique_genomes` — counts exactly what per-genome
    /// `fitness` calls count. Values are bit-identical to per-genome
    /// `fitness` calls at any batch split (property-tested).
    fn fitness_batch(&self, genomes: &[Pose], out: &mut [f64]) {
        let scratch = &mut *self.scratch.borrow_mut();
        scratch.pending.clear();
        for (i, genome) in genomes.iter().enumerate() {
            let key = FitnessMemo::key(genome);
            if let Some(cached) = self.memo.get(&key) {
                out[i] = cached;
                continue;
            }
            scratch.pending.push((key, i as u32));
        }
        if scratch.pending.is_empty() {
            return;
        }
        // Group exact duplicates; ties keep the lowest genome index
        // first, so `poses` holds each distinct chromosome's first
        // occurrence (any occurrence has identical bits anyway).
        scratch.pending.sort_unstable();
        scratch.poses.clear();
        let mut previous: Option<&[u64; GENE_COUNT]> = None;
        for (key, idx) in &scratch.pending {
            if previous != Some(key) {
                scratch.poses.push(genomes[*idx as usize]);
                previous = Some(key);
            }
        }
        scratch.values.clear();
        scratch.values.resize(scratch.poses.len(), 0.0);
        self.fitness.evaluate_batch(
            &scratch.poses,
            &self.dims,
            &mut scratch.values,
            &mut scratch.fit,
        );
        // Scatter each group's value to every duplicate and memoise the
        // chromosome once.
        let mut unique = 0usize;
        let mut start = 0usize;
        while start < scratch.pending.len() {
            let key = scratch.pending[start].0;
            let value = scratch.values[unique];
            let mut end = start;
            while end < scratch.pending.len() && scratch.pending[end].0 == key {
                out[scratch.pending[end].1 as usize] = value;
                end += 1;
            }
            self.memo.insert(key, value);
            unique += 1;
            start = end;
        }
    }

    fn random_genome(&self, rng: &mut StdRng) -> Pose {
        match &self.init {
            InitStrategy::FullRange => {
                let (x0, y0, x1, y1) = self.bbox_world;
                let center = Point2::new(
                    if x1 > x0 { rng.gen_range(x0..=x1) } else { x0 },
                    if y1 > y0 { rng.gen_range(y0..=y1) } else { y0 },
                );
                let mut angles = [Angle::UP; STICK_COUNT];
                for a in angles.iter_mut() {
                    *a = Angle::from_degrees(rng.gen_range(0.0..360.0));
                }
                Pose::new(center, angles)
            }
            InitStrategy::Temporal {
                previous,
                delta_center,
                delta_angles,
            } => {
                let dc = *delta_center;
                let base = previous;
                // The paper samples the centre around the silhouette's
                // geometric centre; when segmentation leaves ghost blobs
                // the centroid can sit in empty space, so half the
                // population is anchored on the base pose's centre
                // instead — whichever anchor matches the real body wins
                // through fitness.
                let anchor = if rng.gen_bool(0.5) {
                    self.centroid_world
                } else {
                    base.center
                };
                let center = Point2::new(
                    anchor.x + rng.gen_range(-dc..=dc),
                    anchor.y + rng.gen_range(-dc..=dc),
                );
                let mut angles = base.angles;
                for (l, a) in angles.iter_mut().enumerate() {
                    let d = delta_angles[l];
                    *a = *a + rng.gen_range(-d..=d);
                }
                Pose::new(center, angles)
            }
        }
    }

    fn crossover(&self, a: &Pose, b: &Pose, rng: &mut StdRng) -> (Pose, Pose) {
        let mut g1 = a.to_genes();
        let mut g2 = b.to_genes();
        for group in GENE_GROUPS {
            if rng.gen_bool(self.config.crossover_rate) {
                for &i in group {
                    g1.swap_with_slice_at(&mut g2, i);
                }
            }
        }
        (
            Pose::from_genes(&g1).expect("gene swap preserves validity"),
            Pose::from_genes(&g2).expect("gene swap preserves validity"),
        )
    }

    fn mutate(&self, genome: &mut Pose, rng: &mut StdRng) {
        let mut genes = genome.to_genes();
        for group in GENE_GROUPS {
            if rng.gen_bool(self.config.mutation_rate) {
                for &i in group {
                    if i < 2 {
                        let s = self.config.mutation_center_step;
                        genes[i] += rng.gen_range(-s..=s);
                    } else {
                        let s = self.config.mutation_angle_step;
                        genes[i] += rng.gen_range(-s..=s);
                    }
                }
            }
        }
        *genome = Pose::from_genes(&genes).expect("mutation keeps genes finite");
    }

    /// The paper removes chromosomes "not in the boundary of the
    /// silhouette": at least `validity_fraction` of the sticks' axis
    /// samples must lie within the stick's own thickness of a
    /// silhouette pixel, which tolerates the mask erosion and holes a
    /// real pipeline produces.
    ///
    /// The samples are `Segment::sample_iter`'s, with their fractions
    /// computed once per problem. Each maps to the pixel
    /// [`DistanceField::pixel_at`] gives (exactly `f64::round`'s
    /// pixel), whose raw chamfer value is compared with the stick's
    /// integer limit. With AVX-512 the test places all eight sticks and
    /// counts every sample in vector registers (`valid_by_count`);
    /// elsewhere it walks the sticks lazily and decides at stick
    /// boundaries (`valid_by_walk`). Both equal the full fraction test
    /// (property-tested against `inside_fraction`).
    fn is_valid(&self, genome: &Pose) -> bool {
        if self.validity.needed == 0 {
            return true;
        }
        #[cfg(target_arch = "x86_64")]
        if self.validity.vector_count {
            // SAFETY: `vector_count` holds only when the host has
            // AVX-512F and AVX-512VL and every pixel index fits an i32.
            return unsafe { self.valid_by_count(genome) };
        }
        self.valid_by_walk(genome)
    }

    fn seeds(&self) -> Vec<Pose> {
        match &self.init {
            InitStrategy::FullRange => Vec::new(),
            InitStrategy::Temporal { previous, .. } => {
                // The previous pose itself, and the previous pose
                // recentred on the silhouette's geometric centre (the
                // paper's explicit first move).
                vec![*previous, previous.with_center(self.centroid_world)]
            }
        }
    }
}

/// Helper: swap a single index between two gene arrays. Extension trait
/// keeps the call site readable inside `crossover`.
trait SwapAt {
    fn swap_with_slice_at(&mut self, other: &mut Self, index: usize);
}

impl SwapAt for [f64; GENE_COUNT] {
    fn swap_with_slice_at(&mut self, other: &mut Self, index: usize) {
        std::mem::swap(&mut self[index], &mut other[index]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use slj_video::render::render_silhouette;

    fn setup() -> (Mask, BodyDims, Camera, Pose) {
        let dims = BodyDims::default();
        let camera = Camera::default();
        let mut pose = Pose::standing(&dims);
        pose.center.x = 0.6;
        let sil = render_silhouette(&pose, &dims, &camera);
        (sil, dims, camera, pose)
    }

    fn temporal(previous: Pose) -> InitStrategy {
        InitStrategy::Temporal {
            previous,
            delta_center: 0.1,
            delta_angles: DEFAULT_DELTA_ANGLES,
        }
    }

    #[test]
    fn true_pose_is_valid() {
        let (sil, dims, camera, pose) = setup();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            temporal(pose),
            PoseProblemConfig::default(),
        )
        .unwrap();
        assert!(p.is_valid(&pose));
        assert!(p.inside_fraction(&pose) > 0.95);
    }

    #[test]
    fn displaced_pose_is_invalid() {
        let (sil, dims, camera, pose) = setup();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            temporal(pose),
            PoseProblemConfig::default(),
        )
        .unwrap();
        let mut far = pose;
        far.center.x += 0.8;
        assert!(!p.is_valid(&far));
        assert!(p.inside_fraction(&far) < 0.3);
    }

    /// Default stick lengths rounded to whole pixels of a 64 px/m
    /// camera (so axis samples land on exact half-pixel coordinates)
    /// and every half-thickness replaced. Built by deserialisation:
    /// `BodyDims` has no constructor that takes thicknesses.
    fn grid_dims(thickness: f64) -> BodyDims {
        let base = BodyDims::default();
        let lengths = slj_motion::model::ALL_STICKS
            .map(|s| serde::Value::F64((base.length(s) * 64.0).round() / 64.0));
        let value = serde::Value::Object(vec![
            ("height".into(), serde::Value::F64(base.height())),
            ("lengths".into(), serde::Value::Array(lengths.to_vec())),
            (
                "thicknesses".into(),
                serde::Value::Array(vec![serde::Value::F64(thickness); STICK_COUNT]),
            ),
        ]);
        serde::Deserialize::from_value(&value).expect("dims deserialise")
    }

    /// `is_valid`'s verdict, then every validity tier this host
    /// supports called directly: the lazy walk always, the vector count
    /// with AVX-512F and AVX-512VL.
    fn tier_verdicts(p: &PoseProblem, pose: &Pose) -> Vec<(&'static str, bool)> {
        let mut verdicts = vec![
            ("is_valid", p.is_valid(pose)),
            ("lazy walk", p.valid_by_walk(pose)),
        ];
        #[cfg(target_arch = "x86_64")]
        if p.validity.vector_count {
            // SAFETY: `vector_count` holds only when the host has the
            // features and the frame's pixel indices fit an i32.
            verdicts.push(("vector count", unsafe { p.valid_by_count(pose) }));
        }
        verdicts
    }

    /// The vector count on hand-picked samples: every pixel-rounding
    /// tie (`k + ½`), the values one ulp either side of the frame's
    /// edges, ±0, NaN, ±inf and ±1e300, over a ragged silhouette whose
    /// neighbouring pixels differ, against eight stick limits from zero
    /// to the blank-field sentinel. The count must equal `pixel_at`'s.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_count_matches_pixel_at_on_ties_and_edges() {
        if !(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl")) {
            return;
        }
        let mask = Mask::from_fn(7, 5, |x, y| (x * 3 + y * 5) % 4 == 0);
        let field = DistanceField::new(&mask);
        let below = |v: f64| f64::from_bits(v.to_bits() - 1);
        let mut coords = vec![
            -0.5,
            below(-0.5),
            -0.0,
            0.0,
            below(0.5),
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
        ];
        coords.extend((0..8).map(|k| k as f64 + 0.5));
        coords.extend([below(4.5), below(6.5), 7.0]);
        let limits =
            [0.0, 0.3, 1.0, 1.4, 2.0, 3.0, 1e9, f64::INFINITY].map(DistanceField::raw_limit);
        let raw = field.raw_values();
        for &x in &coords {
            for &y in &coords {
                // Sticks of zero length, so every fraction samples the
                // point itself; one limit per stick lane.
                let mut ends = x86::StickEnds::default();
                for i in 0..STICK_COUNT {
                    ends.ax[i] = x;
                    ends.bx[i] = x;
                    ends.ay[i] = y;
                    ends.by[i] = y;
                }
                let fractions = [0.0, 0.5, 1.0];
                let p = Point2::new(x, y);
                let expected = limits
                    .iter()
                    .filter(|&&limit| {
                        field
                            .pixel_at(p.lerp(p, 0.5))
                            .is_some_and(|(px, py)| raw[py * field.width() + px] < limit)
                    })
                    .count() as u32
                    * fractions.len() as u32;
                // SAFETY: the features were detected above.
                let got = unsafe { x86::inside_count(&ends, &fractions, &limits, &field) };
                assert_eq!(got, expected, "sample ({x:e}, {y:e})");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Every validity tier returns the full fraction test's verdict
        /// for poses reaching off every edge of the frame, with samples
        /// on exact half-pixel coordinates (where `round` breaks ties)
        /// or off the grid, any sample count, the extreme fractions, and
        /// thicknesses from zero and NaN up to infinity.
        #[test]
        fn early_exit_validity_matches_fraction_test(
            body_x in 0.0f64..2.5,
            cell_x in (0u8..3, -3i32..3, -40i32..200),
            cell_y in (0u8..3, -3i32..3, -40i32..160),
            jitter in (-0.5f64..0.5, -0.5f64..0.5, proptest::prelude::any::<bool>()),
            angles in proptest::collection::vec(
                (0u32..4, 0.0f64..360.0, proptest::prelude::any::<bool>()),
                STICK_COUNT,
            ),
            samples in 1usize..=8,
            fraction in (0u8..4, 0.0f64..1.0),
            thickness in 0usize..8,
        ) {
            let camera = Camera::new(160, 120, 64.0, 0.0, 110.0);
            let mut standing = Pose::standing(&BodyDims::default());
            standing.center.x = body_x;
            let sil = render_silhouette(&standing, &BodyDims::default(), &camera);
            let thickness = [0.0, f64::NAN, 1e-9, 0.02, 0.05, 0.3, 1e300, f64::INFINITY][thickness];
            let dims = grid_dims(thickness);
            let validity_fraction = match fraction.0 {
                0 => 0.0,
                1 => 1.0,
                _ => fraction.1,
            };
            let config = PoseProblemConfig {
                validity_fraction,
                validity_samples: samples,
                ..PoseProblemConfig::default()
            };
            let p = PoseProblem::new(&sil, &dims, &camera, InitStrategy::FullRange, config)
                .unwrap();
            // The pose's centre cell, often within a few pixels of an
            // edge, where rounding decides whether a sample is in frame.
            let near_edge = |(pick, offset, anywhere): (u8, i32, i32), size: i32| match pick {
                0 => offset,
                1 => size + offset,
                _ => anywhere,
            };
            let cell = (near_edge(cell_x, 160), near_edge(cell_y, 120));
            // Image (cell + ½) in world metres; exact on a 64 px/m camera.
            let (mut px, mut py) = (cell.0 as f64 + 0.5, cell.1 as f64 + 0.5);
            if jitter.2 {
                px += jitter.0;
                py += jitter.1;
            }
            let center = Point2::new(px / 64.0, (110.0 - py) / 64.0);
            let mut pose = Pose::new(center, [Angle::UP; STICK_COUNT]);
            for (a, &(quarter, free, on_grid)) in pose.angles.iter_mut().zip(&angles) {
                *a = Angle::from_degrees(if on_grid { 90.0 * quarter as f64 } else { free });
            }
            let fraction = p.inside_fraction(&pose);
            for (tier, verdict) in tier_verdicts(&p, &pose) {
                proptest::prop_assert_eq!(verdict, fraction >= validity_fraction, "{}", tier);
            }
            // At the pose's own fraction and the next one up, a single
            // sample counted differently flips the verdict.
            let total = (STICK_COUNT * samples) as f64;
            let inside = (fraction * total).round();
            for k in [inside, inside + 1.0].into_iter().filter(|&k| k <= total) {
                let at_k = PoseProblemConfig {
                    validity_fraction: k / total,
                    ..config
                };
                let q = PoseProblem::with_fitness(
                    &sil,
                    p.shared_fitness(),
                    &dims,
                    &camera,
                    InitStrategy::FullRange,
                    at_k,
                )
                .unwrap();
                for (tier, verdict) in tier_verdicts(&q, &pose) {
                    proptest::prop_assert_eq!(verdict, fraction >= k / total, "{}", tier);
                }
            }
        }
    }

    #[test]
    fn centroid_is_near_trunk_center() {
        let (sil, dims, camera, pose) = setup();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            temporal(pose),
            PoseProblemConfig::default(),
        )
        .unwrap();
        assert!(p.centroid().distance(pose.center) < 0.25);
    }

    #[test]
    fn temporal_samples_stay_in_deltas() {
        let (sil, dims, camera, pose) = setup();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            temporal(pose),
            PoseProblemConfig::default(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let g = p.random_genome(&mut rng);
            // Centre is within the delta box of one of the two anchors
            // (silhouette centroid or previous centre).
            let near = |a: slj_imgproc::geometry::Point2| {
                (g.center.x - a.x).abs() <= 0.1 + 1e-9 && (g.center.y - a.y).abs() <= 0.1 + 1e-9
            };
            assert!(near(p.centroid()) || near(pose.center));
            for (l, ((ga, pa), limit)) in g
                .angles
                .iter()
                .zip(&pose.angles)
                .zip(DEFAULT_DELTA_ANGLES)
                .enumerate()
            {
                let d = ga.distance(*pa);
                assert!(d <= limit + 1e-9, "stick {l} moved {d}° (limit {limit})");
            }
        }
    }

    #[test]
    fn full_range_samples_cover_bbox() {
        let (sil, dims, camera, pose) = setup();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            InitStrategy::FullRange,
            PoseProblemConfig::default(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut spread_x = (f64::INFINITY, f64::NEG_INFINITY);
        for _ in 0..200 {
            let g = p.random_genome(&mut rng);
            spread_x.0 = spread_x.0.min(g.center.x);
            spread_x.1 = spread_x.1.max(g.center.x);
        }
        // The standing silhouette bbox is narrow; samples span it.
        assert!(spread_x.1 - spread_x.0 > 0.1);
        let _ = pose;
    }

    #[test]
    fn crossover_swaps_whole_groups() {
        let (sil, dims, camera, pose) = setup();
        let cfg = PoseProblemConfig {
            crossover_rate: 1.0, // always swap every group
            ..PoseProblemConfig::default()
        };
        let p = PoseProblem::new(&sil, &dims, &camera, temporal(pose), cfg).unwrap();
        let a = pose;
        let mut b = pose;
        b.center.x += 0.05;
        for l in 0..STICK_COUNT {
            b.angles[l] = b.angles[l] + 10.0;
        }
        let mut rng = StdRng::seed_from_u64(3);
        let (c1, c2) = p.crossover(&a, &b, &mut rng);
        // With rate 1 every group swaps: children are the parents
        // exchanged.
        assert_eq!(c1.to_genes(), b.to_genes());
        assert_eq!(c2.to_genes(), a.to_genes());
    }

    #[test]
    fn crossover_rate_zero_is_identity() {
        let (sil, dims, camera, pose) = setup();
        let cfg = PoseProblemConfig {
            crossover_rate: 0.0,
            ..PoseProblemConfig::default()
        };
        let p = PoseProblem::new(&sil, &dims, &camera, temporal(pose), cfg).unwrap();
        let mut b = pose;
        b.center.y += 0.1;
        let mut rng = StdRng::seed_from_u64(4);
        let (c1, c2) = p.crossover(&pose, &b, &mut rng);
        assert_eq!(c1.to_genes(), pose.to_genes());
        assert_eq!(c2.to_genes(), b.to_genes());
    }

    #[test]
    fn crossover_preserves_gene_multiset_per_group() {
        let (sil, dims, camera, pose) = setup();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            temporal(pose),
            PoseProblemConfig::default(),
        )
        .unwrap();
        let mut b = pose;
        b.center.x += 0.07;
        for l in 0..STICK_COUNT {
            b.angles[l] = b.angles[l] + (l as f64 + 1.0) * 7.0;
        }
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let (c1, c2) = p.crossover(&pose, &b, &mut rng);
            let (g1, g2) = (c1.to_genes(), c2.to_genes());
            let (pa, pb) = (pose.to_genes(), b.to_genes());
            for group in GENE_GROUPS {
                // Each group in the children comes wholesale from one
                // parent.
                let from_a1 = group.iter().all(|&i| g1[i] == pa[i]);
                let from_b1 = group.iter().all(|&i| g1[i] == pb[i]);
                assert!(from_a1 || from_b1, "group {group:?} mixed in child 1");
                let from_a2 = group.iter().all(|&i| g2[i] == pa[i]);
                let from_b2 = group.iter().all(|&i| g2[i] == pb[i]);
                assert!(from_a2 || from_b2, "group {group:?} mixed in child 2");
                // And the two children together hold both parents' genes.
                assert!(
                    (from_a1 && from_b2) || (from_b1 && from_a2),
                    "group {group:?} lost"
                );
            }
        }
    }

    #[test]
    fn mutation_rate_zero_is_identity() {
        let (sil, dims, camera, pose) = setup();
        let cfg = PoseProblemConfig {
            mutation_rate: 0.0,
            ..PoseProblemConfig::default()
        };
        let p = PoseProblem::new(&sil, &dims, &camera, temporal(pose), cfg).unwrap();
        let mut g = pose;
        let mut rng = StdRng::seed_from_u64(6);
        p.mutate(&mut g, &mut rng);
        assert_eq!(g.to_genes(), pose.to_genes());
    }

    #[test]
    fn mutation_jitter_is_bounded() {
        let (sil, dims, camera, pose) = setup();
        let cfg = PoseProblemConfig {
            mutation_rate: 1.0,
            mutation_angle_step: 5.0,
            mutation_center_step: 0.02,
            ..PoseProblemConfig::default()
        };
        let p = PoseProblem::new(&sil, &dims, &camera, temporal(pose), cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let mut g = pose;
            p.mutate(&mut g, &mut rng);
            assert!((g.center.x - pose.center.x).abs() <= 0.02 + 1e-9);
            let e = g.error_against(&pose);
            assert!(e.max_angle_error() <= 5.0 + 1e-9);
        }
    }

    #[test]
    fn seeds_include_previous_pose() {
        let (sil, dims, camera, pose) = setup();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            temporal(pose),
            PoseProblemConfig::default(),
        )
        .unwrap();
        let seeds = p.seeds();
        assert_eq!(seeds.len(), 2);
        assert_eq!(seeds[0].to_genes(), pose.to_genes());
        assert!(seeds[1].center.distance(p.centroid()) < 1e-9);
        // Full-range has no seeds.
        let p2 = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            InitStrategy::FullRange,
            PoseProblemConfig::default(),
        )
        .unwrap();
        assert!(p2.seeds().is_empty());
    }

    #[test]
    fn bad_configs_rejected() {
        let (sil, dims, camera, pose) = setup();
        for cfg in [
            PoseProblemConfig {
                crossover_rate: 1.5,
                ..PoseProblemConfig::default()
            },
            PoseProblemConfig {
                mutation_rate: -0.1,
                ..PoseProblemConfig::default()
            },
            PoseProblemConfig {
                validity_fraction: 2.0,
                ..PoseProblemConfig::default()
            },
            PoseProblemConfig {
                validity_samples: 0,
                ..PoseProblemConfig::default()
            },
        ] {
            assert!(matches!(
                PoseProblem::new(&sil, &dims, &camera, temporal(pose), cfg),
                Err(GaError::BadConfig { .. })
            ));
        }
    }

    #[test]
    fn memo_caches_exact_values() {
        let (sil, dims, camera, pose) = setup();
        let p = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            temporal(pose),
            PoseProblemConfig::default(),
        )
        .unwrap();
        let fresh = p.fitness_fn().evaluate(&pose, &dims);
        let first = p.fitness(&pose);
        let second = p.fitness(&pose);
        assert_eq!(first, fresh);
        assert_eq!(second, fresh);
        assert_eq!(p.memo().len(), 1);
    }

    #[test]
    fn memo_distinguishes_mutated_chromosomes() {
        let (sil, dims, camera, pose) = setup();
        let cfg = PoseProblemConfig {
            mutation_rate: 1.0,
            ..PoseProblemConfig::default()
        };
        let p = PoseProblem::new(&sil, &dims, &camera, temporal(pose), cfg).unwrap();
        let before = p.fitness(&pose);
        let mut mutated = pose;
        let mut rng = StdRng::seed_from_u64(11);
        p.mutate(&mut mutated, &mut rng);
        assert_ne!(mutated.to_genes(), pose.to_genes());
        // The mutated chromosome is a distinct key: its cached value is
        // exactly a fresh evaluation, not the parent's stale one.
        let after = p.fitness(&mutated);
        assert_eq!(after, p.fitness_fn().evaluate(&mutated, &dims));
        assert_eq!(p.fitness(&pose), before);
        assert_eq!(p.memo().len(), 2);
    }

    #[test]
    fn with_fitness_reuses_prepared_evaluator() {
        let (sil, dims, camera, pose) = setup();
        let base = PoseProblem::new(
            &sil,
            &dims,
            &camera,
            temporal(pose),
            PoseProblemConfig::default(),
        )
        .unwrap();
        let rebuilt = PoseProblem::with_fitness(
            &sil,
            base.shared_fitness(),
            &dims,
            &camera,
            InitStrategy::FullRange,
            PoseProblemConfig::default(),
        )
        .unwrap();
        assert!(Arc::ptr_eq(
            &base.shared_fitness(),
            &rebuilt.shared_fitness()
        ));
        assert_eq!(base.fitness(&pose), rebuilt.fitness(&pose));
        // The rebuilt problem still validates its own config.
        assert!(matches!(
            PoseProblem::with_fitness(
                &sil,
                base.shared_fitness(),
                &dims,
                &camera,
                InitStrategy::FullRange,
                PoseProblemConfig {
                    validity_samples: 0,
                    ..PoseProblemConfig::default()
                },
            ),
            Err(GaError::BadConfig { .. })
        ));
    }

    #[test]
    fn blank_silhouette_rejected() {
        let (_, dims, camera, pose) = setup();
        let blank = Mask::new(camera.width, camera.height);
        assert!(matches!(
            PoseProblem::new(
                &blank,
                &dims,
                &camera,
                temporal(pose),
                PoseProblemConfig::default()
            ),
            Err(GaError::EmptySilhouette)
        ));
    }
}
