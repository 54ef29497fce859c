//! Frame-to-frame pose tracking with temporal seeding (the paper's
//! modification of \[5\] "for video sequences").
//!
//! The caller supplies the first frame's pose — the paper has "a trained
//! person … draw the stick figure for the human object in the first
//! frame" — and the tracker estimates every later frame by running the
//! GA with the previous frame's estimate as the seed of the initial
//! population.
//!
//! When a frame resists the temporal seed — the silhouette jumped
//! further than the Δ windows allow, or segmentation handed back debris
//! — the tracker climbs a [`RecoveryPolicy`] escalation ladder instead
//! of silently freezing: retry the GA with widened Δ-centre/Δρ windows,
//! then cold-restart from the silhouette centroid, then interpolate the
//! pose kinematically from the neighbouring healthy estimates, and only
//! then carry the previous pose over verbatim. Each frame's
//! [`TrackResult`] records which rung fired in
//! [`TrackResult::recovery`].

use crate::engine::{evolve, rank_fitness, GaConfig, GaRun};
use crate::error::GaError;
use crate::fitness::{PruneStats, SilhouetteFitness};
use crate::pose_problem::{InitStrategy, PoseProblem, PoseProblemConfig, DEFAULT_DELTA_ANGLES};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use slj_imgproc::geometry::Point2;
use slj_imgproc::mask::Mask;
use slj_imgproc::moments;
use slj_motion::model::STICK_COUNT;
use slj_motion::{BodyDims, Pose, PoseSeq};
use slj_runtime::Parallelism;
use slj_video::Camera;
use std::sync::Arc;

/// Tracker configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackerConfig {
    /// GA engine parameters used per frame.
    pub ga: GaConfig,
    /// Genetic-operator parameters.
    pub problem: PoseProblemConfig,
    /// Half-width of the centre rectangle around the silhouette
    /// centroid, metres.
    pub delta_center: f64,
    /// Per-stick half-range Δρ_l, degrees.
    pub delta_angles: [f64; STICK_COUNT],
    /// Master seed; frame k uses `seed + k` so runs are reproducible
    /// and frames are decorrelated.
    pub seed: u64,
    /// What to do when a frame resists the temporal seed.
    pub recovery: RecoveryPolicy,
    /// Ignored: tracking runs on the caller's thread. Kept only because
    /// perf_stack's layer replay (`stackbench/src/layers.rs:202`) still
    /// sets it.
    pub parallelism: Parallelism,
}

/// The escalation ladder for frames the temporal seed cannot explain.
///
/// Rungs fire in order; a rung is skipped when its precondition fails
/// (e.g. a blank silhouette has no centroid to cold-restart from):
///
/// 1. **Temporal** (not a recovery) — the paper's seeding, as before.
/// 2. **Widened retry** — same seeding with Δ-centre and Δρ scaled by
///    [`RecoveryPolicy::widen_factor`]: catches motion that outran the
///    windows (dropped frames double the apparent velocity).
/// 3. **Cold restart** — the previous pose re-centred on the silhouette
///    centroid with widened windows: catches a body that teleported
///    (camera jitter, frames lost in a burst).
/// 4. **Kinematic interpolation** — when no GA candidate exists at all
///    (blank or unfittable silhouette), continue the trunk centre
///    through the gap at damped constant velocity from the two most
///    recent accepted estimates, keeping the joint angles of the last
///    estimate.
/// 5. **Carry over** — the previous estimate verbatim, flagged; the
///    rung of last resort (frame 1 has no penultimate estimate to
///    interpolate from, and the policy may disable interpolation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Scale applied to `delta_center` and `delta_angles` on the
    /// widened retry and the cold restart (angles cap at 180°).
    pub widen_factor: f64,
    /// Fitness above which an estimate is distrusted and the ladder
    /// escalates; `None` escalates only on hard failures (no valid
    /// initial population).
    pub max_acceptable_fitness: Option<f64>,
    /// Whether the cold-restart rung is attempted at all.
    pub cold_restart: bool,
    /// Whether unfittable frames interpolate the pose kinematically
    /// from the neighbouring accepted estimates instead of carrying the
    /// previous pose over verbatim.
    pub interpolate: bool,
    /// Per-gap-frame damping λ applied to the centre velocity on the
    /// interpolation rung: each consecutive unusable frame advances the
    /// trunk centre by λ times the previous step, so a long gap
    /// asymptotically coasts to a stop instead of diverging. 1.0 is
    /// undamped constant velocity; 0.0 degenerates to carry-over.
    /// The default (0.9) was chosen by the `slj-eval` fault-matrix
    /// sweep (see EXPERIMENTS.md): real jumps decelerate into landing,
    /// so a mild damp beats both extremes.
    pub interpolate_damping: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            widen_factor: 2.0,
            max_acceptable_fitness: Some(3.0),
            cold_restart: true,
            interpolate: true,
            interpolate_damping: 0.9,
        }
    }
}

impl RecoveryPolicy {
    /// A policy that never retries: hard failures carry over
    /// immediately (the pre-ladder behaviour).
    pub fn none() -> Self {
        RecoveryPolicy {
            widen_factor: 1.0,
            max_acceptable_fitness: None,
            cold_restart: false,
            interpolate: false,
            interpolate_damping: 0.9,
        }
    }

    fn accepts(&self, fitness: f64) -> bool {
        self.max_acceptable_fitness.is_none_or(|t| fitness <= t)
    }
}

/// Which rung of the recovery ladder produced a frame's estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RecoveryAction {
    /// Plain temporal seeding worked (the normal case).
    #[default]
    None,
    /// The widened-window retry produced the estimate.
    WidenedSearch,
    /// The cold restart from the silhouette centroid produced the
    /// estimate.
    ColdRestart,
    /// No GA candidate existed; the trunk centre was extrapolated at
    /// damped constant velocity from the two most recent accepted
    /// estimates, with the last estimate's joint angles kept.
    Interpolated,
    /// Every rung failed; the previous pose was carried over.
    CarriedOver,
}

impl std::fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RecoveryAction::None => "tracked",
            RecoveryAction::WidenedSearch => "widened search",
            RecoveryAction::ColdRestart => "cold restart",
            RecoveryAction::Interpolated => "interpolated",
            RecoveryAction::CarriedOver => "carried over",
        };
        f.write_str(s)
    }
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            ga: GaConfig {
                population_size: 100,
                max_generations: 40,
                patience: Some(10),
                ..GaConfig::default()
            },
            problem: PoseProblemConfig::default(),
            delta_center: 0.12,
            delta_angles: DEFAULT_DELTA_ANGLES,
            seed: 0x51_1A_B0,
            recovery: RecoveryPolicy::default(),
            parallelism: Parallelism::Serial,
        }
    }
}

impl TrackerConfig {
    /// A reduced-budget configuration for tests and quick demos
    /// (smaller population, coarser fitness sampling).
    pub fn fast() -> Self {
        TrackerConfig {
            ga: GaConfig {
                population_size: 40,
                max_generations: 15,
                patience: Some(6),
                ..GaConfig::default()
            },
            problem: PoseProblemConfig {
                stride: 4,
                ..PoseProblemConfig::default()
            },
            ..TrackerConfig::default()
        }
    }
}

/// The estimate for one frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrackResult {
    /// The estimated pose.
    pub pose: Pose,
    /// Its Eq. 3 fitness (lower = better); infinite when the frame was
    /// carried over.
    pub fitness: f64,
    /// Generation at which the best chromosome first appeared (0 = in
    /// the initial population).
    pub generation_of_best: usize,
    /// Generations the GA ran for this frame.
    pub generations_run: usize,
    /// First generation whose best was within 10% of the frame's final
    /// best fitness (0 = the seeded initial population was already
    /// there).
    pub generations_to_near_best: usize,
    /// Fitness evaluations spent on this frame.
    pub evaluations: usize,
    /// Which rung of the recovery ladder produced this estimate.
    pub recovery: RecoveryAction,
    /// Best fitness after each GA generation for this frame (index 0 =
    /// the seeded initial population). Empty for frame 0 and carried
    /// frames.
    pub history: Vec<f64>,
    /// Recovery-ladder rungs that completed a GA run for this frame (0
    /// for frame 0 and synthesised frames; 1 when the temporal seed
    /// succeeded first try).
    pub rungs_attempted: usize,
    /// Distinct genomes evaluated across all rungs: the sum of each
    /// rung's fitness-memo size.
    pub unique_genomes: usize,
    /// Exact Eq. 3 stick evaluations when re-scoring the final pose
    /// through the branch-and-bound path (observability accounting,
    /// computed once per frame off the GA hot path).
    pub bb_candidates: u64,
    /// Stick evaluations the branch-and-bound pruned on that same
    /// pass; `bb_candidates + bb_pruned = 8 × sample pixels`.
    pub bb_pruned: u64,
}

impl TrackResult {
    /// True when the pose came out of a GA run on this frame's own
    /// silhouette (rungs temporal/widened/cold-restart) — the frames
    /// whose convergence statistics are meaningful. Interpolated and
    /// carried frames are synthesised without evaluating the frame.
    pub fn ga_estimated(&self) -> bool {
        !matches!(
            self.recovery,
            RecoveryAction::Interpolated | RecoveryAction::CarriedOver
        )
    }
}

/// The whole-clip tracking output.
#[derive(Debug, Clone)]
pub struct TrackingRun {
    /// Per-frame estimates, index-aligned with the input silhouettes.
    pub frames: Vec<TrackResult>,
}

impl TrackingRun {
    /// The estimated poses as a sequence (at the given fps).
    pub fn to_pose_seq(&self, fps: f64) -> PoseSeq {
        PoseSeq::new(self.frames.iter().map(|f| f.pose).collect(), fps)
    }

    /// Total fitness evaluations across all frames.
    pub fn total_evaluations(&self) -> usize {
        self.frames.iter().map(|f| f.evaluations).sum()
    }

    /// Mean generations-to-near-best over tracked frames after the first
    /// — the quantity behind the paper's "the shown best estimated model
    /// was generated at the second generation".
    pub fn mean_generations_to_near_best(&self) -> f64 {
        Self::mean_over(
            self.frames
                .iter()
                .skip(1)
                .filter(|f| f.ga_estimated())
                .map(|f| f.generations_to_near_best),
        )
    }

    fn mean_over(iter: impl Iterator<Item = usize>) -> f64 {
        let gens: Vec<usize> = iter.collect();
        if gens.is_empty() {
            0.0
        } else {
            gens.iter().sum::<usize>() as f64 / gens.len() as f64
        }
    }
}

/// The temporal GA tracker.
#[derive(Debug, Clone, Default)]
pub struct TemporalTracker {
    config: TrackerConfig,
}

impl TemporalTracker {
    /// Creates a tracker with the given configuration.
    pub fn new(config: TrackerConfig) -> Self {
        TemporalTracker { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrackerConfig {
        &self.config
    }

    /// Tracks a clip: `silhouettes\[0\]` is described by `first_pose`
    /// (the hand-drawn model); every later frame is estimated by the
    /// temporally-seeded GA.
    ///
    /// Frames whose silhouette is unusable — blank, or so inconsistent
    /// with the seed pose that no valid chromosome exists — carry the
    /// previous estimate forward, flagged [`RecoveryAction::CarriedOver`].
    ///
    /// Implemented as a loop over [`TrackerStream::push`], so batch and
    /// incremental tracking are identical by construction.
    ///
    /// # Errors
    ///
    /// * [`GaError::NoFrames`] when `silhouettes` is empty.
    /// * [`GaError::BadConfig`] for invalid configuration.
    pub fn track(
        &self,
        silhouettes: &[Mask],
        first_pose: Pose,
        dims: &BodyDims,
        camera: &Camera,
    ) -> Result<TrackingRun, GaError> {
        if silhouettes.is_empty() {
            return Err(GaError::NoFrames);
        }
        let mut stream = self.stream(first_pose, dims, camera);
        let mut frames = Vec::with_capacity(silhouettes.len());
        for sil in silhouettes {
            frames.push(stream.push(sil)?);
        }
        Ok(TrackingRun { frames })
    }

    /// Starts incremental tracking: silhouettes are then fed one at a
    /// time through [`TrackerStream::push`]. The first pushed frame is
    /// described by `first_pose` (the hand-drawn model), exactly as in
    /// [`TemporalTracker::track`].
    pub fn stream(&self, first_pose: Pose, dims: &BodyDims, camera: &Camera) -> TrackerStream {
        TrackerStream {
            tracker: self.clone(),
            first_pose,
            dims: dims.clone(),
            camera: *camera,
            previous: first_pose,
            penultimate: None,
            next_frame: 0,
            scratch: TrackScratch::default(),
        }
    }

    /// Estimates one frame, climbing the recovery ladder as needed.
    /// `penultimate` is the accepted estimate before `previous` (absent
    /// until two frames have been accepted) — the second anchor of the
    /// kinematic-interpolation rung.
    #[allow(clippy::too_many_arguments)]
    fn estimate_frame(
        &self,
        k: usize,
        sil: &Mask,
        previous: Pose,
        penultimate: Option<Pose>,
        dims: &BodyDims,
        camera: &Camera,
        scratch: &mut TrackScratch,
    ) -> Result<TrackResult, GaError> {
        let policy = self.config.recovery;
        let widen = policy.widen_factor.max(1.0);
        let widened_center = self.config.delta_center * widen;
        let mut widened_angles = self.config.delta_angles;
        for a in widened_angles.iter_mut() {
            *a = (*a * widen).min(180.0);
        }
        // The cold-restart anchor: the silhouette's geometric centre in
        // world coordinates. Absent for a blank mask.
        let centroid_world = moments::centroid(sil).map(|c| camera.image_to_world(c));

        let mut rungs: Vec<(RecoveryAction, InitStrategy)> = vec![(
            RecoveryAction::None,
            InitStrategy::Temporal {
                previous,
                delta_center: self.config.delta_center,
                delta_angles: self.config.delta_angles,
            },
        )];
        if widen > 1.0 {
            rungs.push((
                RecoveryAction::WidenedSearch,
                InitStrategy::Temporal {
                    previous,
                    delta_center: widened_center,
                    delta_angles: widened_angles,
                },
            ));
        }
        if policy.cold_restart {
            if let Some(anchor) = centroid_world {
                rungs.push((
                    RecoveryAction::ColdRestart,
                    InitStrategy::Temporal {
                        previous: previous.with_center(anchor),
                        delta_center: widened_center,
                        delta_angles: widened_angles,
                    },
                ));
            }
        }

        // One Eq. 3 evaluator serves every rung: the silhouette's point
        // list and distance field don't depend on the init strategy, so
        // escalation costs a config re-validation, not a re-preparation.
        let shared_fitness = scratch
            .prepare_fitness(sil, dims, camera, self.config.problem.stride)?
            .map(Arc::new);

        let mut spent_evaluations = 0usize;
        let mut rungs_attempted = 0usize;
        let mut unique_genomes = 0usize;
        let mut best: Option<TrackResult> = None;
        for (rung_index, (action, init)) in rungs.into_iter().enumerate() {
            let Some(fitness) = shared_fitness.as_ref() else {
                break; // blank silhouette: fall through to carry-over
            };
            if scratch.problems.len() <= rung_index {
                scratch
                    .problems
                    .resize_with(rung_index + 1, Default::default);
            }
            let problem = match PoseProblem::with_fitness_scratch(
                sil,
                Arc::clone(fitness),
                dims,
                camera,
                init,
                self.config.problem,
                std::mem::take(&mut scratch.problems[rung_index]),
            ) {
                Ok(p) => p,
                Err(GaError::EmptySilhouette) | Err(GaError::InitFailed { .. }) => continue,
                Err(e) => return Err(e),
            };
            // Rung 0 reproduces the pre-ladder RNG stream exactly;
            // later rungs get decorrelated streams.
            let mut rng = StdRng::seed_from_u64(
                self.config
                    .seed
                    .wrapping_add(k as u64)
                    .wrapping_add((rung_index as u64).wrapping_mul(0x9E37_79B9)),
            );
            let run = match evolve(&problem, &self.config.ga, &mut rng) {
                Ok(run) => run,
                Err(GaError::InitFailed { .. }) => {
                    // A rung that cannot seed still hands its memo and
                    // batch buffers back, or the next frame regrows them.
                    scratch.problems[rung_index] = problem.reclaim();
                    continue;
                }
                Err(e) => return Err(e),
            };
            spent_evaluations += run.evaluations;
            rungs_attempted += 1;
            // The memo is per-rung, so its final size is exactly this
            // rung's distinct-genome count (read before the problem's
            // heavy state goes back to the per-rung scratch slot).
            unique_genomes += problem.memo().len();
            scratch.problems[rung_index] = problem.reclaim();
            let candidate = Self::to_result(run, action, spent_evaluations);
            let acceptable = policy.accepts(candidate.fitness);
            if best
                .as_ref()
                .is_none_or(|b| rank_fitness(candidate.fitness, b.fitness).is_lt())
            {
                best = Some(candidate);
            }
            if acceptable {
                break;
            }
        }

        let result = match best {
            Some(mut b) => {
                // All rungs' work is billed to the frame, whichever won.
                b.evaluations = spent_evaluations;
                b.rungs_attempted = rungs_attempted;
                b.unique_genomes = unique_genomes;
                if let Some(fitness) = shared_fitness.as_ref() {
                    let stats = fitness.prune_stats(&b.pose, dims);
                    b.bb_candidates = stats.candidates;
                    b.bb_pruned = stats.pruned;
                }
                b
            }
            // No GA candidate exists: the silhouette was unusable
            // (blank, or so inconsistent with every seed that no valid
            // chromosome exists). Interpolate the trajectory through
            // the gap when the policy allows and two accepted estimates
            // anchor it: advance the trunk centre by λ times the last
            // observed step and keep the joint angles — translation is
            // the kinematically predictable part of a jump, while
            // extrapolating the noisy per-stick angles doubles their GA
            // noise and can coast into poses no later init can recover
            // from. Causal — no future frame needed — so streaming and
            // batch stay identical. Fitness stays infinite: the pose
            // was never matched against this frame's (unusable)
            // silhouette.
            None => {
                let interpolated = if policy.interpolate {
                    let lambda = policy.interpolate_damping.max(0.0);
                    penultimate.map(|pen| {
                        let c = previous.center;
                        previous.with_center(Point2::new(
                            c.x + lambda * (c.x - pen.center.x),
                            c.y + lambda * (c.y - pen.center.y),
                        ))
                    })
                } else {
                    None
                };
                let (pose, recovery) = match interpolated {
                    Some(p) => (p, RecoveryAction::Interpolated),
                    // Rung of last resort: carry the previous estimate
                    // verbatim, flagged.
                    None => (previous, RecoveryAction::CarriedOver),
                };
                TrackResult {
                    pose,
                    fitness: f64::INFINITY,
                    generation_of_best: 0,
                    generations_run: 0,
                    generations_to_near_best: 0,
                    evaluations: spent_evaluations,
                    recovery,
                    history: Vec::new(),
                    rungs_attempted,
                    unique_genomes,
                    bb_candidates: 0,
                    bb_pruned: 0,
                }
            }
        };
        // Every per-rung problem has been dismantled, so this frame's
        // Arc is unique again: reclaim the evaluator for the next frame.
        if let Some(f) = shared_fitness {
            if let Ok(f) = Arc::try_unwrap(f) {
                scratch.fitness = Some(f);
            }
        }
        Ok(result)
    }

    fn to_result(run: GaRun<Pose>, action: RecoveryAction, evaluations: usize) -> TrackResult {
        // The rung/memo/branch-and-bound accounting is frame-level, not
        // run-level; `estimate_frame` fills it in on the winner.
        TrackResult {
            pose: run.best,
            fitness: run.best_fitness,
            generation_of_best: run.generation_of_best,
            generations_run: run.generations_run,
            generations_to_near_best: run.generations_to_near_best(0.10),
            evaluations,
            recovery: action,
            history: run.history,
            rungs_attempted: 0,
            unique_genomes: 0,
            bb_candidates: 0,
            bb_pruned: 0,
        }
    }
}

/// A tracker stream's recyclable heavy state: the spare Eq. 3 evaluator
/// (point planes + distance field, rebuilt in place per frame) and each
/// recovery rung's [`ProblemScratch`](crate::ProblemScratch) (memo
/// tables + batch buffers).
/// Purely an allocation cache — results never depend on its contents —
/// so cloning a stream starts the clone with a fresh scratch.
#[derive(Debug, Default)]
pub struct TrackScratch {
    /// Evaluator reclaimed via `Arc::try_unwrap` once a frame's rung
    /// problems have released their handles.
    fitness: Option<SilhouetteFitness>,
    /// Per-rung problem state, indexed by rung position in the ladder.
    problems: Vec<crate::pose_problem::ProblemScratch>,
}

impl TrackScratch {
    /// The Eq. 3 evaluator for `sil`: the spare one rebuilt in place
    /// (value-identical to a fresh build, reusing its point planes and
    /// distance field storage) when there is one, else a new one.
    /// `Ok(None)` for a blank silhouette, which keeps the spare for the
    /// next frame.
    fn prepare_fitness(
        &mut self,
        sil: &Mask,
        dims: &BodyDims,
        camera: &Camera,
        stride: usize,
    ) -> Result<Option<SilhouetteFitness>, GaError> {
        match self.fitness.take() {
            Some(mut f) => match f.rebuild(sil, dims, camera, stride) {
                Ok(()) => Ok(Some(f)),
                Err(GaError::EmptySilhouette) => {
                    self.fitness = Some(f);
                    Ok(None)
                }
                Err(e) => Err(e),
            },
            None => match SilhouetteFitness::new(sil, dims, camera, stride) {
                Ok(f) => Ok(Some(f)),
                Err(GaError::EmptySilhouette) => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

impl Clone for TrackScratch {
    fn clone(&self) -> Self {
        TrackScratch::default()
    }
}

/// Incremental tracking state: one frame estimated per
/// [`push`](TrackerStream::push), in arrival order.
///
/// This is the sequential core of [`TemporalTracker::track`] with the
/// loop inverted — the tracker only ever needs the previous accepted
/// pose and the frame counter, so a streaming caller holds O(1) state
/// regardless of clip length, and the batch path is literally a loop
/// over `push` (identical results by construction, not by test alone —
/// though it is tested too).
#[derive(Debug, Clone)]
pub struct TrackerStream {
    tracker: TemporalTracker,
    first_pose: Pose,
    dims: BodyDims,
    camera: Camera,
    /// Seed for the next frame: the last non-carried estimate.
    previous: Pose,
    /// The accepted estimate before `previous` — the second anchor of
    /// the kinematic-interpolation rung. `None` until two estimates
    /// have been accepted.
    penultimate: Option<Pose>,
    next_frame: usize,
    /// Recyclable per-frame heavy state (see [`TrackScratch`]).
    scratch: TrackScratch,
}

impl TrackerStream {
    /// Estimates the pose for the next frame's silhouette.
    ///
    /// The first push evaluates the hand-drawn `first_pose` for the
    /// record (the paper's manual initialisation); every later push
    /// runs the temporally-seeded GA with the recovery ladder, seeding
    /// from the last non-carried estimate.
    ///
    /// # Errors
    ///
    /// * [`GaError::BadConfig`] for invalid configuration.
    pub fn push(&mut self, sil: &Mask) -> Result<TrackResult, GaError> {
        let k = self.next_frame;
        let result = if k == 0 {
            // Frame 0: the provided (hand-drawn) pose, evaluated for
            // the record. A recycled evaluator (a stream re-seeded via
            // `with_scratch`) is rebuilt in place instead of allocated.
            let stride = self.tracker.config.problem.stride;
            let evaluator = self
                .scratch
                .prepare_fitness(sil, &self.dims, &self.camera, stride)?;
            let (fitness, bb) = match evaluator {
                Some(f) => {
                    let record = (
                        f.evaluate(&self.first_pose, &self.dims),
                        f.prune_stats(&self.first_pose, &self.dims),
                    );
                    // Seed the scratch so frame 1 starts the rebuild
                    // cycle with this frame's buffers.
                    self.scratch.fitness = Some(f);
                    record
                }
                None => (f64::INFINITY, PruneStats::default()),
            };
            TrackResult {
                pose: self.first_pose,
                fitness,
                generation_of_best: 0,
                generations_run: 0,
                generations_to_near_best: 0,
                evaluations: 1,
                recovery: RecoveryAction::None,
                history: Vec::new(),
                rungs_attempted: 0,
                unique_genomes: 0,
                bb_candidates: bb.candidates,
                bb_pruned: bb.pruned,
            }
        } else {
            self.tracker.estimate_frame(
                k,
                sil,
                self.previous,
                self.penultimate,
                &self.dims,
                &self.camera,
                &mut self.scratch,
            )?
        };
        self.next_frame = k + 1;
        if result.recovery != RecoveryAction::CarriedOver {
            // Interpolated poses advance the anchors too: each
            // consecutive unusable frame then continues the trajectory
            // with a further-damped step (λ, λ², …) instead of
            // replaying the same one-frame step.
            if k > 0 {
                self.penultimate = Some(self.previous);
            }
            self.previous = result.pose;
        }
        Ok(result)
    }

    /// Frames pushed so far.
    pub fn frames_pushed(&self) -> usize {
        self.next_frame
    }

    /// The seed pose the next frame will start from: the last
    /// non-carried estimate (the first pose before any push).
    pub fn previous_pose(&self) -> &Pose {
        &self.previous
    }

    /// Installs recycled scratch (typically a retired stream's
    /// [`reclaim_scratch`](TrackerStream::reclaim_scratch)). Purely an
    /// allocation cache: every estimate is byte-identical with or
    /// without it.
    pub fn with_scratch(mut self, scratch: TrackScratch) -> Self {
        self.scratch = scratch;
        self
    }

    /// Consumes the stream, handing its recyclable heavy state to the
    /// next clip's tracker.
    pub fn reclaim_scratch(self) -> TrackScratch {
        self.scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slj_motion::synth::{synthesize_jump, JumpConfig};
    use slj_video::render::render_silhouette;

    /// Ground-truth silhouettes: the first `take` frames of a
    /// realistically-paced 20-frame jump (slicing keeps per-frame joint
    /// velocities realistic while keeping tests cheap).
    fn jump_silhouettes(take: usize) -> (Vec<Mask>, Vec<slj_motion::Pose>, BodyDims, Camera) {
        let cfg = JumpConfig::default();
        let poses = synthesize_jump(&cfg);
        let camera = Camera::default();
        let truth: Vec<slj_motion::Pose> = poses.poses().iter().take(take).copied().collect();
        let sils = truth
            .iter()
            .map(|p| render_silhouette(p, &cfg.dims, &camera))
            .collect();
        (sils, truth, cfg.dims, camera)
    }

    #[test]
    fn tracks_a_short_jump_accurately() {
        let (sils, truth, dims, camera) = jump_silhouettes(6);
        let tracker = TemporalTracker::new(TrackerConfig::fast());
        let run = tracker.track(&sils, truth[0], &dims, &camera).unwrap();
        assert_eq!(run.frames.len(), 6);
        for (k, (est, gt)) in run.frames.iter().zip(truth.iter()).enumerate() {
            let err = est.pose.error_against(gt);
            assert!(
                err.center_distance < 0.15,
                "frame {k}: centre off by {} m",
                err.center_distance
            );
            assert_ne!(est.recovery, RecoveryAction::CarriedOver);
            assert!(est.fitness < 1.2, "frame {k}: fitness {}", est.fitness);
        }
    }

    #[test]
    fn temporal_seeding_converges_in_few_generations() {
        let (sils, truth, dims, camera) = jump_silhouettes(4);
        let tracker = TemporalTracker::new(TrackerConfig::fast());
        let run = tracker.track(&sils, truth[0], &dims, &camera).unwrap();
        // The paper's headline observation: with temporal seeding a
        // near-best model appears within the first few generations.
        let mean = run.mean_generations_to_near_best();
        assert!(mean <= 5.0, "mean generations to near-best {mean}");
    }

    #[test]
    fn empty_silhouette_interpolates_through_the_gap() {
        // Blank a flight-phase frame: the centre is moving there, so
        // the extrapolated pose is visibly distinct from a carry.
        let (mut sils, truth, dims, camera) = jump_silhouettes(12);
        sils[10] = Mask::new(camera.width, camera.height);
        let tracker = TemporalTracker::new(TrackerConfig::fast());
        let run = tracker.track(&sils, truth[0], &dims, &camera).unwrap();
        let f = &run.frames[10];
        assert_eq!(f.recovery, RecoveryAction::Interpolated);
        assert!(f.fitness.is_infinite());
        assert!(!f.ga_estimated());
        // The centre is the damped constant-velocity continuation of
        // the frame 8 → 9 step; the angles are frame 9's verbatim —
        // translation extrapolates, the noisy angle estimates do not.
        let lambda = RecoveryPolicy::default().interpolate_damping;
        let (c8, c9) = (run.frames[8].pose.center, run.frames[9].pose.center);
        let expected = run.frames[9].pose.with_center(Point2::new(
            c9.x + lambda * (c9.x - c8.x),
            c9.y + lambda * (c9.y - c8.y),
        ));
        assert_eq!(f.pose.to_genes(), expected.to_genes());
        assert_ne!(f.pose.to_genes(), run.frames[9].pose.to_genes());
        assert_eq!(f.pose.angles, run.frames[9].pose.angles);
        // Tracking resumes afterwards.
        assert!(run.frames[11].ga_estimated());
    }

    #[test]
    fn empty_silhouette_carries_when_interpolation_is_disabled() {
        let (mut sils, truth, dims, camera) = jump_silhouettes(4);
        sils[2] = Mask::new(camera.width, camera.height);
        let tracker = TemporalTracker::new(TrackerConfig {
            recovery: RecoveryPolicy {
                interpolate: false,
                ..RecoveryPolicy::default()
            },
            ..TrackerConfig::fast()
        });
        let run = tracker.track(&sils, truth[0], &dims, &camera).unwrap();
        assert_eq!(run.frames[2].recovery, RecoveryAction::CarriedOver);
        assert!(run.frames[2].fitness.is_infinite());
        assert_eq!(run.frames[2].pose.to_genes(), run.frames[1].pose.to_genes());
        assert_ne!(run.frames[3].recovery, RecoveryAction::CarriedOver);
    }

    #[test]
    fn first_gap_without_penultimate_anchor_carries_over() {
        // A blank frame 1 has only one accepted estimate behind it —
        // no velocity to continue — so even with interpolation enabled
        // the ladder falls through to the carry rung.
        let (mut sils, truth, dims, camera) = jump_silhouettes(4);
        sils[1] = Mask::new(camera.width, camera.height);
        let tracker = TemporalTracker::new(TrackerConfig::fast());
        let run = tracker.track(&sils, truth[0], &dims, &camera).unwrap();
        assert_eq!(run.frames[1].recovery, RecoveryAction::CarriedOver);
        assert_eq!(run.frames[1].pose.to_genes(), run.frames[0].pose.to_genes());
    }

    #[test]
    fn consecutive_gaps_continue_the_trajectory() {
        // Two blank flight-phase frames in a row: each interpolated
        // pose becomes the next anchor, so the centre keeps moving —
        // by λ times the previous step each frame — instead of
        // replaying one step.
        let (mut sils, truth, dims, camera) = jump_silhouettes(13);
        sils[10] = Mask::new(camera.width, camera.height);
        sils[11] = Mask::new(camera.width, camera.height);
        let tracker = TemporalTracker::new(TrackerConfig::fast());
        let run = tracker.track(&sils, truth[0], &dims, &camera).unwrap();
        assert_eq!(run.frames[10].recovery, RecoveryAction::Interpolated);
        assert_eq!(run.frames[11].recovery, RecoveryAction::Interpolated);
        let lambda = RecoveryPolicy::default().interpolate_damping;
        let (c9, c10) = (run.frames[9].pose.center, run.frames[10].pose.center);
        let step2 = run.frames[10].pose.with_center(Point2::new(
            c10.x + lambda * (c10.x - c9.x),
            c10.y + lambda * (c10.y - c9.y),
        ));
        assert_eq!(run.frames[11].pose.to_genes(), step2.to_genes());
        assert_ne!(
            run.frames[11].pose.to_genes(),
            run.frames[10].pose.to_genes(),
            "the second gap frame must keep moving"
        );
        assert_ne!(run.frames[12].recovery, RecoveryAction::CarriedOver);
    }

    #[test]
    fn stream_push_matches_batch_track() {
        // `track` is a loop over `push`, so this can only fail if the
        // stream mismanages its own state (previous pose or counter).
        let (mut sils, truth, dims, camera) = jump_silhouettes(5);
        sils[2] = Mask::new(camera.width, camera.height); // exercise the interpolation rung
        let tracker = TemporalTracker::new(TrackerConfig::fast());
        let batch = tracker.track(&sils, truth[0], &dims, &camera).unwrap();
        let mut stream = tracker.stream(truth[0], &dims, &camera);
        assert_eq!(stream.frames_pushed(), 0);
        for (k, sil) in sils.iter().enumerate() {
            let result = stream.push(sil).unwrap();
            assert_eq!(result, batch.frames[k], "frame {k}");
        }
        assert_eq!(stream.frames_pushed(), sils.len());
        // The stream's seed pose is the last non-carried estimate.
        assert_eq!(
            stream.previous_pose().to_genes(),
            batch.frames[4].pose.to_genes()
        );
    }

    #[test]
    fn no_frames_is_an_error() {
        let dims = BodyDims::default();
        let camera = Camera::default();
        let tracker = TemporalTracker::default();
        assert!(matches!(
            tracker.track(&[], Pose::standing(&dims), &dims, &camera),
            Err(GaError::NoFrames)
        ));
    }

    #[test]
    fn tracking_is_deterministic() {
        let (sils, truth, dims, camera) = jump_silhouettes(3);
        let tracker = TemporalTracker::new(TrackerConfig::fast());
        let a = tracker.track(&sils, truth[0], &dims, &camera).unwrap();
        let b = tracker.track(&sils, truth[0], &dims, &camera).unwrap();
        for (x, y) in a.frames.iter().zip(b.frames.iter()) {
            assert_eq!(x.pose.to_genes(), y.pose.to_genes());
            assert_eq!(x.fitness, y.fitness);
        }
    }

    #[test]
    fn to_pose_seq_and_totals() {
        let (sils, truth, dims, camera) = jump_silhouettes(3);
        let tracker = TemporalTracker::new(TrackerConfig::fast());
        let run = tracker.track(&sils, truth[0], &dims, &camera).unwrap();
        let seq = run.to_pose_seq(10.0);
        assert_eq!(seq.len(), 3);
        assert!(run.total_evaluations() > 0);
    }

    #[test]
    fn carried_frame_keeps_stats_and_resumes_with_fresh_previous() {
        // The carry-over branch in detail: stats are zeroed, the pose is
        // bit-identical to the last good estimate, and the *carried*
        // pose (not the blank frame) seeds the next frame. Interpolation
        // is disabled so the gap exercises the carry rung.
        let (mut sils, truth, dims, camera) = jump_silhouettes(5);
        sils[2] = Mask::new(camera.width, camera.height);
        sils[3] = Mask::new(camera.width, camera.height);
        let tracker = TemporalTracker::new(TrackerConfig {
            recovery: RecoveryPolicy {
                interpolate: false,
                ..RecoveryPolicy::default()
            },
            ..TrackerConfig::fast()
        });
        let run = tracker.track(&sils, truth[0], &dims, &camera).unwrap();
        for k in [2, 3] {
            let f = &run.frames[k];
            assert_eq!(f.recovery, RecoveryAction::CarriedOver);
            assert!(f.fitness.is_infinite());
            assert_eq!(f.evaluations, 0, "blank silhouette costs nothing");
            assert_eq!(f.generations_run, 0);
            assert!(f.history.is_empty());
            assert_eq!(f.pose.to_genes(), run.frames[1].pose.to_genes());
        }
        // Frame 4 resumes from frame 1's estimate and tracks again.
        assert_ne!(run.frames[4].recovery, RecoveryAction::CarriedOver);
        // Carried frames are excluded from the convergence means.
        assert!(run.mean_generations_to_near_best().is_finite());
    }

    #[test]
    fn outrun_windows_recover_via_the_ladder() {
        // Rotate most of frame 3's body by 100° relative to frame 2 —
        // beyond every per-stick Δρ window, as if frames were lost and
        // the motion outran the temporal seed. Rung 0 cannot represent
        // the pose; the widened retry (Δρ ×2) can.
        use slj_motion::StickKind;
        let cfg = JumpConfig::default();
        let poses = synthesize_jump(&cfg);
        let camera = Camera::default();
        let truth: Vec<slj_motion::Pose> = poses.poses().iter().take(4).copied().collect();
        let mut moved = truth.clone();
        let mut p = moved[3];
        for stick in [
            StickKind::Trunk,
            StickKind::Thigh,
            StickKind::Shank,
            StickKind::UpperArm,
            StickKind::Forearm,
        ] {
            let a = p.angle(stick);
            p = p.with_angle(stick, a + 100.0);
        }
        moved[3] = p;
        let sils: Vec<Mask> = moved
            .iter()
            .map(|q| render_silhouette(q, &cfg.dims, &camera))
            .collect();

        let tracker = TemporalTracker::new(TrackerConfig::fast());
        let run = tracker.track(&sils, truth[0], &cfg.dims, &camera).unwrap();
        let f = &run.frames[3];
        assert!(
            matches!(
                f.recovery,
                RecoveryAction::WidenedSearch | RecoveryAction::ColdRestart
            ),
            "expected an escalated rung, got {:?} (fitness {})",
            f.recovery,
            f.fitness
        );
        assert_ne!(f.recovery, RecoveryAction::CarriedOver);
        assert!(f.fitness < 3.0, "recovered fit is poor: {}", f.fitness);
        let err = f.pose.error_against(&moved[3]);
        assert!(
            err.center_distance < 0.2,
            "recovered estimate centre off by {} m",
            err.center_distance
        );

        // Without the ladder the same frame either carries over or
        // keeps a distrusted fit — the escalation is what buys the
        // accepted estimate.
        let rigid = TemporalTracker::new(TrackerConfig {
            recovery: RecoveryPolicy::none(),
            ..TrackerConfig::fast()
        });
        let run = rigid.track(&sils, truth[0], &cfg.dims, &camera).unwrap();
        let f = &run.frames[3];
        assert!(
            f.recovery == RecoveryAction::CarriedOver || f.fitness > 3.0,
            "policy none() unexpectedly matched the rotated body (fitness {})",
            f.fitness
        );
    }

    #[test]
    fn ladder_escalation_order_is_widen_cold_interpolate_carry() {
        // The ladder's rung order, end to end on one clip shape:
        // a trackable frame stays on rung 0; an outrun frame escalates
        // to widen/cold-restart; an unusable frame interpolates when
        // two anchors exist; and only when interpolation is impossible
        // (disabled, or no penultimate anchor) does carry-over fire.
        let (mut sils, truth, dims, camera) = jump_silhouettes(5);
        sils[3] = Mask::new(camera.width, camera.height);
        let run = TemporalTracker::new(TrackerConfig::fast())
            .track(&sils, truth[0], &dims, &camera)
            .unwrap();
        assert_eq!(run.frames[1].recovery, RecoveryAction::None);
        assert_eq!(run.frames[3].recovery, RecoveryAction::Interpolated);

        // GA rungs outrank interpolation: a frame with any usable
        // silhouette never reaches the synthesis rungs.
        for f in &run.frames {
            if f.ga_estimated() {
                assert!(f.fitness.is_finite());
            } else {
                assert!(f.fitness.is_infinite());
            }
        }

        // With interpolation disabled the same gap carries over — the
        // rung below interpolation, never above it.
        let no_interp = TemporalTracker::new(TrackerConfig {
            recovery: RecoveryPolicy {
                interpolate: false,
                ..RecoveryPolicy::default()
            },
            ..TrackerConfig::fast()
        })
        .track(&sils, truth[0], &dims, &camera)
        .unwrap();
        assert_eq!(no_interp.frames[3].recovery, RecoveryAction::CarriedOver);
        // Frames untouched by the ladder are bit-identical across the
        // two policies: the interpolation rung changes nothing else.
        for k in [0, 1, 2] {
            assert_eq!(run.frames[k], no_interp.frames[k], "frame {k}");
        }
    }

    #[test]
    fn interpolation_rung_is_bit_deterministic() {
        // The interpolation rung is pure arithmetic on accepted poses,
        // but those poses come out of the seeded GA — assert the whole
        // chain, interpolated frames included, is bit-identical across
        // two runs.
        let (mut sils, truth, dims, camera) = jump_silhouettes(5);
        sils[2] = Mask::new(camera.width, camera.height);
        sils[3] = Mask::new(camera.width, camera.height);
        let tracker = TemporalTracker::new(TrackerConfig::fast());
        let first = tracker.track(&sils, truth[0], &dims, &camera).unwrap();
        assert_eq!(first.frames[2].recovery, RecoveryAction::Interpolated);
        assert_eq!(first.frames[3].recovery, RecoveryAction::Interpolated);
        let second = tracker.track(&sils, truth[0], &dims, &camera).unwrap();
        assert_eq!(first.frames, second.frames);
    }

    #[test]
    fn recovery_policy_defaults_are_sane() {
        let p = RecoveryPolicy::default();
        assert!(p.widen_factor > 1.0);
        assert!(p.cold_restart);
        assert!(p.interpolate);
        assert!(p.accepts(1.0));
        assert!(!p.accepts(f64::INFINITY));
        let n = RecoveryPolicy::none();
        assert!(n.accepts(f64::INFINITY));
        assert!(!n.interpolate);
    }

    #[test]
    fn normal_tracking_reports_no_recovery() {
        let (sils, truth, dims, camera) = jump_silhouettes(4);
        let tracker = TemporalTracker::new(TrackerConfig::fast());
        let run = tracker.track(&sils, truth[0], &dims, &camera).unwrap();
        for f in &run.frames {
            assert_eq!(f.recovery, RecoveryAction::None);
        }
    }

    #[test]
    fn perturbed_first_pose_still_tracks() {
        // The "trained person" draws imperfectly: perturb the first-frame
        // pose and confirm tracking still locks on.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (sils, truth, dims, camera) = jump_silhouettes(4);
        let mut rng = StdRng::seed_from_u64(99);
        let sloppy = slj_motion::synth::perturb_pose(&truth[0], 0.03, 8.0, &mut rng);
        let tracker = TemporalTracker::new(TrackerConfig::fast());
        let run = tracker.track(&sils, sloppy, &dims, &camera).unwrap();
        let last_err = run.frames[3].pose.error_against(&truth[3]);
        assert!(last_err.center_distance < 0.2, "lost track: {last_err}");
    }
}
