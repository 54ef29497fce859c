//! A particle-filter tracker (comparison baseline, not in the paper).
//!
//! The paper tracks by re-running a GA per frame with temporal seeding.
//! The contemporaneous alternative in the tracking literature is the
//! particle filter (Isard & Blake's Condensation): carry a weighted set
//! of pose hypotheses across frames, diffuse them by a motion model,
//! and re-weight by an observation likelihood. Implementing it against
//! the same Eq. 3 cost makes a like-for-like comparison possible: both
//! methods spend their budget in "fitness evaluations per frame".
//!
//! The observation likelihood is `exp(−cost / temperature)`; diffusion
//! reuses the tracker's per-stick Δρ ranges scaled by a factor.

use crate::engine::rank_fitness;
use crate::error::GaError;
use crate::fitness::{BatchScratch, SilhouetteFitness};
use crate::pose_problem::DEFAULT_DELTA_ANGLES;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use slj_imgproc::mask::Mask;
use slj_motion::model::STICK_COUNT;
use slj_motion::{BodyDims, Pose, PoseSeq};
use slj_video::Camera;

/// Particle-filter configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParticleFilterConfig {
    /// Number of particles.
    pub particles: usize,
    /// Likelihood temperature: weight = `exp(−cost / temperature)`.
    /// Smaller = peakier posterior.
    pub temperature: f64,
    /// Diffusion scale as a fraction of the per-stick Δρ ranges.
    pub diffusion_scale: f64,
    /// Centre diffusion half-range, metres.
    pub center_diffusion: f64,
    /// Per-stick angle half-ranges (degrees) the diffusion is scaled
    /// from.
    pub delta_angles: [f64; STICK_COUNT],
    /// Eq. 3 subsampling stride.
    pub stride: usize,
    /// Master seed; frame k uses `seed + k`.
    pub seed: u64,
}

impl Default for ParticleFilterConfig {
    fn default() -> Self {
        ParticleFilterConfig {
            particles: 400,
            temperature: 0.08,
            diffusion_scale: 0.5,
            center_diffusion: 0.08,
            delta_angles: DEFAULT_DELTA_ANGLES,
            stride: 2,
            seed: 0xBF17,
        }
    }
}

/// One frame's particle-filter output.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParticleFrame {
    /// The highest-weight particle.
    pub pose: Pose,
    /// Its Eq. 3 cost.
    pub fitness: f64,
    /// Effective sample size after weighting (low = degeneracy).
    pub effective_sample_size: f64,
    /// Fitness evaluations spent on this frame.
    pub evaluations: usize,
    /// Whether the silhouette was unusable and the estimate carried
    /// over.
    pub carried_over: bool,
}

/// The whole-clip particle-filter run.
#[derive(Debug, Clone)]
pub struct ParticleRun {
    /// Per-frame outputs, index-aligned with the silhouettes.
    pub frames: Vec<ParticleFrame>,
}

impl ParticleRun {
    /// The estimated poses as a sequence.
    pub fn to_pose_seq(&self, fps: f64) -> PoseSeq {
        PoseSeq::new(self.frames.iter().map(|f| f.pose).collect(), fps)
    }

    /// Total evaluations across the clip.
    pub fn total_evaluations(&self) -> usize {
        self.frames.iter().map(|f| f.evaluations).sum()
    }
}

/// The Condensation-style tracker.
#[derive(Debug, Clone, Default)]
pub struct ParticleFilter {
    config: ParticleFilterConfig,
}

impl ParticleFilter {
    /// Creates a filter with the given configuration.
    pub fn new(config: ParticleFilterConfig) -> Self {
        ParticleFilter { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ParticleFilterConfig {
        &self.config
    }

    /// Tracks a clip from a known first-frame pose (same contract as
    /// [`crate::tracker::TemporalTracker::track`]).
    ///
    /// # Errors
    ///
    /// * [`GaError::NoFrames`] when `silhouettes` is empty.
    /// * [`GaError::BadConfig`] for nonsensical configuration.
    pub fn track(
        &self,
        silhouettes: &[Mask],
        first_pose: Pose,
        dims: &BodyDims,
        camera: &Camera,
    ) -> Result<ParticleRun, GaError> {
        if silhouettes.is_empty() {
            return Err(GaError::NoFrames);
        }
        if self.config.particles < 2 {
            return Err(GaError::BadConfig {
                what: "particles must be at least 2",
            });
        }
        // NaN must also be rejected, hence the partial_cmp form.
        if self.config.temperature.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(GaError::BadConfig {
                what: "temperature must be positive",
            });
        }

        let mut frames = Vec::with_capacity(silhouettes.len());
        frames.push(ParticleFrame {
            pose: first_pose,
            fitness: match SilhouetteFitness::new(&silhouettes[0], dims, camera, self.config.stride)
            {
                Ok(f) => f.evaluate(&first_pose, dims),
                Err(_) => f64::INFINITY,
            },
            effective_sample_size: self.config.particles as f64,
            evaluations: 1,
            carried_over: false,
        });

        // The particle cloud starts as copies of the first pose.
        let mut cloud: Vec<Pose> = vec![first_pose; self.config.particles];
        let mut best_prev = first_pose;
        let mut costs = vec![0.0; cloud.len()];
        let mut scratch = BatchScratch::default();

        for (k, sil) in silhouettes.iter().enumerate().skip(1) {
            let fitness = match SilhouetteFitness::new(sil, dims, camera, self.config.stride) {
                Ok(f) => f,
                Err(GaError::EmptySilhouette) => {
                    frames.push(ParticleFrame {
                        pose: best_prev,
                        fitness: f64::INFINITY,
                        effective_sample_size: 0.0,
                        evaluations: 0,
                        carried_over: true,
                    });
                    continue;
                }
                Err(e) => return Err(e),
            };
            let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(k as u64));

            // Predict: diffuse every particle.
            for p in cloud.iter_mut() {
                *p = self.diffuse(p, &mut rng);
            }

            // Weight: likelihood from the Eq. 3 cost.
            fitness.evaluate_batch(&cloud, dims, &mut costs, &mut scratch);
            let min_cost = costs.iter().copied().fold(f64::INFINITY, f64::min);
            let weights: Vec<f64> = costs
                .iter()
                .map(|c| (-(c - min_cost) / self.config.temperature).exp())
                .collect();
            let sum_w: f64 = weights.iter().sum();
            let ess = sum_w * sum_w / weights.iter().map(|w| w * w).sum::<f64>().max(1e-300);

            // Estimate: the best particle.
            let best_idx = costs
                .iter()
                .enumerate()
                .min_by(|a, b| rank_fitness(*a.1, *b.1))
                .map(|(i, _)| i)
                .expect("non-empty cloud");
            best_prev = cloud[best_idx];
            frames.push(ParticleFrame {
                pose: cloud[best_idx],
                fitness: costs[best_idx],
                effective_sample_size: ess,
                evaluations: cloud.len(),
                carried_over: false,
            });

            // Resample: systematic, proportional to weight.
            cloud = systematic_resample(&cloud, &weights, sum_w, &mut rng);
        }
        Ok(ParticleRun { frames })
    }

    /// Diffusion kernel: uniform jitter on the centre and every angle.
    fn diffuse(&self, pose: &Pose, rng: &mut StdRng) -> Pose {
        let mut out = *pose;
        let dc = self.config.center_diffusion;
        out.center.x += rng.gen_range(-dc..=dc);
        out.center.y += rng.gen_range(-dc..=dc);
        for (l, a) in out.angles.iter_mut().enumerate() {
            let d = self.config.delta_angles[l] * self.config.diffusion_scale;
            if d > 0.0 {
                *a = *a + rng.gen_range(-d..=d);
            }
        }
        out
    }
}

/// Systematic resampling: one uniform offset, N evenly spaced pointers.
fn systematic_resample(cloud: &[Pose], weights: &[f64], sum_w: f64, rng: &mut StdRng) -> Vec<Pose> {
    let n = cloud.len();
    if sum_w <= 0.0 || !sum_w.is_finite() {
        return cloud.to_vec();
    }
    let step = sum_w / n as f64;
    let mut pointer = rng.gen_range(0.0..step);
    let mut out = Vec::with_capacity(n);
    let mut acc = 0.0;
    let mut i = 0;
    for _ in 0..n {
        while acc + weights[i] < pointer {
            acc += weights[i];
            i += 1;
        }
        out.push(cloud[i]);
        pointer += step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use slj_motion::synth::{synthesize_jump, JumpConfig};
    use slj_video::render::render_silhouette;

    fn fixture(take: usize) -> (Vec<Mask>, Vec<Pose>, BodyDims, Camera) {
        let cfg = JumpConfig::default();
        let poses = synthesize_jump(&cfg);
        let camera = Camera::compact();
        let truth: Vec<Pose> = poses.poses().iter().take(take).copied().collect();
        let sils = truth
            .iter()
            .map(|p| render_silhouette(p, &cfg.dims, &camera))
            .collect();
        (sils, truth, cfg.dims, camera)
    }

    fn fast_config() -> ParticleFilterConfig {
        ParticleFilterConfig {
            particles: 150,
            stride: 4,
            seed: 7,
            ..ParticleFilterConfig::default()
        }
    }

    #[test]
    fn tracks_a_short_jump() {
        let (sils, truth, dims, camera) = fixture(6);
        let pf = ParticleFilter::new(fast_config());
        let run = pf.track(&sils, truth[0], &dims, &camera).unwrap();
        assert_eq!(run.frames.len(), 6);
        for (k, (est, gt)) in run.frames.iter().zip(truth.iter()).enumerate() {
            let err = est.pose.error_against(gt);
            assert!(
                err.center_distance < 0.2,
                "frame {k}: centre off {} m",
                err.center_distance
            );
            assert!(!est.carried_over);
        }
        assert!(run.total_evaluations() > 0);
    }

    #[test]
    fn deterministic_in_the_seed() {
        let (sils, truth, dims, camera) = fixture(4);
        let pf = ParticleFilter::new(fast_config());
        let a = pf.track(&sils, truth[0], &dims, &camera).unwrap();
        let b = pf.track(&sils, truth[0], &dims, &camera).unwrap();
        for (x, y) in a.frames.iter().zip(b.frames.iter()) {
            assert_eq!(x.pose.to_genes(), y.pose.to_genes());
        }
    }

    #[test]
    fn empty_silhouette_carries_over() {
        let (mut sils, truth, dims, camera) = fixture(4);
        sils[2] = Mask::new(camera.width, camera.height);
        let pf = ParticleFilter::new(fast_config());
        let run = pf.track(&sils, truth[0], &dims, &camera).unwrap();
        assert!(run.frames[2].carried_over);
        assert!(!run.frames[3].carried_over);
    }

    #[test]
    fn bad_configs_rejected() {
        let (sils, truth, dims, camera) = fixture(2);
        for cfg in [
            ParticleFilterConfig {
                particles: 1,
                ..fast_config()
            },
            ParticleFilterConfig {
                temperature: 0.0,
                ..fast_config()
            },
        ] {
            assert!(matches!(
                ParticleFilter::new(cfg).track(&sils, truth[0], &dims, &camera),
                Err(GaError::BadConfig { .. })
            ));
        }
        assert!(matches!(
            ParticleFilter::new(fast_config()).track(&[], truth[0], &dims, &camera),
            Err(GaError::NoFrames)
        ));
    }

    #[test]
    fn effective_sample_size_is_bounded() {
        let (sils, truth, dims, camera) = fixture(4);
        let pf = ParticleFilter::new(fast_config());
        let run = pf.track(&sils, truth[0], &dims, &camera).unwrap();
        for f in run.frames.iter().skip(1) {
            assert!(f.effective_sample_size >= 1.0 - 1e-9);
            assert!(f.effective_sample_size <= 150.0 + 1e-9);
        }
    }

    #[test]
    fn systematic_resample_follows_weights() {
        let dims = BodyDims::default();
        let a = Pose::standing(&dims);
        let mut b = a;
        b.center.x += 1.0;
        let cloud = vec![a, b];
        // All weight on b.
        let weights = vec![0.0, 1.0];
        let mut rng = StdRng::seed_from_u64(1);
        let out = systematic_resample(&cloud, &weights, 1.0, &mut rng);
        assert!(out.iter().all(|p| p.center.x == b.center.x));
        // Degenerate weights: cloud passes through.
        let out = systematic_resample(&cloud, &[0.0, 0.0], 0.0, &mut rng);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn to_pose_seq_roundtrip() {
        let (sils, truth, dims, camera) = fixture(3);
        let pf = ParticleFilter::new(fast_config());
        let run = pf.track(&sils, truth[0], &dims, &camera).unwrap();
        let seq = run.to_pose_seq(10.0);
        assert_eq!(seq.len(), 3);
    }
}
