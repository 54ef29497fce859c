//! The fault-matrix runner: a seeded grid of
//! (clip × fault profile × recovery policy), each cell run through the
//! full pipeline and scored against ground truth.
//!
//! Every cell is deterministic — synthetic clip, fault realisation and
//! GA are all seeded — so the emitted [`EvalReport`] (schema
//! [`SCHEMA`]) is byte-identical across runs and machines, and can be
//! diffed in CI like any other artifact. Cells fan out across a
//! [`WorkerPool`] sized by the workspace [`Parallelism`] knob, each free
//! worker claiming the next cell; each cell runs its own pipeline
//! serially and writes its own result slot, so the thread count changes
//! throughput only.

use crate::metrics::{self, FramePoseError, PoseAccuracy};
use serde::{Deserialize, Serialize};
use slj::{AnalysisReport, AnalyzerConfig, JumpAnalyzer, RobustnessPolicy};
use slj_ga::tracker::RecoveryAction;
use slj_imgproc::mask::Mask;
use slj_motion::{JumpConfig, Pose};
use slj_runtime::{ClaimOrder, Parallelism, WorkerPool};
use slj_video::{Camera, FaultConfig, FaultInjector, NoiseBurst, SceneConfig, SyntheticJump};
use std::collections::BTreeMap;

/// Schema identifier written into every report.
pub const SCHEMA: &str = "slj-eval/1";

/// One named fault profile of the matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Stable name used in report keys (kebab-case).
    pub name: String,
    /// The injected faults; the profile's `seed` is mixed with the
    /// clip seed per cell, so clips see decorrelated realisations.
    pub fault: FaultConfig,
}

impl FaultProfile {
    fn new(name: &str, fault: FaultConfig) -> Self {
        FaultProfile {
            name: name.to_owned(),
            fault,
        }
    }
}

/// The two recovery policies every cell is run under: the full ladder
/// with the kinematic-interpolation rung, and the same ladder with the
/// rung disabled (verbatim carry-over) — the A/B behind
/// [`EvalReport::interpolation_ab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GapPolicy {
    /// `RecoveryPolicy::interpolate = true` (the default ladder).
    Interpolate,
    /// `RecoveryPolicy::interpolate = false` (carry-over only).
    Carry,
}

impl GapPolicy {
    /// Stable report key.
    pub fn key(self) -> &'static str {
        match self {
            GapPolicy::Interpolate => "interpolate",
            GapPolicy::Carry => "carry",
        }
    }
}

/// The matrix to run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixConfig {
    /// Clip generation seeds (one synthetic jump per seed).
    pub seeds: Vec<u64>,
    /// Fault profiles; `clean` (no faults) is the usual baseline entry.
    pub profiles: Vec<FaultProfile>,
    /// Best-effort degraded-frame budget per cell.
    pub max_degraded_frames: usize,
    /// Worker threads for the cell fan-out (cells themselves run
    /// serially inside).
    pub parallelism: Parallelism,
}

impl MatrixConfig {
    /// The CI-sized matrix: two seeded clips across the fault taxonomy,
    /// severities picked so every recovery rung (including the gap
    /// rungs) actually fires somewhere in the grid.
    pub fn small() -> Self {
        MatrixConfig {
            seeds: vec![21, 42],
            profiles: standard_profiles(),
            max_degraded_frames: 20,
            parallelism: Parallelism::Serial,
        }
    }

    /// A denser sweep: more clips over the same profiles.
    pub fn full() -> Self {
        MatrixConfig {
            seeds: vec![7, 21, 42, 63, 84],
            ..MatrixConfig::small()
        }
    }

    fn cells(&self) -> Vec<(u64, FaultProfile, GapPolicy)> {
        let mut cells = Vec::new();
        for &seed in &self.seeds {
            for profile in &self.profiles {
                for policy in [GapPolicy::Interpolate, GapPolicy::Carry] {
                    cells.push((seed, profile.clone(), policy));
                }
            }
        }
        cells
    }
}

/// The shared fault taxonomy: one profile per injector family at a
/// plausible severity, plus `occlusion-dropout`, whose bar is wide
/// enough to swallow the whole subject — the bar sits in the
/// background median, so subtraction erases the occluded body and the
/// masks go truly blank for a few frames while the neighbouring
/// anchors stay clean. That transient full occlusion is the
/// physically-honest scenario the gap rungs (interpolate/carry) exist
/// for.
pub fn standard_profiles() -> Vec<FaultProfile> {
    vec![
        FaultProfile::new("clean", FaultConfig::default()),
        FaultProfile::new(
            "dropped-frames",
            FaultConfig {
                drop_prob: 0.15,
                ..FaultConfig::default()
            },
        ),
        FaultProfile::new(
            "sensor-noise-burst",
            FaultConfig {
                burst: Some(NoiseBurst {
                    count: 2,
                    len: 3,
                    amplitude: 45,
                }),
                ..FaultConfig::default()
            },
        ),
        FaultProfile::new(
            "occlusion-bar",
            FaultConfig {
                occlusion_bars: 1,
                ..FaultConfig::default()
            },
        ),
        FaultProfile::new(
            "motion-blur",
            FaultConfig {
                blur_px: 3,
                ..FaultConfig::default()
            },
        ),
        FaultProfile::new(
            "occlusion-dropout",
            FaultConfig {
                occlusion_bars: 1,
                bar_width_px: 22,
                ..FaultConfig::default()
            },
        ),
    ]
}

/// Stable report key for a recovery rung.
pub fn rung_key(recovery: RecoveryAction) -> &'static str {
    match recovery {
        RecoveryAction::None => "tracked",
        RecoveryAction::WidenedSearch => "widened_search",
        RecoveryAction::ColdRestart => "cold_restart",
        RecoveryAction::Interpolated => "interpolated",
        RecoveryAction::CarriedOver => "carried_over",
    }
}

/// One completed cell of the matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Clip generation seed.
    pub clip_seed: u64,
    /// Fault profile name.
    pub profile: String,
    /// Gap policy key (`interpolate` or `carry`).
    pub policy: String,
    /// Frames analysed.
    pub frames: usize,
    /// Frames below the confidence floor.
    pub degraded_frames: usize,
    /// Frames per recovery rung (absent rungs omitted).
    pub rungs: BTreeMap<String, usize>,
    /// Accuracy of the final (smoothed) pose output over all frames.
    pub pose: PoseAccuracy,
    /// Accuracy of the *raw* per-frame estimates over the gap frames —
    /// the frames whose pose was synthesised (interpolated or carried)
    /// rather than fitted. `None` when the cell had no gap frames.
    pub gap_pose: Option<PoseAccuracy>,
    /// Mean IoU of the final masks against re-rendered truth.
    pub mean_iou: f64,
    /// Worst single-frame IoU.
    pub min_iou: f64,
}

/// A cell whose analysis aborted (e.g. degraded budget exhausted).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellFailure {
    pub clip_seed: u64,
    pub profile: String,
    pub policy: String,
    /// The analyzer's error display.
    pub error: String,
}

/// Aggregate over every cell of one fault profile (interpolate-policy
/// cells only, so the axis measures the fault, not the A/B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultAggregate {
    /// Cells aggregated.
    pub cells: usize,
    /// Mean over cells of the mean endpoint RMSE, metres.
    pub mean_endpoint_rmse_m: f64,
    /// Mean over cells of the mean segmentation IoU.
    pub mean_iou: f64,
    /// Total degraded frames across cells.
    pub degraded_frames: usize,
}

/// Aggregate over every frame a given recovery rung produced
/// (interpolate-policy cells only), scored on raw per-frame estimates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RungAggregate {
    /// Frames the rung produced across the matrix.
    pub frames: usize,
    /// Mean endpoint RMSE of those frames, metres.
    pub mean_endpoint_rmse_m: f64,
    /// Mean segmentation IoU of those frames.
    pub mean_iou: f64,
}

/// The interpolation-vs-carry A/B over the matrix's gap frames: for
/// every (clip, profile) pair, the frames that were gaps under *either*
/// policy, scored on each policy's raw estimates for exactly those
/// frames.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterpolationAb {
    /// Gap frames compared (summed over cell pairs).
    pub gap_frames: usize,
    /// Mean endpoint RMSE of the interpolate policy on the gap frames.
    pub interpolate_rmse_m: f64,
    /// Mean endpoint RMSE of the carry policy on the same frames.
    pub carry_rmse_m: f64,
    /// `(carry − interpolate) / carry`, as a fraction.
    pub improvement: f64,
}

/// The deterministic matrix report (schema [`SCHEMA`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Clip seeds evaluated.
    pub seeds: Vec<u64>,
    /// Profile names evaluated, in matrix order.
    pub profiles: Vec<String>,
    /// Completed cells, in matrix order.
    pub cells: Vec<CellResult>,
    /// Cells that aborted.
    pub failures: Vec<CellFailure>,
    /// Per-fault-profile aggregates.
    pub per_fault: BTreeMap<String, FaultAggregate>,
    /// Per-recovery-rung aggregates.
    pub per_rung: BTreeMap<String, RungAggregate>,
    /// The interpolation A/B, when any gap frames occurred.
    pub interpolation_ab: Option<InterpolationAb>,
}

impl EvalReport {
    /// The canonical serialisation: pretty JSON + trailing newline,
    /// byte-identical for identical matrices.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialises") + "\n"
    }
}

/// Everything one analysed cell contributes, before aggregation.
struct CellOutcome {
    result: Result<CellData, String>,
    clip_seed: u64,
    profile: String,
    policy: GapPolicy,
}

struct CellData {
    cell: CellResult,
    /// Raw per-frame estimate errors (unsmoothed), frame-aligned.
    raw_errors: Vec<FramePoseError>,
    /// Per-frame recovery rungs.
    recoveries: Vec<RecoveryAction>,
    /// Per-frame segmentation IoU.
    ious: Vec<f64>,
}

/// Runs the full matrix and aggregates the report.
pub fn run_matrix(config: &MatrixConfig) -> EvalReport {
    let cells = config.cells();
    let threads = config.parallelism.threads().min(cells.len());
    let mut outcomes: Vec<Option<CellOutcome>> = Vec::new();
    outcomes.resize_with(cells.len(), || None);
    let run = |i: usize, slot: &mut Option<CellOutcome>| {
        *slot = Some(run_cell(&cells[i], config.max_degraded_frames));
    };

    if threads <= 1 {
        for (i, slot) in outcomes.iter_mut().enumerate() {
            run(i, slot);
        }
    } else {
        // Fault profiles differ in cost, so no worker owns a fixed share:
        // each claims the next cell, in matrix order, when it frees up.
        // Every cell writes its own slot, so results land in matrix
        // order whichever thread ran them. A panicking cell panics the
        // caller once every worker has finished.
        let mut order = ClaimOrder::default();
        order.heaviest_first(cells.iter().map(|_| 0));
        WorkerPool::new(threads).run_each(&mut outcomes, &order, &run);
    }

    let outcomes: Vec<CellOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every cell ran"))
        .collect();
    aggregate(config, outcomes)
}

/// One analysed cell plus the ground truth it was scored against —
/// shared between the matrix runner and the calibration corpus.
pub(crate) struct CellRun {
    /// True per-frame poses of the underlying clip.
    pub(crate) truth: Vec<Pose>,
    pub(crate) camera: Camera,
    pub(crate) report: Result<AnalysisReport, String>,
}

/// Generates the seeded clip, injects the profile's faults (with the
/// clip seed mixed in) and runs the best-effort analyzer.
pub(crate) fn analyze_cell(
    clip_seed: u64,
    fault: &FaultConfig,
    interpolate: bool,
    budget: usize,
) -> CellRun {
    let scene = SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::clean()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), clip_seed);
    let fault = FaultConfig {
        // Decorrelate fault realisations across clips.
        seed: fault.seed.wrapping_add(clip_seed),
        ..*fault
    };
    let video = if fault.is_noop() {
        jump.video.clone()
    } else {
        FaultInjector::new(fault).inject(&jump.video).0
    };

    let mut analyzer_config = AnalyzerConfig {
        robustness: RobustnessPolicy::BestEffort {
            max_degraded_frames: budget,
        },
        ..AnalyzerConfig::fast()
    };
    analyzer_config.tracker.recovery.interpolate = interpolate;

    let truth = jump.poses.poses().to_vec();
    let report = JumpAnalyzer::new(analyzer_config)
        .analyze(&video, &scene.camera, truth[0])
        .map_err(|e| e.to_string());
    CellRun {
        truth,
        camera: scene.camera,
        report,
    }
}

fn run_cell(
    (clip_seed, profile, policy): &(u64, FaultProfile, GapPolicy),
    budget: usize,
) -> CellOutcome {
    let run = analyze_cell(
        *clip_seed,
        &profile.fault,
        *policy == GapPolicy::Interpolate,
        budget,
    );
    let truth = &run.truth;
    let outcome = run.report.map(|report| {
        let dims = &JumpConfig::default().dims;
        // Product accuracy: the smoothed output poses.
        let smoothed_errors = metrics::pose_seq_errors(report.poses.poses(), truth, dims);
        // Rung attribution: the raw per-frame estimates.
        let raw_poses: Vec<_> = report.tracking.iter().map(|t| t.pose).collect();
        let raw_errors = metrics::pose_seq_errors(&raw_poses, truth, dims);
        let recoveries: Vec<RecoveryAction> = report.tracking.iter().map(|t| t.recovery).collect();
        let masks: Vec<&Mask> = report.silhouettes();
        let ious = metrics::segmentation_iou(&masks, truth, dims, &run.camera);

        let mut rungs: BTreeMap<String, usize> = BTreeMap::new();
        for r in &recoveries {
            *rungs.entry(rung_key(*r).to_owned()).or_insert(0) += 1;
        }
        let gap_errors: Vec<FramePoseError> = raw_errors
            .iter()
            .zip(&recoveries)
            .filter(|(_, r)| is_gap(**r))
            .map(|(e, _)| *e)
            .collect();

        CellData {
            cell: CellResult {
                clip_seed: *clip_seed,
                profile: profile.name.clone(),
                policy: policy.key().to_owned(),
                frames: report.poses.len(),
                degraded_frames: report.health.iter().filter(|h| h.is_degraded()).count(),
                rungs,
                pose: PoseAccuracy::over(&smoothed_errors).expect("analysed clips are non-empty"),
                gap_pose: PoseAccuracy::over(&gap_errors),
                mean_iou: mean(&ious),
                min_iou: ious.iter().copied().fold(f64::INFINITY, f64::min),
            },
            raw_errors,
            recoveries,
            ious,
        }
    });

    CellOutcome {
        result: outcome,
        clip_seed: *clip_seed,
        profile: profile.name.clone(),
        policy: *policy,
    }
}

fn is_gap(r: RecoveryAction) -> bool {
    matches!(
        r,
        RecoveryAction::Interpolated | RecoveryAction::CarriedOver
    )
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn aggregate(config: &MatrixConfig, outcomes: Vec<CellOutcome>) -> EvalReport {
    let mut cells = Vec::new();
    let mut failures = Vec::new();
    let mut per_fault: BTreeMap<String, Vec<&CellData>> = BTreeMap::new();
    // (clip_seed, profile) → per-policy data, for the A/B pairing.
    let mut pairs: BTreeMap<(u64, String), [Option<&CellData>; 2]> = BTreeMap::new();

    for outcome in &outcomes {
        match &outcome.result {
            Ok(data) => {
                cells.push(data.cell.clone());
                if outcome.policy == GapPolicy::Interpolate {
                    per_fault
                        .entry(outcome.profile.clone())
                        .or_default()
                        .push(data);
                }
                let slot = match outcome.policy {
                    GapPolicy::Interpolate => 0,
                    GapPolicy::Carry => 1,
                };
                pairs
                    .entry((outcome.clip_seed, outcome.profile.clone()))
                    .or_default()[slot] = Some(data);
            }
            Err(e) => failures.push(CellFailure {
                clip_seed: outcome.clip_seed,
                profile: outcome.profile.clone(),
                policy: outcome.policy.key().to_owned(),
                error: e.clone(),
            }),
        }
    }

    let per_fault: BTreeMap<String, FaultAggregate> = per_fault
        .into_iter()
        .map(|(name, datas)| {
            let n = datas.len() as f64;
            (
                name,
                FaultAggregate {
                    cells: datas.len(),
                    mean_endpoint_rmse_m: datas
                        .iter()
                        .map(|d| d.cell.pose.mean_endpoint_rmse_m)
                        .sum::<f64>()
                        / n,
                    mean_iou: datas.iter().map(|d| d.cell.mean_iou).sum::<f64>() / n,
                    degraded_frames: datas.iter().map(|d| d.cell.degraded_frames).sum(),
                },
            )
        })
        .collect();

    // Per-rung: every frame of every interpolate-policy cell, grouped
    // by the rung that produced it.
    let mut rung_frames: BTreeMap<&'static str, Vec<(f64, f64)>> = BTreeMap::new();
    for outcome in &outcomes {
        if outcome.policy != GapPolicy::Interpolate {
            continue;
        }
        if let Ok(data) = &outcome.result {
            for ((err, rec), iou) in data.raw_errors.iter().zip(&data.recoveries).zip(&data.ious) {
                rung_frames
                    .entry(rung_key(*rec))
                    .or_default()
                    .push((err.endpoint_rmse_m, *iou));
            }
        }
    }
    let per_rung: BTreeMap<String, RungAggregate> = rung_frames
        .into_iter()
        .map(|(key, frames)| {
            let n = frames.len() as f64;
            (
                key.to_owned(),
                RungAggregate {
                    frames: frames.len(),
                    mean_endpoint_rmse_m: frames.iter().map(|(e, _)| e).sum::<f64>() / n,
                    mean_iou: frames.iter().map(|(_, i)| i).sum::<f64>() / n,
                },
            )
        })
        .collect();

    // The A/B: over each pair, the union of gap frames under either
    // policy, scored on both policies' raw estimates.
    let mut gap_frames = 0usize;
    let mut interp_sum = 0.0;
    let mut carry_sum = 0.0;
    for pair in pairs.values() {
        let (Some(interp), Some(carry)) = (pair[0], pair[1]) else {
            continue;
        };
        let n = interp.recoveries.len().min(carry.recoveries.len());
        for k in 0..n {
            if is_gap(interp.recoveries[k]) || is_gap(carry.recoveries[k]) {
                gap_frames += 1;
                interp_sum += interp.raw_errors[k].endpoint_rmse_m;
                carry_sum += carry.raw_errors[k].endpoint_rmse_m;
            }
        }
    }
    let interpolation_ab = (gap_frames > 0).then(|| {
        let interpolate_rmse_m = interp_sum / gap_frames as f64;
        let carry_rmse_m = carry_sum / gap_frames as f64;
        InterpolationAb {
            gap_frames,
            interpolate_rmse_m,
            carry_rmse_m,
            improvement: if carry_rmse_m > 0.0 {
                (carry_rmse_m - interpolate_rmse_m) / carry_rmse_m
            } else {
                0.0
            },
        }
    });

    EvalReport {
        schema: SCHEMA.to_owned(),
        seeds: config.seeds.clone(),
        profiles: config.profiles.iter().map(|p| p.name.clone()).collect(),
        cells,
        failures,
        per_fault,
        per_rung,
        interpolation_ab,
    }
}

/// Renders the human-facing summary of a report.
pub fn markdown_summary(report: &EvalReport) -> String {
    let mut out = String::new();
    out.push_str("# Fault-matrix accuracy report\n\n");
    out.push_str(&format!(
        "Schema `{}` · {} clip seed(s) × {} profile(s) × 2 gap policies · {} cell(s), {} failure(s)\n\n",
        report.schema,
        report.seeds.len(),
        report.profiles.len(),
        report.cells.len(),
        report.failures.len(),
    ));

    out.push_str("## Per fault profile (interpolate policy)\n\n");
    out.push_str("| profile | cells | endpoint RMSE (m) | seg IoU | degraded frames |\n");
    out.push_str("|---|---|---|---|---|\n");
    for (name, agg) in &report.per_fault {
        out.push_str(&format!(
            "| {} | {} | {:.4} | {:.3} | {} |\n",
            name, agg.cells, agg.mean_endpoint_rmse_m, agg.mean_iou, agg.degraded_frames
        ));
    }

    out.push_str("\n## Per recovery rung\n\n");
    out.push_str("| rung | frames | endpoint RMSE (m) | seg IoU |\n");
    out.push_str("|---|---|---|---|\n");
    for (name, agg) in &report.per_rung {
        out.push_str(&format!(
            "| {} | {} | {:.4} | {:.3} |\n",
            name, agg.frames, agg.mean_endpoint_rmse_m, agg.mean_iou
        ));
    }

    match &report.interpolation_ab {
        Some(ab) => out.push_str(&format!(
            "\n## Interpolation A/B ({} gap frames)\n\n\
             Kinematic interpolation: **{:.4} m** endpoint RMSE vs carry-over \
             **{:.4} m** — {:+.1}% change.\n",
            ab.gap_frames,
            ab.interpolate_rmse_m,
            ab.carry_rmse_m,
            -100.0 * ab.improvement,
        )),
        None => out.push_str("\n_No gap frames occurred anywhere in the matrix._\n"),
    }
    if !report.failures.is_empty() {
        out.push_str("\n## Failures\n\n");
        for f in &report.failures {
            out.push_str(&format!(
                "- seed {} · {} · {}: {}\n",
                f.clip_seed, f.profile, f.policy, f.error
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_config() -> MatrixConfig {
        MatrixConfig {
            seeds: vec![21],
            profiles: vec![
                FaultProfile::new("clean", FaultConfig::default()),
                FaultProfile::new(
                    "occlusion-dropout",
                    FaultConfig {
                        occlusion_bars: 1,
                        bar_width_px: 22,
                        ..FaultConfig::default()
                    },
                ),
            ],
            max_degraded_frames: 20,
            parallelism: Parallelism::Serial,
        }
    }

    #[test]
    fn mini_matrix_is_deterministic_and_scores_gaps() {
        let config = mini_config();
        let a = run_matrix(&config);
        let b = run_matrix(&config);
        assert_eq!(a.to_json(), b.to_json(), "same matrix, same bytes");
        assert_eq!(a.schema, SCHEMA);
        assert!(a.failures.is_empty(), "failures: {:?}", a.failures);
        assert_eq!(a.cells.len(), 4);
        // The clean profile tracks everything.
        let clean = &a.per_fault["clean"];
        assert!(clean.mean_endpoint_rmse_m < 0.2, "{clean:?}");
        assert!(clean.mean_iou > 0.85, "{clean:?}");
        // The wide occluder produces blank-mask gap frames, so the A/B
        // exists and interpolation beats carry-over.
        let ab = a.interpolation_ab.expect("occlusion-dropout produces gaps");
        assert!(ab.gap_frames > 0);
        assert!(
            ab.interpolate_rmse_m < ab.carry_rmse_m,
            "interpolation must beat carry-over: {ab:?}"
        );
        // The rung table has entries for both ladder extremes.
        assert!(a.per_rung.contains_key("tracked"));
        assert!(a.per_rung.contains_key("interpolated"), "{:?}", a.per_rung);
    }

    #[test]
    fn parallel_matrix_matches_serial() {
        let serial = run_matrix(&mini_config());
        let parallel = run_matrix(&MatrixConfig {
            parallelism: Parallelism::Fixed(4),
            ..mini_config()
        });
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    #[test]
    fn markdown_summary_names_every_profile() {
        let report = run_matrix(&mini_config());
        let md = markdown_summary(&report);
        assert!(md.contains("slj-eval/1"));
        assert!(md.contains("clean"));
        assert!(md.contains("occlusion-dropout"));
        assert!(md.contains("Interpolation A/B"));
    }
}
