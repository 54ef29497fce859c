//! Perf — the reproducible pipeline benchmark behind
//! `BENCH_pipeline.json`.
//!
//! Two sections on the standard 20-frame synthetic clip (320×240,
//! default scene, seed 5), each timed on the caller's thread — one
//! analysis never fans out:
//!
//! **pipeline** times two layers:
//!
//! * **tracking** — `TemporalTracker::track` alone, on pre-segmented
//!   silhouettes;
//! * **analyze** — the full `JumpAnalyzer::analyze` (background +
//!   segmentation + tracking + scoring).
//!
//! Before any clock starts, the section asserts that tracking alone
//! reproduces the full analysis's tracking bit for bit — poses, fitness
//! values and search diagnostics — so the two timings measure the same
//! GA work; `"identical": true` records that. The repeats alternate one
//! tracking run with one analysis, and each layer reports its best
//! repeat.
//!
//! **segmentation** times the Section-2 pipeline once, since no
//! analyzer setting changes it: the background estimate (Step 1) and
//! the per-frame stages (Steps 2–5) of one `FrameSegmenter` driven
//! frame by frame, the way `SegmentPipeline::run` and the streaming
//! analyzer drive it. Ghost suppression is on so all six stage kernels
//! do real work, and the per-stage breakdown comes from
//! `FrameSegmenter::segment_into_profiled`. Before the clock starts,
//! the timed loop is asserted to reproduce `SegmentPipeline::run`'s
//! stage masks for every frame.
//!
//! The JSON schema (`slj-perf-pipeline/6`) is documented in DESIGN.md
//! §9.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p slj-bench --bin perf_pipeline            # full
//! cargo run --release -p slj-bench --bin perf_pipeline -- --quick # CI smoke
//! ```

use serde::Serialize;
use slj::prelude::*;
use slj_bench::{banner, f1, print_table};
use slj_ga::tracker::TrackResult;
use slj_imgproc::mask::Mask;
use slj_runtime::available_threads;
use slj_segment::background::BackgroundEstimator;
use slj_segment::ghosts::GhostConfig;
use slj_segment::pipeline::{FrameStages, PipelineConfig, SegmentPipeline};
use slj_segment::{spans, FrameSegmenter, PreparedBackground, Profiler};
use slj_video::Frame;
use std::sync::Arc;
use std::time::Instant;

/// Master seed of the standard clip.
const SEED: u64 = 5;

/// Where the JSON baseline lands (repo root, next to ROADMAP.md).
const OUT_PATH: &str = "BENCH_pipeline.json";

#[derive(Debug, Clone, Serialize)]
struct ClipInfo {
    width: usize,
    height: usize,
    frames: usize,
    seed: u64,
    scene: &'static str,
}

/// The pipeline section: layer timings, milliseconds (best of
/// `repeats`, the two layers' runs alternating).
#[derive(Debug, Serialize)]
struct PipelineSection {
    tracking_ms: f64,
    analyze_ms: f64,
    /// Tracking alone reproduced the full analysis's tracking bit for
    /// bit (asserted).
    identical: bool,
}

/// The segmentation section, milliseconds (best of `repeats`; stage
/// columns come from the best run).
#[derive(Debug, Serialize)]
struct SegmentationSection {
    /// Ghost suppression on (all six stages exercised).
    ghosts: bool,
    /// Step 1: the background estimate, paid once per clip.
    background_ms: f64,
    extract_ms: f64,
    denoise_ms: f64,
    despot_ms: f64,
    deghost_ms: f64,
    fill_ms: f64,
    shadow_ms: f64,
    /// Wall time of the whole per-frame loop (Steps 2–5).
    kernel_ms: f64,
    /// The timed loop reproduced `SegmentPipeline::run`'s stage masks
    /// (asserted).
    identical: bool,
}

/// The whole benchmark: schema documented in DESIGN.md §9.
#[derive(Debug, Serialize)]
struct BenchReport {
    /// Schema identifier; bump on breaking change.
    schema: &'static str,
    /// `full` or `quick` (CI smoke run: fewer repeats, reduced GA
    /// budget — timings are not comparable with `full`).
    mode: &'static str,
    clip: ClipInfo,
    /// Timed runs per cell; the best (minimum) is reported.
    repeats: usize,
    /// Host threads reported by `std::thread::available_parallelism`.
    host_threads: usize,
    pipeline: PipelineSection,
    segmentation: SegmentationSection,
}

/// Best-of-`repeats` wall time of `work`, milliseconds, with the best
/// run's output.
fn time_ms<T>(repeats: usize, mut work: impl FnMut() -> T) -> (f64, T) {
    let mut best: Option<(f64, T)> = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let out = work();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if best.as_ref().is_none_or(|(fastest, _)| ms < *fastest) {
            best = Some((ms, out));
        }
    }
    best.expect("repeats >= 1")
}

/// Asserts two tracking runs are bit-identical: same pose genes, same
/// fitness bits, same search diagnostics, frame by frame.
fn assert_tracks_identical(reference: &[TrackResult], other: &[TrackResult]) {
    assert_eq!(reference.len(), other.len(), "frame count diverged");
    for (k, (r, o)) in reference.iter().zip(other).enumerate() {
        assert_eq!(
            r.pose.to_genes().map(f64::to_bits),
            o.pose.to_genes().map(f64::to_bits),
            "pose bits diverged, frame {k}"
        );
        assert_eq!(
            r.fitness.to_bits(),
            o.fitness.to_bits(),
            "fitness bits diverged, frame {k}"
        );
    }
    assert_eq!(reference, other, "results diverged");
}

fn run_pipeline_section(
    base: &AnalyzerConfig,
    jump: &SyntheticJump,
    scene: &SceneConfig,
    repeats: usize,
) -> PipelineSection {
    let first_pose = jump.poses.poses()[0];
    let analyzer = JumpAnalyzer::new(base.clone());
    let analyze = || {
        analyzer
            .analyze(&jump.video, &scene.camera, first_pose)
            .expect("analysis")
    };

    // Correctness first, before any clock starts: tracking alone, on
    // the analysis's own silhouettes, must reproduce the analysis's
    // tracking bit for bit — poses AND fitness values — so both layers
    // time the same GA work.
    let reference = analyze();
    let silhouettes: Vec<Mask> = reference.silhouettes().into_iter().cloned().collect();
    let tracker = TemporalTracker::new(base.tracker);
    let track = || {
        tracker
            .track(&silhouettes, first_pose, &base.dims, &scene.camera)
            .expect("tracking")
    };
    assert_tracks_identical(&reference.tracking, &track().frames);

    // One tracking run, then one analysis, per repeat: a change in the
    // machine's speed between repeats then reaches both layers alike,
    // and the best repeat of each is reported.
    let (mut tracking_ms, mut analyze_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..repeats {
        tracking_ms = tracking_ms.min(time_ms(1, track).0);
        analyze_ms = analyze_ms.min(time_ms(1, analyze).0);
    }
    PipelineSection {
        tracking_ms,
        analyze_ms,
        identical: true,
    }
}

/// Drives one `FrameSegmenter` over the clip in frame order — the loop
/// `SegmentPipeline::run` runs — billing per-stage time to `profiler`
/// and handing every frame's stages to `each`. Preparing the
/// background (the HSV cache) is part of the work.
fn segment_clip(
    config: &PipelineConfig,
    background: &Frame,
    inputs: &[Frame],
    profiler: &mut Profiler,
    mut each: impl FnMut(usize, &FrameStages),
) {
    let mut segmenter = FrameSegmenter::new(config, Arc::new(PreparedBackground::new(background)));
    let mut out = FrameStages::empty();
    let mut previous = None;
    for (k, frame) in inputs.iter().enumerate() {
        segmenter
            .segment_into_profiled(frame, previous, &mut out, profiler)
            .expect("segmentation");
        each(k, &out);
        previous = Some(frame);
    }
}

fn run_segmentation_section(
    base: &AnalyzerConfig,
    jump: &SyntheticJump,
    repeats: usize,
) -> SegmentationSection {
    // Ghost suppression on so all six stage kernels do real work.
    let config = PipelineConfig {
        ghosts: Some(GhostConfig::default()),
        ..base.segmentation.clone()
    };
    let inputs = jump.video.frames();

    // Correctness first: the loop under the clock must reproduce the
    // pipeline's stage masks byte for byte.
    let reference = SegmentPipeline::new(config.clone())
        .run(&jump.video)
        .expect("reference segmentation");
    segment_clip(
        &config,
        &reference.background.image,
        inputs,
        &mut Profiler::default(),
        |k, stages| {
            assert_eq!(
                stages, &reference.frames[k],
                "stage masks diverged from SegmentPipeline::run, frame {k}"
            );
        },
    );

    let (background_ms, background) = time_ms(repeats, || {
        BackgroundEstimator::new(config.background)
            .estimate(&jump.video)
            .expect("background")
    });
    let (kernel_ms, p) = time_ms(repeats, || {
        let mut profile = Profiler::default();
        segment_clip(
            &config,
            &background.image,
            inputs,
            &mut profile,
            |_, stages| {
                std::hint::black_box(stages);
            },
        );
        profile
    });

    SegmentationSection {
        ghosts: true,
        background_ms,
        extract_ms: p.ms(spans::SEGMENT_EXTRACT),
        denoise_ms: p.ms(spans::SEGMENT_DENOISE),
        despot_ms: p.ms(spans::SEGMENT_DESPOT),
        deghost_ms: p.ms(spans::SEGMENT_DEGHOST),
        fill_ms: p.ms(spans::SEGMENT_FILL),
        shadow_ms: p.ms(spans::SEGMENT_SHADOW),
        kernel_ms,
        identical: true,
    }
}

fn main() {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            other => panic!("unknown argument {other}: expected --quick"),
        }
    }

    let (mode, repeats, base) = if quick {
        ("quick", 1, AnalyzerConfig::fast())
    } else {
        ("full", 3, AnalyzerConfig::default())
    };
    banner("Perf", "tracking, analysis and segmentation timings", SEED);
    println!("   mode {mode}, {repeats} repeat(s)\n");

    let scene = SceneConfig::default();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), SEED);
    let clip = ClipInfo {
        width: jump.video.dims().0,
        height: jump.video.dims().1,
        frames: jump.video.len(),
        seed: SEED,
        scene: "default",
    };

    let pipeline = run_pipeline_section(&base, &jump, &scene, repeats);
    let segmentation = run_segmentation_section(&base, &jump, repeats);

    print_table(
        &["track ms", "analyze ms"],
        &[vec![f1(pipeline.tracking_ms), f1(pipeline.analyze_ms)]],
    );
    println!("\n(tracking alone bit-identical to the analysis's tracking)\n");

    let s = &segmentation;
    print_table(
        &[
            "extract", "denoise", "despot", "deghost", "fill", "shadow", "total ms",
        ],
        &[vec![
            f1(s.extract_ms),
            f1(s.denoise_ms),
            f1(s.despot_ms),
            f1(s.deghost_ms),
            f1(s.fill_ms),
            f1(s.shadow_ms),
            f1(s.kernel_ms),
        ]],
    );
    println!(
        "\n(per-frame stages with ghost suppression on; background estimation {:.1} ms; \
         stage masks identical to SegmentPipeline::run)\n",
        s.background_ms
    );

    let report = BenchReport {
        schema: "slj-perf-pipeline/6",
        mode,
        clip,
        repeats,
        host_threads: available_threads(),
        pipeline,
        segmentation,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialise");
    std::fs::write(OUT_PATH, json + "\n").expect("write BENCH_pipeline.json");
    println!("\nwrote {OUT_PATH}");
}
