//! Perf — the reproducible pipeline benchmark behind
//! `BENCH_pipeline.json`.
//!
//! Two sections on the standard 20-frame synthetic clip (320×240,
//! default scene, seed 5):
//!
//! **pipeline** times two layers under two configurations, `serial`
//! (one thread) and `parallel` (`--threads` GA workers, default 4,
//! clamped to the host's `available_parallelism`):
//!
//! * **tracking** — `TemporalTracker::track` alone, on pre-segmented
//!   silhouettes;
//! * **analyze** — the full `JumpAnalyzer::analyze` (background +
//!   segmentation + tracking + scoring).
//!
//! Before any clock starts, the section asserts that tracking yields
//! bit-identical poses and fitness values at Serial, Fixed(4) and Auto
//! parallelism, and that both configurations produce the identical
//! analysis; `"identical": true` records that.
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
//! Configurations whose thread request exceeded the host's cores carry
//! `"clamped": true` in the JSON and a warning in the console summary:
//! their parallel timings understate what a wider machine would show.
//! The JSON schema (`slj-perf-pipeline/5`) is documented in DESIGN.md
//! §9.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p slj-bench --bin perf_pipeline            # full
//! cargo run --release -p slj-bench --bin perf_pipeline -- --quick # CI smoke
//! cargo run --release -p slj-bench --bin perf_pipeline -- --threads 8
//! ```

use serde::Serialize;
use slj::prelude::*;
use slj_bench::{banner, f1, print_table};
use slj_ga::tracker::TrackingRun;
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

/// One configuration's layer timings, milliseconds (best of `repeats`).
#[derive(Debug, Clone, Serialize)]
struct ConfigReport {
    name: &'static str,
    /// The thread count the configuration asked for.
    threads_requested: usize,
    /// The count actually used after clamping to the host.
    threads: usize,
    /// `true` when the host had fewer cores than requested — the
    /// parallel timings understate a wider machine.
    clamped: bool,
    tracking_ms: f64,
    analyze_ms: f64,
}

/// The pipeline section.
#[derive(Debug, Serialize)]
struct PipelineSection {
    configs: Vec<ConfigReport>,
    /// Tracking poses and fitness values bit-identical at Serial /
    /// Fixed(4) / Auto, and one analysis across configs (asserted).
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

struct Variant {
    name: &'static str,
    threads_requested: usize,
    parallelism: Parallelism,
}

fn variants(requested: usize, resolved: usize) -> [Variant; 2] {
    [
        Variant {
            name: "serial",
            threads_requested: 1,
            parallelism: Parallelism::Serial,
        },
        Variant {
            name: "parallel",
            threads_requested: requested,
            parallelism: Parallelism::Fixed(resolved),
        },
    ]
}

fn analyzer_config(base: &AnalyzerConfig, v: &Variant) -> AnalyzerConfig {
    let mut cfg = base.clone();
    cfg.parallelism = v.parallelism;
    cfg
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
fn assert_tracks_identical(reference: &TrackingRun, other: &TrackingRun, what: &str) {
    assert_eq!(
        reference.frames.len(),
        other.frames.len(),
        "{what}: frame count diverged"
    );
    for (k, (r, o)) in reference.frames.iter().zip(&other.frames).enumerate() {
        assert_eq!(
            r.pose.to_genes().map(f64::to_bits),
            o.pose.to_genes().map(f64::to_bits),
            "{what}: pose bits diverged, frame {k}"
        );
        assert_eq!(
            r.fitness.to_bits(),
            o.fitness.to_bits(),
            "{what}: fitness bits diverged, frame {k}"
        );
    }
    assert_eq!(reference.frames, other.frames, "{what}: results diverged");
}

fn run_pipeline_section(
    base: &AnalyzerConfig,
    jump: &SyntheticJump,
    scene: &SceneConfig,
    repeats: usize,
    threads_requested: usize,
    threads_resolved: usize,
) -> PipelineSection {
    let first_pose = jump.poses.poses()[0];
    let variants = variants(threads_requested, threads_resolved);

    // Correctness first, before any clock starts: parallelism is a
    // throughput setting, so tracking must reproduce the serial run bit
    // for bit — poses AND fitness values — at every policy, and every
    // configuration must produce the identical analysis.
    let silhouettes: Vec<Mask> = SegmentPipeline::new(base.segmentation.clone())
        .run(&jump.video)
        .expect("segmentation")
        .frames
        .iter()
        .map(|s| s.final_mask.clone())
        .collect();
    let track = |parallelism: Parallelism| {
        TemporalTracker::new(TrackerConfig {
            parallelism,
            ..base.tracker
        })
        .track(&silhouettes, first_pose, &base.dims, &scene.camera)
        .expect("tracking")
    };
    let reference = track(Parallelism::Serial);
    for (what, parallelism) in [
        ("fixed4", Parallelism::Fixed(4)),
        ("auto", Parallelism::Auto),
    ] {
        assert_tracks_identical(&reference, &track(parallelism), what);
    }
    let analyze = |v: &Variant| {
        JumpAnalyzer::new(analyzer_config(base, v))
            .analyze(&jump.video, &scene.camera, first_pose)
            .expect("analysis")
    };
    let reference = analyze(&variants[0]);
    for v in &variants[1..] {
        let report = analyze(v);
        assert_eq!(reference.poses, report.poses, "{}: poses diverged", v.name);
        assert_eq!(reference.score, report.score, "{}: score diverged", v.name);
        assert_eq!(
            reference.health, report.health,
            "{}: health diverged",
            v.name
        );
    }

    let mut configs = Vec::new();
    for v in &variants {
        // Tracking alone, on the already-segmented masks.
        let (tracking_ms, _) = time_ms(repeats, || track(v.parallelism));

        // The full analysis.
        let analyzer = JumpAnalyzer::new(analyzer_config(base, v));
        let (analyze_ms, _) = time_ms(repeats, || {
            analyzer
                .analyze(&jump.video, &scene.camera, first_pose)
                .expect("analysis")
        });

        configs.push(ConfigReport {
            name: v.name,
            threads_requested: v.threads_requested,
            threads: v.parallelism.threads(),
            clamped: v.parallelism.threads() < v.threads_requested,
            tracking_ms,
            analyze_ms,
        });
    }

    PipelineSection {
        configs,
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
    let mut threads_requested = 4usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--threads" => {
                threads_requested = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads takes an integer");
            }
            other => panic!("unknown argument {other}: expected --quick or --threads N"),
        }
    }
    // Oversubscribing a CPU-bound stage only adds scheduler churn, so
    // the requested worker count is clamped to the host's cores and
    // both numbers land in the JSON.
    let threads_resolved = threads_requested.min(available_threads()).max(1);

    let (mode, repeats, base) = if quick {
        ("quick", 1, AnalyzerConfig::fast())
    } else {
        ("full", 3, AnalyzerConfig::default())
    };
    banner("Perf", "pipeline timings: serial vs worker threads", SEED);
    println!(
        "   mode {mode}, {repeats} repeat(s), {threads_requested} worker threads requested \
         ({threads_resolved} after host clamp)\n"
    );
    if threads_resolved < threads_requested {
        println!(
            "   warning: host has only {} thread(s); parallel configurations are \
             clamped and carry \"clamped\": true in the JSON\n",
            available_threads()
        );
    }

    let scene = SceneConfig::default();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), SEED);
    let clip = ClipInfo {
        width: jump.video.dims().0,
        height: jump.video.dims().1,
        frames: jump.video.len(),
        seed: SEED,
        scene: "default",
    };

    let pipeline = run_pipeline_section(
        &base,
        &jump,
        &scene,
        repeats,
        threads_requested,
        threads_resolved,
    );
    let segmentation = run_segmentation_section(&base, &jump, repeats);

    let rows: Vec<Vec<String>> = pipeline
        .configs
        .iter()
        .map(|c| {
            vec![
                c.name.to_owned(),
                format!("{}{}", c.threads, if c.clamped { "*" } else { "" }),
                f1(c.tracking_ms),
                f1(c.analyze_ms),
            ]
        })
        .collect();
    print_table(&["config", "threads", "track ms", "analyze ms"], &rows);
    println!(
        "\n(tracking bit-identical at Serial / Fixed(4) / Auto and one analysis across \
         configurations{})\n",
        if pipeline.configs.iter().any(|c| c.clamped) {
            "; * = thread request clamped to the host"
        } else {
            ""
        }
    );

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
        schema: "slj-perf-pipeline/5",
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
