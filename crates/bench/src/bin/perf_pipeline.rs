//! Perf — the reproducible pipeline benchmark behind
//! `BENCH_pipeline.json`.
//!
//! Two measurement modes (select with
//! `--mode pipeline|segmentation|all`, default `all`):
//!
//! **pipeline** times the three expensive layers on the standard
//! 20-frame synthetic clip (320×240, default scene, seed 5):
//!
//! * **segmentation** — `SegmentPipeline::run_prepared` alone: every
//!   configuration reuses one background estimate + HSV cache per
//!   config, the way the streaming analyzer does (the shared
//!   estimation cost is reported separately as `background_ms`);
//! * **tracking** — `TemporalTracker::track` alone, on pre-segmented
//!   silhouettes;
//! * **analyze** — the full `JumpAnalyzer::analyze` (background +
//!   segmentation + tracking + scoring).
//!
//! Each layer is measured under two configurations: `serial` (one
//! thread) and `parallel` (`--threads` workers, default 4, clamped to
//! the host's `available_parallelism`). Before any clock starts, the
//! section asserts that tracking yields bit-identical poses and fitness
//! values at Serial, Fixed(4) and Auto parallelism, and that both
//! configurations produce the identical analysis; `"identical": true`
//! records that.
//!
//! **segmentation** isolates the per-frame stage kernels (the six
//! Section-2 stages, *excluding* the background estimation every engine
//! shares) and compares:
//!
//! * `scalar-reference` — the pre-bit-packing implementation kept alive
//!   in `slj_bench::scalar`: per-pixel `Vec<bool>` loops, a fresh
//!   allocation per stage, and the background pixel re-converted to HSV
//!   for every Eq. 1 shadow test;
//! * `packed-serial` — `FrameSegmenter` with bit-packed masks, the
//!   cached background-HSV plane, and arena-backed scratch;
//! * `packed-parallel` — the same kernel fanned out in contiguous frame
//!   chunks (per-stage times are summed across workers, so they are
//!   CPU time; `kernel_ms` is wall time);
//! * `packed-streaming` — the kernel as `StreamingAnalyzer` drives it:
//!   frames arrive one at a time and only the previous frame is
//!   retained.
//!
//! Every engine is asserted to produce the same stage masks for all
//! seven planes before any number is reported. Configurations whose
//! thread request exceeded the host's cores carry `"clamped": true` in
//! the JSON and a warning in the console summary: their parallel
//! timings understate what a wider machine would show. The JSON schema
//! (`slj-perf-pipeline/4`) is documented in DESIGN.md §Performance.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p slj-bench --bin perf_pipeline            # full
//! cargo run --release -p slj-bench --bin perf_pipeline -- --quick # CI smoke
//! cargo run --release -p slj-bench --bin perf_pipeline -- --mode segmentation
//! ```

use serde::Serialize;
use slj::prelude::*;
use slj_bench::scalar::ScalarSegmenter;
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
    segmentation_ms: f64,
    tracking_ms: f64,
    analyze_ms: f64,
}

/// The `--mode pipeline` section.
#[derive(Debug, Serialize)]
struct PipelineSection {
    /// The shared per-clip background estimation cost, excluded from
    /// `segmentation_ms` (every config reuses one prepared background,
    /// like the streaming analyzer) but still inside `analyze_ms`.
    background_ms: f64,
    configs: Vec<ConfigReport>,
    /// Tracking poses and fitness values bit-identical at Serial /
    /// Fixed(4) / Auto, and one analysis across configs (asserted).
    identical: bool,
}

/// One segmentation engine's kernel timings, milliseconds (best of
/// `repeats`; stage columns come from the best run).
#[derive(Debug, Clone, Serialize)]
struct KernelReport {
    name: &'static str,
    threads_requested: usize,
    threads: usize,
    /// `true` when the host had fewer cores than requested.
    clamped: bool,
    extract_ms: f64,
    denoise_ms: f64,
    despot_ms: f64,
    deghost_ms: f64,
    fill_ms: f64,
    shadow_ms: f64,
    /// Wall time of the whole per-frame loop (for `packed-parallel`
    /// this is less than the CPU-time stage sum when workers overlap).
    kernel_ms: f64,
}

/// The `--mode segmentation` section.
#[derive(Debug, Serialize)]
struct SegmentationSection {
    /// Ghost suppression on (all six stages exercised).
    ghosts: bool,
    /// The shared background-estimation cost every engine pays before
    /// the first frame; excluded from the kernel timings.
    background_ms: f64,
    configs: Vec<KernelReport>,
    /// `scalar-reference` ÷ `packed-serial` kernel wall time.
    speedup_kernel_serial: f64,
    /// `scalar-reference` ÷ `packed-streaming` kernel wall time.
    speedup_kernel_streaming: f64,
    /// `scalar-reference` ÷ the best packed kernel wall time.
    speedup_kernel_best: f64,
    /// All engines produced byte-identical stage masks (asserted).
    identical: bool,
}

/// The whole benchmark: schema documented in DESIGN.md §Performance.
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
    /// `null` when the pipeline section was skipped.
    pipeline: Option<PipelineSection>,
    /// `null` when the segmentation section was skipped.
    segmentation: Option<SegmentationSection>,
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

/// Best-of-`repeats` wall time of `work`, milliseconds.
fn time_ms<T>(repeats: usize, mut work: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let out = work();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (best, last.expect("repeats >= 1"))
}

/// Best-of-`repeats` wall time of a kernel loop, keeping the
/// span-profiled stage breakdown of the best run.
fn time_kernel(repeats: usize, mut work: impl FnMut() -> Profiler) -> (f64, Profiler) {
    let mut best = f64::INFINITY;
    let mut best_profile = Profiler::default();
    for _ in 0..repeats {
        let start = Instant::now();
        let profile = work();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ms < best {
            best = ms;
            best_profile = profile;
        }
    }
    (best, best_profile)
}

fn kernel_report(
    name: &'static str,
    threads_requested: usize,
    threads: usize,
    kernel_ms: f64,
    p: &Profiler,
) -> KernelReport {
    KernelReport {
        name,
        threads_requested,
        threads,
        clamped: threads < threads_requested,
        extract_ms: p.ms(spans::SEGMENT_EXTRACT),
        denoise_ms: p.ms(spans::SEGMENT_DENOISE),
        despot_ms: p.ms(spans::SEGMENT_DESPOT),
        deghost_ms: p.ms(spans::SEGMENT_DEGHOST),
        fill_ms: p.ms(spans::SEGMENT_FILL),
        shadow_ms: p.ms(spans::SEGMENT_SHADOW),
        kernel_ms,
    }
}

fn previous_input(inputs: &[Frame], k: usize) -> Option<&Frame> {
    k.checked_sub(1).map(|p| &inputs[p])
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

    // The background estimate is a per-clip cost shared by every
    // configuration (and reused across re-analyses by the streaming
    // analyzer), so it is timed once and factored out of the
    // segmentation layer.
    let (background_ms, background) = time_ms(repeats, || {
        BackgroundEstimator::new(base.segmentation.background)
            .estimate(&jump.video)
            .expect("background")
    });
    let prepared = Arc::new(PreparedBackground::new(&background.image));

    let mut configs = Vec::new();
    for v in &variants {
        let cfg = analyzer_config(base, v);

        // Layer 1: segmentation alone, on the shared prepared
        // background (the per-run background clone is two buffer
        // memcpys — noise next to the per-frame stages).
        let pipeline = SegmentPipeline::new(PipelineConfig {
            parallelism: cfg.parallelism,
            ..cfg.segmentation.clone()
        });
        let (segmentation_ms, seg) = time_ms(repeats, || {
            pipeline
                .run_prepared(&jump.video, background.clone(), Arc::clone(&prepared))
                .expect("segmentation")
        });

        // Layer 2: tracking alone, on the already-segmented masks.
        let silhouettes: Vec<Mask> = seg.frames.iter().map(|s| s.final_mask.clone()).collect();
        let tracker = TemporalTracker::new(TrackerConfig {
            parallelism: cfg.parallelism,
            ..cfg.tracker
        });
        let (tracking_ms, _) = time_ms(repeats, || {
            tracker
                .track(&silhouettes, first_pose, &cfg.dims, &scene.camera)
                .expect("tracking")
        });

        // Layer 3: the full analysis.
        let analyzer = JumpAnalyzer::new(cfg);
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
            segmentation_ms,
            tracking_ms,
            analyze_ms,
        });
    }

    PipelineSection {
        background_ms,
        configs,
        identical: true,
    }
}

fn run_segmentation_section(
    base: &AnalyzerConfig,
    jump: &SyntheticJump,
    repeats: usize,
    threads_requested: usize,
    threads_resolved: usize,
) -> SegmentationSection {
    // Ghost suppression on so all six stage kernels do real work.
    let seg_config = PipelineConfig {
        ghosts: Some(GhostConfig::default()),
        ..base.segmentation.clone()
    };
    let inputs = jump.video.frames();

    // The shared cost every engine pays once per clip, before any
    // per-frame kernel runs. Timed for transparency, excluded from the
    // kernel comparison.
    let (background_ms, background) = time_ms(repeats, || {
        BackgroundEstimator::new(seg_config.background)
            .estimate(&jump.video)
            .expect("background")
    });

    // Correctness first: every engine must reproduce the serial packed
    // pipeline's stage masks byte for byte.
    let reference = SegmentPipeline::new(seg_config.clone())
        .run(&jump.video)
        .expect("reference segmentation");
    let scalar = ScalarSegmenter::new(&seg_config, &background.image);
    for (k, frame) in inputs.iter().enumerate() {
        let s = scalar.segment(frame, previous_input(inputs, k));
        let r = &reference.frames[k];
        for (plane, packed, what) in [
            (&s.raw, &r.raw, "raw"),
            (&s.denoised, &r.denoised, "denoised"),
            (&s.despotted, &r.despotted, "despotted"),
            (&s.deghosted, &r.deghosted, "deghosted"),
            (&s.filled, &r.filled, "filled"),
            (&s.shadow, &r.shadow, "shadow"),
            (&s.final_mask, &r.final_mask, "final"),
        ] {
            assert_eq!(
                &s.to_mask(plane),
                packed,
                "scalar {what} mask diverged, frame {k}"
            );
        }
    }
    let parallel = SegmentPipeline::new(PipelineConfig {
        parallelism: Parallelism::Fixed(threads_resolved),
        ..seg_config.clone()
    })
    .run(&jump.video)
    .expect("parallel segmentation");
    assert_eq!(
        parallel.frames, reference.frames,
        "parallel stage masks diverged"
    );
    {
        // The streaming driver: frames arrive one at a time, only the
        // previous frame is retained.
        let mut segmenter = FrameSegmenter::new(
            &seg_config,
            Arc::new(PreparedBackground::new(&background.image)),
        );
        let mut out = FrameStages::empty();
        let mut prev: Option<Frame> = None;
        for (k, frame) in inputs.iter().enumerate() {
            segmenter
                .segment_into(frame, prev.as_ref(), &mut out)
                .expect("streaming segmentation");
            assert_eq!(
                out, reference.frames[k],
                "streaming stage masks diverged, frame {k}"
            );
            match prev.as_mut() {
                Some(p) => p.clone_from(frame),
                None => prev = Some(frame.clone()),
            }
        }
    }

    // Now the clocks. Each engine's one-time per-clip setup (cloning or
    // HSV-caching the background) happens inside the timed region so
    // the packed engines also pay for their cache.
    let (scalar_ms, scalar_timings) = time_kernel(repeats, || {
        let scalar = ScalarSegmenter::new(&seg_config, &background.image);
        let mut t = Profiler::default();
        for (k, frame) in inputs.iter().enumerate() {
            let stages = scalar.segment_profiled(frame, previous_input(inputs, k), &mut t);
            std::hint::black_box(&stages);
        }
        t
    });

    let (serial_ms, serial_timings) = time_kernel(repeats, || {
        let mut segmenter = FrameSegmenter::new(
            &seg_config,
            Arc::new(PreparedBackground::new(&background.image)),
        );
        let mut out = FrameStages::empty();
        let mut t = Profiler::default();
        for (k, frame) in inputs.iter().enumerate() {
            segmenter
                .segment_into_profiled(frame, previous_input(inputs, k), &mut out, &mut t)
                .expect("packed-serial");
            std::hint::black_box(&out);
        }
        t
    });

    let (parallel_ms, parallel_timings) = time_kernel(repeats, || {
        let prepared = Arc::new(PreparedBackground::new(&background.image));
        let chunk = inputs.len().div_ceil(threads_resolved);
        let workers = inputs.len().div_ceil(chunk);
        let mut timings = vec![Profiler::default(); workers];
        let config = &seg_config;
        std::thread::scope(|scope| {
            for (ci, slot) in timings.chunks_mut(1).enumerate() {
                let prepared = Arc::clone(&prepared);
                scope.spawn(move || {
                    let mut segmenter = FrameSegmenter::new(config, prepared);
                    let mut out = FrameStages::empty();
                    let mut t = Profiler::default();
                    for k in ci * chunk..((ci + 1) * chunk).min(inputs.len()) {
                        segmenter
                            .segment_into_profiled(
                                &inputs[k],
                                previous_input(inputs, k),
                                &mut out,
                                &mut t,
                            )
                            .expect("packed-parallel");
                        std::hint::black_box(&out);
                    }
                    slot[0] = t;
                });
            }
        });
        let mut merged = Profiler::default();
        for t in &timings {
            merged.absorb(t);
        }
        merged
    });

    let (streaming_ms, streaming_timings) = time_kernel(repeats, || {
        let mut segmenter = FrameSegmenter::new(
            &seg_config,
            Arc::new(PreparedBackground::new(&background.image)),
        );
        let mut out = FrameStages::empty();
        let mut prev: Option<Frame> = None;
        let mut t = Profiler::default();
        for frame in inputs {
            segmenter
                .segment_into_profiled(frame, prev.as_ref(), &mut out, &mut t)
                .expect("packed-streaming");
            std::hint::black_box(&out);
            match prev.as_mut() {
                Some(p) => p.clone_from(frame),
                None => prev = Some(frame.clone()),
            }
        }
        t
    });

    let configs = vec![
        kernel_report("scalar-reference", 1, 1, scalar_ms, &scalar_timings),
        kernel_report("packed-serial", 1, 1, serial_ms, &serial_timings),
        kernel_report(
            "packed-parallel",
            threads_requested,
            threads_resolved,
            parallel_ms,
            &parallel_timings,
        ),
        kernel_report("packed-streaming", 1, 1, streaming_ms, &streaming_timings),
    ];
    let best_packed = serial_ms.min(parallel_ms).min(streaming_ms);
    SegmentationSection {
        ghosts: true,
        background_ms,
        configs,
        speedup_kernel_serial: scalar_ms / serial_ms,
        speedup_kernel_streaming: scalar_ms / streaming_ms,
        speedup_kernel_best: scalar_ms / best_packed,
        identical: true,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let threads_requested: usize = flag_value("--threads")
        .map(|v| v.parse().expect("--threads takes an integer"))
        .unwrap_or(4);
    let section = flag_value("--mode").unwrap_or_else(|| "all".to_owned());
    let (run_pipeline, run_segmentation) = match section.as_str() {
        "pipeline" => (true, false),
        "segmentation" => (false, true),
        "all" => (true, true),
        other => panic!("--mode {other}: expected pipeline, segmentation or all"),
    };
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
        "   mode {mode}, sections: {section}, {repeats} repeat(s), \
         {threads_requested} worker threads requested ({threads_resolved} after host clamp)\n"
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

    let pipeline = run_pipeline.then(|| {
        run_pipeline_section(
            &base,
            &jump,
            &scene,
            repeats,
            threads_requested,
            threads_resolved,
        )
    });
    let segmentation = run_segmentation.then(|| {
        run_segmentation_section(&base, &jump, repeats, threads_requested, threads_resolved)
    });

    if let Some(p) = &pipeline {
        let rows: Vec<Vec<String>> = p
            .configs
            .iter()
            .map(|c| {
                vec![
                    c.name.to_owned(),
                    format!("{}{}", c.threads, if c.clamped { "*" } else { "" }),
                    f1(c.segmentation_ms),
                    f1(c.tracking_ms),
                    f1(c.analyze_ms),
                ]
            })
            .collect();
        print_table(
            &["config", "threads", "segment ms", "track ms", "analyze ms"],
            &rows,
        );
        println!(
            "\n(background estimation {:.1} ms, shared per config; tracking bit-identical \
             at Serial / Fixed(4) / Auto and one analysis across configurations{})\n",
            p.background_ms,
            if p.configs.iter().any(|c| c.clamped) {
                "; * = thread request clamped to the host"
            } else {
                ""
            }
        );
    }

    if let Some(s) = &segmentation {
        let rows: Vec<Vec<String>> = s
            .configs
            .iter()
            .map(|c| {
                vec![
                    c.name.to_owned(),
                    format!("{}{}", c.threads, if c.clamped { "*" } else { "" }),
                    f1(c.extract_ms),
                    f1(c.denoise_ms),
                    f1(c.despot_ms),
                    f1(c.deghost_ms),
                    f1(c.fill_ms),
                    f1(c.shadow_ms),
                    f1(c.kernel_ms),
                ]
            })
            .collect();
        print_table(
            &[
                "kernel", "threads", "extract", "denoise", "despot", "deghost", "fill", "shadow",
                "total ms",
            ],
            &rows,
        );
        println!(
            "\nstage-kernel speedup vs scalar reference: serial {:.2}x, streaming {:.2}x, best {:.2}x",
            s.speedup_kernel_serial, s.speedup_kernel_streaming, s.speedup_kernel_best
        );
        println!(
            "(shared background estimation: {:.1} ms, excluded; all engines produced \
             byte-identical stage masks{})\n",
            s.background_ms,
            if s.configs.iter().any(|c| c.clamped) {
                "; * = thread request clamped to the host"
            } else {
                ""
            }
        );
    }

    let report = BenchReport {
        schema: "slj-perf-pipeline/4",
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
