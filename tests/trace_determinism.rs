//! Observability determinism suite: the `slj-trace/1` JSONL trace and
//! the metrics registry are pure functions of the analysis, so they
//! must be byte-identical run to run, between batch and streaming, and
//! whatever the ignored `AnalyzerConfig.parallelism` field says — or a
//! trace diff would cry wolf.

use slj::prelude::*;

fn fault_injected_clip() -> (SyntheticJump, Video, SceneConfig) {
    let scene = SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::default()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 91);
    // Faults exercise the recovery ladder and the masked-scoring path,
    // so the trace covers every record variant.
    let (faulty, _) = FaultInjector::new(FaultConfig {
        seed: 13,
        occlusion_bars: 2,
        ..FaultConfig::default()
    })
    .inject(&jump.video);
    (jump, faulty, scene)
}

fn config_at(parallelism: Parallelism) -> AnalyzerConfig {
    AnalyzerConfig {
        robustness: RobustnessPolicy::BestEffort {
            max_degraded_frames: 10,
        },
        parallelism,
        ..AnalyzerConfig::fast()
    }
}

#[test]
fn trace_and_metrics_are_byte_identical_across_parallelism() {
    // An analysis runs on the caller's thread whatever
    // `AnalyzerConfig.parallelism` says, so one run with the field set
    // stands for every value.
    let (jump, faulty, scene) = fault_injected_clip();
    let first = jump.poses.poses()[0];
    let serial = JumpAnalyzer::new(config_at(Parallelism::Serial))
        .analyze(&faulty, &scene.camera, first)
        .expect("serial analysis succeeds");
    let report = JumpAnalyzer::new(config_at(Parallelism::Fixed(4)))
        .analyze(&faulty, &scene.camera, first)
        .expect("analysis succeeds");
    assert_eq!(serial.obs.render_trace(), report.obs.render_trace());
    assert_eq!(serial.obs.metrics().render(), report.obs.metrics().render());
}

#[test]
fn trace_follows_the_schema() {
    let (jump, faulty, scene) = fault_injected_clip();
    let report = JumpAnalyzer::new(config_at(Parallelism::Serial))
        .analyze(&faulty, &scene.camera, jump.poses.poses()[0])
        .expect("analysis succeeds");
    let trace = report.obs.render_trace();
    let lines: Vec<&str> = trace.lines().collect();
    // Header + (segment + track) per frame + one line per rule.
    assert_eq!(lines.len(), 1 + 2 * faulty.len() + 7);
    assert!(
        lines[0].contains(&format!("\"schema\":\"{}\"", slj::TRACE_SCHEMA)),
        "header: {}",
        lines[0]
    );
    for (k, pair) in lines[1..1 + 2 * faulty.len()].chunks(2).enumerate() {
        assert!(
            pair[0].contains("\"span\":\"frame.segment\"")
                && pair[0].contains(&format!("\"frame\":{k}")),
            "frame {k}: {}",
            pair[0]
        );
        assert!(
            pair[1].contains("\"span\":\"frame.track\"")
                && pair[1].contains(&format!("\"frame\":{k}")),
            "frame {k}: {}",
            pair[1]
        );
    }
    for line in &lines[1 + 2 * faulty.len()..] {
        assert!(line.contains("\"span\":\"score.rule\""), "{line}");
    }
    // No wall-clock or host data leaks into the trace ("host" alone
    // would false-positive on the ghost-suppression counters).
    for needle in ["_ms", "nanos", "duration", "thread", "hostname"] {
        assert!(!trace.contains(needle), "trace leaks '{needle}'");
    }
}

#[test]
fn metrics_aggregate_matches_the_analysis() {
    let (jump, faulty, scene) = fault_injected_clip();
    let report = JumpAnalyzer::new(config_at(Parallelism::Serial))
        .analyze(&faulty, &scene.camera, jump.poses.poses()[0])
        .expect("analysis succeeds");
    let m = report.obs.metrics();
    assert_eq!(m.counter("segment.frames") as usize, faulty.len());
    assert_eq!(m.counter("score.rules"), 7);
    assert_eq!(
        m.counter("score.satisfied") + m.counter("score.violated") + m.counter("score.masked"),
        7
    );
    assert_eq!(
        m.counter("track.evaluations") as usize,
        report.summary().total_evaluations
    );
    let rungs = m.counter("track.recovery.none")
        + m.counter("track.recovery.widened")
        + m.counter("track.recovery.cold_restart")
        + m.counter("track.recovery.interpolated")
        + m.counter("track.recovery.carried");
    assert_eq!(rungs as usize, faulty.len());
    // The branch-and-bound identity: candidates + pruned = 8 sticks ×
    // sampled pixels, and something must actually be pruned on a real
    // clip.
    assert!(m.counter("track.bb_pruned") > 0);
    let h = m.histogram("track.generations.hist").expect("histogram");
    assert_eq!(h.count() as usize, faulty.len());
}

#[test]
fn observability_does_not_perturb_the_analysis() {
    // The span data is derived from analysis results, never fed back:
    // rendering the trace and aggregating metrics (any number of times)
    // must leave the report bit-exact.
    let (jump, faulty, scene) = fault_injected_clip();
    let first = jump.poses.poses()[0];
    let a = JumpAnalyzer::new(config_at(Parallelism::Serial))
        .analyze(&faulty, &scene.camera, first)
        .expect("analysis succeeds");
    let _ = a.obs.render_trace();
    let _ = a.obs.metrics();
    let b = JumpAnalyzer::new(config_at(Parallelism::Serial))
        .analyze(&faulty, &scene.camera, first)
        .expect("analysis succeeds");
    assert_eq!(a.to_analysis(), b.to_analysis());
    assert_eq!(a.obs.render_trace(), b.obs.render_trace());
}

#[test]
fn streaming_trace_is_byte_identical_to_batch() {
    let scene = SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::clean()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 92);
    let config = AnalyzerConfig {
        robustness: RobustnessPolicy::BestEffort {
            max_degraded_frames: 2,
        },
        ..AnalyzerConfig::fast().into_streaming(14)
    };
    let first = jump.poses.poses()[0];
    let batch = JumpAnalyzer::new(config.clone())
        .analyze(&jump.video, &scene.camera, first)
        .expect("batch succeeds");
    let mut stream =
        StreamingAnalyzer::new(config, &scene.camera, first, jump.video.fps()).unwrap();
    let mut observed = 0usize;
    for frame in jump.video.iter() {
        let update = stream.push_frame(frame).unwrap();
        assert_eq!(update.observed.len(), update.completed.len());
        observed += update.observed.len();
    }
    assert_eq!(observed, jump.video.len());
    let streamed = stream.finish().expect("finish succeeds");
    assert_eq!(batch.obs.render_trace(), streamed.obs.render_trace());
    assert_eq!(
        batch.obs.metrics().render(),
        streamed.obs.metrics().render()
    );
}
