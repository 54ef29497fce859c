//! Allocation regression test: steady-state segmentation must not
//! touch the heap.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up pass over the clip (growing every arena buffer and the
//! reused [`FrameStages`] to its high-water mark), a second pass over
//! the same frames is asserted to perform **zero** allocations per
//! frame — for both hole-fill kernels and with ghost suppression and
//! shadow removal enabled.
//!
//! The counter, shared with the other allocation suites
//! (`tests/support/counting_alloc.rs`), is read per thread here, so
//! tests running side by side cannot pollute each other's counts.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_during;
use slj_motion::JumpConfig;
use slj_segment::background::{
    BackgroundConfig, BackgroundEstimator, BackgroundScratch, EstimatedBackground, UpdateMode,
};
use slj_segment::pipeline::{FrameStages, PipelineConfig};
use slj_segment::segmenter::{FrameSegmenter, PreparedBackground};
use slj_video::{SceneConfig, SyntheticJump};
use std::sync::Arc;

#[test]
fn starting_a_thread_allocates_on_the_caller() {
    let ((), delta) = allocations_during(|| std::thread::scope(|s| s.spawn(|| {}).join().unwrap()));
    assert!(delta > 0, "a thread start went uncounted");
}

fn assert_steady_state_is_allocation_free(config: PipelineConfig, label: &str) {
    let jump = SyntheticJump::generate(
        &SceneConfig::default(),
        &JumpConfig {
            frames: 10,
            ..JumpConfig::default()
        },
        41,
    );
    let background = BackgroundEstimator::new(config.background)
        .estimate(&jump.video)
        .unwrap();
    let prepared = Arc::new(PreparedBackground::new(&background.image));
    let mut segmenter = FrameSegmenter::new(&config, prepared);
    let mut stages = FrameStages::empty();
    let frames = jump.video.frames();

    // Warm-up pass: every scratch buffer and output mask grows to the
    // clip's high-water mark here.
    for (k, frame) in frames.iter().enumerate() {
        let previous = k.checked_sub(1).map(|p| &frames[p]);
        segmenter
            .segment_into(frame, previous, &mut stages)
            .unwrap();
    }

    // Measured pass: the same frames through warm buffers must not
    // allocate at all.
    for (k, frame) in frames.iter().enumerate() {
        let previous = k.checked_sub(1).map(|p| &frames[p]);
        let (result, delta) =
            allocations_during(|| segmenter.segment_into(frame, previous, &mut stages));
        result.unwrap();
        assert_eq!(delta, 0, "{label}: frame {k} performed {delta} allocations");
    }
}

#[test]
fn background_estimation_reuse_is_allocation_free() {
    // Both update modes through `estimate_into` with warmed output +
    // scratch buffers: steady-state re-estimation (the streaming
    // analyzer's warm-up refresh pattern) must not touch the heap.
    let jump = SyntheticJump::generate(
        &SceneConfig::default(),
        &JumpConfig {
            frames: 10,
            ..JumpConfig::default()
        },
        43,
    );
    for mode in [UpdateMode::LastStable, UpdateMode::MedianOfStable] {
        let estimator = BackgroundEstimator::new(BackgroundConfig {
            mode,
            ..BackgroundConfig::default()
        });
        let mut out = EstimatedBackground {
            image: slj_imgproc::ImageBuffer::new(0, 0),
            support: slj_imgproc::ImageBuffer::new(0, 0),
        };
        let mut scratch = BackgroundScratch::default();
        // Warm-up pass grows every buffer to its high-water mark.
        estimator
            .estimate_into(&jump.video, &mut out, &mut scratch)
            .unwrap();
        let (result, delta) =
            allocations_during(|| estimator.estimate_into(&jump.video, &mut out, &mut scratch));
        result.unwrap();
        assert_eq!(
            delta, 0,
            "{mode:?}: estimation performed {delta} allocations"
        );
    }
}

#[test]
fn robust_config_segments_without_allocating() {
    // Ghost suppression + flood-fill holes + shadow removal: every
    // optional stage on.
    assert_steady_state_is_allocation_free(PipelineConfig::robust(), "robust");
}

#[test]
fn paper_config_segments_without_allocating() {
    // The iterated paper hole-fill rule takes the other kernel path.
    assert_steady_state_is_allocation_free(PipelineConfig::paper(), "paper");
}
