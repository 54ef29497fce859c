//! Backpressure regression test: a full session queue sheds offers on
//! an allocation-free, copy-free path, and queue memory stays bounded
//! at `queue_depth` no matter how hard a producer bursts.
//!
//! This is the service-layer twin of `crates/segment/tests/zero_alloc.rs`
//! and shares its counting `#[global_allocator]`
//! (`tests/support/counting_alloc.rs`). It reads the process-wide
//! count, so this file is its own test binary with a single `#[test]`
//! — concurrent test threads would pollute the counter.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use slj::prelude::*;
use slj_serve::{DeadlineClock, OfferReply, ServeConfig, SessionConfig, SessionManager};

#[test]
fn full_queue_sheds_bursts_without_allocating() {
    const QUEUE_DEPTH: usize = 2;
    const BURST: u64 = 100;

    let scene = SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::clean()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 96);
    let config = AnalyzerConfig {
        robustness: RobustnessPolicy::BestEffort {
            max_degraded_frames: 10,
        },
        ..AnalyzerConfig::fast().into_streaming(14)
    };

    let mut manager = SessionManager::new(ServeConfig {
        max_sessions: 2,
        queue_depth: QUEUE_DEPTH,
        clock: DeadlineClock::Scripted,
        // Stall detection off: this producer idles on purpose.
        stall_ticks: 0,
        ..ServeConfig::default()
    });
    let id = manager
        .open(SessionConfig {
            analyzer: config,
            camera: scene.camera,
            first_pose: jump.poses.poses()[0],
            fps: jump.video.fps(),
        })
        .unwrap();
    let frame = &jump.video.frames()[0];

    // Fill the queue: exactly `queue_depth` accepts.
    for expected_depth in 1..=QUEUE_DEPTH {
        match manager.offer(id, frame).unwrap() {
            OfferReply::Accepted { depth, .. } => assert_eq!(depth, expected_depth),
            reply => panic!("queue not full yet, got {reply:?}"),
        }
    }

    // Burst against the full queue: every offer is shed, and the reject
    // path performs zero allocations and zero frame copies.
    for k in 0..BURST {
        let before = allocations();
        let reply = manager.offer(id, frame).unwrap();
        let delta = allocations() - before;
        assert_eq!(delta, 0, "shed {k} allocated {delta} times");
        assert!(
            matches!(reply, OfferReply::Overloaded { depth, .. } if depth == QUEUE_DEPTH),
            "burst offer {k} must be shed at depth {QUEUE_DEPTH}, got {reply:?}"
        );
    }

    // Queue memory is bounded: still exactly `queue_depth` frames
    // buffered, and every shed is on the metrics record.
    assert_eq!(manager.queue_len(id), Some(QUEUE_DEPTH));
    assert_eq!(
        manager
            .metrics(id)
            .unwrap()
            .counter(slj_obs::serve_keys::SHEDS),
        BURST
    );

    // Backpressure releases as the supervisor drains: one tick frees
    // one slot and the next offer is accepted again.
    manager.tick();
    assert_eq!(manager.queue_len(id), Some(QUEUE_DEPTH - 1));
    assert!(matches!(
        manager.offer(id, frame).unwrap(),
        OfferReply::Accepted { .. }
    ));
}
