//! Session-churn allocation regression test: with the slot pool on,
//! steady-state session turnover (open → stream a clip → finish →
//! retire → open the next into the recycled slot) performs **zero
//! large allocations** — frame buffers, arenas, background scratch and
//! GA state all come back out of the retired slot.
//!
//! "Large" is a size threshold, not a count of every allocation: small
//! bookkeeping (result vectors, map nodes, event payloads) is allowed
//! and bounded, while anything frame-sized or bigger must be recycled.
//!
//! Like `serve_overload.rs`, it reads the process-wide tally of the
//! shared counting `#[global_allocator]`
//! (`tests/support/counting_alloc.rs`), so this file is its own test
//! binary with a single `#[test]`.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{large_allocations, recent_large_sizes, LARGE};
use slj::prelude::*;
use slj_ga::{GaConfig, PoseProblemConfig};
use slj_serve::{
    DeadlineClock, HealthEvent, OfferReply, ServeConfig, SessionConfig, SessionManager,
};

/// A deliberately tiny analyzer budget: the test measures allocation,
/// not estimation quality, so the GA runs a small population for a few
/// generations at a coarse stride.
fn micro_config() -> AnalyzerConfig {
    let fast = AnalyzerConfig::fast();
    AnalyzerConfig {
        robustness: RobustnessPolicy::BestEffort {
            max_degraded_frames: 20,
        },
        tracker: TrackerConfig {
            ga: GaConfig {
                population_size: 16,
                max_generations: 4,
                patience: Some(2),
                ..fast.tracker.ga
            },
            problem: PoseProblemConfig {
                stride: 8,
                ..fast.tracker.problem
            },
            ..fast.tracker
        },
        ..fast.into_streaming(14)
    }
}

/// One full session lifecycle against the manager: open (adopting a
/// recycled slot when one is pooled), stream the whole clip, finish,
/// take the result and retire back into the pool. `events` is the
/// caller's reusable drain buffer.
fn run_cycle(
    manager: &mut SessionManager,
    config: &SessionConfig,
    video: &Video,
    events: &mut Vec<HealthEvent>,
) {
    let id = manager.open(config.clone()).unwrap();
    for frame in video.iter() {
        let reply = manager.offer(id, frame).unwrap();
        assert!(matches!(reply, OfferReply::Accepted { .. }));
        manager.tick();
    }
    manager.close(id).unwrap();
    manager.run_until_idle();
    manager.drain_events_into(events);
    events.clear();
    let result = manager.take_result(id).unwrap();
    assert!(result.is_ok(), "churned clip must still analyse");
    manager.retire(id).unwrap();
}

#[test]
fn session_churn_steady_state_does_no_large_allocations() {
    const WARM: usize = 2;
    const CYCLES: usize = 100;

    let scene = SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::clean()
    };
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 99);
    let session = SessionConfig {
        analyzer: micro_config(),
        camera: scene.camera,
        first_pose: jump.poses.poses()[0],
        fps: jump.video.fps(),
    };
    let mut manager = SessionManager::new(ServeConfig {
        max_sessions: 1,
        queue_depth: 4,
        clock: DeadlineClock::Scripted,
        // Checkpoints clone live analyzer state; keep them out of the
        // loop so the measurement isolates the churn path itself.
        checkpoint_interval: jump.video.len() + 1,
        stall_ticks: 0,
        ..ServeConfig::default()
    });
    let mut events = Vec::new();

    // Warm-up: the first cycles build the slot's arenas and scratch
    // (and every lazily-grown buffer) from nothing.
    for _ in 0..WARM {
        run_cycle(&mut manager, &session, &jump.video, &mut events);
    }
    assert_eq!(manager.pooled_slots(), 1, "the retired slot is pooled");

    // Steady state: every subsequent lifecycle adopts the recycled
    // slot and must never allocate at the frame-buffer tier again.
    let before = large_allocations();
    for cycle in 0..CYCLES {
        run_cycle(&mut manager, &session, &jump.video, &mut events);
        let delta = large_allocations() - before;
        assert_eq!(
            delta,
            0,
            "cycle {cycle}: {delta} large (>= {LARGE} B) allocations in steady-state churn; \
             recent sizes {:?}",
            recent_large_sizes()
        );
    }
    assert_eq!(manager.pooled_slots(), 1);
    assert_eq!(manager.sessions_in_service(), 0);
}
