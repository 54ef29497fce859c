//! Allocation regression test: steady-state batched fitness
//! evaluation and the validity test must not touch the heap.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up batch (growing the pooled [`EvalScratch`] buffers and the
//! memo table to their high-water mark) and a memo clear, a second
//! batch through the same `PoseProblem::fitness_batch` path is asserted
//! to perform **zero** allocations — through pose projection, the lane
//! Eq. 3 kernel, the outside-penalty term and the memo inserts.
//! Separate tests cover the memoised all-hit path,
//! `PoseProblem::is_valid`, and a tracker stream whose recovery rungs
//! cannot seed on some frames: those rungs must keep their recycled
//! memo and batch buffers, so the frames after them allocate nothing
//! large.
//!
//! The counter, shared with the other allocation suites
//! (`tests/support/counting_alloc.rs`), is read per thread here, so
//! tests running side by side cannot pollute each other's counts.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations_during, largest_during, LARGE};
use rand::rngs::StdRng;
use rand::SeedableRng;
use slj_ga::engine::Problem;
use slj_ga::pose_problem::{InitStrategy, PoseProblem, PoseProblemConfig};
use slj_ga::tracker::{RecoveryAction, TemporalTracker, TrackerConfig};
use slj_imgproc::mask::Mask;
use slj_motion::{BodyDims, Pose};
use slj_video::render::render_silhouette;
use slj_video::Camera;

#[test]
fn starting_a_thread_allocates_on_the_caller() {
    let ((), delta) = allocations_during(|| std::thread::scope(|s| s.spawn(|| {}).join().unwrap()));
    assert!(delta > 0, "a thread start went uncounted");
}

/// A pose problem over a rendered standing silhouette plus a batch of
/// random genomes with deliberate duplicates (exercising the dedup
/// path).
fn fixture(config: PoseProblemConfig) -> (PoseProblem, Vec<Pose>) {
    let dims = BodyDims::default();
    let camera = Camera::compact();
    let mut pose = Pose::standing(&dims);
    pose.center.x = 0.6;
    let sil = render_silhouette(&pose, &dims, &camera);
    let problem = PoseProblem::new(&sil, &dims, &camera, InitStrategy::FullRange, config).unwrap();
    let mut rng = StdRng::seed_from_u64(47);
    let mut genomes: Vec<Pose> = (0..12).map(|_| problem.random_genome(&mut rng)).collect();
    // Duplicates: in-batch repeats must share one projection.
    genomes.push(genomes[0]);
    genomes.push(genomes[5]);
    genomes.push(genomes[5]);
    (problem, genomes)
}

#[test]
fn batched_evaluation_is_allocation_free() {
    let (problem, genomes) = fixture(PoseProblemConfig::default());
    let mut out = vec![0.0f64; genomes.len()];
    // Warm-up batch grows every pooled scratch buffer and the memo
    // table.
    problem.fitness_batch(&genomes, &mut out);
    let expected = out.clone();
    // Emptied but not shrunk, as the tracker's recycled memo is: every
    // genome misses again, so the batch takes the full dedup →
    // project → lane kernel → outside-penalty → memo-insert path.
    problem.memo().clear();

    let ((), delta) = allocations_during(|| problem.fitness_batch(&genomes, &mut out));
    assert_eq!(delta, 0, "steady-state batch performed {delta} allocations");
    assert_eq!(
        out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
}

#[test]
fn memoised_batch_is_allocation_free_on_full_hit() {
    // The warm-up batch pays the HashMap inserts; a repeat of the same
    // genomes is answered entirely from the memo without touching the
    // heap.
    let (problem, genomes) = fixture(PoseProblemConfig::default());
    let mut out = vec![0.0f64; genomes.len()];
    problem.fitness_batch(&genomes, &mut out);
    let expected = out.clone();

    let ((), delta) = allocations_during(|| problem.fitness_batch(&genomes, &mut out));
    assert_eq!(delta, 0, "memoised batch performed {delta} allocations");
    assert_eq!(
        out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
}

#[test]
fn validity_test_is_allocation_free() {
    let (problem, _) = fixture(PoseProblemConfig::default());
    let mut rng = StdRng::seed_from_u64(53);
    let genomes: Vec<Pose> = (0..256).map(|_| problem.random_genome(&mut rng)).collect();
    let verdicts: Vec<bool> = genomes.iter().map(|g| problem.is_valid(g)).collect();
    // Full-range genomes over a standing silhouette: both verdicts occur.
    assert!(verdicts.contains(&true) && verdicts.contains(&false));

    let mut repeat = Vec::with_capacity(genomes.len());
    let ((), delta) =
        allocations_during(|| repeat.extend(genomes.iter().map(|g| problem.is_valid(g))));
    assert_eq!(delta, 0, "256 validity tests performed {delta} allocations");
    assert_eq!(repeat, verdicts);
}

#[test]
fn rungs_that_cannot_seed_keep_their_scratch() {
    // Frames alternate between the rendered body, which the temporal
    // rung fits, and a 3x3 speck no stickman can cover: every rung of
    // the ladder fails to find a valid initial population there. The
    // body frame after each speck runs rung 0 again on the memo and
    // batch buffers rung 0 held before the speck.
    let dims = BodyDims::default();
    let camera = Camera::compact();
    let mut pose = Pose::standing(&dims);
    pose.center.x = 0.6;
    let body = render_silhouette(&pose, &dims, &camera);
    let speck = Mask::from_fn(body.width(), body.height(), |x, y| x < 3 && y < 3);
    let mut stream = TemporalTracker::new(TrackerConfig::fast()).stream(pose, &dims, &camera);
    let mut pair = || {
        let fitted = stream.push(&body).unwrap();
        let unseeded = stream.push(&speck).unwrap();
        (fitted, unseeded)
    };
    // Warm-up: frame 0 and the first pairs grow every buffer.
    for _ in 0..3 {
        pair();
    }

    let (results, largest) = largest_during(|| (0..4).map(|_| pair()).collect::<Vec<_>>());
    for (fitted, unseeded) in &results {
        assert_eq!(fitted.recovery, RecoveryAction::None, "{fitted:?}");
        assert_eq!(unseeded.rungs_attempted, 0, "no rung seeded: {unseeded:?}");
        assert!(
            matches!(
                unseeded.recovery,
                RecoveryAction::Interpolated | RecoveryAction::CarriedOver
            ),
            "{unseeded:?}"
        );
    }
    assert!(
        largest < LARGE,
        "steady-state tracking made a {largest}-byte allocation"
    );
}
