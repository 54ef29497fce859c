//! Property-based tests for the kinematics crate: the angle algebra of
//! Figure 5, chromosome round trips, forward-kinematics invariants and
//! synthesiser guarantees.

use proptest::prelude::*;
use slj_imgproc::geometry::{Segment, Vec2};
use slj_motion::model::{StickKind, ALL_STICKS, GENE_COUNT};
use slj_motion::synth::perturb_pose;
use slj_motion::{synthesize_jump, Angle, BodyDims, JumpConfig, JumpFlaw, Pose, PoseSeq};

fn angle_strategy() -> impl Strategy<Value = Angle> {
    (-720.0f64..720.0).prop_map(Angle::from_degrees)
}

fn pose_strategy() -> impl Strategy<Value = Pose> {
    (
        -2.0f64..3.0,
        0.1f64..2.0,
        proptest::collection::vec(-720.0f64..720.0, 8),
    )
        .prop_map(|(x, y, angles)| {
            let mut genes = [0.0; GENE_COUNT];
            genes[0] = x;
            genes[1] = y;
            genes[2..].copy_from_slice(&angles);
            Pose::from_genes(&genes).unwrap()
        })
}

/// The forward kinematics of Figure 4 written out stick by stick, with
/// the same arithmetic but no walk: the oracle for `Pose::segment_iter`,
/// in paper-index order.
fn closed_form_segments(p: &Pose, dims: &BodyDims) -> [Segment; 8] {
    let dir = |s: StickKind| {
        let (dx, dy) = p.angle(s).direction();
        Vec2::new(dx, dy) * dims.length(s)
    };
    let half_trunk = dir(StickKind::Trunk) * 0.5;
    let hip = p.center - half_trunk;
    let shoulder = p.center + half_trunk;
    let neck = Segment::new(shoulder, shoulder + dir(StickKind::Neck));
    let upper_arm = Segment::new(shoulder, shoulder + dir(StickKind::UpperArm));
    let thigh = Segment::new(hip, hip + dir(StickKind::Thigh));
    let shank = Segment::new(thigh.b, thigh.b + dir(StickKind::Shank));
    [
        Segment::new(hip, shoulder),
        neck,
        upper_arm,
        thigh,
        Segment::new(neck.b, neck.b + dir(StickKind::Head)),
        Segment::new(upper_arm.b, upper_arm.b + dir(StickKind::Forearm)),
        shank,
        Segment::new(shank.b, shank.b + dir(StickKind::Foot)),
    ]
}

fn segment_bits(s: &Segment) -> [u64; 4] {
    [s.a.x, s.a.y, s.b.x, s.b.y].map(f64::to_bits)
}

proptest! {
    // ---------- angles ----------

    /// `from_degrees` returns `rem_euclid`'s bits wherever `rem_euclid`
    /// keeps the `[0, 360)` contract, and 0° where it rounds up to 360:
    /// across and around the fast path's span `(−360, 720)`, within a
    /// few ulps of its edges and of 0 and 360, at tiny magnitudes on
    /// both sides of the 2⁻⁴⁵ rounding boundary, and at any finite bit
    /// pattern.
    #[test]
    fn angle_fast_path_matches_rem_euclid(
        pick in 0u8..4,
        unit in -1.0f64..1.0,
        bits in any::<u64>(),
    ) {
        let deg = match pick {
            0 => unit * 800.0 + 160.0,
            1 => [-360.0, 0.0, 360.0, 720.0][(bits % 4) as usize] + unit * 1e-12,
            2 => f64::from_bits(bits % 0x3D30_0000_0000_0000).copysign(unit),
            _ => f64::from_bits(bits),
        };
        prop_assume!(deg.is_finite());
        let reference = deg.rem_euclid(360.0);
        let got = Angle::from_degrees(deg).degrees();
        let want = if reference < 360.0 { reference } else { 0.0 };
        prop_assert_eq!(got.to_bits(), want.to_bits(), "from_degrees({:e})", deg);
    }

    #[test]
    fn angle_is_normalised(a in angle_strategy()) {
        prop_assert!((0.0..360.0).contains(&a.degrees()));
    }

    #[test]
    fn wrapped_diff_is_antisymmetric_and_bounded(a in angle_strategy(), b in angle_strategy()) {
        let d = a.wrapped_diff(b);
        prop_assert!((-180.0..=180.0).contains(&d));
        // Antisymmetric up to the +180 boundary case.
        if d.abs() < 180.0 - 1e-9 {
            prop_assert!((b.wrapped_diff(a) + d).abs() < 1e-9);
        }
        // Adding the difference back recovers a.
        prop_assert!((b + d).distance(a) < 1e-9);
    }

    #[test]
    fn angle_distance_is_a_metric(a in angle_strategy(), b in angle_strategy(), c in angle_strategy()) {
        prop_assert!((a.distance(b) - b.distance(a)).abs() < 1e-9);
        prop_assert!(a.distance(a) < 1e-12);
        prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
        prop_assert!(a.distance(b) <= 180.0 + 1e-9);
    }

    #[test]
    fn lerp_stays_within_arc(a in angle_strategy(), b in angle_strategy(), t in 0.0f64..1.0) {
        let m = a.lerp(b, t);
        let arc = a.distance(b);
        prop_assert!(a.distance(m) <= arc + 1e-9);
        prop_assert!(b.distance(m) <= arc + 1e-9);
    }

    #[test]
    fn direction_is_unit_and_invertible(a in angle_strategy()) {
        let (x, y) = a.direction();
        prop_assert!((x * x + y * y - 1.0).abs() < 1e-12);
        // atan2 recovers the angle (degrees from +y axis, clockwise
        // toward +x).
        let back = Angle::from_radians(x.atan2(y));
        prop_assert!(back.distance(a) < 1e-9);
    }

    // ---------- poses ----------

    #[test]
    fn gene_roundtrip(p in pose_strategy()) {
        let back = Pose::from_genes(&p.to_genes()).unwrap();
        prop_assert!(back.center.distance(p.center) < 1e-12);
        for s in ALL_STICKS {
            prop_assert!(back.angle(s).distance(p.angle(s)) < 1e-9);
        }
    }

    #[test]
    fn forward_kinematics_respects_lengths_and_topology(p in pose_strategy()) {
        let dims = BodyDims::default();
        let segs = p.segments(&dims);
        for (stick, seg) in segs.iter() {
            prop_assert!((seg.length() - dims.length(stick)).abs() < 1e-9, "stick {stick}");
            if let Some(parent) = stick.parent() {
                let parent_seg = segs.segment(parent);
                // Children anchor at the parent's distal end, except the
                // three sticks that share the trunk's endpoints.
                let anchor = match stick {
                    slj_motion::StickKind::Thigh => parent_seg.a,
                    slj_motion::StickKind::Neck | slj_motion::StickKind::UpperArm => parent_seg.b,
                    _ => parent_seg.b,
                };
                prop_assert!(seg.a.distance(anchor) < 1e-9, "stick {stick}");
            }
        }
        // Bounds contain the centre.
        let (x0, y0, x1, y1) = segs.bounds();
        prop_assert!(p.center.x >= x0 - 1e-9 && p.center.x <= x1 + 1e-9);
        prop_assert!(p.center.y >= y0 - 1e-9 && p.center.y <= y1 + 1e-9);
    }

    /// The lazy walk yields the closed-form segments bit for bit, in
    /// paper order, `segments` collects exactly them, and a walk cut
    /// short yields a prefix of them.
    #[test]
    fn lazy_walk_yields_the_closed_form_segments(
        p in pose_strategy(),
        height in 1.1f64..2.1,
        stop in 0usize..=8,
    ) {
        let dims = BodyDims::for_height(height);
        let reference = closed_form_segments(&p, &dims);
        let walked: Vec<(StickKind, Segment)> = p.segment_iter(&dims).collect();
        prop_assert_eq!(walked.len(), 8);
        for (i, ((stick, seg), want)) in walked.iter().zip(&reference).enumerate() {
            prop_assert_eq!(stick.index(), i);
            prop_assert_eq!(segment_bits(seg), segment_bits(want), "stick {}", stick);
        }
        let collected = p.segments(&dims);
        for (seg, want) in collected.as_array().iter().zip(&reference) {
            prop_assert_eq!(segment_bits(seg), segment_bits(want));
        }
        let mut cut = p.segment_iter(&dims);
        prop_assert_eq!(cut.len(), 8);
        let prefix: Vec<(StickKind, Segment)> = cut.by_ref().take(stop).collect();
        prop_assert_eq!(cut.len(), 8 - stop);
        prop_assert_eq!(&prefix[..], &walked[..stop]);
    }

    #[test]
    fn pose_error_is_symmetric_and_zero_on_self(p in pose_strategy(), q in pose_strategy()) {
        let pq = p.error_against(&q);
        let qp = q.error_against(&p);
        prop_assert!((pq.center_distance - qp.center_distance).abs() < 1e-12);
        prop_assert!((pq.mean_angle_error() - qp.mean_angle_error()).abs() < 1e-9);
        let self_err = p.error_against(&p);
        prop_assert_eq!(self_err.center_distance, 0.0);
        prop_assert_eq!(self_err.max_angle_error(), 0.0);
    }

    #[test]
    fn perturbation_is_bounded(p in pose_strategy(), seed in any::<u64>(), ca in 0.0f64..0.2, aa in 0.0f64..30.0) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let q = perturb_pose(&p, ca, aa, &mut rng);
        let e = q.error_against(&p);
        prop_assert!(e.center_distance <= ca * std::f64::consts::SQRT_2 + 1e-9);
        prop_assert!(e.max_angle_error() <= aa + 1e-9);
    }

    // ---------- sequences ----------

    #[test]
    fn stage_windows_partition_frames(n in 2usize..40) {
        let dims = BodyDims::default();
        let seq = PoseSeq::new(vec![Pose::standing(&dims); n], 10.0);
        let a = seq.stage_range(slj_motion::seq::Stage::Initiation);
        let b = seq.stage_range(slj_motion::seq::Stage::AirLanding);
        prop_assert_eq!(a.end, b.start);
        prop_assert_eq!(a.start, 0);
        prop_assert_eq!(b.end, n);
    }

    #[test]
    fn median_smoothing_preserves_length_and_is_bounded(n in 3usize..25, w in 0usize..3) {
        let window = 2 * w + 1;
        let cfg = JumpConfig { frames: n.max(2), ..JumpConfig::default() };
        let seq = synthesize_jump(&cfg);
        let smoothed = seq.median_smoothed(window);
        prop_assert_eq!(smoothed.len(), seq.len());
        // The smoothed angle at k is one of the window's values offset —
        // it never exceeds the window's extremes.
        for (k, p) in smoothed.poses().iter().enumerate() {
            let lo = k.saturating_sub(window / 2);
            let hi = (k + window / 2 + 1).min(seq.len());
            for s in ALL_STICKS {
                let max_dev = seq.poses()[lo..hi]
                    .iter()
                    .map(|q| q.angle(s).distance(p.angle(s)))
                    .fold(f64::INFINITY, f64::min);
                prop_assert!(max_dev < 1e-6, "frame {k} stick {s} drifted");
            }
        }
    }

    // ---------- synthesiser ----------

    #[test]
    fn synthesis_invariants_for_any_flaw_set(bits in 0u8..128) {
        let flaws: Vec<JumpFlaw> = JumpFlaw::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| bits & (1 << i) != 0)
            .map(|(_, f)| *f)
            .collect();
        let cfg = JumpConfig { flaws, ..JumpConfig::default() };
        let seq = synthesize_jump(&cfg);
        prop_assert_eq!(seq.len(), cfg.frames);
        // Feet never below ground; jumper always travels forward.
        for p in seq.poses() {
            prop_assert!(p.segments(&cfg.dims).lowest_y() > -1e-9);
        }
        prop_assert!(seq.forward_travel() > 0.3);
        // Deterministic.
        prop_assert_eq!(synthesize_jump(&cfg), seq);
    }
}
