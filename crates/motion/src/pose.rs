//! Poses: the GA chromosome and its forward kinematics.
//!
//! A [`Pose`] is exactly the paper's chromosome
//! `(x0, y0, ρ0, ρ1, …, ρ7)`: the centre of the trunk stick plus one
//! angle per stick. [`Pose::segment_iter`] runs the forward kinematics
//! of Figure 4 — each stick is anchored at its parent's far end (the end
//! "nearer to the trunk" is the anchored one, per Figure 5) — one stick
//! at a time, and [`Pose::segments`] collects it into the eight line
//! segments the renderer thickens into a silhouette and the fitness
//! function measures distances to.

use crate::angle::Angle;
use crate::error::MotionError;
use crate::model::{BodyDims, StickKind, ALL_STICKS, GENE_COUNT, STICK_COUNT};
use serde::{Deserialize, Serialize};
use slj_imgproc::geometry::{Point2, Segment, Vec2};
use std::fmt;

/// A body pose: trunk centre plus the eight stick angles of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pose {
    /// Centre `(x0, y0)` of the trunk stick S0, in world metres (y-up).
    pub center: Point2,
    /// Stick angles `ρ0..ρ7`, indexed by paper index.
    pub angles: [Angle; STICK_COUNT],
}

/// The world-space segments of all eight sticks of a pose.
///
/// For every stick the segment runs from its anchored (proximal) end `a`
/// to its free (distal) end `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StickSegments {
    segments: [Segment; STICK_COUNT],
}

/// Forward kinematics one stick at a time, in paper-index order
/// ([`Pose::segment_iter`]). Each step computes one stick's direction,
/// one sine and one cosine, from joints already placed, so a caller
/// that stops early pays nothing for the sticks it never reached. Every
/// parent precedes its children in paper order.
#[derive(Debug, Clone)]
pub struct SegmentIter<'a> {
    pose: &'a Pose,
    dims: &'a BodyDims,
    /// The segments placed so far, by paper index.
    placed: [Segment; STICK_COUNT],
    /// Paper index of the next stick.
    next: usize,
}

/// The discrepancy between two poses, produced by [`Pose::error_against`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoseError {
    /// Euclidean distance between the two trunk centres, metres.
    pub center_distance: f64,
    /// Per-stick absolute wrapped angle error, degrees, by paper index.
    pub angle_errors: [f64; STICK_COUNT],
}

impl Pose {
    /// Creates a pose from a centre and eight angles.
    pub fn new(center: Point2, angles: [Angle; STICK_COUNT]) -> Self {
        Pose { center, angles }
    }

    /// A neutral standing pose: trunk/neck/head upright, arms hanging
    /// down, legs straight down, foot pointing forward. The centre is
    /// placed so the feet touch `y = 0` for the given body.
    pub fn standing(dims: &BodyDims) -> Pose {
        let hip_y = dims.standing_hip_height();
        let center_y = hip_y + dims.length(StickKind::Trunk) / 2.0;
        Pose {
            center: Point2::new(0.0, center_y),
            angles: [
                Angle::from_degrees(0.0),   // ρ0 trunk up
                Angle::from_degrees(0.0),   // ρ1 neck up
                Angle::from_degrees(180.0), // ρ2 arm down
                Angle::from_degrees(180.0), // ρ3 thigh down
                Angle::from_degrees(0.0),   // ρ4 head up
                Angle::from_degrees(180.0), // ρ5 forearm down
                Angle::from_degrees(180.0), // ρ6 shank down
                Angle::from_degrees(95.0),  // ρ7 foot forward
            ],
        }
    }

    /// The angle of one stick.
    pub fn angle(&self, stick: StickKind) -> Angle {
        self.angles[stick.index()]
    }

    /// Replaces the angle of one stick, returning the modified pose.
    pub fn with_angle(mut self, stick: StickKind, angle: Angle) -> Pose {
        self.angles[stick.index()] = angle;
        self
    }

    /// Replaces the centre, returning the modified pose.
    pub fn with_center(mut self, center: Point2) -> Pose {
        self.center = center;
        self
    }

    /// Forward kinematics: the world-space segment of every stick,
    /// collected from [`Pose::segment_iter`].
    pub fn segments(&self, dims: &BodyDims) -> StickSegments {
        let mut segments = [Segment::new(Point2::origin(), Point2::origin()); STICK_COUNT];
        for (stick, segment) in self.segment_iter(dims) {
            segments[stick.index()] = segment;
        }
        StickSegments { segments }
    }

    /// Forward kinematics as a lazy walk: `(stick, segment)` pairs in
    /// paper-index order, each computed when it is reached.
    ///
    /// Anchors per Figure 4/5: the trunk's segment runs hip → shoulder
    /// with `center` at its middle; neck, upper arm anchor at the
    /// shoulder; thigh anchors at the hip; head, forearm, shank, foot
    /// anchor at their parent's distal end.
    pub fn segment_iter<'a>(&'a self, dims: &'a BodyDims) -> SegmentIter<'a> {
        SegmentIter {
            pose: self,
            dims,
            placed: [Segment::new(Point2::origin(), Point2::origin()); STICK_COUNT],
            next: 0,
        }
    }

    /// Serialises the pose into the paper's 10-gene chromosome
    /// `[x0, y0, ρ0, …, ρ7]` (angles in degrees).
    pub fn to_genes(&self) -> [f64; GENE_COUNT] {
        let mut g = [0.0; GENE_COUNT];
        g[0] = self.center.x;
        g[1] = self.center.y;
        for (i, a) in self.angles.iter().enumerate() {
            g[2 + i] = a.degrees();
        }
        g
    }

    /// Rebuilds a pose from a 10-gene chromosome slice.
    ///
    /// # Errors
    ///
    /// Returns [`MotionError::BadGeneCount`] when `genes.len() != 10` and
    /// [`MotionError::NonFinite`] when any gene is NaN or infinite.
    pub fn from_genes(genes: &[f64]) -> Result<Pose, MotionError> {
        if genes.len() != GENE_COUNT {
            return Err(MotionError::BadGeneCount { got: genes.len() });
        }
        for (i, g) in genes.iter().enumerate() {
            if !g.is_finite() {
                return Err(MotionError::NonFinite {
                    what: if i < 2 {
                        "center coordinate"
                    } else {
                        "angle gene"
                    },
                });
            }
        }
        let mut angles = [Angle::UP; STICK_COUNT];
        for (i, a) in angles.iter_mut().enumerate() {
            *a = Angle::from_degrees(genes[2 + i]);
        }
        Ok(Pose {
            center: Point2::new(genes[0], genes[1]),
            angles,
        })
    }

    /// Measures this pose against a reference (typically ground truth).
    pub fn error_against(&self, reference: &Pose) -> PoseError {
        let mut angle_errors = [0.0; STICK_COUNT];
        for s in ALL_STICKS {
            angle_errors[s.index()] = self.angle(s).distance(reference.angle(s));
        }
        PoseError {
            center_distance: self.center.distance(reference.center),
            angle_errors,
        }
    }

    /// Linear interpolation between two poses (centre linearly, angles
    /// along the shortest arc).
    pub fn lerp(&self, other: &Pose, t: f64) -> Pose {
        let mut angles = [Angle::UP; STICK_COUNT];
        for (i, a) in angles.iter_mut().enumerate() {
            *a = self.angles[i].lerp(other.angles[i], t);
        }
        Pose {
            center: self.center.lerp(other.center, t),
            angles,
        }
    }
}

impl fmt::Display for Pose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pose[center {} angles", self.center)?;
        for a in &self.angles {
            write!(f, " {a}")?;
        }
        write!(f, "]")
    }
}

impl Iterator for SegmentIter<'_> {
    type Item = (StickKind, Segment);

    fn next(&mut self) -> Option<(StickKind, Segment)> {
        let stick = StickKind::try_from_index(self.next)?;
        let (dx, dy) = self.pose.angle(stick).direction();
        let dir = Vec2::new(dx, dy) * self.dims.length(stick);
        let segment = match stick.parent() {
            None => {
                let half_trunk = dir * 0.5;
                Segment::new(self.pose.center - half_trunk, self.pose.center + half_trunk)
            }
            Some(parent) => {
                let joint = self.placed[parent.index()];
                // The thigh hangs from the trunk's hip end, every other
                // stick from its parent's far end.
                let anchor = if stick == StickKind::Thigh {
                    joint.a
                } else {
                    joint.b
                };
                Segment::new(anchor, anchor + dir)
            }
        };
        self.placed[stick.index()] = segment;
        self.next += 1;
        Some((stick, segment))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = STICK_COUNT - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for SegmentIter<'_> {}

impl StickSegments {
    /// The segment of one stick.
    pub fn segment(&self, stick: StickKind) -> Segment {
        self.segments[stick.index()]
    }

    /// All segments in paper-index order.
    pub fn as_array(&self) -> &[Segment; STICK_COUNT] {
        &self.segments
    }

    /// Iterates `(stick, segment)` pairs in paper-index order.
    pub fn iter(&self) -> impl Iterator<Item = (StickKind, Segment)> + '_ {
        ALL_STICKS
            .iter()
            .map(move |&s| (s, self.segments[s.index()]))
    }

    /// The lowest y coordinate over all joints — where the body touches
    /// down (used by the synthesiser to keep feet on the ground).
    pub fn lowest_y(&self) -> f64 {
        self.segments
            .iter()
            .flat_map(|s| [s.a.y, s.b.y])
            .fold(f64::INFINITY, f64::min)
    }

    /// Axis-aligned bounds over all joints:
    /// `(x_min, y_min, x_max, y_max)`.
    pub fn bounds(&self) -> (f64, f64, f64, f64) {
        let mut b = (
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        for s in &self.segments {
            for p in [s.a, s.b] {
                b.0 = b.0.min(p.x);
                b.1 = b.1.min(p.y);
                b.2 = b.2.max(p.x);
                b.3 = b.3.max(p.y);
            }
        }
        b
    }
}

impl PoseError {
    /// Mean absolute angle error over all eight sticks, degrees.
    pub fn mean_angle_error(&self) -> f64 {
        self.angle_errors.iter().sum::<f64>() / STICK_COUNT as f64
    }

    /// Largest per-stick angle error, degrees.
    pub fn max_angle_error(&self) -> f64 {
        self.angle_errors.iter().copied().fold(0.0, f64::max)
    }
}

impl fmt::Display for PoseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "center {:.3} m, mean angle {:.1}°, max angle {:.1}°",
            self.center_distance,
            self.mean_angle_error(),
            self.max_angle_error()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> BodyDims {
        BodyDims::default()
    }

    #[test]
    fn standing_pose_feet_on_ground() {
        let d = dims();
        let pose = Pose::standing(&d);
        let segs = pose.segments(&d);
        // Ankle is at foot-thickness above ground; the foot stick tilts
        // slightly downward, so the lowest joint is within ~2 cm of 0.
        let low = segs.lowest_y();
        assert!(low.abs() < 0.05, "lowest joint at {low}");
    }

    #[test]
    fn standing_pose_head_near_height() {
        let d = dims();
        let segs = Pose::standing(&d).segments(&d);
        let crown = segs.segment(StickKind::Head).b.y;
        assert!(
            (0.88 * d.height()..=1.02 * d.height()).contains(&crown),
            "crown at {crown} for height {}",
            d.height()
        );
    }

    #[test]
    fn trunk_centered_on_center_gene() {
        let d = dims();
        let pose = Pose::standing(&d);
        let trunk = pose.segments(&d).segment(StickKind::Trunk);
        let mid = trunk.midpoint();
        assert!(mid.distance(pose.center) < 1e-12);
        assert!((trunk.length() - d.length(StickKind::Trunk)).abs() < 1e-12);
    }

    #[test]
    fn children_anchor_at_parent_distal_ends() {
        let d = dims();
        // Use a deliberately bent pose so the check is non-trivial.
        let pose = Pose::standing(&d)
            .with_angle(StickKind::Trunk, Angle::from_degrees(40.0))
            .with_angle(StickKind::UpperArm, Angle::from_degrees(300.0))
            .with_angle(StickKind::Thigh, Angle::from_degrees(135.0))
            .with_angle(StickKind::Shank, Angle::from_degrees(225.0));
        let segs = pose.segments(&d);
        let trunk = segs.segment(StickKind::Trunk);
        let shoulder = trunk.b;
        let hip = trunk.a;
        assert!(segs.segment(StickKind::Neck).a.distance(shoulder) < 1e-12);
        assert!(segs.segment(StickKind::UpperArm).a.distance(shoulder) < 1e-12);
        assert!(segs.segment(StickKind::Thigh).a.distance(hip) < 1e-12);
        assert!(
            segs.segment(StickKind::Head)
                .a
                .distance(segs.segment(StickKind::Neck).b)
                < 1e-12
        );
        assert!(
            segs.segment(StickKind::Forearm)
                .a
                .distance(segs.segment(StickKind::UpperArm).b)
                < 1e-12
        );
        assert!(
            segs.segment(StickKind::Shank)
                .a
                .distance(segs.segment(StickKind::Thigh).b)
                < 1e-12
        );
        assert!(
            segs.segment(StickKind::Foot)
                .a
                .distance(segs.segment(StickKind::Shank).b)
                < 1e-12
        );
    }

    #[test]
    fn segment_lengths_match_dims() {
        let d = dims();
        let segs = Pose::standing(&d).segments(&d);
        for (stick, seg) in segs.iter() {
            assert!(
                (seg.length() - d.length(stick)).abs() < 1e-12,
                "stick {stick} length {} expected {}",
                seg.length(),
                d.length(stick)
            );
        }
    }

    #[test]
    fn angles_rotate_toward_facing_direction() {
        let d = dims();
        // Trunk bent 90° forward: shoulder ends up forward of hip at the
        // same height.
        let pose = Pose::standing(&d).with_angle(StickKind::Trunk, Angle::FORWARD);
        let trunk = pose.segments(&d).segment(StickKind::Trunk);
        assert!(trunk.b.x > trunk.a.x);
        assert!((trunk.b.y - trunk.a.y).abs() < 1e-12);
    }

    #[test]
    fn gene_roundtrip() {
        let d = dims();
        let pose = Pose::standing(&d).with_angle(StickKind::UpperArm, Angle::from_degrees(303.5));
        let genes = pose.to_genes();
        assert_eq!(genes.len(), GENE_COUNT);
        let back = Pose::from_genes(&genes).unwrap();
        assert!(back.center.distance(pose.center) < 1e-12);
        for s in ALL_STICKS {
            assert!(back.angle(s).distance(pose.angle(s)) < 1e-12);
        }
    }

    #[test]
    fn from_genes_validates() {
        assert!(matches!(
            Pose::from_genes(&[0.0; 9]),
            Err(MotionError::BadGeneCount { got: 9 })
        ));
        let mut genes = [0.0; GENE_COUNT];
        genes[3] = f64::NAN;
        assert!(matches!(
            Pose::from_genes(&genes),
            Err(MotionError::NonFinite { .. })
        ));
        genes[3] = f64::INFINITY;
        assert!(Pose::from_genes(&genes).is_err());
    }

    #[test]
    fn from_genes_wraps_angles() {
        let mut genes = [0.0; GENE_COUNT];
        genes[2] = 365.0;
        let pose = Pose::from_genes(&genes).unwrap();
        assert!((pose.angle(StickKind::Trunk).degrees() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn error_against_self_is_zero() {
        let d = dims();
        let pose = Pose::standing(&d);
        let e = pose.error_against(&pose);
        assert_eq!(e.center_distance, 0.0);
        assert_eq!(e.mean_angle_error(), 0.0);
        assert_eq!(e.max_angle_error(), 0.0);
    }

    #[test]
    fn error_uses_wrapped_angles() {
        let d = dims();
        let a = Pose::standing(&d).with_angle(StickKind::Trunk, Angle::from_degrees(359.0));
        let b = Pose::standing(&d).with_angle(StickKind::Trunk, Angle::from_degrees(1.0));
        let e = a.error_against(&b);
        assert!((e.angle_errors[0] - 2.0).abs() < 1e-9);
        assert!((e.max_angle_error() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn error_center_distance() {
        let d = dims();
        let a = Pose::standing(&d);
        let b = a.with_center(a.center + Vec2::new(3.0, 4.0));
        assert!((a.error_against(&b).center_distance - 5.0).abs() < 1e-12);
    }

    #[test]
    fn pose_lerp_midpoint() {
        let d = dims();
        let a = Pose::standing(&d);
        let b = a
            .with_center(a.center + Vec2::new(1.0, 0.0))
            .with_angle(StickKind::Trunk, Angle::from_degrees(40.0));
        let mid = a.lerp(&b, 0.5);
        assert!((mid.center.x - (a.center.x + 0.5)).abs() < 1e-12);
        assert!((mid.angle(StickKind::Trunk).degrees() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn bounds_enclose_all_joints() {
        let d = dims();
        let segs = Pose::standing(&d).segments(&d);
        let (x0, y0, x1, y1) = segs.bounds();
        for (_, seg) in segs.iter() {
            for p in [seg.a, seg.b] {
                assert!(p.x >= x0 && p.x <= x1);
                assert!(p.y >= y0 && p.y <= y1);
            }
        }
        assert!(y1 > y0 && x1 >= x0);
    }

    #[test]
    fn display_mentions_center() {
        let d = dims();
        let s = Pose::standing(&d).to_string();
        assert!(s.contains("Pose"));
        assert!(s.contains("center"));
    }
}
