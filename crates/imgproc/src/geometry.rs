//! Planar geometry used throughout the workspace.
//!
//! The stick-model fitness function of the paper (Eq. 3) is built on the
//! distance from a silhouette pixel to a line segment (a "stick"), so this
//! module provides [`Point2`], [`Vec2`], [`Segment`] and the associated
//! distance queries. Coordinates are `f64`; whether they mean metres
//! (world space, y-up) or pixels (image space, y-down) is decided by the
//! caller — `slj-video`'s camera owns the conversion between the two.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

/// A displacement in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Point2 {
    /// Creates a point from its coordinates.
    pub fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// The origin, `(0, 0)`.
    pub fn origin() -> Self {
        Point2::default()
    }

    /// Euclidean distance to another point.
    pub fn distance(self, other: Point2) -> f64 {
        (self - other).norm()
    }

    /// Squared Euclidean distance to another point (no square root).
    pub fn distance_sq(self, other: Point2) -> f64 {
        (self - other).norm_sq()
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    ///
    /// `t` is not clamped; values outside `[0, 1]` extrapolate.
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        self + (other - self) * t
    }

    /// Midpoint between `self` and `other`.
    pub fn midpoint(self, other: Point2) -> Point2 {
        self.lerp(other, 0.5)
    }

    /// Interprets the point as a displacement from the origin.
    pub fn to_vec(self) -> Vec2 {
        Vec2 {
            x: self.x,
            y: self.y,
        }
    }
}

impl Vec2 {
    /// Creates a vector from its components.
    pub fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// The zero vector.
    pub fn zero() -> Self {
        Vec2::default()
    }

    /// Euclidean length.
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared Euclidean length.
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Scalar (z-component of the 3-D) cross product.
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Unit vector in the same direction.
    ///
    /// Returns the zero vector when the input has (near-)zero length, which
    /// is the behaviour the rasteriser wants for degenerate sticks.
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n <= f64::EPSILON {
            Vec2::zero()
        } else {
            self / n
        }
    }

    /// Perpendicular vector, rotated +90° counter-clockwise (in y-up
    /// coordinates).
    pub fn perp(self) -> Vec2 {
        Vec2 {
            x: -self.y,
            y: self.x,
        }
    }

    /// Interprets the displacement as an absolute point.
    pub fn to_point(self) -> Point2 {
        Point2 {
            x: self.x,
            y: self.y,
        }
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.3}, {:.3}>", self.x, self.y)
    }
}

impl Add<Vec2> for Point2 {
    type Output = Point2;
    fn add(self, v: Vec2) -> Point2 {
        Point2::new(self.x + v.x, self.y + v.y)
    }
}

impl AddAssign<Vec2> for Point2 {
    fn add_assign(&mut self, v: Vec2) {
        self.x += v.x;
        self.y += v.y;
    }
}

impl Sub<Vec2> for Point2 {
    type Output = Point2;
    fn sub(self, v: Vec2) -> Point2 {
        Point2::new(self.x - v.x, self.y - v.y)
    }
}

impl SubAssign<Vec2> for Point2 {
    fn sub_assign(&mut self, v: Vec2) {
        self.x -= v.x;
        self.y -= v.y;
    }
}

impl Sub for Point2 {
    type Output = Vec2;
    fn sub(self, other: Point2) -> Vec2 {
        Vec2::new(self.x - other.x, self.y - other.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x + other.x, self.y + other.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x - other.x, self.y - other.y)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, s: f64) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    fn div(self, s: f64) -> Vec2 {
        Vec2::new(self.x / s, self.y / s)
    }
}

/// A line segment between two points.
///
/// A "stick" of the paper's stick model is a segment plus a thickness; the
/// thickness lives in `slj-motion`, the geometry lives here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Start point (for sticks: the end nearer the trunk).
    pub a: Point2,
    /// End point.
    pub b: Point2,
}

impl Segment {
    /// Creates a segment between two points. Degenerate segments
    /// (`a == b`) are allowed and behave as a single point.
    pub fn new(a: Point2, b: Point2) -> Self {
        Segment { a, b }
    }

    /// Segment length.
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Midpoint of the segment.
    pub fn midpoint(&self) -> Point2 {
        self.a.midpoint(self.b)
    }

    /// The parameter `t ∈ [0, 1]` of the point on the segment closest to
    /// `p`.
    pub fn closest_t(&self, p: Point2) -> f64 {
        let d = self.b - self.a;
        let len_sq = d.norm_sq();
        if len_sq <= f64::EPSILON {
            return 0.0;
        }
        ((p - self.a).dot(d) / len_sq).clamp(0.0, 1.0)
    }

    /// The point on the segment closest to `p`.
    pub fn closest_point(&self, p: Point2) -> Point2 {
        self.a.lerp(self.b, self.closest_t(p))
    }

    /// Euclidean distance from `p` to the segment.
    ///
    /// This is the `d(x_i, y_j)` of the paper's Eq. 3 for a single stick.
    pub fn distance_to(&self, p: Point2) -> f64 {
        p.distance(self.closest_point(p))
    }

    /// Squared distance from `p` to the segment.
    pub fn distance_sq_to(&self, p: Point2) -> f64 {
        p.distance_sq(self.closest_point(p))
    }

    /// Samples `n` points evenly along the segment (including both ends).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn sample(&self, n: usize) -> Vec<Point2> {
        self.sample_iter(n).collect()
    }

    /// As [`Segment::sample`] but yielding the points lazily — the
    /// allocation-free form for hot loops. Same values in the same
    /// order.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn sample_iter(&self, n: usize) -> impl Iterator<Item = Point2> {
        let (a, b) = (self.a, self.b);
        Segment::sample_fractions(n).map(move |t| a.lerp(b, t))
    }

    /// The parameters of the `n` points [`Segment::sample_iter`]
    /// yields, each at `a.lerp(b, t)`: evenly from 0 to 1, or the
    /// midpoint's 0.5 when `n == 1`. They depend on `n` alone, so a
    /// caller sampling many segments can compute them once.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn sample_fractions(n: usize) -> impl Iterator<Item = f64> {
        assert!(n > 0, "sample count must be positive");
        (0..n).map(move |i| {
            if n == 1 {
                0.5
            } else {
                i as f64 / (n - 1) as f64
            }
        })
    }
}

/// Converts degrees to radians.
pub fn deg_to_rad(deg: f64) -> f64 {
    deg * std::f64::consts::PI / 180.0
}

/// Converts radians to degrees.
pub fn rad_to_deg(rad: f64) -> f64 {
    rad * 180.0 / std::f64::consts::PI
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn point_arithmetic() {
        let a = p(1.0, 2.0);
        let b = p(4.0, 6.0);
        let d = b - a;
        assert_eq!(d, Vec2::new(3.0, 4.0));
        assert_eq!(d.norm(), 5.0);
        assert_eq!(a + d, b);
        assert_eq!(b - d, a);
    }

    #[test]
    fn point_assign_ops() {
        let mut a = p(1.0, 1.0);
        a += Vec2::new(2.0, 3.0);
        assert_eq!(a, p(3.0, 4.0));
        a -= Vec2::new(3.0, 4.0);
        assert_eq!(a, p(0.0, 0.0));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = p(0.0, 0.0);
        let b = p(10.0, -2.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.midpoint(b), p(5.0, -1.0));
    }

    #[test]
    fn vector_dot_cross_perp() {
        let u = Vec2::new(1.0, 0.0);
        let v = Vec2::new(0.0, 1.0);
        assert_eq!(u.dot(v), 0.0);
        assert_eq!(u.cross(v), 1.0);
        assert_eq!(u.perp(), v);
        assert_eq!(v.perp(), Vec2::new(-1.0, 0.0));
    }

    #[test]
    fn normalized_zero_vector_is_zero() {
        assert_eq!(Vec2::zero().normalized(), Vec2::zero());
    }

    #[test]
    fn normalized_has_unit_length() {
        let v = Vec2::new(3.0, -4.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segment_distance_interior() {
        // Horizontal segment from (0,0) to (10,0); point above its middle.
        let s = Segment::new(p(0.0, 0.0), p(10.0, 0.0));
        assert_eq!(s.distance_to(p(5.0, 3.0)), 3.0);
        assert_eq!(s.closest_point(p(5.0, 3.0)), p(5.0, 0.0));
    }

    #[test]
    fn segment_distance_clamps_to_endpoints() {
        let s = Segment::new(p(0.0, 0.0), p(10.0, 0.0));
        // Beyond the right end: closest point must be the endpoint.
        assert_eq!(s.closest_point(p(14.0, 3.0)), p(10.0, 0.0));
        assert_eq!(s.distance_to(p(14.0, 3.0)), 5.0);
        // Beyond the left end.
        assert_eq!(s.closest_point(p(-3.0, 4.0)), p(0.0, 0.0));
        assert_eq!(s.distance_to(p(-3.0, 4.0)), 5.0);
    }

    #[test]
    fn degenerate_segment_acts_as_point() {
        let s = Segment::new(p(2.0, 2.0), p(2.0, 2.0));
        assert_eq!(s.length(), 0.0);
        assert_eq!(s.distance_to(p(5.0, 6.0)), 5.0);
        assert_eq!(s.closest_t(p(5.0, 6.0)), 0.0);
    }

    #[test]
    fn segment_sampling() {
        let s = Segment::new(p(0.0, 0.0), p(4.0, 0.0));
        let pts = s.sample(5);
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0], p(0.0, 0.0));
        assert_eq!(pts[4], p(4.0, 0.0));
        assert_eq!(pts[2], p(2.0, 0.0));
        // n = 1 returns the midpoint.
        assert_eq!(s.sample(1), vec![p(2.0, 0.0)]);
        // The lazy form yields the same points in the same order.
        let t = Segment::new(p(1.0, -2.0), p(-3.0, 7.5));
        for n in [1, 2, 5, 7] {
            assert_eq!(t.sample_iter(n).collect::<Vec<_>>(), t.sample(n));
        }
    }

    #[test]
    #[should_panic(expected = "sample count")]
    fn segment_sample_zero_panics() {
        Segment::new(p(0.0, 0.0), p(1.0, 0.0)).sample(0);
    }

    #[test]
    fn degree_radian_roundtrip() {
        for d in [0.0, 45.0, 90.0, 180.0, 270.0, 359.0] {
            assert!((rad_to_deg(deg_to_rad(d)) - d).abs() < 1e-10);
        }
        assert!((deg_to_rad(180.0) - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert!(!p(1.0, 2.0).to_string().is_empty());
        assert!(!Vec2::new(1.0, 2.0).to_string().is_empty());
    }

    #[test]
    fn distance_sq_consistent_with_distance() {
        let s = Segment::new(p(1.0, 1.0), p(7.0, 5.0));
        let q = p(-2.0, 9.0);
        let d = s.distance_to(q);
        assert!((s.distance_sq_to(q) - d * d).abs() < 1e-9);
    }
}
