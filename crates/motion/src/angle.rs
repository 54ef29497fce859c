//! The paper's angle convention (Figure 5).
//!
//! Every stick Sₗ carries an angle ρₗ measured **from the vertical (+y)
//! axis toward the facing direction (+x)**, in degrees `[0, 360)`. A
//! value of 0° points straight up, 90° points forward (the jump
//! direction), 180° straight down, 270° backward.
//!
//! [`Angle`] is a newtype over `f64` degrees that normalises on
//! construction and provides the two difference notions the system needs:
//! the **raw** difference used verbatim by the scoring rules of Table 2
//! (`ρ6 − ρ3 > 60°` is a plain subtraction of normalised values in the
//! paper) and the **wrapped** signed difference used for pose-error
//! metrics and for GA mutation ranges.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// An angle in degrees, normalised to `[0, 360)`, measured from the
/// vertical axis per the paper's Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize)]
pub struct Angle(f64);

/// Reads degrees through [`Angle::from_degrees`], so a deserialised
/// angle is normalised like a constructed one: 370 reads as 10. A
/// non-finite value, which `from_degrees` refuses with a panic, is kept
/// as it is for the caller's validation to refuse with its own typed
/// error (e.g. `OpenRequest::validate`).
impl Deserialize for Angle {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let degrees = f64::from_value(value)?;
        Ok(if degrees.is_finite() {
            Angle::from_degrees(degrees)
        } else {
            Angle(degrees)
        })
    }
}

impl Angle {
    /// Straight up (the vertical reference axis).
    pub const UP: Angle = Angle(0.0);
    /// Horizontal, facing the jump direction.
    pub const FORWARD: Angle = Angle(90.0);
    /// Straight down.
    pub const DOWN: Angle = Angle(180.0);
    /// Horizontal, against the jump direction.
    pub const BACKWARD: Angle = Angle(270.0);

    /// Creates an angle from degrees, wrapping into `[0, 360)`.
    ///
    /// On `(−360, 720)`, where every GA operator lands, `rem_euclid`
    /// reduces to at most one add or subtract of 360, so that is
    /// computed directly, with the same rounding. A negative input
    /// within 2⁻⁴⁵ of zero rounds up to `360.0` on that add; it is 0°.
    ///
    /// # Panics
    ///
    /// Panics if `deg` is not finite (a NaN angle would silently poison
    /// the GA's fitness ordering).
    pub fn from_degrees(deg: f64) -> Self {
        assert!(deg.is_finite(), "angle must be finite, got {deg}");
        let wrapped = if (0.0..360.0).contains(&deg) {
            deg
        } else if deg < 0.0 && deg > -360.0 {
            let up = deg + 360.0;
            if up == 360.0 {
                0.0
            } else {
                up
            }
        } else if (360.0..720.0).contains(&deg) {
            deg - 360.0
        } else {
            // Any non-zero remainder here is at least one ulp of 360 in
            // size, so the add inside cannot round up to 360.
            deg.rem_euclid(360.0)
        };
        Angle(wrapped)
    }

    /// Creates an angle from radians.
    ///
    /// # Panics
    ///
    /// Panics if `rad` is not finite.
    pub fn from_radians(rad: f64) -> Self {
        Angle::from_degrees(rad.to_degrees())
    }

    /// The angle in degrees, `[0, 360)`.
    pub fn degrees(self) -> f64 {
        self.0
    }

    /// The angle in radians, `[0, 2π)`.
    pub fn radians(self) -> f64 {
        self.0.to_radians()
    }

    /// Unit direction vector `(sin ρ, cos ρ)` in y-up world coordinates.
    ///
    /// 0° ↦ (0, 1); 90° ↦ (1, 0); 180° ↦ (0, −1); 270° ↦ (−1, 0).
    pub fn direction(self) -> (f64, f64) {
        let r = self.radians();
        (r.sin(), r.cos())
    }

    /// Raw numeric difference `self − other` of the normalised values, in
    /// `(−360, 360)`. This is the subtraction the paper's Table 2 rules
    /// perform (e.g. `ρ6 − ρ3 > 60°`).
    pub fn raw_diff(self, other: Angle) -> f64 {
        self.0 - other.0
    }

    /// Signed shortest angular difference `self − other`, wrapped into
    /// `(−180, 180]`. Used for error metrics and mutation ranges.
    pub fn wrapped_diff(self, other: Angle) -> f64 {
        let mut d = (self.0 - other.0).rem_euclid(360.0);
        if d > 180.0 {
            d -= 360.0;
        }
        d
    }

    /// Absolute shortest angular distance to `other`, in `[0, 180]`.
    pub fn distance(self, other: Angle) -> f64 {
        self.wrapped_diff(other).abs()
    }

    /// Interpolates from `self` to `other` along the shortest arc.
    /// `t = 0` gives `self`, `t = 1` gives `other`.
    pub fn lerp(self, other: Angle, t: f64) -> Angle {
        Angle::from_degrees(self.0 + self.wrapped_diff_to(other) * t)
    }

    /// Signed shortest difference `other − self` in `(−180, 180]`.
    fn wrapped_diff_to(self, other: Angle) -> f64 {
        other.wrapped_diff(self)
    }
}

impl Add<f64> for Angle {
    type Output = Angle;
    /// Rotates by `deg` degrees (wrapping).
    fn add(self, deg: f64) -> Angle {
        Angle::from_degrees(self.0 + deg)
    }
}

impl Sub<f64> for Angle {
    type Output = Angle;
    /// Rotates by `−deg` degrees (wrapping).
    fn sub(self, deg: f64) -> Angle {
        Angle::from_degrees(self.0 - deg)
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}°", self.0)
    }
}

impl From<Angle> for f64 {
    fn from(a: Angle) -> f64 {
        a.degrees()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_wraps() {
        assert_eq!(Angle::from_degrees(370.0).degrees(), 10.0);
        assert_eq!(Angle::from_degrees(-30.0).degrees(), 330.0);
        assert_eq!(Angle::from_degrees(720.0).degrees(), 0.0);
        assert_eq!(Angle::from_degrees(359.999).degrees(), 359.999);
    }

    #[test]
    fn tiny_negative_wraps_to_zero_not_360() {
        // `rem_euclid` rounds `r + 360` up to 360.0 for these; the last
        // is -2⁻⁴⁵, half an ulp of 360, where the tie goes to 360.
        for deg in [
            -1e-15,
            -2.8e-14,
            -f64::MIN_POSITIVE,
            -5e-324,
            -2.842170943040401e-14,
        ] {
            let a = Angle::from_degrees(deg);
            assert_eq!(a.degrees(), 0.0, "from_degrees({deg:e})");
            assert_eq!(a.raw_diff(Angle::UP), 0.0);
        }
        // A whole ulp of 360 below zero is representable below 360.
        let below = Angle::from_degrees(-5.684341886080802e-14).degrees();
        assert_eq!(below, 360.0 - 5.684341886080802e-14);
        assert!(below < 360.0, "{below}");
    }

    #[test]
    fn deserialising_normalises_like_from_degrees() {
        let read = |deg: f64| Angle::from_value(&serde::Value::F64(deg)).unwrap();
        assert_eq!(read(370.0).degrees(), 10.0);
        assert_eq!(read(-10.0).degrees(), 350.0);
        assert_eq!(
            Angle::from_value(&serde::Value::I64(-350))
                .unwrap()
                .degrees(),
            10.0
        );
        // Every normalised value reads back bit for bit.
        let below_360 = f64::from_bits(360.0f64.to_bits() - 1);
        for deg in [
            0.0,
            5e-324,
            1e-300,
            10.0,
            90.0,
            179.99999999999997,
            270.5,
            below_360,
        ] {
            let a = Angle::from_degrees(deg);
            assert_eq!(
                Angle::from_value(&a.to_value())
                    .unwrap()
                    .degrees()
                    .to_bits(),
                a.degrees().to_bits(),
                "{deg:e}"
            );
        }
        // Non-finite values are kept for the caller's validation.
        assert_eq!(read(f64::INFINITY).degrees(), f64::INFINITY);
        assert_eq!(read(f64::NEG_INFINITY).degrees(), f64::NEG_INFINITY);
        assert!(Angle::from_value(&serde::Value::Str("90".into())).is_err());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        Angle::from_degrees(f64::NAN);
    }

    #[test]
    fn radians_roundtrip() {
        let a = Angle::from_radians(std::f64::consts::FRAC_PI_2);
        assert!((a.degrees() - 90.0).abs() < 1e-12);
        assert!((Angle::from_degrees(45.0).radians() - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn cardinal_directions() {
        let close =
            |a: (f64, f64), b: (f64, f64)| (a.0 - b.0).abs() < 1e-12 && (a.1 - b.1).abs() < 1e-12;
        assert!(close(Angle::UP.direction(), (0.0, 1.0)));
        assert!(close(Angle::FORWARD.direction(), (1.0, 0.0)));
        assert!(close(Angle::DOWN.direction(), (0.0, -1.0)));
        assert!(close(Angle::BACKWARD.direction(), (-1.0, 0.0)));
    }

    #[test]
    fn direction_is_unit_length() {
        for d in [0.0, 17.0, 95.0, 213.0, 340.0] {
            let (x, y) = Angle::from_degrees(d).direction();
            assert!((x * x + y * y - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn raw_diff_is_plain_subtraction() {
        let shank = Angle::from_degrees(225.0);
        let thigh = Angle::from_degrees(135.0);
        assert_eq!(shank.raw_diff(thigh), 90.0); // knees bent by Table 2
                                                 // Raw diff can be negative and large — no wrapping.
        assert_eq!(thigh.raw_diff(shank), -90.0);
        assert_eq!(
            Angle::from_degrees(10.0).raw_diff(Angle::from_degrees(350.0)),
            -340.0
        );
    }

    #[test]
    fn wrapped_diff_takes_shortest_arc() {
        let a = Angle::from_degrees(10.0);
        let b = Angle::from_degrees(350.0);
        assert_eq!(a.wrapped_diff(b), 20.0);
        assert_eq!(b.wrapped_diff(a), -20.0);
        // Antipodal maps to +180 (half-open interval).
        assert_eq!(Angle::from_degrees(180.0).wrapped_diff(Angle::UP), 180.0);
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        for (x, y) in [(0.0, 359.0), (90.0, 270.0), (13.0, 13.0), (45.0, 200.0)] {
            let a = Angle::from_degrees(x);
            let b = Angle::from_degrees(y);
            assert_eq!(a.distance(b), b.distance(a));
            assert!(a.distance(b) <= 180.0);
        }
        assert_eq!(
            Angle::from_degrees(0.0).distance(Angle::from_degrees(359.0)),
            1.0
        );
    }

    #[test]
    fn lerp_shortest_arc_across_wraparound() {
        let a = Angle::from_degrees(350.0);
        let b = Angle::from_degrees(10.0);
        let mid = a.lerp(b, 0.5);
        assert!((mid.degrees() - 0.0).abs() < 1e-9, "got {mid}");
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0).degrees(), 10.0);
    }

    #[test]
    fn add_sub_rotate() {
        let a = Angle::from_degrees(350.0) + 20.0;
        assert_eq!(a.degrees(), 10.0);
        let b = Angle::from_degrees(10.0) - 20.0;
        assert_eq!(b.degrees(), 350.0);
    }

    #[test]
    fn display_and_into_f64() {
        let a = Angle::from_degrees(123.456);
        assert_eq!(a.to_string(), "123.5°");
        let d: f64 = a.into();
        assert!((d - 123.456).abs() < 1e-9);
    }
}
