//! Pixel types and colour-space conversion.
//!
//! The segmentation pipeline of the paper works in two colour spaces: plain
//! RGB for background subtraction, and HSV for the shadow mask of Eqs. 1–2
//! (following Cucchiara et al.). [`Rgb`] is the storage format of frames;
//! [`Hsv`] is the analysis format; [`Gray`] is used for difference images
//! and figure dumps.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An 8-bit-per-channel RGB pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Rgb {
    /// Red channel, `0..=255`.
    pub r: u8,
    /// Green channel, `0..=255`.
    pub g: u8,
    /// Blue channel, `0..=255`.
    pub b: u8,
}

/// A pixel in the Hue–Saturation–Value space used by the shadow detector.
///
/// Ranges follow the paper's conventions: hue is angular in degrees
/// `[0, 360)`, saturation and value are normalised to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Hsv {
    /// Hue in degrees, `[0, 360)`. Zero for achromatic pixels.
    pub h: f64,
    /// Saturation, `[0, 1]`.
    pub s: f64,
    /// Value (brightness), `[0, 1]`.
    pub v: f64,
}

/// An 8-bit grayscale pixel.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Gray(pub u8);

impl Rgb {
    /// Pure black.
    pub const BLACK: Rgb = Rgb { r: 0, g: 0, b: 0 };
    /// Pure white.
    pub const WHITE: Rgb = Rgb {
        r: 255,
        g: 255,
        b: 255,
    };

    /// Creates a pixel from its channels.
    pub fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb { r, g, b }
    }

    /// Creates a gray pixel with all channels equal.
    pub fn splat(v: u8) -> Self {
        Rgb { r: v, g: v, b: v }
    }

    /// Rec. 601 luma in `[0, 255]`.
    pub fn luma(self) -> f64 {
        0.299 * self.r as f64 + 0.587 * self.g as f64 + 0.114 * self.b as f64
    }

    /// L1 (sum of absolute channel differences) distance to another pixel,
    /// in `[0, 765]`. This is the change measure used for background
    /// estimation and subtraction.
    pub fn l1_distance(self, other: Rgb) -> u32 {
        (self.r as i32 - other.r as i32).unsigned_abs()
            + (self.g as i32 - other.g as i32).unsigned_abs()
            + (self.b as i32 - other.b as i32).unsigned_abs()
    }

    /// Maximum absolute per-channel difference, in `[0, 255]`.
    pub fn linf_distance(self, other: Rgb) -> u32 {
        let dr = (self.r as i32 - other.r as i32).unsigned_abs();
        let dg = (self.g as i32 - other.g as i32).unsigned_abs();
        let db = (self.b as i32 - other.b as i32).unsigned_abs();
        dr.max(dg).max(db)
    }

    /// Converts to HSV.
    pub fn to_hsv(self) -> Hsv {
        let r = self.r as f64 / 255.0;
        let g = self.g as f64 / 255.0;
        let b = self.b as f64 / 255.0;
        let max = r.max(g).max(b);
        let min = r.min(g).min(b);
        let delta = max - min;

        let h = if delta <= f64::EPSILON {
            0.0
        } else if (max - r).abs() <= f64::EPSILON {
            60.0 * (((g - b) / delta).rem_euclid(6.0))
        } else if (max - g).abs() <= f64::EPSILON {
            60.0 * ((b - r) / delta + 2.0)
        } else {
            60.0 * ((r - g) / delta + 4.0)
        };
        let s = if max <= f64::EPSILON {
            0.0
        } else {
            delta / max
        };
        Hsv {
            h: h.rem_euclid(360.0),
            s,
            v: max,
        }
    }

    /// Scales brightness by `factor`, saturating each channel at 255.
    ///
    /// Used by the synthetic camera for lighting flicker and by the shadow
    /// caster (factors below 1 darken, preserving hue approximately — the
    /// property the HSV shadow detector of the paper relies on).
    pub fn scale_brightness(self, factor: f64) -> Rgb {
        let s = |c: u8| ((c as f64 * factor).round().clamp(0.0, 255.0)) as u8;
        Rgb::new(s(self.r), s(self.g), s(self.b))
    }
}

impl Hsv {
    /// Creates an HSV pixel; hue is wrapped into `[0, 360)`, saturation and
    /// value are clamped to `[0, 1]`.
    pub fn new(h: f64, s: f64, v: f64) -> Self {
        Hsv {
            h: h.rem_euclid(360.0),
            s: s.clamp(0.0, 1.0),
            v: v.clamp(0.0, 1.0),
        }
    }

    /// Converts to RGB.
    pub fn to_rgb(self) -> Rgb {
        let c = self.v * self.s;
        let hp = self.h / 60.0;
        let x = c * (1.0 - (hp.rem_euclid(2.0) - 1.0).abs());
        let (r1, g1, b1) = match hp as u32 {
            0 => (c, x, 0.0),
            1 => (x, c, 0.0),
            2 => (0.0, c, x),
            3 => (0.0, x, c),
            4 => (x, 0.0, c),
            _ => (c, 0.0, x),
        };
        let m = self.v - c;
        let q = |v: f64| ((v + m) * 255.0).round().clamp(0.0, 255.0) as u8;
        Rgb::new(q(r1), q(g1), q(b1))
    }

    /// Angular hue distance to another pixel, in degrees `[0, 180]`.
    ///
    /// This is the paper's Eq. 2:
    /// `DH_k(p) = min(|F.H − B.H|, 360 − |F.H − B.H|)`.
    pub fn hue_distance(self, other: Hsv) -> f64 {
        let d = (self.h - other.h).abs();
        d.min(360.0 - d)
    }
}

impl Gray {
    /// Creates a grayscale pixel.
    pub fn new(v: u8) -> Self {
        Gray(v)
    }

    /// The underlying intensity.
    pub fn value(self) -> u8 {
        self.0
    }
}

/// Decodes packed `[r, g, b]` bytes, three per pixel, the layout of a
/// binary PPM body and of the wire's raw RGB24 frames. A trailing
/// partial pixel is left out; a caller that receives pixels in pieces
/// keeps it for the next piece.
pub fn unpack_rgb(bytes: &[u8]) -> impl ExactSizeIterator<Item = Rgb> + '_ {
    // Destructuring a 3-byte array lets the compiler vectorise the
    // copy; indexing the chunk runs about 2.5x slower.
    bytes.chunks_exact(3).map(|c| {
        let [r, g, b] = c.try_into().expect("chunks of 3");
        Rgb { r, g, b }
    })
}

/// Encodes pixels as packed `[r, g, b]` bytes: the inverse of
/// [`unpack_rgb`].
pub fn pack_rgb(pixels: &[Rgb]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(pixels.len() * 3);
    for p in pixels {
        bytes.extend_from_slice(&[p.r, p.g, p.b]);
    }
    bytes
}

impl From<Gray> for Rgb {
    fn from(g: Gray) -> Rgb {
        Rgb::splat(g.0)
    }
}

impl From<Rgb> for Gray {
    fn from(c: Rgb) -> Gray {
        Gray(c.luma().round().clamp(0.0, 255.0) as u8)
    }
}

impl From<Rgb> for Hsv {
    fn from(c: Rgb) -> Hsv {
        c.to_hsv()
    }
}

impl From<Hsv> for Rgb {
    fn from(c: Hsv) -> Rgb {
        c.to_rgb()
    }
}

impl fmt::Display for Rgb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:02x}{:02x}{:02x}", self.r, self.g, self.b)
    }
}

impl fmt::Display for Hsv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hsv({:.1}°, {:.3}, {:.3})", self.h, self.s, self.v)
    }
}

impl fmt::Display for Gray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gray({})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_colors_to_hsv() {
        let red = Rgb::new(255, 0, 0).to_hsv();
        assert!((red.h - 0.0).abs() < 1e-9);
        assert!((red.s - 1.0).abs() < 1e-9);
        assert!((red.v - 1.0).abs() < 1e-9);

        let green = Rgb::new(0, 255, 0).to_hsv();
        assert!((green.h - 120.0).abs() < 1e-9);

        let blue = Rgb::new(0, 0, 255).to_hsv();
        assert!((blue.h - 240.0).abs() < 1e-9);
    }

    #[test]
    fn achromatic_pixels_have_zero_saturation() {
        for v in [0u8, 37, 128, 255] {
            let hsv = Rgb::splat(v).to_hsv();
            assert_eq!(hsv.s, 0.0);
            assert_eq!(hsv.h, 0.0);
            assert!((hsv.v - v as f64 / 255.0).abs() < 1e-9);
        }
    }

    #[test]
    fn rgb_hsv_roundtrip_exact_corners() {
        for c in [
            Rgb::BLACK,
            Rgb::WHITE,
            Rgb::new(255, 0, 0),
            Rgb::new(0, 255, 0),
            Rgb::new(0, 0, 255),
            Rgb::new(255, 255, 0),
            Rgb::new(0, 255, 255),
            Rgb::new(255, 0, 255),
        ] {
            assert_eq!(c.to_hsv().to_rgb(), c);
        }
    }

    #[test]
    fn rgb_hsv_roundtrip_within_quantisation() {
        // Every conversion round trip must land within 1 intensity level
        // per channel (HSV is continuous; RGB is quantised).
        for r in (0..=255).step_by(17) {
            for g in (0..=255).step_by(23) {
                for b in (0..=255).step_by(29) {
                    let c = Rgb::new(r as u8, g as u8, b as u8);
                    let back = c.to_hsv().to_rgb();
                    assert!(c.linf_distance(back) <= 1, "{c} -> {back}");
                }
            }
        }
    }

    #[test]
    fn hue_distance_is_angular() {
        let a = Hsv::new(10.0, 1.0, 1.0);
        let b = Hsv::new(350.0, 1.0, 1.0);
        // Across the wrap-around the distance is 20°, not 340°.
        assert!((a.hue_distance(b) - 20.0).abs() < 1e-9);
        assert!((b.hue_distance(a) - 20.0).abs() < 1e-9);
        // Maximum possible angular distance is 180°.
        let c = Hsv::new(0.0, 1.0, 1.0);
        let d = Hsv::new(180.0, 1.0, 1.0);
        assert!((c.hue_distance(d) - 180.0).abs() < 1e-9);
    }

    #[test]
    fn hsv_new_normalises() {
        let p = Hsv::new(-30.0, 2.0, -1.0);
        assert!((p.h - 330.0).abs() < 1e-9);
        assert_eq!(p.s, 1.0);
        assert_eq!(p.v, 0.0);
        assert!((Hsv::new(720.0, 0.5, 0.5).h - 0.0).abs() < 1e-9);
    }

    #[test]
    fn l1_and_linf_distances() {
        let a = Rgb::new(10, 20, 30);
        let b = Rgb::new(13, 16, 30);
        assert_eq!(a.l1_distance(b), 7);
        assert_eq!(a.linf_distance(b), 4);
        assert_eq!(a.l1_distance(a), 0);
        assert_eq!(Rgb::BLACK.l1_distance(Rgb::WHITE), 765);
    }

    #[test]
    fn luma_bounds_and_ordering() {
        assert_eq!(Rgb::BLACK.luma(), 0.0);
        assert!((Rgb::WHITE.luma() - 255.0).abs() < 1e-9);
        // Green contributes most to luma.
        assert!(Rgb::new(0, 255, 0).luma() > Rgb::new(255, 0, 0).luma());
        assert!(Rgb::new(255, 0, 0).luma() > Rgb::new(0, 0, 255).luma());
    }

    #[test]
    fn scale_brightness_darkens_preserving_hue() {
        let c = Rgb::new(200, 100, 50);
        let dark = c.scale_brightness(0.5);
        assert_eq!(dark, Rgb::new(100, 50, 25));
        let dh = c.to_hsv().hue_distance(dark.to_hsv());
        assert!(dh < 2.0, "hue shifted by {dh}°");
        // Value drops proportionally.
        assert!((dark.to_hsv().v - 0.5 * c.to_hsv().v).abs() < 0.01);
    }

    #[test]
    fn scale_brightness_saturates() {
        assert_eq!(Rgb::new(200, 200, 200).scale_brightness(2.0), Rgb::WHITE);
        assert_eq!(Rgb::WHITE.scale_brightness(0.0), Rgb::BLACK);
    }

    #[test]
    fn gray_conversions() {
        let g: Gray = Rgb::new(255, 255, 255).into();
        assert_eq!(g, Gray(255));
        let c: Rgb = Gray(100).into();
        assert_eq!(c, Rgb::splat(100));
        assert_eq!(Gray::new(7).value(), 7);
    }

    #[test]
    fn display_impls() {
        assert_eq!(Rgb::new(255, 0, 16).to_string(), "#ff0010");
        assert!(Hsv::new(120.0, 0.5, 0.25).to_string().contains("120.0"));
        assert_eq!(Gray(9).to_string(), "gray(9)");
    }
}
