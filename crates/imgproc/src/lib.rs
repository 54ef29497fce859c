//! Image-processing substrate for the `slj` standing-long-jump motion
//! analysis system.
//!
//! The ICDCSW'06 paper this workspace reproduces operates on short RGB video
//! sequences: it estimates a background, subtracts it, repairs the binary
//! foreground, suppresses shadows in HSV space, and finally fits a stick
//! model to the silhouette. None of the mature Rust vision crates were
//! available to the reproduction, so this crate provides the small set of
//! primitives those steps need, built from scratch:
//!
//! * pixel types and colour conversion ([`pixel`]),
//! * a generic owned image buffer ([`image`]),
//! * binary masks with set algebra and accuracy metrics ([`mask`]),
//! * the bit-packed word-parallel mask substrate behind them ([`bitmask`]),
//! * box/median smoothing filters and integral images ([`filter`]),
//! * morphology and neighbour counting ([`morph`]),
//! * connected-component labelling ([`components`]),
//! * hole filling, including the paper's exact 4-neighbour rule ([`holes`]),
//! * area/centroid/bounding-box moments ([`moments`]),
//! * rasterisation of lines, capsules, discs and rectangles ([`draw`]),
//! * planar geometry: points, vectors, point–segment distance ([`geometry`]),
//! * a two-pass chamfer distance transform ([`distance`]),
//! * binary PGM/PPM I/O for figure dumps ([`io`]),
//! * deterministic noise injection for the synthetic camera ([`noise`]).
//!
//! # Example
//!
//! ```
//! use slj_imgproc::image::ImageBuffer;
//! use slj_imgproc::pixel::Rgb;
//! use slj_imgproc::mask::Mask;
//!
//! // A dark frame with a bright 4x4 square, thresholded into a mask.
//! let frame = ImageBuffer::from_fn(16, 16, |x, y| {
//!     if (4..8).contains(&x) && (4..8).contains(&y) {
//!         Rgb::new(250, 250, 250)
//!     } else {
//!         Rgb::new(10, 10, 10)
//!     }
//! });
//! let mask = Mask::from_fn(frame.width(), frame.height(), |x, y| {
//!     frame.get(x, y).luma() > 128.0
//! });
//! assert_eq!(mask.count(), 16);
//! ```

#![forbid(unsafe_code)]

pub mod bitmask;
pub mod components;
pub mod distance;
pub mod draw;
pub mod error;
pub mod filter;
pub mod geometry;
pub mod holes;
pub mod image;
pub mod io;
pub mod lanes;
pub mod mask;
pub mod moments;
pub mod morph;
pub mod noise;
pub mod pixel;

pub use bitmask::BitMask;
pub use error::ImgError;
pub use geometry::{Point2, Vec2};
pub use image::ImageBuffer;
pub use mask::Mask;
pub use pixel::{Gray, Hsv, Rgb};
