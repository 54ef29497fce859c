//! Stick-model kinematics and standing-long-jump motion synthesis.
//!
//! This crate owns the paper's articulated human model (Section 3,
//! Figures 4–5) and everything derived from it:
//!
//! * [`angle`] — the angle convention of Figure 5: degrees measured from
//!   the vertical (+y) axis, rotating toward the facing/jump direction.
//! * [`model`] — the eight sticks S0–S7, anthropometric lengths and
//!   thicknesses, and the paper's crossover gene groups.
//! * [`pose`] — a pose `(x0, y0, ρ0..ρ7)` (the GA chromosome), forward
//!   kinematics to stick segments, and pose-error metrics.
//! * [`seq`] — pose sequences and the paper's two scoring windows
//!   (initiation = frames 1–10, air/landing = frames 11–20).
//! * [`phases`] — rule-based jump-phase classification (standing,
//!   crouch, takeoff, flight, landing, recovery) from poses.
//! * [`synth`] — a keyframed synthesiser that produces biomechanically
//!   plausible standing-long-jump pose sequences, including deliberately
//!   flawed variants matching the paper's standards E1–E7. This is the
//!   ground-truth motor that replaces the paper's filmed jumper.
//!
//! # Coordinate and angle conventions
//!
//! World space is metres with **y up** and the jump travelling toward
//! **+x**. A stick's angle ρ is measured **from the +y axis toward +x**
//! (clockwise when x points right and y up), so a stick at ρ = 0° points
//! straight up, ρ = 90° points forward, ρ = 180° straight down and
//! ρ = 270° backward. The direction vector of a stick is
//! `(sin ρ, cos ρ)`. Image space (y down) is handled exclusively by
//! `slj-video`'s camera.
//!
//! # Example
//!
//! ```
//! use slj_motion::synth::{JumpConfig, synthesize_jump};
//!
//! let seq = synthesize_jump(&JumpConfig::default());
//! assert_eq!(seq.len(), 20);
//! // The jumper moves forward.
//! let dx = seq.poses().last().unwrap().center.x - seq.poses()[0].center.x;
//! assert!(dx > 0.5);
//! ```

#![forbid(unsafe_code)]

pub mod angle;
pub mod error;
pub mod model;
pub mod phases;
pub mod pose;
pub mod seq;
pub mod synth;

pub use angle::Angle;
pub use error::MotionError;
pub use model::{BodyDims, StickKind, GENE_GROUPS, STICK_COUNT};
pub use phases::{classify_phases, JumpPhase};
pub use pose::{Pose, PoseError, SegmentIter, StickSegments};
pub use seq::PoseSeq;
pub use synth::{synthesize_jump, JumpConfig, JumpFlaw};
