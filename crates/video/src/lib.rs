//! Synthetic side-view jump video with ground truth.
//!
//! The paper's input is a short clip of a child's standing long jump shot
//! from the side with a fixed camera. No such footage ships with this
//! reproduction, so this crate *is* the camera: it renders an articulated
//! jumper (one filled capsule per stick of the `slj-motion` model) over a
//! procedurally textured static background, casts a photometrically
//! consistent shadow on the ground, and injects the three artefacts the
//! paper's pipeline is built to repair — per-pixel lighting noise,
//! drifting small clutter spots, and low-contrast "camouflage" patches
//! that punch holes into the extracted foreground.
//!
//! Because the scene is synthetic, every quantity the paper can only
//! show qualitatively comes with ground truth: the clean background
//! (Fig. 1), the exact silhouette per frame (Figs. 2–3, 6) and the exact
//! pose per frame (Fig. 7).
//!
//! * [`camera`] — the world (metres, y-up) ↔ image (pixels, y-down)
//!   transform.
//! * [`background`] — deterministic background texture generator.
//! * [`scene`] — scene configuration: geometry, colours, shadow, noise.
//! * [`render`] — silhouette, shadow and frame rendering.
//! * [`synthjump`] — the one-call generator bundling video + ground
//!   truth.
//! * [`io`] — clip persistence (PPM frame directories) for feeding the
//!   analyzer real footage.
//! * [`faults`] — seeded acquisition-fault injection (dropped frames,
//!   flicker, noise bursts, camera jitter, motion blur, occlusion bars)
//!   for robustness testing.
//! * [`truth`] — the `truth.json` ground-truth sidecar a clip directory
//!   carries alongside its frames.
//!
//! # Example
//!
//! ```
//! use slj_video::scene::SceneConfig;
//! use slj_video::synthjump::SyntheticJump;
//! use slj_motion::JumpConfig;
//!
//! let jump = SyntheticJump::generate(&SceneConfig::default(), &JumpConfig::default(), 7);
//! assert_eq!(jump.video.len(), 20);
//! assert_eq!(jump.silhouettes.len(), 20);
//! // Every frame has a non-trivial true silhouette.
//! assert!(jump.silhouettes.iter().all(|s| s.count() > 200));
//! ```

#![forbid(unsafe_code)]

pub mod background;
pub mod camera;
pub mod faults;
pub mod io;
pub mod render;
pub mod scene;
pub mod synthjump;
pub mod truth;
pub mod video;

pub use camera::Camera;
pub use faults::{FaultConfig, FaultInjector, FrameFault, InjectionReport, NoiseBurst};
pub use scene::SceneConfig;
pub use synthjump::SyntheticJump;
pub use truth::{ClipTruth, TruthError, TRUTH_FILE};
pub use video::{Frame, Video};
