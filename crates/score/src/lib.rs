//! Scoring rules for the standing long jump (paper, Section 4).
//!
//! Physical-education experts' standards (Table 1, E1–E7) are encoded as
//! [`standards::Standard`]; their angle translations (Table 2, R1–R7) as
//! [`rules::Rule`]. Each rule aggregates a stick-model quantity over one
//! of the two stages — the paper: *"to check R1, the angle difference
//! between ρ6 and ρ3 should be examined from the first frame to the 10th
//! frame and the maximum of all the angle differences is then used"* —
//! and compares it against a threshold. [`card::ScoreCard`] bundles the
//! seven verdicts with per-violation coaching advice, completing the
//! scoring component the paper leaves as future work.
//!
//! # Example
//!
//! ```
//! use slj_motion::{synthesize_jump, JumpConfig, JumpFlaw};
//! use slj_score::score_jump;
//!
//! let good = synthesize_jump(&JumpConfig::default());
//! let card = score_jump(&good).unwrap();
//! assert_eq!(card.score(), 7);
//!
//! let flawed = synthesize_jump(&JumpConfig::with_flaw(JumpFlaw::ShallowCrouch));
//! let card = score_jump(&flawed).unwrap();
//! assert!(!card.result(slj_score::rules::RuleId::R1).satisfied());
//! ```

#![forbid(unsafe_code)]

pub mod card;
pub mod rules;
pub mod standards;
pub mod trace;

pub use card::{score_jump, score_jump_masked, ScoreCard};
pub use rules::{Direction, Rule, RuleId, RuleResult, Verdict};
pub use standards::Standard;
pub use trace::RuleTrace;
