//! Assembles the pipeline's observability spans ([`slj_obs::ClipObs`])
//! from finished analysis state.
//!
//! Everything here is a pure function of analysis *results* — stage
//! masks, GA accounting, rule verdicts — so the batch and streaming
//! paths produce bit-identical span data for the same clip and
//! configuration. Both build one
//! [`FrameObs`] per frame with `frame_obs` (batch over the retained
//! stage masks, streaming on each
//! [`push_frame`](crate::StreamingAnalyzer::push_frame)), and the
//! shared analysis tail attaches the rule spans.

use crate::analyzer::FrameHealth;
use slj_ga::tracker::{RecoveryAction, TrackResult};
use slj_motion::{seq::Stage, PoseSeq};
use slj_obs::{FrameObs, RuleObs, TrackObs};
use slj_score::{ScoreCard, Verdict};
use slj_segment::pipeline::FrameStages;

/// The stable trace token for a recovery rung (schema `slj-trace/1`).
pub(crate) fn recovery_token(recovery: RecoveryAction) -> &'static str {
    match recovery {
        RecoveryAction::None => "none",
        RecoveryAction::WidenedSearch => "widened",
        RecoveryAction::ColdRestart => "cold_restart",
        RecoveryAction::Interpolated => "interpolated",
        RecoveryAction::CarriedOver => "carried",
    }
}

/// The stable trace token for a stage window.
fn stage_token(stage: Stage) -> &'static str {
    match stage {
        Stage::Initiation => "initiation",
        Stage::AirLanding => "air_landing",
    }
}

/// The stable trace token for a rule verdict.
fn verdict_token(verdict: Verdict) -> &'static str {
    match verdict {
        Verdict::Satisfied => "satisfied",
        Verdict::Violated => "violated",
        Verdict::Masked => "masked",
    }
}

/// One frame's span record: its segmentation stage populations and
/// its GA tracking accounting.
pub(crate) fn frame_obs(frame: usize, stages: &FrameStages, track: &TrackResult) -> FrameObs {
    FrameObs {
        frame: frame as u64,
        segment: stages.observe(),
        track: track_obs(track),
    }
}

/// One frame's GA tracking span, derived from the tracker's
/// accounting.
fn track_obs(t: &TrackResult) -> TrackObs {
    let evaluations = t.evaluations as u64;
    let unique_genomes = t.unique_genomes as u64;
    TrackObs {
        generations: t.generations_run as u64,
        evaluations,
        unique_genomes,
        // A set-size delta: only meaningful while the memo is enabled
        // (unique_genomes > 0); without the memo every request is an
        // evaluation and nothing is saved.
        memo_saved: if unique_genomes == 0 {
            0
        } else {
            evaluations.saturating_sub(unique_genomes)
        },
        bb_candidates: t.bb_candidates,
        bb_pruned: t.bb_pruned,
        rungs_attempted: t.rungs_attempted as u64,
        recovery: recovery_token(t.recovery).to_owned(),
    }
}

/// The per-rule scoring spans: each rule's stage window, how much of it
/// the confidence mask removed, and the verdict.
pub(crate) fn rule_obs(poses: &PoseSeq, excluded: &[bool], score: &ScoreCard) -> Vec<RuleObs> {
    score
        .results()
        .iter()
        .map(|r| {
            let window = poses.stage_range(r.stage);
            let masked = window
                .clone()
                .filter(|&i| excluded.get(i).copied().unwrap_or(false))
                .count() as u64;
            RuleObs {
                rule: r.rule.to_string(),
                stage: stage_token(r.stage).to_owned(),
                window_start: window.start as u64,
                window_end: window.end as u64,
                considered: window.len() as u64 - masked,
                masked,
                verdict: verdict_token(r.verdict).to_owned(),
                observed: r.observed,
            }
        })
        .collect()
}

/// Frames the robustness policy excluded from scoring (all-false under
/// `Strict`, the degraded frames under `BestEffort`).
pub(crate) fn excluded_frames(
    health: &[FrameHealth],
    robustness: crate::RobustnessPolicy,
) -> Vec<bool> {
    match robustness {
        crate::RobustnessPolicy::Strict => vec![false; health.len()],
        crate::RobustnessPolicy::BestEffort { .. } => {
            health.iter().map(FrameHealth::is_degraded).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slj_motion::{synthesize_jump, JumpConfig};
    use slj_score::score_jump_masked;

    #[test]
    fn recovery_tokens_are_stable() {
        assert_eq!(recovery_token(RecoveryAction::None), "none");
        assert_eq!(recovery_token(RecoveryAction::WidenedSearch), "widened");
        assert_eq!(recovery_token(RecoveryAction::ColdRestart), "cold_restart");
        assert_eq!(recovery_token(RecoveryAction::Interpolated), "interpolated");
        assert_eq!(recovery_token(RecoveryAction::CarriedOver), "carried");
    }

    #[test]
    fn rule_obs_counts_masked_window_frames() {
        let seq = synthesize_jump(&JumpConfig::default());
        let mut excluded = vec![false; seq.len()];
        excluded[0] = true;
        excluded[1] = true;
        let last = seq.len() - 1;
        excluded[last] = true;
        let card = score_jump_masked(&seq, &excluded).unwrap();
        let rules = rule_obs(&seq, &excluded, &card);
        assert_eq!(rules.len(), 7);
        let init = seq.stage_range(Stage::Initiation);
        let air = seq.stage_range(Stage::AirLanding);
        for r in &rules {
            match r.stage.as_str() {
                "initiation" => {
                    assert_eq!(r.window_start as usize, init.start);
                    assert_eq!(r.window_end as usize, init.end);
                    assert_eq!(r.masked, 2);
                    assert_eq!(r.considered as usize, init.len() - 2);
                }
                "air_landing" => {
                    assert_eq!(r.window_start as usize, air.start);
                    assert_eq!(r.window_end as usize, air.end);
                    assert_eq!(r.masked, 1);
                    assert_eq!(r.considered as usize, air.len() - 1);
                }
                other => panic!("unexpected stage token {other}"),
            }
            assert!(matches!(
                r.verdict.as_str(),
                "satisfied" | "violated" | "masked"
            ));
        }
    }

    #[test]
    fn fully_masked_window_surfaces_null_observation() {
        let seq = synthesize_jump(&JumpConfig::default());
        let split = seq.stage_range(Stage::Initiation).end;
        let mut excluded = vec![false; seq.len()];
        for e in excluded.iter_mut().take(split) {
            *e = true;
        }
        let card = score_jump_masked(&seq, &excluded).unwrap();
        let rules = rule_obs(&seq, &excluded, &card);
        let masked: Vec<&RuleObs> = rules.iter().filter(|r| r.verdict == "masked").collect();
        assert_eq!(masked.len(), 4);
        for r in masked {
            assert_eq!(r.considered, 0);
            assert_eq!(r.masked as usize, split);
            assert_eq!(r.observed, None);
        }
    }

    #[test]
    fn memo_saved_is_zero_without_memo() {
        let t = TrackResult {
            evaluations: 40,
            unique_genomes: 0,
            ..trivial_result()
        };
        assert_eq!(track_obs(&t).memo_saved, 0);
        let t = TrackResult {
            evaluations: 40,
            unique_genomes: 25,
            ..trivial_result()
        };
        assert_eq!(track_obs(&t).memo_saved, 15);
    }

    fn trivial_result() -> TrackResult {
        TrackResult {
            pose: slj_motion::Pose::standing(&slj_motion::BodyDims::default()),
            fitness: 0.0,
            generation_of_best: 0,
            generations_run: 0,
            generations_to_near_best: 0,
            evaluations: 0,
            carried_over: false,
            recovery: RecoveryAction::None,
            history: Vec::new(),
            rungs_attempted: 0,
            unique_genomes: 0,
            bb_candidates: 0,
            bb_pruned: 0,
        }
    }
}
