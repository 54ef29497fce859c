//! Markdown coaching-report generation.
//!
//! The paper's goal is a system that "responds with advices to the
//! user"; this module renders everything an analysis produced — score
//! card, per-rule traces, phase timeline, jump measurement, tracking
//! diagnostics — as one self-contained markdown document a teacher (or
//! a web front end) can hand to the student.

use crate::analyzer::{AnalysisReport, FrameHealth};
use crate::measure::measure_jump;
use slj_ga::tracker::RecoveryAction;
use slj_motion::{classify_phases, BodyDims, JumpPhase};
use slj_score::RuleTrace;
use std::fmt::Write as _;

/// Writes one line into the report buffer. `fmt::Write` for `String`
/// cannot fail — appending to a `String` aborts on allocation failure
/// rather than returning an error — so the `fmt::Result` here is
/// provably `Ok`. This macro documents that invariant in one place
/// instead of scattering panicking `unwrap()`s through the library
/// path.
macro_rules! mdln {
    ($md:expr) => {
        let _ = writeln!($md);
    };
    ($md:expr, $($arg:tt)*) => {
        let _ = writeln!($md, $($arg)*);
    };
}

/// Renders a full markdown coaching report.
///
/// The report degrades gracefully: sections whose inputs are
/// unavailable (e.g. no flight detected) explain themselves instead of
/// failing.
pub fn markdown_report(report: &AnalysisReport, dims: &BodyDims) -> String {
    let mut md = String::new();
    let score = &report.score;

    mdln!(md, "# Standing long jump — analysis report\n");
    mdln!(
        md,
        "**Score: {}/{}**{}\n",
        score.score(),
        score.results().len(),
        if score.is_perfect() {
            " — textbook jump!"
        } else {
            ""
        }
    );

    // Rule table.
    mdln!(md, "## Technique rules (Table 2 of Hsu et al.)\n");
    mdln!(md, "| rule | stage | observed | threshold | verdict |");
    mdln!(md, "|---|---|---|---|---|");
    for r in score.results() {
        let observed = match r.observed {
            Some(v) => format!("{v:.1}°"),
            None => "—".to_owned(),
        };
        let verdict = match r.verdict {
            slj_score::Verdict::Satisfied => "ok",
            slj_score::Verdict::Violated => "**violated**",
            slj_score::Verdict::Masked => "_masked_",
        };
        mdln!(
            md,
            "| {} | {} | {} | {:.0}° | {} |",
            r.rule,
            r.stage,
            observed,
            r.threshold,
            verdict
        );
    }
    mdln!(md);

    // Advice.
    let advice = score.advice();
    if !advice.is_empty() {
        mdln!(md, "## Coaching advice\n");
        for (standard, text) in advice {
            mdln!(md, "* **{standard}** — {text}");
        }
        mdln!(md);
    }

    // Traces.
    if let Ok(traces) = RuleTrace::all(&report.poses) {
        mdln!(md, "## Per-frame traces\n");
        mdln!(md, "```text");
        for t in traces {
            mdln!(md, "{t}");
        }
        mdln!(md, "```\n");
    }

    // Phases.
    let phases = classify_phases(&report.poses, dims);
    if !phases.is_empty() {
        let timeline: String = phases
            .iter()
            .map(|p| match p {
                JumpPhase::Standing => 'S',
                JumpPhase::Crouch => 'C',
                JumpPhase::Takeoff => 'T',
                JumpPhase::Flight => 'F',
                JumpPhase::Landing => 'L',
                JumpPhase::Recovery => 'R',
            })
            .collect();
        mdln!(md, "## Phases\n");
        mdln!(
            md,
            "`{timeline}` (S standing, C crouch, T takeoff, F flight, L landing, R recovery)\n"
        );
    }

    // Measurement. Prefer the one the analysis itself carries (computed
    // with the analyzer's calibrated dims); fall back to measuring here
    // only to surface the typed error message.
    mdln!(md, "## Measurement\n");
    match report.measurement {
        Some(m) => {
            let dir = match m.direction {
                crate::JumpDirection::LeftToRight => "left-to-right",
                crate::JumpDirection::RightToLeft => "right-to-left",
            };
            mdln!(
                md,
                "* distance: **{:.2} m** {dir} (takeoff toe → landing heel)",
                m.distance_m
            );
            mdln!(
                md,
                "* flight: {} frames (takeoff frame {}, landing frame {})",
                m.flight_frames,
                m.takeoff_frame,
                m.landing_frame
            );
            if !m.is_complete() {
                mdln!(
                    md,
                    "* **partial**: the clip {} airborne, so the distance is a lower bound",
                    if m.takeoff_observed { "ends" } else { "starts" }
                );
            }
            mdln!(md, "* peak clearance: {:.2} m\n", m.peak_clearance_m);
        }
        None => {
            let why = match measure_jump(&report.poses, dims) {
                Err(e) => e.to_string(),
                Ok(_) => "not measured".to_owned(),
            };
            mdln!(md, "_not available: {why}_\n");
        }
    }

    // Frame health.
    if !report.health.is_empty() {
        let mean_conf =
            report.health.iter().map(|h| h.confidence).sum::<f64>() / report.health.len() as f64;
        mdln!(md, "## Frame health\n");
        mdln!(
            md,
            "`{}` (# clean, + minor, ~ shaky, ! degraded) — mean confidence {:.2}\n",
            health_timeline(&report.health),
            mean_conf
        );
        for h in report.health.iter().filter(|h| h.is_degraded()) {
            let issues: Vec<String> = h.quality.issues.iter().map(|i| i.to_string()).collect();
            mdln!(
                md,
                "* frame {}: confidence {:.2} — {}{}{}",
                h.frame,
                h.confidence,
                if issues.is_empty() {
                    String::new()
                } else {
                    format!("silhouette {}", issues.join(", "))
                },
                if issues.is_empty() { "" } else { "; " },
                format_args!("tracking {}", h.recovery),
            );
        }
        if report.health.iter().any(|h| h.is_degraded()) {
            mdln!(md);
        }
    }

    // Tracking diagnostics.
    mdln!(md, "## Tracking diagnostics\n");
    let suspects = suspect_frames(report);
    mdln!(
        md,
        "* frames analysed: {} ({} carried over)",
        report.tracking.len(),
        report
            .tracking
            .iter()
            .filter(|t| t.recovery == RecoveryAction::CarriedOver)
            .count()
    );
    if suspects.is_empty() {
        mdln!(md, "* no suspect frames (fitness uniform across the clip)");
    } else {
        mdln!(
            md,
            "* suspect frames (fitness ≥ 1.5× clip median — treat the pose there with care): {suspects:?}"
        );
    }
    md
}

/// One character per frame, by confidence: `#` ≥ 0.95 (clean), `+` ≥
/// 0.7 (minor degradation), `~` ≥ 0.5 (shaky but scored), `!` below the
/// degraded floor (excluded under best-effort).
pub fn health_timeline(health: &[FrameHealth]) -> String {
    health
        .iter()
        .map(|h| match h.confidence {
            c if c >= 0.95 => '#',
            c if c >= 0.7 => '+',
            c if c >= 0.5 => '~',
            _ => '!',
        })
        .collect()
}

/// Frames whose Eq. 3 fitness is at least 1.5× the clip median —
/// the analyzer's own "don't fully trust me here" flags.
pub fn suspect_frames(report: &AnalysisReport) -> Vec<usize> {
    let mut finite: Vec<f64> = report
        .tracking
        .iter()
        .map(|t| t.fitness)
        .filter(|f| f.is_finite())
        .collect();
    if finite.is_empty() {
        return Vec::new();
    }
    finite.sort_by(f64::total_cmp);
    let median = finite[finite.len() / 2];
    report
        .tracking
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            t.recovery == RecoveryAction::CarriedOver
                || !t.fitness.is_finite()
                || t.fitness >= 1.5 * median
        })
        .map(|(k, _)| k)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{AnalyzerConfig, JumpAnalyzer};
    use slj_motion::JumpConfig;
    use slj_video::{Camera, SceneConfig, SyntheticJump};

    fn analysed() -> (AnalysisReport, BodyDims) {
        let scene = SceneConfig {
            camera: Camera::compact(),
            ..SceneConfig::clean()
        };
        let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 5);
        let report = JumpAnalyzer::new(AnalyzerConfig::fast())
            .analyze(&jump.video, &scene.camera, jump.poses.poses()[0])
            .unwrap();
        (report, BodyDims::default())
    }

    #[test]
    fn report_contains_every_section() {
        let (report, dims) = analysed();
        let md = markdown_report(&report, &dims);
        for heading in [
            "# Standing long jump",
            "## Technique rules",
            "## Per-frame traces",
            "## Phases",
            "## Measurement",
            "## Frame health",
            "## Tracking diagnostics",
        ] {
            assert!(md.contains(heading), "missing {heading}:\n{md}");
        }
        // All seven rules appear.
        for n in 1..=7 {
            assert!(md.contains(&format!("R{n}")), "missing R{n}");
        }
        // The phase timeline exists and has flight frames.
        assert!(md.contains('F'));
    }

    #[test]
    fn suspect_frames_flags_outliers() {
        let (mut report, _) = analysed();
        // Manufacture an outlier.
        let median_ish = report.tracking[5].fitness;
        report.tracking[7].fitness = median_ish * 10.0;
        let suspects = suspect_frames(&report);
        assert!(suspects.contains(&7), "{suspects:?}");
    }

    #[test]
    fn suspect_frames_empty_for_uniform_fitness() {
        let (mut report, _) = analysed();
        for t in report.tracking.iter_mut() {
            t.fitness = 0.5;
            t.recovery = RecoveryAction::None;
        }
        assert!(suspect_frames(&report).is_empty());
    }
}
