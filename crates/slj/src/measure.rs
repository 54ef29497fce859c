//! Jump measurement from tracked poses.
//!
//! The paper scores *technique*; the test itself is scored by *distance*
//! (takeoff line to the nearest landing contact). With calibrated
//! tracked poses both are available from the same data, so this module
//! completes the measurement side: flight-phase detection, official
//! jump distance (takeoff toe → landing heel), and flight apex height.

use serde::{Deserialize, Serialize};
use slj_motion::{BodyDims, PoseSeq, StickKind};

/// Which way the jumper travelled, detected from the centre-of-mass
/// displacement between takeoff and landing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JumpDirection {
    /// Travel toward +x (the synthesizer's canonical orientation).
    LeftToRight,
    /// Travel toward −x (e.g. a mirrored or reversed camera).
    RightToLeft,
}

impl JumpDirection {
    /// The sign that maps a +x-convention displacement onto the travel
    /// axis: `+1.0` for left-to-right, `−1.0` for right-to-left.
    pub fn sign(self) -> f64 {
        match self {
            JumpDirection::LeftToRight => 1.0,
            JumpDirection::RightToLeft => -1.0,
        }
    }
}

/// What was measured from one jump.
///
/// Sign convention: `distance_m` is measured *along the direction of
/// travel* and is therefore positive for a valid forward jump whichever
/// way the jumper faces; the raw x-axis displacement is
/// `distance_m * direction.sign()`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JumpMeasurement {
    /// Last frame with ground contact before flight. When
    /// `takeoff_observed` is false the clip starts airborne and this is
    /// clamped to the first frame instead of a true contact.
    pub takeoff_frame: usize,
    /// First frame with ground contact after flight. When
    /// `landing_observed` is false the clip ends airborne and this is
    /// clamped to the last frame instead of a true contact.
    pub landing_frame: usize,
    /// Official distance: from the toe at takeoff to the heel (ankle)
    /// at landing, metres, along the direction of travel (positive for
    /// a normal jump in either screen direction). A lower bound when
    /// either contact was not observed.
    pub distance_m: f64,
    /// Detected direction of travel.
    pub direction: JumpDirection,
    /// Number of airborne frames.
    pub flight_frames: usize,
    /// Maximum clearance of the lowest body point during flight,
    /// metres.
    pub peak_clearance_m: f64,
    /// True when a real pre-flight contact frame exists in the clip;
    /// false when the recording starts with the jumper already airborne
    /// (partial measurement).
    pub takeoff_observed: bool,
    /// True when a real post-flight contact frame exists in the clip;
    /// false when the recording ends mid-flight (partial measurement).
    pub landing_observed: bool,
}

impl JumpMeasurement {
    /// True when both contact frames were actually observed in the
    /// clip; false marks a typed partial measurement whose
    /// `distance_m` is only a lower bound.
    pub fn is_complete(&self) -> bool {
        self.takeoff_observed && self.landing_observed
    }
}

/// Why a measurement could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MeasureError {
    /// The sequence is empty or has a single frame.
    TooShort,
    /// No airborne phase was found (the jumper never left the ground).
    NoFlightPhase,
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::TooShort => write!(f, "sequence too short to measure"),
            MeasureError::NoFlightPhase => write!(f, "no airborne phase found"),
        }
    }
}

impl std::error::Error for MeasureError {}

/// Ground clearance of a pose: the lowest joint's height above `y = 0`.
fn clearance(pose: &slj_motion::Pose, dims: &BodyDims) -> f64 {
    pose.segments(dims).lowest_y()
}

/// Measures a jump from a (calibrated) pose sequence.
///
/// Candidate airborne phases are runs of frames whose ground clearance
/// exceeds an adaptive threshold — the clip's minimum clearance plus a
/// quarter of its clearance range (floored at twice the foot
/// thickness). The adaptive baseline makes the detector robust to
/// tracked poses whose feet hover a few centimetres off the ground from
/// estimation noise. Among candidate runs the flight is the one with
/// the greatest clearance integrated above the threshold, not the
/// longest: flawed jumps can produce a shallow pre-takeoff bounce of
/// the same frame count as the true flight, and integrating height
/// keeps the detector on the real jump. Takeoff and landing frames
/// bracket the chosen run.
///
/// # Errors
///
/// * [`MeasureError::TooShort`] for sequences with fewer than 3 frames.
/// * [`MeasureError::NoFlightPhase`] when the jumper never clears the
///   ground (e.g. a walking clip).
pub fn measure_jump(seq: &PoseSeq, dims: &BodyDims) -> Result<JumpMeasurement, MeasureError> {
    if seq.len() < 3 {
        return Err(MeasureError::TooShort);
    }
    let clearances: Vec<f64> = seq.poses().iter().map(|p| clearance(p, dims)).collect();
    let min_c = clearances.iter().copied().fold(f64::INFINITY, f64::min);
    let max_c = clearances.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max_c - min_c;
    if span < 2.0 * dims.thickness(StickKind::Foot) {
        // The body never rose meaningfully: no jump.
        return Err(MeasureError::NoFlightPhase);
    }
    let threshold = min_c + (0.25 * span).max(2.0 * dims.thickness(StickKind::Foot));
    let airborne: Vec<bool> = clearances.iter().map(|&c| c > threshold).collect();

    // The airborne run with the most clearance integrated above the
    // threshold. A length test is fooled by shallow pre-takeoff
    // bounces of the same duration as the flight; height is not.
    let lift = |s: usize, e: usize| -> f64 { clearances[s..e].iter().map(|c| c - threshold).sum() };
    let mut best: Option<(usize, usize)> = None; // [start, end)
    let mut run_start = None;
    for (k, &a) in airborne.iter().enumerate() {
        match (a, run_start) {
            (true, None) => run_start = Some(k),
            (false, Some(s)) => {
                if best.is_none_or(|(bs, be)| lift(s, k) > lift(bs, be)) {
                    best = Some((s, k));
                }
                run_start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = run_start {
        let k = airborne.len();
        if best.is_none_or(|(bs, be)| lift(s, k) > lift(bs, be)) {
            best = Some((s, k));
        }
    }
    let (flight_start, flight_end) = best.ok_or(MeasureError::NoFlightPhase)?;

    // Hysteresis: the high threshold found the flight; the contact
    // frames are where clearance returns to near its baseline. Walk
    // outward from the flight to the nearest low-clearance frames. When
    // no such frame exists on a side the clip starts (or ends) airborne:
    // falling back *into* the flight would measure a mid-air pose as a
    // contact, so instead clamp to the clip edge and mark that side as
    // unobserved — a typed partial measurement.
    let low = min_c + 2.0 * dims.thickness(StickKind::Foot);
    let (takeoff_frame, takeoff_observed) =
        match (0..flight_start).rev().find(|&k| clearances[k] <= low) {
            Some(k) => (k, true),
            None => (0, false),
        };
    let (landing_frame, landing_observed) =
        match (flight_end..seq.len()).find(|&k| clearances[k] <= low) {
            Some(k) => (k, true),
            None => (seq.len() - 1, false),
        };

    // Official measurement: toe position at takeoff, heel (ankle) at
    // landing — the rearmost contact decides. The raw heel−toe gap is a
    // +x-convention displacement; normalising by the detected travel
    // direction keeps the reported distance positive for a valid jump
    // whichever way the jumper crosses the frame.
    let takeoff_pose = &seq.poses()[takeoff_frame];
    let landing_pose = &seq.poses()[landing_frame];
    let travel = landing_pose.center.x - takeoff_pose.center.x;
    let direction = if travel < 0.0 {
        JumpDirection::RightToLeft
    } else {
        JumpDirection::LeftToRight
    };
    let toe = takeoff_pose.segments(dims).segment(StickKind::Foot).b.x;
    let heel = landing_pose.segments(dims).segment(StickKind::Foot).a.x;
    let distance_m = (heel - toe) * direction.sign();

    let peak_clearance_m = clearances[flight_start..flight_end]
        .iter()
        .copied()
        .fold(0.0, f64::max);

    Ok(JumpMeasurement {
        takeoff_frame,
        landing_frame,
        distance_m,
        direction,
        flight_frames: flight_end - flight_start,
        peak_clearance_m,
        takeoff_observed,
        landing_observed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slj_motion::{synthesize_jump, JumpConfig, Pose};

    #[test]
    fn measures_the_default_jump() {
        let cfg = JumpConfig::default();
        let seq = synthesize_jump(&cfg);
        let m = measure_jump(&seq, &cfg.dims).unwrap();
        // Takeoff happens around mid-clip (the stage boundary), landing
        // near the end.
        assert!(
            (6..=11).contains(&m.takeoff_frame),
            "takeoff at {}",
            m.takeoff_frame
        );
        assert!(m.landing_frame > m.takeoff_frame + 2);
        assert!(m.flight_frames >= 3, "{} airborne frames", m.flight_frames);
        // Toe-to-heel distance is shorter than the centre's travel but
        // clearly a jump.
        assert!(
            (0.3..=1.4).contains(&m.distance_m),
            "distance {}",
            m.distance_m
        );
        assert!(m.peak_clearance_m > 0.05, "peak {}", m.peak_clearance_m);
        assert_eq!(m.direction, JumpDirection::LeftToRight);
        assert!(m.is_complete());
    }

    /// Mirrors a pose about the vertical axis: `x → −x` and every limb
    /// angle `ρ → 360 − ρ` (the paper's ρ is measured from vertical, so
    /// reflection negates it).
    fn mirror(seq: &PoseSeq) -> PoseSeq {
        let poses = seq
            .poses()
            .iter()
            .map(|p| {
                let mut angles = p.angles;
                for a in &mut angles {
                    *a = slj_motion::Angle::from_degrees(360.0 - a.degrees());
                }
                Pose::new(slj_imgproc::Point2::new(-p.center.x, p.center.y), angles)
            })
            .collect();
        PoseSeq::new(poses, seq.fps())
    }

    #[test]
    fn mirrored_clip_measures_the_same_positive_distance() {
        // Regression: `distance_m = heel − toe` assumed +x travel, so a
        // right-to-left jump measured negative. The distance must be
        // reported along the direction of travel.
        let cfg = JumpConfig::default();
        let seq = synthesize_jump(&cfg);
        let m = measure_jump(&seq, &cfg.dims).unwrap();
        let mm = measure_jump(&mirror(&seq), &cfg.dims).unwrap();
        assert_eq!(mm.direction, JumpDirection::RightToLeft);
        assert!(mm.distance_m > 0.0, "mirrored distance {}", mm.distance_m);
        assert!(
            (mm.distance_m - m.distance_m).abs() < 1e-9,
            "mirror changed the measurement: {} vs {}",
            mm.distance_m,
            m.distance_m
        );
        assert_eq!(mm.takeoff_frame, m.takeoff_frame);
        assert_eq!(mm.landing_frame, m.landing_frame);
        assert_eq!(mm.flight_frames, m.flight_frames);
    }

    /// The frame with the greatest ground clearance (the flight apex).
    fn apex_frame(seq: &PoseSeq, dims: &BodyDims) -> usize {
        (0..seq.len())
            .max_by(|&a, &b| {
                clearance(&seq.poses()[a], dims).total_cmp(&clearance(&seq.poses()[b], dims))
            })
            .unwrap()
    }

    #[test]
    fn clip_starting_airborne_is_a_typed_partial_measurement() {
        // Regression: with no pre-flight contact the hysteresis walk
        // fell back to frame 0 *inside* the flight and presented it as
        // a takeoff. Starting the clip at the flight apex must instead
        // clamp to the edge and mark the takeoff unobserved.
        let cfg = JumpConfig::default();
        let seq = synthesize_jump(&cfg);
        let apex = apex_frame(&seq, &cfg.dims);
        let cut = PoseSeq::new(seq.poses()[apex..].to_vec(), seq.fps());
        let m = measure_jump(&cut, &cfg.dims).unwrap();
        assert!(!m.takeoff_observed, "takeoff cannot be observed: {m:?}");
        assert_eq!(m.takeoff_frame, 0);
        assert!(m.landing_observed, "landing is in the clip: {m:?}");
        assert!(!m.is_complete());
        assert!(m.distance_m > 0.0, "partial distance {}", m.distance_m);
    }

    #[test]
    fn clip_ending_airborne_is_a_typed_partial_measurement() {
        // The symmetric edge: the recording stops mid-flight, so the
        // landing contact never appears. The old walk picked the last
        // frame and presented a mid-air pose as the landing.
        let cfg = JumpConfig::default();
        let seq = synthesize_jump(&cfg);
        let apex = apex_frame(&seq, &cfg.dims);
        let cut = PoseSeq::new(seq.poses()[..=apex].to_vec(), seq.fps());
        let m = measure_jump(&cut, &cfg.dims).unwrap();
        assert!(m.takeoff_observed, "takeoff is in the clip: {m:?}");
        assert!(!m.landing_observed, "landing cannot be observed: {m:?}");
        assert_eq!(m.landing_frame, cut.len() - 1);
        assert!(!m.is_complete());
    }

    #[test]
    fn longer_configured_jump_measures_longer() {
        let short = JumpConfig {
            jump_distance: 0.8,
            ..JumpConfig::default()
        };
        let long = JumpConfig {
            jump_distance: 1.4,
            ..JumpConfig::default()
        };
        let ms = measure_jump(&synthesize_jump(&short), &short.dims).unwrap();
        let ml = measure_jump(&synthesize_jump(&long), &long.dims).unwrap();
        assert!(
            ml.distance_m > ms.distance_m + 0.3,
            "long {} vs short {}",
            ml.distance_m,
            ms.distance_m
        );
    }

    #[test]
    fn shallow_prejump_bounce_does_not_win_flight_detection() {
        // Regression: this flawed short clip produces a 2-frame bounce
        // before takeoff with the same frame count as the 2-frame true
        // flight. Length-based run selection measured the bounce and
        // reported a negative jump distance; height-integrated selection
        // must find the real flight.
        use slj_motion::JumpFlaw;
        let cfg = JumpConfig {
            frames: 10,
            jump_distance: 1.26,
            dims: BodyDims::for_height(1.19),
            flaws: vec![
                JumpFlaw::NoNeckBend,
                JumpFlaw::StraightArms,
                JumpFlaw::StiffLanding,
                JumpFlaw::UprightTrunk,
                JumpFlaw::ArmsStayBack,
            ],
            ..JumpConfig::default()
        };
        let seq = synthesize_jump(&cfg);
        let m = measure_jump(&seq, &cfg.dims).unwrap();
        assert!(m.distance_m > 0.0, "measured {} m", m.distance_m);
        assert!(m.takeoff_frame >= 4, "takeoff at {}", m.takeoff_frame);
    }

    #[test]
    fn standing_still_has_no_flight() {
        let dims = BodyDims::default();
        let seq = PoseSeq::new(vec![Pose::standing(&dims); 10], 10.0);
        assert_eq!(measure_jump(&seq, &dims), Err(MeasureError::NoFlightPhase));
    }

    #[test]
    fn too_short_rejected() {
        let dims = BodyDims::default();
        let seq = PoseSeq::new(vec![Pose::standing(&dims); 2], 10.0);
        assert_eq!(measure_jump(&seq, &dims), Err(MeasureError::TooShort));
    }

    #[test]
    fn errors_display() {
        assert!(!MeasureError::TooShort.to_string().is_empty());
        assert!(!MeasureError::NoFlightPhase.to_string().is_empty());
    }
}
