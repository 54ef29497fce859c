//! Property tests for the `OpenRequest` JSON, the payload of `OPEN`,
//! `OPEN_CLIP` and `POST /v1/jobs`.
//!
//! Each case starts from a valid compact-camera request and replaces
//! one numeric field with NaN, ±`1e999` (written raw, so it parses as
//! infinity), 0, −0, a negative, a subnormal, `1e300`, `f64::MAX` or an
//! in-range value. The request must then do one of three things:
//!
//! - fail to parse;
//! - be refused by [`OpenRequest::validate`] with an
//!   `InvalidOpenRequest` naming that field (or, for a camera field,
//!   the first-pose centre the changed camera no longer frames);
//! - once accepted, analyse a short compact clip through
//!   [`StreamingAnalyzer`] to `finish` without a panic. A typed error
//!   from the analyzer is an answer; only a panic fails the case.

use proptest::prelude::*;
use slj::prelude::StreamingAnalyzer;
use slj_daemon::OpenRequest;
use slj_motion::{BodyDims, JumpConfig};
use slj_video::{Camera, SceneConfig, SyntheticJump};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Frames in the clip every accepted request analyses: short enough
/// for a debug build, long enough that the jumper leaves the launch
/// area.
const FRAMES: usize = 8;

/// The clip and the valid request the cases perturb. The request's
/// warm-up spans the whole clip and its best-effort budget every frame,
/// so the unperturbed request analyses to a report.
fn baseline() -> &'static (SyntheticJump, OpenRequest) {
    static BASELINE: OnceLock<(SyntheticJump, OpenRequest)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let scene = SceneConfig {
            camera: Camera::compact(),
            ..SceneConfig::clean()
        };
        let jump = SyntheticJump::generate(
            &scene,
            &JumpConfig {
                frames: FRAMES,
                ..JumpConfig::default()
            },
            3,
        );
        let request = OpenRequest {
            camera: scene.camera,
            dims: BodyDims::default(),
            first_pose: jump.poses.poses()[0],
            fps: jump.video.fps(),
            warmup: FRAMES,
            fast: true,
            max_degraded: Some(FRAMES),
            want_trace: false,
        };
        (jump, request)
    })
}

/// Every numeric field of the request, as a JSON path, with the range
/// an in-range replacement is drawn from and whether the field is an
/// integer.
const FIELDS: [(&str, f64, f64, bool); 35] = [
    ("camera.width", 40.0, 400.0, true),
    ("camera.height", 30.0, 300.0, true),
    ("camera.pixels_per_meter", 20.0, 150.0, false),
    ("camera.world_left", -1.0, 0.3, false),
    ("camera.ground_row", 60.0, 119.0, false),
    ("fps", 1.0, 120.0, false),
    ("dims.height", 0.8, 2.2, false),
    ("dims.lengths[0]", 0.01, 1.0, false),
    ("dims.lengths[1]", 0.01, 1.0, false),
    ("dims.lengths[2]", 0.01, 1.0, false),
    ("dims.lengths[3]", 0.01, 1.0, false),
    ("dims.lengths[4]", 0.01, 1.0, false),
    ("dims.lengths[5]", 0.01, 1.0, false),
    ("dims.lengths[6]", 0.01, 1.0, false),
    ("dims.lengths[7]", 0.01, 1.0, false),
    ("dims.thicknesses[0]", 0.001, 0.3, false),
    ("dims.thicknesses[1]", 0.001, 0.3, false),
    ("dims.thicknesses[2]", 0.001, 0.3, false),
    ("dims.thicknesses[3]", 0.001, 0.3, false),
    ("dims.thicknesses[4]", 0.001, 0.3, false),
    ("dims.thicknesses[5]", 0.001, 0.3, false),
    ("dims.thicknesses[6]", 0.001, 0.3, false),
    ("dims.thicknesses[7]", 0.001, 0.3, false),
    ("first_pose.center.x", -0.1, 2.3, false),
    ("first_pose.center.y", 0.0, 1.7, false),
    ("first_pose.angles[0]", -720.0, 720.0, false),
    ("first_pose.angles[1]", -720.0, 720.0, false),
    ("first_pose.angles[2]", -720.0, 720.0, false),
    ("first_pose.angles[3]", -720.0, 720.0, false),
    ("first_pose.angles[4]", -720.0, 720.0, false),
    ("first_pose.angles[5]", -720.0, 720.0, false),
    ("first_pose.angles[6]", -720.0, 720.0, false),
    ("first_pose.angles[7]", -720.0, 720.0, false),
    ("warmup", 0.0, 80.0, true),
    ("max_degraded", 0.0, 10.0, true),
];

/// The replacement value of class `class` for a field, as raw JSON text.
fn raw_value(class: usize, (lo, hi): (f64, f64), integer: bool, unit: f64) -> String {
    match class {
        0 => "NaN".to_owned(),
        1 => "1e999".to_owned(),
        2 => "-1e999".to_owned(),
        3 => "0".to_owned(),
        4 => "-0".to_owned(),
        5 => "-3".to_owned(),
        6 => format!("{:e}", f64::from_bits(1)),
        7 => "1e300".to_owned(),
        8 => format!("{:e}", f64::MAX),
        _ => {
            let v = lo + (hi - lo) * unit;
            if integer {
                format!("{}", v.round() as i64)
            } else {
                format!("{v:?}")
            }
        }
    }
}

/// The request as JSON text with the value at `field` replaced by `raw`.
fn with_raw(request: &OpenRequest, field: &str, raw: &str) -> String {
    let mut value = serde::Serialize::to_value(request);
    let slot = field
        .split(['.', '[', ']'])
        .filter(|key| !key.is_empty())
        .fold(&mut value, |node, key| match node {
            serde::Value::Object(entries) => {
                &mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1
            }
            serde::Value::Array(items) => &mut items[key.parse::<usize>().unwrap()],
            other => panic!("{field}: no `{key}` in {other:?}"),
        });
    *slot = serde::Value::Str("RAW".to_owned());
    serde_json::to_string(&value)
        .unwrap()
        .replace("\"RAW\"", raw)
}

/// Streams the clip through an analyzer built from the request and
/// finishes it, returning whether a panic escaped.
fn analysis_panics(request: &OpenRequest, jump: &SyntheticJump) -> Option<String> {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let config = request.to_session_config();
        let Ok(mut stream) = StreamingAnalyzer::new(
            config.analyzer,
            &config.camera,
            config.first_pose,
            config.fps,
        ) else {
            return;
        };
        for frame in jump.video.iter() {
            if stream.push_frame(frame).is_err() {
                return;
            }
        }
        let _ = stream.finish();
    }));
    run.err().map(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default()
    })
}

#[test]
fn the_baseline_request_analyses_to_a_report() {
    let (jump, request) = baseline();
    assert_eq!(request.validate(), Ok(()));
    let config = request.to_session_config();
    let mut stream = StreamingAnalyzer::new(
        config.analyzer,
        &config.camera,
        config.first_pose,
        config.fps,
    )
    .unwrap();
    for frame in jump.video.iter() {
        stream.push_frame(frame).unwrap();
    }
    assert!(stream.finish().is_ok());
}

proptest! {
    #[test]
    fn one_field_out_of_range_is_refused_or_analysed_without_panic(
        index in 0..FIELDS.len(),
        class in 0usize..12,
        unit in 0.0f64..1.0,
    ) {
        let (jump, good) = baseline();
        let (field, lo, hi, integer) = FIELDS[index];
        let raw = raw_value(class, (lo, hi), integer, unit);
        let json = with_raw(good, field, &raw);
        let Ok(request) = serde_json::from_str::<OpenRequest>(&json) else {
            return Ok(());
        };
        match request.validate() {
            Err(refusal) => {
                let reframed = field.starts_with("camera.")
                    && refusal.field.starts_with("first_pose.center.");
                prop_assert!(
                    refusal.field == field || reframed,
                    "{} = {}: refused naming `{}` ({})",
                    field,
                    raw,
                    refusal.field,
                    refusal
                );
            }
            Ok(()) => {
                if let Some(message) = analysis_panics(&request, jump) {
                    prop_assert!(false, "{} = {}: accepted, then panicked: {}", field, raw, message);
                }
            }
        }
    }
}
