//! The clips a run submits, made from `--seed`, and their reference
//! reports computed in-process before any clock starts.

use serde::Serialize;
use slj::prelude::*;
use slj::StreamingAnalyzer;
use slj_daemon::OpenRequest;

use crate::workload::ClipKind;

/// Clips per run. Analysis time varies by about 6% from clip to clip,
/// so a run cycles through several to keep one unlucky clip from
/// moving a whole run's latency.
pub const CLIPS_PER_RUN: usize = 8;

/// One clip, ready to submit every way the benchmark submits it.
pub struct Clip {
    /// The seed it was synthesised from.
    pub seed: u64,
    /// The open request every job uses: the CI gateway-smoke settings.
    pub request: OpenRequest,
    /// The decoded frames (wire `FRAME` jobs and in-process layers).
    pub frames: Vec<Frame>,
    /// The frames as concatenated binary PPM (the `OPEN_CLIP` payload).
    pub ppm: Vec<u8>,
    /// The complete `POST /v1/jobs` request bytes.
    pub http_request: Vec<u8>,
    /// The summary JSON every transport must return byte for byte.
    pub reference: String,
}

/// The shape of a clip set, recorded so `compare` can refuse runs made
/// on different inputs.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct ClipInfo {
    /// `full` or `compact`.
    pub kind: String,
    /// Frame width, px.
    pub width: usize,
    /// Frame height, px.
    pub height: usize,
    /// Frames per clip.
    pub frames: usize,
    /// Clips cycled per run.
    pub per_run: usize,
    /// `POST /v1/jobs` request bytes of the first clip.
    pub request_bytes: usize,
}

fn scene(kind: ClipKind) -> SceneConfig {
    match kind {
        ClipKind::Full => SceneConfig::default(),
        ClipKind::Compact => SceneConfig {
            camera: Camera::compact(),
            ..SceneConfig::clean()
        },
    }
}

/// The synthesis seed of clip `k` of a run seeded `seed`: runs with
/// neighbouring seeds share no clip.
pub fn clip_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(CLIPS_PER_RUN as u64)
        .wrapping_add(k as u64)
}

/// The reference report: the daemon's own session config driven
/// through `StreamingAnalyzer` in-process, rendered the way the daemon
/// renders it.
///
/// # Errors
///
/// The analyzer's error, as text.
pub fn reference_report(request: &OpenRequest, frames: &[Frame]) -> Result<String, String> {
    let config = request.to_session_config();
    let mut stream = StreamingAnalyzer::new(
        config.analyzer,
        &config.camera,
        config.first_pose,
        config.fps,
    )
    .map_err(|e| e.to_string())?;
    for frame in frames {
        stream.push_frame(frame).map_err(|e| e.to_string())?;
    }
    let analysis = stream.finish().map_err(|e| e.to_string())?;
    Ok(serde_json::to_string_pretty(&analysis.summary()).expect("summary serialises"))
}

impl Clip {
    /// Synthesises the clip and computes its reference report.
    ///
    /// # Errors
    ///
    /// When the reference analysis fails: such a clip cannot be a
    /// benchmark input.
    pub fn generate(kind: ClipKind, seed: u64) -> Result<Clip, String> {
        let scene = scene(kind);
        let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), seed);
        let request = OpenRequest {
            camera: scene.camera,
            dims: JumpConfig::default().dims,
            first_pose: jump.poses.poses()[0],
            fps: jump.video.fps(),
            warmup: 8,
            fast: true,
            max_degraded: Some(10),
            want_trace: false,
        };
        let ppm = slj_video::io::ppm_stream(&jump.video);
        let mut body = serde_json::to_string(&request)
            .expect("open request serialises")
            .into_bytes();
        body.push(b'\n');
        body.extend_from_slice(&ppm);
        let frames = jump.video.into_frames();
        let reference = reference_report(&request, &frames).map_err(|e| {
            format!(
                "{} clip seed {seed}: reference analysis failed: {e}",
                kind.name()
            )
        })?;
        Ok(Clip {
            seed,
            request,
            frames,
            ppm,
            http_request: crate::http::job_request(&body),
            reference,
        })
    }
}

/// The clips of one run.
pub fn clip_set(kind: ClipKind, seed: u64) -> Result<Vec<Clip>, String> {
    (0..CLIPS_PER_RUN)
        .map(|k| Clip::generate(kind, clip_seed(seed, k)))
        .collect()
}

/// The recorded shape of a clip set.
pub fn clip_info(kind: ClipKind, clips: &[Clip]) -> ClipInfo {
    let first = &clips[0];
    let (width, height) = first.frames[0].dims();
    ClipInfo {
        kind: kind.name().to_owned(),
        width,
        height,
        frames: first.frames.len(),
        per_run: clips.len(),
        request_bytes: first.http_request.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbouring_seeds_share_no_clip() {
        let a: Vec<u64> = (0..CLIPS_PER_RUN).map(|k| clip_seed(5, k)).collect();
        let b: Vec<u64> = (0..CLIPS_PER_RUN).map(|k| clip_seed(6, k)).collect();
        assert!(a.iter().all(|s| !b.contains(s)));
        assert_eq!(clip_seed(5, 0), 40);
    }
}
