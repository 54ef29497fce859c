//! The in-process half of the traced run: each layer's public entry
//! point timed from the benchmark, on the workload's own clips.
//!
//! Nothing inside the program is instrumented. A layer's time is the
//! wall time of a call into it, and self time is found by subtracting
//! the layer below (see the runner).

use std::collections::VecDeque;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Instant;

use slj::StreamingAnalyzer;
use slj_daemon::wire::{encode_to_vec, WireMsg};
use slj_daemon::{Decoder, Stream, DEFAULT_MAX_FRAME};
use slj_ga::tracker::{TemporalTracker, TrackerConfig};
use slj_segment::background::BackgroundEstimator;
use slj_segment::pipeline::FrameStages;
use slj_segment::{FrameSegmenter, PreparedBackground};
use slj_serve::{OfferReply, ServeConfig, ServeError, SessionManager};
use slj_video::{Frame, Video};

use crate::clips::Clip;
use crate::load::Tally;
use crate::stats::{median, percentile, sorted};

/// Repetitions of each leaf measurement (the median is reported).
pub const REPS: usize = 10;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Leaf-layer timings, ms (medians over [`REPS`] repetitions, or over
/// every frame of every repetition for the per-frame entries), plus the
/// tracker's work counts.
#[derive(Debug, Clone, Default)]
pub struct Leaves {
    /// `StreamingAnalyzer`: new, every `push_frame`, `finish`.
    pub slj_job: f64,
    /// The `push_frame` that fills the warm-up window (background
    /// estimate plus the backlog).
    pub slj_go_live: f64,
    /// One `push_frame` after going live.
    pub slj_frame_p50: f64,
    /// `finish`: smoothing, robustness, scoring, measurement.
    pub slj_finish: f64,
    /// `BackgroundEstimator::estimate` over the warm-up window.
    pub segment_background: f64,
    /// One `FrameSegmenter::segment_into`.
    pub segment_frame_p50: f64,
    /// `TemporalTracker::track` over the clip's silhouettes.
    pub ga_track: f64,
    /// Fitness evaluations per frame.
    pub ga_evals_per_frame: f64,
    /// Distinct genomes over evaluations.
    pub ga_unique_ratio: f64,
    /// Pruned over exactly evaluated branch-and-bound stick tests.
    pub ga_prune_ratio: f64,
    /// `score_jump_masked` plus `measure_jump`.
    pub score: f64,
    /// The summary rendered as pretty JSON.
    pub obs_render: f64,
    /// `frames_from_ppm_stream` over the clip.
    pub ppm_decode: f64,
    /// `encode_to_vec` of the job's `OPEN_CLIP` message.
    pub wire_encode: f64,
    /// `Decoder` over the same bytes.
    pub wire_decode: f64,
    /// `http::read_request` of the job over a socketpair.
    pub http_parse: f64,
    /// Frames per clip.
    pub frames: usize,
    /// Per-frame samples behind the `_p50` entries.
    pub frame_samples: usize,
}

impl Leaves {
    /// The leaf layers a gateway job passes through, summed: what the
    /// job would cost with no waiting anywhere.
    pub fn job_sum(&self) -> f64 {
        self.http_parse
            + self.wire_encode
            + self.wire_decode
            + self.ppm_decode
            + self.segment_background
            + self.segment_frame_p50 * self.frames as f64
            + self.ga_track
            + self.score
            + self.obs_render
    }
}

/// Times every leaf layer on `clips` (repetition `r` uses clip
/// `r % len`), checking each in-process report against the reference.
///
/// # Errors
///
/// A layer call that fails.
pub fn measure_leaves(clips: &[Clip], tally: &mut Tally) -> Result<Leaves, String> {
    let mut job_ms = Vec::new();
    let mut go_live_ms = Vec::new();
    let mut live_frame_ms = Vec::new();
    let mut finish_ms = Vec::new();
    let mut render_ms = Vec::new();
    let mut score_ms = Vec::new();
    let mut background_ms = Vec::new();
    let mut segment_ms = Vec::new();
    let mut track_ms = Vec::new();
    let mut ppm_ms = Vec::new();
    let mut encode_ms = Vec::new();
    let mut decode_ms = Vec::new();
    let mut parse_ms = Vec::new();
    let (mut evals, mut unique, mut candidates, mut pruned, mut frames) = (0, 0, 0u64, 0u64, 0);
    for r in 0..REPS {
        let clip = &clips[r % clips.len()];
        let config = clip.request.to_session_config();
        let dims = &config.analyzer.dims;

        // slj: the whole streaming analysis, call by call.
        let job = Instant::now();
        let mut analyzer = StreamingAnalyzer::new(
            config.analyzer.clone(),
            &config.camera,
            config.first_pose,
            config.fps,
        )
        .map_err(|e| e.to_string())?;
        let mut live = false;
        for frame in &clip.frames {
            let call = Instant::now();
            let update = analyzer.push_frame(frame).map_err(|e| e.to_string())?;
            let took = ms_since(call);
            if live {
                live_frame_ms.push(took);
            } else if !update.completed.is_empty() {
                live = true;
                go_live_ms.push(took);
            }
        }
        let call = Instant::now();
        let analysis = analyzer.finish().map_err(|e| e.to_string())?;
        finish_ms.push(ms_since(call));
        job_ms.push(ms_since(job));

        // obs: the report bytes, checked against the reference.
        let call = Instant::now();
        let summary =
            serde_json::to_string_pretty(&analysis.summary()).expect("summary serialises");
        render_ms.push(ms_since(call));
        tally.attempted += 1;
        if summary == clip.reference {
            tally.succeeded += 1;
        } else {
            tally.mismatched += 1;
        }

        // score: the close-of-clip scoring and measurement.
        let excluded: Vec<bool> = analysis.health.iter().map(|h| h.is_degraded()).collect();
        let call = Instant::now();
        let card =
            slj_score::score_jump_masked(&analysis.poses, &excluded).map_err(|e| e.to_string())?;
        let measured = slj::measure_jump(&analysis.poses, dims);
        score_ms.push(ms_since(call));
        std::hint::black_box((card, measured.ok()));

        for track in &analysis.tracking {
            evals += track.evaluations;
            unique += track.unique_genomes;
            candidates += track.bb_candidates;
            pruned += track.bb_pruned;
        }
        frames = clip.frames.len();

        // segment: background estimate, then every frame, on the
        // presmoothed frames the analyzer itself sees.
        let seg = &config.analyzer.segmentation;
        let smoothed: Vec<Frame> = clip.frames.iter().map(|f| seg.presmooth.apply(f)).collect();
        let warmup = Video::new(smoothed[..clip.request.warmup].to_vec(), config.fps);
        let call = Instant::now();
        let background = BackgroundEstimator::new(seg.background)
            .estimate(&warmup)
            .map_err(|e| e.to_string())?;
        background_ms.push(ms_since(call));
        let mut segmenter =
            FrameSegmenter::new(seg, Arc::new(PreparedBackground::new(&background.image)));
        let mut stages = FrameStages::empty();
        let mut masks = Vec::with_capacity(smoothed.len());
        for (k, frame) in smoothed.iter().enumerate() {
            let previous = k.checked_sub(1).map(|p| &smoothed[p]);
            let call = Instant::now();
            segmenter
                .segment_into(frame, previous, &mut stages)
                .map_err(|e| e.to_string())?;
            segment_ms.push(ms_since(call));
            masks.push(stages.final_mask.clone());
        }

        // ga: tracking alone, on those silhouettes.
        let tracker = TemporalTracker::new(TrackerConfig {
            parallelism: config.analyzer.parallelism,
            ..config.analyzer.tracker
        });
        let call = Instant::now();
        let run = tracker
            .track(&masks, config.first_pose, dims, &config.camera)
            .map_err(|e| e.to_string())?;
        track_ms.push(ms_since(call));
        std::hint::black_box(run);

        // video, daemon, gateway: the transport's byte work.
        let call = Instant::now();
        let decoded =
            slj_video::io::frames_from_ppm_stream(&clip.ppm).map_err(|e| e.to_string())?;
        ppm_ms.push(ms_since(call));
        std::hint::black_box(decoded);

        let msg = WireMsg::OpenClip {
            config_json: serde_json::to_string(&clip.request).expect("open request serialises"),
            ppm: clip.ppm.clone(),
        };
        let call = Instant::now();
        let bytes = encode_to_vec(&msg);
        encode_ms.push(ms_since(call));
        let mut decoder = Decoder::new(DEFAULT_MAX_FRAME);
        let call = Instant::now();
        decoder.push(&bytes);
        let back = decoder.next_msg().map_err(|e| e.to_string())?;
        decode_ms.push(ms_since(call));
        if back.as_ref() != Some(&msg) {
            return Err("OPEN_CLIP did not survive an encode/decode round trip".to_owned());
        }

        parse_ms.push(parse_over_socketpair(clip)?);
    }
    Ok(Leaves {
        slj_job: median(&job_ms),
        slj_go_live: median(&go_live_ms),
        slj_frame_p50: percentile(&sorted(&live_frame_ms), 50.0),
        slj_finish: median(&finish_ms),
        segment_background: median(&background_ms),
        segment_frame_p50: percentile(&sorted(&segment_ms), 50.0),
        ga_track: median(&track_ms),
        ga_evals_per_frame: evals as f64 / (frames * REPS) as f64,
        ga_unique_ratio: unique as f64 / evals as f64,
        ga_prune_ratio: pruned as f64 / candidates as f64,
        score: median(&score_ms),
        obs_render: median(&render_ms),
        ppm_decode: median(&ppm_ms),
        wire_encode: median(&encode_ms),
        wire_decode: median(&decode_ms),
        http_parse: median(&parse_ms),
        frames,
        frame_samples: live_frame_ms.len(),
    })
}

/// `http::read_request` on the job's full request, written by a second
/// thread into the other end of a socketpair; ms.
fn parse_over_socketpair(clip: &Clip) -> Result<f64, String> {
    let (mut tx, rx) = UnixStream::pair().map_err(|e| e.to_string())?;
    let limits = slj_gateway::http::Limits {
        max_header: 16 * 1024,
        max_body: slj_gateway::GatewayConfig::default().max_body,
    };
    let mut stream = Stream::Unix(rx);
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || tx.write_all(&clip.http_request));
        let call = Instant::now();
        let parsed = slj_gateway::http::read_request(&mut stream, &limits);
        let took = ms_since(call);
        writer
            .join()
            .expect("socketpair writer")
            .map_err(|e| e.to_string())?;
        let request = parsed.map_err(|e| format!("{e:?}"))?;
        std::hint::black_box(request);
        Ok(took)
    })
}

/// What the in-process manager replay measured.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Open to terminal event, per session, ms.
    pub job_ms: Vec<f64>,
    /// One `SessionManager::tick`, ms.
    pub tick_ms: Vec<f64>,
    /// Queue depth reported by each accepted offer.
    pub depths: Vec<usize>,
    /// Offers shed with `Overloaded`.
    pub sheds: usize,
}

/// Replays `jobs` clip jobs through a `SessionManager` built from the
/// daemon's `config`, `sessions` at a time, paced the way the daemon
/// engine paces `OPEN_CLIP` sessions: each pass offers every session's
/// pending frames until one is shed, closes sessions whose frames are
/// all in, ticks once, and collects finished sessions.
///
/// # Errors
///
/// A refused open or a failed session.
pub fn serve_replay(
    config: ServeConfig,
    clips: &[Clip],
    sessions: usize,
    jobs: usize,
    tally: &mut Tally,
) -> Result<ServeStats, String> {
    struct Live<'a> {
        id: usize,
        clip: &'a Clip,
        pending: VecDeque<&'a Frame>,
        closed: bool,
        opened: Instant,
    }
    let mut manager = SessionManager::new(config);
    let mut stats = ServeStats::default();
    let mut started = 0;
    while started < jobs {
        let mut live = Vec::new();
        for _ in 0..sessions.min(jobs - started) {
            let clip = &clips[started % clips.len()];
            started += 1;
            let id = manager
                .open(clip.request.to_session_config())
                .map_err(|e| e.to_string())?;
            live.push(Live {
                id,
                clip,
                pending: clip.frames.iter().collect(),
                closed: false,
                opened: Instant::now(),
            });
        }
        while !live.is_empty() {
            for s in &mut live {
                while let Some(frame) = s.pending.front() {
                    match manager.offer(s.id, frame) {
                        Ok(OfferReply::Accepted { depth, .. }) => {
                            stats.depths.push(depth);
                            s.pending.pop_front();
                        }
                        Ok(OfferReply::Overloaded { .. }) => {
                            stats.sheds += 1;
                            break;
                        }
                        Err(ServeError::SessionTerminal { .. }) => break,
                        Err(e) => return Err(e.to_string()),
                    }
                }
                if s.pending.is_empty() && !s.closed {
                    manager.close(s.id).map_err(|e| e.to_string())?;
                    s.closed = true;
                }
            }
            let call = Instant::now();
            manager.tick();
            stats.tick_ms.push(ms_since(call));
            for event in manager.drain_events() {
                if !event.kind.is_terminal() {
                    continue;
                }
                let at = live
                    .iter()
                    .position(|s| s.id == event.session)
                    .ok_or("terminal event for an unknown session")?;
                let s = live.swap_remove(at);
                stats.job_ms.push(ms_since(s.opened));
                tally.attempted += 1;
                match manager.take_result(s.id) {
                    Some(Ok(analysis)) => {
                        let summary = serde_json::to_string_pretty(&analysis.summary())
                            .expect("summary serialises");
                        if summary == s.clip.reference {
                            tally.succeeded += 1;
                        } else {
                            tally.mismatched += 1;
                        }
                    }
                    _ => tally.errored += 1,
                }
                manager.retire(s.id).map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(stats)
}
