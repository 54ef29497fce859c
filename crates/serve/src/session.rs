//! One supervised streaming session: bounded queue, panic isolation,
//! checkpointed restarts and the degraded-frame budget.
//!
//! A `Session` is the unit the [`SessionManager`](crate::SessionManager)
//! fans out over worker threads, so everything here is strictly
//! deterministic given the offer schedule and the chaos plan: no
//! wall-clock reads outside the optional `Wall` deadline clock, no
//! randomness outside the session-seeded [`Backoff`] jitter.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

use slj::{
    AnalyzeError, AnalyzerConfig, AnalyzerScratch, JumpAnalysis, RobustnessPolicy,
    StreamingAnalyzer, StreamingCheckpoint,
};
use slj_motion::Pose;
use slj_obs::{serve_keys, MetricsRegistry};
use slj_runtime::{Backoff, BackoffConfig};
use slj_video::{Camera, Frame};

use crate::chaos::{ServiceFaultPlan, POISON_MESSAGE};
use crate::events::{EventKind, RestartMode};
use crate::manager::{DeadlineClock, OfferReply, ServeConfig};

/// Index of a session within its manager (stable for the manager's
/// lifetime; slots are never reused).
pub type SessionId = usize;

/// Everything needed to (re)build one session's analyzer — the same
/// four values [`StreamingAnalyzer::new`] takes.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The (streamable) analyzer configuration.
    pub analyzer: AnalyzerConfig,
    /// The clip's camera calibration.
    pub camera: Camera,
    /// The operator-provided first-frame pose.
    pub first_pose: Pose,
    /// The clip frame rate.
    pub fps: f64,
}

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionState {
    /// Accepting and analysing frames.
    Live,
    /// Terminal: removed from service by the supervisor (ladder
    /// exhausted, stalled out, or circuit breaker).
    Quarantined {
        /// The supervisor's reason.
        reason: String,
    },
    /// Terminal: closed cleanly; the analysis is ready to take.
    Finished,
    /// Terminal: `finish()` returned a typed error (ready to take).
    Failed,
}

impl SessionState {
    /// Whether the session has left service.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, SessionState::Live)
    }
}

/// A frame waiting in the session queue, stamped with its offer
/// ordinal (the chaos plan's key).
#[derive(Debug, Clone)]
struct QueuedFrame {
    ordinal: u64,
    frame: Frame,
}

/// The recyclable storage of a retired session: the analyzer's heavy
/// scratch plus the queue/replay containers and spare frame buffers.
/// [`SessionManager`](crate::SessionManager) pools these so
/// steady-state session churn — retire a terminal session, admit a new
/// one into the freed slot — performs no large allocations. Purely an
/// allocation cache: a session built on a recycled slot is
/// byte-identical to one built fresh.
#[derive(Debug, Default)]
pub(crate) struct SessionSlot {
    scratch: AnalyzerScratch,
    queue: VecDeque<QueuedFrame>,
    retained: Vec<Frame>,
    spares: Vec<Frame>,
}

/// One supervised session. Crate-private: the manager is the API.
#[derive(Debug)]
pub(crate) struct Session {
    id: SessionId,
    config: SessionConfig,
    /// The policy currently applied at finish (escalation rewrites it).
    policy: RobustnessPolicy,
    /// `None` once terminal.
    analyzer: Option<StreamingAnalyzer>,
    checkpoint: StreamingCheckpoint,
    /// Frames processed since the last checkpoint, retained for replay
    /// (bounded by `checkpoint_interval`).
    retained: Vec<Frame>,
    queue: VecDeque<QueuedFrame>,
    /// Frames offered so far (accepted or shed) — the ordinal source.
    offered: u64,
    closed: bool,
    state: SessionState,
    result: Option<Result<JumpAnalysis, AnalyzeError>>,
    backoff: Backoff,
    /// Ticks to sit out before processing again (restart delay).
    cooldown: u64,
    /// Degraded frames charged against the budget.
    degraded: usize,
    escalated: bool,
    clean_streak: usize,
    idle_ticks: usize,
    stall_strikes: u32,
    metrics: MetricsRegistry,
    /// Analyzer scratch salvaged at teardown (finish, failure or
    /// quarantine), held for [`Session::retire`].
    scratch: Option<AnalyzerScratch>,
    /// Spare frame buffers for `offer` copies, recycled from drained
    /// queue/replay frames.
    spares: Vec<Frame>,
    /// Bound on `spares`: the most frames the session can hold at once
    /// (queue + replay buffer + one in flight).
    spare_cap: usize,
}

impl Session {
    pub(crate) fn new(
        id: SessionId,
        config: SessionConfig,
        serve: &ServeConfig,
        mut slot: SessionSlot,
    ) -> Result<Self, AnalyzeError> {
        let analyzer = StreamingAnalyzer::new(
            config.analyzer.clone(),
            &config.camera,
            config.first_pose,
            config.fps,
        )?
        .with_scratch(std::mem::take(&mut slot.scratch));
        let checkpoint = analyzer.checkpoint();
        // Pre-warm every counter so the hot paths (notably the shed
        // reject) never insert into the registry — allocation-free by
        // construction, asserted by the chaos suite.
        let mut metrics = MetricsRegistry::default();
        for key in serve_keys::ALL {
            metrics.inc(key, 0);
        }
        let replay = serve.checkpoint_interval.max(1);
        slot.retained.clear();
        slot.retained.reserve(replay);
        slot.queue.clear();
        slot.queue.reserve(serve.queue_depth);
        Ok(Session {
            id,
            policy: config.analyzer.robustness,
            analyzer: Some(analyzer),
            checkpoint,
            retained: slot.retained,
            queue: slot.queue,
            offered: 0,
            closed: false,
            state: SessionState::Live,
            result: None,
            backoff: Backoff::new(BackoffConfig {
                // Distinct jitter stream per session; same ladder shape.
                seed: serve.restart.seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ..serve.restart
            }),
            cooldown: 0,
            degraded: 0,
            escalated: false,
            clean_streak: 0,
            idle_ticks: 0,
            stall_strikes: 0,
            metrics,
            scratch: None,
            spares: slot.spares,
            spare_cap: serve.queue_depth + replay + 1,
            config,
        })
    }

    pub(crate) fn id(&self) -> SessionId {
        self.id
    }

    /// Consumes a (terminal) session, separating the recyclable storage
    /// from its metrics so the manager can pool the former and fold the
    /// latter into the service-lifetime aggregate.
    pub(crate) fn retire(mut self) -> (SessionSlot, MetricsRegistry) {
        let mut scratch = self.scratch.take().unwrap_or_else(|| {
            // A live session retired by force (the manager guards
            // against this) still salvages its analyzer.
            self.analyzer
                .take()
                .map(StreamingAnalyzer::into_scratch)
                .unwrap_or_default()
        });
        while let Some(queued) = self.queue.pop_front() {
            scratch.recycle_frame(queued.frame);
        }
        while let Some(frame) = self.retained.pop() {
            scratch.recycle_frame(frame);
        }
        let slot = SessionSlot {
            scratch,
            queue: self.queue,
            retained: self.retained,
            spares: self.spares,
        };
        (slot, self.metrics)
    }

    pub(crate) fn state(&self) -> &SessionState {
        &self.state
    }

    pub(crate) fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    pub(crate) fn cooldown(&self) -> u64 {
        self.cooldown
    }

    pub(crate) fn degraded(&self) -> usize {
        self.degraded
    }

    pub(crate) fn close(&mut self) {
        self.closed = true;
    }

    pub(crate) fn take_result(&mut self) -> Option<Result<JumpAnalysis, AnalyzeError>> {
        self.result.take()
    }

    /// Offers one frame: copies it into the queue (into a spare buffer
    /// when one is pooled — allocation-free at steady state), or — when
    /// the queue is at `queue_depth` — rejects it on a path that
    /// performs no allocation and no copy. Every offer, accepted or
    /// shed, consumes one ordinal.
    pub(crate) fn offer(&mut self, frame: &Frame, queue_depth: usize) -> OfferReply {
        let ordinal = self.offered;
        self.offered += 1;
        if self.queue.len() >= queue_depth {
            self.metrics.inc(serve_keys::SHEDS, 1);
            return OfferReply::Overloaded {
                ordinal,
                depth: self.queue.len(),
            };
        }
        let mut copy = self.spares.pop().unwrap_or_else(|| Frame::new(0, 0));
        copy.copy_from(frame);
        self.queue.push_back(QueuedFrame {
            ordinal,
            frame: copy,
        });
        OfferReply::Accepted {
            ordinal,
            depth: self.queue.len(),
        }
    }

    /// Returns a frame buffer to the spare pool (dropped when full).
    fn recycle_frame(&mut self, frame: Frame) {
        if self.spares.len() < self.spare_cap {
            self.spares.push(frame);
        }
    }

    /// Drains the queue and replay buffers into the spare pool — the
    /// terminal paths' churn-free replacement for `clear()`.
    fn recycle_buffers(&mut self) {
        while let Some(queued) = self.queue.pop_front() {
            self.recycle_frame(queued.frame);
        }
        while let Some(frame) = self.retained.pop() {
            self.recycle_frame(frame);
        }
    }

    /// One supervisor tick for this session: process a queued frame,
    /// finalize a drained closed clip, or account idleness. Returns
    /// whether the session did (or is still pacing toward) work.
    pub(crate) fn step(
        &mut self,
        serve: &ServeConfig,
        chaos: &ServiceFaultPlan,
        out: &mut Vec<(SessionId, EventKind)>,
    ) -> bool {
        if self.state.is_terminal() {
            return false;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return true;
        }
        let Some(queued) = self.queue.pop_front() else {
            if self.closed {
                self.finalize(out);
                return true;
            }
            self.observe_idle(serve, out);
            return false;
        };
        self.idle_ticks = 0;
        self.process(queued, serve, chaos, out);
        true
    }

    /// Counts idle ticks against an open producer; a full stall window
    /// is a strike, and running out of strikes quarantines the session.
    fn observe_idle(&mut self, serve: &ServeConfig, out: &mut Vec<(SessionId, EventKind)>) {
        if serve.stall_ticks == 0 {
            return;
        }
        self.idle_ticks += 1;
        if self.idle_ticks >= serve.stall_ticks {
            self.idle_ticks = 0;
            self.stall_strikes += 1;
            self.metrics.inc(serve_keys::STALLS, 1);
            out.push((
                self.id,
                EventKind::Stalled {
                    idle_ticks: serve.stall_ticks,
                    strikes: self.stall_strikes,
                },
            ));
            if self.stall_strikes >= serve.stall_strikes {
                self.quarantine("stalled producer", out);
            }
        }
    }

    /// Runs one frame's analysis step under `catch_unwind` and the
    /// deadline budget, then routes the outcome: success, typed
    /// shape-reject, typed hard failure, or panic → restart ladder.
    fn process(
        &mut self,
        queued: QueuedFrame,
        serve: &ServeConfig,
        chaos: &ServiceFaultPlan,
        out: &mut Vec<(SessionId, EventKind)>,
    ) {
        let ordinal = queued.ordinal;
        let poisoned = chaos.is_poisoned(self.id, ordinal);
        let analyzer = self.analyzer.as_mut().expect("live session has analyzer");
        // The scripted clock never reads wall time at all — that is
        // what makes the chaos suite's runs replayable byte-for-byte.
        let started = (serve.clock == DeadlineClock::Wall).then(std::time::Instant::now);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if poisoned {
                panic!("{POISON_MESSAGE}");
            }
            analyzer.push_frame(&queued.frame)
        }));
        let cost = match serve.clock {
            DeadlineClock::Scripted => 1 + chaos.overrun_for(self.id, ordinal),
            DeadlineClock::Wall => started.map_or(0, |s| s.elapsed().as_millis() as u64),
        };
        match outcome {
            Ok(Ok(update)) => {
                self.metrics.inc(serve_keys::FRAMES, 1);
                let frame_degraded = update.completed.iter().filter(|h| h.is_degraded()).count();
                out.push((self.id, EventKind::Frame { update }));
                self.retained.push(queued.frame);
                if self.retained.len() >= serve.checkpoint_interval.max(1) {
                    self.checkpoint = self
                        .analyzer
                        .as_ref()
                        .expect("analyzer survives a successful step")
                        .checkpoint();
                    while let Some(frame) = self.retained.pop() {
                        self.recycle_frame(frame);
                    }
                }
                self.clean_streak += 1;
                if self.clean_streak >= serve.clean_frames_to_reset && self.backoff.attempt() > 0 {
                    self.backoff.reset();
                }
                if serve.frame_deadline > 0 && cost > serve.frame_deadline {
                    self.metrics.inc(serve_keys::DEADLINE_MISSES, 1);
                    out.push((
                        self.id,
                        EventKind::DeadlineMiss {
                            ordinal,
                            cost,
                            budget: serve.frame_deadline,
                        },
                    ));
                    self.charge_degraded(1, serve, out);
                }
                if frame_degraded > 0 {
                    self.charge_degraded(frame_degraded, serve, out);
                }
            }
            Ok(Err(AnalyzeError::FrameShapeMismatch { expected, got, .. })) => {
                // Typed reject: the analyzer state is untouched; drop
                // the alien frame and keep going.
                self.metrics.inc(serve_keys::REJECTED, 1);
                out.push((
                    self.id,
                    EventKind::FrameRejected {
                        ordinal,
                        expected,
                        got,
                    },
                ));
                self.charge_degraded(1, serve, out);
            }
            Ok(Err(error)) => {
                // A typed mid-stream hard failure (segmentation or
                // tracking): terminal, with the error preserved for the
                // client — never silent garbage.
                out.push((
                    self.id,
                    EventKind::Failed {
                        error: error.to_string(),
                    },
                ));
                self.state = SessionState::Failed;
                self.result = Some(Err(error));
                if let Some(analyzer) = self.analyzer.take() {
                    self.scratch = Some(analyzer.into_scratch());
                }
                self.recycle_buffers();
            }
            Err(payload) => {
                self.metrics.inc(serve_keys::PANICS, 1);
                let message = panic_message(payload.as_ref());
                out.push((self.id, EventKind::Panicked { ordinal, message }));
                // The poisoned frame is dropped (it is not retained),
                // so a checkpoint replay cannot re-trip it.
                self.charge_degraded(1, serve, out);
                if !self.state.is_terminal() {
                    self.crash_restart(out);
                }
            }
        }
    }

    /// Walks one rung of the restart ladder after a caught panic:
    /// checkpoint restore + replay, then cold restart, then quarantine.
    fn crash_restart(&mut self, out: &mut Vec<(SessionId, EventKind)>) {
        let rung = self.backoff.attempt();
        let delay = self.backoff.next_delay();
        self.clean_streak = 0;
        match rung {
            0 => {
                let replayed = self.retained.len();
                // The crashed analyzer's buffers are still structurally
                // sound (they are rewritten wholesale on reuse), so the
                // restore replays with warmed scratch instead of
                // reallocating it.
                let salvaged = self
                    .analyzer
                    .take()
                    .map(StreamingAnalyzer::into_scratch)
                    .unwrap_or_default();
                let mut restored = self.checkpoint.clone().resume().with_scratch(salvaged);
                let replay = catch_unwind(AssertUnwindSafe(|| {
                    for frame in &self.retained {
                        restored.push_frame(frame)?;
                    }
                    Ok::<_, AnalyzeError>(restored)
                }));
                match replay {
                    Ok(Ok(analyzer)) => {
                        self.analyzer = Some(analyzer);
                        self.metrics.inc(serve_keys::RESTARTS, 1);
                        out.push((
                            self.id,
                            EventKind::Restarted {
                                mode: RestartMode::Checkpoint { replayed },
                                delay,
                            },
                        ));
                    }
                    // The replay itself failed (it succeeded once, so
                    // this means real state corruption): skip straight
                    // to the cold rung within the same crash.
                    _ => self.cold_restart(delay, out),
                }
            }
            1 => self.cold_restart(delay, out),
            _ => {
                self.quarantine("panic ladder exhausted", out);
                return;
            }
        }
        self.cooldown = delay;
    }

    /// A fresh analyzer from the session config: earlier frames are
    /// lost, the escalated policy (if any) carries over.
    fn cold_restart(&mut self, delay: u64, out: &mut Vec<(SessionId, EventKind)>) {
        let salvaged = self
            .analyzer
            .take()
            .map(StreamingAnalyzer::into_scratch)
            .unwrap_or_default();
        let mut analyzer = StreamingAnalyzer::new(
            self.config.analyzer.clone(),
            &self.config.camera,
            self.config.first_pose,
            self.config.fps,
        )
        .expect("session config was validated at open")
        .with_scratch(salvaged);
        analyzer.set_robustness(self.policy);
        self.checkpoint = analyzer.checkpoint();
        while let Some(frame) = self.retained.pop() {
            self.recycle_frame(frame);
        }
        self.analyzer = Some(analyzer);
        self.metrics.inc(serve_keys::RESTARTS, 1);
        out.push((
            self.id,
            EventKind::Restarted {
                mode: RestartMode::Cold,
                delay,
            },
        ));
    }

    /// Charges degraded frames against the budget; crossing
    /// `escalate_after` relaxes the robustness policy once, crossing
    /// `trip_after` trips the circuit breaker (terminal).
    fn charge_degraded(
        &mut self,
        count: usize,
        serve: &ServeConfig,
        out: &mut Vec<(SessionId, EventKind)>,
    ) {
        self.degraded += count;
        self.metrics.inc(serve_keys::DEGRADED, count as u64);
        if !self.escalated && self.degraded >= serve.escalate_after {
            self.escalated = true;
            self.policy = RobustnessPolicy::BestEffort {
                max_degraded_frames: serve.trip_after,
            };
            if let Some(analyzer) = self.analyzer.as_mut() {
                analyzer.set_robustness(self.policy);
            }
            out.push((
                self.id,
                EventKind::PolicyEscalated {
                    degraded: self.degraded,
                    allowance: serve.trip_after,
                },
            ));
        }
        if self.degraded >= serve.trip_after && !self.state.is_terminal() {
            out.push((
                self.id,
                EventKind::CircuitBreakerTripped {
                    degraded: self.degraded,
                    allowance: serve.trip_after,
                },
            ));
            self.quarantine("circuit breaker", out);
        }
    }

    /// The manager's disconnect hook: quarantines a live session so it
    /// can be retired (the ingress layer's "producer vanished" path).
    pub(crate) fn abort(&mut self, reason: &str, out: &mut Vec<(SessionId, EventKind)>) {
        self.quarantine(reason, out);
    }

    /// Terminal removal from service; frees the session's memory.
    fn quarantine(&mut self, reason: &str, out: &mut Vec<(SessionId, EventKind)>) {
        out.push((
            self.id,
            EventKind::Quarantined {
                reason: reason.to_owned(),
            },
        ));
        self.state = SessionState::Quarantined {
            reason: reason.to_owned(),
        };
        if let Some(analyzer) = self.analyzer.take() {
            self.scratch = Some(analyzer.into_scratch());
        }
        self.recycle_buffers();
    }

    /// Closes the clip: `finish()` under `catch_unwind` (scoring is
    /// analyzer code too), producing the terminal event either way.
    fn finalize(&mut self, out: &mut Vec<(SessionId, EventKind)>) {
        let analyzer = self.analyzer.take().expect("live session has analyzer");
        match catch_unwind(AssertUnwindSafe(|| analyzer.finish_reclaimed())) {
            Ok((Ok(analysis), scratch)) => {
                self.scratch = Some(scratch);
                out.push((
                    self.id,
                    EventKind::Finished {
                        frames: analysis.health.len(),
                        score: analysis.score.score() as u32,
                        degraded: self.degraded,
                    },
                ));
                self.state = SessionState::Finished;
                self.result = Some(Ok(analysis));
            }
            Ok((Err(error), scratch)) => {
                self.scratch = Some(scratch);
                out.push((
                    self.id,
                    EventKind::Failed {
                        error: error.to_string(),
                    },
                ));
                self.state = SessionState::Failed;
                self.result = Some(Err(error));
            }
            Err(payload) => {
                self.metrics.inc(serve_keys::PANICS, 1);
                self.quarantine(
                    &format!("finish panicked: {}", panic_message(payload.as_ref())),
                    out,
                );
            }
        }
        self.recycle_buffers();
    }
}

/// Renders a caught panic payload (the common `&str` / `String` cases).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
