//! Supervised multi-session service core for streaming jump analysis.
//!
//! The analyzer was built for one clip at a time; this crate is the
//! unit that makes *many concurrent clips* safe to hold in one process.
//! A [`SessionManager`] owns up to `max_sessions` live
//! [`StreamingAnalyzer`](slj::StreamingAnalyzer) sessions and wraps
//! each in three containment layers:
//!
//! 1. **Backpressure** — every session sits behind a bounded frame
//!    queue ([`ServeConfig::queue_depth`]). A full queue rejects the
//!    *newest* frame with a typed [`OfferReply::Overloaded`] on an
//!    allocation-free path; nothing in the service ever buffers
//!    unboundedly.
//! 2. **Supervision** — each analysis step runs under `catch_unwind`
//!    with a per-frame deadline budget. A caught panic walks a
//!    deterministic [`Backoff`](slj_runtime::Backoff) restart ladder:
//!    restore the last [`StreamingCheckpoint`](slj::StreamingCheckpoint)
//!    and replay the retained frames (byte-identical to a run that
//!    never crashed), then cold-restart, then quarantine with a
//!    terminal health event. Deadline misses are detected after the
//!    step (there is no preemption) and charged to the degraded budget.
//! 3. **Degradation budget** — degraded frames, panics, deadline
//!    misses and shape-rejected frames accrue per session; crossing
//!    [`ServeConfig::escalate_after`] relaxes the session's
//!    [`RobustnessPolicy`](slj::RobustnessPolicy) so it can still
//!    finish, and crossing [`ServeConfig::trip_after`] trips a circuit
//!    breaker that quarantines the session instead of letting it emit
//!    garbage.
//!
//! Per-session [`MetricsRegistry`](slj_obs::MetricsRegistry) counters
//! (keys in [`slj_obs::serve_keys`]) and an ordered [`HealthEvent`]
//! stream (JSONL schema [`SERVE_SCHEMA`] = `slj-serve/1`) make every
//! supervisor decision observable. The manager's own
//! [`Parallelism`](slj_runtime::Parallelism) knob fans sessions out
//! over worker threads per [`tick`](SessionManager::tick); like every
//! other parallel path in the workspace it is throughput-only — events,
//! metrics and analyses are byte-identical at any thread count.
//!
//! Fault containment is asserted, not assumed: [`ServiceFaultPlan`]
//! scripts service-level chaos — poisoned frames that panic the
//! tracker, scripted deadline overruns — on top of the acquisition
//! faults `slj_video::FaultInjector` injects, and the `serve_chaos`
//! suite drives stalls, bursts and mid-stream shape changes through a
//! full manager, asserting byte-identical healthy outputs at every
//! parallelism setting.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod events;
pub mod manager;
pub mod session;

pub use chaos::ServiceFaultPlan;
pub use events::{render_event, render_events, EventKind, HealthEvent, RestartMode, SERVE_SCHEMA};
pub use manager::{DeadlineClock, OfferReply, ServeConfig, ServeError, SessionManager};
pub use session::{SessionConfig, SessionId, SessionState};
