//! Command-line front end for the slj system.
//!
//! The paper's future work imagines a service where "the user will be
//! able to upload a video sequence of a standing long jump … and the
//! system will be able to respond with advices". This crate is that
//! workflow as a local tool:
//!
//! ```text
//! slj synth   --out clip/ --seed 7 --flaws shallow-crouch   # make footage
//! slj analyze --clip clip/ --report report.json             # segment+track+score
//! slj score   --clip clip/                                  # score the true poses
//! ```
//!
//! `synth` writes a frame directory (PPM + `clip.json`) plus a
//! `truth.json` carrying the scene calibration (camera, body
//! dimensions), the ground-truth poses, and the first-frame stick model
//! that stands in for the paper's hand-drawn initialisation. `analyze`
//! needs only the clip directory: it reads the calibration and first
//! pose from `truth.json` — exactly the information the paper's manual
//! step provides.

pub mod args;
pub mod commands;
pub mod error;

pub use error::CliError;

use std::io::Write;

/// Top-level usage text.
pub const USAGE: &str = "\
slj — motion analysis for the standing long jump

USAGE:
  slj synth   --out DIR [--seed N] [--frames N] [--flaws a,b,c]
              [--distance M] [--height M] [--compact] [--clean]
  slj analyze --clip DIR [--report FILE.json] [--report-md FILE.md]
              [--fast | --paper] [--half-res]
              [--best-effort [--max-degraded N]] [--inject-faults SPEC]
              [--stream [--warmup N]] [--trace FILE.jsonl] [--metrics]
  slj score   --clip DIR
  slj serve   --clip DIR [--sessions N] [--max-sessions N] [--queue-depth N]
              [--frame-deadline-ms N] [--inject-faults SPEC]
              [--events FILE.jsonl] [--threads N|auto|serial] [--fast]
              [--best-effort [--max-degraded N]] [--warmup N]
  slj daemon  --listen ADDR[,ADDR...] [--max-sessions N] [--queue-depth N]
              [--frame-deadline-ms N] [--threads N|auto|serial]
              [--trace-dir DIR] [--max-frame-mb N] [--idle-timeout-ms N]
  slj submit  --connect ADDR (--clip DIR | --drain) [--warmup N] [--fast]
              [--best-effort [--max-degraded N]] [--report FILE.json]
              [--trace FILE.jsonl] [--events FILE.jsonl]
  slj gateway --listen ADDR --connect ADDR [--max-jobs N] [--max-conns N]
              [--max-body-mb N] [--read-timeout-ms N] [--write-timeout-ms N]
              [--retry-after SECS]
  slj eval    (--matrix small|full | --sweep) [--out FILE.json]
              [--summary-md FILE.md] [--threads N|auto|serial]
  slj flaws
  slj help

COMMANDS:
  synth     render a synthetic jump clip with ground truth
  analyze   run segmentation + GA pose tracking + scoring on a clip
            (--best-effort tolerates degraded frames and masks them out
             of scoring; --inject-faults perturbs the clip first, e.g.
             'drop=0.1,dup=0.05,flicker=0.08,burst=2:3:40,jitter=2,bars=1,seed=9';
             the analysis runs on one thread, frame by frame in order;
             --stream analyses frame by frame in O(1) memory — the
             background comes from the first --warmup frames (default
             14) and results are byte-identical to a batch run of the
             same streamable configuration;
             --trace writes the slj-trace/1 JSONL span trace and
             --metrics prints the deterministic metrics registry — both
             derived from analysis results only, so they are
             byte-identical run to run)
  score     score a clip's ground-truth poses (no vision)
  serve     run clips through the supervised multi-session service core
            (each session is an independent streaming analysis behind a
             bounded frame queue with reject-newest backpressure;
             panics, deadline overruns, stalled producers and
             mid-stream shape changes are contained per session by a
             restart ladder — checkpoint restore, cold restart,
             quarantine — and a degraded-frame circuit breaker; session
             0 analyses the clip as stored, and with --inject-faults
             every further session streams an independently seeded
             perturbation; --events writes the slj-serve/1 JSONL
             health-event log; --threads fans session steps out over
             a persistent worker pool with byte-identical events and
             results)
  daemon    run the long-lived slj-wire/1 socket service (TCP and/or
            Unix-domain, ADDR = tcp:HOST:PORT or unix:PATH) in front of
            the session manager: concurrent clients open sessions,
            stream frames under bounded queues with typed Overloaded
            backpressure, and receive health events plus the final
            analysis; malformed, oversized, idle or vanished clients
            are contained per connection, and a wire DRAIN (see
            `slj submit --drain`) finishes in-flight sessions and exits
            (--trace-dir additionally exports each session's
             slj-trace/1 JSONL server-side; --idle-timeout-ms reaps a
             connection that sends nothing for that long, default
             300000, and 0 never reaps)
  submit    stream a saved clip to a running daemon; the summary JSON
            (--report) and trace (--trace) are byte-identical to
            `slj analyze --stream` on the same clip and configuration,
            and --drain asks the daemon to shut down gracefully
  gateway   run the HTTP/1.1 front end for a running daemon: POST
            /v1/jobs ingests a clip (one open-request JSON line, then
            the clip as concatenated binary PPM frames) through the
            daemon's OPEN_CLIP path — the daemon decodes and feeds the
            frames itself; GET /v1/jobs/ID returns the report JSON
            byte-identical to `slj analyze --stream --report`, GET
            /v1/jobs/ID/events the health JSONL; daemon capacity sheds
            map to 429 + Retry-After, draining to 503, malformed or
            oversized bodies to typed 4xx before any session is opened;
            POST /v1/drain drains gateway and daemon, after which the
            command exits and prints the gateway metrics
  eval      measure tracking accuracy against synthetic ground truth
            (--matrix runs the seeded clip x fault-profile x gap-policy
             grid and writes a deterministic slj-eval/1 JSON report;
             --sweep ROC-scores the segmentation quality-gate
             thresholds and fits per-rung confidence factors; the two
             modes are exclusive and exactly one is required)
  flaws     list the injectable technique faults
";

/// Parses and executes one invocation, writing human-readable output to
/// `out`. The first element of `args` must be the subcommand (the
/// binary name is already stripped).
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands, malformed flags or any
/// failure of the underlying operation.
pub fn run<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("synth") => commands::synth(&args[1..], out),
        Some("analyze") => commands::analyze(&args[1..], out),
        Some("score") => commands::score(&args[1..], out),
        Some("serve") => commands::serve(&args[1..], out),
        Some("daemon") => commands::daemon(&args[1..], out),
        Some("submit") => commands::submit(&args[1..], out),
        Some("gateway") => commands::gateway(&args[1..], out),
        Some("eval") => commands::eval(&args[1..], out),
        Some("flaws") => commands::flaws(out),
        Some("help") | None => {
            out.write_all(USAGE.as_bytes())?;
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!("unknown command '{other}'"))),
    }
}
