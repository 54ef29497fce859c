//! Observability for the analysis pipeline: spans, metrics, traces and
//! profiling hooks.
//!
//! The pipeline is deterministic by contract — the same clip and
//! configuration give the same analysis, however many sessions run side
//! by side — and its observability layer must uphold the same contract,
//! or a trace diff would cry wolf on every rerun. The design therefore
//! splits observation into two strictly separated halves:
//!
//! * **Deterministic span data** ([`SegmentObs`], [`TrackObs`],
//!   [`RuleObs`], assembled per clip into [`ClipObs`]): pure functions
//!   of the analysis *results* (stage masks, GA accounting, rule
//!   verdicts), collected in frame order. Everything derived from it —
//!   the JSONL trace ([`ClipObs::render_trace`]) and the
//!   [`MetricsRegistry`] ([`ClipObs::metrics`]) — is byte-identical
//!   run to run because the inputs are.
//! * **Wall-clock profiling** ([`Profiler`]): span-keyed duration
//!   accumulation for benchmarks. Timings are inherently
//!   non-deterministic, so they never enter the trace or the registry;
//!   the perf harness reads them directly.
//!
//! The trace schema is `slj-trace/1`: one JSON object per line, first a
//! header carrying the schema tag, then two records per frame
//! (`frame.segment`, `frame.track`) in frame order, then one
//! `score.rule` record per rule in table order. No wall-clock values,
//! thread counts or host details appear in the trace — see DESIGN.md
//! §12.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// The trace schema identifier emitted in the JSONL header line.
pub const TRACE_SCHEMA: &str = "slj-trace/1";

/// The health-event schema identifier the `slj-serve` supervisor emits
/// in its JSONL header line.
pub const SERVE_SCHEMA: &str = "slj-serve/1";

/// Static metric keys for the `slj-serve` supervisor's per-session
/// [`MetricsRegistry`]. Shared here (like [`spans`]) so the service,
/// its tests and any dashboard agree on the schema by construction.
pub mod serve_keys {
    /// Frames successfully analysed.
    pub const FRAMES: &str = "serve.frames";
    /// Frames shed at the queue (backpressure rejects).
    pub const SHEDS: &str = "serve.sheds";
    /// Frames that blew their per-frame deadline budget.
    pub const DEADLINE_MISSES: &str = "serve.deadline_misses";
    /// Panics caught by the supervisor.
    pub const PANICS: &str = "serve.panics";
    /// Supervisor restarts (checkpoint or cold).
    pub const RESTARTS: &str = "serve.restarts";
    /// Frames rejected for a mid-stream shape mismatch.
    pub const REJECTED: &str = "serve.rejected";
    /// Degraded frames charged against the session budget.
    pub const DEGRADED: &str = "serve.degraded";
    /// Stall strikes recorded against an idle producer.
    pub const STALLS: &str = "serve.stalls";

    /// Every key, for pre-warming a registry so the supervisor's hot
    /// paths never insert (allocation-free rejects).
    pub const ALL: [&str; 8] = [
        FRAMES,
        SHEDS,
        DEADLINE_MISSES,
        PANICS,
        RESTARTS,
        REJECTED,
        DEGRADED,
        STALLS,
    ];
}

/// Static span names for the segmentation stage kernels, shared by the
/// profiling hooks ([`Profiler`]) and the bench harness so stage
/// attribution survives refactors of either side.
pub mod spans {
    /// Fused background subtraction + Eq. 1 shadow predicate.
    pub const SEGMENT_EXTRACT: &str = "segment.extract";
    /// 8-neighbour vote noise filter.
    pub const SEGMENT_DENOISE: &str = "segment.denoise";
    /// Small-spot removal (labelling + area filter).
    pub const SEGMENT_DESPOT: &str = "segment.despot";
    /// Motion-based ghost suppression.
    pub const SEGMENT_DEGHOST: &str = "segment.deghost";
    /// Hole filling.
    pub const SEGMENT_FILL: &str = "segment.fill";
    /// Shadow mask assembly and final-mask subtraction.
    pub const SEGMENT_SHADOW: &str = "segment.shadow";

    /// All segmentation stage spans in pipeline order.
    pub const SEGMENT_STAGES: [&str; 6] = [
        SEGMENT_EXTRACT,
        SEGMENT_DENOISE,
        SEGMENT_DESPOT,
        SEGMENT_DEGHOST,
        SEGMENT_FILL,
        SEGMENT_SHADOW,
    ];
}

// ---------------------------------------------------------------------
// Deterministic span data
// ---------------------------------------------------------------------

/// One frame's segmentation span: the pixel population after every
/// stage of the Section-2 pipeline. Derived from the stage masks alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SegmentObs {
    /// Foreground pixels after raw background subtraction.
    pub raw_px: u64,
    /// After the 8-neighbour noise vote.
    pub denoised_px: u64,
    /// After small-spot removal.
    pub despotted_px: u64,
    /// After ghost suppression.
    pub deghosted_px: u64,
    /// Connected components examined by the ghost stage (0 when the
    /// stage is disabled or on the first frame).
    pub ghost_components: u64,
    /// Components classified as ghosts and removed.
    pub ghosts_removed: u64,
    /// After hole filling.
    pub filled_px: u64,
    /// Pixels classified as shadow by Eq. 1.
    pub shadow_px: u64,
    /// The final silhouette.
    pub final_px: u64,
}

/// One frame's GA tracking span. Every field is a fact of the seeded
/// GA's control flow: unique-genome counts are memo set sizes, and the
/// branch-and-bound statistics are recomputed from the winning pose
/// alone.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TrackObs {
    /// GA generations run for this frame (all rungs of the winner's
    /// run; 0 for frame 0 and synthesised frames).
    pub generations: u64,
    /// Fitness requests billed to this frame (memo hits included).
    pub evaluations: u64,
    /// Distinct genomes actually evaluated (memo insertions across all
    /// rungs; 0 when the memo is disabled).
    pub unique_genomes: u64,
    /// Fitness evaluations the memo avoided: requests minus distinct
    /// genomes (0 when the memo is disabled).
    pub memo_saved: u64,
    /// Exact Eq. 3 stick evaluations when scoring the frame's final
    /// pose with the branch-and-bound path.
    pub bb_candidates: u64,
    /// Stick evaluations the branch-and-bound skipped on that same
    /// scoring pass. `bb_candidates + bb_pruned = 8 × pixels`.
    pub bb_pruned: u64,
    /// Recovery-ladder rungs that completed a GA run for this frame.
    pub rungs_attempted: u64,
    /// The recovery rung that produced the estimate: `none`, `widened`,
    /// `cold_restart`, `interpolated` or `carried`.
    pub recovery: String,
}

impl TrackObs {
    /// Fraction of branch-and-bound stick tests pruned on the winning
    /// pose's scoring pass (0 when nothing was scored).
    pub fn prune_rate(&self) -> f64 {
        let total = self.bb_candidates + self.bb_pruned;
        if total == 0 {
            0.0
        } else {
            self.bb_pruned as f64 / total as f64
        }
    }
}

/// One frame's spans: segmentation + tracking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameObs {
    /// Frame index within the clip.
    pub frame: u64,
    /// The segmentation stage span.
    pub segment: SegmentObs,
    /// The GA tracking span.
    pub track: TrackObs,
}

/// One rule's scoring span: its stage window and how much of it the
/// confidence mask removed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleObs {
    /// Rule name, `R1`–`R7`.
    pub rule: String,
    /// The stage whose window was examined.
    pub stage: String,
    /// Window start frame (inclusive).
    pub window_start: u64,
    /// Window end frame (exclusive).
    pub window_end: u64,
    /// Frames that entered the extremum after masking.
    pub considered: u64,
    /// Frames excluded by the confidence mask.
    pub masked: u64,
    /// The verdict: `satisfied`, `violated` or `masked`.
    pub verdict: String,
    /// The aggregated observed value, degrees; `None` when the window
    /// was fully masked.
    pub observed: Option<f64>,
}

/// A whole clip's span data: the in-memory collector exposed on
/// `JumpAnalysis` / `AnalysisReport`, and the single source for both
/// the JSONL trace and the metrics registry.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClipObs {
    /// Per-frame spans, in frame order.
    pub frames: Vec<FrameObs>,
    /// Per-rule scoring spans, in table order.
    pub rules: Vec<RuleObs>,
}

/// JSONL record construction (private). The per-line key order is the
/// schema, fixed here explicitly: the vendored serde derive supports
/// neither `flatten` nor lifetime-parameterised structs, so each record
/// is built as an insertion-ordered [`serde::Value::Object`] directly.
mod records {
    use serde::{Serialize, Value};

    fn object(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    pub fn header(schema: &str, frames: u64, rules: u64) -> Value {
        object(vec![
            ("schema", Value::Str(schema.to_owned())),
            ("frames", Value::U64(frames)),
            ("rules", Value::U64(rules)),
        ])
    }

    pub fn segment(frame: u64, s: &super::SegmentObs) -> Value {
        object(vec![
            ("span", Value::Str("frame.segment".to_owned())),
            ("frame", Value::U64(frame)),
            ("raw_px", Value::U64(s.raw_px)),
            ("denoised_px", Value::U64(s.denoised_px)),
            ("despotted_px", Value::U64(s.despotted_px)),
            ("deghosted_px", Value::U64(s.deghosted_px)),
            ("ghost_components", Value::U64(s.ghost_components)),
            ("ghosts_removed", Value::U64(s.ghosts_removed)),
            ("filled_px", Value::U64(s.filled_px)),
            ("shadow_px", Value::U64(s.shadow_px)),
            ("final_px", Value::U64(s.final_px)),
        ])
    }

    pub fn track(frame: u64, t: &super::TrackObs) -> Value {
        object(vec![
            ("span", Value::Str("frame.track".to_owned())),
            ("frame", Value::U64(frame)),
            ("generations", Value::U64(t.generations)),
            ("evaluations", Value::U64(t.evaluations)),
            ("unique_genomes", Value::U64(t.unique_genomes)),
            ("memo_saved", Value::U64(t.memo_saved)),
            ("bb_candidates", Value::U64(t.bb_candidates)),
            ("bb_pruned", Value::U64(t.bb_pruned)),
            ("rungs_attempted", Value::U64(t.rungs_attempted)),
            ("recovery", Value::Str(t.recovery.clone())),
        ])
    }

    pub fn rule(r: &super::RuleObs) -> Value {
        object(vec![
            ("span", Value::Str("score.rule".to_owned())),
            ("rule", Value::Str(r.rule.clone())),
            ("stage", Value::Str(r.stage.clone())),
            ("window_start", Value::U64(r.window_start)),
            ("window_end", Value::U64(r.window_end)),
            ("considered", Value::U64(r.considered)),
            ("masked", Value::U64(r.masked)),
            ("verdict", Value::Str(r.verdict.clone())),
            ("observed", r.observed.to_value()),
        ])
    }
}

impl ClipObs {
    /// Renders the clip as a `slj-trace/1` JSONL document: a header
    /// line, two lines per frame (segment, track) in frame order, one
    /// line per rule in table order. Deterministic byte-for-byte for a
    /// given analysis result — no timings, thread counts or host
    /// details are recorded.
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, line: String| {
            out.push_str(&line);
            out.push('\n');
        };
        push(
            &mut out,
            serde_json::to_string(&records::header(
                TRACE_SCHEMA,
                self.frames.len() as u64,
                self.rules.len() as u64,
            ))
            .expect("trace header serialises"),
        );
        for f in &self.frames {
            push(
                &mut out,
                serde_json::to_string(&records::segment(f.frame, &f.segment))
                    .expect("segment span serialises"),
            );
            push(
                &mut out,
                serde_json::to_string(&records::track(f.frame, &f.track))
                    .expect("track span serialises"),
            );
        }
        for r in &self.rules {
            push(
                &mut out,
                serde_json::to_string(&records::rule(r)).expect("rule span serialises"),
            );
        }
        out
    }

    /// Aggregates the clip's spans into the deterministic metrics
    /// registry. Aggregation folds in frame order over deterministic
    /// span data, so the rendered registry is byte-identical run to
    /// run.
    pub fn metrics(&self) -> MetricsRegistry {
        /// Generations-per-frame buckets (upper bounds; +inf implied).
        const GENERATION_BOUNDS: &[u64] = &[0, 2, 4, 8, 16, 32, 64];
        /// Final-silhouette-size buckets, pixels.
        const SILHOUETTE_BOUNDS: &[u64] = &[500, 1000, 2000, 4000, 8000, 16000, 32000];

        let mut m = MetricsRegistry::default();
        m.inc("segment.frames", self.frames.len() as u64);
        for f in &self.frames {
            m.inc("segment.final_px", f.segment.final_px);
            m.inc("segment.shadow_px", f.segment.shadow_px);
            m.inc("segment.ghost_components", f.segment.ghost_components);
            m.inc("segment.ghosts_removed", f.segment.ghosts_removed);
            m.observe(
                "segment.final_px.hist",
                SILHOUETTE_BOUNDS,
                f.segment.final_px,
            );
            m.inc("track.generations", f.track.generations);
            m.inc("track.evaluations", f.track.evaluations);
            m.inc("track.unique_genomes", f.track.unique_genomes);
            m.inc("track.memo_saved", f.track.memo_saved);
            m.inc("track.bb_candidates", f.track.bb_candidates);
            m.inc("track.bb_pruned", f.track.bb_pruned);
            m.inc("track.rungs_attempted", f.track.rungs_attempted);
            m.observe(
                "track.generations.hist",
                GENERATION_BOUNDS,
                f.track.generations,
            );
            let rung = match f.track.recovery.as_str() {
                "widened" => "track.recovery.widened",
                "cold_restart" => "track.recovery.cold_restart",
                "interpolated" => "track.recovery.interpolated",
                "carried" => "track.recovery.carried",
                _ => "track.recovery.none",
            };
            m.inc(rung, 1);
        }
        m.inc("score.rules", self.rules.len() as u64);
        for r in &self.rules {
            let verdict = match r.verdict.as_str() {
                "satisfied" => "score.satisfied",
                "violated" => "score.violated",
                _ => "score.masked",
            };
            m.inc(verdict, 1);
            m.inc("score.masked_frames", r.masked);
        }
        m
    }
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

/// A fixed-bound histogram over `u64` observations: `bounds[i]` is the
/// inclusive upper edge of bucket `i`, with one overflow bucket above
/// the last bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Vec<u64>,
    sum: u64,
    total: u64,
}

impl Histogram {
    /// An empty histogram with the given static bucket bounds.
    pub fn new(bounds: &'static [u64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            total: 0,
        }
    }

    /// Folds another histogram into this one bucket-wise.
    ///
    /// # Panics
    ///
    /// Panics when the bucket bounds differ — merging histograms of
    /// different shapes is a schema bug, not data.
    pub fn absorb(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "absorbing histograms with different bounds"
        );
        for (count, more) in self.counts.iter_mut().zip(&other.counts) {
            *count += more;
        }
        self.sum += other.sum;
        self.total += other.total;
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        self.sum += value;
        self.total += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Bucket edges and counts, in order; the final entry is the
    /// overflow bucket (edge `None`).
    pub fn buckets(&self) -> impl Iterator<Item = (Option<u64>, u64)> + '_ {
        self.bounds
            .iter()
            .map(|&b| Some(b))
            .chain(std::iter::once(None))
            .zip(self.counts.iter().copied())
    }
}

/// Monotonic counters and histograms keyed by static names.
///
/// Keys are `&'static str` by design: a metric name is part of the
/// schema, not data, and the `BTreeMap` keeps iteration (and therefore
/// [`MetricsRegistry::render`]) in one deterministic order regardless
/// of insertion order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// Adds `by` to the named monotonic counter (creating it at 0).
    pub fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// The named counter's value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records one observation into the named histogram, creating it
    /// with the given bounds on first use.
    pub fn observe(&mut self, name: &'static str, bounds: &'static [u64], value: u64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Folds another registry into this one: counters add, histograms
    /// (same bounds) merge bucket-wise. `slj-serve` uses this to roll a
    /// retired session's counters into a service-lifetime aggregate, so
    /// recycling session slots never loses observability data.
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        for (name, value) in other.counters() {
            self.inc(name, value);
        }
        for (&name, histogram) in &other.histograms {
            match self.histograms.entry(name) {
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    slot.get_mut().absorb(histogram);
                }
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(histogram.clone());
                }
            }
        }
    }

    /// Renders the registry as a deterministic text block (names in
    /// lexicographic order, integer-exact values).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "metrics ({TRACE_SCHEMA})");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "  {name} = {value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "  {name}: count {}, sum {}, mean {:.1}",
                h.count(),
                h.sum(),
                h.mean()
            );
            for (edge, count) in h.buckets() {
                match edge {
                    Some(e) => {
                        let _ = writeln!(out, "    le {e} = {count}");
                    }
                    None => {
                        let _ = writeln!(out, "    le inf = {count}");
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Profiling hooks
// ---------------------------------------------------------------------

/// Wall-clock span accumulator: the profiling side of the span API.
///
/// Stage kernels report durations against the static span names in
/// [`spans`]; the bench harness sums, merges and reads them back. Wall
/// time is inherently non-deterministic, so a `Profiler` never feeds
/// the trace or the metrics registry — it exists for perf attribution
/// only.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    slots: BTreeMap<&'static str, Duration>,
}

impl Profiler {
    /// Adds `elapsed` to the named span.
    pub fn record(&mut self, span: &'static str, elapsed: Duration) {
        *self.slots.entry(span).or_default() += elapsed;
    }

    /// Runs `work`, billing its wall time to the named span.
    pub fn time<T>(&mut self, span: &'static str, work: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = work();
        self.record(span, start.elapsed());
        out
    }

    /// Accumulated time of one span (zero when never recorded).
    pub fn get(&self, span: &str) -> Duration {
        self.slots.get(span).copied().unwrap_or_default()
    }

    /// Accumulated time of one span, milliseconds.
    pub fn ms(&self, span: &str) -> f64 {
        self.get(span).as_secs_f64() * 1e3
    }

    /// Sum of every span.
    pub fn total(&self) -> Duration {
        self.slots.values().sum()
    }

    /// Merges another profiler's spans into this one (used to combine
    /// per-worker profilers after a parallel fan-out).
    pub fn absorb(&mut self, other: &Profiler) {
        for (&span, &d) in &other.slots {
            self.record(span, d);
        }
    }

    /// All spans in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Duration)> + '_ {
        self.slots.iter().map(|(&k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_clip() -> ClipObs {
        ClipObs {
            frames: vec![
                FrameObs {
                    frame: 0,
                    segment: SegmentObs {
                        raw_px: 120,
                        denoised_px: 110,
                        despotted_px: 100,
                        deghosted_px: 100,
                        ghost_components: 2,
                        ghosts_removed: 1,
                        filled_px: 105,
                        shadow_px: 5,
                        final_px: 100,
                    },
                    track: TrackObs {
                        generations: 0,
                        evaluations: 1,
                        unique_genomes: 0,
                        memo_saved: 0,
                        bb_candidates: 150,
                        bb_pruned: 650,
                        rungs_attempted: 0,
                        recovery: "none".into(),
                    },
                },
                FrameObs {
                    frame: 1,
                    segment: SegmentObs {
                        final_px: 90,
                        ..SegmentObs::default()
                    },
                    track: TrackObs {
                        generations: 9,
                        evaluations: 400,
                        unique_genomes: 240,
                        memo_saved: 160,
                        bb_candidates: 130,
                        bb_pruned: 590,
                        rungs_attempted: 2,
                        recovery: "widened".into(),
                    },
                },
            ],
            rules: vec![
                RuleObs {
                    rule: "R1".into(),
                    stage: "initiation".into(),
                    window_start: 0,
                    window_end: 1,
                    considered: 1,
                    masked: 0,
                    verdict: "satisfied".into(),
                    observed: Some(72.5),
                },
                RuleObs {
                    rule: "R7".into(),
                    stage: "air/landing".into(),
                    window_start: 1,
                    window_end: 2,
                    considered: 0,
                    masked: 1,
                    verdict: "masked".into(),
                    observed: None,
                },
            ],
        }
    }

    #[test]
    fn trace_is_schema_tagged_jsonl() {
        let trace = sample_clip().render_trace();
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!(lines.len(), 1 + 2 * 2 + 2);
        assert!(
            lines[0].contains("\"schema\":\"slj-trace/1\""),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"span\":\"frame.segment\""));
        assert!(lines[2].contains("\"span\":\"frame.track\""));
        assert!(lines[5].contains("\"span\":\"score.rule\""));
        // A fully-masked rule serialises its observation as null.
        assert!(lines[6].contains("\"observed\":null"), "{}", lines[6]);
    }

    #[test]
    fn trace_rendering_is_reproducible() {
        let clip = sample_clip();
        assert_eq!(clip.render_trace(), clip.render_trace());
        assert_eq!(clip.metrics().render(), clip.metrics().render());
    }

    #[test]
    fn metrics_aggregate_in_frame_order_independent_fashion() {
        let clip = sample_clip();
        let m = clip.metrics();
        assert_eq!(m.counter("segment.frames"), 2);
        assert_eq!(m.counter("segment.final_px"), 190);
        assert_eq!(m.counter("track.evaluations"), 401);
        assert_eq!(m.counter("track.memo_saved"), 160);
        assert_eq!(m.counter("track.recovery.none"), 1);
        assert_eq!(m.counter("track.recovery.widened"), 1);
        assert_eq!(m.counter("score.satisfied"), 1);
        assert_eq!(m.counter("score.masked"), 1);
        let h = m.histogram("track.generations.hist").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 9);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1, 10]);
        for v in [0, 1, 5, 11, 100] {
            h.observe(v);
        }
        let buckets: Vec<(Option<u64>, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(Some(1), 2), (Some(10), 1), (None, 2)]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 117);
    }

    #[test]
    fn registry_absorb_folds_counters_and_histograms() {
        let mut a = MetricsRegistry::default();
        a.inc("serve.frames", 3);
        a.observe("h", &[1, 10], 5);
        let mut b = MetricsRegistry::default();
        b.inc("serve.frames", 4);
        b.inc("serve.sheds", 1);
        b.observe("h", &[1, 10], 50);
        b.observe("other", &[2], 1);
        a.absorb(&b);
        assert_eq!(a.counter("serve.frames"), 7);
        assert_eq!(a.counter("serve.sheds"), 1);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 55);
        let buckets: Vec<(Option<u64>, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(Some(1), 0), (Some(10), 1), (None, 1)]);
        assert_eq!(a.histogram("other").unwrap().count(), 1);
    }

    #[test]
    fn registry_render_is_name_ordered() {
        let mut m = MetricsRegistry::default();
        m.inc("zzz", 1);
        m.inc("aaa", 2);
        let text = m.render();
        let a = text.find("aaa").unwrap();
        let z = text.find("zzz").unwrap();
        assert!(a < z, "{text}");
    }

    #[test]
    fn profiler_accumulates_and_absorbs() {
        let mut a = Profiler::default();
        a.record(spans::SEGMENT_EXTRACT, Duration::from_millis(2));
        a.record(spans::SEGMENT_EXTRACT, Duration::from_millis(3));
        let mut b = Profiler::default();
        b.record(spans::SEGMENT_EXTRACT, Duration::from_millis(5));
        b.record(spans::SEGMENT_FILL, Duration::from_millis(1));
        a.absorb(&b);
        assert_eq!(a.get(spans::SEGMENT_EXTRACT), Duration::from_millis(10));
        assert_eq!(a.get(spans::SEGMENT_FILL), Duration::from_millis(1));
        assert_eq!(a.total(), Duration::from_millis(11));
        let out = a.time("timed", || 7);
        assert_eq!(out, 7);
        assert!(a.iter().any(|(name, _)| name == "timed"));
    }

    #[test]
    fn prune_rate_is_guarded() {
        let t = TrackObs::default();
        assert_eq!(t.prune_rate(), 0.0);
        let t = TrackObs {
            bb_candidates: 1,
            bb_pruned: 3,
            ..TrackObs::default()
        };
        assert_eq!(t.prune_rate(), 0.75);
    }
}
