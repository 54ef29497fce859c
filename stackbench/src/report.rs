//! One run's metrics: the console table and the one-line JSON result.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::clips::ClipInfo;
use crate::load::Tally;

/// One reported number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
    /// How many samples it summarises.
    pub samples: usize,
}

/// What one `--workload` run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The workload's name.
    pub workload: String,
    /// The seed its inputs came from.
    pub seed: u64,
    /// Whether this was the traced (per-layer) run.
    pub trace: bool,
    /// The shape of the clips the run submitted.
    pub clip: ClipInfo,
    /// Every job by outcome.
    pub tally: Tally,
    /// The metrics, in reporting order.
    pub metrics: Vec<(String, Metric)>,
}

impl RunReport {
    /// An empty report.
    pub fn new(workload: &str, seed: u64, trace: bool, clip: ClipInfo) -> Self {
        RunReport {
            workload: workload.to_owned(),
            seed,
            trace,
            clip,
            tally: Tally::default(),
            metrics: Vec::new(),
        }
    }

    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.metrics.push((
            name.to_owned(),
            Metric {
                value,
                unit: unit.to_owned(),
                samples,
            },
        ));
    }

    /// Every report byte-identical, every value a finite number.
    pub fn correct(&self) -> bool {
        self.tally.mismatched == 0 && self.metrics.iter().all(|(_, m)| m.value.is_finite())
    }

    /// The human-readable block: outcome counts, then one line per
    /// metric with its unit and sample count.
    pub fn table(&self) -> String {
        let t = &self.tally;
        let mut out = format!(
            "{} (seed {}, {}): {} attempted, {} succeeded, {} refused, {} errored, {} mismatched\n",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            t.attempted,
            t.succeeded,
            t.refused,
            t.errored,
            t.mismatched
        );
        for (name, m) in &self.metrics {
            out.push_str(&format!(
                "  {name:<28} {:>12.4} {:<10} n={}\n",
                m.value, m.unit, m.samples
            ));
        }
        out
    }

    /// The one-line result: `correct`, `attempted`, `failed` and each
    /// metric's value and unit.
    pub fn json_line(&self) -> String {
        #[derive(Serialize)]
        struct ValueUnit {
            value: f64,
            unit: String,
        }
        #[derive(Serialize)]
        struct Line {
            correct: bool,
            attempted: usize,
            failed: usize,
            metrics: BTreeMap<String, ValueUnit>,
        }
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    ValueUnit {
                        value: m.value,
                        unit: m.unit.clone(),
                    },
                )
            })
            .collect();
        serde_json::to_string(&Line {
            correct: self.correct(),
            attempted: self.tally.attempted,
            failed: self.tally.failed(),
            metrics,
        })
        .expect("result line serialises")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let clip = ClipInfo {
            kind: "full".into(),
            width: 4,
            height: 3,
            frames: 2,
            per_run: 1,
            request_bytes: 10,
        };
        let mut report = RunReport::new("w", 1, false, clip);
        report.tally.attempted = 3;
        report.tally.succeeded = 2;
        report.tally.refused = 1;
        report.push("latency_ms", 1.25, "ms", 2);
        let line = report.json_line();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":1,\
             \"metrics\":{\"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        report.tally.mismatched = 1;
        assert!(!report.correct());
        report.tally.mismatched = 0;
        report.push("bad", f64::NAN, "ms", 0);
        assert!(!report.correct());
    }
}
