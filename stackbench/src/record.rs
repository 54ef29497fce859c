//! The `slj-perf-stack/1` record: every run's metrics plus a per-metric
//! summary and the host block `compare` checks.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::clips::ClipInfo;
use crate::report::{Metric, RunReport};
use crate::stats::{median, quartiles};

/// The schema tag.
pub const SCHEMA: &str = "slj-perf-stack/1";

/// Where the runs were made.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub host_threads: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory, or `unknown`.
    pub git_rev: String,
}

impl Host {
    /// This host.
    pub fn current() -> Host {
        let output = |program: &str, args: &[&str]| {
            std::process::Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
                .unwrap_or_else(|| "unknown".to_owned())
        };
        Host {
            host_threads: slj_runtime::available_threads(),
            rustc: output("rustc", &["--version"]),
            git_rev: output("git", &["rev-parse", "HEAD"]),
        }
    }
}

/// One recorded run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// Traced (per-layer) or untraced (end-to-end).
    pub trace: bool,
    /// The clip set's shape.
    pub clip: ClipInfo,
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs refused, errored or mismatched.
    pub failed: usize,
    /// Every metric.
    pub metrics: BTreeMap<String, Metric>,
}

impl Run {
    /// The record entry for a finished run.
    pub fn from_report(report: &RunReport) -> Run {
        Run {
            workload: report.workload.clone(),
            seed: report.seed,
            trace: report.trace,
            clip: report.clip.clone(),
            attempted: report.tally.attempted,
            failed: report.tally.failed(),
            metrics: report.metrics.iter().cloned().collect(),
        }
    }
}

/// Median and quartiles of one metric across the recorded runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryRow {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Runs summarised.
    pub runs: usize,
    /// Median over runs.
    pub median: f64,
    /// First quartile over runs.
    pub q1: f64,
    /// Third quartile over runs.
    pub q3: f64,
    /// `(q3 - q1) / |median|`: the run-to-run spread (`null` when the
    /// median is 0).
    pub iqr_share: Option<f64>,
    /// Median per-run sample count.
    pub samples: f64,
}

/// A record file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// [`SCHEMA`].
    pub schema: String,
    /// Where every run was made.
    pub host: Host,
    /// `--seconds` of every run.
    pub run_seconds: f64,
    /// The runs, in the order they were made.
    pub runs: Vec<Run>,
    /// Per workload and metric, over all runs (with two or more).
    pub summary: Vec<SummaryRow>,
}

impl Record {
    /// Reads a record.
    ///
    /// # Errors
    ///
    /// An unreadable or unparsable file, or another schema.
    pub fn load(path: &Path) -> Result<Record, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let record: Record =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if record.schema != SCHEMA {
            return Err(format!(
                "{}: schema {} is not {SCHEMA}",
                path.display(),
                record.schema
            ));
        }
        Ok(record)
    }

    /// Appends `run` to the record at `path` (creating it), refusing
    /// to mix hosts or run lengths, and rewrites the summary.
    ///
    /// # Errors
    ///
    /// A mismatched existing record, or an I/O failure.
    pub fn append(path: &Path, run: Run, run_seconds: f64) -> Result<(), String> {
        let host = Host::current();
        let mut record = if path.exists() {
            Record::load(path)?
        } else {
            Record {
                schema: SCHEMA.to_owned(),
                host: host.clone(),
                run_seconds,
                runs: Vec::new(),
                summary: Vec::new(),
            }
        };
        if record.host != host || record.run_seconds != run_seconds {
            return Err(format!(
                "{} holds runs from another host, build or run length; start a new record",
                path.display()
            ));
        }
        record.runs.push(run);
        record.summary = summarize(&record.runs);
        let json = serde_json::to_string_pretty(&record).expect("record serialises");
        std::fs::write(path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Per-(workload, metric) medians and quartiles over every run that
/// reports the metric, for pairs with at least two runs.
pub fn summarize(runs: &[Run]) -> Vec<SummaryRow> {
    let mut by_key: BTreeMap<(&str, &str), Vec<&Metric>> = BTreeMap::new();
    for run in runs {
        for (name, m) in &run.metrics {
            by_key.entry((&run.workload, name)).or_default().push(m);
        }
    }
    by_key
        .into_iter()
        .filter(|(_, metrics)| metrics.len() >= 2)
        .map(|((workload, metric), metrics)| {
            let values: Vec<f64> = metrics.iter().map(|m| m.value).collect();
            let samples: Vec<f64> = metrics.iter().map(|m| m.samples as f64).collect();
            let (q1, q3) = quartiles(&values);
            let mid = median(&values);
            SummaryRow {
                workload: workload.to_owned(),
                metric: metric.to_owned(),
                unit: metrics[0].unit.clone(),
                runs: values.len(),
                median: mid,
                q1,
                q3,
                iqr_share: (mid != 0.0).then(|| (q3 - q1) / mid.abs()),
                samples: median(&samples),
            }
        })
        .collect()
}
