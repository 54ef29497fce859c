//! `perf_stack compare`: the parent-versus-change rule, per workload and
//! end-to-end metric.
//!
//! A change *improved* a metric when it wins at least nine tenths of the
//! seed-matched pairs (ties count for neither side) and its median beats
//! the parent's by more than the parent's own interquartile range. It
//! *regressed* when its median is worse than the parent's by more than
//! the metric's bound from `BENCHMARK.json`. Otherwise it is
//! *unresolved* when the parent's spread is wider than the bound (unless
//! every change run beats every parent run), and *unchanged* when not.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Deserialize;

use crate::record::Record;
use crate::stats::{median, quartiles};

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (rates).
    Higher,
}

impl Better {
    /// `x` is strictly better than `y`.
    pub fn beats(self, x: f64, y: f64) -> bool {
        match self {
            Better::Lower => x < y,
            Better::Higher => x > y,
        }
    }

    /// How much better `x` is than `y` (negative when worse).
    pub fn gain(self, x: f64, y: f64) -> f64 {
        match self {
            Better::Lower => y - x,
            Better::Higher => x - y,
        }
    }
}

/// One end-to-end metric's rule inputs from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Direction.
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds from a `BENCHMARK.json`.
///
/// # Errors
///
/// An unreadable file or an entry that does not parse.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    #[derive(Deserialize)]
    struct Entry {
        name: String,
        better: String,
        bound: f64,
    }
    #[derive(Deserialize)]
    struct Benchmark {
        end_to_end: Vec<Entry>,
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let benchmark: Benchmark =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    benchmark
        .end_to_end
        .into_iter()
        .map(|e| {
            let better = match e.better.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("{}: better = {other:?}", e.name)),
            };
            Ok(Bound {
                name: e.name,
                better,
                bound: e.bound,
            })
        })
        .collect()
}

/// The rule's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Won ≥ 9/10 of pairs by more than the parent's spread.
    Improved,
    /// Within the bound, and the bound is wider than the spread.
    Unchanged,
    /// Worse than the parent's median by more than the bound.
    Regressed,
    /// Within the bound, but the parent's spread exceeds it.
    Unresolved,
}

impl Verdict {
    /// The printed name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Both sides of one metric, summarised.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    /// Parent median, first and third quartile.
    pub parent: (f64, f64, f64),
    /// Change median, first and third quartile.
    pub change: (f64, f64, f64),
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

fn summary(values: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = if values.len() >= 2 {
        quartiles(values)
    } else {
        (values[0], values[0])
    };
    (median(values), q1, q3)
}

/// Applies the rule to one metric: `pairs` holds (parent, change)
/// values from runs made with the same seed.
///
/// # Panics
///
/// With no pairs.
pub fn judge(pairs: &[(f64, f64)], better: Better, bound: f64) -> Judgement {
    let parent_values: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change_values: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let parent = summary(&parent_values);
    let change = summary(&change_values);
    let wins = pairs.iter().filter(|(p, c)| better.beats(*c, *p)).count();
    let gain = better.gain(change.0, parent.0);
    let parent_iqr = parent.2 - parent.1;
    let scale = parent.0.abs();
    let verdict = if wins * 10 >= pairs.len() * 9 && gain > parent_iqr && gain > 0.0 {
        Verdict::Improved
    } else if -gain > bound * scale {
        Verdict::Regressed
    } else if parent_iqr > bound * scale
        && !change_values
            .iter()
            .all(|c| parent_values.iter().all(|p| better.beats(*c, *p)))
    {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Judgement {
        parent,
        change,
        wins,
        pairs: pairs.len(),
        verdict,
    }
}

/// Compares a change record against the parent's: one block per
/// workload, then one summary row per workload. Returns the report and
/// whether anything regressed.
///
/// # Errors
///
/// Records made on different hosts or clips, or with no runs of a
/// workload in common.
pub fn compare(
    parent: &Record,
    change: &Record,
    bounds: &[Bound],
) -> Result<(String, bool), String> {
    if parent.host.host_threads != change.host.host_threads {
        return Err(format!(
            "host_threads differ ({} vs {}); runs are not comparable",
            parent.host.host_threads, change.host.host_threads
        ));
    }
    // workload -> seed -> (parent runs, change runs), untraced only. The
    // k-th parent run of a seed pairs with the k-th change run of it.
    let mut by_workload: BTreeMap<&str, BTreeMap<u64, [Vec<usize>; 2]>> = BTreeMap::new();
    for (side, record) in [parent, change].into_iter().enumerate() {
        for (i, run) in record.runs.iter().enumerate().filter(|(_, r)| !r.trace) {
            by_workload
                .entry(&run.workload)
                .or_default()
                .entry(run.seed)
                .or_default()[side]
                .push(i);
        }
    }
    let mut out = String::new();
    let mut rows = String::new();
    let mut regressed = false;
    for (workload, seeds) in &by_workload {
        let matched: Vec<(usize, usize)> = seeds
            .values()
            .flat_map(|[p, c]| p.iter().copied().zip(c.iter().copied()))
            .collect();
        if matched.is_empty() {
            rows.push_str(&format!("{workload:<20} no seed-matched runs\n"));
            continue;
        }
        for &(p, c) in &matched {
            if parent.runs[p].clip != change.runs[c].clip {
                return Err(format!("{workload}: clips differ; runs are not comparable"));
            }
        }
        out.push_str(&format!(
            "{workload} ({} seed-matched pairs)\n",
            matched.len()
        ));
        let mut verdicts: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for b in bounds {
            let pairs: Option<Vec<(f64, f64)>> = matched
                .iter()
                .map(|&(p, c)| {
                    Some((
                        parent.runs[p].metrics.get(&b.name)?.value,
                        change.runs[c].metrics.get(&b.name)?.value,
                    ))
                })
                .collect();
            let Some(pairs) = pairs else { continue };
            let j = judge(&pairs, b.better, b.bound);
            out.push_str(&format!(
                "  {:<24} parent {:>10.4} [{:.4}, {:.4}]  change {:>10.4} [{:.4}, {:.4}]  \
                 won {}/{}  parent IQR {:.4}  bound {:.0}%  {}\n",
                b.name,
                j.parent.0,
                j.parent.1,
                j.parent.2,
                j.change.0,
                j.change.1,
                j.change.2,
                j.wins,
                j.pairs,
                j.parent.2 - j.parent.1,
                b.bound * 100.0,
                j.verdict.name()
            ));
            regressed |= j.verdict == Verdict::Regressed;
            verdicts.entry(j.verdict.name()).or_default().push(&b.name);
        }
        let row: Vec<String> = ["improved", "regressed", "unresolved", "unchanged"]
            .iter()
            .filter_map(|v| {
                verdicts
                    .get(v)
                    .map(|names| format!("{v}: {}", names.join(", ")))
            })
            .collect();
        rows.push_str(&format!("{workload:<20} {}\n", row.join("; ")));
    }
    out.push('\n');
    out.push_str(&rows);
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(parent: &[f64], change: &[f64]) -> Vec<(f64, f64)> {
        parent.iter().copied().zip(change.iter().copied()).collect()
    }

    #[test]
    fn nine_of_ten_wins_beyond_the_spread_is_an_improvement() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.0,
        ];
        let mut change: Vec<f64> = parent.iter().map(|p| p - 5.0).collect();
        change[3] = 101.0; // one loss
        let j = judge(&pairs(&parent, &change), Better::Lower, 0.05);
        assert_eq!((j.wins, j.pairs), (9, 10));
        assert_eq!(j.verdict, Verdict::Improved);
        // Two losses: 8/10 is not enough, and the change is within the
        // bound, so nothing is claimed.
        change[4] = 101.0;
        let j = judge(&pairs(&parent, &change), Better::Lower, 0.05);
        assert_eq!(j.wins, 8);
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = [10.0; 10];
        let mut change = [10.0; 10];
        let j = judge(&pairs(&parent, &change), Better::Higher, 0.05);
        assert_eq!(j.wins, 0);
        assert_eq!(j.verdict, Verdict::Unchanged);
        // Nine wins and one tie: still nine tenths.
        for c in change.iter_mut().skip(1) {
            *c = 11.0;
        }
        let j = judge(&pairs(&parent, &change), Better::Higher, 0.05);
        assert_eq!(j.wins, 9);
        assert_eq!(j.verdict, Verdict::Improved);
    }

    #[test]
    fn worse_by_more_than_the_bound_regresses() {
        let parent = [100.0, 101.0, 99.0, 100.0, 100.0];
        let change = [108.0, 107.0, 109.0, 108.0, 108.0];
        let j = judge(&pairs(&parent, &change), Better::Lower, 0.05);
        assert_eq!(j.verdict, Verdict::Regressed);
        let j = judge(&pairs(&parent, &change), Better::Lower, 0.10);
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let parent = [
            80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0,
        ];
        let change = [
            82.0, 118.0, 92.0, 111.0, 101.0, 84.0, 116.0, 96.0, 104.0, 101.0,
        ];
        let j = judge(&pairs(&parent, &change), Better::Lower, 0.05);
        assert_eq!(j.verdict, Verdict::Unresolved);
        // Unless every change run beats every parent run.
        let change = [70.0; 10];
        let j = judge(&pairs(&parent, &change), Better::Lower, 0.05);
        assert_eq!(j.verdict, Verdict::Improved);
        let change = [78.0; 10];
        let j = judge(&pairs(&parent, &change), Better::Lower, 0.05);
        // Beats every parent run but not by more than the spread: not a
        // claimable gain, yet resolved.
        assert_eq!(j.verdict, Verdict::Unchanged);
    }
}
