//! Order statistics for latency samples and run-to-run spreads.

/// The nearest-rank percentile of an ascending slice: the smallest
/// sample with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// On an empty slice or a `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the nearest-rank percentile
/// `p` of `n` samples. A tail percentile is only reported when at least
/// ten samples lie beyond it.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The sample guard for a tail percentile: `Ok` when at least ten of
/// `n` samples lie beyond percentile `p`.
///
/// # Errors
///
/// A message naming the shortfall.
pub fn check_tail(what: &str, n: usize, p: f64) -> Result<(), String> {
    let past = beyond(n, p);
    if past >= 10 {
        Ok(())
    } else {
        Err(format!(
            "{what}: p{p} needs at least 10 samples beyond it, {n} samples leave {past}"
        ))
    }
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for even counts).
///
/// # Panics
///
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads computed here match the ones an external
/// checker computes from the same values.
///
/// # Panics
///
/// With fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // Ranks round up: the 50th percentile of 5 samples is the 3rd.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 1.0);
    }

    #[test]
    fn tail_guard_needs_ten_beyond() {
        assert_eq!(beyond(100, 90.0), 10);
        assert!(check_tail("x", 100, 90.0).is_ok());
        assert_eq!(beyond(99, 90.0), 9);
        assert!(check_tail("x", 99, 90.0).is_err());
        assert!(check_tail("x", 1000, 99.0).is_ok());
        assert!(check_tail("x", 999, 99.0).is_err());
        assert_eq!(beyond(1, 50.0), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&v), 5.5);
    }
}
