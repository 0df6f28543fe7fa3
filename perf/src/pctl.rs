//! Percentiles the way the benchmark reports them: a median plus the
//! highest percentile that still has at least ten samples beyond it,
//! always with the sample count.

/// Percentile ladder tried from the top; the first one with at least
/// [`MIN_BEYOND`] samples above it is "the tail".
const LADDER: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Summary of one latency sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest supported percentile as `(percent, value)`, or `None`
    /// when even p75 has fewer than ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

/// Nearest-rank percentile of an ascending slice (`0 < pct <= 100`).
pub fn percentile_sorted(sorted: &[u32], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    f64::from(sorted[rank(sorted.len(), pct).clamp(1, sorted.len()) - 1])
}

/// Nearest rank of `pct` among `n` samples: ⌈pct·n/100⌉, with a hair of
/// slack so 99.9 % of 10 000 is 9 990 and not 9 991 in floating point.
fn rank(n: usize, pct: f64) -> usize {
    (pct * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Samples strictly beyond the `pct` nearest-rank position.
fn beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct).min(n)
}

/// The `pct` percentile of an ascending slice, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it (so it is omitted, never
/// printed from too thin a tail).
pub fn supported(sorted: &[u32], pct: f64) -> Option<f64> {
    (!sorted.is_empty() && beyond(sorted.len(), pct) >= MIN_BEYOND)
        .then(|| percentile_sorted(sorted, pct))
}

/// Sorts `samples` in place and summarizes them; `None` when empty.
pub fn summarize(samples: &mut [u32]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let n = samples.len();
    let tail = LADDER
        .iter()
        .find(|&&p| beyond(n, p) >= MIN_BEYOND)
        .map(|&p| (p, percentile_sorted(samples, p)));
    Some(Summary {
        n,
        p50: percentile_sorted(samples, 50.0),
        tail,
    })
}

/// Median of a float sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (the "exclusive" method) gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // position k*(n+1)/4, 1-based, linearly interpolated, clamped.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank() {
        let mut s: Vec<u32> = (1..=100).collect();
        let sum = summarize(&mut s).unwrap();
        assert_eq!(sum.n, 100);
        assert_eq!(sum.p50, 50.0);
        // 100 samples: p90 leaves exactly 10 beyond it, p95 only 5.
        assert_eq!(sum.tail, Some((90.0, 90.0)));
    }

    #[test]
    fn tail_climbs_with_the_sample_count() {
        let mut s: Vec<u32> = (1..=1_000).collect();
        assert_eq!(summarize(&mut s).unwrap().tail, Some((99.0, 990.0)));
        let mut s: Vec<u32> = (1..=10_000).collect();
        assert_eq!(summarize(&mut s).unwrap().tail, Some((99.9, 9_990.0)));
        let mut s: Vec<u32> = (1..=100_000).collect();
        assert_eq!(summarize(&mut s).unwrap().tail, Some((99.99, 99_990.0)));
    }

    #[test]
    fn small_samples_report_no_tail_and_empty_reports_nothing() {
        let mut s: Vec<u32> = (1..=39).collect();
        let sum = summarize(&mut s).unwrap();
        assert_eq!(sum.p50, 20.0);
        assert_eq!(sum.tail, None, "p75 of 39 samples leaves only 9 beyond");
        let mut s: Vec<u32> = (1..=40).collect();
        assert_eq!(summarize(&mut s).unwrap().tail, Some((75.0, 30.0)));
        assert_eq!(summarize(&mut []), None);
    }

    #[test]
    fn a_fixed_percentile_needs_ten_samples_beyond_it() {
        let s: Vec<u32> = (1..=999).collect();
        assert_eq!(supported(&s, 99.0), None, "999 samples leave 9 beyond p99");
        let s: Vec<u32> = (1..=1_000).collect();
        assert_eq!(supported(&s, 99.0), Some(990.0));
        assert_eq!(supported(&[], 50.0), None);
    }

    #[test]
    fn unsorted_input_is_sorted_first() {
        let mut s = vec![9, 1, 5, 3, 7];
        assert_eq!(summarize(&mut s).unwrap().p50, 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5] → clamped ends here
        // are never used: the compare tool needs ≥ 4 runs for a spread.
        let (q1, q3) = quartiles(&[10.0, 20.0, 30.0, 40.0]);
        assert!((q1 - 12.5).abs() < 1e-12 && (q3 - 37.5).abs() < 1e-12);
    }
}
