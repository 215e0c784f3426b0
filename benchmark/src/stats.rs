//! Order statistics over raw samples kept by the harness.

/// Nearest-rank quantile of an ascending slice: the smallest sample such
/// that at least `q` of the samples are at or below it.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values; the mean of the middle two when their
/// number is even, as Python's `statistics.median`.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it; above that a "percentile" is a handful of outliers.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    // In ten-thousandths, so "ten beyond" is exact integer arithmetic.
    [9_999usize, 9_990, 9_900, 9_000]
        .into_iter()
        .find(|p| samples * (10_000 - p) >= 10 * 10_000)
        .map_or(0.5, |p| p as f64 / 1e4)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (exclusive method), which is what the acceptance rule
/// for run-to-run spread uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, interpolated and clamped.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_measured_values() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(quantile(&v, 0.5), 5);
        assert_eq!(quantile(&v, 0.9), 9);
        assert_eq!(quantile(&v, 0.91), 10);
        assert_eq!(quantile(&v, 1.0), 10);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&[7u64], 0.99), 7);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(99), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(999), 0.9);
        assert_eq!(highest_supported_percentile(1_000), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
        assert_eq!(highest_supported_percentile(100_000), 0.9999);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
