//! Order statistics of the latency samples a run collects.

/// Percentiles a run may report, highest first.
pub const LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q`-quantile among `n` samples.
///
/// The small epsilon keeps `0.99 × 1000` from rounding up to rank 991.
fn rank(n: usize, q: f64) -> usize {
    let r = (q * n as f64 - 1e-9).ceil().max(1.0) as usize;
    r.min(n)
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median is not supported.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Nearest-rank `q`-quantile of ascending `sorted` samples.
///
/// # Panics
///
/// When `sorted` is empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// When `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1_000, 0.99), 10);
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(highest_supported(999), Some(0.9));
    }

    #[test]
    fn ladder_steps_through_every_rung() {
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(9_999), Some(0.99));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 500.0);
        assert_eq!(quantile(&samples, 0.99), 990.0);
        assert_eq!(quantile(&samples, 1.0), 1_000.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
