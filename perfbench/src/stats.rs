//! Order statistics used for every reported timing.

/// Tail percentiles the benchmark may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The nearest rank (1-based) of the `p`-th percentile among `n`
/// samples. The small slack keeps `0.999 * 10000` from rounding up to
/// 9991.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// The median (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-th percentile by nearest rank: the smallest sample with at
/// least `p` percent of the samples at or below it. Returns 0 for an
/// empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(p, v.len()).clamp(1, v.len()) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it among `n` samples, or `None`
/// when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= rank(p, n) + TAIL_MIN_BEYOND)
}

/// The value a `*_p99_*` metric reports: the 99th percentile when at
/// least [`TAIL_MIN_BEYOND`] samples lie beyond it, otherwise the
/// highest percentile the sample count supports, otherwise the maximum.
/// Returns the value and the percentile used (100 for the maximum).
pub fn tail(values: &[f64]) -> (f64, f64) {
    match tail_percentile(values.len()) {
        Some(p) if p <= 99.0 => (percentile(values, p), p),
        Some(_) => (percentile(values, 99.0), 99.0),
        None => (values.iter().copied().fold(0.0, f64::max), 100.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 1000 samples: rank 990 leaves exactly ten beyond p99.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // One short: p99 would leave only nine beyond.
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn tail_reports_p99_or_the_best_supported_fallback() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (990.0, 99.0));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), (9900.0, 99.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        assert_eq!(tail(&[2.0, 5.0, 3.0]), (5.0, 100.0));
    }
}
