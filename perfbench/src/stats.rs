//! Summary statistics for benchmark samples.

/// Percentiles a latency report may name, lowest first.
const REPORTABLE_PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie strictly beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// When `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First quartile, median and third quartile of `xs`, by the same
/// "exclusive" interpolation as Python's `statistics.quantiles(xs, n=4)`.
///
/// # Panics
/// When `xs` holds fewer than two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let s = sorted(xs);
    let len = s.len() as i64;
    let m = len + 1;
    [1i64, 2, 3].map(|i| {
        // Rank i·(len + 1)/4, 1-based; clamping may leave the weight
        // outside [0, 4], which extrapolates exactly as Python does.
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = i * m - j * 4;
        let j = j as usize;
        (s[j - 1] * (4 - delta) as f64 + s[j] * delta as f64) / 4.0
    })
}

/// The nearest-rank `p`-th percentile of `xs` (`0 < p <= 100`).
///
/// # Panics
/// When `xs` is empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let s = sorted(xs);
    s[nearest_rank(s.len(), p) - 1]
}

/// The highest of 50, 75, 90, 95, 99 and 99.9 whose nearest-rank position
/// among `n` samples leaves at least [`MIN_BEYOND`] samples above it; `None`
/// when even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    REPORTABLE_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - nearest_rank(n, p) >= MIN_BEYOND)
}

/// Failed operations as a share of attempted ones; a run that attempted
/// nothing counts as wholly failed.
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps float error (99.9 % of 10 000 is 9990.000000000002) from
/// bumping an exact rank up by one.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 9, 3], n=4) == [1.5, 4.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0]), [1.5, 4.0, 8.0]);
        // Clamped ranks extrapolate: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(39), Some(50.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn failed_ratio_bounds() {
        assert_eq!(failed_ratio(0, 120), 0.0);
        assert_eq!(failed_ratio(120, 120), 1.0);
        assert_eq!(failed_ratio(3, 12), 0.25);
        assert_eq!(failed_ratio(0, 0), 1.0);
    }
}
