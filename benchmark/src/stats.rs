//! Small numeric helpers: order statistics over timing samples.

/// Samples a percentile needs beyond it before it is reported (the
/// choosing-metrics rule: the highest percentile with at least ten
/// samples past it). p50 therefore needs n >= 20, p90 n >= 100.
pub const SAMPLES_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for even counts).
/// Returns 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p < 100) of `values`, or `None` when
/// fewer than [`SAMPLES_BEYOND`] samples lie beyond it — a p90 over 54
/// points would be set by five samples, so it is not reported.
#[must_use]
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    assert!((1..100).contains(&p), "percentile must be in 1..100");
    let n = values.len();
    let rank = (n * p as usize).div_ceil(100).max(1);
    if n < rank + SAMPLES_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Inter-quartile range of `values` as a share of their median, with
/// the same quartile rule as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) — the spread the repeat check holds each
/// end-to-end metric to.
#[must_use]
pub fn iqr_share(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |k: usize| {
        // Position k*(n+1)/4 on a 1-based axis, linearly interpolated and
        // clamped to the sample range.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)).abs() / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let values: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&values, 90), None, "only 9 samples beyond p90");
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 90), Some(90.0));
        // 54 points (one fig7_apps pass) support a median but no p90.
        let values: Vec<f64> = (1..=54).map(f64::from).collect();
        assert_eq!(percentile(&values, 90), None);
        assert_eq!(percentile(&values, 50), Some(27.0));
        assert_eq!(percentile(&values[..19], 50), None);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&values) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0; 10]), 0.0);
    }
}
