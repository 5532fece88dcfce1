//! Summary statistics over latency samples.

use std::time::Duration;

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sorts a sample ascending (latencies are finite by construction).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The `p`-th percentile (`0..=100`) of an ascending sample, linearly
/// interpolated between the two nearest ranks. `0` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let rank = (sorted.len() - 1) as f64 * p / 100.0;
    let lo = rank.floor() as usize;
    match sorted.get(lo + 1) {
        Some(&hi) => sorted[lo] + (hi - sorted[lo]) * (rank - lo as f64),
        None => last,
    }
}

/// The median of a sample, in any order.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// The arithmetic mean; `0` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The geometric mean of positive values; `0` for an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// The percentiles a tail may be reported at, highest first, in
/// per-mille so the sample-count arithmetic stays exact.
const TAIL_LADDER_PERMILLE: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples a tail estimate must have strictly beyond it to be reported.
const TAIL_MIN_BEYOND: u64 = 10;

/// The highest percentile of the ladder (99.9, 99, 95, 90, 75, 50) that
/// has at least ten samples beyond it in a sample of `n`, or `None` when
/// even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    let n = n as u64;
    TAIL_LADDER_PERMILLE
        .iter()
        .find(|&&pm| n - (n * pm).div_ceil(1000) >= TAIL_MIN_BEYOND)
        .map(|&pm| pm as f64 / 10.0)
}

/// What a request's latency is not explained by its spans: the mean
/// end-to-end time minus the mean of every span, in the same unit, and
/// that difference as a percentage of the end-to-end mean.
pub fn residual(total_mean: f64, span_means: &[f64]) -> (f64, f64) {
    let rest = total_mean - span_means.iter().sum::<f64>();
    let pct = if total_mean > 0.0 {
        rest / total_mean * 100.0
    } else {
        0.0
    };
    (rest, pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn residual_is_what_the_spans_leave_over() {
        let (rest, pct) = residual(10.0, &[4.0, 3.0, 2.5]);
        assert!((rest - 0.5).abs() < 1e-12);
        assert!((pct - 5.0).abs() < 1e-9);
        // spans that overshoot (clock skew between nested timers) show
        // as a negative residual rather than being clamped away
        let (rest, pct) = residual(10.0, &[6.0, 6.0]);
        assert!((rest + 2.0).abs() < 1e-12);
        assert!((pct + 20.0).abs() < 1e-9);
        assert_eq!(residual(0.0, &[]), (0.0, 0.0));
    }
}
