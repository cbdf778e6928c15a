//! Order statistics for the benchmark's reports.
//!
//! Percentiles use the nearest-rank definition, and a tail percentile is
//! only reported when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! p99 needs at least 1000 samples. A failed, refused or shed request is
//! recorded as `f64::INFINITY`: it misses every latency limit and sorts
//! past every measured latency.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (any order) at quantile `q` in
/// `(0, 1]`: the smallest value with at least `q · n` samples at or below
/// it. `None` when fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// [`percentile`] on already ascending samples.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median with no tail rule (the middle of an odd count, the mean of the
/// two middle values of an even count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some(0.5 * (sorted[n / 2 - 1] + sorted[n / 2])),
    }
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        // 1000 samples 1..=1000: p99 is rank 990, leaving exactly 10 beyond.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // p50 of 1..=100 is rank 50.
        assert_eq!(percentile(&ramp(100), 0.5), Some(50.0));
        // Order of the input does not matter.
        let mut rev = ramp(1000);
        rev.reverse();
        assert_eq!(percentile(&rev, 0.99), Some(990.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&ramp(100), 0.0), None);
    }

    #[test]
    fn failures_sort_past_every_latency() {
        let mut s = ramp(1000);
        for v in s.iter_mut().take(20) {
            *v = f64::INFINITY;
        }
        // 20 infinite samples: the p99 rank (990) falls among them.
        assert_eq!(percentile(&s, 0.99), Some(f64::INFINITY));
        assert_eq!(percentile(&s, 0.5), Some(520.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
