//! Order statistics and ratios the report is built from.

/// The nearest-rank `p`th percentile of `sorted` (ascending): the
/// smallest sample with at least `p` percent of all samples at or below
/// it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// How many samples lie strictly beyond the nearest-rank `p`th
/// percentile of `len` samples.
pub fn beyond(len: usize, p: f64) -> usize {
    rank(len, p).map_or(0, |r| len - r)
}

/// A high percentile is reported only with at least this many samples
/// beyond it.
pub const MIN_BEYOND: usize = 10;

fn rank(len: usize, p: f64) -> Option<usize> {
    if len == 0 {
        return None;
    }
    let rank = (p / 100.0 * len as f64).ceil() as usize;
    Some(rank.clamp(1, len))
}

/// The median: the middle sample, or the mean of the two middle ones.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// `num / base`, or 0 when the base is 0 (nothing to divide by means
/// nothing happened, e.g. no cache lookups on a workload).
pub fn ratio(num: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        num / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_indexing() {
        let v = one_to(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // 0.99 × 1001 = 990.99 rounds up to rank 991.
        assert_eq!(percentile(&one_to(1001), 99.0), Some(991.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(0, 99.0), 0);
        assert!(beyond(1000, 99.0) >= MIN_BEYOND);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ratio_of_a_zero_base_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(28.0, 64.0), 0.4375);
    }
}
