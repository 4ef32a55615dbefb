//! Order statistics over the benchmark's samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` ascending samples is the sample at rank `ceil(p/100 · n)`, so the
//! samples *beyond* it number `n − rank`. A tail percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it; with
//! fewer, it would be set by a handful of outliers.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest rank (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// [`median`], or 0 for no samples (a metric whose layer did no work).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// The tail percentile to report for `n` samples: the workload's
/// `target` (e.g. 90 for runs, 99 for requests) or, when fewer than
/// [`MIN_BEYOND`] samples would lie beyond it, the highest lower ladder
/// step that keeps that many. `None` when even the median has too few.
pub fn tail_percentile(n: usize, target: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= target)
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// The tail of `samples`: its value and the percentile it was taken at
/// (`100`, the maximum, when the rule allows no lower step). `None` for no
/// samples.
pub fn tail(samples: &[f64], target: f64) -> Option<(f64, f64)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = tail_percentile(sorted.len(), target).unwrap_or(100.0);
    Some((percentile(&sorted, p), p))
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
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        // Enough samples: the workload's target holds.
        assert_eq!(tail_percentile(100, 90.0), Some(90.0));
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        // 999 samples leave only 9 beyond p99: step down to p95.
        assert_eq!(tail_percentile(999, 99.0), Some(95.0));
        // 99 samples leave 9 beyond p90: step down to p75 (24 beyond).
        assert_eq!(tail_percentile(99, 90.0), Some(75.0));
        // The target caps the choice even with plenty of samples.
        assert_eq!(tail_percentile(100_000, 90.0), Some(90.0));
        // Too few for any tail.
        assert_eq!(tail_percentile(19, 99.0), None);
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        for n in 0..3000 {
            if let Some(p) = tail_percentile(n, 99.0) {
                assert!(samples_beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn tail_records_its_percentile() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v, 90.0), Some((180.0, 90.0)));
        assert_eq!(tail(&v[..5], 90.0), Some((5.0, 100.0)));
        assert_eq!(tail(&[], 90.0), None);
    }
}
