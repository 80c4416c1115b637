//! Order statistics for timing samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at rank `ceil(p/100 · n)` (1-based),
//! and the samples *beyond* it are the `n − rank` larger ones. A tail
//! percentile is only reported when at least [`TAIL_MIN`] samples lie
//! beyond it; with fewer, the tail is one or two outliers, not a
//! percentile.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN: usize = 10;

/// The tail percentile timings are reported at.
pub const TAIL_P: f64 = 90.0;

/// The percentile of the gated forward time, `fwd_ms_p95`: the highest
/// of the usual reporting percentiles that every workload's run
/// supports, and across 25 s windows of forward times on the tuning host
/// the steadiest one (see `perfbench/README.md`).
pub const GATED_P: f64 = 95.0;

/// Nearest rank (1-based) of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products (99.9% of 10 000) from rounding up.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Smallest sample count that leaves [`TAIL_MIN`] samples beyond the
/// `p`-th percentile.
pub fn samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= TAIL_MIN)
        .expect("a finite count exists for p < 100")
}

/// The highest of the usual reporting percentiles that `n` samples
/// support with [`TAIL_MIN`] samples beyond it (`None` below 20 samples,
/// where even the median's upper half is thinner than that).
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= TAIL_MIN)
}

/// Whether `n` samples support the `p`-th percentile, one of the usual
/// reporting percentiles.
pub fn tail_supported(n: usize, p: f64) -> bool {
    highest_supported(n).is_some_and(|h| h >= p)
}

/// Sorted copy of `v` (NaN-free input assumed; NaNs sort last).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Nearest-rank percentile of already-sorted samples (0 for no samples).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_for(90.0), 100);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(samples_for(50.0), 20);
        assert_eq!(samples_for(GATED_P), 200);
        assert_eq!(samples_for(99.0), 1000);
        assert!(tail_supported(200, GATED_P) && !tail_supported(199, GATED_P));
        assert!(tail_supported(100, TAIL_P) && !tail_supported(99, TAIL_P));
    }

    #[test]
    fn highest_supported_keeps_ten_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(75.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        for n in 20..3000 {
            let p = highest_supported(n).unwrap();
            assert!(beyond(n, p) >= TAIL_MIN, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
