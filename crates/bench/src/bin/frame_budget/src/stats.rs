//! Exact order statistics over the benchmark's own samples.
//!
//! Percentiles are taken from the sorted samples by nearest rank, never
//! interpolated inside histogram buckets, and are given in whole
//! percent so that a rank never depends on float rounding.

/// Samples beyond the tail percentile the benchmark requires.
pub const TAIL_BEYOND: usize = 10;

/// The nearest-rank `pct`-th percentile of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice or a percentile outside `1..=100`.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    sorted[rank(sorted.len(), pct) - 1]
}

/// The 1-based nearest rank of the `pct`-th percentile among `n`
/// samples: `ceil(pct · n / 100)`, at least 1.
fn rank(n: usize, pct: u32) -> usize {
    ((pct as usize * n).div_ceil(100)).max(1)
}

/// Samples strictly beyond the `pct`-th percentile of `n`.
pub fn beyond(n: usize, pct: u32) -> usize {
    n - rank(n, pct).min(n)
}

/// The highest whole percentile of `n` samples that leaves at least
/// [`TAIL_BEYOND`] samples beyond it, or `None` when `n` is too small
/// for any. Workload tail percentiles are fixed constants chosen by it.
#[cfg(test)]
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..=99).rev().find(|&pct| beyond(n, pct) >= TAIL_BEYOND)
}

/// The `pct`-th percentile of served latencies with `failed` requests
/// counted as infinitely late, as a user who never got an answer sees
/// them.
pub fn latency_percentile(served: &[f64], failed: usize, pct: u32) -> f64 {
    let mut all: Vec<f64> = served.to_vec();
    all.extend(std::iter::repeat_n(f64::INFINITY, failed));
    sort(&mut all);
    percentile(&all, pct)
}

/// Sorts samples ascending (total order; the benchmark never produces
/// NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    sort(&mut v);
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
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&v, 1), 1.0);
        let four = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&four, 50), 2.0);
        assert_eq!(percentile(&four, 51), 3.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(101), Some(90));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(10), None);
        for n in 11..2000 {
            let pct = tail_percentile(n).expect("enough samples");
            assert!(beyond(n, pct) >= TAIL_BEYOND, "n={n} pct={pct}");
            assert!(pct == 99 || beyond(n, pct + 1) < TAIL_BEYOND, "n={n}: p{} also fits", pct + 1);
        }
    }

    #[test]
    fn failed_requests_count_as_infinitely_late() {
        let served: Vec<f64> = (1..=95).map(f64::from).collect();
        assert_eq!(latency_percentile(&served, 0, 90), 86.0);
        // Five failures out of 100 push p95 to the last served sample
        // and p96 past every served one.
        assert_eq!(latency_percentile(&served, 5, 95), 95.0);
        assert_eq!(latency_percentile(&served, 5, 96), f64::INFINITY);
        assert_eq!(latency_percentile(&[], 3, 50), f64::INFINITY);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
