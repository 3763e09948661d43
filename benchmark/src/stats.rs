//! Order statistics for the benchmark: percentiles with the
//! "enough samples beyond it" rule, medians, and quartile spread.

/// Samples that must lie beyond a tail percentile within one window for it
/// to be quoted from that window (ISSUE 11: p95 needs ≥ 100 beyond it).
pub const MIN_BEYOND: usize = 100;

/// The `p`-th percentile (0 < p ≤ 100) of `sorted`, nearest-rank.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether a sample of `n` supports quoting percentile `p`: at least
/// `beyond` samples must lie strictly above the quoted rank.
pub fn supports_percentile(n: usize, p: f64, beyond: usize) -> bool {
    if n == 0 {
        return false;
    }
    let rank = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n);
    n - rank >= beyond
}

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Smallest and largest of `values`; `None` when empty.
pub fn min_max(values: &[f64]) -> Option<(f64, f64)> {
    let first = *values.first()?;
    Some(
        values
            .iter()
            .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v))),
    )
}

/// First and third quartile by the exclusive method — the numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what the
/// acceptance driver computes. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis, linearly interpolated
        // between the two neighbouring samples (clamped to real ones).
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median: the driver's spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 95.0), 95);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&[7u32], 50.0), 7);
    }

    #[test]
    fn tail_needs_enough_samples_beyond_it() {
        // p95 of 2000 samples leaves exactly 100 beyond rank 1900.
        assert!(supports_percentile(2000, 95.0, MIN_BEYOND));
        assert!(!supports_percentile(1999, 95.0, MIN_BEYOND));
        assert!(supports_percentile(200, 50.0, MIN_BEYOND));
        assert!(!supports_percentile(0, 50.0, 0));
    }

    #[test]
    fn median_and_extremes() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(min_max(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // outer cut points extrapolate past a two-value sample.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert!(quartiles(&[5.0]).is_none());
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
