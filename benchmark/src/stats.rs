//! Order statistics used by every workload and by `compare`.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), because that is what the driver computes
//! when it decides whether a metric is steady.

/// Sorted copy (ascending). NaN never occurs in measured values; if one
/// did, it sorts last rather than panicking.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Median of `xs` (mean of the two middle values for an even count).
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an ascending slice:
/// the smallest sample with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50 / p90 / p99 / p99.9 that still has at least ten
/// samples beyond it, as `(label, q)`. `None` below 20 samples, where not
/// even the median qualifies.
pub fn supported_tail(samples: usize) -> Option<(&'static str, f64)> {
    // (label, permille): integer arithmetic, so 100 samples do support
    // p90 (0.1 is not exact in binary).
    const LADDER: [(&str, usize); 4] = [("p99.9", 999), ("p99", 990), ("p90", 900), ("p50", 500)];
    LADDER
        .into_iter()
        .find(|(_, permille)| samples * (1000 - permille) / 1000 >= 10)
        .map(|(label, permille)| (label, permille as f64 / 1000.0))
}

/// First, second and third quartile, as `statistics.quantiles(xs, n=4)`.
/// `None` below two samples (Python raises there).
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median — the steadiness figure the driver holds against a bound.
pub fn quartile_spread(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    if q2 == 0.0 {
        return Some(if q3 == q1 { 0.0 } else { f64::INFINITY });
    }
    Some((q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 0.9), 5.0);
    }

    #[test]
    fn supported_tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(12), None);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20).map(|t| t.0), Some("p50"));
        assert_eq!(supported_tail(60).map(|t| t.0), Some("p50"));
        assert_eq!(supported_tail(100).map(|t| t.0), Some("p90"));
        assert_eq!(supported_tail(999).map(|t| t.0), Some("p90"));
        assert_eq!(supported_tail(1000).map(|t| t.0), Some("p99"));
        assert_eq!(supported_tail(10_000).map(|t| t.0), Some("p99.9"));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) == [4.0, 5.0, 9.0]
        assert_eq!(
            quartiles(&[2.0, 4.0, 4.0, 5.0, 7.0, 9.0, 11.0]),
            Some([4.0, 5.0, 9.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quartile_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile_spread(&v), Some(1.0));
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0, 5.0]), Some(0.0));
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), Some(0.0));
    }
}
