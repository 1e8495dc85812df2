//! Order statistics shared by `run` (summaries) and `compare` (spread).

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value a share `q` (0..=1) of the samples lie at or below, linearly
/// interpolated between neighbours. Panics on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// How far the `q`-quantile of `n = xs.len()` samples can be trusted: the
/// distance between the order statistics 0.6745 standard errors of the
/// rank (`sqrt(n q (1-q))`) either side of it, which is the quartile
/// distance of that sample quantile whatever the samples' distribution.
pub fn quantile_spread(xs: &[f64], q: f64) -> f64 {
    let d = 0.6745 * (q * (1.0 - q) / xs.len() as f64).sqrt();
    quantile(xs, q + d) - quantile(xs, q - d)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the "exclusive" method), so the spread `compare` prints
/// is the one the acceptance driver computes. A single sample has no
/// spread: both quartiles are that sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample set;
/// sorts `xs` in place. 0 when empty.
pub fn percentile(xs: &mut [u64], q: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let xs: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
    }

    #[test]
    fn quantile_spread_narrows_with_more_samples_and_stays_in_range() {
        let few: Vec<f64> = (0..=10).map(f64::from).collect();
        let many: Vec<f64> = (0..=1000).map(|i| f64::from(i) / 100.0).collect();
        // Median of 0..=10: ranks 5 +- 0.6745 * 0.5 * sqrt(11) / 11 * 10.
        assert!((quantile_spread(&few, 0.5) - 2.0337).abs() < 1e-3);
        assert!(quantile_spread(&many, 0.5) < quantile_spread(&few, 0.5) / 5.0);
        // At the edge the lower rank clamps to the smallest sample.
        assert!((quantile_spread(&few, 0.02) - 0.4847).abs() < 1e-3);
        assert_eq!(quantile_spread(&[3.0], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut xs: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut xs, 0.5), 50);
        assert_eq!(percentile(&mut xs, 0.99), 99);
        assert_eq!(percentile(&mut xs, 1.0), 100);
        assert_eq!(percentile(&mut [], 0.5), 0);
        assert_eq!(percentile(&mut [42], 0.99), 42);
    }
}
