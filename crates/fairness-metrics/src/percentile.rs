//! Exact sample percentiles (nearest-rank) over report-sized sample
//! sets, so a report need not carry its own ad-hoc sorting.

/// The nearest-rank percentile of `samples` at `q ∈ [0, 1]`: the
/// smallest sample such that at least `q` of the distribution lies at
/// or below it (`q = 0` is the minimum, `q = 1` the maximum). Returns
/// `None` on an empty slice. Not an approximation — this sorts a copy,
/// so it is for report-sized sample sets, not per-flit hot paths
/// (`desim::Histogram::quantile` covers those).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "percentile rank out of range");
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("percentile over NaN"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
    Some(sorted[rank.min(sorted.len() - 1)])
}

/// Median shorthand: `percentile(samples, 0.5)`.
pub fn p50(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Tail shorthand: `percentile(samples, 0.99)`.
pub fn p99(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_none() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(p50(&[]), None);
        assert_eq!(p99(&[]), None);
    }

    #[test]
    fn nearest_rank_on_small_sets() {
        let s = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(p50(&s), Some(3.0));
        assert_eq!(percentile(&s, 1.0), Some(5.0));
        assert_eq!(p50(&[42.0]), Some(42.0));
    }

    #[test]
    fn ranks_match_definition_on_a_hundred() {
        let s: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(p50(&s), Some(50.0));
        assert_eq!(p99(&s), Some(99.0));
        assert_eq!(percentile(&s, 0.01), Some(1.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
    }

    #[test]
    fn unsorted_input_is_handled() {
        let s = [9.0, 2.0, 7.0, 4.0, 1.0, 8.0, 3.0, 6.0, 5.0, 10.0];
        assert_eq!(p50(&s), Some(5.0));
        assert_eq!(p99(&s), Some(10.0));
    }

    #[test]
    #[should_panic(expected = "percentile rank out of range")]
    fn out_of_range_rank_panics() {
        percentile(&[1.0], 1.5);
    }
}
