//! Fixed-width histogram with overflow bucket and quantile queries.

use serde::{Deserialize, Serialize};

/// A histogram over `u64` values with uniform-width bins plus an overflow
/// bucket.
///
/// Used to summarize packet-delay distributions: the paper reports mean
/// delays (Figure 5), and the reproduction additionally records the full
/// distribution so tail behaviour (the flows ERR deliberately slows down)
/// can be inspected.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Histogram {
    bin_width: u64,
    bins: Vec<u64>,
    count: u64,
    sum: u128,
    max_seen: u64,
}

impl Histogram {
    /// Creates a histogram with `num_bins` bins of width `bin_width`.
    /// Values at or above `num_bins * bin_width` overflow: they land in
    /// no bin but still count toward the count, mean and max.
    pub fn new(bin_width: u64, num_bins: usize) -> Self {
        assert!(bin_width > 0, "bin width must be positive");
        assert!(num_bins > 0, "need at least one bin");
        Self {
            bin_width,
            bins: vec![0; num_bins],
            count: 0,
            sum: 0,
            max_seen: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.bin_width) as usize;
        if let Some(bin) = self.bins.get_mut(idx) {
            *bin += 1;
        }
        self.count += 1;
        self.sum += value as u128;
        self.max_seen = self.max_seen.max(value);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of all recorded values (not binned).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest value recorded.
    pub fn max(&self) -> u64 {
        self.max_seen
    }

    /// Approximate quantile `q` in `[0, 1]`, resolved to bin upper edges.
    ///
    /// Returns `None` when empty. If the quantile falls in the overflow
    /// bucket, returns the maximum recorded value.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some((i as u64 + 1) * self.bin_width - 1);
            }
        }
        Some(self.max_seen)
    }

    /// Merges another histogram with identical geometry.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bin_width, other.bin_width, "bin width mismatch");
        assert_eq!(self.bins.len(), other.bins.len(), "bin count mismatch");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max_seen = self.max_seen.max(other.max_seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut h = Histogram::new(10, 10);
        for v in [0, 5, 9, 10, 99, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new(1, 4);
        h.record(1);
        h.record(2);
        h.record(9); // overflow, still contributes to mean
        assert!((h.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Histogram::new(5, 100);
        for v in 0..500u64 {
            h.record(v);
        }
        let q50 = h.quantile(0.5).unwrap();
        let q90 = h.quantile(0.9).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        assert!(q50 <= q90 && q90 <= q99);
        assert!((240..260).contains(&q50), "median {q50}");
    }

    #[test]
    fn quantile_empty_is_none() {
        let h = Histogram::new(1, 1);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn quantile_in_overflow_returns_max() {
        let mut h = Histogram::new(1, 2);
        for _ in 0..10 {
            h.record(100);
        }
        assert_eq!(h.quantile(0.5), Some(100));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new(10, 5);
        let mut b = Histogram::new(10, 5);
        a.record(3);
        b.record(33);
        b.record(333);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 333);
    }

    #[test]
    #[should_panic(expected = "bin width mismatch")]
    fn merge_rejects_mismatched_geometry() {
        let mut a = Histogram::new(10, 5);
        let b = Histogram::new(20, 5);
        a.merge(&b);
    }
}
