//! Numerically stable streaming statistics.

use serde::{Deserialize, Serialize};

/// Streaming mean / variance / min / max via Welford's algorithm.
///
/// Used for per-flow delay statistics (paper Figure 5) and fairness
/// summaries (Figure 6) where samples number in the millions and storing
/// them all would be wasteful.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Smallest sample (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} vs {b}");
    }

    #[test]
    fn empty_stats_are_neutral() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn matches_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert_close(s.mean(), 5.0, 1e-12);
        assert_close(s.variance(), 4.0, 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..400] {
            a.push(x);
        }
        for &x in &data[400..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_close(a.mean(), whole.mean(), 1e-9);
        assert_close(a.variance(), whole.variance(), 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&OnlineStats::new());
        assert_eq!(before, (a.count(), a.mean(), a.variance()));

        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
        assert_close(e.mean(), 2.0, 1e-12);
    }

    #[test]
    fn stable_under_large_offsets() {
        // Welford should not catastrophically cancel for large offsets.
        let mut s = OnlineStats::new();
        for i in 0..10_000 {
            s.push(1e9 + (i % 2) as f64);
        }
        assert_close(s.variance(), 0.25, 1e-6);
    }
}
