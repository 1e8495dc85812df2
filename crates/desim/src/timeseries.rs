//! Monotone cumulative curves over simulation time.
//!
//! The paper's fairness definitions are all phrased in terms of
//! `Sent_i(t1, t2)` — the number of flits flow `i` transmits in an
//! interval. Recording a per-flow cumulative service curve turns any such
//! interval query into two binary searches.

use serde::{Deserialize, Serialize};

use crate::Cycle;

/// A non-decreasing step function of time, stored as change points.
///
/// `value_at(t)` is the cumulative total *after* all increments at times
/// `<= t` have been applied.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CumulativeCurve {
    /// Change points `(time, cumulative_total_after)`, strictly increasing
    /// in both coordinates (repeated increments at one time are coalesced).
    points: Vec<(Cycle, u64)>,
}

impl CumulativeCurve {
    /// Creates an empty curve (value 0 everywhere).
    pub fn new() -> Self {
        Self { points: Vec::new() }
    }

    /// Adds `amount` at time `t`. Times must be non-decreasing across
    /// calls.
    pub fn add(&mut self, t: Cycle, amount: u64) {
        if amount == 0 {
            return;
        }
        match self.points.last_mut() {
            Some(last) if last.0 == t => {
                last.1 += amount;
            }
            Some(&mut (last_t, total)) => {
                assert!(
                    t > last_t,
                    "times must be non-decreasing: {t} after {last_t}"
                );
                self.points.push((t, total + amount));
            }
            None => self.points.push((t, amount)),
        }
    }

    /// Cumulative total after all events at times `<= t`.
    pub fn value_at(&self, t: Cycle) -> u64 {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(i) => self.points[i].1,
            Err(0) => 0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Amount accumulated in the half-open interval `(t1, t2]`.
    pub fn delta(&self, t1: Cycle, t2: Cycle) -> u64 {
        debug_assert!(t1 <= t2);
        self.value_at(t2) - self.value_at(t1)
    }

    /// Final cumulative total.
    pub fn total(&self) -> u64 {
        self.points.last().map_or(0, |&(_, v)| v)
    }

    /// Number of stored change points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates the change points `(time, cumulative_total_after)`.
    pub fn iter(&self) -> impl Iterator<Item = (Cycle, u64)> + '_ {
        self.points.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_curve_is_zero() {
        let c = CumulativeCurve::new();
        assert_eq!(c.value_at(0), 0);
        assert_eq!(c.value_at(u64::MAX), 0);
        assert_eq!(c.total(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn step_semantics() {
        let mut c = CumulativeCurve::new();
        c.add(10, 3);
        c.add(20, 2);
        assert_eq!(c.value_at(9), 0);
        assert_eq!(c.value_at(10), 3);
        assert_eq!(c.value_at(19), 3);
        assert_eq!(c.value_at(20), 5);
        assert_eq!(c.value_at(1000), 5);
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn coalesces_same_time() {
        let mut c = CumulativeCurve::new();
        c.add(5, 1);
        c.add(5, 1);
        c.add(5, 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.value_at(5), 3);
    }

    #[test]
    fn zero_amount_is_noop() {
        let mut c = CumulativeCurve::new();
        c.add(5, 0);
        assert!(c.is_empty());
    }

    #[test]
    fn delta_matches_differences() {
        let mut c = CumulativeCurve::new();
        for t in 1..=100u64 {
            c.add(t, t % 3);
        }
        for (t1, t2) in [(0, 100), (10, 20), (50, 50), (99, 100)] {
            let expect: u64 = (t1 + 1..=t2).map(|t| t % 3).sum();
            assert_eq!(c.delta(t1, t2), expect, "interval ({t1},{t2}]");
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_travel() {
        let mut c = CumulativeCurve::new();
        c.add(10, 1);
        c.add(9, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// value_at agrees with a naive prefix-sum reference.
        #[test]
        fn matches_reference(events in prop::collection::vec((0u64..1000, 0u64..10), 0..200)) {
            let mut sorted = events.clone();
            sorted.sort_by_key(|&(t, _)| t);
            let mut c = CumulativeCurve::new();
            for &(t, a) in &sorted {
                c.add(t, a);
            }
            for probe in [0u64, 1, 17, 500, 999, 1000, 5000] {
                let expect: u64 = sorted.iter().filter(|&&(t, _)| t <= probe).map(|&(_, a)| a).sum();
                prop_assert_eq!(c.value_at(probe), expect);
            }
        }

        /// The curve is monotone and deltas are non-negative/additive.
        #[test]
        fn monotone_and_additive(events in prop::collection::vec((0u64..500, 1u64..5), 1..100),
                                 a in 0u64..600, b in 0u64..600, c0 in 0u64..600) {
            let mut sorted = events.clone();
            sorted.sort_by_key(|&(t, _)| t);
            let mut c = CumulativeCurve::new();
            for &(t, amt) in &sorted {
                c.add(t, amt);
            }
            let mut ts = [a, b, c0];
            ts.sort_unstable();
            let [t1, t2, t3] = ts;
            prop_assert!(c.value_at(t1) <= c.value_at(t2));
            prop_assert_eq!(c.delta(t1, t2) + c.delta(t2, t3), c.delta(t1, t3));
        }
    }
}
