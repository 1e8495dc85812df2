//! Per-flow service accounting and the relative fairness measure.

use desim::{CumulativeCurve, Cycle, SimRng};
use err_sched::{FlowId, Packet, ServedFlit};

/// Records per-flow cumulative service and backlog ("busy") windows,
/// and answers the paper's fairness queries.
///
/// Feed it every arrival ([`on_enqueue`](Self::on_enqueue)) and every
/// served flit ([`on_flit`](Self::on_flit)), then call
/// [`finish`](Self::finish) once at the end of the run.
#[derive(Clone, Debug)]
pub struct FairnessMonitor {
    curves: Vec<CumulativeCurve>,
    backlog: Vec<u64>,
    busy_start: Vec<Option<Cycle>>,
    /// Closed busy windows `[start, end]` per flow (end = cycle of the
    /// flit that emptied the flow).
    busy: Vec<Vec<(Cycle, Cycle)>>,
    finished: bool,
}

impl FairnessMonitor {
    /// Creates a monitor for `n_flows` flows.
    pub fn new(n_flows: usize) -> Self {
        Self {
            curves: (0..n_flows).map(|_| CumulativeCurve::new()).collect(),
            backlog: vec![0; n_flows],
            busy_start: vec![None; n_flows],
            busy: (0..n_flows).map(|_| Vec::new()).collect(),
            finished: false,
        }
    }

    /// Records a packet arrival at cycle `now`.
    pub fn on_enqueue(&mut self, pkt: &Packet, now: Cycle) {
        let f = pkt.flow;
        assert!(f < self.curves.len(), "flow {f} out of range");
        if self.backlog[f] == 0 {
            self.busy_start[f] = Some(now);
        }
        self.backlog[f] += pkt.len as u64;
    }

    /// Records a served flit at cycle `now`.
    pub fn on_flit(&mut self, flit: &ServedFlit, now: Cycle) {
        let f = flit.flow;
        self.curves[f].add(now, 1);
        debug_assert!(self.backlog[f] > 0, "flit served with zero backlog");
        self.backlog[f] -= 1;
        if self.backlog[f] == 0 {
            let start = self.busy_start[f].take().expect("busy window open");
            self.busy[f].push((start, now));
        }
    }

    /// Closes any still-open busy windows at cycle `now`. Call once when
    /// the measurement interval ends.
    pub fn finish(&mut self, now: Cycle) {
        for f in 0..self.curves.len() {
            if let Some(start) = self.busy_start[f].take() {
                self.busy[f].push((start, now));
            }
        }
        self.finished = true;
    }

    /// `Sent_f(t1, t2)`: flits flow `f` sent in `(t1, t2]`.
    fn sent(&self, f: FlowId, t1: Cycle, t2: Cycle) -> u64 {
        self.curves[f].delta(t1, t2)
    }

    /// Whether flow `f` was continuously backlogged throughout `[t1, t2]`.
    fn busy_through(&self, f: FlowId, t1: Cycle, t2: Cycle) -> bool {
        // Binary search the closed windows for one containing [t1, t2].
        let windows = &self.busy[f];
        let idx = windows.partition_point(|&(_, end)| end < t2);
        windows
            .get(idx)
            .is_some_and(|&(start, end)| start <= t1 && t2 <= end)
    }

    /// The jointly busy windows of flows `i` and `j` (interval
    /// intersection of their busy windows).
    fn jointly_busy(&self, i: FlowId, j: FlowId) -> Vec<(Cycle, Cycle)> {
        let (a, b) = (&self.busy[i], &self.busy[j]);
        let mut out = Vec::new();
        let (mut x, mut y) = (0, 0);
        while x < a.len() && y < b.len() {
            let lo = a[x].0.max(b[y].0);
            let hi = a[x].1.min(b[y].1);
            if lo < hi {
                out.push((lo, hi));
            }
            if a[x].1 < b[y].1 {
                x += 1;
            } else {
                y += 1;
            }
        }
        out
    }

    /// The exact relative fairness measure: the supremum of
    /// `|Sent_i(t1,t2) - Sent_j(t1,t2)|` over all flow pairs and all
    /// intervals throughout which both flows are active.
    ///
    /// Per the paper's Lemma 2 the supremum is attained with `t1, t2` at
    /// service-event instants, so a single sweep over the merged event
    /// times of each pair suffices: track the running difference
    /// `D(t) = Sent_i(0,t) - Sent_j(0,t)` and its running min/max within
    /// each jointly-busy window (a maximum-drawdown scan). O(pairs ×
    /// events).
    ///
    /// Panics unless [`finish`](Self::finish) was called.
    pub fn exact_fm(&self) -> u64 {
        assert!(self.finished, "call finish() before exact_fm()");
        let n = self.curves.len();
        let mut fm = 0i64;
        for i in 0..n {
            for j in (i + 1)..n {
                for &(lo, hi) in &self.jointly_busy(i, j) {
                    fm = fm.max(self.pair_fm_in_window(i, j, lo, hi));
                }
            }
        }
        fm as u64
    }

    /// Max |D(t2) - D(t1)| for lo <= t1 < t2 <= hi, where D is the
    /// cumulative service difference of flows `i` and `j`.
    fn pair_fm_in_window(&self, i: FlowId, j: FlowId, lo: Cycle, hi: Cycle) -> i64 {
        // Merge the event times of both curves restricted to (lo, hi].
        let ci = &self.curves[i];
        let cj = &self.curves[j];
        let mut best = 0i64;
        // Baselines at the window start.
        let bi = ci.value_at(lo) as i64;
        let bj = cj.value_at(lo) as i64;
        let mut min_d = 0i64;
        let mut max_d = 0i64;
        let mut iter_i = ci.iter().skip_while(|&(t, _)| t <= lo).peekable();
        let mut iter_j = cj.iter().skip_while(|&(t, _)| t <= lo).peekable();
        let (mut vi, mut vj) = (bi, bj);
        loop {
            // Advance to the next event time within the window.
            let ti = iter_i.peek().map(|&(t, _)| t).filter(|&t| t <= hi);
            let tj = iter_j.peek().map(|&(t, _)| t).filter(|&t| t <= hi);
            let t = match (ti, tj) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (Some(a), Some(b)) => a.min(b),
            };
            if let Some(&(ta, v)) = iter_i.peek() {
                if ta == t {
                    vi = v as i64;
                    iter_i.next();
                }
            }
            if let Some(&(tb, v)) = iter_j.peek() {
                if tb == t {
                    vj = v as i64;
                    iter_j.next();
                }
            }
            let d = (vi - bi) - (vj - bj);
            best = best.max(d - min_d).max(max_d - d);
            min_d = min_d.min(d);
            max_d = max_d.max(d);
        }
        best
    }

    /// The Figure 6 statistic: the average of `FM(t1, t2)` over
    /// `n_intervals` random intervals drawn within `[t_lo, t_hi]`,
    /// counting only intervals throughout which **all** flows are active.
    /// Returns `None` if no valid interval could be drawn.
    pub fn avg_random_fm(
        &self,
        n_intervals: usize,
        t_lo: Cycle,
        t_hi: Cycle,
        rng: &mut SimRng,
    ) -> Option<f64> {
        assert!(self.finished, "call finish() before avg_random_fm()");
        assert!(t_lo < t_hi);
        let n = self.curves.len();
        let span = t_hi - t_lo;
        let mut sum = 0.0;
        let mut valid = 0usize;
        let max_attempts = n_intervals.saturating_mul(10);
        let mut attempts = 0usize;
        while valid < n_intervals && attempts < max_attempts {
            attempts += 1;
            let a = t_lo + (rng.uniform_f64() * span as f64) as u64;
            let b = t_lo + (rng.uniform_f64() * span as f64) as u64;
            let (t1, t2) = if a < b { (a, b) } else { (b, a) };
            if t1 == t2 {
                continue;
            }
            if !(0..n).all(|f| self.busy_through(f, t1, t2)) {
                continue;
            }
            let sents: Vec<u64> = (0..n).map(|f| self.sent(f, t1, t2)).collect();
            let max = *sents.iter().max().expect("n > 0");
            let min = *sents.iter().min().expect("n > 0");
            sum += (max - min) as f64;
            valid += 1;
        }
        (valid > 0).then(|| sum / valid as f64)
    }

    /// Empirical latency-rate characterization of flow `f` at reserved
    /// rate `rho` (flits/cycle): the smallest `theta` such that in every
    /// busy period starting at `tau`,
    /// `W(tau, t) >= rho * (t - tau - theta)` for all `t` — the
    /// Stiliadis–Varghese LR-server model. A scheduler with a small
    /// `theta` at `rho = fair share` gives flows a rate guarantee that
    /// kicks in quickly; PBRR/FCFS have no such guarantee and their
    /// empirical `theta` grows with the competing traffic.
    ///
    /// Returns `None` if the flow was never busy.
    pub fn empirical_latency(&self, f: FlowId, rho: f64) -> Option<f64> {
        assert!(rho > 0.0, "rate must be positive");
        assert!(self.finished, "call finish() before empirical_latency()");
        let windows = &self.busy[f];
        if windows.is_empty() {
            return None;
        }
        let curve = &self.curves[f];
        let mut theta = 0.0f64;
        for &(start, end) in windows {
            let base = curve.value_at(start);
            let mut prev_cum = base;
            // Lag is maximized just before a service event lands (the
            // elapsed time has grown, the service has not), and at the
            // busy-period end.
            for (t, cum) in curve.iter() {
                if t <= start {
                    continue;
                }
                if t > end {
                    break;
                }
                let lag = (t - start) as f64 - (prev_cum - base) as f64 / rho;
                theta = theta.max(lag);
                prev_cum = cum;
            }
            let lag_end = (end - start) as f64 - (curve.value_at(end) - base) as f64 / rho;
            theta = theta.max(lag_end);
        }
        Some(theta)
    }

    /// Average `FM(t1, t1 + window)` over `n_intervals` random
    /// placements of a **fixed-length** window inside `[t_lo, t_hi]`,
    /// counting only placements where all flows are active throughout.
    ///
    /// Sweeping `window` exposes a discipline's burst structure: for ERR
    /// the curve saturates near its `3m` bound (unfairness never
    /// accumulates beyond one round's elasticity), while quantum-based
    /// disciplines saturate at their quantum scale.
    pub fn avg_fixed_window_fm(
        &self,
        n_intervals: usize,
        window: Cycle,
        t_lo: Cycle,
        t_hi: Cycle,
        rng: &mut SimRng,
    ) -> Option<f64> {
        assert!(self.finished, "call finish() before avg_fixed_window_fm()");
        assert!(window >= 1);
        if t_lo + window > t_hi {
            return None;
        }
        let n = self.curves.len();
        let span = t_hi - t_lo - window;
        let mut sum = 0.0;
        let mut valid = 0usize;
        let max_attempts = n_intervals.saturating_mul(10);
        let mut attempts = 0usize;
        while valid < n_intervals && attempts < max_attempts {
            attempts += 1;
            let t1 = t_lo + (rng.uniform_f64() * span as f64) as u64;
            let t2 = t1 + window;
            if !(0..n).all(|f| self.busy_through(f, t1, t2)) {
                continue;
            }
            let sents: Vec<u64> = (0..n).map(|f| self.sent(f, t1, t2)).collect();
            let max = *sents.iter().max().expect("n > 0");
            let min = *sents.iter().min().expect("n > 0");
            sum += (max - min) as f64;
            valid += 1;
        }
        (valid > 0).then(|| sum / valid as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use err_sched::Discipline;

    fn pkt(id: u64, flow: FlowId, len: u32, arrival: u64) -> Packet {
        Packet::new(id, flow, len, arrival)
    }

    /// Run a discipline over a fully backlogged workload, feeding the
    /// monitor, and return it.
    fn run_backlogged(
        d: &Discipline,
        n_flows: usize,
        pkts_per_flow: u64,
        len: u32,
    ) -> FairnessMonitor {
        let mut s = d.build(n_flows);
        let mut mon = FairnessMonitor::new(n_flows);
        let mut id = 0;
        for f in 0..n_flows {
            for _ in 0..pkts_per_flow {
                let p = pkt(id, f, len, 0);
                s.enqueue(p, 0);
                mon.on_enqueue(&p, 0);
                id += 1;
            }
        }
        let mut now = 0;
        while let Some(fl) = s.service_flit(now) {
            mon.on_flit(&fl, now);
            now += 1;
        }
        mon.finish(now);
        mon
    }

    #[test]
    fn sent_accounting() {
        let mut mon = FairnessMonitor::new(2);
        let p0 = pkt(0, 0, 3, 0);
        let p1 = pkt(1, 1, 2, 0);
        mon.on_enqueue(&p0, 0);
        mon.on_enqueue(&p1, 0);
        let flits = [
            (0u64, ServedFlit::of(&p0, 0)),
            (1, ServedFlit::of(&p0, 1)),
            (2, ServedFlit::of(&p1, 0)),
            (3, ServedFlit::of(&p0, 2)),
            (4, ServedFlit::of(&p1, 1)),
        ];
        for (t, f) in &flits {
            mon.on_flit(f, *t);
        }
        mon.finish(5);
        assert_eq!(mon.sent(0, 0, 5), 2); // the flit at cycle 0 precedes (0, 5]
        assert_eq!(mon.sent(1, 0, 5), 2);
        assert_eq!(mon.sent(0, 0, 3), 2); // flits at cycles 1 and 3
        assert_eq!(mon.sent(1, 1, 4), 2);
    }

    #[test]
    fn busy_windows_track_backlog() {
        let mut mon = FairnessMonitor::new(1);
        let p0 = pkt(0, 0, 2, 5);
        mon.on_enqueue(&p0, 5);
        mon.on_flit(&ServedFlit::of(&p0, 0), 6);
        mon.on_flit(&ServedFlit::of(&p0, 1), 7);
        let p1 = pkt(1, 0, 1, 20);
        mon.on_enqueue(&p1, 20);
        mon.on_flit(&ServedFlit::of(&p1, 0), 21);
        mon.finish(30);
        assert!(mon.busy_through(0, 5, 7));
        assert!(!mon.busy_through(0, 5, 8));
        assert!(!mon.busy_through(0, 10, 21));
        assert!(mon.busy_through(0, 20, 21));
    }

    #[test]
    fn exact_fm_zero_for_single_flow() {
        let mon = run_backlogged(&Discipline::Err, 1, 10, 4);
        assert_eq!(mon.exact_fm(), 0);
    }

    #[test]
    fn exact_fm_small_for_fbrr() {
        // FBRR alternates flits: the difference never exceeds 1.
        let mon = run_backlogged(&Discipline::Fbrr, 2, 20, 4);
        assert!(mon.exact_fm() <= 1, "FBRR fm = {}", mon.exact_fm());
    }

    #[test]
    fn exact_fm_matches_hand_computation() {
        // Two flows served as whole packets alternately (PBRR with equal
        // lengths L): within a packet the leader gets up to L ahead; the
        // FM is exactly L plus... for equal-length alternation the
        // difference oscillates in [-L, L] peak-to-peak 2L? Check: serve
        // 4-flit packets A,B,A,B. D goes 1,2,3,4 then 3,2,1,0 then ...
        // max drawdown within a window = 4.
        let mon = run_backlogged(&Discipline::Pbrr, 2, 6, 4);
        assert_eq!(mon.exact_fm(), 4);
    }

    #[test]
    fn err_fm_bounded_by_3m_on_random_traffic() {
        use desim::SimRng;
        // End-to-end Theorem 3 check on a random always-backlogged mix.
        let mut s = Discipline::Err.build(4);
        let mut mon = FairnessMonitor::new(4);
        let mut rng = SimRng::new(5);
        let mut id = 0;
        let mut m = 0u64;
        for f in 0..4usize {
            for _ in 0..400 {
                let len = rng.uniform_u32(1, 32);
                m = m.max(len as u64);
                let p = pkt(id, f, len, 0);
                s.enqueue(p, 0);
                mon.on_enqueue(&p, 0);
                id += 1;
            }
        }
        let mut now = 0;
        while let Some(fl) = s.service_flit(now) {
            mon.on_flit(&fl, now);
            now += 1;
        }
        mon.finish(now);
        let fm = mon.exact_fm();
        assert!(fm < 3 * m, "FM {fm} >= 3m = {}", 3 * m);
        assert!(fm > 0);
    }

    #[test]
    fn avg_random_fm_respects_activity() {
        let mon = run_backlogged(&Discipline::Err, 3, 50, 5);
        let mut rng = SimRng::new(9);
        let horizon = 3 * 50 * 5;
        let avg = mon.avg_random_fm(200, 0, horizon - 1, &mut rng);
        let avg = avg.expect("flows backlogged the whole run");
        assert!(avg >= 0.0);
        assert!(avg < 15.0, "avg fm {avg} should be below 3m = 15");
    }

    #[test]
    fn empirical_latency_flit_rr_is_tight() {
        // FBRR at fair rate 1/2: a flow is served every other cycle, so
        // its service never lags the rho * t line by more than ~2 cycles.
        let mon = run_backlogged(&Discipline::Fbrr, 2, 30, 4);
        let theta = mon.empirical_latency(0, 0.5).unwrap();
        assert!(theta <= 2.5, "FBRR theta {theta}");
    }

    #[test]
    fn empirical_latency_ranks_disciplines() {
        // Two flows, flow 1 sends 16x longer packets. At fair rate 1/2,
        // ERR's latency for the short-packet flow is bounded by a few
        // max packets; PBRR's is much worse (it must sit through the
        // long packets at equal packet cadence).
        let run = |d: &Discipline| -> f64 {
            let mut s = d.build(2);
            let mut mon = FairnessMonitor::new(2);
            let mut id = 0;
            for k in 0..200u64 {
                for (f, len) in [(0usize, 2u32), (1, 32)] {
                    let p = Packet::new(id, f, len, 0);
                    s.enqueue(p, 0);
                    mon.on_enqueue(&p, 0);
                    id += 1;
                    let _ = k;
                }
            }
            let mut now = 0;
            while let Some(fl) = s.service_flit(now) {
                mon.on_flit(&fl, now);
                now += 1;
            }
            mon.finish(now);
            mon.empirical_latency(0, 0.5).unwrap()
        };
        let err = run(&Discipline::Err);
        let pbrr = run(&Discipline::Pbrr);
        assert!(err < pbrr, "ERR theta {err} vs PBRR {pbrr}");
        // ERR's lag for the compliant flow stays within a handful of
        // max-size packets.
        assert!(err < 6.0 * 32.0, "ERR theta {err} too large");
        assert!(pbrr > err * 1.5, "PBRR should be clearly worse: {pbrr}");
    }

    #[test]
    fn empirical_latency_none_for_idle_flow() {
        let mut mon = FairnessMonitor::new(2);
        mon.finish(100);
        assert_eq!(mon.empirical_latency(1, 0.5), None);
    }

    #[test]
    fn avg_random_fm_none_when_never_jointly_busy() {
        let mut mon = FairnessMonitor::new(2);
        // Flow 0 busy [0,1], flow 1 busy [10,11]: never jointly active.
        let p0 = pkt(0, 0, 2, 0);
        mon.on_enqueue(&p0, 0);
        mon.on_flit(&ServedFlit::of(&p0, 0), 0);
        mon.on_flit(&ServedFlit::of(&p0, 1), 1);
        let p1 = pkt(1, 1, 2, 10);
        mon.on_enqueue(&p1, 10);
        mon.on_flit(&ServedFlit::of(&p1, 0), 10);
        mon.on_flit(&ServedFlit::of(&p1, 1), 11);
        mon.finish(12);
        let mut rng = SimRng::new(3);
        assert_eq!(mon.avg_random_fm(50, 0, 11, &mut rng), None);
    }
}
