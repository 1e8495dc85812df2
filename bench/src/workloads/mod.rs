//! The five workloads. Each `run` does set-up, then repeats of (saturate
//! window, paced window) with the world torn down (conservation checks)
//! and set up again (timed) at even intervals, and fills a
//! [`Report`](crate::report::Report).

pub mod fabric;
pub mod runtime;
pub mod sched_direct;

use std::time::{Duration, Instant};

use crate::json::obj;
use crate::layers;
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::Spans;
use crate::watchdog;

/// Length of one timed phase. The reference host slows by a quarter for
/// about a second at a time (CPU steal), so a run is many short windows
/// and reports the value one in fifty of them beats
/// ([`Summary::GoodTail`](crate::catalog::Summary)): the windows the
/// bursts missed. At the driver's 20 s that is 100 windows of each kind.
pub const WINDOW: Duration = Duration::from_millis(100);
/// Timed set-ups per run (fewer when it has fewer repeats); `setup_s`
/// summarises them.
pub const SETUPS: usize = 9;
/// Packets of each traced window that also go to the span file.
pub const SPAN_PACKETS: usize = 1000;

pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Ctx {
    /// Repeats of (saturate window, paced window) that fill `--seconds`;
    /// every reported value summarises them.
    pub fn repeats(&self) -> usize {
        (Duration::from_secs(self.seconds).as_millis() / (2 * WINDOW.as_millis())).max(1) as usize
    }

    /// Whether repeat `r` starts on a freshly set-up world.
    pub fn setup_due(&self, r: usize) -> bool {
        let every = (self.repeats() / SETUPS).max(1);
        r > 0 && r.is_multiple_of(every) && r / every < SETUPS
    }
}

/// p50 of `ns` samples, in µs.
pub fn p50_us(ns: &mut [u64]) -> f64 {
    percentile(ns, 0.50) as f64 / 1e3
}

/// Sets the world up once, on the clock of `setup_s`. A run does this
/// `SETUPS` times: to open, and then at even intervals through its
/// repeats ([`Ctx::setup_due`]), each time after tearing the previous
/// world down with its checks. Set-ups in the first second all see the
/// host in one mood (0.135 or 0.19 s on `sched_direct`); spread over the
/// run, some find it at its best.
pub fn timed_setup<W>(rep: &mut Report, setup: impl FnOnce() -> W) -> W {
    watchdog::phase("setup");
    let t = Instant::now();
    let world = setup();
    rep.sample("setup_s", t.elapsed().as_secs_f64());
    world
}

/// Closes a traced run: the budget (unit costs on `path` against
/// `measured_ns_per_flit`), the tracing overhead (recording against plain
/// saturate windows) and the span file.
pub fn finish_trace(
    rep: &mut Report,
    path: &layers::Path,
    pkts_per_flit: f64,
    measured_ns_per_flit: f64,
    (fps, traced_fps): (&[f64], &[f64]),
    spans: &Spans,
) {
    let explained = layers::explained_ns_per_flit(rep, path, pkts_per_flit);
    rep.sample("budget.explained_share", explained / measured_ns_per_flit);
    rep.sample(
        "trace.overhead_share",
        1.0 - median(traced_fps) / median(fps),
    );
    rep.detail(
        "budget",
        obj([
            ("explained_ns_per_flit", explained.into()),
            ("measured_ns_per_flit", measured_ns_per_flit.into()),
            ("path_nodes", path.nodes.into()),
        ]),
    );
    crate::write_spans(rep, spans);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setups(seconds: u64) -> usize {
        let ctx = Ctx {
            seed: 1,
            seconds,
            trace: false,
        };
        1 + (0..ctx.repeats()).filter(|&r| ctx.setup_due(r)).count()
    }

    #[test]
    fn set_ups_are_spread_over_the_run_and_counted() {
        assert_eq!(setups(20), SETUPS);
        assert_eq!(setups(60), SETUPS);
        // A one-second run has five repeats: one set-up before each.
        assert_eq!(setups(1), 5);
        let ctx = Ctx {
            seed: 1,
            seconds: 20,
            trace: false,
        };
        let due: Vec<_> = (0..ctx.repeats()).filter(|&r| ctx.setup_due(r)).collect();
        assert_eq!(due, [11, 22, 33, 44, 55, 66, 77, 88]);
    }
}
