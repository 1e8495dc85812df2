//! The shared single-link simulation loop.
//!
//! All of the paper's Figures 4–6 use the same setup: `n` flows feed one
//! scheduler that dequeues one flit per cycle. This module runs any
//! [`Discipline`] over any [`Workload`] with full measurement
//! instrumentation, and provides a small thread pool for parameter
//! sweeps.

use desim::Cycle;
use err_sched::Discipline;
use fairness_metrics::{DelayRecorder, FairnessMonitor};
use traffic_gen::{FlowSpec, Workload};

/// Everything measured in one single-link run.
pub struct SingleLinkRun {
    /// Discipline label.
    pub label: &'static str,
    /// Flits served per flow.
    pub totals: Vec<u64>,
    /// Service curves / busy windows / fairness queries.
    pub monitor: FairnessMonitor,
    /// Per-packet delay statistics.
    pub delays: DelayRecorder,
    /// Cycle at which the run ended (horizon, or drain completion).
    pub end_cycle: Cycle,
    /// Largest packet served (the paper's `m`), in flits.
    pub m_seen: u64,
    /// Packets that arrived.
    pub packets_in: u64,
    /// Packets fully served.
    pub packets_out: u64,
}

/// Runs `discipline` over `specs` for `horizon` cycles of injection.
///
/// If `drain` is true, injection stops at the horizon and the simulation
/// continues until every queue is empty (the Figure 5 methodology);
/// otherwise measurement simply stops at the horizon (Figures 4 and 6).
pub fn run_single_link(
    discipline: &Discipline,
    specs: &[FlowSpec],
    seed: u64,
    horizon: Cycle,
    drain: bool,
) -> SingleLinkRun {
    let n = specs.len();
    let mut sched = discipline.build(n);
    let mut workload = Workload::with_horizon(specs.to_vec(), seed, horizon);
    let mut monitor = FairnessMonitor::new(n);
    let mut delays = DelayRecorder::new(n);
    let mut totals = vec![0u64; n];
    let mut arrivals = Vec::new();
    let mut m_seen = 0u64;
    let mut packets_in = 0u64;
    let mut packets_out = 0u64;

    let mut now: Cycle = 0;
    loop {
        let injecting = now < horizon;
        if injecting {
            arrivals.clear();
            workload.poll(now, &mut arrivals);
            for pkt in &arrivals {
                monitor.on_enqueue(pkt, now);
                sched.enqueue(*pkt, now);
                packets_in += 1;
            }
        }
        if let Some(flit) = sched.service_flit(now) {
            monitor.on_flit(&flit, now);
            delays.on_flit(&flit, now);
            totals[flit.flow] += 1;
            if flit.is_tail() {
                m_seen = m_seen.max(flit.len as u64);
                packets_out += 1;
            }
        }
        now += 1;
        if injecting {
            continue;
        }
        if !drain || sched.is_idle() {
            break;
        }
    }
    monitor.finish(now);
    SingleLinkRun {
        label: discipline.label(),
        totals,
        monitor,
        delays,
        end_cycle: now,
        m_seen,
        packets_in,
        packets_out,
    }
}

/// Runs `jobs` on up to `max_workers` threads, preserving input order in
/// the output. Each job is independent; results return through a
/// crossbeam channel.
pub fn parallel_sweep<T, F>(jobs: Vec<F>, max_workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let workers = max_workers
        .min(n)
        .min(
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        )
        .max(1);
    let (tx, rx) = crossbeam::channel::unbounded::<(usize, T)>();
    let jobs: Vec<(usize, F)> = jobs.into_iter().enumerate().collect();
    let job_queue = parking_lot::Mutex::new(jobs);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let job_queue = &job_queue;
            // panic-policy: scoped worker — a panicked job propagates
            // out of `thread::scope` and fails the whole experiment
            // run (offline harness; fail-fast is the contract).
            scope.spawn(move || loop {
                let Some((idx, job)) = job_queue.lock().pop() else {
                    break;
                };
                let out = job();
                if tx.send((idx, out)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (idx, out) in rx {
            slots[idx] = Some(out);
        }
        slots
            .into_iter()
            .map(|s| s.expect("worker panicked before finishing a job"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic_gen::flows::fig4_flows;

    #[test]
    fn run_conserves_packets_when_draining() {
        let specs = traffic_gen::flows::fig5_flows(1.2);
        let run = run_single_link(&Discipline::Err, &specs, 3, 5_000, true);
        assert_eq!(run.packets_in, run.packets_out, "drain must empty queues");
        assert!(run.end_cycle >= 5_000);
        assert!(run.delays.count() == run.packets_out);
    }

    #[test]
    fn fig4_mini_flows_stay_backlogged() {
        let specs = fig4_flows(0.006);
        let run = run_single_link(&Discipline::Err, &specs, 1, 50_000, false);
        // Overloaded: the link never idles after warmup, so total service
        // is close to the horizon.
        let total: u64 = run.totals.iter().sum();
        assert!(total > 49_000, "link mostly busy, served {total}");
        assert!(run.m_seen >= 100, "should have seen near-128-flit packets");
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let specs = fig4_flows(0.006);
        let a = run_single_link(&Discipline::Drr { quantum: 128 }, &specs, 7, 20_000, false);
        let b = run_single_link(&Discipline::Drr { quantum: 128 }, &specs, 7, 20_000, false);
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.packets_in, b.packets_in);
    }

    #[test]
    fn parallel_sweep_preserves_order() {
        let jobs: Vec<_> = (0..17).map(|i| move || i * i).collect();
        let out = parallel_sweep(jobs, 4);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<i32>>());
    }
}
