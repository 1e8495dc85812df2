//! Property-based tests over the scheduling disciplines.
//!
//! These check the universal scheduler contract (conservation, FIFO,
//! work-conservation, wormhole non-interleaving) on randomized workloads,
//! plus the ERR-specific analytical results of the paper: Lemma 1,
//! Corollary 1, and Theorem 2.

use err_sched::err::{ErrScheduler, VisitRecord};
use err_sched::{Discipline, FlowQueues, Packet, Scheduler, ServedFlit};
use proptest::prelude::*;
use std::collections::VecDeque;

/// A compact random workload description: (flow, len, gap-to-next-arrival).
fn workload_strategy(
    max_flows: usize,
    max_len: u32,
    max_pkts: usize,
) -> impl Strategy<Value = Vec<(usize, u32, u64)>> {
    prop::collection::vec((0..max_flows, 1..=max_len, 0u64..8), 1..max_pkts)
}

/// Runs `events` through the discipline, interleaving arrivals with
/// service, and returns the full flit log.
fn run(disc: &Discipline, events: &[(usize, u32, u64)], n_flows: usize) -> Vec<(u64, ServedFlit)> {
    let mut s = disc.build(n_flows);
    let mut log = Vec::new();
    let mut now = 0u64;
    for (id, &(flow, len, gap)) in events.iter().enumerate() {
        now += gap;
        s.enqueue(Packet::new(id as u64, flow, len, now), now);
        // Serve `gap` cycles worth of flits opportunistically between
        // arrivals (one flit per cycle, matching the paper's model).
        for _ in 0..gap {
            if let Some(f) = s.service_flit(now) {
                log.push((now, f));
            }
        }
    }
    // Drain.
    while let Some(f) = s.service_flit(now) {
        log.push((now, f));
        now += 1;
    }
    assert!(s.is_idle());
    log
}

fn all_disciplines() -> Vec<Discipline> {
    vec![
        Discipline::Err,
        Discipline::Drr { quantum: 32 },
        Discipline::Fbrr,
        Discipline::Pbrr,
        Discipline::Fcfs,
        Discipline::Wfq,
        Discipline::Scfq,
        Discipline::VirtualClock,
        Discipline::Gps,
        Discipline::Werr {
            weights: vec![1, 2, 3, 1],
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every discipline serves every flit of every packet exactly once.
    #[test]
    fn conservation_all_disciplines(events in workload_strategy(4, 16, 60)) {
        let total: u64 = events.iter().map(|&(_, len, _)| len as u64).sum();
        for d in all_disciplines() {
            let log = run(&d, &events, 4);
            prop_assert_eq!(log.len() as u64, total, "{} lost/duplicated flits", d.label());
            // Each (packet, flit_index) appears exactly once.
            let mut seen: Vec<(u64, u32)> = log.iter().map(|(_, f)| (f.packet, f.flit_index)).collect();
            let n = seen.len();
            seen.sort_unstable();
            seen.dedup();
            prop_assert_eq!(seen.len(), n, "{} duplicated a flit", d.label());
        }
    }

    /// Per-flow packets depart in FIFO order under every discipline.
    #[test]
    fn per_flow_fifo_all_disciplines(events in workload_strategy(3, 12, 50)) {
        for d in all_disciplines() {
            let log = run(&d, &events, 3);
            for flow in 0..3usize {
                let tails: Vec<u64> = log
                    .iter()
                    .filter(|(_, f)| f.flow == flow && f.is_tail())
                    .map(|(_, f)| f.packet)
                    .collect();
                let mut sorted = tails.clone();
                sorted.sort_unstable();
                prop_assert_eq!(&tails, &sorted, "{} violated FIFO for flow {}", d.label(), flow);
            }
        }
    }

    /// Packet-granular disciplines never interleave flits of different
    /// packets (the wormhole output-queue constraint).
    #[test]
    fn wormhole_constraint_packet_disciplines(events in workload_strategy(4, 10, 50)) {
        let packet_granular = [
            Discipline::Err,
            Discipline::Drr { quantum: 32 },
            Discipline::Pbrr,
            Discipline::Fcfs,
            Discipline::Wfq,
            Discipline::Scfq,
            Discipline::VirtualClock,
        ];
        for d in packet_granular {
            let log = run(&d, &events, 4);
            let mut open: Option<(u64, u32)> = None;
            for (_, f) in &log {
                match open {
                    None => {
                        prop_assert!(f.is_head(), "{}: packet did not start with head", d.label());
                        if !f.is_tail() {
                            open = Some((f.packet, f.flit_index));
                        }
                    }
                    Some((pid, idx)) => {
                        prop_assert_eq!(f.packet, pid, "{} interleaved packets", d.label());
                        prop_assert_eq!(f.flit_index, idx + 1);
                        open = if f.is_tail() { None } else { Some((pid, f.flit_index)) };
                    }
                }
            }
            prop_assert!(open.is_none());
        }
    }

    /// ERR is deterministic: identical inputs give identical flit logs.
    #[test]
    fn err_is_deterministic(events in workload_strategy(4, 16, 40)) {
        let a = run(&Discipline::Err, &events, 4);
        let b = run(&Discipline::Err, &events, 4);
        prop_assert_eq!(a, b);
    }

    /// Lemma 1 / Corollary 1: surpluses stay within [0, m-1] throughout.
    #[test]
    fn err_lemma1_surplus_bounds(events in workload_strategy(5, 24, 80)) {
        let mut s = ErrScheduler::new(5);
        s.core_mut().set_trace(true);
        let mut now = 0u64;
        for (id, &(flow, len, gap)) in events.iter().enumerate() {
            now += gap;
            s.enqueue(Packet::new(id as u64, flow, len, now), now);
            for _ in 0..gap {
                s.service_flit(now);
            }
        }
        while s.service_flit(now).is_some() {
            now += 1;
        }
        let m = s.core().largest_served();
        prop_assert!(m >= 1);
        for r in s.core_mut().take_trace() {
            prop_assert!(r.surplus < m, "surplus {} > m-1 {}", r.surplus, m - 1);
        }
    }

    /// Theorem 2: over any n consecutive rounds in which flow i is
    /// continuously active, the flits it sends satisfy
    /// n + Σ MaxSC(r) - (m-1) <= N <= n + Σ MaxSC(r) + (m-1),
    /// with the sum over rounds k-1 .. k+n-2.
    #[test]
    fn err_theorem2_service_bounds(seed_events in workload_strategy(3, 16, 120)) {
        let mut s = ErrScheduler::new(3);
        s.core_mut().set_trace(true);
        // All packets at time zero: maximizes continuously-active spans.
        for (id, &(flow, len, _)) in seed_events.iter().enumerate() {
            s.enqueue(Packet::new(id as u64, flow, len, 0), 0);
        }
        let mut now = 0u64;
        while s.service_flit(now).is_some() {
            now += 1;
        }
        let trace = s.core_mut().take_trace();
        let m = s.core().largest_served() as i64;
        prop_assume!(m >= 1);
        let last_round = trace.iter().map(|r| r.round).max().unwrap_or(0);
        // MaxSC per round (0 for rounds with no recorded surplus; round 0
        // is the paper's "before execution", MaxSC = 0).
        let mut max_sc = vec![0i64; (last_round + 2) as usize];
        for r in &trace {
            max_sc[r.round as usize] = max_sc[r.round as usize].max(r.surplus as i64);
        }
        for flow in 0..3usize {
            let visits: Vec<&VisitRecord> =
                trace.iter().filter(|r| r.flow == flow).collect();
            // Find maximal spans of consecutive rounds where the flow
            // stayed continuously active (Theorem 2's premise). A visit
            // in which the queue emptied is excluded: the flow may then
            // undershoot its allowance, and the theorem does not cover it.
            let mut span: Vec<&VisitRecord> = Vec::new();
            let mut spans: Vec<Vec<&VisitRecord>> = Vec::new();
            for v in visits {
                if v.went_inactive {
                    if !span.is_empty() {
                        spans.push(std::mem::take(&mut span));
                    }
                    continue;
                }
                match span.last() {
                    Some(prev) if prev.round + 1 == v.round => span.push(v),
                    Some(_) => {
                        spans.push(std::mem::take(&mut span));
                        span.push(v);
                    }
                    None => span.push(v),
                }
            }
            if !span.is_empty() {
                spans.push(span);
            }
            for sp in spans {
                let k = sp[0].round as i64;
                let n = sp.len() as i64;
                let sent: i64 = sp.iter().map(|r| r.sent as i64).sum();
                let sum_max: i64 = ((k - 1)..(k + n - 1))
                    .map(|r| max_sc[r as usize])
                    .sum();
                let lo = n + sum_max - (m - 1);
                let hi = n + sum_max + (m - 1);
                prop_assert!(
                    sent >= lo && sent <= hi,
                    "flow {flow} rounds {k}..{} sent {sent} outside [{lo},{hi}]",
                    k + n - 1
                );
            }
        }
    }

    /// Lemma 1 bounds hold on the *batched* service path the runtime
    /// drives: with arrivals interleaved at random batch boundaries and
    /// service done via `service_batch`, every visit still grants an
    /// allowance `A_i(r) >= 1` and records a surplus `SC_i(r) < m`
    /// (batching must never change ERR's decisions — it is the same
    /// per-flit schedule with the calls amortized).
    #[test]
    fn err_lemma_bounds_on_batched_path(
        events in workload_strategy(5, 24, 80),
        batch in 1usize..32,
    ) {
        let mut s = ErrScheduler::new(5);
        s.core_mut().set_trace(true);
        let mut now = 0u64;
        let mut out = Vec::new();
        let mut total = 0u64;
        for (id, &(flow, len, gap)) in events.iter().enumerate() {
            now += gap;
            s.enqueue(Packet::new(id as u64, flow, len, now), now);
            total += len as u64;
            now += s.service_batch(now, batch, &mut out) as u64;
        }
        while !s.is_idle() {
            let n = s.service_batch(now, batch, &mut out);
            prop_assert!(n > 0, "batched path stalled with backlog");
            now += n as u64;
        }
        prop_assert_eq!(out.len() as u64, total, "batched path lost flits");
        let m = s.core().largest_served();
        prop_assert!(m >= 1);
        for r in s.core_mut().take_trace() {
            prop_assert!(
                r.allowance >= 1,
                "round {} flow {}: allowance {} < 1",
                r.round, r.flow, r.allowance
            );
            prop_assert!(
                r.surplus < m,
                "round {} flow {}: surplus {} >= m {}",
                r.round, r.flow, r.surplus, m
            );
        }
    }

    /// The batched path is *identical* to the single-stepped path: same
    /// flits, same order, for any batch size.
    #[test]
    fn err_batched_equals_single_stepped(
        events in workload_strategy(4, 16, 60),
        batch in 1usize..48,
    ) {
        // Single-stepped reference.
        let single = run(&Discipline::Err, &events, 4);
        let single: Vec<ServedFlit> = single.into_iter().map(|(_, f)| f).collect();
        // Batched run with the same arrival interleaving as `run`.
        let mut s = Discipline::Err.build(4);
        let mut out = Vec::new();
        let mut now = 0u64;
        for (id, &(flow, len, gap)) in events.iter().enumerate() {
            now += gap;
            s.enqueue(Packet::new(id as u64, flow, len, now), now);
            // `run` serves at most one flit per cycle of the gap.
            let mut budget = gap as usize;
            while budget > 0 {
                let n = s.service_batch(now, batch.min(budget), &mut out);
                if n == 0 {
                    break;
                }
                budget -= n;
            }
        }
        while s.service_batch(now, batch, &mut out) > 0 {}
        prop_assert_eq!(out.len(), single.len());
        for (i, (b, s_)) in out.iter().zip(single.iter()).enumerate() {
            prop_assert_eq!(b, s_, "flit {} differs between batched and single", i);
        }
    }

    /// Parking is lossless and position-preserving: random park/unpark
    /// events interleaved with arrivals and service never lose or
    /// duplicate a flit, never serve a parked flow, keep per-flow FIFO
    /// order, and keep per-flow flit order contiguous within packets.
    #[test]
    fn err_parking_is_lossless_and_fifo(
        events in workload_strategy(4, 12, 50),
        toggles in prop::collection::vec((0..4usize, 0..2u8), 0..40),
    ) {
        let mut s = ErrScheduler::new(4);
        let total: u64 = events.iter().map(|&(_, len, _)| len as u64).sum();
        let mut parked = [false; 4];
        let mut log: Vec<ServedFlit> = Vec::new();
        let mut now = 0u64;
        let mut t = toggles.iter();
        for (id, &(flow, len, gap)) in events.iter().enumerate() {
            now += gap;
            s.enqueue(Packet::new(id as u64, flow, len, now), now);
            if let Some(&(f, park)) = t.next() {
                let park = park == 1;
                if park && !parked[f] {
                    prop_assert!(s.park_flow(f));
                    parked[f] = true;
                } else if !park && parked[f] {
                    s.unpark_flow(f);
                    parked[f] = false;
                }
            }
            for _ in 0..gap {
                if let Some(f) = s.service_flit(now) {
                    prop_assert!(!parked[f.flow], "served parked flow {}", f.flow);
                    log.push(f);
                }
            }
        }
        // Unpark everyone and drain.
        for f in 0..4 {
            s.unpark_flow(f);
        }
        while let Some(f) = s.service_flit(now) {
            log.push(f);
            now += 1;
        }
        prop_assert!(s.is_idle());
        prop_assert_eq!(log.len() as u64, total, "parking lost/duplicated flits");
        for flow in 0..4usize {
            // Per-flow projection: packets in FIFO order, flits contiguous
            // 0..len within each packet (per-flow wormhole integrity —
            // cross-flow interleaving is legal once parking suspends a
            // packet mid-wormhole; its own flits still arrive in order).
            let mine: Vec<&ServedFlit> = log.iter().filter(|f| f.flow == flow).collect();
            let mut expect: Option<(u64, u32, u32)> = None; // (pkt, next_idx, len)
            let mut last_pkt: Option<u64> = None;
            for f in mine {
                match expect {
                    None => {
                        prop_assert_eq!(f.flit_index, 0, "flow {} packet started mid-flit", flow);
                        if let Some(p) = last_pkt {
                            prop_assert!(f.packet > p, "flow {} FIFO violation", flow);
                        }
                        last_pkt = Some(f.packet);
                        expect = if f.is_tail() { None } else { Some((f.packet, 1, f.len)) };
                    }
                    Some((pid, idx, len)) => {
                        prop_assert_eq!(f.packet, pid, "flow {} interleaved own packets", flow);
                        prop_assert_eq!(f.flit_index, idx);
                        expect = if idx + 1 == len { None } else { Some((pid, idx + 1, len)) };
                    }
                }
            }
            prop_assert!(expect.is_none(), "flow {} packet left unfinished", flow);
        }
    }

    /// `service_run` is the single-stepped schedule cut into runs.
    /// Random limits (0 included) and random park/unpark calls between
    /// runs, many landing mid-packet, leave the flit sequence and every
    /// visit decision identical to `service_flit` single-stepping under
    /// the same park schedule; no run crosses a packet, each run's
    /// flits continue where its flow's packet left off, per-flow FIFO
    /// holds, and every visit keeps Lemma 1.
    #[test]
    fn err_runs_equal_single_stepped_under_parking(
        events in workload_strategy(4, 12, 50),
        steps in prop::collection::vec((0u32..6, 0u8..16), 1..120),
    ) {
        let mut t = RunsBesideSingle::new();
        let total: u64 = events.iter().map(|&(_, len, _)| len as u64).sum();
        let mut steps = steps.iter().cycle();
        for (id, &(flow, len, gap)) in events.iter().enumerate() {
            t.enqueue(Packet::new(id as u64, flow, len, 0));
            for _ in 0..gap {
                let &(limit, act) = steps.next().expect("cycled");
                t.toggle(act);
                t.run(limit);
            }
        }
        // Unpark everyone and drain, still in random runs (each of at
        // least one flit, so the drain ends).
        for act in 4..8 {
            t.toggle(act);
        }
        while !t.runs.is_idle() {
            let &(limit, _) = steps.next().expect("cycled");
            prop_assert!(t.run(limit.max(1)) > 0, "runs stalled with backlog");
        }
        prop_assert!(t.single.is_idle());
        prop_assert_eq!(t.served, total, "runs lost or duplicated flits");
        prop_assert!(t.open.iter().all(Option::is_none), "a packet was left unfinished");
        t.check_visits();
    }

    /// Work conservation: while flits are backlogged the scheduler always
    /// serves.
    #[test]
    fn work_conserving_all_disciplines(events in workload_strategy(4, 8, 40)) {
        for d in all_disciplines() {
            let mut s = d.build(4);
            let mut now = 0u64;
            for (id, &(flow, len, gap)) in events.iter().enumerate() {
                now += gap;
                s.enqueue(Packet::new(id as u64, flow, len, now), now);
                if !s.is_idle() {
                    prop_assert!(
                        s.service_flit(now).is_some(),
                        "{} idled with backlog", d.label()
                    );
                }
            }
            while !s.is_idle() {
                prop_assert!(s.service_flit(now).is_some(), "{} stalled", d.label());
                now += 1;
            }
        }
    }
}

/// The run path beside the single-stepped path, under one park
/// schedule: `runs` serves by `service_run`, `single` by `service_flit`,
/// and every park or unpark is applied to both between two runs.
struct RunsBesideSingle {
    runs: ErrScheduler,
    single: ErrScheduler,
    parked: [bool; 4],
    /// Per flow: the packet open on it and the index its next flit
    /// must carry.
    open: [Option<(u64, u32)>; 4],
    /// Per flow: the last packet begun.
    last: [Option<u64>; 4],
    served: u64,
}

impl RunsBesideSingle {
    fn new() -> Self {
        let (mut runs, mut single) = (ErrScheduler::new(4), ErrScheduler::new(4));
        runs.core_mut().set_trace(true);
        single.core_mut().set_trace(true);
        Self {
            runs,
            single,
            parked: [false; 4],
            open: [None; 4],
            last: [None; 4],
            served: 0,
        }
    }

    fn enqueue(&mut self, pkt: Packet) {
        self.runs.enqueue(pkt, 0);
        self.single.enqueue(pkt, 0);
    }

    /// `act` 0..4 parks that flow, 4..8 unparks flow `act - 4`, anything
    /// else leaves the park schedule alone.
    fn toggle(&mut self, act: u8) {
        let flow = usize::from(act % 4);
        match act {
            0..=3 => {
                self.runs.park_flow(flow);
                self.single.park_flow(flow);
                self.parked[flow] = true;
            }
            4..=7 => {
                self.runs.unpark_flow(flow);
                self.single.unpark_flow(flow);
                self.parked[flow] = false;
            }
            _ => {}
        }
    }

    /// One run of at most `limit` flits beside as many single steps;
    /// returns the flits served.
    fn run(&mut self, limit: u32) -> u32 {
        let mut asked = None;
        let Some(run) = self.runs.service_run(|flow| {
            asked = Some(flow);
            limit
        }) else {
            // Nothing served and nothing changed: single-stepping
            // serves nothing either, unless the limit alone said no.
            if limit > 0 {
                assert_eq!(self.single.service_flit(0), None, "runs went idle first");
            }
            return 0;
        };
        let flow = run.packet.flow;
        assert_eq!(asked, Some(flow), "the limit was asked for another flow");
        assert!(
            run.count >= 1 && run.count <= limit,
            "run of {} under limit {limit}",
            run.count
        );
        assert!(
            run.first + run.count <= run.packet.len,
            "a run crossed its packet's tail"
        );
        assert!(!self.parked[flow], "served parked flow {flow}");
        // Contiguous: the run starts where the flow's open packet left
        // off, or heads the flow's next packet (per-flow FIFO).
        match self.open[flow] {
            Some((pid, next)) => {
                assert_eq!(
                    run.packet.id, pid,
                    "flow {flow} interleaved its own packets"
                );
                assert_eq!(run.first, next, "flow {flow}: gap inside packet {pid}");
            }
            None => {
                assert_eq!(run.first, 0, "flow {flow} packet started mid-flit");
                assert!(
                    self.last[flow].is_none_or(|p| run.packet.id > p),
                    "flow {flow} FIFO violation"
                );
                self.last[flow] = Some(run.packet.id);
            }
        }
        self.open[flow] = (!run.ends_packet()).then_some((run.packet.id, run.first + run.count));
        for (i, flit) in run.flits().enumerate() {
            assert_eq!(
                Some(flit),
                self.single.service_flit(0),
                "flit {i} of {run:?}"
            );
        }
        self.served += u64::from(run.count);
        run.count
    }

    /// Both schedulers made the same visit decisions, and each visit
    /// kept Lemma 1: `A_i(r) >= 1` and `SC_i(r) < m`.
    fn check_visits(&mut self) {
        let m = self.runs.core().largest_served();
        assert_eq!(m, self.single.core().largest_served());
        let trace = self.runs.core_mut().take_trace();
        assert_eq!(
            trace,
            self.single.core_mut().take_trace(),
            "visit decisions differ"
        );
        for r in trace {
            assert!(
                r.allowance >= 1,
                "round {} flow {}: allowance 0",
                r.round,
                r.flow
            );
            assert!(
                r.surplus < m,
                "round {} flow {}: surplus {} >= m {m}",
                r.round,
                r.flow,
                r.surplus
            );
        }
    }
}

/// Flows the pool properties draw from.
const POOL_FLOWS: usize = 64;

/// One pool operation: `(kind, flow, len, arrival)`. Kinds 0–3 push,
/// 4–6 pop and 7 takes, so queues build up between drains.
fn pool_ops_strategy(max_ops: usize) -> impl Strategy<Value = Vec<(u8, usize, u32, u64)>> {
    prop::collection::vec((0u8..8, 0..POOL_FLOWS, 1u32..=16, 0u64..1_000), 1..max_ops)
}

/// `q` agrees with the model on every flow and in aggregate.
fn assert_pool_matches(q: &FlowQueues, model: &[VecDeque<Packet>]) {
    let mut flits = 0;
    for (flow, m) in model.iter().enumerate() {
        let want: u64 = m.iter().map(|p| u64::from(p.len)).sum();
        assert_eq!(q.flow_flits(flow), want, "flow {flow}: flow_flits");
        assert_eq!(q.is_empty(flow), m.is_empty(), "flow {flow}: is_empty");
        assert_eq!(
            q.head_len(flow),
            m.front().map(|p| p.len),
            "flow {flow}: head_len"
        );
        flits += want;
    }
    assert_eq!(q.backlog_flits(), flits, "backlog_flits");
    let pkts: usize = model.iter().map(VecDeque::len).sum();
    assert_eq!(q.backlog_pkts(), pkts as u64, "backlog_pkts");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The packet pool behaves as one `VecDeque` per flow: every pop
    /// returns the model's packet whole, every take the model's queue in
    /// FIFO order, and the per-flow and aggregate counters agree after
    /// every operation. The pool starts with `provisioned` flows and
    /// grows on demand to the rest.
    #[test]
    fn flow_queues_match_a_vecdeque_per_flow(
        provisioned in 0..POOL_FLOWS,
        ops in pool_ops_strategy(400),
    ) {
        let mut q = FlowQueues::new(provisioned);
        let mut model = vec![VecDeque::new(); POOL_FLOWS];
        for (id, &(kind, flow, len, arrival)) in ops.iter().enumerate() {
            match kind {
                0..=3 => {
                    let pkt = Packet::new(id as u64, flow, len, arrival);
                    q.push(pkt);
                    model[flow].push_back(pkt);
                }
                4..=6 => prop_assert_eq!(q.pop(flow), model[flow].pop_front(), "pop of flow {}", flow),
                _ => prop_assert_eq!(q.take(flow), std::mem::take(&mut model[flow]), "take of flow {}", flow),
            }
            assert_pool_matches(&q, &model);
        }
    }

    /// Once a backlog of `depth` packets is reached, any number of
    /// pop-then-push cycles over any flows never grows the pool.
    #[test]
    fn flow_queues_steady_backlog_never_grows_the_pool(
        depth in 1usize..200,
        cycles in prop::collection::vec((0..POOL_FLOWS, 0..POOL_FLOWS, 1u32..=16), 1..400),
    ) {
        let mut q = FlowQueues::new(POOL_FLOWS);
        let mut id = 0u64;
        for i in 0..depth {
            q.push(Packet::new(id, i % POOL_FLOWS, 1, 0));
            id += 1;
        }
        let slots = q.pool_slots();
        prop_assert_eq!(slots, depth);
        for &(from, to, len) in &cycles {
            // Pop from the first backlogged flow at or after `from`.
            let flow = (0..POOL_FLOWS)
                .map(|k| (from + k) % POOL_FLOWS)
                .find(|&f| !q.is_empty(f))
                .expect("the backlog is never empty");
            prop_assert!(q.pop(flow).is_some());
            q.push(Packet::new(id, to, len, id));
            id += 1;
            prop_assert_eq!(q.pool_slots(), slots, "a steady backlog grew the pool");
            prop_assert_eq!(q.backlog_pkts(), depth as u64);
        }
    }
}
