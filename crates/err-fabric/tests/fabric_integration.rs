//! End-to-end fabric behavior: hop-by-hop delivery, backpressure,
//! reroute, node kills, and the conservation identity (DESIGN.md
//! §11.2–§11.4, §14.1).

use std::time::{Duration, Instant};

use desim::SimRng;
use err_fabric::{
    DeadLinkPolicy, DrainOutcome, Fabric, FabricConfig, FabricFault, FabricFaultPlan, FlowSpec,
    Topology,
};

const DRAIN: Duration = Duration::from_secs(20);

fn mesh_fabric(cols: usize, rows: usize, flows: Vec<FlowSpec>) -> Fabric {
    Fabric::start(FabricConfig::new(Topology::mesh(cols, rows), flows))
}

#[test]
fn single_node_ejects_locally() {
    let f = mesh_fabric(1, 1, vec![FlowSpec { src: 0, dst: 0 }]);
    for _ in 0..10 {
        f.submit(0, 3).unwrap();
    }
    let rep = f.drain_within(DRAIN);
    assert!(!rep.forced);
    assert!(rep.is_conserving());
    assert_eq!(rep.flows[0].ejected_packets, 10);
    assert_eq!(rep.flows[0].ejected_flits, 30);
    assert_eq!(rep.lost_packets, 0);
}

#[test]
fn packets_cross_hops_and_conserve() {
    // 3×1 line: flow 0 crosses two hops, flow 1 one hop, flow 2 none.
    let f = mesh_fabric(
        3,
        1,
        vec![
            FlowSpec { src: 0, dst: 2 },
            FlowSpec { src: 1, dst: 0 },
            FlowSpec { src: 2, dst: 2 },
        ],
    );
    for flow in 0..3 {
        for _ in 0..20 {
            f.submit(flow, 4).unwrap();
        }
    }
    let rep = f.drain_within(DRAIN);
    assert!(!rep.forced, "graceful drain expected");
    assert!(rep.is_conserving());
    assert_eq!(rep.lost_packets, 0, "zero loss under graceful drain");
    for flow in 0..3 {
        assert_eq!(rep.flows[flow].submitted, 20);
        assert_eq!(rep.flows[flow].ejected_packets, 20, "flow {flow}");
        assert_eq!(rep.flows[flow].ejected_flits, 80, "flow {flow}");
        assert_eq!(rep.flows[flow].dropped, 0);
    }
    // Transit accounting: node 1 served flow 0's flits on their way
    // through (20 packets × 4 flits), plus its own flow 1.
    assert_eq!(rep.node_reports[1].stats.served_flits(), 80 + 80);
}

#[test]
fn frozen_destination_backpressures_then_recovers() {
    // 2×1 line, everything bound for node 1. Freezing node 1's eject
    // end starves its credits; the admission window fills; the source
    // node's forwarder gets refused tails and holds them under credit.
    let f = Fabric::start({
        let mut c = FabricConfig::new(Topology::mesh(2, 1), vec![FlowSpec { src: 0, dst: 1 }]);
        c.max_backlog = 8;
        c.credits = 4;
        c
    });
    f.controller(1).freeze(0);
    let mut accepted = 0u64;
    let mut attempts = 0u64;
    while accepted < 40 && attempts < 400_000 {
        attempts += 1;
        if f.try_submit(0, 2).is_ok() {
            accepted += 1;
        }
    }
    // The frozen sink must have pushed refusals all the way upstream:
    // fewer accepts than attempts (source admission window filled).
    assert!(accepted < attempts, "backpressure never reached the source");
    f.controller(1).release_stall(0);
    let rep = f.drain_within(DRAIN);
    assert!(!rep.forced);
    assert!(rep.is_conserving());
    assert_eq!(rep.flows[0].ejected_packets, rep.flows[0].submitted);
    assert_eq!(rep.lost_packets, 0);
}

/// A 2×1 line, flow 0 → 1, with node 1's eject end frozen: node 1
/// parks the flow after one credit window and its admission fills, so
/// the next tail node 0 hands off is refused, for as long as the freeze
/// lasts — 50 ms. `behind` more packets are sent after that tail. Checks
/// that the run conserves and every link credit comes back, and returns
/// how often node 0 offered the tail and how often its worker parked.
fn refused_tail_for_50_ms(behind: u64) -> (u64, u64) {
    const CREDITS: u64 = 4;
    let f = Fabric::start({
        let mut c = FabricConfig::new(Topology::mesh(2, 1), vec![FlowSpec { src: 0, dst: 1 }]);
        c.max_backlog = 8;
        c.credits = CREDITS;
        c
    });
    f.controller(1).freeze(0);
    let east = f.topology().link_to(0, 1).expect("0-1 are neighbors");
    let crossed = || f.controller(0).snapshot().links[east].delivered_flits;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    // One credit window of 2-flit packets: once node 1 has served it,
    // it serves nothing more before the thaw, so what it admits next
    // only fills its admission, and the refusal that follows lasts.
    let mut sent = CREDITS / 2;
    for _ in 0..sent {
        f.submit(0, 2).unwrap();
    }
    while f.controller(1).snapshot().links[0].credits_available > 0 {
        assert!(std::time::Instant::now() < deadline, "node 1 never parked");
        std::thread::yield_now();
    }
    while f.refusals(0) == 0 {
        f.submit(0, 2).unwrap();
        sent += 1;
        while crossed() < 2 * sent && f.refusals(0) == 0 {
            assert!(std::time::Instant::now() < deadline, "node 1 never refused");
            std::thread::yield_now();
        }
    }
    for _ in 0..behind {
        f.submit(0, 2).unwrap();
        sent += 1;
    }
    std::thread::sleep(Duration::from_millis(50));
    f.controller(1).release_stall(0);
    while f.in_flight() > 0 {
        assert!(std::time::Instant::now() < deadline, "never delivered");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Every refusal, plus the offer that was accepted.
    let offers = f.refusals(0) + 1;
    let rep = f.drain_within(DRAIN);
    assert!(rep.is_conserving());
    assert_eq!(rep.lost_packets, 0);
    assert_eq!(rep.flows[0].ejected_packets, sent);
    for (node, nrep) in rep.node_reports.iter().enumerate() {
        let egress = nrep.stats.egress.as_ref().expect("buffered mode");
        for (link, snap) in egress.links.iter().enumerate() {
            assert_eq!(
                snap.credits_available, CREDITS,
                "node {node} link {link} leaked credits"
            );
        }
    }
    (offers, rep.node_reports[0].stats.shards[0].parks)
}

/// A node is one thread: its worker runs the flusher step, so a tail
/// the next node refuses is offered again once per park of that worker
/// — a wake or a 100 µs poll — never per look of its idle path
/// (DESIGN.md §7). Nothing is queued behind the tail.
#[test]
fn a_refused_tail_is_offered_again_per_worker_park_not_per_spin() {
    let (offers, parks) = refused_tail_for_50_ms(0);
    assert!(
        offers > 10,
        "a refused tail is polled, not slept on: {offers} offers"
    );
    assert!(
        offers <= parks + 2,
        "{offers} offers over {parks} parks: a refused tail was re-offered from the idle path"
    );
}

/// The same tail with its link's credit window used up behind it: the
/// link is credit-parked and the worker has nothing else to serve, yet
/// what it waits for — the peer finding room — is announced by nobody,
/// so it still polls; it does not sleep on the backstop.
#[test]
fn a_refused_tail_is_polled_while_its_link_is_credit_parked() {
    let (offers, parks) = refused_tail_for_50_ms(2);
    assert!(
        offers > 10,
        "a refused tail is polled, not slept on: {offers} offers"
    );
    assert!(offers <= parks + 2, "{offers} offers over {parks} parks");
}

#[test]
fn unrelated_flows_keep_moving_while_one_path_is_stalled() {
    // 2×2: flow 0 (0→1, East link) is frozen at its destination; flow
    // 1 (0→2, South link) shares no link with it and must not park.
    let f = Fabric::start({
        let mut c = FabricConfig::new(
            Topology::mesh(2, 2),
            vec![FlowSpec { src: 0, dst: 1 }, FlowSpec { src: 0, dst: 2 }],
        );
        c.max_backlog = 8;
        c.credits = 4;
        c
    });
    f.controller(1).freeze(0);
    // Saturate flow 0 far past its end-to-end buffering.
    let mut flow0_accepted = 0u64;
    for _ in 0..200 {
        if f.try_submit(0, 2).is_ok() {
            flow0_accepted += 1;
        }
    }
    // Flow 1 must keep ejecting while flow 0 is wedged.
    let mut flow1_accepted = 0u64;
    for _ in 0..50 {
        if f.try_submit(1, 2).is_ok() {
            flow1_accepted += 1;
        }
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while f.ledger().flow(1).ejected_packets < flow1_accepted
        && std::time::Instant::now() < deadline
    {
        std::thread::yield_now();
    }
    assert_eq!(
        f.ledger().flow(1).ejected_packets,
        flow1_accepted,
        "the stalled path must not park unrelated traffic"
    );
    assert!(
        f.ledger().flow(0).ejected_packets < flow0_accepted,
        "flow 0 should still be wedged behind the frozen eject"
    );
    f.controller(1).release_stall(0);
    let rep = f.drain_within(DRAIN);
    assert!(rep.is_conserving());
    assert_eq!(rep.lost_packets, 0);
}

#[test]
fn cut_link_reroutes_via_the_yx_step() {
    // 2×2, flow 0→3: primary XY route is 0→1→3. Cutting 0's east
    // cable diverts every tail onto the YX alternate 0→2→3.
    let f = mesh_fabric(2, 2, vec![FlowSpec { src: 0, dst: 3 }]);
    let east = f.topology().link_to(0, 1).unwrap();
    f.cut_link(0, east);
    for _ in 0..25 {
        f.submit(0, 3).unwrap();
    }
    let rep = f.drain_within(DRAIN);
    assert!(!rep.forced);
    assert!(rep.is_conserving());
    assert_eq!(rep.flows[0].ejected_packets, 25);
    assert_eq!(rep.flows[0].rerouted, 25, "every packet took the YX step");
    assert_eq!(rep.lost_packets, 0);
    // The detour kept node 1 idle and pushed the transit through 2.
    assert_eq!(rep.node_reports[1].stats.served_flits(), 0);
    assert_eq!(rep.node_reports[2].stats.served_flits(), 75);
}

#[test]
fn cut_final_link_dead_letters_honestly() {
    // 2×1 line: the only route 0→1 dies; no alternate exists, so
    // packets dead-letter at the source's forwarder, counted.
    let f = mesh_fabric(2, 1, vec![FlowSpec { src: 0, dst: 1 }]);
    f.cut_link(0, 1);
    for _ in 0..10 {
        f.submit(0, 2).unwrap();
    }
    let rep = f.drain_within(DRAIN);
    assert!(!rep.forced);
    assert!(rep.is_conserving());
    assert_eq!(rep.flows[0].ejected_packets, 0);
    assert_eq!(rep.flows[0].dead_lettered, 10);
}

#[test]
fn chaos_kill_link_mid_run_conserves() {
    let plan = FabricFaultPlan::new().kill_link_at(0, 1, 10);
    let f = Fabric::start({
        let mut c = FabricConfig::new(
            Topology::mesh(2, 2),
            vec![FlowSpec { src: 0, dst: 3 }, FlowSpec { src: 3, dst: 0 }],
        );
        c.fault_plan = Some(plan);
        c
    });
    for _ in 0..100 {
        f.submit(0, 2).unwrap();
        f.submit(1, 2).unwrap();
    }
    // Let the monitor observe the clock passing the deadline.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while f.in_flight() > 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    let rep = f.drain_within(DRAIN);
    assert!(rep.is_conserving());
    assert_eq!(rep.lost_packets, 0, "a link kill loses nothing");
    assert_eq!(rep.events.len(), 1, "the scheduled kill fired");
    assert_eq!(
        rep.flows[0].ejected_packets + rep.flows[0].dead_lettered,
        100
    );
    assert_eq!(rep.flows[1].ejected_packets, 100, "reverse path unharmed");
}

#[test]
fn chaos_kill_node_counts_losses() {
    // 3×1 line, traffic 0→2 transits node 1, which dies once five
    // packets have ejected.
    let plan = FabricFaultPlan::new().kill_node_at(1, 5);
    let f = Fabric::start({
        let mut c = FabricConfig::new(Topology::mesh(3, 1), vec![FlowSpec { src: 0, dst: 2 }]);
        c.fault_plan = Some(plan);
        c
    });
    let settle = || {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while f.in_flight() > 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
    };
    // Before the burst, wait for the kill: one packet at a time, each
    // settled, until one meets the dead node — dead-lettered at node 0
    // or lost inside node 1. The packets before it drive the ejection
    // clock to the kill.
    let mut accepted = 0u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while f.ledger().flow(0).dead_lettered == 0 && f.ledger().lost() == 0 {
        assert!(std::time::Instant::now() < deadline, "the kill never fired");
        f.submit(0, 2).unwrap();
        accepted += 1;
        settle();
    }
    let mut after_kill = 0u64;
    for _ in 0..200 {
        if f.try_submit(0, 2).is_ok() {
            after_kill += 1;
        }
    }
    assert!(after_kill > 0, "node 0 admits while node 1 is dead");
    accepted += after_kill;
    settle();
    let rep = f.drain_within(DRAIN);
    assert!(rep.is_conserving(), "losses must be counted, not leaked");
    assert_eq!(rep.flows[0].submitted, accepted);
    assert_eq!(
        rep.flows[0].ejected_packets
            + rep.flows[0].dead_lettered
            + rep.flows[0].dropped
            + rep.lost_packets,
        accepted
    );
    assert_eq!(rep.events.len(), 1);
    // On a line there is no alternate around the corpse: everything
    // sent after the kill dead-letters at node 0.
    assert!(
        rep.flows[0].dead_lettered >= after_kill,
        "{:?}",
        rep.flows[0]
    );
}

/// Submits `per_flow` packets on every flow, round robin, never
/// blocking on one: a flow whose admission is full (held behind a dead
/// cable) is retried while the others keep the ejection clock moving.
fn submit_round_robin(f: &Fabric, n_flows: usize, per_flow: u64, len: u32) {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut sent = vec![0u64; n_flows];
    while sent.iter().any(|&n| n < per_flow) {
        let mut progressed = false;
        for (flow, n) in sent.iter_mut().enumerate() {
            if *n < per_flow && f.try_submit(flow, len).is_ok() {
                *n += 1;
                progressed = true;
            }
        }
        if !progressed {
            assert!(Instant::now() < deadline, "submitters starved");
            std::thread::yield_now();
        }
    }
}

/// A link or panic event fires at exactly its clock: with one ejecting
/// worker the ejection clock counts on one thread, and the ejection
/// whose value reaches an event applies it before anything else ejects
/// (DESIGN.md §11.4). On a 3×1 line every flow ejects at node 2; the
/// second heal mends the cable the injected panic poisoned.
#[test]
fn link_and_panic_events_fire_at_their_exact_clock() {
    let topo = Topology::mesh(3, 1);
    let east = topo.link_to(0, 1).expect("0-1 are neighbors");
    let plan = FabricFaultPlan::new()
        .kill_link_at(0, east, 10)
        .heal_link_at(0, east, 20)
        .panic_forwarder_at(0, 30)
        .heal_link_at(0, east, 40);
    for run in 0..20 {
        let mut cfg = FabricConfig::new(
            topo.clone(),
            vec![
                FlowSpec { src: 0, dst: 2 },
                FlowSpec { src: 1, dst: 2 },
                FlowSpec { src: 2, dst: 2 },
            ],
        );
        cfg.fault_plan = Some(plan.clone());
        let f = Fabric::start(cfg);
        submit_round_robin(&f, 3, 60, 2);
        let rep = f.drain_within(DRAIN);
        assert!(rep.is_conserving(), "run {run}");
        assert_eq!(rep.outcome, DrainOutcome::Graceful, "run {run}");
        assert_eq!(rep.events.len(), 4, "run {run}: every event fired");
        for (ev, planned) in rep.events.iter().zip(plan.events()) {
            assert_eq!(ev.fault, *planned, "run {run}: plan order");
            assert_eq!(ev.fired_at, ev.fault.at(), "run {run}: {:?}", ev.fault);
        }
        assert!(rep.forwarder_exits.len() <= 1, "run {run}: one-shot panic");
    }
}

/// `KillNode` and `ReviveNode` fire at exactly their clock too: the
/// ejecting worker applies them in place — a flag flip, the node's
/// runtime taken down or back up — with nothing to join or boot
/// (DESIGN.md §14.1). On a 3×1 line every flow ejects at node 2, and
/// node 1, which flow 0 crosses and flow 1 starts at, dies twice.
#[test]
fn node_events_fire_at_their_exact_clock() {
    let plan = FabricFaultPlan::new()
        .kill_node_at(1, 10)
        .revive_node_at(1, 20)
        .kill_node_at(1, 30)
        .revive_node_at(1, 40);
    for run in 0..20 {
        let mut cfg = FabricConfig::new(
            Topology::mesh(3, 1),
            vec![
                FlowSpec { src: 0, dst: 2 },
                FlowSpec { src: 1, dst: 2 },
                FlowSpec { src: 2, dst: 2 },
            ],
        );
        cfg.dead_link_policy = DeadLinkPolicy::HoldForRecovery;
        cfg.fault_plan = Some(plan.clone());
        let f = Fabric::start(cfg);
        submit_round_robin(&f, 3, 60, 2);
        let rep = f.drain_within(DRAIN);
        assert!(rep.is_conserving(), "run {run}");
        assert_eq!(rep.outcome, DrainOutcome::Graceful, "run {run}");
        assert_eq!(rep.events.len(), 4, "run {run}: every event fired");
        for (ev, planned) in rep.events.iter().zip(plan.events()) {
            assert_eq!(ev.fault, *planned, "run {run}: plan order");
            assert_eq!(ev.fired_at, ev.fault.at(), "run {run}: {:?}", ev.fault);
        }
    }
}

/// A cable's `DeadMap` flag belongs to link events: reviving a node
/// leaves a cable that a separate `KillLink` cut dead. On a 3×1 line
/// flow 0 has no way around node 0's cut east cable, so every packet it
/// sends after the revive dead-letters.
#[test]
fn a_revive_leaves_a_cable_a_link_kill_cut_dead() {
    let topo = Topology::mesh(3, 1);
    let east = topo.link_to(0, 1).expect("0-1 are neighbors");
    let mut cfg = FabricConfig::new(
        topo,
        vec![FlowSpec { src: 0, dst: 2 }, FlowSpec { src: 2, dst: 2 }],
    );
    cfg.fault_plan = Some(
        FabricFaultPlan::new()
            .kill_link_at(0, east, 5)
            .kill_node_at(1, 10)
            .revive_node_at(1, 20),
    );
    let f = Fabric::start(cfg);
    // Flow 1 drives the clock past the revive; events fire inline, so
    // once its packets have ejected every event has been applied.
    for _ in 0..25 {
        f.submit(1, 2).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while f.in_flight() > 0 {
        assert!(Instant::now() < deadline, "flow 1 never ejected");
        std::thread::yield_now();
    }
    for _ in 0..20 {
        f.submit(0, 2).unwrap();
    }
    let rep = f.drain_within(DRAIN);
    assert!(rep.is_conserving());
    assert_eq!(rep.events.len(), 3, "every event fired");
    assert_eq!(rep.flows[0].dead_lettered, 20, "{:?}", rep.flows[0]);
    assert_eq!(rep.flows[0].ejected_packets, 0);
    assert_eq!(rep.flows[1].ejected_packets, 25);
}

/// Seeds of [`node_kills_race_submits_and_settle_once`].
const KILL_SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 6];

/// A node killed and revived twice while four producers race their
/// submits into a 2×2 mesh of two-shard nodes (DESIGN.md §14.1): submits
/// and hand-offs straddle each kill, half the seeds revive one clock
/// after the kill — before every worker of the corpse has swept — and
/// under both dead-link policies each kill settles its loss exactly
/// once. The ledger conserves, the drain is graceful, the kills' events
/// carry every packet lost, and no settlement is departed twice (a
/// debug build asserts `gate underflow`, which the forwarder's fence
/// would report as an exit).
#[test]
fn node_kills_race_submits_and_settle_once() {
    const PER_FLOW: u64 = 15;
    let topo = Topology::mesh(2, 2);
    let flows: Vec<FlowSpec> = (0..4)
        .flat_map(|src| (0..4).map(move |dst| FlowSpec { src, dst }))
        .filter(|s| s.src != s.dst)
        .collect();
    for policy in [
        DeadLinkPolicy::DropAndAccount,
        DeadLinkPolicy::HoldForRecovery,
    ] {
        for seed in KILL_SEEDS {
            let mut rng = SimRng::new(seed);
            let node = rng.index(4);
            let mut gap = || {
                if seed % 2 == 0 {
                    1
                } else {
                    1 + rng.index(10) as u64
                }
            };
            let kill = 5 + gap() + gap();
            let revive = kill + gap();
            let kill_again = revive + gap();
            let plan = FabricFaultPlan::new()
                .kill_node_at(node, kill)
                .revive_node_at(node, revive)
                .kill_node_at(node, kill_again)
                .revive_node_at(node, kill_again + gap());
            let leg = format!("{policy:?}, seed {seed}, {:?}", plan.events());
            let mut cfg = FabricConfig::new(topo.clone(), flows.clone());
            cfg.shards_per_node = 2;
            cfg.max_backlog = 8;
            cfg.credits = 4;
            cfg.dead_link_policy = policy;
            cfg.fault_plan = Some(plan.clone());
            let f = Fabric::start(cfg);
            std::thread::scope(|s| {
                for producer in 0..4 {
                    let (f, n_flows) = (&f, flows.len());
                    s.spawn(move || {
                        let mine: Vec<usize> = (producer..n_flows).step_by(4).collect();
                        let mut sent = vec![0u64; mine.len()];
                        let deadline = Instant::now() + Duration::from_secs(30);
                        while sent.iter().any(|&n| n < PER_FLOW) {
                            assert!(Instant::now() < deadline, "producer {producer} starved");
                            for (n, &flow) in sent.iter_mut().zip(&mine) {
                                if *n < PER_FLOW && f.try_submit(flow, 4).is_ok() {
                                    *n += 1;
                                }
                            }
                            std::thread::yield_now();
                        }
                    });
                }
            });
            let rep = f.drain_within(DRAIN);
            assert!(rep.is_conserving(), "{leg}");
            assert_eq!(rep.outcome, DrainOutcome::Graceful, "{leg}");
            assert!(
                rep.forwarder_exits.is_empty(),
                "{leg}: {:?}",
                rep.forwarder_exits
            );
            let fired: Vec<FabricFault> = rep.events.iter().map(|e| e.fault).collect();
            assert_eq!(fired, plan.events(), "{leg}: plan order");
            let settled: u64 = rep.events.iter().map(|e| e.lost_packets).sum();
            assert_eq!(rep.lost_packets, settled, "{leg}");
        }
    }
}

/// A kill and a heal one clock value apart on one cable are recorded
/// in plan order even with four ejecting workers, and the drain is
/// graceful with nothing dead-lettered: the heal never overtakes the
/// kill it undoes (DESIGN.md §11.4).
#[test]
fn a_kill_and_the_heal_one_clock_later_fire_in_plan_order() {
    let topo = Topology::mesh(2, 2);
    let east = topo.link_to(0, 1).expect("0-1 are neighbors");
    let flows: Vec<FlowSpec> = (0..4)
        .flat_map(|src| (0..4).map(move |dst| FlowSpec { src, dst }))
        .filter(|s| s.src != s.dst)
        .collect();
    assert_eq!(flows.len(), 12);
    for t in [1, 7, 25, 60] {
        let mut cfg = FabricConfig::new(topo.clone(), flows.clone());
        cfg.max_backlog = 8;
        cfg.credits = 4;
        cfg.dead_link_policy = DeadLinkPolicy::HoldForRecovery;
        cfg.fault_plan = Some(
            FabricFaultPlan::new()
                .kill_link_at(0, east, t)
                .heal_link_at(0, east, t + 1),
        );
        let f = Fabric::start(cfg);
        submit_round_robin(&f, flows.len(), 10, 4);
        let rep = f.drain_within(DRAIN);
        assert!(rep.is_conserving(), "t={t}");
        assert_eq!(rep.outcome, DrainOutcome::Graceful, "t={t}");
        assert_eq!(rep.lost_packets, 0, "t={t}");
        assert_eq!(rep.dead_lettered_packets(), 0, "t={t}");
        let fired: Vec<FabricFault> = rep.events.iter().map(|e| e.fault).collect();
        assert!(
            matches!(
                fired[..],
                [FabricFault::KillLink { .. }, FabricFault::HealLink { .. }]
            ),
            "t={t}: {fired:?}"
        );
    }
}

/// An event at clock 0 is applied before `Fabric::start` returns, so
/// the very first packet over a cable cut at 0 finds it dead.
#[test]
fn a_cut_at_clock_zero_dead_letters_the_first_packet() {
    let topo = Topology::mesh(2, 1);
    let east = topo.link_to(0, 1).expect("0-1 are neighbors");
    let mut cfg = FabricConfig::new(topo, vec![FlowSpec { src: 0, dst: 1 }]);
    cfg.fault_plan = Some(FabricFaultPlan::new().kill_link_at(0, east, 0));
    let f = Fabric::start(cfg);
    f.submit(0, 2).unwrap();
    let rep = f.drain_within(DRAIN);
    assert!(rep.is_conserving());
    assert_eq!(rep.flows[0].dead_lettered, 1);
    assert_eq!(rep.flows[0].ejected_packets, 0);
    assert_eq!(rep.events.len(), 1);
    assert_eq!(rep.events[0].fired_at, 0);
}

/// A plan is checked before traffic starts, so no event can panic on
/// the shard worker that reaches it.
#[test]
#[should_panic(expected = "not a cable")]
fn a_plan_naming_no_cable_is_refused_at_start() {
    let mut cfg = FabricConfig::new(Topology::mesh(2, 1), vec![FlowSpec { src: 0, dst: 1 }]);
    cfg.fault_plan = Some(FabricFaultPlan::new().kill_link_at(0, 2, 3));
    Fabric::start(cfg);
}

#[test]
fn fat_tree_traffic_conserves() {
    let topo = Topology::fat_tree(4);
    // Cross-pod and same-pod flows between edge switches.
    let flows = vec![
        FlowSpec { src: 0, dst: 7 },
        FlowSpec { src: 7, dst: 0 },
        FlowSpec { src: 0, dst: 1 },
        FlowSpec { src: 4, dst: 2 },
    ];
    let f = Fabric::start(FabricConfig::new(topo, flows));
    for flow in 0..4 {
        for _ in 0..15 {
            f.submit(flow, 3).unwrap();
        }
    }
    let rep = f.drain_within(DRAIN);
    assert!(!rep.forced);
    assert!(rep.is_conserving());
    assert_eq!(rep.lost_packets, 0);
    for flow in 0..4 {
        assert_eq!(rep.flows[flow].ejected_packets, 15, "flow {flow}");
        assert_eq!(rep.flows[flow].ejected_flits, 45, "flow {flow}");
    }
}

#[test]
fn fat_tree_reroutes_over_the_next_ecmp_up_link() {
    let topo = Topology::fat_tree(4);
    let spec = FlowSpec { src: 0, dst: 7 };
    // Cut the flow's primary up-link at the source edge switch.
    let path = topo.path(0, spec);
    let primary_up = topo.link_to(0, path[1]).unwrap();
    let f = Fabric::start(FabricConfig::new(topo, vec![spec]));
    f.cut_link(0, primary_up);
    for _ in 0..20 {
        f.submit(0, 2).unwrap();
    }
    let rep = f.drain_within(DRAIN);
    assert!(rep.is_conserving());
    assert_eq!(rep.flows[0].ejected_packets, 20);
    assert_eq!(
        rep.flows[0].rerouted, 20,
        "ECMP alternate carried everything"
    );
    assert_eq!(rep.lost_packets, 0);
}

#[test]
fn submit_after_drain_is_refused() {
    let f = mesh_fabric(1, 1, vec![FlowSpec { src: 0, dst: 0 }]);
    f.submit(0, 1).unwrap();
    let rep = f.drain_within(DRAIN);
    assert!(rep.is_conserving());
}
