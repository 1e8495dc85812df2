//! End-to-end fabric behavior: hop-by-hop delivery, backpressure,
//! reroute, node kills, and the conservation identity (DESIGN.md
//! §11.2–§11.4, §14.1).

use std::time::{Duration, Instant};

use desim::SimRng;
use err_fabric::{
    DeadLinkPolicy, DrainOutcome, Fabric, FabricConfig, FaultEvent, FaultKind, FaultPlan, FlowSpec,
    Topology,
};
use err_runtime::ShardExit;

const DRAIN: Duration = Duration::from_secs(20);

fn mesh_fabric(cols: usize, rows: usize, flows: Vec<FlowSpec>) -> Fabric {
    Fabric::start(FabricConfig::new(Topology::mesh(cols, rows), flows))
}

/// A fabric whose `node` has cable `link` cut at clock 0, before
/// `Fabric::start` returns.
fn cut_fabric(topo: Topology, flows: Vec<FlowSpec>, node: usize, link: usize) -> Fabric {
    let mut cfg = FabricConfig::new(topo, flows);
    cfg.fault_plan = Some(FaultPlan::new().kill_link_at(node, link, 0));
    Fabric::start(cfg)
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
    let crossed = || f.controller(0).links().snapshot()[east].delivered_flits;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    // One credit window of 2-flit packets: once node 1 has served it,
    // it serves nothing more before the thaw, so what it admits next
    // only fills its admission, and the refusal that follows lasts.
    let mut sent = CREDITS / 2;
    for _ in 0..sent {
        f.submit(0, 2).unwrap();
    }
    while f.controller(1).links().snapshot()[0].credits_available > 0 {
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

/// Hop-by-hop backpressure parks only the flows a stall reaches: with
/// `hot`'s eject end frozen before any submit, every flow whose route
/// shares no egress end ([`Topology::links_on_path`]) with a hot-bound
/// path ejects every packet it was accepted while the sink stays
/// frozen, and no hot-bound flow ejects anything. Flows that share an
/// end with a hot-bound path are not judged: they wait behind its
/// parked credits. Returns how many flows were judged disjoint.
fn assert_disjoint_flows_drain_past_a_frozen_sink(
    topo: Topology,
    flows: Vec<FlowSpec>,
    hot: usize,
) -> usize {
    const ROUNDS: usize = 50;
    let hot_ends: Vec<(usize, usize)> = flows
        .iter()
        .enumerate()
        .filter(|(_, spec)| spec.dst == hot)
        .flat_map(|(flow, &spec)| topo.links_on_path(flow, spec))
        .collect();
    let disjoint: Vec<usize> = (0..flows.len())
        .filter(|&flow| {
            let ends = topo.links_on_path(flow, flows[flow]);
            flows[flow].dst != hot && ends.iter().all(|end| !hot_ends.contains(end))
        })
        .collect();
    let mut cfg = FabricConfig::new(topo, flows.clone());
    cfg.max_backlog = 8;
    cfg.credits = 4;
    let f = Fabric::start(cfg);
    f.controller(hot).freeze(0);
    // Offer every flow far past its end-to-end buffering, round robin
    // and never blocking: a refusal only means that flow is full.
    let mut accepted = vec![0u64; flows.len()];
    for _ in 0..ROUNDS {
        for (flow, n) in accepted.iter_mut().enumerate() {
            *n += u64::from(f.try_submit(flow, 2).is_ok());
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let behind = |flow: usize| f.ledger().flow(flow).ejected_packets < accepted[flow];
    while disjoint.iter().any(|&flow| behind(flow)) && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let stopped: Vec<usize> = disjoint.iter().copied().filter(|&fl| behind(fl)).collect();
    let hot_ejected: Vec<usize> = (0..flows.len())
        .filter(|&fl| flows[fl].dst == hot && f.ledger().flow(fl).ejected_packets > 0)
        .collect();
    // Drained before the verdicts, so that a wedge fails them instead
    // of hanging the drop.
    f.controller(hot).release_stall(0);
    let rep = f.drain_within(DRAIN);
    assert!(
        stopped.is_empty(),
        "flows {stopped:?} share no link with the stall, yet they stopped"
    );
    assert!(
        hot_ejected.is_empty(),
        "flows {hot_ejected:?} ejected at a frozen sink"
    );
    for (flow, spec) in flows.iter().enumerate().filter(|(_, s)| s.dst == hot) {
        assert!(
            accepted[flow] > 0,
            "flow {flow} ({spec:?}) was never offered"
        );
    }
    assert!(rep.is_conserving());
    assert_eq!(rep.lost_packets, 0);
    disjoint.len()
}

#[test]
fn unrelated_flows_keep_moving_while_one_path_is_stalled() {
    // 2×2: flow 0 (0→1, East link) is frozen at its destination; flow
    // 1 (0→2, South link) shares no link with it and must not park.
    let pair = vec![FlowSpec { src: 0, dst: 1 }, FlowSpec { src: 0, dst: 2 }];
    assert_eq!(
        assert_disjoint_flows_drain_past_a_frozen_sink(Topology::mesh(2, 2), pair, 1),
        1
    );
    // 4×4, every ordered pair, node (1,1)'s eject frozen: 15 flows are
    // hot-bound and 104 of the other 225 share no egress end with any
    // of their paths.
    let mesh = Topology::mesh(4, 4);
    let uniform = all_pairs(&mesh);
    assert_eq!(
        assert_disjoint_flows_drain_past_a_frozen_sink(mesh, uniform, 5),
        104
    );
}

#[test]
fn cut_link_reroutes_via_the_yx_step() {
    // 2×2, flow 0→3: primary XY route is 0→1→3. Cutting 0's east
    // cable diverts every tail onto the YX alternate 0→2→3.
    let topo = Topology::mesh(2, 2);
    let east = topo.link_to(0, 1).unwrap();
    let f = cut_fabric(topo, vec![FlowSpec { src: 0, dst: 3 }], 0, east);
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
    let f = cut_fabric(
        Topology::mesh(2, 1),
        vec![FlowSpec { src: 0, dst: 1 }],
        0,
        1,
    );
    for _ in 0..10 {
        f.submit(0, 2).unwrap();
    }
    let rep = f.drain_within(DRAIN);
    assert!(!rep.forced);
    assert!(rep.is_conserving());
    assert_eq!(rep.flows[0].ejected_packets, 0);
    assert_eq!(rep.flows[0].dead_lettered, 10);
}

/// A cable cut mid-run on the ejection clock, on the first hop of flow
/// 0's XY route: every tail handed off after the cut takes the YX
/// alternate, nothing is lost, and the reverse flow is unharmed. Corner
/// to corner on a 2×2 and a 4×4 mesh, with credits tight enough that
/// most of the run lands after the cut.
#[test]
fn chaos_kill_link_mid_run_conserves() {
    let corners = |side: usize| {
        let far = side * side - 1;
        vec![FlowSpec { src: 0, dst: far }, FlowSpec { src: far, dst: 0 }]
    };
    for (side, packets, kill_at) in [(2, 100u64, 10u64), (4, 60, 15)] {
        let topo = Topology::mesh(side, side);
        let east = topo
            .link_to(0, 1)
            .expect("node 1 is node 0's east neighbor");
        let mut c = FabricConfig::new(topo, corners(side));
        c.fault_plan = Some(FaultPlan::new().kill_link_at(0, east, kill_at));
        c.max_backlog = 8;
        c.credits = 4;
        let f = Fabric::start(c);
        for _ in 0..packets {
            f.submit(0, 2).unwrap();
            f.submit(1, 2).unwrap();
        }
        let rep = f.drain_within(DRAIN);
        assert!(rep.is_conserving(), "{side}x{side}");
        assert_eq!(
            rep.lost_packets, 0,
            "{side}x{side}: a link kill loses nothing"
        );
        assert_eq!(
            rep.events.len(),
            1,
            "{side}x{side}: the scheduled kill fired"
        );
        assert!(
            rep.flows[0].rerouted > 0,
            "{side}x{side}: no tail took the YX step"
        );
        assert_eq!(
            rep.flows[0].ejected_packets + rep.flows[0].dead_lettered,
            packets,
            "{side}x{side}"
        );
        assert_eq!(
            rep.flows[1].ejected_packets, packets,
            "{side}x{side}: reverse path unharmed"
        );
    }
}

#[test]
fn chaos_kill_node_counts_losses() {
    // 3×1 line, traffic 0→2 transits node 1, which dies once five
    // packets have ejected.
    let plan = FaultPlan::new().kill_node_at(1, 5);
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

/// A link event fires at exactly its clock: with one ejecting worker
/// the ejection clock counts on one thread, and the ejection whose
/// value reaches an event applies it before anything else ejects
/// (DESIGN.md §11.4). On a 3×1 line every flow ejects at node 2. The
/// shard panic aimed at node 0 fires on that node's own flit clock
/// instead (§9.5) and cuts nothing, so the second heal finds the cable
/// up.
#[test]
fn link_and_panic_events_fire_at_their_exact_clock() {
    let topo = Topology::mesh(3, 1);
    let east = topo.link_to(0, 1).expect("0-1 are neighbors");
    let plan = FaultPlan::new()
        .kill_link_at(0, east, 10)
        .heal_link_at(0, east, 20)
        .panic_shard_at(0, 0, 30)
        .heal_link_at(0, east, 40);
    let on_ejections: Vec<FaultEvent> = plan
        .events()
        .iter()
        .filter(|e| e.kind != FaultKind::PanicShard)
        .copied()
        .collect();
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
        assert_eq!(rep.events.len(), 3, "run {run}: every link event fired");
        for (ev, planned) in rep.events.iter().zip(&on_ejections) {
            assert_eq!(ev.fault, *planned, "run {run}: plan order");
            assert_eq!(ev.fired_at, ev.fault.at, "run {run}: {:?}", ev.fault);
        }
        assert_eq!(
            rep.node_reports[0].exits,
            [ShardExit::Panicked],
            "run {run}: the panic fired"
        );
    }
}

/// `KillNode` and `ReviveNode` fire at exactly their clock too: the
/// ejecting worker applies them in place — a flag flip, the node's
/// runtime taken down or back up — with nothing to join or boot
/// (DESIGN.md §14.1). On a 3×1 line every flow ejects at node 2, and
/// node 1, which flow 0 crosses and flow 1 starts at, dies twice.
#[test]
fn node_events_fire_at_their_exact_clock() {
    let plan = FaultPlan::new()
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
            assert_eq!(ev.fired_at, ev.fault.at, "run {run}: {:?}", ev.fault);
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
        FaultPlan::new()
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
            let plan = FaultPlan::new()
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
                rep.node_reports.iter().all(|r| r.all_clean()),
                "{leg}: a worker panicked"
            );
            let fired: Vec<FaultEvent> = rep.events.iter().map(|e| e.fault).collect();
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
        cfg.fault_plan = Some(FaultPlan::new().kill_link_at(0, east, t).heal_link_at(
            0,
            east,
            t + 1,
        ));
        let f = Fabric::start(cfg);
        submit_round_robin(&f, flows.len(), 10, 4);
        let rep = f.drain_within(DRAIN);
        assert!(rep.is_conserving(), "t={t}");
        assert_eq!(rep.outcome, DrainOutcome::Graceful, "t={t}");
        assert_eq!(rep.lost_packets, 0, "t={t}");
        assert_eq!(rep.dead_lettered_packets(), 0, "t={t}");
        let fired: Vec<FaultKind> = rep.events.iter().map(|e| e.fault.kind).collect();
        assert_eq!(
            fired,
            [FaultKind::KillLink, FaultKind::HealLink],
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
    cfg.fault_plan = Some(FaultPlan::new().kill_link_at(0, east, 0));
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
#[should_panic(expected = "fault plan: node 0 has no link 2")]
fn a_plan_naming_no_cable_is_refused_at_start() {
    let mut cfg = FabricConfig::new(Topology::mesh(2, 1), vec![FlowSpec { src: 0, dst: 1 }]);
    cfg.fault_plan = Some(FaultPlan::new().kill_link_at(0, 2, 3));
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
    let f = cut_fabric(topo, vec![spec], 0, primary_up);
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

/// Every ordered pair of distinct nodes of `topo`, as flows.
fn all_pairs(topo: &Topology) -> Vec<FlowSpec> {
    let n = topo.n_nodes();
    (0..n)
        .flat_map(|src| (0..n).map(move |dst| FlowSpec { src, dst }))
        .filter(|f| f.src != f.dst)
        .collect()
}

/// A freeze whose thaw is due at an ejection-clock value the traffic
/// never reaches is lifted by the drain itself: `drain_within` puts
/// every node's egress in drain mode before it waits, as a runtime's
/// own drain does, so the frozen traffic ejects and the drain ends
/// graceful, long before its deadline (DESIGN.md §11.3). No test code
/// thaws anything.
#[test]
fn a_drain_lifts_a_freeze_the_traffic_cannot_thaw() {
    const PER_FLOW: u64 = 10;
    let topo = Topology::mesh(2, 2);
    let flows = all_pairs(&topo);
    let east = topo.link_to(0, 1).expect("0-1 are neighbors");
    let mut cfg = FabricConfig::new(topo, flows.clone());
    // Node 3's eject end and node 0's cable east freeze at the fifth
    // ejection, to thaw at an ejection no run of this size makes.
    cfg.fault_plan = Some(
        FaultPlan::new()
            .freeze_at(3, 0, 5, 1_000_000)
            .freeze_at(0, east, 5, 1_000_000),
    );
    let f = Fabric::start(cfg);
    // 10 four-flit packets a flow stay inside every node's admission
    // backlog (64 flits), so a blocking submit never waits on a freeze.
    for _ in 0..PER_FLOW {
        for flow in 0..flows.len() {
            assert_eq!(f.submit(flow, 4), Ok(err_runtime::Submitted::Enqueued));
        }
    }
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        f.in_flight() > 0,
        "the freezes hold traffic before the drain"
    );

    let start = Instant::now();
    let rep = f.drain_within(Duration::from_secs(5));
    let took = start.elapsed();
    assert_eq!(rep.outcome, DrainOutcome::Graceful, "drained in {took:?}");
    assert!(took < Duration::from_secs(1), "drain took {took:?}");
    assert!(rep.is_conserving());
    assert_eq!(rep.lost_packets, 0);
    assert_eq!(rep.events.len(), 2, "both freezes fired, neither thawed");
    for (flow, snap) in rep.flows.iter().enumerate() {
        assert_eq!(snap.ejected_packets, PER_FLOW, "flow {flow}");
    }
}

/// Per-hop attribution telescopes exactly (DESIGN.md §11.8): a packet's
/// source stamp is its arrival, and every hand-off stamps the next node
/// with the clock value that closes this node's hop, so on a fault-free
/// fabric whose packets never share a hop slot each flow's hop
/// microseconds sum to its end-to-end latency, and every path position
/// records every ejected packet.
#[test]
fn hop_microseconds_sum_to_the_end_to_end_latency() {
    const PER_FLOW: u64 = 50;
    let topo = Topology::mesh(2, 2);
    let flows = all_pairs(&topo);
    let f = Fabric::start(FabricConfig::new(topo, flows.clone()));
    for _ in 0..PER_FLOW {
        for flow in 0..flows.len() {
            assert_eq!(f.submit(flow, 4), Ok(err_runtime::Submitted::Enqueued));
        }
    }
    let rep = f.drain_within(DRAIN);
    assert_eq!(rep.outcome, DrainOutcome::Graceful);
    assert!(rep.is_conserving());
    for (flow, (snap, hops)) in rep.flows.iter().zip(&rep.flow_hops).enumerate() {
        assert_eq!(snap.ejected_packets, PER_FLOW, "flow {flow}");
        assert!(hops.len() >= 2, "flow {flow} crosses a cable");
        for (p, hop) in hops.iter().enumerate() {
            assert_eq!(hop.packets, snap.ejected_packets, "flow {flow}, hop {p}");
        }
        let hop_us: u64 = hops.iter().map(|h| h.sum_us).sum();
        assert_eq!(hop_us, snap.latency_sum_us, "flow {flow}");
    }
}
