//! Fabric healing (DESIGN.md §14): transient faults must be
//! *transient* — a cut cable that heals loses nothing under
//! `HoldForRecovery`, a flapping cable conserves the ledger and leaks
//! no credits across every cycle, a killed node's revived successor
//! picks up where the corpse left off, and a node whose worker panics
//! resumes in place instead of wedging the fabric gate.

use std::time::{Duration, Instant};

use desim::SimRng;
use err_repro::fabric::{
    DeadLinkPolicy, DrainOutcome, Fabric, FabricConfig, FabricReport, FaultPlan, FlowSpec, Topology,
};
use err_repro::runtime::ShardExit;
use proptest::prelude::*;

const PKT_LEN: u32 = 4;
const DRAIN: Duration = Duration::from_secs(60);

/// Submits up to `quota[fl]` packets per flow with non-blocking
/// retries until `window` expires: a held flow's admission backlog
/// fills and refuses, and the other flows must keep submitting (and
/// keep the ejection clock moving) regardless. Returns how many each
/// flow actually got in.
fn submit_for(f: &Fabric, quota: &[u64], window: Duration) -> Vec<u64> {
    let deadline = Instant::now() + window;
    let mut sent = vec![0u64; quota.len()];
    loop {
        let mut progressed = false;
        let mut done = true;
        for (fl, n) in sent.iter_mut().enumerate() {
            if *n < quota[fl] {
                done = false;
                if f.try_submit(fl, PKT_LEN).is_ok() {
                    *n += 1;
                    progressed = true;
                }
            }
        }
        if done {
            return sent;
        }
        if !progressed {
            if Instant::now() >= deadline {
                return sent;
            }
            std::thread::yield_now();
        }
    }
}

/// [`submit_for`] for schedules that must admit everything (every cut
/// heals): starvation here is a bug, not an expected outcome.
fn submit_interleaved(f: &Fabric, quota: &[u64]) {
    let sent = submit_for(f, quota, Duration::from_secs(60));
    assert_eq!(sent, quota, "healing schedule starved the submitters");
}

/// §14.2 end-to-end: on a 3×1 line the victim flow 0 → 2 has exactly
/// one path; cutting node 0's east cable is a total outage for it.
/// Under `HoldForRecovery` + a scheduled heal, the outage ends with
/// zero losses and zero dead-letters — every held flit replayed in
/// order — where `DropAndAccount` would have dead-lettered the window.
#[test]
fn transient_cut_heals_with_nothing_lost() {
    let victim = 40u64;
    let keeper = 160u64;
    let topo = Topology::mesh(3, 1);
    let east = topo.link_to(0, 1).expect("0-1 are neighbors");
    let mut cfg = FabricConfig::new(
        topo,
        vec![FlowSpec { src: 0, dst: 2 }, FlowSpec { src: 0, dst: 0 }],
    );
    cfg.max_backlog = 8;
    cfg.credits = 4;
    cfg.dead_link_policy = DeadLinkPolicy::HoldForRecovery;
    cfg.fault_plan = Some(
        FaultPlan::new()
            .kill_link_at(0, east, 10)
            .heal_link_at(0, east, 60),
    );
    let f = Fabric::start(cfg);
    submit_interleaved(&f, &[victim, keeper]);
    let rep = f.drain_within(DRAIN);
    assert!(rep.is_conserving());
    assert_eq!(rep.outcome, DrainOutcome::Graceful);
    assert_eq!(rep.events.len(), 2, "kill and heal both fired");
    assert_eq!(rep.lost_packets, 0);
    assert_eq!(rep.dead_lettered_packets(), 0, "held, not dead-lettered");
    assert_eq!(rep.flows[0].ejected_packets, victim);
    assert_eq!(rep.flows[1].ejected_packets, keeper);
    assert!(
        rep.replayed_flits() > 0,
        "the cut landed mid-run, so some flit must have crossed the death window"
    );
}

/// §14.2 during a drain: the monitor must outlive `drain_within`'s
/// wait loop, because in-flight traffic keeps ejecting through a
/// drain and a heal scheduled inside that window must still fire.
#[test]
fn heal_scheduled_inside_the_drain_window_still_fires() {
    let topo = Topology::mesh(2, 1);
    let east = topo.link_to(0, 1).expect("0-1 are neighbors");
    let mut cfg = FabricConfig::new(
        topo,
        vec![FlowSpec { src: 0, dst: 1 }, FlowSpec { src: 0, dst: 0 }],
    );
    cfg.max_backlog = 8;
    cfg.credits = 4;
    cfg.dead_link_policy = DeadLinkPolicy::HoldForRecovery;
    // The cut fires almost immediately; the heal needs ~50 keeper
    // ejections, most of which happen after the drain has begun.
    cfg.fault_plan = Some(
        FaultPlan::new()
            .kill_link_at(0, east, 2)
            .heal_link_at(0, east, 50),
    );
    let f = Fabric::start(cfg);
    submit_interleaved(&f, &[8, 100]);
    let rep = f.drain_within(DRAIN);
    assert!(rep.is_conserving());
    assert_eq!(rep.outcome, DrainOutcome::Graceful);
    assert_eq!(rep.events.len(), 2, "the heal fired inside the drain");
    assert_eq!(rep.lost_packets, 0);
    assert_eq!(rep.dead_lettered_packets(), 0);
    assert_eq!(rep.flows[0].ejected_packets, 8);
}

/// §14.3: when the fabric holds for a recovery that never comes, the
/// drain must end in bounded time with `HeldForRecovery` — stranded
/// flits dead-lettered honestly at shutdown — instead of spinning to
/// the full deadline.
#[test]
fn unhealed_hold_ends_in_bounded_held_outcome() {
    let topo = Topology::mesh(2, 1);
    let east = topo.link_to(0, 1).expect("0-1 are neighbors");
    let mut cfg = FabricConfig::new(topo, vec![FlowSpec { src: 0, dst: 1 }]);
    cfg.max_backlog = 8;
    cfg.credits = 4;
    cfg.dead_link_policy = DeadLinkPolicy::HoldForRecovery;
    cfg.fault_plan = Some(FaultPlan::new().kill_link_at(0, east, 5));
    let f = Fabric::start(cfg);
    // The cut never heals, so the victim's admission backlog stays
    // full and submission starves by design: stop pushing after a
    // bounded window with whatever got in.
    let sent = submit_for(&f, &[40], Duration::from_secs(2));
    assert!(sent[0] > 0, "some packets were admitted before the cut");
    let started = Instant::now();
    let rep = f.drain_within(Duration::from_secs(300));
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "a hopeless hold must not spin toward the 300s deadline"
    );
    assert_eq!(rep.outcome, DrainOutcome::HeldForRecovery);
    assert!(rep.is_conserving(), "held flits account at shutdown");
    assert_eq!(rep.events.len(), 1);
    assert!(
        rep.dead_lettered_packets() > 0 || rep.lost_packets > 0,
        "the unhealed backlog reaches a terminal outcome"
    );
}

/// §14.1: a killed node dies in place and is revived; traffic held by
/// its neighbors replays into it, the kill's event carries every packet
/// lost, and the ledger conserves across the outage.
#[test]
fn killed_node_revives_and_held_traffic_replays() {
    let victim = 40u64;
    let keeper = 200u64;
    let topo = Topology::mesh(3, 1);
    let mut cfg = FabricConfig::new(
        topo,
        vec![FlowSpec { src: 0, dst: 2 }, FlowSpec { src: 0, dst: 0 }],
    );
    cfg.max_backlog = 8;
    cfg.credits = 4;
    cfg.dead_link_policy = DeadLinkPolicy::HoldForRecovery;
    cfg.fault_plan = Some(FaultPlan::new().kill_node_at(1, 10).revive_node_at(1, 60));
    let f = Fabric::start(cfg);
    submit_interleaved(&f, &[victim, keeper]);
    let rep = f.drain_within(DRAIN);
    assert!(rep.is_conserving(), "losses counted, nothing leaked");
    assert_eq!(rep.outcome, DrainOutcome::Graceful);
    assert_eq!(rep.events.len(), 2, "kill and revive both fired");
    assert_eq!(rep.events[0].lost_packets, rep.lost_packets);
    assert_eq!(
        rep.dead_lettered_packets(),
        0,
        "neighbors held, not dropped"
    );
    assert_eq!(
        rep.flows[0].ejected_packets + rep.lost_packets,
        victim,
        "every victim packet ejects or is counted lost inside the corpse"
    );
    assert_eq!(rep.flows[1].ejected_packets, keeper);
}

/// §14.4: a panic on node 0's worker — the thread that runs its
/// Forwarder — unwinds into the worker's fence, which resumes it in
/// place, and the fabric drains clean with nothing lost instead of
/// wedging. A panic is a bug, not a link fault: no cable is cut.
#[test]
fn injected_forwarder_panic_recovers_with_honest_ledger() {
    let packets = 60u64;
    let topo = Topology::mesh(2, 2);
    let mut cfg = FabricConfig::new(
        topo,
        vec![FlowSpec { src: 0, dst: 3 }, FlowSpec { src: 3, dst: 0 }],
    );
    cfg.max_backlog = 8;
    cfg.credits = 4;
    cfg.fault_plan = Some(FaultPlan::new().panic_shard_at(0, 0, 10));
    let f = Fabric::start(cfg);
    submit_interleaved(&f, &[packets, packets]);
    let rep = f.drain_within(DRAIN);
    assert!(rep.is_conserving());
    assert_eq!(rep.outcome, DrainOutcome::Graceful);
    assert_eq!(rep.lost_packets, 0);
    assert_eq!(rep.node_reports[0].exits, [ShardExit::Panicked]);
    assert!(rep.events.is_empty(), "a panic is no link event");
    assert_eq!(rep.flows[0].ejected_packets, packets, "nothing dies");
    assert_eq!(
        rep.flows[1].ejected_packets, packets,
        "reverse flow unharmed"
    );
}

/// Regression (§14 satellite): a fault event scheduled far beyond the
/// run's total ejections must not keep the drain waiting — once the
/// gate is closed and empty the monitor exits on its own, and the
/// drain returns promptly and graceful.
#[test]
fn far_future_event_does_not_stall_the_drain() {
    let mut cfg = FabricConfig::new(Topology::mesh(2, 1), vec![FlowSpec { src: 0, dst: 1 }]);
    cfg.fault_plan = Some(FaultPlan::new().kill_link_at(0, 1, 1_000_000));
    let f = Fabric::start(cfg);
    submit_interleaved(&f, &[20]);
    let started = Instant::now();
    let rep = f.drain_within(Duration::from_secs(300));
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "an event that can never fire must not hold the drain open"
    );
    assert_eq!(rep.outcome, DrainOutcome::Graceful);
    assert!(rep.events.is_empty(), "the far-future event never fired");
    assert_eq!(rep.flows[0].ejected_packets, 20);
}

fn assert_flap_invariants(rep: &FabricReport, cycles: u64, victim: u64, keeper: u64, credits: u64) {
    assert!(rep.is_conserving());
    assert_eq!(rep.outcome, DrainOutcome::Graceful);
    assert_eq!(rep.events.len(), (2 * cycles) as usize, "every flap fired");
    assert_eq!(rep.lost_packets, 0);
    assert_eq!(rep.dead_lettered_packets(), 0);
    assert_eq!(rep.flows[0].ejected_packets, victim);
    assert_eq!(rep.flows[1].ejected_packets, keeper);
    // No credit leaks: after the drain every link of every node has
    // its full pool back.
    for (node, nrep) in rep.node_reports.iter().enumerate() {
        let egress = nrep.stats.egress.as_ref().expect("buffered mode");
        for (link, snap) in egress.links.iter().enumerate() {
            assert_eq!(
                snap.credits_available, credits,
                "node {node} link {link} leaked credits across flaps"
            );
        }
    }
}

proptest! {
    // Each case boots a fabric (two nodes, four threads) and runs a
    // seeded flap schedule end to end; keep the count modest.
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// §14.2 property: for seeded kill→heal schedules of 1..=3 cycles
    /// at random clock offsets, the ledger conserves exactly — no
    /// losses, no dead-letters, no leaked credits — and every victim
    /// packet ejects.
    #[test]
    fn flap_cycles_conserve_ledger_and_credits(
        seed in 0..u64::MAX,
        cycles in 1..=3u64,
    ) {
        let victim = 30u64;
        let keeper = 150u64;
        let topo = Topology::mesh(2, 1);
        let east = topo.link_to(0, 1).expect("0-1 are neighbors");
        // Random strictly-increasing event times the keeper flow can
        // always reach on its own, even with the victim fully held.
        let mut rng = SimRng::new(seed);
        let mut plan = FaultPlan::new();
        let mut at = 0u64;
        for _ in 0..cycles {
            at += 3 + rng.index(15) as u64;
            plan = plan.kill_link_at(0, east, at);
            at += 3 + rng.index(15) as u64;
            plan = plan.heal_link_at(0, east, at);
        }
        prop_assert!(at < keeper, "schedule must stay keeper-reachable");
        let mut cfg = FabricConfig::new(
            topo,
            vec![FlowSpec { src: 0, dst: 1 }, FlowSpec { src: 0, dst: 0 }],
        );
        cfg.max_backlog = 8;
        cfg.credits = 4;
        cfg.dead_link_policy = DeadLinkPolicy::HoldForRecovery;
        cfg.fault_plan = Some(plan);
        let f = Fabric::start(cfg);
        submit_interleaved(&f, &[victim, keeper]);
        let rep = f.drain_within(DRAIN);
        assert_flap_invariants(&rep, cycles, victim, keeper, 4);
    }
}
