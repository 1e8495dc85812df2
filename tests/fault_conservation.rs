//! Property: the drain ledger balances under arbitrary seeded chaos
//! (DESIGN.md §9.2).
//!
//! For random `FaultPlan`s (shard panics at random cycles) crossed
//! with random shard counts and admission policies, every submitted
//! packet must be accounted exactly once — served, dropped, rejected,
//! timed out, or lost — and the backlog gauge must read zero after the
//! drain. This is `DrainReport::is_conserving`, the identity the
//! catch → resume path exists to preserve; a fault path that leaks or
//! double-counts even one packet fails here. A graceful drain
//! additionally loses nothing: every death is resumed in place.
//!
//! One seeded `FaultPlan::from_rng` per seed also runs over a runtime
//! under either egress and over a 2×2 fabric (DESIGN.md §9.5): every
//! kind the plan can draw, on the clock each kind reads.

use std::time::{Duration, Instant};

use desim::SimRng;
use err_repro::fabric::{DrainOutcome, Fabric, FabricConfig, FlowSpec, Topology};
use err_runtime::{
    AdmissionPolicy, BufferedConfig, EgressMode, FaultPlan, Runtime, RuntimeConfig, Shape,
    SubmitError,
};
use err_sched::Packet;
use proptest::prelude::*;

const FLOWS: usize = 8;

fn admission_strategy() -> impl Strategy<Value = AdmissionPolicy> {
    prop_oneof![
        Just(AdmissionPolicy::Unlimited),
        (32..512u64).prop_map(|max_backlog| AdmissionPolicy::DropTail { max_backlog }),
        (32..512u64).prop_map(|max_backlog| AdmissionPolicy::Reject { max_backlog }),
        (64..512u64).prop_map(|max_backlog| AdmissionPolicy::Backpressure { max_backlog }),
    ]
}

proptest! {
    // Each case spins up a real multi-threaded runtime, so keep the
    // case count modest.
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn conservation_holds_under_random_faults(
        seed in 0..u64::MAX,
        shards in 1..=5usize,
        admission in admission_strategy(),
        packets in 1_000..4_000u64,
    ) {
        let rng = SimRng::new(seed);
        // Rate and horizon chosen so plans actually fire mid-run for
        // most draws: a shard's share of the served flits is roughly
        // packets * mean_len / shards.
        let shape = Shape {
            links: vec![0],
            shards,
            fabric: false,
        };
        let plan = FaultPlan::from_rng(&rng, &shape, 1.0 / 500.0, 1_500);
        let (rt, handle) = Runtime::start(RuntimeConfig {
            shards,
            n_flows: FLOWS,
            ring_capacity: 1 << 13,
            admission,
            fault_plan: Some(plan),
            ..RuntimeConfig::default()
        });
        let mut rng = rng.derive(0xC0DE);
        for id in 0..packets {
            let flow = rng.uniform_u32(0, FLOWS as u32 - 1) as usize;
            let len = 1 + rng.uniform_u32(0, 11);
            // Bounded submit: Backpressure against a shard that is
            // down until its successor is adopted must not wedge the
            // test. Every outcome is accounted by the ledger.
            match handle.submit_within(Packet::new(id, flow, len, 0), Duration::from_secs(5)) {
                Ok(_) | Err(SubmitError::Rejected | SubmitError::Closed | SubmitError::TimedOut) => {
                }
            }
        }
        let report = rt.shutdown();
        prop_assert!(report.is_conserving(), "ledger out of balance: {report:?}");
        prop_assert_eq!(report.stats.backlog_flits(), 0);
        if !report.forced {
            prop_assert_eq!(report.lost_packets(), 0, "a death lost packets: {:?}", report);
        }
    }
}

/// Pinned instance the property test originally found (seed
/// 852716844335134574: two shards, both planned to die, Backpressure
/// admission). Each death is resumed in place, so with every shard
/// down at once producers simply wait on full rings until the resumed
/// workers drain them: both exits record the panic, nothing is lost.
#[test]
fn double_death_total_loss_conserves() {
    let rng = SimRng::new(852_716_844_335_134_574);
    let shape = Shape {
        links: vec![0],
        shards: 2,
        fabric: false,
    };
    let plan = FaultPlan::from_rng(&rng, &shape, 1.0 / 500.0, 1_500);
    let (rt, handle) = Runtime::start(RuntimeConfig {
        shards: 2,
        n_flows: FLOWS,
        ring_capacity: 1 << 13,
        admission: AdmissionPolicy::Backpressure { max_backlog: 431 },
        fault_plan: Some(plan),
        ..RuntimeConfig::default()
    });
    let mut rng = rng.derive(0xC0DE);
    let mut accepted = 0u64;
    for id in 0..3_142u64 {
        let flow = rng.uniform_u32(0, FLOWS as u32 - 1) as usize;
        let len = 1 + rng.uniform_u32(0, 11);
        match handle.submit_within(Packet::new(id, flow, len, 0), Duration::from_secs(5)) {
            Ok(_) => accepted += 1,
            Err(SubmitError::Rejected | SubmitError::Closed | SubmitError::TimedOut) => {}
        }
    }
    let report = rt.shutdown();
    assert!(report.is_conserving(), "ledger out of balance: {report:?}");
    assert_eq!(report.stats.backlog_flits(), 0);
    // The draw must actually reproduce the shape: both shards die.
    assert!(
        report
            .exits
            .iter()
            .all(|e| matches!(e, err_runtime::ShardExit::Panicked)),
        "seed drift: expected both shards to panic, got {:?}",
        report.exits
    );
    assert_eq!(report.lost_packets(), 0, "{report:?}");
    assert_eq!(report.served_packets(), accepted, "{report:?}");
}

/// Seeds of the seeded-plan test.
const PLAN_SEEDS: u64 = 8;

/// For seeds `1..=PLAN_SEEDS`, one `FaultPlan::from_rng` plan per
/// target: a two-shard runtime under sync egress (shard panics) and
/// under buffered egress (panics, link deaths and freezes, on the
/// shards' flit clocks), and a 2×2 fabric (shard panics on the nodes'
/// flit clocks; cable cuts and heals, node kills and revives, and
/// freezes on the ejection clock). Every run conserves, and its drain
/// ends inside its deadline: a runtime's unforced and with nothing
/// lost, the fabric's graceful.
#[test]
fn seeded_plans_conserve_over_runtimes_and_a_fabric() {
    for seed in 1..=PLAN_SEEDS {
        let rng = SimRng::new(seed);
        for buffered in [false, true] {
            let egress = match buffered {
                true => EgressMode::Buffered(BufferedConfig {
                    ring_capacity: 64,
                    credits: 16,
                    n_links: 4,
                    ..BufferedConfig::default()
                }),
                false => EgressMode::Sync,
            };
            let mut cfg = RuntimeConfig {
                shards: 2,
                n_flows: FLOWS,
                ring_capacity: 1 << 12,
                egress,
                ..RuntimeConfig::default()
            };
            let plan = FaultPlan::from_rng(&rng, &cfg.shape(), 1.0 / 300.0, 3_000);
            cfg.fault_plan = Some(plan);
            let (rt, handle) = Runtime::start(cfg);
            let mut traffic = rng.derive(0xC0DE);
            for id in 0..2_000 {
                let flow = traffic.index(FLOWS);
                let len = 1 + traffic.uniform_u32(0, 7);
                let pkt = Packet::new(id, flow, len, 0);
                let _ = handle.submit_within(pkt, Duration::from_secs(5));
            }
            let leg = format!("seed {seed}, buffered {buffered}");
            let start = Instant::now();
            let report = rt.shutdown_within(Duration::from_secs(10));
            assert!(start.elapsed() < Duration::from_secs(11), "{leg}");
            assert!(report.is_conserving(), "{leg}: {report:?}");
            assert!(!report.forced, "{leg}: {report:?}");
            assert_eq!(report.lost_packets(), 0, "{leg}: {report:?}");
        }

        let topo = Topology::mesh(2, 2);
        let flows: Vec<FlowSpec> = (0..4)
            .flat_map(|src| (0..4).map(move |dst| FlowSpec { src, dst }))
            .filter(|f| f.src != f.dst)
            .collect();
        let mut cfg = FabricConfig::new(topo, flows.clone());
        let plan = FaultPlan::from_rng(&rng.derive(0xFAB), &cfg.shape(), 1.0 / 40.0, 100);
        cfg.fault_plan = Some(plan);
        let f = Fabric::start(cfg);
        for _ in 0..10 {
            for flow in 0..flows.len() {
                for _ in 0..50 {
                    if f.try_submit(flow, 4).is_ok() {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
        let start = Instant::now();
        let rep = f.drain_within(Duration::from_secs(10));
        assert!(start.elapsed() < Duration::from_secs(11), "seed {seed}");
        assert!(
            rep.is_conserving(),
            "seed {seed}: fabric ledger out of balance"
        );
        assert_eq!(rep.outcome, DrainOutcome::Graceful, "seed {seed}");
    }
}
