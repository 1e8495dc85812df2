//! Tier-1 acceptance for flow migration & work stealing (DESIGN.md §8).
//!
//! Three parts:
//!
//! * a doc–code drift test: DESIGN.md §8 is a normative spec written
//!   before the implementation, so it must keep naming exactly the
//!   states and types the `migrate` module exports — if someone renames
//!   `Quiescing` or `MigratedFlow`, the spec has to move with it;
//! * an end-to-end stealing run with the egress order captured per
//!   flow: under heavy skew the runtime must migrate at least once,
//!   conserve every flit, and keep each flow's emitted sequence exactly
//!   its submission order with contiguous flit indices — migration is
//!   invisible in the output;
//! * the same run with the hot flow's home shard killed at its first
//!   possible grant under sync and under buffered egress: the worker
//!   resumes with its own migration state, so stealing carries on and
//!   the output is still invisible-migration clean.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use err_runtime::{
    BufferedConfig, DrainReport, EgressMode, FaultPlan, FlowMap, MigrationPhase, Runtime,
    RuntimeConfig, ShardExit, StealingConfig, Submitted,
};
use err_sched::{Packet, ServedFlit};

/// DESIGN.md §8, as written (the section runs to the end of the file).
fn design_section_8() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md");
    let text = std::fs::read_to_string(path).expect("DESIGN.md readable");
    let start = text
        .find("## 8")
        .expect("DESIGN.md must contain a section 8");
    match text[start + 4..].find("\n## ") {
        Some(end) => text[start..start + 4 + end].to_owned(),
        None => text[start..].to_owned(),
    }
}

/// The spec names every state of the actual migration state machine.
/// The names are derived from the enum itself (via `Debug`), so a code
/// rename breaks this test until DESIGN.md §8 follows.
#[test]
fn design_section_8_names_the_migration_states() {
    let spec = design_section_8();
    for phase in [
        MigrationPhase::Idle,
        MigrationPhase::Requested,
        MigrationPhase::Quiescing,
        MigrationPhase::Draining,
        MigrationPhase::InTransit,
    ] {
        let name = format!("{phase:?}");
        assert!(
            spec.contains(&name),
            "DESIGN.md §8 no longer names migration state `{name}`"
        );
    }
}

/// The spec names the public types and scheduler hooks the protocol is
/// built from.
#[test]
fn design_section_8_names_the_protocol_vocabulary() {
    let spec = design_section_8();
    for name in [
        "FlowMap",
        "LoadBoard",
        "MigrationSlot",
        "MigratedFlow",
        "extract_flow",
        "absorb_flow",
        "park_flow",
        "steal_threshold",
        "min_gap",
    ] {
        assert!(
            spec.contains(name),
            "DESIGN.md §8 no longer mentions `{name}`"
        );
    }
}

/// Heavy skew (~87% of flits on flow 0) on a 4-shard stealing runtime
/// with the egress order captured per flow. Asserts what every run of
/// this shape owes — at least one migration, everything conserved,
/// nothing lost, and each flow's emitted sequence exactly its
/// submission order with contiguous flit indices: the steal moved
/// state, not observable behavior — and returns the report. With
/// `kill_hot_home_at` the hot flow's static
/// home shard is killed at that cycle of its flit clock.
fn skewed_stealing_run(egress: EgressMode, kill_hot_home_at: Option<u64>) -> (usize, DrainReport) {
    const N_FLOWS: usize = 8;
    const PACKETS: u64 = 24_000;

    // Per-flow capture: (packet id, flit index) in emission order.
    // Only one shard serves a flow at any instant (the quiesce phase
    // parks it on the donor before the thief unparks it, and under
    // buffered egress the §8.7 fence retires the donor's flits first),
    // so pushing under one lock per flow records a well-defined
    // per-flow order.
    type FlowLog = Vec<Mutex<Vec<(u64, u32)>>>;
    let captured: Arc<FlowLog> = Arc::new((0..N_FLOWS).map(|_| Mutex::new(Vec::new())).collect());

    let config = RuntimeConfig {
        shards: 4,
        n_flows: N_FLOWS,
        // Provision for the whole offered load: backlog hiding in a
        // blocked submitter is invisible to the LoadBoard.
        ring_capacity: 1 << 15,
        stealing: Some(StealingConfig {
            min_gap: 64,
            ..StealingConfig::default()
        }),
        egress,
        ..RuntimeConfig::default()
    };
    // Flow 0's home before anything moves: the static partition.
    let hot_home = FlowMap::new(N_FLOWS, config.shards)
        .shard_of(0)
        .expect("flow 0 is mapped");
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            fault_plan: kill_hot_home_at.map(|at| FaultPlan::new().kill_shard_at(hot_home, at)),
            ..config
        },
        {
            let captured = Arc::clone(&captured);
            move |_shard| {
                let captured = Arc::clone(&captured);
                Some(move |_shard: usize, f: &ServedFlit| {
                    captured[f.flow]
                        .lock()
                        .unwrap()
                        .push((f.packet, f.flit_index));
                })
            }
        },
    );

    let mut submitted: Vec<Vec<(u64, u32)>> = vec![Vec::new(); N_FLOWS];
    let mut flits = 0u64;
    for id in 0..PACKETS {
        let (flow, len) = if id % 8 < 7 {
            (0usize, 16u32)
        } else {
            ((1 + (id % 7)) as usize, 4u32)
        };
        submitted[flow].push((id, len));
        flits += len as u64;
        assert_eq!(
            handle.submit(Packet::new(id, flow, len, 0)),
            Ok(Submitted::Enqueued)
        );
    }

    // Keep the runtime open until everything is served: shutdown flips
    // `closed`, and §8.6 refuses new steal requests once closed.
    while handle.stats().served_packets() < PACKETS {
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = rt.shutdown();

    assert!(report.is_conserving(), "{report:?}");
    assert_eq!(report.served_packets(), PACKETS);
    assert_eq!(report.lost_packets(), 0, "{report:?}");
    assert_eq!(report.stats.served_flits(), flits);
    assert!(
        report.stats.migrations() >= 1,
        "87% skew on 4 shards should steal at least once: {report:?}"
    );

    // Per-flow output = submission order, flit indices 0..len per
    // packet, nothing interleaved within the flow.
    for (flow, expected) in submitted.iter().enumerate() {
        let got = captured[flow].lock().unwrap();
        let mut cursor = got.iter();
        for &(id, len) in expected {
            for idx in 0..len {
                match cursor.next() {
                    Some(&(p, i)) => assert_eq!(
                        (p, i),
                        (id, idx),
                        "flow {flow}: expected packet {id} flit {idx}"
                    ),
                    None => panic!("flow {flow}: output ended mid-packet {id}"),
                }
            }
        }
        assert!(cursor.next().is_none(), "flow {flow}: extra flits emitted");
    }
    (hot_home, report)
}

/// Heavy skew on a 4-shard stealing runtime: at least one migration
/// fires, everything is conserved, and the per-flow egress order is
/// exactly the submission order with contiguous flit indices — the
/// steal moved state, not observable behavior.
#[test]
fn stealing_preserves_per_flow_emit_order() {
    let (_, report) = skewed_stealing_run(EgressMode::Sync, None);
    assert!(report.all_clean(), "{:?}", report.exits);
}

/// Stealing × resumption: the hot flow's home shard is killed as soon
/// as it may grant, while it is the donor every idle shard is pulling
/// from. Its `MigrationDriver` survives in its `WorkerState` (DESIGN.md
/// §9.2), so the resumed worker takes each in-flight handoff's next
/// protocol step instead of stranding its peer: the run still steals,
/// conserves, loses nothing and keeps every flow's emit order, under
/// sync egress and under buffered egress with credits tight enough that
/// links credit-park constantly.
#[test]
fn stealing_survives_the_death_of_the_hot_shard() {
    /// Cycle of the victim's flit clock at which it dies: the run's
    /// `min_gap`. The serve-chunk guard (DESIGN.md §8.5) keeps flow 0 —
    /// 336 k flits — at home until the victim's clock has reached it, so
    /// the kill fires at the victim's next loop however often flow 0
    /// moves afterwards.
    const KILL_AT: u64 = 64;
    let buffered = EgressMode::Buffered(BufferedConfig {
        ring_capacity: 64,
        credits: 4,
        n_links: 4,
        ..BufferedConfig::default()
    });
    for egress in [EgressMode::Sync, buffered] {
        let (victim, report) = skewed_stealing_run(egress.clone(), Some(KILL_AT));
        for (shard, exit) in report.exits.iter().enumerate() {
            let expected = if shard == victim {
                ShardExit::Panicked
            } else {
                ShardExit::Clean
            };
            assert_eq!(
                *exit, expected,
                "{egress:?}: shard {shard}: {:?}",
                report.exits
            );
        }
    }
}

/// Regression for the §8.7 compose hang: stealing under buffered
/// egress must shut down cleanly even when donor-side steal aborts race
/// link credit-parking.
///
/// A donor abort (withdrawal or fence timeout) used to unpark its
/// victim directly. When the victim's link was
/// credit-parked, the scheduler would serve a flit for a link with no
/// credit to send it on — under the one-flit holding slot of the time
/// that lost a flit and hung the shutdown on most runs of the stealing
/// bench's buffered leg; under per-batch grants it would be a flit
/// served on a zero grant. Every mover's unpark now respects link
/// parking, and this stays as the conservation test of that rule.
/// Tight credits plus an aggressive steal policy make the race hot;
/// four rounds keep the reproduction probability high without a long
/// wait.
#[test]
fn stealing_under_buffered_egress_shuts_down_cleanly() {
    use std::sync::atomic::{AtomicU64, Ordering};

    const N_FLOWS: usize = 16;
    const N_LINKS: usize = 4;
    const PACKETS: u64 = 6_000;

    for round in 0..4 {
        let delivered = Arc::new(AtomicU64::new(0));
        let (rt, handle) = Runtime::start_with_egress(
            RuntimeConfig {
                shards: 4,
                n_flows: N_FLOWS,
                ring_capacity: 1 << 14,
                stealing: Some(StealingConfig {
                    poll_interval: 4,
                    steal_threshold: 128,
                    min_gap: 64,
                    cooldown_polls: 1,
                }),
                egress: EgressMode::Buffered(BufferedConfig {
                    ring_capacity: 64,
                    // Tight credits: links credit-park constantly, so
                    // steal aborts keep landing on parked victims.
                    credits: 4,
                    n_links: N_LINKS,
                    ..BufferedConfig::default()
                }),
                ..RuntimeConfig::default()
            },
            {
                let delivered = Arc::clone(&delivered);
                move |_shard| {
                    let delivered = Arc::clone(&delivered);
                    Some(move |_s: usize, _f: &ServedFlit| {
                        delivered.fetch_add(1, Ordering::Relaxed);
                    })
                }
            },
        );

        // ~75% of flits on two flows: heavy skew keeps steals (and
        // their aborts, via the backlog-withdrawal path) coming.
        let mut flits = 0u64;
        for id in 0..PACKETS {
            let (flow, len) = if id % 4 < 3 {
                ((id % 2) as usize, 16u32)
            } else {
                ((2 + id % 14) as usize, 4u32)
            };
            flits += u64::from(len);
            assert_eq!(
                handle.submit(Packet::new(id, flow, len, 0)),
                Ok(Submitted::Enqueued),
                "round {round}: submit {id}"
            );
        }
        while handle.stats().served_packets() < PACKETS {
            std::thread::sleep(Duration::from_millis(1));
        }

        // A worker wedged behind a link it cannot serve is Abandoned
        // at the deadline instead of exiting Clean.
        let report = rt.shutdown_within(Duration::from_secs(60));
        assert!(
            report.exits.iter().all(|e| matches!(e, ShardExit::Clean)),
            "round {round}: wedged worker: {:?}",
            report.exits
        );
        assert!(report.is_conserving(), "round {round}: {report:?}");
        assert_eq!(report.served_packets(), PACKETS, "round {round}");
        assert_eq!(
            delivered.load(Ordering::Relaxed),
            flits,
            "round {round}: a served flit never reached the sink"
        );
    }
}
