//! Integration tests for the sharded scheduling runtime: capacity
//! scaling, loss accounting under admission control, and graceful drain.
//!
//! Scaling is asserted in the flit-clock model (flits served per cycle
//! of the slowest shard's clock), not wall-clock time: each shard is an
//! independent egress link serving one flit per cycle — the paper's
//! model — so with `s` balanced shards the aggregate rate approaches
//! `s`. Wall-clock scaling additionally needs `s` idle cores, which CI
//! containers do not guarantee; the logical metric tests exactly what
//! the sharded design controls (partition evenness and per-shard
//! independence) and nothing the machine controls.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use err_runtime::{AdmissionPolicy, Runtime, RuntimeConfig, SubmitError, Submitted};
use err_sched::Packet;

const N_FLOWS: usize = 64;
const PACKET_LEN: u32 = 8;

fn uniform_run(shards: usize, packets: u64) -> err_runtime::DrainReport {
    let (rt, handle) = Runtime::start(RuntimeConfig {
        shards,
        n_flows: N_FLOWS,
        ..RuntimeConfig::default()
    });
    for id in 0..packets {
        let pkt = Packet::new(id, (id % N_FLOWS as u64) as usize, PACKET_LEN, 0);
        assert_eq!(handle.submit(pkt), Ok(Submitted::Enqueued));
    }
    rt.shutdown()
}

/// (a) Capacity scaling: four shards serve the same uniform 64-flow
/// workload in well under half the shard-cycles one shard needs.
#[test]
fn four_shards_at_least_double_one_shard_capacity() {
    let packets = 4_000;
    let one = uniform_run(1, packets);
    let four = uniform_run(4, packets);
    assert!(one.is_conserving(), "{one:?}");
    assert!(four.is_conserving(), "{four:?}");
    assert_eq!(one.served_packets(), packets);
    assert_eq!(four.served_packets(), packets);

    // One shard serves one flit per cycle of its own clock, exactly.
    let base = one.flits_per_shard_cycle();
    assert!(
        (base - 1.0).abs() < 1e-9,
        "1-shard rate {base}, expected 1.0"
    );
    // Four shards: aggregate rate is total flits / makespan. The
    // SplitMix64 partition keeps every shard's share of the 64 uniform
    // flows far enough from a 2/4 skew that the aggregate stays >= 2x.
    let scaled = four.flits_per_shard_cycle();
    assert!(
        scaled >= 2.0 * base,
        "4-shard rate {scaled:.3} < 2x 1-shard rate {base:.3}"
    );
}

/// (b1) With admission off, nothing is ever lost: every submitted packet
/// is served, regardless of burst size or shard count.
#[test]
fn zero_loss_with_admission_unlimited() {
    for shards in [1usize, 3, 8] {
        let report = uniform_run(shards, 10_000);
        assert!(report.is_conserving(), "{report:?}");
        assert_eq!(report.served_packets(), 10_000);
        assert_eq!(report.dropped_packets(), 0);
        assert_eq!(report.rejected_packets(), 0);
        assert_eq!(report.stats.loss_rate(), 0.0);
    }
}

/// (b2) Drop-tail admission under a 2x overload burst drops exactly the
/// packets over the cap, and the submit-path accounting agrees with the
/// drain report packet for packet.
#[test]
fn drop_tail_bounds_drops_exactly_under_2x_overload() {
    const CAP_FLITS: u64 = 64;
    // An egress sink that sleeps per flit pins the service rate far
    // below the burst's submit rate, so the admission cap — not the
    // race with the worker — decides the outcome.
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: 1,
            admission: AdmissionPolicy::DropTail {
                max_backlog: CAP_FLITS,
            },
            ..RuntimeConfig::default()
        },
        |_shard| {
            Some(|_: usize, _: &err_sched::ServedFlit| {
                std::thread::sleep(Duration::from_millis(1));
            })
        },
    );
    // 2x overload: offer 2 * CAP_FLITS flits in one burst.
    let burst_packets = 2 * CAP_FLITS / PACKET_LEN as u64; // 16
    let mut dropped_at_submit = 0u64;
    for id in 0..burst_packets {
        match handle.submit(Packet::new(id, 0, PACKET_LEN, 0)).unwrap() {
            Submitted::Enqueued => {}
            Submitted::Dropped => dropped_at_submit += 1,
        }
    }
    let report = rt.shutdown();
    assert!(report.is_conserving(), "{report:?}");
    assert_eq!(report.submitted_packets(), burst_packets);
    assert_eq!(report.dropped_packets(), dropped_at_submit);
    assert_eq!(
        report.served_packets() + report.dropped_packets(),
        burst_packets
    );
    // The cap admits while strictly under CAP_FLITS, so the burst gets
    // CAP_FLITS / PACKET_LEN = 8 packets in (9 if service released one
    // mid-burst; the sink makes that a >= 8 ms window against a << 1 ms
    // burst). Everything else must have been dropped.
    let admitted = burst_packets - report.dropped_packets();
    assert!(
        (8..=9).contains(&admitted),
        "admitted {admitted}, expected the cap's 8 (or 9 with one mid-burst release)"
    );
}

/// (b3) The reject policy surfaces overload to the producer as errors
/// instead of silent drops, with the same exact accounting.
#[test]
fn reject_policy_errors_instead_of_dropping() {
    const CAP_FLITS: u64 = 32;
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: 1,
            admission: AdmissionPolicy::Reject {
                max_backlog: CAP_FLITS,
            },
            ..RuntimeConfig::default()
        },
        |_shard| {
            Some(|_: usize, _: &err_sched::ServedFlit| {
                std::thread::sleep(Duration::from_millis(1));
            })
        },
    );
    let mut rejected = 0u64;
    for id in 0..12u64 {
        match handle.submit(Packet::new(id, 0, PACKET_LEN, 0)) {
            Ok(Submitted::Enqueued) => {}
            Err(SubmitError::Rejected) => rejected += 1,
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert!(rejected > 0, "2x overload must trip the reject policy");
    let report = rt.shutdown();
    assert!(report.is_conserving(), "{report:?}");
    assert_eq!(report.rejected_packets(), rejected);
    assert_eq!(report.dropped_packets(), 0);
    assert_eq!(report.served_packets() + rejected, 12);
}

/// (c) Graceful drain under concurrent multi-threaded producers: close
/// mid-stream, and afterwards every packet is accounted for, the
/// residual backlog is fully served, and every worker has joined.
#[test]
fn graceful_drain_with_concurrent_producers() {
    let (rt, handle) = Runtime::start(RuntimeConfig {
        shards: 4,
        n_flows: N_FLOWS,
        ..RuntimeConfig::default()
    });
    let accepted = Arc::new(AtomicU64::new(0));
    let producers: Vec<_> = (0..3u64)
        .map(|p| {
            let handle = handle.clone();
            let accepted = Arc::clone(&accepted);
            std::thread::spawn(move || {
                for i in 0..200_000u64 {
                    let id = p * 1_000_000 + i;
                    let flow = (id % N_FLOWS as u64) as usize;
                    match handle.submit(Packet::new(id, flow, PACKET_LEN, 0)) {
                        Ok(Submitted::Enqueued) => {
                            accepted.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(Submitted::Dropped) => unreachable!("admission is off"),
                        Err(SubmitError::Closed) => return,
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
            })
        })
        .collect();
    // Let the producers get going, then drain mid-stream. `shutdown`
    // joining all workers IS assertion (c3): it only returns once every
    // worker thread has exited its loop and been joined.
    std::thread::sleep(Duration::from_millis(20));
    let report = rt.shutdown();
    for p in producers {
        p.join().expect("producer panicked");
    }
    let accepted = accepted.load(Ordering::Relaxed);
    assert!(accepted > 0, "producers never got a packet in");
    assert!(report.is_conserving(), "{report:?}");
    assert_eq!(report.served_packets(), accepted);
    assert_eq!(
        report.served_packets() + report.dropped_packets(),
        report.submitted_packets()
    );
    assert_eq!(report.stats.backlog_flits(), 0);
    assert_eq!(report.shard_cycles.len(), 4, "one final clock per worker");
}

/// (d) A zero-deadline `submit_within` refuses at its first wait, at
/// both wait sites — a backpressure `Wait` and a full ingress ring —
/// counts the refusal in `timedout_packets`, and leaves no admission
/// charge behind: once the worker drains, each flow is admitted up to
/// its `max_backlog` again.
#[test]
fn a_zero_deadline_submit_refuses_at_once_and_revokes_its_charge() {
    // One packet fills a flow's cap, so a leaked charge would refuse
    // that flow forever.
    const LEN: u32 = 4;
    const FLOWS: usize = 16;
    let blocked = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let (rt, handle) = {
        let blocked = Arc::clone(&blocked);
        Runtime::start_with_egress(
            RuntimeConfig {
                shards: 1,
                n_flows: FLOWS,
                ring_capacity: 4,
                // The worker holds one flit of one packet while its
                // sink blocks, so everything else waits in the ring.
                batch_packets: 1,
                batch_flits: 1,
                admission: AdmissionPolicy::Backpressure {
                    max_backlog: u64::from(LEN),
                },
                ..RuntimeConfig::default()
            },
            move |_shard| {
                let blocked = Arc::clone(&blocked);
                Some(move |_: usize, _: &err_sched::ServedFlit| {
                    while blocked.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                })
            },
        )
    };
    let mut id = 0u64;
    let mut offer = |flow: usize| {
        id += 1;
        handle.submit_within(Packet::new(id, flow, LEN, 0), Duration::ZERO)
    };
    // Admission site: flow 0's first packet fills its cap, so the
    // second waits on admission, and a zero deadline refuses at once.
    assert_eq!(offer(0), Ok(Submitted::Enqueued));
    assert_eq!(offer(0), Err(SubmitError::TimedOut));
    // Ring site: one packet per fresh flow, each under its cap, until
    // the ring is full.
    let full = (1..FLOWS)
        .find(|&flow| match offer(flow) {
            Ok(Submitted::Enqueued) => false,
            Err(SubmitError::TimedOut) => true,
            other => panic!("flow {flow}: unexpected {other:?}"),
        })
        .expect("a ring of four filled within the flows");
    assert_eq!(handle.stats().timedout_packets(), 2);

    blocked.store(false, Ordering::Release);
    let enqueued = full as u64;
    let start = std::time::Instant::now();
    while handle.stats().served_packets() < enqueued {
        assert!(start.elapsed() < Duration::from_secs(10), "never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    // No charge leaked at either site: both flows take a full cap again.
    assert_eq!(offer(0), Ok(Submitted::Enqueued));
    assert_eq!(offer(full), Ok(Submitted::Enqueued));

    let report = rt.shutdown();
    assert!(report.is_conserving(), "{report:?}");
    assert_eq!(report.timedout_packets(), 2);
    assert_eq!(report.served_packets(), enqueued + 2);
}
