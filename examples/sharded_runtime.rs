//! Sharded runtime tour: multi-threaded producers feeding a 4-shard ERR
//! runtime through admission control, then a graceful drain.
//!
//! Run with: `cargo run --release --example sharded_runtime`
//!
//! Demonstrates the full pipeline of the `err-runtime` crate:
//!
//! 1. a `Runtime` with four shard workers, each privately running ERR;
//! 2. `traffic_gen::par_feed` submitting a 64-flow Bernoulli workload
//!    from two producer threads concurrently;
//! 3. drop-tail admission bounding every flow's outstanding flits;
//! 4. `shutdown()` serving the residual backlog and joining the workers,
//!    with the conservation invariant checked on the final report.

use err_repro::runtime::{AdmissionPolicy, Runtime, RuntimeConfig, SubmitError, Submitted};
use err_repro::traffic::{ArrivalProcess, FlowSpec, LenDist};

fn main() {
    const N_FLOWS: usize = 64;
    const SHARDS: usize = 4;
    const HORIZON: u64 = 200_000;

    let (rt, handle) = Runtime::start(RuntimeConfig {
        shards: SHARDS,
        n_flows: N_FLOWS,
        admission: AdmissionPolicy::DropTail { max_backlog: 512 },
        ..RuntimeConfig::default()
    });
    println!("started {SHARDS} shard workers, {N_FLOWS} flows, drop-tail cap 512 flits/flow");
    for flow in [0usize, 1, 17, 63] {
        println!("  flow {flow:2} -> shard {}", handle.shard_of(flow));
    }

    // Two producer threads replay the same seeded workload a serial
    // Workload would generate, partitioned by flow.
    let specs: Vec<FlowSpec> = (0..N_FLOWS)
        .map(|_| FlowSpec {
            arrivals: ArrivalProcess::Bernoulli { rate: 0.02 },
            lengths: LenDist::Uniform { lo: 1, hi: 32 },
        })
        .collect();
    let submit_handle = handle.clone();
    let offered =
        err_repro::traffic::par_feed(specs, 7, HORIZON, 2, move |pkt| {
            match submit_handle.submit(pkt) {
                Ok(Submitted::Enqueued | Submitted::Dropped) => true,
                Err(SubmitError::Closed) => false,
                Err(e) => panic!("submit failed: {e}"),
            }
        });

    let live = handle.stats();
    println!(
        "offered {offered} packets from 2 producers; live: {} enqueued, {} dropped, {} served",
        live.enqueued_packets(),
        live.dropped_packets(),
        live.served_packets()
    );

    let report = rt.shutdown();
    println!("drained: every worker joined, report:");
    for s in &report.stats.shards {
        println!(
            "  shard {}: {:>6} pkts in, {:>6} served, {:>7} flits, {} parks",
            s.shard, s.enqueued_packets, s.served_packets, s.served_flits, s.parks
        );
    }
    println!(
        "totals: {} submitted = {} served + {} dropped (loss rate {:.4})",
        report.submitted_packets(),
        report.served_packets(),
        report.dropped_packets(),
        report.stats.loss_rate()
    );
    println!(
        "aggregate {:.2} flits/shard-cycle over {} shards",
        report.flits_per_shard_cycle(),
        report.shard_cycles.len()
    );
    assert!(report.is_conserving(), "conservation violated: {report:?}");
    println!("conservation invariant holds ✓");
}
