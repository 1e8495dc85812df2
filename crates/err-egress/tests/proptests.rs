//! Property tests for the buffered egress path.
//!
//! The load-bearing property: the ring + flusher + credit machinery is
//! a *transparent pipe* per link. Whatever sequence of flits the worker
//! commits, under any stall schedule, each link's delivery order equals
//! its commit order, nothing is lost or duplicated, and the buffered
//! backlog per link never exceeds the credit pool.

use err_egress::{spsc_ring, FlusherCore, LinkSet};
use err_sched::ServedFlit;
use proptest::prelude::*;

const N_LINKS: usize = 3;
const CREDITS: u64 = 4;
const RING: usize = 16;

fn flit(flow: usize, packet: u64) -> ServedFlit {
    ServedFlit {
        flow,
        packet,
        arrival: 0,
        len: 1,
        flit_index: 0,
    }
}

/// One flusher step into `delivered`, then the step boundary's check:
/// the flush clock is settled, equal to the flits delivered so far and
/// to the links' summed `delivered_flits`.
fn step(core: &mut FlusherCore, links: &LinkSet, delivered: &mut Vec<(usize, u64)>) -> u64 {
    let mut sink = |_s: usize, f: &ServedFlit| delivered.push((links.route(f.flow), f.packet));
    let stepped = core.step(links, None, &mut sink);
    let on_links: u64 = links.snapshot().iter().map(|s| s.delivered_flits).sum();
    prop_assert_eq!(links.flush_clock(), delivered.len() as u64);
    prop_assert_eq!(links.flush_clock(), on_links);
    stepped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Per-link delivery order equals commit order under arbitrary
    /// freeze/thaw interleavings, with conservation and bounded
    /// buffering.
    #[test]
    fn buffered_path_is_a_transparent_pipe_per_link(
        // (flow, action): action 0 = nothing, 1 = freeze the flow's
        // link first, 2 = thaw it first.
        script in prop::collection::vec((0..6usize, 0..3u8), 1..300),
    ) {
        let links = LinkSet::new(N_LINKS, CREDITS);
        let (mut tx, rx) = spsc_ring(RING);
        let mut core = FlusherCore::new(0, rx, N_LINKS);
        let mut delivered: Vec<(usize, u64)> = Vec::new();
        let mut committed: Vec<(usize, u64)> = Vec::new();

        for (i, &(flow, action)) in script.iter().enumerate() {
            let link = links.route(flow);
            match action {
                1 => links.freeze(link),
                2 => links.release_stall(link),
                _ => {}
            }
            // The worker's commit protocol: credit first, then ring.
            // A real worker would park the flow on credit exhaustion;
            // this single-threaded harness thaws the link and pumps the
            // flusher instead, which must always free a credit.
            let mut guard = 0;
            while !links.try_acquire(link) {
                links.release_stall(link);
                step(&mut core, &links, &mut delivered);
                guard += 1;
                prop_assert!(guard < 1000, "credit never freed for link {link}");
            }
            let mut item = flit(flow, i as u64);
            let mut guard = 0;
            while let Err(back) = tx.push(item) {
                item = back;
                step(&mut core, &links, &mut delivered);
                guard += 1;
                prop_assert!(guard < 1000, "ring never drained");
            }
            committed.push((link, i as u64));
            // Pump the flusher at an arbitrary-but-deterministic cadence
            // so rings run at varying occupancy across cases.
            if i % 3 == 0 {
                step(&mut core, &links, &mut delivered);
            }
            for l in 0..N_LINKS {
                prop_assert!(
                    core.pending_len(l) as u64 <= CREDITS,
                    "pending on link {l} exceeds credit pool"
                );
            }
        }

        // Shutdown: thaw everything and drain.
        for l in 0..N_LINKS {
            links.release_stall(l);
        }
        let mut guard = 0;
        loop {
            if step(&mut core, &links, &mut delivered) == 0 && core.is_idle() {
                break;
            }
            guard += 1;
            prop_assert!(guard < 10_000, "drain did not converge");
        }

        // Conservation.
        prop_assert_eq!(delivered.len(), committed.len());
        prop_assert_eq!(links.flush_clock(), committed.len() as u64);
        // Per-link order = commit order.
        for l in 0..N_LINKS {
            let got: Vec<u64> = delivered.iter().filter(|&&(dl, _)| dl == l).map(|&(_, p)| p).collect();
            let want: Vec<u64> = committed.iter().filter(|&&(cl, _)| cl == l).map(|&(_, p)| p).collect();
            prop_assert_eq!(got, want, "link {} reordered", l);
        }
        // Every credit returned.
        for s in links.snapshot() {
            prop_assert_eq!(s.credits_available, CREDITS);
            prop_assert!(s.outstanding_peak <= CREDITS);
        }
    }
}
