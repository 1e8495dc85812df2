//! Single-thread timings of each layer's public functions, taken under a
//! counting allocator. These are the unit costs of the ledger: what one
//! call costs when nothing contends for it. What the live workload pays
//! on top (waiting, wake-ups, cache lines bouncing between cores) is the
//! budget's unexplained remainder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use err_egress::{spsc_ring, FlusherCore, LinkSet};
use err_fabric::{FlowSpec, Topology};
use err_runtime::channel::MpscRing;
use err_runtime::gate::DrainGate;
use err_runtime::{AdmissionController, AdmissionPolicy};
use err_sched::err::{ErrCore, VisitOutcome};
use err_sched::{Discipline, Packet, ServedFlit};

use crate::gen::Inputs;
use crate::report::Report;
use crate::stats::median;

/// Counts heap allocations (not bytes): the per-flit figure that matters
/// is "does the steady state allocate at all".
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// statistic that publishes nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are exactly
        // `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for `realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const ROUNDS: usize = 5;

/// Median over `ROUNDS` of `round()`'s own `(timed ns, ops)` ratio. The
/// round decides what it times, so set-up between timed stretches (for
/// instance refilling a ring) stays off the clock.
fn ns_per_op(mut round: impl FnMut() -> (u64, u64)) -> f64 {
    let xs: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let (ns, ops) = round();
            ns as f64 / ops.max(1) as f64
        })
        .collect();
    median(&xs)
}

fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t = Instant::now();
    let out = black_box(f());
    (t.elapsed().as_nanos() as u64, out)
}

fn core_decision_ns(n: usize, lens: &[u32]) -> f64 {
    let mut core = ErrCore::new(n);
    for f in 0..n {
        core.activate(f);
    }
    let target = (4 * n as u64).max(1 << 21);
    let mut cursor = 0usize;
    ns_per_op(|| {
        let (ns, ops) = timed(|| {
            let mut ops = 0u64;
            while ops < target {
                black_box(core.begin_visit());
                loop {
                    let len = u64::from(lens[cursor & (lens.len() - 1)]);
                    cursor += 1;
                    core.charge(len);
                    ops += 1;
                    if core.on_packet_complete(len, true) == VisitOutcome::VisitEnded {
                        break;
                    }
                }
            }
            ops
        });
        (ns, ops)
    })
}

/// `(enqueue ns/packet, service_batch ns/flit, allocations/flit)` on a
/// 64-flow scheduler fed `len`-flit packets (`None`: the table's mix).
fn sched_costs(inp: &Inputs, len: Option<u32>) -> (f64, f64, f64) {
    const N: usize = 64;
    const BURST: usize = 1024;
    let mut sched = Discipline::Err.build(N);
    let mut out: Vec<ServedFlit> = Vec::with_capacity(256);
    let (mut id, mut now, mut cursor) = (0u64, 0u64, 0usize);
    let mut enq = Vec::new();
    let mut svc = Vec::new();
    let mut allocs = 0.0;
    // One untimed round first: per-flow queues grow to their steady
    // capacity, so the timed rounds see no allocation.
    for round in 0..=ROUNDS * 8 {
        let a0 = allocations();
        let (enq_ns, ()) = timed(|| {
            for _ in 0..BURST {
                let i = cursor & (crate::gen::TABLE - 1);
                cursor += 1;
                let l = len.unwrap_or(inp.lens[i]);
                sched.enqueue(Packet::new(id, inp.flows[i] as usize, l, 0), now);
                id += 1;
            }
        });
        let mut flits = 0u64;
        let (svc_ns, ()) = timed(|| loop {
            out.clear();
            let n = sched.service_batch(now, 256, &mut out);
            if n == 0 {
                break;
            }
            now += n as u64;
            flits += n as u64;
        });
        if round > 0 {
            enq.push(enq_ns as f64 / BURST as f64);
            svc.push(svc_ns as f64 / flits as f64);
            allocs += (allocations() - a0) as f64 / flits as f64;
        }
    }
    (median(&enq), median(&svc), allocs / (ROUNDS * 8) as f64)
}

pub fn sched(rep: &mut Report, inp: &Inputs) {
    rep.sample(
        "err-sched.core_decision_ns.n64",
        core_decision_ns(64, &inp.lens),
    );
    rep.sample(
        "err-sched.core_decision_ns.n10k",
        core_decision_ns(10_000, &inp.lens),
    );
    rep.sample(
        "err-sched.core_decision_ns.n1m",
        core_decision_ns(1_000_000, &inp.lens),
    );
    let (enq, _, allocs) = sched_costs(inp, None);
    rep.sample("err-sched.enqueue_ns", enq);
    rep.sample("err-sched.allocs_per_flit", allocs);
    rep.sample(
        "err-sched.service_batch_ns_per_flit.len1",
        sched_costs(inp, Some(1)).1,
    );
    rep.sample(
        "err-sched.service_batch_ns_per_flit.len16",
        sched_costs(inp, Some(16)).1,
    );
}

pub fn runtime(rep: &mut Report, inp: &Inputs) {
    const OPS: u64 = 1 << 20;
    let ring: MpscRing<Packet> = MpscRing::with_capacity(1024);
    let mut out = Vec::with_capacity(512);
    let (mut push, mut pop) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let (mut push_ns, mut pop_ns) = (0u64, 0u64);
        for chunk in 0..OPS / 512 {
            push_ns += timed(|| {
                for i in 0..512u64 {
                    ring.push(Packet::new(chunk * 512 + i, 0, 4, 0))
                        .expect("ring has room");
                }
            })
            .0;
            out.clear();
            pop_ns += timed(|| ring.pop_batch(&mut out, 512)).0;
            assert_eq!(out.len(), 512);
        }
        push.push(push_ns as f64 / OPS as f64);
        pop.push(pop_ns as f64 / OPS as f64);
    }
    rep.sample("err-runtime.ring_push_ns", median(&push));
    rep.sample("err-runtime.ring_pop_batch_ns_per_item", median(&pop));

    let adm = AdmissionController::new(AdmissionPolicy::Backpressure { max_backlog: 64 }, 64);
    rep.sample(
        "err-runtime.admission_pair_ns",
        ns_per_op(|| {
            let (ns, ()) = timed(|| {
                for i in 0..OPS as usize {
                    let i = i & (crate::gen::TABLE - 1);
                    let (flow, len) = (inp.flows[i] as usize, inp.lens[i]);
                    black_box(adm.try_admit(flow, len));
                    adm.on_packet_served(flow, len);
                }
            });
            (ns, OPS)
        }),
    );
    let gate = DrainGate::new();
    rep.sample(
        "err-runtime.gate_enter_ns",
        ns_per_op(|| {
            let (ns, ()) = timed(|| {
                for _ in 0..OPS {
                    drop(black_box(gate.enter()));
                }
            });
            (ns, OPS)
        }),
    );
}

pub fn egress(rep: &mut Report) {
    const OPS: u64 = 1 << 20;
    let flit = |i: u64| ServedFlit {
        flow: (i % 4) as usize,
        packet: i,
        arrival: 0,
        len: 1,
        flit_index: 0,
    };
    let links = LinkSet::new(4, 32);
    rep.sample(
        "err-egress.credit_pair_ns",
        ns_per_op(|| {
            let (ns, ()) = timed(|| {
                for i in 0..OPS {
                    let l = (i % 4) as usize;
                    black_box(links.try_acquire(l));
                    black_box(links.on_delivered(l));
                }
            });
            (ns, OPS)
        }),
    );
    let (mut tx, mut rx) = spsc_ring::<ServedFlit>(256);
    rep.sample(
        "err-egress.spsc_push_pop_ns",
        ns_per_op(|| {
            let (ns, ()) = timed(|| {
                for i in 0..OPS {
                    tx.push(flit(i)).expect("ring has room");
                    black_box(rx.pop());
                }
            });
            (ns, OPS)
        }),
    );
    // The flusher over a pre-filled ring: every flit already holds its
    // link credit (32 x 4 links), as the shard worker would leave it.
    let links = LinkSet::new(4, 32);
    let (mut tx, rx) = spsc_ring::<ServedFlit>(256);
    let mut core = FlusherCore::new(0, rx, 4);
    let mut delivered = 0u64;
    let mut sink = |_s: usize, _f: &ServedFlit| delivered += 1;
    rep.sample(
        "err-egress.flusher_step_ns_per_flit",
        ns_per_op(|| {
            let (mut ns, mut flits) = (0u64, 0u64);
            for _ in 0..2048 {
                for i in 0..128u64 {
                    assert!(links.try_acquire((i % 4) as usize), "credits were returned");
                    tx.push(flit(i)).expect("ring has room");
                }
                let (step_ns, n) = timed(|| core.step(&links, None, &mut sink));
                assert_eq!(n, 128, "an unstalled flusher delivers the whole ring");
                ns += step_ns;
                flits += n;
            }
            (ns, flits)
        }),
    );
    black_box(delivered);
}

pub fn fabric(rep: &mut Report, topo: &Topology, specs: &[FlowSpec]) {
    let xs: Vec<f64> = (0..21)
        .map(|_| timed(|| topo.compile_route_tables(specs)).0 as f64 / 1e6)
        .collect();
    rep.sample("err-fabric.route_compile_ms", median(&xs));
}

pub fn clock(rep: &mut Report) {
    const OPS: u64 = 1 << 18;
    rep.sample(
        "trace.clock_ns",
        ns_per_op(|| {
            let (ns, ()) = timed(|| {
                for _ in 0..OPS {
                    black_box(crate::host::now_ns());
                }
            });
            (ns, OPS)
        }),
    );
}

/// Per-packet and per-flit operation counts of one pass through a node,
/// for the budget: which unit costs a flit pays, and how often.
pub struct Path {
    /// Submit-side work per packet: gate, admission pair, ring push/pop,
    /// scheduler enqueue.
    pub ingress: bool,
    /// Credit pair, SPSC push/pop and flusher step per flit.
    pub egress: bool,
    /// Nodes a packet crosses (1 for a runtime; mean path nodes on the
    /// fabric).
    pub nodes: f64,
}

/// Σ(unit cost × operations per flit) over the layers on `path`, in ns
/// per delivered flit. `pkts_per_flit` is 1 / mean packet length.
pub fn explained_ns_per_flit(rep: &Report, path: &Path, pkts_per_flit: f64) -> f64 {
    let v = |name: &str| rep.value(name).unwrap_or(0.0);
    // service_batch costs a + b/len per flit; solve a, b from the two
    // measured lengths and evaluate at this workload's mix.
    let (c1, c16) = (
        v("err-sched.service_batch_ns_per_flit.len1"),
        v("err-sched.service_batch_ns_per_flit.len16"),
    );
    let b = (c1 - c16) * 16.0 / 15.0;
    let a = c1 - b;
    let mut per_flit = a + b * pkts_per_flit;
    let mut per_pkt = 0.0;
    if path.ingress {
        per_pkt += v("err-runtime.gate_enter_ns")
            + v("err-runtime.admission_pair_ns")
            + v("err-runtime.ring_push_ns")
            + v("err-runtime.ring_pop_batch_ns_per_item")
            + v("err-sched.enqueue_ns");
    } else {
        per_pkt += v("err-sched.enqueue_ns");
    }
    if path.egress {
        per_flit += v("err-egress.credit_pair_ns")
            + v("err-egress.spsc_push_pop_ns")
            + v("err-egress.flusher_step_ns_per_flit");
    }
    path.nodes * (per_flit + per_pkt * pkts_per_flit)
}
