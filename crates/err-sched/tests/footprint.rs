//! Per-flow heap footprint of `ErrScheduler`, counted by the allocator.
//!
//! ERR needs a surplus count and an ActiveList place per flow (paper
//! Fig. 1); the bounds below hold the scheduler to a few words per flow
//! beyond that, idle and with a small backlog. One test only: the
//! counter is process-wide, and a second test running beside it would
//! pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use err_sched::err::ErrScheduler;
use err_sched::{Packet, Scheduler};

/// Live heap bytes of the whole process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const FLOWS: usize = 100_000;
/// Live bytes per flow of an empty `ErrScheduler::new(FLOWS)`.
const IDLE_BOUND: f64 = 48.0;
/// Live bytes per flow with two packets queued on every flow.
const TWO_PACKETS_BOUND: f64 = 120.0;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn err_scheduler_heap_bytes_per_flow() {
    let base = live();
    let mut s = ErrScheduler::new(FLOWS);
    let idle = (live() - base) as f64 / FLOWS as f64;
    assert!(
        idle <= IDLE_BOUND,
        "an idle scheduler holds {idle:.1} B per flow (bound {IDLE_BOUND})"
    );

    let mut id = 0;
    for _ in 0..2 {
        for flow in 0..FLOWS {
            s.enqueue(Packet::new(id, flow, 1 + (id % 16) as u32, 0), 0);
            id += 1;
        }
    }
    let backlogged = (live() - base) as f64 / FLOWS as f64;
    assert!(
        backlogged <= TWO_PACKETS_BOUND,
        "two packets per flow hold {backlogged:.1} B per flow (bound {TWO_PACKETS_BOUND})"
    );
    assert_eq!(s.backlog_flits(), (0..id).map(|i| 1 + i % 16).sum::<u64>());
    println!("per-flow heap: {idle:.1} B idle, {backlogged:.1} B with two packets");
}
