// Passing fixture: every sleep says what its timer is for, and the
// timeout it passes agrees.
pub fn wake_consumer(cell: &WakeCell) -> bool {
    cell.wake()
}

pub fn idle_while_ring_empty(rx: &mut Consumer, timeout: Duration) -> Sleep {
    // backstop: forwards the caller's `timeout`.
    rx.idle_while_empty(|| false, timeout)
}

pub fn idle_flusher(rx: &mut Consumer, pending: bool, backoff: Duration) -> Sleep {
    if pending {
        // backstop: polls a link thaw or a refusing sink finding room —
        // what pending flits wait for.
        idle_while_ring_empty(rx, backoff)
    } else {
        // backstop: covered by `wake_consumer` (a ring push), so the
        // timer is only there for a lost wake.
        idle_while_ring_empty(rx, BACKSTOP)
    }
}

pub fn wedge() {
    // backstop: polls the quarantine verdict; nobody unparks a wedge.
    std::thread::park_timeout(Duration::from_micros(200));
}
