// Passing fixture: every sleep says what its timer is for, and the
// timeout it passes agrees.
pub fn wake_consumer(cell: &WakeCell) -> bool {
    cell.wake()
}

pub fn idle_until_pushed(cell: &WakeCell, ring: &Ring, timeout: Duration) -> Sleep {
    // backstop: forwards the caller's `timeout`.
    cell.idle_unless(|| ring.head_ready(), timeout)
}

pub fn idle_flusher(cell: &WakeCell, ring: &Ring, pending: bool, backoff: Duration) -> Sleep {
    if pending {
        // backstop: polls a link thaw or a refusing sink finding room —
        // what pending flits wait for.
        cell.idle_unless(|| ring.head_ready(), backoff)
    } else {
        // backstop: covered by `wake_consumer` (a ring push), so the
        // timer is only there for a lost wake.
        cell.idle_unless(|| ring.head_ready(), BACKSTOP)
    }
}

pub fn wedge() {
    // backstop: polls the quarantine verdict; nobody unparks a wedge.
    std::thread::park_timeout(Duration::from_micros(200));
}
