// Violating fixture: the PR 17 class. Three sleeps, three ways to get
// the timer wrong — one says nothing, one is covered by a wake yet
// arms a short timer per sleep, one polls and would wait out the
// backstop.
pub fn wake_consumer(cell: &WakeCell) -> bool {
    cell.wake()
}

pub fn silent(cell: &WakeCell) {
    cell.idle_unless(|| false, PARK_TIMEOUT);
}

pub fn covered_but_short(cell: &WakeCell, ring: &Ring) {
    // backstop: covered by `wake_consumer` — a ring push is announced.
    cell.idle_unless(|| ring.head_ready(), BACKOFF_CAP);
}

pub fn polls_but_long(cell: &WakeCell) {
    // backstop: polls arrivals; the plain push path never wakes.
    cell.sleep_unless(|| false, BACKSTOP);
}
