// Passing fixture: the step decides and returns; nothing it calls
// waits, and its driver does every wait.
impl WorkerState {
    pub fn step(&mut self, shared: &Shared) -> Step {
        fault_tick(shared, self.now);
        if self.intake(shared) == 0 {
            return Step::Idle;
        }
        Step::Busy
    }

    fn intake(&mut self, shared: &Shared) -> usize {
        shared.ring.pop_batch(&mut self.arrivals, 8)
    }
}

fn fault_tick(shared: &Shared, now: u64) {
    shared.schedule.pop(now);
}

pub fn run_shard(shared: &Shared, mut w: WorkerState) {
    loop {
        if w.step(shared) == Step::Idle {
            std::thread::yield_now();
            // backstop: polls arrivals; a plain push never wakes.
            shared.cell.idle_unless(|| shared.ring.head_ready(), PARK_TIMEOUT);
        }
    }
}
