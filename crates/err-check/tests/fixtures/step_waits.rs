// Violating fixture: two waits a step reaches — a yield in the step
// itself, and a spin in the fault hook it calls — beside a driver
// whose own wait is allowed.
impl WorkerState {
    pub fn step(&mut self, shared: &Shared) -> Step {
        fault_tick(shared, self.now);
        if shared.ring.is_empty() {
            std::thread::yield_now();
            return Step::Idle;
        }
        Step::Busy
    }
}

fn fault_tick(shared: &Shared, now: u64) {
    while !shared.schedule.reached(now) {
        std::hint::spin_loop();
    }
}

pub fn run_shard(shared: &Shared, mut w: WorkerState) {
    while w.step(shared) != Step::Exit {
        std::thread::yield_now();
    }
}
