// Passing fixture: every park names its unpark authority and the
// direct unpark justifies itself.
pub fn refill(stage: &mut BufferedStage, flow: usize) {
    stage.sched.handoff(flow);
}

pub fn release(stage: &mut BufferedStage, flow: usize) {
    // unpark: this call *is* `refill` duty — the credit it just took
    // is exactly the guard it provides.
    stage.sched.unpark_flow(flow);
}

pub fn credit_park(stage: &mut BufferedStage, flow: usize) {
    // unpark: `refill` on the release path above, once the link's
    // credit frees.
    stage.sched.park_flow(flow);
}
