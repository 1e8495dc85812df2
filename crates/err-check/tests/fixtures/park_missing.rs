// Violating fixture: the PR 8 stash-wedge class. An unwind path
// unparks directly — bypassing `refill` — and parks a flow with no
// named unpark authority.
pub fn withdraw(stage: &mut BufferedStage, flow: usize) {
    stage.sched.unpark_flow(flow);
}

pub fn credit_park(stage: &mut BufferedStage, flow: usize) {
    stage.sched.park_flow(flow);
}
