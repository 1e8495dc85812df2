//! Elastic Round Robin — the paper's contribution (Figure 1 pseudo-code).
//!
//! ERR visits active flows in round-robin order. In round `r`, flow `i`
//! may send
//!
//! ```text
//! A_i(r) = 1 + MaxSC(r-1) - SC_i(r-1)        (Eq. 2)
//! ```
//!
//! units of service (flits, or cycles of occupancy in a wormhole switch).
//! The allowance is *elastic*: the flow keeps starting new packets while
//! its service this visit is below `A_i(r)`, so the final packet may
//! overshoot. The overshoot is the *surplus count*
//!
//! ```text
//! SC_i(r) = Sent_i(r) - A_i(r)               (Eq. 1)
//! ```
//!
//! and `MaxSC(r)` — the round's largest surplus — disciplines the next
//! round: whoever overdrew most gets the minimum allowance of 1.
//!
//! Crucially the scheduler only ever *reacts* to how much service a packet
//! consumed; it never inspects a packet's length before serving it. That
//! is the property DRR lacks and the reason ERR is deployable in wormhole
//! switches, where a packet's occupancy time depends on unpredictable
//! downstream congestion (paper §1).
//!
//! The module is split in two:
//!
//! * [`ErrCore`] — the pure decision engine, charged in abstract units.
//! * [`ErrScheduler`] — the flit-clocked front-end implementing
//!   [`Scheduler`], where one unit = one flit. Since ERR decides only at
//!   packet boundaries, it serves a packet in runs
//!   ([`ErrScheduler::service_run`]): one charge and at most one
//!   boundary decision per run. `service_flit` is the run of one flit,
//!   `service_batch` a loop of runs.

use std::collections::{HashMap, VecDeque};

use desim::Cycle;
use serde::{Deserialize, Serialize};

use crate::active_list::ActiveList;
use crate::packet::{FlitRun, FlitStream};
use crate::traits::{Scheduler, ServedFlit};
use crate::{FlowId, FlowQueues, Packet};

/// What the core decides at a packet boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VisitOutcome {
    /// `Sent_i < A_i` and the queue still has packets: begin the next
    /// packet within the same service opportunity.
    ContinueVisit,
    /// The visit is over; round-robin bookkeeping has been applied.
    VisitEnded,
}

/// The in-progress service opportunity of one flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Visit {
    /// Flow being served.
    pub flow: FlowId,
    /// `A_i(r)` for this visit.
    pub allowance: u64,
    /// Units charged so far in this visit (`Sent_i(r)` so far).
    pub sent: u64,
}

/// What a flow was doing at the instant [`ErrCore::park`] removed it
/// from the rotation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parked {
    /// The flow was inactive (no queued packets); only the parked flag
    /// was set, so future arrivals wait instead of activating it.
    Idle,
    /// The flow was waiting in the ActiveList; it was removed with its
    /// surplus count preserved.
    Dequeued,
    /// The flow was in service; its visit was suspended and must be
    /// restored via `ErrCore::resume_visit` after unparking, before
    /// any new visit begins.
    Suspended(Visit),
}

/// One completed service opportunity, for tracing and theorem checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VisitRecord {
    /// Round number (1-based, per the paper's Figure 2).
    pub round: u64,
    /// Flow served.
    pub flow: FlowId,
    /// Allowance `A_i(r)` granted.
    pub allowance: u64,
    /// Units actually sent `Sent_i(r)`.
    pub sent: u64,
    /// Surplus count recorded into `MaxSC` consideration
    /// (`max(0, sent - allowance)`).
    pub surplus: u64,
    /// Whether the flow's queue emptied (it left the ActiveList and its
    /// surplus count was reset to zero).
    pub went_inactive: bool,
}

/// The ERR decision engine (paper Figure 1), independent of what a
/// "unit" of service is.
///
/// Protocol per service opportunity:
///
/// 1. [`activate`](Self::activate) whenever a packet arrives for an
///    inactive flow (the Enqueue routine).
/// 2. [`begin_visit`](Self::begin_visit) — pops the head of the
///    ActiveList and computes its allowance (handling round rollover).
/// 3. [`charge`](Self::charge) — account service units as they happen
///    (one per flit, or one per cycle of port occupancy).
/// 4. [`on_packet_complete`](Self::on_packet_complete) at each packet
///    boundary — the core answers *continue* (start another packet) or
///    *ended* (surplus recorded, flow re-queued or deactivated).
///
/// All operations are O(1) in the number of flows (Theorem 1).
#[derive(Clone, Debug)]
pub struct ErrCore {
    active: ActiveList,
    /// Surplus count per flow (`SC_i`).
    sc: Vec<u64>,
    /// Integer weight per flow. The weighted allowance is
    /// `A_i(r) = w_i * (1 + MaxSC(r-1)) - SC_i(r-1)` (see the `werr`
    /// module). Empty when every weight is 1 — the unweighted
    /// discipline stores none — and a flow past its end weighs 1.
    weight: Vec<u64>,
    /// Largest surplus seen in the current round (`MaxSC`).
    max_sc: u64,
    /// `MaxSC` of the completed previous round (`PreviousMaxSC`).
    prev_max_sc: u64,
    /// Service opportunities remaining in the current round
    /// (`RoundRobinVisitCount`).
    rr_visit_count: usize,
    /// Active flows: ActiveList members plus the flow in service
    /// (`SizeOfActiveList`).
    size_active: usize,
    /// 1-based round number; 0 before the first visit.
    round: u64,
    visit: Option<Visit>,
    /// Size of the largest packet *actually served to completion* so far —
    /// the paper's `m` (Definition 2), maintained for bound checks.
    largest_served: u64,
    trace: Option<Vec<VisitRecord>>,
    /// The "+1" of Eq. (2). 1 reproduces the paper; the ablation study
    /// sets 0 (no progress grant) or larger values (coarser batching).
    bonus: u64,
    /// Whether surpluses carry into the next round's allowance (Eq. 2's
    /// `- SC_i(r-1)` term). Disabling this is the ablation that shows the
    /// surplus count is what buys ERR its fairness.
    carry_surplus: bool,
    /// Flows currently parked (credit-starved egress link): skipped by
    /// the rotation, surplus counts preserved.
    parked: Vec<bool>,
    /// Flows with a suspended (parked mid-service) visit outstanding.
    /// Such a flow counts as active for `ExistsInActiveList` purposes —
    /// it must not be re-activated into the list while its open visit
    /// waits to be resumed.
    limbo: Vec<bool>,
    /// Total park transitions ever; parking shifts round boundaries, so
    /// the Lemma 1 bookkeeping assertion is only checked while zero.
    park_epochs: u64,
}

impl ErrCore {
    /// Creates a core for `n_flows` equally weighted flows.
    pub fn new(n_flows: usize) -> Self {
        Self::build(n_flows, Vec::new())
    }

    /// Creates a core with per-flow integer weights (all ≥ 1).
    ///
    /// Weight `w` entitles a flow to `w×` the service of a weight-1 flow;
    /// see [`crate::werr`].
    pub fn with_weights(weights: Vec<u64>) -> Self {
        assert!(
            weights.iter().all(|&w| w >= 1),
            "weights must be at least 1"
        );
        let n = weights.len();
        let weight = if weights.iter().all(|&w| w == 1) {
            Vec::new()
        } else {
            weights
        };
        Self::build(n, weight)
    }

    fn build(n: usize, weight: Vec<u64>) -> Self {
        Self {
            active: ActiveList::new(n),
            sc: vec![0; n],
            weight,
            max_sc: 0,
            prev_max_sc: 0,
            rr_visit_count: 0,
            size_active: 0,
            round: 0,
            visit: None,
            largest_served: 0,
            trace: None,
            bonus: 1,
            carry_surplus: true,
            parked: vec![false; n],
            limbo: vec![false; n],
            park_epochs: 0,
        }
    }

    /// Overrides Eq. (2)'s "+1" term (ablation). `1` is the paper's
    /// discipline; `0` removes the per-round progress grant; larger
    /// values batch more service per visit.
    pub fn set_allowance_bonus(&mut self, bonus: u64) {
        self.bonus = bonus;
    }

    /// Enables/disables carrying surplus counts between rounds
    /// (ablation). Disabled, every visit gets `A_i = w_i (bonus + MaxSC)`
    /// with past overshoot forgiven — which re-introduces the
    /// long-packet bias ERR exists to remove.
    pub fn set_surplus_memory(&mut self, on: bool) {
        self.carry_surplus = on;
    }

    fn ensure(&mut self, flow: FlowId) {
        if flow >= self.sc.len() {
            self.sc.resize(flow + 1, 0);
            self.parked.resize(flow + 1, false);
            self.limbo.resize(flow + 1, false);
        }
    }

    /// Enables per-visit trace recording (see [`take_trace`]).
    ///
    /// [`take_trace`]: Self::take_trace
    pub fn set_trace(&mut self, on: bool) {
        self.trace = if on { Some(Vec::new()) } else { None };
    }

    /// Removes and returns the recorded visit trace.
    pub fn take_trace(&mut self) -> Vec<VisitRecord> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Whether `flow` is active: in the ActiveList, currently in
    /// service, or suspended mid-visit by parking. (The paper's
    /// `ExistsInActiveList` must see the in-service flow as present,
    /// otherwise a mid-service arrival would duplicate it in the list;
    /// the same holds for a flow whose visit is suspended.)
    pub fn is_active(&self, flow: FlowId) -> bool {
        self.active.contains(flow)
            || self.visit.is_some_and(|v| v.flow == flow)
            || self.is_suspended(flow)
    }

    /// Whether `flow` is currently parked.
    pub(crate) fn is_parked(&self, flow: FlowId) -> bool {
        self.parked.get(flow).copied().unwrap_or(false)
    }

    /// Whether `flow` has a visit suspended by [`park`](Self::park) and
    /// not yet resumed or forgotten.
    pub(crate) fn is_suspended(&self, flow: FlowId) -> bool {
        self.limbo.get(flow).copied().unwrap_or(false)
    }

    fn weight(&self, flow: FlowId) -> u64 {
        self.weight.get(flow).copied().unwrap_or(1)
    }

    /// The Enqueue routine: called when a packet arrives for `flow`.
    /// If the flow was inactive it joins the ActiveList tail with its
    /// surplus count reset; returns whether it was newly activated.
    /// Parked flows are never activated — their packets wait until
    /// [`unpark`](Self::unpark).
    pub fn activate(&mut self, flow: FlowId) -> bool {
        self.ensure(flow);
        if self.parked[flow] || self.is_active(flow) {
            return false;
        }
        self.active.push_back(flow);
        self.size_active += 1;
        self.sc[flow] = 0;
        true
    }

    /// Parks `flow`: removes it from the rotation (skipped by
    /// [`begin_visit`](Self::begin_visit)) while preserving its surplus
    /// count — parking is a downstream stall, not a deactivation, so
    /// the flow must neither forfeit its debt nor have it forgiven.
    /// Returns what the flow was doing; on [`Parked::Suspended`] the
    /// caller owns the open visit and must hand it back through
    /// `resume_visit` once the flow is unparked.
    pub fn park(&mut self, flow: FlowId) -> Parked {
        self.ensure(flow);
        debug_assert!(!self.parked[flow], "flow {flow} already parked");
        self.parked[flow] = true;
        self.park_epochs += 1;
        if self.visit.is_some_and(|v| v.flow == flow) {
            let v = self.visit.take().expect("just checked");
            self.limbo[flow] = true;
            self.size_active -= 1;
            self.rr_visit_count = self.rr_visit_count.saturating_sub(1);
            Parked::Suspended(v)
        } else if self.active.remove(flow) {
            self.size_active -= 1;
            self.rr_visit_count = self.rr_visit_count.saturating_sub(1);
            Parked::Dequeued
        } else {
            Parked::Idle
        }
    }

    /// Unparks `flow`. If it has backlog and no suspended visit it
    /// rejoins the ActiveList tail with its surplus count intact (unlike
    /// [`activate`](Self::activate), which resets it: the flow never
    /// went inactive, its link merely stalled). A flow with a suspended
    /// visit stays out of the list — it re-enters service through
    /// `resume_visit` instead.
    pub fn unpark(&mut self, flow: FlowId, has_backlog: bool) {
        self.ensure(flow);
        if !self.parked[flow] {
            return;
        }
        self.parked[flow] = false;
        if !self.limbo[flow] && has_backlog && !self.is_active(flow) {
            self.active.push_back(flow);
            self.size_active += 1;
        }
    }

    /// Restores a visit suspended by [`park`](Self::park): the flow
    /// re-enters service exactly where it left off (same allowance, same
    /// `Sent_i` so far). Panics if another visit is in progress or the
    /// flow is still parked.
    pub(crate) fn resume_visit(&mut self, v: Visit) {
        assert!(
            self.visit.is_none(),
            "cannot resume a visit while another is in progress"
        );
        assert!(
            !self.parked[v.flow],
            "flow {} must be unparked before its visit resumes",
            v.flow
        );
        debug_assert!(self.limbo[v.flow], "no suspended visit for flow {}", v.flow);
        self.limbo[v.flow] = false;
        self.size_active += 1;
        self.visit = Some(v);
    }

    /// Starts the next service opportunity: pops the ActiveList head and
    /// computes its allowance, rolling the round counters when a round
    /// boundary is reached. Returns `None` when no flow is active.
    ///
    /// Panics if a visit is already in progress.
    pub fn begin_visit(&mut self) -> Option<FlowId> {
        assert!(self.visit.is_none(), "visit already in progress");
        if self.active.is_empty() {
            return None;
        }
        if self.rr_visit_count == 0 {
            // Round boundary (Figure 1): the allowances of the new round
            // are computed against the previous round's MaxSC.
            self.prev_max_sc = self.max_sc;
            self.rr_visit_count = self.size_active;
            self.max_sc = 0;
            self.round += 1;
        }
        let flow = self.active.pop_front().expect("checked non-empty");
        // Eq. (2), weighted form: A_i = w_i * (1 + PreviousMaxSC) - SC_i.
        // With w_i = 1 this is exactly the paper's 1 + PreviousMaxSC - SC_i.
        let weight = self.weight(flow);
        let entitlement = weight * (self.bonus + self.prev_max_sc);
        // Parking shifts round boundaries and can preserve an SC across
        // rounds whose MaxSC has since shrunk, so the Lemma 1 relation
        // is only asserted on park-free histories (where it is exact).
        debug_assert!(
            self.sc[flow] <= self.prev_max_sc
                || weight > 1
                || self.bonus != 1
                || self.park_epochs > 0,
            "SC_i must not exceed PreviousMaxSC (Lemma 1 bookkeeping)"
        );
        let allowance = entitlement
            .saturating_sub(self.sc[flow])
            .max(self.bonus.min(1));
        self.visit = Some(Visit {
            flow,
            allowance,
            sent: 0,
        });
        Some(flow)
    }

    /// Charges `units` of service to the flow in service.
    pub fn charge(&mut self, units: u64) {
        let v = self.visit.as_mut().expect("no visit in progress");
        v.sent += units;
    }

    /// Packet-boundary decision. `pkt_units` is the total service the
    /// just-completed packet consumed (its length in flits, or its
    /// occupancy time); `queue_nonempty` is whether the flow still has
    /// packets waiting.
    ///
    /// Implements the do-while continuation test and, on visit end, the
    /// surplus/MaxSC/ActiveList bookkeeping of Figure 1.
    pub fn on_packet_complete(&mut self, pkt_units: u64, queue_nonempty: bool) -> VisitOutcome {
        let v = self.visit.expect("no visit in progress");
        self.largest_served = self.largest_served.max(pkt_units);
        if v.sent < v.allowance && queue_nonempty {
            return VisitOutcome::ContinueVisit;
        }
        // End of the service opportunity.
        let surplus = v.sent.saturating_sub(v.allowance);
        if surplus > self.max_sc {
            self.max_sc = surplus;
        }
        if queue_nonempty {
            self.sc[v.flow] = if self.carry_surplus { surplus } else { 0 };
            self.active.push_back(v.flow);
        } else {
            self.sc[v.flow] = 0;
            self.size_active -= 1;
        }
        // Saturating: a visit suspended by parking already forfeited its
        // round slot at park time; if it resumes and completes after the
        // round boundary there is no slot left to consume.
        self.rr_visit_count = self.rr_visit_count.saturating_sub(1);
        if let Some(t) = self.trace.as_mut() {
            t.push(VisitRecord {
                round: self.round,
                flow: v.flow,
                allowance: v.allowance,
                sent: v.sent,
                surplus,
                went_inactive: !queue_nonempty,
            });
        }
        self.visit = None;
        VisitOutcome::VisitEnded
    }

    /// Clears every trace of `flow` after its residue has been
    /// extracted (DESIGN.md §9.4): parked/limbo flags and surplus
    /// count. The flow must be parked — [`park`](Self::park) already
    /// removed it from the rotation and adjusted `size_active`, so only
    /// flags and debt remain to clear.
    pub fn forget(&mut self, flow: FlowId) {
        self.ensure(flow);
        debug_assert!(self.parked[flow], "forget requires a parked flow");
        debug_assert!(
            !self.active.contains(flow),
            "a parked flow cannot be in the ActiveList"
        );
        self.parked[flow] = false;
        self.limbo[flow] = false;
        self.sc[flow] = 0;
    }

    /// The visit in progress, if any.
    pub fn visit(&self) -> Option<Visit> {
        self.visit
    }

    /// Current surplus count `SC_i` of `flow`.
    pub fn surplus_count(&self, flow: FlowId) -> u64 {
        self.sc.get(flow).copied().unwrap_or(0)
    }

    /// `MaxSC` accumulated so far in the current round.
    pub fn max_sc(&self) -> u64 {
        self.max_sc
    }

    /// 1-based number of the round in progress (0 before any service).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The paper's `m`: the largest packet (in units) served to
    /// completion so far.
    pub fn largest_served(&self) -> u64 {
        self.largest_served
    }
}

/// A visit (and possibly a packet mid-wormhole) frozen by
/// [`ErrScheduler::park_flow`], waiting to be resumed. Only a flow
/// parked mid-visit has one.
#[derive(Clone, Debug)]
struct SuspendedVisit {
    /// The interrupted packet's remaining flits, if the park hit
    /// mid-packet (`None` when it hit a packet boundary within the
    /// visit).
    stream: Option<FlitStream>,
    visit: Visit,
}

/// Flit-clocked ERR: the [`Scheduler`] front-end over [`ErrCore`] used in
/// the paper's single-link simulations, where one unit of service is one
/// flit and packets are served without interleaving. It is also the
/// scheduler every `err-runtime` shard owns.
///
/// # Flow parking
///
/// Wormhole downstreams stall: a credit-starved egress link cannot
/// accept flits for an unpredictable time, and a driver that kept
/// serving a starved flow would have to buffer its output unboundedly
/// or block its whole flit clock (the coupling the paper argues
/// against). [`park_flow`] tells the scheduler to *skip* a flow —
/// serve everyone else — until [`unpark_flow`]. Parking is
/// position-preserving: the flow keeps its surplus count, and a packet
/// interrupted mid-wormhole resumes before the flow starts another, so
/// a stall costs the flow no fairness beyond the stall itself.
/// A forced abort builds on it: [`extract_flow`] cuts a parked flow's
/// residue out of the scheduler, to be counted lost (DESIGN.md §9.4).
///
/// [`park_flow`]: Self::park_flow
/// [`unpark_flow`]: Self::unpark_flow
/// [`extract_flow`]: Self::extract_flow
#[derive(Clone, Debug)]
pub struct ErrScheduler {
    core: ErrCore,
    queues: FlowQueues,
    in_flight: Option<FlitStream>,
    /// The suspended visits of the flows parked mid-service, and of
    /// no others: an entry exists exactly while the core's `limbo` flag
    /// is set for its flow, and is looked up only then.
    suspended: HashMap<FlowId, SuspendedVisit>,
    /// Unparked flows whose suspended visit must resume before any new
    /// visit begins: a packet interrupted mid-wormhole finishes ahead of
    /// any other packet its egress link could see.
    resume_queue: VecDeque<FlowId>,
    /// Flits held inside suspended streams (kept so `backlog_flits`
    /// stays O(1)).
    suspended_flits: u64,
}

impl ErrScheduler {
    /// Creates an ERR scheduler for `n_flows` flows.
    pub fn new(n_flows: usize) -> Self {
        Self::from_core(ErrCore::new(n_flows), n_flows)
    }

    /// Creates a scheduler around a pre-configured core (weighted or
    /// ablated variants).
    pub fn with_core(core: ErrCore, n_flows: usize) -> Self {
        Self::from_core(core, n_flows)
    }

    pub(crate) fn from_core(core: ErrCore, n_flows: usize) -> Self {
        Self {
            core,
            queues: FlowQueues::new(n_flows),
            in_flight: None,
            suspended: HashMap::new(),
            resume_queue: VecDeque::new(),
            suspended_flits: 0,
        }
    }

    /// Read access to the decision engine, for instrumentation.
    pub fn core(&self) -> &ErrCore {
        &self.core
    }

    /// Mutable access to the decision engine (e.g. to enable tracing).
    pub fn core_mut(&mut self) -> &mut ErrCore {
        &mut self.core
    }

    /// The flow whose packet the next flit belongs to — the packet in
    /// flight, the visit in progress, the first suspended visit due, or
    /// the ActiveList head — found without starting anything. Drops the
    /// resume entries of flows re-parked before they could resume; their
    /// next unpark queues them again.
    fn next_flow(&mut self) -> Option<FlowId> {
        if let Some(s) = &self.in_flight {
            return Some(s.packet().flow);
        }
        if let Some(v) = self.core.visit() {
            return Some(v.flow);
        }
        while let Some(&flow) = self.resume_queue.front() {
            if !self.core.is_parked(flow) {
                return Some(flow);
            }
            self.resume_queue.pop_front();
        }
        // The flow `begin_visit` pops.
        self.core.active.front()
    }

    /// Serves one run: up to `limit(flow)` flits of the next packet,
    /// `flow` being the flow it belongs to, never past its tail. The
    /// packet is loaded (a visit begun or resumed) only if `limit` allows
    /// a flit, the run is charged to the visit at once, and a run that
    /// ends the packet makes the packet-boundary decision. The flits are
    /// those the same number of [`service_flit`](Scheduler::service_flit)
    /// calls would return.
    ///
    /// Returns `None`, having changed nothing, when nothing can be served
    /// (idle, or every backlogged flow parked) or `limit` is 0.
    pub fn service_run(&mut self, limit: impl FnOnce(FlowId) -> u32) -> Option<FlitRun> {
        let flow = self.next_flow()?;
        let n = limit(flow);
        if n == 0 {
            return None;
        }
        if self.in_flight.is_none() {
            self.load_packet();
        }
        let stream = self.in_flight.as_mut().expect("just loaded");
        debug_assert_eq!(stream.packet().flow, flow);
        let run = stream.take(n);
        self.core.charge(u64::from(run.count));
        if run.ends_packet() {
            self.in_flight = None;
            let nonempty = !self.queues.is_empty(flow);
            self.core
                .on_packet_complete(u64::from(run.packet.len), nonempty);
        }
        Some(run)
    }

    /// Starts the packet of the flow [`next_flow`](Self::next_flow)
    /// found: resuming a suspended visit if one is due, else continuing
    /// the current visit, else beginning a new one.
    fn load_packet(&mut self) {
        debug_assert!(self.in_flight.is_none());
        // Unparked suspended visits take priority over everything else:
        // a packet interrupted mid-wormhole must finish before any flow
        // sharing its egress link starts a new packet, and the simplest
        // sound rule is "before any new visit at all".
        if self.core.visit().is_none() {
            if let Some(flow) = self.resume_queue.pop_front() {
                let s = self
                    .suspended
                    .remove(&flow)
                    .expect("resume_queue entries have a suspended visit");
                self.core.resume_visit(s.visit);
                if let Some(stream) = s.stream {
                    self.suspended_flits -= stream.remaining() as u64;
                    self.in_flight = Some(stream);
                    return;
                }
                // Suspended at a packet boundary: the restored visit
                // continues below by popping the flow's next packet.
            }
        }
        let flow = match self.core.visit() {
            // Mid-visit: the previous on_packet_complete said Continue,
            // which guarantees the queue is non-empty.
            Some(v) => v.flow,
            None => self.core.begin_visit().expect("next_flow found a flow"),
        };
        let pkt = self
            .queues
            .pop(flow)
            .expect("a flow in the ActiveList has at least one packet");
        self.in_flight = Some(FlitStream::new(pkt));
    }
}

impl Scheduler for ErrScheduler {
    fn enqueue(&mut self, pkt: Packet, _now: Cycle) {
        self.core.activate(pkt.flow);
        self.queues.push(pkt);
    }

    fn service_flit(&mut self, _now: Cycle) -> Option<ServedFlit> {
        let run = self.service_run(|_| 1)?;
        Some(ServedFlit::of(&run.packet, run.first))
    }

    /// Run by run: one packet-boundary check and one charge per run, not
    /// per flit.
    fn service_batch(&mut self, _now: Cycle, max_flits: usize, out: &mut Vec<ServedFlit>) -> usize {
        let mut served = 0;
        while served < max_flits {
            let left = u32::try_from(max_flits - served).unwrap_or(u32::MAX);
            let Some(run) = self.service_run(|_| left) else {
                break;
            };
            out.extend(run.flits());
            served += run.count as usize;
        }
        served
    }

    fn backlog_flits(&self) -> u64 {
        self.queues.backlog_flits()
            + self.in_flight.as_ref().map_or(0, |s| s.remaining() as u64)
            + self.suspended_flits
    }

    fn name(&self) -> &'static str {
        "ERR"
    }
}

impl ErrScheduler {
    /// Parks `flow`: its flits are skipped by service until
    /// [`unpark_flow`](Self::unpark_flow), without losing the flow's
    /// scheduling position or fairness state. Packets of a parked flow
    /// may still be enqueued; they wait. Parking an already-parked flow
    /// is a no-op. Returns `true`: the flow is parked afterwards.
    pub fn park_flow(&mut self, flow: FlowId) -> bool {
        if self.core.is_parked(flow) {
            return true;
        }
        match self.core.park(flow) {
            Parked::Suspended(v) => {
                // The in-flight stream, if any, belongs to the suspended
                // visit (`load_packet` only ever loads the visiting
                // flow's packets).
                let stream = self.in_flight.take();
                debug_assert!(stream.as_ref().is_none_or(|s| s.packet().flow == flow));
                if let Some(s) = &stream {
                    self.suspended_flits += s.remaining() as u64;
                }
                self.suspended
                    .insert(flow, SuspendedVisit { stream, visit: v });
            }
            Parked::Dequeued | Parked::Idle => {}
        }
        true
    }

    /// Unparks `flow`, making its backlog eligible for service again.
    /// A no-op for flows that are not parked.
    pub fn unpark_flow(&mut self, flow: FlowId) {
        if !self.core.is_parked(flow) {
            return;
        }
        if self.core.is_suspended(flow) {
            self.core.unpark(flow, false);
            if !self.resume_queue.contains(&flow) {
                self.resume_queue.push_back(flow);
            }
        } else {
            self.core.unpark(flow, !self.queues.is_empty(flow));
        }
    }

    /// Flits currently backlogged for `flow` alone (queued packets plus
    /// the unsent remainder of a packet in service or suspended). O(1);
    /// only a flow with a suspended visit costs a lookup.
    pub fn flow_backlog_flits(&self, flow: FlowId) -> u64 {
        let mut flits = self.queues.flow_flits(flow);
        if let Some(s) = self.in_flight.as_ref() {
            if s.packet().flow == flow {
                flits += s.remaining() as u64;
            }
        }
        if self.core.is_suspended(flow) {
            if let Some(st) = self.suspended.get(&flow).and_then(|sv| sv.stream.as_ref()) {
                flits += st.remaining() as u64;
            }
        }
        flits
    }

    /// Removes `flow`'s entire scheduler-side state — FIFO queue,
    /// surplus count, suspended visit — leaving the flow blank
    /// (unparked, no debt) here, and returns what the forced-abort
    /// sweep counts lost (DESIGN.md §9.4).
    ///
    /// The flow must be parked; `None` if it is not.
    pub fn extract_flow(&mut self, flow: FlowId) -> Option<FlowResidue> {
        if !self.core.is_parked(flow) {
            // Contract violation (the sweep parks first); refuse rather
            // than tear live state.
            return None;
        }
        debug_assert!(
            self.in_flight
                .as_ref()
                .is_none_or(|s| s.packet().flow != flow),
            "a parked flow cannot be in flight"
        );
        let suspended = if self.core.is_suspended(flow) {
            self.suspended.remove(&flow)
        } else {
            None
        };
        let interrupted = suspended.and_then(|sv| sv.stream).map(|st| {
            self.suspended_flits -= st.remaining() as u64;
            (*st.packet(), st.position())
        });
        // If the flow was unparked and re-parked before resuming, it may
        // still sit in the resume queue; it no longer lives here.
        self.resume_queue.retain(|&f| f != flow);
        let packets = self.queues.take(flow);
        self.core.forget(flow);
        Some(FlowResidue {
            packets,
            interrupted,
        })
    }
}

/// A flow's residue, cut out of a scheduler by
/// [`ErrScheduler::extract_flow`].
#[derive(Clone, Debug)]
pub struct FlowResidue {
    /// The flow's waiting packets, in FIFO order (head first). Does not
    /// include the interrupted packet.
    pub packets: VecDeque<Packet>,
    /// The packet a park interrupted mid-wormhole, with the 0-based
    /// index of the flit it would emit next (`< packet.len`).
    pub interrupted: Option<(Packet, u32)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, flow: FlowId, len: u32) -> Packet {
        Packet::new(id, flow, len, 0)
    }

    /// Drain everything, returning the sequence of served flits.
    fn drain(s: &mut ErrScheduler) -> Vec<ServedFlit> {
        let mut out = Vec::new();
        let mut now = 0;
        while let Some(f) = s.service_flit(now) {
            out.push(f);
            now += 1;
        }
        out
    }

    #[test]
    fn figure3_reconstruction() {
        // Paper Figure 3: three backlogged flows; round-1 allowances are
        // all 1 (SCs and MaxSC start at 0). First packets are 32, 24, 12
        // flits, so round-1 surpluses are 31, 23, 11 and MaxSC = 31;
        // round-2 allowances are therefore 1, 9, 21 (Eq. 2).
        let mut s = ErrScheduler::new(3);
        s.core_mut().set_trace(true);
        // Two packets per flow so everyone stays active through round 2.
        s.enqueue(pkt(0, 0, 32), 0);
        s.enqueue(pkt(1, 0, 8), 0);
        s.enqueue(pkt(2, 1, 24), 0);
        s.enqueue(pkt(3, 1, 16), 0);
        s.enqueue(pkt(4, 2, 12), 0);
        s.enqueue(pkt(5, 2, 20), 0);
        drain(&mut s);
        let trace = s.core_mut().take_trace();

        // Round 1.
        assert_eq!(trace[0].round, 1);
        assert_eq!(
            (
                trace[0].flow,
                trace[0].allowance,
                trace[0].sent,
                trace[0].surplus
            ),
            (0, 1, 32, 31)
        );
        assert_eq!(
            (
                trace[1].flow,
                trace[1].allowance,
                trace[1].sent,
                trace[1].surplus
            ),
            (1, 1, 24, 23)
        );
        assert_eq!(
            (
                trace[2].flow,
                trace[2].allowance,
                trace[2].sent,
                trace[2].surplus
            ),
            (2, 1, 12, 11)
        );
        // Round 2 allowances follow Eq. 2 with MaxSC(1) = 31.
        assert_eq!(trace[3].round, 2);
        assert_eq!((trace[3].flow, trace[3].allowance), (0, 1));
        assert_eq!((trace[4].flow, trace[4].allowance), (1, 9));
        assert_eq!((trace[5].flow, trace[5].allowance), (2, 21));
    }

    #[test]
    fn elastic_overshoot_single_packet() {
        // Allowance 1 but the head packet is 10 flits: ERR must serve the
        // whole packet (elastic), recording surplus 9.
        let mut s = ErrScheduler::new(1);
        s.core_mut().set_trace(true);
        s.enqueue(pkt(0, 0, 10), 0);
        let flits = drain(&mut s);
        assert_eq!(flits.len(), 10);
        let t = s.core_mut().take_trace();
        assert_eq!(t[0].allowance, 1);
        assert_eq!(t[0].sent, 10);
        assert_eq!(t[0].surplus, 9);
        // Queue emptied, so SC is reset (Figure 1's else branch).
        assert!(t[0].went_inactive);
        assert_eq!(s.core().surplus_count(0), 0);
    }

    #[test]
    fn continues_packets_until_allowance_met() {
        // Give flow 0 a large previous-round MaxSC so its round-2
        // allowance is big, then check it sends several small packets in
        // one visit.
        let mut s = ErrScheduler::new(2);
        s.core_mut().set_trace(true);
        // Round 1: flow 0 sends a 1-flit packet (surplus 0); flow 1 sends
        // a 21-flit packet (surplus 20, becomes MaxSC).
        s.enqueue(pkt(0, 0, 1), 0);
        s.enqueue(pkt(1, 1, 21), 0);
        // Round 2 backlog: flow 0 has five 4-flit packets; allowance will
        // be 1 + 20 - 0 = 21, so it sends ceil stops after 24 flits? No:
        // it keeps starting packets while sent < 21: 4,8,12,16,20 then a
        // sixth packet would start at sent=20 < 21 → 24 total.
        for i in 0..6 {
            s.enqueue(pkt(10 + i, 0, 4), 0);
        }
        s.enqueue(pkt(30, 1, 1), 0);
        drain(&mut s);
        let t = s.core_mut().take_trace();
        // Find flow 0's round-2 visit.
        let v = t.iter().find(|r| r.round == 2 && r.flow == 0).unwrap();
        assert_eq!(v.allowance, 21);
        assert_eq!(
            v.sent, 24,
            "six 4-flit packets: last starts at sent=20 < 21"
        );
        assert_eq!(v.surplus, 3);
    }

    #[test]
    fn never_interleaves_packets() {
        let mut s = ErrScheduler::new(3);
        for f in 0..3usize {
            for k in 0..5u64 {
                s.enqueue(pkt(f as u64 * 10 + k, f, 3 + k as u32), 0);
            }
        }
        let flits = drain(&mut s);
        let mut current: Option<(u64, u32)> = None;
        for fl in &flits {
            match current {
                None => {
                    assert!(fl.is_head(), "packet must start with head flit");
                    if !fl.is_tail() {
                        current = Some((fl.packet, fl.flit_index));
                    }
                }
                Some((pid, idx)) => {
                    assert_eq!(fl.packet, pid, "wormhole constraint violated");
                    assert_eq!(fl.flit_index, idx + 1, "flits out of order");
                    if fl.is_tail() {
                        current = None;
                    } else {
                        current = Some((pid, fl.flit_index));
                    }
                }
            }
        }
        assert!(current.is_none(), "last packet incomplete");
    }

    #[test]
    fn work_conserving_and_conserves_flits() {
        let mut s = ErrScheduler::new(4);
        let mut total = 0u64;
        for f in 0..4usize {
            for k in 0..10u64 {
                let len = 1 + ((f as u64 + k) % 7) as u32;
                total += len as u64;
                s.enqueue(pkt(f as u64 * 100 + k, f, len), 0);
            }
        }
        assert_eq!(s.backlog_flits(), total);
        let flits = drain(&mut s);
        assert_eq!(flits.len() as u64, total);
        assert!(s.is_idle());
        assert_eq!(s.backlog_flits(), 0);
    }

    #[test]
    fn per_flow_fifo_order() {
        let mut s = ErrScheduler::new(2);
        for k in 0..20u64 {
            s.enqueue(pkt(k, (k % 2) as usize, 1 + (k % 3) as u32), 0);
        }
        let flits = drain(&mut s);
        for f in 0..2usize {
            let pids: Vec<u64> = flits
                .iter()
                .filter(|x| x.flow == f && x.is_head())
                .map(|x| x.packet)
                .collect();
            let mut sorted = pids.clone();
            sorted.sort_unstable();
            assert_eq!(pids, sorted, "flow {f} packets served out of order");
        }
    }

    #[test]
    fn flow_arriving_mid_round_waits_for_next_round() {
        // Paper Figure 2: D becomes active during round 1 and is not
        // visited until round 2.
        let mut s = ErrScheduler::new(4);
        s.core_mut().set_trace(true);
        // A, B, C active with 4-flit packets (two each so they stay busy).
        for f in 0..3usize {
            s.enqueue(pkt(f as u64, f, 4), 0);
            s.enqueue(pkt(10 + f as u64, f, 4), 0);
        }
        // Serve 2 flits of A's first packet, then D arrives.
        let mut now = 0;
        for _ in 0..2 {
            s.service_flit(now);
            now += 1;
        }
        s.enqueue(pkt(99, 3, 4), now);
        drain(&mut s);
        let t = s.core_mut().take_trace();
        let d_visit = t.iter().find(|r| r.flow == 3).unwrap();
        assert_eq!(d_visit.round, 2, "flow D must first be served in round 2");
        // Rounds 1 visits are exactly A, B, C.
        let r1: Vec<_> = t.iter().filter(|r| r.round == 1).map(|r| r.flow).collect();
        assert_eq!(r1, vec![0, 1, 2]);
    }

    #[test]
    fn lemma1_surplus_bounds_hold_on_random_traffic() {
        use desim::SimRng;
        // 0 <= SC_i(r) <= m - 1 after every visit.
        let mut rng = SimRng::new(99);
        let mut s = ErrScheduler::new(5);
        let mut next_id = 0u64;
        let mut m_seen = 0u64;
        for now in 0..20_000u64 {
            if rng.bernoulli(0.3) {
                let f = rng.index(5);
                let len = rng.uniform_u32(1, 40);
                s.enqueue(Packet::new(next_id, f, len, now), now);
                next_id += 1;
            }
            if let Some(fl) = s.service_flit(now) {
                if fl.is_tail() {
                    m_seen = m_seen.max(fl.len as u64);
                    // Lemma 1 check after each completed packet.
                    for f in 0..5 {
                        let sc = s.core().surplus_count(f);
                        assert!(
                            m_seen == 0 || sc < m_seen,
                            "cycle {now}: SC_{f} = {sc} exceeds m-1 = {}",
                            m_seen - 1
                        );
                    }
                    assert!(
                        m_seen == 0 || s.core().max_sc() < m_seen,
                        "Corollary 1 violated"
                    );
                }
            }
        }
        assert_eq!(s.core().largest_served(), m_seen);
    }

    #[test]
    fn allowance_is_at_least_one() {
        // The flow with the largest surplus gets allowance exactly 1
        // ("the scheduler will transmit at least one packet from this
        // flow during the next round").
        let mut s = ErrScheduler::new(2);
        s.core_mut().set_trace(true);
        s.enqueue(pkt(0, 0, 50), 0);
        s.enqueue(pkt(1, 0, 5), 0);
        s.enqueue(pkt(2, 1, 2), 0);
        s.enqueue(pkt(3, 1, 2), 0);
        drain(&mut s);
        let t = s.core_mut().take_trace();
        for r in &t {
            assert!(r.allowance >= 1, "allowance must be >= 1: {r:?}");
        }
        // Flow 0 had surplus 49 in round 1 (MaxSC); its round-2 allowance
        // is exactly 1.
        let v = t.iter().find(|r| r.round == 2 && r.flow == 0).unwrap();
        assert_eq!(v.allowance, 1);
    }

    #[test]
    fn idle_then_reactivation_works() {
        let mut s = ErrScheduler::new(2);
        s.enqueue(pkt(0, 0, 3), 0);
        assert_eq!(drain(&mut s).len(), 3);
        assert!(s.service_flit(10).is_none());
        s.enqueue(pkt(1, 1, 2), 20);
        s.enqueue(pkt(2, 0, 2), 20);
        let flits = drain(&mut s);
        assert_eq!(flits.len(), 4);
        assert!(s.is_idle());
    }

    #[test]
    fn max_sc_persists_across_idle_periods_like_the_pseudocode() {
        // Figure 1 never resets MaxSC/PreviousMaxSC when the system goes
        // idle; the first flow of a new busy period therefore inherits an
        // allowance of 1 + MaxSC(last busy round). This is faithful to
        // the paper (Initialize runs once) and harmless for fairness —
        // every newly active flow gets the same inflated allowance.
        let mut s = ErrScheduler::new(2);
        s.core_mut().set_trace(true);
        // Busy period 1: flow 0 sends a 9-flit packet against allowance 1
        // (surplus 8), then everything drains.
        s.enqueue(pkt(0, 0, 9), 0);
        drain(&mut s);
        assert_eq!(s.core().max_sc(), 8, "MaxSC kept after idle");
        // Busy period 2: the first visit's allowance reflects it.
        s.enqueue(pkt(1, 1, 2), 100);
        s.enqueue(pkt(2, 1, 2), 100);
        drain(&mut s);
        let t = s.core_mut().take_trace();
        let first_visit_p2 = t.iter().find(|r| r.flow == 1).unwrap();
        assert_eq!(first_visit_p2.allowance, 1 + 8);
    }

    #[test]
    fn active_flow_count_tracks_population() {
        let mut s = ErrScheduler::new(3);
        assert_eq!(s.core().size_active, 0);
        s.enqueue(pkt(0, 0, 2), 0);
        s.enqueue(pkt(1, 2, 2), 0);
        assert_eq!(s.core().size_active, 2);
        drain(&mut s);
        assert_eq!(s.core().size_active, 0);
    }

    #[test]
    fn ablated_surplus_memory_biases_long_packet_flows() {
        // With surplus carrying disabled, overshoot is forgiven each
        // round and the long-packet flow regains a PBRR-like advantage.
        let share_of_flow1 = |carry: bool| -> f64 {
            let mut core = ErrCore::new(2);
            core.set_surplus_memory(carry);
            let mut s = ErrScheduler::with_core(core, 2);
            for k in 0..3000u64 {
                s.enqueue(pkt(2 * k, 0, 2), 0);
                s.enqueue(pkt(2 * k + 1, 1, 8), 0);
            }
            let mut f1 = 0u64;
            for now in 0..8000u64 {
                if s.service_flit(now).is_some_and(|f| f.flow == 1) {
                    f1 += 1;
                }
            }
            f1 as f64 / 8000.0
        };
        let faithful = share_of_flow1(true);
        let ablated = share_of_flow1(false);
        assert!((faithful - 0.5).abs() < 0.02, "ERR share {faithful}");
        assert!(ablated > 0.6, "ablated share {ablated} should be biased");
    }

    #[test]
    fn ablated_zero_bonus_still_drains() {
        let mut core = ErrCore::new(2);
        core.set_allowance_bonus(0);
        let mut s = ErrScheduler::with_core(core, 2);
        for k in 0..40u64 {
            s.enqueue(pkt(k, (k % 2) as usize, 1 + (k % 6) as u32), 0);
        }
        let flits = drain(&mut s);
        let expect: u64 = (0..40u64).map(|k| 1 + (k % 6)).sum();
        assert_eq!(flits.len() as u64, expect);
    }

    #[test]
    fn parked_flow_is_skipped_and_resumes_mid_packet() {
        let mut s = ErrScheduler::new(2);
        s.enqueue(pkt(0, 0, 6), 0);
        s.enqueue(pkt(1, 1, 4), 0);
        // Serve two flits — flow 0's packet is now mid-wormhole.
        let a = s.service_flit(0).unwrap();
        let b = s.service_flit(1).unwrap();
        assert_eq!((a.flow, b.flow), (0, 0));
        assert!(s.park_flow(0));
        // Only flow 1 is served while 0 is parked.
        let mut now = 2;
        let mut f1 = 0;
        while let Some(f) = s.service_flit(now) {
            assert_eq!(f.flow, 1, "parked flow must not be served");
            f1 += 1;
            now += 1;
        }
        assert_eq!(f1, 4);
        assert_eq!(s.backlog_flits(), 4, "suspended flits still backlogged");
        assert!(!s.is_idle());
        // Unparked: the interrupted packet finishes first, in flit order.
        s.unpark_flow(0);
        let rest: Vec<_> = std::iter::from_fn(|| {
            now += 1;
            s.service_flit(now)
        })
        .collect();
        assert_eq!(rest.len(), 4);
        assert!(rest.iter().all(|f| f.flow == 0 && f.packet == 0));
        assert_eq!(
            rest.iter().map(|f| f.flit_index).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        assert!(s.is_idle());
    }

    #[test]
    fn all_flows_parked_goes_quiet_not_lossy() {
        let mut s = ErrScheduler::new(2);
        s.enqueue(pkt(0, 0, 3), 0);
        s.enqueue(pkt(1, 1, 2), 0);
        assert!(s.park_flow(0));
        assert!(s.park_flow(1));
        assert!(s.service_flit(0).is_none(), "everything parked");
        assert_eq!(s.backlog_flits(), 5);
        // Packets arriving for a parked flow wait without activating it.
        s.enqueue(pkt(2, 0, 1), 1);
        assert!(s.service_flit(1).is_none());
        s.unpark_flow(0);
        s.unpark_flow(1);
        assert_eq!(drain(&mut s).len(), 6);
        assert!(s.is_idle());
    }

    #[test]
    fn park_preserves_surplus_count() {
        // Flow 0 earns a large surplus, then gets parked while waiting in
        // the ActiveList; its SC must survive the park/unpark cycle (a
        // stall is not a deactivation — the debt is neither forfeited
        // nor forgiven).
        let mut s = ErrScheduler::new(2);
        s.enqueue(pkt(0, 0, 10), 0);
        s.enqueue(pkt(1, 0, 1), 0);
        s.enqueue(pkt(2, 1, 1), 0);
        s.enqueue(pkt(3, 1, 1), 0);
        // Round 1, flow 0's visit: allowance 1, sends 10, surplus 9.
        for now in 0..10 {
            assert_eq!(s.service_flit(now).unwrap().flow, 0);
        }
        assert_eq!(s.core().surplus_count(0), 9);
        assert!(s.park_flow(0));
        assert_eq!(s.core().surplus_count(0), 9);
        s.unpark_flow(0);
        assert_eq!(s.core().surplus_count(0), 9, "SC must survive parking");
        drain(&mut s);
    }

    #[test]
    fn park_unpark_of_idle_flow_defers_activation() {
        let mut s = ErrScheduler::new(2);
        assert!(s.park_flow(0));
        s.enqueue(pkt(0, 0, 2), 0);
        assert!(s.service_flit(0).is_none());
        s.unpark_flow(0);
        assert_eq!(drain(&mut s).len(), 2);
    }

    #[test]
    fn double_park_and_stray_unpark_are_noops() {
        let mut s = ErrScheduler::new(2);
        s.enqueue(pkt(0, 0, 2), 0);
        assert!(s.park_flow(0));
        assert!(s.park_flow(0));
        s.unpark_flow(1); // never parked
        s.unpark_flow(0);
        s.unpark_flow(0);
        assert_eq!(drain(&mut s).len(), 2);
    }

    #[test]
    fn repark_while_awaiting_resume_keeps_packet_intact() {
        let mut s = ErrScheduler::new(2);
        s.enqueue(pkt(0, 0, 5), 0);
        s.enqueue(pkt(1, 1, 3), 0);
        s.service_flit(0); // flow 0 mid-packet
        s.park_flow(0);
        s.unpark_flow(0); // queued for resume...
        s.park_flow(0); // ...but re-parked before it could
        let mut served = Vec::new();
        let mut now = 1;
        while let Some(f) = s.service_flit(now) {
            served.push(f.flow);
            now += 1;
        }
        assert_eq!(served, vec![1, 1, 1], "only flow 1 may run");
        s.unpark_flow(0);
        let rest = drain(&mut s);
        assert_eq!(rest.len(), 4);
        assert!(rest.iter().all(|f| f.packet == 0));
        assert_eq!(
            rest.iter().map(|f| f.flit_index).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn mid_service_arrival_does_not_duplicate_flow() {
        let mut s = ErrScheduler::new(2);
        s.enqueue(pkt(0, 0, 4), 0);
        s.enqueue(pkt(1, 1, 4), 0);
        // Serve one flit of flow 0's packet, then more packets arrive for
        // flow 0 while it is in service (not in the ActiveList).
        s.service_flit(0);
        s.enqueue(pkt(2, 0, 4), 1);
        s.enqueue(pkt(3, 0, 4), 1);
        let flits = drain(&mut s);
        // 3 + 4 + 4 + 4 = 15 remaining flits, 16 total.
        assert_eq!(flits.len() + 1, 16);
        assert_eq!(s.core().size_active, 0);
        // Every packet served exactly once (no duplication).
        let mut heads: Vec<u64> = flits
            .iter()
            .filter(|f| f.is_head())
            .map(|f| f.packet)
            .collect();
        heads.sort_unstable();
        assert_eq!(heads, vec![1, 2, 3]);
    }

    #[test]
    fn extract_requires_parked_flow() {
        let mut s = ErrScheduler::new(2);
        s.enqueue(pkt(0, 0, 3), 0);
        assert!(s.extract_flow(0).is_none(), "live flow must not extract");
        assert!(s.park_flow(0));
        assert!(s.extract_flow(0).is_some());
    }

    #[test]
    fn extract_after_repark_clears_resume_queue() {
        // Park mid-packet, unpark (queued for resume), re-park, extract:
        // the interrupted packet must come out with the flow and the
        // scheduler's resume queue must not retain a stale entry.
        let mut s = ErrScheduler::new(2);
        s.enqueue(pkt(0, 0, 4), 0);
        s.enqueue(pkt(1, 1, 2), 0);
        s.service_flit(0);
        s.park_flow(0);
        s.unpark_flow(0);
        s.park_flow(0);
        let residue = s.extract_flow(0).unwrap();
        let (packet, next_flit) = residue.interrupted.unwrap();
        assert_eq!((packet.id, next_flit), (0, 1));
        let rest = drain(&mut s);
        assert!(rest.iter().all(|f| f.flow == 1), "no stale resume entry");
        assert!(s.is_idle());
    }

    /// Exact per-flow expectations for the parking-at-scale test.
    struct ScaleModel {
        /// Flits each flow has backlogged (queued, in flight or
        /// suspended).
        backlog: Vec<u64>,
        /// Per flow: the interrupted packet and the flit it owes next.
        open: HashMap<FlowId, (u64, u32)>,
        /// Per flow: the last packet it started.
        last: Vec<Option<u64>>,
    }

    impl ScaleModel {
        fn served(&mut self, s: &ErrScheduler, f: ServedFlit) {
            assert!(!s.core().is_parked(f.flow), "served parked flow {}", f.flow);
            if let Some(&(pid, next)) = self.open.get(&f.flow) {
                assert_eq!(
                    (f.packet, f.flit_index),
                    (pid, next),
                    "flow {} must finish its interrupted packet first",
                    f.flow
                );
                if f.is_tail() {
                    self.open.remove(&f.flow);
                } else {
                    self.open.insert(f.flow, (pid, next + 1));
                }
            } else if f.is_head() {
                assert!(self.last[f.flow].is_none_or(|p| f.packet > p), "FIFO");
                self.last[f.flow] = Some(f.packet);
            }
            self.backlog[f.flow] -= 1;
        }

        fn check(&self, s: &ErrScheduler, flows: impl IntoIterator<Item = FlowId>) {
            for flow in flows {
                assert_eq!(
                    s.flow_backlog_flits(flow),
                    self.backlog[flow],
                    "flow_backlog_flits({flow})"
                );
            }
            assert_eq!(s.backlog_flits(), self.backlog.iter().sum::<u64>());
        }
    }

    #[test]
    fn suspended_visits_at_scale_resume_exactly() {
        use desim::SimRng;
        const FLOWS: usize = 10_000;
        const PARKED: usize = 1_000;
        const EXTRACTED: usize = 100;
        let mut rng = SimRng::new(47);
        let mut s = ErrScheduler::new(FLOWS);
        let mut m = ScaleModel {
            backlog: vec![0; FLOWS],
            open: HashMap::new(),
            last: vec![None; FLOWS],
        };
        let mut id = 0u64;
        let mut enqueue = |s: &mut ErrScheduler, m: &mut ScaleModel, flow, len| {
            s.enqueue(pkt(id, flow, len), 0);
            m.backlog[flow] += u64::from(len);
            id += 1;
        };
        for flow in 0..FLOWS {
            enqueue(&mut s, &mut m, flow, rng.uniform_u32(2, 9));
        }
        // Serve runs of 1-8 flits; a run that stops mid-packet parks its
        // flow there, until 1 000 flows are suspended mid-packet.
        let mut parked = Vec::new();
        while parked.len() < PARKED {
            let k = rng.uniform_u32(1, 8);
            let run = s.service_run(|_| k).expect("backlog left");
            for f in run.flits() {
                m.served(&s, f);
            }
            if !run.ends_packet() {
                let flow = run.packet.flow;
                m.open.insert(flow, (run.packet.id, run.first + run.count));
                assert!(s.park_flow(flow));
                parked.push(flow);
            }
        }
        // More packets behind the suspended ones, and on other flows.
        for &flow in &parked {
            for _ in 0..rng.uniform_u32(1, 2) {
                enqueue(&mut s, &mut m, flow, rng.uniform_u32(1, 9));
            }
        }
        for _ in 0..PARKED {
            enqueue(&mut s, &mut m, rng.index(FLOWS), rng.uniform_u32(1, 9));
        }
        m.check(&s, 0..FLOWS);
        // Shuffled order; the first 100 are extracted while suspended.
        for i in (1..parked.len()).rev() {
            parked.swap(i, rng.index(i + 1));
        }
        for &flow in &parked[..EXTRACTED] {
            let residue = s.extract_flow(flow).expect("parked");
            let (packet, next) = residue.interrupted.expect("suspended mid-packet");
            assert_eq!(Some(&(packet.id, next)), m.open.get(&flow));
            let queued: u64 = residue.packets.iter().map(|p| u64::from(p.len)).sum();
            assert_eq!(queued + u64::from(packet.len - next), m.backlog[flow]);
            m.open.remove(&flow);
            m.backlog[flow] = 0;
            m.check(&s, [flow]);
        }
        for &flow in &parked[EXTRACTED..] {
            s.unpark_flow(flow);
            for _ in 0..rng.uniform_u32(0, 12) {
                let Some(f) = s.service_flit(0) else { break };
                m.served(&s, f);
            }
            m.check(&s, [flow]);
        }
        m.check(&s, 0..FLOWS);
        while let Some(f) = s.service_flit(0) {
            m.served(&s, f);
        }
        assert!(m.open.is_empty(), "every interrupted packet finished");
        m.check(&s, 0..FLOWS);
        assert!(s.is_idle());
    }

    #[test]
    fn migrated_backlog_matches_flow_backlog_flits() {
        let mut s = ErrScheduler::new(3);
        s.enqueue(pkt(0, 0, 5), 0);
        s.enqueue(pkt(1, 0, 7), 0);
        s.enqueue(pkt(2, 1, 2), 0);
        s.service_flit(0); // flow 0 mid-packet (4 left of packet 0)
        let before = s.flow_backlog_flits(0);
        assert_eq!(before, 4 + 7);
        s.park_flow(0);
        let residue = s.extract_flow(0).unwrap();
        let queued: u64 = residue.packets.iter().map(|p| p.len as u64).sum();
        let (packet, next_flit) = residue.interrupted.unwrap();
        let flits = queued + (packet.len - next_flit) as u64;
        assert_eq!(flits, before, "nothing lost in extraction");
        assert_eq!(s.backlog_flits(), 2, "only flow 1 remains");
    }
}
