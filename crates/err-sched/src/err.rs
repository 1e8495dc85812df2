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
//!   [`Scheduler`], where one unit = one flit.

use desim::Cycle;
use serde::{Deserialize, Serialize};

use crate::active_list::ActiveList;
use crate::migrate::{MidPacket, MigratedFlow, MigratedVisit};
use crate::packet::FlitStream;
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
    /// restored via [`ErrCore::resume_visit`] after unparking, before
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
    /// Integer weight per flow; 1 for the unweighted discipline. The
    /// weighted allowance is `A_i(r) = w_i * (1 + MaxSC(r-1)) - SC_i(r-1)`
    /// (see the `werr` module).
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
        Self::with_weights(vec![1; n_flows])
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
        Self {
            active: ActiveList::new(n),
            sc: vec![0; n],
            weight: weights,
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
            self.weight.resize(flow + 1, 1);
        }
        if flow >= self.parked.len() {
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
            || self.limbo.get(flow).copied().unwrap_or(false)
    }

    /// Whether `flow` is currently parked.
    pub fn is_parked(&self, flow: FlowId) -> bool {
        self.parked.get(flow).copied().unwrap_or(false)
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
    /// [`resume_visit`](Self::resume_visit) once the flow is unparked.
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
    /// [`resume_visit`](Self::resume_visit) instead.
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
    pub fn resume_visit(&mut self, v: Visit) {
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
        let entitlement = self.weight[flow] * (self.bonus + self.prev_max_sc);
        // Parking shifts round boundaries and can preserve an SC across
        // rounds whose MaxSC has since shrunk, so the Lemma 1 relation
        // is only asserted on park-free histories (where it is exact).
        debug_assert!(
            self.sc[flow] <= self.prev_max_sc
                || self.weight[flow] > 1
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

    /// Clears every trace of `flow` after its state has been extracted
    /// for migration (DESIGN.md §8): parked/limbo flags and surplus
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

    /// Installs a migrated surplus count for `flow` (which must be
    /// parked here) and counts a park epoch: the debt was earned
    /// against another shard's rounds, so the Lemma-1 bookkeeping
    /// assertion is relaxed exactly as for parking (DESIGN.md §8.4).
    pub fn adopt_surplus(&mut self, flow: FlowId, surplus: u64) {
        self.ensure(flow);
        debug_assert!(self.parked[flow], "adopt_surplus requires a parked flow");
        self.sc[flow] = surplus;
        self.park_epochs += 1;
    }

    /// Marks `flow` (parked) as holding a suspended visit, re-creating
    /// on the thief the limbo state [`park`](Self::park) left on the
    /// donor; [`resume_visit`](Self::resume_visit) clears it.
    pub fn set_limbo(&mut self, flow: FlowId) {
        self.ensure(flow);
        debug_assert!(self.parked[flow], "set_limbo requires a parked flow");
        self.limbo[flow] = true;
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

    /// `MaxSC` of the previous round (`PreviousMaxSC`).
    pub fn prev_max_sc(&self) -> u64 {
        self.prev_max_sc
    }

    /// 1-based number of the round in progress (0 before any service).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of active flows (ActiveList plus in-service flow).
    pub fn active_flows(&self) -> usize {
        self.size_active
    }

    /// The paper's `m`: the largest packet (in units) served to
    /// completion so far.
    pub fn largest_served(&self) -> u64 {
        self.largest_served
    }
}

/// A visit (and possibly a packet mid-wormhole) frozen by
/// [`ErrScheduler::park_flow`], waiting to be resumed.
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
/// Migration builds on it: [`extract_flow`] and [`absorb_flow`] move a
/// parked flow's whole state between two schedulers (DESIGN.md §8).
///
/// [`park_flow`]: Self::park_flow
/// [`unpark_flow`]: Self::unpark_flow
/// [`extract_flow`]: Self::extract_flow
/// [`absorb_flow`]: Self::absorb_flow
#[derive(Clone, Debug)]
pub struct ErrScheduler {
    core: ErrCore,
    queues: FlowQueues,
    in_flight: Option<FlitStream>,
    /// Per-flow suspended visits (parked mid-service).
    suspended: Vec<Option<SuspendedVisit>>,
    /// Unparked flows whose suspended visit must resume before any new
    /// visit begins: a packet interrupted mid-wormhole finishes ahead of
    /// any other packet its egress link could see.
    resume_queue: std::collections::VecDeque<FlowId>,
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

    /// Current surplus count `SC_i` of `flow` (Eq. 1). Exposed so
    /// migration tests can check that `SC_i` travels verbatim with a
    /// handoff (DESIGN.md §8.4).
    pub fn surplus_count(&self, flow: FlowId) -> u64 {
        self.core.surplus_count(flow)
    }

    pub(crate) fn from_core(core: ErrCore, n_flows: usize) -> Self {
        Self {
            core,
            queues: FlowQueues::new(n_flows),
            in_flight: None,
            suspended: (0..n_flows).map(|_| None).collect(),
            resume_queue: std::collections::VecDeque::new(),
            suspended_flits: 0,
        }
    }

    fn ensure_suspended(&mut self, flow: FlowId) {
        if flow >= self.suspended.len() {
            self.suspended.resize_with(flow + 1, || None);
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

    /// Starts the next packet: resuming a suspended visit if one is due,
    /// else continuing the current visit, else beginning a new one.
    /// Returns `false` when idle (or when every backlogged flow is
    /// parked).
    fn load_packet(&mut self) -> bool {
        debug_assert!(self.in_flight.is_none());
        // Unparked suspended visits take priority over everything else:
        // a packet interrupted mid-wormhole must finish before any flow
        // sharing its egress link starts a new packet, and the simplest
        // sound rule is "before any new visit at all".
        if self.core.visit().is_none() {
            while let Some(flow) = self.resume_queue.pop_front() {
                if self.core.is_parked(flow) {
                    // Re-parked before it could resume; its next unpark
                    // will queue it again.
                    continue;
                }
                let s = self.suspended[flow]
                    .take()
                    .expect("resume_queue entries have a suspended visit");
                self.core.resume_visit(s.visit);
                if let Some(stream) = s.stream {
                    self.suspended_flits -= stream.remaining() as u64;
                    self.in_flight = Some(stream);
                    return true;
                }
                // Suspended at a packet boundary: the restored visit
                // continues below by popping the flow's next packet.
                break;
            }
        }
        let flow = if let Some(v) = self.core.visit() {
            // Mid-visit: the previous on_packet_complete said Continue,
            // which guarantees the queue is non-empty.
            v.flow
        } else {
            match self.core.begin_visit() {
                Some(f) => f,
                None => return false,
            }
        };
        let pkt = self
            .queues
            .pop(flow)
            .expect("a flow in the ActiveList has at least one packet");
        self.in_flight = Some(FlitStream::new(pkt));
        true
    }
}

impl Scheduler for ErrScheduler {
    fn enqueue(&mut self, pkt: Packet, _now: Cycle) {
        self.core.activate(pkt.flow);
        self.queues.push(pkt);
    }

    fn service_flit(&mut self, _now: Cycle) -> Option<ServedFlit> {
        if self.in_flight.is_none() && !self.load_packet() {
            return None;
        }
        let stream = self.in_flight.as_mut().expect("just loaded");
        let pkt = *stream.packet();
        let (idx, done) = stream.emit();
        self.core.charge(1);
        if done {
            self.in_flight = None;
            let nonempty = !self.queues.is_empty(pkt.flow);
            self.core.on_packet_complete(pkt.len as u64, nonempty);
        }
        Some(ServedFlit::of(&pkt, idx))
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
                self.ensure_suspended(flow);
                self.suspended[flow] = Some(SuspendedVisit { stream, visit: v });
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
        self.ensure_suspended(flow);
        if self.suspended[flow].is_some() {
            self.core.unpark(flow, false);
            if !self.resume_queue.contains(&flow) {
                self.resume_queue.push_back(flow);
            }
        } else {
            self.core.unpark(flow, !self.queues.is_empty(flow));
        }
    }

    /// Flits currently backlogged for `flow` alone (queued packets plus
    /// the unsent remainder of a packet in service or suspended). Used
    /// by the migration donor to pick the heaviest victim.
    pub fn flow_backlog_flits(&self, flow: FlowId) -> u64 {
        let mut flits = self.queues.flow_flits(flow);
        if let Some(s) = self.in_flight.as_ref() {
            if s.packet().flow == flow {
                flits += s.remaining() as u64;
            }
        }
        if let Some(Some(sv)) = self.suspended.get(flow) {
            if let Some(st) = &sv.stream {
                flits += st.remaining() as u64;
            }
        }
        flits
    }

    /// Removes `flow`'s entire scheduler-side state — FIFO queue,
    /// surplus count, suspended visit — as a portable [`MigratedFlow`]
    /// package, leaving the flow blank (unparked, no debt) here.
    ///
    /// The flow must be parked (quiesced); `None` if it is not.
    pub fn extract_flow(&mut self, flow: FlowId) -> Option<MigratedFlow> {
        if !self.core.is_parked(flow) {
            // Contract violation (the quiesce phase parks first); refuse
            // rather than tear live state.
            return None;
        }
        debug_assert!(
            self.in_flight
                .as_ref()
                .is_none_or(|s| s.packet().flow != flow),
            "a parked flow cannot be in flight"
        );
        self.ensure_suspended(flow);
        let resume = self.suspended[flow].take().map(|sv| {
            if let Some(st) = &sv.stream {
                self.suspended_flits -= st.remaining() as u64;
            }
            MigratedVisit {
                allowance: sv.visit.allowance,
                sent: sv.visit.sent,
                cursor: sv.stream.map(|st| MidPacket {
                    packet: *st.packet(),
                    next_flit: st.position(),
                }),
            }
        });
        // If the flow was unparked and re-parked before resuming, it may
        // still sit in the resume queue; it no longer lives here.
        self.resume_queue.retain(|&f| f != flow);
        let packets = self.queues.take(flow);
        let surplus = self.core.surplus_count(flow);
        self.core.forget(flow);
        Some(MigratedFlow {
            packets,
            surplus,
            resume,
        })
    }

    /// Installs a [`MigratedFlow`] package for `flow`, *prepending* its
    /// queue to any packets that already arrived here (old routing
    /// epoch before new — per-flow FIFO across the steal) and adopting
    /// its surplus count verbatim. The flow must be parked here; it
    /// becomes servable on the next
    /// [`unpark_flow`](Self::unpark_flow). Returns whether the package
    /// was installed (`false`: the flow was not parked, and nothing
    /// changed).
    pub fn absorb_flow(&mut self, flow: FlowId, state: MigratedFlow) -> bool {
        if !self.core.is_parked(flow) {
            return false;
        }
        self.ensure_suspended(flow);
        debug_assert!(
            self.suspended[flow].is_none(),
            "absorbing over an existing suspended visit for flow {flow}"
        );
        // Old-epoch packets go ahead of any new-epoch arrivals that
        // already reached this shard (per-flow FIFO, DESIGN.md §8.3).
        self.queues.prepend(flow, state.packets);
        self.core.adopt_surplus(flow, state.surplus);
        if let Some(v) = state.resume {
            let stream = v
                .cursor
                .map(|c| FlitStream::resume_at(c.packet, c.next_flit));
            if let Some(st) = &stream {
                self.suspended_flits += st.remaining() as u64;
            }
            self.suspended[flow] = Some(SuspendedVisit {
                stream,
                visit: Visit {
                    flow,
                    allowance: v.allowance,
                    sent: v.sent,
                },
            });
            self.core.set_limbo(flow);
        }
        true
    }
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
        assert_eq!(s.core().active_flows(), 0);
        s.enqueue(pkt(0, 0, 2), 0);
        s.enqueue(pkt(1, 2, 2), 0);
        assert_eq!(s.core().active_flows(), 2);
        drain(&mut s);
        assert_eq!(s.core().active_flows(), 0);
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
        assert_eq!(s.core().active_flows(), 0);
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
    fn absorb_requires_parked_flow() {
        let mut s = ErrScheduler::new(2);
        let state = MigratedFlow {
            packets: std::collections::VecDeque::new(),
            surplus: 0,
            resume: None,
        };
        assert!(!s.absorb_flow(0, state.clone()), "live flow must refuse");
        assert!(s.park_flow(0));
        assert!(s.absorb_flow(0, state));
    }

    #[test]
    fn migrate_mid_packet_resumes_on_thief_in_flit_order() {
        // Donor serves 2 of 6 flits of flow 0's packet, is parked, and
        // the flow migrates. The thief must emit flits 2..6 of that very
        // packet before anything else of flow 0, then the queued packet.
        let mut donor = ErrScheduler::new(2);
        donor.enqueue(pkt(0, 0, 6), 0);
        donor.enqueue(pkt(1, 0, 3), 0);
        donor.enqueue(pkt(2, 1, 2), 0);
        donor.service_flit(0);
        donor.service_flit(1);
        assert!(donor.park_flow(0));
        let state = donor.extract_flow(0).expect("parked flow extracts");
        assert_eq!(state.flits(), 3 + 4, "queued + mid-packet remainder");
        assert_eq!(donor.flow_backlog_flits(0), 0);
        // Donor continues unaffected with flow 1.
        let rest = drain(&mut donor);
        assert!(rest.iter().all(|f| f.flow == 1));
        assert!(donor.is_idle());

        let mut thief = ErrScheduler::new(2);
        thief.enqueue(pkt(3, 1, 1), 0); // unrelated resident flow
        assert!(thief.park_flow(0));
        assert!(thief.absorb_flow(0, state));
        assert_eq!(thief.flow_backlog_flits(0), 7);
        thief.unpark_flow(0);
        let flits = drain(&mut thief);
        let flow0: Vec<_> = flits.iter().filter(|f| f.flow == 0).collect();
        assert_eq!(flow0.len(), 7);
        // Interrupted packet 0 first, at flits 2..6, then packet 1 whole.
        assert_eq!(
            flow0
                .iter()
                .map(|f| (f.packet, f.flit_index))
                .collect::<Vec<_>>(),
            vec![(0, 2), (0, 3), (0, 4), (0, 5), (1, 0), (1, 1), (1, 2)]
        );
        assert!(thief.is_idle());
    }

    #[test]
    fn migrate_preserves_surplus_count() {
        // Flow 0 earns surplus 9 on the donor; after migration the thief
        // must hold the same debt — Lemma 1's bookkeeping follows the
        // flow, not the shard (DESIGN.md §8.4).
        let mut donor = ErrScheduler::new(2);
        donor.enqueue(pkt(0, 0, 10), 0);
        donor.enqueue(pkt(1, 0, 1), 0);
        donor.enqueue(pkt(2, 1, 1), 0);
        donor.enqueue(pkt(3, 1, 1), 0);
        for now in 0..10 {
            assert_eq!(donor.service_flit(now).unwrap().flow, 0);
        }
        assert_eq!(donor.core().surplus_count(0), 9);
        assert!(donor.park_flow(0));
        let state = donor.extract_flow(0).unwrap();
        assert_eq!(state.surplus, 9);
        assert_eq!(donor.core().surplus_count(0), 0, "donor forgets the debt");

        let mut thief = ErrScheduler::new(2);
        assert!(thief.park_flow(0));
        assert!(thief.absorb_flow(0, state));
        assert_eq!(thief.core().surplus_count(0), 9, "debt follows the flow");
        thief.unpark_flow(0);
        drain(&mut thief);
        drain(&mut donor);
    }

    #[test]
    fn absorbed_packets_precede_new_epoch_arrivals() {
        // Packets enqueued directly at the thief (new epoch) while the
        // flow was parked there must be served after the migrated
        // old-epoch queue: per-flow FIFO across the handoff.
        let mut donor = ErrScheduler::new(1);
        donor.enqueue(pkt(0, 0, 2), 0);
        donor.enqueue(pkt(1, 0, 2), 0);
        assert!(donor.park_flow(0));
        let state = donor.extract_flow(0).unwrap();

        let mut thief = ErrScheduler::new(1);
        assert!(thief.park_flow(0));
        thief.enqueue(pkt(2, 0, 2), 0); // new-epoch arrival, waits parked
        assert!(thief.absorb_flow(0, state));
        thief.unpark_flow(0);
        let heads: Vec<u64> = drain(&mut thief)
            .iter()
            .filter(|f| f.is_head())
            .map(|f| f.packet)
            .collect();
        assert_eq!(heads, vec![0, 1, 2], "old epoch strictly first");
    }

    #[test]
    fn extract_after_repark_clears_resume_queue() {
        // Park mid-packet, unpark (queued for resume), re-park, extract:
        // the suspended visit must travel with the flow and the donor's
        // resume queue must not retain a stale entry.
        let mut donor = ErrScheduler::new(2);
        donor.enqueue(pkt(0, 0, 4), 0);
        donor.enqueue(pkt(1, 1, 2), 0);
        donor.service_flit(0);
        donor.park_flow(0);
        donor.unpark_flow(0);
        donor.park_flow(0);
        let state = donor.extract_flow(0).unwrap();
        let cursor = state.resume.as_ref().unwrap().cursor.as_ref().unwrap();
        assert_eq!((cursor.packet.id, cursor.next_flit), (0, 1));
        let rest = drain(&mut donor);
        assert!(rest.iter().all(|f| f.flow == 1), "no stale resume entry");
        assert!(donor.is_idle());

        let mut thief = ErrScheduler::new(1);
        assert!(thief.park_flow(0));
        assert!(thief.absorb_flow(0, state));
        thief.unpark_flow(0);
        assert_eq!(
            drain(&mut thief)
                .iter()
                .map(|f| f.flit_index)
                .collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
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
        let state = s.extract_flow(0).unwrap();
        assert_eq!(state.flits(), before, "nothing lost in extraction");
        assert_eq!(s.backlog_flits(), 2, "only flow 1 remains");
    }
}
