//! The `ActiveList` of the paper's Figure 1: a FIFO of active flows with
//! O(1) membership test, append, and pop.
//!
//! A flow costs the list 5 bytes: a `u32` id in the ring (reserved up
//! front for every provisioned flow) and a membership `bool`. An id that
//! does not fit in a `u32` is refused with a panic; `FlowId` stays
//! `usize` at the interface.

use std::collections::VecDeque;

use crate::FlowId;

/// FIFO list of active flows.
///
/// The paper maintains "a linked list, called the ActiveList, of flows
/// which are active", appending at the tail and serving from the head.
/// All operations used by the Enqueue/Dequeue procedures — membership
/// test, tail append, head pop — are O(1), which is what Theorem 1's O(1)
/// work-complexity argument rests on.
#[derive(Clone, Debug, Default)]
pub struct ActiveList {
    list: VecDeque<u32>,
    in_list: Vec<bool>,
}

impl ActiveList {
    /// Creates an empty list sized for `n_flows` (grows on demand).
    pub fn new(n_flows: usize) -> Self {
        Self {
            list: VecDeque::with_capacity(n_flows),
            in_list: vec![false; n_flows],
        }
    }

    /// Provisions `flow` and returns its stored id.
    fn ensure(&mut self, flow: FlowId) -> u32 {
        let id = u32::try_from(flow).expect("ActiveList holds flow ids that fit in a u32");
        if flow >= self.in_list.len() {
            self.in_list.resize(flow + 1, false);
        }
        id
    }

    /// Whether `flow` is currently in the list.
    pub fn contains(&self, flow: FlowId) -> bool {
        self.in_list.get(flow).copied().unwrap_or(false)
    }

    /// Appends `flow` at the tail if absent. Returns `true` if it was
    /// added (`ExistsInActiveList(i) == FALSE` branch of Enqueue).
    pub fn push_back_if_absent(&mut self, flow: FlowId) -> bool {
        let id = self.ensure(flow);
        if self.in_list[flow] {
            return false;
        }
        self.in_list[flow] = true;
        self.list.push_back(id);
        true
    }

    /// Appends `flow` at the tail unconditionally (used when re-adding the
    /// just-served flow, which is known to be absent). Panics if present.
    pub fn push_back(&mut self, flow: FlowId) {
        let id = self.ensure(flow);
        assert!(!self.in_list[flow], "flow {flow} already in ActiveList");
        self.in_list[flow] = true;
        self.list.push_back(id);
    }

    /// Removes `flow` from wherever it sits in the list, preserving the
    /// relative order of the others. Returns whether it was present.
    ///
    /// O(n) in the list length — used only on park transitions (a
    /// credit-starved egress link freezing a flow), which happen at
    /// stall frequency, never on the per-flit fast path; the per-flit
    /// operations stay O(1) (Theorem 1).
    pub fn remove(&mut self, flow: FlowId) -> bool {
        if !self.contains(flow) {
            return false;
        }
        self.in_list[flow] = false;
        let idx = self
            .list
            .iter()
            .position(|&f| f as FlowId == flow)
            .expect("in_list and list out of sync");
        self.list.remove(idx);
        true
    }

    /// Removes and returns the head flow.
    pub fn pop_front(&mut self) -> Option<FlowId> {
        let flow = self.list.pop_front()? as FlowId;
        self.in_list[flow] = false;
        Some(flow)
    }

    /// The head flow, left in place.
    pub fn front(&self) -> Option<FlowId> {
        self.list.front().map(|&f| f as FlowId)
    }

    /// Flows currently in the list.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Iterates the flows head-to-tail (for inspection/debugging).
    pub fn iter(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.list.iter().map(|&f| f as FlowId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut l = ActiveList::new(4);
        l.push_back(2);
        l.push_back(0);
        l.push_back(3);
        assert_eq!(l.pop_front(), Some(2));
        assert_eq!(l.pop_front(), Some(0));
        assert_eq!(l.pop_front(), Some(3));
        assert_eq!(l.pop_front(), None);
    }

    #[test]
    fn membership_tracks_push_pop() {
        let mut l = ActiveList::new(2);
        assert!(!l.contains(1));
        l.push_back(1);
        assert!(l.contains(1));
        l.pop_front();
        assert!(!l.contains(1));
    }

    #[test]
    fn push_back_if_absent_is_idempotent() {
        let mut l = ActiveList::new(2);
        assert!(l.push_back_if_absent(0));
        assert!(!l.push_back_if_absent(0));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn grows_beyond_initial_capacity() {
        let mut l = ActiveList::new(1);
        l.push_back(100);
        assert!(l.contains(100));
        assert!(!l.contains(99));
        assert_eq!(l.pop_front(), Some(100));
    }

    #[test]
    #[should_panic(expected = "already in ActiveList")]
    fn double_push_back_panics() {
        let mut l = ActiveList::new(2);
        l.push_back(0);
        l.push_back(0);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "fit in a u32")]
    fn id_beyond_u32_panics_before_growing() {
        ActiveList::new(1).push_back(1 << 32);
    }

    #[test]
    fn remove_preserves_order_of_others() {
        let mut l = ActiveList::new(4);
        l.push_back(0);
        l.push_back(1);
        l.push_back(2);
        l.push_back(3);
        assert!(l.remove(1));
        assert!(!l.remove(1));
        assert!(!l.contains(1));
        let order: Vec<_> = l.iter().collect();
        assert_eq!(order, vec![0, 2, 3]);
        // Removed flows can rejoin at the tail.
        l.push_back(1);
        let order: Vec<_> = l.iter().collect();
        assert_eq!(order, vec![0, 2, 3, 1]);
    }

    #[test]
    fn readd_after_pop_goes_to_tail() {
        let mut l = ActiveList::new(3);
        l.push_back(0);
        l.push_back(1);
        let f = l.pop_front().unwrap();
        l.push_back(f); // round-robin re-add
        let order: Vec<_> = l.iter().collect();
        assert_eq!(order, vec![1, 0]);
    }
}
