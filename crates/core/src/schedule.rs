//! The [`Schedule`] type: a total order on the jobs of a DAG.
//!
//! A schedule is valid for a dag iff it is a *linear extension*: every job
//! appears exactly once and after all of its parents. Schedules convert to
//! and from Condor-style job priorities: the job at schedule position 1
//! (executed first) gets the largest priority value `n`, the last job gets
//! `1` — exactly the `jobpriority` numbering the `prio` tool writes into
//! DAGMan files (Fig. 3: first job `c` of a 5-job dag gets priority 5).

use crate::eligibility::eligibility_profile;
use prio_graph::topo::is_linear_extension;
use prio_graph::{Dag, NodeId};

/// A total order on the jobs of some DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    order: Vec<NodeId>,
}

impl Schedule {
    /// Wraps an order, validating it against `dag`.
    ///
    /// Returns `None` if `order` is not a linear extension of `dag`.
    pub fn new(dag: &Dag, order: Vec<NodeId>) -> Option<Schedule> {
        if is_linear_extension(dag, &order) {
            Some(Schedule { order })
        } else {
            None
        }
    }

    /// Wraps an order without validation (for callers that construct orders
    /// guaranteed valid; debug builds still assert nothing — use
    /// [`Schedule::is_valid_for`] to check explicitly).
    pub fn from_order_unchecked(order: Vec<NodeId>) -> Schedule {
        Schedule { order }
    }

    /// The jobs in execution order.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Whether the schedule is a linear extension of `dag`.
    pub fn is_valid_for(&self, dag: &Dag) -> bool {
        is_linear_extension(dag, &self.order)
    }

    /// `positions()[u] = t` iff job `u` is the `(t+1)`-th executed
    /// (0-based schedule position).
    pub fn positions(&self) -> Vec<usize> {
        let mut pos = vec![usize::MAX; self.order.len()];
        for (i, u) in self.order.iter().enumerate() {
            pos[u.index()] = i;
        }
        pos
    }

    /// Condor-style priorities: `priorities()[u] = n - position(u)`, so the
    /// first-scheduled job has priority `n` and the last has 1 — larger
    /// priority value means "assign to a worker earlier", as in Condor.
    pub fn priorities(&self) -> Vec<u32> {
        let n = self.order.len();
        let mut prio = vec![0u32; n];
        for (i, u) in self.order.iter().enumerate() {
            prio[u.index()] = (n - i) as u32;
        }
        prio
    }

    /// The eligibility profile `E(0) ..= E(n)` of this schedule on `dag`.
    pub fn eligibility_profile(&self, dag: &Dag) -> Vec<usize> {
        eligibility_profile(dag, &self.order)
    }
}

/// The pointwise difference `E_a(t) − E_b(t)` between two schedules'
/// eligibility profiles on the same dag — the quantity plotted in the
/// paper's Fig. 4 (with `a` = PRIO, `b` = FIFO).
pub fn profile_difference(dag: &Dag, a: &Schedule, b: &Schedule) -> Vec<i64> {
    let pa = a.eligibility_profile(dag);
    let pb = b.eligibility_profile(dag);
    pa.iter()
        .zip(&pb)
        .map(|(&x, &y)| x as i64 - y as i64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_dag() -> Dag {
        Dag::from_arcs(5, &[(0, 1), (2, 3), (2, 4)]).unwrap()
    }

    #[test]
    fn validation() {
        let d = fig3_dag();
        let ok = vec![NodeId(2), NodeId(0), NodeId(1), NodeId(3), NodeId(4)];
        assert!(Schedule::new(&d, ok).is_some());
        let bad = vec![NodeId(1), NodeId(0), NodeId(2), NodeId(3), NodeId(4)];
        assert!(Schedule::new(&d, bad).is_none());
    }

    #[test]
    fn positions_and_priorities_roundtrip() {
        let d = fig3_dag();
        let s = Schedule::new(
            &d,
            vec![NodeId(2), NodeId(0), NodeId(1), NodeId(3), NodeId(4)],
        )
        .unwrap();
        let pos = s.positions();
        assert_eq!(pos[2], 0);
        assert_eq!(pos[4], 4);
        let prio = s.priorities();
        // Fig. 3: job c (index 2) has the highest priority, 5.
        assert_eq!(prio[2], 5);
        assert_eq!(prio[0], 4);
        assert_eq!(prio[4], 1);
        // Sorting by descending priority recovers the order.
        let mut by_priority: Vec<NodeId> = d.node_ids().collect();
        by_priority.sort_by_key(|u| std::cmp::Reverse(prio[u.index()]));
        assert_eq!(by_priority, s.order());
    }

    #[test]
    fn profile_difference_matches_fig3_shape() {
        let d = fig3_dag();
        let prio = Schedule::new(
            &d,
            vec![NodeId(2), NodeId(0), NodeId(1), NodeId(3), NodeId(4)],
        )
        .unwrap();
        let fifo = Schedule::new(
            &d,
            vec![NodeId(0), NodeId(2), NodeId(1), NodeId(3), NodeId(4)],
        )
        .unwrap();
        // PRIO gains one eligible job at step 1 and never loses.
        assert_eq!(profile_difference(&d, &prio, &fifo), vec![0, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn empty_schedule() {
        let d = prio_graph::DagBuilder::new().build().unwrap();
        let s = Schedule::new(&d, vec![]).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.eligibility_profile(&d), vec![0]);
    }
}
