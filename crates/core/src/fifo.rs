//! The FIFO baseline — the order DAGMan/Condor uses today (§3.4, §4.1).
//!
//! "A FIFO scheduling algorithm maintains a FIFO queue of eligible jobs …
//! a newly eligible job is put at the end of the queue." As an *oblivious*
//! total order this is: execute jobs in the order in which they become
//! eligible, where the initially eligible sources enter the queue in input
//! (node-index) order and children enter when their last parent executes,
//! in index order among simultaneously enabled jobs.

use crate::eligibility::EligibilityTracker;
use crate::schedule::Schedule;
use prio_graph::Dag;
use std::collections::VecDeque;

/// Builds the FIFO schedule of `dag`.
pub fn fifo_schedule(dag: &Dag) -> Schedule {
    let mut tracker = EligibilityTracker::new(dag);
    let mut queue: VecDeque<_> = dag.sources().collect();
    let mut order = Vec::with_capacity(dag.num_nodes());
    while let Some(u) = queue.pop_front() {
        tracker.execute(u);
        order.push(u);
        queue.extend(tracker.released(u));
    }
    Schedule::new(dag, order).expect("FIFO order is a linear extension")
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_graph::NodeId;

    #[test]
    fn fig3_fifo_is_input_order_breadth_first() {
        let dag = Dag::from_arcs(5, &[(0, 1), (2, 3), (2, 4)]).unwrap();
        let fifo = fifo_schedule(&dag);
        let order: Vec<u32> = fifo.order().iter().map(|u| u.0).collect();
        // a and c eligible initially (a first by input order); executing a
        // enables b, executing c enables d and e.
        assert_eq!(order, vec![0, 2, 1, 3, 4]);
    }

    #[test]
    fn fifo_is_breadth_first_on_chains_of_forks() {
        let dag = Dag::from_arcs(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]).unwrap();
        let fifo = fifo_schedule(&dag);
        let order: Vec<u32> = fifo.order().iter().map(|u| u.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn fifo_defers_joins_until_enabled() {
        // 0 and 1 sources; 2 = join(0,1); 3 = child of 0.
        let dag = Dag::from_arcs(4, &[(0, 2), (1, 2), (0, 3)]).unwrap();
        let fifo = fifo_schedule(&dag);
        let order: Vec<u32> = fifo.order().iter().map(|u| u.0).collect();
        // After 0: nothing enabled except 3 (2 still waits for 1); after 1:
        // 2 becomes eligible and queues after 3.
        assert_eq!(order, vec![0, 1, 3, 2]);
    }

    #[test]
    fn fifo_covers_every_job_exactly_once() {
        let dag = Dag::from_arcs(
            9,
            &[
                (0, 3),
                (1, 3),
                (1, 4),
                (2, 4),
                (3, 5),
                (4, 6),
                (5, 7),
                (6, 8),
            ],
        )
        .unwrap();
        let fifo = fifo_schedule(&dag);
        assert!(fifo.is_valid_for(&dag));
        let mut seen = [false; 9];
        for &u in fifo.order() {
            assert!(!seen[u.index()]);
            seen[u.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let _ = NodeId(0);
    }

    #[test]
    fn fifo_of_empty_dag() {
        let dag = prio_graph::DagBuilder::new().build().unwrap();
        assert!(fifo_schedule(&dag).is_empty());
    }
}
