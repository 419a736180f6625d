//! Additional baseline schedulers (extensions beyond the paper's FIFO
//! comparison).
//!
//! The paper evaluates PRIO only against FIFO, the order DAGMan uses. Two
//! extra baselines are provided for the extension experiments:
//!
//! * [`random_schedule`] — a random linear extension (sampled by repeatedly
//!   drawing uniformly among the currently eligible jobs), to quantify how
//!   much of PRIO's gain is real structure vs. FIFO's specific weakness;
//! * [`critical_path_schedule`] — classic HEFT-style upward-rank priority
//!   under unit job weights (largest height first), the standard
//!   makespan-oriented heuristic PRIO implicitly competes with.

use crate::eligibility::EligibilityTracker;
use crate::schedule::Schedule;
use prio_graph::topo::heights;
use prio_graph::{Dag, NodeId};
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Samples a random linear extension of `dag`: at every step one of the
/// currently eligible jobs is chosen uniformly at random.
///
/// (This is *not* uniform over linear extensions — neither is any cheap
/// sampler — but it is the natural "no-information" scheduling baseline.)
pub fn random_schedule<R: Rng + ?Sized>(dag: &Dag, rng: &mut R) -> Schedule {
    let mut tracker = EligibilityTracker::new(dag);
    let mut eligible: Vec<NodeId> = dag.sources().collect();
    let mut order = Vec::with_capacity(dag.num_nodes());
    while !eligible.is_empty() {
        let i = rng.gen_range(0..eligible.len());
        let u = eligible.swap_remove(i);
        tracker.execute(u);
        order.push(u);
        eligible.extend(tracker.released(u));
    }
    Schedule::new(dag, order).expect("random order is a linear extension")
}

/// Critical-path (upward-rank) schedule: among eligible jobs always pick
/// one with the largest height (longest path to a sink, unit weights),
/// breaking ties toward the smaller node index.
pub fn critical_path_schedule(dag: &Dag) -> Schedule {
    let height = heights(dag);
    let mut tracker = EligibilityTracker::new(dag);
    let mut heap: BinaryHeap<(usize, Reverse<NodeId>)> = dag
        .sources()
        .map(|u| (height[u.index()], Reverse(u)))
        .collect();
    let mut order = Vec::with_capacity(dag.num_nodes());
    while let Some((_, Reverse(u))) = heap.pop() {
        tracker.execute(u);
        order.push(u);
        for v in tracker.released(u) {
            heap.push((height[v.index()], Reverse(v)));
        }
    }
    Schedule::new(dag, order).expect("critical-path order is a linear extension")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_dag() -> Dag {
        Dag::from_arcs(8, &[(0, 2), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (0, 7)]).unwrap()
    }

    #[test]
    fn random_schedules_are_valid_and_seeded() {
        let dag = test_dag();
        let mut rng = SmallRng::seed_from_u64(7);
        let s1 = random_schedule(&dag, &mut rng);
        assert!(s1.is_valid_for(&dag));
        let mut rng = SmallRng::seed_from_u64(7);
        let s2 = random_schedule(&dag, &mut rng);
        assert_eq!(s1, s2, "same seed, same schedule");
        let mut rng = SmallRng::seed_from_u64(8);
        let s3 = random_schedule(&dag, &mut rng);
        assert!(s3.is_valid_for(&dag));
    }

    #[test]
    fn critical_path_prefers_deep_chains() {
        let dag = test_dag();
        let s = critical_path_schedule(&dag);
        assert!(s.is_valid_for(&dag));
        // Node 0 and 1 are sources; 0 heads the longest chain 0-2-3-4.
        assert_eq!(s.order()[0], NodeId(0));
        let pos = s.positions();
        // The depth-3 chain job 2 runs before the depth-1 job 7.
        assert!(pos[2] < pos[7]);
    }

    #[test]
    fn critical_path_on_flat_dag_is_index_order() {
        let dag = Dag::from_arcs(4, &[]).unwrap();
        let s = critical_path_schedule(&dag);
        let order: Vec<u32> = s.order().iter().map(|u| u.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }
}
