//! The eligibility engine.
//!
//! A job is **eligible** when it has not been executed and every one of its
//! parents has been executed (§2.1). `E_Σ(t)` — the number of eligible jobs
//! after the first `t` jobs of a schedule Σ have executed — is the quantity
//! the whole paper optimizes; this module computes it incrementally in
//! `O(arcs)` total over a full execution.

use prio_graph::{Dag, DagView, NodeId};

/// `missing[u]` of an executed job.
const EXECUTED: u32 = u32::MAX;

/// Incremental eligibility tracker over a fixed dag.
///
/// Starts with every source eligible; [`EligibilityTracker::execute`] marks
/// one job executed and promotes any children whose last missing parent it
/// was. Executing an ineligible or already-executed job is a logic error and
/// panics — schedules are supposed to be linear extensions.
///
/// Inside the crate its one table can be lent and taken back
/// (`with_buffer` / `into_buffer`), so the per-component scheduler tracks
/// thousands of small dags without allocating per dag.
#[derive(Debug, Clone)]
pub struct EligibilityTracker<'a> {
    dag: DagView<'a>,
    /// Number of not-yet-executed parents per job; [`EXECUTED`] once the
    /// job has run.
    missing: Vec<u32>,
    eligible_count: usize,
    executed_count: usize,
}

impl<'a> EligibilityTracker<'a> {
    /// Creates a tracker with no job executed; every source is eligible.
    pub fn new(dag: impl Into<DagView<'a>>) -> Self {
        Self::with_buffer(dag.into(), Vec::new())
    }

    /// [`EligibilityTracker::new`] over a lent table (its contents are
    /// overwritten); [`EligibilityTracker::into_buffer`] hands it back.
    pub(crate) fn with_buffer(dag: DagView<'a>, mut missing: Vec<u32>) -> Self {
        missing.clear();
        missing.extend(dag.node_ids().map(|u| dag.in_degree(u) as u32));
        let eligible_count = missing.iter().filter(|&&m| m == 0).count();
        EligibilityTracker {
            dag,
            missing,
            eligible_count,
            executed_count: 0,
        }
    }

    /// Gives back the table, for the next [`EligibilityTracker::with_buffer`].
    pub(crate) fn into_buffer(self) -> Vec<u32> {
        self.missing
    }

    /// Whether `u` is currently eligible.
    #[inline]
    pub fn is_eligible(&self, u: NodeId) -> bool {
        self.missing[u.index()] == 0
    }

    /// Whether `u` has been executed.
    #[inline]
    pub fn is_executed(&self, u: NodeId) -> bool {
        self.missing[u.index()] == EXECUTED
    }

    /// The current number of eligible jobs — `E(t)` after `t` executions.
    #[inline]
    pub fn eligible_count(&self) -> usize {
        self.eligible_count
    }

    /// The number of jobs executed so far.
    #[inline]
    pub fn executed_count(&self) -> usize {
        self.executed_count
    }

    /// Executes `u`, promoting the children whose last missing parent it
    /// was; [`EligibilityTracker::released`] lists them. Panics if `u` is
    /// not eligible.
    pub fn execute(&mut self, u: NodeId) {
        assert!(
            self.is_eligible(u),
            "job {u:?} is not eligible (executed: {}, missing parents: {})",
            self.is_executed(u),
            self.missing[u.index()]
        );
        self.missing[u.index()] = EXECUTED;
        self.executed_count += 1;
        self.eligible_count -= 1;
        for &v in self.dag.children(u) {
            let m = &mut self.missing[v.index()];
            *m -= 1;
            if *m == 0 {
                self.eligible_count += 1;
            }
        }
    }

    /// The children that executing `u` made eligible, in index order.
    /// Meaningful right after [`EligibilityTracker::execute`]`(u)`: a child
    /// of `u` is eligible then exactly when `u` was its last missing
    /// parent.
    pub fn released(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.dag
            .children(u)
            .iter()
            .copied()
            .filter(|&v| self.is_eligible(v))
    }
}

/// Computes the full eligibility profile `E(0), E(1), …, E(n)` of executing
/// `order` on `dag`.
///
/// `order` must be a linear extension of `dag` (panics otherwise). The
/// returned vector has length `n + 1`; `E(0)` is the number of sources and
/// `E(n) = 0`.
pub fn eligibility_profile(dag: &Dag, order: &[NodeId]) -> Vec<usize> {
    assert_eq!(order.len(), dag.num_nodes(), "order must cover every job");
    partial_eligibility_profile(dag, order)
}

/// Computes the eligibility profile of executing only a *prefix* of jobs
/// (used for component-local profiles over non-sinks): returns
/// `E(0) ..= E(prefix.len())`.
///
/// Jobs in `prefix` must each be eligible when reached.
pub fn partial_eligibility_profile<'a>(
    dag: impl Into<DagView<'a>>,
    prefix: &[NodeId],
) -> Vec<usize> {
    let mut profile = Vec::with_capacity(prefix.len() + 1);
    let mut tracker = EligibilityTracker::new(dag);
    profile_into(&mut tracker, prefix, &mut profile);
    profile
}

/// Executes `prefix` on a fresh `tracker`, appending `E(0) ..=
/// E(prefix.len())` to `out`.
pub(crate) fn profile_into(
    tracker: &mut EligibilityTracker<'_>,
    prefix: &[NodeId],
    out: &mut Vec<usize>,
) {
    out.push(tracker.eligible_count());
    for &u in prefix {
        tracker.execute(u);
        out.push(tracker.eligible_count());
    }
}

/// Naive recomputation of the eligible-job count for a given executed set —
/// the O(n + arcs)-per-call oracle used to cross-check the tracker in tests.
pub fn eligible_count_naive(dag: &Dag, executed: &[bool]) -> usize {
    dag.node_ids()
        .filter(|&u| !executed[u.index()] && dag.parents(u).iter().all(|p| executed[p.index()]))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_dag() -> Dag {
        // a(0) -> b(1), c(2) -> d(3), c(2) -> e(4)
        Dag::from_arcs(5, &[(0, 1), (2, 3), (2, 4)]).unwrap()
    }

    #[test]
    fn initial_state_has_sources_eligible() {
        let d = fig3_dag();
        let t = EligibilityTracker::new(&d);
        assert_eq!(t.eligible_count(), 2);
        let eligible: Vec<NodeId> = d.node_ids().filter(|&u| t.is_eligible(u)).collect();
        assert_eq!(eligible, vec![NodeId(0), NodeId(2)]);
        assert_eq!(t.executed_count(), 0);
    }

    #[test]
    fn execute_promotes_children() {
        let d = fig3_dag();
        let mut t = EligibilityTracker::new(&d);
        t.execute(NodeId(2));
        let newly: Vec<NodeId> = t.released(NodeId(2)).collect();
        assert_eq!(newly, vec![NodeId(3), NodeId(4)]);
        assert_eq!(t.eligible_count(), 3); // a, d, e
        assert!(t.is_executed(NodeId(2)));
        assert!(!t.is_eligible(NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "not eligible")]
    fn executing_ineligible_job_panics() {
        let d = fig3_dag();
        let mut t = EligibilityTracker::new(&d);
        t.execute(NodeId(1)); // b's parent a not executed
    }

    #[test]
    #[should_panic(expected = "not eligible")]
    fn double_execute_panics() {
        let d = fig3_dag();
        let mut t = EligibilityTracker::new(&d);
        t.execute(NodeId(0));
        t.execute(NodeId(0));
    }

    #[test]
    fn profile_of_fig3_prio_schedule() {
        let d = fig3_dag();
        // PRIO schedule of Fig. 3: c, a, b, d, e.
        let order = [NodeId(2), NodeId(0), NodeId(1), NodeId(3), NodeId(4)];
        assert_eq!(eligibility_profile(&d, &order), vec![2, 3, 3, 2, 1, 0]);
        // FIFO order: a, c, b, d, e.
        let order = [NodeId(0), NodeId(2), NodeId(1), NodeId(3), NodeId(4)];
        assert_eq!(eligibility_profile(&d, &order), vec![2, 2, 3, 2, 1, 0]);
    }

    #[test]
    fn profile_ends_at_zero_and_starts_at_sources() {
        let d = Dag::from_arcs(6, &[(0, 2), (1, 2), (2, 3), (2, 4), (4, 5)]).unwrap();
        let order = prio_graph::topo::topo_order(&d);
        let prof = eligibility_profile(&d, &order);
        assert_eq!(prof.len(), 7);
        assert_eq!(prof[0], d.sources().count());
        assert_eq!(*prof.last().unwrap(), 0);
    }

    #[test]
    fn tracker_matches_naive_oracle() {
        let d = Dag::from_arcs(
            8,
            &[
                (0, 3),
                (1, 3),
                (1, 4),
                (2, 4),
                (3, 5),
                (4, 6),
                (5, 7),
                (6, 7),
            ],
        )
        .unwrap();
        let order = prio_graph::topo::topo_order(&d);
        let mut tracker = EligibilityTracker::new(&d);
        let mut executed = vec![false; d.num_nodes()];
        assert_eq!(
            tracker.eligible_count(),
            eligible_count_naive(&d, &executed)
        );
        for &u in &order {
            tracker.execute(u);
            executed[u.index()] = true;
            assert_eq!(
                tracker.eligible_count(),
                eligible_count_naive(&d, &executed)
            );
        }
        assert_eq!(tracker.executed_count(), d.num_nodes());
    }

    #[test]
    fn partial_profile_stops_early() {
        let d = fig3_dag();
        let prof = partial_eligibility_profile(&d, &[NodeId(2)]);
        assert_eq!(prof, vec![2, 3]);
    }
}
