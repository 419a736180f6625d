//! Per-component scheduling (Recurse phase, Step 3).
//!
//! Each detached block gets a schedule of its non-sinks: a recognized
//! catalog family uses its explicit IC-optimal order; anything else falls
//! back to the paper's heuristic — "execute jobs in the order of
//! job-outdegree (and thus execute sinks last), breaking ties arbitrarily"
//! — implemented as *largest out-degree first among locally eligible
//! non-sinks*, with out-degrees taken in the full reduced dag `G'` (a
//! child outside the component still profits from an early parent), and
//! ties broken toward the smaller node index for determinism.

use crate::component::ScheduleSource;
use crate::decompose::Part;
use crate::eligibility::{profile_into, EligibilityTracker};
use crate::recognize::{recognize_into, RecognizeScratch};
use prio_graph::{Dag, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Chooses a non-sink schedule for `part`, returning the order (global
/// ids), its provenance, and the component-local eligibility profile
/// `E(0) ..= E(#non-sinks)`.
///
/// `optimal_search_limit` enables the extension beyond the paper: for an
/// unrecognized *bipartite* block with at most that many sources, run the
/// exhaustive IC-optimal-order search before falling back to the
/// out-degree heuristic (0 disables the search, reproducing the paper).
///
/// A one-call wrapper around the pipeline's kernel (`schedule_part_into`)
/// with fresh scratch and fresh output vectors.
pub fn schedule_part(
    g: &Dag,
    part: Part<'_>,
    optimal_search_limit: usize,
) -> (Vec<NodeId>, ScheduleSource, Vec<usize>) {
    let mut order = Vec::new();
    let mut profile = Vec::new();
    let source = schedule_part_into(
        g,
        part,
        optimal_search_limit,
        &mut ScheduleScratch::default(),
        &mut order,
        &mut profile,
    );
    (order, source, profile)
}

/// The Step 3 kernel's working memory: the recognizers' tables, the
/// eligibility tracker's table, the heuristic's heap and the local order.
/// Kept in [`crate::PrioContext`], it grows to the largest component seen
/// and is then reused for every component of every run.
#[derive(Debug, Default)]
pub(crate) struct ScheduleScratch {
    recognize: RecognizeScratch,
    missing: Vec<u32>,
    heap: BinaryHeap<(usize, Reverse<NodeId>, NodeId)>,
    local_order: Vec<NodeId>,
}

/// The Step 3 kernel: schedules `part` and appends its non-sink order
/// (global ids) to `order` and its profile `E(0) ..= E(#non-sinks)` to
/// `profile`. Apart from the exhaustive search (off by default), it
/// allocates nothing once `scratch` has grown to the component's size.
pub(crate) fn schedule_part_into(
    g: &Dag,
    part: Part<'_>,
    optimal_search_limit: usize,
    scratch: &mut ScheduleScratch,
    order: &mut Vec<NodeId>,
    profile: &mut Vec<usize>,
) -> ScheduleSource {
    let local = part.local;
    let num_nonsinks = local.node_ids().filter(|&l| !local.is_sink(l)).count();
    if num_nonsinks == 0 {
        // Pure-sink block (isolated jobs): nothing to schedule; profile is
        // just E(0) = all nodes eligible.
        profile.push(local.num_nodes());
        return ScheduleSource::Trivial;
    }

    let ScheduleScratch {
        recognize,
        missing,
        heap,
        local_order,
    } = scratch;
    local_order.clear();
    let source = if let Some(family) = recognize_into(local, recognize, local_order) {
        ScheduleSource::Catalog(family)
    } else if let Some(searched) = (part.bipartite && num_nonsinks <= optimal_search_limit)
        .then(|| crate::optimal::find_ic_optimal_source_order(local))
        .flatten()
    {
        local_order.extend(searched);
        ScheduleSource::Searched
    } else {
        out_degree_order(g, part, missing, heap, local_order);
        ScheduleSource::OutDegreeHeuristic
    };

    let mut tracker = EligibilityTracker::with_buffer(local, std::mem::take(missing));
    profile_into(&mut tracker, local_order, profile);
    *missing = tracker.into_buffer();
    order.extend(local_order.iter().map(|&l| part.nodes[l.index()]));
    source
}

/// Appends to `order` the largest-global-out-degree-first order of the
/// component's non-sinks (local ids), respecting component-local
/// precedence. `missing` is the eligibility tracker's table, lent.
fn out_degree_order(
    g: &Dag,
    part: Part<'_>,
    missing: &mut Vec<u32>,
    heap: &mut BinaryHeap<(usize, Reverse<NodeId>, NodeId)>,
    order: &mut Vec<NodeId>,
) {
    let local = part.local;
    let mut tracker = EligibilityTracker::with_buffer(local, std::mem::take(missing));
    // Max-heap on (global out-degree, Reverse(global id)).
    heap.clear();
    let push = |heap: &mut BinaryHeap<_>, l: NodeId| {
        let global = part.nodes[l.index()];
        heap.push((g.out_degree(global), Reverse(global), l));
    };
    for l in local.node_ids() {
        if !local.is_sink(l) && tracker.is_eligible(l) {
            push(heap, l);
        }
    }
    while let Some((_, _, l)) = heap.pop() {
        order.push(l);
        tracker.execute(l);
        for newly in tracker.released(l) {
            if !local.is_sink(newly) {
                push(heap, newly);
            }
        }
    }
    *missing = tracker.into_buffer();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{decompose, DecomposeOptions};
    use crate::families::Family;
    use prio_graph::Dag;

    /// Schedules `dag`, which must decompose into exactly one part.
    fn schedule_single_part(dag: &Dag) -> (Vec<NodeId>, ScheduleSource, Vec<usize>) {
        let dec = decompose(dag, DecomposeOptions::default());
        assert_eq!(dec.parts.len(), 1, "expected one component: {dag:?}");
        schedule_part(dag, dec.parts.get(0), 0)
    }

    #[test]
    fn catalog_component_uses_explicit_schedule() {
        let (dag, _) = crate::families::w_dag(3, 2);
        let (order, source, profile) = schedule_single_part(&dag);
        assert!(matches!(
            source,
            ScheduleSource::Catalog(Family::W { s: 3, d: 2 })
        ));
        assert_eq!(order.len(), 3);
        // (3,2)-W profile: 3 sources, then +1 net per source executed.
        assert_eq!(profile, vec![3, 3, 3, 4]);
    }

    #[test]
    fn pure_sink_block_is_trivial() {
        let dag = Dag::from_arcs(1, &[]).unwrap();
        let (order, source, profile) = schedule_single_part(&dag);
        assert!(order.is_empty());
        assert_eq!(source, ScheduleSource::Trivial);
        assert_eq!(profile, vec![1]);
    }

    #[test]
    fn heuristic_prefers_large_out_degree() {
        // Bipartite but irregular: u0 with 3 children, u1 with 1, u2 with
        // 2; u0 shares a child with u1 and u2 so the block is connected
        // and unrecognized.
        let dag = Dag::from_arcs(7, &[(0, 3), (0, 4), (0, 5), (1, 4), (2, 5), (2, 6)]).unwrap();
        let (order, source, _) = schedule_single_part(&dag);
        assert_eq!(source, ScheduleSource::OutDegreeHeuristic);
        let order: Vec<u32> = order.iter().map(|u| u.0).collect();
        assert_eq!(order, vec![0, 2, 1], "descending out-degree: 3, 2, 1");
    }

    #[test]
    fn heuristic_respects_internal_precedence() {
        // Non-bipartite component forced via the general path: internal
        // node 2 must come after its parent 1 despite a big out-degree.
        // (See decompose tests for why this dag defeats the fast path.)
        let dag = Dag::from_arcs(6, &[(0, 4), (2, 4), (1, 2), (1, 5), (3, 5), (0, 3)]).unwrap();
        let (order, source, _) = schedule_single_part(&dag);
        assert_eq!(source, ScheduleSource::OutDegreeHeuristic);
        let pos: std::collections::HashMap<u32, usize> =
            order.iter().enumerate().map(|(i, u)| (u.0, i)).collect();
        assert!(pos[&1] < pos[&2], "parent 1 before internal child 2");
        assert!(pos[&0] < pos[&3], "parent 0 before internal child 3");
        assert_eq!(order.len(), 4, "non-sinks only");
    }

    #[test]
    fn profile_counts_local_eligibility() {
        // Fig. 3's {c, d, e} component.
        let dag = Dag::from_arcs(3, &[(0, 1), (0, 2)]).unwrap();
        let (_, _, profile) = schedule_single_part(&dag);
        assert_eq!(profile, vec![1, 2]);
    }
}
