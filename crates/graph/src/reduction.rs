//! Shortcut removal (transitive reduction) — Step 1 of the Divide phase.
//!
//! An arc `u -> v` is a *shortcut* if `v` can be reached from `u` without
//! using that arc. Shortcuts never affect job eligibility (the longer path
//! already forces the ordering) but they hide the bipartite building blocks
//! from the decomposition, so the paper removes them first, citing the
//! classical minimum-equivalent-graph algorithms of Hsu and of
//! Aho–Garey–Ullman. For a DAG the transitive reduction is unique.
//!
//! Two implementations are provided:
//!
//! * [`shortcut_arcs`] — a rank-pruned DFS per node. For each node the
//!   children are scanned in topological-rank order; a child already marked
//!   as reachable from an earlier child is a shortcut, otherwise its
//!   descendants (up to the largest child rank) are marked. This touches only
//!   the local neighbourhood for the shallow, sparse scientific dags and is
//!   the default.
//! * [`shortcut_arcs_via_closure`] — a simple oracle built on the full
//!   transitive closure; quadratic memory, used to cross-check the fast
//!   implementation in tests.

use crate::dag::{Dag, NodeId};
use crate::reach::transitive_closure;
use crate::scratch::GraphScratch;
use crate::topo::topo_ranks_into;

/// Finds all shortcut arcs using the rank-pruned DFS strategy.
///
/// Runs in `O(Σ_u cost(u))` where `cost(u)` is the size of the sub-dag
/// between `u` and its last child in topological order — effectively linear
/// on the layered scientific workflows of the paper.
pub fn shortcut_arcs(dag: &Dag) -> Vec<(NodeId, NodeId)> {
    let mut shortcuts = Vec::new();
    shortcut_arcs_into(dag, &mut GraphScratch::new(), &mut shortcuts);
    shortcuts
}

/// [`shortcut_arcs`], but writing into `out` (cleared first) and borrowing
/// the rank table, visited marks and DFS worklist from `scratch`, so a
/// caller prioritizing many dags performs no per-call allocations here.
pub fn shortcut_arcs_into(dag: &Dag, scratch: &mut GraphScratch, out: &mut Vec<(NodeId, NodeId)>) {
    let _span = prio_obs::span(prio_obs::Stage::Reduce);
    let n = dag.num_nodes();
    out.clear();
    // Rank table and traversal state all live in the scratch.
    let mut rank = std::mem::take(&mut scratch.rank);
    topo_ranks_into(dag, scratch, &mut rank);
    let mut stack = std::mem::take(&mut scratch.stack);
    let mut by_rank = std::mem::take(&mut scratch.by_rank);
    stack.clear();

    for u in dag.node_ids() {
        if dag.out_degree(u) < 2 {
            continue; // a single arc can never be a shortcut
        }
        // `mark[w] == stamp` means `w` was already reached from `u`.
        let stamp = scratch.next_stamp(n);
        let mark = &mut scratch.mark;
        by_rank.clear();
        by_rank.extend_from_slice(dag.children(u));
        by_rank.sort_unstable_by_key(|c| rank[c.index()]);
        let max_rank = rank[by_rank.last().expect("non-empty").index()];
        for &c in by_rank.iter() {
            if mark[c.index()] == stamp {
                // Reachable from an earlier-ranked child: any path through
                // that child gives `u ->* c` avoiding the direct arc.
                out.push((u, c));
                continue;
            }
            // Keep the arc and mark everything reachable from `c` whose
            // rank does not exceed the last child's rank (no later child
            // can be reached through higher-ranked intermediates, since
            // ranks strictly increase along paths).
            mark[c.index()] = stamp;
            stack.push(c);
            while let Some(w) = stack.pop() {
                if rank[w.index()] >= max_rank {
                    continue; // nothing beyond can reach back down
                }
                for &x in dag.children(w) {
                    if rank[x.index()] <= max_rank && mark[x.index()] != stamp {
                        mark[x.index()] = stamp;
                        stack.push(x);
                    }
                }
            }
        }
    }
    scratch.rank = rank;
    scratch.stack = stack;
    scratch.by_rank = by_rank;
    out.sort_unstable();
}

/// [`shortcut_arcs_into`]; `threads` is ignored (the reduction is serial).
pub fn shortcut_arcs_par_into(
    dag: &Dag,
    scratch: &mut GraphScratch,
    _threads: usize,
    out: &mut Vec<(NodeId, NodeId)>,
) {
    shortcut_arcs_into(dag, scratch, out)
}

/// Finds all shortcut arcs via the full transitive closure (verification
/// oracle; `O(n²/64 · n)` time, `O(n²/8)` bytes).
pub fn shortcut_arcs_via_closure(dag: &Dag) -> Vec<(NodeId, NodeId)> {
    let closure = transitive_closure(dag);
    let mut shortcuts = Vec::new();
    for (u, v) in dag.arcs() {
        let through_sibling = dag
            .children(u)
            .iter()
            .any(|&c| c != v && closure[c.index()].contains(v.index()));
        if through_sibling {
            shortcuts.push((u, v));
        }
    }
    shortcuts
}

/// Returns `dag` with every shortcut arc removed (node set unchanged).
///
/// This is the `G'` of the paper: same jobs, same reachability, no redundant
/// arcs. Sources and sinks are preserved exactly (a shortcut's endpoints keep
/// at least one other incident arc by definition).
pub fn transitive_reduction(dag: &Dag) -> Dag {
    let shortcuts = shortcut_arcs(dag);
    prio_obs::counter!("graph.reduce.shortcut_arcs_removed").add(shortcuts.len() as u64);
    remove_arcs(dag, &shortcuts)
}

/// Rebuilds `dag` without the given arcs (arcs not present are ignored).
///
/// Goes through [`Dag::filter_arcs`]: arc removal cannot create a cycle, so
/// the copy skips the builder's label map and acyclicity re-check entirely.
pub fn remove_arcs(dag: &Dag, remove: &[(NodeId, NodeId)]) -> Dag {
    let mut removed: Vec<(NodeId, NodeId)> = remove.to_vec();
    removed.sort_unstable();
    dag.filter_arcs(|u, v| removed.binary_search(&(u, v)).is_err())
}

/// Whether `dag` contains no shortcut arcs.
pub fn is_transitively_reduced(dag: &Dag) -> bool {
    shortcut_arcs(dag).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::is_reachable;

    #[test]
    fn triangle_shortcut_removed() {
        // 0 -> 1 -> 2 plus shortcut 0 -> 2.
        let d = Dag::from_arcs(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(shortcut_arcs(&d), vec![(NodeId(0), NodeId(2))]);
        let r = transitive_reduction(&d);
        assert_eq!(r.num_arcs(), 2);
        assert!(!r.has_arc(NodeId(0), NodeId(2)));
        assert!(is_transitively_reduced(&r));
    }

    #[test]
    fn diamond_has_no_shortcuts() {
        let d = Dag::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert!(shortcut_arcs(&d).is_empty());
        assert!(is_transitively_reduced(&d));
    }

    #[test]
    fn long_shortcut_over_chain() {
        // chain 0->1->2->3->4 plus 0->4 and 1->3.
        let d = Dag::from_arcs(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]).unwrap();
        let s = shortcut_arcs(&d);
        assert_eq!(s, vec![(NodeId(0), NodeId(4)), (NodeId(1), NodeId(3))]);
    }

    #[test]
    fn nested_shortcuts() {
        // 0->1, 1->2, 0->2 (shortcut), 2->3, 0->3 (shortcut), 1->3 (shortcut)
        let d = Dag::from_arcs(4, &[(0, 1), (1, 2), (0, 2), (2, 3), (0, 3), (1, 3)]).unwrap();
        let r = transitive_reduction(&d);
        assert_eq!(r.num_arcs(), 3, "only the chain remains");
        // Reachability must be preserved.
        for u in d.node_ids() {
            for v in d.node_ids() {
                assert_eq!(is_reachable(&d, u, v), is_reachable(&r, u, v));
            }
        }
    }

    #[test]
    fn fast_matches_closure_oracle_on_dense_dag() {
        // A dag where every pair (i, j), i < j, with (j - i) odd is an arc.
        let mut arcs = Vec::new();
        for i in 0..12u32 {
            for j in (i + 1)..12 {
                if (j - i) % 2 == 1 {
                    arcs.push((i, j));
                }
            }
        }
        let d = Dag::from_arcs(12, &arcs).unwrap();
        assert_eq!(shortcut_arcs(&d), shortcut_arcs_via_closure(&d));
    }

    #[test]
    fn scratch_reuse_across_different_dags_matches_fresh_runs() {
        let mut scratch = GraphScratch::new();
        let mut out = Vec::new();
        let dags = [
            Dag::from_arcs(3, &[(0, 1), (1, 2), (0, 2)]).unwrap(),
            Dag::from_arcs(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]).unwrap(),
            Dag::from_arcs(2, &[(0, 1)]).unwrap(),
            Dag::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap(),
        ];
        for d in &dags {
            shortcut_arcs_into(d, &mut scratch, &mut out);
            assert_eq!(out, shortcut_arcs(d), "scratch reuse changed the result");
            assert_eq!(out, shortcut_arcs_via_closure(d), "oracle mismatch");
        }
    }

    #[test]
    fn reduction_preserves_sources_and_sinks() {
        let d = Dag::from_arcs(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (0, 4)]).unwrap();
        let r = transitive_reduction(&d);
        assert_eq!(
            d.sources().collect::<Vec<_>>(),
            r.sources().collect::<Vec<_>>()
        );
        assert_eq!(d.sinks().collect::<Vec<_>>(), r.sinks().collect::<Vec<_>>());
    }

    #[test]
    fn parallel_arcless_nodes_untouched() {
        let d = Dag::from_arcs(4, &[]).unwrap();
        let r = transitive_reduction(&d);
        assert_eq!(r.num_nodes(), 4);
        assert_eq!(r.num_arcs(), 0);
    }
}
