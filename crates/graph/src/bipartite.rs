//! Bipartite-dag tests and weak connectivity — support for Step 2 of the
//! Divide phase.
//!
//! A dag `H` is *bipartite* in the paper's sense when its node set splits
//! into non-empty `U` and `V` such that every arc leads from a node of `U`
//! to a node of `V` — equivalently, no node has both a parent and a child.
//! `H` is *connected* when the underlying undirected graph is connected.
//! The building blocks of the theoretical algorithm are maximal connected
//! bipartite sub-dags.

use crate::dag::{Dag, DagView, NodeId};

/// Whether every arc of `dag` goes from a source to a sink, i.e. no node has
/// both parents and children. (Nodes with no arcs at all are permitted and
/// may be placed on either side.)
pub fn is_bipartite_dag<'a>(dag: impl Into<DagView<'a>>) -> bool {
    let dag = dag.into();
    dag.node_ids()
        .all(|u| dag.in_degree(u) == 0 || dag.out_degree(u) == 0)
}

/// Whether the underlying undirected graph of `dag` is connected.
/// The empty dag is considered connected vacuously.
pub fn is_weakly_connected<'a>(dag: impl Into<DagView<'a>>) -> bool {
    is_weakly_connected_in(dag.into(), &mut Vec::new(), &mut Vec::new())
}

/// [`is_weakly_connected`] with caller-owned `seen` marks and DFS `stack`
/// (both cleared here), so a caller testing many small dags allocates
/// nothing once the buffers have grown.
pub fn is_weakly_connected_in(
    dag: DagView<'_>,
    seen: &mut Vec<bool>,
    stack: &mut Vec<NodeId>,
) -> bool {
    let n = dag.num_nodes();
    if n <= 1 {
        return true;
    }
    seen.clear();
    seen.resize(n, false);
    stack.clear();
    stack.push(NodeId(0));
    seen[0] = true;
    let mut count = 1;
    while let Some(u) = stack.pop() {
        for &v in dag.children(u).iter().chain(dag.parents(u)) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                count += 1;
                stack.push(v);
            }
        }
    }
    count == n
}

/// Partitions the nodes of `dag` into weakly-connected components.
///
/// Components are returned sorted by their smallest node index, and the node
/// list inside each component is sorted by index, so the output is fully
/// deterministic.
pub fn weakly_connected_components(dag: &Dag) -> Vec<Vec<NodeId>> {
    let n = dag.num_nodes();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut stack = Vec::new();
    for start in dag.node_ids() {
        if comp[start.index()] != usize::MAX {
            continue;
        }
        comp[start.index()] = next;
        stack.push(start);
        while let Some(u) = stack.pop() {
            for &v in dag.children(u).iter().chain(dag.parents(u)) {
                if comp[v.index()] == usize::MAX {
                    comp[v.index()] = next;
                    stack.push(v);
                }
            }
        }
        next += 1;
    }
    let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); next];
    for u in dag.node_ids() {
        out[comp[u.index()]].push(u);
    }
    out
}

/// The source side (`U`) and sink side (`V`) of a bipartite dag.
///
/// Nodes that have arcs are classified by their degree pattern; isolated
/// nodes (no arcs at all) are placed on the sink side, matching the
/// decomposition's treatment of isolated jobs as sinks of `G`.
///
/// Returns `None` if `dag` is not bipartite.
pub fn bipartite_split<'a>(dag: impl Into<DagView<'a>>) -> Option<(Vec<NodeId>, Vec<NodeId>)> {
    let dag = dag.into();
    if !is_bipartite_dag(dag) {
        return None;
    }
    let mut sources = Vec::new();
    let mut sinks = Vec::new();
    for u in dag.node_ids() {
        if dag.out_degree(u) > 0 {
            sources.push(u);
        } else {
            sinks.push(u);
        }
    }
    Some((sources, sinks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_is_bipartite() {
        let d = Dag::from_arcs(3, &[(0, 1), (0, 2)]).unwrap();
        assert!(is_bipartite_dag(&d));
        let (src, snk) = bipartite_split(&d).unwrap();
        assert_eq!(src, vec![NodeId(0)]);
        assert_eq!(snk, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn chain_of_three_is_not_bipartite() {
        let d = Dag::from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(!is_bipartite_dag(&d));
        assert!(bipartite_split(&d).is_none());
    }

    #[test]
    fn isolated_nodes_allowed_and_put_on_sink_side() {
        let d = Dag::from_arcs(3, &[(0, 1)]).unwrap();
        assert!(is_bipartite_dag(&d));
        let (src, snk) = bipartite_split(&d).unwrap();
        assert_eq!(src, vec![NodeId(0)]);
        assert_eq!(snk, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn connectivity() {
        let connected = Dag::from_arcs(4, &[(0, 1), (2, 1), (2, 3)]).unwrap();
        assert!(is_weakly_connected(&connected));
        let split = Dag::from_arcs(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!is_weakly_connected(&split));
        assert!(is_weakly_connected(&Dag::from_arcs(1, &[]).unwrap()));
        assert!(is_weakly_connected(&Dag::from_arcs(0, &[]).unwrap()));
    }

    #[test]
    fn components_are_sorted_and_complete() {
        let d = Dag::from_arcs(6, &[(0, 3), (4, 1), (2, 5)]).unwrap();
        let comps = weakly_connected_components(&d);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![NodeId(0), NodeId(3)]);
        assert_eq!(comps[1], vec![NodeId(1), NodeId(4)]);
        assert_eq!(comps[2], vec![NodeId(2), NodeId(5)]);
        let total: usize = comps.iter().map(Vec::len).sum();
        assert_eq!(total, d.num_nodes());
    }

    #[test]
    fn single_component_covers_all() {
        let d = Dag::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let comps = weakly_connected_components(&d);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 4);
    }
}
