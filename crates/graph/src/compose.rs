//! DAG composition — the operations the theory uses to "assemble" complex
//! dags from building blocks.
//!
//! The decomposition of the scheduling algorithm is the inverse of these
//! constructions: a dag built by [`series`] of bipartite blocks (each
//! block's sinks identified with the next block's sources) is exactly a
//! dag the theoretical algorithm can take apart again. The test-suites use
//! these to generate theory-schedulable inputs.

use crate::dag::{Dag, DagBuilder, NodeId};
use crate::error::GraphError;

/// Series composition: glue `b` on top of `a` by *identifying* pairs of
/// (`a`-sink, `b`-source) nodes. The identified node keeps `a`'s label and
/// inherits both `a`'s in-arcs and `b`'s out-arcs — exactly how a
/// decomposition's shared nodes (sink of one block = source of the next)
/// arise.
///
/// Errors if a pair does not name a sink of `a` and a source of `b`, or if
/// a node is identified twice.
pub fn series(a: &Dag, b: &Dag, identify: &[(NodeId, NodeId)]) -> Result<Dag, GraphError> {
    // Validate.
    let mut seen_a = vec![false; a.num_nodes()];
    let mut b_to_a: Vec<Option<NodeId>> = vec![None; b.num_nodes()];
    for &(sa, sb) in identify {
        if sa.index() >= a.num_nodes() || !a.is_sink(sa) {
            return Err(GraphError::InvalidNode {
                index: sa.0,
                len: a.num_nodes() as u32,
            });
        }
        if sb.index() >= b.num_nodes() || !b.is_source(sb) {
            return Err(GraphError::InvalidNode {
                index: sb.0,
                len: b.num_nodes() as u32,
            });
        }
        if seen_a[sa.index()] || b_to_a[sb.index()].is_some() {
            return Err(GraphError::DuplicateLabel {
                label: a.label(sa).to_string(),
            });
        }
        seen_a[sa.index()] = true;
        b_to_a[sb.index()] = Some(sa);
    }

    let mut builder = DagBuilder::new();
    // a's nodes keep their ids.
    for u in a.node_ids() {
        builder.add_node(format!("a.{}", a.label(u)));
    }
    // b's non-identified nodes get fresh ids.
    let mut b_map: Vec<NodeId> = Vec::with_capacity(b.num_nodes());
    for u in b.node_ids() {
        match b_to_a[u.index()] {
            Some(sa) => b_map.push(sa),
            None => b_map.push(builder.add_node(format!("b.{}", b.label(u)))),
        }
    }
    for (u, v) in a.arcs() {
        builder.add_arc(u, v)?;
    }
    for (u, v) in b.arcs() {
        builder.add_arc(b_map[u.index()], b_map[v.index()])?;
    }
    builder.build()
}

/// Convenience: series-compose by zipping `a`'s sinks with `b`'s sources
/// in index order (as many pairs as the shorter side).
pub fn series_zip(a: &Dag, b: &Dag) -> Result<Dag, GraphError> {
    let sinks: Vec<NodeId> = a.sinks().collect();
    let sources: Vec<NodeId> = b.sources().collect();
    let pairs: Vec<(NodeId, NodeId)> = sinks.into_iter().zip(sources).collect();
    series(a, b, &pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fork() -> Dag {
        // 0 -> 1, 0 -> 2
        Dag::from_arcs(3, &[(0, 1), (0, 2)]).unwrap()
    }

    fn join() -> Dag {
        // 0 -> 2, 1 -> 2
        Dag::from_arcs(3, &[(0, 2), (1, 2)]).unwrap()
    }

    #[test]
    fn series_fork_then_join_is_diamond() {
        // Identify the fork's two sinks with the join's two sources.
        let d = series_zip(&fork(), &join()).unwrap();
        assert_eq!(d.num_nodes(), 4);
        assert_eq!(d.num_arcs(), 4);
        assert_eq!(d.sources().count(), 1);
        assert_eq!(d.sinks().count(), 1);
        // The shared middles have one parent and one child each.
        let mid = d.find("a.j1").unwrap();
        assert_eq!(d.in_degree(mid), 1);
        assert_eq!(d.out_degree(mid), 1);
    }

    #[test]
    fn partial_identification_leaves_free_sources() {
        let a = fork();
        let b = join();
        let pairs = [(NodeId(1), NodeId(0))]; // only one glue point
        let d = series(&a, &b, &pairs).unwrap();
        assert_eq!(d.num_nodes(), 5);
        // b's second source stays a source of the composite.
        assert_eq!(d.sources().count(), 2);
    }

    #[test]
    fn invalid_identifications_are_rejected() {
        let a = fork();
        let b = join();
        // a's node 0 is not a sink.
        assert!(series(&a, &b, &[(NodeId(0), NodeId(0))]).is_err());
        // b's node 2 is not a source.
        assert!(series(&a, &b, &[(NodeId(1), NodeId(2))]).is_err());
        // Duplicate identification.
        assert!(series(&a, &b, &[(NodeId(1), NodeId(0)), (NodeId(1), NodeId(1))]).is_err());
        // Out of range.
        assert!(series(&a, &b, &[(NodeId(9), NodeId(0))]).is_err());
    }

    #[test]
    fn chained_series_stays_acyclic_and_layered() {
        let mut dag = fork();
        for _ in 0..3 {
            dag = series_zip(&dag, &join()).unwrap();
        }
        // Each join after the first contributes one unmatched free source.
        assert_eq!(dag.sources().count(), 3);
        assert_eq!(dag.sinks().count(), 1);
        assert!(prio_crate_check(&dag));
    }

    fn prio_crate_check(d: &Dag) -> bool {
        crate::topo::is_linear_extension(d, &crate::topo::topo_order(d))
    }
}
