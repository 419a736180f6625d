//! The bipartite family catalog (the paper's Fig. 2).
//!
//! The theory exhibits explicit IC-optimal schedules for several families of
//! connected bipartite dags; Fig. 2 shows `(1,2)-W`, `(2,2)-W`, `(1,5)-M`,
//! `(2,5)-M`, `3-Clique`, `4-Cycle` and `4-N`, each scheduled by executing
//! sources "left to right", then all sinks in arbitrary order. This module
//! provides constructors for the families together with their canonical
//! IC-optimal source orders; the IC-optimality of every catalog schedule is
//! verified in tests against the exhaustive checker of [`crate::optimal`].
//!
//! Definitions (arcs drawn upward, sources at the bottom):
//!
//! * **(s,d)-W-dag** — `s` sources, each with `d` children; consecutive
//!   sources share exactly one sink, so there are `s(d−1)+1` sinks. The
//!   left-to-right source order is IC-optimal.
//! * **(s,d)-M-dag** — the dual (arc reversal) of the (s,d)-W-dag:
//!   `s(d−1)+1` sources and `s` sinks, each sink with `d` parents,
//!   consecutive sinks sharing one source. Left-to-right again.
//! * **d-N-dag** — `d` sources and `d` sinks with arcs `u_i → v_i` and
//!   `u_{i+1} → v_i`; the order `u_{d−1}, …, u_0` covers one new sink per
//!   step. (The paper's `4-N` is the 4-node instance, `d = 2`.)
//! * **d-Cycle-dag** — `d` sources and `d` sinks arranged in a ring:
//!   `u_i → v_i` and `u_i → v_{(i+1) mod d}`; any run of cyclically
//!   adjacent sources is IC-optimal.
//! * **(s,t)-Clique** — the complete bipartite dag `K_{s,t}`; all source
//!   orders are equivalent (the paper's `d-Clique` is `K_{d,d}`).

use prio_graph::{Dag, DagBuilder, NodeId};

/// A member of the bipartite family catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Family {
    /// `(s, d)`-W-dag: `s` sources of out-degree `d`, consecutive sources
    /// sharing one sink.
    W {
        /// Number of sources (≥ 1).
        s: usize,
        /// Out-degree of each source (≥ 2).
        d: usize,
    },
    /// `(s, d)`-M-dag: dual of the W-dag; `s` sinks of in-degree `d`.
    M {
        /// Number of sinks (≥ 1).
        s: usize,
        /// In-degree of each sink (≥ 2).
        d: usize,
    },
    /// `d`-N-dag: `d` sources, `d` sinks, `u_i → v_i`, `u_{i+1} → v_i`.
    N {
        /// Number of sources = number of sinks (≥ 2).
        d: usize,
    },
    /// `d`-Cycle-dag: ring of `d` sources and `d` sinks.
    Cycle {
        /// Ring length (≥ 3).
        d: usize,
    },
    /// Complete bipartite dag `K_{s,t}`.
    Clique {
        /// Number of sources (≥ 1).
        s: usize,
        /// Number of sinks (≥ 1).
        t: usize,
    },
}

impl Family {
    /// A short display name, e.g. `"(2,2)-W"` or `"4-Cycle"`.
    pub fn name(&self) -> String {
        match *self {
            Family::W { s, d } => format!("({s},{d})-W"),
            Family::M { s, d } => format!("({s},{d})-M"),
            Family::N { d } => format!("{d}-N"),
            Family::Cycle { d } => format!("{d}-Cycle"),
            Family::Clique { s, t } => format!("({s},{t})-Clique"),
        }
    }

    /// Instantiates the family as a concrete dag plus its canonical
    /// IC-optimal source order. Sources are numbered before sinks.
    ///
    /// Panics if the parameters are out of range (see variant docs).
    pub fn instantiate(&self) -> (Dag, Vec<NodeId>) {
        match *self {
            Family::W { s, d } => w_dag(s, d),
            Family::M { s, d } => m_dag(s, d),
            Family::N { d } => n_dag(d),
            Family::Cycle { d } => cycle_dag(d),
            Family::Clique { s, t } => clique_dag(s, t),
        }
    }

    /// The catalog instances shown in the paper's Fig. 2, in figure order.
    /// (The `4-N` of the figure is read as the 4-node N-dag, `d = 2`.)
    pub fn fig2_catalog() -> Vec<Family> {
        vec![
            Family::W { s: 1, d: 2 },
            Family::W { s: 2, d: 2 },
            Family::M { s: 1, d: 5 },
            Family::M { s: 2, d: 5 },
            Family::Clique { s: 3, t: 3 },
            Family::Cycle { d: 4 },
            Family::N { d: 2 },
        ]
    }
}

/// Builds the `(s,d)`-W-dag. Sources are nodes `0..s`; sinks follow.
/// Source `u_i` has children `sink[i(d−1)] ..= sink[i(d−1)+d−1]`, so `u_i`
/// and `u_{i+1}` share sink `(i+1)(d−1)`.
///
/// Returns the dag and its IC-optimal left-to-right source order.
pub fn w_dag(s: usize, d: usize) -> (Dag, Vec<NodeId>) {
    assert!(s >= 1, "W-dag needs at least one source");
    assert!(d >= 2, "W-dag sources have out-degree >= 2");
    let num_sinks = s * (d - 1) + 1;
    let mut b = DagBuilder::with_capacity(s + num_sinks, s * d);
    let sources: Vec<NodeId> = (0..s).map(|i| b.add_node(format!("u{i}"))).collect();
    let sinks: Vec<NodeId> = (0..num_sinks)
        .map(|i| b.add_node(format!("v{i}")))
        .collect();
    for (i, &u) in sources.iter().enumerate() {
        for j in 0..d {
            b.add_arc(u, sinks[i * (d - 1) + j]).expect("w-dag arc");
        }
    }
    (b.build().expect("w-dag is acyclic"), sources)
}

/// Builds the `(s,d)`-M-dag (dual of the W-dag). Sources are nodes
/// `0..s(d−1)+1`; sinks follow. Sink `w_i` has parents
/// `source[i(d−1)] ..= source[i(d−1)+d−1]`.
///
/// Returns the dag and its IC-optimal left-to-right source order (which
/// completes sink after sink with maximal overlap).
pub fn m_dag(s: usize, d: usize) -> (Dag, Vec<NodeId>) {
    assert!(s >= 1, "M-dag needs at least one sink");
    assert!(d >= 2, "M-dag sinks have in-degree >= 2");
    let num_sources = s * (d - 1) + 1;
    let mut b = DagBuilder::with_capacity(num_sources + s, s * d);
    let sources: Vec<NodeId> = (0..num_sources)
        .map(|i| b.add_node(format!("u{i}")))
        .collect();
    let sinks: Vec<NodeId> = (0..s).map(|i| b.add_node(format!("w{i}"))).collect();
    for (i, &w) in sinks.iter().enumerate() {
        for j in 0..d {
            b.add_arc(sources[i * (d - 1) + j], w).expect("m-dag arc");
        }
    }
    (b.build().expect("m-dag is acyclic"), sources)
}

/// Builds the `d`-N-dag: sources `u_0..u_{d−1}`, sinks `v_0..v_{d−1}`, arcs
/// `u_i → v_i` and `u_{i+1} → v_i` (so `v_{d−1}` has a single parent).
///
/// Returns the dag and the IC-optimal order `u_{d−1}, u_{d−2}, …, u_0`,
/// which renders one new sink eligible at every step.
pub fn n_dag(d: usize) -> (Dag, Vec<NodeId>) {
    assert!(d >= 2, "N-dag needs at least two sources");
    let mut b = DagBuilder::with_capacity(2 * d, 2 * d - 1);
    let sources: Vec<NodeId> = (0..d).map(|i| b.add_node(format!("u{i}"))).collect();
    let sinks: Vec<NodeId> = (0..d).map(|i| b.add_node(format!("v{i}"))).collect();
    for i in 0..d {
        b.add_arc(sources[i], sinks[i]).expect("n-dag arc");
        if i + 1 < d {
            b.add_arc(sources[i + 1], sinks[i]).expect("n-dag arc");
        }
    }
    let order = sources.iter().rev().copied().collect();
    (b.build().expect("n-dag is acyclic"), order)
}

/// Builds the `d`-Cycle-dag: sources `u_0..u_{d−1}`, sinks `v_0..v_{d−1}`,
/// arcs `u_i → v_i` and `u_i → v_{(i+1) mod d}` (so `v_i` has parents
/// `u_{i−1}` and `u_i`).
///
/// Returns the dag and the IC-optimal cyclically-adjacent order
/// `u_0, u_1, …`.
pub fn cycle_dag(d: usize) -> (Dag, Vec<NodeId>) {
    assert!(d >= 3, "cycle-dag needs ring length >= 3");
    let mut b = DagBuilder::with_capacity(2 * d, 2 * d);
    let sources: Vec<NodeId> = (0..d).map(|i| b.add_node(format!("u{i}"))).collect();
    let sinks: Vec<NodeId> = (0..d).map(|i| b.add_node(format!("v{i}"))).collect();
    for i in 0..d {
        b.add_arc(sources[i], sinks[i]).expect("cycle arc");
        b.add_arc(sources[i], sinks[(i + 1) % d])
            .expect("cycle arc");
    }
    (b.build().expect("cycle-dag is acyclic"), sources)
}

/// Builds the complete bipartite dag `K_{s,t}`.
///
/// Returns the dag and the (trivially IC-optimal) index source order.
pub fn clique_dag(s: usize, t: usize) -> (Dag, Vec<NodeId>) {
    assert!(s >= 1 && t >= 1, "clique needs sources and sinks");
    let mut b = DagBuilder::with_capacity(s + t, s * t);
    let sources: Vec<NodeId> = (0..s).map(|i| b.add_node(format!("u{i}"))).collect();
    let sinks: Vec<NodeId> = (0..t).map(|i| b.add_node(format!("v{i}"))).collect();
    for &u in &sources {
        for &v in &sinks {
            b.add_arc(u, v).expect("clique arc");
        }
    }
    (b.build().expect("clique is acyclic"), sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::is_source_order_ic_optimal;
    use prio_graph::bipartite::{is_bipartite_dag, is_weakly_connected};

    fn check_family(f: Family) {
        let (dag, order) = f.instantiate();
        assert!(is_bipartite_dag(&dag), "{} must be bipartite", f.name());
        assert!(is_weakly_connected(&dag), "{} must be connected", f.name());
        assert_eq!(
            is_source_order_ic_optimal(&dag, &order),
            Some(true),
            "{} canonical order must be IC-optimal",
            f.name()
        );
    }

    #[test]
    fn fig2_catalog_schedules_are_ic_optimal() {
        for f in Family::fig2_catalog() {
            check_family(f);
        }
    }

    #[test]
    fn larger_instances_are_ic_optimal() {
        for f in [
            Family::W { s: 5, d: 3 },
            Family::W { s: 1, d: 7 },
            Family::M { s: 4, d: 3 },
            Family::M { s: 3, d: 2 },
            Family::N { d: 6 },
            Family::Cycle { d: 7 },
            Family::Clique { s: 4, t: 2 },
        ] {
            check_family(f);
        }
    }

    #[test]
    fn w_dag_shape() {
        let (d, order) = w_dag(2, 2);
        assert_eq!(d.num_nodes(), 5); // 2 sources + 3 sinks
        assert_eq!(d.num_arcs(), 4);
        assert_eq!(order.len(), 2);
        // Shared middle sink has in-degree 2.
        let shared: Vec<_> = d.sinks().filter(|&v| d.in_degree(v) == 2).collect();
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn m_dag_is_reverse_of_w_dag() {
        let (m, _) = m_dag(3, 4);
        let (w, _) = w_dag(3, 4);
        assert_eq!(m.num_nodes(), w.num_nodes());
        assert_eq!(m.num_arcs(), w.num_arcs());
        assert_eq!(m.sources().count(), w.sinks().count());
        assert_eq!(m.sinks().count(), w.sources().count());
    }

    #[test]
    fn n_dag_shape() {
        let (d, order) = n_dag(2);
        assert_eq!(d.num_nodes(), 4); // the paper's "4-N"
        assert_eq!(d.num_arcs(), 3);
        // Optimal order starts with the source that solely owns a sink.
        assert_eq!(order[0], NodeId(1));
    }

    #[test]
    fn cycle_dag_shape() {
        let (d, _) = cycle_dag(4);
        assert_eq!(d.num_nodes(), 8);
        assert_eq!(d.num_arcs(), 8);
        assert!(d.sinks().all(|v| d.in_degree(v) == 2));
        assert!(d.sources().all(|u| d.out_degree(u) == 2));
    }

    #[test]
    fn clique_shape() {
        let (d, _) = clique_dag(3, 3);
        assert_eq!(d.num_arcs(), 9);
        // Sinks become eligible only after all sources execute: E is flat.
        let curve = crate::optimal::max_eligibility_curve_bipartite(&d).unwrap();
        assert_eq!(curve, vec![3, 2, 1, 3, 2, 1, 0]);
    }

    #[test]
    fn wrong_source_order_is_caught() {
        // For a (3,2)-W, starting from the middle source is still optimal,
        // but the N-dag is order-sensitive: forward order is suboptimal.
        let (d, _) = n_dag(3);
        let forward = vec![NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(is_source_order_ic_optimal(&d, &forward), Some(false));
    }

    #[test]
    fn family_names() {
        assert_eq!(Family::W { s: 1, d: 2 }.name(), "(1,2)-W");
        assert_eq!(Family::Cycle { d: 4 }.name(), "4-Cycle");
        assert_eq!(Family::Clique { s: 3, t: 3 }.name(), "(3,3)-Clique");
    }
}
