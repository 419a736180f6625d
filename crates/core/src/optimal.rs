//! Exhaustive IC-optimality checking.
//!
//! A schedule Σ is **IC optimal** when for every step `t`, `E_Σ(t)` attains
//! the maximum of the eligible-job count over *all* sets of `t` executed
//! jobs that honor the precedence constraints — i.e. over all order ideals
//! (down-sets) of size `t` (§2.1). Deciding this in general requires
//! exploring the ideal lattice, which is exponential; these routines are
//! verification oracles for the test-suite and for small components, not
//! part of the production scheduling path.
//!
//! For bipartite dags the problem collapses to a *maximum-coverage* curve:
//! an ideal consists of `x` sources plus `e` already-covered sinks, and the
//! eligible count of an ideal of size `t` simplifies to
//! `s + covered(S) − t`, so `maxE(t) = s + maxcov(min(t, s)) − t` where
//! `maxcov(x)` is the largest number of sinks fully covered by `x` sources.
//! [`max_eligibility_curve_bipartite`] exploits this; the equivalence with
//! the general lattice search is property-tested.

use prio_graph::bipartite::bipartite_split;
use prio_graph::{Dag, DagView, FixedBitSet, NodeId};
use std::collections::HashSet;

/// Default cap on the number of distinct ideals explored per level before
/// giving up.
pub const DEFAULT_STATE_LIMIT: usize = 2_000_000;

/// Computes `maxE(t)` for `t = 0 ..= n` by breadth-first search over the
/// ideal lattice.
///
/// Returns `None` if the number of ideals at some level exceeds
/// `state_limit` (the dag is too wide for exhaustive search).
pub fn max_eligibility_curve(dag: &Dag, state_limit: usize) -> Option<Vec<usize>> {
    let n = dag.num_nodes();
    let mut curve = Vec::with_capacity(n + 1);
    let mut level: HashSet<FixedBitSet> = HashSet::new();
    level.insert(FixedBitSet::new(n));
    for _t in 0..=n {
        if level.len() > state_limit {
            return None;
        }
        let mut best = 0usize;
        let mut next: HashSet<FixedBitSet> = HashSet::with_capacity(level.len());
        for ideal in &level {
            let eligible = eligible_of_ideal(dag, ideal);
            best = best.max(eligible.len());
            for &u in &eligible {
                let mut bigger = ideal.clone();
                bigger.insert(u.index());
                next.insert(bigger);
            }
        }
        curve.push(best);
        level = next;
    }
    Some(curve)
}

/// The eligible jobs of an executed set (which must be an ideal).
fn eligible_of_ideal(dag: &Dag, executed: &FixedBitSet) -> Vec<NodeId> {
    dag.node_ids()
        .filter(|&u| {
            !executed.contains(u.index())
                && dag.parents(u).iter().all(|p| executed.contains(p.index()))
        })
        .collect()
}

/// Whether `order` is an IC-optimal schedule of `dag`, by comparing its
/// eligibility profile to the exhaustive maximum curve.
///
/// Returns `None` if the lattice search exceeds `state_limit`.
pub fn is_ic_optimal(dag: &Dag, order: &[NodeId], state_limit: usize) -> Option<bool> {
    let max_curve = max_eligibility_curve(dag, state_limit)?;
    let profile = crate::eligibility::eligibility_profile(dag, order);
    Some(profile == max_curve)
}

/// The maximum-coverage curve of a bipartite dag: `maxcov(x)` for
/// `x = 0 ..= s` is the largest number of sinks whose parent sets are fully
/// contained in some `x`-subset of sources.
///
/// Enumerates all `2^s` source subsets; returns `None` when `s > 25` or the
/// dag is not bipartite.
pub fn max_coverage_curve<'a>(dag: impl Into<DagView<'a>>) -> Option<Vec<usize>> {
    let dag = dag.into();
    let (sources, sinks) = bipartite_split(dag)?;
    let s = sources.len();
    if s > 25 {
        return None;
    }
    // Map each sink to the bitmask of its parents (over source positions).
    let mut src_pos = vec![usize::MAX; dag.num_nodes()];
    for (i, &u) in sources.iter().enumerate() {
        src_pos[u.index()] = i;
    }
    let sink_masks: Vec<u32> = sinks
        .iter()
        .map(|&v| {
            dag.parents(v)
                .iter()
                .fold(0u32, |m, p| m | (1 << src_pos[p.index()]))
        })
        .collect();
    let mut maxcov = vec![0usize; s + 1];
    for subset in 0u32..(1u32 << s) {
        let x = subset.count_ones() as usize;
        let covered = sink_masks.iter().filter(|&&m| m & !subset == 0).count();
        maxcov[x] = maxcov[x].max(covered);
    }
    Some(maxcov)
}

/// `maxE(t)` for a bipartite dag via the coverage reduction
/// (`maxE(t) = s + maxcov(min(t, s)) − t`).
pub fn max_eligibility_curve_bipartite(dag: &Dag) -> Option<Vec<usize>> {
    let (sources, _) = bipartite_split(dag)?;
    let s = sources.len();
    let maxcov = max_coverage_curve(dag)?;
    let n = dag.num_nodes();
    Some(
        (0..=n)
            .map(|t| s + maxcov[t.min(s)] - t.min(s) - (t - t.min(s)))
            .collect(),
    )
}

/// Whether a *source order* of a bipartite dag (sinks executed last in any
/// order) is IC-optimal: every prefix of the order must achieve the maximum
/// coverage for its size.
///
/// Returns `None` if the dag is not bipartite or too wide to verify.
pub fn is_source_order_ic_optimal(dag: &Dag, source_order: &[NodeId]) -> Option<bool> {
    let (sources, sinks) = bipartite_split(dag)?;
    if source_order.len() != sources.len() {
        return Some(false);
    }
    let maxcov = max_coverage_curve(dag)?;
    // Walk the order, counting covered sinks incrementally.
    let mut executed = vec![false; dag.num_nodes()];
    let mut covered = 0usize;
    let mut missing: Vec<usize> = vec![0; dag.num_nodes()];
    for &v in &sinks {
        missing[v.index()] = dag.in_degree(v);
        if missing[v.index()] == 0 {
            covered += 1; // parentless "sink" is trivially covered
        }
    }
    if covered != maxcov[0] {
        return Some(false);
    }
    for (x, &u) in source_order.iter().enumerate() {
        if executed[u.index()] {
            return Some(false); // duplicate
        }
        executed[u.index()] = true;
        for &v in dag.children(u) {
            missing[v.index()] -= 1;
            if missing[v.index()] == 0 {
                covered += 1;
            }
        }
        if covered != maxcov[x + 1] {
            return Some(false);
        }
    }
    Some(true)
}

/// Searches for an IC-optimal *source order* of a bipartite dag: an order
/// of the sources every prefix of which attains the maximum coverage for
/// its size. Returns `None` if the dag is not bipartite, is too wide to
/// verify (`> 25` sources), or no IC-optimal schedule exists.
///
/// Depth-first search over prefixes with coverage pruning; used as the
/// theoretical algorithm's Step-3 fallback for bipartite blocks outside
/// the explicit catalog.
pub fn find_ic_optimal_source_order<'a>(dag: impl Into<DagView<'a>>) -> Option<Vec<NodeId>> {
    let dag = dag.into();
    let (sources, sinks) = bipartite_split(dag)?;
    let maxcov = max_coverage_curve(dag)?;
    let s = sources.len();
    // Map sinks to parent masks over source positions.
    let mut src_pos = vec![usize::MAX; dag.num_nodes()];
    for (i, &u) in sources.iter().enumerate() {
        src_pos[u.index()] = i;
    }
    let sink_masks: Vec<u32> = sinks
        .iter()
        .map(|&v| {
            dag.parents(v)
                .iter()
                .fold(0u32, |m, p| m | (1 << src_pos[p.index()]))
        })
        .collect();
    // covered(subset) helper — O(#sinks) per call; fine at this size.
    let covered =
        |subset: u32| -> usize { sink_masks.iter().filter(|&&m| m & !subset == 0).count() };
    // DFS over prefixes; memoize failed subsets (a subset that cannot be
    // extended to a full IC-optimal order fails regardless of its order).
    let mut dead: HashSet<u32> = HashSet::new();
    let mut order: Vec<usize> = Vec::with_capacity(s);
    fn dfs(
        subset: u32,
        depth: usize,
        s: usize,
        covered: &dyn Fn(u32) -> usize,
        maxcov: &[usize],
        dead: &mut HashSet<u32>,
        order: &mut Vec<usize>,
    ) -> bool {
        if depth == s {
            return true;
        }
        if dead.contains(&subset) {
            return false;
        }
        for i in 0..s {
            let bit = 1u32 << i;
            if subset & bit != 0 {
                continue;
            }
            let next = subset | bit;
            if covered(next) == maxcov[depth + 1] {
                order.push(i);
                if dfs(next, depth + 1, s, covered, maxcov, dead, order) {
                    return true;
                }
                order.pop();
            }
        }
        dead.insert(subset);
        false
    }
    if dfs(0, 0, s, &covered, &maxcov, &mut dead, &mut order) {
        Some(order.into_iter().map(|i| sources[i]).collect())
    } else {
        None
    }
}

/// Whether a bipartite dag admits *any* IC-optimal schedule (searchable
/// sizes only).
pub fn bipartite_admits_ic_optimal(dag: &Dag) -> Option<bool> {
    bipartite_split(dag)?;
    max_coverage_curve(dag)?;
    Some(find_ic_optimal_source_order(dag).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_of_fork() {
        // one source, three sinks: maxE = [1, 3, 2, 1, 0]
        let d = Dag::from_arcs(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let curve = max_eligibility_curve(&d, DEFAULT_STATE_LIMIT).unwrap();
        assert_eq!(curve, vec![1, 3, 2, 1, 0]);
        assert_eq!(max_eligibility_curve_bipartite(&d).unwrap(), curve);
    }

    #[test]
    fn curve_of_join() {
        // three sources, one sink: executing sources loses eligibility.
        let d = Dag::from_arcs(4, &[(0, 3), (1, 3), (2, 3)]).unwrap();
        let curve = max_eligibility_curve(&d, DEFAULT_STATE_LIMIT).unwrap();
        assert_eq!(curve, vec![3, 2, 1, 1, 0]);
        assert_eq!(max_eligibility_curve_bipartite(&d).unwrap(), curve);
    }

    #[test]
    fn fig3_prio_schedule_is_ic_optimal() {
        let d = Dag::from_arcs(5, &[(0, 1), (2, 3), (2, 4)]).unwrap();
        let prio = [NodeId(2), NodeId(0), NodeId(1), NodeId(3), NodeId(4)];
        assert_eq!(is_ic_optimal(&d, &prio, DEFAULT_STATE_LIMIT), Some(true));
        // FIFO (a before c) is NOT IC-optimal on this dag.
        let fifo = [NodeId(0), NodeId(2), NodeId(1), NodeId(3), NodeId(4)];
        assert_eq!(is_ic_optimal(&d, &fifo, DEFAULT_STATE_LIMIT), Some(false));
    }

    #[test]
    fn state_limit_aborts() {
        // An antichain of 24 nodes has C(24, 12) ≈ 2.7M ideals mid-lattice.
        let d = Dag::from_arcs(24, &[]).unwrap();
        assert_eq!(max_eligibility_curve(&d, 1000), None);
    }

    #[test]
    fn coverage_curve_of_shared_sink() {
        // two sources sharing one sink plus one private sink each:
        // u0 -> {v0, v1}, u1 -> {v1, v2}  (this is the (2,2)-W dag)
        let d = Dag::from_arcs(5, &[(0, 2), (0, 3), (1, 3), (1, 4)]).unwrap();
        let maxcov = max_coverage_curve(&d).unwrap();
        assert_eq!(maxcov, vec![0, 1, 3]);
    }

    #[test]
    fn source_order_checker_agrees_with_lattice() {
        // (2,2)-W: left-to-right is optimal; either single-source start is
        // symmetric so both orders are optimal here.
        let d = Dag::from_arcs(5, &[(0, 2), (0, 3), (1, 3), (1, 4)]).unwrap();
        assert_eq!(
            is_source_order_ic_optimal(&d, &[NodeId(0), NodeId(1)]),
            Some(true)
        );
        // Full-order check via the lattice.
        let order = [NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        assert_eq!(is_ic_optimal(&d, &order, DEFAULT_STATE_LIMIT), Some(true));
    }

    #[test]
    fn source_order_checker_rejects_bad_order() {
        // Sources: u0 covers 2 private sinks, u1 covers 1 private sink.
        // Starting with u1 is suboptimal.
        let d = Dag::from_arcs(5, &[(0, 2), (0, 3), (1, 4)]).unwrap();
        assert_eq!(
            is_source_order_ic_optimal(&d, &[NodeId(1), NodeId(0)]),
            Some(false)
        );
        assert_eq!(
            is_source_order_ic_optimal(&d, &[NodeId(0), NodeId(1)]),
            Some(true)
        );
    }

    #[test]
    fn non_bipartite_returns_none() {
        let d = Dag::from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(max_coverage_curve(&d).is_none());
        assert!(is_source_order_ic_optimal(&d, &[NodeId(0)]).is_none());
    }

    #[test]
    fn search_finds_ic_optimal_orders_for_catalog_families() {
        use crate::families::Family;
        for fam in Family::fig2_catalog() {
            let (dag, _) = fam.instantiate();
            let order = find_ic_optimal_source_order(&dag)
                .unwrap_or_else(|| panic!("{} should admit an IC-optimal order", fam.name()));
            assert_eq!(is_source_order_ic_optimal(&dag, &order), Some(true));
            assert_eq!(bipartite_admits_ic_optimal(&dag), Some(true));
        }
    }

    #[test]
    fn search_handles_irregular_bipartite_dags() {
        // The irregular block that defeats the out-degree heuristic:
        // 0 -> {4,8}, 1 -> {4,6,7}, 2 -> {4,5,7,9}, 3 -> {5,9}.
        let d = Dag::from_arcs(
            10,
            &[
                (0, 4),
                (0, 8),
                (1, 4),
                (1, 6),
                (1, 7),
                (2, 4),
                (2, 5),
                (2, 7),
                (2, 9),
                (3, 5),
                (3, 9),
            ],
        )
        .unwrap();
        let order = find_ic_optimal_source_order(&d).expect("an optimal order exists");
        assert_eq!(is_source_order_ic_optimal(&d, &order), Some(true));
    }

    #[test]
    fn search_returns_none_on_non_bipartite() {
        let d = Dag::from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(find_ic_optimal_source_order(&d).is_none());
        assert!(bipartite_admits_ic_optimal(&d).is_none());
    }

    #[test]
    fn bipartite_and_lattice_curves_agree_on_small_dags() {
        let cases: Vec<Dag> = vec![
            Dag::from_arcs(5, &[(0, 2), (0, 3), (1, 3), (1, 4)]).unwrap(),
            Dag::from_arcs(6, &[(0, 3), (1, 3), (1, 4), (2, 4), (2, 5)]).unwrap(),
            Dag::from_arcs(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]).unwrap(),
            Dag::from_arcs(3, &[]).unwrap(),
        ];
        for d in cases {
            assert_eq!(
                max_eligibility_curve(&d, DEFAULT_STATE_LIMIT).unwrap(),
                max_eligibility_curve_bipartite(&d).unwrap(),
                "mismatch on {d:?}"
            );
        }
    }
}
