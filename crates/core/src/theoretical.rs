//! The *theoretical* scheduling algorithm of §2.2 — the idealized
//! six-step procedure the heuristic generalizes.
//!
//! Unlike the heuristic, the theoretical algorithm is allowed to **fail**:
//!
//! * Step 2 fails when the remnant of `G'` has no connected bipartite
//!   building block whose sources are remnant sources;
//! * Step 3 fails when a building block admits no (findable) IC-optimal
//!   schedule;
//! * Steps 4–5 fail when some pair of blocks is `⊵`-incomparable or the
//!   superdag's dependencies contradict the priorities.
//!
//! When it succeeds, its output is IC-optimal (the theory's theorem — the
//! test-suite re-verifies this against the exhaustive lattice oracle), and
//! the heuristic "agrees with the theory's algorithm when it works": tests
//! assert the heuristic's schedule is IC-optimal whenever the theoretical
//! algorithm succeeds.
//!
//! Step 3 here uses the explicit family catalog first and falls back to an
//! exhaustive IC-optimal-order search for small unrecognized bipartite
//! blocks, mirroring "there exist explicit IC-optimal schedules for large
//! families of bipartite dags" while keeping the algorithm total on the
//! blocks it can analyze.

use crate::decompose::{decompose, DecomposeOptions};
use crate::eligibility::partial_eligibility_profile;
use crate::optimal::find_ic_optimal_source_order;
use crate::priority::has_priority_over;
use crate::recognize::recognize;
use crate::schedule::Schedule;
use prio_graph::reduction::{remove_arcs, shortcut_arcs};
use prio_graph::topo::topo_order;
use prio_graph::{Dag, NodeId};

/// Why the theoretical algorithm gave up on a dag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TheoreticalFailure {
    /// Step 2: the decomposition needed the generalized (non-bipartite)
    /// detach — no building-block decomposition exists.
    DecompositionFailed {
        /// Index of the first non-building-block component.
        component: usize,
    },
    /// Step 3: a building block has no findable IC-optimal schedule.
    NoOptimalSchedule {
        /// Index of the offending component.
        component: usize,
    },
    /// Step 4: two blocks are incomparable under `⊵` in both directions.
    Incomparable {
        /// One block.
        i: usize,
        /// The other.
        j: usize,
    },
    /// Step 5: the superdag demands executing `parent` before `child`,
    /// but `parent ⊵ child` does not hold.
    PriorityViolation {
        /// The earlier (parent) block.
        parent: usize,
        /// The later (child) block.
        child: usize,
    },
}

impl std::fmt::Display for TheoreticalFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TheoreticalFailure::DecompositionFailed { component } => {
                write!(
                    f,
                    "decomposition failed: component {component} is not a bipartite building block"
                )
            }
            TheoreticalFailure::NoOptimalSchedule { component } => {
                write!(
                    f,
                    "no IC-optimal schedule found for building block {component}"
                )
            }
            TheoreticalFailure::Incomparable { i, j } => {
                write!(f, "building blocks {i} and {j} are ⊵-incomparable")
            }
            TheoreticalFailure::PriorityViolation { parent, child } => {
                write!(
                    f,
                    "superdag requires block {parent} before {child} but {parent} ⊵ {child} fails"
                )
            }
        }
    }
}

impl std::error::Error for TheoreticalFailure {}

/// The theoretical algorithm's successful output.
#[derive(Debug, Clone)]
pub struct TheoreticalResult {
    /// The (IC-optimal, when the theory's hypotheses hold) schedule.
    pub schedule: Schedule,
    /// Block execution order (indices into the decomposition).
    pub block_order: Vec<usize>,
}

/// Runs the theoretical algorithm of §2.2 on `dag`.
pub fn theoretical_schedule(dag: &Dag) -> Result<TheoreticalResult, TheoreticalFailure> {
    // Step 1: shortcut removal.
    let shortcuts = shortcut_arcs(dag);
    let reduced = if shortcuts.is_empty() {
        dag.clone()
    } else {
        remove_arcs(dag, &shortcuts)
    };

    // Step 2: building-block decomposition. The shared decomposer's fast
    // path is exactly the building-block detach; any component that needed
    // the general search is a Step-2 failure.
    let dec = decompose(&reduced, DecomposeOptions { fast_path: true });
    for (i, part) in dec.parts.iter().enumerate() {
        // A single isolated job is a degenerate (and harmless) block.
        if !part.bipartite || (!part.via_fast_path && part.local.num_nodes() > 1) {
            return Err(TheoreticalFailure::DecompositionFailed { component: i });
        }
    }

    // Step 3: explicit IC-optimal schedule per block.
    let mut block_orders: Vec<Vec<NodeId>> = Vec::with_capacity(dec.parts.len());
    let mut profiles: Vec<Vec<usize>> = Vec::with_capacity(dec.parts.len());
    for (i, part) in dec.parts.iter().enumerate() {
        let local_order = if part.local.num_nodes() == 1 {
            Vec::new() // isolated job: no non-sinks to schedule
        } else if let Some((_, order)) = recognize(part.local) {
            order
        } else if let Some(order) = find_ic_optimal_source_order(part.local) {
            order
        } else {
            return Err(TheoreticalFailure::NoOptimalSchedule { component: i });
        };
        profiles.push(partial_eligibility_profile(part.local, &local_order));
        block_orders.push(local_order.iter().map(|&l| part.nodes[l.index()]).collect());
    }

    // Step 4: pairwise ⊵ comparability.
    let n = dec.parts.len();
    let mut prior = vec![vec![false; n]; n];
    for (i, row) in prior.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            if i != j {
                *cell = has_priority_over(&profiles[i], &profiles[j]);
            }
        }
    }
    for (i, row) in prior.iter().enumerate() {
        for (j, &i_over_j) in row.iter().enumerate().skip(i + 1) {
            if !i_over_j && !prior[j][i] {
                return Err(TheoreticalFailure::Incomparable { i, j });
            }
        }
    }

    // Step 5: the superdag must respect the priorities.
    for (u, v) in dec.superdag.arcs() {
        let (p, c) = (u.index(), v.index());
        if !prior[p][c] {
            return Err(TheoreticalFailure::PriorityViolation {
                parent: p,
                child: c,
            });
        }
    }

    // Step 6: stable-sort a topological order of the superdag by ⊵.
    //
    // Blocks with no non-sinks (isolated jobs, removed as sinks of G) are
    // excluded from the sort: they contribute nothing to the emitted order
    // but are mutually-⊵ with *everything*, and such universal ties break
    // the transitivity of the comparator's Equal (C ≺ A with C ∼ B ∼ A),
    // which a stable sort needs to honor C ≺ A.
    let mut block_order: Vec<usize> = topo_order(&dec.superdag)
        .into_iter()
        .map(|u| u.index())
        .filter(|&b| !block_orders[b].is_empty())
        .collect();
    block_order.sort_by(|&i, &j| {
        use std::cmp::Ordering;
        match (prior[i][j], prior[j][i]) {
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            _ => Ordering::Equal, // mutual (⊵ is transitive per the theory)
        }
    });
    // Re-append the trivial blocks so block_order stays a complete record.
    block_order.extend((0..n).filter(|&b| block_orders[b].is_empty()));

    // Emit: block source-schedules in order, then all sinks of G.
    let mut order: Vec<NodeId> = Vec::with_capacity(dag.num_nodes());
    for &b in &block_order {
        order.extend_from_slice(&block_orders[b]);
    }
    order.extend(dag.sinks());
    let schedule =
        Schedule::new(dag, order).expect("theoretical composition is a linear extension");
    Ok(TheoreticalResult {
        schedule,
        block_order,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::{is_ic_optimal, DEFAULT_STATE_LIMIT};
    use crate::prio::prioritize;

    #[test]
    fn fig3_succeeds_and_matches_heuristic() {
        let dag = Dag::from_arcs(5, &[(0, 1), (2, 3), (2, 4)]).unwrap();
        let theo = theoretical_schedule(&dag).expect("fig3 is theory-schedulable");
        assert_eq!(
            is_ic_optimal(&dag, theo.schedule.order(), DEFAULT_STATE_LIMIT),
            Some(true)
        );
        let heur = prioritize(&dag).unwrap();
        assert_eq!(
            theo.schedule, heur.schedule,
            "heuristic agrees when theory works"
        );
    }

    #[test]
    fn catalog_families_succeed() {
        for fam in crate::families::Family::fig2_catalog() {
            let (dag, _) = fam.instantiate();
            let theo = theoretical_schedule(&dag).unwrap_or_else(|e| panic!("{}: {e}", fam.name()));
            assert_eq!(
                is_ic_optimal(&dag, theo.schedule.order(), DEFAULT_STATE_LIMIT),
                Some(true),
                "{} theoretical schedule must be IC-optimal",
                fam.name()
            );
        }
    }

    #[test]
    fn diamond_composition_succeeds_and_is_optimal() {
        let dag = Dag::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let theo = theoretical_schedule(&dag).expect("diamond decomposes into blocks");
        assert_eq!(
            is_ic_optimal(&dag, theo.schedule.order(), DEFAULT_STATE_LIMIT),
            Some(true)
        );
    }

    #[test]
    fn entangled_ring_fails_step_2() {
        let dag = Dag::from_arcs(6, &[(0, 4), (2, 4), (1, 2), (1, 5), (3, 5), (0, 3)]).unwrap();
        match theoretical_schedule(&dag) {
            Err(TheoreticalFailure::DecompositionFailed { .. }) => {}
            other => panic!("expected decomposition failure, got {other:?}"),
        }
        // The heuristic still handles it — the whole point of the paper.
        assert!(prioritize(&dag).unwrap().schedule.is_valid_for(&dag));
    }

    #[test]
    fn shortcuts_are_removed_first() {
        // Triangle: chain + shortcut; after reduction it is a chain of
        // 2-blocks.
        let dag = Dag::from_arcs(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let theo = theoretical_schedule(&dag).expect("chain after reduction");
        assert!(theo.schedule.is_valid_for(&dag));
        assert_eq!(
            is_ic_optimal(&dag, theo.schedule.order(), DEFAULT_STATE_LIMIT),
            Some(true)
        );
    }

    #[test]
    fn failure_messages_render() {
        let msgs = [
            TheoreticalFailure::DecompositionFailed { component: 1 }.to_string(),
            TheoreticalFailure::NoOptimalSchedule { component: 2 }.to_string(),
            TheoreticalFailure::Incomparable { i: 0, j: 1 }.to_string(),
            TheoreticalFailure::PriorityViolation {
                parent: 0,
                child: 1,
            }
            .to_string(),
        ];
        assert!(msgs.iter().all(|m| !m.is_empty()));
    }
}
