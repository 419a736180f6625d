//! The flat part layout against the per-part build it replaced.
//!
//! The decomposition stores every part's local adjacency back to back in
//! one `InducedCsr` instead of building one labelled `Dag` per part, and
//! Step 3 schedules every part through one kernel whose orders and
//! profiles land in flat buffers of the reused `PrioContext`. These tests
//! hold both to their references:
//!
//! * every part's local view equals `Dag::induced_subgraph` on the part's
//!   nodes — the owned per-part build — node for node and arc for arc,
//!   with the same local → global map and bipartiteness flag;
//! * the pipeline's per-component orders, profiles and schedule sources
//!   equal what the public one-shot `schedule_part` wrapper returns for
//!   the same part.
//!
//! Inputs are seeded random dags (both decomposition arms, so the general
//! search's parts are covered) and the paper's four workflow families
//! scaled down, one context reused across all of them so stale contents
//! of a larger earlier run are live when a smaller one is scheduled.

use prio_core::component_schedule::schedule_part;
use prio_core::decompose::{decompose, DecomposeOptions, Decomposition};
use prio_core::{PrioContext, PrioOptions, Prioritizer};
use prio_graph::bipartite::is_bipartite_dag;
use prio_graph::reduction::{remove_arcs, shortcut_arcs};
use prio_graph::Dag;
use proptest::prelude::*;

/// Random DAG strategy: arcs only between `i < j`.
fn arb_dag(max_n: usize, density: f64) -> impl Strategy<Value = Dag> {
    (1..=max_n).prop_flat_map(move |n| {
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
            .collect();
        let k = pairs.len();
        proptest::collection::vec(proptest::bool::weighted(density), k).prop_map(move |mask| {
            let arcs: Vec<(u32, u32)> = pairs
                .iter()
                .zip(&mask)
                .filter(|(_, &m)| m)
                .map(|(&p, _)| p)
                .collect();
            Dag::from_arcs(n, &arcs).unwrap()
        })
    })
}

/// `dag` with its shortcut arcs removed, as the pipeline's Step 1 leaves it.
fn reduced(dag: &Dag) -> Dag {
    let shortcuts = shortcut_arcs(dag);
    if shortcuts.is_empty() {
        dag.clone()
    } else {
        remove_arcs(dag, &shortcuts)
    }
}

/// Every part's flat view equals the owned induced subgraph of its nodes.
fn assert_parts_match_induced_subgraphs(g: &Dag, dec: &Decomposition) {
    assert_eq!(dec.parts.len(), dec.superdag.num_nodes());
    for (i, part) in dec.parts.iter().enumerate() {
        let (owned, to_super) = g.induced_subgraph(part.nodes);
        assert_eq!(part.local, owned.view(), "part {i}");
        assert_eq!(part.nodes, to_super.as_slice(), "part {i}");
        assert_eq!(part.local.num_arcs(), owned.num_arcs(), "part {i}");
        assert_eq!(part.bipartite, is_bipartite_dag(&owned), "part {i}");
        assert!(part.removed.iter().all(|u| part.nodes.contains(u)));
    }
}

/// The pipeline's per-component results equal `schedule_part`'s on every
/// part of the same decomposition.
fn assert_pipeline_matches_wrapper(
    dag: &Dag,
    opts: PrioOptions,
    ctx: &mut PrioContext,
) -> Result<(), TestCaseError> {
    let g = reduced(dag);
    let dec = decompose(&g, opts.decompose);
    assert_parts_match_induced_subgraphs(&g, &dec);
    let res = Prioritizer::with_options(opts)
        .prioritize_in(dag, ctx)
        .unwrap();
    prop_assert_eq!(res.components.len(), dec.parts.len());
    for (part, component) in dec.parts.iter().zip(res.components.iter()) {
        let (order, source, profile) = schedule_part(&g, part, opts.optimal_search_limit);
        prop_assert_eq!(component.nonsink_schedule, order.as_slice());
        prop_assert_eq!(component.profile, profile.as_slice());
        prop_assert_eq!(component.schedule_source, source);
        prop_assert_eq!(component.nodes, part.nodes);
        prop_assert_eq!(component.bipartite, part.bipartite);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flat_parts_and_kernel_match_their_references(
        dags in proptest::collection::vec(arb_dag(24, 0.2), 1..4),
        fast_path in any::<bool>(),
        search in any::<bool>(),
    ) {
        let opts = PrioOptions {
            decompose: DecomposeOptions { fast_path },
            optimal_search_limit: if search { 8 } else { 0 },
            ..PrioOptions::default()
        };
        let mut ctx = PrioContext::new();
        for dag in &dags {
            assert_pipeline_matches_wrapper(dag, opts, &mut ctx)?;
        }
    }
}

#[test]
fn paper_families_match_their_references() {
    let mut ctx = PrioContext::new();
    let suite = prio_workloads::spec::scaled_suite(0.1);
    for w in suite.iter().chain(suite.iter().rev()) {
        assert_pipeline_matches_wrapper(w.dag(), PrioOptions::default(), &mut ctx)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    }
}
