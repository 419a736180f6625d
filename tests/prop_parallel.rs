//! The thread-count knobs the pipeline ignores.
//!
//! The pipeline is serial. `PrioOptions::threads`, `decompose_in`'s
//! `threads` argument and `shortcut_arcs_par_into` remain only so that
//! callers which still pass a thread count compile; these tests hold that
//! every thread count gives the serial result, so such a caller never
//! sees different output.

use dagprio::core::decompose::{decompose_in, DecomposeOptions, Decomposition};
use dagprio::core::prio::{PrioOptions, Prioritizer};
use dagprio::graph::reduction::{shortcut_arcs_into, shortcut_arcs_par_into};
use dagprio::graph::{Dag, GraphScratch, ScratchArena};
use proptest::prelude::*;

/// Random DAG strategy: arcs only between `i < j`.
fn arb_dag(max_n: usize, density: f64) -> impl Strategy<Value = Dag> {
    (2..=max_n).prop_flat_map(move |n| {
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

fn assert_decompositions_equal(a: &Decomposition, b: &Decomposition) {
    assert_eq!(a.comp_removed, b.comp_removed);
    assert_eq!(a.general_search_iterations, b.general_search_iterations);
    assert_eq!(a.superdag, b.superdag);
    assert_eq!(a.parts.len(), b.parts.len());
    for (pa, pb) in a.parts.iter().zip(b.parts.iter()) {
        assert_eq!(pa.nodes, pb.nodes);
        assert_eq!(pa.removed, pb.removed);
        assert_eq!(pa.local, pb.local);
        assert_eq!(pa.bipartite, pb.bipartite);
        assert_eq!(pa.via_fast_path, pb.via_fast_path);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full pipeline's schedule is the same for every
    /// `PrioOptions::threads`.
    #[test]
    fn prioritize_is_thread_count_invariant(dag in arb_dag(20, 0.25)) {
        let run = |threads: usize| {
            Prioritizer::with_options(PrioOptions { threads, ..PrioOptions::default() })
                .prioritize(&dag)
                .unwrap()
                .schedule
        };
        let serial = run(0);
        for threads in [1, 4] {
            prop_assert_eq!(&run(threads), &serial, "threads={}", threads);
        }
    }
}

/// On the four scientific workloads at a quarter of paper size, the
/// reduction alias, `decompose_in` and the full pipeline give the serial
/// result whatever thread count they are passed.
#[test]
fn workload_suite_is_thread_count_invariant() {
    for w in dagprio::workloads::scaled_suite(0.25) {
        let dag = w.dag();

        let mut scratch = GraphScratch::new();
        let mut shortcuts_serial = Vec::new();
        shortcut_arcs_into(dag, &mut scratch, &mut shortcuts_serial);
        let mut shortcuts_par = Vec::new();
        shortcut_arcs_par_into(dag, &mut scratch, 4, &mut shortcuts_par);
        assert_eq!(
            shortcuts_par, shortcuts_serial,
            "{}: reduction diverged",
            w.name
        );

        let opts = DecomposeOptions::default();
        let dec_serial = decompose_in(dag, opts, 0, &mut ScratchArena::new());
        let dec_par = decompose_in(dag, opts, 4, &mut ScratchArena::new());
        assert_decompositions_equal(&dec_par, &dec_serial);

        let run = |threads: usize| {
            Prioritizer::with_options(PrioOptions {
                threads,
                ..PrioOptions::default()
            })
            .prioritize(dag)
            .unwrap()
            .schedule
        };
        assert_eq!(run(4), run(0), "{}: pipeline diverged", w.name);
    }
}
