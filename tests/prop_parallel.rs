//! Parallel-vs-serial bit-identity properties.
//!
//! Every parallel path in the front half of the pipeline — CSR build,
//! transitive reduction and decomposition — promises results
//! *bit-identical* to its serial twin for every thread count. The
//! properties here hold that promise on random dags and
//! catalog-family compositions; the `*_at_scale` tests additionally cross
//! the adaptive work thresholds so the sharded code paths (not just their
//! serial fallbacks) are the ones being compared.

use dagprio::core::decompose::{decompose_in, DecomposeOptions, Decomposition};
use dagprio::core::prio::{PrioOptions, Prioritizer};
use dagprio::graph::reduction::{shortcut_arcs_into, shortcut_arcs_par_into};
use dagprio::graph::{Dag, GraphScratch, Label, NodeId, ScratchArena};
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

/// Random series composition of catalog-family blocks — the workload
/// shape the decomposition's fast path is built for.
fn arb_composed() -> impl Strategy<Value = Dag> {
    use dagprio::core::families::Family;
    use dagprio::graph::compose::series_zip;
    let fam = prop_oneof![
        (1usize..=3, 2usize..=3).prop_map(|(s, d)| Family::W { s, d }),
        (1usize..=2, 2usize..=3).prop_map(|(s, d)| Family::M { s, d }),
        (2usize..=4).prop_map(|d| Family::N { d }),
        (3usize..=4).prop_map(|d| Family::Cycle { d }),
        (1usize..=3, 1usize..=3).prop_map(|(s, t)| Family::Clique { s, t }),
    ];
    proptest::collection::vec(fam, 2..=3).prop_map(|fams| {
        let mut dag = fams[0].instantiate().0;
        for f in &fams[1..] {
            dag = series_zip(&dag, &f.instantiate().0).expect("zip composition");
        }
        dag
    })
}

/// Rebuilds `dag`'s CSR arrays from its arc list with `threads` workers
/// (the build decompose uses for its part and superdag dags). CSR order
/// is lexicographic, so the list meets the constructor's sorted,
/// duplicate-free contract as it comes.
fn rebuild(dag: &Dag, threads: usize) -> Dag {
    let arcs: Vec<(NodeId, NodeId)> = dag.arcs().collect();
    Dag::from_sorted_arcs_unchecked(labels_of(dag), &arcs, threads)
}

fn labels_of(dag: &Dag) -> Vec<Label> {
    dag.node_ids().map(|u| Label::from(dag.label(u))).collect()
}

fn assert_decompositions_equal(a: &Decomposition, b: &Decomposition) {
    assert_eq!(a.comp_removed, b.comp_removed);
    assert_eq!(a.general_search_iterations, b.general_search_iterations);
    assert_eq!(a.superdag, b.superdag);
    assert_eq!(a.parts.len(), b.parts.len());
    for (pa, pb) in a.parts.iter().zip(&b.parts) {
        assert_eq!(pa.nodes, pb.nodes);
        assert_eq!(pa.removed, pb.removed);
        assert_eq!(pa.local, pb.local);
        assert_eq!(pa.bipartite, pb.bipartite);
        assert_eq!(pa.via_fast_path, pb.via_fast_path);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The CSR build is thread-count invariant (including offset arrays
    /// and both adjacency directions, via `Dag`'s structural equality).
    #[test]
    fn csr_build_is_thread_count_invariant(dag in arb_dag(24, 0.25)) {
        let serial = rebuild(&dag, 0);
        for threads in [1, 2, 4] {
            prop_assert_eq!(&rebuild(&dag, threads), &serial);
        }
        prop_assert_eq!(&serial, &dag);
    }

    /// The sharded transitive-reduction scan finds exactly the serial
    /// shortcut set, in the same order.
    #[test]
    fn parallel_reduction_matches_serial(dag in arb_dag(24, 0.3)) {
        let mut scratch = GraphScratch::new();
        let mut serial = Vec::new();
        shortcut_arcs_into(&dag, &mut scratch, &mut serial);
        for threads in [2, 3, 4] {
            let mut par = Vec::new();
            shortcut_arcs_par_into(&dag, &mut scratch, threads, &mut par);
            prop_assert_eq!(&par, &serial, "threads={}", threads);
        }
    }

    /// The decomposition — peel order, part contents, local dags,
    /// superdag — is thread-count invariant on random dags.
    #[test]
    fn parallel_decompose_matches_serial(dag in arb_dag(20, 0.25)) {
        let opts = DecomposeOptions::default();
        let serial = decompose_in(&dag, opts, 0, &mut ScratchArena::new());
        for threads in [2, 4] {
            let par = decompose_in(&dag, opts, threads, &mut ScratchArena::new());
            assert_decompositions_equal(&par, &serial);
        }
    }

    /// Same, on the catalog-family compositions the fast path detaches.
    #[test]
    fn parallel_decompose_matches_serial_on_compositions(dag in arb_composed()) {
        let opts = DecomposeOptions::default();
        let serial = decompose_in(&dag, opts, 0, &mut ScratchArena::new());
        let par = decompose_in(&dag, opts, 4, &mut ScratchArena::new());
        assert_decompositions_equal(&par, &serial);
    }

    /// End to end: the full pipeline's schedule and priorities are
    /// bit-identical for every thread count.
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

/// A deterministic layered dag big enough to cross every adaptive
/// parallelism threshold (`MIN_PARALLEL_ARCS` = 2¹⁶ arcs for the CSR
/// build, `PARALLEL_WORK_THRESHOLD` = 2·10⁴ for materialization).
fn scale_dag() -> Dag {
    const WIDTH: usize = 60;
    const LAYERS: usize = 900;
    let n = WIDTH * LAYERS;
    let mut arcs: Vec<(u32, u32)> = Vec::new();
    for l in 0..LAYERS - 1 {
        for i in 0..WIDTH {
            let u = (l * WIDTH + i) as u32;
            arcs.push((u, ((l + 1) * WIDTH + i) as u32));
            if i % 3 == 0 {
                arcs.push((u, ((l + 1) * WIDTH + (i + 11) % WIDTH) as u32));
            }
        }
    }
    Dag::from_arcs(n, &arcs).unwrap()
}

/// Above `MIN_PARALLEL_ARCS` the sharded CSR build actually runs (not its
/// serial fallback) — and still matches the serial arrays exactly.
#[test]
fn parallel_csr_build_bit_identical_at_scale() {
    let dag = scale_dag();
    assert!(dag.num_arcs() > 1 << 16, "must cross MIN_PARALLEL_ARCS");
    let serial = rebuild(&dag, 0);
    assert_eq!(rebuild(&dag, 4), serial);
    assert_eq!(serial, dag);
}

/// The four scientific workloads at a reduced-but-structural scale:
/// every stage — CSR build, reduction, decomposition, the full
/// pipeline — is thread-count invariant on each of them.
#[test]
fn workload_suite_is_thread_count_invariant() {
    for w in dagprio::workloads::scaled_suite(0.25) {
        let dag = w.dag();

        assert_eq!(
            rebuild(dag, 4),
            rebuild(dag, 0),
            "{}: CSR build diverged",
            w.name
        );

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

/// Above `PARALLEL_WORK_THRESHOLD` the decomposition materializes parts
/// on worker threads — placed by index, so the result is still identical.
#[test]
fn parallel_decompose_bit_identical_at_scale() {
    let dag = scale_dag();
    assert!(
        dag.num_nodes() > 20_000,
        "must cross PARALLEL_WORK_THRESHOLD"
    );
    let opts = DecomposeOptions::default();
    let serial = decompose_in(&dag, opts, 0, &mut ScratchArena::new());
    let par = decompose_in(&dag, opts, 4, &mut ScratchArena::new());
    assert_decompositions_equal(&par, &serial);
}
