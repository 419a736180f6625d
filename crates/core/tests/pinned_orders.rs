//! The PRIO order on the four paper workflows and a 54,000-job layered
//! dag is pinned by hash, and the peel loop's work on SDSS and the general
//! search's work on Inspiral are bounded to grow about linearly with size.
//!
//! The hashes were captured before the peel loop switched from rescanning
//! a join's parent list on every retried block attempt to per-node counts
//! of alive non-source parents; any change to the detach order (or to any
//! later stage) shows up here as a hash mismatch.

use prio_core::decompose::{decompose, DecomposeOptions};
use prio_core::Prioritizer;
use prio_graph::reduction::{remove_arcs, shortcut_arcs};
use prio_graph::Dag;
use prio_workloads::{inspiral, sdss, spec};

/// FNV-1a over the order's node indices, little-endian `u32` each.
fn order_hash(order: &[prio_graph::NodeId]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for u in order {
        for &b in &u.0.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[test]
fn paper_workflow_orders_match_pinned_hashes() {
    let pinned: [(&str, u64); 4] = [
        ("AIRSN", 0x8464E4731AB00970),
        ("Inspiral", 0xA0F3CBC40E4AC9E1),
        ("Montage", 0x429E3C7DDE0D2207),
        ("SDSS", 0x96D3EDEB090A69CC),
    ];
    let suite = spec::paper_suite();
    for (w, (name, want)) in suite.iter().zip(pinned) {
        assert_eq!(w.name, name);
        let result = Prioritizer::new().prioritize(w.dag()).unwrap();
        let got = order_hash(result.schedule.order());
        assert_eq!(got, want, "{name}: PRIO order changed ({got:#018X})");
    }

    // A 54,000-job layered dag (60 wide, 900 deep, a cross arc from every
    // third job), the size the removed parallel stages were tested at.
    const WIDTH: usize = 60;
    const LAYERS: usize = 900;
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
    let layered = Dag::from_arcs(WIDTH * LAYERS, &arcs).unwrap();
    let result = Prioritizer::new().prioritize(&layered).unwrap();
    let got = order_hash(result.schedule.order());
    assert_eq!(
        got, 0xAC76A94F5C3AE965,
        "layered: PRIO order changed ({got:#018X})"
    );
}

/// The block attempts' parent visits on SDSS — the collector join's
/// fan-in grows with the workflow — stay about linear in its size: 4x
/// the jobs may cost at most 5x the visits. Before the alive non-source
/// parent counts, every retried chain tail rescanned the join's whole
/// parent list, which made this ratio grow with the fan-in itself.
#[test]
fn sdss_peel_work_grows_about_linearly() {
    let visits = |dag: Dag| -> (usize, usize) {
        let reduced = remove_arcs(&dag, &shortcut_arcs(&dag));
        let dec = decompose(&reduced, DecomposeOptions::default());
        (dag.num_nodes(), dec.block_parent_visits)
    };
    let (small_jobs, small) = visits(sdss::sdss(sdss::SdssParams::scaled(0.25)));
    let (full_jobs, full) = visits(sdss::sdss_paper());
    assert_eq!(full_jobs, 48_013);
    assert!(small > 0);
    let job_ratio = full_jobs as f64 / small_jobs as f64;
    let visit_ratio = full as f64 / small as f64;
    assert!(
        visit_ratio <= 1.25 * job_ratio,
        "parent visits grew {visit_ratio:.2}x for {job_ratio:.2}x the jobs ({small} -> {full})"
    );
}

/// The general search's closure-graph visits on Inspiral — its entangled
/// ring needs the search once — stay about linear in its size: from the
/// paper instance to 8x it (2,988 -> 23,876 jobs), the visits may grow at
/// most 1.25x the job ratio. The per-source search built `C(s)` for every
/// ring source, so its visits grew about 64x there.
#[test]
fn inspiral_general_search_work_grows_about_linearly() {
    let visits = |dag: Dag| -> (usize, usize) {
        let reduced = remove_arcs(&dag, &shortcut_arcs(&dag));
        let dec = decompose(&reduced, DecomposeOptions::default());
        assert_eq!(dec.general_search_iterations, 1);
        (dag.num_nodes(), dec.closure_visits)
    };
    let (small_jobs, small) = visits(inspiral::inspiral_paper());
    let (big_jobs, big) = visits(inspiral::inspiral(inspiral::InspiralParams::scaled(8.0)));
    assert_eq!((small_jobs, big_jobs), (2_988, 23_876));
    assert!(small > 0);
    let job_ratio = big_jobs as f64 / small_jobs as f64;
    let visit_ratio = big as f64 / small as f64;
    assert!(
        visit_ratio <= 1.25 * job_ratio,
        "closure visits grew {visit_ratio:.2}x for {job_ratio:.2}x the jobs ({small} -> {big})"
    );
}
