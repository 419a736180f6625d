//! The PRIO order on the four paper workflows is pinned by hash, and the
//! peel loop's work on SDSS is bounded to grow about linearly with size.
//!
//! The hashes were captured before the peel loop switched from rescanning
//! a join's parent list on every retried block attempt to per-node counts
//! of alive non-source parents; any change to the detach order (or to any
//! later stage) shows up here as a hash mismatch.

use prio_core::decompose::{decompose, DecomposeOptions};
use prio_core::Prioritizer;
use prio_graph::reduction::{remove_arcs, shortcut_arcs};
use prio_graph::Dag;
use prio_workloads::{sdss, spec};

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
