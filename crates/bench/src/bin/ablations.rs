//! §3.5 engineering ablations as a wall-clock table.
//!
//! 1. Decomposition: bipartite fast path vs general-only minimal-`C(s)`
//!    search, on growing SDSS-like field stages. The general-only arm
//!    (`fast_path: false`) runs the paper's per-source search every
//!    iteration and is quadratic in the number of components, which is the
//!    paper's "over 2 days" regime; the fast path stays near-linear, and
//!    its own fallback is a linear one-pass search, so the per-source
//!    search survives only in that arm.
//! 2. Combine: naive quadratic selection vs the class-cached engine on
//!    growing superdags of repeated component shapes.

use prio_bench::report::{fmt_duration, Table};
use prio_core::combine::{combine, CombineEngine};
use prio_core::decompose::{decompose, DecomposeOptions};
use prio_graph::reduction::transitive_reduction;
use prio_graph::Dag;
use prio_workloads::sdss::{sdss, SdssParams};
use std::time::Instant;

fn time<R>(f: impl FnOnce() -> R) -> (std::time::Duration, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed(), r)
}

fn main() {
    println!("== Ablation 1 (§3.5): decomposition fast path ==\n");
    let mut t = Table::new(&["jobs", "fast path", "general only", "speedup"]);
    for fields in [32usize, 64, 128, 256] {
        let dag = transitive_reduction(&sdss(SdssParams {
            fields,
            targets: fields * 4,
            extra_chain: 0,
        }));
        let (fast, dec_fast) = time(|| decompose(&dag, DecomposeOptions { fast_path: true }));
        let (slow, dec_slow) = time(|| decompose(&dag, DecomposeOptions { fast_path: false }));
        assert_eq!(dec_fast.parts.len(), dec_slow.parts.len());
        t.row(vec![
            dag.num_nodes().to_string(),
            fmt_duration(fast),
            fmt_duration(slow),
            format!("{:.1}x", slow.as_secs_f64() / fast.as_secs_f64().max(1e-9)),
        ]);
    }
    println!("{}", t.render());

    println!("== Ablation 2 (§3.5): combine engine ==\n");
    let mut t = Table::new(&["supernodes", "class-cached", "naive", "speedup"]);
    for n in [128usize, 512, 2048] {
        let superdag = Dag::from_arcs(n, &[]).expect("independent supernodes");
        let classes = [vec![1usize, 1], vec![1, 2], vec![2, 3, 4], vec![4, 2, 1]];
        let profiles: Vec<Vec<usize>> =
            (0..n).map(|i| classes[i % classes.len()].clone()).collect();
        let (fast, of) = time(|| combine(&superdag, &profiles, CombineEngine::ClassHeap));
        let (slow, on) = time(|| combine(&superdag, &profiles, CombineEngine::Naive));
        assert_eq!(of, on, "engines agree");
        t.row(vec![
            n.to_string(),
            fmt_duration(fast),
            fmt_duration(slow),
            format!("{:.1}x", slow.as_secs_f64() / fast.as_secs_f64().max(1e-9)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "expected shape: both speedups grow with size — the general search and the\n\
         naive combine are the quadratic algorithms the paper replaced."
    );
}
