//! End-to-end DAGMan workflow: generate a synthetic Montage-like dag,
//! serialize it as a DAGMan input file, run the `prio` pipeline on the
//! text, and verify the priorities written back respect the dependencies.
//!
//! Run with: `cargo run --release --example dagman_instrument`

use dagprio::dagman::parse::parse_dagman;
use dagprio::prioritize_dagman_text;
use dagprio::workloads::montage::{montage, MontageParams};

fn main() {
    // 1. Generate a small Montage-like dag and express it as DAGMan text.
    let dag = montage(MontageParams {
        images: 24,
        tiles: 3,
    });
    let mut text = String::from("# synthetic Montage-like workflow\n");
    for u in dag.node_ids() {
        text.push_str(&format!("JOB {} montage.submit\n", dag.label(u)));
    }
    for u in dag.node_ids() {
        if dag.out_degree(u) > 0 {
            let children: Vec<&str> = dag.children(u).iter().map(|&c| dag.label(c)).collect();
            text.push_str(&format!(
                "PARENT {} CHILD {}\n",
                dag.label(u),
                children.join(" ")
            ));
        }
    }
    println!(
        "generated DAGMan file: {} lines, {} jobs",
        text.lines().count(),
        dag.num_nodes()
    );

    // 2. Run the prio pipeline on the text.
    let out = prioritize_dagman_text(&text).expect("valid DAGMan text");
    println!(
        "pipeline: {} components, {} catalog-scheduled, {} shortcuts removed",
        out.result.stats.num_components,
        out.result.stats.recognized.values().sum::<usize>(),
        out.result.stats.shortcuts_removed,
    );

    // 3. Re-parse the instrumented output and check priority consistency:
    //    every parent must carry a higher jobpriority than each child...
    //    no — PRIO guarantees only schedule validity. What must hold is
    //    that sorting by descending jobpriority yields a valid execution
    //    order.
    let reparsed = parse_dagman(&out.instrumented).expect("instrumented text parses");
    let dag2 = reparsed.to_dag().expect("still a dag");
    let mut by_priority: Vec<(&str, u32)> = reparsed
        .job_names()
        .iter()
        .map(|&name| {
            let p: u32 = reparsed
                .vars_value(name, "jobpriority")
                .expect("every job instrumented")
                .parse()
                .expect("numeric priority");
            (name, p)
        })
        .collect();
    by_priority.sort_by_key(|&(_, p)| std::cmp::Reverse(p));
    let order: Vec<_> = by_priority
        .iter()
        .map(|(name, _)| dag2.find(name).expect("job exists"))
        .collect();
    assert!(
        dagprio::graph::topo::is_linear_extension(&dag2, &order),
        "descending jobpriority must be a valid execution order"
    );
    println!("check passed: descending jobpriority is a valid execution order");
    println!(
        "first five jobs by priority: {}",
        by_priority[..5]
            .iter()
            .map(|(n, p)| format!("{n}({p})"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}
