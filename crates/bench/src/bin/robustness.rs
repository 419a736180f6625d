//! Extension experiment: does PRIO's advantage survive unreliable
//! workers?
//!
//! The paper's model is reliable ("a more comprehensive model that
//! explicitly models a worker temporarily quitting … is beyond the scope
//! of this paper"). This extension sweeps the seeded fault layer's
//! per-attempt failure probability with unlimited immediate retries — a
//! failed job re-enters the eligible queue at once and every job
//! eventually completes — at the AIRSN sweet-spot cell (`μ_BIT = 1`,
//! `μ_BS = 2⁴`) and reports the PRIO/FIFO ratios. Rate 0 is the reliable
//! §4 baseline. Expected shape: PRIO's edge persists (failures delay both
//! policies roughly proportionally) and erodes only slowly.
//!
//! Usage: `robustness [airsn-width]` (default 100). Writes
//! `results/robustness.txt`.

use prio_bench::report::{fmt_ci, Table};
use prio_core::prio::prioritize;
use prio_sim::replicate::ReplicationPlan;
use prio_sim::sweep::sweep_fault_rates;
use prio_sim::{GridModel, PolicySpec, RetryPolicy};
use prio_workloads::airsn::airsn;

fn main() {
    let width: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100);
    let dag = airsn(width);
    let prio = PolicySpec::Oblivious(prioritize(&dag).unwrap().schedule);
    let plan = ReplicationPlan {
        p: 20,
        q: 12,
        seed: 1123,
        threads: 0,
    };

    let cells = sweep_fault_rates(
        &dag,
        &prio,
        &PolicySpec::Fifo,
        &GridModel::paper(1.0, 16.0),
        &[0.0, 0.05, 0.1, 0.2, 0.3],
        RetryPolicy::unlimited(),
        &plan,
    );

    let mut table = Table::new(&[
        "failure prob",
        "PRIO mean time",
        "FIFO mean time",
        "time ratio (median, CI)",
        "util ratio (median, CI)",
    ]);
    for cell in &cells {
        let r = &cell.result;
        table.row(vec![
            format!("{:.2}", cell.fault_rate),
            format!("{:.2}", r.a.execution_time.summary().mean),
            format!("{:.2}", r.b.execution_time.summary().mean),
            fmt_ci(&r.execution_time_ratio),
            fmt_ci(&r.utilization_ratio),
        ]);
    }
    println!(
        "\n== robustness: PRIO vs FIFO under worker failures (AIRSN width {width}, {} jobs) ==\n",
        dag.num_nodes()
    );
    println!("{}", table.render());
    println!("expected shape: time ratio stays below 1 as failures grow.");
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/robustness.txt", table.render()).expect("write table");
}
