//! §4-under-faults experiment: PRIO vs FIFO across fault intensities.
//!
//! Sweeps the seeded fault layer (per-attempt failure probability with
//! DAGMan-style retries) at the AIRSN sweet-spot cell (`μ_BIT = 1`,
//! `μ_BS = 2⁴`) and reports, per intensity, the PRIO/FIFO makespan ratio
//! with its 95% CI plus the wasted-work means. It runs the same fault
//! layer as `robustness`, but with DAGMan's bounded retries (`RETRY 3`)
//! instead of unlimited ones, so jobs can abort, and it reports wasted
//! work. Rate 0 is the reliable §4 baseline.
//!
//! Usage: `fault_sweep [airsn-width]` (default 100). Writes
//! `results/fault_sweep.txt`.

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
        seed: 20060406,
        threads: 0,
    };
    let retry = RetryPolicy::dagman(3);

    let rates = [0.0, 0.05, 0.15, 0.3];
    let cells = sweep_fault_rates(
        &dag,
        &prio,
        &PolicySpec::Fifo,
        &GridModel::paper(1.0, 16.0),
        &rates,
        retry,
        &plan,
    );

    let mut table = Table::new(&[
        "fault rate",
        "PRIO mean time",
        "FIFO mean time",
        "time ratio (median, CI)",
        "PRIO wasted",
        "FIFO wasted",
        "wasted ratio (median, CI)",
    ]);
    for cell in &cells {
        let r = &cell.result;
        table.row(vec![
            format!("{:.2}", cell.fault_rate),
            format!("{:.2}", r.a.execution_time.summary().mean),
            format!("{:.2}", r.b.execution_time.summary().mean),
            fmt_ci(&r.execution_time_ratio),
            format!("{:.2}", r.a.wasted_work.summary().mean),
            format!("{:.2}", r.b.wasted_work.summary().mean),
            fmt_ci(&r.wasted_work_ratio),
        ]);
    }
    println!(
        "\n== fault sweep: PRIO vs FIFO under the seeded fault layer \
         (AIRSN width {width}, {} jobs, retries 3) ==\n",
        dag.num_nodes()
    );
    println!("{}", table.render());
    println!("expected shape: time ratio stays below 1 as the fault rate grows.");
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/fault_sweep.txt", table.render()).expect("write table");
}
