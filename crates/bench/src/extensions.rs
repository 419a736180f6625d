//! Experiments beyond the paper, one function per registry entry. Each
//! runs PRIO against FIFO (or another baseline) on AIRSN, at the paper's
//! width 250 unless its doc says otherwise, and reports the PRIO/baseline
//! ratios; every parameter is a constant here.

use crate::paper::{plan, prio_policy, prio_schedule};
use crate::report::fmt_ci;
use prio_core::baselines::{critical_path_schedule, random_schedule};
use prio_obs::report::Table;
use prio_sim::replicate::MetricDistributions;
use prio_sim::sweep::{sweep_fault_rates, FaultSweepCell};
use prio_sim::{compare_policies, ComparisonResult, GridModel, PolicySpec, RetryPolicy};
use prio_workloads::airsn::airsn_paper;
use rand::SeedableRng;

/// The §4 sweet-spot cell every AIRSN extension runs at:
/// `μ_BIT = 1`, `μ_BS = 2⁴`.
fn sweet_spot() -> GridModel {
    GridModel::paper(1.0, 16.0)
}

/// Mean execution time of one side of a comparison, as a table cell.
fn mean_time(side: &MetricDistributions) -> String {
    format!("{:.2}", side.execution_time.summary().mean)
}

/// PRIO against two oblivious baselines beyond the paper's FIFO:
/// critical-path (largest height first) and a seeded random linear
/// extension, `p = 20 × q = 12` from seed 3203.
pub fn baselines() -> String {
    let dag = airsn_paper();
    let prio = prio_policy(&dag);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
    let baselines = [
        ("FIFO", PolicySpec::Fifo),
        ("CP", PolicySpec::Oblivious(critical_path_schedule(&dag))),
        (
            "RANDOM",
            PolicySpec::Oblivious(random_schedule(&dag, &mut rng)),
        ),
    ];
    let mut table = Table::new(&[
        "baseline",
        "PRIO mean time",
        "baseline mean time",
        "PRIO/baseline time ratio",
        "PRIO/baseline util ratio",
    ]);
    for (name, policy) in &baselines {
        let r = compare_policies(&dag, &prio, policy, &sweet_spot(), &plan(20, 12, 3203));
        table.row(vec![
            name.to_string(),
            mean_time(&r.a),
            mean_time(&r.b),
            fmt_ci(&r.execution_time_ratio),
            fmt_ci(&r.utilization_ratio),
        ]);
    }
    table.render()
}

/// PRIO against FIFO as the job-runtime standard deviation widens from
/// the paper's 0.1 to 0.9 (`p = 20 × q = 12`, seed 7741).
pub fn heterogeneity() -> String {
    let dag = airsn_paper();
    let prio = prio_policy(&dag);
    let mut table = Table::new(&[
        "runtime sd",
        "PRIO mean time",
        "FIFO mean time",
        "time ratio (median, CI)",
        "stall ratio (median, CI)",
    ]);
    for sd in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let model = GridModel {
            runtime_sd: sd,
            ..sweet_spot()
        };
        let r = compare_policies(&dag, &prio, &PolicySpec::Fifo, &model, &plan(20, 12, 7741));
        table.row(vec![
            format!("{sd:.1}"),
            mean_time(&r.a),
            mean_time(&r.b),
            fmt_ci(&r.execution_time_ratio),
            fmt_ci(&r.stalling_ratio),
        ]);
    }
    table.render()
}

/// §3.2's `-maxjobs` shortcoming: PRIO's priorities act only on the jobs
/// DAGMan has forwarded to the Condor queue, so a shrinking cap pushes the
/// ratio up to and past 1 (`p = 20 × q = 12`, seed 32001).
pub fn maxjobs() -> String {
    let dag = airsn_paper();
    let schedule = prio_schedule(&dag);
    let mut table = Table::new(&[
        "maxjobs",
        "PRIO(throttled) mean time",
        "FIFO mean time",
        "time ratio (median, CI)",
    ]);
    for cap in [1, 4, 16, 64, 256, usize::MAX] {
        let policy = PolicySpec::ThrottledOblivious {
            schedule: schedule.clone(),
            maxjobs: cap,
        };
        let r = compare_policies(
            &dag,
            &policy,
            &PolicySpec::Fifo,
            &sweet_spot(),
            &plan(20, 12, 32001),
        );
        table.row(vec![
            if cap == usize::MAX {
                "unlimited".into()
            } else {
                cap.to_string()
            },
            mean_time(&r.a),
            mean_time(&r.b),
            fmt_ci(&r.execution_time_ratio),
        ]);
    }
    table.render()
}

/// The paper discards unfilled worker requests; this sweeps the
/// `μ_BIT = 1` section with them discarded and with them parked at the
/// server (`p = 16 × q = 10`, seed 515).
pub fn rollover() -> String {
    let dag = airsn_paper();
    let prio = prio_policy(&dag);
    let mut table = Table::new(&[
        "mu_bs",
        "discard: time ratio",
        "discard: FIFO mean",
        "wait: time ratio",
        "wait: FIFO mean",
    ]);
    for mu_bs in [2.0, 8.0, 16.0, 64.0, 256.0] {
        let discard = GridModel::paper(1.0, mu_bs);
        let wait = discard.with_waiting_workers();
        let [rd, rw]: [ComparisonResult; 2] = [discard, wait]
            .map(|m| compare_policies(&dag, &prio, &PolicySpec::Fifo, &m, &plan(16, 10, 515)));
        table.row(vec![
            format!("{mu_bs}"),
            fmt_ci(&rd.execution_time_ratio),
            format!("{:.1}", rd.b.execution_time.summary().mean),
            fmt_ci(&rw.execution_time_ratio),
            format!("{:.1}", rw.b.execution_time.summary().mean),
        ]);
    }
    table.render()
}

/// Runs the seeded fault layer's per-attempt failure `rates` at the
/// sweet-spot cell under `retry`.
fn fault_cells(width: usize, rates: &[f64], retry: RetryPolicy, seed: u64) -> Vec<FaultSweepCell> {
    let dag = prio_workloads::airsn::airsn(width);
    let (prio, fifo) = (prio_policy(&dag), PolicySpec::Fifo);
    let (model, plan) = (sweet_spot(), plan(20, 12, seed));
    sweep_fault_rates(&dag, &prio, &fifo, &model, rates, retry, &plan)
}

/// PRIO against FIFO under unreliable workers: failure probabilities
/// 0–0.3 with unlimited immediate retries, so every job completes (AIRSN
/// width 250, seed 1123). Rate 0 is the reliable §4 baseline.
pub fn robustness() -> String {
    let rates = [0.0, 0.05, 0.1, 0.2, 0.3];
    let mut table = Table::new(&[
        "failure prob",
        "PRIO mean time",
        "FIFO mean time",
        "time ratio (median, CI)",
        "util ratio (median, CI)",
    ]);
    for cell in fault_cells(250, &rates, RetryPolicy::unlimited(), 1123) {
        let r = &cell.result;
        table.row(vec![
            format!("{:.2}", cell.fault_rate),
            mean_time(&r.a),
            mean_time(&r.b),
            fmt_ci(&r.execution_time_ratio),
            fmt_ci(&r.utilization_ratio),
        ]);
    }
    table.render()
}

/// The same fault layer with DAGMan's bounded `RETRY 3`, so jobs can
/// abort, reporting wasted work too (AIRSN width 100, seed 20060406).
pub fn fault_sweep() -> String {
    let rates = [0.0, 0.05, 0.15, 0.3];
    let mut table = Table::new(&[
        "fault rate",
        "PRIO mean time",
        "FIFO mean time",
        "time ratio (median, CI)",
        "PRIO wasted",
        "FIFO wasted",
        "wasted ratio (median, CI)",
    ]);
    for cell in fault_cells(100, &rates, RetryPolicy::dagman(3), 20060406) {
        let r = &cell.result;
        table.row(vec![
            format!("{:.2}", cell.fault_rate),
            mean_time(&r.a),
            mean_time(&r.b),
            fmt_ci(&r.execution_time_ratio),
            format!("{:.2}", r.a.wasted_work.summary().mean),
            format!("{:.2}", r.b.wasted_work.summary().mean),
            fmt_ci(&r.wasted_work_ratio),
        ]);
    }
    table.render()
}
