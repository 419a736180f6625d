//! Parameter sweeps over the `μ_BIT × μ_BS` grid of Figs. 6–9.
//!
//! The paper sweeps `μ_BIT` over the powers of ten from 10⁻³ to 10³ (seven
//! sections of each plot) and `μ_BS` over the powers of two from 2⁰ to 2¹⁶
//! (seventeen points per section).

use crate::experiment::{compare_policies, compare_policies_with, ComparisonResult};
use crate::fault::{FaultConfig, FaultModel, RetryPolicy};
use crate::model::GridModel;
use crate::policy::PolicySpec;
use crate::replicate::ReplicationPlan;
use prio_graph::Dag;

/// The paper's seven mean batch inter-arrival times: `10⁻³ … 10³`.
pub fn paper_mu_bits() -> Vec<f64> {
    (-3..=3).map(|e| 10f64.powi(e)).collect()
}

/// The paper's seventeen mean batch sizes: `2⁰ … 2¹⁶`.
pub fn paper_mu_bss() -> Vec<f64> {
    (0..=16).map(|e| 2f64.powi(e)).collect()
}

/// One grid cell's outcome.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Mean batch inter-arrival time of this cell.
    pub mu_bit: f64,
    /// Mean batch size of this cell.
    pub mu_bs: f64,
    /// The policy comparison at this cell.
    pub result: ComparisonResult,
}

/// Sweeps the grid, comparing policy `a` (e.g. PRIO) against `b` (e.g.
/// FIFO) at every `(μ_BIT, μ_BS)` cell. `on_cell` is invoked after each
/// cell (progress reporting); cells are processed in row-major order
/// (`μ_BIT` outer, `μ_BS` inner) with deterministic per-cell seeds.
pub fn sweep(
    dag: &Dag,
    a: &PolicySpec,
    b: &PolicySpec,
    mu_bits: &[f64],
    mu_bss: &[f64],
    plan: &ReplicationPlan,
    mut on_cell: impl FnMut(&SweepCell),
) -> Vec<SweepCell> {
    let mut cells = Vec::with_capacity(mu_bits.len() * mu_bss.len());
    for (i, &mu_bit) in mu_bits.iter().enumerate() {
        for (j, &mu_bs) in mu_bss.iter().enumerate() {
            let model = GridModel::paper(mu_bit, mu_bs);
            let cell_plan = ReplicationPlan {
                seed: plan
                    .seed
                    .wrapping_add((i as u64) << 32)
                    .wrapping_add(j as u64),
                ..*plan
            };
            let result = compare_policies(dag, a, b, &model, &cell_plan);
            let cell = SweepCell {
                mu_bit,
                mu_bs,
                result,
            };
            on_cell(&cell);
            cells.push(cell);
        }
    }
    cells
}

/// One fault-intensity cell's outcome: the PRIO-vs-FIFO comparison at a
/// given per-attempt failure rate.
#[derive(Debug, Clone)]
pub struct FaultSweepCell {
    /// Per-attempt failure probability of this cell.
    pub fault_rate: f64,
    /// The policy comparison at this cell.
    pub result: ComparisonResult,
}

/// Sweeps fault intensity at a fixed model cell: compares policy `a`
/// against `b` at each per-attempt failure rate in `rates` under the
/// given retry policy. Per-cell seeds are derived from the rate index so
/// the sweep is deterministic and each cell independent. A rate of 0
/// runs the reliable engine (the §4 baseline).
pub fn sweep_fault_rates(
    dag: &Dag,
    a: &PolicySpec,
    b: &PolicySpec,
    model: &GridModel,
    rates: &[f64],
    retry: RetryPolicy,
    plan: &ReplicationPlan,
) -> Vec<FaultSweepCell> {
    rates
        .iter()
        .enumerate()
        .map(|(i, &fault_rate)| {
            let cell_plan = ReplicationPlan {
                seed: plan.seed.wrapping_add((i as u64) << 16),
                ..*plan
            };
            let faults = (fault_rate > 0.0).then(|| FaultConfig {
                model: FaultModel::with_rate(fault_rate),
                retry,
            });
            let result = compare_policies_with(dag, a, b, model, faults.as_ref(), &cell_plan);
            FaultSweepCell { fault_rate, result }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_core::prio::prioritize;

    #[test]
    fn paper_grid_dimensions() {
        assert_eq!(paper_mu_bits().len(), 7);
        assert_eq!(paper_mu_bss().len(), 17);
        assert_eq!(paper_mu_bits()[0], 1e-3);
        assert_eq!(paper_mu_bits()[6], 1e3);
        assert_eq!(paper_mu_bss()[0], 1.0);
        assert_eq!(paper_mu_bss()[16], 65536.0);
    }

    #[test]
    fn tiny_sweep_runs_all_cells_in_order() {
        let dag = prio_workloads::classic::fork_join(4);
        let prio = PolicySpec::Oblivious(prioritize(&dag).unwrap().schedule);
        let plan = ReplicationPlan {
            p: 3,
            q: 2,
            seed: 1,
            threads: 0,
        };
        let mut seen = Vec::new();
        let cells = sweep(
            &dag,
            &prio,
            &PolicySpec::Fifo,
            &[0.1, 1.0],
            &[1.0, 4.0],
            &plan,
            |c| seen.push((c.mu_bit, c.mu_bs)),
        );
        assert_eq!(cells.len(), 4);
        assert_eq!(seen, vec![(0.1, 1.0), (0.1, 4.0), (1.0, 1.0), (1.0, 4.0)]);
        for c in &cells {
            assert!(c.result.execution_time_ratio.is_some());
        }
    }

    #[test]
    fn fault_sweep_covers_every_rate_and_reports_wasted_work() {
        let dag = prio_workloads::airsn::airsn(6);
        let prio = PolicySpec::Oblivious(prioritize(&dag).unwrap().schedule);
        let plan = ReplicationPlan {
            p: 4,
            q: 3,
            seed: 7,
            threads: 0,
        };
        let cells = sweep_fault_rates(
            &dag,
            &prio,
            &PolicySpec::Fifo,
            &GridModel::paper(1.0, 4.0),
            &[0.0, 0.1, 0.3],
            RetryPolicy::dagman(8),
            &plan,
        );
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].fault_rate, 0.0);
        // The baseline cell is failure-free: no wasted-work ratio exists.
        assert!(cells[0].result.wasted_work_ratio.is_none());
        assert!(cells[0]
            .result
            .a
            .failed_attempts
            .samples()
            .iter()
            .all(|&f| f == 0.0));
        // Faulty cells report makespans and (at rate 0.3) wasted work.
        for c in &cells {
            assert!(
                c.result.execution_time_ratio.is_some(),
                "rate {}",
                c.fault_rate
            );
        }
        assert!(cells[2]
            .result
            .b
            .wasted_work
            .samples()
            .iter()
            .any(|&w| w > 0.0));
    }
}
