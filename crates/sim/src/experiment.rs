//! Policy comparison: ratio confidence intervals (§4.2).
//!
//! For each metric the ratio `policy A / policy B` is estimated from the
//! two empirical sampling distributions by forming all `p²` pairwise
//! ratios, trimming 2.5% from each tail for a 95% confidence interval, and
//! reporting the median (the bold dots of Figs. 6–9). With A = PRIO and
//! B = FIFO, a ratio below 1 for execution time or stalling — or above 1
//! for utilization — means PRIO wins.

use crate::fault::FaultConfig;
use crate::model::GridModel;
use crate::policy::PolicySpec;
use crate::replicate::{sampling_distributions_with, MetricDistributions, ReplicationPlan};
use prio_graph::Dag;
use prio_stats::ConfidenceInterval;

/// The outcome of comparing two policies on one model cell.
#[derive(Debug, Clone)]
pub struct ComparisonResult {
    /// Sampling distributions under policy A.
    pub a: MetricDistributions,
    /// Sampling distributions under policy B.
    pub b: MetricDistributions,
    /// 95% CI of the execution-time ratio A/B (`None` if some B sample is
    /// zero, per the paper).
    pub execution_time_ratio: Option<ConfidenceInterval>,
    /// 95% CI of the stalling-probability ratio A/B.
    pub stalling_ratio: Option<ConfidenceInterval>,
    /// 95% CI of the utilization ratio A/B.
    pub utilization_ratio: Option<ConfidenceInterval>,
    /// 95% CI of the wasted-work ratio A/B (`None` on failure-free
    /// runs, where every B sample is zero).
    pub wasted_work_ratio: Option<ConfidenceInterval>,
}

/// Runs both policies on the same model cell and computes the ratio
/// confidence intervals. The two policies use *independent* randomness
/// (distinct derived seed streams), matching the paper's independent
/// sampling distributions.
pub fn compare_policies(
    dag: &Dag,
    a: &PolicySpec,
    b: &PolicySpec,
    model: &GridModel,
    plan: &ReplicationPlan,
) -> ComparisonResult {
    compare_policies_with(dag, a, b, model, None, plan)
}

/// Like [`compare_policies`], but both policies run under the given
/// fault configuration — the §4-under-faults experiment. `None` (or an
/// inactive config) reproduces the reliable comparison exactly.
pub fn compare_policies_with(
    dag: &Dag,
    a: &PolicySpec,
    b: &PolicySpec,
    model: &GridModel,
    faults: Option<&FaultConfig>,
    plan: &ReplicationPlan,
) -> ComparisonResult {
    let plan_a = ReplicationPlan {
        seed: plan.seed ^ 0xA11CE,
        ..*plan
    };
    let plan_b = ReplicationPlan {
        seed: plan.seed ^ 0xB0B,
        ..*plan
    };
    let da = sampling_distributions_with(dag, a, model, faults, &plan_a);
    let db = sampling_distributions_with(dag, b, model, faults, &plan_b);
    let execution_time_ratio = da.execution_time.ratio_ci(&db.execution_time);
    let stalling_ratio = da.stalling.ratio_ci(&db.stalling);
    let utilization_ratio = da.utilization.ratio_ci(&db.utilization);
    let wasted_work_ratio = da.wasted_work.ratio_ci(&db.wasted_work);
    ComparisonResult {
        a: da,
        b: db,
        execution_time_ratio,
        stalling_ratio,
        utilization_ratio,
        wasted_work_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_core::fifo::fifo_schedule;
    use prio_core::prio::prioritize;

    #[test]
    fn identical_policies_give_ratios_near_one() {
        let dag = Dag::from_arcs(6, &[(0, 2), (1, 2), (2, 3), (2, 4), (4, 5)]).unwrap();
        let plan = ReplicationPlan {
            p: 12,
            q: 8,
            seed: 3,
            threads: 0,
        };
        let model = GridModel::paper(1.0, 2.0);
        let r = compare_policies(&dag, &PolicySpec::Fifo, &PolicySpec::Fifo, &model, &plan);
        let ci = r.execution_time_ratio.unwrap();
        assert!(ci.contains(1.0), "{ci}");
        assert!((ci.median - 1.0).abs() < 0.2, "{ci}");
    }

    #[test]
    fn prio_beats_fifo_on_a_fringed_umbrella() {
        // A miniature AIRSN: the structure where PRIO demonstrably wins.
        let dag = prio_workloads::airsn::airsn(12);
        let prio = prioritize(&dag).unwrap().schedule;
        let plan = ReplicationPlan {
            p: 16,
            q: 12,
            seed: 17,
            threads: 0,
        };
        // Medium batches, batches arriving at job-runtime pace: the
        // regime the paper identifies as PRIO-favourable.
        let model = GridModel::paper(1.0, 8.0);
        let r = compare_policies(
            &dag,
            &PolicySpec::Oblivious(prio),
            &PolicySpec::Fifo,
            &model,
            &plan,
        );
        let time = r.execution_time_ratio.unwrap();
        assert!(
            time.median < 1.0,
            "PRIO should be faster in the sweet spot: {time}"
        );
        let util = r.utilization_ratio.unwrap();
        assert!(util.median > 0.99, "PRIO should not waste workers: {util}");
    }

    #[test]
    fn fifo_vs_its_oblivious_freeze_is_close() {
        // FIFO frozen into an oblivious order behaves similarly to dynamic
        // FIFO under abundant workers (both become breadth-first).
        let dag = prio_workloads::classic::fork_join(6);
        let frozen = PolicySpec::Oblivious(fifo_schedule(&dag));
        let plan = ReplicationPlan {
            p: 10,
            q: 6,
            seed: 5,
            threads: 0,
        };
        let model = GridModel::paper(0.01, 64.0);
        let r = compare_policies(&dag, &frozen, &PolicySpec::Fifo, &model, &plan);
        let ci = r.execution_time_ratio.unwrap();
        assert!(ci.contains(1.0) || (ci.median - 1.0).abs() < 0.05, "{ci}");
    }
}
