//! Replication: building empirical sampling distributions from many
//! simulation runs (§4.2).
//!
//! A *sample* is the average of `q` independent simulated measurements;
//! `p` samples form the empirical sampling distribution of each metric.
//! Replications are embarrassingly parallel: worker threads claim run
//! indices from a shared atomic counter, and every run's seed is derived
//! deterministically from the plan's master seed and the run index, so the
//! result is bit-identical regardless of thread count.

use crate::engine::simulate_streamed;
use crate::fault::FaultConfig;
use crate::model::GridModel;
use crate::policy::PolicySpec;
use crate::trace::NoTrace;
use prio_graph::Dag;
use prio_stats::rng::derive_seed;
use prio_stats::SamplingDistribution;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many runs to perform and how to seed them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationPlan {
    /// Number of samples (paper: ~300).
    pub p: usize,
    /// Measurements averaged per sample (paper: 300).
    pub q: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 = use available parallelism).
    pub threads: usize,
}

impl ReplicationPlan {
    /// A small default plan suitable for tests and quick sweeps.
    pub fn quick(seed: u64) -> Self {
        ReplicationPlan {
            p: 20,
            q: 5,
            seed,
            threads: 0,
        }
    }

    /// The paper's plan (p = 300 samples of q = 300 measurements).
    pub fn paper(seed: u64) -> Self {
        ReplicationPlan {
            p: 300,
            q: 300,
            seed,
            threads: 0,
        }
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// The per-metric empirical sampling distributions of one policy.
#[derive(Debug, Clone)]
pub struct MetricDistributions {
    /// Sampling distribution of the mean execution time.
    pub execution_time: SamplingDistribution,
    /// Sampling distribution of the mean probability of stalling.
    pub stalling: SamplingDistribution,
    /// Sampling distribution of the mean utilization.
    pub utilization: SamplingDistribution,
    /// Sampling distribution of the mean failed-attempt count per run
    /// (all-zero without faults).
    pub failed_attempts: SamplingDistribution,
    /// Sampling distribution of the mean wasted work per run — simulated
    /// time spent on attempts that later failed (all-zero without
    /// faults).
    pub wasted_work: SamplingDistribution,
}

/// Runs `p × q` simulations of `dag` under `policy`/`model` and aggregates
/// them into per-metric sampling distributions.
pub fn sampling_distributions(
    dag: &Dag,
    policy: &PolicySpec,
    model: &GridModel,
    plan: &ReplicationPlan,
) -> MetricDistributions {
    sampling_distributions_with(dag, policy, model, None, plan)
}

/// Like [`sampling_distributions`], but each run executes under the
/// given fault configuration. `None` (or an inactive config) is the
/// reliable grid, with identical seeds and measurements.
pub fn sampling_distributions_with(
    dag: &Dag,
    policy: &PolicySpec,
    model: &GridModel,
    faults: Option<&FaultConfig>,
    plan: &ReplicationPlan,
) -> MetricDistributions {
    assert!(
        plan.p > 0 && plan.q > 0,
        "plan must run at least one simulation"
    );
    let total = plan.p * plan.q;
    let mut measurements: Vec<[f64; 5]> = vec![[0.0; 5]; total];

    let threads = plan.effective_threads().min(total);
    if threads <= 1 {
        for (i, slot) in measurements.iter_mut().enumerate() {
            *slot = run_one(dag, policy, model, faults, plan.seed, i);
        }
    } else {
        let next = AtomicUsize::new(0);
        let chunks = std::sync::Mutex::new(Vec::<(usize, [f64; 5])>::with_capacity(total));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let (next, chunks) = (&next, &chunks);
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        // Relaxed: the counter publishes no data; results
                        // reach the caller through the mutex and the join.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        local.push((i, run_one(dag, policy, model, faults, plan.seed, i)));
                    }
                    chunks.lock().expect("collector lock").extend(local);
                });
            }
        });
        for (i, m) in chunks.into_inner().expect("collector lock") {
            measurements[i] = m;
        }
    }

    let column = |k: usize| -> Vec<f64> { measurements.iter().map(|m| m[k]).collect() };
    MetricDistributions {
        execution_time: SamplingDistribution::from_measurements(&column(0), plan.p, plan.q),
        stalling: SamplingDistribution::from_measurements(&column(1), plan.p, plan.q),
        utilization: SamplingDistribution::from_measurements(&column(2), plan.p, plan.q),
        failed_attempts: SamplingDistribution::from_measurements(&column(3), plan.p, plan.q),
        wasted_work: SamplingDistribution::from_measurements(&column(4), plan.p, plan.q),
    }
}

fn run_one(
    dag: &Dag,
    policy: &PolicySpec,
    model: &GridModel,
    faults: Option<&FaultConfig>,
    master: u64,
    index: usize,
) -> [f64; 5] {
    let seed = derive_seed(master, index as u64);
    let out = simulate_streamed(dag, policy, model, faults, seed, &NoTrace);
    let [t, s, u] = out.metrics().as_array();
    [t, s, u, out.failed_attempts as f64, out.wasted_time]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dag() -> Dag {
        Dag::from_arcs(6, &[(0, 2), (1, 2), (2, 3), (2, 4), (4, 5)]).unwrap()
    }

    #[test]
    fn distributions_have_plan_shape() {
        let dag = small_dag();
        let plan = ReplicationPlan {
            p: 4,
            q: 3,
            seed: 1,
            threads: 1,
        };
        let d = sampling_distributions(&dag, &PolicySpec::Fifo, &GridModel::paper(1.0, 2.0), &plan);
        assert_eq!(d.execution_time.p(), 4);
        assert_eq!(d.execution_time.q(), 3);
        assert_eq!(d.stalling.p(), 4);
        assert_eq!(d.utilization.p(), 4);
    }

    #[test]
    fn parallel_equals_serial() {
        let dag = small_dag();
        let model = GridModel::paper(0.7, 3.0);
        let serial = ReplicationPlan {
            p: 6,
            q: 4,
            seed: 9,
            threads: 1,
        };
        let parallel = ReplicationPlan {
            p: 6,
            q: 4,
            seed: 9,
            threads: 4,
        };
        let a = sampling_distributions(&dag, &PolicySpec::Fifo, &model, &serial);
        let b = sampling_distributions(&dag, &PolicySpec::Fifo, &model, &parallel);
        assert_eq!(a.execution_time.samples(), b.execution_time.samples());
        assert_eq!(a.stalling.samples(), b.stalling.samples());
        assert_eq!(a.utilization.samples(), b.utilization.samples());
    }

    #[test]
    fn threaded_runs_accumulate_shared_counters() {
        // The multi-threaded replication path increments the global run
        // counters from every worker thread; none may be lost. Deltas are
        // used because the registry is process-global and other tests run
        // concurrently (≥ not = for the same reason).
        let dag = small_dag();
        let model = GridModel::paper(0.7, 3.0);
        let runs_before = prio_obs::counter!("sim.engine.runs").get();
        let events_before = prio_obs::counter!("sim.engine.events_processed").get();
        let plan = ReplicationPlan {
            p: 8,
            q: 4,
            seed: 11,
            threads: 4,
        };
        let _ = sampling_distributions(&dag, &PolicySpec::Fifo, &model, &plan);
        let runs = prio_obs::counter!("sim.engine.runs").get() - runs_before;
        let events = prio_obs::counter!("sim.engine.events_processed").get() - events_before;
        assert!(
            runs >= 32,
            "8×4 threaded runs must all be counted, got {runs}"
        );
        assert!(
            events >= 32,
            "every run processes at least one event, got {events}"
        );
        assert!(
            prio_obs::gauge!("sim.engine.completion_heap_high_water").get() >= 1,
            "some run must have had a job in flight"
        );
    }

    #[test]
    fn faulty_replication_is_thread_count_invariant() {
        use crate::fault::{FaultConfig, FaultModel, RetryPolicy};
        let dag = small_dag();
        let model = GridModel::paper(0.7, 3.0);
        let faults = FaultConfig {
            model: FaultModel::with_rate(0.3),
            retry: RetryPolicy::dagman(5),
        };
        let serial = ReplicationPlan {
            p: 6,
            q: 4,
            seed: 9,
            threads: 1,
        };
        let parallel = ReplicationPlan {
            threads: 4,
            ..serial
        };
        let a =
            sampling_distributions_with(&dag, &PolicySpec::Fifo, &model, Some(&faults), &serial);
        let b =
            sampling_distributions_with(&dag, &PolicySpec::Fifo, &model, Some(&faults), &parallel);
        assert_eq!(a.execution_time.samples(), b.execution_time.samples());
        assert_eq!(a.failed_attempts.samples(), b.failed_attempts.samples());
        assert_eq!(a.wasted_work.samples(), b.wasted_work.samples());
        // At rate 0.3 some run in 24 must have failed an attempt.
        assert!(a.failed_attempts.samples().iter().any(|&f| f > 0.0));
        assert!(a.wasted_work.samples().iter().any(|&w| w > 0.0));
    }

    #[test]
    fn inactive_faults_reproduce_reliable_distributions() {
        let dag = small_dag();
        let model = GridModel::paper(0.7, 3.0);
        let plan = ReplicationPlan {
            p: 4,
            q: 3,
            seed: 2,
            threads: 1,
        };
        let plain = sampling_distributions(&dag, &PolicySpec::Fifo, &model, &plan);
        let gated = sampling_distributions_with(
            &dag,
            &PolicySpec::Fifo,
            &model,
            Some(&crate::fault::FaultConfig::none()),
            &plan,
        );
        assert_eq!(
            plain.execution_time.samples(),
            gated.execution_time.samples()
        );
        assert!(plain.failed_attempts.samples().iter().all(|&f| f == 0.0));
        assert!(plain.wasted_work.samples().iter().all(|&w| w == 0.0));
    }

    #[test]
    fn different_seeds_differ() {
        let dag = small_dag();
        let model = GridModel::paper(0.7, 3.0);
        let a = sampling_distributions(
            &dag,
            &PolicySpec::Fifo,
            &model,
            &ReplicationPlan {
                p: 3,
                q: 2,
                seed: 1,
                threads: 1,
            },
        );
        let b = sampling_distributions(
            &dag,
            &PolicySpec::Fifo,
            &model,
            &ReplicationPlan {
                p: 3,
                q: 2,
                seed: 2,
                threads: 1,
            },
        );
        assert_ne!(a.execution_time.samples(), b.execution_time.samples());
    }

    #[test]
    fn sample_means_are_positive_times() {
        let dag = small_dag();
        let plan = ReplicationPlan::quick(5);
        let d = sampling_distributions(&dag, &PolicySpec::Fifo, &GridModel::paper(1.0, 4.0), &plan);
        assert!(d.execution_time.samples().iter().all(|&t| t > 0.0));
        assert!(d
            .utilization
            .samples()
            .iter()
            .all(|&u| (0.0..=1.0).contains(&u)));
    }
}
