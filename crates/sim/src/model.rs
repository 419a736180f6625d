//! The grid model parameters (§4.1).

use prio_stats::{Exponential, Geometric, TruncatedNormal};

/// What happens to worker requests the server cannot fill immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnfilledRequests {
    /// The paper's model: unfilled workers are "intercepted by other
    /// computations" and never come back.
    #[default]
    Discard,
    /// Ablation: unfilled workers park at the server and take the next
    /// job the moment it becomes eligible.
    Wait,
}

/// The stochastic grid model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridModel {
    /// Mean batch inter-arrival time `μ_BIT` (the first batch arrives at
    /// time 0).
    pub mean_batch_interarrival: f64,
    /// Mean batch size `μ_BS`.
    pub mean_batch_size: f64,
    /// Mean job running time (paper: 1).
    pub runtime_mean: f64,
    /// Standard deviation of the job running time (paper: 0.1).
    pub runtime_sd: f64,
    /// Fate of unfilled requests (paper: discard).
    pub unfilled: UnfilledRequests,
}

impl GridModel {
    /// The paper's model for a grid-sweep cell: job runtime `N(1, 0.1)`,
    /// geometric batch sizes.
    pub fn paper(mu_bit: f64, mu_bs: f64) -> GridModel {
        GridModel {
            mean_batch_interarrival: mu_bit,
            mean_batch_size: mu_bs,
            runtime_mean: 1.0,
            runtime_sd: 0.1,
            unfilled: UnfilledRequests::Discard,
        }
    }

    /// The paper's model with parked (rather than discarded) unfilled
    /// workers (rollover ablation).
    pub fn with_waiting_workers(mut self) -> GridModel {
        self.unfilled = UnfilledRequests::Wait;
        self
    }

    /// The batch inter-arrival distribution.
    pub fn interarrival(&self) -> Exponential {
        Exponential::new(self.mean_batch_interarrival)
    }

    /// The job runtime distribution (truncated to stay positive).
    pub fn runtime(&self) -> TruncatedNormal {
        TruncatedNormal::new(self.runtime_mean, self.runtime_sd, 1e-3)
    }

    /// The batch-size distribution, built once per run: geometric on
    /// {1, 2, …} with exact mean `μ_BS`, the discrete memoryless analog of
    /// the paper's "exponentially distributed" batch size.
    pub fn batch_size(&self) -> Geometric {
        Geometric::new(self.mean_batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_stats::seeded_rng;

    #[test]
    fn paper_model_defaults() {
        let m = GridModel::paper(1.0, 16.0);
        assert_eq!(m.runtime_mean, 1.0);
        assert_eq!(m.runtime_sd, 0.1);
        assert_eq!(m.batch_size().mean(), 16.0);
        assert_eq!(m.interarrival().mean(), 1.0);
    }

    #[test]
    fn batch_sizes_are_positive() {
        let mut rng = seeded_rng(1);
        let d = GridModel::paper(1.0, 4.0).batch_size();
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 1);
        }
    }

    #[test]
    fn geometric_batch_mean_tracks_parameter() {
        let mut rng = seeded_rng(2);
        let m = GridModel::paper(1.0, 64.0);
        let n = 20_000;
        let d = m.batch_size();
        let total: u64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 64.0).abs() / 64.0 < 0.05, "mean {mean}");
    }
}
