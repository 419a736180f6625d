//! Montage-like dags at arbitrary job counts, for measurements that need
//! the paper's structure at sizes the paper did not run.

use prio_graph::Dag;
use prio_workloads::montage::{montage, MontageParams};

/// Montage jobs at the paper's default parameters; tier targets scale
/// against this.
const MONTAGE_PAPER_JOBS: f64 = 7_881.0;

/// A Montage-like dag with roughly `target` jobs.
pub fn montage_tier(target: usize) -> Dag {
    montage(MontageParams::scaled(target as f64 / MONTAGE_PAPER_JOBS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_hit_their_targets() {
        for tier in [1_000, 10_000] {
            let jobs = montage_tier(tier).num_nodes() as f64;
            assert!(
                (tier as f64 * 0.8..=tier as f64 * 1.25).contains(&jobs),
                "tier {tier} produced {jobs} jobs"
            );
        }
        assert_eq!(montage_tier(1_000), montage_tier(1_000));
    }
}
