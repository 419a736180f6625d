//! The evaluation suite: the four scientific dags at paper scale and at
//! reduced scale for the cheaper simulation sweeps.

use crate::{airsn, inspiral, montage, sdss};
use prio_graph::Dag;
use prio_ir::Workflow;
use std::fmt;

/// A named workload, carried as IR so every downstream consumer (sim,
/// bench, CLI) takes the same type a frontend import produces.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name, e.g. `"AIRSN"`.
    pub name: &'static str,
    /// The workflow, tagged `FormatId::Synthetic`.
    pub workflow: Workflow,
}

impl Workload {
    fn new(name: &'static str, dag: Dag) -> Self {
        Workload {
            name,
            workflow: Workflow::synthetic(dag),
        }
    }

    /// The underlying dag.
    pub fn dag(&self) -> &Dag {
        self.workflow.dag()
    }
}

/// The suite's display names, in suite order.
const NAMES: [&str; 4] = ["AIRSN", "Inspiral", "Montage", "SDSS"];

/// The named workload's paper-size dag (`name` is one of [`NAMES`]).
fn paper_dag(name: &str) -> Dag {
    match name {
        "AIRSN" => airsn::airsn_paper(),
        "Inspiral" => inspiral::inspiral_paper(),
        "Montage" => montage::montage_paper(),
        _ => sdss::sdss_paper(),
    }
}

/// The named workload's dag at roughly `scale` times the paper's size
/// (AIRSN by width, the others by their stage parameters); `name` is one
/// of [`NAMES`].
fn scaled_dag(name: &str, scale: f64) -> Dag {
    match name {
        "AIRSN" => airsn::airsn(((airsn::PAPER_WIDTH as f64 * scale).round() as usize).max(4)),
        "Inspiral" => inspiral::inspiral(inspiral::InspiralParams::scaled(scale)),
        "Montage" => montage::montage(montage::MontageParams::scaled(scale)),
        _ => sdss::sdss(sdss::SdssParams::scaled(scale)),
    }
}

/// The four scientific dags at the paper's exact sizes:
/// AIRSN 773, Inspiral 2,988, Montage 7,881, SDSS 48,013.
pub fn paper_suite() -> Vec<Workload> {
    NAMES
        .iter()
        .map(|&name| Workload::new(name, paper_dag(name)))
        .collect()
}

/// The suite scaled to roughly `fraction` of the paper's sizes (AIRSN by
/// width, the others by their stage parameters). Used for laptop-scale
/// simulation sweeps; the structural features (fringed double umbrella,
/// non-bipartite ring, shared-children bipartite stages) are preserved.
pub fn scaled_suite(fraction: f64) -> Vec<Workload> {
    assert!(fraction > 0.0 && fraction <= 1.0);
    NAMES
        .iter()
        .map(|&name| Workload::new(name, scaled_dag(name, fraction)))
        .collect()
}

/// Why [`scaled_workload`] rejected its arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// No suite workload has this (case-insensitive) name.
    UnknownName(String),
    /// The scale is not a finite positive number.
    BadScale(f64),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::UnknownName(name) => write!(f, "unknown workload {name:?}"),
            WorkloadError::BadScale(scale) => {
                write!(f, "scale must be a finite number above 0, got {scale}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// One workload by (case-insensitive) name at `scale` times the paper's
/// size, building only that dag. Scale 1 is the paper instance; any other
/// positive scale, below or above 1, goes through the generators' scaled
/// parameters (AIRSN by width). A non-finite or non-positive scale is an
/// error.
pub fn scaled_workload(name: &str, scale: f64) -> Result<Workload, WorkloadError> {
    let &name = NAMES
        .iter()
        .find(|n| n.eq_ignore_ascii_case(name))
        .ok_or_else(|| WorkloadError::UnknownName(name.to_string()))?;
    if !(scale.is_finite() && scale > 0.0) {
        return Err(WorkloadError::BadScale(scale));
    }
    let dag = if scale == 1.0 {
        paper_dag(name)
    } else {
        scaled_dag(name, scale)
    };
    Ok(Workload::new(name, dag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_ir::FormatId;

    #[test]
    fn paper_suite_sizes() {
        let sizes: Vec<(&str, usize)> = paper_suite()
            .iter()
            .map(|w| (w.name, w.dag().num_nodes()))
            .collect();
        assert_eq!(
            sizes,
            vec![
                ("AIRSN", 773),
                ("Inspiral", 2988),
                ("Montage", 7881),
                ("SDSS", 48013)
            ]
        );
    }

    #[test]
    fn workloads_are_synthetic_workflows() {
        let w = scaled_workload("AIRSN", 1.0).unwrap();
        assert_eq!(w.workflow.source(), FormatId::Synthetic);
        assert!(w.workflow.priorities().is_empty());
        // Deref: Dag methods are reachable through the workflow.
        assert_eq!(w.workflow.num_nodes(), 773);
    }

    #[test]
    fn scaled_suite_is_smaller_but_structured() {
        let scaled = scaled_suite(0.1);
        let paper = paper_suite();
        for (s, p) in scaled.iter().zip(&paper) {
            assert_eq!(s.name, p.name);
            assert!(s.dag().num_nodes() < p.dag().num_nodes());
            assert!(s.dag().num_nodes() > 10);
        }
    }

    #[test]
    fn scaled_workload_builds_the_named_dag_at_any_positive_scale() {
        let paper = scaled_workload("inspiral", 1.0).unwrap();
        assert_eq!(paper.name, "Inspiral");
        assert_eq!(paper.dag().num_nodes(), 2988);
        assert_eq!(
            scaled_workload("INSPIRAL", 8.0).unwrap().dag().num_nodes(),
            23876
        );
        // Scale 1 is the paper instance, not `SdssParams::scaled(1.0)`.
        assert_eq!(
            scaled_workload("sdss", 1.0).unwrap().dag().num_nodes(),
            48013
        );
        let small = scaled_workload("montage", 0.1).unwrap();
        let suite = scaled_suite(0.1);
        assert!(small.dag() == suite[2].dag());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                scaled_workload("airsn", bad),
                Err(WorkloadError::BadScale(_))
            ));
        }
        assert_eq!(
            scaled_workload("nope", 2.0).unwrap_err(),
            WorkloadError::UnknownName("nope".into())
        );
    }

    #[test]
    fn lookup_by_name() {
        let paper = |name| scaled_workload(name, 1.0).ok();
        assert_eq!(paper("airsn").unwrap().dag().num_nodes(), 773);
        assert_eq!(paper("SDSS").unwrap().dag().num_nodes(), 48013);
        assert!(paper("nope").is_none());
    }
}
