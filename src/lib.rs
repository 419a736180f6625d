//! # dagprio — a tool for prioritizing DAGMan jobs, and its evaluation
//!
//! A from-scratch Rust reproduction of Malewicz, Foster, Rosenberg and
//! Wilde, *"A Tool for Prioritizing DAGMan Jobs and Its Evaluation"*
//! (2006): an IC-optimality-inspired scheduling heuristic that prioritizes
//! the interdependent jobs of a Condor DAGMan input file so that the
//! number of *eligible* jobs stays as high as possible throughout the
//! computation, plus the stochastic grid simulator used to evaluate it.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`graph`] — DAG substrate (topological sort, transitive reduction,
//!   bipartite analysis, DOT export);
//! * [`core`] — the scheduling heuristic (decomposition, bipartite family
//!   catalog, `⊵_r` priorities, greedy combine) and the FIFO baseline;
//! * [`ir`] — the workflow intermediate representation every frontend
//!   imports into and every consumer (scheduler, simulator, benches)
//!   reads: [`ir::Workflow`], the [`ir::Frontend`] trait, and the
//!   [`ir::FormatRegistry`];
//! * [`dagman`] — the DAGMan frontend: input files and job-submit
//!   description files, parsing, priority instrumentation, and
//!   [`dagman::registry()`] assembling all built-in frontends
//!   (DAGMan, JSON, edge list);
//! * [`workloads`] — synthetic AIRSN / Inspiral / Montage / SDSS dags;
//! * [`stats`] — distributions, sampling distributions, ratio confidence
//!   intervals;
//! * [`sim`] — the event-driven grid simulator and the §4 experiment
//!   harness;
//! * [`obs`] — zero-dependency observability: phase-timing spans, atomic
//!   counters, and structured JSONL event traces across the pipeline;
//! * [`serve`] — the `prio serve` daemon: line-delimited JSON requests
//!   over TCP or stdio, a bounded worker queue with load shedding, and a
//!   content-hash cache of prioritized results.
//!
//! ## Quickstart
//!
//! ```
//! use dagprio::prioritize_dagman_text;
//!
//! let input = "\
//! JOB a a.submit
//! JOB b b.submit
//! JOB c c.submit
//! JOB d d.submit
//! JOB e e.submit
//! PARENT a CHILD b
//! PARENT c CHILD d e
//! ";
//! let out = prioritize_dagman_text(input).unwrap();
//! assert_eq!(out.schedule_names, ["c", "a", "b", "d", "e"]);
//! assert!(out.instrumented.contains("VARS c jobpriority=\"5\""));
//! ```

pub use prio_core as core;
pub use prio_dagman as dagman;
pub use prio_graph as graph;
pub use prio_ir as ir;
pub use prio_obs as obs;
pub use prio_serve as serve;
pub use prio_sim as sim;
pub use prio_stats as stats;
pub use prio_workloads as workloads;

use prio_core::PrioContext;
use prio_dagman::pipeline::{parse_file, FileOptions};
use prio_dagman::DagmanFrontend;
use prio_ir::Workflow;

/// The result of running the `prio` pipeline over DAGMan text.
#[derive(Debug, Clone)]
pub struct PrioritizedDagman {
    /// The instrumented DAGMan file text (with `jobpriority` VARS).
    pub instrumented: String,
    /// Job names in PRIO schedule order.
    pub schedule_names: Vec<String>,
    /// The extracted dependency dag.
    pub dag: prio_graph::Dag,
    /// The full scheduler output (components, superdag, statistics).
    pub result: prio_core::PrioResult,
}

/// One-call convenience mirroring the `prio` tool: parse DAGMan text, run
/// the scheduling heuristic, and return the instrumented text.
///
/// Failures carry stage provenance: parse errors surface as
/// [`prio_core::PrioError::Parse`], pipeline bugs as
/// [`prio_core::PrioError::InternalInvariant`].
pub fn prioritize_dagman_text(text: &str) -> Result<PrioritizedDagman, prio_core::PrioError> {
    let out = parse_file(&DagmanFrontend, text.to_string())?
        .prioritize(&FileOptions::default(), &mut PrioContext::new())?;
    let dag = out.dag().clone();
    let schedule_names = out
        .result
        .schedule
        .order()
        .iter()
        .map(|&u| dag.label(u).to_string())
        .collect();
    Ok(PrioritizedDagman {
        instrumented: out.render(),
        schedule_names,
        dag,
        result: out.result,
    })
}

/// One-call convenience over the IR path: import `text` through the
/// auto-detected (or named) frontend, prioritize, and export the same
/// format with priorities attached. `path` is an optional file name used
/// for extension-based detection; a `format` of `None` or `"auto"`
/// detects. DAGMan output is the frontend's canonical export, not the
/// line-faithful diff [`prioritize_dagman_text`] writes.
pub fn prioritize_workflow_text(
    text: &str,
    path: Option<&str>,
    format: Option<&str>,
) -> Result<(Workflow, String), prio_core::PrioError> {
    let reg = prio_dagman::registry();
    let frontend = reg.resolve(format, path, text)?;
    let workflow = frontend.import(text)?;
    let result = prio_core::prioritize(&workflow)?;
    let rendered = frontend.export(&workflow, &result.priorities());
    Ok((workflow, rendered))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_dagman::parse::parse_dagman;

    #[test]
    fn fig3_roundtrip() {
        let input = "JOB a a.sub\nJOB b b.sub\nJOB c c.sub\nJOB d d.sub\nJOB e e.sub\nPARENT a CHILD b\nPARENT c CHILD d e\n";
        let out = prioritize_dagman_text(input).unwrap();
        assert_eq!(out.schedule_names, ["c", "a", "b", "d", "e"]);
        assert_eq!(out.dag.num_nodes(), 5);
        assert_eq!(out.result.stats.num_components, 2);
        // Instrumented text parses back and carries the priorities.
        let reparsed = parse_dagman(&out.instrumented).unwrap();
        assert_eq!(
            reparsed.vars_value("c", "jobpriority").as_deref(),
            Some("5")
        );
        assert_eq!(
            reparsed.vars_value("e", "jobpriority").as_deref(),
            Some("1")
        );
    }

    #[test]
    fn workflow_text_path_handles_all_formats() {
        let input = "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\n";
        let (wf, rendered) = prioritize_workflow_text(input, Some("x.dag"), None).unwrap();
        assert_eq!(wf.num_jobs(), 2);
        assert!(rendered.contains("jobpriority=\"2\""));
        let (_, edges) = prioritize_workflow_text("a\tb\n", None, Some("edges")).unwrap();
        assert!(edges.contains("@priority\ta\t2"), "{edges}");
        assert!(prioritize_workflow_text("a\tb\n", None, Some("nope")).is_err());
        let (_, auto) = prioritize_workflow_text("a\tb\n", None, Some("auto")).unwrap();
        assert_eq!(auto, edges, "`auto` detects, like serve");
    }

    #[test]
    fn parse_errors_propagate() {
        assert!(prioritize_dagman_text("JOB incomplete").is_err());
        assert!(
            prioritize_dagman_text("JOB a x\nJOB b x\nPARENT a CHILD b\nPARENT b CHILD a\n")
                .is_err()
        );
    }
}
