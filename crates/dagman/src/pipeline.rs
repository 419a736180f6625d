//! The per-file pipeline: one workflow file's text in, its prioritized
//! text out (§3.2, Fig. 3).
//!
//! [`prioritize_file`] is the one place that composes a frontend with the
//! scheduler for a whole file. DAGMan input gets the paper's line-faithful
//! treatment: `jobpriority` statements are inserted into a minimal diff of
//! the original text, and the submit files that must gain
//! `priority = $(jobpriority)` are listed for the caller to edit. Every
//! other format is imported into the IR, prioritized, and exported in the
//! same format with the priorities attached.

use crate::instrument::{instrument_nodes, InstrumentMode};
use crate::parse::parse_dagman;
use crate::write::write_dagman;
use prio_core::{PrioContext, PrioError, PrioOptions, PrioResult, Prioritizer};
use prio_graph::Dag;
use prio_ir::{FormatId, Frontend};

/// How one file is prioritized.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileOptions {
    /// Scheduler options (exhaustive-search limit, ablations).
    pub prio: PrioOptions,
    /// How priorities are written into DAGMan files (ignored by other
    /// formats).
    pub mode: InstrumentMode,
}

/// One prioritized workflow file.
#[derive(Debug, Clone)]
pub struct PrioritizedFile {
    /// The dependency dag the priorities were computed on.
    pub dag: Dag,
    /// The full scheduler output.
    pub result: PrioResult,
    /// The rendered output: the instrumented DAGMan text, or the input
    /// format's export with priorities attached.
    pub text: String,
    /// The distinct submit files (as written in the `JOB` statements, in
    /// first-reference order) that need `priority = $(jobpriority)`.
    /// Non-empty only for DAGMan input in [`InstrumentMode::VarsMacro`],
    /// the one mode whose `VARS` define that macro.
    pub submit_files: Vec<String>,
}

/// Prioritizes the workflow `text` read through `frontend`, reusing the
/// scratch buffers in `ctx`.
///
/// Errors carry stage provenance: a malformed file, an unknown or
/// duplicate job and a dependency cycle fail in stage `parse`; later
/// stages fail only on pipeline bugs.
pub fn prioritize_file(
    frontend: &dyn Frontend,
    text: &str,
    opts: &FileOptions,
    ctx: &mut PrioContext,
) -> Result<PrioritizedFile, PrioError> {
    let prioritizer = Prioritizer::with_options(opts.prio);
    if frontend.id() != FormatId::Dagman {
        let workflow = frontend.import(text)?;
        let result = prioritizer.prioritize_workflow_in(&workflow, ctx)?;
        let text = frontend.export(&workflow, &result.priorities());
        return Ok(PrioritizedFile {
            dag: workflow.into_dag(),
            result,
            text,
            submit_files: Vec::new(),
        });
    }
    let mut file = parse_dagman(text)?;
    let dag = file.to_dag()?;
    let result = prioritizer.prioritize_in(&dag, ctx)?;
    // The dag's node ids are the file's: the i-th of n scheduled jobs gets
    // priority n − i without a name lookup.
    let order = result.schedule.order();
    let mut by_node = vec![None; dag.num_nodes()];
    for (i, &u) in order.iter().enumerate() {
        by_node[u.index()] = Some((order.len() - i) as u32);
    }
    instrument_nodes(&mut file, &by_node, opts.mode)?;
    let submit_files = match opts.mode {
        InstrumentMode::VarsMacro => file.submit_files().map(str::to_string).collect(),
        InstrumentMode::PriorityStatement => Vec::new(),
    };
    Ok(PrioritizedFile {
        dag,
        result,
        text: write_dagman(&file),
        submit_files,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{registry, DagmanFrontend};

    const FIG3: &str = "JOB a a.sub\nJOB b b.sub\nJOB c c.sub\nJOB d d.sub\nJOB e c.sub\nPARENT a CHILD b\nPARENT c CHILD d e\n";

    #[test]
    fn dagman_input_is_instrumented_in_place() {
        let out = prioritize_file(
            &DagmanFrontend,
            FIG3,
            &FileOptions::default(),
            &mut PrioContext::new(),
        )
        .unwrap();
        assert_eq!(out.dag.num_nodes(), 5);
        assert!(out
            .text
            .starts_with("JOB a a.sub\nVARS a jobpriority=\"4\"\n"));
        assert_eq!(out.submit_files, ["a.sub", "b.sub", "c.sub", "d.sub"]);
    }

    #[test]
    fn priority_statements_need_no_submit_edits() {
        let opts = FileOptions {
            mode: InstrumentMode::PriorityStatement,
            ..FileOptions::default()
        };
        let out = prioritize_file(&DagmanFrontend, FIG3, &opts, &mut PrioContext::new()).unwrap();
        assert!(out.text.contains("PRIORITY c 5\n"));
        assert!(!out.text.contains("VARS"));
        assert!(out.submit_files.is_empty());
    }

    #[test]
    fn other_formats_round_trip_through_their_frontend() {
        let reg = registry();
        let edges = reg.get(FormatId::Edges).unwrap();
        let mut ctx = PrioContext::new();
        let out =
            prioritize_file(edges, "a\tb\na\tc\n", &FileOptions::default(), &mut ctx).unwrap();
        assert!(out.text.contains("@priority\ta\t3"), "{}", out.text);
        assert!(out.submit_files.is_empty());
        let err = prioritize_file(edges, "a\tb\nb\ta\n", &FileOptions::default(), &mut ctx);
        assert!(err.is_err_and(|e| e.stage() == prio_ir::Stage::Parse));
    }
}
