//! The per-file pipeline: one workflow file's text in, its prioritized
//! text out (§3.2, Fig. 3).
//!
//! This is the one place that composes a frontend with the scheduler for
//! a whole file, in three steps whose buffers the caller can free in
//! between: [`parse_file`] takes the text, [`ParsedFile::prioritize`]
//! borrows a scratch [`PrioContext`] only while the scheduler runs, and
//! [`PrioritizedFile::write_to`] streams the output. DAGMan input gets
//! the paper's line-faithful treatment: `jobpriority` statements are
//! inserted into a minimal diff of the original text, and the submit
//! files that must gain `priority = $(jobpriority)` are listed for the
//! caller to edit. Every other format is imported into the IR,
//! prioritized, and exported in the same format with the priorities
//! attached.

use crate::file::DagmanFile;
use crate::instrument::{instrument_nodes, InstrumentMode};
use crate::parse::parse_dagman_owned;
use crate::write::{write_dagman, write_dagman_to};
use prio_core::{PrioContext, PrioError, PrioOptions, PrioResult, Prioritizer};
use prio_graph::Dag;
use prio_ir::{FormatId, Frontend, Workflow};
use std::io;

/// How one file is prioritized.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileOptions {
    /// Scheduler options (exhaustive-search limit, ablations).
    pub prio: PrioOptions,
    /// How priorities are written into DAGMan files (ignored by other
    /// formats).
    pub mode: InstrumentMode,
}

/// A workflow file parsed and waiting for its priorities.
pub enum ParsedFile<'f> {
    /// A JSON or edge-list file: the workflow owns every name, so the
    /// text is gone.
    Workflow {
        /// The frontend that read the file, and writes it back.
        frontend: &'f dyn Frontend,
        /// The imported workflow.
        workflow: Workflow,
    },
    /// A DAGMan file, which owns its text: the rewrite copies every line
    /// it does not change.
    Dagman {
        /// The parsed file.
        file: DagmanFile,
        /// Its dependency dag, with the file's node ids.
        dag: Dag,
    },
}

/// Reads the workflow `text` through `frontend`, taking the text over:
/// JSON and edge-list text is dropped once imported, and a DAGMan file
/// keeps it without a copy.
///
/// A malformed file, an unknown or duplicate job and a dependency cycle
/// fail in stage `parse`.
pub fn parse_file(frontend: &dyn Frontend, text: String) -> Result<ParsedFile<'_>, PrioError> {
    if frontend.id() != FormatId::Dagman {
        let workflow = frontend.import(&text)?;
        return Ok(ParsedFile::Workflow { frontend, workflow });
    }
    let file = parse_dagman_owned(text)?;
    let dag = file.to_dag()?;
    Ok(ParsedFile::Dagman { file, dag })
}

impl<'f> ParsedFile<'f> {
    /// Prioritizes the file, reusing the scratch buffers in `ctx`, and
    /// instruments a DAGMan file. The result does not borrow `ctx`, so a
    /// one-shot caller drops the context before writing.
    ///
    /// Stages after `parse` fail only on pipeline bugs.
    pub fn prioritize(
        mut self,
        opts: &FileOptions,
        ctx: &mut PrioContext,
    ) -> Result<PrioritizedFile<'f>, PrioError> {
        let prioritizer = Prioritizer::with_options(opts.prio);
        let result = match &mut self {
            ParsedFile::Workflow { workflow, .. } => {
                prioritizer.prioritize_workflow_in(workflow, ctx)?
            }
            ParsedFile::Dagman { file, dag } => {
                let result = prioritizer.prioritize_in(dag, ctx)?;
                // The dag's node ids are the file's: the i-th of n
                // scheduled jobs gets priority n − i without a name lookup.
                let order = result.schedule.order();
                let mut by_node = vec![None; dag.num_nodes()];
                for (i, &u) in order.iter().enumerate() {
                    by_node[u.index()] = Some((order.len() - i) as u32);
                }
                instrument_nodes(file, &by_node, opts.mode)?;
                result
            }
        };
        Ok(PrioritizedFile {
            result,
            file: self,
            mode: opts.mode,
        })
    }
}

/// One prioritized workflow file, ready to be written.
pub struct PrioritizedFile<'f> {
    /// The full scheduler output.
    pub result: PrioResult,
    /// The file, a DAGMan one instrumented.
    file: ParsedFile<'f>,
    mode: InstrumentMode,
}

impl PrioritizedFile<'_> {
    /// The dependency dag the priorities were computed on.
    pub fn dag(&self) -> &Dag {
        match &self.file {
            ParsedFile::Workflow { workflow, .. } => workflow.dag(),
            ParsedFile::Dagman { dag, .. } => dag,
        }
    }

    /// The distinct submit files (as written in the `JOB` statements, in
    /// first-reference order) that need `priority = $(jobpriority)`,
    /// borrowed from the file's text. Some only for DAGMan input in
    /// [`InstrumentMode::VarsMacro`], the one mode whose `VARS` define
    /// that macro.
    pub fn submit_files(&self) -> impl Iterator<Item = &str> {
        let file = match (&self.file, self.mode) {
            (ParsedFile::Dagman { file, .. }, InstrumentMode::VarsMacro) => Some(file),
            _ => None,
        };
        file.into_iter().flat_map(DagmanFile::submit_files)
    }

    /// Streams the output into `out`: the instrumented DAGMan text, or
    /// the input format's export with the priorities attached.
    pub fn write_to(&self, out: &mut dyn io::Write) -> io::Result<()> {
        match &self.file {
            ParsedFile::Workflow { frontend, workflow } => {
                frontend.export_to(workflow, &self.result.priorities(), out)
            }
            ParsedFile::Dagman { file, .. } => write_dagman_to(file, out),
        }
    }

    /// [`PrioritizedFile::write_to`] into one pre-sized `String`.
    pub fn render(&self) -> String {
        match &self.file {
            ParsedFile::Workflow { frontend, workflow } => {
                frontend.export(workflow, &self.result.priorities())
            }
            ParsedFile::Dagman { file, .. } => write_dagman(file),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{registry, DagmanFrontend};

    const FIG3: &str = "JOB a a.sub\nJOB b b.sub\nJOB c c.sub\nJOB d d.sub\nJOB e c.sub\nPARENT a CHILD b\nPARENT c CHILD d e\n";

    fn prioritize_file<'f>(
        frontend: &'f dyn Frontend,
        text: &str,
        opts: &FileOptions,
        ctx: &mut PrioContext,
    ) -> Result<PrioritizedFile<'f>, PrioError> {
        parse_file(frontend, text.to_string())?.prioritize(opts, ctx)
    }

    #[test]
    fn dagman_input_is_instrumented_in_place() {
        let out = prioritize_file(
            &DagmanFrontend,
            FIG3,
            &FileOptions::default(),
            &mut PrioContext::new(),
        )
        .unwrap();
        assert_eq!(out.dag().num_nodes(), 5);
        assert!(out
            .render()
            .starts_with("JOB a a.sub\nVARS a jobpriority=\"4\"\n"));
        assert!(out.submit_files().eq(["a.sub", "b.sub", "c.sub", "d.sub"]));
        let mut streamed = Vec::new();
        out.write_to(&mut streamed).unwrap();
        assert_eq!(streamed, out.render().as_bytes());
    }

    #[test]
    fn priority_statements_need_no_submit_edits() {
        let opts = FileOptions {
            mode: InstrumentMode::PriorityStatement,
            ..FileOptions::default()
        };
        let out = prioritize_file(&DagmanFrontend, FIG3, &opts, &mut PrioContext::new()).unwrap();
        let text = out.render();
        assert!(text.contains("PRIORITY c 5\n"));
        assert!(!text.contains("VARS"));
        assert_eq!(out.submit_files().count(), 0);
    }

    #[test]
    fn other_formats_round_trip_through_their_frontend() {
        let reg = registry();
        let edges = reg.get(FormatId::Edges).unwrap();
        let mut ctx = PrioContext::new();
        let out =
            prioritize_file(edges, "a\tb\na\tc\n", &FileOptions::default(), &mut ctx).unwrap();
        let text = out.render();
        assert!(text.contains("@priority\ta\t3"), "{text}");
        assert_eq!(out.submit_files().count(), 0);
        let mut streamed = Vec::new();
        out.write_to(&mut streamed).unwrap();
        assert_eq!(streamed, text.as_bytes());
        let err = prioritize_file(edges, "a\tb\nb\ta\n", &FileOptions::default(), &mut ctx);
        assert!(err.is_err_and(|e| e.stage() == prio_ir::Stage::Parse));
    }
}
