//! # prio-dagman — the DAGMan / Condor file substrate (§3.2)
//!
//! The `prio` tool operates on *DAGMan input files* (the argument of
//! `condor_submit_dag`) and on the *job-submit description files* (JSDFs)
//! each `JOB` statement references. This crate implements both formats:
//!
//! * a line-faithful parser and writer for DAGMan input files ([`parse`],
//!   [`ast`], [`write()`][crate::write::write_dagman]) — comments, unknown keywords and formatting are
//!   preserved so instrumentation produces a minimal diff, exactly like the
//!   paper's Fig. 3 (bold lines added, everything else untouched);
//! * extraction of the job-dependency DAG from `JOB`/`PARENT … CHILD`
//!   statements ([`ast::DagmanFile::to_dag`]);
//! * the instrumentation step: defining the `jobpriority` macro for every
//!   job via `VARS` statements in the DAGMan file, and assigning
//!   `priority = $(jobpriority)` in each JSDF ([`instrument`], [`jsdf`]).
//!
//! Since the workflow-IR refactor this crate is *one frontend among
//! several*: [`frontend::DagmanFrontend`] implements
//! [`prio_ir::Frontend`], importing DAGMan text into a
//! [`prio_ir::Workflow`] and exporting workflows back to canonical DAGMan
//! text, and [`frontend::registry()`] assembles the full format registry
//! (DAGMan + JSON + edge list). Composing frontends with the scheduler
//! lives in the `dagprio` facade and the `prio` CLI, mirroring how the
//! paper's tool wraps the heuristic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod frontend;
pub mod instrument;
pub mod io;
pub mod jsdf;
pub mod parse;
pub mod scan;
pub mod write;

pub use ast::{DagmanFile, JobName, Statement};
pub use error::DagmanError;
pub use frontend::{registry, DagmanFrontend};
pub use instrument::{
    instrument_dagman, instrument_dagman_with, priorities_by_job, InstrumentMode,
};
pub use io::read_input;
pub use jsdf::Jsdf;
pub use parse::{parse_dagman, parse_dagman_threads};
