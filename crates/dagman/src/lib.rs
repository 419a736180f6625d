//! # prio-dagman — the DAGMan / Condor file substrate (§3.2)
//!
//! The `prio` tool operates on *DAGMan input files* (the argument of
//! `condor_submit_dag`) and on the *job-submit description files* (JSDFs)
//! each `JOB` statement references. This crate implements both formats:
//!
//! * a one-pass parser into a line-indexed [`DagmanFile`] ([`parse`],
//!   [`file`]) and a writer that renders it back from its spans
//!   ([`write()`][crate::write::write_dagman]) — comments and unknown
//!   keywords are kept verbatim so instrumentation produces a minimal
//!   diff, exactly like the paper's Fig. 3 (bold lines added, everything
//!   else untouched);
//! * extraction of the job-dependency DAG from `JOB`/`PARENT … CHILD`
//!   statements ([`file::DagmanFile::to_dag`]);
//! * the instrumentation step: defining the `jobpriority` macro for every
//!   job via `VARS` statements in the DAGMan file, and assigning
//!   `priority = $(jobpriority)` in each JSDF ([`instrument`], [`jsdf`]).
//!
//! Since the workflow-IR refactor this crate is *one frontend among
//! several*: [`frontend::DagmanFrontend`] implements
//! [`prio_ir::Frontend`], importing DAGMan text into a
//! [`prio_ir::Workflow`] and exporting workflows back to canonical DAGMan
//! text, and [`frontend::registry()`] assembles the full format registry
//! (DAGMan + JSON + edge list). [`pipeline`] composes a frontend with
//! the scheduler for one whole file — text in, prioritized text streamed
//! out and the submit files to instrument listed — in steps whose buffers
//! the caller frees in between; it is what `prio run`, `prio batch` and
//! the `dagprio` facade call, mirroring how the paper's tool wraps the
//! heuristic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod file;
pub mod frontend;
pub mod instrument;
pub mod jsdf;
pub mod parse;
pub mod pipeline;
pub mod write;

pub use error::DagmanError;
pub use file::DagmanFile;
pub use frontend::{registry, DagmanFrontend};
pub use instrument::{instrument_dagman_with, priorities_by_job, InstrumentMode};
pub use jsdf::Jsdf;
pub use parse::{parse_dagman, parse_dagman_owned, parse_dagman_threads};
pub use pipeline::{parse_file, FileOptions, ParsedFile, PrioritizedFile};
