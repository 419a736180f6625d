//! # prio-ir — the format-agnostic workflow IR and frontend registry
//!
//! The paper's prioritization algorithm (transitive reduction →
//! decomposition → component scheduling → combine) is format-agnostic;
//! only the parse/emit edges are Condor-specific. This crate is the seam:
//!
//! * [`Workflow`] — the IR: a CSR dag of job names, the priorities the
//!   input carried, sparse per-job metadata, and the [`FormatId`] it came
//!   from. It dereferences to [`prio_graph::Dag`], so the whole pipeline
//!   consumes `&Workflow` without knowing any concrete format;
//! * [`Frontend`] — one importer/exporter pair per format
//!   (`import(&str) -> Result<Workflow, PrioError>`, and
//!   `export_to(&Workflow, &Priorities, &mut dyn io::Write)`, which
//!   streams through one fixed [`ChunkWriter`]), collected in a
//!   [`FormatRegistry`] with auto-detection by file extension and content
//!   sniff;
//! * two frontends live here: the Makeflow/JSON-style graph format
//!   ([`json::JsonFrontend`]) and the whitespace/TSV edge list
//!   ([`edges::EdgesFrontend`]). The DAGMan frontend lives in
//!   `prio-dagman` (downstream of this crate), whose `registry()` helper
//!   assembles all three;
//! * [`PrioError`] / [`Stage`] — the workspace error taxonomy, moved here
//!   from `prio-core` so the core no longer depends on any frontend.
//!   Parse failures carry per-frontend provenance ([`ImportError`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod edges;
pub mod error;
pub mod frontend;
pub mod json;
pub mod workflow;

pub use chunk::{ChunkWriter, EXPORT_CHUNK};
pub use edges::EdgesFrontend;
pub use error::{ImportError, PrioError, Stage};
pub use frontend::{FormatRegistry, Frontend, ResolveError};
pub use json::JsonFrontend;
pub use workflow::{FormatId, Priorities, Workflow, WorkflowBuilder};
