//! The workspace-wide error taxonomy of the PRIO pipeline.
//!
//! Every fallible step of the six-phase pipeline (parse → reduce →
//! decompose → schedule → combine → emit) reports a [`PrioError`] carrying
//! its [`Stage`] provenance, so callers — the facade's
//! `prioritize_dagman_text`, the CLI, the batch harness — can render *where*
//! a failure happened and map it onto an exit-code class:
//!
//! * **input errors** ([`PrioError::Parse`], [`PrioError::Graph`]) — the
//!   workflow text or dependency structure was invalid; the caller's data is
//!   at fault and retrying without fixing it cannot succeed. Parse errors
//!   additionally carry *frontend* provenance ([`ImportError::format`]):
//!   the message names which format's importer rejected the input and on
//!   which line;
//! * **internal invariant violations**
//!   ([`PrioError::InternalInvariant`]) — the pipeline produced something
//!   it promised it never would (e.g. an emit order that is not a linear
//!   extension). These surface as structured errors carrying the offending
//!   arc when one is known, so a long-running service loses one request,
//!   not the process.
//!
//! The stage type is the observability spans' [`prio_obs::Stage`],
//! keeping error messages, `--timings` footers and the §3.6 overhead
//! table vocabulary identical.

use crate::workflow::FormatId;
use prio_graph::{GraphError, NodeId};
use std::fmt;

/// The pipeline stage an error originated in: the span vocabulary's
/// [`prio_obs::Stage`], so an error renders with the name its stage's
/// span records under. Errors come from the six pipeline stages, parse
/// through emit.
pub use prio_obs::Stage;

/// A parse failure reported by one frontend, with format provenance.
///
/// Rendered as `<format>: line <n>: <message>` (the line is omitted when
/// the failure is not attributable to one line, e.g. a duplicate job
/// detected while assembling the dag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportError {
    /// The frontend whose importer rejected the input.
    pub format: FormatId,
    /// 1-based input line of the failure; `0` when the failure concerns
    /// the file as a whole.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl ImportError {
    /// Constructs an import error localized to `line`.
    pub fn at(format: FormatId, line: usize, message: impl Into<String>) -> ImportError {
        ImportError {
            format,
            line,
            message: message.into(),
        }
    }

    /// Constructs a whole-file import error.
    pub fn whole_file(format: FormatId, message: impl Into<String>) -> ImportError {
        Self::at(format, 0, message)
    }
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}", self.format, self.message)
        } else {
            write!(f, "{}: line {}: {}", self.format, self.line, self.message)
        }
    }
}

impl std::error::Error for ImportError {}

/// A structured, renderable error from the PRIO pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PrioError {
    /// The workflow text was malformed (stage `parse`), with the rejecting
    /// frontend's provenance.
    Parse(ImportError),
    /// The dependency structure was not a valid DAG.
    Graph {
        /// The stage that was building or transforming the graph.
        stage: Stage,
        /// The underlying graph error.
        error: GraphError,
    },
    /// The pipeline violated one of its own invariants — a bug surfaced as
    /// an error instead of a process abort.
    InternalInvariant {
        /// The stage whose invariant broke.
        stage: Stage,
        /// Human-readable description of the broken invariant.
        detail: String,
        /// The offending arc, when the violation is localized to one
        /// (e.g. a child emitted before its parent).
        arc: Option<(NodeId, NodeId)>,
    },
}

impl PrioError {
    /// Constructs an internal-invariant error.
    pub fn internal(stage: Stage, detail: impl Into<String>) -> PrioError {
        PrioError::InternalInvariant {
            stage,
            detail: detail.into(),
            arc: None,
        }
    }

    /// The stage the error originated in.
    pub fn stage(&self) -> Stage {
        match self {
            PrioError::Parse(_) => Stage::Parse,
            PrioError::Graph { stage, .. } => *stage,
            PrioError::InternalInvariant { stage, .. } => *stage,
        }
    }

    /// Whether this is a pipeline bug (as opposed to bad input). The CLI
    /// maps internal errors to exit code 70 (`EX_SOFTWARE`) and everything
    /// else to 1.
    pub fn is_internal(&self) -> bool {
        matches!(self, PrioError::InternalInvariant { .. })
    }
}

impl fmt::Display for PrioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrioError::Parse(e) => write!(f, "{}: {e}", Stage::Parse),
            PrioError::Graph { stage, error } => write!(f, "{stage}: {error}"),
            PrioError::InternalInvariant { stage, detail, arc } => {
                write!(f, "{stage}: internal invariant violated: {detail}")?;
                if let Some((u, v)) = arc {
                    write!(f, " (offending arc {} -> {})", u.0, v.0)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PrioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PrioError::Parse(e) => Some(e),
            PrioError::Graph { error, .. } => Some(error),
            PrioError::InternalInvariant { .. } => None,
        }
    }
}

impl From<ImportError> for PrioError {
    fn from(e: ImportError) -> Self {
        PrioError::Parse(e)
    }
}

impl From<GraphError> for PrioError {
    fn from(e: GraphError) -> Self {
        // Graph construction happens while translating parsed input; later
        // stages only transform already-valid dags.
        PrioError::Graph {
            stage: Stage::Parse,
            error: e,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_match_span_vocabulary() {
        for (stage, name) in [
            (Stage::Parse, "parse"),
            (Stage::Reduce, "reduce"),
            (Stage::Decompose, "decompose"),
            (Stage::Schedule, "schedule"),
            (Stage::Combine, "combine"),
            (Stage::Emit, "emit"),
        ] {
            assert_eq!(stage.name(), name);
            assert_eq!(stage.to_string(), name);
        }
    }

    #[test]
    fn internal_invariant_renders_stage_and_arc() {
        let e = PrioError::InternalInvariant {
            stage: Stage::Emit,
            detail: "order is not a linear extension".into(),
            arc: Some((NodeId(3), NodeId(7))),
        };
        let msg = e.to_string();
        assert!(msg.contains("emit:"), "stage missing: {msg}");
        assert!(msg.contains("3 -> 7"), "arc missing: {msg}");
        assert!(e.is_internal());
        assert_eq!(e.stage(), Stage::Emit);
    }

    #[test]
    fn import_errors_carry_frontend_provenance() {
        let e: PrioError = ImportError::at(FormatId::Json, 4, "jobs must be an array").into();
        assert_eq!(e.stage(), Stage::Parse);
        assert!(!e.is_internal());
        let msg = e.to_string();
        assert!(msg.starts_with("parse:"), "stage prefix missing: {msg}");
        assert!(msg.contains("json:"), "format provenance missing: {msg}");
        assert!(msg.contains("line 4"), "line missing: {msg}");
        assert!(std::error::Error::source(&e).is_some());

        let whole = ImportError::whole_file(FormatId::Edges, "empty input");
        assert!(!whole.to_string().contains("line"));
        assert!(whole.to_string().starts_with("edges:"));
    }

    #[test]
    fn graph_errors_keep_parse_provenance() {
        let e: PrioError = GraphError::Cycle { on_cycle: 2 }.into();
        assert_eq!(e.stage(), Stage::Parse);
        assert!(e.to_string().contains("cycle"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
