//! The pipeline error taxonomy, re-exported from `prio-ir`.
//!
//! The types themselves live in [`prio_ir::error`] so that `prio-core`
//! has no dependency on any concrete frontend: a parse failure arrives as
//! an [`ImportError`] carrying the rejecting frontend's
//! [`prio_ir::FormatId`], and the frontends (e.g. `prio-dagman`) convert
//! their native errors into it. Everything downstream of parsing —
//! [`PrioError::Graph`], [`PrioError::InternalInvariant`] — originates
//! here in the core.
//!
//! [`Stage`] is the observability spans' [`prio_obs::Stage`], keeping
//! error messages, `--timings` footers and the §3.6 overhead table
//! vocabulary identical.

pub use prio_ir::error::{ImportError, PrioError, Stage};

#[cfg(test)]
mod tests {
    use super::*;
    use prio_graph::NodeId;

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
        }
    }

    #[test]
    fn parse_errors_render_with_stage_prefix() {
        let e: PrioError = ImportError::at(prio_ir::FormatId::Dagman, 4, "JOB needs a file").into();
        assert_eq!(e.stage(), Stage::Parse);
        assert!(!e.is_internal());
        assert!(e.to_string().starts_with("parse:"));
    }

    #[test]
    fn internal_invariants_are_distinguished_from_input_errors() {
        let e = PrioError::InternalInvariant {
            stage: Stage::Emit,
            detail: "order is not a linear extension".into(),
            arc: Some((NodeId(3), NodeId(7))),
        };
        assert!(e.is_internal());
        let e: PrioError = prio_graph::GraphError::Cycle { on_cycle: 2 }.into();
        assert!(!e.is_internal());
        assert_eq!(e.stage(), Stage::Parse);
    }
}
