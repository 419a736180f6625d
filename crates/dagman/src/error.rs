//! Error types for DAGMan and JSDF parsing.

use prio_ir::{FormatId, ImportError, PrioError};
use std::fmt;

/// Errors produced while parsing or instrumenting DAGMan/JSDF files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagmanError {
    /// A statement was malformed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A `PARENT … CHILD` statement named an undeclared job, or
    /// instrumentation got no priority for a declared one.
    UnknownJob {
        /// 1-based line number: the `PARENT` line, or the job's
        /// declaration.
        line: usize,
        /// The unknown job name.
        job: String,
    },
    /// The same job name was declared twice.
    DuplicateJob {
        /// 1-based line number of the second declaration.
        line: usize,
        /// The duplicated job name.
        job: String,
    },
    /// The dependencies contain a cycle.
    Cyclic {
        /// A job on the cycle.
        job: String,
    },
}

impl fmt::Display for DagmanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagmanError::Malformed { line, message } => {
                write!(f, "line {line}: {message}")
            }
            DagmanError::UnknownJob { line, job } => {
                write!(f, "line {line}: unknown job {job:?}")
            }
            DagmanError::DuplicateJob { line, job } => {
                write!(f, "line {line}: duplicate job {job:?}")
            }
            DagmanError::Cyclic { job } => {
                write!(f, "dependency cycle through job {job:?}")
            }
        }
    }
}

impl std::error::Error for DagmanError {}

impl From<DagmanError> for ImportError {
    fn from(e: DagmanError) -> ImportError {
        let (line, message) = match &e {
            DagmanError::Malformed { line, message } => (*line, message.clone()),
            DagmanError::UnknownJob { line, job } => (*line, format!("unknown job {job:?}")),
            DagmanError::DuplicateJob { line, job } => (*line, format!("duplicate job {job:?}")),
            DagmanError::Cyclic { job } => (0, format!("dependency cycle through job {job:?}")),
        };
        ImportError {
            format: FormatId::Dagman,
            line,
            message,
        }
    }
}

impl From<DagmanError> for PrioError {
    fn from(e: DagmanError) -> PrioError {
        PrioError::Parse(e.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_context() {
        let e = DagmanError::Malformed {
            line: 3,
            message: "JOB needs a file".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let e = DagmanError::UnknownJob {
            line: 9,
            job: "x".into(),
        };
        assert!(e.to_string().contains("\"x\""));
        let e = DagmanError::Cyclic { job: "a".into() };
        assert!(e.to_string().contains("cycle"));
    }
}
