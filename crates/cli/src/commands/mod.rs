//! Subcommand implementations.
//!
//! Every subcommand returns `Result<(), CliError>`; `main` maps the error
//! class onto the process exit code (usage 2, input 1, internal 70).

pub mod batch;
pub mod compare;
pub mod convert;
pub mod generate;
pub mod ingest;
pub mod instrument;
pub mod report;
pub mod schedule;
pub mod serve;
pub mod simulate;
pub mod stats;
pub mod trace;

use crate::args::Args;
use crate::error::CliError;
use prio_dagman::registry;
use prio_graph::Dag;
use prio_ir::{FormatRegistry, Frontend, ResolveError, Workflow};
use prio_workloads::spec::scaled_workload;
use std::io::{self, Write as _};
use std::path::Path;

/// Resolves which frontend handles `text` ([`FormatRegistry::resolve`]):
/// an explicit `--format` name wins, otherwise the registry auto-detects
/// by file extension and then by content sniffing.
pub fn resolve_frontend<'r>(
    registry: &'r FormatRegistry,
    format_flag: Option<&str>,
    path: Option<&str>,
    text: &str,
) -> Result<&'r dyn Frontend, CliError> {
    registry
        .resolve(format_flag, path, text)
        .map_err(|e| match e {
            ResolveError::UnknownName(name) => CliError::usage(format!(
                "unknown --format {name:?} (auto|dagman|json|edges)"
            )),
            ResolveError::Undetected => CliError::input(format!(
                "{}: cannot detect workflow format (use --format dagman|json|edges)",
                path.unwrap_or("<input>")
            )),
        })
}

/// Validates a `--format` value before any input is read: `None` when
/// the format is detected per input (no flag, or `auto`), else the named
/// frontend.
pub fn named_frontend<'r>(
    registry: &'r FormatRegistry,
    format_flag: Option<&str>,
) -> Result<Option<&'r dyn Frontend>, CliError> {
    match format_flag {
        Some(name) if !name.eq_ignore_ascii_case("auto") => {
            resolve_frontend(registry, format_flag, None, "").map(Some)
        }
        _ => Ok(None),
    }
}

/// Loads the workflow a subcommand operates on: either a workflow file
/// path (positional, format from `--format` or auto-detected) or
/// `--workload NAME` with optional `--scale F` (any finite F > 0; 1 is the
/// paper instance, above 1 scales up).
pub fn load_workflow(args: &Args) -> Result<(String, Workflow), CliError> {
    if let Some(name) = args.get("workload") {
        let workload = scaled_workload(name, args.get_parsed("scale", 1.0)?)
            .map_err(|e| CliError::usage(e.to_string()))?;
        Ok((
            format!("{} ({} jobs)", workload.name, workload.dag().num_nodes()),
            workload.workflow,
        ))
    } else {
        let path = args.one_positional()?;
        let text =
            std::fs::read_to_string(path).map_err(|e| CliError::input(format!("{path}: {e}")))?;
        let reg = registry();
        let frontend = resolve_frontend(&reg, args.get("format"), Some(path), &text)?;
        let workflow = frontend
            .import(&text)
            .map_err(|e| CliError::input(format!("{path}: {e}")))?;
        Ok((path.to_string(), workflow))
    }
}

/// Loads the dag a subcommand operates on (see [`load_workflow`]); for
/// subcommands that never touch priorities or metadata.
pub fn load_dag(args: &Args) -> Result<(String, Dag), CliError> {
    let (name, workflow) = load_workflow(args)?;
    Ok((name, workflow.into_dag()))
}

/// Creates (or truncates) `path` and streams `write` into it, through
/// the exporter's own chunk; a failure is an input error naming the path.
pub fn write_file(
    path: &Path,
    write: impl FnOnce(&mut dyn io::Write) -> io::Result<()>,
) -> Result<(), CliError> {
    let error = |e: io::Error| CliError::input(format!("{}: {e}", path.display()));
    let mut file = std::fs::File::create(path).map_err(error)?;
    write(&mut file).map_err(error)
}

/// Streams `write` to standard output; a failure is an input error.
pub fn write_stdout(
    write: impl FnOnce(&mut dyn io::Write) -> io::Result<()>,
) -> Result<(), CliError> {
    let mut out = io::stdout().lock();
    write(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| CliError::input(format!("<stdout>: {e}")))
}
