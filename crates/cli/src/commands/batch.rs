//! `prio batch` — prioritize every workflow file in a directory.
//!
//! Scans `<dir>` for workflow files by extension — `*.dag` plus, with
//! `--format` or by default, every extension a registered frontend claims
//! (`*.json`, `*.edges`, `*.tsv`) — sorted by name and skipping previous
//! `*.prio.*` outputs. Each file runs through the same per-file pipeline
//! as `prio run` ([`prio_dagman::pipeline`]), with one scratch context
//! shared across the batch, and is streamed next to its input as
//! `<stem>.prio.<ext>`. A DAGMan input's submit files are
//! instrumented next to that input, as `prio run` does by default.
//!
//! Per-file failures do not abort the batch: every remaining file is still
//! processed, failures are reported to stderr, and the exit code reflects
//! the worst failure class seen (internal 70 beats input 1).

use crate::args::Args;
use crate::commands::instrument::{input_dir, instrument_submit_files, output_path, prio_options};
use crate::commands::{named_frontend, resolve_frontend, write_file};
use crate::error::CliError;
use prio_core::PrioContext;
use prio_dagman::pipeline::{parse_file, FileOptions};
use prio_dagman::registry;
use prio_ir::{FormatId, FormatRegistry};
use std::path::{Path, PathBuf};

/// The flags `prio batch` accepts.
const FLAGS: &[&str] = &["format", "search"];

pub fn run(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, FLAGS)?;
    let dir = args.one_positional()?.to_string();
    let opts = FileOptions {
        prio: prio_options(&args)?,
        ..FileOptions::default()
    };
    let reg = registry();
    let format = args.get("format");
    let only = named_frontend(&reg, format)?.map(|f| f.id());

    let paths = workflow_files(&dir, &reg, only)?;
    if paths.is_empty() {
        return Err(CliError::input(format!("{dir}: no workflow files found")));
    }

    let mut ctx = PrioContext::new();
    let mut failures: Vec<(PathBuf, CliError)> = Vec::new();
    let mut written = 0usize;
    for path in paths {
        match prioritize_one(&path, &reg, format, &opts, &mut ctx) {
            Ok((out, jobs)) => {
                written += 1;
                eprintln!("prio: wrote {} ({} jobs)", out.display(), jobs);
            }
            Err(e) => failures.push((path, e)),
        }
    }

    eprintln!(
        "prio: batch: {written} prioritized, {} failed",
        failures.len()
    );
    if failures.is_empty() {
        return Ok(());
    }
    let mut internal = false;
    for (path, e) in &failures {
        eprintln!("prio: {}: {e}", path.display());
        internal |= matches!(e, CliError::Internal(_));
    }
    let summary = format!("batch: {} of {} files failed", failures.len(), {
        written + failures.len()
    });
    if internal {
        Err(CliError::internal(summary))
    } else {
        Err(CliError::input(summary))
    }
}

/// The workflow files of `dir`, sorted by file name; `*.prio.*` outputs
/// from previous runs are skipped so a batch is idempotent. With a
/// `--format` restriction only that frontend's extensions match.
fn workflow_files(
    dir: &str,
    reg: &FormatRegistry,
    only: Option<FormatId>,
) -> Result<Vec<PathBuf>, CliError> {
    let entries = std::fs::read_dir(dir).map_err(|e| CliError::input(format!("{dir}: {e}")))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| CliError::input(format!("{dir}: {e}")))?;
        let path = entry.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        let known = match reg.by_extension(name) {
            Some(f) => only.is_none_or(|id| f.id() == id),
            None => false,
        };
        if known && !name.contains(".prio.") {
            paths.push(path);
        }
    }
    paths.sort();
    Ok(paths)
}

/// Prioritizes one file of the batch, returning the output path and the
/// job count. Errors do not repeat `path`; the batch report prefixes it.
fn prioritize_one(
    path: &Path,
    reg: &FormatRegistry,
    format: Option<&str>,
    opts: &FileOptions,
    ctx: &mut PrioContext,
) -> Result<(PathBuf, usize), CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::input(e.to_string()))?;
    let frontend = resolve_frontend(reg, format, path.to_str(), &text)?;
    let out = parse_file(frontend, text)?.prioritize(opts, ctx)?;
    instrument_submit_files(&input_dir(path), out.submit_files())?;
    let dest = output_path(path, frontend);
    write_file(&dest, |w| out.write_to(w))?;
    Ok((dest, out.dag().num_nodes()))
}
