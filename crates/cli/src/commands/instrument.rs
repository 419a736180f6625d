//! `prio instrument` (alias `run`) — the paper's tool: prioritize a
//! workflow file.
//!
//! The work is [`prio_dagman::pipeline`]: DAGMan inputs get
//! `jobpriority` statements inserted into a minimal diff of the original
//! file, other formats (`--format json|edges`, or auto-detected) are
//! re-exported with the computed priorities attached. This module is the
//! shell around it: flags, file I/O, and the submit-file edits that
//! `prio batch` shares. No buffer outlives its use: JSON and edge-list
//! text is dropped once imported, the scheduler's scratch context once
//! the schedule is computed, and the output streams into its file.

use crate::args::Args;
use crate::commands::{resolve_frontend, write_file};
use crate::error::CliError;
use prio_core::{PrioContext, PrioError, PrioOptions, Stage};
use prio_dagman::pipeline::{parse_file, FileOptions};
use prio_dagman::{registry, InstrumentMode, Jsdf};
use prio_graph::Dag;
use prio_ir::Frontend;
use std::path::{Path, PathBuf};

/// The flags `prio instrument` (alias `run`) accepts.
const FLAGS: &[&str] = &[
    "format",
    "output",
    "jsdf-dir",
    "in-place",
    "mode",
    "search",
    "threads",
    "trace-out",
];

pub fn run(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, FLAGS)?;
    let path = args.one_positional()?.to_string();
    let text =
        std::fs::read_to_string(&path).map_err(|e| CliError::input(format!("{path}: {e}")))?;
    let reg = registry();
    let frontend = resolve_frontend(&reg, args.get("format"), Some(&path), &text)?;
    // `--threads T` is still parsed, so a non-number is a usage error,
    // but the pipeline is serial and ignores it.
    args.get_parsed::<usize>("threads", 0)?;
    let opts = FileOptions {
        prio: prio_options(&args)?,
        mode: mode_option(&args)?,
    };

    // Input errors name the file; later stages keep their class.
    let error = |e: PrioError| {
        if e.stage() == Stage::Parse {
            CliError::input(format!("{path}: {e}"))
        } else {
            CliError::from(e)
        }
    };
    let parsed = parse_file(frontend, text).map_err(error)?;
    // The context is a temporary: it is freed as soon as the schedule is.
    let out = parsed
        .prioritize(&opts, &mut PrioContext::new())
        .map_err(error)?;
    let jsdf_dir = match args.get("jsdf-dir") {
        Some(dir) => PathBuf::from(dir),
        None => input_dir(Path::new(&path)),
    };
    instrument_submit_files(&jsdf_dir, out.submit_files())?;

    let output = if args.has("in-place") {
        PathBuf::from(&path)
    } else if let Some(dest) = args.get("output") {
        PathBuf::from(dest)
    } else {
        output_path(Path::new(&path), frontend)
    };
    write_file(&output, |w| out.write_to(w))?;
    let stats = &out.result.stats;
    eprintln!(
        "prio: wrote {} ({} jobs, {} components, {} shortcuts removed)",
        output.display(),
        out.dag().num_nodes(),
        stats.num_components,
        stats.shortcuts_removed,
    );

    // Structured snapshot of the pipeline's spans and counters as JSONL.
    if let Some(trace) = args.get("trace-out") {
        write_trace(trace, &path, out.dag())?;
    }
    Ok(())
}

/// The scheduler flag `run` and `batch` share: `--search N`.
pub(crate) fn prio_options(args: &Args) -> Result<PrioOptions, CliError> {
    Ok(PrioOptions {
        optimal_search_limit: args.get_parsed("search", 0)?,
        ..PrioOptions::default()
    })
}

/// `--mode vars|priority`: how priorities are written into DAGMan files.
fn mode_option(args: &Args) -> Result<InstrumentMode, CliError> {
    match args.get("mode") {
        None | Some("vars") => Ok(InstrumentMode::VarsMacro),
        Some("priority") => Ok(InstrumentMode::PriorityStatement),
        Some(other) => Err(CliError::usage(format!(
            "unknown --mode {other:?} (vars|priority)"
        ))),
    }
}

/// The directory an input's submit files are resolved against by
/// default: the input's own.
pub(crate) fn input_dir(path: &Path) -> PathBuf {
    path.parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// How many missing submit files the summary note names.
const MISSING_NAMED: usize = 3;

/// Adds `priority = $(jobpriority)` to each submit file found under
/// `dir`; missing ones are skipped and summarized in one note (their
/// count and the first [`MISSING_NAMED`] paths). Recorded as the `apply`
/// stage when there is any file to look for.
pub(crate) fn instrument_submit_files<'a>(
    dir: &Path,
    files: impl IntoIterator<Item = &'a str>,
) -> Result<(), CliError> {
    let mut files = files.into_iter().peekable();
    let _span = files.peek().map(|_| prio_obs::span(prio_obs::Stage::Apply));
    let mut missing: Vec<PathBuf> = Vec::new();
    let mut missing_count = 0usize;
    for submit in files {
        let jsdf_path = dir.join(submit);
        let Ok(jsdf_text) = std::fs::read_to_string(&jsdf_path) else {
            missing_count += 1;
            if missing.len() < MISSING_NAMED {
                missing.push(jsdf_path);
            }
            continue;
        };
        let mut jsdf = Jsdf::parse(&jsdf_text);
        jsdf.instrument_priority();
        std::fs::write(&jsdf_path, jsdf.to_text())
            .map_err(|e| CliError::input(format!("{}: {e}", jsdf_path.display())))?;
        eprintln!("prio: instrumented {}", jsdf_path.display());
    }
    if missing_count > 0 {
        let named: Vec<String> = missing.iter().map(|p| p.display().to_string()).collect();
        let more = if missing_count > named.len() {
            ", …"
        } else {
            ""
        };
        eprintln!(
            "prio: note: {missing_count} submit file{} not found, skipped: {}{more}",
            if missing_count == 1 { "" } else { "s" },
            named.join(", "),
        );
    }
    Ok(())
}

/// `foo.dag` -> `foo.prio.dag` (and `foo.json` -> `foo.prio.json`, …),
/// next to the input; an input without extension gets the format's.
pub(crate) fn output_path(path: &Path, frontend: &dyn Frontend) -> PathBuf {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("out");
    let ext = path
        .extension()
        .and_then(|s| s.to_str())
        .unwrap_or_else(|| frontend.id().extension());
    path.with_file_name(format!("{stem}.prio.{ext}"))
}

fn write_trace(out: &str, path: &str, dag: &Dag) -> Result<(), CliError> {
    let io = |e: std::io::Error| CliError::input(format!("{out}: {e}"));
    let sink = prio_obs::JsonlSink::to_file(Path::new(out)).map_err(io)?;
    sink.write_meta(
        "instrument",
        &format!("input={path} jobs={}", dag.num_nodes()),
    )
    .map_err(io)?;
    sink.write_span_snapshot().map_err(io)?;
    sink.write_metrics_snapshot().map_err(io)?;
    sink.flush().map_err(io)?;
    eprintln!("prio: wrote timing snapshot to {out}");
    Ok(())
}
