//! `prio convert` — translate a workflow between frontends.
//!
//! ```text
//! prio convert <in> <out> [--from FORMAT] [--to FORMAT]
//! ```
//!
//! The input format comes from `--from`, the input file's extension, or
//! content sniffing; the output format from `--to` or the output file's
//! extension. Job set, arc set, metadata and any priorities already in
//! the input survive the translation (each exporter is canonical, so
//! converting a file to its own format normalizes it). `-` as the output
//! path writes to stdout, in which case `--to` is required.

use crate::args::Args;
use crate::commands::{write_file, write_stdout};
use crate::error::CliError;
use prio_dagman::{frontend::representable, registry};
use prio_ir::{FormatId, FormatRegistry, Frontend};
use std::path::Path;

/// The flags `prio convert` accepts.
const FLAGS: &[&str] = &["from", "to"];

pub fn run(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, FLAGS)?;
    let (input, output) = match args.positional.as_slice() {
        [i, o] => (i.as_str(), o.as_str()),
        _ => {
            return Err(CliError::usage(
                "convert requires exactly two positional arguments: <in> <out>",
            ))
        }
    };

    let text =
        std::fs::read_to_string(input).map_err(|e| CliError::input(format!("{input}: {e}")))?;
    let reg = registry();
    let from = super::resolve_frontend(&reg, args.get("from"), Some(input), &text)?;
    let to = resolve_target(&reg, args.get("to"), output)?;

    let workflow = from
        .import(&text)
        .map_err(|e| CliError::input(format!("{input}: {e}")))?;
    if to.id() == FormatId::Dagman {
        // Refuse to write names DAGMan's tokenizer would mangle.
        representable(&workflow).map_err(|e| CliError::input(format!("{input}: {e}")))?;
    }
    // The workflow owns its names: the text is not needed to export.
    drop(text);
    let export = |w: &mut dyn std::io::Write| to.export_to(&workflow, workflow.priorities(), w);
    if output == "-" {
        write_stdout(export)?;
    } else {
        write_file(Path::new(output), export)?;
        eprintln!(
            "prio: converted {input} ({}) -> {output} ({}), {} jobs, {} arcs",
            from.id(),
            to.id(),
            workflow.num_jobs(),
            workflow.num_arcs()
        );
    }
    Ok(())
}

/// The output frontend: `--to` wins, else the output path's extension.
fn resolve_target<'r>(
    reg: &'r FormatRegistry,
    to_flag: Option<&str>,
    output: &str,
) -> Result<&'r dyn Frontend, CliError> {
    match to_flag {
        Some(name) => reg
            .by_name(name)
            .ok_or_else(|| CliError::usage(format!("unknown --to {name:?} (dagman|json|edges)"))),
        None if output == "-" => Err(CliError::usage(
            "writing to stdout requires --to FORMAT (dagman|json|edges)",
        )),
        None => reg.by_extension(output).ok_or_else(|| {
            CliError::usage(format!(
                "cannot infer output format from {output:?} (use --to dagman|json|edges)"
            ))
        }),
    }
}
