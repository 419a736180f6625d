//! `prio generate` — emit a synthetic scientific dag as a workflow file
//! (DAGMan by default; `--format json|edges` selects another frontend).
//! `--scale F` builds the same dag `--workload NAME --scale F` loads:
//! F = 1 is the paper instance, any other finite F > 0 scales down or up.

use crate::args::Args;
use crate::commands::{write_file, write_stdout};
use crate::error::CliError;
use prio_dagman::registry;
use prio_ir::Workflow;
use prio_workloads::spec::scaled_workload;
use prio_workloads::{airsn, classic};
use std::path::Path;

/// The flags `prio generate` accepts.
const FLAGS: &[&str] = &["width", "scale", "format", "output"];

pub fn run(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, FLAGS)?;
    let which = args.one_positional()?.to_ascii_lowercase();
    let scale: f64 = args.get_parsed("scale", 1.0)?;
    let workflow = match which.as_str() {
        "fig3" => Workflow::synthetic(classic::fig3_dag()),
        "airsn" if args.get("width").is_some() => {
            let width: usize = args.get_parsed("width", airsn::PAPER_WIDTH)?;
            Workflow::synthetic(airsn::airsn(width.max(1)))
        }
        name => {
            scaled_workload(name, scale)
                .map_err(|e| CliError::usage(e.to_string()))?
                .workflow
        }
    };
    let reg = registry();
    let frontend = match args.get("format") {
        None | Some("auto") | Some("dagman") => reg
            .by_name("dagman")
            .expect("dagman frontend is registered"),
        Some(name) => reg.by_name(name).ok_or_else(|| {
            CliError::usage(format!("unknown --format {name:?} (dagman|json|edges)"))
        })?,
    };
    let export =
        |w: &mut dyn std::io::Write| frontend.export_to(&workflow, workflow.priorities(), w);
    match args.get("output") {
        Some(path) => {
            write_file(Path::new(path), export)?;
            eprintln!("prio: wrote {path} ({} jobs)", workflow.num_jobs());
        }
        None => write_stdout(export)?,
    }
    Ok(())
}
