//! `prio schedule` — print a schedule, one job per line.

use crate::args::Args;
use crate::commands::load_dag;
use crate::error::CliError;
use prio_core::baselines::critical_path_schedule;
use prio_core::fifo::fifo_schedule;
use prio_core::prio::prioritize;
use prio_core::theoretical::theoretical_schedule;

/// The flags `prio schedule` accepts.
const FLAGS: &[&str] = &[
    "workload",
    "scale",
    "format",
    "fifo",
    "critical-path",
    "theoretical",
];

pub fn run(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, FLAGS)?;
    let (name, dag) = load_dag(&args)?;
    let schedule = if args.has("fifo") {
        fifo_schedule(&dag)
    } else if args.has("critical-path") {
        critical_path_schedule(&dag)
    } else if args.has("theoretical") {
        theoretical_schedule(&dag)
            .map_err(|e| CliError::input(format!("theoretical algorithm failed: {e}")))?
            .schedule
    } else {
        prioritize(&dag)?.schedule
    };
    eprintln!("prio: schedule for {name}");
    let n = schedule.len();
    let mut out = String::new();
    for (i, &u) in schedule.order().iter().enumerate() {
        out.push_str(&format!("{}\t{}\n", dag.label(u), n - i));
    }
    print!("{out}");
    Ok(())
}
