//! `prio compare` — the eligibility difference series of Fig. 4.

use crate::args::Args;
use crate::commands::load_dag;
use crate::error::CliError;
use prio_core::fifo::fifo_schedule;
use prio_core::prio::prioritize;
use prio_core::schedule::profile_difference;

/// The flags `prio compare` accepts.
const FLAGS: &[&str] = &["workload", "scale", "format"];

pub fn run(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, FLAGS)?;
    let (name, dag) = load_dag(&args)?;
    let prio = prioritize(&dag)?.schedule;
    let fifo = fifo_schedule(&dag);
    let diff = profile_difference(&dag, &prio, &fifo);
    let n = dag.num_nodes() as f64;
    eprintln!("prio: E_PRIO(t) - E_FIFO(t) for {name}");
    println!("t\tdiff\tdiff_normalized");
    let mut out = String::new();
    for (t, d) in diff.iter().enumerate() {
        out.push_str(&format!("{t}\t{d}\t{:.6}\n", *d as f64 / n));
    }
    print!("{out}");
    let max = diff.iter().copied().max().unwrap_or(0);
    let min = diff.iter().copied().min().unwrap_or(0);
    let nonneg = diff.iter().filter(|&&d| d >= 0).count();
    eprintln!(
        "prio: max diff {max}, min diff {min}, {nonneg}/{} steps with PRIO >= FIFO",
        diff.len()
    );
    Ok(())
}
