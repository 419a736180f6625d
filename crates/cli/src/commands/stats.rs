//! `prio stats` — pipeline statistics (components, families, shortcuts).

use crate::args::Args;
use crate::commands::load_dag;
use crate::error::CliError;
use prio_core::prio::prioritize;
use std::time::Instant;

/// The flags `prio stats` accepts.
const FLAGS: &[&str] = &["workload", "scale", "format"];

pub fn run(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, FLAGS)?;
    let (name, dag) = load_dag(&args)?;
    let start = Instant::now();
    let result = prioritize(&dag)?;
    let elapsed = start.elapsed();
    let s = &result.stats;
    println!("dag:                     {name}");
    println!("jobs:                    {}", dag.num_nodes());
    println!("dependencies:            {}", dag.num_arcs());
    println!("shortcuts removed:       {}", s.shortcuts_removed);
    println!("components:              {}", s.num_components);
    println!("  bipartite:             {}", s.num_bipartite);
    println!(
        "  catalog-scheduled:     {}",
        s.recognized.values().sum::<usize>()
    );
    for (family, count) in &s.recognized {
        println!("    {family}: {count}");
    }
    println!("  search-scheduled:      {}", s.searched);
    println!("  heuristic-scheduled:   {}", s.heuristic_scheduled);
    println!("  trivial:               {}", s.trivial);
    println!("general-search rounds:   {}", s.general_search_iterations);
    println!("prioritization time:     {:.3} s", elapsed.as_secs_f64());
    Ok(())
}
