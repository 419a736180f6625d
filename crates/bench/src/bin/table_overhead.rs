//! Reproduces the §3.6 overhead table: running time and peak memory of the
//! `prio` pipeline on the four scientific dags at full size (the paper ran
//! on a 3.4 GHz Pentium 4 with MSVC; absolute numbers differ, the scaling
//! across dags is the comparison target).
//!
//! Timing comes from the observability span registry — the same clocks the
//! CLI's `--timings` footer reads — so the table additionally breaks the
//! total down into the pipeline phases (reduce, decompose, schedule,
//! combine, emit).

use prio_bench::report::{fmt_bytes, fmt_duration, Table};
use prio_core::prio::prioritize;
use prio_obs::mem::{peak_since, reset_peak, CountingAllocator};
use prio_obs::span;
use prio_workloads::paper_suite;
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Paper-reported numbers for reference: (jobs, seconds, memory).
const PAPER: [(&str, &str, &str); 4] = [
    ("AIRSN", "< 1 s", "2 MB"),
    ("Inspiral", "16 s", "21 MB"),
    ("Montage", "8 s", "104 MB"),
    ("SDSS", "845 s", "1.3 GB"),
];

/// The phase spans broken out as columns — the stage vocabulary shared by
/// the span registry and the error taxonomy, recorded at their
/// implementation sites inside prio-graph and prio-core.
const PHASES: [&str; 5] = [
    prio_obs::stage::REDUCE,
    prio_obs::stage::DECOMPOSE,
    prio_obs::stage::SCHEDULE,
    prio_obs::stage::COMBINE,
    prio_obs::stage::EMIT,
];

fn phase_total(path: &str) -> Duration {
    span::stat_of(path).map(|s| s.total).unwrap_or_default()
}

fn main() {
    let mut headers = vec!["dag", "jobs", "time (ours)"];
    headers.extend(PHASES);
    headers.extend(["peak mem (ours)", "time (paper, P4/MSVC)", "mem (paper)"]);
    let mut t = Table::new(&headers);
    for (i, w) in paper_suite().into_iter().enumerate() {
        eprintln!(
            "overhead: prioritizing {} ({} jobs)…",
            w.name,
            w.dag().num_nodes()
        );
        // Each workload is measured from a clean registry so the phase
        // columns belong to this dag alone.
        prio_obs::reset();
        let baseline = reset_peak();
        let total = {
            let guard = span::span("prioritize");
            let result = prioritize(w.dag()).unwrap();
            assert!(result.schedule.is_valid_for(w.dag()));
            guard.elapsed()
        };
        let peak = peak_since(baseline);
        let (pname, ptime, pmem) = PAPER[i];
        assert_eq!(pname, w.name);
        let mut row = vec![
            w.name.to_string(),
            w.dag().num_nodes().to_string(),
            fmt_duration(total),
        ];
        row.extend(
            PHASES
                .iter()
                .map(|p| fmt_duration(phase_total(&format!("prioritize/{p}")))),
        );
        row.extend([fmt_bytes(peak), ptime.to_string(), pmem.to_string()]);
        t.row(row);
    }
    println!("\n== §3.6 overhead table: prio tool on the four scientific dags ==\n");
    println!("{}", t.render());
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/table_overhead.txt", t.render()).expect("write table");
    println!("wrote results/table_overhead.txt");
}
