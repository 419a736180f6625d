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
use prio_obs::{span, Stage};
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

/// The phase spans broken out as columns — the [`Stage`]s that spans and
/// the error taxonomy share, recorded at their implementation sites
/// inside prio-graph and prio-core.
const PHASES: [Stage; 5] = [
    Stage::Reduce,
    Stage::Decompose,
    Stage::Schedule,
    Stage::Combine,
    Stage::Emit,
];

fn main() {
    let mut headers = vec!["dag", "jobs", "time (ours)"];
    headers.extend(PHASES.map(Stage::name));
    headers.extend(["peak mem (ours)", "time (paper, P4/MSVC)", "mem (paper)"]);
    let mut t = Table::new(&headers);
    for (i, w) in paper_suite().into_iter().enumerate() {
        eprintln!(
            "overhead: prioritizing {} ({} jobs)…",
            w.name,
            w.dag().num_nodes()
        );
        // One untimed run first closes every span path this workload
        // uses, so the span store allocates its per-path histograms
        // before the measured window and the peak column counts the
        // pipeline alone.
        {
            let _warm = span::span(Stage::Prioritize);
            prioritize(w.dag()).unwrap();
        }
        // Each workload is then measured from a clean registry (which
        // keeps those histograms allocated) so the phase columns belong
        // to this dag's measured run alone.
        prio_obs::reset();
        let baseline = reset_peak();
        let total = {
            let guard = span::span(Stage::Prioritize);
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
        // Each phase's time under `prioritize/<phase>`.
        let spans = span::snapshot();
        row.extend(PHASES.map(|p| {
            let path = format!("{}/{p}", Stage::Prioritize);
            let r = spans.iter().find(|r| r.path == path);
            fmt_duration(r.map_or(Duration::ZERO, |r| r.stat.total))
        }));
        row.extend([fmt_bytes(peak), ptime.to_string(), pmem.to_string()]);
        t.row(row);
    }
    println!("\n== §3.6 overhead table: prio tool on the four scientific dags ==\n");
    println!("{}", t.render());
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/table_overhead.txt", t.render()).expect("write table");
    println!("wrote results/table_overhead.txt");
}
