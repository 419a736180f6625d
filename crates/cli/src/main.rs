//! The `prio` command-line tool (§3.2).
//!
//! ```text
//! prio instrument <workflow> [--format F] [--output <file>] [--jsdf-dir <dir>] [--in-place]
//!                 [--mode vars|priority] [--search N]     (alias: run)
//! prio convert    <in> <out> [--from F] [--to F]
//! prio batch      <dir> [--format F] [--search N]
//! prio schedule   <workflow> [--format F] [--fifo] [--critical-path]
//! prio compare    <workflow | --workload NAME [--scale F]>
//! prio generate   <airsn|inspiral|montage|sdss|fig3> [--width W] [--scale F] [--format F] [--output <file>]
//! prio simulate   (<workflow> | --workload NAME [--scale F]) [--mu-bit X] [--mu-bs Y] [--p N] [--q N] [--seed S]
//!                 [--trace-out <file>] [--timings]
//! prio report     <trace.jsonl | ->... [--json]
//! prio trace      <timeline|critical-path|curve|diff> ...
//! prio stats      <file.dag | --workload NAME>
//! prio serve      [--listen ADDR | --stdio] [--serve-threads N] [--queue-cap N]
//!                 [--cache-bytes N] [--max-request-bytes N] [--format F]
//! ```
//!
//! Every subcommand accepts the global `-v`/`--verbose` flag (or the
//! `PRIO_LOG` environment variable) to print a phase-timing footer, and
//! `simulate`/`instrument` additionally take `--trace-out <file>` to dump
//! structured JSONL events plus span/counter snapshots (for `simulate`,
//! `--trace-sample N` thins job lifecycles to a deterministic 1/N
//! subset). The global `--profile-alloc` flag attaches
//! allocation-count/byte/peak deltas to every span (in the `--timings`
//! footer and `--trace-out` records), and `--metrics-out <file>` writes
//! a Prometheus text-format metrics snapshot at exit. Any other flag a
//! subcommand does not list is a usage error.
//!
//! `instrument` reproduces the paper's tool exactly: parse the DAGMan
//! input file, run the scheduling heuristic, define the `jobpriority`
//! macro per job via `VARS`, and set `priority = $(jobpriority)` in each
//! referenced job-submit description file that can be found on disk.

mod args;
mod commands;
mod error;

use error::CliError;
use std::process::ExitCode;

/// Counts every allocation so `--profile-alloc` can attach per-span
/// deltas. Two relaxed atomic ops per alloc; spans only read the
/// counters when profiling is switched on, so default output is
/// byte-identical with or without this allocator.
#[global_allocator]
static ALLOC: prio_obs::mem::CountingAllocator = prio_obs::mem::CountingAllocator;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // PRIO_LOG sets the baseline; explicit -v/-vv flags win. Global
    // flags are stripped before dispatch so they work in any position.
    prio_obs::init_from_env();
    let argv = strip_verbosity(argv);
    let argv = strip_profile_alloc(argv);
    let (argv, metrics_out) = strip_metrics_out(argv);
    let timings = argv.iter().any(|a| a == "--timings");
    let result = run(&argv).and_then(|()| write_metrics_out(metrics_out.as_deref()));
    match result {
        Ok(()) => {
            // Phase-timing footer on every subcommand, to stderr so piped
            // stdout output stays clean.
            prio_obs::report::print_footer(timings);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("prio: error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// Removes the global `--metrics-out <file>` flag (valid anywhere on the
/// command line), returning its value so a Prometheus text-format
/// snapshot of every counter, gauge, and histogram can be written at
/// exit — after the subcommand has finished incrementing them.
fn strip_metrics_out(argv: Vec<String>) -> (Vec<String>, Option<String>) {
    let mut out = None;
    let mut stripped = Vec::with_capacity(argv.len());
    let mut iter = argv.into_iter().peekable();
    while let Some(a) = iter.next() {
        if a == "--metrics-out" {
            // A missing value (nothing, or another flag, follows) falls
            // through to the subcommand parser, which reports it as a
            // usage error.
            match iter.next_if(|v| !v.starts_with("--")) {
                Some(path) => out = Some(path),
                None => stripped.push(a),
            }
        } else {
            stripped.push(a);
        }
    }
    (stripped, out)
}

/// Writes the end-of-run Prometheus snapshot when `--metrics-out` asked
/// for one, surfacing write failures through the normal CLI exit path.
fn write_metrics_out(path: Option<&str>) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    prio_obs::prom::write_snapshot(std::path::Path::new(path))
        .map_err(|e| CliError::input(format!("{path}: {e}")))?;
    eprintln!("prio: wrote metrics snapshot to {path}");
    Ok(())
}

/// Removes `-v`/`--verbose`/`-vv` wherever they appear (global flags,
/// valid before or after the subcommand) and raises the verbosity
/// accordingly.
fn strip_verbosity(argv: Vec<String>) -> Vec<String> {
    let mut level = prio_obs::verbosity();
    let argv = argv
        .into_iter()
        .filter(|a| match a.as_str() {
            "-v" | "--verbose" => {
                level = level.max(prio_obs::Level::Info);
                false
            }
            "-vv" => {
                level = level.max(prio_obs::Level::Debug);
                false
            }
            _ => true,
        })
        .collect();
    prio_obs::set_verbosity(level);
    argv
}

/// Removes the global `--profile-alloc` flag (valid anywhere on the
/// command line), switching on per-span allocation deltas before any
/// span opens.
fn strip_profile_alloc(argv: Vec<String>) -> Vec<String> {
    let mut enabled = false;
    let argv = argv
        .into_iter()
        .filter(|a| {
            if a == "--profile-alloc" {
                enabled = true;
                false
            } else {
                true
            }
        })
        .collect();
    if enabled {
        prio_obs::mem::set_span_profiling(true);
    }
    argv
}

fn run(argv: &[String]) -> Result<(), CliError> {
    let Some(cmd) = argv.first() else {
        print_usage();
        return Err(CliError::usage("missing subcommand"));
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "instrument" | "run" => commands::instrument::run(rest),
        "convert" => commands::convert::run(rest),
        "batch" => commands::batch::run(rest),
        "schedule" => commands::schedule::run(rest),
        "compare" => commands::compare::run(rest),
        "generate" => commands::generate::run(rest),
        "simulate" | "sim" => commands::simulate::run(rest),
        "report" => commands::report::run(rest),
        "serve" => commands::serve::run(rest),
        "trace" => commands::trace::run(rest),
        "stats" => commands::stats::run(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown subcommand {other:?} (try `prio help`)"
        ))),
    }
}

fn print_usage() {
    println!(
        "\
prio — prioritize DAGMan jobs to keep the number of eligible jobs high

USAGE:
    prio instrument <workflow> [--format F] [--output <file>] [--jsdf-dir <dir>]
                    [--in-place] [--mode vars|priority] [--search N]
                    [--trace-out <file>] [--timings]          (alias: run)
    prio convert    <in> <out> [--from F] [--to F]
    prio batch      <dir> [--format F] [--search N]
    prio schedule   <workflow> [--format F] [--fifo | --critical-path | --theoretical]
    prio compare    (<workflow> | --workload NAME [--scale F])
    prio generate   <airsn|inspiral|montage|sdss|fig3> [--width W] [--scale F]
                    [--format F] [--output <file>]
    prio simulate   (<workflow> | --workload NAME [--scale F])
                    [--mu-bit X] [--mu-bs Y] [--p N] [--q N] [--seed S] [--threads T]
                    [--fault-rate P] [--permanent-frac F] [--retries N]
                    [--backoff none|D|fixed:D|exp:B[:F[:C]]]
                    [--worker-mttf X] [--worker-mttr Y]
                    [--trace-out <file>] [--trace-sample N]
                    [--timings]                               (alias: sim)
    prio report     <trace.jsonl | ->... [--json]
    prio trace      timeline      <trace.jsonl | -> [--json]
    prio trace      critical-path <trace.jsonl | -> [--json]
    prio trace      curve         <trace.jsonl | -> --out <file.tsv>
    prio trace      diff          <a.jsonl> <b.jsonl> [--policy-a P] [--policy-b P] [--json]
    prio stats      (<workflow> | --workload NAME [--scale F])
    prio serve      [--listen ADDR | --stdio] [--serve-threads N] [--queue-cap N]
                    [--cache-bytes N] [--max-request-bytes N] [--format F]
    prio help

MODES (instrument --mode, DAGMan input only):
    vars     a VARS <job> jobpriority=\"P\" line per job, plus
             priority = $(jobpriority) in each submit file found (default)
    priority a PRIORITY <job> P line per job; DAGMan sets JobPrio from it,
             so submit files are left unchanged

WORKLOADS (--workload NAME, generate NAME):
    airsn, inspiral, montage, sdss; --scale F takes any finite F > 0:
    1 is the paper instance (the default), below 1 scales down, above 1
    scales up (AIRSN by width, the others by their stage parameters)

FORMATS (--format / --from / --to):
    auto     detect by file extension, then by content (default)
    dagman   DAGMan input files            (*.dag)
    json     prio-workflow-v1 JSON graphs  (*.json)
    edges    whitespace/TSV edge lists     (*.edges, *.tsv)

GLOBAL FLAGS:
    -v, --verbose   print a phase-timing footer to stderr (-vv adds counters);
                    the PRIO_LOG env var (off|info|debug) sets the same levels
    --timings       print the phase-timing footer regardless of verbosity
    --trace-out F   write structured JSONL events/spans/counters to F
                    (simulate: --trace-sample N keeps lifecycle events
                    for ~1/N of jobs)
    --metrics-out F write a Prometheus text-format snapshot of all
                    counters/gauges/histograms to F at exit
    --profile-alloc attach allocation count/bytes/peak deltas to every span

SUBCOMMANDS:
    instrument  parse a workflow file, compute the PRIO schedule, write the
                prioritized file back (DAGMan gets jobpriority VARS plus
                JSDF priority lines when found; other formats re-export
                with priorities attached)                      (alias: run)
    convert     translate a workflow between formats, keeping jobs, arcs,
                metadata, and priorities
    batch       prioritize every workflow file in a directory, writing each
                result next to its input as <stem>.prio.<ext> (DAGMan
                inputs also instrument their submit files, like instrument)
    schedule    print the schedule, one job name per line
    compare     print E_PRIO(t) - E_FIFO(t) per step (the paper's Fig. 4)
    generate    emit a synthetic scientific dag as a DAGMan file
                (--scale F builds the same dag as --workload NAME --scale F)
    simulate    compare PRIO vs FIFO under the stochastic grid model;
                --fault-rate/--retries/--backoff/--worker-mttf inject
                seeded job faults, DAGMan-style retries, and pool churn
    report      summarize --trace-out JSONL files: span percentiles,
                simulator time-series digests, PRIO-vs-FIFO side by side
    trace       analyze job-lifecycle traces: per-job timeline, realized
                critical path, eligibility curve (fig4 TSV), run diff
    stats       print pipeline statistics (components, families, shortcuts)
    serve       run the prioritization daemon: line-delimited JSON requests
                over TCP (--listen, until a shutdown verb) or stdin/stdout
                (--stdio, until EOF), with a worker pool, a bounded queue
                that sheds load as `overloaded`, and a content-hash result
                cache; `stats`/`ping` control verbs answer inline

EXIT CODES:
    0   success
    1   invalid input (unreadable file, parse error, dependency cycle)
    2   command-line usage error (unknown subcommand, flag or flag value)
    70  internal error (a pipeline invariant was violated — a bug)"
    );
}
