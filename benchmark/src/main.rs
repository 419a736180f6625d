//! `bench` — the end-to-end benchmark runner.
//!
//! ```text
//! bench [--workload cli-paper|cli-large|serve-mix|sim-paper|all] [--seed N]
//!       [--seconds S] [--trace 0|1] [--out FILE] [--prio PATH]
//! bench --compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! Each workload prints a summary to stderr and, as its last stdout line,
//! one JSON object: `correct`, `attempted`, `failed`, and `metrics` — the
//! end-to-end metrics untraced, the per-layer ones with `--trace 1`.
//! `--out` merges the run's samples into a results file; `--compare`
//! prints per-metric changes between two results files against the
//! bounds in `BENCHMARK.json`, exiting 1 on a regression.

use prio_benchmark::runner::{self, Options, Report, DEFAULT_SECONDS, REPLAYS, SETUPS};
use prio_benchmark::workloads::MIN_ROUNDS;
use prio_benchmark::{catalog, results, stats, target_dir};
use prio_obs::json::{escape, write_json_f64, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Counts allocations for the traced pass's `allocs` and `heap_peak_mb`.
#[global_allocator]
static ALLOC: prio_obs::mem::CountingAllocator = prio_obs::mem::CountingAllocator;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut flags: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let arity = match flag.as_str() {
            "--compare" => 2,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--out" | "--prio" | "--bounds" => {
                1
            }
            other => return Err(format!("unknown argument {other:?}")),
        };
        let values: Vec<&str> = it.by_ref().take(arity).map(String::as_str).collect();
        if values.len() != arity {
            return Err(format!("{flag} needs {arity} value(s)"));
        }
        flags.insert(flag.as_str(), values);
    }
    let one = |name: &str| flags.get(name).map(|v| v[0]);

    if let Some(files) = flags.get("--compare") {
        let bounds = results::bounds(Path::new(one("--bounds").unwrap_or("BENCHMARK.json")))?;
        let (table, regressed) =
            results::compare(Path::new(files[0]), Path::new(files[1]), &bounds)?;
        print!("{table}");
        return Ok(if regressed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }

    let parse = |name: &str, default: u64| -> Result<u64, String> {
        one(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{name} takes a whole number, got {v:?}"))
        })
    };
    let opts = Options {
        prio: one("--prio")
            .map_or_else(|| target_dir().join("release").join("prio"), PathBuf::from),
        seed: parse("--seed", 1)?,
        seconds: parse("--seconds", DEFAULT_SECONDS)?,
        trace: match one("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
    };
    if !opts.prio.is_file() {
        return Err(format!(
            "no prio binary at {} (build it with `cargo build --release -p prio-cli`)",
            opts.prio.display()
        ));
    }
    let names: Vec<&str> = match one("--workload").unwrap_or("all") {
        "all" => catalog::WORKLOADS.to_vec(),
        name => vec![name],
    };
    for name in names {
        let report = runner::run(name, &opts)?;
        eprint!("{}", summary(&report, &opts));
        if let Some(out) = one("--out") {
            results::record(Path::new(out), host(&opts), &report)?;
        }
        println!("{}", result_line(&report)?);
    }
    Ok(ExitCode::SUCCESS)
}

/// The machine-readable result: the last line of stdout.
fn result_line(report: &Report) -> Result<String, String> {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.rec.attempted,
        report.rec.failed
    );
    for (i, m) in catalog::reported(report.trace).iter().enumerate() {
        let value = report.value(m.name);
        if !value.is_finite() {
            return Err(format!("{} is not a finite number", m.name));
        }
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(line, "{}: {{\"value\": ", escape(m.name));
        write_json_f64(value, &mut line);
        let _ = write!(line, ", \"unit\": {}}}", escape(m.unit));
    }
    line.push_str("}}");
    Ok(line)
}

/// The human-readable summary on stderr: every reported metric with its
/// median, quartiles, sample count and supported tail percentile.
fn summary(report: &Report, opts: &Options) -> String {
    let rec = &report.rec;
    let mut out = format!(
        "{} ({}, seed {}): {} attempted, {} failed, {}\n",
        report.workload,
        if report.trace { "traced" } else { "untraced" },
        opts.seed,
        rec.attempted,
        rec.failed,
        if report.correct() {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    for problem in &rec.problems {
        let _ = writeln!(out, "  problem: {problem}");
    }
    for m in catalog::reported(report.trace) {
        let samples = rec.samples.get(m.name).map(Vec::as_slice).unwrap_or(&[]);
        let (q1, median, q3) = stats::quartiles(samples);
        let _ = write!(
            out,
            "  {:<17} {median:>12.4} {:<5}  q1 {q1:.4}  q3 {q3:.4}  n={}",
            m.name,
            m.unit,
            samples.len()
        );
        if let Some((p, v)) = stats::tail(samples) {
            let _ = write!(out, "  p{p} {v:.4}");
        }
        out.push('\n');
    }
    out
}

/// The results file's host block.
fn host(opts: &Options) -> JsonValue {
    let output = |cmd: &mut Command| {
        cmd.output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let entries: [(&str, JsonValue); 10] = [
        ("nproc", JsonValue::Num(nproc as f64)),
        (
            "rustc",
            JsonValue::Str(output(Command::new("rustc").arg("--version"))),
        ),
        (
            "commit",
            JsonValue::Str(output(Command::new("git").args(["rev-parse", "HEAD"]))),
        ),
        ("seed", JsonValue::Num(opts.seed as f64)),
        ("seconds", JsonValue::Num(opts.seconds as f64)),
        ("setups", JsonValue::Num(SETUPS as f64)),
        ("replays", JsonValue::Num(REPLAYS as f64)),
        ("min_rounds", JsonValue::Num(MIN_ROUNDS as f64)),
        (
            "threads",
            JsonValue::Num(prio_benchmark::workloads::THREADS as f64),
        ),
        ("prio", JsonValue::Str(opts.prio.display().to_string())),
    ];
    JsonValue::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}
