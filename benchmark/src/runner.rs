//! One benchmark run of one workload: set-ups, the timed untraced rounds,
//! and — with tracing on — the traced replays that break a round down by
//! layer.

use crate::catalog::{self, LAYERS};
use crate::stats::median;
use crate::tracer::Tracer;
use crate::workloads::cli_large::{self, CliLarge};
use crate::workloads::cli_paper::{self, CliPaper};
use crate::workloads::serve_mix::{self, ServeMix};
use crate::workloads::sim_paper::{self, SimPaper};
use crate::workloads::{Ctx, Recorder, Workload};
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The timed phase's length unless `--seconds` says otherwise: the
/// `run_seconds` of `BENCHMARK.json`. On a shared 2-core host the speed
/// of the same work drifts by up to ±15% over minutes, so what spreads a
/// batch of runs is mostly how long the batch lasts; ten seconds still
/// gives every workload at least seven timed rounds.
pub const DEFAULT_SECONDS: u64 = 10;

/// Set-ups per run; `setup_s` is their median. A set-up takes tens of
/// milliseconds, mostly file writes, so it takes many for a steady
/// median.
pub const SETUPS: usize = 11;

/// Traced replays per run; each per-layer metric is their median.
pub const REPLAYS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The `prio` binary under test.
    pub prio: PathBuf,
    /// Seeds the generated inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Whether to run the traced replays and report per-layer metrics.
    pub trace: bool,
}

/// The outcome of one run of one workload.
#[derive(Debug)]
pub struct Report {
    /// The workload.
    pub workload: &'static str,
    /// Whether per-layer metrics were measured.
    pub trace: bool,
    /// Operations attempted and failed, failed checks, and samples.
    pub rec: Recorder,
}

impl Report {
    /// Whether every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.rec.failed == 0 && self.rec.problems.is_empty()
    }

    /// The reported value of `metric`: the median of its samples (0 for
    /// a metric the workload has nothing to count for).
    pub fn value(&self, metric: &str) -> f64 {
        self.rec.samples.get(metric).map_or(0.0, |s| median(s))
    }
}

/// The workload named `name`, at the benchmark's sizes.
pub fn workload(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cli-paper" => Box::new(CliPaper::new(cli_paper::Params::full())),
        "cli-large" => Box::new(CliLarge::new(cli_large::Params::full())),
        "serve-mix" => Box::new(ServeMix::new(serve_mix::Params::full())),
        "sim-paper" => Box::new(SimPaper::new(sim_paper::Params::full())),
        _ => return None,
    })
}

/// Runs workload `name`: [`SETUPS`] set-ups, the timed rounds, and with
/// tracing on, [`REPLAYS`] traced replays whose spans go to
/// `trace-<name>.jsonl` in the work root.
pub fn run(name: &str, opts: &Options) -> Result<Report, String> {
    let workload_name = catalog::WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let mut w = workload(name).expect("every catalog workload is constructible");
    let dir = crate::work_root().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ctx = Ctx {
        prio: opts.prio.clone(),
        dir,
        seed: opts.seed,
        budget: Duration::from_secs(opts.seconds),
    };
    let mut rec = Recorder::default();
    for _ in 0..SETUPS {
        let started = Instant::now();
        w.setup(&ctx)?;
        rec.sample("setup_s", started.elapsed().as_secs_f64());
    }
    w.measure(&ctx, &mut rec)?;
    if opts.trace {
        replay(name, w.as_mut(), &ctx, &mut rec)?;
    }
    Ok(Report {
        workload: workload_name,
        trace: opts.trace,
        rec,
    })
}

/// The traced replays: per-layer self times, allocation counts, and the
/// remainder of the untraced round time no layer accounts for.
fn replay(name: &str, w: &mut dyn Workload, ctx: &Ctx, rec: &mut Recorder) -> Result<(), String> {
    let path = crate::work_root().join(format!("trace-{name}.jsonl"));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    let wall_ms = rec.samples.get("wall_s").map_or(0.0, |s| median(s) * 1e3);
    for rep in 0..REPLAYS {
        let mut tracer = Tracer::new();
        let allocs = prio_obs::mem::ALLOC_COUNT.load(std::sync::atomic::Ordering::Relaxed);
        let baseline = prio_obs::mem::reset_peak();
        w.replay(ctx, &mut tracer, rec)?;
        let peak = prio_obs::mem::peak_since(baseline);
        let allocs = prio_obs::mem::ALLOC_COUNT.load(std::sync::atomic::Ordering::Relaxed) - allocs;
        rec.sample("allocs", allocs as f64);
        rec.sample("heap_peak_mb", peak as f64 / (1 << 20) as f64);
        if let Some(ns) = tracer.self_ns().into_iter().find(|&ns| ns < 0) {
            rec.problem(format!("a span has negative self time ({ns} ns)"));
        }
        let by_name: BTreeMap<&str, f64> = tracer.self_ms_by_name();
        let mut layers_ms = 0.0;
        for layer in LAYERS {
            let metric = catalog::metric(&format!("{layer}_ms")).expect("every layer has a metric");
            let ms = by_name.get(layer).copied().unwrap_or(0.0);
            rec.sample(metric.name, ms);
            layers_ms += ms;
        }
        rec.sample("unaccounted_ms", wall_ms - layers_ms);
        tracer
            .write_jsonl(&mut out, rep)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.flush().map_err(|e| format!("{}: {e}", path.display()))
}
