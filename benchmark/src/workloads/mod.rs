//! The four workloads, each driving one `prio` subcommand as its user
//! would, plus a traced in-process replay of the same inputs through each
//! layer's public functions.

pub mod cli_large;
pub mod cli_paper;
pub mod serve_mix;
pub mod sim_paper;

use crate::tracer::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Worker threads every subprocess gets (`--threads` / `--serve-threads`),
/// and the most the runner's own load generation uses: the core count of
/// the 2-core hosts the benchmark is sized for.
pub const THREADS: usize = 2;

/// Fewest timed rounds a run makes, however long they take.
pub const MIN_ROUNDS: usize = 3;

/// An input DAG: its file stem and the generator that builds it.
pub type DagFile = (&'static str, fn() -> prio_graph::Dag);

/// What a workload needs to know about its run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The `prio` binary under test.
    pub prio: PathBuf,
    /// The workload's own directory for inputs and outputs.
    pub dir: PathBuf,
    /// Seeds the generated inputs.
    pub seed: u64,
    /// How long the timed phase lasts.
    pub budget: Duration,
}

impl Ctx {
    /// A path inside the workload's directory.
    pub(crate) fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Where subprocesses' stderr goes.
    pub(crate) fn stderr(&self) -> PathBuf {
        self.path("prio.stderr")
    }
}

/// Everything a run measured: operation counts, failures, and samples per
/// metric name.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Operations attempted (subprocess invocations or requests).
    pub attempted: u64,
    /// Operations that failed: a non-zero exit, an output that fails its
    /// check, or a request answered with an error, shed, or not answered.
    pub failed: u64,
    /// Every check that failed, in words. Any entry makes the run
    /// incorrect.
    pub problems: Vec<String>,
    /// Samples per metric.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    /// Adds one sample of `metric`.
    pub fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    /// Records a failed check.
    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        // Repeats of one problem say nothing new; keep the report short.
        if self.problems.len() < 20 && !self.problems.contains(&what) {
            self.problems.push(what);
        }
    }

    /// Records one attempted operation and whether it succeeded.
    pub fn operation(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// One workload.
pub trait Workload {
    /// Generates and writes the inputs (serve-mix also starts and warms
    /// its daemon). Everything here is timed as `setup_s`, and a run sets
    /// up several times.
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String>;

    /// Runs timed rounds for the budget (at least [`MIN_ROUNDS`]), checks
    /// every output, and records the end-to-end samples.
    fn measure(&mut self, ctx: &Ctx, rec: &mut Recorder) -> Result<(), String>;

    /// Replays one round in process, inside `tracer`'s spans, checking
    /// the replay against the measured outputs and recording the
    /// per-layer work counts.
    fn replay(&mut self, ctx: &Ctx, tracer: &mut Tracer, rec: &mut Recorder) -> Result<(), String>;
}

/// Runs one warm-up round, whose samples are not kept (`round(false)`),
/// then timed rounds (`round(true)`) until the budget is spent and at
/// least [`MIN_ROUNDS`] are done. Every round's outputs are checked, the
/// warm-up's included.
pub(crate) fn rounds(
    budget: Duration,
    mut round: impl FnMut(bool) -> Result<(), String>,
) -> Result<(), String> {
    round(false)?;
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_ROUNDS || start.elapsed() < budget {
        round(true)?;
        n += 1;
    }
    Ok(())
}

/// Writes `text` to `path`, naming the path in the error.
pub(crate) fn write(path: &Path, text: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads `path` as text, naming the path in the error.
pub(crate) fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}
