//! `prio trace` — streaming analysis of job-lifecycle traces.
//!
//! Works over the schema-v3 lifecycle events (`job_submitted →
//! job_eligible → job_assigned → [job_failed/job_retried]* →
//! job_completed`) that `prio simulate --trace-out` records, read through
//! the bounded-memory [`prio_obs::stream`] reader — per-job state is
//! `O(jobs)`, never `O(trace bytes)`, so 10^6-job traces analyze without
//! slurping. A path of `-` reads stdin.
//!
//! Four analyses:
//!
//! * `timeline` — per-job lifecycle table (submitted, eligible, started,
//!   worker, attempts, completed, wait, service) per policy segment;
//! * `critical-path` — the *realized* critical path: walk back from the
//!   last completion through the parent whose completion made each job
//!   eligible, reporting per-arc slack (the queue wait between the
//!   parent's completion and the child's start);
//! * `curve` — the eligibility curve `E(t)` of each policy, written as a
//!   `results/fig4_*.tsv`-format table (`t`, `t_normalized`, `diff`,
//!   `diff_normalized`) of the per-time difference between the trace's
//!   two policy segments. Each reconstructed curve is verified against
//!   the eligibility series the simulator itself recorded (`ts`
//!   samples); a mismatch means the trace is corrupt and is an error;
//! * `diff` — per-job start/finish deltas between two traces plus
//!   makespan attribution (which job finished last on each side).
//!
//! The eligibility reconstruction invariant: `E` grows by one on
//! `job_eligible` and `job_retried`, shrinks by one on `job_completed`
//! and `job_failed`, exactly mirroring the engine's
//! `queue.len() + in_flight` sampled after each processed event.

use super::ingest::{self, fmt, opt, Item, PipelineMeta};
use crate::args::Args;
use crate::error::CliError;
use prio_obs::json::{escape, JsonObject, SCHEMA_VERSION};
use prio_obs::report::Table;
use prio_sim::trace::TraceEvent;

const USAGE: &str = "usage: prio trace <timeline|critical-path|curve|diff> ...\n\
    prio trace timeline      <trace.jsonl | -> [--json]\n\
    prio trace critical-path <trace.jsonl | -> [--json]\n\
    prio trace curve         <trace.jsonl | -> --out <file.tsv>\n\
    prio trace diff          <a.jsonl> <b.jsonl> [--policy-a P] [--policy-b P] [--json]";

// The flags each analysis accepts.
const TIMELINE_FLAGS: &[&str] = &["json"];
const CRITICAL_PATH_FLAGS: &[&str] = &["json"];
const CURVE_FLAGS: &[&str] = &["out"];
const DIFF_FLAGS: &[&str] = &["policy-a", "policy-b", "json"];

pub fn run(argv: &[String]) -> Result<(), CliError> {
    let Some(sub) = argv.first() else {
        return Err(CliError::usage(USAGE));
    };
    let rest = &argv[1..];
    match sub.as_str() {
        "timeline" => timeline(rest),
        "critical-path" => critical_path(rest),
        "curve" => curve(rest),
        "diff" => diff(rest),
        other => Err(CliError::usage(format!(
            "unknown trace subcommand {other:?}\n{USAGE}"
        ))),
    }
}

/// One job's lifecycle, folded from its events.
#[derive(Debug, Clone, Default)]
struct JobRow {
    submitted: Option<f64>,
    /// First time the job became eligible.
    eligible: Option<f64>,
    /// First assignment time.
    started: Option<f64>,
    /// Most recent assignment time (differs from `started` on retries).
    last_started: Option<f64>,
    /// Serving worker of the most recent assignment.
    worker: u64,
    /// Assignments (attempts started).
    attempts: u64,
    retries: u64,
    failures: u64,
    completed: Option<f64>,
}

impl JobRow {
    /// Queue wait of the first attempt.
    fn wait(&self) -> Option<f64> {
        Some(self.started? - self.eligible?)
    }

    /// Service time of the final (successful) attempt.
    fn service(&self) -> Option<f64> {
        Some(self.completed? - self.last_started?)
    }

    fn status(&self) -> &'static str {
        if self.completed.is_some() {
            "completed"
        } else if self.failures > 0 {
            "failed"
        } else if self.eligible.is_none() {
            "unreachable"
        } else {
            "pending"
        }
    }
}

/// One policy segment of a trace: everything between consecutive
/// `meta command=trace policy=…` lines.
#[derive(Debug)]
struct Segment {
    policy: String,
    jobs: Vec<JobRow>,
    /// Eligibility-curve change points: `(time, E after the change)`,
    /// in event order (times non-decreasing).
    curve: Vec<(f64, i64)>,
    /// The simulator's own recorded `eligible_pool` samples, for
    /// verifying the reconstruction.
    samples: Vec<(f64, f64)>,
    events: u64,
}

impl Segment {
    fn new(policy: &str) -> Segment {
        Segment {
            policy: policy.to_string(),
            jobs: Vec::new(),
            curve: Vec::new(),
            samples: Vec::new(),
            events: 0,
        }
    }

    fn job(&mut self, id: usize) -> &mut JobRow {
        if self.jobs.len() <= id {
            self.jobs.resize(id + 1, JobRow::default());
        }
        &mut self.jobs[id]
    }

    fn eligible_now(&self) -> i64 {
        self.curve.last().map_or(0, |&(_, e)| e)
    }

    fn apply(&mut self, event: &TraceEvent) {
        self.events += 1;
        match *event {
            TraceEvent::JobSubmitted { time, job } => {
                self.job(job.index()).submitted.get_or_insert(time);
            }
            TraceEvent::JobEligible { time, job } => {
                self.job(job.index()).eligible.get_or_insert(time);
                let e = self.eligible_now() + 1;
                self.curve.push((time, e));
            }
            TraceEvent::JobAssigned {
                time, job, worker, ..
            } => {
                let row = self.job(job.index());
                row.started.get_or_insert(time);
                row.last_started = Some(time);
                row.worker = worker;
                row.attempts += 1;
            }
            TraceEvent::JobCompleted { time, job } => {
                self.job(job.index()).completed = Some(time);
                let e = self.eligible_now() - 1;
                self.curve.push((time, e));
            }
            TraceEvent::JobFailed { time, job } => {
                self.job(job.index()).failures += 1;
                let e = self.eligible_now() - 1;
                self.curve.push((time, e));
            }
            TraceEvent::JobRetried { time, job, .. } => {
                self.job(job.index()).retries += 1;
                let e = self.eligible_now() + 1;
                self.curve.push((time, e));
            }
            TraceEvent::BatchArrived { .. }
            | TraceEvent::WorkerDown { .. }
            | TraceEvent::WorkerUp { .. } => {}
        }
    }

    /// Last completion time (the realized makespan of the segment).
    fn makespan(&self) -> f64 {
        self.jobs
            .iter()
            .filter_map(|j| j.completed)
            .fold(0.0, f64::max)
    }

    /// Checks every simulator-recorded `eligible_pool` sample against the
    /// reconstructed curve: the sampled value must be an `E` value the
    /// curve actually held at that time (events at one instant can pass
    /// through several values). Returns how many samples were checked.
    fn verify_curve(&self) -> Result<usize, String> {
        for &(t, v) in &self.samples {
            // Candidates: every E attained by a change at exactly `t`,
            // plus the value carried in from the last change before `t`
            // (0 before any change).
            let lo = self.curve.partition_point(|&(ct, _)| ct < t);
            let hi = self.curve.partition_point(|&(ct, _)| ct <= t);
            let carried = if lo == 0 { 0 } else { self.curve[lo - 1].1 };
            let matched =
                v == carried as f64 || self.curve[lo..hi].iter().any(|&(_, e)| v == e as f64);
            if !matched {
                return Err(format!(
                    "policy {}: recorded eligible_pool sample ({t}, {v}) does not match \
                     the curve reconstructed from lifecycle events",
                    self.policy
                ));
            }
        }
        Ok(self.samples.len())
    }

    /// The curve's value at time `t` (step function; 0 before the first
    /// change).
    fn curve_at(&self, t: f64) -> i64 {
        let hi = self.curve.partition_point(|&(ct, _)| ct <= t);
        if hi == 0 {
            0
        } else {
            self.curve[hi - 1].1
        }
    }
}

/// Streams one trace file into its policy segments. Events before the
/// first `policy=` meta line land in a `"-"` segment.
fn load_segments(path: &str) -> Result<(Vec<Segment>, PipelineMeta), CliError> {
    let mut segments: Vec<Segment> = Vec::new();
    let pipeline = ingest::read(path, |item| {
        match item {
            Item::Meta {
                policy: Some(policy),
                ..
            } => segments.push(Segment::new(policy)),
            Item::Series(ts) if ts.series == "eligible_pool" => {
                if let Some(seg) = segments.iter_mut().rev().find(|s| s.policy == ts.policy) {
                    seg.samples.extend(ts.samples);
                }
            }
            Item::Event(event) => {
                if segments.is_empty() {
                    segments.push(Segment::new("-"));
                }
                segments.last_mut().expect("non-empty").apply(&event);
            }
            _ => {}
        }
        Ok(())
    })?;
    if segments.is_empty() {
        return Err(CliError::input(format!(
            "{path}: no trace events found (was this written with --trace-out?)"
        )));
    }
    Ok((segments, pipeline.unwrap_or_default()))
}

// ---------------------------------------------------------------- timeline

fn timeline(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, TIMELINE_FLAGS)?;
    let path = args.one_positional()?;
    let (segments, health) = load_segments(path)?;
    health.warn(path);
    if args.has("json") {
        println!("{}", timeline_json(path, &segments));
    } else {
        print!("{}", timeline_text(path, &segments));
    }
    Ok(())
}

fn timeline_text(path: &str, segments: &[Segment]) -> String {
    let mut out = format!("prio trace timeline — {path}, schema v{SCHEMA_VERSION}\n");
    for seg in segments {
        out.push_str(&format!(
            "\npolicy {} ({} jobs, makespan {})\n",
            seg.policy,
            seg.jobs.len(),
            fmt(seg.makespan())
        ));
        let mut table = Table::new(&[
            "job",
            "submitted",
            "eligible",
            "started",
            "worker",
            "attempts",
            "completed",
            "wait",
            "service",
            "status",
        ]);
        for (id, job) in seg.jobs.iter().enumerate() {
            table.row(vec![
                id.to_string(),
                opt(job.submitted),
                opt(job.eligible),
                opt(job.started),
                job.worker.to_string(),
                job.attempts.to_string(),
                opt(job.completed),
                opt(job.wait()),
                opt(job.service()),
                job.status().to_string(),
            ]);
        }
        out.push_str(&table.render());
    }
    out
}

fn job_json(id: usize, job: &JobRow) -> String {
    let mut obj = JsonObject::new().u64("job", id as u64);
    let add = |obj: JsonObject, key: &str, v: Option<f64>| match v {
        Some(v) => obj.f64(key, v),
        None => obj,
    };
    obj = add(obj, "submitted", job.submitted);
    obj = add(obj, "eligible", job.eligible);
    obj = add(obj, "started", job.started);
    obj = obj.u64("worker", job.worker).u64("attempts", job.attempts);
    if job.retries > 0 {
        obj = obj.u64("retries", job.retries);
    }
    if job.failures > 0 {
        obj = obj.u64("failures", job.failures);
    }
    obj = add(obj, "completed", job.completed);
    obj = add(obj, "wait", job.wait());
    obj = add(obj, "service", job.service());
    obj.str("status", job.status()).finish()
}

fn timeline_json(path: &str, segments: &[Segment]) -> String {
    let mut out = format!("{{\"type\":\"trace_timeline\",\"v\":{SCHEMA_VERSION}");
    out.push_str(&format!(",\"path\":{}", escape(path)));
    out.push_str(",\"segments\":[");
    for (i, seg) in segments.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"policy\":{},\"jobs\":[", escape(&seg.policy)));
        let rows: Vec<String> = seg
            .jobs
            .iter()
            .enumerate()
            .map(|(id, job)| job_json(id, job))
            .collect();
        out.push_str(&rows.join(","));
        out.push_str(&format!("],\"makespan\":{}}}", seg.makespan()));
    }
    out.push_str("]}");
    out
}

// ----------------------------------------------------------- critical path

/// One arc of the realized critical path.
struct PathStep {
    job: usize,
    eligible: f64,
    started: Option<f64>,
    completed: f64,
    /// Queue wait between becoming eligible (= the critical parent's
    /// completion) and starting — the arc's slack.
    slack: Option<f64>,
}

/// Walks the realized critical path of one segment backward from the
/// last completion: each job's critical parent is the job whose
/// completion time equals its eligibility time (ties broken toward the
/// smallest job id, matching the engine's deterministic event order).
fn realized_path(seg: &Segment) -> Vec<PathStep> {
    // Completions sorted by (time, job) for the backward lookup.
    let mut completions: Vec<(f64, usize)> = seg
        .jobs
        .iter()
        .enumerate()
        .filter_map(|(id, j)| j.completed.map(|t| (t, id)))
        .collect();
    completions.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut path = Vec::new();
    let Some(&(_, mut job)) = completions.last() else {
        return path;
    };
    loop {
        let row = &seg.jobs[job];
        let eligible = row.eligible.unwrap_or(0.0);
        path.push(PathStep {
            job,
            eligible,
            started: row.started,
            completed: row.completed.unwrap_or(eligible),
            slack: row.wait(),
        });
        // The critical parent completed exactly when this job became
        // eligible. Sources (eligible at 0.0 with no such completion)
        // terminate the walk.
        let lo = completions.partition_point(|&(t, _)| t < eligible);
        match completions.get(lo) {
            Some(&(t, parent)) if t == eligible && parent != job => job = parent,
            _ => break,
        }
    }
    path.reverse();
    path
}

fn critical_path(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, CRITICAL_PATH_FLAGS)?;
    let path = args.one_positional()?;
    let (segments, health) = load_segments(path)?;
    health.warn(path);
    // The backward walk links each job's eligibility to the completion
    // that caused it; with only 1/N of lifecycles present the chain has
    // holes, so a sampled (or lossy) trace cannot yield a realized path.
    if health.sample > 1 {
        return Err(CliError::input(format!(
            "{path}: sampled trace (1/{} of jobs): the realized critical path needs \
             every job's lifecycle — rerun --trace-out without --trace-sample",
            health.sample
        )));
    }
    if health.dropped > 0 {
        return Err(CliError::input(format!(
            "{path}: lossy trace ({} events dropped at capture): the realized critical \
             path needs every event — rerun the simulation with a current prio build",
            health.dropped
        )));
    }
    if args.has("json") {
        let mut out = format!("{{\"type\":\"trace_critical_path\",\"v\":{SCHEMA_VERSION}");
        out.push_str(&format!(",\"path\":{}", escape(path)));
        out.push_str(",\"segments\":[");
        for (i, seg) in segments.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let steps: Vec<String> = realized_path(seg)
                .iter()
                .map(|s| {
                    let mut obj = JsonObject::new()
                        .u64("job", s.job as u64)
                        .f64("eligible", s.eligible);
                    if let Some(started) = s.started {
                        obj = obj.f64("started", started);
                    }
                    obj = obj.f64("completed", s.completed);
                    if let Some(slack) = s.slack {
                        obj = obj.f64("slack", slack);
                    }
                    obj.finish()
                })
                .collect();
            out.push_str(&format!(
                "{{\"policy\":{},\"makespan\":{},\"steps\":[{}]}}",
                escape(&seg.policy),
                seg.makespan(),
                steps.join(",")
            ));
        }
        out.push_str("]}");
        println!("{out}");
    } else {
        let mut out = format!("prio trace critical-path — {path}\n");
        for seg in &segments {
            let steps = realized_path(seg);
            let slack_total: f64 = steps.iter().filter_map(|s| s.slack).sum();
            out.push_str(&format!(
                "\npolicy {} (makespan {}, {} jobs on path, total slack {})\n",
                seg.policy,
                fmt(seg.makespan()),
                steps.len(),
                fmt(slack_total)
            ));
            let mut table = Table::new(&[
                "step",
                "job",
                "eligible",
                "started",
                "completed",
                "slack",
                "service",
            ]);
            for (i, s) in steps.iter().enumerate() {
                table.row(vec![
                    i.to_string(),
                    s.job.to_string(),
                    fmt(s.eligible),
                    opt(s.started),
                    fmt(s.completed),
                    opt(s.slack),
                    opt(s.started.map(|st| s.completed - st)),
                ]);
            }
            out.push_str(&table.render());
        }
        print!("{out}");
    }
    Ok(())
}

// -------------------------------------------------------------------- curve

fn curve(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, CURVE_FLAGS)?;
    let path = args.one_positional()?;
    let out_path = args
        .get("out")
        .ok_or_else(|| CliError::usage("prio trace curve requires --out <file.tsv>"))?;
    let (segments, health) = load_segments(path)?;
    health.warn(path);
    if health.dropped > 0 {
        return Err(CliError::input(format!(
            "{path}: lossy trace ({} events dropped at capture): the eligibility curve \
             cannot be reconstructed — rerun the simulation with a current prio build",
            health.dropped
        )));
    }
    let with_curves: Vec<&Segment> = segments.iter().filter(|s| !s.curve.is_empty()).collect();
    let [a, b] = with_curves.as_slice() else {
        return Err(CliError::input(format!(
            "{path}: curve needs exactly two policy segments (e.g. prio and fifo), found {}",
            with_curves.len()
        )));
    };
    // Verify each reconstruction against the simulator's own series
    // before trusting it: a divergence means a corrupt or truncated
    // trace, not a formatting nit. A sampled trace only carries 1/N of
    // the lifecycles, so its partial curve can never match the exact
    // telemetry — the check is skipped and the output is an estimate
    // scaled back up by N instead.
    let sampled = health.sample > 1;
    let mut checked = 0;
    if !sampled {
        for seg in [a, b] {
            checked += seg
                .verify_curve()
                .map_err(|e| CliError::input(format!("{path}: {e}")))?;
        }
    }
    // Under sampling both the per-time difference and the job count are
    // estimated from the kept subset: each kept job stands for N jobs.
    let n = if sampled {
        let kept = |s: &Segment| s.jobs.iter().filter(|j| j.submitted.is_some()).count();
        (kept(a).max(kept(b)).max(1) as u64 * health.sample) as usize
    } else {
        a.jobs.len().max(b.jobs.len()).max(1)
    };
    let scale = health.sample as i64;
    let mut times: Vec<f64> = a.curve.iter().chain(&b.curve).map(|&(t, _)| t).collect();
    times.sort_by(f64::total_cmp);
    times.dedup();
    let t_max = times.last().copied().unwrap_or(0.0).max(f64::MIN_POSITIVE);
    let mut tsv = Table::new(&["t", "t_normalized", "diff", "diff_normalized"]);
    for &t in &times {
        let diff = (a.curve_at(t) - b.curve_at(t)) * scale;
        tsv.row(vec![
            format!("{t:.6}"),
            format!("{:.6}", t / t_max),
            diff.to_string(),
            format!("{:.6}", diff as f64 / n as f64),
        ]);
    }
    std::fs::write(out_path, tsv.render_tsv())
        .map_err(|e| CliError::input(format!("{out_path}: {e}")))?;
    if sampled {
        eprintln!(
            "trace curve: wrote {out_path} ({} steps, E_{} - E_{}; sampled 1/{}: diffs are \
             estimates scaled by {}, exact verification skipped)",
            times.len(),
            a.policy,
            b.policy,
            health.sample,
            health.sample
        );
    } else {
        eprintln!(
            "trace curve: wrote {out_path} ({} steps, E_{} - E_{}, verified against {checked} \
             recorded samples)",
            times.len(),
            a.policy,
            b.policy
        );
    }
    Ok(())
}

// --------------------------------------------------------------------- diff

fn pick_segment<'a>(
    path: &str,
    segments: &'a [Segment],
    policy: Option<&str>,
) -> Result<&'a Segment, CliError> {
    match policy {
        Some(p) => segments.iter().find(|s| s.policy == p).ok_or_else(|| {
            let have: Vec<&str> = segments.iter().map(|s| s.policy.as_str()).collect();
            CliError::input(format!("{path}: no policy {p:?} (have: {have:?})"))
        }),
        None => Ok(&segments[0]),
    }
}

fn diff(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, DIFF_FLAGS)?;
    let [path_a, path_b] = args.positional.as_slice() else {
        return Err(CliError::usage(
            "expected two traces: prio trace diff <a.jsonl> <b.jsonl> \
             [--policy-a P] [--policy-b P] [--json]",
        ));
    };
    let (segments_a, health_a) = load_segments(path_a)?;
    let (segments_b, health_b) = load_segments(path_b)?;
    health_a.warn(path_a);
    health_b.warn(path_b);
    let a = pick_segment(path_a, &segments_a, args.get("policy-a"))?;
    let b = pick_segment(path_b, &segments_b, args.get("policy-b"))?;
    if a.jobs.len() != b.jobs.len() {
        return Err(CliError::input(format!(
            "traces disagree on job count: {} has {}, {} has {}",
            path_a,
            a.jobs.len(),
            path_b,
            b.jobs.len()
        )));
    }
    let last_finisher = |seg: &Segment| -> Option<usize> {
        seg.jobs
            .iter()
            .enumerate()
            .filter_map(|(id, j)| j.completed.map(|t| (t, id)))
            .max_by(|x, y| x.0.total_cmp(&y.0).then(y.1.cmp(&x.1)))
            .map(|(_, id)| id)
    };
    let (ms_a, ms_b) = (a.makespan(), b.makespan());
    if args.has("json") {
        let mut out = format!("{{\"type\":\"trace_diff\",\"v\":{SCHEMA_VERSION}");
        out.push_str(&format!(
            ",\"a\":{{\"path\":{},\"policy\":{},\"makespan\":{ms_a}}}",
            escape(path_a),
            escape(&a.policy)
        ));
        out.push_str(&format!(
            ",\"b\":{{\"path\":{},\"policy\":{},\"makespan\":{ms_b}}}",
            escape(path_b),
            escape(&b.policy)
        ));
        let mut attribution = JsonObject::new().f64("makespan_delta", ms_b - ms_a);
        if let Some(j) = last_finisher(a) {
            attribution = attribution.u64("last_job_a", j as u64);
        }
        if let Some(j) = last_finisher(b) {
            attribution = attribution.u64("last_job_b", j as u64);
        }
        out.push_str(&format!(",\"attribution\":{}", attribution.finish()));
        out.push_str(",\"jobs\":[");
        let rows: Vec<String> = a
            .jobs
            .iter()
            .zip(&b.jobs)
            .enumerate()
            .map(|(id, (ja, jb))| {
                let mut obj = JsonObject::new().u64("job", id as u64);
                let add = |obj: JsonObject, key: &str, va: Option<f64>, vb: Option<f64>| {
                    let obj = match va {
                        Some(v) => obj.f64(&format!("{key}_a"), v),
                        None => obj,
                    };
                    let obj = match vb {
                        Some(v) => obj.f64(&format!("{key}_b"), v),
                        None => obj,
                    };
                    match (va, vb) {
                        (Some(x), Some(y)) => obj.f64(&format!("{key}_delta"), y - x),
                        _ => obj,
                    }
                };
                obj = add(obj, "start", ja.started, jb.started);
                obj = add(obj, "finish", ja.completed, jb.completed);
                obj.finish()
            })
            .collect();
        out.push_str(&rows.join(","));
        out.push_str("]}");
        println!("{out}");
    } else {
        let mut out = format!(
            "prio trace diff — {} ({}) vs {} ({})\n",
            path_a, a.policy, path_b, b.policy
        );
        out.push_str(&format!(
            "makespan: {} vs {} (delta {})\n",
            fmt(ms_a),
            fmt(ms_b),
            fmt(ms_b - ms_a)
        ));
        if let (Some(ja), Some(jb)) = (last_finisher(a), last_finisher(b)) {
            out.push_str(&format!("last to finish: job {ja} (a) vs job {jb} (b)\n"));
        }
        let mut table = Table::new(&[
            "job", "start_a", "start_b", "d_start", "finish_a", "finish_b", "d_finish",
        ]);
        for (id, (ja, jb)) in a.jobs.iter().zip(&b.jobs).enumerate() {
            let delta = |x: Option<f64>, y: Option<f64>| match (x, y) {
                (Some(x), Some(y)) => fmt(y - x),
                _ => "-".to_string(),
            };
            table.row(vec![
                id.to_string(),
                opt(ja.started),
                opt(jb.started),
                delta(ja.started, jb.started),
                opt(ja.completed),
                opt(jb.completed),
                delta(ja.completed, jb.completed),
            ]);
        }
        out.push_str(&table.render());
        print!("{out}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_obs::sink::JsonlSink;
    use prio_sim::model::GridModel;
    use prio_sim::policy::PolicySpec;
    use prio_sim::trace::Trace;
    use prio_sim::trace_json::{write_telemetry, write_trace};
    use prio_sim::SimOutcome;
    use std::cell::RefCell;
    use std::path::PathBuf;

    /// A run recorded in memory: the outcome and its events.
    fn recorded(dag: &prio_graph::Dag, spec: &PolicySpec) -> (SimOutcome, Trace) {
        let recorder = RefCell::new(Trace::new());
        let model = GridModel::paper(0.3, 2.0);
        let out = prio_sim::simulate_streamed(dag, spec, &model, None, 3, &recorder);
        (out, recorder.into_inner())
    }

    /// Writes a real simulator trace (both policies) and returns its path.
    fn simulated_trace(name: &str) -> PathBuf {
        let dag = prio_graph::Dag::from_arcs(6, &[(0, 2), (1, 2), (2, 3), (2, 4), (4, 5)]).unwrap();
        let path = std::env::temp_dir().join(format!(
            "prio_trace_test_{name}_{}.jsonl",
            std::process::id()
        ));
        let sink = JsonlSink::to_file(&path).unwrap();
        for policy in ["prio", "fifo"] {
            let spec = match policy {
                "prio" => PolicySpec::Oblivious(prio_core::fifo::fifo_schedule(&dag)),
                _ => PolicySpec::Fifo,
            };
            let (out, trace) = recorded(&dag, &spec);
            sink.write_meta("trace", &format!("policy={policy} seed=3"))
                .unwrap();
            write_trace(&sink, &trace).unwrap();
            write_telemetry(&sink, policy, out.telemetry.as_ref().unwrap()).unwrap();
        }
        sink.flush().unwrap();
        path
    }

    #[test]
    fn segments_fold_lifecycles_and_verify_curves() {
        let path = simulated_trace("fold");
        let (segments, health) = load_segments(path.to_str().unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(health.dropped, 0, "sink-written traces default to complete");
        assert_eq!(health.sample, 1);
        assert_eq!(segments.len(), 2);
        for seg in &segments {
            assert_eq!(seg.jobs.len(), 6);
            for (id, job) in seg.jobs.iter().enumerate() {
                assert_eq!(job.submitted, Some(0.0), "job {id}");
                assert!(job.eligible.is_some(), "job {id}");
                let started = job.started.expect("assigned");
                let completed = job.completed.expect("completed");
                assert!(job.eligible.unwrap() <= started);
                assert!(started <= completed);
                assert_eq!(job.status(), "completed");
                assert!(job.worker > 0, "v3 traces carry worker ids");
            }
            // Every recorded telemetry sample matches the reconstruction.
            let checked = seg.verify_curve().expect("curves agree");
            assert!(checked > 0, "telemetry samples present");
            // The run drains: E returns to 0.
            assert_eq!(seg.curve.last().unwrap().1, 0);
        }
    }

    #[test]
    fn realized_path_walks_back_through_parents() {
        let path = simulated_trace("cp");
        let (segments, _) = load_segments(path.to_str().unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        for seg in &segments {
            let steps = realized_path(seg);
            assert!(!steps.is_empty());
            assert_eq!(
                steps.last().unwrap().completed,
                seg.makespan(),
                "path ends at the makespan"
            );
            assert_eq!(steps[0].eligible, 0.0, "path starts at a source");
            for w in steps.windows(2) {
                assert_eq!(
                    w[1].eligible, w[0].completed,
                    "each arc links a completion to the eligibility it caused"
                );
            }
        }
    }

    #[test]
    fn curve_verification_rejects_tampered_samples() {
        let path = simulated_trace("tamper");
        let (mut segments, _) = load_segments(path.to_str().unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        let seg = &mut segments[0];
        seg.samples.push((0.0, 9999.0));
        assert!(seg.verify_curve().is_err());
    }

    #[test]
    fn diff_requires_matching_job_counts() {
        let a = simulated_trace("diff_a");
        // A different dag size to trip the job-count check.
        let dag = prio_graph::Dag::from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
        let (_, trace) = recorded(&dag, &PolicySpec::Fifo);
        let b = std::env::temp_dir().join(format!(
            "prio_trace_test_diff_b_{}.jsonl",
            std::process::id()
        ));
        let sink = JsonlSink::to_file(&b).unwrap();
        sink.write_meta("trace", "policy=fifo seed=3").unwrap();
        write_trace(&sink, &trace).unwrap();
        sink.flush().unwrap();
        let argv: Vec<String> = [a.to_str().unwrap(), b.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = diff(&argv).unwrap_err();
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
        assert!(err.to_string().contains("job count"), "{err}");
    }

    /// Appends a capture-pipeline accounting record to a trace file.
    fn append_pipeline_meta(path: &std::path::Path, dropped: u64, sample: u64) {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        writeln!(
            file,
            "{{\"type\":\"meta\",\"v\":{SCHEMA_VERSION},\"command\":\"trace_pipeline\",\
             \"detail\":\"drop accounting\",\"enqueued\":100,\"written\":{},\
             \"dropped\":{dropped},\"sample\":{sample}}}",
            100 - dropped
        )
        .unwrap();
    }

    #[test]
    fn pipeline_meta_populates_trace_health() {
        let path = simulated_trace("health");
        append_pipeline_meta(&path, 7, 4);
        let (_, health) = load_segments(path.to_str().unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(health.dropped, 7);
        assert_eq!(health.sample, 4);
    }

    #[test]
    fn critical_path_rejects_sampled_and_lossy_traces() {
        let sampled = simulated_trace("cp_sampled");
        append_pipeline_meta(&sampled, 0, 8);
        let argv = vec![sampled.to_str().unwrap().to_string()];
        let err = critical_path(&argv).unwrap_err();
        let _ = std::fs::remove_file(&sampled);
        assert!(err.to_string().contains("sampled"), "{err}");

        let lossy = simulated_trace("cp_lossy");
        append_pipeline_meta(&lossy, 3, 1);
        let argv = vec![lossy.to_str().unwrap().to_string()];
        let err = critical_path(&argv).unwrap_err();
        let _ = std::fs::remove_file(&lossy);
        assert!(err.to_string().contains("lossy"), "{err}");
    }

    /// Writes a hand-built two-segment trace whose eligibility curves
    /// genuinely differ (prio holds E=2 early, fifo E=1).
    fn divergent_trace(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "prio_trace_divergent_{name}_{}.jsonl",
            std::process::id()
        ));
        let lines = [
            r#"{"type":"meta","v":3,"command":"trace","detail":"policy=prio seed=1"}"#,
            r#"{"type":"job_eligible","v":3,"time":0,"job":0}"#,
            r#"{"type":"job_eligible","v":3,"time":0,"job":1}"#,
            r#"{"type":"job_completed","v":3,"time":2,"job":0}"#,
            r#"{"type":"job_completed","v":3,"time":3,"job":1}"#,
            r#"{"type":"meta","v":3,"command":"trace","detail":"policy=fifo seed=1"}"#,
            r#"{"type":"job_eligible","v":3,"time":0,"job":0}"#,
            r#"{"type":"job_completed","v":3,"time":2,"job":0}"#,
            r#"{"type":"job_eligible","v":3,"time":2,"job":1}"#,
            r#"{"type":"job_completed","v":3,"time":3,"job":1}"#,
        ];
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        path
    }

    #[test]
    fn curve_scales_sampled_estimates_and_skips_verification() {
        // The same trace full-rate and *tagged* sampled: verification
        // must be skipped on the sampled one (it would not generally
        // hold) and every diff scaled by the modulus.
        let full = divergent_trace("curve_full");
        let tagged = divergent_trace("curve_tagged");
        append_pipeline_meta(&tagged, 0, 4);
        let out_full =
            std::env::temp_dir().join(format!("prio_curve_full_{}.tsv", std::process::id()));
        let out_tagged =
            std::env::temp_dir().join(format!("prio_curve_tagged_{}.tsv", std::process::id()));
        let argv = |trace: &std::path::Path, out: &std::path::Path| {
            vec![
                trace.to_str().unwrap().to_string(),
                "--out".to_string(),
                out.to_str().unwrap().to_string(),
            ]
        };
        curve(&argv(&full, &out_full)).unwrap();
        curve(&argv(&tagged, &out_tagged)).unwrap();
        let full_tsv = std::fs::read_to_string(&out_full).unwrap();
        let tagged_tsv = std::fs::read_to_string(&out_tagged).unwrap();
        let _ = std::fs::remove_file(&full);
        let _ = std::fs::remove_file(&tagged);
        let _ = std::fs::remove_file(&out_full);
        let _ = std::fs::remove_file(&out_tagged);
        let diffs = |tsv: &str| -> Vec<i64> {
            tsv.lines()
                .skip(1)
                .map(|l| l.split('\t').nth(2).unwrap().parse().unwrap())
                .collect()
        };
        let full_diffs = diffs(&full_tsv);
        let tagged_diffs = diffs(&tagged_tsv);
        assert_eq!(full_diffs.len(), tagged_diffs.len());
        for (f, t) in full_diffs.iter().zip(&tagged_diffs) {
            assert_eq!(*t, f * 4, "sampled diffs scale by the modulus");
        }
        assert!(full_diffs.iter().any(|d| *d != 0), "curves actually differ");
    }

    #[test]
    fn curve_rejects_lossy_traces() {
        let lossy = simulated_trace("curve_lossy");
        append_pipeline_meta(&lossy, 5, 1);
        let out = std::env::temp_dir().join(format!("prio_curve_lossy_{}.tsv", std::process::id()));
        let argv = vec![
            lossy.to_str().unwrap().to_string(),
            "--out".to_string(),
            out.to_str().unwrap().to_string(),
        ];
        let err = curve(&argv).unwrap_err();
        let _ = std::fs::remove_file(&lossy);
        assert!(err.to_string().contains("lossy"), "{err}");
        assert!(!out.exists(), "no TSV written for a lossy trace");
    }
}
