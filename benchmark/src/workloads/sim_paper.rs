//! `sim-paper`: `prio simulate <f>.dag --threads 2 --seed <seed>
//! --trace-out <f>.jsonl` on the `cli-paper` AIRSN, Inspiral and Montage
//! files, at the paper's defaults p = 30, q = 20 — the §4 evaluation path.
//! Replicated PRIO/FIFO runs and one streamed, traced run per policy do
//! nearly all the work; prioritizing is about 1% of it. SDSS is left out:
//! its decomposition alone would make this a prioritization benchmark.

use super::cli_paper::{write_input, Input};
use super::{read, rounds, Ctx, DagFile, Recorder, Workload, THREADS};
use crate::tracer::Tracer;
use crate::{check, proc, stages, stats};
use prio_core::Schedule;
use prio_dagman::registry;
use prio_graph::Dag;
use prio_obs::json::JsonObject;
use prio_obs::{JobSampler, JsonlSink, DEFAULT_RING_CAPACITY};
use prio_sim::engine::simulate_streamed;
use prio_sim::experiment::compare_policies_with;
use prio_sim::replicate::ReplicationPlan;
use prio_sim::trace_json::{event_pipeline, telemetry_to_json, StreamingTraceWriter};
use prio_sim::{GridModel, PolicySpec};
use prio_workloads::{airsn, inspiral, montage};
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// `prio simulate`'s defaults, which the benchmark keeps: the paper's
/// grid (`mu_bit` 1, `mu_bs` 16) and replication plan (p 30, q 20).
const MU_BIT: f64 = 1.0;
const MU_BS: f64 = 16.0;
const P: usize = 30;
const Q: usize = 20;

/// The DAGs a run simulates.
pub struct Params {
    /// `(file stem, generator)` in the fixed order a round runs them.
    pub files: Vec<DagFile>,
}

impl Params {
    /// The benchmark's inputs.
    pub fn full() -> Params {
        Params {
            files: vec![
                ("airsn", airsn::airsn_paper),
                ("inspiral", inspiral::inspiral_paper),
                ("montage", montage::montage_paper),
            ],
        }
    }

    /// Small instances, for tests.
    pub fn tiny() -> Params {
        Params {
            files: vec![
                ("airsn", || airsn::airsn(8)),
                ("montage", || {
                    montage::montage(montage::MontageParams::scaled(0.02))
                }),
            ],
        }
    }
}

/// The `sim-paper` workload.
pub struct SimPaper {
    params: Params,
    inputs: Vec<Input>,
    /// Each file's first measured stdout; later rounds and the replay
    /// must reproduce it exactly.
    measured: Vec<Option<String>>,
}

impl SimPaper {
    /// A workload over `params`' DAGs.
    pub fn new(params: Params) -> SimPaper {
        SimPaper {
            params,
            inputs: Vec::new(),
            measured: Vec::new(),
        }
    }
}

/// The independent check of one run: three finite metric rows on stdout
/// and a trace that recorded every event.
fn check_run(stdout: &str, trace: &Path) -> Result<(), String> {
    check::sim_table(stdout)?;
    match check::trace_dropped(&read(trace)?)? {
        0 => Ok(()),
        n => Err(format!("trace dropped {n} events")),
    }
}

/// `prio simulate`'s comparison table, formatted as the CLI prints it.
fn table(r: &prio_sim::ComparisonResult) -> String {
    let mut out = String::from("metric\tPRIO_mean\tFIFO_mean\tratio_median\tratio_lo\tratio_hi\n");
    for (name, a, b, ci) in [
        (
            "execution_time",
            &r.a.execution_time,
            &r.b.execution_time,
            &r.execution_time_ratio,
        ),
        (
            "stall_probability",
            &r.a.stalling,
            &r.b.stalling,
            &r.stalling_ratio,
        ),
        (
            "utilization",
            &r.a.utilization,
            &r.b.utilization,
            &r.utilization_ratio,
        ),
    ] {
        let (median, lo, hi) = match ci {
            Some(ci) => (
                format!("{:.4}", ci.median),
                format!("{:.4}", ci.lo),
                format!("{:.4}", ci.hi),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        let _ = writeln!(
            out,
            "{name}\t{:.4}\t{:.4}\t{median}\t{lo}\t{hi}",
            a.summary().mean,
            b.summary().mean
        );
    }
    out
}

/// Writes the streamed trace as `prio simulate --trace-out` does, and
/// returns the number of events the pipeline dropped.
fn write_trace(
    path: &Path,
    workload: &str,
    dag: &Dag,
    prio: &PolicySpec,
    seed: u64,
) -> Result<u64, String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let meta = |command: &str, detail: &str| {
        JsonObject::typed("meta")
            .str("command", command)
            .str("detail", detail)
            .finish()
    };
    let pipeline = event_pipeline(
        JsonlSink::to_file(path).map_err(io)?,
        DEFAULT_RING_CAPACITY,
        1,
    );
    pipeline.control(meta(
        "simulate",
        &format!("workload={workload} mu_bit={MU_BIT} mu_bs={MU_BS} seed={seed}"),
    ));
    let model = GridModel::paper(MU_BIT, MU_BS);
    for (name, policy) in [("prio", prio), ("fifo", &PolicySpec::Fifo)] {
        pipeline.control(meta("trace", &format!("policy={name} seed={seed}")));
        let writer = StreamingTraceWriter::new(&pipeline, JobSampler::new(1));
        let outcome = simulate_streamed(dag, policy, &model, None, seed, &writer);
        let telemetry = outcome
            .telemetry
            .ok_or("streamed run recorded no telemetry")?;
        for line in telemetry_to_json(name, &telemetry) {
            pipeline.control(line);
        }
    }
    let (sink, stats, result) = pipeline.finish();
    result.map_err(io)?;
    sink.write_line(&stats.meta_line()).map_err(io)?;
    sink.write_span_snapshot().map_err(io)?;
    sink.write_metrics_snapshot().map_err(io)?;
    sink.write_histograms_snapshot().map_err(io)?;
    sink.flush().map_err(io)?;
    Ok(stats.dropped)
}

impl Workload for SimPaper {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        self.inputs = self
            .params
            .files
            .iter()
            .map(|&(name, generate)| write_input(ctx, name, generate()))
            .collect::<Result<_, _>>()?;
        self.measured = vec![None; self.inputs.len()];
        Ok(())
    }

    fn measure(&mut self, ctx: &Ctx, rec: &mut Recorder) -> Result<(), String> {
        let (threads, seed) = (THREADS.to_string(), ctx.seed.to_string());
        rounds(ctx.budget, |timed| {
            let mut walls = Vec::new();
            let mut rss: f64 = 0.0;
            for (i, input) in self.inputs.iter().enumerate() {
                let trace = ctx.path(&format!("{}.trace.jsonl", input.name));
                let (exit, stdout) = proc::run(
                    Command::new(&ctx.prio)
                        .arg("simulate")
                        .arg(&input.path)
                        .args(["--threads", &threads, "--seed", &seed, "--trace-out"])
                        .arg(&trace),
                    &ctx.stderr(),
                )
                .map_err(|e| format!("spawning prio: {e}"))?;
                walls.push(exit.wall.as_secs_f64());
                rss = rss.max(exit.max_rss_mb());
                let stdout = String::from_utf8_lossy(&stdout).into_owned();
                let verdict = if !exit.status.success() {
                    Err(proc::failure(&exit, &ctx.stderr()))
                } else {
                    match &self.measured[i] {
                        Some(first) if *first != stdout => {
                            Err("stdout differs from the first round's".to_string())
                        }
                        Some(_) => check_run(&stdout, &trace),
                        None => check_run(&stdout, &trace).map(|()| {
                            self.measured[i] = Some(stdout);
                        }),
                    }
                };
                if let Err(e) = &verdict {
                    rec.problem(format!("{}: {e}", input.name));
                }
                rec.operation(verdict.is_ok());
            }
            if timed {
                rec.sample("wall_s", walls.iter().sum());
                rec.sample("p50_ms", stats::median(&walls) * 1e3);
                rec.sample("peak_rss_mb", rss);
            }
            Ok(())
        })
    }

    fn replay(&mut self, ctx: &Ctx, tracer: &mut Tracer, rec: &mut Recorder) -> Result<(), String> {
        let reg = registry();
        let (mut searches, mut catalog, mut nontrivial, mut dropped) = (0, 0, 0, 0);
        for (i, input) in self.inputs.iter().enumerate() {
            let trace = ctx.path(&format!("{}.replay.jsonl", input.name));
            let op = tracer.op(format!("{}.dag", input.name));
            let root = tracer.enter("op", op);
            let text = tracer.time("input", op, || read(&input.path))?;
            let dag = tracer.time("parse", op, || {
                let path = input.path.to_string_lossy();
                let frontend = reg
                    .detect(Some(&*path), &text)
                    .ok_or("format not detected")?;
                let workflow = frontend.import(&text).map_err(|e| e.to_string())?;
                Ok::<_, String>(workflow.into_dag())
            })?;
            // `prio simulate` prioritizes with the default (serial) options.
            let replayed = stages::prioritize(&dag, 0, tracer, op)?;
            let prio =
                PolicySpec::Oblivious(Schedule::from_order_unchecked(replayed.order.clone()));
            let stdout = tracer.time("apply", op, || {
                let plan = ReplicationPlan {
                    p: P,
                    q: Q,
                    seed: ctx.seed,
                    threads: THREADS,
                };
                let model = GridModel::paper(MU_BIT, MU_BS);
                table(&compare_policies_with(
                    &dag,
                    &prio,
                    &PolicySpec::Fifo,
                    &model,
                    None,
                    &plan,
                ))
            });
            let path = input.path.to_string_lossy();
            dropped += tracer.time("write", op, || {
                write_trace(&trace, &path, &dag, &prio, ctx.seed)
            })?;
            tracer.exit(root);

            let direct = prio_core::prioritize(&dag).map_err(|e| e.to_string())?;
            let verdict = if replayed.order != direct.schedule.order() {
                Err("stage replay order differs from prioritize".to_string())
            } else {
                check_run(&stdout, &trace).and_then(|()| match &self.measured[i] {
                    Some(first) if *first != stdout => {
                        Err("replayed table differs from prio simulate's".to_string())
                    }
                    _ => Ok(()),
                })
            };
            if let Err(e) = verdict {
                rec.problem(format!("{} (replay): {e}", input.name));
            }
            searches += replayed.general_searches;
            catalog += replayed.catalog;
            nontrivial += replayed.nontrivial;
        }
        rec.sample("general_searches", searches as f64);
        rec.sample("catalog_ratio", catalog as f64 / nontrivial.max(1) as f64);
        rec.sample("trace_dropped", dropped as f64);
        Ok(())
    }
}
