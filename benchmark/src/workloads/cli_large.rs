//! `cli-large`: `prio run big.json --threads 2 --output out.json` on a
//! Montage-like workflow of about 100,000 jobs (`montage_tier`), stored
//! as prio-workflow-v1 JSON. At this size the parallel variants switch on
//! (`PARALLEL_WORK_THRESHOLD`, the CSR build's arc floor), import and
//! export dominate, and the DAGMan instrument and JSDF layers do nothing —
//! the opposite split from `cli-paper`. The size keeps a round under half
//! a second on two cores, so a run takes dozens: single invocations on a
//! shared host vary by ±15%, and only many of them give a steady median.

use super::{read, rounds, write, Ctx, Recorder, Workload, THREADS};
use crate::tracer::Tracer;
use crate::{check, proc, stages};
use prio_bench::scaling::montage_tier;
use prio_core::{PrioOptions, Prioritizer};
use prio_dagman::registry;
use prio_graph::Dag;
use prio_ir::{FormatId, Priorities, Workflow};
use std::process::Command;

/// The input's size.
pub struct Params {
    /// Target job count for `montage_tier`.
    pub jobs: usize,
}

impl Params {
    /// The benchmark's input.
    pub fn full() -> Params {
        Params { jobs: 100_000 }
    }

    /// A small input of the same shape, for tests.
    pub fn tiny() -> Params {
        Params { jobs: 2_000 }
    }
}

/// The `cli-large` workload.
pub struct CliLarge {
    params: Params,
    dag: Option<Dag>,
    /// Hash of the first measured output.
    measured: Option<u64>,
}

impl CliLarge {
    /// A workload over a `params`-sized input.
    pub fn new(params: Params) -> CliLarge {
        CliLarge {
            params,
            dag: None,
            measured: None,
        }
    }

    fn dag(&self) -> &Dag {
        self.dag.as_ref().expect("setup ran")
    }
}

/// The independent check: the exported priorities form a permutation and
/// a linear extension of the generator's dag.
fn check_output(dag: &Dag, output: &str) -> Result<(), String> {
    let pairs = check::json_priorities(output)?;
    check::priorities(dag, &check::by_node(dag, &pairs)?)
}

impl Workload for CliLarge {
    fn setup(&mut self, ctx: &Ctx) -> Result<(), String> {
        let dag = montage_tier(self.params.jobs);
        let n = dag.num_nodes();
        let workflow = Workflow::synthetic(dag);
        let reg = registry();
        let json = reg.get(FormatId::Json).expect("json frontend registered");
        write(
            &ctx.path("big.json"),
            json.export(&workflow, &Priorities::none(n)),
        )?;
        self.dag = Some(workflow.into_dag());
        Ok(())
    }

    fn measure(&mut self, ctx: &Ctx, rec: &mut Recorder) -> Result<(), String> {
        let (input, out) = (ctx.path("big.json"), ctx.path("out.json"));
        let threads = THREADS.to_string();
        rounds(ctx.budget, |timed| {
            let (exit, _) = proc::run(
                Command::new(&ctx.prio)
                    .arg("run")
                    .arg(&input)
                    .args(["--threads", &threads, "--output"])
                    .arg(&out),
                &ctx.stderr(),
            )
            .map_err(|e| format!("spawning prio: {e}"))?;
            let verdict = if exit.status.success() {
                read(&out).and_then(|text| {
                    let hash = crate::client::hash_bytes(text.as_bytes());
                    match self.measured {
                        Some(first) if first == hash => Ok(()),
                        Some(_) => Err("output differs from the first round's".to_string()),
                        None => {
                            check_output(self.dag(), &text)?;
                            self.measured = Some(hash);
                            Ok(())
                        }
                    }
                })
            } else {
                Err(proc::failure(&exit, &ctx.stderr()))
            };
            if let Err(e) = &verdict {
                rec.problem(e.clone());
            }
            rec.operation(verdict.is_ok());
            if timed {
                rec.sample("wall_s", exit.wall.as_secs_f64());
                rec.sample("p50_ms", exit.wall.as_secs_f64() * 1e3);
                rec.sample("peak_rss_mb", exit.max_rss_mb());
            }
            Ok(())
        })
    }

    fn replay(&mut self, ctx: &Ctx, tracer: &mut Tracer, rec: &mut Recorder) -> Result<(), String> {
        let (input, out) = (ctx.path("big.json"), ctx.path("replay.json"));
        let reg = registry();
        let op = tracer.op("big.json");
        let root = tracer.enter("op", op);
        let text = tracer.time("input", op, || read(&input))?;
        let (frontend, workflow) = tracer.time("parse", op, || {
            let path = input.to_string_lossy();
            let frontend = reg
                .detect(Some(&*path), &text)
                .ok_or("format not detected")?;
            let workflow = frontend.import(&text).map_err(|e| e.to_string())?;
            Ok::<_, String>((frontend, workflow))
        })?;
        let replayed = stages::prioritize(workflow.dag(), THREADS, tracer, op)?;
        let priorities = tracer.time("apply", op, || {
            Priorities::from_order(&replayed.order, workflow.num_jobs())
        });
        let output = tracer.time("write", op, || {
            let output = frontend.export(&workflow, &priorities);
            write(&out, &output).map(|()| output)
        })?;
        tracer.exit(root);

        let direct = Prioritizer::with_options(PrioOptions {
            threads: THREADS,
            ..PrioOptions::default()
        })
        .prioritize(workflow.dag())
        .map_err(|e| e.to_string())?;
        let verdict = if replayed.order != direct.schedule.order() {
            Err("stage replay order differs from Prioritizer::prioritize".to_string())
        } else {
            check_output(self.dag(), &output).and_then(|()| match self.measured {
                Some(h) if h != crate::client::hash_bytes(output.as_bytes()) => {
                    Err("replayed output differs from prio run's".to_string())
                }
                _ => Ok(()),
            })
        };
        if let Err(e) = verdict {
            rec.problem(format!("replay: {e}"));
        }
        rec.sample("general_searches", replayed.general_searches as f64);
        rec.sample(
            "catalog_ratio",
            replayed.catalog as f64 / replayed.nontrivial.max(1) as f64,
        );
        Ok(())
    }
}
