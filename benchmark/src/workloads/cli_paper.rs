//! `cli-paper`: `prio run <f>.dag --threads 2 --output <out>` on the
//! paper's DAGs — the §3.6 overhead experiment through the command users
//! run. AIRSN (773 jobs), Inspiral (2,988) and Montage (7,881) are at the
//! paper's sizes; SDSS is a quarter of its 48,013 jobs (12,007), because a
//! full-size SDSS round takes over 20 s today and a run must fit several
//! rounds. The cost sits in the DAGMan layers — parse, instrument, the
//! submit-file (JSDF) step, write — and in decomposition.

use super::{read, rounds, write, Ctx, DagFile, Recorder, Workload, THREADS};
use crate::tracer::Tracer;
use crate::{check, proc, stages, stats};
use prio_core::{PrioOptions, Prioritizer};
use prio_dagman::instrument::{instrument_dagman_with, priorities_by_job, InstrumentMode};
use prio_dagman::write::write_dagman;
use prio_dagman::{parse_dagman_threads, registry, DagmanFile, Jsdf};
use prio_graph::Dag;
use prio_workloads::{airsn, inspiral, montage, sdss};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

/// The DAGs a run prioritizes, by file stem, with their generators.
pub struct Params {
    /// `(file stem, generator)` in the fixed order a round runs them.
    pub files: Vec<DagFile>,
}

fn sdss_quarter() -> Dag {
    sdss::sdss(sdss::SdssParams::scaled(0.25))
}

impl Params {
    /// The benchmark's inputs.
    pub fn full() -> Params {
        Params {
            files: vec![
                ("airsn", airsn::airsn_paper),
                ("inspiral", inspiral::inspiral_paper),
                ("montage", montage::montage_paper),
                ("sdss", sdss_quarter),
            ],
        }
    }

    /// Small instances of the same four families, for tests.
    pub fn tiny() -> Params {
        Params {
            files: vec![
                ("airsn", || airsn::airsn(8)),
                ("inspiral", || {
                    inspiral::inspiral(inspiral::InspiralParams::scaled(0.02))
                }),
                ("montage", || {
                    montage::montage(montage::MontageParams::scaled(0.02))
                }),
                ("sdss", || sdss::sdss(sdss::SdssParams::scaled(0.003))),
            ],
        }
    }
}

/// The submit file a job uses: one per transformation, named after the
/// job label without its trailing instance digits and underscores
/// (`cover1_17` and `cover2_3` both run `cover.submit`).
pub(crate) fn transformation(label: &str) -> &str {
    match label.trim_end_matches(|c: char| c.is_ascii_digit() || c == '_') {
        "" => "job",
        t => t,
    }
}

fn submit_text(transformation: &str) -> String {
    format!(
        "universe = vanilla\nexecutable = {transformation}\noutput = {transformation}.out\nqueue\n"
    )
}

/// One generated input: the dag, its DAGMan text, and its submit files.
pub(crate) struct Input {
    /// File stem.
    pub name: &'static str,
    /// The generator's dag (the reference every check uses).
    pub dag: Dag,
    /// The DAGMan file's text.
    pub text: String,
    /// Where the DAGMan file is.
    pub path: PathBuf,
    /// Every submit file it references, with its original content.
    pub submits: Vec<(PathBuf, String)>,
}

/// Generates `dag` as a DAGMan file with per-transformation submit files
/// in `ctx.dir`, the layout `cli-paper` and `sim-paper` both use.
pub(crate) fn write_input(ctx: &Ctx, name: &'static str, dag: Dag) -> Result<Input, String> {
    let file = DagmanFile::from_dag_with(&dag, |label| format!("{}.submit", transformation(label)));
    let text = write_dagman(&file);
    let path = ctx.path(&format!("{name}.dag"));
    write(&path, &text)?;
    let transformations: BTreeSet<&str> = dag
        .node_ids()
        .map(|u| transformation(dag.label(u)))
        .collect();
    let mut submits = Vec::new();
    for t in transformations {
        let path = ctx.path(&format!("{t}.submit"));
        let content = submit_text(t);
        write(&path, &content)?;
        submits.push((path, content));
    }
    Ok(Input {
        name,
        dag,
        text,
        path,
        submits,
    })
}

/// The `cli-paper` workload.
pub struct CliPaper {
    params: Params,
    inputs: Vec<Input>,
    /// Hash of each file's first measured output; later rounds and the
    /// replay must reproduce it byte for byte.
    measured: Vec<Option<u64>>,
}

impl CliPaper {
    /// A workload over `params`' DAGs.
    pub fn new(params: Params) -> CliPaper {
        CliPaper {
            params,
            inputs: Vec::new(),
            measured: Vec::new(),
        }
    }

    fn out_path(&self, ctx: &Ctx, i: usize) -> PathBuf {
        ctx.path(&format!("{}.out.dag", self.inputs[i].name))
    }

    fn reset_submits(&self) -> Result<(), String> {
        for input in &self.inputs {
            for (path, content) in &input.submits {
                write(path, content)?;
            }
        }
        Ok(())
    }
}

/// The independent check of one instrumented file: the minimal diff of
/// its input, priorities forming a permutation under which every parent
/// outranks its children, and — on the paper's AIRSN — the Fig. 5
/// bottleneck job at priority 753.
fn check_output(input: &Input, output: &str) -> Result<(), String> {
    let pairs = check::instrumented_dagman(&input.text, output)?;
    let priority = check::by_node(&input.dag, &pairs)?;
    check::priorities(&input.dag, &priority)?;
    if input.dag.num_nodes() == airsn::num_jobs(airsn::PAPER_WIDTH) {
        let bottleneck = format!("handle{}", airsn::HANDLE_LEN - 1);
        let p = pairs
            .iter()
            .find(|(job, _)| *job == bottleneck)
            .map(|&(_, p)| p);
        if p != Some(753) {
            return Err(format!(
                "AIRSN bottleneck {bottleneck} has priority {p:?}, paper: 753"
            ));
        }
    }
    Ok(())
}

fn check_submits(input: &Input) -> Result<(), String> {
    for (path, _) in &input.submits {
        if !check::jsdf_instrumented(&read(path)?) {
            return Err(format!(
                "{} lacks priority = $(jobpriority)",
                path.display()
            ));
        }
    }
    Ok(())
}

impl Workload for CliPaper {
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
        let threads = THREADS.to_string();
        rounds(ctx.budget, |timed| {
            self.reset_submits()?;
            let mut walls = Vec::new();
            let mut rss: f64 = 0.0;
            for i in 0..self.inputs.len() {
                let out = self.out_path(ctx, i);
                let input = &self.inputs[i];
                let (exit, _) = proc::run(
                    Command::new(&ctx.prio)
                        .arg("run")
                        .arg(&input.path)
                        .args(["--threads", &threads, "--output"])
                        .arg(&out),
                    &ctx.stderr(),
                )
                .map_err(|e| format!("spawning prio: {e}"))?;
                walls.push(exit.wall.as_secs_f64());
                rss = rss.max(exit.max_rss_mb());
                let verdict = if exit.status.success() {
                    read(&out)
                        .and_then(|text| {
                            let hash = crate::client::hash_bytes(text.as_bytes());
                            match self.measured[i] {
                                Some(first) if first == hash => Ok(()),
                                Some(_) => Err("output differs from the first round's".to_string()),
                                None => {
                                    check_output(input, &text)?;
                                    self.measured[i] = Some(hash);
                                    Ok(())
                                }
                            }
                        })
                        .and_then(|()| check_submits(input))
                } else {
                    Err(proc::failure(&exit, &ctx.stderr()))
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
        self.reset_submits()?;
        let (mut searches, mut catalog, mut nontrivial) = (0, 0, 0);
        for i in 0..self.inputs.len() {
            let input = &self.inputs[i];
            let out_path = ctx.path(&format!("{}.replay.dag", input.name));
            let op = tracer.op(format!("{}.dag", input.name));
            let root = tracer.enter("op", op);
            let text = tracer.time("input", op, || read(&input.path))?;
            let (mut file, dag) = tracer.time("parse", op, || {
                let path = input.path.to_string_lossy();
                registry()
                    .detect(Some(&*path), &text)
                    .ok_or("format not detected")?;
                let file = parse_dagman_threads(&text, THREADS).map_err(|e| e.to_string())?;
                let dag = file.to_dag().map_err(|e| e.to_string())?;
                Ok::<_, String>((file, dag))
            })?;
            let replayed = stages::prioritize(&dag, THREADS, tracer, op)?;
            tracer.time("apply", op, || {
                let names = replayed.order.iter().map(|&u| dag.label(u));
                let priorities = priorities_by_job(names);
                instrument_dagman_with(&mut file, &priorities, InstrumentMode::VarsMacro)
                    .map_err(|e| e.to_string())?;
                // The submit-file step exactly as `prio run` takes it: a
                // lookup per job, each unique file rewritten once.
                let mut seen = BTreeSet::new();
                for job in file.job_names() {
                    if let Some(submit) = file.submit_file(job) {
                        if !seen.insert(submit.to_string()) {
                            continue;
                        }
                        let path = input.path.with_file_name(submit);
                        let mut jsdf = Jsdf::parse(&read(&path)?);
                        jsdf.instrument_priority();
                        write(&path, jsdf.to_text())?;
                    }
                }
                Ok::<_, String>(())
            })?;
            let output = tracer.time("write", op, || {
                let output = write_dagman(&file);
                write(&out_path, &output).map(|()| output)
            })?;
            tracer.exit(root);

            let direct = Prioritizer::with_options(PrioOptions {
                threads: THREADS,
                ..PrioOptions::default()
            })
            .prioritize(&dag)
            .map_err(|e| e.to_string())?;
            let verdict = if replayed.order != direct.schedule.order() {
                Err("stage replay order differs from Prioritizer::prioritize".to_string())
            } else {
                check_output(input, &output)
                    .and_then(|()| check_submits(input))
                    .and_then(|()| match self.measured[i] {
                        Some(h) if h != crate::client::hash_bytes(output.as_bytes()) => {
                            Err("replayed output differs from prio run's".to_string())
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
        Ok(())
    }
}
