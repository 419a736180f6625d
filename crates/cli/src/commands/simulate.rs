//! `prio simulate` — PRIO vs FIFO under the stochastic grid model.

use crate::args::Args;
use crate::commands::load_dag;
use crate::error::CliError;
use prio_core::prio::prioritize;
use prio_obs::json::JsonObject;
use prio_obs::{JobSampler, JsonlSink, TracePipeline};
use prio_sim::engine::simulate_streamed;
use prio_sim::experiment::compare_policies_with;
use prio_sim::replicate::ReplicationPlan;
use prio_sim::trace_json::StreamingTraceWriter;
use prio_sim::{Backoff, FaultConfig, FaultModel, GridModel, PolicySpec, RetryPolicy};
use std::path::Path;

/// Parses the fault flags into a config; `None` when no fault flag asks
/// for an active layer (the reliable §4 grid).
fn fault_config(args: &Args) -> Result<Option<FaultConfig>, CliError> {
    let fault_rate: f64 = args.get_parsed("fault-rate", 0.0)?;
    let permanent: f64 = args.get_parsed("permanent-frac", 0.0)?;
    let retries: u32 = args.get_parsed("retries", 3)?;
    let backoff = match args.get("backoff") {
        None => Backoff::None,
        Some(spec) => Backoff::parse(spec).map_err(CliError::usage)?,
    };
    let mttf: f64 = args.get_parsed("worker-mttf", 0.0)?;
    let mttr: f64 = args.get_parsed("worker-mttr", 0.0)?;
    if !(0.0..1.0).contains(&fault_rate) {
        return Err(CliError::usage("--fault-rate must be in [0, 1)"));
    }
    if !(0.0..=1.0).contains(&permanent) {
        return Err(CliError::usage("--permanent-frac must be in [0, 1]"));
    }
    if mttf < 0.0 || mttr < 0.0 {
        return Err(CliError::usage("--worker-mttf/--worker-mttr must be >= 0"));
    }
    if mttr > 0.0 && mttf == 0.0 {
        return Err(CliError::usage("--worker-mttr requires --worker-mttf"));
    }
    let mut model = FaultModel::none();
    if fault_rate > 0.0 {
        model = FaultModel::with_rate(fault_rate);
    }
    if permanent > 0.0 {
        model = model.with_permanent(permanent);
    }
    if mttf > 0.0 {
        // Default repair time: a quarter of the uptime.
        model = model.with_churn(mttf, if mttr > 0.0 { mttr } else { mttf / 4.0 });
    }
    if !model.is_active() {
        return Ok(None);
    }
    Ok(Some(FaultConfig {
        model,
        retry: RetryPolicy {
            max_attempts: retries.saturating_add(1),
            backoff,
        },
    }))
}

/// The flags `prio simulate` accepts.
const FLAGS: &[&str] = &[
    "workload",
    "scale",
    "format",
    "mu-bit",
    "mu-bs",
    "p",
    "q",
    "seed",
    "threads",
    "fault-rate",
    "permanent-frac",
    "retries",
    "backoff",
    "worker-mttf",
    "worker-mttr",
    "trace-out",
    "trace-sample",
];

pub fn run(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, FLAGS)?;
    let (name, dag) = load_dag(&args)?;
    let mu_bit: f64 = args.get_parsed("mu-bit", 1.0)?;
    let mu_bs: f64 = args.get_parsed("mu-bs", 16.0)?;
    let p: usize = args.get_parsed("p", 30)?;
    let q: usize = args.get_parsed("q", 20)?;
    let seed: u64 = args.get_parsed("seed", 20060401)?;
    let threads: usize = args.get_parsed("threads", 0)?;
    if mu_bit <= 0.0 || mu_bs < 1.0 {
        return Err(CliError::usage("--mu-bit must be > 0 and --mu-bs >= 1"));
    }
    let faults = fault_config(&args)?;

    eprintln!("prio: simulating {name} at mu_bit={mu_bit}, mu_bs={mu_bs} (p={p}, q={q})");
    if let Some(f) = &faults {
        eprintln!(
            "prio: fault layer on: rate={} permanent={} max_attempts={} backoff={:?} churn={:?}",
            f.model.failure_probability,
            f.model.permanent_probability,
            f.retry.max_attempts,
            f.retry.backoff,
            f.model.worker_mttf,
        );
    }
    let prio = PolicySpec::Oblivious(prioritize(&dag)?.schedule);
    let model = GridModel::paper(mu_bit, mu_bs);
    let plan = ReplicationPlan {
        p,
        q,
        seed,
        threads,
    };
    let r = compare_policies_with(
        &dag,
        &prio,
        &PolicySpec::Fifo,
        &model,
        faults.as_ref(),
        &plan,
    );

    println!("metric\tPRIO_mean\tFIFO_mean\tratio_median\tratio_lo\tratio_hi");
    let mut rows = vec![
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
    ];
    // Fault metrics only appear when the layer is on, keeping reliable
    // output byte-identical to earlier builds.
    if faults.is_some() {
        rows.push((
            "failed_attempts",
            &r.a.failed_attempts,
            &r.b.failed_attempts,
            &None,
        ));
        rows.push((
            "wasted_work",
            &r.a.wasted_work,
            &r.b.wasted_work,
            &r.wasted_work_ratio,
        ));
    }
    for (name, a, b, ci) in rows {
        let (median, lo, hi) = match ci {
            Some(ci) => (
                format!("{:.4}", ci.median),
                format!("{:.4}", ci.lo),
                format!("{:.4}", ci.hi),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        println!(
            "{name}\t{:.4}\t{:.4}\t{median}\t{lo}\t{hi}",
            a.summary().mean,
            b.summary().mean
        );
    }

    // Structured trace: one fully traced run per policy (events plus the
    // per-run simulator telemetry — time series and latency histograms),
    // then the span and metric snapshots, all as JSONL. The telemetry is
    // a pure function of the seed, so serial and `--threads` invocations
    // write identical `ts`/`hist` records.
    if let Some(out) = args.get("trace-out") {
        let sample: u64 = args.get_parsed("trace-sample", 1)?;
        if sample == 0 {
            return Err(CliError::usage("--trace-sample must be >= 1"));
        }
        let io_err = |e: std::io::Error| CliError::input(format!("{out}: {e}"));
        let sink = JsonlSink::to_file(Path::new(out)).map_err(io_err)?;
        // Events are encoded as they are emitted into the pipeline's
        // batch buffer; meta and telemetry records go through the same
        // buffer (via `control`) so the file keeps its segment order.
        let pipeline = TracePipeline::new(sink, sample);
        // The fault parameters join the meta line only when the layer is
        // on, so reliable trace files stay identical to earlier builds.
        let fault_meta = match &faults {
            Some(f) => format!(
                " fault_rate={} retries={}",
                f.model.failure_probability,
                f.retry.max_attempts.saturating_sub(1)
            ),
            None => String::new(),
        };
        let meta = |command: &str, detail: &str| {
            JsonObject::typed("meta")
                .str("command", command)
                .str("detail", detail)
                .finish()
        };
        pipeline.control(meta(
            "simulate",
            &format!("workload={name} mu_bit={mu_bit} mu_bs={mu_bs} seed={seed}{fault_meta}"),
        ));
        let sampler = JobSampler::new(sample);
        if sampler.is_sampling() {
            eprintln!(
                "prio: sampling lifecycle events for ~1/{sample} of jobs \
                 (aggregate telemetry stays exact)"
            );
        }
        for (policy_name, policy) in [("prio", &prio), ("fifo", &PolicySpec::Fifo)] {
            pipeline.control(meta("trace", &format!("policy={policy_name} seed={seed}")));
            let writer = StreamingTraceWriter::new(&pipeline, sampler);
            let outcome = simulate_streamed(&dag, policy, &model, faults.as_ref(), seed, &writer);
            let telemetry = outcome
                .telemetry
                .ok_or_else(|| CliError::internal("streamed run recorded no telemetry"))?;
            for line in prio_sim::trace_json::telemetry_to_json(policy_name, &telemetry) {
                pipeline.control(line);
            }
        }
        let (sink, stats, result) = pipeline.finish();
        result.map_err(io_err)?;
        sink.write_line(&stats.meta_line()).map_err(io_err)?;
        sink.write_span_snapshot().map_err(io_err)?;
        sink.write_metrics_snapshot().map_err(io_err)?;
        sink.write_histograms_snapshot().map_err(io_err)?;
        sink.flush().map_err(io_err)?;
        eprintln!("prio: wrote event trace to {out}");
    }
    Ok(())
}
