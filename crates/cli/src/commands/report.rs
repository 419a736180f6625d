//! `prio report` — summarize one or more `--trace-out` JSONL files.
//!
//! Reads the record stream (`meta`, `span`, `counter`/`gauge`, the
//! simulator trace events, and the telemetry records `ts`/`hist`)
//! through the bounded-memory [`prio_obs::stream`] reader — one line at a
//! time, so 10^6-job traces never get slurped — and renders a run
//! summary: a span-timing table with latency percentiles, a per-policy
//! simulator time-series digest (peak/mean eligible pool, utilization
//! curve), per-job latency histograms, and — when exactly two policies
//! are present (one file with both, or two files) — a PRIO-vs-FIFO
//! side-by-side comparison. `--json` emits the same summary as a single
//! JSON document on stdout. A path of `-` reads stdin. The input is read
//! through the ingest layer shared with `prio trace` ([`super::ingest`]):
//! schema v3 only, and a malformed record is an error naming its line.
//!
//! Everything derived from the simulator telemetry is deterministic per
//! seed, which is what the golden-output test pins; span timings are
//! wall-clock and vary run to run.

use super::ingest::{self, count, fmt, num, text, Item, PipelineMeta, TsRecord};
use crate::args::Args;
use crate::error::CliError;
use prio_obs::json::{JsonObject, JsonValue, SCHEMA_VERSION};
use prio_obs::report::Table;
use prio_obs::stream::Record;
use prio_sim::trace::TraceEvent;

/// The flags `prio report` accepts.
const FLAGS: &[&str] = &["json"];

pub fn run(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, FLAGS)?;
    let json = args.has("json");
    if args.positional.is_empty() {
        return Err(CliError::usage(
            "expected one or more trace files: prio report <trace.jsonl | -> ... [--json]",
        ));
    }
    let sources = args
        .positional
        .iter()
        .map(|path| Source::load(path))
        .collect::<Result<Vec<_>, _>>()?;
    // Lossy traces must never be summarized silently.
    for source in &sources {
        if let Some(p) = &source.pipeline {
            p.warn(&source.path);
        }
    }
    let comparison = comparison(&sources);
    if json {
        println!("{}", render_json(&sources, &comparison));
    } else {
        print!("{}", render_text(&sources, &comparison));
    }
    Ok(())
}

/// One histogram summary record (`type: "hist"`).
#[derive(Debug)]
struct HistRecord {
    name: String,
    count: u64,
    mean: f64,
    p50: u64,
    p90: u64,
    p99: u64,
    max: u64,
}

/// Simulator event counts for one policy segment. The fault-layer
/// counts (`retried`, `worker_down`) stay zero on reliable traces and
/// their columns are only rendered when some segment recorded them.
#[derive(Debug, Default)]
struct EventCounts {
    batches: u64,
    requests: u64,
    stalled: u64,
    assigned: u64,
    completed: u64,
    failed: u64,
    retried: u64,
    worker_down: u64,
}

/// Everything recorded under one `policy=` tag.
#[derive(Debug, Default)]
struct PolicyGroup {
    policy: String,
    events: EventCounts,
    series: Vec<TsRecord>,
    hists: Vec<HistRecord>,
}

impl PolicyGroup {
    fn digest(&self, series: &str) -> Option<&TsRecord> {
        self.series.iter().find(|t| t.series == series)
    }

    fn hist(&self, name: &str) -> Option<&HistRecord> {
        self.hists.iter().find(|h| h.name == name)
    }
}

/// One `span` record.
#[derive(Debug)]
struct SpanRow {
    path: String,
    count: u64,
    total_ms: f64,
    max_ms: f64,
    /// `(p50, p90, p99)` in ms.
    percentiles: (f64, f64, f64),
}

/// One parsed trace file.
#[derive(Debug)]
struct Source {
    path: String,
    metas: Vec<String>,
    spans: Vec<SpanRow>,
    /// Per-policy groups in encounter order; events before the first
    /// `policy=` meta land in a `"-"` group.
    groups: Vec<PolicyGroup>,
    /// Registry histograms (pipeline-side, not policy-tagged).
    registry_hists: Vec<HistRecord>,
    counters: u64,
    /// Drop accounting from the capture pipeline, when the trace has it.
    pipeline: Option<PipelineMeta>,
}

impl Source {
    /// Streams the trace at `path` into a `Source`: the reader holds one
    /// line at a time, so memory stays bounded by the digest being
    /// built, not the trace size.
    fn load(path: &str) -> Result<Source, CliError> {
        let mut source = Source {
            path: path.to_string(),
            metas: Vec::new(),
            spans: Vec::new(),
            groups: Vec::new(),
            registry_hists: Vec::new(),
            counters: 0,
            pipeline: None,
        };
        let mut current = String::from("-");
        let pipeline = ingest::read(path, |item| source.ingest(item, &mut current))?;
        source.pipeline = pipeline;
        Ok(source)
    }

    fn group_mut(&mut self, policy: &str) -> &mut PolicyGroup {
        if let Some(i) = self.groups.iter().position(|g| g.policy == policy) {
            return &mut self.groups[i];
        }
        self.groups.push(PolicyGroup {
            policy: policy.to_string(),
            ..PolicyGroup::default()
        });
        self.groups.last_mut().expect("just pushed")
    }

    fn ingest(&mut self, item: Item<'_>, current_policy: &mut String) -> Result<(), String> {
        match item {
            // `trace` meta lines open a per-policy segment; every meta
            // line is also header material.
            Item::Meta {
                command,
                detail,
                policy,
            } => {
                if let Some(policy) = policy {
                    *current_policy = policy.to_string();
                }
                self.metas.push(format!("{command} {detail}"));
            }
            Item::Event(event) => match event {
                TraceEvent::BatchArrived { size, stalled, .. } => {
                    let events = &mut self.group_mut(current_policy).events;
                    events.batches += 1;
                    events.requests += size;
                    events.stalled += u64::from(stalled);
                }
                TraceEvent::JobAssigned { .. } => {
                    self.group_mut(current_policy).events.assigned += 1
                }
                TraceEvent::JobCompleted { .. } => {
                    self.group_mut(current_policy).events.completed += 1
                }
                TraceEvent::JobFailed { .. } => self.group_mut(current_policy).events.failed += 1,
                TraceEvent::JobRetried { .. } => self.group_mut(current_policy).events.retried += 1,
                TraceEvent::WorkerDown { .. } => {
                    self.group_mut(current_policy).events.worker_down += 1
                }
                TraceEvent::JobSubmitted { .. }
                | TraceEvent::JobEligible { .. }
                | TraceEvent::WorkerUp { .. } => {}
            },
            Item::Series(ts) => {
                let policy = ts.policy.clone();
                self.group_mut(&policy).series.push(ts);
            }
            Item::Other(record) => self.ingest_other(record)?,
        }
        Ok(())
    }

    /// Spans, scalar metrics and histograms: the records only the report
    /// reads.
    fn ingest_other(&mut self, record: &Record) -> Result<(), String> {
        let v = &record.value;
        match record.kind.as_str() {
            "span" => self.spans.push(SpanRow {
                path: text(v, "path")?.to_string(),
                count: count(v, "count")?,
                total_ms: num(v, "total_ms")?,
                max_ms: num(v, "max_ms")?,
                percentiles: (num(v, "p50_ms")?, num(v, "p90_ms")?, num(v, "p99_ms")?),
            }),
            "counter" | "gauge" => self.counters += 1,
            "hist" => {
                let hist = HistRecord {
                    name: text(v, "name")?.to_string(),
                    count: count(v, "count")?,
                    mean: num(v, "mean")?,
                    p50: count(v, "p50")?,
                    p90: count(v, "p90")?,
                    p99: count(v, "p99")?,
                    max: count(v, "max")?,
                };
                // Telemetry histograms carry a policy tag; registry
                // histograms (pipeline-side) do not.
                match v.get("policy").and_then(JsonValue::as_str) {
                    Some(policy) => {
                        let policy = policy.to_string();
                        self.group_mut(&policy).hists.push(hist);
                    }
                    None => self.registry_hists.push(hist),
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// A digest field of one named series, or 0 when the series is absent.
fn ts_metric(g: &PolicyGroup, series: &str, pick: fn(&TsRecord) -> f64) -> f64 {
    g.digest(series).map(pick).unwrap_or(0.0)
}

/// A summary field of one named histogram, or 0 when it is absent.
fn hist_metric(g: &PolicyGroup, name: &str, pick: fn(&HistRecord) -> f64) -> f64 {
    g.hist(name).map(pick).unwrap_or(0.0)
}

/// One row of the side-by-side comparison.
struct ComparisonRow {
    metric: &'static str,
    a: f64,
    b: f64,
}

/// The two policies compared, plus the metric rows. `None` unless exactly
/// two policy groups with telemetry exist across all sources.
struct Comparison {
    a_name: String,
    b_name: String,
    rows: Vec<ComparisonRow>,
}

fn comparison(sources: &[Source]) -> Option<Comparison> {
    let groups: Vec<(usize, &PolicyGroup)> = sources
        .iter()
        .enumerate()
        .flat_map(|(i, s)| s.groups.iter().map(move |g| (i, g)))
        .filter(|(_, g)| !g.series.is_empty())
        .collect();
    let [(ai, a), (bi, b)] = groups.as_slice() else {
        return None;
    };
    let label = |i: usize, g: &PolicyGroup| {
        if sources.len() > 1 {
            format!("{}:{}", i, g.policy)
        } else {
            g.policy.clone()
        }
    };
    type Metric = (&'static str, fn(&PolicyGroup) -> f64);
    let mut metrics: Vec<Metric> = vec![
        ("makespan", |g| ts_metric(g, "eligible_pool", |t| t.last_t)),
        ("eligible_pool_mean", |g| {
            ts_metric(g, "eligible_pool", |t| t.mean)
        }),
        ("eligible_pool_peak", |g| {
            ts_metric(g, "eligible_pool", |t| t.peak)
        }),
        ("utilization_final", |g| {
            ts_metric(g, "utilization", |t| t.last_v)
        }),
        ("job_wait_mean_milli", |g| {
            hist_metric(g, "job_wait_milli", |h| h.mean)
        }),
        ("job_wait_p90_milli", |g| {
            hist_metric(g, "job_wait_milli", |h| h.p90 as f64)
        }),
        ("job_service_mean_milli", |g| {
            hist_metric(g, "job_service_milli", |h| h.mean)
        }),
    ];
    // Fault metrics join only when some side recorded wasted work, so the
    // reliable report keeps its original seven rows.
    if a.hist("wasted_work_milli").is_some() || b.hist("wasted_work_milli").is_some() {
        metrics.push(("job_attempts_total", |g| {
            hist_metric(g, "job_attempts", |h| h.count as f64)
        }));
        metrics.push(("wasted_work_mean_milli", |g| {
            hist_metric(g, "wasted_work_milli", |h| h.mean)
        }));
    }
    Some(Comparison {
        a_name: label(*ai, a),
        b_name: label(*bi, b),
        rows: metrics
            .iter()
            .map(|(metric, pick)| ComparisonRow {
                metric,
                a: pick(a),
                b: pick(b),
            })
            .collect(),
    })
}

/// A fixed-width sparkline of the stored samples (value axis normalized to
/// the series' own min..max). Unicode block characters; kept in the last
/// table column so byte-width alignment does not matter.
fn sparkline(samples: &[(f64, f64)], width: usize) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if samples.is_empty() {
        return String::new();
    }
    let min = samples
        .iter()
        .map(|&(_, v)| v)
        .fold(f64::INFINITY, f64::min);
    let max = samples
        .iter()
        .map(|&(_, v)| v)
        .fold(f64::NEG_INFINITY, f64::max);
    let n = samples.len().min(width);
    (0..n)
        .map(|i| {
            let idx = if n == 1 {
                0
            } else {
                i * (samples.len() - 1) / (n - 1)
            };
            let v = samples[idx].1;
            let level = if max > min {
                (((v - min) / (max - min)) * 7.0).round() as usize
            } else {
                0
            };
            LEVELS[level.min(7)]
        })
        .collect()
}

fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "-".to_string()
    } else {
        fmt(a / b)
    }
}

fn render_text(sources: &[Source], comparison: &Option<Comparison>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "prio report — {} trace file{}, schema v{SCHEMA_VERSION}\n",
        sources.len(),
        if sources.len() == 1 { "" } else { "s" },
    ));
    for (i, source) in sources.iter().enumerate() {
        out.push_str(&format!("\nsource {i}: {}\n", source.path));
        for meta in &source.metas {
            out.push_str(&format!("  meta: {meta}\n"));
        }
        if let Some(p) = &source.pipeline {
            if p.dropped > 0 {
                out.push_str(&format!(
                    "  WARNING: lossy trace — {} of {} events dropped at capture \
                     by an older prio build; counts below underestimate the run\n",
                    p.dropped,
                    p.dropped + p.enqueued,
                ));
            }
            if p.sample > 1 {
                out.push_str(&format!(
                    "  note: sampled trace (~1/{} of job lifecycles kept; \
                     telemetry digests stay exact)\n",
                    p.sample,
                ));
            }
        }
    }

    let mut spans = Table::new(&[
        "source", "span", "count", "total_ms", "max_ms", "p50_ms", "p90_ms", "p99_ms",
    ]);
    let mut have_spans = false;
    for (i, source) in sources.iter().enumerate() {
        for row in &source.spans {
            have_spans = true;
            spans.row(vec![
                i.to_string(),
                row.path.clone(),
                row.count.to_string(),
                fmt(row.total_ms),
                fmt(row.max_ms),
                fmt(row.percentiles.0),
                fmt(row.percentiles.1),
                fmt(row.percentiles.2),
            ]);
        }
    }
    if have_spans {
        out.push_str("\nspans (wall-clock)\n");
        out.push_str(&spans.render());
    }

    // The retried/churn columns appear only when a fault-bearing trace
    // recorded them, keeping reliable reports identical to earlier builds.
    let have_faults = sources
        .iter()
        .flat_map(|s| &s.groups)
        .any(|g| g.events.retried + g.events.worker_down > 0);
    let mut event_headers = vec![
        "source",
        "policy",
        "batches",
        "requests",
        "stalled",
        "assigned",
        "completed",
        "failed",
    ];
    if have_faults {
        event_headers.push("retried");
        event_headers.push("churn");
    }
    let mut events = Table::new(&event_headers);
    let mut have_events = false;
    let mut telemetry = Table::new(&[
        "source", "policy", "series", "pushed", "peak", "peak@t", "mean", "last", "curve",
    ]);
    let mut have_telemetry = false;
    let mut latencies = Table::new(&[
        "source",
        "policy",
        "histogram",
        "count",
        "mean",
        "p50",
        "p90",
        "p99",
        "max",
    ]);
    let mut have_latencies = false;
    for (i, source) in sources.iter().enumerate() {
        for group in &source.groups {
            let e = &group.events;
            if e.batches + e.assigned + e.completed + e.failed > 0 {
                have_events = true;
                let mut row = vec![
                    i.to_string(),
                    group.policy.clone(),
                    e.batches.to_string(),
                    e.requests.to_string(),
                    e.stalled.to_string(),
                    e.assigned.to_string(),
                    e.completed.to_string(),
                    e.failed.to_string(),
                ];
                if have_faults {
                    row.push(e.retried.to_string());
                    row.push(e.worker_down.to_string());
                }
                events.row(row);
            }
            for t in &group.series {
                have_telemetry = true;
                telemetry.row(vec![
                    i.to_string(),
                    group.policy.clone(),
                    t.series.clone(),
                    t.pushed.to_string(),
                    fmt(t.peak),
                    fmt(t.peak_t),
                    fmt(t.mean),
                    fmt(t.last_v),
                    sparkline(&t.samples, 24),
                ]);
            }
            for h in &group.hists {
                have_latencies = true;
                latencies.row(vec![
                    i.to_string(),
                    group.policy.clone(),
                    h.name.clone(),
                    h.count.to_string(),
                    fmt(h.mean),
                    h.p50.to_string(),
                    h.p90.to_string(),
                    h.p99.to_string(),
                    h.max.to_string(),
                ]);
            }
        }
        for h in &source.registry_hists {
            have_latencies = true;
            latencies.row(vec![
                i.to_string(),
                "-".to_string(),
                h.name.clone(),
                h.count.to_string(),
                fmt(h.mean),
                h.p50.to_string(),
                h.p90.to_string(),
                h.p99.to_string(),
                h.max.to_string(),
            ]);
        }
    }
    if have_events {
        out.push_str("\nsimulator events\n");
        out.push_str(&events.render());
    }
    if have_telemetry {
        out.push_str("\nsimulator telemetry (time-series digests)\n");
        out.push_str(&telemetry.render());
    }
    if have_latencies {
        out.push_str("\nlatency histograms\n");
        out.push_str(&latencies.render());
    }

    if let Some(c) = comparison {
        out.push_str(&format!("\n{} vs {}\n", c.a_name, c.b_name));
        let mut table = Table::new(&["metric", &c.a_name, &c.b_name, "ratio"]);
        for row in &c.rows {
            table.row(vec![
                row.metric.to_string(),
                fmt(row.a),
                fmt(row.b),
                ratio(row.a, row.b),
            ]);
        }
        out.push_str(&table.render());
    }
    out
}

fn render_json(sources: &[Source], comparison: &Option<Comparison>) -> String {
    let join = |items: Vec<String>| items.join(",");
    let mut out = format!("{{\"type\":\"report\",\"v\":{SCHEMA_VERSION}");

    out.push_str(",\"sources\":[");
    out.push_str(&join(
        sources
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut obj = JsonObject::new()
                    .u64("file", i as u64)
                    .str("path", &s.path)
                    .u64("spans", s.spans.len() as u64)
                    .u64("scalar_metrics", s.counters);
                // Capture-pipeline accounting rides along so JSON
                // consumers can detect lossy or sampled traces.
                if let Some(p) = &s.pipeline {
                    obj = obj
                        .u64("enqueued_events", p.enqueued)
                        .u64("dropped_events", p.dropped)
                        .u64("sample", p.sample)
                        .bool("lossy", p.dropped > 0);
                }
                obj.finish()
            })
            .collect(),
    ));
    out.push(']');

    out.push_str(",\"spans\":[");
    let mut span_objs = Vec::new();
    for (i, source) in sources.iter().enumerate() {
        for row in &source.spans {
            let (p50, p90, p99) = row.percentiles;
            span_objs.push(
                JsonObject::new()
                    .u64("file", i as u64)
                    .str("path", &row.path)
                    .u64("count", row.count)
                    .f64("total_ms", row.total_ms)
                    .f64("max_ms", row.max_ms)
                    .f64("p50_ms", p50)
                    .f64("p90_ms", p90)
                    .f64("p99_ms", p99)
                    .finish(),
            );
        }
    }
    out.push_str(&join(span_objs));
    out.push(']');

    out.push_str(",\"events\":[");
    let mut event_objs = Vec::new();
    for (i, source) in sources.iter().enumerate() {
        for group in &source.groups {
            let e = &group.events;
            if e.batches + e.assigned + e.completed + e.failed == 0 {
                continue;
            }
            let mut obj = JsonObject::new()
                .u64("file", i as u64)
                .str("policy", &group.policy)
                .u64("batches", e.batches)
                .u64("requests", e.requests)
                .u64("stalled", e.stalled)
                .u64("assigned", e.assigned)
                .u64("completed", e.completed)
                .u64("failed", e.failed);
            // Fault-layer counts appear only when recorded, keeping
            // reliable reports identical to earlier builds.
            if e.retried + e.worker_down > 0 {
                obj = obj
                    .u64("retried", e.retried)
                    .u64("worker_down", e.worker_down);
            }
            event_objs.push(obj.finish());
        }
    }
    out.push_str(&join(event_objs));
    out.push(']');

    out.push_str(",\"telemetry\":[");
    let mut ts_objs = Vec::new();
    for (i, source) in sources.iter().enumerate() {
        for group in &source.groups {
            for t in &group.series {
                ts_objs.push(
                    JsonObject::new()
                        .u64("file", i as u64)
                        .str("policy", &group.policy)
                        .str("series", &t.series)
                        .u64("pushed", t.pushed)
                        .f64("peak", t.peak)
                        .f64("peak_t", t.peak_t)
                        .f64("mean", t.mean)
                        .f64("last_t", t.last_t)
                        .f64("last_v", t.last_v)
                        .pairs("samples", &t.samples)
                        .finish(),
                );
            }
        }
    }
    out.push_str(&join(ts_objs));
    out.push(']');

    out.push_str(",\"latencies\":[");
    let mut hist_objs = Vec::new();
    for (i, source) in sources.iter().enumerate() {
        let hist_obj = |policy: &str, h: &HistRecord| {
            JsonObject::new()
                .u64("file", i as u64)
                .str("policy", policy)
                .str("name", &h.name)
                .u64("count", h.count)
                .f64("mean", h.mean)
                .u64("p50", h.p50)
                .u64("p90", h.p90)
                .u64("p99", h.p99)
                .u64("max", h.max)
                .finish()
        };
        for group in &source.groups {
            for h in &group.hists {
                hist_objs.push(hist_obj(&group.policy, h));
            }
        }
        for h in &source.registry_hists {
            hist_objs.push(hist_obj("-", h));
        }
    }
    out.push_str(&join(hist_objs));
    out.push(']');

    if let Some(c) = comparison {
        out.push_str(",\"comparison\":[");
        out.push_str(&join(
            c.rows
                .iter()
                .map(|row| {
                    let mut obj = JsonObject::new()
                        .str("metric", row.metric)
                        .f64("a", row.a)
                        .f64("b", row.b);
                    if row.b != 0.0 {
                        obj = obj.f64("ratio", row.a / row.b);
                    }
                    obj = obj.str("a_policy", &c.a_name).str("b_policy", &c.b_name);
                    obj.finish()
                })
                .collect(),
        ));
        out.push(']');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_obs::json::parse;

    fn trace_text() -> String {
        [
            r#"{"type":"meta","v":3,"command":"simulate","detail":"workload=w seed=1"}"#,
            r#"{"type":"meta","v":3,"command":"trace","detail":"policy=prio seed=1"}"#,
            r#"{"type":"batch_arrived","v":3,"time":0,"size":2,"assigned":2,"stalled":false}"#,
            r#"{"type":"job_assigned","v":3,"time":0,"job":0,"completes_at":1,"worker":1}"#,
            r#"{"type":"job_completed","v":3,"time":1,"job":0}"#,
            r#"{"type":"ts","v":3,"policy":"prio","series":"eligible_pool","pushed":2,"peak":3,"peak_t":0,"mean":2.5,"last_t":1,"last_v":2,"samples":[[0,3],[1,2]]}"#,
            r#"{"type":"ts","v":3,"policy":"prio","series":"utilization","pushed":2,"peak":1,"peak_t":1,"mean":0.75,"last_t":1,"last_v":1,"samples":[[0,0.5],[1,1]]}"#,
            r#"{"type":"hist","v":3,"policy":"prio","name":"job_wait_milli","count":2,"mean":250,"p50":0,"p90":500,"p99":500,"max":500}"#,
            r#"{"type":"meta","v":3,"command":"trace","detail":"policy=fifo seed=1"}"#,
            r#"{"type":"job_failed","v":3,"time":0.5,"job":1}"#,
            r#"{"type":"ts","v":3,"policy":"fifo","series":"eligible_pool","pushed":2,"peak":2,"peak_t":0,"mean":2,"last_t":2,"last_v":2,"samples":[[0,2],[2,2]]}"#,
            r#"{"type":"ts","v":3,"policy":"fifo","series":"utilization","pushed":2,"peak":0.5,"peak_t":2,"mean":0.5,"last_t":2,"last_v":0.5,"samples":[[0,0.5],[2,0.5]]}"#,
            r#"{"type":"hist","v":3,"policy":"fifo","name":"job_wait_milli","count":2,"mean":750,"p50":500,"p90":1000,"p99":1000,"max":1000}"#,
            r#"{"type":"span","v":3,"path":"prio/decompose","count":1,"total_ms":1.5,"max_ms":1.5,"p50_ms":1.5,"p90_ms":1.5,"p99_ms":1.5}"#,
            r#"{"type":"counter","v":3,"name":"sim.runs","value":1}"#,
            r#"{"type":"hist","v":3,"name":"pipeline.ns","count":1,"mean":10,"p50":10,"p90":10,"p99":10,"max":10}"#,
        ]
        .join("\n")
    }

    fn load(text: &str) -> Source {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "prio_report_test_{}_{:p}.jsonl",
            std::process::id(),
            text
        ));
        std::fs::write(&path, text).unwrap();
        let source = Source::load(path.to_str().unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        source
    }

    #[test]
    fn parses_policies_events_and_telemetry() {
        let source = load(&trace_text());
        assert_eq!(source.spans.len(), 1);
        assert_eq!(source.counters, 1);
        assert_eq!(source.registry_hists.len(), 1);
        assert_eq!(source.groups.len(), 2);
        let prio = &source.groups[0];
        assert_eq!(prio.policy, "prio");
        assert_eq!(prio.events.batches, 1);
        assert_eq!(prio.events.assigned, 1);
        assert_eq!(prio.events.completed, 1);
        assert_eq!(prio.digest("eligible_pool").unwrap().peak, 3.0);
        let fifo = &source.groups[1];
        assert_eq!(fifo.events.failed, 1, "events attribute to the open policy");
        assert_eq!(fifo.hist("job_wait_milli").unwrap().max, 1000);
    }

    #[test]
    fn text_report_carries_percentiles_digests_and_comparison() {
        let source = load(&trace_text());
        let sources = vec![source];
        let c = comparison(&sources);
        let text = render_text(&sources, &c);
        assert!(text.contains("p99_ms"), "{text}");
        assert!(text.contains("prio/decompose"), "{text}");
        assert!(text.contains("eligible_pool"), "{text}");
        assert!(text.contains("prio vs fifo"), "{text}");
        assert!(text.contains("makespan"), "{text}");
    }

    #[test]
    fn json_report_is_valid_and_complete() {
        let source = load(&trace_text());
        let sources = vec![source];
        let c = comparison(&sources);
        let doc = parse(&render_json(&sources, &c)).unwrap();
        assert_eq!(doc.get("type").and_then(JsonValue::as_str), Some("report"));
        assert_eq!(
            doc.get("v").and_then(JsonValue::as_u64),
            Some(SCHEMA_VERSION)
        );
        match doc.get("telemetry") {
            Some(JsonValue::Arr(items)) => assert_eq!(items.len(), 4),
            other => panic!("expected telemetry array, got {other:?}"),
        }
        match doc.get("comparison") {
            Some(JsonValue::Arr(items)) => {
                assert_eq!(items.len(), 7);
                let makespan = &items[0];
                assert_eq!(
                    makespan.get("metric").and_then(JsonValue::as_str),
                    Some("makespan")
                );
                assert_eq!(makespan.get("ratio").and_then(JsonValue::as_f64), Some(0.5));
            }
            other => panic!("expected comparison array, got {other:?}"),
        }
    }

    fn faulty_trace_text() -> String {
        [
            r#"{"type":"meta","v":3,"command":"trace","detail":"policy=prio seed=1"}"#,
            r#"{"type":"job_assigned","v":3,"time":0,"job":0,"completes_at":1,"worker":1}"#,
            r#"{"type":"job_failed","v":3,"time":0.5,"job":0}"#,
            r#"{"type":"job_retried","v":3,"time":0.5,"job":0,"attempt":2,"delay":0}"#,
            r#"{"type":"worker_down","v":3,"time":0.7,"lost":1}"#,
            r#"{"type":"worker_up","v":3,"time":0.9}"#,
            r#"{"type":"job_completed","v":3,"time":1.5,"job":0}"#,
            r#"{"type":"ts","v":3,"policy":"prio","series":"eligible_pool","pushed":2,"peak":1,"peak_t":0,"mean":1,"last_t":1.5,"last_v":0,"samples":[[0,1],[1.5,0]]}"#,
            r#"{"type":"hist","v":3,"policy":"prio","name":"job_attempts","count":2,"mean":2,"p50":2,"p90":2,"p99":2,"max":2}"#,
            r#"{"type":"hist","v":3,"policy":"prio","name":"wasted_work_milli","count":1,"mean":500,"p50":500,"p90":500,"p99":500,"max":500}"#,
            r#"{"type":"meta","v":3,"command":"trace","detail":"policy=fifo seed=1"}"#,
            r#"{"type":"job_assigned","v":3,"time":0,"job":0,"completes_at":1,"worker":1}"#,
            r#"{"type":"job_completed","v":3,"time":1,"job":0}"#,
            r#"{"type":"ts","v":3,"policy":"fifo","series":"eligible_pool","pushed":2,"peak":1,"peak_t":0,"mean":1,"last_t":1,"last_v":0,"samples":[[0,1],[1,0]]}"#,
        ]
        .join("\n")
    }

    #[test]
    fn fault_records_extend_events_and_comparison() {
        let source = load(&faulty_trace_text());
        let prio = &source.groups[0];
        assert_eq!(prio.events.retried, 1);
        assert_eq!(prio.events.worker_down, 1);
        assert_eq!(prio.events.failed, 1);
        let sources = vec![source];
        let c = comparison(&sources).expect("two policies present");
        assert_eq!(c.rows.len(), 9, "fault metrics join the comparison");
        let wasted = c
            .rows
            .iter()
            .find(|r| r.metric == "wasted_work_mean_milli")
            .expect("wasted-work row");
        assert_eq!(wasted.a, 500.0);
        assert_eq!(wasted.b, 0.0);
        let text = render_text(&sources, &comparison(&sources));
        assert!(text.contains("retried"), "{text}");
        assert!(text.contains("churn"), "{text}");
        assert!(text.contains("job_attempts_total"), "{text}");
    }

    #[test]
    fn reliable_traces_render_without_fault_columns() {
        let source = load(&trace_text());
        let sources = vec![source];
        let text = render_text(&sources, &comparison(&sources));
        assert!(!text.contains("retried"), "{text}");
        assert!(!text.contains("wasted_work"), "{text}");
        let json = render_json(&sources, &comparison(&sources));
        assert!(!json.contains("retried"), "{json}");
    }

    #[test]
    fn future_schema_versions_are_rejected() {
        let line = format!(
            "{{\"type\":\"ts\",\"v\":{},\"policy\":\"prio\",\"series\":\"x\"}}",
            SCHEMA_VERSION + 1
        );
        let dir = std::env::temp_dir();
        let path = dir.join(format!("prio_report_future_{}.jsonl", std::process::id()));
        std::fs::write(&path, line).unwrap();
        let err = Source::load(path.to_str().unwrap()).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(err.to_string().contains("newer"), "{err}");
    }

    /// Loads `text` from a scratch file, expecting an input error.
    fn load_err(name: &str, text: &str) -> CliError {
        let path =
            std::env::temp_dir().join(format!("prio_report_{name}_{}.jsonl", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let err = Source::load(path.to_str().unwrap()).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert_eq!(err.exit_code(), 1, "input error, not usage: {err}");
        err
    }

    #[test]
    fn old_schema_versions_are_rejected_not_half_parsed() {
        let head = r#"{"type":"meta","v":3,"command":"trace","detail":"policy=prio"}"#;
        for (name, second, version) in [
            (
                "v2",
                r#"{"type":"job_completed","v":2,"time":1,"job":0}"#,
                "v2",
            ),
            ("v1", r#"{"type":"job_completed","time":1,"job":0}"#, "v1"),
        ] {
            let err = load_err(name, &format!("{head}\n{second}\n")).to_string();
            assert!(err.contains("line 2"), "{err}");
            assert!(err.contains(version), "{err}");
        }
    }

    #[test]
    fn malformed_records_are_errors_not_zero_counts() {
        let head = r#"{"type":"meta","v":3,"command":"trace","detail":"policy=prio"}"#;
        for (name, bad, missing) in [
            (
                "time",
                r#"{"type":"batch_arrived","v":3,"time":"soon"}"#,
                "time",
            ),
            ("job", r#"{"type":"job_completed","v":3,"time":1}"#, "job"),
            (
                "span",
                r#"{"type":"span","v":3,"path":"p","count":1}"#,
                "total_ms",
            ),
            (
                "ts",
                r#"{"type":"ts","v":3,"policy":"prio","series":"x"}"#,
                "pushed",
            ),
        ] {
            let err = load_err(name, &format!("{head}\n{bad}\n")).to_string();
            assert!(err.contains("line 2"), "{err}");
            assert!(err.contains(&format!("missing {missing}")), "{err}");
        }
    }

    #[test]
    fn lossy_pipeline_meta_raises_a_visible_warning() {
        let text = [
            r#"{"type":"meta","v":3,"command":"trace","detail":"policy=prio seed=1"}"#,
            r#"{"type":"job_completed","v":3,"time":1,"job":0}"#,
            r#"{"type":"meta","v":3,"command":"trace_pipeline","detail":"drop accounting","enqueued":90,"written":90,"dropped":10,"sample":1}"#,
        ]
        .join("\n");
        let source = load(&text);
        let p = source.pipeline.expect("pipeline meta parsed");
        assert_eq!(p.dropped, 10);
        assert_eq!(p.sample, 1);
        let sources = vec![source];
        let rendered = render_text(&sources, &None);
        assert!(
            rendered.contains("WARNING: lossy trace — 10 of 100 events dropped"),
            "{rendered}"
        );
        let json = parse(&render_json(&sources, &None)).unwrap();
        let Some(JsonValue::Arr(srcs)) = json.get("sources") else {
            panic!("sources array");
        };
        assert_eq!(
            srcs[0].get("dropped_events").and_then(JsonValue::as_u64),
            Some(10)
        );
        assert_eq!(
            srcs[0].get("lossy").and_then(JsonValue::as_bool),
            Some(true)
        );
    }

    #[test]
    fn sampled_pipeline_meta_is_noted_and_lossless_traces_stay_quiet() {
        let sampled = [
            r#"{"type":"meta","v":3,"command":"trace_pipeline","detail":"drop accounting","enqueued":50,"written":50,"dropped":0,"sample":8}"#,
        ]
        .join("\n");
        let sources = vec![load(&sampled)];
        let rendered = render_text(&sources, &None);
        assert!(rendered.contains("sampled trace (~1/8"), "{rendered}");
        assert!(!rendered.contains("WARNING"), "{rendered}");

        let clean = load(&trace_text());
        assert!(clean.pipeline.is_none());
        let rendered = render_text(&[clean], &None);
        assert!(!rendered.contains("WARNING"), "{rendered}");
        assert!(!rendered.contains("sampled"), "{rendered}");
    }

    #[test]
    fn comparison_needs_exactly_two_policies() {
        let one = r#"{"type":"ts","v":3,"policy":"prio","series":"eligible_pool","pushed":1,"peak":1,"peak_t":0,"mean":1,"last_t":1,"last_v":1,"samples":[[0,1]]}"#;
        let sources = vec![load(one)];
        assert!(comparison(&sources).is_none());
    }

    #[test]
    fn sparkline_is_deterministic_and_bounded() {
        let samples: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, (i % 10) as f64)).collect();
        let line = sparkline(&samples, 24);
        assert_eq!(line.chars().count(), 24);
        assert_eq!(line, sparkline(&samples, 24));
        assert_eq!(sparkline(&[], 24), "");
        assert_eq!(sparkline(&[(0.0, 5.0)], 24).chars().count(), 1);
    }
}
