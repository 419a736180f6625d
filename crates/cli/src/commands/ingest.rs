//! Trace ingestion shared by `prio report` and `prio trace`.
//!
//! Both commands stream a `--trace-out` file through the bounded-memory
//! [`prio_obs::stream`] reader, which accepts schema v3 only, and need
//! the same four things from it: the policy segments opened by `meta
//! command=trace policy=…` lines, the capture pipeline's drop accounting
//! (the trailing `trace_pipeline` meta record), the simulator's `ts`
//! time series, and the lifecycle events, decoded by the one simulator
//! decoder [`event_from_value`]. [`read`] does all four and hands every
//! record to the caller as an [`Item`]. A malformed record is an input
//! error that names the path and the line; nothing is defaulted.

use crate::error::CliError;
use prio_obs::json::JsonValue;
use prio_obs::stream::{self, Record};
use prio_sim::trace::TraceEvent;
use prio_sim::trace_json::event_from_value;

/// Capture-pipeline accounting from the trailing `trace_pipeline` meta
/// record. Traces written directly by the sink carry none and count as
/// complete and full-rate ([`PipelineMeta::default`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineMeta {
    /// Events that reached the capture ring.
    pub enqueued: u64,
    /// Events dropped at capture (ring overflow): the lifecycle record
    /// is incomplete and reconstructions are unsound.
    pub dropped: u64,
    /// Sampling modulus (1 = every job's lifecycle present).
    pub sample: u64,
}

impl Default for PipelineMeta {
    fn default() -> PipelineMeta {
        PipelineMeta {
            enqueued: 0,
            dropped: 0,
            sample: 1,
        }
    }
}

impl PipelineMeta {
    /// Prints the stderr warnings every analysis owes the user when the
    /// trace at `path` was captured lossily or sampled, so `--json`
    /// pipelines still see them.
    pub fn warn(&self, path: &str) {
        if self.dropped > 0 {
            eprintln!(
                "prio: WARNING: {path}: lossy trace — {} of {} events were dropped at capture \
                 (ring overflow); event counts, curves and lifecycles underestimate the run",
                self.dropped,
                self.dropped + self.enqueued,
            );
        }
        if self.sample > 1 {
            eprintln!(
                "prio: note: {path}: sampled trace — lifecycle events cover ~1/{} of jobs; \
                 telemetry digests stay exact",
                self.sample
            );
        }
    }
}

/// One time-series telemetry record (`type: "ts"`).
#[derive(Debug)]
pub struct TsRecord {
    pub policy: String,
    pub series: String,
    pub pushed: u64,
    pub peak: f64,
    pub peak_t: f64,
    pub mean: f64,
    pub last_t: f64,
    pub last_v: f64,
    pub samples: Vec<(f64, f64)>,
}

/// One record of a trace, as [`read`] hands it over.
pub enum Item<'a> {
    /// A `meta` record (`-` for a missing field). `policy` is set when
    /// the record opens a policy segment.
    Meta {
        command: &'a str,
        detail: &'a str,
        policy: Option<&'a str>,
    },
    /// A lifecycle event; it belongs to the most recently opened segment.
    Event(TraceEvent),
    /// A `ts` record, tagged with its own policy.
    Series(TsRecord),
    /// Any other record (`span`, `counter`, `gauge`, `hist`, …).
    Other(&'a Record),
}

/// A required numeric field.
pub fn num(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing {key}"))
}

/// A required unsigned integer field.
pub fn count(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing {key}"))
}

/// A required string field.
pub fn text<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing {key}"))
}

fn ts_record(v: &JsonValue) -> Result<TsRecord, String> {
    let mut ts = TsRecord {
        policy: text(v, "policy")?.to_string(),
        series: text(v, "series")?.to_string(),
        pushed: count(v, "pushed")?,
        peak: num(v, "peak")?,
        peak_t: num(v, "peak_t")?,
        mean: num(v, "mean")?,
        last_t: num(v, "last_t")?,
        last_v: num(v, "last_v")?,
        samples: Vec::new(),
    };
    let Some(JsonValue::Arr(items)) = v.get("samples") else {
        return Err("missing samples".to_string());
    };
    for pair in items {
        match pair {
            JsonValue::Arr(tv) if tv.len() == 2 => match (tv[0].as_f64(), tv[1].as_f64()) {
                (Some(t), Some(value)) => ts.samples.push((t, value)),
                _ => return Err("samples must be [t, v] number pairs".to_string()),
            },
            _ => return Err("samples must be [t, v] number pairs".to_string()),
        }
    }
    Ok(ts)
}

/// A `meta` record as an item, recording the drop accounting of a
/// `trace_pipeline` record in `pipeline`.
fn meta_item<'a>(
    v: &'a JsonValue,
    pipeline: &mut Option<PipelineMeta>,
) -> Result<Item<'a>, String> {
    let field = |key| v.get(key).and_then(JsonValue::as_str).unwrap_or("-");
    let (command, detail) = (field("command"), field("detail"));
    if command == "trace_pipeline" {
        *pipeline = Some(PipelineMeta {
            enqueued: count(v, "enqueued")?,
            dropped: count(v, "dropped")?,
            sample: count(v, "sample")?.max(1),
        });
    }
    let policy = if command == "trace" {
        detail
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("policy="))
    } else {
        None
    };
    Ok(Item::Meta {
        command,
        detail,
        policy,
    })
}

/// Classifies one record and hands it to `visit`; errors name the
/// record type.
fn visit_record(
    record: &Record,
    pipeline: &mut Option<PipelineMeta>,
    visit: &mut impl FnMut(Item<'_>) -> Result<(), String>,
) -> Result<(), String> {
    let v = &record.value;
    let kind = record.kind.as_str();
    let item = match kind {
        "meta" => meta_item(v, pipeline),
        "ts" => ts_record(v).map(Item::Series),
        _ => event_from_value(v).map(|event| event.map_or(Item::Other(record), Item::Event)),
    };
    item.and_then(visit).map_err(|e| format!("{kind}: {e}"))
}

/// Streams the trace at `path` (`-` for stdin) into `visit`, one record
/// at a time, and returns the capture-pipeline accounting if the trace
/// has it. Errors from the reader, the decoders and `visit` itself
/// become input errors naming `path` and the line.
pub fn read(
    path: &str,
    mut visit: impl FnMut(Item<'_>) -> Result<(), String>,
) -> Result<Option<PipelineMeta>, CliError> {
    let reader = stream::open(path).map_err(|e| CliError::input(format!("{path}: {e}")))?;
    let mut pipeline = None;
    for record in reader {
        let record = record.map_err(|e| CliError::input(format!("{path}: {e}")))?;
        visit_record(&record, &mut pipeline, &mut visit)
            .map_err(|e| CliError::input(format!("{path}: line {}: {e}", record.line_no)))?;
    }
    Ok(pipeline)
}

/// A float cell with three decimals.
pub fn fmt(v: f64) -> String {
    format!("{v:.3}")
}

/// An optional float cell: three decimals, or `-` when absent.
pub fn opt(v: Option<f64>) -> String {
    v.map(fmt).unwrap_or_else(|| "-".to_string())
}
