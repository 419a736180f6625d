//! JSONL serialization of [`TraceEvent`]s and [`SimTelemetry`].
//!
//! Each event becomes one JSON object with a `type` field
//! (`batch_arrived`, `job_submitted`, `job_eligible`, `job_assigned`,
//! `job_completed`, `job_failed`, `job_retried`, `worker_down`,
//! `worker_up`) and the schema version tag `v` ([`SCHEMA_VERSION`]), so a
//! trace file interleaves cleanly with the
//! `span`/`counter`/`gauge`/`meta` lines the observability sink emits.
//! Telemetry adds two more record
//! types, both carrying a `policy` field: `ts` (one per time series,
//! with the exact digest and the stored — possibly downsampled —
//! samples) and `hist` (one per non-empty histogram, summary only;
//! empty histograms — the fault ones on reliable runs — are skipped so
//! failure-free artifacts are byte-identical to pre-fault builds).
//!
//! Deserialization skips lines of other types, which makes a full
//! `--trace-out` file replayable: reading it back yields exactly the
//! in-memory [`Trace`] (floats round-trip through Rust's
//! shortest-representation `Display`). Every record must carry
//! `"v": 3`: untagged (v1), v2 and newer records are errors.

use crate::telemetry::SimTelemetry;
use crate::trace::{Trace, TraceConsumer, TraceEvent};
use prio_graph::NodeId;
use prio_obs::json::{
    write_json_f64, write_json_u64, F64Cache, JsonObject, JsonValue, SCHEMA_VERSION,
};
use prio_obs::stream::JsonlReader;
use prio_obs::{JobSampler, JsonlSink, TracePipeline};

/// Serializes one event as a single-line JSON object.
pub fn event_to_json(event: &TraceEvent) -> String {
    let mut buf = String::new();
    event_json_into(event, &mut buf);
    buf
}

/// Appends the single-line JSON object for `event` to `buf` (cleared
/// first), reusing `buf`'s allocation.
pub fn event_json_into(event: &TraceEvent, buf: &mut String) {
    buf.clear();
    encode_event(event, buf, &mut write_json_f64);
}

// The encoder hardcodes `"v":3` in its literal prefixes; bump them in
// lockstep with the schema.
const _: () = assert!(SCHEMA_VERSION == 3);

/// The shared encoder body: appends `event` as one JSON line, routing
/// every float field through `f` so callers choose between the plain
/// shortest-round-trip writer ([`event_json_into`]) and a formatting
/// memo cache (the trace pipeline's writer thread). Everything else is
/// literal pushes and a fmt-free digit loop — on the writer thread this
/// runs per event for multi-million-event traces, and its cost shows in
/// the end-to-end time of `prio simulate --trace-out`.
fn encode_event(event: &TraceEvent, buf: &mut String, f: &mut impl FnMut(f64, &mut String)) {
    let job_time = |kind_prefix: &str,
                    time: f64,
                    job: NodeId,
                    buf: &mut String,
                    f: &mut dyn FnMut(f64, &mut String)| {
        buf.push_str(kind_prefix);
        f(time, buf);
        buf.push_str(",\"job\":");
        write_json_u64(u64::from(job.0), buf);
    };
    match *event {
        TraceEvent::BatchArrived {
            time,
            size,
            assigned,
            stalled,
        } => {
            buf.push_str("{\"type\":\"batch_arrived\",\"v\":3,\"time\":");
            f(time, buf);
            buf.push_str(",\"size\":");
            write_json_u64(size, buf);
            buf.push_str(",\"assigned\":");
            write_json_u64(assigned as u64, buf);
            buf.push_str(",\"stalled\":");
            buf.push_str(if stalled { "true" } else { "false" });
        }
        TraceEvent::JobSubmitted { time, job } => {
            job_time(
                "{\"type\":\"job_submitted\",\"v\":3,\"time\":",
                time,
                job,
                buf,
                f,
            );
        }
        TraceEvent::JobEligible { time, job } => {
            job_time(
                "{\"type\":\"job_eligible\",\"v\":3,\"time\":",
                time,
                job,
                buf,
                f,
            );
        }
        TraceEvent::JobAssigned {
            time,
            job,
            completes_at,
            worker,
        } => {
            job_time(
                "{\"type\":\"job_assigned\",\"v\":3,\"time\":",
                time,
                job,
                buf,
                f,
            );
            buf.push_str(",\"completes_at\":");
            f(completes_at, buf);
            buf.push_str(",\"worker\":");
            write_json_u64(worker, buf);
        }
        TraceEvent::JobCompleted { time, job } => {
            job_time(
                "{\"type\":\"job_completed\",\"v\":3,\"time\":",
                time,
                job,
                buf,
                f,
            );
        }
        TraceEvent::JobFailed { time, job } => {
            job_time(
                "{\"type\":\"job_failed\",\"v\":3,\"time\":",
                time,
                job,
                buf,
                f,
            );
        }
        TraceEvent::JobRetried {
            time,
            job,
            attempt,
            delay,
        } => {
            job_time(
                "{\"type\":\"job_retried\",\"v\":3,\"time\":",
                time,
                job,
                buf,
                f,
            );
            buf.push_str(",\"attempt\":");
            write_json_u64(u64::from(attempt), buf);
            buf.push_str(",\"delay\":");
            f(delay, buf);
        }
        TraceEvent::WorkerDown { time, lost } => {
            buf.push_str("{\"type\":\"worker_down\",\"v\":3,\"time\":");
            f(time, buf);
            buf.push_str(",\"lost\":");
            write_json_u64(lost, buf);
        }
        TraceEvent::WorkerUp { time } => {
            buf.push_str("{\"type\":\"worker_up\",\"v\":3,\"time\":");
            f(time, buf);
        }
    }
    buf.push('}');
}

/// A [`TracePipeline`] carrying [`TraceEvent`]s, paired with the
/// [`encode_event`] encoder over an [`F64Cache`]: producers enqueue the
/// compact event struct (a memcpy), the writer thread does all JSON
/// formatting, memoizing float fields across the simulator's heavily
/// repeated timestamps. This is the constructor behind `--trace-out`.
pub fn event_pipeline(sink: JsonlSink, capacity: usize, sample: u64) -> TracePipeline<TraceEvent> {
    let mut cache = F64Cache::new();
    TracePipeline::start(sink, capacity, sample, move |event, buf| {
        encode_event(event, buf, &mut |v, out| cache.write(v, out))
    })
}

/// Converts an already parsed JSON object into an event, if the object's
/// `type` names one; `Ok(None)` for records of other types (`span`,
/// `counter`, `meta`, …). Version checking is the caller's job (the
/// streaming reader in `prio-obs` enforces it per record); this only
/// dispatches on the record type and field shape. Every field of an
/// event record is required.
pub fn event_from_value(v: &JsonValue) -> Result<Option<TraceEvent>, String> {
    let kind = match v.get("type").and_then(JsonValue::as_str) {
        Some(kind) => kind,
        None => return Err("missing type field".to_string()),
    };
    let time = |v: &JsonValue| {
        v.get("time")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| "missing time".to_string())
    };
    let job = |v: &JsonValue| {
        v.get("job")
            .and_then(JsonValue::as_u64)
            .and_then(|j| u32::try_from(j).ok())
            .map(NodeId)
            .ok_or_else(|| "missing job".to_string())
    };
    let event = match kind {
        "batch_arrived" => TraceEvent::BatchArrived {
            time: time(v)?,
            size: v
                .get("size")
                .and_then(JsonValue::as_u64)
                .ok_or("missing size")?,
            assigned: v
                .get("assigned")
                .and_then(JsonValue::as_u64)
                .ok_or("missing assigned")? as usize,
            stalled: v
                .get("stalled")
                .and_then(JsonValue::as_bool)
                .ok_or("missing stalled")?,
        },
        "job_submitted" => TraceEvent::JobSubmitted {
            time: time(v)?,
            job: job(v)?,
        },
        "job_eligible" => TraceEvent::JobEligible {
            time: time(v)?,
            job: job(v)?,
        },
        "job_assigned" => TraceEvent::JobAssigned {
            time: time(v)?,
            job: job(v)?,
            completes_at: v
                .get("completes_at")
                .and_then(JsonValue::as_f64)
                .ok_or("missing completes_at")?,
            worker: v
                .get("worker")
                .and_then(JsonValue::as_u64)
                .ok_or("missing worker")?,
        },
        "job_completed" => TraceEvent::JobCompleted {
            time: time(v)?,
            job: job(v)?,
        },
        "job_failed" => TraceEvent::JobFailed {
            time: time(v)?,
            job: job(v)?,
        },
        "job_retried" => TraceEvent::JobRetried {
            time: time(v)?,
            job: job(v)?,
            attempt: v
                .get("attempt")
                .and_then(JsonValue::as_u64)
                .and_then(|a| u32::try_from(a).ok())
                .ok_or("missing attempt")?,
            delay: v
                .get("delay")
                .and_then(JsonValue::as_f64)
                .ok_or("missing delay")?,
        },
        "worker_down" => TraceEvent::WorkerDown {
            time: time(v)?,
            lost: v
                .get("lost")
                .and_then(JsonValue::as_u64)
                .ok_or("missing lost")?,
        },
        "worker_up" => TraceEvent::WorkerUp { time: time(v)? },
        _ => return Ok(None),
    };
    Ok(Some(event))
}

/// The production [`TraceConsumer`]: enqueues each event by value into
/// the bounded async [`TracePipeline`] (lossy on overflow — counted,
/// never blocking the sim clock). The hot path costs a sampler hash plus
/// one lock-free push; JSON encoding happens on the pipeline's writer
/// thread.
///
/// A [`JobSampler`] with modulus > 1 thins *job-scoped* events to the
/// sampler's deterministic 1/N subset while keeping every run-scoped
/// event (`batch_arrived`, `worker_down`, `worker_up`), so a sampled
/// trace preserves complete lifecycle causality for each kept job and
/// the full batch/churn timeline. Aggregate telemetry is collected by
/// the engine regardless and stays exact.
#[derive(Debug)]
pub struct StreamingTraceWriter<'a> {
    pipeline: &'a TracePipeline<TraceEvent>,
    sampler: JobSampler,
    /// Local event buffer, handed to the pipeline as one chunk when it
    /// reaches `chunk` events (and at [`TraceConsumer::flush`]). The
    /// ring push is a CAS plus a pointer-sized memcpy, but at simulator
    /// emission rates even that cross-core cache traffic shows up;
    /// batching divides it by the chunk size.
    buffer: std::cell::RefCell<Vec<TraceEvent>>,
    chunk: usize,
}

/// Events buffered locally per ring push. Amortizes queue traffic to a
/// fraction of a nanosecond per event while bounding both the latency of
/// an event reaching disk and the chunk's drop granularity.
pub const DEFAULT_CHUNK_EVENTS: usize = 256;

impl<'a> StreamingTraceWriter<'a> {
    /// A writer streaming into `pipeline`, keeping the jobs `sampler`
    /// selects (use [`JobSampler::full_rate`] for lossless job
    /// coverage).
    pub fn new(
        pipeline: &'a TracePipeline<TraceEvent>,
        sampler: JobSampler,
    ) -> StreamingTraceWriter<'a> {
        Self::with_chunk(pipeline, sampler, DEFAULT_CHUNK_EVENTS)
    }

    /// Like [`StreamingTraceWriter::new`] with an explicit chunk size.
    /// Chunks are dropped whole when the ring overflows, so callers
    /// exercising tiny rings (tests, `--trace-ring` experiments) should
    /// keep `chunk` at or below the ring capacity.
    pub fn with_chunk(
        pipeline: &'a TracePipeline<TraceEvent>,
        sampler: JobSampler,
        chunk: usize,
    ) -> StreamingTraceWriter<'a> {
        let chunk = chunk.max(1);
        StreamingTraceWriter {
            pipeline,
            sampler,
            buffer: std::cell::RefCell::new(Vec::with_capacity(chunk)),
            chunk,
        }
    }

    /// The node id an event is scoped to, if it is job-scoped.
    fn job_of(event: &TraceEvent) -> Option<NodeId> {
        match *event {
            TraceEvent::JobSubmitted { job, .. }
            | TraceEvent::JobEligible { job, .. }
            | TraceEvent::JobAssigned { job, .. }
            | TraceEvent::JobCompleted { job, .. }
            | TraceEvent::JobFailed { job, .. }
            | TraceEvent::JobRetried { job, .. } => Some(job),
            TraceEvent::BatchArrived { .. }
            | TraceEvent::WorkerDown { .. }
            | TraceEvent::WorkerUp { .. } => None,
        }
    }
}

impl TraceConsumer for StreamingTraceWriter<'_> {
    fn consume(&self, event: &TraceEvent) {
        if self.sampler.is_sampling() {
            if let Some(job) = Self::job_of(event) {
                if !self.sampler.keeps_id(u64::from(job.0)) {
                    return;
                }
            }
        }
        let mut buffer = self.buffer.borrow_mut();
        buffer.push(*event);
        if buffer.len() >= self.chunk {
            let full = std::mem::replace(&mut *buffer, Vec::with_capacity(self.chunk));
            self.pipeline.chunk(full);
        }
    }

    fn consume_batch(&self, events: &[TraceEvent]) {
        if self.sampler.is_sampling() {
            // Sampling filters per event; the batch only amortized the
            // engine-side handoff.
            for event in events {
                self.consume(event);
            }
            return;
        }
        // Full rate keeps everything: ingest the slice wholesale,
        // splitting on chunk boundaries. The common case — an empty
        // buffer receiving a batch of exactly `chunk` events — is one
        // memcpy and one ring push.
        let mut buffer = self.buffer.borrow_mut();
        let mut rest = events;
        while !rest.is_empty() {
            let room = self.chunk - buffer.len();
            let (head, tail) = rest.split_at(room.min(rest.len()));
            buffer.extend_from_slice(head);
            rest = tail;
            if buffer.len() >= self.chunk {
                let full = std::mem::replace(&mut *buffer, Vec::with_capacity(self.chunk));
                self.pipeline.chunk(full);
            }
        }
    }

    fn flush(&self) {
        let tail = std::mem::take(&mut *self.buffer.borrow_mut());
        self.pipeline.chunk(tail);
    }
}

/// Writes every event of `trace` to `sink`, one line each.
pub fn write_trace(sink: &JsonlSink, trace: &Trace) -> std::io::Result<()> {
    for event in trace {
        sink.write_line(&event_to_json(event))?;
    }
    Ok(())
}

/// Serializes one run's telemetry as JSONL lines tagged with the policy
/// that produced it: one `ts` line per time series (exact digest plus the
/// stored samples) and one `hist` line per latency histogram (summary in
/// milli-timeunits).
pub fn telemetry_to_json(policy: &str, telemetry: &SimTelemetry) -> Vec<String> {
    let mut lines = Vec::with_capacity(6);
    for (series, ts) in telemetry.series() {
        let d = ts.digest();
        lines.push(
            JsonObject::typed("ts")
                .str("policy", policy)
                .str("series", series)
                .u64("pushed", d.pushed)
                .f64("peak", d.peak)
                .f64("peak_t", d.peak_t)
                .f64("mean", d.mean)
                .f64("last_t", d.last_t)
                .f64("last_v", d.last_v)
                .pairs("samples", ts.samples())
                .finish(),
        );
    }
    for (name, hist) in telemetry.histograms() {
        let s = hist.summary();
        // Empty histograms (the fault ones on failure-free runs) are
        // skipped so reliable-run artifacts match pre-fault builds.
        if s.count == 0 {
            continue;
        }
        lines.push(
            JsonObject::typed("hist")
                .str("policy", policy)
                .str("name", name)
                .u64("count", s.count)
                .f64("mean", s.mean)
                .u64("p50", s.p50)
                .u64("p90", s.p90)
                .u64("p99", s.p99)
                .u64("max", s.max)
                .finish(),
        );
    }
    lines
}

/// Writes one run's telemetry to `sink` via [`telemetry_to_json`].
pub fn write_telemetry(
    sink: &JsonlSink,
    policy: &str,
    telemetry: &SimTelemetry,
) -> std::io::Result<()> {
    for line in telemetry_to_json(policy, telemetry) {
        sink.write_line(&line)?;
    }
    Ok(())
}

/// Reads the events out of JSONL `text`, skipping non-event records
/// (span and counter snapshots, metadata, telemetry) and blank lines.
/// Every record must be a schema-v3 JSON object ([`JsonlReader`]); a
/// malformed event is an error naming its line.
pub fn read_trace(text: &str) -> Result<Trace, String> {
    let mut trace = Vec::new();
    for record in JsonlReader::new(text.as_bytes()) {
        let record = record.map_err(|e| e.to_string())?;
        let event = event_from_value(&record.value)
            .map_err(|e| format!("line {}: {}: {e}", record.line_no, record.kind))?;
        trace.extend(event);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_obs::json::parse;

    fn sample_trace() -> Trace {
        vec![
            TraceEvent::JobSubmitted {
                time: 0.0,
                job: NodeId(0),
            },
            TraceEvent::JobEligible {
                time: 0.0,
                job: NodeId(0),
            },
            TraceEvent::BatchArrived {
                time: 0.0,
                size: 3,
                assigned: 2,
                stalled: false,
            },
            TraceEvent::JobAssigned {
                time: 0.0,
                job: NodeId(0),
                completes_at: 1.0625,
                worker: 1,
            },
            TraceEvent::JobAssigned {
                time: 0.0,
                job: NodeId(4),
                completes_at: 0.97,
                worker: 2,
            },
            TraceEvent::JobFailed {
                time: 0.97,
                job: NodeId(4),
            },
            TraceEvent::JobRetried {
                time: 1.47,
                job: NodeId(4),
                attempt: 2,
                delay: 0.5,
            },
            TraceEvent::WorkerDown { time: 1.5, lost: 2 },
            TraceEvent::WorkerUp { time: 2.25 },
            TraceEvent::JobCompleted {
                time: 1.0625,
                job: NodeId(0),
            },
            TraceEvent::BatchArrived {
                time: 2.5,
                size: 1,
                assigned: 0,
                stalled: true,
            },
        ]
    }

    #[test]
    fn every_event_kind_round_trips() {
        for event in sample_trace() {
            let line = event_to_json(&event);
            assert_eq!(read_trace(&line).unwrap(), vec![event], "via {line}");
        }
    }

    #[test]
    fn read_trace_skips_non_event_lines() {
        let mut text = String::from("{\"type\":\"meta\",\"v\":3,\"command\":\"simulate\"}\n");
        for event in sample_trace() {
            text.push_str(&event_to_json(&event));
            text.push('\n');
        }
        text.push_str("{\"type\":\"counter\",\"v\":3,\"name\":\"sim.engine.runs\",\"value\":1}\n");
        assert_eq!(read_trace(&text).unwrap(), sample_trace());
    }

    #[test]
    fn malformed_lines_are_errors_not_skips() {
        assert!(read_trace("{\"type\":\"job_completed\",\"v\":3,\"time\":1.0}").is_err());
        assert!(read_trace("not json").is_err());
        assert!(read_trace("[1,2]").is_err());
    }

    #[test]
    fn every_event_record_is_version_tagged() {
        for event in sample_trace() {
            let line = event_to_json(&event);
            let v = parse(&line).unwrap();
            assert_eq!(
                v.get("v").and_then(JsonValue::as_u64),
                Some(SCHEMA_VERSION),
                "untagged record: {line}"
            );
        }
    }

    #[test]
    fn only_v3_records_are_read() {
        let current = "{\"type\":\"job_completed\",\"v\":3,\"time\":1.5,\"job\":3}";
        assert_eq!(
            read_trace(current).unwrap(),
            vec![TraceEvent::JobCompleted {
                time: 1.5,
                job: NodeId(3),
            }]
        );
        for (line, found) in [
            (
                "{\"type\":\"job_completed\",\"time\":1.5,\"job\":3}",
                "untagged",
            ),
            (
                "{\"type\":\"job_completed\",\"v\":2,\"time\":1.5,\"job\":3}",
                "v2",
            ),
            ("{\"type\":\"meta\",\"v\":4}", "newer"),
        ] {
            let err = read_trace(line).unwrap_err();
            assert!(err.contains(found), "{err}");
        }
        // The v3 `worker` field is required.
        let no_worker =
            "{\"type\":\"job_assigned\",\"v\":3,\"time\":0.5,\"job\":7,\"completes_at\":1.5}";
        assert!(read_trace(no_worker).unwrap_err().contains("worker"));
    }

    /// A Write appending into a shared buffer for read-back.
    #[derive(Clone)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streaming_writer_samples_job_events_but_keeps_run_events() {
        use crate::trace::TraceConsumer as _;

        let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = JsonlSink::to_writer(Box::new(SharedBuf(buf.clone())));
        let pipeline = event_pipeline(sink, 1 << 10, 4);
        let sampler = JobSampler::new(4);
        let writer = StreamingTraceWriter::new(&pipeline, sampler);
        for event in sample_trace() {
            writer.consume(&event);
        }
        writer.flush();
        let (_sink, stats, result) = pipeline.finish();
        result.unwrap();
        assert_eq!(stats.dropped, 0);

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let written = read_trace(&text).unwrap();
        // Run-scoped events always survive; job-scoped events survive
        // iff the sampler keeps their node id — exactly the events the
        // same filter selects from the original trace.
        let expected: Trace = sample_trace()
            .into_iter()
            .filter(|e| match StreamingTraceWriter::job_of(e) {
                Some(job) => sampler.keeps_id(u64::from(job.0)),
                None => true,
            })
            .collect();
        assert_eq!(written, expected);
        assert_eq!(
            written
                .iter()
                .filter(|e| StreamingTraceWriter::job_of(e).is_none())
                .count(),
            4,
            "both batches and the worker down/up pair survive sampling"
        );
    }

    #[test]
    fn full_rate_streaming_writer_round_trips_every_event() {
        use crate::trace::TraceConsumer as _;

        let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = JsonlSink::to_writer(Box::new(SharedBuf(buf.clone())));
        let pipeline = event_pipeline(sink, 1 << 10, 1);
        let writer = StreamingTraceWriter::new(&pipeline, JobSampler::full_rate());
        for event in sample_trace() {
            writer.consume(&event);
        }
        writer.flush();
        let (_sink, stats, result) = pipeline.finish();
        result.unwrap();
        assert_eq!(stats.dropped, 0);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(read_trace(&text).unwrap(), sample_trace());
    }

    #[test]
    fn telemetry_serializes_and_interleaves_with_events() {
        let mut telemetry = SimTelemetry::new();
        telemetry.record_step(0.0, 3, 2, 0, 0.0);
        telemetry.record_step(1.5, 4, 1, 0, 0.75);
        telemetry.record_wait(0.5);
        telemetry.record_service(1.0);

        let lines = telemetry_to_json("prio", &telemetry);
        assert_eq!(lines.len(), 6, "4 series + 2 histograms");
        for line in &lines {
            let v = parse(line).unwrap_or_else(|e| panic!("invalid {line:?}: {e}"));
            assert_eq!(v.get("v").and_then(JsonValue::as_u64), Some(SCHEMA_VERSION));
            assert_eq!(v.get("policy").and_then(JsonValue::as_str), Some("prio"));
        }
        let eligible = parse(&lines[0]).unwrap();
        assert_eq!(
            eligible.get("series").and_then(JsonValue::as_str),
            Some("eligible_pool")
        );
        assert_eq!(eligible.get("peak").and_then(JsonValue::as_f64), Some(4.0));
        assert_eq!(eligible.get("pushed").and_then(JsonValue::as_u64), Some(2));
        let wait = parse(&lines[4]).unwrap();
        assert_eq!(
            wait.get("name").and_then(JsonValue::as_str),
            Some("job_wait_milli")
        );
        assert_eq!(wait.get("max").and_then(JsonValue::as_u64), Some(500));

        // Telemetry lines interleaved with events are skipped by the
        // event reader, exactly like span/counter lines.
        let mut text = String::new();
        for event in sample_trace() {
            text.push_str(&event_to_json(&event));
            text.push('\n');
        }
        for line in &lines {
            text.push_str(line);
            text.push('\n');
        }
        assert_eq!(read_trace(&text).unwrap(), sample_trace());
    }
}
