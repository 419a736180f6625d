//! A structured JSONL event sink: one JSON object per line, written to a
//! file or stderr behind a mutex so concurrent simulator workers can share
//! one sink.
//!
//! Every line is an object with a `type` field. The sink itself emits
//! `meta`, `span`, `counter`, and `gauge` lines; `prio-sim` appends its
//! trace-event lines (`batch_arrived`, `job_assigned`, `job_completed`,
//! `job_failed`) through [`JsonlSink::write_line`].

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::json::JsonObject;
use crate::{metrics, span};

/// A line-oriented JSON sink. Cheap to share (`&JsonlSink` is `Send +
/// Sync`); each line is written atomically with respect to other writers.
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
    /// Where the lines go, for human-readable reporting.
    target: String,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("target", &self.target)
            .finish()
    }
}

impl JsonlSink {
    /// A sink appending lines to `path` (truncating an existing file).
    pub fn to_file(path: &Path) -> io::Result<JsonlSink> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            out: Mutex::new(Box::new(BufWriter::new(file))),
            target: path.display().to_string(),
        })
    }

    /// A sink writing into any `Write` (used by tests to capture output).
    pub fn to_writer(writer: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            out: Mutex::new(writer),
            target: "writer".into(),
        }
    }

    /// Where this sink writes (a path, `stderr`, or `writer`).
    pub fn target(&self) -> &str {
        &self.target
    }

    /// Writes one pre-serialized JSON object as a line. The caller
    /// guarantees `line` is a single-line JSON object; use
    /// [`JsonObject`] to build one. A payload with an embedded newline
    /// would silently corrupt the JSONL stream (every consumer splits on
    /// `\n`), so it is rejected with [`io::ErrorKind::InvalidData`] —
    /// in release builds too, where a `debug_assert!` would vanish.
    pub fn write_line(&self, line: &str) -> io::Result<()> {
        if line.contains('\n') || line.contains('\r') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "JSONL lines must not contain embedded newlines",
            ));
        }
        let mut out = self.out.lock().expect("sink lock");
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")
    }

    /// Writes a block of already newline-terminated JSONL lines in one
    /// locked write — the trace pipeline batches its lines so the
    /// per-line mutex/IO cost amortizes across the batch. The caller (the
    /// pipeline, which validates the single-line contract per line before
    /// appending to the batch) guarantees the block is well-formed:
    /// complete lines, each ending in `\n`.
    pub fn write_batch(&self, block: &str) -> io::Result<()> {
        debug_assert!(
            block.is_empty() || block.ends_with('\n'),
            "batch must hold complete newline-terminated lines"
        );
        let mut out = self.out.lock().expect("sink lock");
        out.write_all(block.as_bytes())
    }

    /// Writes a `meta` line identifying the producing command.
    pub fn write_meta(&self, command: &str, detail: &str) -> io::Result<()> {
        self.write_line(
            &JsonObject::typed("meta")
                .str("command", command)
                .str("detail", detail)
                .finish(),
        )
    }

    /// Writes one `span` line per recorded span path, including the
    /// latency percentiles of the per-span duration histogram (schema
    /// v2).
    pub fn write_span_snapshot(&self) -> io::Result<()> {
        for record in span::snapshot() {
            let ns_to_ms = |ns: u64| ns as f64 / 1e6;
            let mut obj = JsonObject::typed("span")
                .str("path", &record.path)
                .u64("count", record.stat.count)
                .f64("total_ms", record.stat.total.as_secs_f64() * 1e3)
                .f64("max_ms", record.stat.max.as_secs_f64() * 1e3)
                .f64("p50_ms", ns_to_ms(record.latency_ns.p50))
                .f64("p90_ms", ns_to_ms(record.latency_ns.p90))
                .f64("p99_ms", ns_to_ms(record.latency_ns.p99));
            // Allocation deltas only when profiling recorded them, so
            // profiling-off output stays byte-identical (schema v3).
            if let Some(mem) = record.mem {
                obj = obj
                    .u64("alloc_count", mem.alloc_count)
                    .u64("alloc_bytes", mem.alloc_bytes)
                    .u64("peak_bytes", mem.peak_bytes);
            }
            self.write_line(&obj.finish())?;
        }
        Ok(())
    }

    /// Writes one `counter`/`gauge` line per registered scalar metric.
    pub fn write_metrics_snapshot(&self) -> io::Result<()> {
        for record in metrics::metrics_snapshot() {
            let kind = if record.is_gauge { "gauge" } else { "counter" };
            self.write_line(
                &JsonObject::typed(kind)
                    .str("name", record.name)
                    .u64("value", record.value)
                    .finish(),
            )?;
        }
        Ok(())
    }

    /// Writes one `hist` line per registered histogram: the five-number
    /// summary under the metric's own unit (the name conveys it).
    pub fn write_histograms_snapshot(&self) -> io::Result<()> {
        for record in metrics::histograms_snapshot() {
            self.write_line(
                &JsonObject::typed("hist")
                    .str("name", record.name)
                    .u64("count", record.summary.count)
                    .f64("mean", record.summary.mean)
                    .u64("p50", record.summary.p50)
                    .u64("p90", record.summary.p90)
                    .u64("p99", record.summary.p99)
                    .u64("max", record.summary.max)
                    .finish(),
            )?;
        }
        Ok(())
    }

    /// Flushes buffered lines to the underlying writer.
    pub fn flush(&self) -> io::Result<()> {
        self.out.lock().expect("sink lock").flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};
    use crate::Stage;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A Write that appends into a shared Vec<u8> so the test can read
    /// back what the sink wrote.
    #[derive(Clone)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn capture() -> (JsonlSink, Arc<StdMutex<Vec<u8>>>) {
        let buf = Arc::new(StdMutex::new(Vec::new()));
        let sink = JsonlSink::to_writer(Box::new(SharedBuf(buf.clone())));
        (sink, buf)
    }

    fn lines(buf: &Arc<StdMutex<Vec<u8>>>) -> Vec<String> {
        String::from_utf8(buf.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn every_line_is_a_typed_json_object() {
        let (sink, buf) = capture();
        sink.write_meta("simulate", "workload=airsn").unwrap();
        // Span paths unique to this test (the store is process-global).
        {
            let _parse = crate::span(Stage::Parse);
            let _emit = crate::span(Stage::Emit);
        }
        crate::metrics::counter("test.sink.counter").add(3);
        crate::metrics::gauge("test.sink.gauge").record_max(11);
        sink.write_span_snapshot().unwrap();
        sink.write_metrics_snapshot().unwrap();
        sink.flush().unwrap();

        let lines = lines(&buf);
        assert!(!lines.is_empty());
        for line in &lines {
            let v = parse(line).unwrap_or_else(|e| panic!("invalid JSONL {line:?}: {e}"));
            assert!(v.is_object(), "{line:?}");
            assert!(
                v.get("type").and_then(JsonValue::as_str).is_some(),
                "missing type field in {line:?}"
            );
        }
        assert!(lines.iter().any(|l| {
            let v = parse(l).unwrap();
            v.get("type").and_then(JsonValue::as_str) == Some("span")
                && v.get("path").and_then(JsonValue::as_str) == Some("parse/emit")
        }));
        assert!(lines.iter().any(|l| {
            let v = parse(l).unwrap();
            v.get("type").and_then(JsonValue::as_str) == Some("counter")
                && v.get("name").and_then(JsonValue::as_str) == Some("test.sink.counter")
        }));
        assert!(lines.iter().any(|l| {
            let v = parse(l).unwrap();
            v.get("type").and_then(JsonValue::as_str) == Some("gauge")
                && v.get("name").and_then(JsonValue::as_str) == Some("test.sink.gauge")
        }));
    }

    #[test]
    fn v2_records_carry_version_percentiles_and_histograms() {
        let (sink, buf) = capture();
        {
            let _parse = crate::span(Stage::Parse);
            let _write = crate::span(Stage::Write);
        }
        crate::metrics::histogram("test.sink.hist").record(42);
        sink.write_span_snapshot().unwrap();
        sink.write_histograms_snapshot().unwrap();
        sink.flush().unwrap();

        let lines = lines(&buf);
        for line in &lines {
            let v = parse(line).unwrap();
            assert_eq!(
                v.get("v").and_then(JsonValue::as_u64),
                Some(crate::json::SCHEMA_VERSION),
                "{line:?}"
            );
        }
        let span_line = lines
            .iter()
            .map(|l| parse(l).unwrap())
            .find(|v| v.get("path").and_then(JsonValue::as_str) == Some("parse/write"))
            .expect("span line");
        for key in ["p50_ms", "p90_ms", "p99_ms"] {
            assert!(
                span_line.get(key).and_then(JsonValue::as_f64).is_some(),
                "span line missing {key}"
            );
        }
        let hist_line = lines
            .iter()
            .map(|l| parse(l).unwrap())
            .find(|v| {
                v.get("type").and_then(JsonValue::as_str) == Some("hist")
                    && v.get("name").and_then(JsonValue::as_str) == Some("test.sink.hist")
            })
            .expect("hist line");
        assert!(hist_line.get("count").and_then(JsonValue::as_u64) >= Some(1));
        assert!(hist_line.get("max").and_then(JsonValue::as_u64) >= Some(42));
    }

    #[test]
    fn concurrent_writers_never_interleave_within_a_line() {
        let (sink, buf) = capture();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let sink = &sink;
                scope.spawn(move || {
                    for i in 0..200 {
                        let line = JsonObject::typed("job_completed")
                            .str("job", &format!("t{t}_job\"{i}\""))
                            .u64("time", i)
                            .finish();
                        sink.write_line(&line).unwrap();
                    }
                });
            }
        });
        sink.flush().unwrap();
        let lines = lines(&buf);
        assert_eq!(lines.len(), 800);
        for line in &lines {
            parse(line).unwrap_or_else(|e| panic!("corrupt line {line:?}: {e}"));
        }
    }

    #[test]
    fn embedded_newlines_are_rejected_not_written() {
        let (sink, buf) = capture();
        for bad in ["{\"type\":\"meta\"}\n{\"type\":\"meta\"}", "split\rline"] {
            let err = sink.write_line(bad).expect_err("newline must be rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        // Nothing reached the stream: the contract holds even in release
        // builds, where a debug_assert! would have compiled away.
        assert!(buf.lock().unwrap().is_empty());
        sink.write_line("{\"type\":\"meta\"}").unwrap();
        assert_eq!(lines(&buf).len(), 1);
    }

    #[test]
    fn file_sink_round_trips() {
        let dir = std::env::temp_dir().join("prio_obs_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace_{}.jsonl", std::process::id()));
        let sink = JsonlSink::to_file(&path).unwrap();
        assert_eq!(sink.target(), path.display().to_string());
        sink.write_meta("test", "file round trip").unwrap();
        sink.flush().unwrap();
        drop(sink);
        let text = std::fs::read_to_string(&path).unwrap();
        let v = parse(text.trim()).unwrap();
        assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("meta"));
        let _ = std::fs::remove_file(&path);
    }
}
