//! The trace writer: a single-threaded batch writer over a [`JsonlSink`].
//!
//! Producers append one line at a time — an event encoded in place by
//! [`TracePipeline::line_with`], or an already encoded control record
//! (meta, telemetry) through [`TracePipeline::control`] — into a 32 KiB
//! batch buffer, which goes to the sink in one locked write when full.
//! Every line lands in the file, in the order it was appended: nothing is
//! queued, nothing is dropped, and no thread is spawned.
//!
//! Write errors do not interrupt the producer (the simulator keeps
//! running); the first one is kept and returned by
//! [`TracePipeline::finish`], which flushes the last batch and hands the
//! sink back together with [`PipelineStats`] so the caller can append the
//! trailing accounting `meta` record and the final snapshots directly.

use std::cell::RefCell;
use std::io;

use crate::json::JsonObject;
use crate::sink::JsonlSink;

/// Kept only because the benchmark's `sim-paper` workload passes it to
/// `prio_sim::trace_json::event_pipeline`, which ignores it: the writer
/// has no ring to size.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 17;

/// Bytes buffered before one locked sink write. Large enough to amortize
/// the mutex and `write_all` across hundreds of lines, small enough to
/// keep output flowing.
const BATCH_BYTES: usize = 32 * 1024;

/// What moved through a pipeline, reported by [`TracePipeline::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// Lines appended (events + control records).
    pub enqueued: u64,
    /// Lines that reached the sink.
    pub written: u64,
    /// Always 0: the writer never drops. Kept so the `trace_pipeline`
    /// record keeps its fields, which readers of older, lossy traces
    /// still check.
    pub dropped: u64,
    /// Sampling modulus the trace was produced under (1 = full rate).
    pub sample: u64,
}

impl PipelineStats {
    /// The trailing accounting `meta` record (`command` is
    /// `trace_pipeline`), written after the last batch so readers can
    /// audit trace completeness.
    pub fn meta_line(&self) -> String {
        JsonObject::typed("meta")
            .str("command", "trace_pipeline")
            .str("detail", "drop accounting")
            .u64("enqueued", self.enqueued)
            .u64("written", self.written)
            .u64("dropped", self.dropped)
            .u64("sample", self.sample)
            .finish()
    }
}

/// The batch being filled and the tallies behind [`PipelineStats`].
struct Batch {
    buf: String,
    /// Lines in `buf`, counted into `written` when it reaches the sink.
    pending: u64,
    enqueued: u64,
    written: u64,
    first_err: io::Result<()>,
}

impl Batch {
    /// Sends the buffered lines to `sink` in one write, keeping the first
    /// error.
    fn write_to(&mut self, sink: &JsonlSink) {
        if self.buf.is_empty() {
            return;
        }
        match sink.write_batch(&self.buf) {
            Ok(()) => self.written += self.pending,
            Err(e) if self.first_err.is_ok() => self.first_err = Err(e),
            Err(_) => {}
        }
        self.buf.clear();
        self.pending = 0;
    }
}

/// A batching JSONL trace writer (see module docs). Producers only need
/// `&TracePipeline`; it is not `Sync`, so all of them run on one thread.
pub struct TracePipeline {
    sink: JsonlSink,
    /// Sampling modulus recorded in the final stats (the pipeline itself
    /// does not sample; the producing layer does).
    sample: u64,
    batch: RefCell<Batch>,
}

impl TracePipeline {
    /// A writer into `sink`. `sample` is the sampling modulus the
    /// producer applies (1 for full rate); it is only recorded.
    pub fn new(sink: JsonlSink, sample: u64) -> TracePipeline {
        TracePipeline {
            sink,
            sample: sample.max(1),
            batch: RefCell::new(Batch {
                buf: String::with_capacity(BATCH_BYTES + 512),
                pending: 0,
                enqueued: 0,
                written: 0,
                first_err: Ok(()),
            }),
        }
    }

    /// Appends one line that `encode` writes into the batch buffer
    /// (without clearing it), so steady-state encoding never allocates.
    /// The line must not contain a newline: one that does is cut out
    /// again and reported as `InvalidData` by [`TracePipeline::finish`],
    /// the same contract [`JsonlSink::write_line`] enforces, so it can
    /// never tear the stream.
    pub fn line_with(&self, encode: impl FnOnce(&mut String)) {
        let mut guard = self.batch.borrow_mut();
        let batch = &mut *guard;
        batch.enqueued += 1;
        let start = batch.buf.len();
        encode(&mut batch.buf);
        let line = &batch.buf[start..];
        if line.contains('\n') || line.contains('\r') {
            batch.buf.truncate(start);
            if batch.first_err.is_ok() {
                batch.first_err = Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "JSONL lines must not contain embedded newlines",
                ));
            }
            return;
        }
        batch.buf.push('\n');
        batch.pending += 1;
        if batch.buf.len() >= BATCH_BYTES {
            batch.write_to(&self.sink);
        }
    }

    /// Appends one already encoded control record (meta, telemetry).
    pub fn control(&self, line: String) {
        self.line_with(|buf| buf.push_str(&line));
    }

    /// Writes the last batch, flushes, and hands the sink back so the
    /// caller can append the [`PipelineStats::meta_line`] record and
    /// final snapshots. The `io::Result` carries the first deferred
    /// write or flush error, which must reach the CLI exit path.
    pub fn finish(self) -> (JsonlSink, PipelineStats, io::Result<()>) {
        let mut batch = self.batch.into_inner();
        batch.write_to(&self.sink);
        let flushed = self.sink.flush();
        let stats = PipelineStats {
            enqueued: batch.enqueued,
            written: batch.written,
            dropped: 0,
            sample: self.sample,
        };
        (self.sink, stats, batch.first_err.and(flushed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    /// A Write appending into a shared buffer for read-back.
    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn capture_pipeline(sample: u64) -> (TracePipeline, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = JsonlSink::to_writer(Box::new(SharedBuf(buf.clone())));
        (TracePipeline::new(sink, sample), buf)
    }

    fn lines(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<String> {
        String::from_utf8(buf.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn writes_every_line_in_order() {
        // Enough lines to fill several batches, mixing both entry points.
        let (pipeline, buf) = capture_pipeline(1);
        for i in 0..5000 {
            if i % 100 == 0 {
                pipeline.control(format!("{{\"type\":\"meta\",\"i\":{i}}}"));
            } else {
                pipeline.line_with(|out| out.push_str(&format!("{{\"type\":\"ev\",\"i\":{i}}}")));
            }
        }
        let (sink, stats, result) = pipeline.finish();
        result.unwrap();
        sink.write_line(&stats.meta_line()).unwrap();
        sink.flush().unwrap();
        assert_eq!(stats.enqueued, 5000);
        assert_eq!(stats.written, 5000);
        assert_eq!(stats.dropped, 0);
        let lines = lines(&buf);
        assert_eq!(lines.len(), 5001);
        for (i, line) in lines[..5000].iter().enumerate() {
            let kind = if i % 100 == 0 { "meta" } else { "ev" };
            assert_eq!(line, &format!("{{\"type\":\"{kind}\",\"i\":{i}}}"));
        }
        assert!(lines[5000].contains("\"command\":\"trace_pipeline\""));
        assert!(lines[5000].contains("\"dropped\":0"));
    }

    #[test]
    fn deferred_write_errors_surface_at_finish() {
        struct BrokenDisk;
        impl Write for BrokenDisk {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::to_writer(Box::new(BrokenDisk));
        let pipeline = TracePipeline::new(sink, 1);
        pipeline.control("{\"type\":\"ev\",\"i\":0}".into());
        pipeline.control("{\"type\":\"ev\",\"i\":1}".into());
        let (_sink, stats, result) = pipeline.finish();
        let err = result.expect_err("write error must surface");
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(stats.written, 0);
        assert_eq!(stats.enqueued, 2);
    }

    #[test]
    fn an_embedded_newline_in_an_event_is_an_error_not_a_torn_line() {
        let (pipeline, buf) = capture_pipeline(1);
        pipeline.control("{\"ok\":1}".into());
        pipeline.line_with(|out| out.push_str("{\"bad\":\ntrue}"));
        pipeline.control("{\"ok\":2}".into());
        let (_sink, _stats, result) = pipeline.finish();
        let err = result.expect_err("embedded newline must surface");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The malformed line was cut out before it could tear the stream.
        assert_eq!(lines(&buf), vec!["{\"ok\":1}", "{\"ok\":2}"]);
    }

    #[test]
    fn drop_accounting_meta_line_carries_the_sample_modulus() {
        let (pipeline, _buf) = capture_pipeline(8);
        pipeline.control("{\"type\":\"ev\"}".into());
        let (_sink, stats, result) = pipeline.finish();
        result.unwrap();
        let meta = stats.meta_line();
        assert!(meta.contains("\"sample\":8"), "{meta}");
        assert!(meta.contains("\"enqueued\":1"), "{meta}");
    }
}
