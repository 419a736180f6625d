//! The bounded async trace pipeline: producers enqueue compact event
//! values into a lock-free [`Ring`]; one dedicated writer thread drains
//! the ring, JSON-encodes each event straight into a reused batch
//! buffer, and writes through the [`JsonlSink`]. Hot simulator / pipeline threads
//! never wait on the sink's mutex or on disk I/O — and they never pay
//! for string formatting either: the producer-side cost of an event is
//! a sampler hash, one CAS, and a register-sized memcpy. Encoding is
//! deferred to the writer thread, which runs concurrently with the
//! simulation and amortizes allocations across the whole trace.
//!
//! Two producer entry points with different overflow policies:
//!
//! * [`TracePipeline::event`] — lossy. When the ring is full the event is
//!   **counted and dropped** (the `obs.sink.dropped_events` counter plus
//!   an internal tally); the sim clock never blocks on telemetry.
//! * [`TracePipeline::control`] — lossless, and already encoded (control
//!   records are rare, so their formatting cost is irrelevant). Meta
//!   records and snapshot lines must not be reordered past buffered
//!   events, so they travel through the same ring, spin-retrying
//!   (yielding) until the writer makes room.
//!
//! [`TracePipeline::finish`] joins the writer, flushes, and hands the
//! sink back together with [`PipelineStats`] so the caller can append
//! the trailing drop-accounting `meta` record and final snapshots
//! directly — and surface any deferred write error to the exit path.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::json::JsonObject;
use crate::metrics;
use crate::ring::Ring;
use crate::sink::JsonlSink;

/// Default ring capacity (slots). Generous enough that full-rate traces
/// of the paper-scale workloads never drop under a healthy writer; small
/// enough (a few MB of event structs) to bound memory when the consumer
/// stalls. Overridable per run via `--trace-ring`.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 17;

/// What travels through the ring: an un-encoded event, a chunk of
/// events (producers batch locally to amortize queue traffic — see
/// [`TracePipeline::chunk`]), or an already encoded control line.
enum Record<T> {
    Event(T),
    Chunk(Vec<T>),
    Control(String),
}

/// Bytes the writer accumulates before one locked sink write. Large
/// enough to amortize the mutex and `write_all` across hundreds of
/// lines, small enough to keep output flowing.
const BATCH_BYTES: usize = 32 * 1024;

/// The writer-side encoder: appends the single-line JSON for an event to
/// the output buffer (never clearing it — the writer encodes straight
/// into its batch). Must not emit newlines. `FnMut` so encoders can keep
/// writer-thread-local state such as a formatting memo cache.
type Encoder<T> = Box<dyn FnMut(&T, &mut String) + Send>;

/// What moved through a pipeline, reported by [`TracePipeline::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// Records accepted into the ring (events + control records).
    pub enqueued: u64,
    /// Records the writer thread drained and wrote.
    pub written: u64,
    /// Events rejected because the ring was full.
    pub dropped: u64,
    /// Sampling modulus the trace was produced under (1 = full rate).
    pub sample: u64,
}

impl PipelineStats {
    /// The trailing drop-accounting `meta` record (`command` is
    /// `trace_pipeline`), written after the writer thread has drained so
    /// readers can audit trace completeness.
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

/// Shared producer/consumer state.
struct Shared<T> {
    ring: Ring<Record<T>>,
    /// Set by [`TracePipeline::finish`]; the writer drains what is left
    /// and exits.
    closed: AtomicBool,
    enqueued: AtomicU64,
    dropped: AtomicU64,
    /// The `obs.sink.dropped_events` handle, resolved once at start so
    /// the drop path touches only an atomic — never the registry mutex.
    drop_counter: &'static metrics::Counter,
}

/// A bounded async JSONL trace pipeline (see module docs), generic over
/// the event type so the crate that owns the event enum supplies the
/// encoder (e.g. the simulator pairs it with its `TraceEvent`). Cheap to
/// share: producers only need `&TracePipeline<T>`.
pub struct TracePipeline<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    /// Sampling modulus recorded in the final stats (the pipeline itself
    /// does not sample; the producing layer does).
    sample: u64,
    writer: Option<JoinHandle<(JsonlSink, u64, io::Result<()>)>>,
}

impl<T: Send> std::fmt::Debug for TracePipeline<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracePipeline")
            .field("capacity", &self.shared.ring.capacity())
            .field("enqueued", &self.shared.enqueued.load(Ordering::Relaxed))
            .field("dropped", &self.shared.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl TracePipeline<String> {
    /// A pipeline whose events are already encoded lines — the tests'
    /// and ad-hoc producers' convenience constructor. Production trace
    /// paths use [`TracePipeline::start`] with a compact event type so
    /// encoding stays off the hot thread.
    pub fn start_lines(sink: JsonlSink, capacity: usize, sample: u64) -> TracePipeline<String> {
        TracePipeline::start(sink, capacity, sample, |line: &String, out| {
            out.push_str(line)
        })
    }
}

impl<T: Send + 'static> TracePipeline<T> {
    /// Starts the writer thread draining a ring of `capacity` slots into
    /// `sink`. `sample` is the sampling modulus the producer applies (1
    /// for full rate); it is only recorded, never acted on here.
    /// `encode` runs on the writer thread: it appends the single-line
    /// JSON for one event to the writer's output buffer (without
    /// clearing it), so steady-state encoding never allocates.
    pub fn start<F>(sink: JsonlSink, capacity: usize, sample: u64, encode: F) -> TracePipeline<T>
    where
        F: FnMut(&T, &mut String) + Send + 'static,
    {
        // Resolve the drop counter up front: exposition always shows it
        // (a healthy run exports an explicit 0, not an absence) and the
        // drop path never takes the registry lock.
        let drop_counter = metrics::counter("obs.sink.dropped_events");
        drop_counter.add(0);
        let shared = Arc::new(Shared {
            ring: Ring::with_capacity(capacity),
            closed: AtomicBool::new(false),
            enqueued: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            drop_counter,
        });
        let writer_shared = Arc::clone(&shared);
        let writer = std::thread::Builder::new()
            .name("prio-trace-writer".into())
            .spawn(move || writer_loop(writer_shared, sink, Box::new(encode)))
            .expect("spawn trace writer thread");
        TracePipeline {
            shared,
            sample: sample.max(1),
            writer: Some(writer),
        }
    }

    /// Enqueues one event value, dropping it (counted, never blocking)
    /// when the ring is full. No allocation, no formatting — those
    /// happen on the writer thread. Producers emitting at simulator
    /// rates should prefer [`TracePipeline::chunk`], which amortizes the
    /// queue's per-push cache traffic across a whole batch.
    pub fn event(&self, event: T) {
        match self.shared.ring.push(Record::Event(event)) {
            Ok(()) => {
                self.shared.enqueued.fetch_add(1, Ordering::Relaxed);
            }
            Err(_rejected) => {
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
                self.shared.drop_counter.add(1);
            }
        }
    }

    /// Enqueues a batch of events as one ring record — the hot-path
    /// entry point. A push costs one CAS and a pointer-sized memcpy
    /// regardless of the batch size, so producers that buffer a few
    /// hundred events locally pay well under a nanosecond of queue
    /// traffic per event. Lossy like [`TracePipeline::event`]: when the
    /// ring is full the whole chunk is counted dropped, never blocking.
    pub fn chunk(&self, events: Vec<T>) {
        let n = events.len() as u64;
        if n == 0 {
            return;
        }
        match self.shared.ring.push(Record::Chunk(events)) {
            Ok(()) => {
                self.shared.enqueued.fetch_add(n, Ordering::Relaxed);
            }
            Err(_rejected) => {
                self.shared.dropped.fetch_add(n, Ordering::Relaxed);
                self.shared.drop_counter.add(n);
            }
        }
    }

    /// Enqueues one control record (meta / snapshot line), retrying until
    /// the writer makes room so control records are never lost and keep
    /// their position relative to earlier events.
    pub fn control(&self, line: String) {
        let mut record = Record::Control(line);
        loop {
            match self.shared.ring.push(record) {
                Ok(()) => {
                    self.shared.enqueued.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(back) => {
                    record = back;
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Events dropped so far (live view; exact once quiescent).
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Closes the pipeline: the writer drains every remaining line,
    /// flushes, and hands the sink back so the caller can append the
    /// [`PipelineStats::meta_line`] drop-accounting record and final
    /// snapshots synchronously. The `io::Result` carries the first
    /// deferred write/flush error, which must reach the CLI exit path.
    pub fn finish(mut self) -> (JsonlSink, PipelineStats, io::Result<()>) {
        self.shared.closed.store(true, Ordering::Release);
        let writer = self.writer.take().expect("finish called once");
        let (sink, written, result) = match writer.join() {
            Ok(out) => out,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        let stats = PipelineStats {
            enqueued: self.shared.enqueued.load(Ordering::Relaxed),
            written,
            dropped: self.shared.dropped.load(Ordering::Relaxed),
            sample: self.sample,
        };
        (sink, stats, result)
    }
}

impl<T: Send + 'static> Drop for TracePipeline<T> {
    fn drop(&mut self) {
        // `finish` consumed the handle on the normal path; on unwinding
        // paths stop the writer so the process does not hang on exit.
        if let Some(writer) = self.writer.take() {
            self.shared.closed.store(true, Ordering::Release);
            let _ = writer.join();
        }
    }
}

/// The writer thread's output stage: encodes records straight into a
/// batch buffer, validates the single-line contract per record (the same
/// contract [`JsonlSink::write_line`] enforces — an embedded newline
/// surfaces as `InvalidData`, in release builds too, and the offending
/// line is excised before it can tear the stream), and flushes the batch
/// through one locked sink write per [`BATCH_BYTES`].
struct BatchEncoder<T> {
    sink: JsonlSink,
    encode: Encoder<T>,
    batch: String,
    /// Lines buffered in `batch`, counted into `written` on flush.
    pending: u64,
    written: u64,
    first_err: io::Result<()>,
}

impl<T> BatchEncoder<T> {
    fn record(&mut self, record: Record<T>) {
        match record {
            Record::Event(event) => self.event(&event),
            Record::Chunk(events) => {
                for event in &events {
                    self.event(event);
                }
            }
            Record::Control(line) => self.line(&line),
        }
    }

    fn event(&mut self, event: &T) {
        let start = self.batch.len();
        (self.encode)(event, &mut self.batch);
        self.seal(start);
    }

    fn line(&mut self, line: &str) {
        let start = self.batch.len();
        self.batch.push_str(line);
        self.seal(start);
    }

    /// Terminates the line appended at `batch[start..]`: validates the
    /// no-embedded-newline contract (excising the line and recording
    /// `InvalidData` on violation), then adds the newline and flushes a
    /// full batch.
    fn seal(&mut self, start: usize) {
        let line = &self.batch[start..];
        if line.contains('\n') || line.contains('\r') {
            self.batch.truncate(start);
            if self.first_err.is_ok() {
                self.first_err = Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "JSONL lines must not contain embedded newlines",
                ));
            }
            return;
        }
        self.batch.push('\n');
        self.pending += 1;
        if self.batch.len() >= BATCH_BYTES {
            self.flush_batch();
        }
    }

    fn flush_batch(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        match self.sink.write_batch(&self.batch) {
            Ok(()) => self.written += self.pending,
            Err(e) if self.first_err.is_ok() => self.first_err = Err(e),
            Err(_) => {}
        }
        self.batch.clear();
        self.pending = 0;
    }
}

/// The writer thread: drain until closed *and* empty. Keeps writing even
/// after the first error so producers never stall on a dead consumer,
/// but remembers that first error for `finish`. Returns the sink so the
/// caller can keep using it synchronously.
fn writer_loop<T>(
    shared: Arc<Shared<T>>,
    sink: JsonlSink,
    encode: Encoder<T>,
) -> (JsonlSink, u64, io::Result<()>) {
    let mut out = BatchEncoder {
        sink,
        encode,
        batch: String::with_capacity(BATCH_BYTES + 512),
        pending: 0,
        written: 0,
        first_err: Ok(()),
    };
    loop {
        match shared.ring.pop() {
            Some(record) => out.record(record),
            None if shared.closed.load(Ordering::Acquire) => {
                // Pairs with finish()'s release store: all records pushed
                // before close are visible; one last drain, then exit.
                while let Some(record) = shared.ring.pop() {
                    out.record(record);
                }
                break;
            }
            None => {
                // Idle: don't sit on buffered lines while yielding.
                out.flush_batch();
                std::thread::yield_now();
            }
        }
    }
    out.flush_batch();
    let BatchEncoder {
        sink,
        written,
        mut first_err,
        ..
    } = out;
    if first_err.is_ok() {
        first_err = sink.flush();
    } else {
        let _ = sink.flush();
    }
    (sink, written, first_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::Mutex;

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

    fn capture_pipeline(
        capacity: usize,
        sample: u64,
    ) -> (TracePipeline<String>, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = JsonlSink::to_writer(Box::new(SharedBuf(buf.clone())));
        (TracePipeline::start_lines(sink, capacity, sample), buf)
    }

    fn lines(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<String> {
        String::from_utf8(buf.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn writes_every_event_in_order_when_the_ring_is_large_enough() {
        let (pipeline, buf) = capture_pipeline(1 << 12, 1);
        for i in 0..1000 {
            pipeline.event(format!("{{\"type\":\"ev\",\"i\":{i}}}"));
        }
        let (sink, stats, result) = pipeline.finish();
        result.unwrap();
        sink.write_line(&stats.meta_line()).unwrap();
        sink.flush().unwrap();
        assert_eq!(stats.enqueued, 1000);
        assert_eq!(stats.written, 1000);
        assert_eq!(stats.dropped, 0);
        let lines = lines(&buf);
        assert_eq!(lines.len(), 1001);
        for (i, line) in lines[..1000].iter().enumerate() {
            assert_eq!(line, &format!("{{\"type\":\"ev\",\"i\":{i}}}"));
        }
        assert!(lines[1000].contains("\"command\":\"trace_pipeline\""));
        assert!(lines[1000].contains("\"dropped\":0"));
    }

    #[test]
    fn concurrent_producers_account_for_every_line() {
        // written + dropped == emitted, exactly, under racing producers
        // on a deliberately tiny ring.
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 10_000;
        let (pipeline, buf) = capture_pipeline(8, 1);
        std::thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let pipeline = &pipeline;
                scope.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        pipeline.event(format!("{{\"p\":{p},\"i\":{i}}}"));
                    }
                });
            }
        });
        let (_sink, stats, result) = pipeline.finish();
        result.unwrap();
        assert_eq!(stats.enqueued, stats.written);
        assert_eq!(
            stats.written + stats.dropped,
            PRODUCERS * PER_PRODUCER,
            "every emitted line is either written or counted dropped"
        );
        assert_eq!(lines(&buf).len() as u64, stats.written);
    }

    #[test]
    fn control_records_never_drop_even_on_a_tiny_ring() {
        let (pipeline, buf) = capture_pipeline(2, 1);
        for i in 0..500 {
            pipeline.control(format!("{{\"type\":\"meta\",\"i\":{i}}}"));
        }
        let (_sink, stats, result) = pipeline.finish();
        result.unwrap();
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.written, 500);
        let lines = lines(&buf);
        assert_eq!(lines.len(), 500);
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(line, &format!("{{\"type\":\"meta\",\"i\":{i}}}"));
        }
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
        let pipeline = TracePipeline::start_lines(sink, 64, 1);
        pipeline.event("{\"type\":\"ev\",\"i\":0}".into());
        pipeline.event("{\"type\":\"ev\",\"i\":1}".into());
        let (_sink, stats, result) = pipeline.finish();
        let err = result.expect_err("write error must surface");
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(stats.written, 0);
        assert_eq!(stats.enqueued, 2);
    }

    #[test]
    fn chunks_count_per_event_and_drop_whole_when_full() {
        // Capacity 2: two chunks fit, the third is rejected whole.
        let (pipeline, buf) = capture_pipeline(2, 1);
        pipeline.chunk(Vec::new()); // no-op, not a record
        pipeline.chunk(vec!["{\"i\":0}".to_string(), "{\"i\":1}".to_string()]);
        pipeline.chunk(vec!["{\"i\":2}".to_string()]);
        // Give the writer a moment to drain so later chunks can land, then
        // verify accounting is by event count, not record count.
        let (_sink, stats, result) = pipeline.finish();
        result.unwrap();
        assert_eq!(stats.enqueued + stats.dropped, 3);
        assert_eq!(stats.written, stats.enqueued);
        assert_eq!(lines(&buf).len() as u64, stats.written);
    }

    #[test]
    fn an_embedded_newline_in_an_event_is_an_error_not_a_torn_line() {
        let (pipeline, buf) = capture_pipeline(16, 1);
        pipeline.event("{\"ok\":1}".into());
        pipeline.event("{\"bad\":\ntrue}".into());
        let (_sink, _stats, result) = pipeline.finish();
        let err = result.expect_err("embedded newline must surface");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The malformed line was rejected before it could tear the stream.
        assert_eq!(lines(&buf), vec!["{\"ok\":1}".to_string()]);
    }

    #[test]
    fn drop_accounting_meta_line_carries_the_sample_modulus() {
        let (pipeline, _buf) = capture_pipeline(16, 8);
        pipeline.event("{\"type\":\"ev\"}".into());
        let (_sink, stats, result) = pipeline.finish();
        result.unwrap();
        let meta = stats.meta_line();
        assert!(meta.contains("\"sample\":8"), "{meta}");
        assert!(meta.contains("\"enqueued\":1"), "{meta}");
    }
}
