//! Simulator trace events and the consumers that receive them.
//!
//! The engine hands every event to a [`TraceConsumer`] at its emission
//! site. [`NoTrace`] switches tracing (and telemetry) off at compile
//! time; a `RefCell<Trace>` records the events in memory, which is what
//! tests compare against; the production consumer is
//! `trace_json::StreamingTraceWriter`.

use prio_graph::NodeId;

/// One simulator event. `Copy` keeps the hot emission path a
/// register-sized memcpy into the engine's batch, never an allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A batch of worker requests arrived.
    BatchArrived {
        /// Arrival time.
        time: f64,
        /// Number of requests in the batch.
        size: u64,
        /// How many jobs were assigned from this batch.
        assigned: usize,
        /// Whether the batch found pending work but nothing assignable.
        stalled: bool,
    },
    /// A job entered the run (schema v3): one per DAG node at run start,
    /// in node-id order, before any scheduling happens.
    JobSubmitted {
        /// Submission time (always the run's start, `0.0`).
        time: f64,
        /// The job.
        job: NodeId,
    },
    /// A job became eligible to run — all parents done (schema v3).
    /// Sources are eligible at time `0.0`; other jobs when their last
    /// parent completes; failed jobs re-enter eligibility via
    /// `JobRetried` instead.
    JobEligible {
        /// Eligibility time.
        time: f64,
        /// The job.
        job: NodeId,
    },
    /// A job was handed to a worker.
    JobAssigned {
        /// Assignment time.
        time: f64,
        /// The job.
        job: NodeId,
        /// Scheduled completion time.
        completes_at: f64,
        /// Serving worker id (schema v3): sequential per run over
        /// granted requests.
        worker: u64,
    },
    /// A worker returned a job's results.
    JobCompleted {
        /// Completion time.
        time: f64,
        /// The job.
        job: NodeId,
    },
    /// An attempt of the job failed (fault layer; never emitted under
    /// the paper's reliable model). A transient failure is followed by
    /// `JobRetried`.
    JobFailed {
        /// Failure time.
        time: f64,
        /// The job.
        job: NodeId,
    },
    /// A transiently failed job re-entered the eligible queue after its
    /// retry backoff (fault-injection layer only).
    JobRetried {
        /// Re-entry time.
        time: f64,
        /// The job.
        job: NodeId,
        /// The attempt number about to run (1-based; attempt 2 is the
        /// first retry).
        attempt: u32,
        /// Backoff delay applied before this re-entry, in sim timeunits.
        delay: f64,
    },
    /// The worker pool went down; every in-flight job failed
    /// transiently (fault-injection layer only).
    WorkerDown {
        /// Outage time.
        time: f64,
        /// In-flight jobs killed by the outage.
        lost: u64,
    },
    /// The worker pool came back up (fault-injection layer only).
    WorkerUp {
        /// Recovery time.
        time: f64,
    },
}

/// A recorded event sequence.
pub type Trace = Vec<TraceEvent>;

/// Events the engine buffers locally between [`TraceConsumer`] calls: a
/// plain `Vec` push per event, one `consume_batch` per this many.
pub const STREAM_BATCH_EVENTS: usize = 256;

/// A streaming consumer of trace events, called synchronously at each
/// emission site.
///
/// `consume` takes `&self` so one consumer can be shared by reference
/// with the engine; implementations needing state use interior
/// mutability (the production consumer, `StreamingTraceWriter`, encodes
/// into the `prio-obs` trace pipeline's batch buffer). The simulator
/// runs through this call, so it should be cheap.
pub trait TraceConsumer {
    /// Whether the engine emits events and collects telemetry at all.
    /// Only [`NoTrace`] turns it off; the engine tests it at compile time,
    /// so an untraced run carries no emission code.
    const ENABLED: bool = true;

    /// Receives one event, in emission order.
    fn consume(&self, event: &TraceEvent);

    /// Receives a run of consecutive events, in emission order. The
    /// engine batches emissions ([`STREAM_BATCH_EVENTS`] at a time) so
    /// the consumer boundary is crossed once per batch instead of once
    /// per event; consumers that can ingest a slice wholesale (the
    /// in-memory recorder) override this. The default forwards to
    /// [`Self::consume`] per event, so per-event consumers observe the
    /// same sequence either way.
    fn consume_batch(&self, events: &[TraceEvent]) {
        for event in events {
            self.consume(event);
        }
    }
}

/// The consumer of untraced runs: receives nothing, and makes the engine
/// skip emission and telemetry entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl TraceConsumer for NoTrace {
    const ENABLED: bool = false;

    fn consume(&self, _event: &TraceEvent) {}
}

/// Records every event in memory, in emission order.
impl TraceConsumer for std::cell::RefCell<Trace> {
    fn consume(&self, event: &TraceEvent) {
        self.borrow_mut().push(*event);
    }

    fn consume_batch(&self, events: &[TraceEvent]) {
        self.borrow_mut().extend_from_slice(events);
    }
}
