//! # prio-obs — zero-dependency observability for the prioritization
//! pipeline
//!
//! The paper's §3.5 evaluation measures the tool itself: per-phase running
//! time of the prioritization pipeline and per-run behavior of the
//! simulator. This crate provides the three signal families that
//! measurement needs, with `std` only (atomics, [`std::time::Instant`], a
//! hand-rolled JSON writer):
//!
//! * **[`span`]s** — RAII guards timing the tool's [`Stage`]s, the one
//!   enum of stage names. Nesting composes paths (`decompose` inside
//!   `prioritize` records as `prioritize/decompose`), and every completed
//!   span adds into a fixed, lock-free store of per-path statistics.
//! * **[`metrics`]** — named atomic [`metrics::Counter`]s,
//!   high-water-mark [`metrics::Gauge`]s, and log-bucketed
//!   [`hist::Histogram`]s recording hot-path facts (shortcut arcs
//!   removed, simulator events processed, per-job latencies, …), reached
//!   through the [`counter!`], [`gauge!`] and [`histogram!`] macros.
//! * **[`sink`]** — a structured JSONL event sink serializing span,
//!   counter, and histogram snapshots (and, via `prio-sim`, the
//!   simulator's trace and telemetry events) to a file or stderr;
//!   [`json`] holds the writer and a minimal parser used to validate and
//!   replay the output, and defines the versioned record schema
//!   ([`json::SCHEMA_VERSION`]). [`stream`] reads such files back as a
//!   bounded-memory record iterator (the `prio report` / `prio trace`
//!   ingestion path).
//!
//! With the `alloc-profile` feature, [`mem`] provides a counting global
//! allocator and spans optionally carry per-stage allocation deltas
//! (count/bytes/peak) — see [`mem::set_span_profiling`].
//!
//! Two further primitives back the simulator's time-series telemetry:
//! [`hist::Histogram`] (lock-free atomic log-linear buckets with
//! p50/p90/p99/max summaries) and [`timeseries::TimeSeries`] (a bounded,
//! self-downsampling ring of `(time, value)` samples with an exact
//! digest).
//!
//! Verbosity is gated by [`config`]: the CLI's `-v`/`--verbose` flag and
//! the `PRIO_LOG` environment variable. [`report`] renders the
//! human-readable phase-timing footer the CLI prints.
//!
//! All state is process-global so instrumentation points need no plumbed
//! handles; [`reset`] clears it between measured sections (the overhead
//! harness does this per workload).

// `deny` rather than `forbid`: the feature-gated counting allocator
// (`mem`) must implement `GlobalAlloc`, which is unsafe by nature; it
// scopes its own `allow` with a SAFETY argument. Everything else stays
// unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod hist;
pub mod json;
#[cfg(feature = "alloc-profile")]
pub mod mem;
pub mod metrics;
pub mod pipeline;
pub mod prom;
pub mod report;
pub mod sample;
pub mod scan;
pub mod sink;
pub mod span;
pub mod stage;
pub mod stream;
pub mod timeseries;

pub use config::{init_from_env, set_verbosity, verbosity, Level};
pub use hist::{Histogram, HistogramSnapshot, HistogramSummary};
pub use metrics::{Counter, Gauge};
pub use pipeline::{PipelineStats, TracePipeline, DEFAULT_RING_CAPACITY};
pub use sample::JobSampler;
pub use sink::JsonlSink;
pub use span::{span, SpanGuard};
pub use stage::Stage;
pub use timeseries::{TimeSeries, TimeSeriesDigest};

/// Clears all recorded spans and zeroes all counters and gauges, so a
/// fresh measured section starts from nothing. Registered metric names
/// survive (they are `&'static`); only their values reset.
pub fn reset() {
    span::reset_spans();
    metrics::reset_metrics();
}
