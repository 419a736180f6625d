//! # prio-serve — the prioritization daemon
//!
//! The paper's tool is a one-shot CLI; this crate turns the same pipeline
//! into a long-running service. A daemon speaks line-delimited JSON over
//! a TCP socket or a stdin/stdout pair ([`protocol`]): one request per
//! line, one id-matched response line per request, so clients pipeline
//! freely. Prioritize requests flow through a bounded MPMC queue
//! ([`queue`], a mutex-guarded `VecDeque` with a condvar) into a fixed
//! pool of workers, each reusing one `PrioContext` across requests;
//! when the queue is full the daemon *sheds* — an explicit `overloaded`
//! response, never a blocked client or an unbounded buffer. Results are
//! memoized in a sharded content-hash LRU cache ([`cache`]) keyed by
//! exactly the inputs the pipeline reads (the post-intern CSR: labels +
//! arcs), so resubmitted workflows are answered without recomputation —
//! and, because the canonical cache stores the schedule rather than
//! rendered text, warm responses stay byte-identical to cold ones in
//! every output format. Two memo layers on top of that cache (rendered
//! exports keyed by output format plus a [`cache::render_key`] over the
//! exporter's non-CSR inputs, and a text memo from exact request bytes
//! to CSR key) let the common warm request skip the import and export
//! entirely — they replay bytes the cold path produced, so they
//! accelerate without changing a single response.
//!
//! Entry points: [`Server::bind`] (TCP), [`serve_stdio`] /
//! [`serve_streams`] (single connection), all configured by
//! [`ServeConfig`]. Per-request latency lands in the
//! `serve.request.micros` histogram and the `serve.*` counters, surfaced
//! by the `stats` control verb, the CLI's `--metrics-out` Prometheus
//! text, and `prio_obs` snapshots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::{render_key, text_key, workflow_key, CacheKey, CacheStats, ResultCache, TextKey};
pub use protocol::{
    encode_control, encode_request, parse_request, Request, RequestError, Verb, WireRequest,
};
pub use queue::RequestQueue;
pub use server::{serve_stdio, serve_streams, ServeConfig, ServeStats, Server};
