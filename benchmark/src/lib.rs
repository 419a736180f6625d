//! # prio-benchmark — the end-to-end benchmark of the `prio` tool
//!
//! Four workloads time `prio run`, `prio serve` and `prio simulate` as
//! their users run them: untraced subprocesses of the release binary,
//! driven by this process with at most two threads and one TCP
//! connection. A separate traced pass then replays the same inputs in
//! process through each layer's public functions, to break a round down
//! into per-layer self times, work counts and allocations, and to report
//! the remainder no layer accounts for. Every output is checked
//! independently. See `README.md` beside this crate.

pub mod catalog;
mod check;
mod client;
mod proc;
pub mod results;
pub mod runner;
mod stages;
pub mod stats;
pub mod tracer;
pub mod workloads;

use std::path::PathBuf;

/// Cargo's target directory: `CARGO_TARGET_DIR`, or `target` relative to
/// the working directory.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Where the benchmark keeps its inputs, outputs and traces: `bench/`
/// under the target directory.
pub fn work_root() -> PathBuf {
    target_dir().join("bench")
}
