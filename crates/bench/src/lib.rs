//! # prio-bench — the paper's experiments, regenerated
//!
//! Every committed file under `results/` is an output of one entry of the
//! [`registry`]: the paper's figures and tables ([`paper`]: Figs. 3–9,
//! §3.5 and §3.6) and the experiments beyond it ([`extensions`]). Each
//! entry's parameters are constants in its code. One binary drives them
//! (see DESIGN.md §4 for the index):
//!
//! ```text
//! cargo run -p prio-bench --release --bin experiments -- list
//! cargo run -p prio-bench --release --bin experiments -- run fig5 --out DIR
//! cargo run -p prio-bench --release --bin experiments -- check --tier fast
//! ```
//!
//! The end-to-end cost of `prio run`, `prio serve` and `prio simulate` is
//! measured by the separate runner in `benchmark/` (`bash benchmark/run.sh`,
//! workloads declared in `BENCHMARK.json`). The library also holds cell
//! formatting for the tables ([`report`]) and Montage-like dags at
//! arbitrary job counts ([`scaling`]), which that runner and the
//! trace-cost test in `tests/trace_cost.rs` build their inputs from.

pub mod extensions;
pub mod paper;
pub mod registry;
pub mod report;
pub mod scaling;
