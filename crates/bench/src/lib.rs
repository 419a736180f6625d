//! # prio-bench — benchmark and figure-regeneration harness
//!
//! One target per table/figure of the paper (see DESIGN.md §4 for the full
//! index):
//!
//! | paper artifact | target |
//! |----------------|--------|
//! | Fig. 3 (tool invocation) | `cargo run -p prio-bench --bin fig3_example` |
//! | Fig. 4 (eligibility differences) | `cargo run -p prio-bench --release --bin fig4_eligibility` |
//! | Fig. 5 (prioritized AIRSN drawing) | `cargo run -p prio-bench --bin fig5_dot` |
//! | Figs. 6–9 (simulation ratio sweeps) | `cargo run -p prio-bench --release --bin fig6to9_ratios -- <dag>` |
//! | §3.5 engineering speedups | `cargo bench -p prio-bench --bench decompose` / `--bench combine`, `cargo run -p prio-bench --release --bin ablations` |
//! | §3.6 overhead table | `cargo bench -p prio-bench --bench overhead`, `cargo run -p prio-bench --release --bin table_overhead` |
//!
//! The end-to-end cost of `prio run`, `prio serve` and `prio simulate` is
//! measured by the separate runner in `benchmark/` (`bash benchmark/run.sh`,
//! workloads declared in `BENCHMARK.json`). The library part holds shared
//! plumbing: plain-text table/TSV rendering ([`report`]) and Montage-like
//! dags at arbitrary job counts ([`scaling`]), which that runner and the
//! trace-cost test in `tests/trace_cost.rs` build their inputs from.

pub mod report;
pub mod scaling;
