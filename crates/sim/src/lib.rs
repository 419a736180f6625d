//! # prio-sim — the stochastic grid simulator (§4)
//!
//! Models a grid as the paper does: a centralized server holds the jobs of
//! one dag; *batches* of workers arrive with exponentially distributed
//! inter-arrival times (mean `μ_BIT`), each batch carrying a random number
//! of one-job requests (mean `μ_BS`); job running times are normal with
//! mean 1 and standard deviation 0.1; requests that cannot be served are
//! discarded (those workers are "intercepted by other computations").
//!
//! Two scheduling regimens are compared ([`policy`]): an **oblivious**
//! policy assigns eligible jobs in a fixed total order (instantiated with
//! the PRIO schedule this is the paper's PRIO algorithm), and **FIFO**
//! assigns them in the order they became eligible (what DAGMan does).
//!
//! The simulator ([`engine`]) is event-driven and fully deterministic per
//! seed. Metrics ([`metrics`]): expected execution time, probability of
//! stalling, expected utilization. The experiment layer ([`experiment`],
//! [`replicate`], [`sweep`]) reproduces §4.2's methodology: empirical
//! sampling distributions from `p` samples of `q`-run averages, ratio
//! confidence intervals from all `p²` pairs, swept over the
//! `μ_BIT × μ_BS` grid of Figs. 6–9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod experiment;
pub mod fault;
pub mod metrics;
pub mod model;
pub mod policy;
pub mod replicate;
pub mod sweep;
pub mod telemetry;
pub mod trace;
pub mod trace_json;

pub use engine::{simulate, simulate_streamed, JobOutcome, SimOutcome};
pub use experiment::{compare_policies, ComparisonResult};
pub use fault::{Backoff, FaultConfig, FaultModel, RetryPolicy};
pub use metrics::RunMetrics;
pub use model::{BatchSizeModel, GridModel};
pub use policy::PolicySpec;
pub use telemetry::SimTelemetry;
pub use trace::{NoTrace, TraceConsumer};
