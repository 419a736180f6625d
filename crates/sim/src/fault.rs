//! Fault injection and recovery: unreliable workers, retries, churn.
//!
//! The paper's §4 model is reliable; the real pools it evaluated on
//! (Jazz/Teraport) are not. This module layers three fault mechanisms on
//! the simulator without perturbing the reliable model's randomness:
//!
//! * **Per-attempt failures** ([`FaultModel::failure_probability`]): each
//!   assignment of a job independently fails with fixed probability. The
//!   decision for attempt `k` of job `j` is a *hashed* (counter-based)
//!   draw from a dedicated fault stream, so the set of failing attempts
//!   is monotone in the failure rate under a fixed seed — raising the
//!   rate only ever adds faults, never moves them.
//! * **Deterministic schedules** ([`FaultModel::fail_first_attempts`]):
//!   "job `j` fails its first `k` attempts", the reproducible unit-test
//!   fault, checked before any probabilistic draw.
//! * **Worker churn** ([`FaultModel::worker_mttf`] /
//!   [`FaultModel::worker_mttr`]): the pool alternates between up and
//!   down states with exponentially distributed uptime (mean MTTF) and
//!   repair time (mean MTTR), sampled from a second dedicated stream.
//!   Going down kills every in-flight job (a transient fault each) and
//!   discards batches until the pool comes back up.
//!
//! A fault is **transient** (the job retries under the [`RetryPolicy`])
//! or **permanent** (the job aborts immediately) — permanence is another
//! hashed per-attempt draw. Retries are capped at
//! [`RetryPolicy::max_attempts`]; exhaustion aborts the job
//! DAGMan-style: the job becomes *failed-permanent* and every
//! not-yet-completed descendant becomes *unreachable* (DAGMan would
//! never submit them). An optional fixed or exponential backoff delays
//! each re-entry into the eligible queue.
//!
//! Everything here is deterministic per `(dag, policy, model, faults,
//! retry, seed)`; an inactive [`FaultModel`] ([`FaultModel::none`])
//! leaves the engine's event stream and RNG consumption bit-identical
//! to the reliable simulator.

use prio_graph::NodeId;

/// Stream salts separating the fault and churn draws from the main
/// simulation stream (which they must never perturb).
const FAULT_STREAM_SALT: u64 = 0xFA17_FA17_FA17_FA17;
const CHURN_STREAM_SALT: u64 = 0xC42D_0B42_C42D_0B42;

/// How long a transiently failed job waits before re-entering the
/// eligible queue, as a function of how many attempts have failed so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backoff {
    /// Re-enter immediately (DAGMan's behavior).
    None,
    /// A fixed delay in simulated time units.
    Fixed(f64),
    /// `base × factor^(failures-1)`, capped at `cap` — exponential
    /// backoff in simulated time units.
    Exponential {
        /// Delay after the first failure.
        base: f64,
        /// Multiplier per additional failure (≥ 1).
        factor: f64,
        /// Upper bound on the delay.
        cap: f64,
    },
}

impl Backoff {
    /// The delay before re-entry after the `failures`-th failure
    /// (1-based). Always finite and non-negative.
    pub fn delay(&self, failures: u32) -> f64 {
        match *self {
            Backoff::None => 0.0,
            Backoff::Fixed(d) => d.max(0.0),
            Backoff::Exponential { base, factor, cap } => {
                let exp = failures.saturating_sub(1).min(64);
                (base * factor.powi(exp as i32)).min(cap).max(0.0)
            }
        }
    }

    /// Parses a CLI spec: `none`, a bare number (fixed), `fixed:D`, or
    /// `exp:BASE[:FACTOR[:CAP]]` (factor defaults to 2, cap to 64×base).
    pub fn parse(spec: &str) -> Result<Backoff, String> {
        let bad = |what: &str| format!("invalid backoff {spec:?}: {what}");
        let num = |s: &str| s.parse::<f64>().map_err(|_| bad("not a number"));
        if spec.eq_ignore_ascii_case("none") {
            return Ok(Backoff::None);
        }
        if let Some(rest) = spec.strip_prefix("fixed:") {
            return Ok(Backoff::Fixed(num(rest)?));
        }
        if let Some(rest) = spec.strip_prefix("exp:") {
            let parts: Vec<&str> = rest.split(':').collect();
            let (base, factor, cap) = match parts.as_slice() {
                [b] => (num(b)?, 2.0, num(b)? * 64.0),
                [b, f] => (num(b)?, num(f)?, num(b)? * 64.0),
                [b, f, c] => (num(b)?, num(f)?, num(c)?),
                _ => return Err(bad("expected exp:BASE[:FACTOR[:CAP]]")),
            };
            if base < 0.0 || factor < 1.0 || cap < base {
                return Err(bad("need base >= 0, factor >= 1, cap >= base"));
            }
            return Ok(Backoff::Exponential { base, factor, cap });
        }
        Ok(Backoff::Fixed(num(spec)?))
    }
}

/// Retry discipline for transiently failed jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed per job (first run + retries), ≥ 1. A job
    /// whose `max_attempts`-th attempt fails aborts permanently.
    pub max_attempts: u32,
    /// Delay before each re-entry into the eligible queue.
    pub backoff: Backoff,
}

impl Default for RetryPolicy {
    /// DAGMan's common configuration: `RETRY 3` (four attempts), no
    /// backoff.
    fn default() -> Self {
        RetryPolicy::dagman(3)
    }
}

impl RetryPolicy {
    /// DAGMan semantics: `RETRY n` allows `n` retries after the first
    /// attempt, re-entering immediately.
    pub fn dagman(retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: retries.saturating_add(1),
            backoff: Backoff::None,
        }
    }

    /// Unlimited immediate retries: every job eventually completes (the
    /// robustness experiment's policy).
    pub fn unlimited() -> RetryPolicy {
        RetryPolicy {
            max_attempts: u32::MAX,
            backoff: Backoff::None,
        }
    }
}

/// The seeded fault model. Inactive by default ([`FaultModel::none`]):
/// an inactive model is never consulted and the engine's behavior is
/// bit-identical to the reliable simulator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultModel {
    /// Probability that any given attempt fails (hashed per
    /// `(job, attempt)`, so failure sets are monotone in this rate).
    pub failure_probability: f64,
    /// Probability that a probabilistic fault is permanent (the job
    /// aborts at once instead of retrying). Deterministic and churn
    /// faults are always transient.
    pub permanent_probability: f64,
    /// Deterministic schedule: job `j` fails its first `k` attempts.
    pub fail_first_attempts: Vec<(NodeId, u32)>,
    /// Mean time to pool failure (worker churn); `None` disables churn.
    pub worker_mttf: Option<f64>,
    /// Mean time to pool repair once down.
    pub worker_mttr: f64,
}

impl FaultModel {
    /// The fault-free model.
    pub fn none() -> FaultModel {
        FaultModel::default()
    }

    /// A purely probabilistic model failing each attempt with rate `p`.
    pub fn with_rate(p: f64) -> FaultModel {
        assert!((0.0..1.0).contains(&p), "failure rate must be in [0, 1)");
        FaultModel {
            failure_probability: p,
            ..FaultModel::default()
        }
    }

    /// Adds a deterministic "first `k` attempts of `job` fail" entry.
    pub fn failing_first(mut self, job: NodeId, attempts: u32) -> FaultModel {
        self.fail_first_attempts.push((job, attempts));
        self
    }

    /// Enables pool churn with the given mean time to failure / repair.
    pub fn with_churn(mut self, mttf: f64, mttr: f64) -> FaultModel {
        assert!(mttf > 0.0 && mttr > 0.0, "MTTF and MTTR must be positive");
        self.worker_mttf = Some(mttf);
        self.worker_mttr = mttr;
        self
    }

    /// Makes a fraction of probabilistic faults permanent.
    pub fn with_permanent(mut self, p: f64) -> FaultModel {
        assert!((0.0..=1.0).contains(&p), "permanent fraction in [0, 1]");
        self.permanent_probability = p;
        self
    }

    /// Whether the engine needs the fault bookkeeping at all.
    pub fn is_active(&self) -> bool {
        self.failure_probability > 0.0
            || !self.fail_first_attempts.is_empty()
            || self.worker_mttf.is_some()
    }

    /// Whether attempt `attempt` (1-based) of `job` fails under seed
    /// `fault_seed`. Deterministic schedule first, then the hashed
    /// per-attempt draw.
    pub fn attempt_fails(&self, fault_seed: u64, job: NodeId, attempt: u32) -> bool {
        if self
            .fail_first_attempts
            .iter()
            .any(|&(j, k)| j == job && attempt <= k)
        {
            return true;
        }
        self.failure_probability > 0.0
            && hashed_u01(fault_seed, job, attempt, 0) < self.failure_probability
    }

    /// Whether a *probabilistic* fault on this attempt is permanent
    /// (deterministic and churn faults are always transient).
    pub fn fault_is_permanent(&self, fault_seed: u64, job: NodeId, attempt: u32) -> bool {
        if self
            .fail_first_attempts
            .iter()
            .any(|&(j, k)| j == job && attempt <= k)
        {
            return false;
        }
        self.permanent_probability > 0.0
            && hashed_u01(fault_seed, job, attempt, 1) < self.permanent_probability
    }
}

/// A fault model and a retry policy, bundled for threading through the
/// replication/experiment/sweep layers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultConfig {
    /// What goes wrong.
    pub model: FaultModel,
    /// What the scheduler does about it.
    pub retry: RetryPolicy,
}

impl FaultConfig {
    /// The fault-free configuration.
    pub fn none() -> FaultConfig {
        FaultConfig::default()
    }

    /// Probabilistic faults at rate `p` under the default (DAGMan
    /// `RETRY 3`) retry policy.
    pub fn with_rate(p: f64) -> FaultConfig {
        FaultConfig {
            model: FaultModel::with_rate(p),
            retry: RetryPolicy::default(),
        }
    }

    /// Whether the engine needs the fault bookkeeping at all.
    pub fn is_active(&self) -> bool {
        self.model.is_active()
    }
}

/// The fault-stream seed derived from a run seed.
pub(crate) fn fault_seed(run_seed: u64) -> u64 {
    prio_stats::rng::derive_seed(run_seed, FAULT_STREAM_SALT)
}

/// The churn-stream seed derived from a run seed.
pub(crate) fn churn_seed(run_seed: u64) -> u64 {
    prio_stats::rng::derive_seed(run_seed, CHURN_STREAM_SALT)
}

/// A uniform `[0, 1)` draw determined by `(seed, job, attempt, salt)` —
/// counter-based, so distinct attempts have independent draws and the
/// same attempt always draws the same value (SplitMix64 finalizer).
fn hashed_u01(seed: u64, job: NodeId, attempt: u32, salt: u64) -> f64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(job.0).wrapping_add(1)))
        .wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(u64::from(attempt)))
        .wrapping_add(salt.wrapping_mul(0xA24B_AED4_963E_E407));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_by_default() {
        assert!(!FaultModel::none().is_active());
        assert!(!FaultConfig::none().is_active());
        assert!(FaultModel::with_rate(0.1).is_active());
        assert!(FaultModel::none().with_churn(10.0, 1.0).is_active());
        assert!(FaultModel::none().failing_first(NodeId(0), 1).is_active());
    }

    #[test]
    fn failure_sets_are_monotone_in_rate() {
        // The hashed draw makes "attempt fails at rate p" monotone in p:
        // every attempt failing at 0.1 also fails at 0.3.
        let lo = FaultModel::with_rate(0.1);
        let hi = FaultModel::with_rate(0.3);
        let mut lo_fails = 0;
        for job in 0..200u32 {
            for attempt in 1..=4u32 {
                if lo.attempt_fails(7, NodeId(job), attempt) {
                    lo_fails += 1;
                    assert!(hi.attempt_fails(7, NodeId(job), attempt));
                }
            }
        }
        assert!(lo_fails > 0, "rate 0.1 over 800 attempts must fail some");
    }

    #[test]
    fn hashed_rate_tracks_probability() {
        let m = FaultModel::with_rate(0.25);
        let n = 10_000u32;
        let fails = (0..n).filter(|&j| m.attempt_fails(3, NodeId(j), 1)).count() as f64;
        let rate = fails / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "empirical rate {rate}");
    }

    #[test]
    fn deterministic_schedule_beats_probability() {
        let m = FaultModel::none().failing_first(NodeId(3), 2);
        assert!(m.attempt_fails(0, NodeId(3), 1));
        assert!(m.attempt_fails(0, NodeId(3), 2));
        assert!(!m.attempt_fails(0, NodeId(3), 3));
        assert!(!m.attempt_fails(0, NodeId(4), 1));
        // Scheduled faults are always transient.
        assert!(!m
            .clone()
            .with_permanent(1.0)
            .fault_is_permanent(0, NodeId(3), 1));
    }

    #[test]
    fn backoff_delays_grow_and_cap() {
        assert_eq!(Backoff::None.delay(1), 0.0);
        assert_eq!(Backoff::Fixed(2.5).delay(3), 2.5);
        let exp = Backoff::Exponential {
            base: 1.0,
            factor: 2.0,
            cap: 5.0,
        };
        assert_eq!(exp.delay(1), 1.0);
        assert_eq!(exp.delay(2), 2.0);
        assert_eq!(exp.delay(3), 4.0);
        assert_eq!(exp.delay(4), 5.0, "capped");
        assert_eq!(exp.delay(64), 5.0, "huge failure counts stay capped");
    }

    #[test]
    fn backoff_parses_cli_specs() {
        assert_eq!(Backoff::parse("none").unwrap(), Backoff::None);
        assert_eq!(Backoff::parse("0.5").unwrap(), Backoff::Fixed(0.5));
        assert_eq!(Backoff::parse("fixed:2").unwrap(), Backoff::Fixed(2.0));
        assert_eq!(
            Backoff::parse("exp:1:2:8").unwrap(),
            Backoff::Exponential {
                base: 1.0,
                factor: 2.0,
                cap: 8.0,
            }
        );
        assert_eq!(
            Backoff::parse("exp:0.5").unwrap(),
            Backoff::Exponential {
                base: 0.5,
                factor: 2.0,
                cap: 32.0,
            }
        );
        assert!(Backoff::parse("exp:1:0.5").is_err(), "factor < 1");
        assert!(Backoff::parse("garbage").is_err());
    }

    #[test]
    fn retry_policy_dagman_semantics() {
        assert_eq!(RetryPolicy::dagman(3).max_attempts, 4);
        assert_eq!(RetryPolicy::dagman(0).max_attempts, 1);
        assert_eq!(RetryPolicy::default(), RetryPolicy::dagman(3));
        assert_eq!(RetryPolicy::unlimited().max_attempts, u32::MAX);
    }

    #[test]
    fn streams_are_separated() {
        assert_ne!(fault_seed(1), churn_seed(1));
        assert_ne!(fault_seed(1), fault_seed(2));
    }
}
