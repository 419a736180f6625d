//! The fault-layer verification harness: properties over random dags ×
//! fault models × seeds, plus byte-identity pins against the pre-fault
//! engine.
//!
//! Invariants checked (256 cases per property):
//! 1. precedence is never violated — a job is only ever assigned after
//!    all of its parents completed, faults or not;
//! 2. no job runs while an ancestor is failed-permanent (unreachable
//!    jobs are never assigned);
//! 3. completed + failed-permanent + unreachable partitions the job set;
//! 4. makespan is monotone (statistically, over seed panels) in the
//!    fault rate;
//! 5. a fault rate of 0 is *bit-identical* to the reliable engine —
//!    pinned with trace hashes of the four paper workflows captured on
//!    the pre-fault build.

use prio_graph::{Dag, NodeId};
use prio_sim::engine::{simulate_faulty, simulate_faulty_traced, simulate_traced};
use prio_sim::trace::TraceEvent;
use prio_sim::{
    simulate, Backoff, FaultConfig, FaultModel, GridModel, JobOutcome, PolicySpec, RetryPolicy,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A random dag: `n` nodes, arcs oriented low → high so acyclicity holds
/// by construction.
fn arb_dag() -> impl Strategy<Value = Dag> {
    (2usize..24).prop_flat_map(|n| {
        vec((0u32..n as u32, 0u32..n as u32), 0..2 * n).prop_map(move |pairs| {
            let arcs: BTreeSet<(u32, u32)> = pairs
                .into_iter()
                .filter_map(|(a, b)| match a.cmp(&b) {
                    std::cmp::Ordering::Less => Some((a, b)),
                    std::cmp::Ordering::Greater => Some((b, a)),
                    std::cmp::Ordering::Equal => None,
                })
                .collect();
            let arcs: Vec<(u32, u32)> = arcs.into_iter().collect();
            Dag::from_arcs(n, &arcs).expect("low → high arcs are acyclic")
        })
    })
}

fn arb_backoff() -> impl Strategy<Value = Backoff> {
    prop_oneof![
        Just(Backoff::None),
        (1u32..8).prop_map(|d| Backoff::Fixed(d as f64 * 0.25)),
        (1u32..4).prop_map(|b| Backoff::Exponential {
            base: b as f64 * 0.1,
            factor: 2.0,
            cap: 10.0,
        }),
    ]
}

/// A random active fault configuration: probabilistic rate, permanent
/// fraction, retry budget, backoff, and sometimes pool churn or a
/// deterministic fail-first schedule.
fn arb_faults() -> impl Strategy<Value = FaultConfig> {
    (
        (1u32..=40, 0u32..=25, 0u32..6),
        arb_backoff(),
        any::<bool>(),
        0u32..4,
    )
        .prop_map(|((rate, perm, retries), backoff, churn, sched)| {
            let mut model =
                FaultModel::with_rate(rate as f64 / 100.0).with_permanent(perm as f64 / 100.0);
            if churn {
                model = model.with_churn(20.0, 4.0);
            }
            for j in 0..sched {
                model = model.failing_first(NodeId(j), 1 + j % 2);
            }
            FaultConfig {
                model,
                retry: RetryPolicy {
                    max_attempts: retries + 1,
                    backoff,
                },
            }
        })
}

/// Replays a trace, asserting precedence: a job may only be assigned
/// once every parent has completed — which also implies no descendant of
/// a permanently failed job ever runs (its parent chain never
/// completes). Returns the per-job (assigned, completed) event counts.
fn check_precedence(dag: &Dag, trace: &[TraceEvent]) -> Result<(Vec<u32>, Vec<u32>), String> {
    let n = dag.num_nodes();
    let mut completed = vec![false; n];
    let mut assigned_count = vec![0u32; n];
    let mut completed_count = vec![0u32; n];
    let mut last_time = f64::NEG_INFINITY;
    for e in trace {
        let time = match e {
            TraceEvent::BatchArrived { time, .. }
            | TraceEvent::JobSubmitted { time, .. }
            | TraceEvent::JobEligible { time, .. }
            | TraceEvent::JobAssigned { time, .. }
            | TraceEvent::JobCompleted { time, .. }
            | TraceEvent::JobFailed { time, .. }
            | TraceEvent::JobRetried { time, .. }
            | TraceEvent::WorkerDown { time, .. }
            | TraceEvent::WorkerUp { time } => *time,
        };
        if time < last_time {
            return Err(format!("trace time went backwards at {e:?}"));
        }
        last_time = time;
        match e {
            TraceEvent::JobAssigned { job, .. } => {
                assigned_count[job.index()] += 1;
                for &p in dag.parents(*job) {
                    if !completed[p.index()] {
                        return Err(format!(
                            "job {job:?} assigned before parent {p:?} completed"
                        ));
                    }
                }
            }
            TraceEvent::JobCompleted { job, .. } => {
                completed[job.index()] = true;
                completed_count[job.index()] += 1;
            }
            _ => {}
        }
    }
    Ok((assigned_count, completed_count))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Precedence holds on every faulty run, and per-job event counts
    /// are consistent with the reported outcomes: completed jobs finish
    /// exactly once, unreachable jobs are never assigned, and
    /// failed-permanent jobs were assigned but never completed.
    #[test]
    fn precedence_and_outcome_consistency(
        dag in arb_dag(),
        faults in arb_faults(),
        seed in 0u64..1 << 48,
    ) {
        let model = GridModel::paper(0.4, 3.0);
        let out = simulate_faulty_traced(&dag, &PolicySpec::Fifo, &model, &faults, seed);
        let trace = out.trace.as_ref().expect("traced");
        let (assigned, completed) =
            check_precedence(&dag, trace).map_err(TestCaseError::fail)?;
        let outcomes = out.outcomes.as_ref().expect("fault runs report outcomes");
        for (i, outcome) in outcomes.iter().enumerate() {
            match outcome {
                JobOutcome::Completed => {
                    prop_assert_eq!(completed[i], 1, "job {} completes once", i);
                    prop_assert!(assigned[i] >= 1);
                }
                JobOutcome::FailedPermanent => {
                    prop_assert_eq!(completed[i], 0);
                    prop_assert!(assigned[i] >= 1, "aborted job {} ran at least once", i);
                    prop_assert!(
                        assigned[i] <= faults.retry.max_attempts,
                        "job {} exceeded its retry budget",
                        i
                    );
                }
                JobOutcome::Unreachable => {
                    prop_assert_eq!(assigned[i], 0, "unreachable job {} must never run", i);
                    prop_assert_eq!(completed[i], 0);
                }
            }
        }
    }

    /// completed + failed_permanent + unreachable partitions the job
    /// set, the outcome vector agrees with the counters, and every
    /// unreachable job really has a failed ancestor.
    #[test]
    fn resolution_partitions_the_job_set(
        dag in arb_dag(),
        faults in arb_faults(),
        seed in 0u64..1 << 48,
    ) {
        let model = GridModel::paper(0.4, 3.0);
        let out = simulate_faulty(&dag, &PolicySpec::Fifo, &model, &faults, seed);
        prop_assert_eq!(
            out.completed + out.failed_permanent + out.unreachable,
            out.num_jobs
        );
        let outcomes = out.outcomes.as_ref().expect("fault runs report outcomes");
        let count = |o: JobOutcome| outcomes.iter().filter(|&&x| x == o).count();
        prop_assert_eq!(count(JobOutcome::Completed), out.completed);
        prop_assert_eq!(count(JobOutcome::FailedPermanent), out.failed_permanent);
        prop_assert_eq!(count(JobOutcome::Unreachable), out.unreachable);
        // Every unreachable job has a failed-permanent or unreachable
        // parent; every failed or completed job has all-completed parents.
        for u in dag.node_ids() {
            let parents = dag.parents(u);
            match outcomes[u.index()] {
                JobOutcome::Unreachable => prop_assert!(
                    parents
                        .iter()
                        .any(|p| outcomes[p.index()] != JobOutcome::Completed),
                    "unreachable {:?} with all parents completed",
                    u
                ),
                _ => prop_assert!(
                    parents
                        .iter()
                        .all(|p| outcomes[p.index()] == JobOutcome::Completed),
                    "{:?} ran without all parents completed",
                    u
                ),
            }
        }
    }

    /// An *inactive* fault model at rate 0 yields exactly the reliable
    /// engine's outcome on arbitrary dags and seeds.
    #[test]
    fn fault_rate_zero_is_identical(
        dag in arb_dag(),
        seed in 0u64..1 << 48,
        backoff in arb_backoff(),
    ) {
        let model = GridModel::paper(0.4, 3.0);
        let zero = FaultConfig {
            model: FaultModel::none(),
            retry: RetryPolicy { max_attempts: 4, backoff },
        };
        prop_assert!(!zero.is_active());
        let plain = simulate(&dag, &PolicySpec::Fifo, &model, seed);
        let faulty = simulate_faulty(&dag, &PolicySpec::Fifo, &model, &zero, seed);
        prop_assert_eq!(&plain, &faulty);
        let plain_traced = simulate_traced(&dag, &PolicySpec::Fifo, &model, seed);
        let faulty_traced =
            simulate_faulty_traced(&dag, &PolicySpec::Fifo, &model, &zero, seed);
        prop_assert_eq!(&plain_traced, &faulty_traced);
    }

    /// Makespan grows (statistically, averaged over a seed panel) with
    /// the fault rate, and the failure-set monotonicity of the hashed
    /// draws makes failed-attempt counts monotone per seed on chains.
    #[test]
    fn makespan_monotone_in_fault_rate(base_seed in 0u64..1 << 32) {
        let arcs: Vec<(u32, u32)> = (0..11).map(|i| (i, i + 1)).collect();
        let dag = Dag::from_arcs(12, &arcs).unwrap();
        let model = GridModel::paper(0.3, 4.0);
        let cfg = |p: f64| FaultConfig {
            model: FaultModel::with_rate(p),
            retry: RetryPolicy::unlimited(),
        };
        let panel = |p: f64| -> f64 {
            (0..16)
                .map(|i| {
                    let seed = prio_stats::rng::derive_seed(base_seed, i);
                    simulate_faulty(&dag, &PolicySpec::Fifo, &model, &cfg(p), seed).makespan
                })
                .sum::<f64>()
                / 16.0
        };
        let m0 = panel(1e-9);
        let m1 = panel(0.15);
        let m2 = panel(0.35);
        prop_assert!(m1 >= m0 * 0.95, "rate 0.15 mean {} vs rate ~0 mean {}", m1, m0);
        prop_assert!(m2 >= m1 * 0.95, "rate 0.35 mean {} vs rate 0.15 mean {}", m2, m1);
        prop_assert!(m2 > m0, "rate 0.35 mean {} must exceed rate ~0 mean {}", m2, m0);
    }

    /// Per-seed, per-(job, attempt) failure draws are monotone in the
    /// rate: every attempt that fails at rate p also fails at q > p.
    #[test]
    fn failure_draws_monotone_in_rate(
        seed in 0u64..1 << 48,
        job in 0u32..1000,
        attempt in 1u32..50,
    ) {
        let lo = FaultModel::with_rate(0.2);
        let hi = FaultModel::with_rate(0.6);
        if lo.attempt_fails(seed, NodeId(job), attempt) {
            prop_assert!(hi.attempt_fails(seed, NodeId(job), attempt));
        }
    }
}

/// FNV-1a over the debug form of each event plus the makespan bits —
/// the exact recipe used to capture the pre-fault hashes below.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn trace_hash(trace: &[TraceEvent], makespan: f64) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for e in trace {
        h = fnv1a(format!("{e:?}").as_bytes(), h);
    }
    fnv1a(&makespan.to_bits().to_le_bytes(), h)
}

/// Fault-rate-0 runs are byte-identical to the reliable engine: these
/// hashes pin the traced output (FIFO, `GridModel::paper(1.0, 16.0)`,
/// seed 20060401) over the four paper workflows plus PRIO on AIRSN. Both
/// the plain entry point and `simulate_faulty` with an inactive config
/// must still produce them. Recaptured when schema v3 added the
/// `job_submitted`/`job_eligible` lifecycle events and worker ids —
/// trace *content* grew, but the RNG streams, makespans, and untraced
/// outcomes are unchanged from the pre-fault engine.
#[test]
fn paper_workflows_match_pre_fault_trace_hashes() {
    let workloads: [(&str, Dag, u64); 4] = [
        (
            "airsn",
            prio_workloads::airsn::airsn_paper(),
            0x6BBD570CCE521442,
        ),
        (
            "inspiral",
            prio_workloads::inspiral::inspiral_paper(),
            0xA7CF71B02F6DDDF7,
        ),
        (
            "montage",
            prio_workloads::montage::montage_paper(),
            0xDDD8BEFE025D9D3C,
        ),
        (
            "sdss",
            prio_workloads::spec::scaled_suite(0.1)
                .pop()
                .unwrap()
                .workflow
                .into_dag(),
            0xD2B2E8F54E0BE7BD,
        ),
    ];
    let model = GridModel::paper(1.0, 16.0);
    for (name, dag, expected) in &workloads {
        let out = simulate_traced(dag, &PolicySpec::Fifo, &model, 20060401);
        let h = trace_hash(out.trace.as_ref().unwrap(), out.makespan);
        assert_eq!(
            h, *expected,
            "{name}: reliable trace diverged from the pre-fault engine"
        );
        let faulty = simulate_faulty_traced(
            dag,
            &PolicySpec::Fifo,
            &model,
            &FaultConfig::none(),
            20060401,
        );
        let hf = trace_hash(faulty.trace.as_ref().unwrap(), faulty.makespan);
        assert_eq!(
            hf, *expected,
            "{name}: inactive fault config perturbed the trace"
        );
    }
    // PRIO on AIRSN pins the oblivious-policy path too.
    let dag = prio_workloads::airsn::airsn_paper();
    let prio = PolicySpec::Oblivious(prio_core::prio::prioritize(&dag).unwrap().schedule);
    let out = simulate_traced(&dag, &prio, &model, 20060401);
    assert_eq!(
        trace_hash(out.trace.as_ref().unwrap(), out.makespan),
        0xA8270C74B4974240,
        "airsn-prio: reliable trace diverged from the pre-fault engine"
    );
}

/// PRIO's schedule for `dag`, as `prio simulate` builds it.
fn prio_policy(dag: &Dag) -> PolicySpec {
    PolicySpec::Oblivious(prio_core::prio::prioritize(dag).unwrap().schedule)
}

/// More pins over the same recipe (`GridModel::paper(1.0, 16.0)`, seed
/// 20060401), captured before the ready set became a bitmap over
/// schedule positions and the event heap became integer-keyed: PRIO on
/// the other paper workflows, the throttled Condor queue, and one faulty
/// run whose transient faults, fixed backoff and pool churn put
/// `Release`, `PoolDown` and `PoolUp` events on the heap.
#[test]
fn queue_and_event_heap_paths_match_pinned_trace_hashes() {
    let model = GridModel::paper(1.0, 16.0);
    let seed = 20060401;
    let hash = |out: &prio_sim::SimOutcome| trace_hash(out.trace.as_ref().unwrap(), out.makespan);
    let mut got: Vec<(&str, u64)> = Vec::new();

    let inspiral = prio_workloads::inspiral::inspiral_paper();
    let montage = prio_workloads::montage::montage_paper();
    let sdss = prio_workloads::spec::scaled_suite(0.1)
        .pop()
        .unwrap()
        .workflow
        .into_dag();
    for (name, dag) in [
        ("inspiral-prio", &inspiral),
        ("montage-prio", &montage),
        ("sdss-prio", &sdss),
    ] {
        got.push((
            name,
            hash(&simulate_traced(dag, &prio_policy(dag), &model, seed)),
        ));
    }

    let throttled = PolicySpec::ThrottledOblivious {
        schedule: prio_core::prio::prioritize(&montage).unwrap().schedule,
        maxjobs: 64,
    };
    got.push((
        "montage-throttled-64",
        hash(&simulate_traced(&montage, &throttled, &model, seed)),
    ));

    let airsn = prio_workloads::airsn::airsn_paper();
    let faults = FaultConfig {
        model: FaultModel::with_rate(0.3).with_churn(8.0, 2.0),
        retry: RetryPolicy {
            max_attempts: 4,
            backoff: Backoff::Fixed(0.5),
        },
    };
    let out = simulate_faulty_traced(&airsn, &prio_policy(&airsn), &model, &faults, seed);
    for kind in ["JobRetried", "WorkerDown", "WorkerUp"] {
        assert!(
            out.trace
                .as_ref()
                .unwrap()
                .iter()
                .any(|e| format!("{e:?}").starts_with(kind)),
            "the faulty pin must exercise {kind}"
        );
    }
    got.push(("airsn-prio-faulty", hash(&out)));

    let expected: [(&str, u64); 5] = [
        ("inspiral-prio", 0x4EEC19E60A8C9D18),
        ("montage-prio", 0xA7E4D808ECBF21C3),
        ("sdss-prio", 0x767F176CF2529BA7),
        ("montage-throttled-64", 0x830C0482615A492E),
        ("airsn-prio-faulty", 0x6BA6B450E4F02158),
    ];
    assert_eq!(got, expected, "a trace diverged from its pin");
}
