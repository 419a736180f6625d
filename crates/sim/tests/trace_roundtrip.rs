//! Regression: a trace serialized to JSONL and replayed from the file must
//! match the in-memory [`Trace`] event for event — exercising **every**
//! event variant (`BatchArrived`, `JobSubmitted`, `JobEligible`,
//! `JobAssigned`, `JobCompleted`, `JobFailed`, `JobRetried`,
//! `WorkerDown`, `WorkerUp`), with
//! span/counter/meta/telemetry lines interleaved in the file (readers
//! must skip them) and every record tagged with the schema version.
//! A property suite generates arbitrary events and checks the JSON
//! round-trip plus the version rule (only schema v3 is read). The
//! production streaming writer, at several chunk sizes, writes exactly
//! the events an in-memory recorder sees.

use prio_graph::{Dag, NodeId};
use prio_obs::json::{parse, JsonValue, SCHEMA_VERSION};
use prio_obs::{JobSampler, JsonlSink, DEFAULT_RING_CAPACITY};
use prio_sim::trace::{Trace, TraceEvent};
use prio_sim::trace_json::{
    event_pipeline, event_to_json, read_trace, write_telemetry, write_trace, StreamingTraceWriter,
};
use prio_sim::{
    simulate_streamed, FaultConfig, FaultModel, GridModel, PolicySpec, RetryPolicy, SimOutcome,
};
use proptest::prelude::*;
use std::cell::RefCell;

/// A run recorded in memory: the outcome and its events.
fn recorded(
    dag: &Dag,
    model: &GridModel,
    faults: Option<&FaultConfig>,
    seed: u64,
) -> (SimOutcome, Trace) {
    let recorder = RefCell::new(Trace::new());
    let out = simulate_streamed(dag, &PolicySpec::Fifo, model, faults, seed, &recorder);
    (out, recorder.into_inner())
}

/// The `TraceEvent` variant discriminants a full round-trip must cover.
fn variant_name(event: &TraceEvent) -> &'static str {
    match event {
        TraceEvent::BatchArrived { .. } => "batch_arrived",
        TraceEvent::JobSubmitted { .. } => "job_submitted",
        TraceEvent::JobEligible { .. } => "job_eligible",
        TraceEvent::JobAssigned { .. } => "job_assigned",
        TraceEvent::JobCompleted { .. } => "job_completed",
        TraceEvent::JobFailed { .. } => "job_failed",
        TraceEvent::JobRetried { .. } => "job_retried",
        TraceEvent::WorkerDown { .. } => "worker_down",
        TraceEvent::WorkerUp { .. } => "worker_up",
    }
}

fn diamond_chain() -> Dag {
    // Two diamonds in series: enough structure for assignments, stalls,
    // and (with failures) retries.
    Dag::from_arcs(
        7,
        &[
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (3, 5),
            (4, 6),
            (5, 6),
        ],
    )
    .unwrap()
}

#[test]
fn jsonl_trace_replays_event_for_event() {
    let dag = diamond_chain();
    // A high failure probability so JobFailed events actually occur.
    let model = GridModel::paper(0.8, 2.0).with_failures(0.4);

    // Find a seed whose run contains every event variant (deterministic:
    // the first qualifying seed never changes). Arrivals, assignments,
    // and completions occur in any finished run; failures need p > 0.
    let (seed, (outcome, trace)) = (0..100)
        .find_map(|seed| {
            let run = recorded(&dag, &model, None, seed);
            let covered: std::collections::BTreeSet<_> = run.1.iter().map(variant_name).collect();
            (covered.len() == 6).then_some((seed, run))
        })
        .expect("some seed under p=0.4 must cover all six reliable-path event variants");
    let telemetry = outcome.telemetry.expect("traced run records telemetry");

    // Serialize through the sink with non-event lines interleaved, exactly
    // as `prio simulate --trace-out` writes them.
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "prio_sim_roundtrip_{}_{seed}.jsonl",
        std::process::id()
    ));
    {
        let sink = JsonlSink::to_file(&path).unwrap();
        sink.write_meta("simulate", &format!("seed={seed}"))
            .unwrap();
        write_trace(&sink, &trace).unwrap();
        write_telemetry(&sink, "fifo", &telemetry).unwrap();
        sink.write_span_snapshot().unwrap();
        sink.write_metrics_snapshot().unwrap();
        sink.flush().unwrap();
    }

    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    // Every line of the file is a JSON object carrying a `type` field and
    // a schema version we can read.
    for line in text.lines() {
        let v = parse(line).unwrap_or_else(|e| panic!("invalid JSONL {line:?}: {e}"));
        assert!(
            v.get("type").and_then(JsonValue::as_str).is_some(),
            "{line:?}"
        );
        let version = v.get("v").and_then(JsonValue::as_u64);
        assert_eq!(version, Some(SCHEMA_VERSION), "untagged record {line:?}");
    }

    // The replayed trace equals the in-memory one, event for event.
    let replayed = read_trace(&text).unwrap();
    assert_eq!(replayed, trace);

    // And every variant made it through as a typed line.
    let typed: std::collections::BTreeSet<_> = text
        .lines()
        .filter_map(|l| {
            parse(l)
                .unwrap()
                .get("type")
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
        })
        .collect();
    for kind in [
        "batch_arrived",
        "job_submitted",
        "job_eligible",
        "job_assigned",
        "job_completed",
        "job_failed",
        "ts",
        "hist",
    ] {
        assert!(typed.contains(kind), "{kind} must appear in the JSONL file");
    }
}

#[test]
fn faulty_runs_round_trip_with_all_fault_event_kinds() {
    let dag = diamond_chain();
    let model = GridModel::paper(0.8, 2.0);
    // Transient faults with backoff plus pool churn: the trace must
    // contain JobFailed, JobRetried, WorkerDown, and WorkerUp events.
    let faults = FaultConfig {
        model: FaultModel::with_rate(0.3).with_churn(15.0, 3.0),
        retry: RetryPolicy {
            max_attempts: 50,
            backoff: prio_sim::Backoff::Fixed(0.25),
        },
    };
    let (seed, (outcome, trace)) = (0..200)
        .find_map(|seed| {
            let run = recorded(&dag, &model, Some(&faults), seed);
            let covered: std::collections::BTreeSet<_> = run.1.iter().map(variant_name).collect();
            (covered.len() == 9).then_some((seed, run))
        })
        .expect("some seed must cover all nine event variants");
    let telemetry = outcome.telemetry.expect("traced");

    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "prio_sim_fault_roundtrip_{}_{seed}.jsonl",
        std::process::id()
    ));
    {
        let sink = JsonlSink::to_file(&path).unwrap();
        sink.write_meta("simulate", &format!("seed={seed}"))
            .unwrap();
        write_trace(&sink, &trace).unwrap();
        write_telemetry(&sink, "fifo", &telemetry).unwrap();
        sink.flush().unwrap();
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    for line in text.lines() {
        let v = parse(line).unwrap_or_else(|e| panic!("invalid JSONL {line:?}: {e}"));
        assert_eq!(
            v.get("v").and_then(JsonValue::as_u64),
            Some(SCHEMA_VERSION),
            "untagged record {line:?}"
        );
    }
    assert_eq!(read_trace(&text).unwrap(), trace);

    // Fault histograms are non-empty on this run, so their hist records
    // appear alongside the latency ones.
    let hist_names: std::collections::BTreeSet<_> = text
        .lines()
        .filter_map(|l| {
            let v = parse(l).ok()?;
            if v.get("type").and_then(JsonValue::as_str) == Some("hist") {
                v.get("name").and_then(JsonValue::as_str).map(str::to_owned)
            } else {
                None
            }
        })
        .collect();
    for name in [
        "job_wait_milli",
        "job_service_milli",
        "job_attempts",
        "wasted_work_milli",
    ] {
        assert!(hist_names.contains(name), "{name} missing from telemetry");
    }
}

/// A plausible finite simulated time: non-negative, round-trips exactly
/// through `Display` (any finite f64 does; this keeps values readable).
fn arb_time() -> impl Strategy<Value = f64> {
    (0u64..100_000_000).prop_map(|t| t as f64 / 64.0)
}

fn arb_job() -> impl Strategy<Value = NodeId> {
    (0u32..1_000_000).prop_map(NodeId)
}

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (arb_time(), 0u64..100_000, 0usize..10_000, any::<bool>()).prop_map(
            |(time, size, assigned, stalled)| TraceEvent::BatchArrived {
                time,
                size,
                assigned,
                stalled,
            }
        ),
        (arb_time(), arb_job()).prop_map(|(time, job)| TraceEvent::JobSubmitted { time, job }),
        (arb_time(), arb_job()).prop_map(|(time, job)| TraceEvent::JobEligible { time, job }),
        (arb_time(), arb_job(), arb_time(), 0u64..100_000).prop_map(
            |(time, job, completes_at, worker)| TraceEvent::JobAssigned {
                time,
                job,
                completes_at,
                worker,
            }
        ),
        (arb_time(), arb_job()).prop_map(|(time, job)| TraceEvent::JobCompleted { time, job }),
        (arb_time(), arb_job()).prop_map(|(time, job)| TraceEvent::JobFailed { time, job }),
        (arb_time(), arb_job(), 1u32..10_000, arb_time()).prop_map(
            |(time, job, attempt, delay)| TraceEvent::JobRetried {
                time,
                job,
                attempt,
                delay,
            }
        ),
        (arb_time(), 0u64..100_000).prop_map(|(time, lost)| TraceEvent::WorkerDown { time, lost }),
        arb_time().prop_map(|time| TraceEvent::WorkerUp { time }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every generated event — fault kinds included — survives the JSON
    /// round-trip exactly and carries the schema version tag.
    #[test]
    fn arbitrary_events_round_trip(event in arb_event()) {
        let line = event_to_json(&event);
        let v = parse(&line).map_err(TestCaseError::fail)?;
        prop_assert_eq!(v.get("v").and_then(JsonValue::as_u64), Some(SCHEMA_VERSION));
        let back = read_trace(&line).map_err(TestCaseError::fail)?;
        prop_assert_eq!(back, vec![event]);
    }

    /// Version rule: only records tagged with the current schema parse.
    /// Untagged (v1) and older records are errors naming the version
    /// they carry; records claiming a newer schema are errors too. None
    /// is skipped.
    #[test]
    fn version_acceptance_rules_hold(event in arb_event(), bump in 1u64..5) {
        let line = event_to_json(&event);
        let tag = format!("\"v\":{SCHEMA_VERSION}");
        for version in 1..SCHEMA_VERSION {
            let retagged = line.replace(&tag, &format!("\"v\":{version}"));
            let err = read_trace(&retagged);
            prop_assert!(err.is_err(), "old schema must be an error: {:?}", err);
            let err = err.unwrap_err();
            prop_assert!(err.contains(&format!("schema v{version} ")), "{}", err);
        }
        let untagged = line.replace(&format!("{tag},"), "");
        let err = read_trace(&untagged);
        prop_assert!(err.is_err(), "untagged record must be an error: {:?}", err);
        prop_assert!(err.unwrap_err().contains("untagged record (schema v1)"));
        let future = line.replace(&tag, &format!("\"v\":{}", SCHEMA_VERSION + bump));
        let err = read_trace(&future);
        prop_assert!(err.is_err(), "future schema must be an error: {:?}", err);
        prop_assert!(err.unwrap_err().contains("newer"));
    }
}

#[test]
fn reliable_runs_round_trip_without_failures() {
    let dag = diamond_chain();
    let model = GridModel::paper(0.5, 3.0);
    let (_, trace) = recorded(&dag, &model, None, 7);
    let text: String = trace
        .iter()
        .map(|e| prio_sim::trace_json::event_to_json(e) + "\n")
        .collect();
    assert_eq!(read_trace(&text).unwrap(), trace);
    assert!(!trace
        .iter()
        .any(|e| matches!(e, TraceEvent::JobFailed { .. })));
}

/// The streaming writer, at chunk sizes below, at and above the engine's
/// handoff batch, writes exactly the events the in-memory recorder sees
/// on reliable and faulty runs, and the run's outcome is the same.
#[test]
fn streamed_jsonl_trace_equals_recorded_trace() {
    let dag = prio_workloads::airsn::airsn(20);
    let model = GridModel::paper(0.5, 4.0);
    let faults = FaultConfig {
        model: FaultModel::with_rate(0.3).with_churn(8.0, 2.0),
        retry: RetryPolicy {
            max_attempts: 4,
            backoff: prio_sim::Backoff::Fixed(0.5),
        },
    };
    for faults in [None, Some(&faults)] {
        let (expected_out, expected) = recorded(&dag, &model, faults, 11);
        for chunk in [1, 7, 256] {
            let path = std::env::temp_dir().join(format!(
                "prio_sim_streamed_{}_{chunk}_{}.jsonl",
                std::process::id(),
                faults.is_some()
            ));
            let pipeline =
                event_pipeline(JsonlSink::to_file(&path).unwrap(), DEFAULT_RING_CAPACITY, 1);
            let writer =
                StreamingTraceWriter::with_chunk(&pipeline, JobSampler::full_rate(), chunk);
            let out = simulate_streamed(&dag, &PolicySpec::Fifo, &model, faults, 11, &writer);
            drop(writer);
            let (sink, stats, result) = pipeline.finish();
            result.unwrap();
            sink.flush().unwrap();
            assert_eq!(stats.dropped, 0, "chunk {chunk}");
            let text = std::fs::read_to_string(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            assert_eq!(
                read_trace(&text).unwrap(),
                expected,
                "chunk {chunk}, faults {faults:?}"
            );
            assert_eq!(out, expected_out, "chunk {chunk}, faults {faults:?}");
        }
    }
}
