//! The cost of `prio simulate --trace-out`, as deterministic allocation
//! counts instead of wall time.
//!
//! The streamed trace path promises that tracing adds no per-event work on
//! the heap: the simulator hands events to a [`StreamingTraceWriter`],
//! which encodes each one in place into the pipeline's reused batch
//! buffer and writes full batches to the sink. So a traced run, full-rate
//! or sampled, may allocate only a constant on top of an untraced one
//! (the batch buffer, the float-formatting cache, the streamed run's
//! telemetry), the same at every dag size. Counting every allocation in
//! the process turns that promise into exact, machine-independent
//! numbers.
//!
//! Span records make the same promise: after a warm-up, opening and
//! closing a span allocates nothing.
//!
//! One `#[test]` only: [`ALLOC_COUNT`] is process-wide, so a second test
//! running concurrently would pollute the counts.

use prio_bench::scaling::montage_tier;
use prio_core::prio::prioritize;
use prio_graph::Dag;
use prio_obs::mem::{CountingAllocator, ALLOC_COUNT};
use prio_obs::{span, JobSampler, JsonlSink, Stage, DEFAULT_RING_CAPACITY};
use prio_sim::engine::{simulate, simulate_streamed};
use prio_sim::model::GridModel;
use prio_sim::trace_json::{event_pipeline, StreamingTraceWriter};
use prio_sim::PolicySpec;
use std::sync::atomic::Ordering;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const SEED: u64 = 42;

/// Allocations an untraced simulation may make regardless of size.
const UNTRACED_MAX: u64 = 32;

/// Allocations tracing may add: batch buffer, encoder state and the
/// streamed run's telemetry.
const TRACE_CONSTANT: u64 = 64;

/// Sampling modulus of the sampled run (1 job in 1000 keeps its events).
const SAMPLE: u64 = 1_000;

/// Nested span pairs opened and closed in the span check.
const SPAN_PAIRS: usize = 10_000;

/// Allocations made while `f` runs, on any thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_COUNT.load(Ordering::SeqCst);
    let out = f();
    (ALLOC_COUNT.load(Ordering::SeqCst) - before, out)
}

/// One streamed simulation into a pipeline that discards its output, as
/// `prio simulate --trace-out` runs it. Returns the events written and the
/// events dropped.
fn traced(dag: &Dag, policy: &PolicySpec, model: &GridModel, sample: u64) -> (u64, u64) {
    let sink = JsonlSink::to_writer(Box::new(std::io::sink()));
    let pipeline = event_pipeline(sink, DEFAULT_RING_CAPACITY, sample);
    let writer = StreamingTraceWriter::new(&pipeline, JobSampler::new(sample));
    simulate_streamed(dag, policy, model, None, SEED, &writer);
    let (_sink, stats, result) = pipeline.finish();
    result.expect("io::sink never fails");
    (stats.written, stats.dropped)
}

#[test]
fn tracing_allocates_a_constant_not_per_event() {
    let model = GridModel::paper(1.0, 64.0);
    let mut full_rate_added = Vec::new();
    for jobs in [2_000, 10_000] {
        let dag = montage_tier(jobs);
        let policy = PolicySpec::Oblivious(prioritize(&dag).unwrap().schedule);

        // Warm-up: one run of each kind fills lazily built registries.
        simulate(&dag, &policy, &model, SEED);
        traced(&dag, &policy, &model, 1);
        traced(&dag, &policy, &model, SAMPLE);

        let (untraced, _) = allocations(|| simulate(&dag, &policy, &model, SEED));
        let (full, (events, dropped)) = allocations(|| traced(&dag, &policy, &model, 1));
        let (sampled, (_, sampled_dropped)) = allocations(|| traced(&dag, &policy, &model, SAMPLE));

        let n = dag.num_nodes();
        eprintln!(
            "{n} jobs: untraced {untraced}, full-rate +{} ({events} events), sampled +{}",
            full as i64 - untraced as i64,
            sampled as i64 - untraced as i64,
        );
        assert!(
            events > 3 * n as u64,
            "{n} jobs: only {events} events traced"
        );
        assert!(
            untraced <= UNTRACED_MAX,
            "{n} jobs: untraced simulation made {untraced} allocations"
        );
        assert!(
            full <= untraced + TRACE_CONSTANT,
            "{n} jobs: full-rate trace made {full} allocations, untraced {untraced}, \
             {events} events"
        );
        full_rate_added.push(full as i64 - untraced as i64);
        assert!(
            sampled <= untraced + TRACE_CONSTANT,
            "{n} jobs: 1/{SAMPLE} sampled trace made {sampled} allocations, \
             untraced {untraced}"
        );
        assert_eq!(
            (dropped, sampled_dropped),
            (0, 0),
            "{n} jobs: events dropped"
        );
    }
    assert_eq!(
        full_rate_added[0], full_rate_added[1],
        "a full-rate trace adds the same allocations at 2k and 10k jobs"
    );

    // The open path is a thread-local word and a close adds into a fixed
    // store; only a path's first close allocates (its histogram).
    let nested_spans = || {
        for _ in 0..SPAN_PAIRS {
            let _outer = span(Stage::Schedule);
            let _inner = span(Stage::Combine);
        }
    };
    nested_spans();
    let (span_allocations, ()) = allocations(nested_spans);
    assert_eq!(
        span_allocations, 0,
        "{SPAN_PAIRS} nested span pairs allocated after warm-up"
    );
}
