//! The event-driven grid simulator (§4.1), with optional fault injection.
//!
//! Under the paper's reliable model two event kinds drive the clock:
//! *batch arrivals* (workers requesting jobs; unfilled requests are
//! discarded) and *job completions* (results returned, possibly rendering
//! children eligible). The run ends when all jobs have completed; the
//! makespan is the last completion time.
//!
//! With a [`FaultConfig`] (passed to [`simulate_streamed`]) two more
//! event kinds appear: *releases* (a transiently failed job re-entering
//! the eligible queue after its retry backoff) and *pool churn* (the
//! worker pool going down — killing every in-flight job — and coming
//! back up). Jobs whose retries exhaust, or whose fault is permanent,
//! abort DAGMan-style: they resolve as failed-permanent and every
//! descendant resolves as unreachable. The run then ends when every job
//! is *resolved* (completed, failed-permanent, or unreachable).
//!
//! There is one run loop, generic over the [`TraceConsumer`]: with
//! [`NoTrace`] (what [`simulate`] passes) every emission site and the
//! telemetry bookkeeping compile away. The loop picks the next event or
//! batch and hands it to one handler of the per-run state (`Run`).
//!
//! Determinism: all randomness comes from seeded streams (the main stream
//! plus dedicated fault/churn streams that the reliable path never
//! touches), and events are processed in time order with completions
//! winning ties, so a run is a pure function of
//! `(dag, policy, model, faults, seed)`. An inactive fault config takes
//! exactly the reliable code path: same events, same RNG draws,
//! bit-identical outcome.

use crate::fault::FaultConfig;
use crate::metrics::RunMetrics;
use crate::model::{GridModel, UnfilledRequests};
use crate::policy::{PolicyQueue, PolicySpec};
use crate::telemetry::SimTelemetry;
use crate::trace::{NoTrace, Trace, TraceConsumer, TraceEvent, STREAM_BATCH_EVENTS};
use prio_graph::{Dag, NodeId};
use prio_stats::rng::SimRng;
use prio_stats::{seeded_rng, Exponential, TruncatedNormal};
use rand::Rng as _;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A heap event. The derived order breaks equal-time ties: completions
/// first (by job id, as the reliable engine always did), then releases,
/// then churn transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// A worker returns job results; the generation tag invalidates
    /// completions of assignments killed by pool churn.
    Completion(NodeId, u32),
    /// A transiently failed job re-enters the eligible queue.
    Release(NodeId),
    /// The worker pool goes down.
    PoolDown,
    /// The worker pool comes back up.
    PoolUp,
}

/// An event at a time, packed into integers whose derived order is
/// `(time, event)` ordered by `f64::total_cmp` and then by [`Ev`]'s
/// derived order.
///
/// `time_key` is the time's bits under the monotone map that orders like
/// `total_cmp`, so `-0.0` (a possible `Exponential` sample) sorts before
/// `+0.0`. `tag` is the variant rank in bits 32.. and the job id below;
/// `generation` is the completion's generation (0 for the other kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    time_key: u64,
    tag: u64,
    generation: u32,
}

const SIGN: u64 = 1 << 63;

impl EventKey {
    fn new(time: f64, ev: Ev) -> EventKey {
        let bits = time.to_bits();
        let time_key = if bits & SIGN == 0 { bits | SIGN } else { !bits };
        let (rank, job, generation) = match ev {
            Ev::Completion(job, generation) => (0, job.0, generation),
            Ev::Release(job) => (1, job.0, 0),
            Ev::PoolDown => (2, 0, 0),
            Ev::PoolUp => (3, 0, 0),
        };
        EventKey {
            time_key,
            tag: (rank << 32) | u64::from(job),
            generation,
        }
    }

    fn time(self) -> f64 {
        f64::from_bits(if self.time_key & SIGN != 0 {
            self.time_key ^ SIGN
        } else {
            !self.time_key
        })
    }

    fn event(self) -> Ev {
        let job = NodeId(self.tag as u32);
        match self.tag >> 32 {
            0 => Ev::Completion(job, self.generation),
            1 => Ev::Release(job),
            2 => Ev::PoolDown,
            _ => Ev::PoolUp,
        }
    }
}

/// The pending events, earliest first.
type EventHeap = BinaryHeap<Reverse<EventKey>>;

/// How one job ended, when the fault layer is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job completed successfully.
    Completed,
    /// The job aborted: a permanent fault, or retries exhausted.
    FailedPermanent,
    /// An ancestor aborted, so the job could never run.
    Unreachable,
}

/// The raw counters of one simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimOutcome {
    /// Time at which the last job resolved (0 for an empty dag). Without
    /// faults every job completes and this is the last completion time.
    pub makespan: f64,
    /// Batches that arrived up to and including the batch that assigned
    /// the last job.
    pub batches_observed: u64,
    /// Among those, batches that found pending work but no eligible
    /// unassigned job ("stalls").
    pub stalled_batches: u64,
    /// Total worker requests in the observed batches.
    pub total_requests: u64,
    /// Number of jobs in the dag.
    pub num_jobs: usize,
    /// Jobs that completed successfully (equals `num_jobs` without
    /// faults).
    pub completed: usize,
    /// Jobs that aborted permanently (fault layer only).
    pub failed_permanent: usize,
    /// Jobs unreachable because an ancestor aborted (fault layer only).
    pub unreachable: usize,
    /// Failed attempts across all jobs (fault layer only).
    pub failed_attempts: u64,
    /// Simulated time spent on attempts that failed ("wasted work");
    /// tracked whenever failures are possible.
    pub wasted_time: f64,
    /// Per-job resolution, when the fault layer was active.
    pub outcomes: Option<Vec<JobOutcome>>,
    /// Time-series and latency telemetry, collected whenever the run
    /// has a trace consumer (never under [`NoTrace`]).
    pub telemetry: Option<SimTelemetry>,
}

impl SimOutcome {
    /// Derives the paper's three metrics from the counters.
    pub fn metrics(&self) -> RunMetrics {
        RunMetrics {
            execution_time: self.makespan,
            stall_probability: if self.batches_observed == 0 {
                0.0
            } else {
                self.stalled_batches as f64 / self.batches_observed as f64
            },
            utilization: if self.total_requests == 0 {
                0.0
            } else {
                self.num_jobs as f64 / self.total_requests as f64
            },
        }
    }
}

/// Bookkeeping for telemetry collection during a traced run: the
/// telemetry itself plus per-job eligibility timestamps used to derive
/// wait latencies, and the running assignment count feeding the
/// utilization series.
struct TelemetryState {
    telemetry: SimTelemetry,
    eligible_at: Vec<f64>,
    assigned_total: u64,
}

/// Mutable fault-layer state for one run. Allocated only when the
/// [`FaultConfig`] is active, so the reliable hot path pays nothing.
struct FaultState<'a> {
    config: &'a FaultConfig,
    fault_seed: u64,
    churn_rng: Option<SimRng>,
    mttf: Exponential,
    mttr: Exponential,
    /// Attempts started per job (1-based once assigned).
    attempts: Vec<u32>,
    /// Assignment generation per job; completions of older generations
    /// (assignments killed by churn) are stale and skipped.
    generation: Vec<u32>,
    /// Whether the job is currently on a worker.
    running: Vec<bool>,
    /// Per-job resolution; `None` while undecided.
    outcomes: Vec<Option<JobOutcome>>,
    pool_up: bool,
}

impl<'a> FaultState<'a> {
    fn new(config: &'a FaultConfig, n: usize, seed: u64) -> FaultState<'a> {
        let churn_rng = config.model.worker_mttf.map(|_| {
            let mut churn = seeded_rng(crate::fault::churn_seed(seed));
            // Burn one draw so the first uptime is independent of the
            // stream head shared with other salts.
            let _: u64 = churn.gen();
            churn
        });
        FaultState {
            config,
            fault_seed: crate::fault::fault_seed(seed),
            churn_rng,
            mttf: Exponential::new(config.model.worker_mttf.unwrap_or(1.0)),
            mttr: Exponential::new(config.model.worker_mttr.max(f64::MIN_POSITIVE)),
            attempts: vec![0; n],
            generation: vec![0; n],
            running: vec![false; n],
            outcomes: vec![None; n],
            pool_up: true,
        }
    }

    /// The next churn transition: `t` plus an uptime (`up`) or a repair
    /// time (`!up`) drawn from the churn stream.
    fn churn_after(&mut self, t: f64, up: bool) -> f64 {
        let churn = self.churn_rng.as_mut().expect("churn event needs rng");
        t + if up { &self.mttf } else { &self.mttr }.sample(churn)
    }
}

/// Simulates one execution of `dag` under `policy` and `model` with the
/// given `seed` (the paper's reliable grid), untraced.
pub fn simulate(dag: &Dag, policy: &PolicySpec, model: &GridModel, seed: u64) -> SimOutcome {
    simulate_streamed(dag, policy, model, None, seed, &NoTrace)
}

/// Simulates one execution, with fault injection and recovery when
/// `faults` is an active config, handing every trace event to
/// `consumer` at its emission site. Unless the consumer is [`NoTrace`]
/// the run also collects its [`SimTelemetry`] in full, so aggregates
/// stay exact even when the consumer samples or drops events. Pass
/// `None` (or an inactive config) for the reliable model: same events,
/// same RNG draws, bit-identical outcome.
pub fn simulate_streamed<S: TraceConsumer>(
    dag: &Dag,
    policy: &PolicySpec,
    model: &GridModel,
    faults: Option<&FaultConfig>,
    seed: u64,
    consumer: &S,
) -> SimOutcome {
    Run::new(dag, policy, model, faults, seed, consumer).finish(model)
}

/// Marks every unresolved descendant of `job` unreachable (none of them
/// can ever have run: their aborted ancestor never completed). Returns
/// how many jobs were marked.
fn mark_descendants_unreachable(
    dag: &Dag,
    job: NodeId,
    outcomes: &mut [Option<JobOutcome>],
) -> usize {
    let mut marked = 0;
    let mut stack: Vec<NodeId> = dag.children(job).to_vec();
    while let Some(v) = stack.pop() {
        if outcomes[v.index()].is_some() {
            continue;
        }
        outcomes[v.index()] = Some(JobOutcome::Unreachable);
        marked += 1;
        stack.extend_from_slice(dag.children(v));
    }
    marked
}

/// Hands trace events to the run's consumer in [`STREAM_BATCH_EVENTS`]
/// -sized runs, so the hot emission path is a plain `Vec` push and the
/// consumer boundary (with its interior mutability) is crossed once per
/// batch. Under [`NoTrace`] every push compiles away.
struct Emitter<'a, S: TraceConsumer> {
    consumer: &'a S,
    batch: Trace,
}

impl<S: TraceConsumer> Emitter<'_, S> {
    #[inline]
    fn push(&mut self, event: TraceEvent) {
        if S::ENABLED {
            self.batch.push(event);
            if self.batch.len() == STREAM_BATCH_EVENTS {
                self.consumer.consume_batch(&self.batch);
                self.batch.clear();
            }
        }
    }

    /// Hands the consumer the partial batch at the end of a run.
    fn flush(&mut self) {
        if S::ENABLED && !self.batch.is_empty() {
            self.consumer.consume_batch(&self.batch);
            self.batch.clear();
        }
    }
}

/// The state of one run. The loop in [`Run::finish`] decides which event
/// comes next; each handler method applies one kind.
struct Run<'a, S: TraceConsumer> {
    dag: &'a Dag,
    rng: SimRng,
    runtime: TruncatedNormal,
    /// Rollover ablation: unfilled requests park as idle workers.
    wait_mode: bool,
    queue: PolicyQueue<'a>,
    missing_parents: Vec<u32>,
    events: EventHeap,
    /// Fault layer, present only when the config is active.
    fs: Option<FaultState<'a>>,
    /// Telemetry, present only when the consumer is enabled.
    telem: Option<TelemetryState>,
    /// Assignment time per job, kept whenever failures are possible
    /// (wasted work) or telemetry is on (service latency); empty
    /// otherwise.
    assigned_at: Vec<f64>,
    trace: Emitter<'a, S>,
    /// Serving-worker ids for trace assignment events: sequential over
    /// granted requests, bumped only when tracing.
    next_worker: u64,
    in_flight: usize,
    resolved: usize,
    /// Parked workers (rollover ablation only; stays 0 under Discard).
    idle_workers: u64,
    /// The counters reported at the end; `outcomes` and `telemetry` are
    /// filled in by [`Run::finish`].
    out: SimOutcome,
}

impl<'a, S: TraceConsumer> Run<'a, S> {
    fn new(
        dag: &'a Dag,
        policy: &'a PolicySpec,
        model: &GridModel,
        faults: Option<&'a FaultConfig>,
        seed: u64,
        consumer: &'a S,
    ) -> Run<'a, S> {
        let n = dag.num_nodes();
        // Fault layer: allocated only when active so the reliable hot
        // path (and its RNG stream) is exactly the pre-fault engine.
        let fs = faults
            .filter(|f| f.is_active())
            .map(|f| FaultState::new(f, n, seed));
        let track_assignments = S::ENABLED || fs.is_some();
        let mut run = Run {
            dag,
            rng: seeded_rng(seed),
            runtime: model.runtime(),
            wait_mode: model.unfilled == UnfilledRequests::Wait,
            queue: policy.make_queue(n),
            missing_parents: dag.node_ids().map(|u| dag.in_degree(u) as u32).collect(),
            events: EventHeap::new(),
            fs,
            // `eligible_at` starts at 0.0 (sources are eligible from the
            // start) and is overwritten whenever a job (re-)enters the
            // ready queue.
            telem: S::ENABLED.then(|| TelemetryState {
                telemetry: SimTelemetry::new(),
                eligible_at: vec![0.0; n],
                assigned_total: 0,
            }),
            assigned_at: if track_assignments {
                vec![0.0; n]
            } else {
                Vec::new()
            },
            trace: Emitter {
                consumer,
                batch: Vec::with_capacity(if S::ENABLED { STREAM_BATCH_EVENTS } else { 0 }),
            },
            next_worker: 0,
            in_flight: 0,
            resolved: 0,
            idle_workers: 0,
            out: SimOutcome {
                num_jobs: n,
                ..SimOutcome::default()
            },
        };
        for u in dag.sources() {
            run.queue.push(u);
        }
        if let Some(fs) = run.fs.as_mut() {
            if fs.churn_rng.is_some() {
                let first_down = fs.churn_after(0.0, true);
                run.events
                    .push(Reverse(EventKey::new(first_down, Ev::PoolDown)));
            }
        }
        // Lifecycle prologue (schema v3): every job is submitted at run
        // start, and the sources are immediately eligible. Emitted in
        // node-id order so traces stay deterministic per seed.
        if S::ENABLED {
            for u in dag.node_ids() {
                run.trace
                    .push(TraceEvent::JobSubmitted { time: 0.0, job: u });
            }
            for u in dag.sources() {
                run.trace
                    .push(TraceEvent::JobEligible { time: 0.0, job: u });
            }
        }
        run
    }

    /// Runs the event loop to the end and returns the outcome.
    fn finish(mut self, model: &GridModel) -> SimOutcome {
        let n = self.dag.num_nodes();
        let interarrival = model.interarrival();
        let batch_size = model.batch_size();
        // The first batch arrives at time 0.
        let mut next_batch = 0.0f64;
        // Observability tallies are accumulated locally and flushed to
        // the global registries once per run, so the hot loop touches no
        // atomics.
        let mut events_processed = 0u64;
        let mut heap_high_water = 0usize;

        while self.resolved < n {
            events_processed += 1;
            heap_high_water = heap_high_water.max(self.events.len());
            // Jobs neither resolved nor currently on a worker — with
            // reliable workers this is "unexecuted and unassigned"; with
            // failures a job can re-enter this state (and jobs in retry
            // backoff stay in it).
            let unassigned = n - self.resolved - self.in_flight;
            let next_event = self.events.peek().map(|Reverse(key)| key.time());
            // Completions win ties so a batch arriving at the same
            // instant sees the freed dependencies. With reliable workers,
            // batches after the last assignment cannot matter and are
            // skipped entirely (keeping the RNG stream identical to the
            // paper's model).
            let take_event = match next_event {
                Some(tc) => (unassigned == 0 && self.fs.is_none()) || tc <= next_batch,
                None => false,
            };
            if take_event {
                let Reverse(key) = self.events.pop().expect("peeked");
                let t = key.time();
                match key.event() {
                    Ev::Completion(job, generation) => {
                        // Stale completion: this assignment was killed by
                        // pool churn; its failure was already processed
                        // then.
                        if self
                            .fs
                            .as_ref()
                            .is_some_and(|fs| fs.generation[job.index()] != generation)
                        {
                            continue;
                        }
                        self.completion(t, job);
                    }
                    Ev::Release(job) => self.release(t, job),
                    Ev::PoolDown => self.pool_down(t),
                    Ev::PoolUp => self.pool_up(t),
                }
                // Rollover ablation: parked workers grab newly eligible
                // jobs the moment they appear.
                while self.wait_mode && self.idle_workers > 0 && self.queue.len() > 0 {
                    let job = self.queue.pop().expect("non-empty");
                    self.idle_workers -= 1;
                    self.assign(t, job);
                }
                self.record_step(t);
            } else {
                let t = next_batch;
                let size = batch_size.sample(&mut self.rng);
                self.batch(t, size, unassigned);
                self.record_step(t);
                next_batch = t + interarrival.sample(&mut self.rng);
            }
        }
        self.trace.flush();

        let out = &mut self.out;
        prio_obs::counter!("sim.engine.runs").inc();
        prio_obs::counter!("sim.engine.events_processed").add(events_processed);
        prio_obs::counter!("sim.engine.stalled_batches").add(out.stalled_batches);
        if out.failed_attempts > 0 {
            prio_obs::counter!("sim.engine.failed_attempts").add(out.failed_attempts);
        }
        let aborted = out.failed_permanent + out.unreachable;
        if aborted > 0 {
            prio_obs::counter!("sim.engine.jobs_aborted").add(aborted as u64);
        }
        prio_obs::gauge!("sim.engine.completion_heap_high_water")
            .record_max(heap_high_water as u64);

        out.outcomes = self.fs.map(|fs| {
            fs.outcomes
                .into_iter()
                .map(|o| o.expect("every job resolves before the run ends"))
                .collect()
        });
        out.telemetry = self.telem.map(|ts| ts.telemetry);
        self.out
    }

    /// Samples the telemetry series after an event or batch at `t`.
    /// Utilization is the running assigned / requested ratio (0 until the
    /// first request arrives).
    fn record_step(&mut self, t: f64) {
        if let Some(ts) = self.telem.as_mut() {
            let ready = self.queue.len();
            let requests = self.out.total_requests;
            let util = if requests == 0 {
                0.0
            } else {
                ts.assigned_total as f64 / requests as f64
            };
            ts.telemetry
                .record_step(t, ready + self.in_flight, ready, self.idle_workers, util);
        }
    }

    /// `job` enters the ready queue at `t`.
    fn make_eligible(&mut self, t: f64, job: NodeId) {
        self.queue.push(job);
        if let Some(ts) = self.telem.as_mut() {
            ts.eligible_at[job.index()] = t;
        }
    }

    /// A live completion event of `job` at `t`: an injected fault, or a
    /// success that may free children.
    fn completion(&mut self, t: f64, job: NodeId) {
        self.in_flight -= 1;
        if let Some(fs) = self.fs.as_mut() {
            fs.running[job.index()] = false;
            let attempt = fs.attempts[job.index()];
            if fs.config.model.attempt_fails(fs.fault_seed, job, attempt) {
                self.fault(t, job, false);
                return;
            }
        }
        self.out.completed += 1;
        self.resolved += 1;
        self.out.makespan = self.out.makespan.max(t);
        if let Some(fs) = self.fs.as_mut() {
            fs.outcomes[job.index()] = Some(JobOutcome::Completed);
        }
        if let Some(ts) = self.telem.as_mut() {
            ts.telemetry
                .record_service(t - self.assigned_at[job.index()]);
            if let Some(fs) = self.fs.as_ref() {
                ts.telemetry.record_attempts(fs.attempts[job.index()]);
            }
        }
        self.trace.push(TraceEvent::JobCompleted { time: t, job });
        for &child in self.dag.children(job) {
            let m = &mut self.missing_parents[child.index()];
            *m -= 1;
            // A child already marked unreachable (another ancestor
            // aborted) must never become eligible.
            let dead = self
                .fs
                .as_ref()
                .is_some_and(|fs| fs.outcomes[child.index()].is_some());
            if *m == 0 && !dead {
                self.make_eligible(t, child);
                self.trace.push(TraceEvent::JobEligible {
                    time: t,
                    job: child,
                });
            }
        }
    }

    /// A transiently failed `job` re-enters the ready queue after its
    /// backoff.
    fn release(&mut self, t: f64, job: NodeId) {
        let fs = self.fs.as_ref().expect("releases only exist with faults");
        let attempts = fs.attempts[job.index()];
        let delay = fs.config.retry.backoff.delay(attempts);
        self.make_eligible(t, job);
        self.trace.push(TraceEvent::JobRetried {
            time: t,
            job,
            attempt: attempts + 1,
            delay,
        });
    }

    /// The worker pool goes down at `t`: every in-flight job suffers a
    /// transient fault, and parked workers are lost with the pool.
    fn pool_down(&mut self, t: f64) {
        let fs = self.fs.as_mut().expect("churn only exists with faults");
        fs.pool_up = false;
        self.idle_workers = 0;
        // The victims' queued completion events go stale via the
        // generation bump.
        let victims: Vec<NodeId> = self
            .dag
            .node_ids()
            .filter(|u| fs.running[u.index()])
            .collect();
        self.trace.push(TraceEvent::WorkerDown {
            time: t,
            lost: victims.len() as u64,
        });
        for job in victims {
            let fs = self.fs.as_mut().expect("checked");
            fs.running[job.index()] = false;
            fs.generation[job.index()] += 1;
            self.in_flight -= 1;
            self.fault(t, job, true);
        }
        let up_at = self.fs.as_mut().expect("checked").churn_after(t, false);
        self.events.push(Reverse(EventKey::new(up_at, Ev::PoolUp)));
    }

    /// The worker pool comes back up at `t`.
    fn pool_up(&mut self, t: f64) {
        let fs = self.fs.as_mut().expect("churn only exists with faults");
        fs.pool_up = true;
        self.trace.push(TraceEvent::WorkerUp { time: t });
        let down_at = fs.churn_after(t, true);
        self.events
            .push(Reverse(EventKey::new(down_at, Ev::PoolDown)));
    }

    /// A batch of `size` worker requests arrives at `t`. It is
    /// *observed* (counts toward the stalling and utilization
    /// denominators) iff pending unassigned work exists, which under
    /// reliable workers is exactly "until the batch when the last job
    /// was assigned". While the pool is down, arriving workers never
    /// reach the server: the batch is neither observed nor parked.
    fn batch(&mut self, t: f64, size: u64, unassigned: usize) {
        let pool_up = self.fs.as_ref().is_none_or(|fs| fs.pool_up);
        if unassigned > 0 && pool_up {
            self.out.batches_observed += 1;
            self.out.total_requests += size;
            let available = self.queue.len();
            let stalled = available == 0;
            if stalled {
                self.out.stalled_batches += 1;
            }
            let workers = if self.wait_mode {
                size + self.idle_workers
            } else {
                size
            };
            let to_assign = (workers as usize).min(available);
            for _ in 0..to_assign {
                let job = self.queue.pop().expect("available > 0");
                self.assign(t, job);
            }
            if self.wait_mode {
                self.idle_workers = workers - to_assign as u64;
            }
            self.trace.push(TraceEvent::BatchArrived {
                time: t,
                size,
                assigned: to_assign,
                stalled,
            });
        } else if self.wait_mode && pool_up {
            self.idle_workers += size;
        }
    }

    /// Hands `job` to a worker at `t` and schedules its completion.
    fn assign(&mut self, t: f64, job: NodeId) {
        let completes_at = t + self.runtime.sample(&mut self.rng);
        let generation = self.fs.as_mut().map_or(0, |fs| {
            fs.attempts[job.index()] += 1;
            fs.running[job.index()] = true;
            fs.generation[job.index()]
        });
        if let Some(at) = self.assigned_at.get_mut(job.index()) {
            *at = t;
        }
        self.events.push(Reverse(EventKey::new(
            completes_at,
            Ev::Completion(job, generation),
        )));
        self.in_flight += 1;
        if let Some(ts) = self.telem.as_mut() {
            ts.telemetry.record_wait(t - ts.eligible_at[job.index()]);
            ts.assigned_total += 1;
        }
        if S::ENABLED {
            self.next_worker += 1;
            self.trace.push(TraceEvent::JobAssigned {
                time: t,
                job,
                completes_at,
                worker: self.next_worker,
            });
        }
    }

    /// Handles one failed attempt of `job` at `t`: records the waste,
    /// emits `JobFailed`, then either aborts the job (permanent fault or
    /// retries exhausted — marking descendants unreachable) or schedules
    /// its retry (immediately or after the backoff delay). Churn kills
    /// (`from_churn`) are never permanent.
    fn fault(&mut self, t: f64, job: NodeId, from_churn: bool) {
        let fs = self.fs.as_mut().expect("faults need the fault layer");
        let attempt = fs.attempts[job.index()];
        self.out.failed_attempts += 1;
        let waste = t - self.assigned_at[job.index()];
        self.out.wasted_time += waste;
        if let Some(ts) = self.telem.as_mut() {
            ts.telemetry.record_waste(waste);
        }
        self.trace.push(TraceEvent::JobFailed { time: t, job });
        let permanent = !from_churn
            && fs
                .config
                .model
                .fault_is_permanent(fs.fault_seed, job, attempt);
        if permanent || attempt >= fs.config.retry.max_attempts {
            fs.outcomes[job.index()] = Some(JobOutcome::FailedPermanent);
            self.resolved += 1;
            self.out.failed_permanent += 1;
            self.out.makespan = self.out.makespan.max(t);
            if let Some(ts) = self.telem.as_mut() {
                ts.telemetry.record_attempts(attempt);
            }
            let marked = mark_descendants_unreachable(self.dag, job, &mut fs.outcomes);
            self.resolved += marked;
            self.out.unreachable += marked;
            return;
        }
        let delay = fs.config.retry.backoff.delay(attempt);
        if delay > 0.0 {
            self.events
                .push(Reverse(EventKey::new(t + delay, Ev::Release(job))));
        } else {
            self.make_eligible(t, job);
            self.trace.push(TraceEvent::JobRetried {
                time: t,
                job,
                attempt: attempt + 1,
                delay: 0.0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Backoff, FaultModel, RetryPolicy};
    use prio_core::fifo::fifo_schedule;
    use prio_core::Schedule;
    use prio_graph::topo::critical_path_len;
    use std::cell::RefCell;

    fn fifo() -> PolicySpec {
        PolicySpec::Fifo
    }

    fn oblivious(dag: &Dag) -> PolicySpec {
        PolicySpec::Oblivious(fifo_schedule(dag))
    }

    /// A run recorded in memory: the outcome and its events.
    fn traced(
        dag: &Dag,
        policy: &PolicySpec,
        model: &GridModel,
        faults: Option<&FaultConfig>,
        seed: u64,
    ) -> (SimOutcome, Trace) {
        let recorder = RefCell::new(Trace::new());
        let out = simulate_streamed(dag, policy, model, faults, seed, &recorder);
        (out, recorder.into_inner())
    }

    fn chain(n: usize) -> Dag {
        let arcs: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Dag::from_arcs(n, &arcs).unwrap()
    }

    /// Per-attempt failures at rate `p`, retried without limit.
    fn unlimited_faults(p: f64) -> FaultConfig {
        FaultConfig {
            model: FaultModel::with_rate(p),
            retry: RetryPolicy::unlimited(),
        }
    }

    #[test]
    fn determinism_per_seed() {
        let dag = chain(20);
        let model = GridModel::paper(0.5, 4.0);
        let a = simulate(&dag, &fifo(), &model, 42);
        let b = simulate(&dag, &fifo(), &model, 42);
        assert_eq!(a, b);
        let c = simulate(&dag, &fifo(), &model, 43);
        assert_ne!(a.makespan, c.makespan);
    }

    #[test]
    fn abundant_workers_approach_critical_path() {
        // Batches arrive every ~1e-3 with huge sizes: every job starts as
        // soon as it is eligible, so the makespan is about the critical
        // path length (in ~1.0-long job units).
        let dag = chain(10);
        let model = GridModel::paper(1e-3, 1u64.wrapping_shl(16) as f64);
        let out = simulate(&dag, &fifo(), &model, 7);
        let cp = (critical_path_len(&dag) + 1) as f64;
        assert!(
            (out.makespan - cp).abs() < 0.5,
            "makespan {} vs critical path {cp}",
            out.makespan
        );
        // Utilization is tiny: almost all requests are discarded.
        assert!(out.metrics().utilization < 0.01);
    }

    #[test]
    fn scarce_workers_serialize_execution() {
        // Batches of ~1 arriving every ~10 time units: jobs run one by one,
        // makespan ≈ 10 × n.
        let dag = chain(8);
        let model = GridModel::paper(10.0, 1.0);
        let out = simulate(&dag, &fifo(), &model, 11);
        assert!(out.makespan > 8.0 * 5.0, "makespan {}", out.makespan);
        // Nearly every request is served: utilization close to 1.
        assert!(
            out.metrics().utilization > 0.6,
            "{}",
            out.metrics().utilization
        );
    }

    #[test]
    fn conservation_laws() {
        let dag = Dag::from_arcs(6, &[(0, 2), (1, 2), (2, 3), (2, 4), (4, 5)]).unwrap();
        let model = GridModel::paper(0.3, 2.0);
        let (out, trace) = traced(&dag, &oblivious(&dag), &model, None, 3);
        let assigned = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::JobAssigned { .. }))
            .count();
        let completed = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::JobCompleted { .. }))
            .count();
        assert_eq!(assigned, 6);
        assert_eq!(completed, 6);
        assert_eq!(out.completed, 6);
        assert_eq!(out.failed_permanent, 0);
        assert_eq!(out.unreachable, 0);
        // Requests ≥ jobs, so utilization ≤ 1; probabilities in range.
        let m = out.metrics();
        assert!(out.total_requests >= 6);
        assert!((0.0..=1.0).contains(&m.utilization));
        assert!((0.0..=1.0).contains(&m.stall_probability));
    }

    #[test]
    fn trace_respects_dependencies() {
        let dag = Dag::from_arcs(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let model = GridModel::paper(0.2, 8.0);
        let (_, trace) = traced(&dag, &fifo(), &model, None, 9);
        let mut completed_at = [f64::NAN; 4];
        let mut assigned_at = [f64::NAN; 4];
        for e in &trace {
            match e {
                TraceEvent::JobAssigned { time, job, .. } => assigned_at[job.index()] = *time,
                TraceEvent::JobCompleted { time, job } => completed_at[job.index()] = *time,
                _ => {}
            }
        }
        for (u, v) in dag.arcs() {
            assert!(
                completed_at[u.index()] <= assigned_at[v.index()],
                "child {v:?} assigned before parent {u:?} completed"
            );
        }
    }

    #[test]
    fn stalls_happen_on_serial_chains_with_frequent_batches() {
        // A long chain with very frequent batches: most batches find the
        // single in-flight job already assigned — near-certain stalling.
        let dag = chain(10);
        let model = GridModel::paper(0.05, 1.0);
        let out = simulate(&dag, &fifo(), &model, 13);
        let m = out.metrics();
        assert!(m.stall_probability > 0.5, "stall {}", m.stall_probability);
    }

    #[test]
    fn waiting_workers_speed_up_scarce_regimes() {
        // A chain with rare tiny batches: discarded workers waste most
        // arrivals; parked workers pick each next link immediately.
        let dag = chain(10);
        let discard = GridModel::paper(3.0, 1.0);
        let wait = discard.with_waiting_workers();
        let mean = |m: &GridModel| -> f64 {
            (0..40)
                .map(|s| simulate(&dag, &PolicySpec::Fifo, m, s).makespan)
                .sum::<f64>()
                / 40.0
        };
        let t_discard = mean(&discard);
        let t_wait = mean(&wait);
        // The exact ratio depends on the RNG stream; require a clear
        // improvement rather than a stream-specific margin.
        assert!(
            t_wait < t_discard * 0.9,
            "parked workers must help: {t_wait} vs {t_discard}"
        );
    }

    #[test]
    fn waiting_workers_preserve_dependencies() {
        let dag = Dag::from_arcs(5, &[(0, 2), (1, 2), (2, 3), (2, 4)]).unwrap();
        let model = GridModel::paper(0.5, 2.0).with_waiting_workers();
        let (_, trace) = traced(&dag, &PolicySpec::Fifo, &model, None, 8);
        let mut completed_at = [f64::NAN; 5];
        let mut assigned_at = [f64::NAN; 5];
        for e in &trace {
            match e {
                TraceEvent::JobAssigned { time, job, .. } => assigned_at[job.index()] = *time,
                TraceEvent::JobCompleted { time, job } => completed_at[job.index()] = *time,
                _ => {}
            }
        }
        for (u, v) in dag.arcs() {
            assert!(completed_at[u.index()] <= assigned_at[v.index()]);
        }
    }

    #[test]
    fn discard_mode_is_unchanged_by_the_flag_default() {
        let dag = chain(8);
        let a = GridModel::paper(0.7, 3.0);
        assert_eq!(a.unfilled, crate::model::UnfilledRequests::Discard);
        let out1 = simulate(&dag, &fifo(), &a, 3);
        let out2 = simulate(&dag, &fifo(), &a, 3);
        assert_eq!(out1, out2);
    }

    #[test]
    fn failures_retry_until_success() {
        let dag = chain(6);
        let model = GridModel::paper(0.5, 4.0);
        let faults = unlimited_faults(0.4);
        let (out, trace) = traced(&dag, &fifo(), &model, Some(&faults), 21);
        let failures = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::JobFailed { .. }))
            .count();
        let completions = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::JobCompleted { .. }))
            .count();
        let assignments = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::JobAssigned { .. }))
            .count();
        assert_eq!(completions, 6, "every job eventually completes");
        assert_eq!(
            assignments,
            completions + failures,
            "each failure re-assigns"
        );
        assert!(
            failures > 0,
            "with p=0.4 over many assignments some failure occurs"
        );
        assert_eq!(out.failed_attempts, failures as u64);
        assert_eq!(out.failed_permanent, 0, "unlimited retries never abort");
        assert!(out.wasted_time > 0.0, "traced faulty runs track waste");
        // Dependencies still respected: completion order is the chain.
        let order: Vec<NodeId> = trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::JobCompleted { job, .. } => Some(*job),
                _ => None,
            })
            .collect();
        for w in order.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn failures_increase_makespan() {
        let dag = chain(12);
        let model = GridModel::paper(0.5, 4.0);
        let flaky = unlimited_faults(0.3);
        let mean = |faults: Option<&FaultConfig>| -> f64 {
            (0..40)
                .map(|s| simulate_streamed(&dag, &fifo(), &model, faults, s, &NoTrace).makespan)
                .sum::<f64>()
                / 40.0
        };
        let t_reliable = mean(None);
        let t_flaky = mean(Some(&flaky));
        assert!(
            t_flaky > t_reliable * 1.15,
            "retries must cost time: {t_flaky} vs {t_reliable}"
        );
    }

    #[test]
    fn inactive_fault_config_is_bit_identical_to_simulate() {
        let dag = chain(10);
        let model = GridModel::paper(0.7, 3.0);
        let none = FaultConfig::none();
        let plain = simulate(&dag, &fifo(), &model, 5);
        let faulty = simulate_streamed(&dag, &fifo(), &model, Some(&none), 5, &NoTrace);
        assert_eq!(plain, faulty);
        assert_eq!(
            traced(&dag, &fifo(), &model, None, 5),
            traced(&dag, &fifo(), &model, Some(&none), 5)
        );
    }

    #[test]
    fn untraced_and_recorded_runs_agree_on_every_counter() {
        // Tracing must only add the telemetry: wasted work in particular
        // is tracked whenever failures are possible, traced or not.
        let dag = prio_workloads::airsn::airsn(20);
        let prio = oblivious(&dag);
        let reliable = GridModel::paper(0.5, 4.0);
        let churn = FaultConfig {
            model: FaultModel::with_rate(0.3).with_churn(8.0, 2.0),
            retry: RetryPolicy {
                max_attempts: 4,
                backoff: Backoff::Fixed(0.5),
            },
        };
        let unlimited = unlimited_faults(0.3);
        let cases = [
            (None, "reliable"),
            (Some(&unlimited), "unlimited"),
            (Some(&churn), "churn"),
        ];
        for (faults, case) in cases {
            for seed in 1..=3 {
                for policy in [&fifo(), &prio] {
                    let plain = simulate_streamed(&dag, policy, &reliable, faults, seed, &NoTrace);
                    let (recorded, _) = traced(&dag, policy, &reliable, faults, seed);
                    assert!(plain.telemetry.is_none());
                    assert!(recorded.telemetry.is_some());
                    let without_telemetry = SimOutcome {
                        telemetry: None,
                        ..recorded
                    };
                    assert_eq!(plain, without_telemetry, "{case} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn injected_faults_retry_and_complete() {
        let dag = chain(12);
        let model = GridModel::paper(0.5, 4.0);
        let faults = FaultConfig {
            model: FaultModel::with_rate(0.4),
            retry: RetryPolicy::dagman(30),
        };
        let (out, trace) = traced(&dag, &fifo(), &model, Some(&faults), 21);
        assert_eq!(out.completed, 12);
        assert_eq!(out.failed_permanent, 0, "30 retries is plenty at p=0.4");
        let failed = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::JobFailed { .. }))
            .count() as u64;
        let retried = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::JobRetried { .. }))
            .count() as u64;
        assert_eq!(out.failed_attempts, failed);
        assert_eq!(failed, retried, "every transient fault re-enters");
        assert!(out.wasted_time > 0.0);
        let outcomes = out.outcomes.as_ref().unwrap();
        assert!(outcomes.iter().all(|o| *o == JobOutcome::Completed));
    }

    #[test]
    fn deterministic_schedule_aborts_and_strands_descendants() {
        // Job 1 always fails; RETRY 1 (two attempts) exhausts, so jobs 2..5
        // become unreachable while the independent job 5 (no ancestor)
        // still completes.
        let dag = Dag::from_arcs(6, &[(0, 1), (1, 2), (2, 3), (2, 4)]).unwrap();
        let model = GridModel::paper(0.5, 4.0);
        let faults = FaultConfig {
            model: FaultModel::none().failing_first(NodeId(1), u32::MAX),
            retry: RetryPolicy::dagman(1),
        };
        let (out, trace) = traced(&dag, &fifo(), &model, Some(&faults), 9);
        assert_eq!(out.completed, 2, "jobs 0 and 5 complete");
        assert_eq!(out.failed_permanent, 1);
        assert_eq!(out.unreachable, 3);
        assert_eq!(
            out.completed + out.failed_permanent + out.unreachable,
            out.num_jobs
        );
        let outcomes = out.outcomes.as_ref().unwrap();
        assert_eq!(outcomes[1], JobOutcome::FailedPermanent);
        for dead in [2, 3, 4] {
            assert_eq!(outcomes[dead], JobOutcome::Unreachable);
        }
        // The stranded jobs were never assigned.
        for e in &trace {
            if let TraceEvent::JobAssigned { job, .. } = e {
                assert!(job.index() < 2 || job.index() == 5, "dead job assigned");
            }
        }
        // Exactly two attempts of job 1: both failed, one retry between.
        let fails = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::JobFailed { job, .. } if job.index() == 1))
            .count();
        assert_eq!(fails, 2);
    }

    #[test]
    fn backoff_delays_reentry() {
        let dag = chain(2);
        let model = GridModel::paper(0.5, 4.0);
        let faults = FaultConfig {
            model: FaultModel::none().failing_first(NodeId(0), 1),
            retry: RetryPolicy {
                max_attempts: 3,
                backoff: Backoff::Fixed(5.0),
            },
        };
        let (out, trace) = traced(&dag, &fifo(), &model, Some(&faults), 3);
        let fail_t = trace
            .iter()
            .find_map(|e| match e {
                TraceEvent::JobFailed { time, .. } => Some(*time),
                _ => None,
            })
            .expect("scheduled fault fires");
        let retry = trace
            .iter()
            .find_map(|e| match e {
                TraceEvent::JobRetried {
                    time,
                    attempt,
                    delay,
                    ..
                } => Some((*time, *attempt, *delay)),
                _ => None,
            })
            .expect("job retries");
        assert!(
            (retry.0 - (fail_t + 5.0)).abs() < 1e-9,
            "re-entry at fail + backoff: {} vs {}",
            retry.0,
            fail_t + 5.0
        );
        assert_eq!(retry.1, 2, "second attempt");
        assert_eq!(retry.2, 5.0);
        assert_eq!(out.completed, 2);
    }

    #[test]
    fn pool_churn_emits_updown_pairs_and_recovers() {
        let dag = chain(12);
        let model = GridModel::paper(0.5, 4.0);
        let faults = FaultConfig {
            model: FaultModel::none().with_churn(8.0, 2.0),
            retry: RetryPolicy::dagman(50),
        };
        let (out, trace) = traced(&dag, &fifo(), &model, Some(&faults), 17);
        assert_eq!(out.completed, 12, "churn with generous retries recovers");
        let downs: Vec<f64> = trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::WorkerDown { time, .. } => Some(*time),
                _ => None,
            })
            .collect();
        let ups: Vec<f64> = trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::WorkerUp { time } => Some(*time),
                _ => None,
            })
            .collect();
        // Downs and ups alternate starting with a down; the final down may
        // be unmatched if the run ends during an outage.
        assert!(ups.len() <= downs.len());
        assert!(downs.len() >= ups.len());
        for (d, u) in downs.iter().zip(&ups) {
            assert!(d < u, "down {d} precedes its up {u}");
        }
        // Assignments never happen while the pool is down.
        let mut up = true;
        let mut down_since = 0.0;
        for e in &trace {
            match e {
                TraceEvent::WorkerDown { time, .. } => {
                    up = false;
                    down_since = *time;
                }
                TraceEvent::WorkerUp { .. } => up = true,
                TraceEvent::JobAssigned { time, .. } => {
                    assert!(up, "assignment at {time} during outage since {down_since}");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn empty_dag_is_trivial() {
        let dag = prio_graph::DagBuilder::new().build().unwrap();
        let out = simulate(&dag, &fifo(), &GridModel::paper(1.0, 1.0), 1);
        assert_eq!(out.makespan, 0.0);
        assert_eq!(out.batches_observed, 0);
        let m = out.metrics();
        assert_eq!(m.stall_probability, 0.0);
        assert_eq!(m.utilization, 0.0);
    }

    #[test]
    fn traced_runs_collect_consistent_telemetry() {
        let dag = Dag::from_arcs(6, &[(0, 2), (1, 2), (2, 3), (2, 4), (4, 5)]).unwrap();
        let model = GridModel::paper(0.3, 2.0);
        let (out, _) = traced(&dag, &oblivious(&dag), &model, None, 3);
        let telem = out.telemetry.as_ref().expect("traced runs carry telemetry");
        // One wait sample per assignment, one service sample per
        // completion (reliable model: both equal the job count).
        assert_eq!(telem.job_wait.count(), 6);
        assert_eq!(telem.job_service.count(), 6);
        // Every processed event sampled each series.
        let d = telem.eligible_pool.digest();
        assert!(d.pushed > 0);
        assert!(d.peak >= 1.0, "some job was eligible at some point");
        assert!(d.peak <= 6.0, "pool cannot exceed the dag");
        // The run ends with everything completed: empty pool and queue.
        assert_eq!(d.last_v, 0.0);
        assert_eq!(telem.ready_queue.digest().last_v, 0.0);
        // Utilization stays a ratio in [0, 1] under reliable workers.
        let u = telem.utilization.digest();
        assert!(u.peak <= 1.0 && u.mean >= 0.0, "{u:?}");
        // Discard model never parks workers.
        assert_eq!(telem.idle_workers.digest().peak, 0.0);
        // Reliable runs record no fault telemetry.
        assert_eq!(telem.job_attempts.count(), 0);
        assert_eq!(telem.wasted_work.count(), 0);
        // Untraced runs carry none.
        assert!(simulate(&dag, &oblivious(&dag), &model, 3)
            .telemetry
            .is_none());
    }

    #[test]
    fn telemetry_is_deterministic_per_seed() {
        let dag = chain(15);
        let model = GridModel::paper(0.5, 4.0);
        let faults = unlimited_faults(0.2);
        let a = traced(&dag, &fifo(), &model, Some(&faults), 17);
        let b = traced(&dag, &fifo(), &model, Some(&faults), 17);
        assert_eq!(a, b, "telemetry must be a pure function of the seed");
        // With failures, waits outnumber services by the retry count.
        let (out, trace) = a;
        let telem = out.telemetry.unwrap();
        let failures = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::JobFailed { .. }))
            .count() as u64;
        assert_eq!(telem.job_wait.count(), 15 + failures);
        assert_eq!(telem.job_service.count(), 15);
        assert_eq!(telem.wasted_work.count(), failures);
    }

    #[test]
    fn faulty_telemetry_records_attempts_and_waste() {
        let dag = chain(8);
        let model = GridModel::paper(0.5, 4.0);
        let faults = FaultConfig {
            model: FaultModel::with_rate(0.35),
            retry: RetryPolicy::dagman(20),
        };
        let (out, _) = traced(&dag, &fifo(), &model, Some(&faults), 11);
        let telem = out.telemetry.as_ref().unwrap();
        assert_eq!(
            telem.job_attempts.count(),
            8,
            "one attempts sample per resolved job"
        );
        assert_eq!(telem.wasted_work.count(), out.failed_attempts);
        assert!(telem.job_attempts.summary().max >= 1);
    }

    #[test]
    fn oblivious_respects_priority_order_within_batches() {
        // Two independent jobs; schedule says job 1 first; a batch of size
        // 1 must assign job 1.
        let dag = Dag::from_arcs(2, &[]).unwrap();
        let sched = Schedule::new(&dag, vec![NodeId(1), NodeId(0)]).unwrap();
        let model = GridModel {
            mean_batch_size: 1.0,
            ..GridModel::paper(5.0, 1.0)
        };
        let (_, trace) = traced(&dag, &PolicySpec::Oblivious(sched), &model, None, 2);
        let first_assigned = trace
            .iter()
            .find_map(|e| match e {
                TraceEvent::JobAssigned { job, .. } => Some(*job),
                _ => None,
            })
            .unwrap();
        assert_eq!(first_assigned, NodeId(1));
    }

    #[test]
    fn event_key_orders_like_total_cmp_then_ev() {
        let times = [
            f64::NEG_INFINITY,
            -2.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        let events = [
            Ev::Completion(NodeId(0), 0),
            Ev::Completion(NodeId(0), u32::MAX),
            Ev::Completion(NodeId(7), 0),
            Ev::Completion(NodeId(7), u32::MAX),
            Ev::Completion(NodeId(u32::MAX), u32::MAX),
            Ev::Release(NodeId(0)),
            Ev::Release(NodeId(7)),
            Ev::Release(NodeId(u32::MAX)),
            Ev::PoolDown,
            Ev::PoolUp,
        ];
        let pairs: Vec<(f64, Ev)> = times
            .iter()
            .flat_map(|&t| events.iter().map(move |&e| (t, e)))
            .collect();
        for &(t1, e1) in &pairs {
            let k1 = EventKey::new(t1, e1);
            assert_eq!(k1.time().to_bits(), t1.to_bits(), "time round-trips");
            assert_eq!(k1.event(), e1, "event round-trips");
            for &(t2, e2) in &pairs {
                let expected = t1.total_cmp(&t2).then(e1.cmp(&e2));
                assert_eq!(
                    k1.cmp(&EventKey::new(t2, e2)),
                    expected,
                    "({t1:?}, {e1:?}) vs ({t2:?}, {e2:?})"
                );
            }
        }
    }
}
