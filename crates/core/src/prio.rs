//! The top-level PRIO scheduler — the heuristic of §3.1, end to end.
//!
//! ```text
//! G  --shortcut removal-->  G'  --decompose-->  components + superdag
//!    --recurse-->  per-component schedules + eligibility profiles
//!    --combine-->  greedy component order
//!    --emit-->     non-sinks component by component, then all sinks of G
//! ```
//!
//! The result is a total order of all jobs (a linear extension of `G`)
//! whose Condor-style priorities the `prio` tool writes back into the
//! DAGMan input file.

use crate::combine::{combine, CombineEngine};
use crate::component::{Component, ScheduleSource};
use crate::component_schedule::schedule_part;
use crate::context::PrioContext;
use crate::decompose::{decompose_in, DecomposeOptions, Decomposition, Part};
use crate::error::{PrioError, Stage};
use crate::schedule::Schedule;
use prio_graph::reduction::{remove_arcs, shortcut_arcs_par_into};
use prio_graph::topo::{linear_extension_violation, ExtensionViolation};
use prio_graph::{Dag, NodeId};
use prio_ir::{Priorities, Workflow};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Options for the PRIO pipeline. The defaults reproduce the paper's tool;
/// the alternative settings exist for the §3.5 engineering ablations.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrioOptions {
    /// Decomposition options (bipartite fast path on by default).
    pub decompose: DecomposeOptions,
    /// Combine engine (class-cached by default).
    pub engine: CombineEngine,
    /// Extension beyond the paper: for unrecognized bipartite blocks with
    /// at most this many sources, search exhaustively for an IC-optimal
    /// order before falling back to the out-degree heuristic. 0 (the
    /// default) reproduces the paper's tool exactly.
    pub optimal_search_limit: usize,
    /// Worker threads for the per-component scheduling stage. `0` (the
    /// default) and `1` run serially, as the paper's tool does; `n > 1`
    /// schedules independent components across up to `n` scoped threads.
    /// Results are placed by component index, so every thread count
    /// produces bit-identical schedules and statistics.
    ///
    /// Requesting threads is adaptive, not unconditional: small dags fall
    /// back to the serial path below [`PARALLEL_WORK_THRESHOLD`].
    pub threads: usize,
}

/// Minimum Step 3 work (Σ over components of local nodes + arcs) before a
/// `threads > 1` request actually spawns the scoped thread pool.
///
/// Measured on Montage-like dags from ~170 to ~31k jobs (best of 9, 4
/// threads vs serial): the pool's spawn/channel overhead makes parallel
/// scheduling 1.2–2.3× *slower* below ~14k work, break-even lands between
/// ~14k and ~24k (the paper-scale 7,881-job Montage, work ≈ 23.6k, is the
/// first instance that no longer loses), and gains stay modest beyond.
/// 20,000 puts everything clearly below break-even on the serial path.
pub const PARALLEL_WORK_THRESHOLD: usize = 20_000;

/// Statistics collected along the pipeline (reported by the CLI and used by
/// the overhead experiments).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrioStats {
    /// Number of shortcut arcs removed in Step 1.
    pub shortcuts_removed: usize,
    /// Number of components produced by the decomposition.
    pub num_components: usize,
    /// Components that are bipartite dags.
    pub num_bipartite: usize,
    /// Components scheduled from the catalog, by family name.
    pub recognized: BTreeMap<String, usize>,
    /// Components scheduled by the exhaustive IC-optimal-order search
    /// (only when [`PrioOptions::optimal_search_limit`] is nonzero).
    pub searched: usize,
    /// Components scheduled by the out-degree fallback.
    pub heuristic_scheduled: usize,
    /// Single-job components (nothing to schedule before the sinks).
    pub trivial: usize,
    /// Detach iterations that needed the general minimal-`C(s)` search.
    pub general_search_iterations: usize,
}

/// The output of the PRIO pipeline.
#[derive(Debug, Clone)]
pub struct PrioResult {
    /// The PRIO schedule — a linear extension of the input dag.
    pub schedule: Schedule,
    /// The components, in detach order, with their local schedules and
    /// eligibility profiles.
    pub components: Vec<Component>,
    /// The superdag over the components.
    pub superdag: Dag,
    /// The greedy execution order of component indices.
    pub component_order: Vec<usize>,
    /// Pipeline statistics.
    pub stats: PrioStats,
}

impl PrioResult {
    /// The schedule as IR priorities (Condor convention: the job executed
    /// first gets priority `n`, the last gets 1), ready for any
    /// frontend's `export`.
    pub fn priorities(&self) -> Priorities {
        Priorities::from_order(self.schedule.order(), self.schedule.len())
    }
}

/// The PRIO scheduler with configurable engineering options.
#[derive(Debug, Clone, Copy, Default)]
pub struct Prioritizer {
    opts: PrioOptions,
}

impl Prioritizer {
    /// A prioritizer with the default (fully engineered) options.
    pub fn new() -> Self {
        Self::default()
    }

    /// A prioritizer with explicit options.
    pub fn with_options(opts: PrioOptions) -> Self {
        Prioritizer { opts }
    }

    /// Runs the full pipeline on `dag` with fresh scratch state.
    pub fn prioritize(&self, dag: &Dag) -> Result<PrioResult, PrioError> {
        self.prioritize_in(dag, &mut PrioContext::new())
    }

    /// Runs the full pipeline on `dag`, reusing the scratch buffers in
    /// `ctx`. Equivalent to [`Prioritizer::prioritize`] — same result for
    /// any context state — but amortizes working-memory allocations across
    /// calls, which matters when prioritizing many dags in a row.
    pub fn prioritize_in(&self, dag: &Dag, ctx: &mut PrioContext) -> Result<PrioResult, PrioError> {
        // Step 1: shortcut removal. Node ids are preserved, so schedules on
        // the reduced dag are schedules on the original. When there is
        // nothing to remove, the input dag is used as-is (no clone).
        // Sharded across threads only when the dag clears the adaptive
        // threshold; either way the result is bit-identical to serial.
        let reduce_threads = if dag.num_nodes() + dag.num_arcs() >= PARALLEL_WORK_THRESHOLD {
            self.opts.threads
        } else {
            0
        };
        shortcut_arcs_par_into(dag, &mut ctx.graph, reduce_threads, &mut ctx.shortcuts);
        prio_obs::counter("graph.reduce.shortcut_arcs_removed").add(ctx.shortcuts.len() as u64);
        let reduced_storage;
        let reduced: &Dag = if ctx.shortcuts.is_empty() {
            dag
        } else {
            reduced_storage = remove_arcs(dag, &ctx.shortcuts);
            &reduced_storage
        };

        // Step 2: decomposition.
        let Decomposition {
            parts,
            superdag,
            general_search_iterations,
            ..
        } = decompose_in(
            reduced,
            self.opts.decompose,
            self.opts.threads,
            &mut ctx.arena,
        );

        // Step 3: per-component schedules and profiles (serial or across a
        // scoped thread pool — bit-identical either way).
        let mut stats = PrioStats {
            shortcuts_removed: ctx.shortcuts.len(),
            num_components: parts.len(),
            general_search_iterations,
            ..PrioStats::default()
        };
        let components = self.schedule_components(reduced, parts, &mut stats);

        // Steps 4–6: greedy combine over the superdag, borrowing the
        // components' profiles.
        let profiles: Vec<&[usize]> = components.iter().map(|c| c.profile.as_slice()).collect();
        let component_order = combine(&superdag, &profiles, self.opts.engine);

        // Emit: non-sinks per component in greedy order, then every sink of
        // G in index order (the paper executes sinks "in arbitrary order";
        // index order matches the Fig. 3 output and is deterministic).
        let emit_span = prio_obs::span(prio_obs::stage::EMIT);
        let mut order: Vec<NodeId> = Vec::with_capacity(dag.num_nodes());
        for &ci in &component_order {
            order.extend_from_slice(&components[ci].nonsink_schedule);
        }
        order.extend(dag.sinks());
        let schedule = emit_schedule(dag, order)?;
        drop(emit_span);

        Ok(PrioResult {
            schedule,
            components,
            superdag,
            component_order,
            stats,
        })
    }

    /// Prioritizes a batch of dags, reusing one scratch context across the
    /// whole batch. Returns one result per input dag, in order; a failure
    /// on one dag does not affect the others.
    pub fn prioritize_many<'a, I>(&self, dags: I) -> Vec<Result<PrioResult, PrioError>>
    where
        I: IntoIterator<Item = &'a Dag>,
    {
        let mut ctx = PrioContext::new();
        dags.into_iter()
            .map(|dag| self.prioritize_in(dag, &mut ctx))
            .collect()
    }

    /// Runs the full pipeline on a workflow IR (any frontend's import).
    /// Identical to [`Prioritizer::prioritize`] on the workflow's dag.
    pub fn prioritize_workflow(&self, workflow: &Workflow) -> Result<PrioResult, PrioError> {
        self.prioritize(workflow.dag())
    }

    /// [`Prioritizer::prioritize_workflow`] with a reused scratch context.
    pub fn prioritize_workflow_in(
        &self,
        workflow: &Workflow,
        ctx: &mut PrioContext,
    ) -> Result<PrioResult, PrioError> {
        self.prioritize_in(workflow.dag(), ctx)
    }

    /// Prioritizes a batch of workflows with one shared scratch context
    /// (the IR-level [`Prioritizer::prioritize_many`]).
    pub fn prioritize_workflows<'a, I>(&self, workflows: I) -> Vec<Result<PrioResult, PrioError>>
    where
        I: IntoIterator<Item = &'a Workflow>,
    {
        self.prioritize_many(workflows.into_iter().map(Workflow::dag))
    }

    /// Step 3: schedules every component of `reduced` and tallies the
    /// per-source statistics. With `opts.threads > 1` the independent
    /// components are scheduled across scoped worker threads; results are
    /// placed by component index, so the output is identical to the serial
    /// path for every thread count.
    fn schedule_components(
        &self,
        reduced: &Dag,
        parts: Vec<Part>,
        stats: &mut PrioStats,
    ) -> Vec<Component> {
        let _span = prio_obs::span(prio_obs::stage::SCHEDULE);
        let limit = self.opts.optimal_search_limit;
        let mut workers = self.opts.threads.min(parts.len());
        if workers > 1 {
            // Adaptive fallback: below the measured crossover the scoped
            // thread pool costs more than it saves, so run the serial path
            // (which is bit-identical) and record the decision.
            let work: usize = parts
                .iter()
                .map(|p| p.local.num_nodes() + p.local.num_arcs())
                .sum();
            if work < PARALLEL_WORK_THRESHOLD {
                workers = 1;
                prio_obs::counter("core.schedule.serial_fallback_dags").add(1);
                prio_obs::counter("core.schedule.serial_fallback_components")
                    .add(parts.len() as u64);
            } else {
                prio_obs::counter("core.schedule.parallel_dags").add(1);
                prio_obs::counter("core.schedule.parallel_components").add(parts.len() as u64);
            }
        }
        let results: Vec<ScheduledPart> = if workers > 1 {
            schedule_parts_parallel(reduced, &parts, limit, workers)
        } else {
            parts
                .iter()
                .map(|part| schedule_part(reduced, part, limit))
                .collect()
        };

        let mut components: Vec<Component> = Vec::with_capacity(parts.len());
        for (i, (part, (order, source, profile))) in parts.into_iter().zip(results).enumerate() {
            if part.bipartite {
                stats.num_bipartite += 1;
            }
            match &source {
                ScheduleSource::Catalog(f) => {
                    *stats.recognized.entry(f.name()).or_insert(0) += 1;
                }
                ScheduleSource::Searched => stats.searched += 1,
                ScheduleSource::OutDegreeHeuristic => stats.heuristic_scheduled += 1,
                ScheduleSource::Trivial => stats.trivial += 1,
            }
            components.push(part.into_component(i, order, source, profile));
        }
        components
    }
}

/// One scheduled component before it is wrapped into a [`Component`]:
/// the order over original node ids, how it was obtained, and its
/// eligibility profile.
type ScheduledPart = (Vec<NodeId>, ScheduleSource, Vec<usize>);

/// Schedules `parts` across `workers` scoped threads pulling component
/// indices from a shared channel. Each result is placed back at its
/// component's index, so the returned vector is independent of thread
/// count, scheduling order and channel timing.
fn schedule_parts_parallel(
    reduced: &Dag,
    parts: &[Part],
    limit: usize,
    workers: usize,
) -> Vec<ScheduledPart> {
    let n = parts.len();
    let (tx, rx) = crossbeam::channel::unbounded::<usize>();
    for i in 0..n {
        let _ = tx.send(i);
    }
    drop(tx);

    let collected: Mutex<Vec<(usize, ScheduledPart)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let rx = rx.clone();
            let collected = &collected;
            scope.spawn(move || {
                let mut local = Vec::new();
                while let Ok(i) = rx.recv() {
                    local.push((i, schedule_part(reduced, &parts[i], limit)));
                }
                let mut sink = collected
                    .lock()
                    .unwrap_or_else(|poison| poison.into_inner());
                sink.extend(local);
            });
        }
    });

    // Every index was sent exactly once and every worker drained its
    // receipts into `collected`, so each slot is written exactly once.
    // Slots are pre-filled with trivial placeholders rather than unwrapped
    // options; a (impossible) miss would surface as an emit-stage
    // invariant error, not a panic.
    let mut results: Vec<ScheduledPart> =
        std::iter::repeat_with(|| (Vec::new(), ScheduleSource::Trivial, Vec::new()))
            .take(n)
            .collect();
    for (i, result) in collected
        .into_inner()
        .unwrap_or_else(|poison| poison.into_inner())
    {
        results[i] = result;
    }
    results
}

/// Validates the emitted global order and wraps it into a [`Schedule`].
/// A violation is a pipeline bug; it surfaces as
/// [`PrioError::InternalInvariant`] carrying the offending arc instead of
/// aborting the process.
fn emit_schedule(dag: &Dag, order: Vec<NodeId>) -> Result<Schedule, PrioError> {
    match linear_extension_violation(dag, &order) {
        None => Ok(Schedule::from_order_unchecked(order)),
        Some(violation) => {
            let arc = match violation {
                ExtensionViolation::ArcOutOfOrder { parent, child } => Some((parent, child)),
                _ => None,
            };
            Err(PrioError::InternalInvariant {
                stage: Stage::Emit,
                detail: format!("emitted order is not a linear extension: {violation}"),
                arc,
            })
        }
    }
}

/// Convenience: run the PRIO pipeline with default options.
pub fn prioritize(dag: &Dag) -> Result<PrioResult, PrioError> {
    Prioritizer::new().prioritize(dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eligibility::eligibility_profile;
    use crate::fifo::fifo_schedule;
    use crate::optimal::{is_ic_optimal, DEFAULT_STATE_LIMIT};

    #[test]
    fn fig3_schedule_matches_paper() {
        let dag = Dag::from_arcs(5, &[(0, 1), (2, 3), (2, 4)]).unwrap();
        let res = prioritize(&dag).unwrap();
        let order: Vec<u32> = res.schedule.order().iter().map(|u| u.0).collect();
        assert_eq!(order, vec![2, 0, 1, 3, 4], "PRIO = c, a, b, d, e");
        // Priorities as in Fig. 3: c gets 5.
        let prio = res.schedule.priorities();
        assert_eq!(prio[2], 5);
        assert_eq!(res.stats.num_components, 2);
        assert!(res.stats.shortcuts_removed == 0);
    }

    #[test]
    fn fig3_schedule_is_ic_optimal() {
        let dag = Dag::from_arcs(5, &[(0, 1), (2, 3), (2, 4)]).unwrap();
        let res = prioritize(&dag).unwrap();
        assert_eq!(
            is_ic_optimal(&dag, res.schedule.order(), DEFAULT_STATE_LIMIT),
            Some(true)
        );
    }

    #[test]
    fn catalog_families_schedule_ic_optimally_end_to_end() {
        for fam in crate::families::Family::fig2_catalog() {
            let (dag, _) = fam.instantiate();
            let res = prioritize(&dag).unwrap();
            assert_eq!(
                is_ic_optimal(&dag, res.schedule.order(), DEFAULT_STATE_LIMIT),
                Some(true),
                "PRIO on {} must be IC-optimal",
                fam.name()
            );
        }
    }

    #[test]
    fn series_composition_of_blocks_is_ic_optimal() {
        // Fork then join through shared middles: 0 -> {1,2}, {1,2} -> 3,
        // i.e. the diamond — decomposes into two blocks in series.
        let dag = Dag::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let res = prioritize(&dag).unwrap();
        assert_eq!(
            is_ic_optimal(&dag, res.schedule.order(), DEFAULT_STATE_LIMIT),
            Some(true)
        );
    }

    #[test]
    fn shortcuts_are_removed_and_do_not_change_validity() {
        // Diamond plus the shortcut 0 -> 3.
        let dag = Dag::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]).unwrap();
        let res = prioritize(&dag).unwrap();
        assert_eq!(res.stats.shortcuts_removed, 1);
        assert!(res.schedule.is_valid_for(&dag));
    }

    #[test]
    fn entangled_dag_still_gets_a_valid_schedule() {
        let dag = Dag::from_arcs(6, &[(0, 4), (2, 4), (1, 2), (1, 5), (3, 5), (0, 3)]).unwrap();
        let res = prioritize(&dag).unwrap();
        assert!(res.schedule.is_valid_for(&dag));
        assert_eq!(res.stats.general_search_iterations, 1);
        assert_eq!(res.stats.heuristic_scheduled, 1);
    }

    #[test]
    fn both_engines_and_paths_agree() {
        let dag = Dag::from_arcs(
            7,
            &[
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 4),
                (3, 4),
                (3, 5),
                (4, 6),
                (5, 6),
            ],
        )
        .unwrap();
        let default = prioritize(&dag).unwrap();
        let naive = Prioritizer::with_options(PrioOptions {
            decompose: DecomposeOptions { fast_path: false },
            engine: CombineEngine::Naive,
            optimal_search_limit: 0,
            threads: 0,
        })
        .prioritize(&dag)
        .unwrap();
        assert_eq!(default.schedule, naive.schedule);
    }

    #[test]
    fn prio_never_below_fifo_on_block_compositions() {
        let dag = Dag::from_arcs(
            9,
            &[
                (0, 3),
                (0, 4),
                (1, 4),
                (1, 5),
                (2, 5),
                (3, 6),
                (4, 6),
                (5, 7),
                (5, 8),
            ],
        )
        .unwrap();
        let prio = prioritize(&dag).unwrap().schedule;
        let fifo = fifo_schedule(&dag);
        let ep = eligibility_profile(&dag, prio.order());
        let ef = eligibility_profile(&dag, fifo.order());
        let total_p: usize = ep.iter().sum();
        let total_f: usize = ef.iter().sum();
        assert!(
            total_p >= total_f,
            "PRIO cumulative eligibility {total_p} below FIFO {total_f}"
        );
    }

    #[test]
    fn stats_count_recognized_families() {
        let (dag, _) = crate::families::w_dag(3, 2);
        let res = prioritize(&dag).unwrap();
        assert_eq!(res.stats.recognized.get("(3,2)-W"), Some(&1));
        assert_eq!(res.stats.num_bipartite, 1);
    }

    #[test]
    fn optimal_search_extension_beats_the_out_degree_heuristic() {
        // An irregular bipartite block where out-degree order is NOT
        // IC-optimal: 0->5, 1->{4,5}, 2->4, 3->5. The heuristic starts
        // with job 1 (degree 2) covering nothing; the searched order
        // starts {1,2} covering sink 4.
        let dag = Dag::from_arcs(6, &[(0, 5), (1, 4), (1, 5), (2, 4), (3, 5)]).unwrap();
        let paper = prioritize(&dag).unwrap();
        assert_eq!(paper.stats.heuristic_scheduled, 1);
        assert_eq!(
            is_ic_optimal(&dag, paper.schedule.order(), DEFAULT_STATE_LIMIT),
            Some(false),
            "the paper's heuristic is suboptimal here"
        );
        let searched = Prioritizer::with_options(PrioOptions {
            optimal_search_limit: 16,
            ..PrioOptions::default()
        })
        .prioritize(&dag)
        .unwrap();
        assert_eq!(searched.stats.searched, 1);
        assert_eq!(searched.stats.heuristic_scheduled, 0);
        assert_eq!(
            is_ic_optimal(&dag, searched.schedule.order(), DEFAULT_STATE_LIMIT),
            Some(true),
            "the search extension restores IC-optimality"
        );
    }

    #[test]
    fn empty_and_singleton_dags() {
        let empty = prio_graph::DagBuilder::new().build().unwrap();
        let res = prioritize(&empty).unwrap();
        assert!(res.schedule.is_empty());
        let single = Dag::from_arcs(1, &[]).unwrap();
        let res = prioritize(&single).unwrap();
        assert_eq!(res.schedule.order(), &[NodeId(0)]);
        assert_eq!(res.stats.trivial, 1);
    }

    fn sample_dags() -> Vec<Dag> {
        vec![
            Dag::from_arcs(5, &[(0, 1), (2, 3), (2, 4)]).unwrap(),
            Dag::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]).unwrap(),
            Dag::from_arcs(6, &[(0, 4), (2, 4), (1, 2), (1, 5), (3, 5), (0, 3)]).unwrap(),
            Dag::from_arcs(1, &[]).unwrap(),
            Dag::from_arcs(9, &[(0, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 8)]).unwrap(),
        ]
    }

    #[test]
    fn context_reuse_matches_fresh_runs() {
        let p = Prioritizer::new();
        let mut ctx = PrioContext::new();
        // Deliberately interleave dag sizes so stale scratch from a larger
        // dag is live when a smaller one is prioritized.
        for dag in sample_dags().iter().chain(sample_dags().iter().rev()) {
            let reused = p.prioritize_in(dag, &mut ctx).unwrap();
            let fresh = p.prioritize(dag).unwrap();
            assert_eq!(reused.schedule, fresh.schedule);
            assert_eq!(reused.stats, fresh.stats);
            assert_eq!(reused.component_order, fresh.component_order);
        }
    }

    #[test]
    fn prioritize_many_matches_individual_calls() {
        let dags = sample_dags();
        let p = Prioritizer::new();
        let batch = p.prioritize_many(&dags);
        assert_eq!(batch.len(), dags.len());
        for (dag, res) in dags.iter().zip(batch) {
            let single = p.prioritize(dag).unwrap();
            let res = res.unwrap();
            assert_eq!(res.schedule, single.schedule);
            assert_eq!(res.stats, single.stats);
        }
    }

    /// Enough diamond components that Σ (nodes + arcs) clears
    /// [`PARALLEL_WORK_THRESHOLD`], so `threads > 1` really runs the pool.
    fn above_threshold_dag() -> Dag {
        let diamonds = PARALLEL_WORK_THRESHOLD / 8 + 1;
        let mut arcs = Vec::with_capacity(diamonds * 4);
        for d in 0..diamonds as u32 {
            let b = 4 * d;
            arcs.extend_from_slice(&[(b, b + 1), (b, b + 2), (b + 1, b + 3), (b + 2, b + 3)]);
        }
        Dag::from_arcs(4 * diamonds, &arcs).unwrap()
    }

    #[test]
    fn threaded_scheduling_is_bit_identical_to_serial() {
        // The small sample dags all take the adaptive serial fallback; the
        // diamond swarm is above the work threshold and exercises the
        // scoped thread pool itself.
        let mut dags = sample_dags();
        dags.push(above_threshold_dag());
        for dag in dags {
            let serial = Prioritizer::with_options(PrioOptions {
                threads: 1,
                ..PrioOptions::default()
            })
            .prioritize(&dag)
            .unwrap();
            for threads in [2, 4, 7] {
                let parallel = Prioritizer::with_options(PrioOptions {
                    threads,
                    ..PrioOptions::default()
                })
                .prioritize(&dag)
                .unwrap();
                assert_eq!(parallel.schedule, serial.schedule, "threads={threads}");
                assert_eq!(parallel.stats, serial.stats, "threads={threads}");
                assert_eq!(parallel.component_order, serial.component_order);
            }
        }
    }

    #[test]
    fn adaptive_threshold_counters_record_the_decision() {
        let p = Prioritizer::with_options(PrioOptions {
            threads: 4,
            ..PrioOptions::default()
        });
        // Counters are process-global and other tests may also bump them,
        // so assert on deltas with `>=`.
        let fallback = prio_obs::counter("core.schedule.serial_fallback_dags").get();
        let small = Dag::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        p.prioritize(&small).unwrap();
        assert!(
            prio_obs::counter("core.schedule.serial_fallback_dags").get() > fallback,
            "a 4-node dag must fall back to serial scheduling"
        );

        let parallel = prio_obs::counter("core.schedule.parallel_dags").get();
        let components = prio_obs::counter("core.schedule.parallel_components").get();
        p.prioritize(&above_threshold_dag()).unwrap();
        assert!(
            prio_obs::counter("core.schedule.parallel_dags").get() > parallel,
            "an above-threshold dag must schedule on the pool"
        );
        assert!(prio_obs::counter("core.schedule.parallel_components").get() > components);

        // Serial requests are not a fallback and must not be counted.
        let fallback = prio_obs::counter("core.schedule.serial_fallback_dags").get();
        Prioritizer::new().prioritize(&small).unwrap();
        assert_eq!(
            prio_obs::counter("core.schedule.serial_fallback_dags").get(),
            fallback
        );
    }

    #[test]
    fn emit_invariant_violation_is_an_error_not_a_panic() {
        // Regression for the old `expect` on Schedule::new: an order that
        // breaks an arc must surface as a structured emit-stage error
        // naming the offending arc.
        let dag = Dag::from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
        let err = emit_schedule(&dag, vec![NodeId(1), NodeId(0), NodeId(2)]).unwrap_err();
        assert!(err.is_internal());
        assert_eq!(err.stage(), crate::error::Stage::Emit);
        match &err {
            PrioError::InternalInvariant { arc, .. } => {
                assert_eq!(*arc, Some((NodeId(0), NodeId(1))));
            }
            other => panic!("expected InternalInvariant, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.starts_with("emit:"), "stage prefix missing: {msg}");
        assert!(msg.contains("0 -> 1"), "offending arc missing: {msg}");

        // A wrong-length order is also an error (no localized arc).
        let err = emit_schedule(&dag, vec![NodeId(0)]).unwrap_err();
        assert!(err.is_internal());
        assert!(err.to_string().contains("emit:"));
    }
}
