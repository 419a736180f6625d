//! The PRIO pipeline replayed stage by stage through each stage's public
//! function, inside the tracer's spans: the breakdown of
//! `Prioritizer::prioritize` into reduce, decompose, schedule, combine and
//! emit.
//!
//! The replay mirrors `prio_core::prio::Prioritizer::prioritize_in` call for
//! call, with one gap: Step 3's parallel fan-out over components is private
//! to `prio-core`, so `schedule` runs serially here. Whatever that costs or
//! saves lands in the workload's `unaccounted_ms`.

use crate::tracer::Tracer;
use prio_core::combine::{combine, CombineEngine};
use prio_core::component::ScheduleSource;
use prio_core::component_schedule::schedule_part;
use prio_core::decompose::{decompose_in, DecomposeOptions};
use prio_core::prio::PARALLEL_WORK_THRESHOLD;
use prio_graph::reduction::{remove_arcs, shortcut_arcs_par_into};
use prio_graph::topo::linear_extension_violation;
use prio_graph::{Dag, GraphScratch, NodeId, ScratchArena};

/// What one replayed pipeline run produced.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The PRIO schedule.
    pub order: Vec<NodeId>,
    /// Detach iterations that needed the general minimal-`C(s)` search.
    pub general_searches: usize,
    /// Components scheduled from the recognized-family catalog.
    pub catalog: usize,
    /// Components with at least one non-sink to schedule.
    pub nontrivial: usize,
}

/// Runs the pipeline on `dag` as `Prioritizer` does with `threads`
/// worker threads, one span per stage, all tagged with operation `op`.
pub fn prioritize(
    dag: &Dag,
    threads: usize,
    tracer: &mut Tracer,
    op: usize,
) -> Result<Replayed, String> {
    let mut shortcuts = Vec::new();
    let reduced_storage;
    let reduced = tracer.time("reduce", op, || {
        let reduce_threads = if dag.num_nodes() + dag.num_arcs() >= PARALLEL_WORK_THRESHOLD {
            threads
        } else {
            0
        };
        shortcut_arcs_par_into(
            dag,
            &mut GraphScratch::default(),
            reduce_threads,
            &mut shortcuts,
        );
        if shortcuts.is_empty() {
            None
        } else {
            Some(remove_arcs(dag, &shortcuts))
        }
    });
    let reduced: &Dag = match reduced {
        Some(r) => {
            reduced_storage = r;
            &reduced_storage
        }
        None => dag,
    };

    let decomposition = tracer.time("decompose", op, || {
        decompose_in(
            reduced,
            DecomposeOptions::default(),
            threads,
            &mut ScratchArena::new(),
        )
    });

    let scheduled: Vec<_> = tracer.time("schedule", op, || {
        decomposition
            .parts
            .iter()
            .map(|part| schedule_part(reduced, part, 0))
            .collect()
    });

    let component_order = tracer.time("combine", op, || {
        let profiles: Vec<&[usize]> = scheduled.iter().map(|(_, _, p)| p.as_slice()).collect();
        combine(&decomposition.superdag, &profiles, CombineEngine::default())
    });

    let order = tracer.time("emit", op, || {
        let mut order: Vec<NodeId> = Vec::with_capacity(dag.num_nodes());
        for &ci in &component_order {
            order.extend_from_slice(&scheduled[ci].0);
        }
        order.extend(dag.sinks());
        match linear_extension_violation(dag, &order) {
            None => Ok(order),
            Some(v) => Err(format!("replayed order is not a linear extension: {v}")),
        }
    })?;

    let catalog = scheduled
        .iter()
        .filter(|(_, source, _)| matches!(source, ScheduleSource::Catalog(_)))
        .count();
    let nontrivial = scheduled
        .iter()
        .filter(|(_, source, _)| !matches!(source, ScheduleSource::Trivial))
        .count();
    Ok(Replayed {
        order,
        general_searches: decomposition.general_search_iterations,
        catalog,
        nontrivial,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_core::{PrioOptions, Prioritizer};

    #[test]
    fn replay_matches_prioritize_on_every_paper_family() {
        for w in prio_workloads::spec::scaled_suite(0.05) {
            let dag = w.dag();
            for threads in [0, 2] {
                let mut t = Tracer::new();
                let op = t.op(w.name);
                let replayed = prioritize(dag, threads, &mut t, op).unwrap();
                let direct = Prioritizer::with_options(PrioOptions {
                    threads,
                    ..PrioOptions::default()
                })
                .prioritize(dag)
                .unwrap();
                assert_eq!(replayed.order, direct.schedule.order(), "{}", w.name);
                assert_eq!(
                    replayed.general_searches,
                    direct.stats.general_search_iterations
                );
                assert_eq!(t.spans().len(), 5);
            }
        }
    }
}
