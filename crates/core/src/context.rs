//! [`PrioContext`]: reusable scratch state for repeated pipeline runs.
//!
//! One-shot prioritization allocates its working memory — visited stamps,
//! topological worklists, reachability bitsets, the shortcut-arc buffer —
//! afresh every call. Callers that prioritize many dags in a row (the
//! `prio batch` subcommand, the simulator's sweeps, the benchmark harness)
//! can instead hold a `PrioContext` and pass it to
//! [`crate::Prioritizer::prioritize_in`]: buffers grow to the largest dag
//! seen and are then reused, so steady-state runs allocate only for the
//! result itself.
//!
//! The context is deliberately *not* shared between threads: it is cheap
//! (one per serve worker) and keeping it thread-local keeps the pipeline
//! free of synchronization. Reuse never changes results — the property
//! tests cross-check context-reuse runs against fresh runs.

use crate::combine::CombineScratch;
use crate::component_schedule::ScheduleScratch;
use crate::decompose::Parts;
use prio_graph::{GraphScratch, NodeId, ScratchArena};

/// Reusable scratch buffers for the PRIO pipeline.
///
/// Functionally equivalent to allocating fresh state per run; exists purely
/// to amortize allocations across [`crate::Prioritizer::prioritize_in`]
/// calls. Steps 2–4 keep their per-component working memory in flat
/// buffers here, so once the context has seen a dag, decomposing,
/// scheduling and combining it again allocates a small constant number
/// of times, however many components it has. Their output, the
/// [`crate::component::Components`], is sized once per run and moves
/// into the result.
#[derive(Debug, Default)]
pub struct PrioContext {
    /// Graph-layer scratch: timestamped visited marks, Kahn worklists,
    /// rank buffers and the shared reachability bitset.
    pub(crate) graph: GraphScratch,
    /// Shortcut arcs found by the reduce stage (cleared and refilled each
    /// run).
    pub(crate) shortcuts: Vec<(NodeId, NodeId)>,
    /// Pool of recycled worklist buffers for the decomposition's peel loop
    /// and superdag build. See [`prio_graph::ScratchArena`].
    pub(crate) arena: ScratchArena,
    /// Step 2's output: every part's nodes, removed set and local
    /// adjacency, back to back.
    pub(crate) parts: Parts,
    /// Step 2's removed-in-part map.
    pub(crate) comp_removed: Vec<u32>,
    /// The Step 3 kernel's working memory.
    pub(crate) kernel: ScheduleScratch,
    /// The class engine's tables for Steps 4–6.
    pub(crate) combine: CombineScratch,
}

impl PrioContext {
    /// An empty context; buffers grow on first use.
    pub fn new() -> PrioContext {
        PrioContext::default()
    }
}
