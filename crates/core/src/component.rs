//! Components produced by the Divide phase, as scheduled by the Recurse
//! phase.
//!
//! Detaching a component `C` from the remnant of `G'` removes all of `C`'s
//! *non-sinks* (they are scheduled with the component) and those of `C`'s
//! sinks that are sinks of `G'` (they are scheduled at the very end, with
//! all the other sinks of `G`). A sink of `C` that still has children in
//! the remnant survives the detach and reappears as a *source* of a later
//! component — that sharing is what the superdag's arcs record.

use crate::decompose::{bound, range, Part};
use prio_graph::NodeId;

/// How a component's non-sink schedule was obtained (Recurse phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleSource {
    /// The component matched a catalog family with an explicit IC-optimal
    /// schedule.
    Catalog(crate::families::Family),
    /// The component is a single job (nothing to schedule before sinks).
    Trivial,
    /// An IC-optimal order found by exhaustive search (extension beyond
    /// the paper, enabled by
    /// [`crate::prio::PrioOptions::optimal_search_limit`]).
    Searched,
    /// Fallback: largest-out-degree-first among locally eligible non-sinks.
    OutDegreeHeuristic,
}

/// One scheduled component, borrowed from [`Components`].
#[derive(Debug, Clone, Copy)]
pub struct Component<'a> {
    /// Index of this component in detach order.
    pub index: usize,
    /// All nodes of the component, as ids of the *original* dag, sorted.
    pub nodes: &'a [NodeId],
    /// Whether the component is a bipartite dag (arcs only source → sink).
    pub bipartite: bool,
    /// The component's non-sinks (original ids) in the order assigned by
    /// the Recurse phase — this is the slice of the global schedule this
    /// component contributes.
    pub nonsink_schedule: &'a [NodeId],
    /// How the schedule was obtained.
    pub schedule_source: ScheduleSource,
    /// The component's local eligibility profile: `E(x)` for
    /// `x = 0 ..= nonsinks`, counting eligible jobs *within the component*
    /// after executing the first `x` scheduled non-sinks.
    pub profile: &'a [usize],
}

impl Component<'_> {
    /// Number of nodes in the component.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the component is empty (never produced by the decomposer).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of non-sinks (= scheduled jobs) of the component.
    pub fn num_nonsinks(&self) -> usize {
        self.nonsink_schedule.len()
    }
}

/// Every component's Recurse-phase result, stored flat: node lists,
/// non-sink schedules and profiles each live back to back in one array,
/// addressed by per-component offsets, so filling it for thousands of
/// components costs a fixed number of allocations, none per component.
#[derive(Debug, Clone, Default)]
pub struct Components {
    nodes: Vec<NodeId>,
    node_bounds: Vec<u32>,
    orders: Vec<NodeId>,
    order_bounds: Vec<u32>,
    profiles: Vec<usize>,
    profile_bounds: Vec<u32>,
    sources: Vec<ScheduleSource>,
    bipartite: Vec<bool>,
}

impl Components {
    /// Empty arrays for `parts` components with `nodes` node slots in all
    /// and `nonsinks` scheduled jobs in all, each allocated once at its
    /// final size.
    pub(crate) fn with_capacity(parts: usize, nodes: usize, nonsinks: usize) -> Components {
        let bounds = || {
            let mut bounds = Vec::with_capacity(parts + 1);
            bounds.push(0);
            bounds
        };
        Components {
            nodes: Vec::with_capacity(nodes),
            node_bounds: bounds(),
            orders: Vec::with_capacity(nonsinks),
            order_bounds: bounds(),
            // One entry per scheduled job plus E(0) per component.
            profiles: Vec::with_capacity(nonsinks + parts),
            profile_bounds: bounds(),
            sources: Vec::with_capacity(parts),
            bipartite: Vec::with_capacity(parts),
        }
    }

    /// The buffers the next component's schedule (global ids) and profile
    /// are appended to; [`Components::seal`] closes the component.
    pub(crate) fn open(&mut self) -> (&mut Vec<NodeId>, &mut Vec<usize>) {
        (&mut self.orders, &mut self.profiles)
    }

    /// Closes the component scheduled from `part` since the last seal.
    pub(crate) fn seal(&mut self, part: Part<'_>, source: ScheduleSource) {
        self.nodes.extend_from_slice(part.nodes);
        self.node_bounds.push(bound(self.nodes.len()));
        self.order_bounds.push(bound(self.orders.len()));
        self.profile_bounds.push(bound(self.profiles.len()));
        self.sources.push(source);
        self.bipartite.push(part.bipartite);
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether there are no components.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Component `i`.
    pub fn get(&self, i: usize) -> Component<'_> {
        Component {
            index: i,
            nodes: &self.nodes[range(&self.node_bounds, i)],
            bipartite: self.bipartite[i],
            nonsink_schedule: self.order(i),
            schedule_source: self.sources[i],
            profile: self.profile(i),
        }
    }

    /// The components in detach order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Component<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Component `i`'s non-sink schedule.
    pub fn order(&self, i: usize) -> &[NodeId] {
        &self.orders[range(&self.order_bounds, i)]
    }

    /// Component `i`'s eligibility profile.
    pub fn profile(&self, i: usize) -> &[usize] {
        &self.profiles[range(&self.profile_bounds, i)]
    }
}
