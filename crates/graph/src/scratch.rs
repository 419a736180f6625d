//! Reusable scratch state for the graph algorithms.
//!
//! The `*_into` variants of the reduction, reachability and topological
//! helpers ([`crate::reduction::shortcut_arcs_into`],
//! [`crate::reach::descendants_into`], [`crate::topo::topo_ranks_into`],
//! …) borrow a [`GraphScratch`] instead of allocating their worklists,
//! visited marks and rank tables per call. A long-lived caller — the
//! batch-mode PRIO pipeline prioritizing many dags in a row — allocates
//! one scratch and reuses it, so steady-state prioritization performs no
//! per-call setup allocations in these helpers.
//!
//! The scratch grows monotonically to the largest graph seen and is safe
//! to share across graphs of different sizes: visited marks are
//! timestamped (a new stamp invalidates all previous marks without
//! clearing), and the remaining buffers are explicitly resized or cleared
//! at the start of each call.

use crate::bitset::FixedBitSet;
use crate::dag::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reusable buffers for the graph algorithms' `*_into` variants.
///
/// All state is transient between calls; a `GraphScratch` carries no
/// results, only capacity. `Default::default()` is an empty scratch that
/// grows on first use.
#[derive(Debug, Default)]
pub struct GraphScratch {
    /// Timestamped visited marks (`mark[u] == stamp` means visited in the
    /// current traversal).
    pub(crate) mark: Vec<u32>,
    /// The current timestamp; bumped per traversal so `mark` never needs
    /// zeroing.
    pub(crate) stamp: u32,
    /// DFS/BFS worklist.
    pub(crate) stack: Vec<NodeId>,
    /// In-degree table for Kahn's algorithm.
    pub(crate) indeg: Vec<usize>,
    /// Ready-node min-heap for Kahn's algorithm.
    pub(crate) heap: BinaryHeap<Reverse<NodeId>>,
    /// Topological-rank table (used internally by shortcut detection).
    pub(crate) rank: Vec<usize>,
    /// Children-sorted-by-rank buffer for shortcut detection.
    pub(crate) by_rank: Vec<NodeId>,
    /// Visited set for reachability queries (sorted iteration).
    pub(crate) seen: FixedBitSet,
}

impl GraphScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the stamped-mark table to at least `n` nodes and returns a
    /// fresh stamp, invalidating every mark from earlier traversals.
    pub(crate) fn next_stamp(&mut self, n: usize) -> u32 {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        if self.stamp == u32::MAX {
            // Wrapped: old marks could collide with re-issued stamps.
            self.mark.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }

    /// The visited bitset, grown to `n` bits and cleared.
    pub(crate) fn seen_mut(&mut self, n: usize) -> &mut FixedBitSet {
        self.seen.grow(n);
        self.seen.clear();
        &mut self.seen
    }
}

/// Reusable dense tables for [`crate::InducedCsr::push_induced`]:
/// stamped membership marks and local-id renumbering, both O(|G|) and
/// grown once, so materializing many subgraphs of one dag performs no
/// per-subgraph setup work and no per-arc binary searches.
#[derive(Debug, Default)]
pub struct SubgraphScratch {
    /// `stamp_of[u] == stamp` means `u` is in the current node set.
    pub(crate) stamp_of: Vec<u32>,
    /// Local (subgraph) id of `u`, valid only when stamped.
    pub(crate) local_id: Vec<u32>,
    /// Current stamp; bumped per subgraph so the tables never need
    /// clearing.
    pub(crate) stamp: u32,
}

impl SubgraphScratch {
    /// An empty scratch; tables grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows both tables to at least `n` nodes and returns a fresh stamp.
    pub(crate) fn next_stamp(&mut self, n: usize) -> u32 {
        if self.stamp_of.len() < n {
            self.stamp_of.resize(n, 0);
            self.local_id.resize(n, 0);
        }
        if self.stamp == u32::MAX {
            // Wrapped: old marks could collide with re-issued stamps.
            self.stamp_of.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }
}

/// A reusable arena of recycled scratch buffers, typed by element.
///
/// The front half of the pipeline needs many short-lived worklists —
/// the peel loop's tables, closure searches, the superdag's arc list —
/// that the global allocator would otherwise serve one `malloc`/`free`
/// pair at a time. The arena keeps returned buffers (capacity intact,
/// contents cleared on reuse) and hands them back on the next request, so
/// steady-state pipeline runs stop hitting the allocator for temporaries.
/// Owned by the caller's long-lived context (`PrioContext` in `prio-core`)
/// and deliberately not thread-safe: each thread that prioritizes keeps
/// its own.
///
/// Counters `graph.arena.vecs_reused` / `graph.arena.vecs_allocated` make
/// the win measurable under the benches' `--profile-alloc` mode.
#[derive(Debug, Default)]
pub struct ScratchArena {
    nodes: Vec<Vec<NodeId>>,
    u32s: Vec<Vec<u32>>,
    bools: Vec<Vec<bool>>,
    arcs: Vec<Vec<(NodeId, NodeId)>>,
}

macro_rules! arena_pool {
    ($take:ident, $put:ident, $field:ident, $t:ty) => {
        /// Takes a cleared buffer from the pool (allocating only when the
        /// pool is empty). Return it with the matching `put_*` when done.
        pub fn $take(&mut self) -> Vec<$t> {
            match self.$field.pop() {
                Some(mut v) => {
                    v.clear();
                    prio_obs::counter!("graph.arena.vecs_reused").add(1);
                    v
                }
                None => {
                    prio_obs::counter!("graph.arena.vecs_allocated").add(1);
                    Vec::new()
                }
            }
        }

        /// Returns a buffer to the pool for later reuse.
        pub fn $put(&mut self, v: Vec<$t>) {
            if v.capacity() > 0 {
                self.$field.push(v);
            }
        }
    };
}

impl ScratchArena {
    /// An empty arena; pools fill as buffers are returned.
    pub fn new() -> Self {
        Self::default()
    }

    arena_pool!(take_nodes, put_nodes, nodes, NodeId);
    arena_pool!(take_u32s, put_u32s, u32s, u32);
    arena_pool!(take_bools, put_bools, bools, bool);
    arena_pool!(take_arcs, put_arcs, arcs, (NodeId, NodeId));

    /// Buffers currently pooled across all types (diagnostic).
    pub fn pooled(&self) -> usize {
        self.nodes.len() + self.u32s.len() + self.bools.len() + self.arcs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_recycles_capacity() {
        let mut a = ScratchArena::new();
        let mut v = a.take_nodes();
        v.extend([NodeId(1), NodeId(2)]);
        let cap = v.capacity();
        a.put_nodes(v);
        assert_eq!(a.pooled(), 1);
        let v = a.take_nodes();
        assert!(v.is_empty(), "reused buffers are cleared");
        assert_eq!(v.capacity(), cap, "capacity survives the round trip");
        assert_eq!(a.pooled(), 0);
        // Zero-capacity buffers are not worth pooling.
        a.put_u32s(Vec::new());
        assert_eq!(a.pooled(), 0);
    }

    #[test]
    fn stamps_are_monotonic_and_marks_grow() {
        let mut s = GraphScratch::new();
        let a = s.next_stamp(4);
        let b = s.next_stamp(8);
        assert!(b > a);
        assert!(s.mark.len() >= 8);
    }

    #[test]
    fn stamp_wraparound_clears_marks() {
        let mut s = GraphScratch::new();
        s.next_stamp(2);
        s.mark[0] = u32::MAX;
        s.stamp = u32::MAX;
        let fresh = s.next_stamp(2);
        assert_eq!(fresh, 1);
        assert_eq!(s.mark[0], 0, "wraparound must invalidate stale marks");
    }

    #[test]
    fn seen_is_cleared_between_uses() {
        let mut s = GraphScratch::new();
        s.seen_mut(10).insert(3);
        assert!(!s.seen_mut(10).contains(3));
        assert!(s.seen_mut(20).capacity() >= 20);
    }
}
