//! The core immutable [`Dag`] type and its validating [`DagBuilder`].
//!
//! In the paper's model each node is a *job* and each arc `u -> v` is an
//! inter-job dependency: `v` cannot start before `u` has completed and
//! returned its results. `u` is a *parent* of `v`, and `v` a *child* of `u`.
//!
//! Adjacency is stored in compressed-sparse-row (CSR) form: one flat
//! neighbour array per direction, indexed by an `n + 1`-entry offset table,
//! so the neighbours of node `u` are the contiguous slice
//! `adj[off[u] .. off[u + 1]]`. Compared to a `Vec<Vec<NodeId>>` this costs
//! zero per-node heap allocations, keeps all neighbour lists of a traversal
//! in a single cache-friendly array, and makes `children`/`parents` a pair
//! of index loads. Offsets are `u32` (arc counts are bounded by
//! `u32::MAX`), halving the offset tables' footprint on 64-bit targets.

use crate::error::GraphError;
use crate::labelhash::NameHashBuild;
use crate::scratch::SubgraphScratch;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A node label (job name).
///
/// Reference-counted so that subgraph induction, arc filtering and
/// reversal — all of which preserve labels — bump a refcount instead of
/// copying the string. Frontends that intern job names (`prio-ir`'s
/// `NameInterner` produces the same `Arc<str>` type) flow their interned
/// names into the graph without any copy.
pub type Label = Arc<str>;

/// Arc-chunk floor below which the parallel CSR build falls back to the
/// serial implementation: spawning scoped threads for a few thousand
/// arcs costs more than the passes themselves.
const MIN_PARALLEL_ARCS: usize = 1 << 16;

/// A node (job) identifier: a dense index into a [`Dag`].
///
/// `NodeId`s are only meaningful relative to the `Dag` that produced them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An immutable directed acyclic graph with labelled nodes.
///
/// Both forward (`children`) and backward (`parents`) adjacency are stored
/// in CSR form, each neighbour list sorted by node index, so all traversals
/// are deterministic.
#[derive(Clone, PartialEq, Eq)]
pub struct Dag {
    labels: Vec<Label>,
    /// `n + 1` offsets into `child_adj`; children of `u` are
    /// `child_adj[child_off[u] .. child_off[u + 1]]`.
    child_off: Box<[u32]>,
    child_adj: Box<[NodeId]>,
    /// `n + 1` offsets into `parent_adj`, same layout as `child_off`.
    parent_off: Box<[u32]>,
    parent_adj: Box<[NodeId]>,
}

impl Dag {
    /// Builds the CSR representation from a lexicographically sorted,
    /// deduplicated arc list whose endpoints are all `< labels.len()`.
    ///
    /// Two counting passes produce both directions without ever allocating
    /// a per-node list: the sorted arc targets *are* the child array, and
    /// filling the transpose in lexicographic arc order keeps every parent
    /// list sorted by source index. Acyclicity is **not** checked here.
    fn from_sorted_unique_arcs(labels: Vec<Label>, arcs: &[(NodeId, NodeId)]) -> Dag {
        let n = labels.len();
        assert!(
            arcs.len() <= u32::MAX as usize,
            "arc count {} exceeds the u32 offset range",
            arcs.len()
        );
        prio_obs::counter("graph.build.serial_builds").add(1);
        let mut child_off = vec![0u32; n + 1];
        let mut parent_off = vec![0u32; n + 1];
        for &(u, v) in arcs {
            child_off[u.index() + 1] += 1;
            parent_off[v.index() + 1] += 1;
        }
        for i in 0..n {
            child_off[i + 1] += child_off[i];
            parent_off[i + 1] += parent_off[i];
        }
        let child_adj: Box<[NodeId]> = arcs.iter().map(|&(_, v)| v).collect();
        let mut parent_adj: Vec<NodeId> = vec![NodeId(0); arcs.len()];
        let mut cursor: Vec<u32> = parent_off[..n].to_vec();
        for &(u, v) in arcs {
            let slot = &mut cursor[v.index()];
            parent_adj[*slot as usize] = u;
            *slot += 1;
        }
        Dag {
            labels,
            child_off: child_off.into_boxed_slice(),
            child_adj,
            parent_off: parent_off.into_boxed_slice(),
            parent_adj: parent_adj.into_boxed_slice(),
        }
    }

    /// [`Dag::from_sorted_unique_arcs`] built across `threads` scoped
    /// worker threads; bit-identical to the serial build.
    ///
    /// * `child_off` — each thread owns a contiguous source-node range and
    ///   counts its arcs by scanning the matching arc subrange (found by
    ///   `partition_point` on the sorted list), then a serial prefix sum
    ///   merges the ranges.
    /// * `child_adj` — the sorted arc targets *are* the child array, so
    ///   each thread copies a disjoint arc chunk.
    /// * `parent_off`/`parent_adj` — per-thread counting passes over
    ///   contiguous arc chunks, merged by prefix sum into per-`(thread, v)`
    ///   write cursors: earlier chunks get earlier slots and chunks scan in
    ///   lexicographic order, so every parent list comes out sorted by
    ///   source exactly as in the serial transpose fill.
    fn from_sorted_unique_arcs_par(
        labels: Vec<Label>,
        arcs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Dag {
        let n = labels.len();
        let m = arcs.len();
        if threads <= 1 || m < MIN_PARALLEL_ARCS {
            return Dag::from_sorted_unique_arcs(labels, arcs);
        }
        assert!(
            m <= u32::MAX as usize,
            "arc count {m} exceeds the u32 offset range"
        );
        prio_obs::counter("graph.build.parallel_builds").add(1);
        let t = threads.min(m);
        // Contiguous arc chunks, one per thread.
        let chunk_bounds: Vec<(usize, usize)> =
            (0..t).map(|i| (m * i / t, m * (i + 1) / t)).collect();

        // child_off: per-source-range counting in parallel.
        let mut child_off = vec![0u32; n + 1];
        {
            let node_ranges: Vec<(usize, usize)> =
                (0..t).map(|i| (n * i / t, n * (i + 1) / t)).collect();
            let mut slices: Vec<&mut [u32]> = Vec::with_capacity(t);
            let mut rest = &mut child_off[1..];
            for &(lo, hi) in &node_ranges {
                let (head, tail) = rest.split_at_mut(hi - lo);
                slices.push(head);
                rest = tail;
            }
            std::thread::scope(|scope| {
                for (slice, &(lo, hi)) in slices.into_iter().zip(&node_ranges) {
                    scope.spawn(move || {
                        let start = arcs.partition_point(|&(u, _)| u.index() < lo);
                        let end = arcs.partition_point(|&(u, _)| u.index() < hi);
                        for &(u, _) in &arcs[start..end] {
                            slice[u.index() - lo] += 1;
                        }
                    });
                }
            });
        }
        for i in 0..n {
            child_off[i + 1] += child_off[i];
        }

        // child_adj: disjoint chunk copies.
        let mut child_adj: Vec<NodeId> = vec![NodeId(0); m];
        {
            let mut slices: Vec<&mut [NodeId]> = Vec::with_capacity(t);
            let mut rest = child_adj.as_mut_slice();
            for &(lo, hi) in &chunk_bounds {
                let (head, tail) = rest.split_at_mut(hi - lo);
                slices.push(head);
                rest = tail;
            }
            std::thread::scope(|scope| {
                for (slice, &(lo, hi)) in slices.into_iter().zip(&chunk_bounds) {
                    scope.spawn(move || {
                        for (dst, &(_, v)) in slice.iter_mut().zip(&arcs[lo..hi]) {
                            *dst = v;
                        }
                    });
                }
            });
        }

        // parent side, sharded by *target* range: each thread owns the
        // nodes `v` in a contiguous range and therefore a disjoint,
        // contiguous slice of the transpose arrays (`split_at_mut`, no
        // locks). A thread scans the whole arc list but touches only its
        // own targets; scanning in lexicographic order makes every parent
        // list come out sorted by source exactly as in the serial fill.
        // Total reads are `threads × m` but the passes run concurrently,
        // so the wall time is one scan plus the serial prefix sum.
        let node_ranges: Vec<(usize, usize)> =
            (0..t).map(|i| (n * i / t, n * (i + 1) / t)).collect();
        let mut parent_cnt = vec![0u32; n];
        {
            let mut slices: Vec<&mut [u32]> = Vec::with_capacity(t);
            let mut rest = parent_cnt.as_mut_slice();
            for &(lo, hi) in &node_ranges {
                let (head, tail) = rest.split_at_mut(hi - lo);
                slices.push(head);
                rest = tail;
            }
            std::thread::scope(|scope| {
                for (slice, &(lo, hi)) in slices.into_iter().zip(&node_ranges) {
                    scope.spawn(move || {
                        for &(_, v) in arcs {
                            let vi = v.index();
                            if vi >= lo && vi < hi {
                                slice[vi - lo] += 1;
                            }
                        }
                    });
                }
            });
        }
        let mut parent_off = vec![0u32; n + 1];
        for v in 0..n {
            parent_off[v + 1] = parent_off[v] + parent_cnt[v];
        }
        let mut parent_adj: Vec<NodeId> = vec![NodeId(0); m];
        {
            let mut slices: Vec<&mut [NodeId]> = Vec::with_capacity(t);
            let mut rest = parent_adj.as_mut_slice();
            for &(lo, hi) in &node_ranges {
                let start = parent_off[lo] as usize;
                let end = parent_off[hi] as usize;
                let (head, tail) = rest.split_at_mut(end - start);
                slices.push(head);
                rest = tail;
            }
            std::thread::scope(|scope| {
                for (slice, &(lo, hi)) in slices.into_iter().zip(&node_ranges) {
                    let base = parent_off[lo];
                    let off = &parent_off;
                    scope.spawn(move || {
                        let mut cursor: Vec<u32> = off[lo..hi].iter().map(|&o| o - base).collect();
                        for &(u, v) in arcs {
                            let vi = v.index();
                            if vi >= lo && vi < hi {
                                let slot = &mut cursor[vi - lo];
                                slice[*slot as usize] = u;
                                *slot += 1;
                            }
                        }
                    });
                }
            });
        }

        Dag {
            labels,
            child_off: child_off.into_boxed_slice(),
            child_adj: child_adj.into_boxed_slice(),
            parent_off: parent_off.into_boxed_slice(),
            parent_adj: parent_adj.into_boxed_slice(),
        }
    }

    /// Builds a dag from a lexicographically sorted, duplicate-free arc
    /// list whose endpoints are all `< labels.len()`, **without** checking
    /// acyclicity.
    ///
    /// The caller must hold an acyclicity witness (the decomposition's
    /// detach order, an arc-filtered copy of an existing dag, …): a cyclic
    /// input produces a structurally valid `Dag` whose traversals violate
    /// the DAG contract downstream. Sortedness and uniqueness are
    /// `debug_assert`ed; `threads > 1` uses the parallel CSR build, which
    /// is bit-identical to the serial one.
    pub fn from_sorted_arcs_unchecked(
        labels: Vec<Label>,
        arcs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Dag {
        debug_assert!(
            arcs.windows(2).all(|w| w[0] < w[1]),
            "arc list must be sorted and duplicate-free"
        );
        debug_assert!(arcs
            .iter()
            .all(|&(u, v)| u.index() < labels.len() && v.index() < labels.len()));
        Dag::from_sorted_unique_arcs_par(labels, arcs, threads)
    }

    /// Number of nodes (jobs).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Number of arcs (dependencies).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.child_adj.len()
    }

    /// Whether the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterates over all node identifiers in index order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + Clone {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// The children of `u` (sorted by index).
    #[inline]
    pub fn children(&self, u: NodeId) -> &[NodeId] {
        let i = u.index();
        &self.child_adj[self.child_off[i] as usize..self.child_off[i + 1] as usize]
    }

    /// The parents of `u` (sorted by index).
    #[inline]
    pub fn parents(&self, u: NodeId) -> &[NodeId] {
        let i = u.index();
        &self.parent_adj[self.parent_off[i] as usize..self.parent_off[i + 1] as usize]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        let i = u.index();
        (self.child_off[i + 1] - self.child_off[i]) as usize
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        let i = u.index();
        (self.parent_off[i + 1] - self.parent_off[i]) as usize
    }

    /// Whether `u` has no parents.
    #[inline]
    pub fn is_source(&self, u: NodeId) -> bool {
        self.in_degree(u) == 0
    }

    /// Whether `u` has no children.
    #[inline]
    pub fn is_sink(&self, u: NodeId) -> bool {
        self.out_degree(u) == 0
    }

    /// All sources (nodes with no parents), in index order.
    pub fn sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&u| self.is_source(u))
    }

    /// All sinks (nodes with no children), in index order.
    pub fn sinks(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&u| self.is_sink(u))
    }

    /// The label (job name) of `u`.
    #[inline]
    pub fn label(&self, u: NodeId) -> &str {
        &self.labels[u.index()]
    }

    /// The shared (reference-counted) label of `u`; cloning the returned
    /// handle bumps a refcount instead of copying the string.
    #[inline]
    pub fn label_arc(&self, u: NodeId) -> &Label {
        &self.labels[u.index()]
    }

    /// Finds the node with the given label, if any (linear scan; use a
    /// [`DagBuilder`]'s handle instead when building).
    pub fn find(&self, label: &str) -> Option<NodeId> {
        self.labels
            .iter()
            .position(|l| &**l == label)
            .map(|i| NodeId(i as u32))
    }

    /// Whether the arc `u -> v` is present.
    pub fn has_arc(&self, u: NodeId, v: NodeId) -> bool {
        self.children(u).binary_search(&v).is_ok()
    }

    /// Iterates over all arcs `(u, v)` in lexicographic order.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.node_ids()
            .flat_map(move |u| self.children(u).iter().map(move |&v| (u, v)))
    }

    /// Builds the subgraph induced by `nodes`, together with the index maps
    /// between the subgraph and this graph.
    ///
    /// Nodes are renumbered densely in the order given by `nodes` (duplicates
    /// are ignored after the first occurrence). Arcs are kept iff both
    /// endpoints are included.
    /// [`Dag::induced_subgraph`] for **strictly ascending** node lists,
    /// with the O(|G|) membership and renumbering tables borrowed from
    /// `scratch` instead of binary-searching `nodes` once per arc.
    /// Produces exactly the same `(Dag, SubgraphMap)` as
    /// [`Dag::induced_subgraph`] on the same input; callers that
    /// materialize many subgraphs of one dag (the decomposition) reuse one
    /// scratch and save the dominant share of the per-part cost.
    pub fn induced_subgraph_in(
        &self,
        nodes: &[NodeId],
        scratch: &mut SubgraphScratch,
    ) -> (Dag, SubgraphMap) {
        debug_assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "induced_subgraph_in requires strictly ascending nodes"
        );
        let stamp = scratch.next_stamp(self.num_nodes());
        for (i, &u) in nodes.iter().enumerate() {
            scratch.stamp_of[u.index()] = stamp;
            scratch.local_id[u.index()] = i as u32;
        }
        let mut arcs: Vec<(NodeId, NodeId)> = Vec::new();
        let mut labels: Vec<Label> = Vec::with_capacity(nodes.len());
        for (i, &u) in nodes.iter().enumerate() {
            labels.push(self.labels[u.index()].clone());
            for &v in self.children(u) {
                if scratch.stamp_of[v.index()] == stamp {
                    // Ascending `nodes` makes the renumbering monotone and
                    // children are stored sorted, so arcs come out in
                    // lexicographic order — no sort needed.
                    arcs.push((NodeId(i as u32), NodeId(scratch.local_id[v.index()])));
                }
            }
        }
        (
            Dag::from_sorted_unique_arcs(labels, &arcs),
            SubgraphMap {
                to_super: nodes.to_vec(),
                rev: None,
            },
        )
    }

    /// The subgraph induced on `nodes` (duplicates ignored, first
    /// occurrence wins) plus the local ↔ global id mapping. Arcs between
    /// two listed nodes are kept; everything else is dropped.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Dag, SubgraphMap) {
        // The map is kept proportional to the subgraph, never O(|G|): a
        // dense vector per subgraph would cost O(|G|) memory for every
        // component of a decomposition — tens of gigabytes on the 48k-job
        // SDSS dag. Reverse lookups go through binary search instead of a
        // hash map: the decomposition materializes every component through
        // this function, and the old SipHash map plus per-node label
        // copies dominated its profile at the 10⁶-job tier.
        let sorted_strict = nodes.windows(2).all(|w| w[0] < w[1]);
        if sorted_strict {
            // Fast path (every decomposition part takes it): a strictly
            // ascending node list makes the renumbering monotone, so arcs
            // are emitted in lexicographic order already — no sort — and
            // `to_super` itself is the sorted reverse-lookup index.
            let to_super: Vec<NodeId> = nodes.to_vec();
            let mut arcs: Vec<(NodeId, NodeId)> = Vec::new();
            for (si, &u) in to_super.iter().enumerate() {
                for &v in self.children(u) {
                    if let Ok(sv) = to_super.binary_search(&v) {
                        arcs.push((NodeId(si as u32), NodeId(sv as u32)));
                    }
                }
            }
            let labels = to_super
                .iter()
                .map(|&u| self.labels[u.index()].clone())
                .collect();
            return (
                Dag::from_sorted_unique_arcs(labels, &arcs),
                SubgraphMap {
                    to_super,
                    rev: None,
                },
            );
        }

        // General path: dedup by first occurrence, then binary-search a
        // sorted (super, sub) index for the reverse direction.
        let mut pairs: Vec<(NodeId, u32)> = nodes
            .iter()
            .enumerate()
            .map(|(i, &u)| (u, i as u32))
            .collect();
        pairs.sort_unstable();
        pairs.dedup_by_key(|p| p.0); // keeps the smallest original index
                                     // The surviving original positions, in ascending order, are the
                                     // first occurrences in input order: re-rank them to get sub ids.
        let mut by_pos: Vec<(u32, NodeId)> = pairs.iter().map(|&(u, i)| (i, u)).collect();
        by_pos.sort_unstable();
        let to_super: Vec<NodeId> = by_pos.iter().map(|&(_, u)| u).collect();
        let mut rev: Vec<(NodeId, NodeId)> = by_pos
            .iter()
            .enumerate()
            .map(|(sub, &(_, u))| (u, NodeId(sub as u32)))
            .collect();
        rev.sort_unstable();
        let mut arcs: Vec<(NodeId, NodeId)> = Vec::new();
        for (si, &u) in to_super.iter().enumerate() {
            for &v in self.children(u) {
                if let Ok(i) = rev.binary_search_by_key(&v, |p| p.0) {
                    arcs.push((NodeId(si as u32), rev[i].1));
                }
            }
        }
        // Sub ids are not monotone in super ids, so the pair list needs one
        // sort before the CSR build (it is already duplicate-free).
        arcs.sort_unstable();
        let labels = to_super
            .iter()
            .map(|&u| self.labels[u.index()].clone())
            .collect();
        (
            Dag::from_sorted_unique_arcs(labels, &arcs),
            SubgraphMap {
                to_super,
                rev: Some(rev.into_boxed_slice()),
            },
        )
    }

    /// Returns a copy of this dag keeping exactly the arcs for which `keep`
    /// returns `true` (node set unchanged).
    ///
    /// Removing arcs from a DAG cannot create a cycle, so no re-validation
    /// happens — this is the cheap path behind shortcut removal.
    pub fn filter_arcs(&self, mut keep: impl FnMut(NodeId, NodeId) -> bool) -> Dag {
        let arcs: Vec<(NodeId, NodeId)> = self.arcs().filter(|&(u, v)| keep(u, v)).collect();
        Dag::from_sorted_unique_arcs(self.labels.clone(), &arcs)
    }

    /// Returns the arc-reversed DAG (every `u -> v` becomes `v -> u`).
    ///
    /// This is how the theory derives M-dags from W-dags ("duals"). With
    /// both CSR directions stored, this is a plain swap of the two arrays.
    pub fn reversed(&self) -> Dag {
        Dag {
            labels: self.labels.clone(),
            child_off: self.parent_off.clone(),
            child_adj: self.parent_adj.clone(),
            parent_off: self.child_off.clone(),
            parent_adj: self.child_adj.clone(),
        }
    }

    /// Convenience constructor from labelled nodes and index arcs.
    ///
    /// `n` nodes are created with labels `"j0" .. "j{n-1}"`.
    pub fn from_arcs(n: usize, arcs: &[(u32, u32)]) -> Result<Dag, GraphError> {
        let mut b = DagBuilder::new();
        for i in 0..n {
            b.add_node(format!("j{i}"));
        }
        for &(u, v) in arcs {
            b.add_arc(NodeId(u), NodeId(v))?;
        }
        b.build()
    }
}

impl fmt::Debug for Dag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Dag({} nodes, {} arcs)",
            self.num_nodes(),
            self.num_arcs()
        )?;
        for u in self.node_ids() {
            if !self.children(u).is_empty() {
                writeln!(f, "  {:?} -> {:?}", u, self.children(u))?;
            }
        }
        Ok(())
    }
}

/// Index maps produced by [`Dag::induced_subgraph`].
///
/// Memory is proportional to the subgraph, not the original graph, so a
/// decomposition may hold one map per component without quadratic blowup.
/// Reverse lookups ([`SubgraphMap::to_sub`]) binary-search `to_super`
/// directly when the subgraph's nodes were given in ascending order (the
/// common case), or a sorted side index otherwise.
#[derive(Debug, Clone)]
pub struct SubgraphMap {
    to_super: Vec<NodeId>,
    /// Sorted `(super, sub)` pairs; `None` when `to_super` is itself
    /// strictly ascending and can be binary-searched directly.
    rev: Option<Box<[(NodeId, NodeId)]>>,
}

impl SubgraphMap {
    /// Maps a node of the original graph to the subgraph, if included.
    pub fn to_sub(&self, u: NodeId) -> Option<NodeId> {
        match &self.rev {
            None => self
                .to_super
                .binary_search(&u)
                .ok()
                .map(|i| NodeId(i as u32)),
            Some(rev) => rev.binary_search_by_key(&u, |p| p.0).ok().map(|i| rev[i].1),
        }
    }

    /// Maps a subgraph node back to the original graph.
    pub fn to_super(&self, s: NodeId) -> NodeId {
        self.to_super[s.index()]
    }

    /// The original-graph identifiers of all subgraph nodes, in subgraph
    /// index order.
    pub fn super_nodes(&self) -> &[NodeId] {
        &self.to_super
    }
}

/// An incremental, validating builder for [`Dag`].
///
/// Nodes are created with [`DagBuilder::add_node`]; duplicate arcs are
/// silently deduplicated; self-loops are rejected eagerly and cycles at
/// [`DagBuilder::build`] time.
#[derive(Debug, Default, Clone)]
pub struct DagBuilder {
    labels: Vec<Label>,
    by_label: HashMap<Label, NodeId, NameHashBuild>,
    arcs: Vec<(NodeId, NodeId)>,
}

impl DagBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder expecting roughly `nodes` nodes and `arcs` arcs.
    pub fn with_capacity(nodes: usize, arcs: usize) -> Self {
        DagBuilder {
            labels: Vec::with_capacity(nodes),
            by_label: HashMap::with_capacity_and_hasher(nodes, NameHashBuild),
            arcs: Vec::with_capacity(arcs),
        }
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Adds a node with the given label and returns its identifier.
    ///
    /// Labels are not required to be unique here (generated workloads use
    /// unique names; uniqueness can be enforced with
    /// [`DagBuilder::add_unique_node`]).
    pub fn add_node(&mut self, label: impl Into<Label>) -> NodeId {
        let id = NodeId(self.labels.len() as u32);
        let label = label.into();
        self.by_label.entry(label.clone()).or_insert(id);
        self.labels.push(label);
        id
    }

    /// Adds a node whose label must be new, erroring on duplicates.
    pub fn add_unique_node(&mut self, label: impl Into<Label>) -> Result<NodeId, GraphError> {
        let label = label.into();
        if self.by_label.contains_key(&*label) {
            return Err(GraphError::DuplicateLabel {
                label: label.to_string(),
            });
        }
        Ok(self.add_node(label))
    }

    /// Returns the node previously added with `label` (first occurrence), or
    /// adds a fresh one.
    pub fn node_for_label(&mut self, label: &str) -> NodeId {
        if let Some(&id) = self.by_label.get(label) {
            id
        } else {
            self.add_node(label)
        }
    }

    /// Looks up a label without inserting.
    pub fn get(&self, label: &str) -> Option<NodeId> {
        self.by_label.get(label).copied()
    }

    /// Adds the arc `u -> v`. Duplicates are deduplicated at build time.
    pub fn add_arc(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        let len = self.labels.len() as u32;
        for w in [u, v] {
            if w.0 >= len {
                return Err(GraphError::InvalidNode { index: w.0, len });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { index: u.0 });
        }
        self.arcs.push((u, v));
        Ok(())
    }

    /// Finalizes the graph, verifying acyclicity.
    pub fn build(self) -> Result<Dag, GraphError> {
        let mut arcs = self.arcs;
        arcs.sort_unstable();
        arcs.dedup();
        let dag = Dag::from_sorted_unique_arcs(self.labels, &arcs);
        kahn_acyclicity_check(&dag)?;
        Ok(dag)
    }
}

/// Kahn's algorithm purely to detect cycles; the topological sort itself
/// lives in [`crate::topo`].
fn kahn_acyclicity_check(dag: &Dag) -> Result<(), GraphError> {
    let n = dag.num_nodes();
    let mut indeg: Vec<u32> = dag.node_ids().map(|u| dag.in_degree(u) as u32).collect();
    let mut stack: Vec<NodeId> = (0..n as u32)
        .map(NodeId)
        .filter(|u| indeg[u.index()] == 0)
        .collect();
    let mut seen = 0usize;
    while let Some(u) = stack.pop() {
        seen += 1;
        for &v in dag.children(u) {
            indeg[v.index()] -= 1;
            if indeg[v.index()] == 0 {
                stack.push(v);
            }
        }
    }
    if seen != n {
        let on_cycle = indeg.iter().position(|&d| d > 0).expect("cycle node") as u32;
        return Err(GraphError::Cycle { on_cycle });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        // a -> b, a -> c, b -> d, c -> d
        Dag::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let d = diamond();
        assert_eq!(d.num_nodes(), 4);
        assert_eq!(d.num_arcs(), 4);
        assert_eq!(d.children(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(d.parents(NodeId(3)), &[NodeId(1), NodeId(2)]);
        assert_eq!(d.sources().collect::<Vec<_>>(), vec![NodeId(0)]);
        assert_eq!(d.sinks().collect::<Vec<_>>(), vec![NodeId(3)]);
        assert!(d.has_arc(NodeId(0), NodeId(1)));
        assert!(!d.has_arc(NodeId(1), NodeId(0)));
        assert_eq!(d.out_degree(NodeId(0)), 2);
        assert_eq!(d.in_degree(NodeId(3)), 2);
        assert_eq!(d.label(NodeId(2)), "j2");
        assert_eq!(d.find("j2"), Some(NodeId(2)));
        assert_eq!(d.find("nope"), None);
    }

    #[test]
    fn arcs_iterator_is_lexicographic() {
        let d = diamond();
        let arcs: Vec<_> = d.arcs().map(|(u, v)| (u.0, v.0)).collect();
        assert_eq!(arcs, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn duplicate_arcs_are_deduped() {
        let d = Dag::from_arcs(2, &[(0, 1), (0, 1), (0, 1)]).unwrap();
        assert_eq!(d.num_arcs(), 1);
    }

    #[test]
    fn cycle_detection() {
        let err = Dag::from_arcs(3, &[(0, 1), (1, 2), (2, 0)]).unwrap_err();
        assert!(matches!(err, GraphError::Cycle { .. }));
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = DagBuilder::new();
        let a = b.add_node("a");
        assert!(matches!(b.add_arc(a, a), Err(GraphError::SelfLoop { .. })));
    }

    #[test]
    fn invalid_node_rejected() {
        let mut b = DagBuilder::new();
        let a = b.add_node("a");
        assert!(matches!(
            b.add_arc(a, NodeId(5)),
            Err(GraphError::InvalidNode { index: 5, .. })
        ));
    }

    #[test]
    fn unique_labels_enforced() {
        let mut b = DagBuilder::new();
        b.add_unique_node("x").unwrap();
        assert!(matches!(
            b.add_unique_node("x"),
            Err(GraphError::DuplicateLabel { .. })
        ));
    }

    #[test]
    fn node_for_label_reuses() {
        let mut b = DagBuilder::new();
        let x = b.node_for_label("x");
        let y = b.node_for_label("y");
        assert_eq!(b.node_for_label("x"), x);
        assert_ne!(x, y);
        assert_eq!(b.get("y"), Some(y));
        assert_eq!(b.get("z"), None);
    }

    #[test]
    fn induced_subgraph_keeps_internal_arcs() {
        let d = diamond();
        let (sub, map) = d.induced_subgraph(&[NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(sub.num_nodes(), 3);
        // a->b and b->d survive; a->c->d does not.
        assert_eq!(sub.num_arcs(), 2);
        assert_eq!(map.to_super(NodeId(0)), NodeId(0));
        assert_eq!(map.to_sub(NodeId(3)), Some(NodeId(2)));
        assert_eq!(map.to_sub(NodeId(2)), None);
        assert_eq!(sub.label(NodeId(2)), "j3");
        assert_eq!(map.super_nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn induced_subgraph_ignores_duplicates() {
        let d = diamond();
        let (sub, _) = d.induced_subgraph(&[NodeId(1), NodeId(1), NodeId(2)]);
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(sub.num_arcs(), 0);
    }

    #[test]
    fn induced_subgraph_renumbering_keeps_sorted_adjacency() {
        // Pick nodes in an order that reverses their relative ids: the
        // subgraph's neighbour slices must still come out sorted.
        let d = Dag::from_arcs(5, &[(0, 2), (0, 3), (1, 2), (1, 4), (3, 4)]).unwrap();
        let (sub, map) = d.induced_subgraph(&[NodeId(4), NodeId(3), NodeId(1), NodeId(0)]);
        assert_eq!(sub.num_nodes(), 4);
        // Surviving arcs: 0->3, 1->4, 3->4 under renumbering 4→0, 3→1, 1→2, 0→3.
        assert_eq!(sub.num_arcs(), 3);
        for u in sub.node_ids() {
            assert!(sub.children(u).windows(2).all(|w| w[0] < w[1]));
            assert!(sub.parents(u).windows(2).all(|w| w[0] < w[1]));
        }
        assert!(sub.has_arc(
            map.to_sub(NodeId(3)).unwrap(),
            map.to_sub(NodeId(4)).unwrap()
        ));
    }

    #[test]
    fn filter_arcs_keeps_nodes_and_drops_arcs() {
        let d = diamond();
        let f = d.filter_arcs(|u, _| u != NodeId(0));
        assert_eq!(f.num_nodes(), 4);
        assert_eq!(f.num_arcs(), 2);
        assert!(!f.has_arc(NodeId(0), NodeId(1)));
        assert!(f.has_arc(NodeId(1), NodeId(3)));
        assert_eq!(f.label(NodeId(0)), "j0");
        // Keeping everything is an identity copy.
        assert_eq!(d.filter_arcs(|_, _| true), d);
    }

    #[test]
    fn reversed_swaps_sources_and_sinks() {
        let d = diamond();
        let r = d.reversed();
        assert_eq!(r.sources().collect::<Vec<_>>(), vec![NodeId(3)]);
        assert_eq!(r.sinks().collect::<Vec<_>>(), vec![NodeId(0)]);
        assert_eq!(r.num_arcs(), d.num_arcs());
        assert!(r.has_arc(NodeId(3), NodeId(1)));
    }

    #[test]
    fn empty_dag() {
        let d = DagBuilder::new().build().unwrap();
        assert!(d.is_empty());
        assert_eq!(d.sources().count(), 0);
    }
}
