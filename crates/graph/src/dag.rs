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
//!
//! Node labels are stored the same way: every label's bytes back to back
//! in one [`NameTable`] buffer, with a `u32` end offset per node.

use crate::error::GraphError;
use crate::scratch::SubgraphScratch;
use std::fmt;
use std::sync::Arc;

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

/// Node labels (job names), stored once: the labels' bytes back to back
/// in one buffer, and where each label ends. Label `i` is the buffer from
/// the end of label `i - 1` (or 0) to its own end.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameTable {
    text: String,
    ends: Vec<u32>,
}

impl NameTable {
    /// An empty table with room for `names` labels of `bytes` bytes in
    /// all.
    pub fn with_capacity(names: usize, bytes: usize) -> NameTable {
        NameTable {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(names),
        }
    }

    /// `n` empty labels, for nodes that need none.
    pub fn unnamed(n: usize) -> NameTable {
        NameTable {
            text: String::new(),
            ends: vec![0; n],
        }
    }

    /// Number of labels.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Appends `name` and returns its node id.
    pub fn push(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.ends.len() as u32);
        self.text.push_str(name);
        let end = u32::try_from(self.text.len()).expect("labels exceed the u32 offset range");
        self.ends.push(end);
        id
    }

    /// The label of node `u`.
    #[inline]
    pub(crate) fn get(&self, u: NodeId) -> &str {
        let i = u.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start as usize..self.ends[i] as usize]
    }

    /// The table, with any spare capacity given back.
    fn shrunk(mut self) -> NameTable {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
        self
    }
}

/// An immutable directed acyclic graph with labelled nodes.
///
/// Both forward (`children`) and backward (`parents`) adjacency are stored
/// in CSR form, each neighbour list sorted by node index, so all traversals
/// are deterministic. The labels are shared, not copied, by the dags
/// [`Dag::filter_arcs`] and [`Dag::reversed`] derive.
#[derive(Clone, PartialEq, Eq)]
pub struct Dag {
    labels: Arc<NameTable>,
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
    fn from_sorted_unique_arcs(labels: Arc<NameTable>, arcs: &[(NodeId, NodeId)]) -> Dag {
        let n = labels.len();
        assert!(
            arcs.len() <= u32::MAX as usize,
            "arc count {} exceeds the u32 offset range",
            arcs.len()
        );
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

    /// Builds a dag from a lexicographically sorted, duplicate-free arc
    /// list whose endpoints are all `< labels.len()`, **without** checking
    /// acyclicity.
    ///
    /// The caller must hold an acyclicity witness (the decomposition's
    /// detach order, an arc-filtered copy of an existing dag, …): a cyclic
    /// input produces a structurally valid `Dag` whose traversals violate
    /// the DAG contract downstream. Sortedness and uniqueness are
    /// `debug_assert`ed.
    pub fn from_sorted_arcs_unchecked(labels: NameTable, arcs: &[(NodeId, NodeId)]) -> Dag {
        debug_assert!(
            arcs.windows(2).all(|w| w[0] < w[1]),
            "arc list must be sorted and duplicate-free"
        );
        debug_assert!(arcs
            .iter()
            .all(|&(u, v)| u.index() < labels.len() && v.index() < labels.len()));
        Dag::from_sorted_unique_arcs(Arc::new(labels.shrunk()), arcs)
    }

    /// Builds a dag from its node labels and an arc list in any order,
    /// possibly with duplicates, verifying acyclicity (a self-loop fails
    /// as a cycle). The caller vouches that every endpoint is
    /// `< labels.len()`. Frontends that resolve names to ids themselves
    /// build through this.
    pub fn from_named_arcs(
        labels: NameTable,
        mut arcs: Vec<(NodeId, NodeId)>,
    ) -> Result<Dag, GraphError> {
        arcs.sort_unstable();
        arcs.dedup();
        let dag = Dag::from_sorted_unique_arcs(Arc::new(labels.shrunk()), &arcs);
        kahn_acyclicity_check(&dag)?;
        Ok(dag)
    }

    /// A borrowed view of this dag's adjacency.
    #[inline]
    pub fn view(&self) -> DagView<'_> {
        DagView {
            child_off: &self.child_off,
            child_adj: &self.child_adj,
            parent_off: &self.parent_off,
            parent_adj: &self.parent_adj,
        }
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
        self.labels.len() == 0
    }

    /// Iterates over all node identifiers in index order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + Clone {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// The children of `u` (sorted by index).
    #[inline]
    pub fn children(&self, u: NodeId) -> &[NodeId] {
        self.view().children(u)
    }

    /// The parents of `u` (sorted by index).
    #[inline]
    pub fn parents(&self, u: NodeId) -> &[NodeId] {
        self.view().parents(u)
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.view().out_degree(u)
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.view().in_degree(u)
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
        self.view().sources()
    }

    /// All sinks (nodes with no children), in index order.
    pub fn sinks(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.view().sinks()
    }

    /// The label (job name) of `u`.
    #[inline]
    pub fn label(&self, u: NodeId) -> &str {
        self.labels.get(u)
    }

    /// Finds the node with the given label, if any (linear scan).
    pub fn find(&self, label: &str) -> Option<NodeId> {
        self.node_ids().find(|&u| self.label(u) == label)
    }

    /// Whether the arc `u -> v` is present.
    pub fn has_arc(&self, u: NodeId, v: NodeId) -> bool {
        self.view().has_arc(u, v)
    }

    /// Iterates over all arcs `(u, v)` in lexicographic order.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.view().arcs()
    }

    /// The subgraph induced on `nodes` (duplicates ignored, first
    /// occurrence wins) plus its local → global id map: local node `i` is
    /// `to_super[i]`, numbered in the order `nodes` lists them. Arcs
    /// between two listed nodes are kept; everything else is dropped.
    ///
    /// The decomposition does not build its parts this way (it stores them
    /// back to back in an [`InducedCsr`]); this owned, labelled copy is
    /// the reference the flat store is tested against.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Dag, Vec<NodeId>) {
        // Dedup by first occurrence, then binary-search a sorted
        // (super, sub) index for the renumbering.
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
        // Sub ids need not be monotone in super ids, so the pair list
        // needs one sort before the CSR build (it is already
        // duplicate-free).
        arcs.sort_unstable();
        let bytes = to_super.iter().map(|&u| self.label(u).len()).sum();
        let mut labels = NameTable::with_capacity(to_super.len(), bytes);
        for &u in &to_super {
            labels.push(self.label(u));
        }
        (
            Dag::from_sorted_unique_arcs(Arc::new(labels), &arcs),
            to_super,
        )
    }

    /// Returns a copy of this dag keeping exactly the arcs for which `keep`
    /// returns `true` (node set and labels unchanged, and shared).
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

/// A borrowed, read-only view of one dag's adjacency: the CSR arrays of
/// a [`Dag`] ([`Dag::view`]), or of one subgraph stored in an
/// [`InducedCsr`] ([`InducedCsr::view`]). It is `Copy`, carries no
/// labels, and offers the same structural queries as [`Dag`], so
/// algorithms written against it run unchanged on either.
///
/// Offsets are absolute positions in the adjacency arrays, so a view of
/// the `k`-th subgraph of a flat store is a window onto the store's
/// arrays, not a copy.
#[derive(Clone, Copy)]
pub struct DagView<'a> {
    /// `n + 1` offsets into `child_adj`.
    child_off: &'a [u32],
    child_adj: &'a [NodeId],
    /// `n + 1` offsets into `parent_adj`.
    parent_off: &'a [u32],
    parent_adj: &'a [NodeId],
}

impl<'a> From<&'a Dag> for DagView<'a> {
    fn from(dag: &'a Dag) -> DagView<'a> {
        dag.view()
    }
}

impl<'a> DagView<'a> {
    /// Number of nodes.
    #[inline]
    pub fn num_nodes(self) -> usize {
        self.child_off.len() - 1
    }

    /// Number of arcs.
    #[inline]
    pub fn num_arcs(self) -> usize {
        (self.child_off[self.num_nodes()] - self.child_off[0]) as usize
    }

    /// Iterates over all node identifiers in index order.
    pub fn node_ids(self) -> impl DoubleEndedIterator<Item = NodeId> + Clone {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// The children of `u` (sorted by index).
    #[inline]
    pub fn children(self, u: NodeId) -> &'a [NodeId] {
        let i = u.index();
        &self.child_adj[self.child_off[i] as usize..self.child_off[i + 1] as usize]
    }

    /// The parents of `u` (sorted by index).
    #[inline]
    pub fn parents(self, u: NodeId) -> &'a [NodeId] {
        let i = u.index();
        &self.parent_adj[self.parent_off[i] as usize..self.parent_off[i + 1] as usize]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(self, u: NodeId) -> usize {
        let i = u.index();
        (self.child_off[i + 1] - self.child_off[i]) as usize
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(self, u: NodeId) -> usize {
        let i = u.index();
        (self.parent_off[i + 1] - self.parent_off[i]) as usize
    }

    /// Whether `u` has no parents.
    #[inline]
    pub fn is_source(self, u: NodeId) -> bool {
        self.in_degree(u) == 0
    }

    /// Whether `u` has no children.
    #[inline]
    pub fn is_sink(self, u: NodeId) -> bool {
        self.out_degree(u) == 0
    }

    /// All sources (nodes with no parents), in index order.
    pub fn sources(self) -> impl Iterator<Item = NodeId> + 'a {
        self.node_ids().filter(move |&u| self.is_source(u))
    }

    /// All sinks (nodes with no children), in index order.
    pub fn sinks(self) -> impl Iterator<Item = NodeId> + 'a {
        self.node_ids().filter(move |&u| self.is_sink(u))
    }

    /// Whether the arc `u -> v` is present.
    pub fn has_arc(self, u: NodeId, v: NodeId) -> bool {
        self.children(u).binary_search(&v).is_ok()
    }

    /// Iterates over all arcs `(u, v)` in lexicographic order.
    pub fn arcs(self) -> impl Iterator<Item = (NodeId, NodeId)> + 'a {
        self.node_ids()
            .flat_map(move |u| self.children(u).iter().map(move |&v| (u, v)))
    }
}

/// Two views are equal when they have the same nodes with the same
/// children and parents — where the arrays live does not matter.
impl PartialEq for DagView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.num_nodes() == other.num_nodes()
            && self.node_ids().all(|u| {
                self.children(u) == other.children(u) && self.parents(u) == other.parents(u)
            })
    }
}

impl Eq for DagView<'_> {}

impl fmt::Debug for DagView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DagView({} nodes, {} arcs)",
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

/// The adjacency of many induced subgraphs of one dag, stored back to
/// back in four flat CSR arrays.
///
/// Each [`InducedCsr::push_induced`] appends one subgraph's nodes as the
/// next run of *slots*; [`InducedCsr::view`] over that slot range is the
/// subgraph as a [`DagView`], with local ids `0..len` in the order the
/// nodes were given. The store keeps no labels and no per-subgraph
/// allocation: [`InducedCsr::clear`] keeps the arrays' capacity, so a
/// caller that refills one store for many dags (the decomposition, once
/// per pipeline run) stops allocating once it has seen its largest input.
#[derive(Debug, Clone)]
pub struct InducedCsr {
    /// One entry per stored slot plus a leading 0: slot `i`'s children
    /// are `child_adj[child_off[i] .. child_off[i + 1]]`.
    child_off: Vec<u32>,
    child_adj: Vec<NodeId>,
    /// Same layout as `child_off`, for parents.
    parent_off: Vec<u32>,
    parent_adj: Vec<NodeId>,
}

impl Default for InducedCsr {
    fn default() -> Self {
        InducedCsr {
            child_off: vec![0],
            child_adj: Vec::new(),
            parent_off: vec![0],
            parent_adj: Vec::new(),
        }
    }
}

impl InducedCsr {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes every subgraph, keeping the arrays' capacity.
    pub fn clear(&mut self) {
        self.child_off.truncate(1);
        self.child_adj.clear();
        self.parent_off.truncate(1);
        self.parent_adj.clear();
    }

    /// Appends the subgraph of `g` induced by `nodes`, which must be
    /// strictly ascending; it takes the next `nodes.len()` slots, local id
    /// `i` standing for `nodes[i]`. Membership and renumbering go through
    /// `scratch`'s O(|G|) stamped tables, so there is no per-arc search,
    /// and because the renumbering is monotone, children and parents come
    /// out sorted straight from `g`'s sorted lists.
    pub fn push_induced(&mut self, g: &Dag, nodes: &[NodeId], scratch: &mut SubgraphScratch) {
        debug_assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "push_induced requires strictly ascending nodes"
        );
        let stamp = scratch.next_stamp(g.num_nodes());
        for (i, &u) in nodes.iter().enumerate() {
            scratch.stamp_of[u.index()] = stamp;
            scratch.local_id[u.index()] = i as u32;
        }
        let local = |v: &NodeId| {
            (scratch.stamp_of[v.index()] == stamp).then(|| NodeId(scratch.local_id[v.index()]))
        };
        for &u in nodes {
            self.child_adj
                .extend(g.children(u).iter().filter_map(local));
            self.child_off.push(offset(self.child_adj.len()));
            self.parent_adj
                .extend(g.parents(u).iter().filter_map(local));
            self.parent_off.push(offset(self.parent_adj.len()));
        }
    }

    /// The subgraph stored in `slots` (the range one
    /// [`InducedCsr::push_induced`] call filled).
    pub fn view(&self, slots: std::ops::Range<usize>) -> DagView<'_> {
        DagView {
            child_off: &self.child_off[slots.start..=slots.end],
            child_adj: &self.child_adj,
            parent_off: &self.parent_off[slots.start..=slots.end],
            parent_adj: &self.parent_adj,
        }
    }
}

/// An adjacency length as a CSR offset.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("arc count exceeds the u32 offset range")
}

/// An incremental, validating builder for [`Dag`].
///
/// Nodes are created with [`DagBuilder::add_node`], which appends the
/// label to the builder's [`NameTable`]; labels need not be unique (a
/// caller that needs them unique keeps a [`crate::NameIndex`] over
/// [`DagBuilder::label`]). Duplicate arcs are silently deduplicated;
/// self-loops are rejected eagerly and cycles at [`DagBuilder::build`]
/// time.
#[derive(Debug, Default, Clone)]
pub struct DagBuilder {
    labels: NameTable,
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
            labels: NameTable::with_capacity(nodes, 0),
            arcs: Vec::with_capacity(arcs),
        }
    }

    /// Reserves room for `bytes` more label bytes.
    pub fn reserve_label_bytes(&mut self, bytes: usize) {
        self.labels.text.reserve(bytes);
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// The label of node `u`, added earlier.
    pub fn label(&self, u: NodeId) -> &str {
        self.labels.get(u)
    }

    /// Adds a node with the given label and returns its identifier.
    pub fn add_node(&mut self, label: impl AsRef<str>) -> NodeId {
        self.labels.push(label.as_ref())
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
        Dag::from_named_arcs(self.labels, self.arcs)
    }
}

/// Kahn's algorithm purely to detect cycles; the topological sort itself
/// lives in [`crate::topo`].
fn kahn_acyclicity_check(dag: &Dag) -> Result<(), GraphError> {
    let n = dag.num_nodes();
    let mut indeg: Vec<u32> = dag.node_ids().map(|u| dag.in_degree(u) as u32).collect();
    // Sized for every node at once, so the check allocates the same at
    // any size.
    let mut stack: Vec<NodeId> = Vec::with_capacity(n);
    stack.extend(dag.node_ids().filter(|u| indeg[u.index()] == 0));
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
    fn labels_live_in_one_table() {
        let mut b = DagBuilder::new();
        for label in ["x", "", "yz", "x", "non-ascii é"] {
            b.add_node(label);
        }
        b.add_node(String::from("owned"));
        assert_eq!(b.label(NodeId(2)), "yz");
        let d = b.build().unwrap();
        let labels: Vec<&str> = d.node_ids().map(|u| d.label(u)).collect();
        assert_eq!(labels, ["x", "", "yz", "x", "non-ascii é", "owned"]);
        assert_eq!(d.find("x"), Some(NodeId(0)));
        let unnamed = Dag::from_sorted_arcs_unchecked(NameTable::unnamed(3), &[]);
        assert!(unnamed.node_ids().all(|u| unnamed.label(u).is_empty()));
    }

    #[test]
    fn induced_subgraph_keeps_internal_arcs() {
        let d = diamond();
        let (sub, map) = d.induced_subgraph(&[NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(sub.num_nodes(), 3);
        // a->b and b->d survive; a->c->d does not.
        assert_eq!(sub.num_arcs(), 2);
        assert_eq!(sub.label(NodeId(2)), "j3");
        assert_eq!(map, [NodeId(0), NodeId(1), NodeId(3)]);
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
        let local = |u: u32| NodeId(map.iter().position(|&g| g == NodeId(u)).unwrap() as u32);
        assert!(sub.has_arc(local(3), local(4)));
    }

    #[test]
    fn induced_csr_stores_subgraphs_back_to_back() {
        let d = Dag::from_arcs(5, &[(0, 2), (0, 3), (1, 2), (1, 4), (3, 4)]).unwrap();
        let mut store = InducedCsr::new();
        let mut scratch = SubgraphScratch::new();
        let sets: [&[NodeId]; 3] = [
            &[NodeId(0), NodeId(2), NodeId(3)],
            &[NodeId(1)],
            &[NodeId(1), NodeId(3), NodeId(4)],
        ];
        for _round in 0..2 {
            store.clear();
            let mut start = 0;
            for nodes in sets {
                store.push_induced(&d, nodes, &mut scratch);
                let view = store.view(start..start + nodes.len());
                assert_eq!(view, d.induced_subgraph(nodes).0.view());
                start += nodes.len();
            }
            assert_eq!(start, 7);
        }
        // Every earlier subgraph stays readable after later pushes.
        assert_eq!(store.view(0..3).num_arcs(), 2);
        assert_eq!(store.view(3..4).num_arcs(), 0);
        assert!(store.view(4..7).has_arc(NodeId(1), NodeId(2)));
        assert_eq!(d.view(), d.view());
        assert_ne!(store.view(0..3), store.view(4..7));
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
        assert!(Arc::ptr_eq(&f.labels, &d.labels), "labels are shared");
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
        assert!(Arc::ptr_eq(&r.labels, &d.labels), "labels are shared");
    }

    #[test]
    fn empty_dag() {
        let d = DagBuilder::new().build().unwrap();
        assert!(d.is_empty());
        assert_eq!(d.sources().count(), 0);
    }
}
