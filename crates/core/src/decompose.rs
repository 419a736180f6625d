//! The generalized decomposition (Divide phase, Step 2).
//!
//! The theoretical algorithm repeatedly detaches a maximal connected
//! *bipartite* building block whose sources are sources of the remnant of
//! `G'` — and fails when none exists. The heuristic generalizes the
//! decomposition so it never fails: for a source `s` of the remnant, `C(s)`
//! is the smallest subgraph containing `s` that is closed under
//! *children-of-contained-sources* and *parents-of-contained-jobs*; a
//! containment-minimal `C(s)` is detached instead. When the remnant does
//! have bipartite blocks the two notions coincide.
//!
//! §3.5 engineering: identifying a bipartite block first and falling back
//! to the general (and much more expensive) minimal-`C(s)` search only when
//! no bipartite block exists reduced the SDSS decomposition "from over
//! 2 days to a few minutes". Both paths are implemented here;
//! [`DecomposeOptions::fast_path`] toggles the optimization so the ablation
//! benchmark can quantify it.
//!
//! The fast path's fallback is linear: `C(s)` is the set a source reaches
//! in the remnant's *closure graph* (alive parents of every node, plus
//! children of every remnant source), and a closure is containment-minimal
//! exactly when no closure-graph arc leaves its strongly connected
//! component, so one Tarjan pass from the sources finds every minimal
//! closure at once. The paper's per-source search — one `C(s)` per source,
//! O(sources × closure) — survives only as the `fast_path: false` ablation
//! arm and as the linear search's test oracle.
//!
//! Detaching removes the block's non-sinks plus those of its sinks that are
//! sinks of `G'`; a sink with surviving children stays and becomes a source
//! of a later component. The **superdag** is the quotient of `G'` by the
//! "removed in component i" map: an arc `i → j` records that some job
//! removed with component `i` has a child removed with component `j`, i.e.
//! component `j` cannot start before `i` contributes.

use prio_graph::bipartite::is_bipartite_dag;
use prio_graph::{Dag, DagView, InducedCsr, NameTable, NodeId, ScratchArena, SubgraphScratch};
use std::collections::BinaryHeap;
use std::ops::Range;

/// Options controlling the decomposition.
#[derive(Debug, Clone, Copy)]
pub struct DecomposeOptions {
    /// Try to detach a connected bipartite block first, invoking the
    /// general minimal-`C(s)` search only when none exists (§3.5). Turning
    /// this off forces the general search every iteration — the "naive"
    /// arm of the decomposition ablation.
    pub fast_path: bool,
}

impl Default for DecomposeOptions {
    fn default() -> Self {
        DecomposeOptions { fast_path: true }
    }
}

/// One detached block, borrowed from [`Parts`]; the Recurse phase gives
/// it a schedule.
#[derive(Debug, Clone, Copy)]
pub struct Part<'a> {
    /// Global ids of the block's nodes, sorted; local node `l` of `local`
    /// is `nodes[l]`.
    pub nodes: &'a [NodeId],
    /// The induced local dag on `nodes` (remnant view: arcs between two
    /// alive nodes always survive, so inducing on the original `G'` is
    /// exact).
    pub local: DagView<'a>,
    /// Whether the block is bipartite.
    pub bipartite: bool,
    /// Whether the block came from the bipartite fast path.
    pub via_fast_path: bool,
    /// Global ids of the nodes *removed* by this detach (non-sinks plus
    /// sinks of `G'`), sorted.
    pub removed: &'a [NodeId],
}

/// The detached blocks in detach order, stored flat: every part's node
/// list, removed list and local adjacency live back to back in shared
/// arrays addressed by per-part offsets, so a decomposition into
/// thousands of parts costs a fixed number of buffers, and refilling the
/// same `Parts` (the pipeline keeps one in its context) costs none.
#[derive(Debug, Clone, Default)]
pub struct Parts {
    /// Every part's nodes (global ids), part after part.
    nodes: Vec<NodeId>,
    /// `len + 1` offsets into `nodes`; they double as slot ranges of
    /// `local`.
    node_bounds: Vec<u32>,
    /// Every part's removed nodes, part after part.
    removed: Vec<NodeId>,
    /// `len + 1` offsets into `removed`.
    removed_bounds: Vec<u32>,
    /// Every part's local adjacency, slot `i` standing for `nodes[i]`.
    local: InducedCsr,
    bipartite: Vec<bool>,
    via_fast_path: Vec<bool>,
}

impl Parts {
    /// Removes every part, keeping the arrays' capacity.
    fn clear(&mut self) {
        self.nodes.clear();
        self.node_bounds.clear();
        self.node_bounds.push(0);
        self.removed.clear();
        self.removed_bounds.clear();
        self.removed_bounds.push(0);
        self.local.clear();
        self.bipartite.clear();
        self.via_fast_path.clear();
    }

    /// Number of parts.
    pub fn len(&self) -> usize {
        self.via_fast_path.len()
    }

    /// Whether there are no parts.
    pub fn is_empty(&self) -> bool {
        self.via_fast_path.is_empty()
    }

    /// Node slots in all parts (a node shared by two parts counts twice).
    pub(crate) fn num_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Part `i`.
    pub fn get(&self, i: usize) -> Part<'_> {
        let slots = range(&self.node_bounds, i);
        Part {
            nodes: &self.nodes[slots.clone()],
            local: self.local.view(slots),
            bipartite: self.bipartite[i],
            via_fast_path: self.via_fast_path[i],
            removed: &self.removed[range(&self.removed_bounds, i)],
        }
    }

    /// The parts in detach order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Part<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// Entry `i`'s range in a flat array with offsets `bounds`.
pub(crate) fn range(bounds: &[u32], i: usize) -> Range<usize> {
    bounds[i] as usize..bounds[i + 1] as usize
}

/// A flat array's length as an offset.
pub(crate) fn bound(len: usize) -> u32 {
    u32::try_from(len).expect("flat arrays exceed the u32 offset range")
}

/// The result of decomposing `G'`.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// The detached blocks, in detach order.
    pub parts: Parts,
    /// The superdag: node `i` is part `i`; an arc `i → j` means some job
    /// removed with part `i` has a child in part `j`. Its labels are all
    /// empty.
    pub superdag: Dag,
    /// `comp_removed[u]` = index of the part whose detach removed job `u`.
    pub comp_removed: Vec<u32>,
    /// How many detach iterations used the general minimal-`C(s)` search.
    pub general_search_iterations: usize,
    /// Parent-list entries the bipartite block attempts visited, summed
    /// over every attempt: a deterministic measure of the fast path's
    /// work (wall time on a shared machine is noise).
    pub block_parent_visits: usize,
    /// Closure-graph adjacency entries the general searches examined,
    /// summed over every search: the general search's deterministic work
    /// measure, in both [`DecomposeOptions::fast_path`] arms.
    pub closure_visits: usize,
}

/// Decomposes `g` (assumed shortcut-free; the caller runs the transitive
/// reduction first) into components plus a superdag. One-shot entry point
/// with a fresh scratch arena.
pub fn decompose(g: &Dag, opts: DecomposeOptions) -> Decomposition {
    decompose_in(g, opts, 0, &mut ScratchArena::new())
}

/// [`decompose`] with a caller-owned scratch `arena` for the peel loop's
/// worklists. `threads` is ignored: every phase is serial.
pub fn decompose_in(
    g: &Dag,
    opts: DecomposeOptions,
    _threads: usize,
    arena: &mut ScratchArena,
) -> Decomposition {
    let mut parts = Parts::default();
    let mut comp_removed = Vec::new();
    let (superdag, work) = decompose_into(g, opts, arena, &mut parts, &mut comp_removed);
    Decomposition {
        parts,
        superdag,
        comp_removed,
        general_search_iterations: work.general_search_iterations,
        block_parent_visits: work.block_parent_visits,
        closure_visits: work.closure_visits,
    }
}

/// The decomposition into caller-owned `parts` and `comp_removed` (both
/// overwritten), returning the superdag and the work counters. The
/// pipeline keeps both outputs and `arena` in its context, so a run
/// allocates a constant number of buffers, however many parts it finds.
///
/// It runs in three phases:
///
/// 1. **Peel** (inherently serial — each detach changes what the next
///    iteration sees): the block/closure searches over the shrinking
///    remnant, appending each part's node and removed sets to the flat
///    arrays.
/// 2. **Superdag**: quotient of `g` by the removed-in-part map. Each node
///    of `g` is in exactly one part's removed list, so walking those lists
///    part by part visits every arc of `g` exactly once, already grouped
///    by source part — the quotient arcs come out globally sorted without
///    a quotient-wide sort, and the detach order is its own topological
///    witness, so no re-validation pass is needed either.
/// 3. **Materialize**: induce each part's local adjacency into the flat
///    store and classify bipartiteness.
pub(crate) fn decompose_into(
    g: &Dag,
    opts: DecomposeOptions,
    arena: &mut ScratchArena,
    parts: &mut Parts,
    comp_removed: &mut Vec<u32>,
) -> (Dag, PeelWork) {
    let _span = prio_obs::span(prio_obs::Stage::Decompose);
    parts.clear();
    let work = peel(g, opts, arena, parts, comp_removed);
    let superdag = build_superdag(g, parts, comp_removed, arena);
    materialize(g, parts);

    prio_obs::counter!("core.decompose.components_detached").add(parts.len() as u64);
    prio_obs::counter!("core.decompose.general_search_iterations")
        .add(work.general_search_iterations as u64);
    prio_obs::counter!("core.decompose.block_parent_visits").add(work.block_parent_visits as u64);
    prio_obs::counter!("core.decompose.closure_visits").add(work.closure_visits as u64);
    (superdag, work)
}

/// The peel loop's work counters (see the same-named [`Decomposition`]
/// fields).
#[derive(Debug, Default)]
pub(crate) struct PeelWork {
    pub(crate) general_search_iterations: usize,
    pub(crate) block_parent_visits: usize,
    pub(crate) closure_visits: usize,
}

/// End of a watch list.
const NO_ENTRY: u32 = u32::MAX;

/// The peel loop: repeatedly picks a block (bipartite fast path, general
/// minimal-`C(s)` search as fallback) and detaches it from the remnant,
/// appending each part's sorted node set, removed set and provenance to
/// `parts` and filling the removed-in-part map `comp_removed`.
///
/// Every worklist comes from `arena` and goes back in the reverse order
/// it was taken, so the next run draws each buffer for the same role and
/// finds it already large enough.
fn peel(
    g: &Dag,
    opts: DecomposeOptions,
    arena: &mut ScratchArena,
    parts: &mut Parts,
    comp_removed: &mut Vec<u32>,
) -> PeelWork {
    let _span = prio_obs::span(prio_obs::Stage::DecomposePeel);
    let n = g.num_nodes();
    let mut alive = arena.take_bools();
    alive.resize(n, true);
    let mut alive_indeg = arena.take_u32s();
    alive_indeg.extend(g.node_ids().map(|u| g.in_degree(u) as u32));
    // `blocking[w]` = alive parents of `w` that are not remnant sources. A
    // block attempt reaching `w` as a sink fails exactly when it is
    // nonzero, so the check is O(1) instead of a scan of `w`'s parents —
    // on SDSS that scan covered the collector join's whole fan-in once per
    // retried chain tail. Built in one sequential pass over the CSR
    // children; afterwards each arc is decremented once, when its tail
    // stops being an alive non-source (it becomes a source or is removed).
    let mut blocking = arena.take_u32s();
    blocking.resize(n, 0);
    for u in g.node_ids() {
        if g.in_degree(u) != 0 {
            for &v in g.children(u) {
                blocking[v.index()] += 1;
            }
        }
    }
    let mut work = PeelWork::default();
    // Candidate remnant sources as a lazy min-heap: entries may be stale
    // (node removed, deferred, or duplicated) and are validated on pop.
    // The heap replaces an ordered source *set* — membership deletions
    // were ~2 ordered-set operations per job on a pointer-chasing tree —
    // with O(1)-amortized pushes into a dense array; ascending pops keep
    // the detach order bit-identical to the ordered-set iteration. Keys
    // are `!id`, so the max-heap pops the smallest id first.
    let mut candidates = BinaryHeap::from(arena.take_u32s());
    candidates.extend(g.sources().map(|u| !u.0));
    comp_removed.clear();
    comp_removed.resize(n, u32::MAX);
    let mut remaining = n;

    // Scratch for the block and closure searches (stamped visited marks),
    // plus the linear general search's tables, taken on first use: most
    // dags never need the general search.
    let mut stamp_of = arena.take_u32s();
    stamp_of.resize(n, 0);
    let mut stamp = 0u32;
    let mut block_queue = arena.take_nodes();

    // Failure deferral for the fast path. A failed seed attempt visits a
    // set of sources and fails at one sink with a nonzero `blocking`
    // count; the attempt's outcome cannot change until one of those
    // visited sources is removed or that count reaches 0, so all visited
    // sources are deferred as a group and re-enabled only when a watched
    // node fires. Without this, dags in which a wide join's parents become
    // ready one by one (e.g. SDSS's 10.8k per-target chains feeding one
    // collector) re-scan every dead-end seed on every detach — a cubic
    // blowup. Watching the count rather than one blocking parent also
    // keeps each chain tail's retry from firing on every other tail that
    // becomes a source: the join's group fires once, when its last
    // non-source parent goes.
    //
    // Everything is flat: a group's members are a range of
    // `group_members`, and each node's watch list is a chain of entries
    // (`watch_head[node]`, then `watch_next[entry]`) naming groups in
    // `watch_group`, so deferring allocates nothing per group.
    let mut deferred = arena.take_bools();
    deferred.resize(n, false);
    let mut watch_head = arena.take_u32s();
    watch_head.resize(n, NO_ENTRY);
    let mut watch_next = arena.take_u32s();
    let mut watch_group = arena.take_u32s();
    let mut group_members = arena.take_nodes();
    let mut group_bounds = arena.take_u32s();
    group_bounds.push(0);
    let mut group_live = arena.take_bools();
    let mut scc: Option<SccScratch> = None;
    macro_rules! watch {
        ($node:expr, $gid:expr) => {
            watch_next.push(watch_head[$node.index()]);
            watch_group.push($gid);
            watch_head[$node.index()] = bound(watch_group.len() - 1);
        };
    }
    // The groups `$node` watches fire (order does not matter: firing only
    // clears deferral flags and pushes candidates).
    macro_rules! fire_watch {
        ($node:expr) => {
            let mut entry = std::mem::replace(&mut watch_head[$node.index()], NO_ENTRY);
            while entry != NO_ENTRY {
                let gid = watch_group[entry as usize] as usize;
                entry = watch_next[entry as usize];
                if std::mem::replace(&mut group_live[gid], false) {
                    for &m in &group_members[range(&group_bounds, gid)] {
                        deferred[m.index()] = false;
                        // An un-deferred member that is still a remnant
                        // source becomes a candidate again.
                        if alive[m.index()] && alive_indeg[m.index()] == 0 {
                            candidates.push(!m.0);
                        }
                    }
                }
            }
        };
    }
    // `$u` stops being an alive non-source: its children lose one
    // blocking parent, and a sink whose count reaches 0 fires.
    macro_rules! unblock_children {
        ($u:expr) => {
            for &w in g.children($u) {
                blocking[w.index()] -= 1;
                if blocking[w.index()] == 0 {
                    fire_watch!(w);
                }
            }
        };
    }

    while remaining > 0 {
        let start = parts.nodes.len();
        let mut via_fast_path = false;

        if opts.fast_path {
            // Pop candidates in ascending order, validating lazily: an
            // entry may be dead, no longer minimal (duplicate) or deferred.
            // The first candidate whose block attempt succeeds is the same
            // source an ordered ascending scan would have picked.
            while let Some(&key) = candidates.peek() {
                let s = NodeId(!key);
                if !alive[s.index()] || alive_indeg[s.index()] != 0 || deferred[s.index()] {
                    candidates.pop();
                    continue;
                }
                stamp += 1;
                let group_start = group_members.len();
                let attempt = bipartite_block(
                    g,
                    &alive,
                    &blocking,
                    s,
                    &mut stamp_of,
                    stamp,
                    &mut parts.nodes,
                    &mut group_members,
                    &mut block_queue,
                    &mut work.block_parent_visits,
                );
                match attempt {
                    Ok(()) => {
                        // `s` stays in the heap; the detach below kills it
                        // (block sources are always removed), so the entry
                        // goes stale and is skipped on a later pop.
                        group_members.truncate(group_start);
                        via_fast_path = true;
                        break;
                    }
                    Err(blocked_sink) => {
                        candidates.pop();
                        let gid = bound(group_live.len());
                        for &src in &group_members[group_start..] {
                            deferred[src.index()] = true;
                            watch!(src, gid);
                        }
                        watch!(blocked_sink, gid);
                        group_bounds.push(bound(group_members.len()));
                        group_live.push(true);
                    }
                }
            }
        }

        if !via_fast_path {
            // General search: a containment-minimal C(s) over the remnant
            // sources (smallest size first, then smallest source id;
            // minimal closures are equal or disjoint, so the smallest one
            // is minimal).
            work.general_search_iterations += 1;
            let _span = prio_obs::span(prio_obs::Stage::DecomposeGeneralSearch);
            let remnant = Remnant {
                g,
                alive: &alive,
                alive_indeg: &alive_indeg,
            };
            let closure = if opts.fast_path {
                // The candidate heap is exhausted here (every source is
                // deferred), so the sources are recovered by scanning, and
                // one linear pass finds the closure.
                stamp += 1;
                let scc = scc.get_or_insert_with(|| SccScratch::take(arena, n));
                let srcs = (0..n)
                    .map(|i| NodeId(i as u32))
                    .filter(|u| alive[u.index()] && alive_indeg[u.index()] == 0);
                minimal_closure(
                    remnant,
                    srcs,
                    &mut stamp_of,
                    stamp,
                    scc,
                    arena,
                    &mut work.closure_visits,
                )
            } else {
                // The heap still holds every source (plus stale entries,
                // filtered out); survivors are pushed back for later
                // iterations.
                let mut srcs: Vec<NodeId> = candidates
                    .drain()
                    .map(|key| NodeId(!key))
                    .filter(|u| alive[u.index()] && alive_indeg[u.index()] == 0)
                    .collect();
                srcs.sort_unstable();
                srcs.dedup();
                candidates.extend(srcs.iter().map(|u| !u.0));
                minimal_closure_per_source(
                    remnant,
                    &srcs,
                    &mut stamp_of,
                    &mut stamp,
                    arena,
                    &mut work.closure_visits,
                )
            };
            parts.nodes.extend_from_slice(&closure);
            arena.put_nodes(closure);
        }

        // Detach: remove non-sinks of the block and block sinks that are
        // sinks of G' (= have no children at all, since children of alive
        // nodes are always alive). Block membership is tested via a fresh
        // stamp, so no local dag is needed here — materialization happens
        // after the loop.
        let nodes = &parts.nodes[start..];
        stamp += 1;
        for &u in nodes {
            stamp_of[u.index()] = stamp;
        }
        let removed_start = parts.removed.len();
        for &u in nodes {
            let has_block_child = g.children(u).iter().any(|v| stamp_of[v.index()] == stamp);
            if has_block_child || g.is_sink(u) {
                parts.removed.push(u);
            }
        }
        assert!(
            parts.removed.len() > removed_start,
            "detach must make progress (block of {} nodes)",
            nodes.len()
        );
        let part_index = bound(parts.via_fast_path.len());
        for &u in &parts.removed[removed_start..] {
            debug_assert!(alive[u.index()], "removing a dead node");
            alive[u.index()] = false;
            comp_removed[u.index()] = part_index;
            deferred[u.index()] = false;
            if alive_indeg[u.index()] != 0 {
                unblock_children!(u);
            }
            fire_watch!(u);
            remaining -= 1;
            for &v in g.children(u) {
                // Children of an alive node are always alive; u was alive.
                let vi = v.index();
                alive_indeg[vi] -= 1;
                if alive_indeg[vi] == 0 && alive[vi] {
                    candidates.push(!v.0);
                    unblock_children!(v);
                }
            }
        }
        parts.node_bounds.push(bound(parts.nodes.len()));
        parts.removed_bounds.push(bound(parts.removed.len()));
        parts.via_fast_path.push(via_fast_path);
    }

    if let Some(scc) = scc {
        scc.put(arena);
    }
    arena.put_bools(group_live);
    arena.put_u32s(group_bounds);
    arena.put_nodes(group_members);
    arena.put_u32s(watch_group);
    arena.put_u32s(watch_next);
    arena.put_u32s(watch_head);
    arena.put_bools(deferred);
    arena.put_nodes(block_queue);
    arena.put_u32s(stamp_of);
    arena.put_u32s(candidates.into_vec());
    arena.put_u32s(blocking);
    arena.put_u32s(alive_indeg);
    arena.put_bools(alive);
    work
}

/// Induces each part's local adjacency into the flat store and classifies
/// bipartiteness — the per-part work the peel loop deferred.
fn materialize(g: &Dag, parts: &mut Parts) {
    let _span = prio_obs::span(prio_obs::Stage::DecomposeMaterialize);
    let mut scratch = SubgraphScratch::new();
    for i in 0..parts.len() {
        let slots = range(&parts.node_bounds, i);
        parts
            .local
            .push_induced(g, &parts.nodes[slots.clone()], &mut scratch);
        parts
            .bipartite
            .push(is_bipartite_dag(parts.local.view(slots)));
    }
}

/// Builds the superdag — the quotient of `g` by `comp_removed` — from the
/// parts' removed lists. Each job is removed by exactly one part, so
/// scanning the lists part by part covers every arc of `g` exactly once,
/// already grouped by source part: deduping against a `k`-sized stamp table
/// and sorting only each part's (typically tiny) target list yields a
/// globally sorted quotient arc list with no quotient-wide sort. Every arc
/// points forward in detach order (a parent is never removed after its
/// child), so detach order is a topological witness and the acyclicity
/// re-check is skipped too. Supernodes need no names: their labels are
/// all empty.
fn build_superdag(g: &Dag, parts: &Parts, comp_removed: &[u32], arena: &mut ScratchArena) -> Dag {
    let _span = prio_obs::span(prio_obs::Stage::DecomposeSuperdag);
    let k = parts.len();
    let mut arcs = arena.take_arcs();
    let mut seen = arena.take_u32s();
    seen.resize(k, u32::MAX);
    let mut buf = arena.take_u32s();
    for i in 0..k {
        let part = bound(i);
        buf.clear();
        for &u in &parts.removed[range(&parts.removed_bounds, i)] {
            for &v in g.children(u) {
                let j = comp_removed[v.index()];
                if j != part && seen[j as usize] != part {
                    seen[j as usize] = part;
                    debug_assert!(part < j, "a parent is never removed after its child");
                    buf.push(j);
                }
            }
        }
        buf.sort_unstable();
        arcs.extend(buf.iter().map(|&j| (NodeId(part), NodeId(j))));
    }
    let superdag = Dag::from_sorted_arcs_unchecked(NameTable::unnamed(k), &arcs);
    arena.put_u32s(buf);
    arena.put_u32s(seen);
    arena.put_arcs(arcs);
    superdag
}

/// Tries to grow a connected bipartite block from remnant source `s`:
/// sources `S`, sinks `T`, closed under children-of-`S` and
/// parents-of-`T`, where every parent of a `T` node must itself be a
/// remnant source (otherwise no bipartite block containing `s` exists).
/// `blocking[w]` counts `w`'s alive non-source parents, so that condition
/// is checked before `w`'s parent list is walked; `parent_visits`
/// accumulates the parent-list entries walked.
///
/// On success, appends the block's sorted node set to `nodes`. Either
/// way, appends the sources it visited to `visited_sources`; on failure
/// they would all fail identically, and the returned sink — with an alive
/// non-source parent that forced the closure past bipartiteness — is the
/// other half of the witness. The attempt's outcome cannot change while
/// every visited source stays a live source and the sink's `blocking`
/// count stays nonzero, which is what the deferral machinery watches.
#[allow(clippy::too_many_arguments)]
fn bipartite_block(
    g: &Dag,
    alive: &[bool],
    blocking: &[u32],
    s: NodeId,
    stamp_of: &mut [u32],
    stamp: u32,
    nodes: &mut Vec<NodeId>,
    visited_sources: &mut Vec<NodeId>,
    src_queue: &mut Vec<NodeId>,
    parent_visits: &mut usize,
) -> Result<(), NodeId> {
    let start = nodes.len();
    nodes.push(s);
    visited_sources.push(s);
    src_queue.clear();
    src_queue.push(s);
    stamp_of[s.index()] = stamp;
    while let Some(u) = src_queue.pop() {
        for &w in g.children(u) {
            if stamp_of[w.index()] == stamp {
                continue;
            }
            stamp_of[w.index()] = stamp;
            nodes.push(w);
            // Every alive parent of a block sink must itself be a remnant
            // source (otherwise the closure is forced past bipartiteness).
            if blocking[w.index()] != 0 {
                nodes.truncate(start);
                return Err(w);
            }
            let parents = g.parents(w);
            *parent_visits += parents.len();
            for &p in parents {
                if alive[p.index()] && stamp_of[p.index()] != stamp {
                    stamp_of[p.index()] = stamp;
                    nodes.push(p);
                    visited_sources.push(p);
                    src_queue.push(p);
                }
            }
        }
    }
    nodes[start..].sort_unstable();
    Ok(())
}

/// The remnant of `G'` a general search runs on. It is descendant-closed
/// (children of alive nodes are alive), and `alive_indeg[u] == 0` marks
/// the remnant sources among the alive nodes.
#[derive(Clone, Copy)]
struct Remnant<'a> {
    g: &'a Dag,
    alive: &'a [bool],
    alive_indeg: &'a [u32],
}

impl Remnant<'_> {
    /// Entry `i` of `v`'s closure-graph adjacency: `v`'s parents, then —
    /// if `v` is a remnant source — its children. Dead parents are listed
    /// too; callers skip them.
    fn closure_arc(&self, v: NodeId, i: usize) -> Option<NodeId> {
        let parents = self.g.parents(v);
        match parents.get(i) {
            Some(&p) => Some(p),
            None if self.alive_indeg[v.index()] == 0 => {
                self.g.children(v).get(i - parents.len()).copied()
            }
            None => None,
        }
    }
}

/// The paper's general search: builds `C(s)` for every source in `srcs`
/// (ascending) and keeps the smallest, ties to the smallest source id.
/// O(sources × closure) — the `fast_path: false` ablation arm, and the
/// oracle for [`minimal_closure`]. Returns the sorted node set.
fn minimal_closure_per_source(
    r: Remnant,
    srcs: &[NodeId],
    stamp_of: &mut [u32],
    stamp: &mut u32,
    arena: &mut ScratchArena,
    visits: &mut usize,
) -> Vec<NodeId> {
    let mut best: Option<(usize, NodeId, Vec<NodeId>)> = None;
    for &s in srcs {
        *stamp += 1;
        let c = closure(r, s, stamp_of, *stamp, arena, visits);
        let better = match &best {
            None => true,
            Some((size, seed, _)) => c.len() < *size || (c.len() == *size && s < *seed),
        };
        if better {
            if let Some((_, _, old)) = best.replace((c.len(), s, c)) {
                arena.put_nodes(old);
            }
        } else {
            arena.put_nodes(c);
        }
    }
    best.expect("at least one source exists").2
}

/// The general closure `C(s)`: smallest set containing `s`, closed under
/// children-of-contained-remnant-sources and alive-parents-of-contained
/// jobs. Returns the sorted node set; `visits` accumulates the adjacency
/// entries examined.
fn closure(
    r: Remnant,
    s: NodeId,
    stamp_of: &mut [u32],
    stamp: u32,
    arena: &mut ScratchArena,
    visits: &mut usize,
) -> Vec<NodeId> {
    let g = r.g;
    let mut nodes = arena.take_nodes();
    let mut queue = arena.take_nodes();
    nodes.push(s);
    queue.push(s);
    stamp_of[s.index()] = stamp;
    while let Some(u) = queue.pop() {
        if r.alive_indeg[u.index()] == 0 {
            // u is a remnant source: include all its (alive) children.
            *visits += g.children(u).len();
            for &w in g.children(u) {
                if stamp_of[w.index()] != stamp {
                    stamp_of[w.index()] = stamp;
                    nodes.push(w);
                    queue.push(w);
                }
            }
        }
        // Include all alive parents of u.
        *visits += g.parents(u).len();
        for &p in g.parents(u) {
            if r.alive[p.index()] && stamp_of[p.index()] != stamp {
                stamp_of[p.index()] = stamp;
                nodes.push(p);
                queue.push(p);
            }
        }
    }
    nodes.sort_unstable();
    arena.put_nodes(queue);
    nodes
}

/// `low` value of a node whose component [`minimal_closure`] has
/// finished.
const FINISHED: u32 = u32::MAX;

/// Tables for [`minimal_closure`]'s Tarjan pass, taken from the arena on a
/// peel's first general search and returned when the peel ends, so
/// repeated searches allocate nothing.
struct SccScratch {
    /// DFS discovery index per node (valid while stamped).
    index: Vec<u32>,
    /// Tarjan lowlink per node; [`FINISHED`] once its component is done.
    low: Vec<u32>,
    /// Tarjan's stack: visited nodes whose component is still open.
    open: Vec<NodeId>,
    /// The DFS path.
    path: Vec<NodeId>,
    /// Per path entry: the next closure-graph adjacency entry to examine.
    cursor: Vec<u32>,
    /// Per path entry: whether a closure-graph arc from the entry's DFS
    /// subtree leaves the entry's component.
    leaves: Vec<bool>,
}

impl SccScratch {
    fn take(arena: &mut ScratchArena, n: usize) -> Self {
        let mut index = arena.take_u32s();
        index.resize(n, 0);
        let mut low = arena.take_u32s();
        low.resize(n, 0);
        SccScratch {
            index,
            low,
            open: arena.take_nodes(),
            path: arena.take_nodes(),
            cursor: arena.take_u32s(),
            leaves: arena.take_bools(),
        }
    }

    fn put(self, arena: &mut ScratchArena) {
        arena.put_u32s(self.index);
        arena.put_u32s(self.low);
        arena.put_nodes(self.open);
        arena.put_nodes(self.path);
        arena.put_u32s(self.cursor);
        arena.put_bools(self.leaves);
    }

    /// Discovers `v`: numbers it and pushes it on the open stack and the
    /// DFS path.
    fn discover(&mut self, v: NodeId, next_index: &mut u32) {
        self.index[v.index()] = *next_index;
        self.low[v.index()] = *next_index;
        *next_index += 1;
        self.open.push(v);
        self.path.push(v);
        self.cursor.push(0);
        self.leaves.push(false);
    }
}

/// The linear general search. In the remnant's closure graph H every
/// alive node points to its alive parents and every remnant source also
/// to its children, so `C(s)` is the set H reaches from `s`. Every alive
/// non-source has an alive parent, so every node of H reaches a source;
/// hence `C(s)` is containment-minimal exactly when no H-arc leaves `s`'s
/// strongly connected component — an arc into another component reaches
/// a source whose closure `C(s)` strictly contains — and then `C(s)` *is*
/// that component. One iterative Tarjan pass from `srcs` (ascending)
/// finishes each component with its "an arc leaves" flag, and the best
/// closed component with a source wins by the per-source search's rule:
/// smallest size, then smallest source id. Each node and adjacency entry
/// is visited once: O(V + E). Returns the sorted node set.
fn minimal_closure(
    r: Remnant,
    srcs: impl Iterator<Item = NodeId>,
    stamp_of: &mut [u32],
    stamp: u32,
    scc: &mut SccScratch,
    arena: &mut ScratchArena,
    visits: &mut usize,
) -> Vec<NodeId> {
    let mut best = arena.take_nodes();
    let mut best_key: Option<(usize, NodeId)> = None;
    let mut next_index = 0u32;
    for s in srcs {
        if stamp_of[s.index()] == stamp {
            continue;
        }
        stamp_of[s.index()] = stamp;
        scc.discover(s, &mut next_index);
        while let Some(&v) = scc.path.last() {
            let top = scc.path.len() - 1;
            if let Some(w) = r.closure_arc(v, scc.cursor[top] as usize) {
                scc.cursor[top] += 1;
                *visits += 1;
                if !r.alive[w.index()] {
                    continue;
                }
                if stamp_of[w.index()] != stamp {
                    stamp_of[w.index()] = stamp;
                    scc.discover(w, &mut next_index);
                } else if scc.low[w.index()] == FINISHED {
                    scc.leaves[top] = true;
                } else {
                    // w is open, hence in v's component.
                    scc.low[v.index()] = scc.low[v.index()].min(scc.index[w.index()]);
                }
                continue;
            }
            // v's adjacency is exhausted: retreat.
            scc.path.pop();
            scc.cursor.pop();
            let leaves = scc.leaves.pop().expect("one flag per path entry");
            if scc.low[v.index()] == scc.index[v.index()] {
                // v roots a component: the open stack from v up.
                let at = scc
                    .open
                    .iter()
                    .rposition(|&u| u == v)
                    .expect("a root is open");
                let comp = &scc.open[at..];
                let src = comp
                    .iter()
                    .copied()
                    .filter(|u| r.alive_indeg[u.index()] == 0)
                    .min();
                if let (false, Some(src)) = (leaves, src) {
                    let key = (comp.len(), src);
                    if best_key.is_none_or(|b| key < b) {
                        best_key = Some(key);
                        best.clear();
                        best.extend_from_slice(comp);
                    }
                }
                for &u in comp {
                    scc.low[u.index()] = FINISHED;
                }
                scc.open.truncate(at);
                // The tree arc into v leaves the DFS parent's component.
                if let Some(parent_leaves) = scc.leaves.last_mut() {
                    *parent_leaves = true;
                }
            } else {
                // v's DFS parent is in v's component.
                let parent = *scc.path.last().expect("a non-root has a DFS parent");
                scc.low[parent.index()] = scc.low[parent.index()].min(scc.low[v.index()]);
                *scc.leaves.last_mut().expect("parent flag") |= leaves;
            }
        }
    }
    assert!(best_key.is_some(), "at least one source exists");
    best.sort_unstable();
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_workloads::inspiral::{inspiral, InspiralParams};
    use prio_workloads::random_dag::{forward_pairs, layered, LayeredParams};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn decompose_default(g: &Dag) -> Decomposition {
        decompose(g, DecomposeOptions::default())
    }

    /// The part's non-sinks (global ids, sorted) — the jobs it contributes
    /// to the global schedule.
    fn nonsinks(part: Part<'_>) -> Vec<NodeId> {
        let local = part.local;
        local
            .node_ids()
            .filter(|&l| !local.is_sink(l))
            .map(|l| part.nodes[l.index()])
            .collect()
    }

    /// Every non-sink of `g` must be scheduled by exactly one part, and
    /// every node removed exactly once.
    fn check_invariants(g: &Dag, dec: &Decomposition) {
        let mut removed_by = vec![usize::MAX; g.num_nodes()];
        let mut nonsink_owner = vec![usize::MAX; g.num_nodes()];
        for (i, part) in dec.parts.iter().enumerate() {
            for &u in part.removed {
                assert_eq!(removed_by[u.index()], usize::MAX, "{u:?} removed twice");
                removed_by[u.index()] = i;
            }
            for u in nonsinks(part) {
                assert_eq!(
                    nonsink_owner[u.index()],
                    usize::MAX,
                    "{u:?} scheduled twice"
                );
                nonsink_owner[u.index()] = i;
            }
        }
        for u in g.node_ids() {
            assert_ne!(removed_by[u.index()], usize::MAX, "{u:?} never removed");
            assert_eq!(removed_by[u.index()], dec.comp_removed[u.index()] as usize);
            if !g.is_sink(u) {
                assert_ne!(
                    nonsink_owner[u.index()],
                    usize::MAX,
                    "non-sink {u:?} unscheduled"
                );
            } else {
                assert_eq!(
                    nonsink_owner[u.index()],
                    usize::MAX,
                    "sink {u:?} scheduled early"
                );
            }
        }
        // Superdag arcs all point forward in detach order.
        for (a, b) in dec.superdag.arcs() {
            assert!(a < b);
        }
        assert_eq!(dec.superdag.num_nodes(), dec.parts.len());
    }

    #[test]
    fn fig3_decomposes_into_two_bipartite_parts() {
        let g = Dag::from_arcs(5, &[(0, 1), (2, 3), (2, 4)]).unwrap();
        let dec = decompose_default(&g);
        check_invariants(&g, &dec);
        assert_eq!(dec.parts.len(), 2);
        assert!(dec.parts.iter().all(|p| p.bipartite && p.via_fast_path));
        assert_eq!(dec.superdag.num_arcs(), 0);
        assert_eq!(dec.general_search_iterations, 0);
        let sizes: Vec<usize> = dec.parts.iter().map(|p| p.nodes.len()).collect();
        assert_eq!(sizes, vec![2, 3]);
    }

    #[test]
    fn chain_peels_one_link_at_a_time() {
        let g = Dag::from_arcs(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let dec = decompose_default(&g);
        check_invariants(&g, &dec);
        assert_eq!(dec.parts.len(), 3);
        // Superdag is itself a chain.
        assert_eq!(dec.superdag.num_arcs(), 2);
        assert!(dec.superdag.has_arc(NodeId(0), NodeId(1)));
        assert!(dec.superdag.has_arc(NodeId(1), NodeId(2)));
    }

    #[test]
    fn diamond_becomes_fork_then_join() {
        let g = Dag::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let dec = decompose_default(&g);
        check_invariants(&g, &dec);
        assert_eq!(dec.parts.len(), 2);
        assert_eq!(dec.parts.get(0).nodes.len(), 3); // {0,1,2}: the fork
        assert_eq!(dec.parts.get(1).nodes.len(), 3); // {1,2,3}: the join
        assert!(dec.superdag.has_arc(NodeId(0), NodeId(1)));
    }

    #[test]
    fn shared_sink_survives_and_reappears_as_source() {
        // 0 -> 1 -> 2: part 0 = {0,1} detaches only node 0; node 1
        // reappears as the source of part 1.
        let g = Dag::from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
        let dec = decompose_default(&g);
        assert_eq!(dec.parts.get(0).removed, [NodeId(0)]);
        assert!(dec.parts.get(0).nodes.contains(&NodeId(1)));
        assert!(dec.parts.get(1).nodes.contains(&NodeId(1)));
        assert_eq!(dec.comp_removed[1], 1);
    }

    /// Both sources' closures include internal nodes, so no bipartite
    /// block exists: 0->4, 2->4, 1->2, 1->5, 3->5, 0->3.
    fn entangled_dag() -> Dag {
        Dag::from_arcs(6, &[(0, 4), (2, 4), (1, 2), (1, 5), (3, 5), (0, 3)]).unwrap()
    }

    #[test]
    fn entangled_dag_falls_back_to_general_search() {
        let g = entangled_dag();
        let dec = decompose_default(&g);
        check_invariants(&g, &dec);
        assert_eq!(dec.parts.len(), 1);
        assert!(!dec.parts.get(0).bipartite);
        assert!(!dec.parts.get(0).via_fast_path);
        assert_eq!(dec.general_search_iterations, 1);
        assert_eq!(dec.parts.get(0).nodes.len(), 6);
    }

    #[test]
    fn fast_path_off_matches_fast_path_on_for_bipartite_compositions() {
        // A dag assembled from bipartite blocks: both paths must produce
        // the same parts (the generalized decomposition coincides with the
        // block decomposition there).
        let g = Dag::from_arcs(
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
        let with = decompose(&g, DecomposeOptions { fast_path: true });
        let without = decompose(&g, DecomposeOptions { fast_path: false });
        check_invariants(&g, &with);
        check_invariants(&g, &without);
        let nodes = |d: &Decomposition| -> Vec<Vec<NodeId>> {
            d.parts.iter().map(|p| p.nodes.to_vec()).collect()
        };
        assert_eq!(nodes(&with), nodes(&without));
        assert!(without.general_search_iterations > 0);
        assert_eq!(with.general_search_iterations, 0);
    }

    #[test]
    fn isolated_nodes_are_their_own_parts() {
        let g = Dag::from_arcs(3, &[]).unwrap();
        let dec = decompose_default(&g);
        check_invariants(&g, &dec);
        assert_eq!(dec.parts.len(), 3);
        assert!(dec.parts.iter().all(|p| p.nodes.len() == 1));
        assert!(dec.parts.iter().all(|p| nonsinks(p).is_empty()));
    }

    #[test]
    fn empty_dag() {
        let g = prio_graph::DagBuilder::new().build().unwrap();
        let dec = decompose_default(&g);
        assert!(dec.parts.is_empty());
        assert_eq!(dec.superdag.num_nodes(), 0);
    }

    #[test]
    fn w_dag_is_a_single_block() {
        let (g, _) = crate::families::w_dag(4, 3);
        let dec = decompose_default(&g);
        check_invariants(&g, &dec);
        assert_eq!(dec.parts.len(), 1);
        assert!(dec.parts.get(0).bipartite);
        assert_eq!(nonsinks(dec.parts.get(0)).len(), 4);
    }

    /// A random topological order of `g`: Kahn's algorithm picking a
    /// uniformly random ready node each step.
    fn random_topo_order(g: &Dag, rng: &mut SmallRng) -> Vec<NodeId> {
        let mut indeg: Vec<usize> = g.node_ids().map(|u| g.in_degree(u)).collect();
        let mut ready: Vec<NodeId> = g.sources().collect();
        let mut order = Vec::with_capacity(g.num_nodes());
        while !ready.is_empty() {
            let u = ready.swap_remove(rng.gen_range(0..ready.len()));
            order.push(u);
            for &v in g.children(u) {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    ready.push(v);
                }
            }
        }
        order
    }

    /// The remnant left by removing `removed`: alive flags and alive
    /// in-degrees, as `peel` keeps them.
    fn remnant_state(g: &Dag, removed: &[NodeId]) -> (Vec<bool>, Vec<u32>) {
        let mut alive = vec![true; g.num_nodes()];
        for &u in removed {
            alive[u.index()] = false;
        }
        let alive_indeg = g
            .node_ids()
            .map(|u| g.parents(u).iter().filter(|p| alive[p.index()]).count() as u32)
            .collect();
        (alive, alive_indeg)
    }

    /// Whether some remnant source grows a bipartite block, i.e. whether
    /// the fast path would detach one instead of searching.
    fn has_bipartite_block(r: Remnant) -> bool {
        let g = r.g;
        let is_source = |u: NodeId| r.alive[u.index()] && r.alive_indeg[u.index()] == 0;
        let blocking: Vec<u32> = g
            .node_ids()
            .map(|w| {
                let parents = g.parents(w).iter();
                parents
                    .filter(|&&p| r.alive[p.index()] && !is_source(p))
                    .count() as u32
            })
            .collect();
        let mut stamp_of = vec![0u32; g.num_nodes()];
        let (mut nodes, mut visited, mut queue) = (Vec::new(), Vec::new(), Vec::new());
        let mut visits = 0;
        g.node_ids()
            .filter(|&s| is_source(s))
            .enumerate()
            .any(|(i, s)| {
                let stamp = i as u32 + 1;
                let attempt = bipartite_block(
                    g,
                    r.alive,
                    &blocking,
                    s,
                    &mut stamp_of,
                    stamp,
                    &mut nodes,
                    &mut visited,
                    &mut queue,
                    &mut visits,
                );
                attempt.is_ok()
            })
    }

    /// Runs both general searches on the remnant and returns their picks.
    fn both_searches(r: Remnant) -> (Vec<NodeId>, Vec<NodeId>) {
        let n = r.g.num_nodes();
        let srcs: Vec<NodeId> =
            r.g.node_ids()
                .filter(|u| r.alive[u.index()] && r.alive_indeg[u.index()] == 0)
                .collect();
        let mut arena = ScratchArena::new();
        let mut stamp_of = vec![0u32; n];
        let mut stamp = 1;
        let mut visits = 0;
        let mut scc = SccScratch::take(&mut arena, n);
        let linear = minimal_closure(
            r,
            srcs.iter().copied(),
            &mut stamp_of,
            stamp,
            &mut scc,
            &mut arena,
            &mut visits,
        );
        let oracle = minimal_closure_per_source(
            r,
            &srcs,
            &mut stamp_of,
            &mut stamp,
            &mut arena,
            &mut visits,
        );
        (linear, oracle)
    }

    /// A base dag for the oracle test, by kind. A remnant of a plain
    /// layered dag always has a bipartite block (any source in the lowest
    /// alive layer grows one), so the layered kind adds random arcs that
    /// skip one layer.
    fn oracle_base(kind: u8, rng: &mut SmallRng) -> Dag {
        match kind {
            0 => {
                let (layers, width) = (rng.gen_range(3..6), rng.gen_range(2..6));
                let p = LayeredParams {
                    layers,
                    width,
                    arc_prob: 0.2 + 0.4 * rng.gen::<f64>(),
                };
                let base = layered(p, rng);
                let mut arcs: Vec<(u32, u32)> = base.arcs().map(|(u, v)| (u.0, v.0)).collect();
                for u in 0..(layers - 2) * width {
                    let next_next = (u / width + 2) * width;
                    for v in next_next..next_next + width {
                        if rng.gen_bool(0.15) {
                            arcs.push((u as u32, v as u32));
                        }
                    }
                }
                Dag::from_arcs(layers * width, &arcs).unwrap()
            }
            1 => forward_pairs(rng.gen_range(4..16), 0.15 + 0.35 * rng.gen::<f64>(), rng),
            2 => entangled_dag(),
            _ => inspiral(InspiralParams {
                pre_width: rng.gen_range(1..4),
                ring_k: rng.gen_range(2..6),
                post_width: rng.gen_range(1..4),
            }),
        }
    }

    /// Two disjoint copies of `base` under a random node numbering, and
    /// each copy's base-id → id map.
    fn twin_copies(base: &Dag, rng: &mut SmallRng) -> (Dag, Vec<Vec<u32>>) {
        let n = base.num_nodes();
        let mut ids: Vec<u32> = (0..2 * n as u32).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..i + 1));
        }
        let copies = vec![ids[..n].to_vec(), ids[n..].to_vec()];
        let arcs: Vec<(u32, u32)> = base
            .arcs()
            .flat_map(|(u, v)| copies.iter().map(move |c| (c[u.index()], c[v.index()])))
            .collect();
        (Dag::from_arcs(2 * n, &arcs).unwrap(), copies)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The linear search picks the same closure as the per-source
        /// search — same nodes, same smallest-size/smallest-id tie-break —
        /// on every descendant-closed remnant (a suffix of a random
        /// topological order) that has no bipartite block, i.e. on every
        /// remnant where the fast path falls back to the general search.
        /// `twin` cuts two renumbered copies of the base alike, so every
        /// minimal closure has an equal-size twin, the smallest-source-id
        /// tie-break decides, and DFS order no longer follows id order.
        #[test]
        fn linear_search_matches_per_source_oracle(
            kind in 0u8..4,
            twin in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let base = oracle_base(kind, &mut rng);
            let order = random_topo_order(&base, &mut rng);
            let (g, copies) = if twin {
                twin_copies(&base, &mut rng)
            } else {
                let identity = base.node_ids().map(|u| u.0).collect();
                (base, vec![identity])
            };
            let mut searched = 0;
            for cut in 0..order.len() {
                let removed: Vec<NodeId> = copies
                    .iter()
                    .flat_map(|c| order[..cut].iter().map(|u| NodeId(c[u.index()])))
                    .collect();
                let (alive, alive_indeg) = remnant_state(&g, &removed);
                let r = Remnant { g: &g, alive: &alive, alive_indeg: &alive_indeg };
                if has_bipartite_block(r) {
                    continue;
                }
                searched += 1;
                let (linear, oracle) = both_searches(r);
                prop_assert_eq!(linear, oracle, "kind {} twin {} seed {} cut {}", kind, twin, seed, cut);
            }
            // The entangled dag has no bipartite block before any cut.
            prop_assert!(kind != 2 || searched > 0);
        }
    }

    #[test]
    fn both_arms_count_closure_visits() {
        let g = entangled_dag();
        for fast_path in [true, false] {
            let dec = decompose(&g, DecomposeOptions { fast_path });
            assert!(dec.closure_visits > 0, "fast_path {fast_path}");
        }
        let (g, _) = crate::families::w_dag(4, 3);
        assert_eq!(decompose_default(&g).closure_visits, 0);
    }
}
