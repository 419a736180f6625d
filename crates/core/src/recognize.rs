//! Recognizing catalog families in decomposed components (Recurse phase,
//! Step 3).
//!
//! "We check if each component Ci is (isomorphic to) a bipartite dag with a
//! known IC-optimal schedule. If so, we use an explicit IC-optimal
//! schedule." The recognizers here are exact — they verify the structural
//! characterization of each family — and return both the [`Family`] and the
//! concrete IC-optimal source order for the component at hand.

use crate::families::Family;
use prio_graph::bipartite::{is_bipartite_dag, is_weakly_connected_in};
use prio_graph::{DagView, NodeId};

/// Attempts to recognize `dag` (a connected bipartite component) as a
/// catalog family, returning the family and an IC-optimal source order.
///
/// Returns `None` for non-bipartite or unrecognized shapes (the caller then
/// falls back to the out-degree heuristic).
pub fn recognize<'a>(dag: impl Into<DagView<'a>>) -> Option<(Family, Vec<NodeId>)> {
    let mut order = Vec::new();
    let family = recognize_into(dag.into(), &mut RecognizeScratch::default(), &mut order)?;
    Some((family, order))
}

/// Reusable buffers for [`recognize_into`]; every recognizer clears what
/// it uses, so one scratch serves any number of dags of any size.
#[derive(Debug, Default)]
pub(crate) struct RecognizeScratch {
    /// The dag's sources, in index order.
    sources: Vec<NodeId>,
    /// The dag's sinks (isolated nodes included), in index order.
    sinks: Vec<NodeId>,
    /// Per-node marks: connectivity, emitted parents.
    flags: Vec<bool>,
    /// A DFS stack, or a walk along a path-shaped dag.
    walk: Vec<NodeId>,
    /// The M-dag's sinks along their sharing path.
    sink_order: Vec<NodeId>,
    /// The sharing-path builder's tables.
    sharing: SharingScratch,
}

/// Tables of [`sharing_path`].
#[derive(Debug, Default)]
struct SharingScratch {
    /// Per-node position in the candidate side.
    pos: Vec<u32>,
    /// Up to two sharing neighbours per side position.
    links: Vec<[u32; 2]>,
    /// How many of `links`' two slots are used.
    link_len: Vec<u8>,
}

/// One family's recognizer: on a match, appends the IC-optimal source order
/// to `order` and returns the family. A failed recognizer may leave
/// entries behind, which [`recognize_into`] truncates.
type Recognizer = fn(
    DagView<'_>,
    &[NodeId],
    &[NodeId],
    &mut RecognizeScratch,
    &mut Vec<NodeId>,
) -> Option<Family>;

/// [`recognize`] with caller-owned scratch: on a match, appends the
/// IC-optimal source order to `order`; otherwise leaves `order` as it
/// was. Allocates nothing once `scratch` has grown to the dag's size.
pub(crate) fn recognize_into(
    dag: DagView<'_>,
    scratch: &mut RecognizeScratch,
    order: &mut Vec<NodeId>,
) -> Option<Family> {
    if dag.num_nodes() < 2
        || !is_bipartite_dag(dag)
        || !is_weakly_connected_in(dag, &mut scratch.flags, &mut scratch.walk)
    {
        return None;
    }
    let mut sources = std::mem::take(&mut scratch.sources);
    let mut sinks = std::mem::take(&mut scratch.sinks);
    sources.clear();
    sinks.clear();
    for u in dag.node_ids() {
        if dag.out_degree(u) > 0 {
            sources.push(u);
        } else {
            sinks.push(u);
        }
    }
    let start = order.len();
    let mut found = None;
    if !sources.is_empty() && !sinks.is_empty() {
        let recognizers: [Recognizer; 5] = [
            recognize_clique,
            recognize_w,
            recognize_m,
            recognize_n,
            recognize_cycle,
        ];
        for recognizer in recognizers {
            found = recognizer(dag, &sources, &sinks, scratch, order);
            if found.is_some() {
                break;
            }
            order.truncate(start);
        }
    }
    scratch.sources = sources;
    scratch.sinks = sinks;
    found
}

/// Complete bipartite `K_{s,t}`: every source adjacent to every sink.
fn recognize_clique(
    dag: DagView<'_>,
    sources: &[NodeId],
    sinks: &[NodeId],
    _: &mut RecognizeScratch,
    order: &mut Vec<NodeId>,
) -> Option<Family> {
    let t = sinks.len();
    if sources.iter().all(|&u| dag.out_degree(u) == t) && dag.num_arcs() == sources.len() * t {
        order.extend_from_slice(sources);
        Some(Family::Clique {
            s: sources.len(),
            t,
        })
    } else {
        None
    }
}

/// `(s,d)`-W-dag: common source out-degree `d ≥ 2`, `s(d−1)+1` sinks of
/// in-degree 1 or 2, and the "shares a sink" relation on sources forms a
/// simple spanning path.
fn recognize_w(
    dag: DagView<'_>,
    sources: &[NodeId],
    sinks: &[NodeId],
    scratch: &mut RecognizeScratch,
    order: &mut Vec<NodeId>,
) -> Option<Family> {
    let s = sources.len();
    let d = dag.out_degree(sources[0]);
    if d < 2 || sources.iter().any(|&u| dag.out_degree(u) != d) {
        return None;
    }
    if sinks.len() != s * (d - 1) + 1 {
        return None;
    }
    if sinks
        .iter()
        .any(|&v| dag.in_degree(v) > 2 || dag.in_degree(v) == 0)
    {
        return None;
    }
    if s == 1 {
        // A star: the degenerate (1,d)-W.
        order.extend_from_slice(sources);
    } else {
        // The sharing path on sources.
        sharing_path(
            sources,
            |u| dag.children(u),
            |v| dag.parents(v),
            dag.num_nodes(),
            &mut scratch.sharing,
            order,
        )?;
    }
    Some(Family::W { s, d })
}

/// `(s,d)`-M-dag: the dual of the W-dag. Recognized by checking the W shape
/// on the arc-reversed component; the source order then emits each sink's
/// parent window in sink-path order.
fn recognize_m(
    dag: DagView<'_>,
    sources: &[NodeId],
    sinks: &[NodeId],
    scratch: &mut RecognizeScratch,
    order: &mut Vec<NodeId>,
) -> Option<Family> {
    let s = sinks.len();
    let d = dag.in_degree(sinks[0]);
    if d < 2 || sinks.iter().any(|&v| dag.in_degree(v) != d) {
        return None;
    }
    if sources.len() != s * (d - 1) + 1 {
        return None;
    }
    if sources
        .iter()
        .any(|&u| dag.out_degree(u) > 2 || dag.out_degree(u) == 0)
    {
        return None;
    }
    let sink_order = &mut scratch.sink_order;
    sink_order.clear();
    if s == 1 {
        sink_order.extend_from_slice(sinks);
    } else {
        // The sharing path on sinks (two sinks adjacent iff they share a
        // parent) — exactly the W structure of the reversed dag.
        sharing_path(
            sinks,
            |v| dag.parents(v),
            |u| dag.children(u),
            dag.num_nodes(),
            &mut scratch.sharing,
            sink_order,
        )?;
    }
    // Emit each window's not-yet-emitted parents, window by window.
    let emitted = &mut scratch.flags;
    emitted.clear();
    emitted.resize(dag.num_nodes(), false);
    let start = order.len();
    for &w in sink_order.iter() {
        for &p in dag.parents(w) {
            if !emitted[p.index()] {
                emitted[p.index()] = true;
                order.push(p);
            }
        }
    }
    if order.len() - start != sources.len() {
        return None;
    }
    Some(Family::M { s, d })
}

/// `d`-N-dag: the underlying undirected graph is a simple path whose
/// endpoints are one source and one sink. The IC-optimal order lists the
/// sources starting from the sink endpoint's side.
fn recognize_n(
    dag: DagView<'_>,
    sources: &[NodeId],
    sinks: &[NodeId],
    scratch: &mut RecognizeScratch,
    order: &mut Vec<NodeId>,
) -> Option<Family> {
    if sources.len() != sinks.len() {
        return None;
    }
    let d = sources.len();
    if d < 2 {
        return None;
    }
    let path = &mut scratch.walk;
    underlying_path(dag, path)?;
    let first = *path.first().expect("path non-empty");
    let last = *path.last().expect("path non-empty");
    // Walk from the sink endpoint; sources appear in optimal order.
    let start = order.len();
    let from_sink = path.iter().copied().filter(|&u| !dag.is_sink(u));
    match (dag.is_sink(first), dag.is_sink(last)) {
        (true, false) => order.extend(from_sink),
        (false, true) => order.extend(from_sink.rev()),
        _ => return None, // both same kind: that is a W or M, not an N
    }
    if order.len() - start != d {
        return None;
    }
    Some(Family::N { d })
}

/// `d`-Cycle-dag: the underlying undirected graph is a single cycle of
/// length `2d`, alternating sources (out-degree 2) and sinks (in-degree 2).
fn recognize_cycle(
    dag: DagView<'_>,
    sources: &[NodeId],
    sinks: &[NodeId],
    _: &mut RecognizeScratch,
    order: &mut Vec<NodeId>,
) -> Option<Family> {
    let d = sources.len();
    if d < 3 || sinks.len() != d {
        return None;
    }
    if sources.iter().any(|&u| dag.out_degree(u) != 2)
        || sinks.iter().any(|&v| dag.in_degree(v) != 2)
    {
        return None;
    }
    if dag.num_arcs() != 2 * d {
        return None;
    }
    // Walk the ring starting at the smallest-index source.
    let start = sources[0];
    let first = order.len();
    let mut prev: Option<NodeId> = None;
    let mut cur = start;
    for _ in 0..2 * d {
        if !dag.is_sink(cur) {
            order.push(cur);
        }
        let next = neighbors(dag, cur).find(|&w| Some(w) != prev)?;
        prev = Some(cur);
        cur = next;
    }
    if cur != start || order.len() - first != d {
        return None; // not a single ring
    }
    Some(Family::Cycle { d })
}

/// Undirected neighbors of `u` (children, then parents; disjoint in a DAG).
fn neighbors<'a>(dag: DagView<'a>, u: NodeId) -> impl Iterator<Item = NodeId> + 'a {
    dag.children(u).iter().chain(dag.parents(u)).copied()
}

/// If the underlying undirected graph is a simple path, fills `walk` with
/// its nodes in path order (from the endpoint with the smaller node index).
fn underlying_path(dag: DagView<'_>, walk: &mut Vec<NodeId>) -> Option<()> {
    let n = dag.num_nodes();
    let mut endpoints = [NodeId(0); 2];
    let mut num_endpoints = 0;
    for u in dag.node_ids() {
        match dag.in_degree(u) + dag.out_degree(u) {
            1 => {
                if num_endpoints < 2 {
                    endpoints[num_endpoints] = u;
                }
                num_endpoints += 1;
            }
            2 => {}
            _ => return None,
        }
    }
    if num_endpoints != 2 || dag.num_arcs() != n - 1 {
        return None;
    }
    walk_path(dag, endpoints[0].min(endpoints[1]), walk);
    (walk.len() == n).then_some(())
}

/// Walks a degree-≤2 graph from an endpoint, filling `walk` with the nodes
/// in visit order.
fn walk_path(dag: DagView<'_>, start: NodeId, walk: &mut Vec<NodeId>) {
    walk.clear();
    walk.push(start);
    let mut prev: Option<NodeId> = None;
    let mut cur = start;
    while let Some(w) = neighbors(dag, cur).find(|&w| Some(w) != prev) {
        walk.push(w);
        prev = Some(cur);
        cur = w;
    }
}

/// Orders `side` along the "shares a middle node" relation and appends
/// the order to `out`: `fwd(x)` lists each candidate's middle nodes and
/// `bwd(m)` the candidates incident to a middle node (every one of them
/// in `side`). The relation must form a simple spanning path, each
/// adjacent pair sharing exactly one middle node; otherwise `None`.
///
/// W-dags order their sources this way (middles are sinks), M-dags their
/// sinks (middles are sources).
fn sharing_path<'a>(
    side: &[NodeId],
    fwd: impl Fn(NodeId) -> &'a [NodeId],
    bwd: impl Fn(NodeId) -> &'a [NodeId],
    n: usize,
    scratch: &mut SharingScratch,
    out: &mut Vec<NodeId>,
) -> Option<()> {
    let s = side.len();
    let SharingScratch {
        pos,
        links,
        link_len,
    } = scratch;
    pos.clear();
    pos.resize(n, u32::MAX);
    for (i, &u) in side.iter().enumerate() {
        pos[u.index()] = i as u32;
    }
    links.clear();
    links.resize(s, [0; 2]);
    link_len.clear();
    link_len.resize(s, 0);
    // Links `a` to `b`; fails when the pair shares a second middle or `a`
    // would get a third neighbour — neither is a path.
    let mut link = |a: u32, b: u32| -> Option<()> {
        let len = link_len[a as usize] as usize;
        let list = &mut links[a as usize];
        if list[..len].contains(&b) || len == 2 {
            return None;
        }
        list[len] = b;
        link_len[a as usize] += 1;
        Some(())
    };
    let mut shared_middles = 0usize;
    for &u in side {
        for &mid in fwd(u) {
            for &other in bwd(mid) {
                let (a, b) = (pos[u.index()], pos[other.index()]);
                if a < b {
                    link(a, b)?;
                    link(b, a)?;
                    shared_middles += 1;
                }
            }
        }
    }
    // Exactly s−1 shared middles, each linking a distinct pair.
    if shared_middles != s - 1 {
        return None;
    }
    if s == 1 {
        out.push(side[0]);
        return Some(());
    }
    let mut endpoints = (0..s as u32).filter(|&i| link_len[i as usize] == 1);
    let (Some(e0), Some(e1), None) = (endpoints.next(), endpoints.next(), endpoints.next()) else {
        return None;
    };
    // Walk from the endpoint whose node index is smaller (determinism).
    let mut cur = if side[e0 as usize] <= side[e1 as usize] {
        e0
    } else {
        e1
    };
    let mut prev = u32::MAX;
    let start = out.len();
    for _ in 0..s {
        out.push(side[cur as usize]);
        let list = &links[cur as usize][..link_len[cur as usize] as usize];
        match list.iter().copied().find(|&w| w != prev) {
            Some(w) => {
                prev = cur;
                cur = w;
            }
            None => break,
        }
    }
    // A shorter walk means the sharing graph was disconnected (path +
    // cycle pieces).
    (out.len() - start == s).then_some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{clique_dag, cycle_dag, m_dag, n_dag, w_dag};
    use crate::optimal::is_source_order_ic_optimal;
    use prio_graph::Dag;

    /// Relabel a dag's nodes by a rotation permutation to make sure the
    /// recognizers do not depend on construction order.
    fn rotate(dag: &Dag, by: usize) -> Dag {
        let n = dag.num_nodes();
        let perm: Vec<NodeId> = (0..n).map(|i| NodeId(((i + by) % n) as u32)).collect();
        dag.induced_subgraph(&perm).0
    }

    fn assert_recognized(dag: &Dag, expect: Family) {
        let (fam, order) =
            recognize(dag).unwrap_or_else(|| panic!("{} not recognized", expect.name()));
        assert_eq!(fam, expect);
        assert_eq!(
            is_source_order_ic_optimal(dag, &order),
            Some(true),
            "recognized order for {} must be IC-optimal",
            expect.name()
        );
    }

    #[test]
    fn recognizes_w_dags() {
        for (s, d) in [(1, 2), (2, 2), (3, 2), (4, 3), (2, 5)] {
            let (dag, _) = w_dag(s, d);
            // (1,d)-W is also a complete bipartite K_{1,d}; the clique
            // recognizer fires first there, which is equally optimal.
            if s == 1 {
                let (fam, order) = recognize(&dag).unwrap();
                assert!(matches!(fam, Family::Clique { s: 1, .. }));
                assert_eq!(is_source_order_ic_optimal(&dag, &order), Some(true));
            } else {
                assert_recognized(&dag, Family::W { s, d });
                assert_recognized(&rotate(&dag, 3), Family::W { s, d });
            }
        }
    }

    #[test]
    fn recognizes_m_dags() {
        for (s, d) in [(2, 5), (3, 2), (4, 3)] {
            let (dag, _) = m_dag(s, d);
            assert_recognized(&dag, Family::M { s, d });
            assert_recognized(&rotate(&dag, 2), Family::M { s, d });
        }
        // (1,d)-M is the complete bipartite K_{d,1}; the clique recognizer
        // fires first, which is equally IC-optimal.
        let (dag, _) = m_dag(1, 5);
        let (fam, order) = recognize(&dag).unwrap();
        assert_eq!(fam, Family::Clique { s: 5, t: 1 });
        assert_eq!(is_source_order_ic_optimal(&dag, &order), Some(true));
    }

    #[test]
    fn recognizes_n_dags() {
        for d in [2, 3, 5, 8] {
            let (dag, _) = n_dag(d);
            assert_recognized(&dag, Family::N { d });
            assert_recognized(&rotate(&dag, 1), Family::N { d });
        }
    }

    #[test]
    fn recognizes_cycles() {
        for d in [3, 4, 6] {
            let (dag, _) = cycle_dag(d);
            assert_recognized(&dag, Family::Cycle { d });
            assert_recognized(&rotate(&dag, 5), Family::Cycle { d });
        }
    }

    #[test]
    fn recognizes_cliques() {
        for (s, t) in [(1, 1), (3, 3), (2, 4), (4, 2)] {
            let (dag, _) = clique_dag(s, t);
            assert_recognized(&dag, Family::Clique { s, t });
        }
    }

    #[test]
    fn rejects_non_bipartite() {
        let chain = Dag::from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(recognize(&chain).is_none());
    }

    #[test]
    fn rejects_disconnected() {
        let two_arcs = Dag::from_arcs(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(recognize(&two_arcs).is_none());
    }

    #[test]
    fn rejects_irregular_bipartite() {
        // Bipartite but no family: source degrees 2 and 3 with a sink of
        // in-degree 3.
        let d = Dag::from_arcs(6, &[(0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 3)]).unwrap();
        assert!(recognize(&d).is_none());
    }

    #[test]
    fn rejects_single_node() {
        let d = Dag::from_arcs(1, &[]).unwrap();
        assert!(recognize(&d).is_none());
    }

    #[test]
    fn fig2_catalog_roundtrips_through_recognition() {
        for fam in Family::fig2_catalog() {
            let (dag, _) = fam.instantiate();
            let (got, order) = recognize(&dag).expect("catalog instance recognized");
            // (1,d)-W aliases K_{1,d} and (1,d)-M aliases K_{d,1}; all
            // others round-trip exactly.
            if !matches!(fam, Family::W { s: 1, .. } | Family::M { s: 1, .. }) {
                assert_eq!(got, fam, "family mismatch for {}", fam.name());
            }
            assert_eq!(is_source_order_ic_optimal(&dag, &order), Some(true));
        }
    }
}
