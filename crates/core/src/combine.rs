//! The greedy Combine phase (Step 6).
//!
//! Repeatedly pick, among the *sources* of the remnant superdag, a
//! supernode `C'i` maximizing
//! `p_i = min_{j ≠ i} (priority of C'i over C'j)` — intuitively the
//! supernode whose immediate execution forfeits the least eligibility in
//! the worst case — then remove it and expose its superdag children.
//!
//! Two engines implement the same selection rule:
//!
//! * [`CombineEngine::Naive`] recomputes every pairwise priority from the
//!   raw profiles at every step — the quadratic algorithm the paper first
//!   tried.
//! * [`CombineEngine::ClassHeap`] interns profiles into classes, caches
//!   pairwise priorities per class pair, groups current sources by class
//!   (keyed in ordered maps), and recomputes the per-class minima only when
//!   the *set of distinct classes* present changes — the engineered
//!   replacement (the paper used a B-tree priority queue; the win comes
//!   from the same observation that scientific dags contain very few
//!   distinct component shapes).
//!
//! Both engines break ties toward the smallest component index, so they
//! produce identical orders (asserted by tests), and the order is always a
//! linear extension of the superdag.

use crate::priority::{priority_over, PriorityCache};
use crate::profile::{ProfileClass, ProfileInterner};
use prio_graph::{Dag, NodeId};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Selects the implementation of the greedy combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CombineEngine {
    /// Recompute all pairwise priorities every step (paper's first,
    /// quadratic implementation).
    Naive,
    /// Profile-class interning + priority caching + per-class source
    /// heaps (paper's engineered implementation).
    #[default]
    ClassHeap,
}

/// Greedily orders the supernodes of `superdag`, whose node `i` carries
/// eligibility profile `profiles[i]`. Returns the execution order of
/// component indices (a linear extension of `superdag`).
///
/// Profiles are taken by reference (`&[usize]`, `Vec<usize>`, … all work),
/// so the pipeline can pass the components' own profile vectors without
/// cloning them per call.
pub fn combine<P: AsRef<[usize]>>(
    superdag: &Dag,
    profiles: &[P],
    engine: CombineEngine,
) -> Vec<usize> {
    combine_in(superdag, profiles, engine, &mut CombineScratch::default())
}

/// The class engine's working tables, kept by the caller
/// ([`crate::PrioContext`]) so repeated runs reuse their capacity.
#[derive(Debug, Default)]
pub(crate) struct CombineScratch {
    /// Remaining superdag in-degree per supernode.
    indeg: Vec<u32>,
    /// Profile class per supernode.
    class_of: Vec<ProfileClass>,
    /// Current sources of each class, as min-heaps of supernode indices.
    members: Vec<BinaryHeap<Reverse<u32>>>,
    /// Classes with at least one current source, ascending.
    present: Vec<ProfileClass>,
    /// Worst-case priority per present class, valid while the set of
    /// present classes (and which of them have rivals) is unchanged.
    cached_p: Vec<f64>,
}

/// [`combine`] with the class engine's tables borrowed from `scratch`.
pub(crate) fn combine_in<P: AsRef<[usize]>>(
    superdag: &Dag,
    profiles: &[P],
    engine: CombineEngine,
    scratch: &mut CombineScratch,
) -> Vec<usize> {
    assert_eq!(
        superdag.num_nodes(),
        profiles.len(),
        "one profile per supernode"
    );
    let _span = prio_obs::span(prio_obs::Stage::Combine);
    match engine {
        CombineEngine::Naive => combine_naive(superdag, profiles),
        CombineEngine::ClassHeap => combine_class_heap(superdag, profiles, scratch),
    }
}
fn combine_naive<P: AsRef<[usize]>>(superdag: &Dag, profiles: &[P]) -> Vec<usize> {
    let n = superdag.num_nodes();
    let mut indeg: Vec<usize> = superdag.node_ids().map(|u| superdag.in_degree(u)).collect();
    let mut sources: BTreeSet<usize> = superdag.sources().map(|u| u.index()).collect();
    let mut order = Vec::with_capacity(n);
    while !sources.is_empty() {
        // p_i = min over other sources j of priority(i over j); a lone
        // source has worst-case priority 1.
        let mut best: Option<(f64, usize)> = None;
        for &i in &sources {
            let mut p_i = 1.0f64;
            for &j in &sources {
                if i != j {
                    let p = priority_over(profiles[i].as_ref(), profiles[j].as_ref());
                    if p < p_i {
                        p_i = p;
                    }
                }
            }
            let better = match best {
                None => true,
                Some((bp, bi)) => p_i > bp || (p_i == bp && i < bi),
            };
            if better {
                best = Some((p_i, i));
            }
        }
        let (_, chosen) = best.expect("sources non-empty");
        sources.remove(&chosen);
        order.push(chosen);
        for &v in superdag.children(NodeId(chosen as u32)) {
            indeg[v.index()] -= 1;
            if indeg[v.index()] == 0 {
                sources.insert(v.index());
            }
        }
    }
    debug_assert_eq!(order.len(), n, "superdag is acyclic");
    order
}

fn combine_class_heap<P: AsRef<[usize]>>(
    superdag: &Dag,
    profiles: &[P],
    scratch: &mut CombineScratch,
) -> Vec<usize> {
    let n = superdag.num_nodes();
    let CombineScratch {
        indeg,
        class_of,
        members,
        present,
        cached_p,
    } = scratch;
    let mut interner = ProfileInterner::new();
    class_of.clear();
    class_of.extend(profiles.iter().map(|p| interner.intern(p.as_ref())));
    let num_classes = interner.num_classes();
    let mut cache = PriorityCache::new();

    indeg.clear();
    indeg.extend(superdag.node_ids().map(|u| superdag.in_degree(u) as u32));
    if members.len() < num_classes {
        members.resize_with(num_classes, BinaryHeap::new);
    }
    members.iter_mut().for_each(BinaryHeap::clear);
    cached_p.clear();
    cached_p.resize(num_classes, 1.0);
    present.clear();
    // Adds supernode `u` to its class's current sources; returns the
    // class's new source count.
    let add = |u: usize, members: &mut [BinaryHeap<Reverse<u32>>], present: &mut Vec<_>| {
        let c = class_of[u];
        let heap = &mut members[c];
        if heap.is_empty() {
            let at = present.partition_point(|&p| p < c);
            present.insert(at, c);
        }
        heap.push(Reverse(u as u32));
        heap.len()
    };
    for u in superdag.sources() {
        add(u.index(), members, present);
    }
    // The cached per-class worst-case priorities stay valid as long as
    // the set of distinct classes present (with count-1 vs count-many
    // distinction) is unchanged.
    let mut cache_valid = false;

    let mut order = Vec::with_capacity(n);
    while !present.is_empty() {
        if !cache_valid {
            for &c in present.iter() {
                let mut p = 1.0f64;
                for &c2 in present.iter() {
                    if c2 == c && members[c].len() < 2 {
                        continue; // no *other* source of the same class
                    }
                    let pr = cache.priority(&interner, c, c2);
                    if pr < p {
                        p = pr;
                    }
                }
                cached_p[c] = p;
            }
            cache_valid = true;
        }
        // Pick the class with maximal p; among argmax classes, the source
        // with the smallest component index (matching the naive engine).
        let mut best: Option<(f64, usize, ProfileClass)> = None;
        for &c in present.iter() {
            let p = cached_p[c];
            let Reverse(lowest) = *members[c].peek().expect("present classes have sources");
            let lowest = lowest as usize;
            let better = match best {
                None => true,
                Some((bp, bi, _)) => p > bp || (p == bp && lowest < bi),
            };
            if better {
                best = Some((p, lowest, c));
            }
        }
        let (_, chosen, chosen_class) = best.expect("present non-empty");
        let heap = &mut members[chosen_class];
        heap.pop();
        match heap.len() {
            0 => {
                let at = present
                    .binary_search(&chosen_class)
                    .expect("chosen class present");
                present.remove(at);
                cache_valid = false;
            }
            // Count dropped to 1: the class no longer competes with itself.
            1 => cache_valid = false,
            _ => {}
        }
        order.push(chosen);
        for &v in superdag.children(NodeId(chosen as u32)) {
            indeg[v.index()] -= 1;
            if indeg[v.index()] == 0 && add(v.index(), members, present) <= 2 {
                // New class appeared, or a lone class regained a rival.
                cache_valid = false;
            }
        }
    }
    debug_assert_eq!(order.len(), n, "superdag is acyclic");
    prio_obs::counter!("core.combine.profile_classes").add(num_classes as u64);
    prio_obs::counter!("core.combine.priority_cache_hits").add(cache.hits as u64);
    prio_obs::counter!("core.combine.priority_cache_misses").add(cache.misses as u64);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_graph::topo::is_linear_extension;

    fn check_both(superdag: &Dag, profiles: &[Vec<usize>]) -> Vec<usize> {
        let naive = combine(superdag, profiles, CombineEngine::Naive);
        let heap = combine(superdag, profiles, CombineEngine::ClassHeap);
        assert_eq!(naive, heap, "engines must agree");
        let as_nodes: Vec<NodeId> = naive.iter().map(|&i| NodeId(i as u32)).collect();
        assert!(is_linear_extension(superdag, &as_nodes));
        naive
    }

    #[test]
    fn fig3_combine_picks_cde_first() {
        // Two independent components: {a,b} profile [1,1], {c,d,e} [1,2].
        let superdag = Dag::from_arcs(2, &[]).unwrap();
        let profiles = vec![vec![1, 1], vec![1, 2]];
        assert_eq!(check_both(&superdag, &profiles), vec![1, 0]);
    }

    #[test]
    fn respects_superdag_precedence() {
        // Component 1 has the attractive profile but depends on 0.
        let superdag = Dag::from_arcs(2, &[(0, 1)]).unwrap();
        let profiles = vec![vec![1, 1], vec![1, 5]];
        assert_eq!(check_both(&superdag, &profiles), vec![0, 1]);
    }

    #[test]
    fn identical_profiles_fall_back_to_index_order() {
        let superdag = Dag::from_arcs(4, &[]).unwrap();
        let profiles = vec![vec![1, 2]; 4];
        assert_eq!(check_both(&superdag, &profiles), vec![0, 1, 2, 3]);
    }

    #[test]
    fn mixed_classes_and_dependencies() {
        // 0 -> 2, 1 -> 3; profiles make 1 (expansive) beat 0 (flat).
        let superdag = Dag::from_arcs(4, &[(0, 2), (1, 3)]).unwrap();
        let profiles = vec![vec![1, 1], vec![1, 3], vec![1, 2], vec![1, 1]];
        let order = check_both(&superdag, &profiles);
        assert_eq!(order[0], 1, "expansive root first");
        // All four appear exactly once.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_superdag() {
        let superdag = prio_graph::DagBuilder::new().build().unwrap();
        assert!(check_both(&superdag, &[]).is_empty());
    }

    #[test]
    fn single_supernode() {
        let superdag = Dag::from_arcs(1, &[]).unwrap();
        assert_eq!(check_both(&superdag, &[vec![2, 1]]), vec![0]);
    }

    #[test]
    fn many_identical_components_cache_effectively() {
        // 64 components of two alternating classes, no dependencies; the
        // class engine must produce the same order as naive.
        let superdag = Dag::from_arcs(64, &[]).unwrap();
        let profiles: Vec<Vec<usize>> = (0..64)
            .map(|i| if i % 2 == 0 { vec![1, 2] } else { vec![1, 1] })
            .collect();
        let order = check_both(&superdag, &profiles);
        // All the expansive (even) components come first.
        let first_half: Vec<usize> = order[..32].to_vec();
        assert!(first_half.iter().all(|i| i % 2 == 0));
    }
}
